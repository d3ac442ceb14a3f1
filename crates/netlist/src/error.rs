//! Typed simulation and equivalence-check errors.
//!
//! Both engines in this crate (the scalar reference
//! [`crate::sim::Simulator`] and the compiled
//! [`crate::compile::CompiledNetlist`] / [`crate::compile::WideSim`] tape)
//! expose fallible `try_*` entry points returning [`SimError`], and so do
//! [`crate::verify::miter`] and [`crate::verify::check_equivalence`]. The historical panicking
//! names remain as thin convenience wrappers over those, so library callers
//! — the differential fuzzer in `crates/check` first among them — can
//! distinguish "this input was rejected" from "two engines disagree"
//! without the process aborting.

use std::error::Error;
use std::fmt;

/// Why a module could not be simulated, a port binding failed, or two
/// modules could not be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The module failed [`crate::ir::Module::validate`].
    InvalidModule {
        /// Module name.
        module: String,
        /// The validation failure, verbatim.
        reason: String,
    },
    /// Levelization found a combinational cycle.
    CombinationalCycle {
        /// Module name.
        module: String,
        /// A net on the cycle (index into the module's net space).
        net: usize,
    },
    /// A combinational-only engine was handed a sequential module.
    Sequential {
        /// Module name.
        module: String,
    },
    /// A port binding named a port the module does not have.
    UnknownPort {
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// The requested port name.
        name: String,
    },
    /// More parallel lanes were requested than the engine supports.
    TooManyLanes {
        /// Lanes requested.
        given: usize,
        /// Lanes available.
        max: usize,
    },
    /// A packed vector had the wrong number of port values.
    VectorArity {
        /// Index of the offending vector.
        index: usize,
        /// Values supplied.
        got: usize,
        /// Input ports expected.
        want: usize,
    },
    /// A packed image had the wrong word count for this module/lane shape.
    ImageLength {
        /// Words supplied.
        got: usize,
        /// Words expected.
        want: usize,
    },
    /// Two modules handed to a miter disagree on input/output port count.
    PortCount {
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// Port count of module `a`.
        a: usize,
        /// Port count of module `b`.
        b: usize,
    },
    /// A corresponding port pair of two miter modules differs in name or
    /// width.
    PortShape {
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// Index of the mismatched port pair.
        index: usize,
        /// `name[width]` of module `a`'s port.
        a: String,
        /// `name[width]` of module `b`'s port.
        b: String,
    },
    /// A sampled equivalence check was asked to try zero vectors, which
    /// would pass without trying any.
    NoSamples {
        /// Name of the miter the check built.
        module: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidModule { module, reason } => {
                write!(f, "module {module} is invalid: {reason}")
            }
            SimError::CombinationalCycle { module, net } => {
                write!(
                    f,
                    "combinational cycle through net {net} in module {module}"
                )
            }
            SimError::Sequential { module } => {
                write!(
                    f,
                    "module {module} is sequential; this engine is combinational-only"
                )
            }
            SimError::UnknownPort { direction, name } => {
                write!(f, "no {direction} port named {name}")
            }
            SimError::TooManyLanes { given, max } => {
                write!(
                    f,
                    "{given} lanes requested but the engine holds at most {max}"
                )
            }
            SimError::VectorArity { index, got, want } => {
                write!(
                    f,
                    "vector {index} has {got} port values, module has {want} input ports"
                )
            }
            SimError::ImageLength { got, want } => {
                write!(f, "packed image has {got} words, expected {want}")
            }
            SimError::PortCount { direction, a, b } => {
                write!(f, "{direction} port count differs: {a} vs {b}")
            }
            SimError::PortShape {
                direction,
                index,
                a,
                b,
            } => write!(f, "{direction} port {index} differs: {a} vs {b}"),
            SimError::NoSamples { module } => {
                write!(
                    f,
                    "{module} is too wide to prove exhaustively and no samples were requested"
                )
            }
        }
    }
}

impl Error for SimError {}

impl SimError {
    /// Aborts with this error's display message.
    ///
    /// The panicking convenience wrappers (`Simulator::new`, `set`, `get`,
    /// …) route through here so the fallible `try_*` entry points stay the
    /// single source of truth for validation, and the legacy panic messages
    /// stay byte-identical to what callers and tests already match on.
    #[track_caller]
    pub fn raise(self) -> ! {
        panic!("{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_context() {
        for (e, shown) in [
            (
                SimError::CombinationalCycle {
                    module: "ring".into(),
                    net: 7,
                },
                "combinational cycle through net 7 in module ring",
            ),
            (
                SimError::UnknownPort {
                    direction: "input",
                    name: "x".into(),
                },
                "no input port named x",
            ),
            (
                SimError::PortCount {
                    direction: "output",
                    a: 2,
                    b: 3,
                },
                "output port count differs: 2 vs 3",
            ),
            (
                SimError::PortShape {
                    direction: "input",
                    index: 1,
                    a: "x[2]".into(),
                    b: "y[2]".into(),
                },
                "input port 1 differs: x[2] vs y[2]",
            ),
        ] {
            assert_eq!(e.to_string(), shown);
        }
    }
}
