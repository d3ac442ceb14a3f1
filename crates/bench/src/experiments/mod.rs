//! One regenerator function per table and figure of the paper.

pub mod ablations;
pub mod figures;
pub mod tables;

pub use ablations::ablations;
pub use figures::{fig10, fig11, fig12, fig13, fig16, fig17, fig19, fig3, fig6, fig7, fig9};
pub use tables::{table1, table2, table3, table4, table5};

/// A named experiment regenerator.
pub type Experiment = (&'static str, fn() -> Vec<crate::Table>);

/// Every regenerator, in the canonical report order (`repro_all` runs
/// them all, or the ones `--only` names).
pub const ALL: [Experiment; 17] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig3", fig3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig19", fig19),
    ("ablations", ablations),
];
