//! The three fabrication technologies evaluated in the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A fabrication technology with a process design kit in this crate.
///
/// The paper evaluates each classifier architecture in two printed
/// technologies and one silicon reference:
///
/// * [`Technology::Egt`] — inkjet-printed electrolyte-gated transistors
///   (additive, mask-less, sub-cent marginal cost, ~1 V supply, millisecond
///   gate delays, mm-scale features).
/// * [`Technology::CntTft`] — subtractively printed carbon-nanotube
///   thin-film transistors (finer features than EGT, microsecond delays,
///   but higher equipment cost and higher power).
/// * [`Technology::Tsmc40`] — TSMC 40 nm bulk CMOS, the silicon baseline.
///
/// ```
/// use pdk::Technology;
/// assert!(Technology::Egt.is_printed());
/// assert!(!Technology::Tsmc40.is_printed());
/// assert_eq!(Technology::ALL.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technology {
    /// Inkjet-printed electrolyte-gated transistor technology.
    Egt,
    /// Carbon-nanotube thin-film transistor technology.
    CntTft,
    /// TSMC 40 nm silicon CMOS (reference point).
    Tsmc40,
}

impl Technology {
    /// All technologies, in the order the paper's tables list them.
    pub const ALL: [Technology; 3] = [Technology::Egt, Technology::CntTft, Technology::Tsmc40];

    /// True for additively or subtractively printed technologies.
    pub fn is_printed(self) -> bool {
        !matches!(self, Technology::Tsmc40)
    }

    /// Short display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            Technology::Egt => "EGT",
            Technology::CntTft => "CNT-TFT",
            Technology::Tsmc40 => "TSMC40nm",
        }
    }
}

/// A technology keys as its name.
impl cache::Hashable for Technology {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(self.name());
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_flags() {
        assert!(Technology::Egt.is_printed());
        assert!(Technology::CntTft.is_printed());
        assert!(!Technology::Tsmc40.is_printed());
    }

    #[test]
    fn display_matches_paper_headers() {
        assert_eq!(Technology::Egt.to_string(), "EGT");
        assert_eq!(Technology::CntTft.to_string(), "CNT-TFT");
        assert_eq!(Technology::Tsmc40.to_string(), "TSMC40nm");
    }
}
