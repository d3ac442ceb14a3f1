//! Printed power sources and the feasibility "sets" of Figures 3 and 19.
//!
//! The paper places every classifier design into the set of the *weakest*
//! printed power source able to supply its peak power draw: printed
//! piezoelectric harvesters (\[42\]), hybrid printed harvesters (\[40\]),
//! Blue Spark 10/30 mAh printed batteries (2 mA peak current, \[70\],\[71\]),
//! and Molex 90 mAh thin-film batteries (20 mA peak, ~3× the footprint,
//! \[2\]). Conventional EGT classifiers exceed all of them (Fig. 3); the
//! printing-specific architectures mostly fit (Fig. 19).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::{Area, Power};

/// A printed battery or energy harvester.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerSource {
    /// Marketing / paper name.
    pub name: &'static str,
    /// Maximum continuous power the source can deliver.
    pub peak_power: Power,
    /// Physical footprint of the source itself.
    pub area: Area,
    /// Energy capacity in mAh at the nominal voltage, if a battery.
    pub capacity_mah: Option<f64>,
    /// Source category.
    pub kind: SourceKind,
}

/// Battery vs harvester distinction (harvesters enable *self-powered* tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// Printed primary battery.
    Battery,
    /// Printed or hybrid energy harvester.
    Harvester,
}

impl PowerSource {
    /// All-inkjet-printed flexible piezoelectric generator (\[42\]).
    pub fn printed_harvester() -> Self {
        PowerSource {
            name: "Printed harvester",
            peak_power: Power::from_uw(120.0),
            area: Area::from_cm2(2.0),
            capacity_mah: None,
            kind: SourceKind::Harvester,
        }
    }

    /// Hybrid printed energy-harvesting module (\[40\]).
    pub fn hybrid_harvester() -> Self {
        PowerSource {
            name: "Hybrid harvester",
            peak_power: Power::from_mw(1.0),
            area: Area::from_cm2(4.0),
            capacity_mah: None,
            kind: SourceKind::Harvester,
        }
    }

    /// Blue Spark ultra-thin 10 mAh printed battery, 2 mA peak at 1.5 V.
    pub fn blue_spark_10mah() -> Self {
        PowerSource {
            name: "Blue Spark 10mAh",
            peak_power: Power::from_mw(3.0),
            area: Area::from_cm2(20.0),
            capacity_mah: Some(10.0),
            kind: SourceKind::Battery,
        }
    }

    /// Blue Spark standard-series 30 mAh printed battery, 2 mA peak at 1.5 V.
    pub fn blue_spark_30mah() -> Self {
        PowerSource {
            name: "Blue Spark 30mAh",
            peak_power: Power::from_mw(3.0),
            area: Area::from_cm2(25.0),
            capacity_mah: Some(30.0),
            kind: SourceKind::Battery,
        }
    }

    /// Molex 90 mAh thin-film battery, 20 mA peak at 1.5 V, ~3× Blue Spark's
    /// footprint.
    pub fn molex_90mah() -> Self {
        PowerSource {
            name: "Molex 90mAh",
            peak_power: Power::from_mw(30.0),
            area: Area::from_cm2(50.0),
            capacity_mah: Some(90.0),
            kind: SourceKind::Battery,
        }
    }

    /// The ladder of sources used by Figs. 3 and 19, weakest first.
    pub fn ladder() -> Vec<PowerSource> {
        vec![
            PowerSource::printed_harvester(),
            PowerSource::hybrid_harvester(),
            PowerSource::blue_spark_10mah(),
            PowerSource::blue_spark_30mah(),
            PowerSource::molex_90mah(),
        ]
    }

    /// True when this source can continuously supply `demand`.
    pub fn can_power(&self, demand: Power) -> bool {
        demand <= self.peak_power
    }

    /// Battery lifetime in hours at continuous `demand`, if this is a
    /// battery the demand fits in. Assumes a 1.5 V nominal printed cell.
    pub fn lifetime_hours(&self, demand: Power) -> Option<f64> {
        let mah = self.capacity_mah?;
        if !self.can_power(demand) || demand.is_zero() {
            return None;
        }
        let demand_ma = demand.as_mw() / 1.5;
        Some(mah / demand_ma)
    }
}

impl fmt::Display for PowerSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (peak {})", self.name, self.peak_power)
    }
}

/// The feasibility set a design lands in: the weakest source that powers it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Feasibility {
    /// Powerable; carries the weakest adequate source.
    PoweredBy(PowerSource),
    /// No printed source can power the design.
    Unpowerable,
}

impl Feasibility {
    /// True when some printed source can power the design.
    pub fn is_powerable(&self) -> bool {
        matches!(self, Feasibility::PoweredBy(_))
    }

    /// Name of the powering source, or `"none"`.
    pub fn source_name(&self) -> &'static str {
        match self {
            Feasibility::PoweredBy(s) => s.name,
            Feasibility::Unpowerable => "none",
        }
    }
}

/// Classifies a peak power demand against the standard source ladder:
/// returns the weakest source able to power `demand`.
///
/// ```
/// use pdk::power_src::{classify, Feasibility};
/// use pdk::units::Power;
/// match classify(Power::from_uw(50.0)) {
///     Feasibility::PoweredBy(src) => assert_eq!(src.name, "Printed harvester"),
///     Feasibility::Unpowerable => panic!("50 µW is harvestable"),
/// }
/// assert_eq!(classify(Power::from_w(1.0)), Feasibility::Unpowerable);
/// ```
pub fn classify(demand: Power) -> Feasibility {
    PowerSource::ladder()
        .into_iter()
        .find(|s| s.can_power(demand))
        .map(Feasibility::PoweredBy)
        .unwrap_or(Feasibility::Unpowerable)
}

impl fmt::Display for Feasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feasibility::PoweredBy(s) => write!(f, "powered by {}", s.name),
            Feasibility::Unpowerable => f.write_str("unpowerable by printed sources"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_sorted_weakest_first() {
        let ladder = PowerSource::ladder();
        for pair in ladder.windows(2) {
            assert!(pair[0].peak_power <= pair[1].peak_power);
        }
    }

    #[test]
    fn conventional_egt_trees_are_unpowerable() {
        // Fig. 3: even serial DT-1 in EGT (≈1.65 mW) is beyond the
        // harvesters, and DT-8 (≈71 mW logic) is beyond every source.
        assert_eq!(classify(Power::from_mw(71.0)), Feasibility::Unpowerable);
        let dt1 = classify(Power::from_mw(1.65));
        assert_eq!(dt1.source_name(), "Blue Spark 10mAh");
    }

    #[test]
    fn harvesters_power_analog_scale_designs() {
        let analog_dt = classify(Power::from_uw(40.0));
        assert_eq!(analog_dt.source_name(), "Printed harvester");
        assert!(analog_dt.is_powerable());
    }

    #[test]
    fn molex_is_the_strongest_battery() {
        let d = classify(Power::from_mw(20.0));
        assert_eq!(d.source_name(), "Molex 90mAh");
        assert!(!classify(Power::from_mw(31.0)).is_powerable());
    }

    #[test]
    fn lifetime_scales_inversely_with_demand() {
        let b = PowerSource::blue_spark_30mah();
        let slow = b.lifetime_hours(Power::from_uw(150.0)).unwrap();
        let fast = b.lifetime_hours(Power::from_uw(300.0)).unwrap();
        assert!((slow / fast - 2.0).abs() < 1e-9);
        // Over-budget or zero demands have no lifetime.
        assert!(b.lifetime_hours(Power::from_mw(10.0)).is_none());
        assert!(b.lifetime_hours(Power::ZERO).is_none());
        // Harvesters never report a battery lifetime.
        assert!(PowerSource::printed_harvester()
            .lifetime_hours(Power::from_uw(10.0))
            .is_none());
    }

    #[test]
    fn feasibility_displays_helpfully() {
        let s = format!("{}", classify(Power::from_uw(10.0)));
        assert!(s.contains("Printed harvester"));
        let u = format!("{}", Feasibility::Unpowerable);
        assert!(u.contains("unpowerable"));
    }
}
