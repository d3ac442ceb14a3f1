//! Complete printed classification systems (§VII, Fig. 18).
//!
//! "A printed ML classifier is only a component of a complete
//! classification system": sensors, optional ADCs, optional feature
//! extraction, the classifier, and a power source, all printed onto one
//! substrate. This module rolls those up:
//!
//! * printed sensor: ~0.5 mm², < 2 mW (\[38\]);
//! * EGT ADCs: 2-bit 3.76 mm² / 60 µW, 4-bit 25.4 mm² / 360 µW (\[10\]) —
//!   wider ADCs extrapolate by the same ×6.75 area / ×6 power per 2 bits;
//! * microprocessor-based feature extraction: ~2–3 cm² (\[10\]);
//! * analog classifiers may *bypass ADCs entirely* (direct sensor
//!   interfacing, \[60\]);
//! * the classifier itself is any [`DesignReport`].

use serde::Serialize;

use pdk::power_src::Feasibility;
use pdk::units::{Area, Power};

use crate::report::DesignReport;

/// A printed sensor front-end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sensor {
    /// Footprint per sensing element.
    pub area: Area,
    /// Active power per element.
    pub power: Power,
}

impl Sensor {
    /// The electrochemical tattoo-class sensor the paper cites (\[38\]):
    /// ~0.5 mm², "< 2 mW" worst case; a passive chemiresistive element
    /// idles far below that.
    pub fn printed_default() -> Self {
        Sensor {
            area: Area::from_mm2(0.5),
            power: Power::from_uw(300.0),
        }
    }
}

/// A printed analog-to-digital converter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Adc {
    /// Resolution in bits.
    pub bits: usize,
    /// Footprint.
    pub area: Area,
    /// Conversion power.
    pub power: Power,
}

impl Adc {
    /// EGT-printed ADC at `bits` resolution, anchored to the paper's 2-bit
    /// (3.76 mm², 60 µW) and 4-bit (25.4 mm², 360 µW) quotes and
    /// extrapolated geometrically beyond.
    ///
    /// # Panics
    /// Panics unless `2 <= bits <= 16`.
    pub fn egt(bits: usize) -> Self {
        assert!((2..=16).contains(&bits), "printable ADCs: 2..=16 bits");
        // Per +2 bits: area x6.755, power x6 (from the two anchors).
        let steps = (bits as f64 - 2.0) / 2.0;
        Adc {
            bits,
            area: Area::from_mm2(3.76 * 6.755f64.powf(steps)),
            power: Power::from_uw(60.0 * 6.0f64.powf(steps)),
        }
    }
}

/// A feature-extraction stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FeatureExtraction {
    /// None needed — the classifier consumes sensed signals directly
    /// (HAR, Pendigits, the wines — §VII).
    None,
    /// Software on a printed microprocessor (~2–3 cm², \[10\]).
    PrintedMicroprocessor,
    /// A custom fixed-function unit, scaled as a fraction of the
    /// microprocessor.
    FixedFunction,
}

impl FeatureExtraction {
    fn area(self) -> Area {
        match self {
            FeatureExtraction::None => Area::ZERO,
            FeatureExtraction::PrintedMicroprocessor => Area::from_cm2(2.5),
            FeatureExtraction::FixedFunction => Area::from_cm2(0.8),
        }
    }

    fn power(self) -> Power {
        match self {
            FeatureExtraction::None => Power::ZERO,
            FeatureExtraction::PrintedMicroprocessor => Power::from_mw(1.2),
            FeatureExtraction::FixedFunction => Power::from_uw(400.0),
        }
    }
}

/// A complete printed classification system (Fig. 18).
#[derive(Debug, Clone, Serialize)]
pub struct ClassifierSystem {
    /// The classifier design at the heart of the system.
    pub classifier: DesignReport,
    /// Sensor elements (one per feature actually consumed).
    pub sensors: usize,
    /// Sensor model.
    pub sensor: Sensor,
    /// ADC, if the classifier needs digital codes. Analog classifiers and
    /// direct-interfacing systems omit it (\[60\]).
    pub adc: Option<Adc>,
    /// Feature-extraction stage.
    pub feature_extraction: FeatureExtraction,
}

impl ClassifierSystem {
    /// A digital system: sensors → shared ADC → (optional FE) → classifier.
    pub fn digital(
        classifier: DesignReport,
        sensors: usize,
        adc_bits: usize,
        feature_extraction: FeatureExtraction,
    ) -> Self {
        ClassifierSystem {
            classifier,
            sensors,
            sensor: Sensor::printed_default(),
            adc: Some(Adc::egt(adc_bits)),
            feature_extraction,
        }
    }

    /// An analog system: sensors drive the classifier directly; no ADC.
    pub fn analog(classifier: DesignReport, sensors: usize) -> Self {
        ClassifierSystem {
            classifier,
            sensors,
            sensor: Sensor::printed_default(),
            adc: None,
            feature_extraction: FeatureExtraction::None,
        }
    }

    /// Total system area.
    pub fn area(&self) -> Area {
        self.sensor.area * self.sensors as f64
            + self.adc.map_or(Area::ZERO, |a| a.area)
            + self.feature_extraction.area()
            + self.classifier.area
    }

    /// Total system power.
    pub fn power(&self) -> Power {
        self.sensor.power * self.sensors as f64
            + self.adc.map_or(Power::ZERO, |a| a.power)
            + self.feature_extraction.power()
            + self.classifier.power
    }

    /// Which printed source can power the whole system.
    pub fn feasibility(&self) -> Feasibility {
        pdk::classify(self.power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{TreeArch, TreeFlow};
    use analog::tree::AnalogTreeConfig;
    use ml::synth::Application;
    use pdk::Technology;

    #[test]
    fn adc_anchors_match_the_paper() {
        let a2 = Adc::egt(2);
        assert!((a2.area.as_mm2() - 3.76).abs() < 1e-9);
        assert!((a2.power.as_uw() - 60.0).abs() < 1e-9);
        let a4 = Adc::egt(4);
        assert!((a4.area.as_mm2() - 25.4).abs() < 0.01);
        assert!((a4.power.as_uw() - 360.0).abs() < 0.01);
        assert!(Adc::egt(8).area > a4.area * 10.0);
    }

    #[test]
    fn conventional_classifiers_dominate_their_system() {
        // §VII: "Conventional EGT-printed classifiers are often much
        // bigger (~20 to 1445 cm²)" than every other system component.
        let flow = TreeFlow::new(Application::Pendigits, 8, 7);
        let conv = flow.report(TreeArch::ConventionalParallel, Technology::Egt);
        let sys = ClassifierSystem::digital(conv, 14, 4, FeatureExtraction::None);
        let share = sys.classifier.area.ratio(sys.area());
        assert!(share > 0.9, "share {share}");
        assert!(!sys.feasibility().is_powerable());
    }

    #[test]
    fn optimized_classifiers_shrink_below_the_support_circuitry() {
        // The techniques "provide significant system-level benefits": for
        // an analog classifier the sensors dominate.
        let flow = TreeFlow::new(Application::Har, 4, 7);
        let analog = flow.report(
            TreeArch::Analog(AnalogTreeConfig::default()),
            Technology::Egt,
        );
        let sys = ClassifierSystem::analog(analog, 8);
        let share = sys.classifier.area.ratio(sys.area());
        assert!(share < 0.5, "share {share}");
    }

    #[test]
    fn analog_systems_skip_the_adc_and_save_its_power() {
        let flow = TreeFlow::new(Application::Har, 4, 7);
        let digital = ClassifierSystem::digital(
            flow.report(TreeArch::BespokeParallel, Technology::Egt),
            8,
            flow.choice.bits.clamp(2, 16),
            FeatureExtraction::None,
        );
        let analog = ClassifierSystem::analog(
            flow.report(
                TreeArch::Analog(AnalogTreeConfig::default()),
                Technology::Egt,
            ),
            8,
        );
        assert!(analog.power() < digital.power());
        assert!(analog.area() < digital.area());
    }

    #[test]
    fn feature_extraction_costs_are_ordered() {
        assert!(FeatureExtraction::None.area().is_zero());
        assert!(
            FeatureExtraction::FixedFunction.area()
                < FeatureExtraction::PrintedMicroprocessor.area()
        );
        assert!(
            FeatureExtraction::FixedFunction.power()
                < FeatureExtraction::PrintedMicroprocessor.power()
        );
    }
}
