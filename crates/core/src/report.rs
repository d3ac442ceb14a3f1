//! PPA reports and improvement ratios for classifier designs.
//!
//! Every architecture generator in this crate ends in a [`DesignReport`]:
//! the quantities the paper's Tables III–V and Figures 6–17 are built
//! from. [`Improvement`] expresses one design relative to a baseline the
//! way the paper does ("48.9× lower area", "1.6× slower").

use std::fmt;

use serde::{Deserialize, Serialize};

use pdk::power_src::Feasibility;
use pdk::units::{Area, Delay, Power};
use pdk::Technology;

/// The evaluated cost of one classifier design in one technology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignReport {
    /// Human-readable design name (e.g. `"bespoke-parallel-dt4-cardio"`).
    pub name: String,
    /// Technology the design was priced in.
    pub technology: Technology,
    /// End-to-end inference latency (cycles × clock for sequential
    /// designs, combinational critical path otherwise).
    pub latency: Delay,
    /// Total area.
    pub area: Area,
    /// Total static power.
    pub power: Power,
    /// Logic-only area (Table III separates logic from memory).
    pub logic_area: Area,
    /// ROM/memory area.
    pub memory_area: Area,
    /// Logic-only power.
    pub logic_power: Power,
    /// ROM/memory power.
    pub memory_power: Power,
    /// Standard-cell count (0 for analog designs).
    pub gate_count: usize,
    /// Clock cycles per inference (1 for combinational/analog designs).
    pub cycles: usize,
    /// Transistor count (meaningful for analog designs and prototypes).
    pub transistors: usize,
}

impl DesignReport {
    /// Which printed power source (if any) can power this design.
    pub fn feasibility(&self) -> Feasibility {
        pdk::classify(self.power)
    }

    /// Improvement ratios of `self` relative to `baseline`
    /// (values > 1 mean `self` is better; delay uses the same convention).
    pub fn improvement_over(&self, baseline: &DesignReport) -> Improvement {
        Improvement {
            delay: baseline.latency.ratio(self.latency),
            area: baseline.area.ratio(self.area),
            power: baseline.power.ratio(self.power),
        }
    }
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: delay {}, area {}, power {}, {} gates, {} cycles",
            self.name,
            self.technology,
            self.latency,
            self.area,
            self.power,
            self.gate_count,
            self.cycles
        )
    }
}

/// Ratios of a design against a baseline (a value of 48.9 in `area` reads
/// "48.9× lower area than the baseline").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Improvement {
    /// Baseline latency / this latency.
    pub delay: f64,
    /// Baseline area / this area.
    pub area: f64,
    /// Baseline power / this power.
    pub power: f64,
}

impl Improvement {
    /// Arithmetic-mean improvement across a set of designs (how the paper
    /// reports per-benchmark averages).
    pub fn mean(items: &[Improvement]) -> Improvement {
        assert!(!items.is_empty(), "mean over no improvements");
        let n = items.len() as f64;
        Improvement {
            delay: items.iter().map(|i| i.delay).sum::<f64>() / n,
            area: items.iter().map(|i| i.area).sum::<f64>() / n,
            power: items.iter().map(|i| i.power).sum::<f64>() / n,
        }
    }

    /// Component-wise median improvement across a set of designs: the
    /// middle value, or the mean of the two middle values.
    pub fn median(items: &[Improvement]) -> Improvement {
        assert!(!items.is_empty(), "median over no improvements");
        let median = |ratio: fn(&Improvement) -> f64| {
            let mut v: Vec<f64> = items.iter().map(ratio).collect();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            }
        };
        Improvement {
            delay: median(|i| i.delay),
            area: median(|i| i.area),
            power: median(|i| i.power),
        }
    }
}

impl fmt::Display for Improvement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}x delay, {:.2}x area, {:.2}x power",
            self.delay, self.area, self.power
        )
    }
}

/// Builds a [`DesignReport`] from a netlist analysis.
pub fn report_from_ppa(
    name: impl Into<String>,
    technology: Technology,
    ppa: &netlist::Ppa,
    cycles: usize,
) -> DesignReport {
    DesignReport {
        name: name.into(),
        technology,
        latency: ppa.latency(cycles),
        area: ppa.area,
        power: ppa.power,
        logic_area: ppa.logic_area,
        memory_area: ppa.rom_area,
        logic_power: ppa.logic_power,
        memory_power: ppa.rom_power,
        gate_count: ppa.gate_count,
        cycles,
        transistors: 0,
    }
}

/// Duty-cycled deployment model: the classifier evaluates `samples_per_hour`
/// times an hour and is power-gated in between (printed tags sleep; the
/// paper's applications have "low precision, duty cycle, and sample rate
/// requirements", §III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DutyCycle {
    /// Inferences per hour.
    pub samples_per_hour: f64,
}

impl DutyCycle {
    /// One inference per minute — the smart-packaging cadence.
    pub fn per_minute() -> Self {
        DutyCycle {
            samples_per_hour: 60.0,
        }
    }
}

impl DesignReport {
    /// Average power draw under a duty cycle: full power during the
    /// inference latency, zero while gated.
    pub fn average_power(&self, duty: DutyCycle) -> Power {
        let active_fraction = (self.latency.as_secs() * duty.samples_per_hour / 3600.0).min(1.0);
        self.power * active_fraction
    }

    /// Days a battery lasts powering this design at the given cadence
    /// (`None` for harvesters, over-budget demands, or zero draw).
    pub fn battery_days(&self, battery: &pdk::PowerSource, duty: DutyCycle) -> Option<f64> {
        // Peak feasibility first: the battery must survive the active
        // burst, not just the average.
        if !battery.can_power(self.power) {
            return None;
        }
        battery
            .lifetime_hours(self.average_power(duty))
            .map(|h| h / 24.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(area_mm2: f64, power_mw: f64, ms: f64) -> DesignReport {
        DesignReport {
            name: "t".into(),
            technology: Technology::Egt,
            latency: Delay::from_ms(ms),
            area: Area::from_mm2(area_mm2),
            power: Power::from_mw(power_mw),
            logic_area: Area::from_mm2(area_mm2),
            memory_area: Area::ZERO,
            logic_power: Power::from_mw(power_mw),
            memory_power: Power::ZERO,
            gate_count: 10,
            cycles: 1,
            transistors: 0,
        }
    }

    #[test]
    fn improvement_ratios_read_as_the_paper_reports() {
        let conventional = report(489.0, 75.6, 39.0);
        let bespoke = report(10.0, 1.0, 10.0);
        let imp = bespoke.improvement_over(&conventional);
        assert!((imp.area - 48.9).abs() < 1e-9);
        assert!((imp.power - 75.6).abs() < 1e-9);
        assert!((imp.delay - 3.9).abs() < 1e-9);
    }

    #[test]
    fn mean_improvement_averages_components() {
        let a = Improvement {
            delay: 2.0,
            area: 10.0,
            power: 4.0,
        };
        let b = Improvement {
            delay: 4.0,
            area: 30.0,
            power: 8.0,
        };
        let m = Improvement::mean(&[a, b]);
        assert_eq!(m.delay, 3.0);
        assert_eq!(m.area, 20.0);
        assert_eq!(m.power, 6.0);
    }

    #[test]
    fn feasibility_uses_power() {
        assert!(!report(1.0, 100.0, 1.0).feasibility().is_powerable());
        assert!(report(1.0, 0.05, 1.0).feasibility().is_powerable());
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", report(1.0, 1.0, 1.0));
        assert!(s.contains("EGT"));
        assert!(s.contains("gates"));
    }
}

#[cfg(test)]
mod duty_tests {
    use super::*;

    /// One inference per hour — the wound-dressing cadence.
    const HOURLY: DutyCycle = DutyCycle {
        samples_per_hour: 1.0,
    };

    fn report(power_mw: f64, latency_ms: f64) -> DesignReport {
        DesignReport {
            name: "t".into(),
            technology: Technology::Egt,
            latency: Delay::from_ms(latency_ms),
            area: Area::from_mm2(1.0),
            power: Power::from_mw(power_mw),
            logic_area: Area::from_mm2(1.0),
            memory_area: Area::ZERO,
            logic_power: Power::from_mw(power_mw),
            memory_power: Power::ZERO,
            gate_count: 1,
            cycles: 1,
            transistors: 0,
        }
    }

    #[test]
    fn average_power_scales_with_cadence() {
        let r = report(10.0, 100.0); // 100 ms inferences
        let per_min = r.average_power(DutyCycle::per_minute());
        let hourly = r.average_power(HOURLY);
        // 60 samples/h x 0.1 s = 6 s active per 3600 -> 1/600 duty.
        assert!((per_min.as_mw() - 10.0 / 600.0).abs() < 1e-9);
        assert!((hourly.as_mw() - 10.0 / 36000.0).abs() < 1e-12);
    }

    #[test]
    fn always_on_designs_cap_at_full_power() {
        let r = report(5.0, 120_000.0); // 2-minute inferences
        let avg = r.average_power(DutyCycle::per_minute());
        assert_eq!(avg.as_mw(), 5.0);
    }

    #[test]
    fn battery_days_require_peak_feasibility() {
        // 100 mW peak exceeds every printed battery even though the duty-
        // cycled average is tiny.
        let r = report(100.0, 10.0);
        let b = pdk::PowerSource::blue_spark_30mah();
        assert!(r.battery_days(&b, HOURLY).is_none());
        // A 1 mW design duty-cycled to a minute cadence lasts years.
        let ok = report(1.0, 10.0);
        let days = ok.battery_days(&b, DutyCycle::per_minute()).unwrap();
        assert!(days > 365.0, "{days} days");
    }
}
