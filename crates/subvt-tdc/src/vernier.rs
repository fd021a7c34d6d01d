//! Vernier time-to-digital conversion: sub-cell-delay resolution.
//!
//! The paper's direct quantizer resolves one delay-cell per stage. A
//! Vernier TDC launches the measured edge down a *slow* line and the
//! sampling edge down a slightly *faster* line; the stage where the
//! fast edge overtakes the slow one measures the input interval with a
//! resolution of `t_slow − t_fast` — the classic way to buy resolution
//! beyond a single gate delay, included here as the natural extension
//! of the paper's sensor (their ref. \[16\] builds a related structure).

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_device::units::{Seconds, Volts};

use crate::delay_line::{CellKind, DelayLine};

/// A Vernier TDC built from two replica lines whose cells differ by a
/// deliberate sizing/fanout skew.
#[derive(Debug, Clone, PartialEq)]
pub struct VernierTdc {
    stages: u16,
    /// Fanout factor of the slow line's cells relative to the fast
    /// line's (> 1; sets the resolution).
    skew: f64,
}

/// Outcome of one Vernier conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VernierReading {
    /// The fast edge caught the slow edge at this stage.
    Caught {
        /// Stage index of the catch (1-based).
        stage: u16,
    },
    /// The interval exceeded the line's range.
    OutOfRange,
}

impl VernierTdc {
    /// Creates a Vernier TDC.
    ///
    /// # Panics
    ///
    /// Panics unless `stages ≥ 1` and `skew > 1`.
    pub fn new(stages: u16, skew: f64) -> VernierTdc {
        assert!(stages >= 1, "need at least one stage");
        assert!(skew > 1.0, "slow line must be slower (skew > 1)");
        VernierTdc { stages, skew }
    }

    /// A 256-stage TDC with a 5 % cell skew.
    pub fn fine_grained() -> VernierTdc {
        VernierTdc::new(256, 1.05)
    }

    /// Number of Vernier stages.
    pub fn stages(&self) -> u16 {
        self.stages
    }

    /// Per-stage time resolution at an operating point:
    /// `(skew − 1) × t_cell`.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn resolution(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Seconds, SupplyRangeError> {
        let cell = self.fast_cell(tech, vdd, env, GateMismatch::NOMINAL)?;
        Ok(Seconds(cell.value() * (self.skew - 1.0)))
    }

    /// Full measurable range: `stages × resolution`.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn range(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Seconds, SupplyRangeError> {
        Ok(self.resolution(tech, vdd, env)? * f64::from(self.stages))
    }

    fn fast_cell(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        DelayLine::new(64, CellKind::Inverter)
            .with_mismatch(mismatch)
            .cell_delay_with(&AnalyticEval::new(tech), vdd, env)
    }

    /// Converts a time interval: the slow edge leads by `interval`, the
    /// fast edge gains `resolution` per stage and catches it at stage
    /// `ceil(interval / resolution)`.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn convert(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        interval: Seconds,
    ) -> Result<VernierReading, SupplyRangeError> {
        let cell = self.fast_cell(tech, vdd, env, mismatch)?;
        let step = cell.value() * (self.skew - 1.0);
        if interval.value() <= 0.0 {
            return Ok(VernierReading::Caught { stage: 1 });
        }
        let stage = (interval.value() / step).ceil();
        if stage > f64::from(self.stages) {
            Ok(VernierReading::OutOfRange)
        } else {
            Ok(VernierReading::Caught {
                stage: stage as u16,
            })
        }
    }

    /// Reconstructs the measured interval from a reading (the midpoint
    /// of the stage's time bin).
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn interval_from(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        reading: VernierReading,
    ) -> Result<Option<Seconds>, SupplyRangeError> {
        match reading {
            VernierReading::OutOfRange => Ok(None),
            VernierReading::Caught { stage } => {
                let step = self.resolution(tech, vdd, env)?;
                Ok(Some(Seconds(step.value() * (f64::from(stage) - 0.5))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Technology, VernierTdc, Environment) {
        (
            Technology::st_130nm(),
            VernierTdc::fine_grained(),
            Environment::nominal(),
        )
    }

    #[test]
    fn resolution_is_a_twentieth_of_a_cell() {
        let (tech, tdc, env) = fixture();
        let vdd = Volts(0.6);
        let cell = DelayLine::new(64, CellKind::Inverter)
            .cell_delay_with(&AnalyticEval::new(&tech), vdd, env)
            .unwrap();
        let r = tdc.resolution(&tech, vdd, env).unwrap();
        assert!((r.value() / cell.value() - 0.05).abs() < 1e-9);
        // 5 % of 442 ps ≈ 22 ps: far finer than the direct method's
        // one-cell (442 ps) resolution.
        assert!((r.picos() - 22.1).abs() < 1.0, "{} ps", r.picos());
    }

    #[test]
    fn conversion_round_trips_within_one_bin() {
        let (tech, tdc, env) = fixture();
        let vdd = Volts(0.6);
        let r = tdc.resolution(&tech, vdd, env).unwrap();
        for k in [1.0, 7.3, 42.9, 200.0] {
            let interval = Seconds(r.value() * k);
            let reading = tdc
                .convert(&tech, vdd, env, GateMismatch::NOMINAL, interval)
                .unwrap();
            let back = tdc
                .interval_from(&tech, vdd, env, reading)
                .unwrap()
                .expect("in range");
            assert!(
                (back.value() - interval.value()).abs() <= r.value(),
                "k={k}: {} vs {}",
                back.picos(),
                interval.picos()
            );
        }
    }

    #[test]
    fn reading_is_monotone_in_interval() {
        let (tech, tdc, env) = fixture();
        let vdd = Volts(0.6);
        let r = tdc.resolution(&tech, vdd, env).unwrap();
        let mut last = 0u16;
        for k in 1..=20 {
            let interval = Seconds(r.value() * f64::from(k) * 10.0);
            match tdc
                .convert(&tech, vdd, env, GateMismatch::NOMINAL, interval)
                .unwrap()
            {
                VernierReading::Caught { stage } => {
                    assert!(stage >= last);
                    last = stage;
                }
                VernierReading::OutOfRange => panic!("within range by construction"),
            }
        }
    }

    #[test]
    fn long_interval_is_out_of_range() {
        let (tech, tdc, env) = fixture();
        let vdd = Volts(0.6);
        let range = tdc.range(&tech, vdd, env).unwrap();
        let reading = tdc
            .convert(
                &tech,
                vdd,
                env,
                GateMismatch::NOMINAL,
                Seconds(range.value() * 1.01),
            )
            .unwrap();
        assert_eq!(reading, VernierReading::OutOfRange);
        assert_eq!(tdc.interval_from(&tech, vdd, env, reading).unwrap(), None);
    }

    #[test]
    fn zero_interval_reads_first_stage() {
        let (tech, tdc, env) = fixture();
        let reading = tdc
            .convert(&tech, Volts(0.6), env, GateMismatch::NOMINAL, Seconds::ZERO)
            .unwrap();
        assert_eq!(reading, VernierReading::Caught { stage: 1 });
    }

    #[test]
    fn subthreshold_resolution_scales_with_cell_delay() {
        let (tech, tdc, env) = fixture();
        let r_200 = tdc.resolution(&tech, Volts(0.2), env).unwrap();
        let r_1200 = tdc.resolution(&tech, Volts(1.2), env).unwrap();
        assert!(r_200.value() > 100.0 * r_1200.value());
    }

    #[test]
    #[should_panic(expected = "skew > 1")]
    fn equal_lines_rejected() {
        let _ = VernierTdc::new(64, 1.0);
    }
}
