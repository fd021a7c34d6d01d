//! The paper's "alternate method": a counter-based feedback conversion.
//!
//! Sec. II-A: "Alternate method employs feedback loop where the range
//! of the conversion can be controlled by keeping track of a single
//! counter with resolution higher than the direct method or varying
//! the 'Ref_clk' to a much lower frequency."
//!
//! A replica ring oscillator runs at the measured supply; a counter
//! counts its edges inside a fixed gate window. The count is a direct
//! digital image of the replica frequency — range is set by the window
//! length instead of the line length, so one configuration covers the
//! whole supply range (at the cost of a longer conversion).

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_device::units::{Seconds, Volts};

use crate::delay_line::{CellKind, DelayLine};

/// The counter-based sensor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSensor {
    /// Ring length in delay cells (odd; the ring inverts once).
    pub ring_stages: u8,
    /// Gate window during which edges are counted.
    pub window: Seconds,
    /// Counter width in bits (the count saturates at 2^width − 1).
    pub counter_bits: u8,
}

impl CounterSensor {
    /// A sensor with a 15-cell replica ring and the given window.
    ///
    /// # Panics
    ///
    /// Panics unless the ring length is odd and ≥ 3, the window
    /// positive, and the counter width in 1..=32.
    pub fn new(ring_stages: u8, window: Seconds, counter_bits: u8) -> CounterSensor {
        assert!(
            ring_stages >= 3 && ring_stages % 2 == 1,
            "ring needs an odd stage count ≥ 3"
        );
        assert!(window.value() > 0.0, "window must be positive");
        assert!(
            (1..=32).contains(&counter_bits),
            "counter width out of range"
        );
        CounterSensor {
            ring_stages,
            window,
            counter_bits,
        }
    }

    /// A configuration covering the full 0.1-1.2 V range with a 100 µs
    /// window (the "much lower frequency" regime).
    pub fn full_range() -> CounterSensor {
        CounterSensor::new(15, Seconds::from_micros(100.0), 24)
    }

    /// Maximum representable count.
    pub fn max_count(&self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }

    /// The replica ring's oscillation period at an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn ring_period(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        let line = DelayLine::new(self.ring_stages, CellKind::InvNor).with_mismatch(mismatch);
        let cell = line.cell_delay_with(&AnalyticEval::new(tech), vdd, env)?;
        Ok(cell * (2.0 * f64::from(self.ring_stages)))
    }

    /// Counts ring edges inside the window. A supply below the
    /// functional floor reads zero (the ring does not oscillate).
    pub fn measure(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> u64 {
        match self.ring_period(tech, vdd, env, mismatch) {
            Ok(period) => {
                let count = (self.window.value() / period.value()).floor() as u64;
                count.min(self.max_count())
            }
            Err(_) => 0,
        }
    }

    /// Voltage resolution around an operating point: the supply step
    /// that changes the count by one, estimated by finite differences.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn resolution_at(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Volts, SupplyRangeError> {
        let dv = Volts(0.002);
        let p0 = self.ring_period(tech, vdd, env, GateMismatch::NOMINAL)?;
        let p1 = self.ring_period(tech, vdd + dv, env, GateMismatch::NOMINAL)?;
        let c0 = self.window.value() / p0.value();
        let c1 = self.window.value() / p1.value();
        let counts_per_volt = (c1 - c0) / dv.volts();
        if counts_per_volt <= 0.0 {
            return Ok(Volts(f64::INFINITY));
        }
        Ok(Volts(1.0 / counts_per_volt))
    }
}

impl Default for CounterSensor {
    fn default() -> Self {
        CounterSensor::full_range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::corner::ProcessCorner;

    fn fixture() -> (Technology, CounterSensor) {
        (Technology::st_130nm(), CounterSensor::full_range())
    }

    #[test]
    fn count_is_monotone_in_supply() {
        let (tech, sensor) = fixture();
        let env = Environment::nominal();
        let mut last = 0u64;
        for mv in (150..=1200).step_by(75) {
            let c = sensor.measure(
                &tech,
                Volts::from_millivolts(f64::from(mv)),
                env,
                GateMismatch::NOMINAL,
            );
            assert!(c > last, "count fell at {mv} mV: {c} <= {last}");
            last = c;
        }
    }

    #[test]
    fn one_configuration_covers_the_full_range() {
        // The direct method needs per-band Ref_clk; the counter method
        // reads non-zero, non-saturated counts from 150 mV to 1.2 V.
        let (tech, sensor) = fixture();
        let env = Environment::nominal();
        for mv in [150.0, 300.0, 600.0, 900.0, 1200.0] {
            let c = sensor.measure(
                &tech,
                Volts::from_millivolts(mv),
                env,
                GateMismatch::NOMINAL,
            );
            assert!(c > 0, "{mv} mV reads zero");
            assert!(c < sensor.max_count(), "{mv} mV saturates");
        }
    }

    #[test]
    fn slow_corner_counts_less() {
        let (tech, sensor) = fixture();
        let v = Volts(0.25);
        let tt = sensor.measure(&tech, v, Environment::nominal(), GateMismatch::NOMINAL);
        let ss = sensor.measure(
            &tech,
            v,
            Environment::at_corner(ProcessCorner::Ss),
            GateMismatch::NOMINAL,
        );
        assert!(ss < tt, "tt {tt} ss {ss}");
    }

    #[test]
    fn below_floor_reads_zero() {
        let (tech, sensor) = fixture();
        assert_eq!(
            sensor.measure(
                &tech,
                Volts(0.05),
                Environment::nominal(),
                GateMismatch::NOMINAL
            ),
            0
        );
    }

    #[test]
    fn longer_window_refines_resolution() {
        let tech = Technology::st_130nm();
        let env = Environment::nominal();
        let short = CounterSensor::new(15, Seconds::from_micros(10.0), 24);
        let long = CounterSensor::new(15, Seconds::from_micros(1000.0), 24);
        let v = Volts(0.25);
        let r_short = short.resolution_at(&tech, v, env).unwrap();
        let r_long = long.resolution_at(&tech, v, env).unwrap();
        assert!(
            r_long.volts() < r_short.volts() / 50.0,
            "short {r_short}, long {r_long}"
        );
    }

    #[test]
    fn subthreshold_resolution_beats_one_lsb_with_full_range_config() {
        // "with resolution higher than the direct method": around the
        // MEP voltages the 100 µs window resolves well below 18.75 mV.
        let (tech, sensor) = fixture();
        let r = sensor
            .resolution_at(&tech, Volts(0.22), Environment::nominal())
            .unwrap();
        assert!(r.millivolts() < 18.75 / 4.0, "resolution {r}");
    }

    #[test]
    fn counter_saturates_gracefully() {
        let tech = Technology::st_130nm();
        let tiny = CounterSensor::new(3, Seconds::from_micros(1000.0), 8);
        let c = tiny.measure(
            &tech,
            Volts(1.2),
            Environment::nominal(),
            GateMismatch::NOMINAL,
        );
        assert_eq!(c, tiny.max_count());
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_ring_rejected() {
        let _ = CounterSensor::new(4, Seconds::from_micros(1.0), 16);
    }
}
