//! Adaptive body biasing (ABB) — the alternative actuator the paper
//! cites as reference \[8\] (Jayakumar & Khatri, DAC'05).
//!
//! The paper's controller corrects variation by *moving the supply*
//! (adaptive voltage scaling, AVS). The same TDC signature can instead
//! drive the *well biases*: a slow die gets forward body bias (lower
//! Vth) until its replica delay matches the design target, with the
//! supply parked at the design MEP word. This module closes that loop
//! with the existing sensor so the two actuators can be compared.

use std::fmt;

use subvt_device::body_bias::{BodyBias, BodyEffect};
use subvt_device::constants::DCDC_LSB;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_device::units::Volts;
use subvt_digital::lut::VoltageWord;
use subvt_tdc::sensor::{word_voltage, SenseError, VariationSensor};

/// The ABB compensation loop: sensor deviations → well-bias updates.
#[derive(Debug, Clone, PartialEq)]
pub struct AbbCompensator {
    effect: BodyEffect,
    /// Current commanded bias.
    bias: BodyBias,
    /// Accumulated target threshold-shift cancellation.
    target_shift: Volts,
    iterations: u32,
}

/// Outcome of one ABB adjustment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbbStep {
    /// The bias was updated; the loop should re-measure.
    Adjusted {
        /// New bias in force.
        bias: BodyBias,
    },
    /// The sensor read on-target; nothing to do.
    OnTarget,
    /// The required shift exceeds the body-bias actuation window.
    RangeExhausted,
}

impl AbbCompensator {
    /// Creates a compensator around a body-effect model.
    pub fn new(effect: BodyEffect) -> AbbCompensator {
        AbbCompensator {
            effect,
            bias: BodyBias::ZERO,
            target_shift: Volts::ZERO,
            iterations: 0,
        }
    }

    /// Currently commanded bias.
    pub fn bias(&self) -> BodyBias {
        self.bias
    }

    /// Adjustment iterations performed.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Feeds one sensed deviation (LSBs; negative = slow). One LSB of
    /// deviation corresponds to ≈ one LSB (18.75 mV) of effective
    /// threshold shift, which the bias is asked to cancel.
    pub fn observe(&mut self, deviation: i16) -> AbbStep {
        if deviation == 0 {
            return AbbStep::OnTarget;
        }
        self.iterations += 1;
        // A slow reading (negative) means Vth is effectively high:
        // cancel with a negative Vth shift (forward bias).
        self.target_shift += DCDC_LSB * f64::from(deviation);
        match self.effect.bias_for_shift(self.target_shift) {
            Some(vbs) => {
                self.bias = BodyBias::symmetric(vbs);
                AbbStep::Adjusted { bias: self.bias }
            }
            None => {
                // Back the target off to the achievable edge.
                self.target_shift -= DCDC_LSB * f64::from(deviation);
                AbbStep::RangeExhausted
            }
        }
    }

    /// Runs the measure-adjust loop to convergence against a die.
    /// Returns the final bias and the residual deviation.
    ///
    /// # Errors
    ///
    /// Propagates sensor errors.
    pub fn converge(
        &mut self,
        tech: &Technology,
        sensor: &VariationSensor,
        word: VoltageWord,
        actual_env: Environment,
        process: GateMismatch,
        max_iterations: u32,
    ) -> Result<(BodyBias, i16), SenseError> {
        let eval = AnalyticEval::new(tech);
        let mut deviation = 0;
        for _ in 0..max_iterations {
            let effective = self.bias.compose(&self.effect, process);
            deviation =
                sensor.sense_with(&eval, word, word_voltage(word), actual_env, effective)?;
            match self.observe(deviation) {
                AbbStep::Adjusted { .. } => continue,
                AbbStep::OnTarget | AbbStep::RangeExhausted => break,
            }
        }
        Ok((self.bias, deviation))
    }
}

impl fmt::Display for AbbCompensator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "abb: vbs n={:.3} V p={:.3} V after {} iterations",
            self.bias.nmos_vbs.volts(),
            self.bias.pmos_vbs.volts(),
            self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_tdc::sensor::SensorConfig;

    fn setup() -> (Technology, VariationSensor, AbbCompensator) {
        let tech = Technology::st_130nm();
        let sensor = VariationSensor::with_eval(
            &AnalyticEval::new(&tech),
            Environment::nominal(),
            SensorConfig::default(),
        );
        let abb = AbbCompensator::new(BodyEffect::bulk_130nm());
        (tech, sensor, abb)
    }

    #[test]
    fn forward_bias_cancels_a_slow_die() {
        let (tech, sensor, mut abb) = setup();
        // A die 18.75 mV slow (one full LSB of effective Vth).
        let process = GateMismatch {
            nmos_dvth: Volts(0.018_75),
            pmos_dvth: Volts(0.018_75),
        };
        let (bias, residual) = abb
            .converge(&tech, &sensor, 12, Environment::nominal(), process, 8)
            .expect("sensor usable");
        assert!(
            bias.nmos_vbs.volts() > 0.05,
            "expected forward bias, got {bias:?}"
        );
        assert_eq!(residual, 0, "loop must converge to on-target");
        // The bias really cancels the threshold shift.
        let net = bias.compose(&BodyEffect::bulk_130nm(), process);
        assert!(net.nmos_dvth.volts().abs() < 0.005, "net {net:?}");
    }

    #[test]
    fn reverse_bias_slows_a_fast_die() {
        let (tech, sensor, mut abb) = setup();
        let process = GateMismatch {
            nmos_dvth: Volts(-0.018_75),
            pmos_dvth: Volts(-0.018_75),
        };
        let (bias, residual) = abb
            .converge(&tech, &sensor, 12, Environment::nominal(), process, 8)
            .expect("sensor usable");
        assert!(bias.nmos_vbs.volts() < -0.05, "expected reverse bias");
        assert_eq!(residual, 0);
    }

    #[test]
    fn nominal_die_needs_no_bias() {
        let (tech, sensor, mut abb) = setup();
        let (bias, residual) = abb
            .converge(
                &tech,
                &sensor,
                12,
                Environment::nominal(),
                GateMismatch::NOMINAL,
                8,
            )
            .expect("sensor usable");
        assert_eq!(bias, BodyBias::ZERO);
        assert_eq!(residual, 0);
        assert_eq!(abb.iterations(), 0);
    }

    #[test]
    fn actuation_window_is_respected() {
        let mut abb = AbbCompensator::new(BodyEffect::bulk_130nm());
        // Demand far more forward shift than the junction allows.
        let mut exhausted = false;
        for _ in 0..20 {
            if abb.observe(-3) == AbbStep::RangeExhausted {
                exhausted = true;
                break;
            }
        }
        assert!(exhausted, "window should run out");
        // The bias stays inside the window.
        let e = BodyEffect::bulk_130nm();
        assert!(abb.bias().nmos_vbs <= e.max_forward);
    }

    #[test]
    fn zero_deviation_is_on_target() {
        let mut abb = AbbCompensator::new(BodyEffect::bulk_130nm());
        assert_eq!(abb.observe(0), AbbStep::OnTarget);
        assert_eq!(abb.iterations(), 0);
    }

    #[test]
    fn display_reports_bias() {
        let mut abb = AbbCompensator::new(BodyEffect::bulk_130nm());
        abb.observe(-1);
        assert!(format!("{abb}").contains("iterations"));
    }

    #[test]
    fn abb_and_avs_reach_the_same_iso_delay_point() {
        // The two actuators are interchangeable for corner shifts: AVS
        // raises Vdd by ~1 LSB, ABB lowers Vth by ~1 LSB; both restore
        // the design delay. Check via the sensor reading zero.
        let (tech, sensor, mut abb) = setup();
        let process = GateMismatch {
            nmos_dvth: Volts(0.018_75),
            pmos_dvth: Volts(0.018_75),
        };
        // AVS route: supply one LSB up, no bias.
        let avs_dev = sensor
            .sense_with(
                &AnalyticEval::new(&tech),
                12,
                word_voltage(13),
                Environment::nominal(),
                process,
            )
            .unwrap();
        // ABB route: converge the bias at the design word.
        let (_, abb_dev) = abb
            .converge(&tech, &sensor, 12, Environment::nominal(), process, 8)
            .unwrap();
        assert_eq!(avs_dev, 0, "AVS route lands on target");
        assert_eq!(abb_dev, 0, "ABB route lands on target");
    }
}
