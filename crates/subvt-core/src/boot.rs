//! Startup sequencing: soft-start and the initial calibration check.
//!
//! Paper Sec. II-A: "the reference signal is chosen carefully so that
//! the range of the conversion is quantified by an initial calibration
//! process" — and any buck converter started straight into a high duty
//! value slams the inductor. The boot sequence ramps the duty one LSB
//! per system cycle and then verifies the sensor reads on-target before
//! handing control to the adaptive loop.

use std::fmt;

use subvt_dcdc::converter::DcDcConverter;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_digital::lut::VoltageWord;
use subvt_tdc::sensor::{SenseError, VariationSensor};

/// Boot progress states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootState {
    /// Ramping the duty toward the target word.
    SoftStart {
        /// Duty currently applied.
        current: VoltageWord,
    },
    /// Waiting for the output to settle at the target.
    Settling {
        /// Cycles remaining in the settle window.
        remaining: u32,
    },
    /// Measuring the sensor against the expected code.
    CalibrationCheck,
    /// Boot complete; the adaptive loop may take over.
    Ready {
        /// Deviation observed during the calibration check.
        initial_deviation: i16,
    },
    /// The calibration check failed repeatedly.
    Failed,
}

/// The boot sequencer.
#[derive(Debug)]
pub struct BootSequence {
    target: VoltageWord,
    settle_cycles: u32,
    max_calibration_retries: u32,
    retries: u32,
    state: BootState,
    peak_inductor_current: f64,
}

impl BootSequence {
    /// Creates a sequencer targeting `target` with a settle window.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero or the settle window is zero.
    pub fn new(target: VoltageWord, settle_cycles: u32) -> BootSequence {
        assert!(target > 0, "boot target must be non-zero");
        assert!(settle_cycles > 0, "need a settle window");
        BootSequence {
            target,
            settle_cycles,
            max_calibration_retries: 5,
            retries: 0,
            state: BootState::SoftStart { current: 0 },
            peak_inductor_current: 0.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BootState {
        self.state
    }

    /// Peak inductor current magnitude observed during boot (A).
    pub fn peak_inductor_current(&self) -> f64 {
        self.peak_inductor_current
    }

    /// True once the sequencer reached `Ready`.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, BootState::Ready { .. })
    }

    /// Advances one system cycle against the converter and sensor.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable sensor errors (unusable band).
    pub fn step(
        &mut self,
        converter: &mut DcDcConverter,
        sensor: &VariationSensor,
        tech: &Technology,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<BootState, SenseError> {
        match self.state {
            BootState::SoftStart { current } => {
                let next = (current + 1).min(self.target);
                converter.set_word(next);
                converter.run_system_cycles(1);
                self.peak_inductor_current = self
                    .peak_inductor_current
                    .max(converter.inductor_current().abs());
                self.state = if next == self.target {
                    BootState::Settling {
                        remaining: self.settle_cycles,
                    }
                } else {
                    BootState::SoftStart { current: next }
                };
            }
            BootState::Settling { remaining } => {
                converter.run_system_cycles(1);
                self.peak_inductor_current = self
                    .peak_inductor_current
                    .max(converter.inductor_current().abs());
                self.state = if remaining <= 1 {
                    BootState::CalibrationCheck
                } else {
                    BootState::Settling {
                        remaining: remaining - 1,
                    }
                };
            }
            BootState::CalibrationCheck => {
                converter.run_system_cycles(1);
                let deviation = sensor.sense_with(
                    &AnalyticEval::new(tech),
                    self.target,
                    converter.vout(),
                    env,
                    mismatch,
                )?;
                // A fresh, nominal-corner chip should read within the
                // sensor quantization; larger readings mean the supply
                // has not settled or the die is far off — retry.
                if deviation.abs() <= 1 {
                    self.state = BootState::Ready {
                        initial_deviation: deviation,
                    };
                } else {
                    self.retries += 1;
                    self.state = if self.retries >= self.max_calibration_retries {
                        BootState::Failed
                    } else {
                        BootState::Settling { remaining: 4 }
                    };
                }
            }
            BootState::Ready { .. } | BootState::Failed => {}
        }
        Ok(self.state)
    }

    /// Runs the sequence to completion (or failure), bounded by
    /// `max_cycles`.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable sensor errors.
    pub fn run(
        &mut self,
        converter: &mut DcDcConverter,
        sensor: &VariationSensor,
        tech: &Technology,
        env: Environment,
        mismatch: GateMismatch,
        max_cycles: u32,
    ) -> Result<BootState, SenseError> {
        for _ in 0..max_cycles {
            let state = self.step(converter, sensor, tech, env, mismatch)?;
            if matches!(state, BootState::Ready { .. } | BootState::Failed) {
                break;
            }
        }
        Ok(self.state)
    }
}

impl fmt::Display for BootSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "boot → {:?} (peak |i_L| {:.1} mA)",
            self.state,
            self.peak_inductor_current * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_dcdc::converter::ConverterParams;
    use subvt_dcdc::filter::NoLoad;
    use subvt_tdc::sensor::SensorConfig;

    fn setup() -> (Technology, VariationSensor, DcDcConverter) {
        let tech = Technology::st_130nm();
        let sensor = VariationSensor::with_eval(
            &AnalyticEval::new(&tech),
            Environment::nominal(),
            SensorConfig::default(),
        );
        let converter = DcDcConverter::new(ConverterParams::default(), Box::new(NoLoad));
        (tech, sensor, converter)
    }

    #[test]
    fn boot_reaches_ready_on_a_nominal_chip() {
        let (tech, sensor, mut converter) = setup();
        let mut boot = BootSequence::new(19, 30);
        let state = boot
            .run(
                &mut converter,
                &sensor,
                &tech,
                Environment::nominal(),
                GateMismatch::NOMINAL,
                200,
            )
            .expect("sensor usable");
        assert!(
            matches!(state, BootState::Ready { initial_deviation } if initial_deviation.abs() <= 1),
            "{state:?}"
        );
        assert!(boot.is_ready());
        // The output really is at the target.
        assert!((converter.vout().millivolts() - 356.25).abs() < 10.0);
    }

    #[test]
    fn soft_start_limits_inrush_current() {
        let (tech, sensor, mut soft_conv) = setup();
        let mut boot = BootSequence::new(47, 30);
        boot.run(
            &mut soft_conv,
            &sensor,
            &tech,
            Environment::nominal(),
            GateMismatch::NOMINAL,
            300,
        )
        .unwrap();
        let soft_peak = boot.peak_inductor_current();

        // Hard start: slam the full word immediately.
        let (_, _, mut hard_conv) = setup();
        hard_conv.set_word(47);
        let mut hard_peak = 0.0f64;
        for _ in 0..100 {
            hard_conv.run_system_cycles(1);
            hard_peak = hard_peak.max(hard_conv.inductor_current().abs());
        }
        assert!(
            soft_peak < 0.7 * hard_peak,
            "soft {soft_peak} A vs hard {hard_peak} A"
        );
    }

    #[test]
    fn boot_state_machine_passes_through_all_phases() {
        let (tech, sensor, mut converter) = setup();
        let mut boot = BootSequence::new(12, 2);
        let mut seen_soft = false;
        let mut seen_settle = false;
        let mut seen_check = false;
        for _ in 0..200 {
            match boot.state() {
                BootState::SoftStart { .. } => seen_soft = true,
                BootState::Settling { .. } => seen_settle = true,
                BootState::CalibrationCheck => seen_check = true,
                _ => {}
            }
            if boot.is_ready() {
                break;
            }
            boot.step(
                &mut converter,
                &sensor,
                &tech,
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        }
        assert!(
            seen_soft && seen_settle && seen_check,
            "soft {seen_soft} settle {seen_settle} check {seen_check}"
        );
    }

    #[test]
    fn boot_to_an_unusable_band_reports_the_error() {
        let (tech, sensor, mut converter) = setup();
        let mut boot = BootSequence::new(3, 2);
        let result = boot.run(
            &mut converter,
            &sensor,
            &tech,
            Environment::nominal(),
            GateMismatch::NOMINAL,
            100,
        );
        assert!(matches!(result, Err(SenseError::BandUnusable { word: 3 })));
    }

    #[test]
    fn boot_fails_on_a_wildly_shifted_die() {
        let (tech, sensor, mut converter) = setup();
        let mut boot = BootSequence::new(12, 10);
        let wild = GateMismatch {
            nmos_dvth: subvt_device::units::Volts(0.08),
            pmos_dvth: subvt_device::units::Volts(0.08),
        };
        let state = boot
            .run(
                &mut converter,
                &sensor,
                &tech,
                Environment::nominal(),
                wild,
                400,
            )
            .unwrap();
        assert_eq!(
            state,
            BootState::Failed,
            "an 80 mV die must fail calibration"
        );
    }

    #[test]
    fn display_reports_state() {
        let boot = BootSequence::new(19, 10);
        assert!(format!("{boot}").contains("SoftStart"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_target_rejected() {
        let _ = BootSequence::new(0, 10);
    }
}
