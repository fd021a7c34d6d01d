//! The rate controller: queue length → desired 6-bit voltage word.
//!
//! Paper Sec. III: "there is a direct relationship between the queue
//! length and the processing rate … It is implemented as a 6-bit look
//! up table. … The rate controller consists of only an adder and a
//! LUT, hence area consumed by the rate controller is not significant."

use std::fmt;

use subvt_device::delay::GateMismatch;
use subvt_device::mep::find_mep;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::DeviceEval;
use subvt_device::units::{Hertz, Volts};
use subvt_digital::lut::{VoltageLut, VoltageWord};
use subvt_loads::load::CircuitLoad;
use subvt_tdc::sensor::{voltage_word, word_voltage};

/// Error from rate-controller design.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// No 6-bit word gives the load the requested processing rate.
    RateUnreachable {
        /// The unreachable rate.
        rate: Hertz,
    },
    /// The MEP search failed (supply range invalid for the load).
    MepSearchFailed,
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::RateUnreachable { rate } => {
                write!(f, "no supply word reaches {rate}")
            }
            DesignError::MepSearchFailed => write!(f, "minimum-energy-point search failed"),
        }
    }
}

impl std::error::Error for DesignError {}

/// The rate controller: a designed LUT plus the compensation shift.
#[derive(Debug, Clone, PartialEq)]
pub struct RateController {
    lut: VoltageLut,
}

impl RateController {
    /// Wraps an explicit LUT.
    pub fn new(lut: VoltageLut) -> RateController {
        RateController { lut }
    }

    /// Designs the LUT for a load at a design environment, with the
    /// MEP search and the per-band rate sweep answered by `eval`:
    ///
    /// * the empty-queue band issues the load's MEP word (idle work is
    ///   done at minimum energy);
    /// * each busier band issues the smallest word at which the load
    ///   sustains the band's target processing rate.
    ///
    /// `band_rates` are `(queue_bound, required_rate)` pairs with
    /// ascending bounds; queue lengths above the last bound use the
    /// last (fastest) rate.
    ///
    /// # Errors
    ///
    /// [`DesignError::RateUnreachable`] if the fastest word cannot
    /// sustain a requested rate; [`DesignError::MepSearchFailed`] if
    /// the MEP cannot be located.
    pub fn design(
        eval: &dyn DeviceEval,
        load: &dyn CircuitLoad,
        design_env: Environment,
        band_rates: &[(usize, Hertz)],
    ) -> Result<RateController, DesignError> {
        let mep = find_mep(
            eval,
            load.profile(),
            design_env,
            eval.technology().min_vdd + Volts(0.02),
            Volts(0.9),
        )
        .map_err(|_| DesignError::MepSearchFailed)?;
        let mep_word = voltage_word(mep.vopt);

        let mut bounds = Vec::with_capacity(band_rates.len());
        let mut words = vec![mep_word.max(1)];
        for &(bound, rate) in band_rates {
            bounds.push(bound);
            let word = Self::word_for_rate(eval, load, design_env, rate)?;
            // Never slower than the MEP word: the MEP is the energy
            // floor, not a performance ceiling.
            words.push(word.max(mep_word));
        }
        let lut = VoltageLut::new(bounds, words).expect("designed LUT is well-formed");
        Ok(RateController { lut })
    }

    /// Designs the LUT automatically from workload statistics: band
    /// bounds are placed at fractions of the FIFO depth (so every band
    /// is reachable — the design rule the FIFO-depth ablation exposes)
    /// and each band's rate target scales from the workload's mean
    /// arrival rate to a peak-absorbing rate at the top band.
    ///
    /// `cycle` is the system-cycle length the arrival counts are per.
    ///
    /// # Errors
    ///
    /// As [`RateController::design`].
    pub fn design_auto(
        eval: &dyn DeviceEval,
        load: &dyn CircuitLoad,
        design_env: Environment,
        pattern: &subvt_loads::workload::WorkloadPattern,
        fifo_depth: usize,
        cycle: subvt_device::units::Seconds,
    ) -> Result<RateController, DesignError> {
        let mean_rate = pattern.mean_rate() / cycle.value();
        // Three bands inside the FIFO: at 1/8, 1/4 and 1/2 of depth,
        // with rate targets 1×, 4× and 16× the mean (the top band must
        // out-run any sustained burst before the FIFO overflows).
        let b1 = (fifo_depth / 8).max(1);
        let b2 = (fifo_depth / 4).max(b1 + 1);
        let b3 = (fifo_depth / 2).max(b2 + 1);
        let bands = [
            (b1, Hertz(mean_rate.max(1.0))),
            (b2, Hertz(mean_rate.max(1.0) * 4.0)),
            (b3, Hertz(mean_rate.max(1.0) * 16.0)),
        ];
        RateController::design(eval, load, design_env, &bands)
    }

    /// Smallest 6-bit word at which `load` sustains `rate`.
    ///
    /// # Errors
    ///
    /// [`DesignError::RateUnreachable`] when even word 63 is too slow.
    pub fn word_for_rate(
        eval: &dyn DeviceEval,
        load: &dyn CircuitLoad,
        env: Environment,
        rate: Hertz,
    ) -> Result<VoltageWord, DesignError> {
        for word in 1u8..64 {
            let v = word_voltage(word);
            if let Ok(max) = load.max_rate(eval, v, env, GateMismatch::NOMINAL) {
                if max.value() >= rate.value() {
                    return Ok(word);
                }
            }
        }
        Err(DesignError::RateUnreachable { rate })
    }

    /// Desired word for the current queue length, including any applied
    /// compensation shift.
    pub fn desired_word(&self, queue_length: usize) -> VoltageWord {
        self.lut.lookup(queue_length)
    }

    /// Applies a compensation shift to the whole LUT (the paper's
    /// signature-driven correction).
    pub fn apply_compensation(&mut self, delta: i16) {
        self.lut.apply_shift(delta);
    }

    /// Net compensation applied so far.
    pub fn compensation(&self) -> i16 {
        self.lut.shift()
    }

    /// The underlying LUT.
    pub fn lut(&self) -> &VoltageLut {
        &self.lut
    }

    /// Snapshots the designed LUT as the golden copy for later
    /// [`RateController::scrub`] passes — the shadow register a
    /// rad-tolerant implementation would keep.
    pub fn checkpoint(&self) -> LutCheckpoint {
        LutCheckpoint {
            lut: self.lut.clone(),
        }
    }

    /// Compares the live *designed band words* against a checkpoint and
    /// restores any that diverged (an SEU scrub cycle). The
    /// compensation shift is live loop state, not a design-time
    /// constant, so it is left untouched — scrubbing never undoes a
    /// legitimate correction. Returns `true` when an upset was found
    /// and repaired.
    pub fn scrub(&mut self, golden: &LutCheckpoint) -> bool {
        let mut repaired = false;
        for band in 0..golden.lut.bands() {
            let want = golden.lut.raw_word(band);
            if self.lut.raw_word(band) != want {
                self.lut.set_word(band, want);
                repaired = true;
            }
        }
        repaired
    }

    /// Flips bit `bit` of band `band`'s stored word — the fault
    /// injector's hook for a LUT-entry single-event upset. The result
    /// is masked to the 6-bit word range.
    pub fn upset_word(&mut self, band: usize, bit: u8) {
        let word = self.lut.raw_word(band) ^ (1 << (bit % 6));
        self.lut.set_word(band, word & 0x3f);
    }
}

/// Golden copy of a designed LUT, held outside the upset-prone
/// register file. Created by [`RateController::checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct LutCheckpoint {
    lut: VoltageLut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::tabulate::AnalyticEval;
    use subvt_device::technology::Technology;
    use subvt_loads::ring_oscillator::RingOscillator;

    fn analytic() -> AnalyticEval {
        AnalyticEval::new(&Technology::st_130nm())
    }

    fn designed() -> (AnalyticEval, RateController) {
        let tech = analytic();
        let ring = RingOscillator::paper_circuit();
        let rc = RateController::design(
            &tech,
            &ring,
            Environment::nominal(),
            &[(8, Hertz(50e3)), (16, Hertz(500e3)), (32, Hertz(5e6))],
        )
        .expect("designable");
        (tech, rc)
    }

    #[test]
    fn idle_band_issues_the_mep_word() {
        let (tech, rc) = designed();
        let ring = RingOscillator::paper_circuit();
        let mep = find_mep(
            &tech,
            ring.profile(),
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        let idle = rc.desired_word(0);
        assert_eq!(idle, voltage_word(mep.vopt));
        // The paper's MEP at TT is 200 mV ≈ word 11.
        assert_eq!(idle, 11);
    }

    #[test]
    fn words_rise_with_queue_pressure() {
        let (_, rc) = designed();
        let w0 = rc.desired_word(0);
        let w1 = rc.desired_word(10);
        let w2 = rc.desired_word(20);
        let w3 = rc.desired_word(40);
        assert!(w0 <= w1 && w1 <= w2 && w2 <= w3);
        assert!(w3 > w0, "busy band must run faster than idle");
    }

    #[test]
    fn word_for_rate_is_minimal() {
        let tech = analytic();
        let ring = RingOscillator::paper_circuit();
        let env = Environment::nominal();
        let word = RateController::word_for_rate(&tech, &ring, env, Hertz(1e6)).unwrap();
        // The chosen word sustains the rate...
        let ok = ring
            .max_rate(&tech, word_voltage(word), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(ok.value() >= 1e6);
        // ...and the next-lower word does not.
        let below = ring
            .max_rate(&tech, word_voltage(word - 1), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(below.value() < 1e6);
    }

    #[test]
    fn unreachable_rate_is_an_error() {
        let tech = analytic();
        let ring = RingOscillator::paper_circuit();
        let err = RateController::word_for_rate(&tech, &ring, Environment::nominal(), Hertz(1e12))
            .unwrap_err();
        assert!(matches!(err, DesignError::RateUnreachable { .. }));
        assert!(err.to_string().contains("no supply word"));
    }

    #[test]
    fn auto_design_fits_its_bands_inside_the_fifo() {
        use subvt_loads::workload::WorkloadPattern;
        let tech = analytic();
        let ring = RingOscillator::paper_circuit();
        let pattern = WorkloadPattern::Poisson { mean: 0.5 };
        for depth in [16usize, 32, 64] {
            let rc = RateController::design_auto(
                &tech,
                &ring,
                Environment::nominal(),
                &pattern,
                depth,
                subvt_device::units::Seconds::from_micros(1.0),
            )
            .expect("designable");
            // The top band must be reachable: its bound sits below the
            // FIFO depth, so queue pressure can actually select it.
            assert!(rc.lut().band_of(depth) == rc.lut().bands() - 1);
            assert!(rc.lut().band_of(depth / 2 + 1) == rc.lut().bands() - 1);
            // Words are monotone and start at the MEP word.
            assert_eq!(rc.desired_word(0), 11);
            assert!(rc.desired_word(depth) >= rc.desired_word(0));
        }
    }

    #[test]
    fn auto_design_carries_the_offered_load_without_loss() {
        use crate::controller::{AdaptiveController, ControllerConfig, SupplyKind, SupplyPolicy};
        use subvt_loads::workload::{WorkloadPattern, WorkloadSource};
        let tech = Technology::st_130nm();
        let ring = RingOscillator::paper_circuit();
        let pattern = WorkloadPattern::Poisson { mean: 0.5 };
        let depth = 32usize;
        let rc = RateController::design_auto(
            &AnalyticEval::new(&tech),
            &ring,
            Environment::nominal(),
            &pattern,
            depth,
            subvt_device::units::Seconds::from_micros(1.0),
        )
        .expect("designable");
        let config = ControllerConfig {
            fifo_capacity: depth,
            ..ControllerConfig::default()
        };
        let mut c = AdaptiveController::new(
            tech,
            ring,
            rc,
            Environment::nominal(),
            Environment::nominal(),
            subvt_device::delay::GateMismatch::NOMINAL,
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
            config,
        );
        let mut wl = WorkloadSource::new(pattern);
        let mut rng = subvt_rng::StdRng::seed_from_u64(17);
        let s = c.run(&mut wl, 2_000, &mut rng);
        assert!(
            s.loss_rate() < 0.01,
            "auto-designed LUT lost {:.2}% of items",
            s.loss_rate() * 100.0
        );
    }

    #[test]
    fn tabulated_design_reproduces_the_analytic_lut() {
        use subvt_device::tabulate::TabulatedEval;
        let (tech, exact) = designed();
        let ring = RingOscillator::paper_circuit();
        let bands = [(8, Hertz(50e3)), (16, Hertz(500e3)), (32, Hertz(5e6))];
        // LUT words quantize to 18.75 mV LSBs, far coarser than the
        // interpolation budget: the tabulated design picks the same LUT.
        let tabulated = TabulatedEval::new(tech.technology());
        let via_table =
            RateController::design(&tabulated, &ring, Environment::nominal(), &bands).unwrap();
        assert_eq!(exact, via_table, "tabulated design diverged");
    }

    #[test]
    fn scrub_repairs_an_injected_lut_upset() {
        let (_, mut rc) = designed();
        let golden = rc.checkpoint();
        assert!(!rc.scrub(&golden), "pristine LUT needs no repair");
        let before = rc.desired_word(0);
        rc.upset_word(0, 4);
        assert_ne!(rc.desired_word(0), before, "upset must be visible");
        assert!(rc.scrub(&golden), "scrub detects the upset");
        assert_eq!(rc.desired_word(0), before, "scrub restores the word");
        assert!(!rc.scrub(&golden));
    }

    #[test]
    fn scrub_never_undoes_a_legitimate_correction() {
        let (_, mut rc) = designed();
        let golden = rc.checkpoint();
        // Compensation landed after the checkpoint: it is live loop
        // state, and a scrub pass must leave it alone.
        rc.apply_compensation(2);
        assert!(!rc.scrub(&golden), "shift alone is not an upset");
        assert_eq!(rc.compensation(), 2);
        rc.upset_word(1, 5);
        assert!(rc.scrub(&golden));
        assert_eq!(rc.compensation(), 2, "shift survives the scrub");
    }

    #[test]
    fn upset_word_stays_in_the_word_range() {
        let (_, mut rc) = designed();
        for band in 0..rc.lut().bands() {
            for bit in 0..6 {
                rc.upset_word(band, bit);
                assert!(rc.lut().raw_word(band) < 64);
                rc.upset_word(band, bit); // flip back
            }
        }
        // Bit indices wrap into the register width.
        let golden = rc.checkpoint();
        rc.upset_word(0, 6);
        rc.upset_word(0, 0);
        assert!(!rc.scrub(&golden), "bit 6 aliases bit 0");
    }

    #[test]
    fn compensation_shifts_every_band() {
        let (_, mut rc) = designed();
        let before: Vec<VoltageWord> = [0, 10, 20, 40]
            .iter()
            .map(|&q| rc.desired_word(q))
            .collect();
        rc.apply_compensation(1);
        assert_eq!(rc.compensation(), 1);
        for (&q, &w) in [0usize, 10, 20, 40].iter().zip(&before) {
            assert_eq!(rc.desired_word(q), w + 1);
        }
    }
}
