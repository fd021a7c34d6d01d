//! # subvt-faults
//!
//! Deterministic fault injection for the sensor → controller →
//! converter loop.
//!
//! The paper's controller is sold on *resilience to parametric
//! variation*; this crate adds the other hazard axis — transient and
//! hard faults in the loop hardware itself. The related digital-LDO
//! literature (time-interleaved comparator glitches, limit-cycle
//! ripple) shows these are first-order effects in all-digital
//! regulators, so the reproduction models them explicitly:
//!
//! * **TDC faults** — stuck or flipped thermometer bits, bubble
//!   errors, and a metastable boundary sample in the quantizer word;
//! * **DC-DC faults** — a comparator glitch, a missed PWM edge, and a
//!   single-event upset in the reference (voltage) word;
//! * **controller faults** — an SEU in the LUT-selected voltage word
//!   register and a FIFO occupancy misread.
//!
//! A [`FaultPlan`] carries the per-cycle hazard rates; a
//! [`FaultSchedule`] turns the plan plus a forked [`StdRng`] stream
//! into a per-cycle draw. Every draw comes from the dedicated stream,
//! so fault injection composes with the workspace determinism
//! contract: studies are bit-identical at any worker count, and a
//! zero-rate plan leaves the consuming simulation byte-identical to
//! one with no plan at all (the stream exists but nothing it yields
//! changes state).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use subvt_digital::encoder::QuantizerWord;
use subvt_digital::lut::VoltageWord;
use subvt_rng::{Rng, StdRng};

/// Per-cycle hazard rates for the three fault domains, plus whether
/// the mitigation machinery (majority vote, debounce, watchdog, SEU
/// scrub) is armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a TDC fault fires in a given system cycle.
    pub tdc_rate: f64,
    /// Probability a DC-DC fault fires in a given system cycle.
    pub dcdc_rate: f64,
    /// Probability a controller fault fires in a given system cycle.
    pub ctrl_rate: f64,
    /// Whether detection + graceful-degradation machinery is enabled.
    pub mitigation: bool,
}

impl FaultPlan {
    /// A plan with the same per-cycle rate in all three domains and
    /// mitigation enabled.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is a probability in `[0, 1]`.
    pub fn uniform(rate: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} is not a probability"
        );
        FaultPlan {
            tdc_rate: rate,
            dcdc_rate: rate,
            ctrl_rate: rate,
            mitigation: true,
        }
    }

    /// Returns the plan with mitigation switched on or off.
    pub fn with_mitigation(mut self, on: bool) -> FaultPlan {
        self.mitigation = on;
        self
    }

    /// True when no fault can ever fire (all rates zero).
    pub fn is_null(&self) -> bool {
        self.tdc_rate == 0.0 && self.dcdc_rate == 0.0 && self.ctrl_rate == 0.0
    }

    /// Checks that every rate is a probability in `[0, 1]` — the rate
    /// fields are public, so a hand-built plan can carry any `f64`.
    ///
    /// # Errors
    ///
    /// [`FaultRateError`] naming the first offending domain (TDC,
    /// DC-DC, controller order); NaN is rejected.
    pub fn validate(&self) -> Result<(), FaultRateError> {
        for (domain, rate) in [
            ("tdc", self.tdc_rate),
            ("dcdc", self.dcdc_rate),
            ("ctrl", self.ctrl_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(FaultRateError { domain, rate });
            }
        }
        Ok(())
    }
}

/// A [`FaultPlan`] rate that is not a probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRateError {
    /// The fault domain of the rejected rate: `"tdc"`, `"dcdc"` or
    /// `"ctrl"`.
    pub domain: &'static str,
    /// The rejected rate.
    pub rate: f64,
}

impl std::fmt::Display for FaultRateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault rate {} is not a probability in [0, 1]",
            self.domain, self.rate
        )
    }
}

impl std::error::Error for FaultRateError {}

/// A fault in the TDC quantizer word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdcFault {
    /// A thermometer stage stuck at 0 (hard fault for this cycle's
    /// samples: re-sampling reads the same broken stage).
    StuckLow {
        /// Affected stage index.
        stage: u8,
    },
    /// A thermometer stage stuck at 1.
    StuckHigh {
        /// Affected stage index.
        stage: u8,
    },
    /// A transient single-bit flip (one sample only).
    Flip {
        /// Affected stage index.
        stage: u8,
    },
    /// A bubble: one stage inside the thermometer run reads 0.
    Bubble,
    /// The boundary flip-flop resolves metastably: the first stage
    /// past the run captures the wrong level, shifting the edge by one.
    Metastable,
}

impl TdcFault {
    /// Stuck faults persist across the within-cycle redundant samples;
    /// flips, bubbles and metastable captures are one-shot.
    pub fn is_persistent(self) -> bool {
        matches!(self, TdcFault::StuckLow { .. } | TdcFault::StuckHigh { .. })
    }

    /// Applies the fault to a sampled quantizer word.
    pub fn apply(self, word: QuantizerWord) -> QuantizerWord {
        let width = word.width();
        let rebuild = |bits: u64| QuantizerWord::new(width, bits);
        match self {
            TdcFault::StuckLow { stage } => rebuild(word.bits() & !(1u64 << (stage % width))),
            TdcFault::StuckHigh { stage } => rebuild(word.bits() | (1u64 << (stage % width))),
            TdcFault::Flip { stage } => rebuild(word.bits() ^ (1u64 << (stage % width))),
            TdcFault::Bubble => {
                let run = word.leading_run();
                if run == 0 {
                    return word;
                }
                rebuild(word.bits() & !(1u64 << (run / 2)))
            }
            TdcFault::Metastable => {
                let run = word.leading_run();
                let stage = run.min(u32::from(width) - 1);
                rebuild(word.bits() ^ (1u64 << stage))
            }
        }
    }
}

/// A fault in the DC-DC converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcdcFault {
    /// The regulation comparator glitches: the power stage skips its
    /// correction for one cycle and the rail droops.
    ComparatorGlitch,
    /// A PWM edge is missed: a shorter conduction window this cycle.
    MissedPwmEdge,
    /// Single-event upset in the 6-bit reference (voltage) word
    /// register; persists until rewritten.
    ReferenceSeu {
        /// Flipped bit (0..6).
        bit: u8,
    },
}

impl DcdcFault {
    /// Applies a reference-word SEU; the transient glitch variants
    /// leave the word untouched (they disturb the rail, not the
    /// register).
    pub fn apply_reference(self, word: VoltageWord) -> VoltageWord {
        match self {
            DcdcFault::ReferenceSeu { bit } => word ^ (1 << (bit % 6)),
            _ => word,
        }
    }
}

/// A fault in the controller digital logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlFault {
    /// SEU in the LUT-selected voltage-word register; persists until
    /// the (mitigated) controller scrubs it against its shadow copy.
    LutSeu {
        /// Flipped bit (0..6).
        bit: u8,
    },
    /// The FIFO occupancy counter is misread for one cycle, so the
    /// rate controller picks a word for a much fuller queue.
    FifoMisread,
}

impl CtrlFault {
    /// Applies the fault to the controller's voltage-word register.
    /// `FifoMisread` is an input error, not a register corruption, and
    /// leaves the word untouched (the consumer models the transient
    /// word excursion itself).
    pub fn apply_word(self, word: VoltageWord) -> VoltageWord {
        match self {
            CtrlFault::LutSeu { bit } => word ^ (1 << (bit % 6)),
            CtrlFault::FifoMisread => word,
        }
    }
}

/// The faults drawn for one system cycle (at most one per domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleFaults {
    /// TDC fault, if one fired.
    pub tdc: Option<TdcFault>,
    /// DC-DC fault, if one fired.
    pub dcdc: Option<DcdcFault>,
    /// Controller fault, if one fired.
    pub ctrl: Option<CtrlFault>,
}

impl CycleFaults {
    /// True when no fault fired this cycle.
    pub fn is_clean(&self) -> bool {
        self.tdc.is_none() && self.dcdc.is_none() && self.ctrl.is_none()
    }

    /// Number of faults that fired this cycle (0..=3).
    pub fn count(&self) -> u32 {
        u32::from(self.tdc.is_some())
            + u32::from(self.dcdc.is_some())
            + u32::from(self.ctrl.is_some())
    }
}

/// A per-die fault schedule: the plan plus a dedicated forked stream.
///
/// [`FaultSchedule::draw`] consumes the stream one cycle at a time;
/// the sequence of [`CycleFaults`] is a pure function of the plan and
/// the stream seed, so schedules parallelize under the workspace
/// determinism contract exactly like die sampling does.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultSchedule {
    /// Builds a schedule from a plan and a forked per-die stream.
    ///
    /// # Panics
    ///
    /// Panics if any rate in the plan is not a probability (see
    /// [`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan, rng: StdRng) -> FaultSchedule {
        if let Err(e) = plan.validate() {
            panic!("{e}");
        }
        FaultSchedule { plan, rng }
    }

    /// The plan in force.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Draws the next cycle's faults.
    pub fn draw(&mut self) -> CycleFaults {
        let tdc =
            self.rng
                .gen_bool(self.plan.tdc_rate)
                .then(|| match self.rng.gen_range(0u32..5) {
                    0 => TdcFault::StuckLow {
                        stage: self.rng.gen_range(0u8..64),
                    },
                    1 => TdcFault::StuckHigh {
                        stage: self.rng.gen_range(0u8..64),
                    },
                    2 => TdcFault::Flip {
                        stage: self.rng.gen_range(0u8..64),
                    },
                    3 => TdcFault::Bubble,
                    _ => TdcFault::Metastable,
                });
        let dcdc =
            self.rng
                .gen_bool(self.plan.dcdc_rate)
                .then(|| match self.rng.gen_range(0u32..3) {
                    0 => DcdcFault::ComparatorGlitch,
                    1 => DcdcFault::MissedPwmEdge,
                    _ => DcdcFault::ReferenceSeu {
                        bit: self.rng.gen_range(0u8..6),
                    },
                });
        let ctrl =
            self.rng
                .gen_bool(self.plan.ctrl_rate)
                .then(|| match self.rng.gen_range(0u32..2) {
                    0 => CtrlFault::LutSeu {
                        bit: self.rng.gen_range(0u8..6),
                    },
                    _ => CtrlFault::FifoMisread,
                });
        CycleFaults { tdc, dcdc, ctrl }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_word(width: u8, run: u32) -> QuantizerWord {
        let bits = if run == 0 { 0 } else { (1u64 << run) - 1 };
        QuantizerWord::new(width, bits)
    }

    #[test]
    fn zero_rate_schedule_never_fires() {
        let mut s = FaultSchedule::new(FaultPlan::uniform(0.0), StdRng::seed_from_u64(7));
        for _ in 0..200 {
            assert!(s.draw().is_clean());
        }
    }

    #[test]
    fn full_rate_schedule_always_fires_everywhere() {
        let mut s = FaultSchedule::new(FaultPlan::uniform(1.0), StdRng::seed_from_u64(7));
        for _ in 0..50 {
            assert_eq!(s.draw().count(), 3);
        }
    }

    #[test]
    fn schedules_are_reproducible_from_the_seed() {
        let plan = FaultPlan::uniform(0.3);
        let mut a = FaultSchedule::new(plan, StdRng::seed_from_u64(99));
        let mut b = FaultSchedule::new(plan, StdRng::seed_from_u64(99));
        for _ in 0..100 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn mid_rate_fires_roughly_at_rate() {
        let mut s = FaultSchedule::new(FaultPlan::uniform(0.25), StdRng::seed_from_u64(3));
        let fired: u32 = (0..4000).map(|_| s.draw().count()).sum();
        let per_domain = f64::from(fired) / (4000.0 * 3.0);
        assert!(
            (0.2..0.3).contains(&per_domain),
            "empirical rate {per_domain}"
        );
    }

    #[test]
    fn stuck_and_flip_touch_the_named_stage() {
        let w = run_word(64, 10);
        assert_eq!(
            TdcFault::StuckLow { stage: 3 }.apply(w).bits(),
            w.bits() & !(1 << 3)
        );
        assert_eq!(
            TdcFault::StuckHigh { stage: 20 }.apply(w).bits(),
            w.bits() | (1 << 20)
        );
        assert_eq!(
            TdcFault::Flip { stage: 9 }.apply(w).bits(),
            w.bits() ^ (1 << 9)
        );
        assert!(TdcFault::StuckLow { stage: 3 }.is_persistent());
        assert!(!TdcFault::Flip { stage: 3 }.is_persistent());
    }

    #[test]
    fn bubble_fault_is_repaired_by_bubble_tolerant_decode() {
        // The mitigation story for bubbles: the baseline decoder
        // already fills single interior bubbles, so a Bubble fault on a
        // healthy run must decode to the clean code.
        let w = run_word(64, 12);
        let faulted = TdcFault::Bubble.apply(w);
        assert_ne!(faulted, w);
        assert!(faulted.encode().is_err(), "strict decode sees the bubble");
        assert_eq!(faulted.encode_bubble_tolerant(), w.encode_bubble_tolerant());
    }

    #[test]
    fn metastable_fault_shifts_the_edge_by_one() {
        let w = run_word(64, 12);
        let faulted = TdcFault::Metastable.apply(w);
        assert_eq!(faulted.encode(), Ok(13));
        // On an empty word the degenerate case stays in range.
        let empty = run_word(64, 0);
        assert_eq!(TdcFault::Metastable.apply(empty).encode(), Ok(1));
    }

    #[test]
    fn bubble_on_an_empty_word_is_a_no_op() {
        let empty = run_word(64, 0);
        assert_eq!(TdcFault::Bubble.apply(empty), empty);
    }

    #[test]
    fn reference_and_lut_seu_flip_one_word_bit() {
        let seu = DcdcFault::ReferenceSeu { bit: 4 };
        assert_eq!(seu.apply_reference(11), 11 ^ 16);
        assert_eq!(DcdcFault::ComparatorGlitch.apply_reference(11), 11);
        let lut = CtrlFault::LutSeu { bit: 5 };
        assert_eq!(lut.apply_word(11), 11 ^ 32);
        assert_eq!(CtrlFault::FifoMisread.apply_word(11), 11);
    }

    #[test]
    fn mitigation_toggle_round_trips() {
        let plan = FaultPlan::uniform(0.1);
        assert!(plan.mitigation);
        assert!(!plan.with_mitigation(false).mitigation);
        assert!(FaultPlan::uniform(0.0).is_null());
        assert!(!plan.is_null());
    }

    #[test]
    fn validate_names_the_first_bad_domain() {
        assert_eq!(FaultPlan::uniform(0.3).validate(), Ok(()));
        let mut plan = FaultPlan::uniform(0.1);
        plan.dcdc_rate = f64::NAN;
        plan.ctrl_rate = 1.5;
        let err = plan.validate().unwrap_err();
        assert_eq!(err.domain, "dcdc");
        assert!(err.rate.is_nan());
        assert!(err
            .to_string()
            .contains("dcdc fault rate NaN is not a probability"));
        plan.dcdc_rate = 1.0;
        assert_eq!(
            plan.validate(),
            Err(FaultRateError {
                domain: "ctrl",
                rate: 1.5
            })
        );
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_rate_is_rejected() {
        let _ = FaultPlan::uniform(1.5);
    }
}
