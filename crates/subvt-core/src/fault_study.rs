//! Fault-injection Monte-Carlo: yield, MEP-tracking error and recovery
//! cost under loop-hardware faults, with and without mitigation.
//!
//! A [`WalkState`] replays the compensation walk of
//! `StudyContext::score_die` cycle-by-cycle so per-cycle faults from a
//! [`FaultSchedule`] can land on it:
//!
//! * **TDC faults** corrupt the sampled quantizer word before decode;
//! * **DC-DC faults** droop the rail (comparator glitch, missed PWM
//!   edge) or flip a reference-register bit (persistent until
//!   rewritten);
//! * **controller faults** corrupt the LUT word register (persistent
//!   until scrubbed) or misread the FIFO occupancy for one cycle.
//!
//! With `plan.mitigation` on, the graceful-degradation machinery is
//! armed: triple-sample majority vote over the TDC capture (one-shot
//! faults lose the vote; stuck stages don't), the
//! [`SignatureDebounce`] N-of-M gate in front of the walk, an
//! end-of-cycle LUT scrub against the shadow copy, and the
//! [`RailWatchdog`] last-known-good fallback which also rewrites the
//! converter reference register. Every recovery action books energy in
//! the die's recovery line item.
//!
//! The scalar reference [`score_faulted_die`] drives one die's walk;
//! the matrix engine's [`FaultLanes`] drives a sub-batch of them in
//! lockstep rounds, sampling each round's captures as one sensor lane.
//!
//! Determinism: the fault stream is forked from the die stream *after*
//! die sampling, so a clean die consumes exactly the draws the plain
//! path does — a zero-rate plan is byte-identical to no plan at all,
//! in both mitigation arms, at any worker count.

use subvt_dcdc::converter::ConverterParams;
use subvt_dcdc::disturbance::{comparator_glitch_droop, missed_edge_droop};
use subvt_device::delay::GateMismatch;
use subvt_device::tabulate::{CachedEval, DeviceEval};
use subvt_device::units::{Amps, Joules, Volts};
use subvt_digital::encoder::{EncodeError, QuantizerWord};
use subvt_digital::lut::VoltageWord;
use subvt_exec::checkpoint::{CheckpointError, StateReader, StateWriter};
use subvt_exec::Welford;
use subvt_faults::{CtrlFault, CycleFaults, DcdcFault, FaultPlan, FaultSchedule};
use subvt_rng::{Rng, StdRng};
use subvt_tdc::sensor::{word_voltage, SenseError};

use crate::batch::{DieBatch, WordLanes};
use crate::compensation::SignatureDebounce;
use crate::watchdog::{RailWatchdog, WatchdogPolicy};
use crate::yield_study::{
    settled_voltage_dithered, settled_word, DieOutcome, StudyContext, SupplySim, YieldSummary,
};

/// System cycles the faulted compensation loop is run for. The clean
/// walk needs at most 8 steps; 24 cycles leave room for debounce holds
/// and watchdog backoff while keeping every fault episode inside the
/// scored window.
pub(crate) const FAULT_CYCLES: u32 = 24;

/// Walk steps the loop may take — the same bound as the plain settling
/// loop, so a clean die ends on the identical word.
const WALK_BUDGET: u32 = 8;

/// Load the controller presents to the converter (see `controller.rs`).
const LOAD_IMAGE: Amps = Amps(2e-6);

/// Energy booked per LUT scrub repair (a 6-bit register rewrite).
pub(crate) fn scrub_cost() -> Joules {
    Joules::from_femtos(0.02)
}

/// Energy booked per watchdog fallback (reference + LUT rewrite plus
/// the re-settle transient).
pub(crate) fn trip_cost() -> Joules {
    Joules::from_femtos(0.5)
}

/// One die's scoring under fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDieOutcome {
    /// The ordinary yield-study outcome, scored at the word the
    /// faulted loop ended on.
    pub base: DieOutcome,
    /// Distance (LSBs) between the faulted loop's final effective word
    /// and the word the clean loop settles on.
    pub tracking_error_lsb: f64,
    /// Energy spent on recovery actions (scrubs, watchdog fallbacks).
    pub recovery: Joules,
    /// Watchdog fallbacks taken.
    pub watchdog_trips: u32,
    /// Faults the schedule injected over the run.
    pub faults_injected: u64,
}

/// Constant-size aggregate of a fault study.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudySummary {
    /// The ordinary yield aggregate of the faulted population.
    pub base: YieldSummary,
    /// MEP-tracking error distribution (LSBs).
    pub tracking_error: Welford,
    /// Per-die recovery energy distribution (joules).
    pub recovery_energy: Welford,
    /// Watchdog fallbacks across the population.
    pub watchdog_trips: u64,
    /// Faults injected across the population.
    pub faults_injected: u64,
}

impl FaultStudySummary {
    pub(crate) fn empty() -> FaultStudySummary {
        FaultStudySummary {
            base: YieldSummary::empty(),
            tracking_error: Welford::new(),
            recovery_energy: Welford::new(),
            watchdog_trips: 0,
            faults_injected: 0,
        }
    }

    pub(crate) fn absorb(&mut self, die: &FaultDieOutcome) {
        self.base.absorb(&die.base);
        self.tracking_error.push(die.tracking_error_lsb);
        self.recovery_energy.push(die.recovery.value());
        self.watchdog_trips += u64::from(die.watchdog_trips);
        self.faults_injected += die.faults_injected;
    }

    pub(crate) fn merge(&mut self, other: FaultStudySummary) {
        self.base.merge(other.base);
        self.tracking_error.merge(other.tracking_error);
        self.recovery_energy.merge(other.recovery_energy);
        self.watchdog_trips += other.watchdog_trips;
        self.faults_injected += other.faults_injected;
    }

    /// One self-contained checkpoint state blob — the exact bytes a
    /// `--checkpoint` record carries. Equal blobs ⇔ bit-identical
    /// summaries.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.base.encode_into(&mut w);
        self.tracking_error.encode_state(&mut w);
        self.recovery_energy.encode_state(&mut w);
        w.put_u64(self.watchdog_trips);
        w.put_u64(self.faults_injected);
        w.into_bytes()
    }

    /// Parses a blob written by [`FaultStudySummary::encode_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] when the blob is truncated, has
    /// trailing bytes, or carries an out-of-range field.
    pub fn decode_state(buf: &[u8]) -> Result<FaultStudySummary, CheckpointError> {
        let mut r = StateReader::new(buf);
        let base = YieldSummary::decode_from(&mut r)?;
        let tracking_error = Welford::decode_state(&mut r)?;
        let recovery_energy = Welford::decode_state(&mut r)?;
        let watchdog_trips = r.get_u64()?;
        let faults_injected = r.get_u64()?;
        r.finish()?;
        Ok(FaultStudySummary {
            base,
            tracking_error,
            recovery_energy,
            watchdog_trips,
            faults_injected,
        })
    }

    /// Dies scored.
    pub fn dies(&self) -> u64 {
        self.base.dies
    }

    /// Adaptive-design yield under injection (0..=1).
    pub fn adaptive_yield(&self) -> f64 {
        self.base.adaptive_yield()
    }

    /// Fixed-design yield under injection (0..=1).
    pub fn fixed_yield(&self) -> f64 {
        self.base.fixed_yield()
    }

    /// Mean MEP-tracking error (LSBs).
    pub fn mean_tracking_error(&self) -> f64 {
        self.tracking_error.mean().unwrap_or(0.0)
    }

    /// Mean per-die recovery energy.
    pub fn mean_recovery_energy(&self) -> Joules {
        Joules(self.recovery_energy.mean().unwrap_or(0.0))
    }
}

/// Decodes a (possibly corrupted) capture against the design band; the
/// band was already validated by the sample, so decode cannot fail —
/// undecodable captures classify as far-slow, like the plain path.
fn decode_dev(ctx: &StudyContext<'_>, sample: QuantizerWord) -> i16 {
    ctx.sensor
        .decode(ctx.design_word, sample)
        .unwrap_or(far_slow(ctx))
}

/// The deviation an undecodable or empty capture reads as: the far
/// edge of the slow neighbourhood.
fn far_slow(ctx: &StudyContext<'_>) -> i16 {
    -ctx.sensor.config().neighbor_range
}

/// Majority vote over the three redundant captures; ties keep the
/// first (the hardware's primary sample).
fn majority(votes: [i16; 3]) -> i16 {
    if votes[1] == votes[2] {
        votes[1]
    } else {
        votes[0]
    }
}

/// One bounded compensation-walk step, mirroring the plain settling
/// loop (`word -= sign(dev)`, clamped to the usable word range).
fn walk_step(word: &mut VoltageWord, dev: i16, budget: &mut u32) {
    if dev == 0 || *budget == 0 {
        return;
    }
    let next = (i16::from(*word) - dev.signum()).clamp(1, 63) as VoltageWord;
    if next != *word {
        *word = next;
        *budget -= 1;
    }
}

/// The clean (fault-free) reference pieces of one die's fault scoring:
/// everything its outcome carries that does not depend on the fault
/// stream. The scalar path derives them per die; the matrix path takes
/// the SoA lane results, which are bit-identical by the batch
/// equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CleanDie {
    /// The die's global-corner position (σ units).
    pub corner_units: f64,
    /// Fixed-design spec check at the common commanded word.
    pub fixed_passes: bool,
    /// The word the clean compensation walk settles on.
    pub clean_word: VoltageWord,
    /// Dithered spec check at the clean sub-LSB settled voltage.
    pub dithered_passes: bool,
}

/// Converter-domain droop figures for a run's supply: a regulated
/// supply answers from its own backend snapshot; the ideal rail keeps
/// the historical paper-default buck disturbances (the injected faults
/// are converter faults even when the scored rail is exact). Pure
/// function of the supply, so the matrix path hoists it to once per
/// cell instead of once per die.
pub(crate) fn fault_droops(ctx: &StudyContext<'_>) -> (Volts, Volts) {
    match ctx.supply {
        SupplySim::Ideal => {
            let params = ConverterParams::default();
            (
                comparator_glitch_droop(&params),
                missed_edge_droop(&params, LOAD_IMAGE),
            )
        }
        SupplySim::Regulated(model) => {
            (model.comparator_glitch_droop(), model.missed_update_droop())
        }
    }
}

/// Scores one die with fault injection: the clean reference pieces
/// (fixed, dithered, clean settled word) plus a cycle-by-cycle faulted
/// compensation walk, each capture sampled on its own and the final
/// spec check evaluated per die. Pure function of the context, plan and
/// stream — the scalar reference the lockstep [`FaultLanes`] is pinned
/// against.
pub(crate) fn score_faulted_die(
    ctx: &StudyContext<'_>,
    plan: FaultPlan,
    mut die_rng: StdRng,
) -> FaultDieOutcome {
    let cached = &CachedEval::new(ctx.eval.as_ref());
    let die = ctx.variation.sample_die(&mut die_rng);
    let mismatch = die.mean_gate();
    // Fork the fault stream only after the die sample: a clean die
    // consumes exactly the draws the plain path does.
    let mut schedule = FaultSchedule::new(plan, die_rng.fork("faults"));

    // Clean reference pieces, identical to the plain score_die.
    let (fixed_passes, _) = ctx.passes(cached, ctx.fixed_word, mismatch);
    let clean_word = settled_word(cached, &ctx.sensor, ctx.design_word, ctx.env, mismatch);
    let dithered_v =
        settled_voltage_dithered(cached, &ctx.sensor, ctx.design_word, ctx.env, mismatch);
    let (dithered_passes, _) = ctx.passes_dithered(cached, dithered_v, mismatch);
    let clean = CleanDie {
        corner_units: die.corner_units(),
        fixed_passes,
        clean_word,
        dithered_passes,
    };

    let droops = fault_droops(ctx);
    let mut walk = WalkState::new(ctx, plan);
    for _ in 0..FAULT_CYCLES {
        let miss = walk.start(schedule.draw(), droops).map(|v_rail| {
            ctx.sensor
                .sample_with(cached, ctx.design_word, v_rail, ctx.env, mismatch)
        });
        walk.finish(ctx, miss.as_ref());
    }
    let adaptive = ctx.passes(cached, walk.score_word(), mismatch);
    walk.outcome(&clean, adaptive)
}

/// A memoized raw TDC capture (see [`WalkState`]'s capture memo): the
/// sensed word with its decoded clean deviation, or which sense error
/// the sensor returned — enough to replay the walk's handling of it
/// exactly.
#[derive(Debug, Clone, Copy)]
enum Capture {
    Raw { raw: QuantizerWord, dev: i16 },
    Unreliable,
    BandUnusable,
}

impl Capture {
    /// Classifies one raw sample, decoding a clean word once: every
    /// cycle that replays it uncorrupted reuses the deviation, and only
    /// a TDC-faulted copy is decoded again.
    fn new(ctx: &StudyContext<'_>, sample: &Result<QuantizerWord, SenseError>) -> Capture {
        match sample {
            Ok(raw) => Capture::Raw {
                raw: *raw,
                dev: decode_dev(ctx, *raw),
            },
            Err(SenseError::BandUnusable { .. }) => Capture::BandUnusable,
            Err(SenseError::Unreliable(_)) => Capture::Unreliable,
        }
    }
}

/// What the cycle in flight senses, as decided by [`WalkState::start`].
#[derive(Debug, Clone, Copy)]
enum Sensing {
    /// Nothing: the design band is unusable and the loop holds.
    Blind,
    /// The rail collapsed to shutdown: the capture is empty.
    Collapsed,
    /// A capture the memo already holds.
    Memo(Capture),
    /// A memo miss at this `(effective word, droop bits)` key: the
    /// caller samples the rail and hands the word to
    /// [`WalkState::finish`].
    Miss((VoltageWord, u64)),
}

/// One die's cycle-by-cycle faulted compensation walk, as a state
/// machine with two steps per cycle: [`WalkState::start`] lands the
/// cycle's controller and converter faults and names the rail the
/// cycle must sample (if the capture memo misses), and
/// [`WalkState::finish`] senses, votes, debounces and walks once it
/// holds the capture. The scalar reference ([`score_faulted_die`])
/// samples each miss on its own; the matrix engine ([`FaultLanes`])
/// advances a whole sub-batch in lockstep and samples a round's misses
/// as one lane. Both drive this one machine, so the walk exists once.
#[derive(Debug)]
pub(crate) struct WalkState {
    mitigation: bool,
    /// The LUT word register.
    word: VoltageWord,
    /// Persistent reference-register upset.
    ref_seu: VoltageWord,
    budget: u32,
    /// Design band unusable: the loop holds (the plain path's break).
    blind: bool,
    recovery: Joules,
    trips: u32,
    injected: u64,
    debounce: SignatureDebounce,
    dog: RailWatchdog,
    last_dev: i16,
    /// Raw-capture memo: within one die the capture is a pure function
    /// of (effective word, droop) — band, environment and mismatch are
    /// fixed — and the walk revisits the same few operating points
    /// across its cycles, so a replayed capture skips the replica
    /// evaluation and the clean decode. Per-cycle TDC faults are
    /// applied downstream of the raw word, so replaying cannot change
    /// a bit.
    captures: Vec<((VoltageWord, u64), Capture)>,
    /// The cycle in flight: its faults and what it senses.
    faults: CycleFaults,
    sensing: Sensing,
}

impl WalkState {
    /// A die at the start of its walk: the design word in the register,
    /// no upsets, the full walk budget.
    pub(crate) fn new(ctx: &StudyContext<'_>, plan: FaultPlan) -> WalkState {
        WalkState {
            mitigation: plan.mitigation,
            word: ctx.design_word,
            ref_seu: 0,
            budget: WALK_BUDGET,
            blind: false,
            recovery: Joules(0.0),
            trips: 0,
            injected: 0,
            debounce: SignatureDebounce::new(2),
            dog: RailWatchdog::new(WatchdogPolicy::default()),
            last_dev: 0,
            captures: Vec::new(),
            faults: CycleFaults::default(),
            sensing: Sensing::Blind,
        }
    }

    /// Restarts the walk for a new die, keeping the memo's allocation.
    fn reset(&mut self, ctx: &StudyContext<'_>, plan: FaultPlan) {
        let mut captures = std::mem::take(&mut self.captures);
        captures.clear();
        *self = WalkState {
            captures,
            ..WalkState::new(ctx, plan)
        };
    }

    /// Starts one cycle: lands the controller fault on the commanded
    /// word and the converter fault on the reference register and the
    /// rail. Returns the rail voltage to sample when the capture memo
    /// misses; `None` when the cycle needs no new sample (memo hit,
    /// collapsed rail, blind loop). `droops` must be [`fault_droops`]
    /// of the walk's context.
    pub(crate) fn start(&mut self, faults: CycleFaults, droops: (Volts, Volts)) -> Option<Volts> {
        self.injected += u64::from(faults.count());
        self.faults = faults;

        // Controller-domain fault shapes this cycle's commanded word.
        let mut cycle_word = self.word;
        match faults.ctrl {
            Some(CtrlFault::LutSeu { bit }) => {
                if self.mitigation {
                    // End-of-cycle scrub repairs the register from the
                    // shadow copy: the corruption lasts one cycle.
                    cycle_word = self.word ^ (1 << (bit % 6));
                    self.recovery += scrub_cost();
                } else {
                    self.word ^= 1 << (bit % 6);
                    cycle_word = self.word;
                }
            }
            Some(CtrlFault::FifoMisread) => {
                // A misread occupancy commands the word of a much
                // fuller queue for one cycle.
                cycle_word = (i16::from(self.word) + 4).clamp(1, 63) as VoltageWord;
            }
            None => {}
        }

        // A reference-word SEU persists until the register is
        // rewritten (only the watchdog fallback does).
        if let Some(DcdcFault::ReferenceSeu { bit }) = faults.dcdc {
            self.ref_seu ^= 1 << (bit % 6);
        }
        let w_eff = cycle_word ^ self.ref_seu;

        self.sensing = if self.blind {
            Sensing::Blind
        } else if w_eff == 0 {
            Sensing::Collapsed
        } else {
            // The rail this cycle: the effective word's voltage minus
            // any transient converter droop.
            let droop = match faults.dcdc {
                Some(DcdcFault::ComparatorGlitch) => droops.0,
                Some(DcdcFault::MissedPwmEdge) => droops.1,
                _ => Volts(0.0),
            };
            let key = (w_eff, droop.volts().to_bits());
            match self.captures.iter().find(|(k, _)| *k == key) {
                Some(&(_, hit)) => Sensing::Memo(hit),
                None => {
                    self.sensing = Sensing::Miss(key);
                    return Some(Volts(
                        (word_voltage(w_eff).volts() - droop.volts()).max(0.0),
                    ));
                }
            }
        };
        None
    }

    /// Finishes the cycle [`WalkState::start`] opened: senses the rail
    /// against the design band, votes and debounces (mitigation arm),
    /// feeds the watchdog and takes the walk step. `miss` is the raw
    /// sample of the rail `start` returned, and `None` exactly when
    /// `start` returned `None`.
    ///
    /// # Panics
    ///
    /// Panics if a memo miss is finished without its sample.
    pub(crate) fn finish(
        &mut self,
        ctx: &StudyContext<'_>,
        miss: Option<&Result<QuantizerWord, SenseError>>,
    ) {
        let capture = match self.sensing {
            Sensing::Blind => return,
            // An empty capture reads as far-slow, like the plain path.
            Sensing::Collapsed => Capture::Unreliable,
            Sensing::Memo(hit) => hit,
            Sensing::Miss(key) => {
                let capture =
                    Capture::new(ctx, miss.expect("a memo miss finishes with its sample"));
                self.captures.push((key, capture));
                capture
            }
        };
        let (dev, suspect) = match capture {
            Capture::BandUnusable => {
                self.blind = true;
                return;
            }
            // An empty capture classifies as far-slow (the plain
            // path's behaviour); there is no word for a TDC fault to
            // corrupt.
            Capture::Unreliable => (far_slow(ctx), false),
            Capture::Raw { raw, dev } => {
                let tdc = self.faults.tdc;
                if self.mitigation {
                    // Triple-sample majority vote: a one-shot TDC fault
                    // corrupts only the first capture, a stuck stage
                    // corrupts all three.
                    let votes = match tdc {
                        None => [dev; 3],
                        Some(f) => {
                            let hit = decode_dev(ctx, f.apply(raw));
                            if f.is_persistent() {
                                [hit; 3]
                            } else {
                                [hit, dev, dev]
                            }
                        }
                    };
                    let dev = majority(votes);
                    let disagree = !(votes[0] == votes[1] && votes[1] == votes[2]);
                    // A sudden jump from a quiet signature is suspect
                    // until it repeats.
                    let jump = (dev - self.last_dev).abs() >= 2 && self.last_dev.abs() <= 1;
                    (dev, disagree || jump)
                } else {
                    (tdc.map_or(dev, |f| decode_dev(ctx, f.apply(raw))), false)
                }
            }
        };

        if self.mitigation {
            // Watchdog sees every raw deviation with the true register
            // word; a trip falls back to last-known-good and rewrites
            // the upset-prone registers.
            if let Some(good) = self.dog.observe(self.word, dev) {
                self.word = good;
                self.ref_seu = 0;
                self.debounce.reset();
                self.recovery += trip_cost();
                self.trips += 1;
                self.last_dev = dev;
                return;
            }
            if let Some(confirmed) = self.debounce.feed(dev, suspect) {
                walk_step(&mut self.word, confirmed, &mut self.budget);
            }
        } else {
            walk_step(&mut self.word, dev, &mut self.budget);
        }
        self.last_dev = dev;
    }

    /// Whether the cycle in flight sees a collapsed rail (effective
    /// word 0): a probe for tests that must show the branch runs.
    #[cfg(test)]
    pub(crate) fn rail_collapsed(&self) -> bool {
        matches!(self.sensing, Sensing::Collapsed)
    }

    /// The word the final spec check scores: the final effective
    /// operating point, with a collapsed rail scored as the floor word
    /// (which cannot meet any rate spec).
    pub(crate) fn score_word(&self) -> VoltageWord {
        self.final_word().max(1)
    }

    fn final_word(&self) -> VoltageWord {
        self.word ^ self.ref_seu
    }

    /// The die's outcome once the walk is over, given the final spec
    /// check (`passes` at [`WalkState::score_word`]).
    pub(crate) fn outcome(&self, clean: &CleanDie, adaptive: (bool, Joules)) -> FaultDieOutcome {
        let final_eff = self.final_word();
        let (adaptive_passes, adaptive_energy) = adaptive;
        FaultDieOutcome {
            base: DieOutcome {
                corner_units: clean.corner_units,
                fixed_passes: clean.fixed_passes,
                adaptive_passes,
                dithered_passes: clean.dithered_passes,
                adaptive_word: final_eff,
                adaptive_energy,
            },
            tracking_error_lsb: f64::from(
                (i16::from(final_eff) - i16::from(clean.clean_word)).abs(),
            ),
            recovery: self.recovery,
            watchdog_trips: self.trips,
            faults_injected: self.injected,
        }
    }
}

/// Reusable scratch for the matrix engine's fault cells: one sub-batch
/// of dies walked in lockstep rounds. Every round each die draws its
/// next cycle from its own [`FaultSchedule`] (so every stream is
/// consumed in unchanged order) and starts its [`WalkState`] cycle; the
/// round's capture-memo misses are sampled as one per-die-supply
/// sensor lane ([`VariationSensor::sample_multi_with`]) on the study
/// evaluator — each miss is a fresh operating point of a unique die, so
/// the group memo is bypassed as in the settle lanes — and each die
/// finishes its cycle. Die by die this is [`score_faulted_die`].
///
/// [`VariationSensor::sample_multi_with`]: subvt_tdc::sensor::VariationSensor::sample_multi_with
#[derive(Default)]
pub(crate) struct FaultLanes {
    schedules: Vec<FaultSchedule>,
    walks: Vec<WalkState>,
    // One round's capture misses: die index, rail, mismatch, sample.
    miss_idx: Vec<usize>,
    miss_v: Vec<Volts>,
    miss_mm: Vec<GateMismatch>,
    miss_out: Vec<Result<QuantizerWord, SenseError>>,
    // Final check: each die's verdict, and the dies that left their
    // clean settled word, re-scored by word.
    adaptive: Vec<(bool, Joules)>,
    moved: Vec<usize>,
    moved_words: Vec<VoltageWord>,
    moved_mm: Vec<GateMismatch>,
    moved_pass: Vec<bool>,
    moved_energy: Vec<Joules>,
    lanes: WordLanes,
}

impl FaultLanes {
    /// Walks every die of `batch` under `plan` and folds the outcomes
    /// into `acc` in die order. `batch` must hold the group's clean
    /// lanes (settled words, fixed/adaptive/dithered verdicts) scored
    /// on `ctx` with the group memo `cached`; `fault_seeds[k]` is die
    /// `k`'s fault-stream seed and `droops` the cell's
    /// [`fault_droops`].
    ///
    /// The final spec check reuses the clean lanes: a die that ends on
    /// its clean settled word — the common case — takes the adaptive
    /// verdict and energy `batch` already holds (the identical
    /// `passes(word, mismatch)` quantity), and the rest are scored as
    /// one lane per final word.
    #[allow(clippy::too_many_arguments)] // crate-internal fold kernel
    pub(crate) fn score(
        &mut self,
        ctx: &StudyContext<'_>,
        cached: &dyn DeviceEval,
        plan: FaultPlan,
        droops: (Volts, Volts),
        batch: &DieBatch,
        fault_seeds: &[u64],
        acc: &mut FaultStudySummary,
    ) {
        let n = batch.len();
        self.schedules.clear();
        self.schedules.extend(
            fault_seeds[..n]
                .iter()
                .map(|&seed| FaultSchedule::new(plan, StdRng::seed_from_u64(seed))),
        );
        if self.walks.len() < n {
            self.walks.resize_with(n, || WalkState::new(ctx, plan));
        }
        for walk in &mut self.walks[..n] {
            walk.reset(ctx, plan);
        }

        let eval = ctx.eval.as_ref();
        for _ in 0..FAULT_CYCLES {
            self.miss_idx.clear();
            self.miss_v.clear();
            self.miss_mm.clear();
            for (k, (walk, schedule)) in self.walks[..n]
                .iter_mut()
                .zip(&mut self.schedules)
                .enumerate()
            {
                match walk.start(schedule.draw(), droops) {
                    Some(v_rail) => {
                        self.miss_idx.push(k);
                        self.miss_v.push(v_rail);
                        self.miss_mm.push(batch.mismatch(k));
                    }
                    None => walk.finish(ctx, None),
                }
            }
            if self.miss_idx.is_empty() {
                continue;
            }
            self.miss_out.clear();
            self.miss_out.resize(
                self.miss_idx.len(),
                Err(SenseError::Unreliable(EncodeError::Empty)),
            );
            if let Err(band) = ctx.sensor.sample_multi_with(
                eval,
                ctx.design_word,
                &self.miss_v,
                ctx.env,
                &self.miss_mm,
                &mut self.miss_out,
            ) {
                // Die-independent: every miss of the round reads the
                // band error, as each scalar sample would.
                self.miss_out.fill(Err(band));
            }
            for (&k, sample) in self.miss_idx.iter().zip(&self.miss_out) {
                self.walks[k].finish(ctx, Some(sample));
            }
        }

        self.adaptive.clear();
        self.moved.clear();
        self.moved_words.clear();
        self.moved_mm.clear();
        for (k, walk) in self.walks[..n].iter().enumerate() {
            let clean = batch.outcome(k);
            let word = walk.score_word();
            if word == clean.adaptive_word {
                self.adaptive
                    .push((clean.adaptive_passes, clean.adaptive_energy));
            } else {
                self.adaptive.push((false, Joules(0.0)));
                self.moved.push(k);
                self.moved_words.push(word);
                self.moved_mm.push(batch.mismatch(k));
            }
        }
        self.moved_pass.clear();
        self.moved_pass.resize(self.moved.len(), false);
        self.moved_energy.clear();
        self.moved_energy.resize(self.moved.len(), Joules(0.0));
        self.lanes.score(
            ctx,
            cached,
            &self.moved_words,
            &self.moved_mm,
            &mut self.moved_pass,
            &mut self.moved_energy,
        );
        for (j, &k) in self.moved.iter().enumerate() {
            self.adaptive[k] = (self.moved_pass[j], self.moved_energy[j]);
        }

        for (k, walk) in self.walks[..n].iter().enumerate() {
            let out = batch.outcome(k);
            let clean = CleanDie {
                corner_units: out.corner_units,
                fixed_passes: out.fixed_passes,
                clean_word: out.adaptive_word,
                dithered_passes: out.dithered_passes,
            };
            acc.absorb(&walk.outcome(&clean, self.adaptive[k]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use subvt_exec::ExecConfig;

    #[test]
    fn zero_rate_plan_is_byte_identical_to_no_plan() {
        // The satellite property: arming a zero-rate plan must not
        // perturb a single bit of the study, in either mitigation arm.
        let plain = StudyConfig::new(60, 7).run();
        for mitigation in [true, false] {
            let faulted = StudyConfig::new(60, 7)
                .faults(FaultPlan::uniform(0.0).with_mitigation(mitigation))
                .run();
            assert_eq!(faulted, plain, "mitigation={mitigation}");
        }
    }

    #[test]
    fn fault_study_is_bit_identical_at_any_job_count() {
        let reference = StudyConfig::new(80, 11)
            .faults(FaultPlan::uniform(0.05))
            .exec(ExecConfig::with_jobs(1))
            .run_faults();
        assert_eq!(reference.dies(), 80);
        for jobs in [2usize, 7] {
            let parallel = StudyConfig::new(80, 11)
                .faults(FaultPlan::uniform(0.05))
                .exec(ExecConfig::with_jobs(jobs))
                .run_faults();
            assert_eq!(parallel, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn mitigation_recovers_yield_and_tracking() {
        let run = |mitigation: bool| {
            StudyConfig::new(150, 23)
                .faults(FaultPlan::uniform(0.02).with_mitigation(mitigation))
                .run_faults()
        };
        let clean = StudyConfig::new(150, 23).run_summary();
        let on = run(true);
        let off = run(false);
        let loss_off = clean.adaptive_yield() - off.adaptive_yield();
        let loss_on = clean.adaptive_yield() - on.adaptive_yield();
        assert!(
            loss_off > 0.0,
            "unmitigated injection must cost yield (loss {loss_off:.3})"
        );
        assert!(
            loss_on <= loss_off / 2.0,
            "mitigation must recover at least half the loss: \
             {loss_on:.3} vs {loss_off:.3}"
        );
        assert!(
            on.mean_tracking_error() <= off.mean_tracking_error(),
            "tracking error: {} vs {}",
            on.mean_tracking_error(),
            off.mean_tracking_error()
        );
    }

    #[test]
    fn recovery_energy_is_booked_only_by_mitigation() {
        let on = StudyConfig::new(60, 3)
            .faults(FaultPlan::uniform(0.08))
            .run_faults();
        let off = StudyConfig::new(60, 3)
            .faults(FaultPlan::uniform(0.08).with_mitigation(false))
            .run_faults();
        assert!(on.mean_recovery_energy().value() > 0.0);
        assert_eq!(off.mean_recovery_energy(), Joules(0.0));
        assert!(on.faults_injected > 0);
        assert_eq!(on.faults_injected, off.faults_injected, "same schedule");
    }

    #[test]
    fn injection_scales_with_the_rate() {
        let at = |rate: f64| {
            StudyConfig::new(40, 9)
                .faults(FaultPlan::uniform(rate))
                .run_faults()
                .faults_injected
        };
        let low = at(0.005);
        let high = at(0.2);
        assert!(low < high, "{low} !< {high}");
        assert_eq!(at(0.0), 0);
    }

    #[test]
    fn majority_vote_prefers_the_agreeing_pair() {
        assert_eq!(majority([3, 0, 0]), 0);
        assert_eq!(majority([0, 0, 0]), 0);
        assert_eq!(majority([1, 2, 3]), 1, "three-way tie keeps the primary");
        assert_eq!(majority([2, -1, -1]), -1);
    }

    #[test]
    fn walk_step_respects_clamp_and_budget() {
        let mut word: VoltageWord = 2;
        let mut budget = 2;
        walk_step(&mut word, 3, &mut budget);
        assert_eq!((word, budget), (1, 1));
        walk_step(&mut word, 3, &mut budget); // clamped: no budget spent
        assert_eq!((word, budget), (1, 1));
        walk_step(&mut word, -1, &mut budget);
        assert_eq!((word, budget), (2, 0));
        walk_step(&mut word, -1, &mut budget); // budget exhausted
        assert_eq!((word, budget), (2, 0));
    }
}
