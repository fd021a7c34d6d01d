//! The unified Monte-Carlo study configuration.
//!
//! [`StudyConfig`] is one builder carrying the die count, seed and
//! every model choice of a yield study. Its terminals take two routes:
//!
//! * [`StudyConfig::run_summary`] / [`StudyConfig::run_faults`] (and
//!   their `try_*` forms) run the study as a one-cell
//!   [`crate::matrix::StudyMatrix`] — the one batched scoring engine
//!   and the one checkpoint format, so a standalone study and a matrix
//!   cell are the same computation;
//! * [`StudyConfig::run`] scores each die on its own through the
//!   scalar path and materializes every outcome. It is the independent
//!   reference the equivalence suites hold the engine to.
//!
//! ```
//! use subvt_core::study::StudyConfig;
//!
//! let summary = StudyConfig::new(200, 77).run_summary();
//! assert!(summary.adaptive_yield() > summary.fixed_yield());
//! ```
//!
//! Determinism contract: `seed` fully determines the result at any
//! worker count ([`StudyConfig::exec`]); a zero-rate
//! [`FaultPlan`] is byte-identical to no plan at all.

use std::fmt;
use std::path::PathBuf;

use subvt_dcdc::converter::ConverterParams;
use subvt_dcdc::SolverMode;
use subvt_device::mosfet::{check_celsius, Environment, TemperatureRangeError};
use subvt_device::tabulate::{EvalMode, SharedEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Joules};
use subvt_device::variation::VariationModel;
use subvt_digital::lut::VoltageWord;
use subvt_exec::checkpoint::CheckpointError;
use subvt_exec::{
    par_fold_chunked, par_map_indexed, CancelToken, ExecConfig, ExecHooks, FoldError, Progress,
};
use subvt_loads::load::CircuitLoad;
use subvt_loads::ring_oscillator::RingOscillator;
use subvt_regulators::{DigitalLdoBackend, DiscreteTimeLinearBackend};
use subvt_rng::{Rng, StdRng};

pub use subvt_faults::{FaultPlan, FaultRateError};

use crate::fault_study::{score_faulted_die, FaultStudySummary};
use crate::matrix::{run_cells, CellSummary, MatrixCell};
use crate::yield_study::{
    die_seeds, StudyContext, SupplySim, YieldReport, YieldSpec, YieldSummary,
};

/// The circuit a study exercises: the paper's ring oscillator unless
/// the caller borrows its own load.
pub(crate) enum StudyLoad<'a> {
    Paper(RingOscillator),
    Borrowed(&'a dyn CircuitLoad),
}

impl StudyLoad<'_> {
    pub(crate) fn as_dyn(&self) -> &dyn CircuitLoad {
        match self {
            StudyLoad::Paper(ring) => ring,
            StudyLoad::Borrowed(load) => *load,
        }
    }
}

/// A named supply backend the CLI and builder select without building
/// a model up front: the per-word table (and, for the buck, the
/// converter solver) is resolved at run time from the paper-default
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupplyBackendKind {
    /// Exact-word rail: no droop, no ripple, no regulation overhead.
    #[default]
    Ideal,
    /// Switched buck converter (the historical `switched` supply).
    Buck,
    /// Digital LDO with a time-interleaved comparator bank.
    Dldo,
    /// Discrete-time linear regulator with a z-domain PI law.
    Dlr,
}

impl SupplyBackendKind {
    /// The CLI spelling, which is also the checkpoint-fingerprint tag.
    pub fn label(self) -> &'static str {
        match self {
            SupplyBackendKind::Ideal => "ideal",
            SupplyBackendKind::Buck => "buck",
            SupplyBackendKind::Dldo => "dldo",
            SupplyBackendKind::Dlr => "dlr",
        }
    }

    /// Builds the supply model this kind names. `solver` only affects
    /// the buck; the other backends are closed-form by construction.
    pub fn build_sim(self, solver: SolverMode) -> SupplySim {
        match self {
            SupplyBackendKind::Ideal => SupplySim::Ideal,
            SupplyBackendKind::Buck => {
                SupplySim::switched(ConverterParams::default().with_solver(solver))
            }
            SupplyBackendKind::Dldo => SupplySim::regulated(&DigitalLdoBackend::paper_default()),
            SupplyBackendKind::Dlr => {
                SupplySim::regulated(&DiscreteTimeLinearBackend::paper_default())
            }
        }
    }
}

impl std::str::FromStr for SupplyBackendKind {
    type Err = String;

    /// Parses a `--supply` value (the [`SupplyBackendKind::label`]
    /// spellings).
    fn from_str(s: &str) -> Result<SupplyBackendKind, String> {
        match s {
            "ideal" => Ok(SupplyBackendKind::Ideal),
            "buck" => Ok(SupplyBackendKind::Buck),
            "dldo" => Ok(SupplyBackendKind::Dldo),
            "dlr" => Ok(SupplyBackendKind::Dlr),
            other => Err(format!(
                "unknown supply `{other}` (expected one of: ideal, buck, dldo, dlr)"
            )),
        }
    }
}

/// Default sub-batch size for the SoA scoring path: large enough to
/// amortize the lane setup (grid resolution, shared memo), small
/// enough that per-worker scratch stays a few kilobytes.
pub const DEFAULT_BATCH: usize = 32;

/// Why a `try_*` study terminal stopped short of a result.
#[derive(Debug)]
pub enum StudyError {
    /// The armed [`StudyConfig::cancel`] token fired; the checkpoint
    /// (if any) holds every chunk committed before the stop.
    Cancelled,
    /// The checkpoint file could not be created, written, read, or
    /// trusted. A damaged or mismatched file is an error, never a
    /// silent restart.
    Checkpoint(CheckpointError),
    /// A study or cell temperature lies outside the device model's
    /// [`subvt_device::SUPPORTED_CELSIUS`] domain (or is not a number).
    Environment(TemperatureRangeError),
    /// A cell's (or the study's) [`FaultPlan`] carries a rate that is
    /// not a probability in `[0, 1]`.
    Faults(FaultRateError),
}

impl StudyError {
    pub(crate) fn from_fold(e: FoldError<CheckpointError>) -> StudyError {
        match e {
            FoldError::Cancelled => StudyError::Cancelled,
            FoldError::Commit(e) => StudyError::Checkpoint(e),
        }
    }
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Cancelled => write!(f, "study cancelled"),
            StudyError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            StudyError::Environment(e) => write!(f, "environment: {e}"),
            StudyError::Faults(e) => write!(f, "fault plan: {e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Cancelled => None,
            StudyError::Checkpoint(e) => Some(e),
            StudyError::Environment(e) => Some(e),
            StudyError::Faults(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for StudyError {
    fn from(e: CheckpointError) -> StudyError {
        StudyError::Checkpoint(e)
    }
}

/// One configuration for a Monte-Carlo study over a die population.
///
/// Construct with [`StudyConfig::new`], override what the defaults
/// don't cover, then call a terminal:
///
/// * [`StudyConfig::run`] — per-die [`YieldReport`];
/// * [`StudyConfig::run_summary`] — constant-memory [`YieldSummary`];
/// * [`StudyConfig::run_faults`] — fault-injection study
///   ([`FaultStudySummary`]).
///
/// Defaults reproduce the paper configuration: ST 130 nm, nominal
/// environment, the paper's ring-oscillator load, the 110 kHz / 2.9 fJ
/// spec with fixed and design words at the TT MEP (word 11), an ideal
/// rail, no faults, and workers from the environment.
pub struct StudyConfig<'a> {
    pub(crate) dies: usize,
    pub(crate) seed: u64,
    pub(crate) eval: SharedEval,
    pub(crate) env: Environment,
    pub(crate) variation: VariationModel,
    pub(crate) spec: YieldSpec,
    pub(crate) fixed_word: VoltageWord,
    pub(crate) design_word: VoltageWord,
    pub(crate) load: StudyLoad<'a>,
    pub(crate) supply: SupplyBackendKind,
    pub(crate) solver: SolverMode,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) exec: ExecConfig,
    pub(crate) batch: usize,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) progress: Option<&'a (dyn Fn(Progress) + Sync)>,
}

impl std::fmt::Debug for StudyConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyConfig")
            .field("dies", &self.dies)
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<'a> StudyConfig<'a> {
    /// A study over `dies` sampled dies, fully determined by `seed`.
    pub fn new(dies: usize, seed: u64) -> StudyConfig<'a> {
        StudyConfig {
            dies,
            seed,
            eval: EvalMode::Analytic.build(&Technology::st_130nm()),
            env: Environment::nominal(),
            variation: VariationModel::st_130nm(),
            spec: YieldSpec {
                min_rate: Hertz(110e3),
                max_energy_per_op: Joules::from_femtos(2.9),
            },
            fixed_word: 11,
            design_word: 11,
            load: StudyLoad::Paper(RingOscillator::paper_circuit()),
            supply: SupplyBackendKind::Ideal,
            solver: SolverMode::default(),
            faults: None,
            exec: ExecConfig::from_env(),
            batch: DEFAULT_BATCH,
            checkpoint: None,
            cancel: None,
            progress: None,
        }
    }

    /// The device model every die is scored on (default: analytic
    /// ST 130 nm). The evaluator carries its technology, so
    /// `EvalMode::build(&tech)` selects both the model and the node.
    pub fn eval(mut self, eval: SharedEval) -> StudyConfig<'a> {
        self.eval = eval;
        self
    }

    /// Operating environment (default nominal).
    pub fn env(mut self, env: Environment) -> StudyConfig<'a> {
        self.env = env;
        self
    }

    /// Process-variation model (default ST 130 nm).
    pub fn variation(mut self, variation: VariationModel) -> StudyConfig<'a> {
        self.variation = variation;
        self
    }

    /// The shipped-product spec both designs are scored against.
    pub fn spec(mut self, spec: YieldSpec) -> StudyConfig<'a> {
        self.spec = spec;
        self
    }

    /// Fixed design's supply word and the adaptive design's design
    /// word.
    pub fn words(mut self, fixed: VoltageWord, design: VoltageWord) -> StudyConfig<'a> {
        self.fixed_word = fixed;
        self.design_word = design;
        self
    }

    /// Borrow a circuit load instead of the paper's ring oscillator.
    pub fn load(mut self, load: &'a dyn CircuitLoad) -> StudyConfig<'a> {
        self.load = StudyLoad::Borrowed(load);
        self
    }

    /// Supply by named backend (what `--supply` selects): the model is
    /// built at run time, with the configured [`StudyConfig::solver`]
    /// for the buck.
    pub fn supply_backend(mut self, kind: SupplyBackendKind) -> StudyConfig<'a> {
        self.supply = kind;
        self
    }

    /// Integration strategy for a buck supply built by kind.
    pub fn solver(mut self, solver: SolverMode) -> StudyConfig<'a> {
        self.solver = solver;
        self
    }

    /// Arm fault injection with the given plan. A zero-rate plan is
    /// byte-identical to not calling this at all.
    pub fn faults(mut self, plan: FaultPlan) -> StudyConfig<'a> {
        self.faults = Some(plan);
        self
    }

    /// Worker configuration (default from the environment). Results
    /// are bit-identical at any worker count.
    pub fn exec(mut self, exec: ExecConfig) -> StudyConfig<'a> {
        self.exec = exec;
        self
    }

    /// Sub-batch size for the structure-of-arrays scoring path
    /// (default [`DEFAULT_BATCH`]). Results are bit-identical at any
    /// batch size; `0` is treated as `1`.
    pub fn batch(mut self, batch: usize) -> StudyConfig<'a> {
        self.batch = batch;
        self
    }

    /// Checkpoint file for the `try_run_summary` / `try_run_faults`
    /// terminals: one record per committed chunk, so a killed run
    /// resumes bit-identically from the same path — at any worker
    /// count or batch size (neither enters the file's fingerprint). An
    /// existing file must match this configuration; a damaged file is
    /// a typed error, never a silent restart.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> StudyConfig<'a> {
        self.checkpoint = Some(path.into());
        self
    }

    /// Cancellation token checked between chunks by the `try_*`
    /// terminals; a fired token stops the run with
    /// [`StudyError::Cancelled`] after the in-flight chunk commits.
    pub fn cancel(mut self, token: &'a CancelToken) -> StudyConfig<'a> {
        self.cancel = Some(token);
        self
    }

    /// Progress callback for the `try_*` terminals, invoked after each
    /// finished chunk (possibly from worker threads).
    pub fn progress(mut self, progress: &'a (dyn Fn(Progress) + Sync)) -> StudyConfig<'a> {
        self.progress = Some(progress);
        self
    }

    /// Die count.
    pub fn dies(&self) -> usize {
        self.dies
    }

    /// Root seed of the study's deterministic stream tree.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// Runs the study, materializing every die outcome. This is the
    /// scalar reference path: each die is scored on its own through
    /// `StudyContext::score_die` (or the faulted walk), independently
    /// of the batched engine behind the summary terminals, which the
    /// equivalence suites compare against it.
    ///
    /// # Panics
    ///
    /// Panics before any work starts if the study temperature lies
    /// outside the device model's domain, with the
    /// [`TemperatureRangeError`] text ("temperature … °C is outside the
    /// supported range -55..=150 °C"). An armed fault plan with a rate
    /// that is not a probability panics when its first die's
    /// `FaultSchedule` is built, with the [`FaultRateError`] text. The
    /// `try_*` terminals return both as [`StudyError`] values.
    pub fn run(&self) -> YieldReport {
        if let Err(e) = check_celsius(self.env.temperature.celsius()) {
            panic!("{e}");
        }
        let supply = self.supply.build_sim(self.solver);
        let ctx = StudyContext::new(
            self.eval.clone(),
            self.load.as_dyn(),
            self.env,
            &self.variation,
            self.spec,
            self.fixed_word,
            self.design_word,
            &supply,
        );
        let seeds = die_seeds(&mut StdRng::seed_from_u64(self.seed), self.dies);
        let dies = match self.faults {
            None => par_map_indexed(&self.exec, self.dies, |i| {
                ctx.score_die(StdRng::seed_from_u64(seeds[i]))
            }),
            Some(plan) => par_map_indexed(&self.exec, self.dies, |i| {
                score_faulted_die(&ctx, plan, StdRng::seed_from_u64(seeds[i])).base
            }),
        };
        YieldReport {
            dies,
            fixed_word: self.fixed_word,
        }
    }

    /// Runs the study in constant memory (no per-die `Vec`);
    /// bit-identical to `run().summarize()`.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`StudyConfig::checkpoint`] fails or an
    /// armed [`StudyConfig::cancel`] token fires — use
    /// [`StudyConfig::try_run_summary`] to handle those as values.
    pub fn run_summary(&self) -> YieldSummary {
        match self.try_run_summary() {
            Ok(summary) => summary,
            Err(e) => panic!("summary study failed: {e}"),
        }
    }

    /// [`StudyConfig::run_summary`] with cancellation, progress and
    /// checkpointing surfaced as values: the study runs as a one-cell
    /// [`crate::matrix::StudyMatrix`] (this configuration's supply,
    /// environment and fault plan), committing one checkpoint record
    /// per chunk when [`StudyConfig::checkpoint`] is armed. If the file
    /// already exists, the run *resumes* from its last committed
    /// record and the final summary is bit-identical to a run that was
    /// never interrupted — even at a different worker count or batch
    /// size. With a fault plan armed, this is the yield part of
    /// [`StudyConfig::try_run_faults`] (and shares its checkpoint).
    ///
    /// # Errors
    ///
    /// [`StudyError::Cancelled`] when the armed token fires;
    /// [`StudyError::Checkpoint`] when the checkpoint file cannot be
    /// created/appended, or an existing one is damaged or belongs to a
    /// different configuration; [`StudyError::Environment`] when the
    /// study temperature is outside the model's supported range;
    /// [`StudyError::Faults`] when an armed fault plan carries a rate
    /// that is not a probability.
    pub fn try_run_summary(&self) -> Result<YieldSummary, StudyError> {
        Ok(match self.run_one_cell(self.faults)? {
            CellSummary::Yield(summary) => summary,
            CellSummary::Faults(summary) => summary.base,
        })
    }

    /// Runs the fault-injection study: the armed plan (or a zero-rate
    /// one if none was armed), with per-die degradation metrics folded
    /// in constant memory.
    ///
    /// # Panics
    ///
    /// As [`StudyConfig::run_summary`]; use
    /// [`StudyConfig::try_run_faults`] to handle checkpoint failures
    /// and cancellation as values.
    pub fn run_faults(&self) -> FaultStudySummary {
        match self.try_run_faults() {
            Ok(summary) => summary,
            Err(e) => panic!("fault study failed: {e}"),
        }
    }

    /// [`StudyConfig::run_faults`] with cancellation, progress and
    /// checkpointing surfaced as values — the fault-study counterpart
    /// of [`StudyConfig::try_run_summary`], with the same resume
    /// contract.
    ///
    /// # Errors
    ///
    /// As [`StudyConfig::try_run_summary`].
    pub fn try_run_faults(&self) -> Result<FaultStudySummary, StudyError> {
        let plan = self.faults.unwrap_or_else(|| FaultPlan::uniform(0.0));
        match self.run_one_cell(Some(plan))? {
            CellSummary::Faults(summary) => Ok(summary),
            CellSummary::Yield(_) => unreachable!("a fault cell folds a fault summary"),
        }
    }

    /// This configuration as the one cell of a matrix over itself.
    fn run_one_cell(&self, faults: Option<FaultPlan>) -> Result<CellSummary, StudyError> {
        let cell = MatrixCell {
            supply: self.supply,
            env: self.env,
            faults,
        };
        let mut cells = run_cells(self, &[cell])?;
        Ok(cells.pop().expect("one cell in, one result out"))
    }

    pub(crate) fn hooks(&self) -> ExecHooks<'_> {
        ExecHooks {
            cancel: self.cancel,
            progress: self.progress,
        }
    }

    /// The run-identity string of this configuration as one study
    /// cell: everything that shapes the *result* — seed, population,
    /// spec, models — and nothing that only shapes the *execution*
    /// (worker count and batch size are deliberately excluded, so a run
    /// may resume under a different `--jobs`/`--batch` bit-identically).
    /// A checkpoint fingerprint hashes one such line per cell
    /// ([`crate::matrix::StudyMatrix::fingerprint_text`]).
    pub fn fingerprint_text(&self, kind: &str) -> String {
        self.fingerprint_text_with(kind, self.supply.label(), self.env, self.faults)
    }

    /// [`StudyConfig::fingerprint_text`] with the cell-varying axes —
    /// supply tag, environment, fault plan — passed explicitly, so the
    /// matrix path ([`crate::matrix`]) derives each cell's identity
    /// string from the same template. One format string serves both;
    /// they cannot drift.
    pub(crate) fn fingerprint_text_with(
        &self,
        kind: &str,
        supply_tag: &str,
        env: Environment,
        faults: Option<FaultPlan>,
    ) -> String {
        // The paper's node keeps the bare model label, so existing
        // ST 130 nm fingerprints stay valid; any other node is named.
        let tech = self.eval.technology();
        let eval_tag = if *tech == Technology::st_130nm() {
            self.eval.label().to_owned()
        } else {
            format!("{}@{}", self.eval.label(), tech.name)
        };
        format!(
            "subvt-study-v1 kind={kind} dies={} seed={} words={}/{} \
             rate={:016x} energy={:016x} eval={eval_tag} supply={supply_tag} \
             solver={:?} faults={:?} env={:?} load={} variation={:?}",
            self.dies,
            self.seed,
            self.fixed_word,
            self.design_word,
            self.spec.min_rate.value().to_bits(),
            self.spec.max_energy_per_op.value().to_bits(),
            self.solver,
            faults,
            env,
            self.load.as_dyn().name(),
            self.variation,
        )
    }

    /// Generic per-die fan-out: forks one deterministic stream per die
    /// (labels `"{label}-{i}"`, matching a serial fork-per-die loop
    /// bit-for-bit) and maps them through `f` on the configured
    /// execution engine. This is the terminal the savings Monte-Carlo
    /// rides; `f` must be a pure function of its arguments.
    pub fn run_dies<T, F>(&self, label: &str, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, StdRng) -> T + Sync,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let seeds: Vec<u64> = (0..self.dies)
            .map(|i| rng.fork_seed(&format!("{label}-{i}")))
            .collect();
        par_map_indexed(&self.exec, self.dies, |i| {
            f(i, StdRng::seed_from_u64(seeds[i]))
        })
    }

    /// Streaming counterpart of [`StudyConfig::run_dies`]: folds every
    /// die into per-chunk accumulators merged in ascending chunk order,
    /// so memory stays `O(jobs × accumulator)` instead of `O(dies)`.
    /// The fold/merge sequence is a pure function of the die count
    /// (see [`subvt_exec::chunk_len`]), so the result is bit-identical
    /// for any worker count.
    pub fn fold_dies<A, I, F, M>(&self, label: &str, init: I, fold: F, merge: M) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, StdRng) + Sync,
        M: Fn(&mut A, A),
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let seeds: Vec<u64> = (0..self.dies)
            .map(|i| rng.fork_seed(&format!("{label}-{i}")))
            .collect();
        par_fold_chunked(
            &self.exec,
            self.dies,
            init,
            |acc, i| fold(acc, i, StdRng::seed_from_u64(seeds[i])),
            merge,
        )
    }
}

/// The shared command-line surface of every study runner: one parser
/// for `--dies/--jobs/--seed/--eval/--supply/--solver/--faults/
/// --mitigation`, used by both the main CLI and the `exp-*` harness
/// binaries so the flags cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyArgs {
    /// Die population (`--dies`, default 500).
    pub dies: usize,
    /// Explicit worker count (`--jobs`); `None` defers to the
    /// environment.
    pub jobs: Option<usize>,
    /// Monte-Carlo seed (`--seed`, default 1).
    pub seed: u64,
    /// Device evaluation mode (`--eval`, default analytic).
    pub eval: EvalMode,
    /// Supply backend (`--supply`, default ideal).
    pub supply: SupplyBackendKind,
    /// Converter solver for a buck supply (`--solver`).
    pub solver: SolverMode,
    /// Per-cycle fault rate (`--faults`); `None` disables injection.
    pub faults: Option<f64>,
    /// Whether mitigation is armed (`--mitigation on|off`, default on).
    pub mitigation: bool,
    /// SoA sub-batch size (`--batch`); `None` keeps the default.
    pub batch: Option<usize>,
    /// Checkpoint file for summary runs (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Fire a cancel token once this many dies finished
    /// (`--cancel-after-dies`, for exercising checkpoint/resume).
    pub cancel_after_dies: Option<u64>,
    /// Print the per-phase wall-time profile of the batched hot path
    /// after the run (`--profile-phases`).
    pub profile_phases: bool,
    /// Write the per-phase profile as a JSON object to this path after
    /// the run (`--profile-phases-json`); see
    /// [`crate::PhaseProfile::to_json`] for the payload.
    pub profile_phases_json: Option<String>,
}

/// Help text for the shared study flags.
pub const STUDY_HELP: &str = "\
    --dies N          die population (default 500)
    --jobs N          worker threads (default: SUBVT_JOBS, else all cores)
    --seed N          Monte-Carlo seed (default 1)
    --eval M          device evaluation: `analytic` (default) or `tabulated`
    --supply S        supply backend: `ideal` (default), `buck`, `dldo` or `dlr`
    --solver S        converter solver for buck: `closed-form` (default) or `rk4`
    --faults R        per-cycle fault rate in [0,1] (default: no injection)
    --mitigation M    fault mitigation `on` (default) or `off`
    --batch N         SoA sub-batch size (default 32; results identical at any N)
    --checkpoint F    checkpoint file: resume from F if present, else create it
    --cancel-after-dies N
                      stop (checkpointed) once N dies have been scored
    --profile-phases  print per-phase wall time of the batched hot path
                      (draw / fixed lane / word settle / adaptive lanes /
                      dither settle) after the run
    --profile-phases-json F
                      write the per-phase profile as JSON to F after the run";

impl Default for StudyArgs {
    fn default() -> StudyArgs {
        StudyArgs {
            dies: 500,
            jobs: None,
            seed: 1,
            eval: EvalMode::default(),
            supply: SupplyBackendKind::default(),
            solver: SolverMode::default(),
            faults: None,
            mitigation: true,
            batch: None,
            checkpoint: None,
            cancel_after_dies: None,
            profile_phases: false,
            profile_phases_json: None,
        }
    }
}

/// A rejected study flag: which flag, what went wrong, and what the
/// flag accepts.
///
/// Every rejection names the flag and lists its valid forms, in the
/// style the enum flags (`--supply`, `--solver`) established — a bare
/// `--dies must be positive` with no hint of the valid domain is the
/// failure mode this type retires. Converts into `String` so callers
/// that accumulate plain-text CLI errors keep working with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The flag appeared without its value.
    MissingValue {
        /// The flag, e.g. `--dies`.
        flag: &'static str,
        /// The valid forms, e.g. `a positive integer`.
        expected: &'static str,
    },
    /// The value did not parse, or parsed outside the valid domain.
    InvalidValue {
        /// The flag, e.g. `--dies`.
        flag: &'static str,
        /// The offending value as given.
        value: String,
        /// The valid forms, e.g. `a probability in [0, 1]`.
        expected: &'static str,
    },
    /// A rejection that already carries its full message (the enum
    /// flags' `unknown supply ...` strings).
    Other(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue { flag, expected } => {
                write!(f, "{flag} needs a value (expected {expected})")
            }
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value `{value}` for {flag} (expected {expected})"
                )
            }
            ArgError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

impl From<String> for ArgError {
    fn from(msg: String) -> ArgError {
        ArgError::Other(msg)
    }
}

impl StudyArgs {
    /// Defaults: 500 dies, seed 1, analytic eval, ideal supply, no
    /// faults, mitigation on, workers from the environment.
    pub fn new() -> StudyArgs {
        StudyArgs::default()
    }

    /// Tries to consume a study flag at `args[i]`.
    ///
    /// Returns `Ok(Some(n))` when `n` arguments were consumed,
    /// `Ok(None)` when `args[i]` is not a study flag (the caller's
    /// parser proceeds), and a typed [`ArgError`] — naming the flag
    /// and its valid forms — on a malformed value.
    pub fn accept(&mut self, args: &[String], i: usize) -> Result<Option<usize>, ArgError> {
        let value = |flag: &'static str, expected: &'static str| -> Result<&str, ArgError> {
            args.get(i + 1)
                .map(|s| s.as_str())
                .ok_or(ArgError::MissingValue { flag, expected })
        };
        let invalid = |flag: &'static str, raw: &str, expected: &'static str| -> ArgError {
            ArgError::InvalidValue {
                flag,
                value: raw.to_owned(),
                expected,
            }
        };
        match args[i].as_str() {
            "--dies" => {
                const EXPECTED: &str = "a positive integer";
                let raw = value("--dies", EXPECTED)?;
                self.dies = raw
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| invalid("--dies", raw, EXPECTED))?;
            }
            "--jobs" => {
                const EXPECTED: &str = "a positive integer";
                let raw = value("--jobs", EXPECTED)?;
                let jobs = raw
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| invalid("--jobs", raw, EXPECTED))?;
                self.jobs = Some(jobs);
            }
            "--seed" => {
                const EXPECTED: &str = "an unsigned integer";
                let raw = value("--seed", EXPECTED)?;
                self.seed = raw.parse().map_err(|_| invalid("--seed", raw, EXPECTED))?;
            }
            "--eval" => {
                self.eval = value("--eval", "one of: analytic, tabulated")?
                    .parse()
                    .map_err(|e| ArgError::Other(format!("{e}")))?;
            }
            "--supply" => {
                self.supply = value("--supply", "one of: ideal, buck, dldo, dlr")?
                    .parse()
                    .map_err(ArgError::Other)?;
            }
            "--solver" => {
                self.solver = match value("--solver", "one of: closed-form, rk4")? {
                    "closed-form" | "closed_form" => SolverMode::ClosedForm,
                    "rk4" => SolverMode::Rk4,
                    other => {
                        return Err(ArgError::Other(format!(
                            "unknown solver `{other}` (expected one of: closed-form, rk4)"
                        )))
                    }
                };
            }
            "--faults" => {
                const EXPECTED: &str = "a probability in [0, 1]";
                let raw = value("--faults", EXPECTED)?;
                let rate = raw
                    .parse()
                    .ok()
                    .filter(|rate| (0.0..=1.0).contains(rate))
                    .ok_or_else(|| invalid("--faults", raw, EXPECTED))?;
                self.faults = Some(rate);
            }
            "--mitigation" => {
                self.mitigation = match value("--mitigation", "`on` or `off`")? {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(ArgError::Other(format!(
                            "unknown mitigation `{other}` (on|off)"
                        )))
                    }
                };
            }
            "--batch" => {
                const EXPECTED: &str = "a positive integer";
                let raw = value("--batch", EXPECTED)?;
                let batch = raw
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| invalid("--batch", raw, EXPECTED))?;
                self.batch = Some(batch);
            }
            "--checkpoint" => {
                self.checkpoint = Some(value("--checkpoint", "a file path")?.to_owned());
            }
            "--cancel-after-dies" => {
                const EXPECTED: &str = "a positive integer";
                let raw = value("--cancel-after-dies", EXPECTED)?;
                let dies = raw
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .ok_or_else(|| invalid("--cancel-after-dies", raw, EXPECTED))?;
                self.cancel_after_dies = Some(dies);
            }
            "--profile-phases" => {
                self.profile_phases = true;
                return Ok(Some(1));
            }
            "--profile-phases-json" => {
                self.profile_phases_json =
                    Some(value("--profile-phases-json", "a file path")?.to_owned());
            }
            _ => return Ok(None),
        }
        Ok(Some(2))
    }

    /// The execution configuration these flags select.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::from_option(self.jobs)
    }

    /// The fault plan these flags select, if `--faults` was given.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
            .map(|rate| FaultPlan::uniform(rate).with_mitigation(self.mitigation))
    }

    /// Builds the study these flags describe (paper defaults for
    /// everything the flags don't cover).
    pub fn study(&self) -> StudyConfig<'static> {
        let mut cfg = StudyConfig::new(self.dies, self.seed)
            .eval(self.eval.build(&Technology::st_130nm()))
            .supply_backend(self.supply)
            .solver(self.solver)
            .exec(self.exec());
        if let Some(plan) = self.fault_plan() {
            cfg = cfg.faults(plan);
        }
        if let Some(batch) = self.batch {
            cfg = cfg.batch(batch);
        }
        if let Some(path) = &self.checkpoint {
            cfg = cfg.checkpoint(path);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn parse_all(parts: &[&str]) -> Result<StudyArgs, String> {
        let args = argv(parts);
        let mut study = StudyArgs::new();
        let mut i = 0;
        while i < args.len() {
            match study.accept(&args, i)? {
                Some(n) => i += n,
                None => return Err(format!("unknown flag `{}`", args[i])),
            }
        }
        Ok(study)
    }

    #[test]
    fn defaults_are_the_paper_configuration() {
        let study = StudyArgs::new();
        assert_eq!(study.dies, 500);
        assert_eq!(study.seed, 1);
        assert_eq!(study.jobs, None);
        assert_eq!(study.eval, EvalMode::Analytic);
        assert_eq!(study.supply, SupplyBackendKind::Ideal);
        assert_eq!(study.solver, SolverMode::ClosedForm);
        assert_eq!(study.faults, None);
        assert!(study.mitigation);
        assert_eq!(study.fault_plan(), None);
    }

    #[test]
    fn all_flags_parse_in_one_pass() {
        let study = parse_all(&[
            "--dies",
            "40",
            "--jobs",
            "3",
            "--seed",
            "9",
            "--eval",
            "tabulated",
            "--supply",
            "buck",
            "--solver",
            "rk4",
            "--faults",
            "0.02",
            "--mitigation",
            "off",
        ])
        .unwrap();
        assert_eq!(study.dies, 40);
        assert_eq!(study.jobs, Some(3));
        assert_eq!(study.seed, 9);
        assert_eq!(study.eval, EvalMode::Tabulated);
        assert_eq!(study.supply, SupplyBackendKind::Buck);
        assert_eq!(study.solver, SolverMode::Rk4);
        assert_eq!(study.exec().jobs(), 3);
        let plan = study.fault_plan().unwrap();
        assert_eq!(plan.tdc_rate, 0.02);
        assert!(!plan.mitigation);
    }

    #[test]
    fn profile_phases_flag_is_a_bare_toggle() {
        let study = parse_all(&["--profile-phases", "--dies", "40"]).unwrap();
        assert!(study.profile_phases);
        assert_eq!(study.dies, 40);
        assert!(!StudyArgs::new().profile_phases);
        assert!(STUDY_HELP.contains("--profile-phases"));
    }

    #[test]
    fn profile_phases_json_takes_a_path() {
        let study = parse_all(&["--profile-phases-json", "out.json"]).unwrap();
        assert_eq!(study.profile_phases_json.as_deref(), Some("out.json"));
        assert!(!study.profile_phases);
        assert!(parse_all(&["--profile-phases-json"]).is_err());
        assert!(STUDY_HELP.contains("--profile-phases-json"));
    }

    #[test]
    fn switched_is_an_unknown_supply() {
        // The retired `switched` spelling of `buck` gets the ordinary
        // unknown-supply error, and no listing mentions it.
        let err = "switched".parse::<SupplyBackendKind>().unwrap_err();
        assert_eq!(
            err,
            "unknown supply `switched` (expected one of: ideal, buck, dldo, dlr)"
        );
        assert!(!STUDY_HELP.contains("switched"), "{STUDY_HELP}");
    }

    #[test]
    fn malformed_values_are_rejected() {
        for bad in [
            &["--dies", "0"][..],
            &["--dies", "x"],
            &["--dies"],
            &["--jobs", "0"],
            &["--seed", "pi"],
            &["--eval", "magic"],
            &["--supply", "battery"],
            &["--solver", "euler"],
            &["--faults", "1.5"],
            &["--faults", "-0.1"],
            &["--mitigation", "maybe"],
        ] {
            assert!(parse_all(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn numeric_rejections_name_the_flag_and_the_valid_forms() {
        // Typed errors: every numeric rejection carries the flag, the
        // offending value, and the valid domain.
        for (bad, expected) in [
            (
                &["--dies", "0"][..],
                "invalid value `0` for --dies (expected a positive integer)",
            ),
            (
                &["--dies", "x"],
                "invalid value `x` for --dies (expected a positive integer)",
            ),
            (
                &["--jobs", "0"],
                "invalid value `0` for --jobs (expected a positive integer)",
            ),
            (
                &["--seed", "pi"],
                "invalid value `pi` for --seed (expected an unsigned integer)",
            ),
            (
                &["--batch", "0"],
                "invalid value `0` for --batch (expected a positive integer)",
            ),
            (
                &["--faults", "1.5"],
                "invalid value `1.5` for --faults (expected a probability in [0, 1])",
            ),
            (
                &["--faults", "lots"],
                "invalid value `lots` for --faults (expected a probability in [0, 1])",
            ),
            (
                &["--cancel-after-dies", "0"],
                "invalid value `0` for --cancel-after-dies (expected a positive integer)",
            ),
            (
                &["--dies"],
                "--dies needs a value (expected a positive integer)",
            ),
            (
                &["--faults"],
                "--faults needs a value (expected a probability in [0, 1])",
            ),
        ] {
            assert_eq!(parse_all(bad).unwrap_err(), expected, "{bad:?}");
        }
    }

    #[test]
    fn arg_errors_are_typed_and_convert_to_strings() {
        let mut study = StudyArgs::new();
        let e = study.accept(&argv(&["--dies", "0"]), 0).unwrap_err();
        assert_eq!(
            e,
            ArgError::InvalidValue {
                flag: "--dies",
                value: "0".to_owned(),
                expected: "a positive integer",
            }
        );
        let e = study.accept(&argv(&["--batch"]), 0).unwrap_err();
        assert_eq!(
            e,
            ArgError::MissingValue {
                flag: "--batch",
                expected: "a positive integer",
            }
        );
        // Enum flags keep their established full-message form.
        let e = study
            .accept(&argv(&["--supply", "battery"]), 0)
            .unwrap_err();
        assert!(matches!(e, ArgError::Other(_)), "{e}");
        let s: String = e.into();
        assert!(s.contains("unknown supply `battery`"), "{s}");
    }

    #[test]
    fn supply_backends_parse_by_name() {
        for (raw, kind) in [
            ("ideal", SupplyBackendKind::Ideal),
            ("buck", SupplyBackendKind::Buck),
            ("dldo", SupplyBackendKind::Dldo),
            ("dlr", SupplyBackendKind::Dlr),
        ] {
            let study = parse_all(&["--supply", raw]).unwrap();
            assert_eq!(study.supply, kind, "--supply {raw}");
        }
    }

    #[test]
    fn rejection_errors_list_the_valid_options() {
        let err = parse_all(&["--supply", "battery"]).unwrap_err();
        for option in ["ideal", "buck", "dldo", "dlr"] {
            assert!(
                err.contains(option),
                "supply error `{err}` omits `{option}`"
            );
        }
        let err = parse_all(&["--solver", "euler"]).unwrap_err();
        for option in ["closed-form", "rk4"] {
            assert!(
                err.contains(option),
                "solver error `{err}` omits `{option}`"
            );
        }
    }

    #[test]
    fn backend_kinds_fingerprint_distinctly() {
        let tag = |kind: SupplyBackendKind| {
            StudyConfig::new(10, 1)
                .supply_backend(kind)
                .fingerprint_text("summary")
        };
        assert!(tag(SupplyBackendKind::Buck).contains("supply=buck"));
        let tags: Vec<String> = [
            SupplyBackendKind::Ideal,
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ]
        .into_iter()
        .map(tag)
        .collect();
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn the_eval_tag_names_the_model_and_any_node_but_the_paper_s() {
        let text = |eval: SharedEval| {
            StudyConfig::new(10, 1)
                .eval(eval)
                .fingerprint_text("summary")
        };
        let default = StudyConfig::new(10, 1).fingerprint_text("summary");
        assert!(default.contains(" eval=analytic supply="), "{default}");
        let st130 = Technology::st_130nm();
        assert_eq!(text(EvalMode::Analytic.build(&st130)), default);
        let tab = text(EvalMode::Tabulated.build(&st130));
        assert!(tab.contains(" eval=tabulated supply="), "{tab}");
        let n65 = text(EvalMode::Analytic.build(&Technology::generic_65nm()));
        assert!(n65.contains(" eval=analytic@generic-65nm supply="), "{n65}");
    }

    #[test]
    fn non_study_flags_are_left_to_the_caller() {
        let mut study = StudyArgs::new();
        assert_eq!(study.accept(&argv(&["--word", "11"]), 0), Ok(None));
        assert_eq!(study, StudyArgs::new());
    }

    #[test]
    fn builder_defaults_shape_the_study() {
        let cfg = StudyConfig::new(12, 3);
        assert_eq!(cfg.dies(), 12);
        assert_eq!(cfg.fault_plan(), None);
        let armed = StudyConfig::new(12, 3).faults(FaultPlan::uniform(0.1));
        assert_eq!(armed.fault_plan().unwrap().tdc_rate, 0.1);
    }

    #[test]
    fn run_dies_matches_a_serial_fork_loop() {
        // The generic fan-out must reproduce a plain fork-per-die loop
        // bit-for-bit at any worker count.
        let expected: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10)
                .map(|i| rng.fork(&format!("mc-{i}")).next_u64())
                .collect()
        };
        for jobs in [1usize, 2, 7] {
            let got = StudyConfig::new(10, 5)
                .exec(ExecConfig::with_jobs(jobs))
                .run_dies("mc", |_, mut die_rng| die_rng.next_u64());
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }
}
