//! The three workloads, each driven through the public entry points
//! the `subvt` CLI calls, and the independent reference path each
//! correctness check compares against.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use subvt_core::{CellSummary, FaultPlan, StudyConfig, StudyError, StudyMatrix, SupplyBackendKind};
use subvt_device::{Environment, ProcessCorner};
use subvt_exec::{CancelToken, ExecConfig, Progress};
use subvt_scenario::{RunOptions, Scenario};

use crate::corpus::{self, Entry};
use crate::trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One TT cell on the ideal rail, `StudyConfig::try_run_summary`
    /// (the `subvt yield` path).
    FleetTt,
    /// The 18-cell `subvt matrix` grid through `StudyMatrix::try_run`.
    ShootoutFaults,
    /// A seed-generated scenario corpus, cancelled at half and resumed.
    CorpusResume,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::FleetTt, Kind::ShootoutFaults, Kind::CorpusResume];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetTt => "fleet_tt",
            Kind::ShootoutFaults => "shootout_faults",
            Kind::CorpusResume => "corpus_resume",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Worker threads the workload runs with, at most the machine's
    /// parallelism. On the shared 2-vCPU host the benchmark was tuned
    /// on, one worker's speed depends on which vCPU it lands on; two
    /// workers sharing the chunks spread about half as much from run
    /// to run.
    pub fn workers(self) -> usize {
        let wanted = match self {
            Kind::FleetTt | Kind::ShootoutFaults => 2,
            Kind::CorpusResume => 1,
        };
        wanted.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `fleet_tt` dies.
    pub fleet_dies: usize,
    /// `shootout_faults` dies per cell.
    pub shootout_dies: usize,
    /// Copies of each scenario template in the corpus.
    pub corpus_copies: usize,
    /// Die override for the corpus (`None` keeps the committed counts).
    pub corpus_dies: Option<usize>,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        fleet_dies: 100_000,
        shootout_dies: 5_000,
        corpus_copies: corpus::COPIES,
        corpus_dies: None,
    };

    /// Sizes small enough for a test: every check still runs.
    pub const TINY: Sizes = Sizes {
        fleet_dies: 3_000,
        shootout_dies: 300,
        corpus_copies: 2,
        corpus_dies: Some(40),
    };
}

/// One kind of timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The workload at its stated size.
    Full,
    /// The same workload with one die per cell: all fixed cost.
    Setup,
    /// `fleet_tt`/`shootout_faults` with a checkpoint armed: a first
    /// pass cancelled at half, then the timed resumed pass.
    Resume,
}

impl Op {
    /// The reference result the operation's output must equal.
    pub fn reference_key(self) -> &'static str {
        match self {
            Op::Setup => "setup",
            Op::Full | Op::Resume => "full",
        }
    }
}

/// What one operation produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Digest of the result bytes the correctness check compares.
    pub digest: u64,
    /// Die × cell scorings in the result.
    pub die_cells: u64,
    /// Wall time of the whole operation.
    pub wall_s: f64,
    /// Wall time of the resumed pass (0 when there is none).
    pub resume_s: f64,
    /// `Progress` callbacks observed (traced runs only).
    pub arrivals: u64,
    /// Per-chunk wall estimates: gaps between consecutive `Progress`
    /// arrivals of one study call times the worker count (traced runs
    /// only).
    pub chunk_gaps_s: Vec<f64>,
    /// Corpus copy 0 of each template: `(stem, text, json)`.
    pub docs: Vec<(String, String, String)>,
}

/// A workload with its generated inputs.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Benchmark seed.
    pub seed: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Input sizes.
    pub sizes: Sizes,
    scratch: PathBuf,
    corpus: Vec<Entry>,
    setup_corpus: Vec<Entry>,
}

impl Workload {
    /// Generates the workload's inputs from `seed`. `scratch` receives
    /// checkpoints and reports.
    ///
    /// # Errors
    ///
    /// The corpus templates cannot be read or rewritten.
    pub fn new(
        kind: Kind,
        seed: u64,
        sizes: Sizes,
        root: &Path,
        scratch: PathBuf,
    ) -> Result<Workload, String> {
        let (corpus, setup_corpus) = if kind == Kind::CorpusResume {
            let templates = corpus::read_templates(root)?;
            (
                corpus::generate(&templates, seed, sizes.corpus_copies, sizes.corpus_dies)?,
                corpus::generate(&templates, seed, sizes.corpus_copies, Some(1))?,
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(Workload {
            kind,
            seed,
            jobs: kind.workers(),
            sizes,
            scratch,
            corpus,
            setup_corpus,
        })
    }

    /// Dies per cell of the full-size operation (for the corpus, the
    /// largest scenario's).
    pub fn dies_per_cell(&self) -> usize {
        match self.kind {
            Kind::FleetTt => self.sizes.fleet_dies,
            Kind::ShootoutFaults => self.sizes.shootout_dies,
            Kind::CorpusResume => self
                .corpus
                .iter()
                .filter_map(|e| Scenario::from_toml(&e.text).ok())
                .map(|s| s.study.dies)
                .max()
                .unwrap_or(0),
        }
    }

    /// Seed and environment of the workload's first cell, which the
    /// direct layer timings replay: the study seed in the `StudyConfig`
    /// default environment for `fleet_tt`, the first grid cell for
    /// `shootout_faults`, and the first scenario's seed and first cell
    /// for `corpus_resume`.
    ///
    /// # Errors
    ///
    /// The first scenario does not parse or has no cell.
    pub fn first_cell(&self) -> Result<(u64, Environment), String> {
        match self.kind {
            Kind::FleetTt => Ok((self.seed, Environment::nominal())),
            Kind::ShootoutFaults => Ok((self.seed, shootout_cells()[0].1)),
            Kind::CorpusResume => {
                let e = self.corpus.first().ok_or("the corpus is empty")?;
                let s = Scenario::from_toml(&e.text)
                    .map_err(|err| format!("{}: {err}", e.file_stem()))?;
                let plan = s.cell_plans().into_iter().next();
                let plan = plan.ok_or(format!("{} has no cell", e.file_stem()))?;
                Ok((s.study.seed, plan.env))
            }
        }
    }

    /// Directory holding the checkpoint files the last operation left.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.scratch.join("checkpoints")
    }

    fn exec(&self) -> ExecConfig {
        ExecConfig::with_jobs(self.jobs)
    }

    fn base(&self, dies: usize) -> StudyConfig<'static> {
        StudyConfig::new(dies, self.seed).exec(self.exec())
    }

    fn op_dies(&self, op: Op) -> usize {
        match (op, self.kind) {
            (Op::Setup, _) => 1,
            (_, Kind::FleetTt) => self.sizes.fleet_dies,
            (_, _) => self.sizes.shootout_dies,
        }
    }

    /// Runs one operation. Spans are recorded when `tr` is on.
    ///
    /// # Errors
    ///
    /// A `StudyError`, a scenario parse error or an I/O error, as text.
    pub fn run(&self, op: Op, tr: &mut Tracer) -> Result<RunOutput, String> {
        let dir = self.checkpoint_dir();
        // Each operation starts from an empty checkpoint directory, so
        // a resume never reads an earlier operation's file.
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        match (self.kind, op) {
            (Kind::CorpusResume, Op::Setup) => self.corpus_run(&self.setup_corpus, tr),
            (Kind::CorpusResume, _) => self.corpus_run(&self.corpus, tr),
            (_, Op::Resume) => self.study_run(self.op_dies(op), true, tr),
            (_, _) => self.study_run(self.op_dies(op), false, tr),
        }
    }

    /// Scores the fleet or shoot-out study built on `cfg`, returning
    /// the bytes the correctness check compares.
    fn score(&self, cfg: StudyConfig<'_>, tr: &mut Tracer) -> Result<Vec<u8>, StudyError> {
        if self.kind == Kind::FleetTt {
            let summary = tr.span("core.study", |_| cfg.try_run_summary())?;
            return Ok(summary.encode_state());
        }
        let matrix = shootout_cells()
            .into_iter()
            .fold(StudyMatrix::new(cfg), |m, (supply, env, faults)| {
                m.cell(supply, env, faults)
            });
        let cells = tr.span("core.matrix", |_| matrix.try_run())?;
        Ok(encode_cells(&cells))
    }

    fn study_run(&self, dies: usize, resume: bool, tr: &mut Tracer) -> Result<RunOutput, String> {
        let path = self.checkpoint_dir().join("study.svcp");
        if resume {
            let hook = Hook::new(false, true);
            let watch = |p: Progress| hook.observe(p);
            let cfg = hook.arm(self.base(dies).checkpoint(&path), &watch);
            match self.score(cfg, &mut Tracer::off()) {
                Ok(_) | Err(StudyError::Cancelled) => {}
                Err(e) => return Err(format!("first pass: {e}")),
            }
        }
        let hook = Hook::new(tr.enabled(), false);
        let watch = |p: Progress| hook.observe(p);
        let mut cfg = hook.arm(self.base(dies), &watch);
        if resume {
            cfg = cfg.checkpoint(&path);
        }
        let start = Instant::now();
        let bytes = tr
            .span("workload", |tr| self.score(cfg, tr))
            .map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        let cells = if self.kind == Kind::FleetTt { 1 } else { 18 };
        let mut out = RunOutput {
            digest: digest(&[&bytes]),
            die_cells: (dies * cells) as u64,
            wall_s,
            resume_s: if resume { wall_s } else { 0.0 },
            ..RunOutput::default()
        };
        hook.drain_into(self.jobs, &mut out);
        Ok(out)
    }

    fn corpus_run(&self, entries: &[Entry], tr: &mut Tracer) -> Result<RunOutput, String> {
        let dir = self.checkpoint_dir();
        let reports = self.scratch.join("reports");
        std::fs::create_dir_all(&reports).map_err(|e| format!("{}: {e}", reports.display()))?;
        let record = tr.enabled();
        let exec = self.exec();
        let mut out = RunOutput::default();
        let mut fnv = Fnv::new();
        let start = Instant::now();
        tr.span("workload", |tr| -> Result<(), String> {
            let scenarios = tr.span("scenario.parse", |_| {
                entries
                    .iter()
                    .map(|e| {
                        Scenario::from_toml(&e.text)
                            .map_err(|err| format!("{}: {err}", e.file_stem()))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            tr.span("pass1", |tr| -> Result<(), String> {
                for (e, s) in entries.iter().zip(&scenarios) {
                    let hook = Hook::new(record, true);
                    let watch = |p: Progress| hook.observe(p);
                    let base = s
                        .study_config()
                        .exec(exec)
                        .checkpoint(dir.join(format!("{}.svcp", e.file_stem())));
                    let plans = s.cell_plans();
                    out.die_cells += (s.study.dies * plans.len()) as u64;
                    let matrix = plans
                        .into_iter()
                        .fold(StudyMatrix::new(hook.arm(base, &watch)), |m, p| {
                            m.cell(p.supply, p.env, p.faults)
                        });
                    match tr.span("core.matrix", |_| matrix.try_run()) {
                        Ok(_) | Err(StudyError::Cancelled) => {}
                        Err(err) => return Err(format!("{} first pass: {err}", e.file_stem())),
                    }
                    hook.drain_into(self.jobs, &mut out);
                }
                Ok(())
            })?;
            let resumed = Instant::now();
            tr.span("pass2", |tr| -> Result<(), String> {
                for (e, s) in entries.iter().zip(&scenarios) {
                    let stem = e.file_stem();
                    let opts = RunOptions {
                        exec: Some(exec),
                        checkpoint: Some(dir.join(format!("{stem}.svcp"))),
                    };
                    let report = tr
                        .span("scenario.run", |_| s.try_run(&opts))
                        .map_err(|err| format!("{stem}: {err}"))?;
                    let (text, json) =
                        tr.span("scenario.render", |_| (report.to_text(), report.to_json()));
                    tr.span("report.write", |_| {
                        std::fs::write(reports.join(format!("{stem}.txt")), &text)?;
                        std::fs::write(reports.join(format!("{stem}.json")), &json)
                    })
                    .map_err(|err| format!("{stem}: writing the report: {err}"))?;
                    fnv.update(text.as_bytes());
                    fnv.update(json.as_bytes());
                    if e.copy == 0 {
                        out.docs.push((e.stem.clone(), text, json));
                    }
                }
                Ok(())
            })?;
            out.resume_s = resumed.elapsed().as_secs_f64();
            Ok(())
        })?;
        out.wall_s = start.elapsed().as_secs_f64();
        out.digest = fnv.finish();
        Ok(out)
    }

    /// Digest of the reference result for `op`, computed on a path
    /// independent of the one under test: the scalar per-die study for
    /// `fleet_tt`, one standalone study per cell for `shootout_faults`
    /// (what `subvt matrix --per-cell` runs), and an uninterrupted run
    /// of every scenario for `corpus_resume`.
    ///
    /// # Errors
    ///
    /// As [`Workload::run`].
    pub fn reference(&self, op: Op) -> Result<u64, String> {
        let dies = self.op_dies(op);
        match self.kind {
            Kind::FleetTt => Ok(digest(&[&self.base(dies).run().summarize().encode_state()])),
            Kind::ShootoutFaults => {
                let cells: Vec<CellSummary> = shootout_cells()
                    .into_iter()
                    .map(|(supply, env, faults)| {
                        let cfg = self.base(dies).supply_backend(supply).env(env);
                        match faults {
                            None => CellSummary::Yield(cfg.run_summary()),
                            Some(plan) => CellSummary::Faults(cfg.faults(plan).run_faults()),
                        }
                    })
                    .collect();
                Ok(digest(&[&encode_cells(&cells)]))
            }
            Kind::CorpusResume => {
                let entries = if op == Op::Setup {
                    &self.setup_corpus
                } else {
                    &self.corpus
                };
                let mut fnv = Fnv::new();
                for e in entries {
                    let stem = e.file_stem();
                    let s = Scenario::from_toml(&e.text).map_err(|err| format!("{stem}: {err}"))?;
                    let opts = RunOptions {
                        exec: Some(self.exec()),
                        checkpoint: None,
                    };
                    let report = s.try_run(&opts).map_err(|err| format!("{stem}: {err}"))?;
                    fnv.update(report.to_text().as_bytes());
                    fnv.update(report.to_json().as_bytes());
                }
                Ok(fnv.finish())
            }
        }
    }
}

/// The `subvt matrix` grid: buck/dldo/dlr × TT/SS/FF × fault rate
/// {0, 0.02} with mitigation, at 25 °C.
fn shootout_cells() -> Vec<(SupplyBackendKind, Environment, Option<FaultPlan>)> {
    let plan = FaultPlan::uniform(0.02).with_mitigation(true);
    let mut cells = Vec::with_capacity(18);
    for supply in [
        SupplyBackendKind::Buck,
        SupplyBackendKind::Dldo,
        SupplyBackendKind::Dlr,
    ] {
        for corner in [ProcessCorner::Tt, ProcessCorner::Ss, ProcessCorner::Ff] {
            for faults in [None, Some(plan)] {
                cells.push((
                    supply,
                    Environment::at_corner(corner).with_celsius(25.0),
                    faults,
                ));
            }
        }
    }
    cells
}

fn encode_cells(cells: &[CellSummary]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for cell in cells {
        let state = cell.encode_state();
        bytes.extend_from_slice(&(state.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&state);
    }
    bytes
}

/// The progress hook of one study call: records arrival times when
/// traced, and fires the cancel token once half the population is done
/// when asked to.
struct Hook {
    record: bool,
    cancel_half: bool,
    token: CancelToken,
    arrivals: Mutex<Vec<Instant>>,
}

impl Hook {
    fn new(record: bool, cancel_half: bool) -> Hook {
        Hook {
            record,
            cancel_half,
            token: CancelToken::new(),
            arrivals: Mutex::new(Vec::new()),
        }
    }

    fn observe(&self, p: Progress) {
        if self.record {
            self.arrivals
                .lock()
                .expect("no panic while holding the arrival log")
                .push(Instant::now());
        }
        if self.cancel_half && p.done * 2 >= p.total {
            self.token.cancel();
        }
    }

    /// Arms `cfg` with this hook; an idle hook leaves it untouched.
    fn arm<'a>(
        &'a self,
        cfg: StudyConfig<'a>,
        watch: &'a (dyn Fn(Progress) + Sync),
    ) -> StudyConfig<'a> {
        let mut cfg = cfg;
        if self.record || self.cancel_half {
            cfg = cfg.progress(watch);
        }
        if self.cancel_half {
            cfg = cfg.cancel(&self.token);
        }
        cfg
    }

    fn drain_into(&self, jobs: usize, out: &mut RunOutput) {
        let arrivals = self
            .arrivals
            .lock()
            .expect("no panic while holding the arrival log");
        out.arrivals += arrivals.len() as u64;
        out.chunk_gaps_s.extend(
            arrivals
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * jobs as f64),
        );
    }
}

/// FNV-1a over length-prefixed byte strings.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one byte string.
    fn update(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn digest(parts: &[&[u8]]) -> u64 {
    let mut fnv = Fnv::new();
    for p in parts {
        fnv.update(p);
    }
    fnv.finish()
}
