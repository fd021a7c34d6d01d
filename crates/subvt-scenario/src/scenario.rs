//! The scenario model: one declarative study, compiled onto the fused
//! matrix engine.
//!
//! A scenario file is the TOML-subset document:
//!
//! ```toml
//! name = "supply-shootout"
//!
//! [study]
//! dies = 500
//! seed = 1
//! supply = "ideal"        # base axes; a [matrix] block supersedes them
//! corner = "TT"
//! temp_c = 25.0
//!
//! [matrix]                 # optional: expands to supplies × corners × rates
//! supplies = ["buck", "dldo", "dlr"]
//! corners = ["TT", "SS", "FF"]
//! fault_rates = [0.0, 0.02]
//!
//! [report]
//! title = "Supply-backend shoot-out ({dies} dies per cell, seed {seed})"
//! backend_figures = true
//!
//! [[report.notes]]
//! text = "Reading the table: ..."
//! ```
//!
//! [`Scenario::from_toml`] decodes it with **strict keys** — an
//! unknown key or a type mismatch is a [`TomlError`] carrying the
//! line/column of the offending token. [`Scenario::to_toml`] emits the
//! canonical full form (every `[study]` knob spelled out), and the two
//! compose to identity on the model.
//!
//! Compilation: the `[matrix]` axes expand outer-to-inner as supplies
//! × corners × fault rates (the `exp-shootout` nesting); each missing
//! axis defaults to the base `[study]` value, so a scenario with no
//! `[matrix]` block is a single-cell matrix. A fault rate of `0.0`
//! compiles to *no* fault plan (byte-identical to a clean cell, per
//! the study contract). Everything runs through
//! [`subvt_core::StudyMatrix`], so an N-cell scenario pays one die
//! draw, not N.

use std::path::PathBuf;

use subvt_core::matrix::{CellSummary, StudyMatrix};
use subvt_core::study::{FaultPlan, StudyArgs, StudyConfig, StudyError, SupplyBackendKind};
use subvt_core::yield_study::{SupplySim, YieldSpec};
use subvt_dcdc::SolverMode;
use subvt_device::corner::ProcessCorner;
use subvt_device::mosfet::{check_celsius, Environment};
use subvt_device::tabulate::EvalMode;
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Joules};
use subvt_device::variation::VariationModel;
use subvt_exec::checkpoint::fingerprint_of;
use subvt_exec::ExecConfig;

use crate::render::{f, pct, Table};
use crate::report::{CellReport, Provenance, Report};
use crate::toml::{parse, serialize, Spanned, Table as TomlTable, TomlError, Value};

/// Scenario decode/validation failures share the TOML error type:
/// every one points at a line and column of the source document.
pub type ScenarioError = TomlError;

/// The `[study]` block: every [`StudyConfig`] knob, in declarative
/// form. Defaults reproduce the paper configuration (the same
/// defaults as [`StudyConfig::new`] + [`StudyArgs::new`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Die population per cell (default 500).
    pub dies: usize,
    /// Root Monte-Carlo seed (default 1).
    pub seed: u64,
    /// Technology name: `st-130nm` (default) or `generic-65nm`.
    pub tech: String,
    /// Device evaluation mode (default analytic).
    pub eval: EvalMode,
    /// Base process corner (default TT; a `[matrix]` corners axis
    /// supersedes it).
    pub corner: ProcessCorner,
    /// Die temperature in Celsius (default 25.0; the decoder rejects
    /// values outside `subvt_device::SUPPORTED_CELSIUS`).
    pub temp_c: f64,
    /// Variation model name: `st-130nm` (the only model).
    pub variation: String,
    /// Circuit load name: `paper-ring` (the only load).
    pub load: String,
    /// Spec: minimum sustained rate in Hz (default 110e3).
    pub min_rate_hz: f64,
    /// Spec: energy bound per op in fJ (default 2.9).
    pub max_energy_fj: f64,
    /// The fixed design's supply word (default 11).
    pub fixed_word: u8,
    /// The adaptive design's design word (default 11).
    pub design_word: u8,
    /// Base supply backend (default ideal; a `[matrix]` supplies axis
    /// supersedes it).
    pub supply: SupplyBackendKind,
    /// Converter solver for buck supplies (default closed-form).
    pub solver: SolverMode,
    /// Base per-cycle fault rate (default none; a `[matrix]`
    /// fault_rates axis supersedes it).
    pub fault_rate: Option<f64>,
    /// Fault mitigation armed (default true).
    pub mitigation: bool,
    /// Pinned worker count. `None` (default) defers to run time — and
    /// keeps `jobs` out of the report provenance.
    pub jobs: Option<usize>,
    /// SoA sub-batch size override.
    pub batch: Option<usize>,
    /// Checkpoint file for the run.
    pub checkpoint: Option<String>,
}

impl Default for StudySpec {
    fn default() -> StudySpec {
        StudySpec {
            dies: 500,
            seed: 1,
            tech: "st-130nm".to_owned(),
            eval: EvalMode::default(),
            corner: ProcessCorner::Tt,
            temp_c: 25.0,
            variation: "st-130nm".to_owned(),
            load: "paper-ring".to_owned(),
            min_rate_hz: 110e3,
            max_energy_fj: 2.9,
            fixed_word: 11,
            design_word: 11,
            supply: SupplyBackendKind::default(),
            solver: SolverMode::default(),
            fault_rate: None,
            mitigation: true,
            jobs: None,
            batch: None,
            checkpoint: None,
        }
    }
}

/// The `[matrix]` expansion block: each axis, when present, supersedes
/// the base `[study]` value; cells expand supplies × corners × rates,
/// outer to inner.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixSpec {
    /// Supply backends to sweep.
    pub supplies: Option<Vec<SupplyBackendKind>>,
    /// Process corners to sweep.
    pub corners: Option<Vec<ProcessCorner>>,
    /// Per-cycle fault rates to sweep (`0.0` = clean cell).
    pub fault_rates: Option<Vec<f64>>,
}

/// The `[report]` block: presentation knobs for the rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Title template; `{dies}`, `{seed}` and `{design_word}` are
    /// substituted from the study spec.
    pub title: String,
    /// Title of the Monte-Carlo results table.
    pub table_title: String,
    /// Emit the closed-form backend-figures table (regulated backends
    /// only) before the Monte-Carlo table.
    pub backend_figures: bool,
    /// Trailing note lines, one per entry.
    pub notes: Vec<String>,
}

impl Default for ReportSpec {
    fn default() -> ReportSpec {
        ReportSpec {
            title: "Study ({dies} dies per cell, seed {seed})".to_owned(),
            table_title: "Monte-Carlo yield per backend x corner x per-cycle fault rate".to_owned(),
            backend_figures: false,
            notes: Vec::new(),
        }
    }
}

/// One expanded cell of a scenario: the matrix axes plus the labels
/// the report renders them under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPlan {
    /// Supply backend of this cell.
    pub supply: SupplyBackendKind,
    /// Process corner of this cell.
    pub corner: ProcessCorner,
    /// Per-cycle fault rate (0.0 = clean).
    pub rate: f64,
    /// The compiled environment (corner at the study temperature).
    pub env: Environment,
    /// The compiled fault plan (`None` for rate 0.0).
    pub faults: Option<FaultPlan>,
}

/// Runtime-only knobs for a scenario run. Nothing here may change the
/// result bytes — only where the work happens and where the
/// checkpoint lives.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Execution override (e.g. a suite runner's `--jobs`). Results
    /// are bit-identical at any worker count and the value never
    /// enters the report.
    pub exec: Option<ExecConfig>,
    /// Checkpoint-file override (e.g. `--checkpoint-dir`/`<stem>.svcp`);
    /// takes precedence over the scenario's own `checkpoint` field.
    pub checkpoint: Option<PathBuf>,
}

/// One declarative study: base knobs, matrix expansion, report shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (report provenance; output file stem by
    /// convention).
    pub name: String,
    /// The `[study]` block.
    pub study: StudySpec,
    /// The `[matrix]` block.
    pub matrix: MatrixSpec,
    /// The `[report]` block.
    pub report: ReportSpec,
}

impl Scenario {
    /// A single-cell scenario with the paper defaults.
    pub fn new(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            study: StudySpec::default(),
            matrix: MatrixSpec::default(),
            report: ReportSpec::default(),
        }
    }

    /// The supply-backend shoot-out: buck/dldo/dlr × TT/SS/FF ×
    /// fault rates {0, 0.02} — the scenario behind
    /// `docs/results/supply_shootout.txt`.
    pub fn supply_shootout() -> Scenario {
        let mut s = Scenario::new("supply-shootout");
        s.matrix.supplies = Some(vec![
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ]);
        s.matrix.corners = Some(vec![
            ProcessCorner::Tt,
            ProcessCorner::Ss,
            ProcessCorner::Ff,
        ]);
        s.matrix.fault_rates = Some(vec![0.0, 0.02]);
        s.report.title = "Supply-backend shoot-out ({dies} dies per cell, seed {seed})".to_owned();
        s.report.backend_figures = true;
        s.report.notes = vec![
            "Reading the table: the DLDO's one-LSB-of-charge ripple (0.15 mV pp) makes".to_owned(),
            "it electrically closest to the ideal rail, so its yields track the ideal".to_owned(),
            "study and it pays the least regulation overhead. The DLR sits between:".to_owned(),
            "quiet in steady state but slow-sampled (1 MHz), so a corrupted decision".to_owned(),
            "costs a full 20 mV excursion. The buck trades the worst ripple and the".to_owned(),
            "slowest settle for the simplest hardware story; its trough scoring is".to_owned(),
            "what cut adaptive yield below the ideal rail in the PR 4 study.".to_owned(),
        ];
        s
    }

    /// Overrides the study knobs the shared CLI flags cover. Worker
    /// count is *not* applied here — it is runtime-only; pass it via
    /// [`RunOptions::exec`].
    pub fn apply_args(&mut self, args: &StudyArgs) {
        self.study.dies = args.dies;
        self.study.seed = args.seed;
        self.study.eval = args.eval;
        self.study.solver = args.solver;
        self.study.mitigation = args.mitigation;
        if args.supply != SupplyBackendKind::default() {
            self.study.supply = args.supply;
        }
        if let Some(rate) = args.faults {
            self.study.fault_rate = Some(rate);
        }
        if let Some(batch) = args.batch {
            self.study.batch = Some(batch);
        }
        if let Some(path) = &args.checkpoint {
            self.study.checkpoint = Some(path.clone());
        }
    }

    // -----------------------------------------------------------------
    // TOML codec
    // -----------------------------------------------------------------

    /// Decodes a scenario document. Strict: unknown keys, type
    /// mismatches and out-of-range values are all [`TomlError`]s
    /// pointing at the offending line/column.
    pub fn from_toml(text: &str) -> Result<Scenario, ScenarioError> {
        let root = parse(text)?;
        check_keys(&root, &["name", "study", "matrix", "report"])?;
        let mut scenario = Scenario::new("");
        if let Some(v) = root.get("name") {
            scenario.name = v.as_str()?.to_owned();
        }
        if let Some(v) = root.get("study") {
            scenario.study = decode_study(v.as_table()?)?;
        }
        if let Some(v) = root.get("matrix") {
            scenario.matrix = decode_matrix(v.as_table()?)?;
        }
        if let Some(v) = root.get("report") {
            scenario.report = decode_report(v.as_table()?)?;
        }
        Ok(scenario)
    }

    /// Encodes the canonical full form: every `[study]` knob spelled
    /// out, axes and report blocks in declaration order.
    /// `from_toml(to_toml())` is identity on the model.
    pub fn to_toml(&self) -> String {
        let s = &self.study;
        let mut root = TomlTable::new();
        root.insert("name", Value::Str(self.name.clone()));

        let mut study = TomlTable::new();
        study.insert("dies", Value::Int(s.dies as i64));
        study.insert("seed", Value::Int(s.seed as i64));
        study.insert("tech", Value::Str(s.tech.clone()));
        study.insert("eval", Value::Str(s.eval.label().to_owned()));
        study.insert("corner", Value::Str(s.corner.name().to_owned()));
        study.insert("temp_c", Value::Float(s.temp_c));
        study.insert("variation", Value::Str(s.variation.clone()));
        study.insert("load", Value::Str(s.load.clone()));
        study.insert("min_rate_hz", Value::Float(s.min_rate_hz));
        study.insert("max_energy_fj", Value::Float(s.max_energy_fj));
        study.insert("fixed_word", Value::Int(s.fixed_word as i64));
        study.insert("design_word", Value::Int(s.design_word as i64));
        study.insert("supply", Value::Str(s.supply.label().to_owned()));
        study.insert("solver", Value::Str(solver_label(s.solver).to_owned()));
        study.insert("mitigation", Value::Bool(s.mitigation));
        if let Some(rate) = s.fault_rate {
            study.insert("fault_rate", Value::Float(rate));
        }
        if let Some(jobs) = s.jobs {
            study.insert("jobs", Value::Int(jobs as i64));
        }
        if let Some(batch) = s.batch {
            study.insert("batch", Value::Int(batch as i64));
        }
        if let Some(path) = &s.checkpoint {
            study.insert("checkpoint", Value::Str(path.clone()));
        }
        root.insert("study", Value::Table(study));

        if self.matrix != MatrixSpec::default() {
            let mut matrix = TomlTable::new();
            if let Some(supplies) = &self.matrix.supplies {
                matrix.insert(
                    "supplies",
                    str_array(supplies.iter().map(|k| k.label().to_owned())),
                );
            }
            if let Some(corners) = &self.matrix.corners {
                matrix.insert(
                    "corners",
                    str_array(corners.iter().map(|c| c.name().to_owned())),
                );
            }
            if let Some(rates) = &self.matrix.fault_rates {
                matrix.insert(
                    "fault_rates",
                    Value::Array(
                        rates
                            .iter()
                            .map(|&r| Spanned::synthetic(Value::Float(r)))
                            .collect(),
                    ),
                );
            }
            root.insert("matrix", Value::Table(matrix));
        }

        let mut report = TomlTable::new();
        report.insert("title", Value::Str(self.report.title.clone()));
        report.insert("table_title", Value::Str(self.report.table_title.clone()));
        report.insert("backend_figures", Value::Bool(self.report.backend_figures));
        if !self.report.notes.is_empty() {
            let notes: Vec<Spanned<Value>> = self
                .report
                .notes
                .iter()
                .map(|line| {
                    let mut note = TomlTable::new();
                    note.insert("text", Value::Str(line.clone()));
                    Spanned::synthetic(Value::Table(note))
                })
                .collect();
            report.insert("notes", Value::Array(notes));
        }
        root.insert("report", Value::Table(report));

        serialize(&root)
    }

    // -----------------------------------------------------------------
    // Compilation
    // -----------------------------------------------------------------

    /// The base [`StudyConfig`] the `[study]` block describes. For a
    /// matrix scenario this is the matrix base (its supply/env/faults
    /// axes are superseded by the cells); for a single-cell scenario it
    /// *is* the cell, and its checkpoint fingerprint is the one a
    /// standalone run of the same knobs would stamp.
    pub fn study_config(&self) -> StudyConfig<'static> {
        let s = &self.study;
        let tech = match s.tech.as_str() {
            "generic-65nm" => Technology::generic_65nm(),
            _ => Technology::st_130nm(),
        };
        let mut cfg = StudyConfig::new(s.dies, s.seed)
            .eval(s.eval.build(&tech))
            .env(Environment::at_corner(s.corner).with_celsius(s.temp_c))
            .variation(VariationModel::st_130nm())
            .spec(YieldSpec {
                min_rate: Hertz(s.min_rate_hz),
                max_energy_per_op: Joules::from_femtos(s.max_energy_fj),
            })
            .words(s.fixed_word, s.design_word)
            .supply_backend(s.supply)
            .solver(s.solver)
            .exec(ExecConfig::from_option(s.jobs));
        if let Some(rate) = s.fault_rate {
            cfg = cfg.faults(FaultPlan::uniform(rate).with_mitigation(s.mitigation));
        }
        if let Some(batch) = s.batch {
            cfg = cfg.batch(batch);
        }
        if let Some(path) = &s.checkpoint {
            cfg = cfg.checkpoint(path);
        }
        cfg
    }

    /// The expanded cell list: supplies × corners × fault rates, outer
    /// to inner; each missing axis defaults to the base `[study]`
    /// value.
    pub fn cell_plans(&self) -> Vec<CellPlan> {
        let supplies = self
            .matrix
            .supplies
            .clone()
            .unwrap_or_else(|| vec![self.study.supply]);
        let corners = self
            .matrix
            .corners
            .clone()
            .unwrap_or_else(|| vec![self.study.corner]);
        let rates = self
            .matrix
            .fault_rates
            .clone()
            .unwrap_or_else(|| vec![self.study.fault_rate.unwrap_or(0.0)]);
        let mut plans = Vec::with_capacity(supplies.len() * corners.len() * rates.len());
        for &supply in &supplies {
            for &corner in &corners {
                for &rate in &rates {
                    plans.push(CellPlan {
                        supply,
                        corner,
                        rate,
                        env: Environment::at_corner(corner).with_celsius(self.study.temp_c),
                        faults: (rate > 0.0).then(|| {
                            FaultPlan::uniform(rate).with_mitigation(self.study.mitigation)
                        }),
                    });
                }
            }
        }
        plans
    }

    /// The compiled matrix: base config + expanded cells, with the
    /// runtime overrides applied.
    fn compile(&self, opts: &RunOptions) -> StudyMatrix<'static> {
        let mut base = self.study_config();
        if let Some(exec) = opts.exec {
            base = base.exec(exec);
        }
        if let Some(path) = &opts.checkpoint {
            base = base.checkpoint(path);
        }
        self.cell_plans()
            .into_iter()
            .fold(StudyMatrix::new(base), |m, p| {
                m.cell(p.supply, p.env, p.faults)
            })
    }

    /// The checkpoint fingerprint of this scenario's matrix — the
    /// stable identity stamped into report provenance and any
    /// checkpoint file.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.compile(&RunOptions::default()).fingerprint_text())
    }

    /// The report title with `{dies}`/`{seed}`/`{design_word}`
    /// substituted.
    pub fn title(&self) -> String {
        self.report
            .title
            .replace("{dies}", &self.study.dies.to_string())
            .replace("{seed}", &self.study.seed.to_string())
            .replace("{design_word}", &self.study.design_word.to_string())
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Runs the scenario on the fused matrix engine and assembles the
    /// [`Report`].
    ///
    /// # Errors
    ///
    /// [`StudyError`] on checkpoint damage/mismatch or cancellation —
    /// exactly the failure modes of [`StudyMatrix::try_run`].
    pub fn try_run(&self, opts: &RunOptions) -> Result<Report, StudyError> {
        let matrix = self.compile(opts);
        let fingerprint = fingerprint_of(&matrix.fingerprint_text());
        let results = matrix.try_run()?;
        let plans = self.cell_plans();

        let mut report = Report::new(self.title()).provenance(Provenance {
            scenario: self.name.clone(),
            fingerprint,
            seed: self.study.seed,
            dies: self.study.dies,
            jobs: self.study.jobs,
        });

        if self.report.backend_figures {
            let mut fig = Table::new(
                format!(
                    "Backend figures at the design word ({})",
                    self.study.design_word
                ),
                &[
                    "backend",
                    "ripple (mV pp)",
                    "settle (cycles)",
                    "regulation (fJ/cycle)",
                    "glitch droop (mV)",
                    "missed-update droop (mV)",
                ],
            );
            let mut seen: Vec<SupplyBackendKind> = Vec::new();
            for plan in &plans {
                if seen.contains(&plan.supply) {
                    continue;
                }
                seen.push(plan.supply);
                if let SupplySim::Regulated(model) = plan.supply.build_sim(self.study.solver) {
                    fig.row(&[
                        plan.supply.label().to_owned(),
                        f(model.point(self.study.design_word).ripple().millivolts(), 3),
                        model.response_cycles().to_string(),
                        f(model.regulation_energy_per_cycle().femtos(), 1),
                        f(model.comparator_glitch_droop().millivolts(), 2),
                        f(model.missed_update_droop().millivolts(), 2),
                    ]);
                }
            }
            report.table(fig);
        }

        let mut mc = Table::new(
            self.report.table_title.clone(),
            &[
                "backend",
                "corner",
                "fault rate",
                "fixed",
                "adaptive",
                "dithered",
                "mean adaptive E (fJ)",
                "tracking err (LSB)",
            ],
        );
        for (plan, result) in plans.iter().zip(&results) {
            let (summary, tracking) = match result {
                CellSummary::Yield(s) => (s, "-".to_owned()),
                CellSummary::Faults(s) => (&s.base, f(s.mean_tracking_error(), 2)),
            };
            mc.row(&[
                plan.supply.label().to_owned(),
                plan.corner.name().to_owned(),
                format!("{}", plan.rate),
                pct(summary.fixed_yield()),
                pct(summary.adaptive_yield()),
                pct(summary.dithered_yield()),
                summary
                    .mean_adaptive_energy()
                    .map_or("-".into(), |e| f(e.femtos(), 3)),
                tracking,
            ]);
            report.cells.push(cell_report(plan, result));
        }
        report.table(mc);

        if !self.report.notes.is_empty() {
            report.note(self.report.notes.iter().cloned());
        }
        Ok(report)
    }

    /// [`Scenario::try_run`], panicking on a study failure.
    ///
    /// # Panics
    ///
    /// On checkpoint damage/mismatch or cancellation.
    pub fn run(&self, opts: &RunOptions) -> Report {
        match self.try_run(opts) {
            Ok(report) => report,
            Err(e) => panic!("scenario `{}` failed: {e}", self.name),
        }
    }
}

/// One cell's machine-readable summary.
fn cell_report(plan: &CellPlan, result: &CellSummary) -> CellReport {
    let common = |s: &subvt_core::yield_study::YieldSummary| CellReport {
        supply: plan.supply.label().to_owned(),
        corner: plan.corner.name().to_owned(),
        temp_c: plan.env.temperature.celsius(),
        fault_rate: plan.rate,
        kind: "summary".to_owned(),
        dies: s.dies,
        fixed_yield: s.fixed_yield(),
        adaptive_yield: s.adaptive_yield(),
        dithered_yield: s.dithered_yield(),
        mean_adaptive_energy_fj: s.mean_adaptive_energy().map(|e| e.femtos()),
        tracking_error_lsb: None,
        recovery_energy_fj: None,
        watchdog_trips: None,
        faults_injected: None,
    };
    match result {
        CellSummary::Yield(s) => common(s),
        CellSummary::Faults(s) => CellReport {
            kind: "faults".to_owned(),
            tracking_error_lsb: Some(s.mean_tracking_error()),
            recovery_energy_fj: Some(s.mean_recovery_energy().femtos()),
            watchdog_trips: Some(s.watchdog_trips),
            faults_injected: Some(s.faults_injected),
            ..common(&s.base)
        },
    }
}

fn solver_label(solver: SolverMode) -> &'static str {
    match solver {
        SolverMode::ClosedForm => "closed-form",
        SolverMode::Rk4 => "rk4",
    }
}

fn str_array(items: impl Iterator<Item = String>) -> Value {
    Value::Array(items.map(|s| Spanned::synthetic(Value::Str(s))).collect())
}

// ---------------------------------------------------------------------
// Strict decoding
// ---------------------------------------------------------------------

/// Rejects any key not in `allowed`, pointing at the key's span.
fn check_keys(table: &TomlTable, allowed: &[&str]) -> Result<(), TomlError> {
    for (key, _) in table.entries() {
        if !allowed.contains(&key.value.as_str()) {
            return Err(TomlError::new(
                key.line,
                key.col,
                format!(
                    "unknown key `{}` (expected one of: {})",
                    key.value,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn range_err(v: &Spanned<Value>, msg: impl Into<String>) -> TomlError {
    TomlError::new(v.line, v.col, msg)
}

fn positive_usize(v: &Spanned<Value>, what: &str) -> Result<usize, TomlError> {
    let raw = v.as_int()?;
    usize::try_from(raw)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| range_err(v, format!("{what} must be a positive integer")))
}

fn decode_study(table: &TomlTable) -> Result<StudySpec, TomlError> {
    check_keys(
        table,
        &[
            "dies",
            "seed",
            "tech",
            "eval",
            "corner",
            "temp_c",
            "variation",
            "load",
            "min_rate_hz",
            "max_energy_fj",
            "fixed_word",
            "design_word",
            "supply",
            "solver",
            "fault_rate",
            "mitigation",
            "jobs",
            "batch",
            "checkpoint",
        ],
    )?;
    let mut s = StudySpec::default();
    if let Some(v) = table.get("dies") {
        s.dies = positive_usize(v, "dies")?;
    }
    if let Some(v) = table.get("seed") {
        let raw = v.as_int()?;
        s.seed =
            u64::try_from(raw).map_err(|_| range_err(v, "seed must be a non-negative integer"))?;
    }
    if let Some(v) = table.get("tech") {
        s.tech = match v.as_str()? {
            name @ ("st-130nm" | "generic-65nm") => name.to_owned(),
            other => {
                return Err(range_err(
                    v,
                    format!("unknown tech `{other}` (expected one of: st-130nm, generic-65nm)"),
                ))
            }
        };
    }
    if let Some(v) = table.get("eval") {
        s.eval = v
            .as_str()?
            .parse()
            .map_err(|e| range_err(v, format!("{e}")))?;
    }
    if let Some(v) = table.get("corner") {
        s.corner = v
            .as_str()?
            .parse()
            .map_err(|e| range_err(v, format!("{e}")))?;
    }
    if let Some(v) = table.get("temp_c") {
        s.temp_c = check_celsius(v.as_float()?).map_err(|e| range_err(v, e.to_string()))?;
    }
    if let Some(v) = table.get("variation") {
        s.variation = match v.as_str()? {
            "st-130nm" => "st-130nm".to_owned(),
            other => {
                return Err(range_err(
                    v,
                    format!("unknown variation model `{other}` (expected st-130nm)"),
                ))
            }
        };
    }
    if let Some(v) = table.get("load") {
        s.load = match v.as_str()? {
            "paper-ring" => "paper-ring".to_owned(),
            other => {
                return Err(range_err(
                    v,
                    format!("unknown load `{other}` (expected paper-ring)"),
                ))
            }
        };
    }
    if let Some(v) = table.get("min_rate_hz") {
        let rate = v.as_float()?;
        // partial_cmp: NaN must fail the bound too.
        if rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(range_err(v, "min_rate_hz must be positive"));
        }
        s.min_rate_hz = rate;
    }
    if let Some(v) = table.get("max_energy_fj") {
        let energy = v.as_float()?;
        if energy.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(range_err(v, "max_energy_fj must be positive"));
        }
        s.max_energy_fj = energy;
    }
    if let Some(v) = table.get("fixed_word") {
        s.fixed_word = decode_word(v, "fixed_word")?;
    }
    if let Some(v) = table.get("design_word") {
        s.design_word = decode_word(v, "design_word")?;
    }
    if let Some(v) = table.get("supply") {
        s.supply = decode_supply(v)?;
    }
    if let Some(v) = table.get("solver") {
        s.solver = match v.as_str()? {
            "closed-form" | "closed_form" => SolverMode::ClosedForm,
            "rk4" => SolverMode::Rk4,
            other => {
                return Err(range_err(
                    v,
                    format!("unknown solver `{other}` (expected one of: closed-form, rk4)"),
                ))
            }
        };
    }
    if let Some(v) = table.get("fault_rate") {
        s.fault_rate = Some(decode_rate(v)?);
    }
    if let Some(v) = table.get("mitigation") {
        s.mitigation = v.as_bool()?;
    }
    if let Some(v) = table.get("jobs") {
        s.jobs = Some(positive_usize(v, "jobs")?);
    }
    if let Some(v) = table.get("batch") {
        s.batch = Some(positive_usize(v, "batch")?);
    }
    if let Some(v) = table.get("checkpoint") {
        s.checkpoint = Some(v.as_str()?.to_owned());
    }
    Ok(s)
}

fn decode_word(v: &Spanned<Value>, what: &str) -> Result<u8, TomlError> {
    let raw = v.as_int()?;
    u8::try_from(raw)
        .ok()
        .filter(|&w| (1..=63).contains(&w))
        .ok_or_else(|| range_err(v, format!("{what} must be a DAC word in 1..=63")))
}

fn decode_supply(v: &Spanned<Value>) -> Result<SupplyBackendKind, TomlError> {
    v.as_str()?.parse().map_err(|e: String| range_err(v, e))
}

fn decode_rate(v: &Spanned<Value>) -> Result<f64, TomlError> {
    let rate = v.as_float()?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(range_err(v, "fault rate must be a probability in [0, 1]"));
    }
    Ok(rate)
}

fn decode_matrix(table: &TomlTable) -> Result<MatrixSpec, TomlError> {
    check_keys(table, &["supplies", "corners", "fault_rates"])?;
    let mut m = MatrixSpec::default();
    if let Some(v) = table.get("supplies") {
        let items = v.as_array()?;
        if items.is_empty() {
            return Err(range_err(v, "supplies must not be empty"));
        }
        m.supplies = Some(items.iter().map(decode_supply).collect::<Result<_, _>>()?);
    }
    if let Some(v) = table.get("corners") {
        let items = v.as_array()?;
        if items.is_empty() {
            return Err(range_err(v, "corners must not be empty"));
        }
        m.corners = Some(
            items
                .iter()
                .map(|item| {
                    item.as_str()?
                        .parse()
                        .map_err(|e| range_err(item, format!("{e}")))
                })
                .collect::<Result<_, _>>()?,
        );
    }
    if let Some(v) = table.get("fault_rates") {
        let items = v.as_array()?;
        if items.is_empty() {
            return Err(range_err(v, "fault_rates must not be empty"));
        }
        m.fault_rates = Some(items.iter().map(decode_rate).collect::<Result<_, _>>()?);
    }
    Ok(m)
}

fn decode_report(table: &TomlTable) -> Result<ReportSpec, TomlError> {
    check_keys(table, &["title", "table_title", "backend_figures", "notes"])?;
    let mut r = ReportSpec::default();
    if let Some(v) = table.get("title") {
        r.title = v.as_str()?.to_owned();
    }
    if let Some(v) = table.get("table_title") {
        r.table_title = v.as_str()?.to_owned();
    }
    if let Some(v) = table.get("backend_figures") {
        r.backend_figures = v.as_bool()?;
    }
    if let Some(v) = table.get("notes") {
        let mut notes = Vec::new();
        for item in v.as_array()? {
            let note = item.as_table()?;
            check_keys(note, &["text"])?;
            let text = note
                .get("text")
                .ok_or_else(|| range_err(item, "a [[report.notes]] entry needs a `text` key"))?;
            notes.push(text.as_str()?.to_owned());
        }
        r.notes = notes;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_toml() {
        let scenario = Scenario::new("demo");
        let text = scenario.to_toml();
        let back = Scenario::from_toml(&text).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn shootout_round_trips_and_expands_to_18_cells() {
        let scenario = Scenario::supply_shootout();
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        assert_eq!(back, scenario);
        let plans = scenario.cell_plans();
        assert_eq!(plans.len(), 18);
        // exp-shootout nesting: supplies outer, corners mid, rates inner.
        assert_eq!(plans[0].supply, SupplyBackendKind::Buck);
        assert_eq!(plans[0].corner, ProcessCorner::Tt);
        assert_eq!(plans[0].rate, 0.0);
        assert!(plans[0].faults.is_none(), "rate 0.0 compiles to no plan");
        assert_eq!(plans[1].rate, 0.02);
        assert!(plans[1].faults.is_some());
        assert_eq!(plans[17].supply, SupplyBackendKind::Dlr);
        assert_eq!(plans[17].corner, ProcessCorner::Ff);
    }

    #[test]
    fn a_sparse_document_gets_the_paper_defaults() {
        let scenario = Scenario::from_toml("name = \"tiny\"\n\n[study]\ndies = 40\n").unwrap();
        assert_eq!(scenario.name, "tiny");
        assert_eq!(scenario.study.dies, 40);
        assert_eq!(scenario.study.seed, 1);
        assert_eq!(scenario.study.supply, SupplyBackendKind::Ideal);
        assert_eq!(scenario.cell_plans().len(), 1);
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_line() {
        let e = Scenario::from_toml("name = \"x\"\n\n[study]\ndise = 40\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("unknown key `dise`"), "{e}");

        let e = Scenario::from_toml("[matrix]\nsupplys = [\"buck\"]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown key `supplys`"), "{e}");
    }

    #[test]
    fn type_mismatches_are_rejected_with_their_line() {
        let e = Scenario::from_toml("[study]\ndies = \"many\"\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.to_string()
                .contains("expected an integer, found a string"),
            "{e}"
        );

        let e = Scenario::from_toml("[study]\nmitigation = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("expected a boolean"), "{e}");
    }

    #[test]
    fn out_of_range_values_are_rejected_with_their_line() {
        for (doc, needle) in [
            ("[study]\ndies = 0\n", "dies must be a positive integer"),
            ("[study]\nfault_rate = 1.5\n", "probability in [0, 1]"),
            ("[study]\nfixed_word = 99\n", "DAC word in 1..=63"),
            ("[study]\nsupply = \"battery\"\n", "unknown supply"),
            ("[study]\ncorner = \"XX\"\n", "unknown process corner"),
            ("[study]\ntemp_c = -300.0\n", "outside the supported range"),
            ("[study]\ntemp_c = -273.0\n", "outside the supported range"),
            ("[study]\ntemp_c = 151.0\n", "outside the supported range"),
            ("[matrix]\nfault_rates = []\n", "must not be empty"),
        ] {
            let e = Scenario::from_toml(doc).unwrap_err();
            assert_eq!(e.line, 2, "{doc}");
            assert!(e.to_string().contains(needle), "{doc}: {e}");
        }
    }

    #[test]
    fn study_config_fingerprint_matches_the_flag_path() {
        // A scenario's single-cell config must be checkpoint-compatible
        // with the same knobs spelled as CLI flags.
        let mut args = StudyArgs::new();
        args.dies = 120;
        args.seed = 9;
        args.supply = SupplyBackendKind::Dldo;
        let mut scenario = Scenario::new("flags");
        scenario.apply_args(&args);
        assert_eq!(
            scenario.study_config().fingerprint_text("summary"),
            args.study().fingerprint_text("summary"),
        );
    }

    #[test]
    fn matrix_fingerprint_survives_the_toml_round_trip() {
        let scenario = Scenario::supply_shootout();
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        assert_eq!(back.fingerprint(), scenario.fingerprint());
    }

    #[test]
    fn title_substitutes_study_values() {
        let mut s = Scenario::new("t");
        s.study.dies = 42;
        s.study.seed = 7;
        s.report.title = "X ({dies} dies, seed {seed}, word {design_word})".to_owned();
        assert_eq!(s.title(), "X (42 dies, seed 7, word 11)");
    }

    #[test]
    fn runtime_options_do_not_change_report_bytes() {
        let mut s = Scenario::new("jobs-invariance");
        s.study.dies = 60;
        let base = s.run(&RunOptions::default());
        for jobs in [1usize, 4] {
            let got = s.run(&RunOptions {
                exec: Some(ExecConfig::with_jobs(jobs)),
                checkpoint: None,
            });
            assert_eq!(got.to_text(), base.to_text(), "jobs={jobs}");
            assert_eq!(got.to_json(), base.to_json(), "jobs={jobs}");
        }
    }

    #[test]
    fn fault_cells_render_tracking_and_summary_cells_do_not() {
        let mut s = Scenario::new("ladder");
        s.study.dies = 50;
        s.matrix.fault_rates = Some(vec![0.0, 0.08]);
        let report = s.run(&RunOptions::default());
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].kind, "summary");
        assert!(report.cells[0].tracking_error_lsb.is_none());
        assert_eq!(report.cells[1].kind, "faults");
        assert!(report.cells[1].tracking_error_lsb.is_some());
        assert_eq!(report.cells[1].fault_rate, 0.08);
        let prov = report.provenance.as_ref().unwrap();
        assert_eq!(prov.fingerprint, s.fingerprint());
        assert_eq!(prov.jobs, None);
    }
}
