//! The fused study-matrix engine: N study cells over one die stream.
//!
//! A supply shoot-out, corner sweep or fault-rate ladder runs the
//! *same* die population through many (supply backend × environment ×
//! fault plan) configurations. Run cell-by-cell, every cell pays the
//! full pipeline again: the Monte-Carlo die draw, the adaptive settle
//! walk, the dither walk — work that does not depend on the axis the
//! cell varies. [`StudyMatrix`] evaluates all cells in one pass per
//! chunk instead, sharing each phase at the widest scope its inputs
//! allow:
//!
//! * **once per chunk** — the SoA die draw and the per-die fault-stream
//!   seeds (depend only on the root seed and the variation model);
//! * **once per environment group** — the adaptive word settle and the
//!   sub-LSB dither walk (sense the exact candidate voltage, so the
//!   supply never enters);
//! * **once per (environment × supply) group** — the fixed lane, the
//!   adaptive cohort lanes and the dithered spec check;
//! * **once per fault cell** — only the cycle-by-cycle faulted walk
//!   (the cell's dies in lockstep rounds, each round's captures as one
//!   sensor lane) and the final scoring, which reuses the shared clean
//!   verdict of every die that ends on its clean settled word.
//!
//! This is the one scoring engine: a standalone
//! [`StudyConfig::run_summary`] / [`StudyConfig::run_faults`] runs as a
//! one-cell matrix through the same crate-private `run_cells`.
//!
//! **Byte-identity contract:** every cell's accumulator — the exact
//! [`CellSummary::encode_state`] bytes — equals running that cell alone,
//! and its yield aggregate equals the scalar per-die reference
//! [`StudyConfig::run`]`().summarize()`. The shared phases are the
//! pure-function hoists the batch-equivalence suite pins
//! lane-vs-scalar; the fault-stream seeds are replayed per die exactly
//! as the scalar path forks them; and no cell's RNG, sense sequence or
//! fault schedule can observe that other cells exist.
//! `tests/matrix_equivalence.rs` pins all of it across worker counts,
//! batch sizes, backends and fault rates.
//!
//! With [`StudyConfig::checkpoint`] armed, the engine commits one
//! record per chunk — the per-cell states side by side — so a killed
//! 18-cell run resumes all cells bit-identically from one file, at any
//! `--jobs`/`--batch` (see `subvt_exec::checkpoint`).

use std::time::Instant;

use subvt_device::mosfet::{check_celsius, Environment};
use subvt_device::tabulate::CachedEval;
use subvt_device::units::Volts;
use subvt_digital::lut::VoltageWord;
use subvt_exec::checkpoint::{
    fingerprint_of, open_matrix_for_resume, CheckpointError, MatrixCheckpointWriter,
};
use subvt_exec::{chunk_count, try_par_fold_commit_multi};
use subvt_faults::FaultPlan;
use subvt_rng::{Rng, StdRng};

use crate::batch::{ChunkSeeds, DieBatch};
use crate::fault_study::{fault_droops, FaultLanes, FaultStudySummary};
use crate::profile::{record_phase, record_sub_batch, Phase};
use crate::study::{StudyConfig, StudyError, SupplyBackendKind};
use crate::yield_study::{StudyContext, SupplySim, YieldSummary};

/// One cell of a study matrix: the axes a cell may vary against the
/// base configuration. Everything else — dies, seed, spec, words,
/// load, evaluator, solver, variation model — comes from the base
/// [`StudyConfig`] and is common to every cell (which is what makes
/// the die stream shareable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixCell {
    /// The supply backend scoring this cell (built once per run with
    /// the base configuration's solver).
    pub supply: SupplyBackendKind,
    /// The operating environment (process corner, temperature) of this
    /// cell.
    pub env: Environment,
    /// `Some(plan)` makes this a fault-study cell
    /// ([`FaultStudySummary`]); `None` a summary cell
    /// ([`YieldSummary`]). The base configuration's own fault plan is
    /// ignored by the matrix.
    pub faults: Option<FaultPlan>,
}

impl MatrixCell {
    fn kind(&self) -> &'static str {
        match self.faults {
            None => "summary",
            Some(_) => "faults",
        }
    }
}

/// One cell's result: the aggregate the standalone terminal of that
/// cell kind returns.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSummary {
    /// A summary cell's aggregate ([`StudyConfig::run_summary`]).
    Yield(YieldSummary),
    /// A fault cell's aggregate ([`StudyConfig::run_faults`]).
    Faults(FaultStudySummary),
}

impl CellSummary {
    fn empty_for(cell: &MatrixCell) -> CellSummary {
        match cell.faults {
            None => CellSummary::Yield(YieldSummary::empty()),
            Some(_) => CellSummary::Faults(FaultStudySummary::empty()),
        }
    }

    fn decode_for(cell: &MatrixCell, state: &[u8]) -> Result<CellSummary, CheckpointError> {
        match cell.faults {
            None => YieldSummary::decode_state(state).map(CellSummary::Yield),
            Some(_) => FaultStudySummary::decode_state(state).map(CellSummary::Faults),
        }
    }

    fn merge(&mut self, other: CellSummary) {
        match (self, other) {
            (CellSummary::Yield(a), CellSummary::Yield(b)) => a.merge(b),
            (CellSummary::Faults(a), CellSummary::Faults(b)) => a.merge(b),
            _ => unreachable!("a cell's partial accumulators share its kind"),
        }
    }

    fn set_fixed_word(&mut self, word: VoltageWord) {
        match self {
            CellSummary::Yield(s) => s.fixed_word = word,
            CellSummary::Faults(s) => s.base.fixed_word = word,
        }
    }

    /// The cell's accumulator state — untagged, so the bytes are
    /// exactly [`YieldSummary::encode_state`] /
    /// [`FaultStudySummary::encode_state`]. This is the canonical
    /// equality witness of the matrix contract (and the per-cell
    /// payload of a checkpoint record).
    pub fn encode_state(&self) -> Vec<u8> {
        match self {
            CellSummary::Yield(s) => s.encode_state(),
            CellSummary::Faults(s) => s.encode_state(),
        }
    }

    /// The summary aggregate, when this is a summary cell.
    pub fn as_yield(&self) -> Option<&YieldSummary> {
        match self {
            CellSummary::Yield(s) => Some(s),
            CellSummary::Faults(_) => None,
        }
    }

    /// The fault-study aggregate, when this is a fault cell.
    pub fn as_faults(&self) -> Option<&FaultStudySummary> {
        match self {
            CellSummary::Yield(_) => None,
            CellSummary::Faults(s) => Some(s),
        }
    }
}

/// The cells of one (environment × supply) group: they share the fixed
/// lane, the adaptive cohort lanes and the dithered check.
struct SupplyGroup {
    /// Index of the group's representative cell (context provider).
    lead: usize,
    /// Every member cell, in matrix order.
    members: Vec<usize>,
}

/// The supply groups of one environment group: they share the settle
/// and dither walks.
struct CornerGroup {
    lead: usize,
    supplies: Vec<SupplyGroup>,
}

/// The sharing structure of a matrix: cells grouped by *model
/// equality*, not by label — two cells share work exactly when the
/// values their phases read are equal.
struct MatrixGroups {
    corners: Vec<CornerGroup>,
}

impl MatrixGroups {
    fn build(cells: &[MatrixCell], sims: &[SupplySim]) -> MatrixGroups {
        let mut corners: Vec<CornerGroup> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let corner = match corners.iter_mut().find(|g| cells[g.lead].env == cell.env) {
                Some(g) => g,
                None => {
                    corners.push(CornerGroup {
                        lead: i,
                        supplies: Vec::new(),
                    });
                    corners.last_mut().expect("just pushed")
                }
            };
            match corner
                .supplies
                .iter_mut()
                .find(|sg| sims[sg.lead] == sims[i])
            {
                Some(sg) => sg.members.push(i),
                None => corner.supplies.push(SupplyGroup {
                    lead: i,
                    members: vec![i],
                }),
            }
        }
        MatrixGroups { corners }
    }
}

/// The fused per-chunk fold: one shared draw, then every cell scored
/// against the same lanes, sub-batch by sub-batch. Each cell's
/// accumulator absorbs its dies in die order, so the per-cell
/// fold/merge sequence is exactly the scalar reference's.
#[allow(clippy::too_many_arguments)] // crate-internal fold kernel
fn fold_matrix_chunk(
    cells: &[MatrixCell],
    ctxs: &[StudyContext<'_>],
    droops: &[(Volts, Volts)],
    groups: &MatrixGroups,
    batch: usize,
    seeds: &[u64],
    accs: &mut [CellSummary],
) {
    let batch = batch.max(1);
    let mut scratch = DieBatch::with_capacity(batch.min(seeds.len().max(1)));
    let any_faults = cells.iter().any(|c| c.faults.is_some());
    let mut fault_seeds: Vec<u64> = Vec::with_capacity(if any_faults { batch } else { 0 });
    let mut fault_lanes = FaultLanes::default();
    let mut lo = 0;
    while lo < seeds.len() {
        let hi = (lo + batch).min(seeds.len());
        let sub = &seeds[lo..hi];
        record_sub_batch();

        // Shared draw: the SoA die lanes once for every cell, plus the
        // per-die fault-stream seeds. The scalar replay advances each
        // die stream exactly as the scalar path does (sample, then
        // fork), so `seed_from_u64(fault_seeds[k])` *is* the stream
        // `die_rng.fork("faults")` hands the scalar walk.
        let t0 = Instant::now();
        scratch.draw(&ctxs[0], sub);
        if any_faults {
            fault_seeds.clear();
            for &seed in sub {
                let mut die_rng = StdRng::seed_from_u64(seed);
                ctxs[0].variation.sample_die(&mut die_rng);
                fault_seeds.push(die_rng.fork_seed("faults"));
            }
        }
        record_phase(Phase::Draw, t0.elapsed().as_nanos() as u64);

        for corner in &groups.corners {
            let cctx = &ctxs[corner.lead];
            let t0 = Instant::now();
            scratch.settle_words(cctx);
            record_phase(Phase::SettleWord, t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            scratch.dither_walk(cctx);
            record_phase(Phase::Dither, t0.elapsed().as_nanos() as u64);

            for group in &corner.supplies {
                let sctx = &ctxs[group.lead];
                // One operating-point memo per group per sub-batch:
                // pure memoization shared by the group's energy legs
                // (the fault walks' captures bypass it).
                let cached = CachedEval::new(sctx.eval.as_ref());
                let t0 = Instant::now();
                scratch.fixed_lane(sctx, &cached);
                record_phase(Phase::Fixed, t0.elapsed().as_nanos() as u64);
                let t0 = Instant::now();
                scratch.adaptive_lanes(sctx, &cached);
                record_phase(Phase::AdaptiveLanes, t0.elapsed().as_nanos() as u64);
                let t0 = Instant::now();
                scratch.dither_check(sctx, &cached);
                record_phase(Phase::Dither, t0.elapsed().as_nanos() as u64);

                for &ci in &group.members {
                    match (cells[ci].faults, &mut accs[ci]) {
                        (None, CellSummary::Yield(acc)) => {
                            for k in 0..scratch.len() {
                                acc.absorb(&scratch.outcome(k));
                            }
                        }
                        (Some(plan), CellSummary::Faults(acc)) => {
                            let t0 = Instant::now();
                            fault_lanes.score(
                                sctx,
                                &cached,
                                plan,
                                droops[ci],
                                &scratch,
                                &fault_seeds,
                                acc,
                            );
                            record_phase(Phase::FaultWalk, t0.elapsed().as_nanos() as u64);
                        }
                        _ => unreachable!("accumulator kind follows the cell kind"),
                    }
                }
            }
        }
        lo = hi;
    }
}

/// N study cells evaluated over one shared die stream.
///
/// Build from a base [`StudyConfig`] (whose dies, seed, spec, words,
/// load, evaluator, solver, execution, batch, checkpoint and hooks
/// apply to the whole matrix; its own supply/env/faults axes are
/// superseded by the cells), add cells with [`StudyMatrix::cell`],
/// then call [`StudyMatrix::run`] / [`StudyMatrix::try_run`].
///
/// ```
/// use subvt_core::matrix::StudyMatrix;
/// use subvt_core::study::{StudyConfig, SupplyBackendKind};
/// use subvt_device::mosfet::Environment;
///
/// let results = StudyMatrix::new(StudyConfig::new(80, 7))
///     .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
///     .cell(SupplyBackendKind::Buck, Environment::nominal(), None)
///     .run();
/// let ideal = results[0].as_yield().unwrap();
/// let buck = results[1].as_yield().unwrap();
/// assert!(buck.adaptive_yield() <= ideal.adaptive_yield() + 1e-12);
/// ```
pub struct StudyMatrix<'a> {
    base: StudyConfig<'a>,
    cells: Vec<MatrixCell>,
}

impl std::fmt::Debug for StudyMatrix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyMatrix")
            .field("base", &self.base)
            .field("cells", &self.cells)
            .finish()
    }
}

impl<'a> StudyMatrix<'a> {
    /// An empty matrix over `base`'s die population.
    pub fn new(base: StudyConfig<'a>) -> StudyMatrix<'a> {
        StudyMatrix {
            base,
            cells: Vec::new(),
        }
    }

    /// Appends one cell; results come back in insertion order.
    pub fn cell(
        mut self,
        supply: SupplyBackendKind,
        env: Environment,
        faults: Option<FaultPlan>,
    ) -> StudyMatrix<'a> {
        self.cells.push(MatrixCell {
            supply,
            env,
            faults,
        });
        self
    }

    /// The cells, in result order.
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The base configuration the cells share.
    pub fn base(&self) -> &StudyConfig<'a> {
        &self.base
    }

    /// The matrix identity hashed into the checkpoint fingerprint: the
    /// cell count plus each cell's identity string
    /// ([`StudyConfig::fingerprint_text`] of that cell run alone).
    pub fn fingerprint_text(&self) -> String {
        fingerprint_text(&self.base, &self.cells)
    }

    /// Runs every cell over the shared die stream.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`StudyConfig::checkpoint`] fails or an
    /// armed [`StudyConfig::cancel`] token fires — use
    /// [`StudyMatrix::try_run`] to handle those as values.
    pub fn run(&self) -> Vec<CellSummary> {
        match self.try_run() {
            Ok(cells) => cells,
            Err(e) => panic!("matrix study failed: {e}"),
        }
    }

    /// [`StudyMatrix::run`] with cancellation, progress and
    /// checkpointing surfaced as values. One checkpoint record — every
    /// cell's state, side by side — commits per chunk; an interrupted
    /// run resumes all cells bit-identically from the same file at any
    /// worker count or batch size.
    ///
    /// # Errors
    ///
    /// As [`StudyConfig::try_run_summary`].
    pub fn try_run(&self) -> Result<Vec<CellSummary>, StudyError> {
        run_cells(&self.base, &self.cells)
    }
}

fn fingerprint_text(base: &StudyConfig<'_>, cells: &[MatrixCell]) -> String {
    let mut text = format!("subvt-matrix-v1 cells={}", cells.len());
    for cell in cells {
        text.push('\n');
        text.push_str(&base.fingerprint_text_with(
            cell.kind(),
            cell.supply.label(),
            cell.env,
            cell.faults,
        ));
    }
    text
}

/// Opens (or creates) `base`'s checkpoint file for `cells`, returning
/// the resume point.
fn open_checkpoint(
    base: &StudyConfig<'_>,
    cells: &[MatrixCell],
) -> Result<(usize, Vec<CellSummary>, Option<MatrixCheckpointWriter>), StudyError> {
    let empty = || cells.iter().map(CellSummary::empty_for).collect();
    let Some(path) = &base.checkpoint else {
        return Ok((0, empty(), None));
    };
    let fingerprint = fingerprint_of(&fingerprint_text(base, cells));
    let total = base.dies as u64;
    let n_cells = u32::try_from(cells.len())
        .map_err(|_| StudyError::Checkpoint(CheckpointError::Decode("too many cells")))?;
    if !path.exists() {
        let writer = MatrixCheckpointWriter::create(path, fingerprint, total, n_cells)?;
        return Ok((0, empty(), Some(writer)));
    }
    let (checkpoint, writer) = open_matrix_for_resume(path)?;
    checkpoint.verify(fingerprint, total, n_cells)?;
    match checkpoint.last {
        None => Ok((0, empty(), Some(writer))),
        Some(record) => {
            let start = usize::try_from(record.chunks_done)
                .ok()
                .filter(|&c| c <= chunk_count(base.dies))
                .ok_or(StudyError::Checkpoint(CheckpointError::Decode(
                    "checkpoint is ahead of the population",
                )))?;
            let accs = cells
                .iter()
                .zip(&record.states)
                .map(|(cell, state)| CellSummary::decode_for(cell, state))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((start, accs, Some(writer)))
        }
    }
}

/// Scores `cells` over `base`'s die stream — the one scoring engine
/// behind [`StudyMatrix::try_run`] and the standalone
/// [`StudyConfig::try_run_summary`] / [`StudyConfig::try_run_faults`]
/// (a one-cell matrix). `base`'s own supply/environment/fault axes are
/// not read; the cells carry them. Every environment, the base's
/// included, is checked against the model's temperature domain first,
/// and every cell's fault plan against the probability range, so an
/// out-of-domain run is a typed error before any work starts.
pub(crate) fn run_cells(
    base: &StudyConfig<'_>,
    cells: &[MatrixCell],
) -> Result<Vec<CellSummary>, StudyError> {
    for env in std::iter::once(base.env).chain(cells.iter().map(|c| c.env)) {
        check_celsius(env.temperature.celsius()).map_err(StudyError::Environment)?;
    }
    for plan in cells.iter().filter_map(|c| c.faults) {
        plan.validate().map_err(StudyError::Faults)?;
    }
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let (start_chunk, start, mut writer) = open_checkpoint(base, cells)?;
    let eval = base.eval.clone();
    // Per-cell supply models, hoisted to one *build* per distinct
    // backend per run — a buck settle table costs milliseconds to
    // integrate, and six buck cells share one snapshot. Clones compare
    // equal, so the group builder still sees the sharing.
    let mut sims: Vec<SupplySim> = Vec::with_capacity(cells.len());
    for cell in cells {
        let sim = match cells[..sims.len()]
            .iter()
            .position(|prior| prior.supply == cell.supply)
        {
            Some(i) => sims[i].clone(),
            None => cell.supply.build_sim(base.solver),
        };
        sims.push(sim);
    }
    let ctxs: Vec<StudyContext<'_>> = cells
        .iter()
        .zip(&sims)
        .map(|(cell, sim)| {
            StudyContext::new(
                eval.clone(),
                base.load.as_dyn(),
                cell.env,
                &base.variation,
                base.spec,
                base.fixed_word,
                base.design_word,
                sim,
            )
        })
        .collect();
    // Converter-fault droop figures, hoisted to once per cell.
    let droops: Vec<(Volts, Volts)> = ctxs.iter().map(fault_droops).collect();
    let groups = MatrixGroups::build(cells, &sims);
    let seeds = ChunkSeeds::from_seed(base.seed, base.dies);
    let batch = base.batch.max(1);
    let hooks = base.hooks();
    let mut result = try_par_fold_commit_multi(
        &base.exec,
        base.dies,
        start_chunk,
        &hooks,
        cells.len(),
        |cell| CellSummary::empty_for(&cells[cell]),
        start,
        |accs, range| {
            let chunk_seeds = seeds.for_range(range);
            fold_matrix_chunk(cells, &ctxs, &droops, &groups, batch, &chunk_seeds, accs);
        },
        |_cell, acc, part| acc.merge(part),
        |chunks_done, accs: &[CellSummary]| match &mut writer {
            Some(w) => {
                let states: Vec<Vec<u8>> = accs.iter().map(CellSummary::encode_state).collect();
                w.append(chunks_done as u64, &states)
            }
            None => Ok(()),
        },
    )
    .map_err(StudyError::from_fold)?;
    for acc in &mut result {
        acc.set_fixed_word(base.fixed_word);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_exec::ExecConfig;

    #[test]
    fn empty_matrix_is_empty() {
        assert!(StudyMatrix::new(StudyConfig::new(10, 1)).run().is_empty());
    }

    #[test]
    fn single_summary_cell_matches_the_scalar_reference() {
        let scalar = StudyConfig::new(90, 13)
            .supply_backend(SupplyBackendKind::Buck)
            .run()
            .summarize();
        let fused = StudyMatrix::new(StudyConfig::new(90, 13))
            .cell(SupplyBackendKind::Buck, Environment::nominal(), None)
            .run();
        assert_eq!(
            fused[0].encode_state(),
            scalar.encode_state(),
            "byte-identity of a lone cell"
        );
        assert_eq!(fused[0].as_yield().unwrap().fixed_word, scalar.fixed_word);
    }

    /// Cycles in which a die's rail collapsed (effective word 0),
    /// counted by replaying each die's walk through the one
    /// `WalkState` machine exactly as the scalar reference drives it.
    fn collapsed_cycles(ctx: &StudyContext<'_>, plan: FaultPlan, seeds: &[u64]) -> u64 {
        use crate::fault_study::{WalkState, FAULT_CYCLES};
        use subvt_faults::FaultSchedule;

        let droops = fault_droops(ctx);
        let mut collapsed = 0;
        for &seed in seeds {
            let mut die_rng = StdRng::seed_from_u64(seed);
            let mismatch = ctx.variation.sample_die(&mut die_rng).mean_gate();
            let mut schedule = FaultSchedule::new(plan, die_rng.fork("faults"));
            let mut walk = WalkState::new(ctx, plan);
            for _ in 0..FAULT_CYCLES {
                let miss = walk.start(schedule.draw(), droops).map(|v| {
                    let eval = ctx.eval.as_ref();
                    ctx.sensor
                        .sample_with(eval, ctx.design_word, v, ctx.env, mismatch)
                });
                collapsed += u64::from(walk.rail_collapsed());
                walk.finish(ctx, miss.as_ref());
            }
        }
        collapsed
    }

    #[test]
    fn single_fault_cell_matches_the_scalar_reference() {
        use crate::fault_study::{score_faulted_die, FaultDieOutcome};
        use crate::yield_study::die_seeds;
        use subvt_device::corner::ProcessCorner;
        use subvt_device::tabulate::EvalMode;
        use subvt_device::technology::Technology;
        use subvt_exec::par_fold_chunked;

        const DIES: usize = 90;
        const SEED: u64 = 13;
        let plan = FaultPlan::uniform(0.02);
        let scalar = StudyConfig::new(DIES, SEED).faults(plan).run().summarize();
        let fused = StudyMatrix::new(StudyConfig::new(DIES, SEED))
            .cell(SupplyBackendKind::Ideal, Environment::nominal(), Some(plan))
            .run();
        let faults = fused[0].as_faults().unwrap();
        assert_eq!(faults.base.encode_state(), scalar.encode_state());

        // The whole fused fault state (yield aggregate plus tracking
        // error, recovery energy, trips and injected count) against
        // per-die `score_faulted_die` outcomes folded the way
        // `YieldReport::summarize` folds: every supply, both
        // mitigation arms, a light and a heavy fault rate, three
        // environments and both device models, all cells of a model
        // fused into one matrix, at several sub-batch/worker shapes
        // (one die, ragged, wider than a sense chunk, the whole
        // population).
        let supplies = [
            SupplyBackendKind::Ideal,
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ];
        let envs = [
            Environment::nominal(),
            Environment::at_corner(ProcessCorner::Ss),
            Environment::nominal().with_celsius(125.0),
        ];
        let plans: Vec<FaultPlan> = [0.02, 0.3]
            .into_iter()
            .flat_map(|rate| [false, true].map(|on| FaultPlan::uniform(rate).with_mitigation(on)))
            .collect();
        let seeds = die_seeds(&mut StdRng::seed_from_u64(SEED), DIES);
        for mode in [EvalMode::Analytic, EvalMode::Tabulated] {
            let eval = mode.build(&Technology::st_130nm());
            let base = || StudyConfig::new(DIES, SEED).eval(eval.clone());
            let mut cells = Vec::new();
            let mut references = Vec::new();
            let (mut trips, mut collapsed) = (0u64, 0u64);
            for env in envs {
                for supply in supplies {
                    let config = base();
                    let sim = supply.build_sim(config.solver);
                    let ctx = StudyContext::new(
                        config.eval.clone(),
                        config.load.as_dyn(),
                        env,
                        &config.variation,
                        config.spec,
                        config.fixed_word,
                        config.design_word,
                        &sim,
                    );
                    for &plan in &plans {
                        let outcomes: Vec<FaultDieOutcome> = seeds
                            .iter()
                            .map(|&s| score_faulted_die(&ctx, plan, StdRng::seed_from_u64(s)))
                            .collect();
                        let mut reference = par_fold_chunked(
                            &ExecConfig::serial(),
                            DIES,
                            FaultStudySummary::empty,
                            |acc, i| acc.absorb(&outcomes[i]),
                            FaultStudySummary::merge,
                        );
                        reference.base.fixed_word = config.fixed_word;
                        assert!(
                            reference.faults_injected > 0,
                            "{mode:?} {} {env:?} {plan:?}: the plan must inject",
                            supply.label()
                        );
                        if plan.tdc_rate == 0.3 {
                            trips += reference.watchdog_trips;
                            collapsed += collapsed_cycles(&ctx, plan, &seeds);
                        }
                        cells.push(MatrixCell {
                            supply,
                            env,
                            faults: Some(plan),
                        });
                        references.push(reference);
                    }
                }
            }
            assert!(trips > 0, "{mode:?}: the heavy plan must trip the watchdog");
            assert!(
                collapsed > 0,
                "{mode:?}: the heavy plan must collapse a rail (effective word 0)"
            );
            for (batch, jobs) in [(1, 1), (5, 3), (33, 2), (DIES, 1)] {
                let fused = run_cells(
                    &base().batch(batch).exec(ExecConfig::with_jobs(jobs)),
                    &cells,
                )
                .unwrap();
                for ((cell, got), want) in cells.iter().zip(&fused).zip(&references) {
                    assert_eq!(
                        got.encode_state(),
                        want.encode_state(),
                        "{mode:?} {} {:?} {:?} batch={batch} jobs={jobs}",
                        cell.supply.label(),
                        cell.env,
                        cell.faults
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_cells_produce_identical_results() {
        // Two cells with equal axes land in one group and must come
        // back byte-identical — sharing is by model equality.
        let fused = StudyMatrix::new(StudyConfig::new(60, 5))
            .cell(SupplyBackendKind::Dldo, Environment::nominal(), None)
            .cell(SupplyBackendKind::Dldo, Environment::nominal(), None)
            .run();
        assert_eq!(fused[0], fused[1]);
    }

    #[test]
    fn grouping_shares_by_model_equality() {
        let hot = Environment::nominal().with_celsius(65.0);
        let cells = [
            (SupplyBackendKind::Buck, Environment::nominal()),
            (SupplyBackendKind::Dldo, Environment::nominal()),
            (SupplyBackendKind::Buck, hot),
            (SupplyBackendKind::Buck, Environment::nominal()),
        ];
        let matrix = cells.iter().fold(
            StudyMatrix::new(StudyConfig::new(10, 1)),
            |m, &(supply, env)| m.cell(supply, env, None),
        );
        let sims: Vec<SupplySim> = matrix
            .cells()
            .iter()
            .map(|c| c.supply.build_sim(Default::default()))
            .collect();
        let groups = MatrixGroups::build(matrix.cells(), &sims);
        assert_eq!(groups.corners.len(), 2, "two distinct environments");
        let nominal = &groups.corners[0];
        assert_eq!(nominal.supplies.len(), 2, "buck and dldo at nominal");
        assert_eq!(
            nominal.supplies[0].members,
            vec![0, 3],
            "duplicate buck cells share"
        );
        assert_eq!(groups.corners[1].supplies.len(), 1);
    }

    #[test]
    fn matrix_is_bit_identical_at_any_job_count() {
        let plan = FaultPlan::uniform(0.05);
        let build = |jobs: usize| {
            StudyMatrix::new(StudyConfig::new(70, 11).exec(ExecConfig::with_jobs(jobs)))
                .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
                .cell(SupplyBackendKind::Buck, Environment::nominal(), Some(plan))
                .run()
        };
        let reference = build(1);
        for jobs in [2usize, 7] {
            assert_eq!(build(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_cell_order_and_axes() {
        let text = |cells: &[(SupplyBackendKind, Option<FaultPlan>)]| {
            cells
                .iter()
                .fold(
                    StudyMatrix::new(StudyConfig::new(10, 1)),
                    |m, &(supply, faults)| m.cell(supply, Environment::nominal(), faults),
                )
                .fingerprint_text()
        };
        let plan = FaultPlan::uniform(0.02);
        let a = text(&[
            (SupplyBackendKind::Buck, None),
            (SupplyBackendKind::Dldo, None),
        ]);
        let b = text(&[
            (SupplyBackendKind::Dldo, None),
            (SupplyBackendKind::Buck, None),
        ]);
        let c = text(&[
            (SupplyBackendKind::Buck, Some(plan)),
            (SupplyBackendKind::Dldo, None),
        ]);
        assert_ne!(a, b, "cell order is identity");
        assert_ne!(a, c, "fault plan is identity");
        assert!(a.starts_with("subvt-matrix-v1 cells=2\n"), "{a}");
    }
}
