//! The study-matrix byte-identity contract: every cell of a fused
//! [`StudyMatrix`] run must equal an independent reference — the
//! scalar per-die `StudyConfig::run().summarize()` for the yield
//! aggregate of every cell — and a fault cell's full `encode_state`
//! bytes must equal the same cell run alone (`run_faults`, a one-cell
//! matrix): per-die RNG forks, sense sequences and fault schedules
//! must not observe that other cells exist, at any worker count or
//! sub-batch size. A matrix checkpoint killed mid-run must resume to
//! both the same results *and* the same checkpoint file bytes as a run
//! that was never interrupted.

use std::path::PathBuf;

use subvt_core::matrix::{CellSummary, MatrixCell, StudyMatrix};
use subvt_core::study::{StudyConfig, StudyError, SupplyBackendKind};
use subvt_core::FaultPlan;
use subvt_device::corner::ProcessCorner;
use subvt_device::mosfet::Environment;
use subvt_exec::checkpoint::CheckpointError;
use subvt_exec::{CancelToken, ExecConfig, Progress};

const DIES: usize = 90;
const SEED: u64 = 2009;

/// The 18-cell supply shoot-out grid: three regulator backends ×
/// three process corners × {clean, faulted}.
fn shootout_cells() -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for supply in [
        SupplyBackendKind::Buck,
        SupplyBackendKind::Dldo,
        SupplyBackendKind::Dlr,
    ] {
        for corner in [ProcessCorner::Tt, ProcessCorner::Ss, ProcessCorner::Ff] {
            for faults in [None, Some(FaultPlan::uniform(0.02))] {
                cells.push(MatrixCell {
                    supply,
                    env: Environment::at_corner(corner),
                    faults,
                });
            }
        }
    }
    cells
}

fn matrix_of<'a>(cells: &[MatrixCell], base: StudyConfig<'a>) -> StudyMatrix<'a> {
    cells.iter().fold(StudyMatrix::new(base), |m, c| {
        m.cell(c.supply, c.env, c.faults)
    })
}

/// The reference bytes for one cell: `(yield, full)`. The yield
/// aggregate comes from the scalar per-die path, which shares no
/// scoring code with the matrix engine. A fault cell's full state has
/// no scalar terminal, so it is the cell run alone — the cross-cell
/// isolation witness.
fn standalone_state(cell: &MatrixCell) -> (Vec<u8>, Option<Vec<u8>>) {
    let cfg = StudyConfig::new(DIES, SEED)
        .supply_backend(cell.supply)
        .env(cell.env);
    match cell.faults {
        None => (cfg.run().summarize().encode_state(), None),
        Some(plan) => {
            let cfg = cfg.faults(plan);
            let scalar = cfg.run().summarize().encode_state();
            (scalar, Some(cfg.run_faults().encode_state()))
        }
    }
}

/// The yield aggregate of a cell result, as encoded bytes.
fn yield_state(cell: &CellSummary) -> Vec<u8> {
    match cell {
        CellSummary::Yield(s) => s.encode_state(),
        CellSummary::Faults(s) => s.base.encode_state(),
    }
}

#[test]
fn every_cell_is_byte_identical_to_its_standalone_run() {
    let cells = shootout_cells();
    let references: Vec<(Vec<u8>, Option<Vec<u8>>)> = cells.iter().map(standalone_state).collect();
    for (jobs, batch) in [
        (1usize, 1usize),
        (1, 32),
        (1, DIES),
        (2, 1),
        (2, 32),
        (2, DIES),
        (7, 1),
        (7, 32),
        (7, DIES),
    ] {
        let fused = matrix_of(
            &cells,
            StudyConfig::new(DIES, SEED)
                .exec(ExecConfig::with_jobs(jobs))
                .batch(batch),
        )
        .run();
        assert_eq!(fused.len(), cells.len());
        for (i, (got, (scalar, alone))) in fused.iter().zip(&references).enumerate() {
            let what = format!(
                "cell {i} ({:?} {:?} faults={}) at jobs={jobs} batch={batch}",
                cells[i].supply,
                cells[i].env.corner,
                cells[i].faults.is_some(),
            );
            assert_eq!(&yield_state(got), scalar, "{what}: diverged from scalar");
            if let Some(alone) = alone {
                assert_eq!(&got.encode_state(), alone, "{what}: diverged from lone run");
            }
        }
    }
}

#[test]
fn a_zero_rate_fault_cell_matches_the_standalone_zero_rate_study() {
    // Fault rate 0 exercises the full fault machinery with an empty
    // schedule; the matrix replay must still hand the walk the exact
    // stream the standalone fork does.
    let plan = FaultPlan::uniform(0.0);
    let scalar = StudyConfig::new(DIES, SEED)
        .faults(plan)
        .run()
        .summarize()
        .encode_state();
    let fused = StudyMatrix::new(StudyConfig::new(DIES, SEED))
        .cell(SupplyBackendKind::Ideal, Environment::nominal(), Some(plan))
        .run();
    assert_eq!(yield_state(&fused[0]), scalar);
}

/// A unique scratch path inside the temp dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "subvt-matrix-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_killed_matrix_run_resumes_to_identical_results_and_checkpoint_bytes() {
    let cells = shootout_cells();

    // Straight-through checkpointed run: the reference results and the
    // reference checkpoint file bytes.
    let straight = ScratchFile::new("straight");
    let reference = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&straight.0)).run();
    let reference_bytes = std::fs::read(&straight.0).unwrap();

    // Kill mid-run, then resume at a different jobs/batch.
    let file = ScratchFile::new("killed");
    let token = CancelToken::new();
    let watch_token = token.clone();
    let watch = move |p: Progress| {
        if p.done >= DIES / 2 {
            watch_token.cancel();
        }
    };
    let killed = matrix_of(
        &cells,
        StudyConfig::new(DIES, SEED)
            .exec(ExecConfig::with_jobs(3))
            .checkpoint(&file.0)
            .cancel(&token)
            .progress(&watch),
    )
    .try_run();
    assert!(
        matches!(killed, Err(StudyError::Cancelled)),
        "expected cancellation, got {killed:?}"
    );

    let resumed = matrix_of(
        &cells,
        StudyConfig::new(DIES, SEED)
            .exec(ExecConfig::with_jobs(7))
            .batch(5)
            .checkpoint(&file.0),
    )
    .run();
    assert_eq!(resumed, reference, "resumed results diverged");

    // Every record's payload is a deterministic function of its chunk
    // count, so the killed-and-resumed file must equal the
    // uninterrupted file byte for byte.
    assert_eq!(
        std::fs::read(&file.0).unwrap(),
        reference_bytes,
        "checkpoint bytes after resume diverged from the straight-through file"
    );
}

#[test]
fn a_matrix_checkpoint_rejects_a_reordered_or_reshaped_matrix() {
    let cells = shootout_cells();
    let file = ScratchFile::new("identity");
    let _ = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).run();

    // Reordered cells → different fingerprint.
    let mut reordered = cells.clone();
    reordered.swap(0, 1);
    let r = matrix_of(&reordered, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).try_run();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "reordered matrix must be rejected, got {r:?}"
    );

    // Fewer cells → cell-count (and fingerprint) mismatch.
    let r = matrix_of(
        &cells[..6],
        StudyConfig::new(DIES, SEED).checkpoint(&file.0),
    )
    .try_run();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "reshaped matrix must be rejected, got {r:?}"
    );

    // The original matrix still resumes the untouched (finished) file.
    let again = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).run();
    let fresh = matrix_of(&cells, StudyConfig::new(DIES, SEED)).run();
    assert_eq!(again, fresh);
}

#[test]
fn a_v1_file_and_a_wrong_cell_count_are_typed_checkpoint_errors() {
    // Version 2 is the only checkpoint format: a retired version-1
    // header is refused by its version (read before anything else) by
    // both the standalone and the matrix terminal.
    let v1 = ScratchFile::new("v1");
    let mut header = b"SVCP".to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&[0; 16]);
    header.extend_from_slice(&[0; 4]);
    std::fs::write(&v1.0, &header).unwrap();
    let r = StudyConfig::new(DIES, SEED)
        .checkpoint(&v1.0)
        .try_run_summary();
    assert!(
        matches!(
            r,
            Err(StudyError::Checkpoint(CheckpointError::BadVersion(1)))
        ),
        "standalone resume of a v1 file, got {r:?}"
    );
    let r = matrix_of(
        &shootout_cells(),
        StudyConfig::new(DIES, SEED).checkpoint(&v1.0),
    )
    .try_run();
    assert!(
        matches!(
            r,
            Err(StudyError::Checkpoint(CheckpointError::BadVersion(1)))
        ),
        "matrix resume of a v1 file, got {r:?}"
    );

    // A one-cell study's file cannot resume the 18-cell matrix.
    let single = ScratchFile::new("one-cell");
    let _ = StudyConfig::new(DIES, SEED)
        .checkpoint(&single.0)
        .run_summary();
    let r = matrix_of(
        &shootout_cells(),
        StudyConfig::new(DIES, SEED).checkpoint(&single.0),
    )
    .try_run();
    assert!(
        matches!(
            r,
            Err(StudyError::Checkpoint(CheckpointError::CellsMismatch {
                expected: 18,
                found: 1
            }))
        ),
        "matrix resume of a one-cell file, got {r:?}"
    );
}
