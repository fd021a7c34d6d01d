//! Kill/resume discipline of the checkpointed fleet path: a summary
//! study stopped at *any* commit boundary — or cancelled while worker
//! threads are mid-chunk — and then resumed from its checkpoint file
//! must produce a summary byte-identical to one that never stopped,
//! even when the resume runs at a different `--jobs`/`--batch`.
//! Damaged, truncated, or mismatched checkpoint files must be rejected
//! with a typed error, never silently restarted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use subvt_core::study::{StudyConfig, StudyError};
use subvt_core::FaultPlan;
use subvt_device::tabulate::EvalMode;
use subvt_device::technology::Technology;
use subvt_exec::checkpoint::CheckpointError;
use subvt_exec::{chunk_count, CancelToken, ExecConfig, Progress};

const DIES: usize = 96;
const SEED: u64 = 41;

fn config(dies: usize) -> StudyConfig<'static> {
    StudyConfig::new(dies, SEED)
}

/// A unique scratch path inside the cargo target dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "subvt-ckpt-{tag}-{}-{:?}",
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

/// Runs a checkpointed summary study that cancels itself once `stop`
/// dies have committed; returns whether it was in fact cancelled.
fn run_until(path: &PathBuf, stop: u64, jobs: usize) -> Result<(), StudyError> {
    let token = CancelToken::new();
    let watch_token = token.clone();
    let watch = move |p: Progress| {
        if p.done as u64 >= stop {
            watch_token.cancel();
        }
    };
    config(DIES)
        .exec(ExecConfig::with_jobs(jobs))
        .checkpoint(path)
        .cancel(&token)
        .progress(&watch)
        .try_run_summary()
        .map(|_| ())
}

#[test]
fn a_run_killed_at_every_chunk_boundary_resumes_bit_identically() {
    let reference = config(DIES).run_summary().encode_state();
    let n_chunks = chunk_count(DIES);
    let dies_per_chunk = DIES.div_ceil(n_chunks);
    for stop_chunk in 1..n_chunks {
        let file = ScratchFile::new(&format!("boundary-{stop_chunk}"));
        // Serial kill: with jobs=1 the progress callback fires at each
        // commit in order, so the run stops at exactly this boundary.
        let killed = run_until(&file.0, (stop_chunk * dies_per_chunk) as u64, 1);
        assert!(
            matches!(killed, Err(StudyError::Cancelled)),
            "stop_chunk={stop_chunk}: expected cancellation, got {killed:?}"
        );
        // Resume at a different worker count and batch size.
        let resumed = config(DIES)
            .exec(ExecConfig::with_jobs(7))
            .batch(5)
            .checkpoint(&file.0)
            .run_summary();
        assert_eq!(
            resumed.encode_state(),
            reference,
            "resume after a kill at chunk {stop_chunk} diverged"
        );
    }
}

#[test]
fn a_run_cancelled_with_workers_mid_chunk_resumes_bit_identically() {
    let reference = config(DIES).run_summary().encode_state();
    let file = ScratchFile::new("mid-chunk");
    // With several workers in flight, the token fires while other
    // threads are inside their chunks; whatever contiguous prefix
    // committed is what the resume continues from.
    let killed = run_until(&file.0, (DIES / 2) as u64, 4);
    assert!(matches!(killed, Err(StudyError::Cancelled)), "{killed:?}");
    let resumed = config(DIES)
        .exec(ExecConfig::with_jobs(2))
        .checkpoint(&file.0)
        .run_summary();
    assert_eq!(resumed.encode_state(), reference);
}

#[test]
fn repeatedly_killed_fault_study_converges_to_the_straight_through_run() {
    let plan = FaultPlan::uniform(0.02);
    let reference = config(40).faults(plan).run_faults().encode_state();
    let file = ScratchFile::new("faults");
    // Kill and resume in ever-larger strides until the study finishes.
    let mut strides = 0u32;
    loop {
        strides += 1;
        assert!(strides < 100, "fault study never finished");
        let token = CancelToken::new();
        let watch_token = token.clone();
        let stop = (strides as u64) * 7;
        let watch = move |p: Progress| {
            if p.done as u64 >= stop {
                watch_token.cancel();
            }
        };
        let run = config(40)
            .faults(plan)
            .exec(ExecConfig::with_jobs(1 + strides as usize % 3))
            .checkpoint(&file.0)
            .cancel(&token)
            .progress(&watch)
            .try_run_faults();
        match run {
            Err(StudyError::Cancelled) => continue,
            Ok(summary) => {
                assert_eq!(summary.encode_state(), reference);
                break;
            }
            Err(e) => panic!("unexpected checkpoint failure: {e}"),
        }
    }
    assert!(strides > 1, "the study must have been killed at least once");
}

#[test]
fn resuming_a_finished_checkpoint_returns_the_result_without_rescoring() {
    let file = ScratchFile::new("finished");
    let first = config(DIES).checkpoint(&file.0).run_summary();
    let again = config(DIES).checkpoint(&file.0).run_summary();
    assert_eq!(first.encode_state(), again.encode_state());
}

#[test]
fn progress_is_reported_and_counts_resumed_items() {
    let file = ScratchFile::new("progress");
    let killed = run_until(&file.0, (DIES / 2) as u64, 1);
    assert!(matches!(killed, Err(StudyError::Cancelled)));
    // On resume the very first progress callback must already include
    // the checkpointed dies, so `done/total` is honest for a UI.
    let min_seen = AtomicUsize::new(usize::MAX);
    let max_seen = AtomicUsize::new(0);
    let watch = |p: Progress| {
        assert_eq!(p.total, DIES);
        min_seen.fetch_min(p.done, Ordering::Relaxed);
        max_seen.fetch_max(p.done, Ordering::Relaxed);
    };
    let _ = config(DIES)
        .checkpoint(&file.0)
        .progress(&watch)
        .run_summary();
    assert!(min_seen.load(Ordering::Relaxed) > DIES / 4);
    assert_eq!(max_seen.load(Ordering::Relaxed), DIES);
}

#[test]
fn regulated_backend_runs_kill_and_resume_bit_identically() {
    // The supply backend is part of the checkpoint fingerprint, so a
    // dldo or dlr study killed mid-flight must resume — at a different
    // worker count — to the byte-identical straight-through summary.
    for kind in [
        subvt_core::SupplyBackendKind::Dldo,
        subvt_core::SupplyBackendKind::Dlr,
    ] {
        let reference = config(DIES)
            .supply_backend(kind)
            .run_summary()
            .encode_state();
        let file = ScratchFile::new(&format!("backend-{}", kind.label()));
        let token = CancelToken::new();
        let watch_token = token.clone();
        let watch = move |p: Progress| {
            if p.done as u64 >= (DIES / 2) as u64 {
                watch_token.cancel();
            }
        };
        let killed = config(DIES)
            .supply_backend(kind)
            .exec(ExecConfig::with_jobs(1))
            .checkpoint(&file.0)
            .cancel(&token)
            .progress(&watch)
            .try_run_summary();
        assert!(
            matches!(killed, Err(StudyError::Cancelled)),
            "{}: expected cancellation, got {killed:?}",
            kind.label()
        );
        let resumed = config(DIES)
            .supply_backend(kind)
            .exec(ExecConfig::with_jobs(7))
            .checkpoint(&file.0)
            .run_summary();
        assert_eq!(
            resumed.encode_state(),
            reference,
            "{} resume diverged from the straight-through run",
            kind.label()
        );
    }
}

#[test]
fn a_checkpoint_written_under_one_backend_rejects_resume_under_another() {
    // Swapping `--supply` between the write and the resume changes the
    // fingerprint: the dldo half-run must not be silently continued as
    // a dlr (or ideal-rail) study.
    let file = ScratchFile::new("backend-mismatch");
    let token = CancelToken::new();
    let watch_token = token.clone();
    let watch = move |p: Progress| {
        if p.done as u64 >= (DIES / 2) as u64 {
            watch_token.cancel();
        }
    };
    let killed = config(DIES)
        .supply_backend(subvt_core::SupplyBackendKind::Dldo)
        .exec(ExecConfig::with_jobs(1))
        .checkpoint(&file.0)
        .cancel(&token)
        .progress(&watch)
        .try_run_summary();
    assert!(matches!(killed, Err(StudyError::Cancelled)), "{killed:?}");
    let r = config(DIES)
        .supply_backend(subvt_core::SupplyBackendKind::Dlr)
        .checkpoint(&file.0)
        .try_run_summary();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "dlr resume of a dldo checkpoint must be rejected, got {r:?}"
    );
    let r = config(DIES).checkpoint(&file.0).try_run_summary();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "ideal-rail resume of a dldo checkpoint must be rejected, got {r:?}"
    );
    // The matching backend still resumes the untouched file.
    let resumed = config(DIES)
        .supply_backend(subvt_core::SupplyBackendKind::Dldo)
        .checkpoint(&file.0)
        .run_summary();
    assert_eq!(
        resumed.encode_state(),
        config(DIES)
            .supply_backend(subvt_core::SupplyBackendKind::Dldo)
            .run_summary()
            .encode_state()
    );
}

#[test]
fn a_corrupt_checkpoint_is_rejected_not_silently_restarted() {
    let file = ScratchFile::new("corrupt");
    std::fs::write(&file.0, b"not a checkpoint at all").unwrap();
    let r = config(DIES).checkpoint(&file.0).try_run_summary();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "garbage file must be a typed error, got {r:?}"
    );
}

#[test]
fn a_truncated_checkpoint_record_is_rejected() {
    let file = ScratchFile::new("truncated");
    let killed = run_until(&file.0, (DIES / 2) as u64, 1);
    assert!(matches!(killed, Err(StudyError::Cancelled)));
    // Chop bytes off the tail — a torn final record, as a crash
    // mid-write would leave. The strict reader must refuse it rather
    // than resume from half a record.
    let bytes = std::fs::read(&file.0).unwrap();
    std::fs::write(&file.0, &bytes[..bytes.len() - 3]).unwrap();
    let r = config(DIES).checkpoint(&file.0).try_run_summary();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "torn record must be a typed error, got {r:?}"
    );
}

#[test]
fn a_flipped_byte_inside_a_record_is_rejected() {
    let file = ScratchFile::new("bitflip");
    let killed = run_until(&file.0, (DIES / 2) as u64, 1);
    assert!(matches!(killed, Err(StudyError::Cancelled)));
    let mut bytes = std::fs::read(&file.0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&file.0, &bytes).unwrap();
    let r = config(DIES).checkpoint(&file.0).try_run_summary();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "bit flip must fail the record CRC, got {r:?}"
    );
}

#[test]
fn a_checkpoint_from_a_different_study_is_rejected() {
    let file = ScratchFile::new("mismatch");
    let killed = run_until(&file.0, (DIES / 2) as u64, 1);
    assert!(matches!(killed, Err(StudyError::Cancelled)));
    // Different seed → different fingerprint.
    let r = StudyConfig::new(DIES, SEED + 1)
        .checkpoint(&file.0)
        .try_run_summary();
    assert!(matches!(r, Err(StudyError::Checkpoint(_))), "{r:?}");
    // Different population → different total and fingerprint.
    let r = StudyConfig::new(DIES * 2, SEED)
        .checkpoint(&file.0)
        .try_run_summary();
    assert!(matches!(r, Err(StudyError::Checkpoint(_))), "{r:?}");
    // A fault study must not resume a summary checkpoint.
    let r = config(DIES)
        .faults(FaultPlan::uniform(0.01))
        .checkpoint(&file.0)
        .try_run_faults();
    assert!(matches!(r, Err(StudyError::Checkpoint(_))), "{r:?}");
    // And the original study must still resume the untouched file.
    let resumed = config(DIES).checkpoint(&file.0).run_summary();
    assert_eq!(
        resumed.encode_state(),
        config(DIES).run_summary().encode_state()
    );
}

#[test]
fn a_checkpoint_from_another_technology_node_is_rejected() {
    let file = ScratchFile::new("tech");
    let killed = run_until(&file.0, (DIES / 2) as u64, 1);
    assert!(matches!(killed, Err(StudyError::Cancelled)));
    // Same knobs on the 65 nm node: a different study, so the file's
    // fingerprint must not match.
    let r = config(DIES)
        .eval(EvalMode::Analytic.build(&Technology::generic_65nm()))
        .checkpoint(&file.0)
        .try_run_summary();
    assert!(
        matches!(
            r,
            Err(StudyError::Checkpoint(
                CheckpointError::FingerprintMismatch { .. }
            ))
        ),
        "{r:?}"
    );
    // An explicit analytic ST 130 nm evaluator is the default study and
    // still resumes the untouched file.
    let resumed = config(DIES)
        .eval(EvalMode::Analytic.build(&Technology::st_130nm()))
        .checkpoint(&file.0)
        .run_summary();
    assert_eq!(
        resumed.encode_state(),
        config(DIES).run_summary().encode_state()
    );
}

#[test]
fn scenarios_that_differ_only_in_tech_fingerprint_differently() {
    let st130 = subvt_scenario::Scenario::supply_shootout();
    let mut n65 = st130.clone();
    n65.study.tech = "generic-65nm".to_owned();
    assert_ne!(st130.fingerprint(), n65.fingerprint());
}
