//! One benchmark invocation: the timed (or traced) runs of a workload,
//! the correctness check of every operation, and the result line.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use subvt_core::PhaseProfile;
use subvt_device::MetricsSnapshot;

use crate::layers::{self, Lane};
use crate::trace::Tracer;
use crate::workloads::{Kind, Op, RunOutput, Sizes, Workload};
use crate::{json, median, metrics, quantile};

/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Traced operations a traced run makes at least.
const MIN_TRACED: usize = 2;

/// Share of the traced wall time the layer ladder may leave
/// unattributed before the workload is flagged.
pub const RESIDUAL_SHARE_BOUND: f64 = 0.25;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub kind: Kind,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Repository root (the checkout the benchmark runs in).
    pub root: PathBuf,
}

impl Settings {
    /// Where result, span and scratch files go.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join(".bench_out")
    }
}

/// Set-up operations per timed round: enough one-die runs that the
/// median of the run is steady, at a few percent of the round's time.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::FleetTt => 10,
        Kind::ShootoutFaults => 4,
        Kind::CorpusResume => 1,
    }
}

/// Every operation attempted, with its output digest or its failure.
#[derive(Debug, Default)]
struct Log {
    ops: Vec<(Op, Result<u64, String>)>,
}

impl Log {
    fn attempt(&mut self, w: &Workload, op: Op, tr: &mut Tracer) -> Option<RunOutput> {
        let result = catch_unwind(AssertUnwindSafe(|| w.run(op, tr)))
            .unwrap_or_else(|_| Err("the operation panicked".to_owned()));
        match result {
            Ok(out) => {
                self.ops.push((op, Ok(out.digest)));
                Some(out)
            }
            Err(e) => {
                eprintln!("{} {op:?} failed: {e}", w.kind.name());
                self.ops.push((op, Err(e)));
                None
            }
        }
    }

    fn fail_last(&mut self, why: String) {
        eprintln!("{why}");
        if let Some(last) = self.ops.last_mut() {
            last.1 = Err(why);
        }
    }

    /// Failed operations once each output is compared with its
    /// reference digest.
    fn failures(&self, references: &BTreeMap<String, u64>) -> usize {
        self.ops
            .iter()
            .filter(|(op, result)| match result {
                Ok(digest) => references.get(op.reference_key()) != Some(digest),
                Err(_) => true,
            })
            .count()
    }
}

/// Runs the invocation `settings` describes and returns the result
/// line. `references` computes the reference digests; it is called
/// after the timed region.
///
/// # Errors
///
/// The inputs cannot be generated, or no operation of some metric
/// succeeded, so there is no value to report.
pub fn run(
    settings: &Settings,
    references: impl FnOnce() -> Result<BTreeMap<String, u64>, String>,
) -> Result<String, String> {
    let out_dir = settings.out_dir();
    let scratch = out_dir.join(format!(
        "scratch-{}-{}",
        settings.kind.name(),
        std::process::id()
    ));
    let w = Workload::new(
        settings.kind,
        settings.seed,
        settings.sizes,
        &settings.root,
        scratch.clone(),
    )?;
    let mut log = Log::default();
    let measured = if settings.trace {
        traced(&w, settings, &mut log)
    } else {
        untraced(&w, settings, &mut log)
    };
    // Scratch files go before any error returns, so a failed run
    // leaves nothing behind either.
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    }
    let (mut values, mut detail) = measured?;
    let references = references()?;
    let failed = log.failures(&references);
    let attempted = log.ops.len();
    let table = if settings.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if !settings.trace {
        values.push((
            "success_rate",
            (attempted - failed) as f64 / attempted as f64,
        ));
    }
    let errors: Vec<String> = log
        .ops
        .iter()
        .filter_map(|(op, r)| {
            r.as_ref()
                .err()
                .map(|e| json::string(&format!("{op:?}: {e}")))
        })
        .collect();
    detail.extend([
        ("workload", json::string(w.kind.name())),
        ("seed", w.seed.to_string()),
        ("workers", w.jobs.to_string()),
        ("dies_per_cell", w.dies_per_cell().to_string()),
        ("errors", format!("[{}]", errors.join(", "))),
    ]);
    Ok(json::object(&[
        ("correct", (failed == 0).to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics::render(table, &values)?),
        ("detail", json::object(&detail)),
    ]))
}

type Measured = (Vec<(&'static str, f64)>, Vec<(&'static str, String)>);

fn samples_json(samples: &[f64]) -> String {
    let v: Vec<String> = samples.iter().map(|x| json::number(*x)).collect();
    format!("[{}]", v.join(", "))
}

fn median_of(name: &str, samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("no successful operation measured `{name}`"));
    }
    Ok(median(&mut samples.to_vec()))
}

/// The end-to-end run: one warm-up operation, then rounds of set-up,
/// full and resume operations until `seconds` have passed.
fn untraced(w: &Workload, settings: &Settings, log: &mut Log) -> Result<Measured, String> {
    let mut off = Tracer::off();
    if let Some(warm) = log.attempt(w, Op::Full, &mut off) {
        check_docs(w, settings, &warm, log);
    }
    let (mut setup, mut rate, mut resume) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(settings.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for _ in 0..setup_reps(w.kind) {
            if let Some(o) = log.attempt(w, Op::Setup, &mut off) {
                setup.push(o.wall_s);
            }
        }
        if let Some(o) = log.attempt(w, Op::Full, &mut off) {
            rate.push(o.die_cells as f64 / o.wall_s);
            if w.kind == Kind::CorpusResume {
                resume.push(o.resume_s);
            }
        }
        if w.kind != Kind::CorpusResume {
            if let Some(o) = log.attempt(w, Op::Resume, &mut off) {
                resume.push(o.resume_s);
            }
        }
        rounds += 1;
    }
    let values = vec![
        ("die_cells_per_s", median_of("die_cells_per_s", &rate)?),
        ("setup_s", median_of("setup_s", &setup)?),
        ("resume_s", median_of("resume_s", &resume)?),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    let detail = vec![
        ("rounds", rounds.to_string()),
        ("die_cells_per_s_samples", samples_json(&rate)),
        ("setup_s_samples", samples_json(&setup)),
        ("resume_s_samples", samples_json(&resume)),
    ];
    Ok((values, detail))
}

/// At seed 1 with the committed die counts, the corpus's copy 0 must
/// reproduce the committed `docs/results` reports byte for byte.
fn check_docs(w: &Workload, settings: &Settings, out: &RunOutput, log: &mut Log) {
    if w.kind != Kind::CorpusResume || w.seed != 1 || settings.sizes != Sizes::FULL {
        return;
    }
    for (stem, text, json) in &out.docs {
        for (ext, produced) in [("txt", text), ("json", json)] {
            let path = settings.root.join(format!("docs/results/{stem}.{ext}"));
            match std::fs::read_to_string(&path) {
                Ok(committed) if &committed == produced => {}
                Ok(_) => log.fail_last(format!("{} differs from the resumed run", path.display())),
                Err(e) => log.fail_last(format!("{}: {e}", path.display())),
            }
        }
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// One traced operation with the counter deltas around it.
struct TracedOp {
    run_id: u64,
    out: RunOutput,
    phases: PhaseProfile,
    device: MetricsSnapshot,
    scan: layers::CheckpointScan,
}

impl TracedOp {
    /// The op counts that must repeat exactly between runs of a seed.
    fn counts(&self, w: &Workload) -> [u64; 6] {
        [
            self.device.analytic_delay_evals + self.device.interp_delay_hits,
            self.device.analytic_energy_evals + self.device.interp_energy_hits,
            self.phases.sub_batches,
            self.chunks(w),
            self.scan.records,
            self.scan.bytes,
        ]
    }

    /// Chunks scored. The corpus's resumed pass runs through
    /// `Scenario::try_run`, which takes no progress hook, so there every
    /// scored chunk is counted by the record it commits.
    fn chunks(&self, w: &Workload) -> u64 {
        if w.kind == Kind::CorpusResume {
            self.scan.records
        } else {
            self.out.arrivals
        }
    }

    /// The layer ladder: each layer's self time, with the core phase
    /// sums divided by the worker count.
    fn ladder(&self, w: &Workload, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let own = |name| tr.self_time(self.run_id, name);
        vec![
            (
                "core.phases_per_worker",
                self.phases.total_nanos() as f64 * 1e-9 / w.jobs as f64,
            ),
            ("scenario.parse", own("scenario.parse")),
            ("scenario.render", own("scenario.render")),
            ("report.write", own("report.write")),
        ]
    }

    fn residual_s(&self, w: &Workload, tr: &Tracer) -> f64 {
        self.out.wall_s - self.ladder(w, tr).iter().map(|(_, s)| s).sum::<f64>()
    }
}

/// The traced run: untraced and traced full operations alternate until
/// `seconds` have passed, then each layer's functions are timed
/// directly.
fn traced(w: &Workload, settings: &Settings, log: &mut Log) -> Result<Measured, String> {
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    log.attempt(w, Op::Full, &mut off);
    let mut untraced_walls = Vec::new();
    let mut ops: Vec<TracedOp> = Vec::new();
    let mut run_id = 0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(settings.seconds);
    while ops.len() < MIN_TRACED || start.elapsed() < budget {
        if let Some(o) = log.attempt(w, Op::Full, &mut off) {
            untraced_walls.push(o.wall_s);
        }
        run_id += 1;
        tr.begin_run(run_id);
        let (p0, d0) = (PhaseProfile::snapshot(), MetricsSnapshot::snapshot());
        let Some(out) = log.attempt(w, Op::Full, &mut tr) else {
            if start.elapsed() > budget * 2 {
                break;
            }
            continue;
        };
        let (phases, device) = (
            PhaseProfile::snapshot().since(&p0),
            MetricsSnapshot::snapshot().since(&d0),
        );
        let scan = if w.kind == Kind::CorpusResume {
            layers::scan_checkpoints(&w.checkpoint_dir(), true)?
        } else {
            layers::CheckpointScan::default()
        };
        let op = TracedOp {
            run_id,
            out,
            phases,
            device,
            scan,
        };
        if let Some(first) = ops.first() {
            if first.counts(w) != op.counts(w) {
                log.fail_last(format!(
                    "op counts {:?} differ from the first traced run's {:?}",
                    op.counts(w),
                    first.counts(w)
                ));
            }
        }
        ops.push(op);
    }
    if ops.is_empty() {
        return Err("no traced operation succeeded".to_owned());
    }
    // The corpus's last traced operation left its checkpoints and
    // scanned them; the other two workloads leave theirs with one
    // resume operation.
    let matrix = w.kind != Kind::FleetTt;
    let resumed;
    let left = if w.kind == Kind::CorpusResume {
        &ops[ops.len() - 1].scan
    } else {
        if log.attempt(w, Op::Resume, &mut off).is_none() {
            return Err("the resume operation failed".to_owned());
        }
        resumed = layers::scan_checkpoints(&w.checkpoint_dir(), matrix)?;
        &resumed
    };
    let (seed, env) = w.first_cell()?;
    let lane = Lane::first_chunk(seed, env);

    let med = |f: &dyn Fn(&TracedOp) -> f64| median(&mut ops.iter().map(f).collect::<Vec<_>>());
    let secs = |nanos: u64| nanos as f64 * 1e-9;
    let first = &ops[0];
    let die_cells = first.out.die_cells as f64;
    let counts = first.counts(w);
    let gaps: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.out.chunk_gaps_s.clone())
        .collect();
    let traced_wall = med(&|o| o.out.wall_s);
    let untraced_wall = median_of("untraced wall", &untraced_walls)?;
    let values = vec![
        ("device.pair_eval_ns", lane.pair_eval_ns()),
        (
            "device.delay_evals_per_die_cell",
            counts[0] as f64 / die_cells,
        ),
        (
            "device.energy_evals_per_die_cell",
            counts[1] as f64 / die_cells,
        ),
        ("tdc.quantize_ns", lane.quantize_ns()?),
        ("tdc.sense_ns", lane.sense_ns()?),
        ("tdc.calibrate_ms", lane.calibrate_ms()),
        ("core.draw_s", med(&|o| secs(o.phases.draw_nanos))),
        ("core.fixed_lane_s", med(&|o| secs(o.phases.fixed_nanos))),
        (
            "core.word_settle_s",
            med(&|o| secs(o.phases.settle_word_nanos)),
        ),
        (
            "core.adaptive_lanes_s",
            med(&|o| secs(o.phases.adaptive_lane_nanos)),
        ),
        (
            "core.dither_settle_s",
            med(&|o| secs(o.phases.dither_nanos)),
        ),
        (
            "core.shared_draw_s",
            med(&|o| secs(o.phases.shared_draw_nanos)),
        ),
        (
            "core.fault_walk_s",
            med(&|o| secs(o.phases.fault_walk_nanos)),
        ),
        ("core.sub_batches", counts[2] as f64),
        ("regulators.settle_table_ms", layers::settle_table_ms()),
        ("exec.chunks", counts[3] as f64),
        ("exec.chunk_ms_p50", quantile(&gaps, 0.5) * 1e3),
        ("exec.chunk_ms_p90", quantile(&gaps, 0.9) * 1e3),
        (
            "exec.busy_share",
            med(&|o| secs(o.phases.total_nanos()) / (o.out.wall_s * w.jobs as f64)),
        ),
        ("checkpoint.records", counts[4] as f64),
        ("checkpoint.bytes_written", counts[5] as f64),
        (
            "checkpoint.read_ms",
            layers::checkpoint_read_ms(left, matrix),
        ),
        (
            "checkpoint.append_us",
            layers::checkpoint_append_us(&left.largest_record, &w.checkpoint_dir())?,
        ),
        (
            "scenario.parse_ms",
            med(&|o| tr.self_time(o.run_id, "scenario.parse")) * 1e3,
        ),
        (
            "scenario.render_ms",
            med(&|o| tr.self_time(o.run_id, "scenario.render")) * 1e3,
        ),
        ("residual_s", med(&|o| o.residual_s(w, &tr))),
        (
            "trace_overhead_share",
            (traced_wall - untraced_wall) / untraced_wall,
        ),
    ];

    let ladders: Vec<String> = ops
        .iter()
        .map(|o| {
            let layers = o.ladder(w, &tr);
            let residual = o.residual_s(w, &tr);
            let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
            let share = residual / o.out.wall_s;
            let mut fields: Vec<(&str, String)> = vec![
                ("run_id", o.run_id.to_string()),
                ("wall_s", json::number(o.out.wall_s)),
            ];
            fields.extend(layers.iter().map(|(n, s)| (*n, json::number(*s))));
            fields.extend([
                ("residual_s", json::number(residual)),
                ("rebuilt_wall_s", json::number(attributed + residual)),
                ("residual_share", json::number(share)),
                (
                    "residual_flagged",
                    (share > RESIDUAL_SHARE_BOUND).to_string(),
                ),
            ]);
            json::object(&fields)
        })
        .collect();
    let spans_file =
        settings
            .out_dir()
            .join(format!("spans-{}-seed{}.json", w.kind.name(), w.seed));
    std::fs::create_dir_all(settings.out_dir())
        .and_then(|()| std::fs::write(&spans_file, tr.to_json()))
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let detail = vec![
        ("traced_ops", ops.len().to_string()),
        ("traced_wall_s", json::number(traced_wall)),
        ("untraced_wall_s", json::number(untraced_wall)),
        ("residual_share_bound", json::number(RESIDUAL_SHARE_BOUND)),
        ("ladder", format!("[{}]", ladders.join(", "))),
        (
            "exact_counts",
            json::object(&[
                ("delay_evals", counts[0].to_string()),
                ("energy_evals", counts[1].to_string()),
                ("sub_batches", counts[2].to_string()),
                ("chunks", counts[3].to_string()),
                ("checkpoint_records", counts[4].to_string()),
                ("checkpoint_bytes", counts[5].to_string()),
            ]),
        ),
        (
            "spans_file",
            json::string(&spans_file.display().to_string()),
        ),
    ];
    Ok((values, detail))
}
