//! Direct timings of single layers: the harness calls each layer's
//! public function on inputs replayed from the workload.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use subvt_core::{SupplyBackendKind, DEFAULT_BATCH};
use subvt_dcdc::SolverMode;
use subvt_device::constants::DCDC_LSB;
use subvt_device::{
    AnalyticEval, DeviceEval, Environment, GateKind, GateMismatch, Seconds, Technology,
    VariationModel, Volts,
};
use subvt_exec::checkpoint::{read_checkpoint, read_matrix_checkpoint, MatrixCheckpointWriter};
use subvt_rng::{Rng, StdRng};
use subvt_tdc::{
    word_voltage, CellKind, DelayLine, Quantizer, RefClock, SensorConfig, VariationSensor,
};

/// The design word every workload's adaptive controller starts from
/// (the `StudyConfig` default: the TT minimum-energy point).
const DESIGN_WORD: u8 = 11;

/// Median of `samples` timings of `inner` back-to-back calls of `f`,
/// in seconds per call.
fn per_call(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    crate::median(&mut times)
}

/// One SoA lane of the workload's first chunk: each die's mean gate
/// mismatch, drawn from the first cell's study seed exactly as the
/// scoring path draws it, at supplies spread across one LSB around the
/// design word (the range the dither settle walks), in the first
/// cell's environment.
pub struct Lane {
    eval: AnalyticEval,
    env: Environment,
    vdds: Vec<Volts>,
    mismatches: Vec<GateMismatch>,
}

impl Lane {
    /// The first `DEFAULT_BATCH` dies of the study seeded with `seed`,
    /// in `env`.
    pub fn first_chunk(seed: u64, env: Environment) -> Lane {
        let variation = VariationModel::st_130nm();
        let mut parent = StdRng::seed_from_u64(seed);
        let mismatches = (0..DEFAULT_BATCH)
            .map(|i| {
                let die_seed = parent.fork_seed(&format!("die-{i}"));
                variation
                    .sample_die(&mut StdRng::seed_from_u64(die_seed))
                    .mean_gate()
            })
            .collect();
        let centre = word_voltage(DESIGN_WORD).volts();
        let vdds = (0..DEFAULT_BATCH)
            .map(|i| Volts(centre + DCDC_LSB.volts() * ((i % 8) as f64 / 8.0 - 0.5)))
            .collect();
        Lane {
            eval: AnalyticEval::new(&Technology::st_130nm()),
            env,
            vdds,
            mismatches,
        }
    }

    fn pairs(&self) -> Vec<Option<(Seconds, Seconds)>> {
        let mut out = vec![None; self.vdds.len()];
        self.eval.gate_delay_pair_multi(
            (GateKind::Inverter, GateKind::Nor2),
            black_box(&self.vdds),
            self.env,
            &self.mismatches,
            1.0,
            &mut out,
        );
        out
    }

    /// `device.pair_eval_ns`: one `gate_delay_pair_multi` call over the
    /// lane.
    pub fn pair_eval_ns(&self) -> f64 {
        per_call(21, 200, || {
            black_box(self.pairs());
        }) * 1e9
    }

    /// `tdc.quantize_ns`: `Quantizer::sample` plus
    /// `encode_bubble_tolerant` of one die's replica cell delay, with
    /// the quantizer the sensor calibrates for the design word.
    pub fn quantize_ns(&self) -> Result<f64, String> {
        let config = SensorConfig::default();
        let cell = DelayLine::new(config.stages, CellKind::InvNor)
            .cell_delay_with(&self.eval, word_voltage(DESIGN_WORD), self.env)
            .map_err(|e| format!("design-word cell delay: {e}"))?;
        let quantizer = Quantizer::new(
            config.stages,
            RefClock::square(Seconds(cell.value() * config.period_stages)),
            Seconds(cell.value() * config.anchor_stages),
        );
        let delays: Vec<Seconds> = self
            .pairs()
            .into_iter()
            .flatten()
            .map(|(inv, nor)| inv + nor)
            .collect();
        if delays.is_empty() {
            return Err("no die of the lane is above the functional floor".to_owned());
        }
        Ok(per_call(21, 200, || {
            for d in &delays {
                let _ = black_box(quantizer.sample(black_box(*d)).encode_bubble_tolerant());
            }
        }) / delays.len() as f64
            * 1e9)
    }

    /// `tdc.sense_ns`: `sense_fractional_multi_with` over the lane, per
    /// die.
    pub fn sense_ns(&self) -> Result<f64, String> {
        let sensor = VariationSensor::with_eval(&self.eval, self.env, SensorConfig::default());
        let mut out = vec![Ok(0.0); self.vdds.len()];
        sensor
            .sense_fractional_multi_with(
                &self.eval,
                DESIGN_WORD,
                &self.vdds,
                self.env,
                &self.mismatches,
                &mut out,
            )
            .map_err(|e| format!("design-word band: {e}"))?;
        Ok(per_call(21, 100, || {
            let _ = sensor.sense_fractional_multi_with(
                &self.eval,
                DESIGN_WORD,
                black_box(&self.vdds),
                self.env,
                &self.mismatches,
                &mut out,
            );
            black_box(&out);
        }) / self.vdds.len() as f64
            * 1e9)
    }

    /// `tdc.calibrate_ms`: one `VariationSensor::with_eval`.
    pub fn calibrate_ms(&self) -> f64 {
        per_call(9, 1, || {
            black_box(VariationSensor::with_eval(
                &self.eval,
                self.env,
                SensorConfig::default(),
            ));
        }) * 1e3
    }
}

/// `regulators.settle_table_ms`: `build_sim` of the buck, dldo and dlr
/// backends together. The tables take no workload input, so this is
/// the same probe on every workload.
pub fn settle_table_ms() -> f64 {
    per_call(9, 1, || {
        for kind in [
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ] {
            black_box(kind.build_sim(SolverMode::default()));
        }
    }) * 1e3
}

/// The checkpoint files in `dir`, sorted.
fn checkpoint_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "svcp"))
        .collect();
    files.sort();
    Ok(files)
}

/// What the checkpoint files in a directory hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointScan {
    /// Committed records: the last record's chunk count, summed over
    /// the files (one record commits per chunk).
    pub records: u64,
    /// File bytes, summed.
    pub bytes: u64,
    /// The files read, sorted.
    pub files: Vec<PathBuf>,
    /// The states of the last record of the largest file.
    pub largest_record: Vec<Vec<u8>>,
}

/// Reads every checkpoint file in `dir`: version 2 (matrix) files when
/// `matrix`, version 1 otherwise.
pub fn scan_checkpoints(dir: &Path, matrix: bool) -> Result<CheckpointScan, String> {
    let mut scan = CheckpointScan::default();
    let mut largest = 0;
    scan.files = checkpoint_files(dir)?;
    for path in &scan.files {
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let (chunks, states) = if matrix {
            let cp =
                read_matrix_checkpoint(path).map_err(|e| format!("{}: {e}", path.display()))?;
            cp.last
                .map_or((0, Vec::new()), |r| (r.chunks_done, r.states))
        } else {
            let cp = read_checkpoint(path).map_err(|e| format!("{}: {e}", path.display()))?;
            cp.last
                .map_or((0, Vec::new()), |r| (r.chunks_done, vec![r.state]))
        };
        scan.records += chunks;
        scan.bytes += bytes;
        if bytes > largest {
            largest = bytes;
            scan.largest_record = states;
        }
    }
    Ok(scan)
}

/// `checkpoint.read_ms`: reading every file of `scan` again.
pub fn checkpoint_read_ms(scan: &CheckpointScan, matrix: bool) -> f64 {
    per_call(9, 1, || {
        for f in &scan.files {
            if matrix {
                let _ = black_box(read_matrix_checkpoint(f));
            } else {
                let _ = black_box(read_checkpoint(f));
            }
        }
    }) * 1e3
}

/// `checkpoint.append_us`: `MatrixCheckpointWriter::append` of one
/// record shaped like `states`, to a scratch file that is removed
/// afterwards.
pub fn checkpoint_append_us(states: &[Vec<u8>], scratch: &Path) -> Result<f64, String> {
    if states.is_empty() {
        return Err("no committed record to replay".to_owned());
    }
    let path = scratch.join("append-probe.svcp");
    let cells = u32::try_from(states.len()).map_err(|_| "too many cells".to_owned())?;
    let mut writer = MatrixCheckpointWriter::create(&path, 0, 0, cells)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut chunk = 0;
    let mut failure = None;
    let us = per_call(64, 1, || {
        chunk += 1;
        if let Err(e) = writer.append(chunk, states) {
            failure = Some(e.to_string());
        }
    }) * 1e6;
    drop(writer);
    std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match failure {
        Some(e) => Err(format!("{}: {e}", path.display())),
        None => Ok(us),
    }
}
