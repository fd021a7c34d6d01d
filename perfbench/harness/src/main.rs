//! The benchmark harness binary.
//!
//! ```text
//! perfbench-harness run --workload W --seed N --seconds S --trace 0|1 [--tiny] [--root DIR]
//! perfbench-harness reference --workload W --seed N [--tiny] [--root DIR]
//! ```
//!
//! `run` measures and prints one JSON result line; it computes the
//! reference digests in a child `reference` process, so the reference
//! paths neither share the measured process's memory high-water mark
//! nor run inside the timed region. `--tiny` selects the test sizes
//! (`tests/tiny.rs` runs every workload that way).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use perfbench_harness::bench::{self, Settings};
use perfbench_harness::workloads::{Kind, Op, Sizes, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    mode: String,
    settings: Settings,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mode = args
        .first()
        .cloned()
        .ok_or("expected `run` or `reference`")?;
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut sizes = Sizes::FULL;
    let mut root = PathBuf::from(".");
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1);
        let need = || value.ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let v = need()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = need()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = need()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a duration"))?;
            }
            "--trace" => {
                trace = match need()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                };
            }
            "--root" => root = PathBuf::from(need()?),
            "--tiny" => {
                sizes = Sizes::TINY;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        mode,
        settings: Settings {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            sizes,
            root,
        },
    })
}

fn real_main(args: &[String]) -> Result<String, String> {
    let a = parse(args)?;
    let s = &a.settings;
    match a.mode.as_str() {
        "run" => bench::run(s, || references_from_child(s)),
        "reference" => {
            let w = Workload::new(s.kind, s.seed, s.sizes, &s.root, s.out_dir())?;
            let mut lines = Vec::new();
            for op in [Op::Full, Op::Setup] {
                lines.push(format!("{} {:016x}", op.reference_key(), w.reference(op)?));
            }
            Ok(lines.join("\n"))
        }
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// Runs `reference` in a child process and reads its digests.
fn references_from_child(s: &Settings) -> Result<BTreeMap<String, u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["reference", "--workload", s.kind.name()])
        .args(["--seed", &s.seed.to_string()])
        .arg("--root")
        .arg(&s.root)
        .stderr(Stdio::inherit());
    if s.sizes == Sizes::TINY {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting the reference run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the reference run failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            let (key, hex) = line
                .split_once(' ')
                .ok_or(format!("bad reference line `{line}`"))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("bad reference digest `{hex}`"))?;
            Ok((key.to_owned(), digest))
        })
        .collect()
}
