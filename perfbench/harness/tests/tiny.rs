//! Tiny-size mode: every workload, untraced and traced, runs through
//! its correctness check in the built binary (whose reference digests
//! come from a child process), and a wrong reference is caught.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench_harness::bench::{self, Settings};
use perfbench_harness::workloads::{Kind, Sizes};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    let rest = &line[at..];
    &rest[..rest.find([',', '}']).expect("field ends")]
}

#[test]
fn every_workload_passes_its_correctness_check_at_tiny_size() {
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench-harness"))
                .args(["run", "--workload", kind.name(), "--seed", "5"])
                .args(["--seconds", "0", "--trace", trace, "--tiny", "--root"])
                .arg(root())
                .output()
                .expect("the harness starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{}: {}", kind.name(), out.status);
            let line = stdout.lines().last().expect("a result line");
            assert_eq!(field(line, "correct"), "true", "{}: {line}", kind.name());
            assert_eq!(field(line, "failed"), "0");
            assert!(field(line, "attempted").parse::<usize>().unwrap() >= 3);
        }
    }
}

#[test]
fn a_wrong_reference_fails_every_operation() {
    let s = Settings {
        kind: Kind::FleetTt,
        seed: 5,
        seconds: 0.0,
        trace: false,
        sizes: Sizes::TINY,
        root: root(),
    };
    let wrong = || {
        Ok(BTreeMap::from([
            ("full".to_owned(), 0),
            ("setup".to_owned(), 0),
        ]))
    };
    let line = bench::run(&s, wrong).expect("the run itself succeeds");
    assert_eq!(field(&line, "correct"), "false");
    assert_eq!(field(&line, "failed"), field(&line, "attempted"));
    assert!(line.contains(r#""success_rate": {"value": 0, "unit": "ratio"}"#));
}
