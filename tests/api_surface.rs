//! The post-deprecation contract of the study API redesign, checked
//! against the source text: the fifteen legacy entry points that spent
//! one release as `#[deprecated]` delegates are now GONE, nothing in
//! the tree still names them, and the builder surface that replaced
//! them is really there. Resurrecting one of the old names (e.g. by a
//! careless merge) fails this suite, not just a doc review.

use std::fs;
use std::path::Path;

fn source(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Asserts `fn {name}(` is not defined anywhere in `text` (pub or
/// private — the name must be fully retired, not merely hidden).
fn assert_absent(text: &str, rel: &str, name: &str) {
    let needle = format!("fn {name}(");
    assert!(
        !text.contains(&needle),
        "{rel}: `{needle}` reappeared — that entry point was retired \
         (see CHANGES.md for its replacement)"
    );
}

#[test]
fn the_ten_legacy_yield_study_entry_points_stay_deleted() {
    let text = source("crates/subvt-core/src/yield_study.rs");
    // Longest-suffix first so e.g. `yield_study_jobs_supply_eval` is
    // checked on its own and not shadowed by a shorter prefix match.
    for name in [
        "yield_study_jobs_supply_eval",
        "yield_study_serial_supply_eval",
        "yield_study_summary_supply_eval",
        "yield_study_jobs_eval",
        "yield_study_serial_eval",
        "yield_study_summary_eval",
        "yield_study_jobs",
        "yield_study_serial",
        "yield_study_summary",
        "yield_study",
    ] {
        assert_absent(&text, "crates/subvt-core/src/yield_study.rs", name);
    }
    // No lingering deprecation machinery either: the module carries
    // zero `#[deprecated]` attributes now that the window closed.
    assert_eq!(
        text.matches("#[deprecated").count(),
        0,
        "yield_study.rs should carry no deprecation markers after the \
         legacy surface was removed"
    );
}

#[test]
fn the_five_legacy_savings_monte_carlo_entry_points_stay_deleted() {
    let text = source("crates/subvt-bench/src/savings.rs");
    for name in [
        "savings_monte_carlo_jobs_eval",
        "savings_monte_carlo_serial_eval",
        "savings_monte_carlo_jobs",
        "savings_monte_carlo_serial",
        "savings_monte_carlo",
    ] {
        assert_absent(&text, "crates/subvt-bench/src/savings.rs", name);
    }
    assert_eq!(
        text.matches("#[deprecated").count(),
        0,
        "savings.rs should carry no deprecation markers after the \
         legacy surface was removed"
    );
}

#[test]
fn the_builder_replacement_surface_exists() {
    let text = source("crates/subvt-core/src/study.rs");
    for needle in [
        "pub struct StudyConfig",
        "pub struct StudyArgs",
        "pub enum SupplyBackendKind",
        "pub fn run(",
        "pub fn run_summary(",
        "pub fn run_faults(",
        "pub fn run_dies<",
        "pub fn supply_backend(",
        "pub fn accept(",
    ] {
        assert!(
            text.contains(needle),
            "crates/subvt-core/src/study.rs lost `{needle}`"
        );
    }
    // The module that housed the legacy yield fns still documents the
    // replacement, so a reader landing there is pointed at the builder.
    assert!(
        source("crates/subvt-core/src/yield_study.rs").contains("StudyConfig"),
        "yield_study.rs should point readers at StudyConfig"
    );
    assert!(
        source("crates/subvt-bench/src/savings.rs").contains("StudyConfig"),
        "savings.rs should point readers at StudyConfig"
    );
}

#[test]
fn nothing_in_the_tree_still_names_a_legacy_entry_point() {
    // With the wrappers gone there is no longer any file that may
    // mention the old names — not even the determinism suite, which
    // used to pin builder-vs-legacy identity and now pins the builder
    // against its own serial reference.
    for rel in [
        "src/cli.rs",
        "src/lib.rs",
        "tests/determinism.rs",
        "tests/batch_equivalence.rs",
        "tests/checkpoint_resume.rs",
        "crates/subvt-core/src/lib.rs",
        "crates/subvt-core/src/study.rs",
        "crates/subvt-bench/src/jobs.rs",
        "crates/subvt-bench/src/bin/exp-yield.rs",
        "crates/subvt-bench/src/bin/exp-savings.rs",
        "crates/subvt-bench/src/bin/exp-faults.rs",
        "crates/subvt-bench/src/bin/exp-ablations.rs",
    ] {
        let text = source(rel);
        for legacy in [
            "yield_study_jobs",
            "yield_study_serial",
            "savings_monte_carlo",
        ] {
            assert!(
                !text.contains(legacy),
                "{rel} still names the removed `{legacy}` surface"
            );
        }
    }
}

#[test]
fn every_supply_backend_kind_is_spelled_in_the_cli_help() {
    // `--supply` must advertise exactly the four canonical spellings,
    // and the retired `switched` alias is gone from the parser as well
    // as from everything a user reads.
    let study = source("crates/subvt-core/src/study.rs");
    for spelling in ["ideal", "buck", "dldo", "dlr"] {
        assert!(
            study.contains(spelling),
            "STUDY_HELP no longer documents the `{spelling}` supply spelling"
        );
    }
    // The parser arm is `"buck"` alone: `switched` gets the ordinary
    // unknown-supply error.
    assert!(
        study.contains(r#""buck" => Ok(SupplyBackendKind::Buck)"#)
            && !study.contains(r#""switched" =>"#)
            && !study.contains(r#"| "switched""#),
        "the `switched` parse alias is back in the --supply parser"
    );
    // Nor may the user-facing help text mention it.
    let after_help = &study[study.find("STUDY_HELP").expect("STUDY_HELP const")..];
    let help_text = &after_help[..after_help.find("\";").expect("help terminator")];
    assert!(
        !help_text.contains("switched"),
        "STUDY_HELP still advertises the retired `switched` alias"
    );
    assert!(
        !source("src/cli.rs")
            .split("pub const USAGE")
            .nth(1)
            .expect("USAGE const")
            .split("\";")
            .next()
            .expect("usage terminator")
            .contains("switched"),
        "the subvt USAGE text still advertises the retired `switched` alias"
    );
}

#[test]
fn every_harness_binary_shares_the_one_study_help_text() {
    // Satellite of the scenario PR: the four study harnesses used to
    // assemble `--help` from per-binary JOBS_HELP/EVAL_HELP/SUPPLY_HELP
    // fragments that drifted independently. They now all interpolate
    // the one STUDY_HELP const, so a flag documented for one binary is
    // documented identically for all of them.
    for rel in [
        "crates/subvt-bench/src/bin/exp-yield.rs",
        "crates/subvt-bench/src/bin/exp-savings.rs",
        "crates/subvt-bench/src/bin/exp-faults.rs",
        "crates/subvt-bench/src/bin/exp-ablations.rs",
        "crates/subvt-bench/src/bin/exp-shootout.rs",
    ] {
        let text = source(rel);
        assert!(
            text.contains("{STUDY_HELP}"),
            "{rel} no longer interpolates the shared STUDY_HELP text"
        );
        assert!(
            text.contains("[study flags]"),
            "{rel} drifted from the unified `USAGE: <bin> [study flags]` form"
        );
        for retired in ["JOBS_HELP", "EVAL_HELP", "SUPPLY_HELP"] {
            assert!(
                !text.contains(retired),
                "{rel} resurrects the retired per-binary `{retired}` fragment"
            );
        }
    }
    // The fragments themselves stay deleted from the shared harness
    // module.
    let jobs = source("crates/subvt-bench/src/jobs.rs");
    for retired in ["JOBS_HELP", "EVAL_HELP", "SUPPLY_HELP"] {
        assert!(
            !jobs.contains(retired),
            "jobs.rs redefines the retired `{retired}` fragment"
        );
    }
}

#[test]
fn fleet_perf_gate_warnings_go_to_stderr() {
    // The fleet bench's missing/stale-baseline warnings must never
    // land on stdout: CI and scripts parse the bench's stdout, and a
    // warning line would corrupt it. Pin every warning print in the
    // baseline-handling code to eprintln!.
    let text = source("crates/subvt-bench/benches/fleet.rs");
    for (i, line) in text.lines().enumerate() {
        if line.contains("warning") && line.contains("println!") {
            assert!(
                line.contains("eprintln!"),
                "fleet.rs:{}: baseline warning printed to stdout: {line}",
                i + 1
            );
        }
    }
    assert!(
        text.contains("eprintln!"),
        "fleet.rs no longer routes any warning to stderr — did the \
         baseline warnings move?"
    );
}

/// Every `.rs` file of the workspace (sources, tests, benches,
/// examples), as `(relative path, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(root, &path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = fs::read_to_string(&path).expect("readable source");
                out.push((rel.display().to_string(), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(root, &root.join(dir), &mut out);
    }
    out
}

#[test]
fn the_device_physics_twins_stay_deleted() {
    // One path to the device model: every consumer evaluates through a
    // `DeviceEval`. The direct-`&Technology` twins and the `Option`
    // forks that chose between them are gone, and so are the
    // `StudyConfig` setters that only fed those forks.
    let sources = workspace_sources();
    assert!(sources.len() > 50, "the walk found the workspace");
    for name in [
        "find_mep_eval",
        "energy_sweep_eval",
        "critical_path_with",
        "max_rate_with",
        "energy_per_op_with",
        "design_eval",
        "word_for_rate_eval",
        "savings_experiment_eval",
        "fixed_baseline_word_eval",
        "run_policy_impl",
        "eval_mode",
        "resolved_eval",
    ] {
        for (rel, text) in &sources {
            assert_absent(text, rel, name);
        }
    }
    // Names that live on elsewhere (a counter TDC still `measure`s, many
    // types have a `new`) are checked in the file that retired them.
    for (rel, names) in [
        ("crates/subvt-tdc/src/delay_line.rs", &["cell_delay"][..]),
        (
            "crates/subvt-tdc/src/sensor.rs",
            &["new", "measure", "sense", "sense_fractional"][..],
        ),
        ("crates/subvt-core/src/study.rs", &["tech"][..]),
    ] {
        let text = source(rel);
        for name in names {
            assert_absent(&text, rel, name);
        }
    }
    // The sensor and the load trait take no technology at all.
    for rel in [
        "crates/subvt-tdc/src/sensor.rs",
        "crates/subvt-loads/src/load.rs",
    ] {
        assert!(
            !source(rel).contains(": &Technology"),
            "{rel} grew a `&Technology` physics path again"
        );
    }
}
