//! Shared `--jobs` handling for the `exp-*` harness binaries.
//!
//! Every experiment binary accepts the same knob:
//!
//! * `--jobs N` — use exactly N worker threads;
//! * `SUBVT_JOBS=N` — environment fallback when the flag is absent;
//! * neither — all available cores.
//!
//! Thread count never changes results (the `subvt-exec` determinism
//! contract), only wall-clock time, so the flag is safe to tune per
//! machine.

use subvt_core::study::{StudyArgs, SupplyBackendKind};
use subvt_device::tabulate::EvalMode;
use subvt_exec::ExecConfig;

/// The standard harness flags plus the device-evaluation mode.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Worker-thread configuration (`--jobs`/`SUBVT_JOBS`).
    pub cfg: ExecConfig,
    /// Device evaluation mode (`--eval`, default analytic).
    pub eval: EvalMode,
    /// Supply backend (`--supply`, default ideal).
    pub supply: SupplyBackendKind,
    /// The full shared study-flag set (`--dies`, `--seed`, `--solver`,
    /// `--faults`, `--mitigation`, plus the three above) — the same
    /// parser the `subvt` CLI uses, so every harness binary accepts
    /// the same knobs with the same error messages.
    pub study: StudyArgs,
}

/// Parses `args` (without the program name) for the standard harness
/// flags.
///
/// # Errors
///
/// Returns a user-facing message on an unknown flag or a malformed
/// `--jobs` value. `Ok(None)` means `--help` was requested: print
/// `usage` and exit successfully.
pub fn parse_harness_args(args: &[String], usage: &str) -> Result<Option<ExecConfig>, String> {
    Ok(parse_harness_options(args, usage)?.map(|o| o.cfg))
}

/// Parses `args` (without the program name) for the standard harness
/// flags plus `--eval`.
///
/// # Errors
///
/// As [`parse_harness_args`], plus a message on a malformed `--eval`
/// mode.
pub fn parse_harness_options(
    args: &[String],
    usage: &str,
) -> Result<Option<HarnessOptions>, String> {
    let mut study = StudyArgs::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                let _ = usage; // caller prints it
                return Ok(None);
            }
            other => match study.accept(args, i)? {
                Some(consumed) => i += consumed,
                None => return Err(format!("unknown flag `{other}` (try --help)")),
            },
        }
    }
    Ok(Some(HarnessOptions {
        cfg: study.exec(),
        eval: study.eval,
        supply: study.supply,
        study,
    }))
}

/// [`parse_harness_args`] over the process arguments, exiting on
/// `--help` (after printing `usage`) or on a parse error.
pub fn harness_config(usage: &str) -> ExecConfig {
    harness_options(usage).cfg
}

/// [`parse_harness_options`] over the process arguments, exiting on
/// `--help` (after printing `usage`) or on a parse error.
pub fn harness_options(usage: &str) -> HarnessOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_harness_options(&args, usage) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_flags_resolves_from_env() {
        let cfg = parse_harness_args(&[], "usage").unwrap().unwrap();
        assert!(cfg.jobs() >= 1);
    }

    #[test]
    fn explicit_jobs_wins() {
        let cfg = parse_harness_args(&argv(&["--jobs", "3"]), "usage")
            .unwrap()
            .unwrap();
        assert_eq!(cfg.jobs(), 3);
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(
            parse_harness_args(&argv(&["--help"]), "usage").unwrap(),
            None
        );
        assert_eq!(parse_harness_args(&argv(&["-h"]), "usage").unwrap(), None);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse_harness_args(&argv(&["--jobs"]), "u").is_err());
        assert!(parse_harness_args(&argv(&["--jobs", "x"]), "u").is_err());
        assert!(parse_harness_args(&argv(&["--jobs", "0"]), "u").is_err());
        assert!(parse_harness_args(&argv(&["--frob"]), "u").is_err());
        assert!(parse_harness_options(&argv(&["--eval"]), "u").is_err());
        assert!(parse_harness_options(&argv(&["--eval", "magic"]), "u").is_err());
        assert!(parse_harness_options(&argv(&["--supply"]), "u").is_err());
        assert!(parse_harness_options(&argv(&["--supply", "battery"]), "u").is_err());
    }

    #[test]
    fn supply_parses_with_ideal_default() {
        let opts = parse_harness_options(&[], "u").unwrap().unwrap();
        assert_eq!(opts.supply, SupplyBackendKind::Ideal);
        for (raw, kind) in [
            ("buck", SupplyBackendKind::Buck),
            ("dldo", SupplyBackendKind::Dldo),
            ("dlr", SupplyBackendKind::Dlr),
        ] {
            let opts = parse_harness_options(&argv(&["--supply", raw]), "u")
                .unwrap()
                .unwrap();
            assert_eq!(opts.supply, kind, "--supply {raw}");
        }
    }

    #[test]
    fn shared_study_flags_parse_through_the_harness() {
        // One parser for the CLI and every harness binary: the full
        // StudyArgs flag set is accepted, new flags included.
        let opts = parse_harness_options(
            &argv(&[
                "--dies",
                "100",
                "--seed",
                "9",
                "--faults",
                "0.02",
                "--mitigation",
                "off",
                "--solver",
                "rk4",
            ]),
            "u",
        )
        .unwrap()
        .unwrap();
        assert_eq!(opts.study.dies, 100);
        assert_eq!(opts.study.seed, 9);
        assert_eq!(opts.study.faults, Some(0.02));
        assert!(!opts.study.mitigation);
        let plan = opts.study.fault_plan().unwrap();
        assert_eq!(plan.tdc_rate, 0.02);
        assert!(!plan.mitigation);
        assert!(parse_harness_options(&argv(&["--faults", "1.5"]), "u").is_err());
        assert!(parse_harness_options(&argv(&["--mitigation", "maybe"]), "u").is_err());
    }

    #[test]
    fn eval_mode_parses_with_analytic_default() {
        let opts = parse_harness_options(&[], "u").unwrap().unwrap();
        assert_eq!(opts.eval, EvalMode::Analytic);
        let opts = parse_harness_options(&argv(&["--eval", "tabulated", "--jobs", "2"]), "u")
            .unwrap()
            .unwrap();
        assert_eq!(opts.eval, EvalMode::Tabulated);
        assert_eq!(opts.cfg.jobs(), 2);
        let opts = parse_harness_options(&argv(&["--eval", "tab"]), "u")
            .unwrap()
            .unwrap();
        assert_eq!(opts.eval, EvalMode::Tabulated);
    }
}
