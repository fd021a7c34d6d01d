//! Parametric yield: fraction of Monte-Carlo dies meeting a
//! (throughput, energy) spec with and without the adaptive controller.
//!
//! Since PR 10 the output renders through the shared [`Report`] model
//! (same text backend as `subvt suite`); the committed reference in
//! `docs/results/yield.txt` is byte-identical to the pre-port output.

use subvt_bench::jobs::harness_options;
use subvt_bench::report::{f, pct, Table};
use subvt_core::study::{StudyConfig, SupplyBackendKind, STUDY_HELP};
use subvt_core::yield_study::YieldSpec;
use subvt_dcdc::SolverMode;
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Joules};
use subvt_device::MetricsSnapshot;
use subvt_scenario::Report;

fn usage() -> String {
    format!(
        "exp-yield — parametric yield under Monte-Carlo variation\n\n\
         USAGE: exp-yield [study flags]\n\n{STUDY_HELP}"
    )
}

fn main() {
    let opts = harness_options(&usage());
    let cfg = &opts.cfg;

    let supply_note = match opts.supply {
        SupplyBackendKind::Ideal => "ideal supply".to_owned(),
        SupplyBackendKind::Buck => match opts.study.solver {
            SolverMode::ClosedForm => "buck supply [closed-form solver]".to_owned(),
            SolverMode::Rk4 => "buck supply [rk4 solver]".to_owned(),
        },
        kind => format!("{} supply", kind.label()),
    };

    let mut report = Report::new(format!(
        "Parametric yield under Monte-Carlo variation (500 dies per row, {} device model, {})",
        opts.eval.label(),
        supply_note
    ));

    let tech = Technology::st_130nm();
    let before = MetricsSnapshot::snapshot();
    let eval = opts.eval.build(&tech);

    let mut t = Table::new(
        "Spec: sustain the rate at ≤ the energy bound (design word 11 = TT MEP)",
        &[
            "spec rate (kHz)",
            "energy bound (fJ)",
            "fixed @MEP word",
            "fixed +2 guard",
            "adaptive",
            "dithered (sub-LSB)",
            "mean adaptive E (fJ)",
        ],
    );
    for (rate_khz, e_fj) in [(110.0, 2.9), (110.0, 3.5), (60.0, 2.9), (125.0, 2.8)] {
        let spec = YieldSpec {
            min_rate: Hertz(rate_khz * 1e3),
            max_energy_per_op: Joules::from_femtos(e_fj),
        };
        let run = |fixed_word: u8, seed: u64| {
            StudyConfig::new(500, seed)
                .eval(eval.clone())
                .spec(spec)
                .words(fixed_word, 11)
                .supply_backend(opts.supply)
                .solver(opts.study.solver)
                .exec(*cfg)
                .run()
        };
        let at_mep = run(11, 1);
        let guarded = run(13, 1);
        t.row(&[
            f(rate_khz, 0),
            f(e_fj, 2),
            pct(at_mep.fixed_yield()),
            pct(guarded.fixed_yield()),
            pct(at_mep.adaptive_yield()),
            pct(at_mep.dithered_yield()),
            at_mep
                .mean_adaptive_energy()
                .map_or("-".into(), |e| f(e.femtos(), 3)),
        ]);
    }
    report.table(t);
    report.note([
        "The fixed design is squeezed: at the MEP word it fails slow dies on rate;",
        "guard-banded up it fails the energy bound. The adaptive design settles",
        "each die at its own word and escapes the squeeze (residual misses are",
        "18.75 mV quantization — the dithering extension's territory).",
    ]);

    // Large-population confirmation: the summary-only path never
    // materialises per-die outcomes, so the population can be scaled
    // far beyond what the row tables above would tolerate.
    let dies = 20_000;
    let spec = YieldSpec {
        min_rate: Hertz(110e3),
        max_energy_per_op: Joules::from_femtos(2.9),
    };
    let summary = StudyConfig::new(dies, 1)
        .eval(eval.clone())
        .spec(spec)
        .words(11, 11)
        .supply_backend(opts.supply)
        .solver(opts.study.solver)
        .exec(*cfg)
        .run_summary();
    let mut big = Table::new(
        format!("Large-population check ({dies} dies, summary-only streaming path)"),
        &[
            "dies",
            "fixed",
            "adaptive",
            "dithered",
            "mean adaptive E (fJ)",
        ],
    );
    big.row(&[
        summary.dies.to_string(),
        pct(summary.fixed_yield()),
        pct(summary.adaptive_yield()),
        pct(summary.dithered_yield()),
        summary
            .mean_adaptive_energy()
            .map_or("-".into(), |e| f(e.femtos(), 3)),
    ]);
    report.table(big);

    let delta = MetricsSnapshot::snapshot().since(&before);
    // Zero the build wall time before printing: harness output is held
    // to byte-identical reruns, and build nanos are the one counter
    // that is timing, not accounting (the device_eval bench measures
    // build cost properly).
    let delta = MetricsSnapshot {
        table_build_nanos: 0,
        ..delta
    };
    let mut counters = vec![
        format!("device-model counters ({} mode):", opts.eval.label()),
        format!("  {delta}"),
    ];
    if delta.interp_hits() > 0 {
        let total = delta.analytic_evals() + delta.interp_hits();
        counters.push(format!(
            "  analytic share {:.2}% of {total} model queries \
             ({:.1}× fewer analytic evals than an all-analytic run)",
            delta.analytic_evals() as f64 / total as f64 * 100.0,
            total as f64 / delta.analytic_evals().max(1) as f64,
        ));
    }
    report.note(counters);
    print!("{}", report.to_text());
}
