//! Regenerates the paper's Sec. IV headline: energy savings of the
//! adaptive controller vs running without it, across corners,
//! temperatures and Monte-Carlo dies.

use subvt_bench::jobs::harness_options;
use subvt_bench::report::{f, pct, Table};
use subvt_bench::savings::{savings_matrix, savings_rows};
use subvt_core::controller::SupplyKind;
use subvt_core::experiment::{savings_experiment, Scenario};
use subvt_core::study::{StudyConfig, SupplyBackendKind, STUDY_HELP};
use subvt_core::SupplySim;
use subvt_device::tabulate::EvalMode;
use subvt_device::technology::Technology;

fn usage() -> String {
    format!(
        "exp-savings — Sec. IV energy-savings tables\n\n\
         USAGE: exp-savings [study flags]\n\n{STUDY_HELP}"
    )
}

fn main() {
    let opts = harness_options(&usage());
    let cfg = opts.cfg;

    println!("Sec. IV — Energy savings of the adaptive controller\n");

    let mut t = Table::new(
        "Scenario matrix (paper: \"energy improvement of up to 55% compared to when no controller is employed\")",
        &[
            "scenario",
            "LUT shift",
            "mean Vdd (mV)",
            "vs fixed supply",
            "vs uncompensated",
            "oracle efficiency",
            "loss rate",
        ],
    );
    for report in savings_matrix() {
        t.row(&[
            report.scenario.clone(),
            format!("{:+}", report.compensated.compensation),
            f(report.compensated.mean_vout.millivolts(), 1),
            pct(report.savings_vs_fixed()),
            pct(report.savings_vs_uncompensated()),
            f(report.oracle_efficiency(), 3),
            format!("{:.2e}", report.compensated.loss_rate()),
        ]);
    }
    println!("{}", t.render());

    let mut mc = Table::new(
        "Monte-Carlo dies (global + correlated N/P Vth variation)",
        &[
            "die",
            "severity (corner units)",
            "LUT shift",
            "savings vs fixed",
        ],
    );
    let rows = savings_rows(&StudyConfig::new(12, 2026).exec(cfg), EvalMode::Analytic);
    for row in &rows {
        mc.row(&[
            row.die.to_string(),
            f(row.corner_units, 2),
            format!("{:+}", row.compensation),
            pct(row.savings_vs_fixed),
        ]);
    }
    println!("{}", mc.render());

    let best = rows
        .iter()
        .map(|r| r.savings_vs_fixed)
        .fold(0.0f64, f64::max);
    println!("Best-case saving across sampled dies: {}", pct(best));

    // The worked example once more on the selected supply backend. The
    // matrix above always uses the ideal rail (the paper's Sec. IV
    // framing); this section shows what survives a real regulator. The
    // transient controller only models the buck stage electrically, so
    // the dldo/dlr backends run on the ideal rail and report their own
    // closed-form regulation figures below.
    let supply_note = match opts.supply {
        SupplyBackendKind::Ideal => "ideal supply",
        SupplyBackendKind::Buck => "buck supply, closed-form solver",
        SupplyBackendKind::Dldo => "ideal rail (dldo figures below)",
        SupplyBackendKind::Dlr => "ideal rail (dlr figures below)",
    };
    let scenario_supply = match opts.supply {
        SupplyBackendKind::Buck => SupplyKind::Switched,
        _ => SupplyKind::Ideal,
    };
    let scenario = Scenario::paper_worked_example().with_supply(scenario_supply);
    let eval = EvalMode::Analytic.build(&Technology::st_130nm());
    let report = savings_experiment(&scenario, &eval).expect("worked example runs");
    println!(
        "\nWorked example on the {supply_note}: LUT {:+} LSB, mean Vdd {} mV, \
         {} vs fixed supply, {} vs uncompensated",
        report.compensated.compensation,
        f(report.compensated.mean_vout.millivolts(), 1),
        pct(report.savings_vs_fixed()),
        pct(report.savings_vs_uncompensated()),
    );
    if opts.supply == SupplyBackendKind::Buck {
        println!(
            "Converter conduction loss booked against the compensated run: {} fJ",
            f(report.compensated.account.converter().femtos(), 3)
        );
    }
    if let SupplySim::Regulated(model) = opts.supply.build_sim(opts.study.solver) {
        if opts.supply != SupplyBackendKind::Buck {
            println!(
                "{} regulation at word 11: ripple {} mV pp, settle {} cycle(s), \
                 overhead {} fJ/cycle",
                model.tag(),
                f(model.point(11).ripple().millivolts(), 3),
                model.response_cycles(),
                f(model.regulation_energy_per_cycle().femtos(), 1),
            );
        }
    }
}
