//! Bench for the Sec. IV savings study: full controller runs.

use subvt_testkit::bench::Timer;

use subvt_bench::savings::savings_rows;
use subvt_core::experiment::{run_scenario, savings_experiment, Scenario};
use subvt_core::study::StudyConfig;
use subvt_core::SupplyPolicy;
use subvt_device::tabulate::EvalMode;
use subvt_device::technology::Technology;
use subvt_exec::ExecConfig;

fn bench(c: &mut Timer) {
    let mut g = c.benchmark_group("savings");
    g.sample_size(10);
    let mut short = Scenario::paper_worked_example();
    short.cycles = 200;
    g.bench_function("controller_200_cycles", |b| {
        b.iter(|| run_scenario(&short, SupplyPolicy::AdaptiveCompensated))
    });
    let eval = EvalMode::Analytic.build(&Technology::st_130nm());
    g.bench_function("four_way_comparison", |b| {
        b.iter(|| savings_experiment(&short, &eval))
    });
    let study = StudyConfig::new(8, 2026).exec(ExecConfig::from_env());
    g.bench_function("monte_carlo_8_dies", |b| {
        b.iter(|| savings_rows(&study, EvalMode::Analytic))
    });
    g.finish();
}

subvt_testkit::bench_main!(bench);
