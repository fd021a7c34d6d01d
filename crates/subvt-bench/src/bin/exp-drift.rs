//! Dynamic variation: the environment drifts while the controller runs,
//! and compensation has to track it through the TDC signature alone.

use subvt_bench::report::{f, Table};
use subvt_core::controller::{AdaptiveController, ControllerConfig, SupplyKind, SupplyPolicy};
use subvt_core::drift::{run_with_drift, DriftSchedule};
use subvt_core::experiment::design_rate_controller;
use subvt_device::corner::ProcessCorner;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_loads::ring_oscillator::RingOscillator;
use subvt_loads::workload::{WorkloadPattern, WorkloadSource};
use subvt_rng::StdRng;

fn run(schedule: &DriftSchedule, cycles: u64, title: &str) {
    let tech = Technology::st_130nm();
    let design = Environment::nominal();
    let rate = design_rate_controller(&AnalyticEval::new(&tech), design).expect("designable");
    let mut c = AdaptiveController::new(
        tech,
        RingOscillator::paper_circuit(),
        rate,
        design,
        design,
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
    let mut rng = StdRng::seed_from_u64(3);
    let r = run_with_drift(&mut c, schedule, &mut wl, cycles, &mut rng);

    let mut t = Table::new(
        title,
        &[
            "segment start (µs)",
            "environment",
            "compensation at segment end (LSB)",
        ],
    );
    for (i, &(start, comp)) in r.segment_compensation.iter().enumerate() {
        let env = schedule.segments()[i].1;
        t.row(&[
            start.to_string(),
            format!("{} @ {:.0} °C", env.corner, env.temperature.celsius()),
            format!("{comp:+}"),
        ]);
    }
    println!("{}", t.render());
    let final_v = r.history.last().map(|h| h.vout.millivolts()).unwrap_or(0.0);
    println!("final supply: {} mV\n", f(final_v, 1));
}

fn main() {
    println!("Runtime drift tracking (not in the paper: its validation is static)\n");

    run(
        &DriftSchedule::new(vec![
            (0, Environment::nominal()),
            (60, Environment::at_corner(ProcessCorner::Ss)),
            (180, Environment::nominal()),
        ]),
        260,
        "Corner step: nominal → slow → nominal",
    );

    run(
        &DriftSchedule::heat_ramp(80),
        400,
        "Heat ramp: 25 → 55 → 85 → 55 → 25 °C",
    );
}
