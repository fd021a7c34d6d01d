//! Bench for the Fig. 1 reproduction: the energy sweep and
//! MEP search per process corner.

use std::hint::black_box;
use subvt_testkit::bench::Timer;

use subvt_bench::figures::fig1_mep_corners;
use subvt_device::energy::{energy_per_cycle, CircuitProfile};
use subvt_device::mep::find_mep;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_device::units::Volts;

fn bench(c: &mut Timer) {
    let tech = Technology::st_130nm();
    let eval = AnalyticEval::new(&tech);
    let ring = CircuitProfile::ring_oscillator();
    let env = Environment::nominal();

    let mut g = c.benchmark_group("fig1");
    g.bench_function("energy_point", |b| {
        b.iter(|| energy_per_cycle(&tech, &ring, black_box(Volts(0.2)), env))
    });
    g.bench_function("mep_search", |b| {
        b.iter(|| find_mep(&eval, &ring, env, black_box(Volts(0.12)), Volts(0.6)))
    });
    g.bench_function("full_figure", |b| b.iter(fig1_mep_corners));
    g.finish();
}

subvt_testkit::bench_main!(bench);
