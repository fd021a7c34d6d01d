//! Bench for the extension studies: controller overhead,
//! drift tracking, dithering, body-bias convergence, and the
//! alternative TDC methods.

use std::hint::black_box;
use subvt_testkit::bench::Timer;

use subvt_core::abb::AbbCompensator;
use subvt_core::dithering::compare_dither;
use subvt_core::overhead::{overhead_per_cycle, ControllerInventory};
use subvt_device::body_bias::BodyEffect;
use subvt_device::delay::GateMismatch;
use subvt_device::energy::CircuitProfile;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, EvalMode};
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Seconds, Volts};
use subvt_tdc::counter_method::CounterSensor;
use subvt_tdc::sensor::{SensorConfig, VariationSensor};
use subvt_tdc::vernier::VernierTdc;

fn bench(c: &mut Timer) {
    let tech = Technology::st_130nm();
    let env = Environment::nominal();

    let mut g = c.benchmark_group("extensions");
    g.bench_function("overhead_per_cycle", |b| {
        b.iter(|| {
            overhead_per_cycle(
                &tech,
                ControllerInventory::default(),
                black_box(Volts(0.206)),
                Hertz::from_megahertz(64.0),
                Seconds::from_micros(1.0),
            )
        })
    });
    let ring = CircuitProfile::ring_oscillator();
    g.bench_function("dither_comparison", |b| {
        b.iter(|| compare_dither(&tech, &ring, env, black_box(Volts(0.2156))))
    });
    let sensor =
        VariationSensor::with_eval(&AnalyticEval::new(&tech), env, SensorConfig::default());
    g.bench_function("abb_convergence", |b| {
        b.iter(|| {
            let mut abb = AbbCompensator::new(BodyEffect::bulk_130nm());
            abb.converge(
                &tech,
                &sensor,
                12,
                env,
                GateMismatch {
                    nmos_dvth: Volts(0.018_75),
                    pmos_dvth: Volts(0.018_75),
                },
                8,
            )
        })
    });
    let counter = CounterSensor::full_range();
    g.bench_function("counter_tdc_measure", |b| {
        b.iter(|| counter.measure(&tech, black_box(Volts(0.22)), env, GateMismatch::NOMINAL))
    });
    let vernier = VernierTdc::fine_grained();
    g.bench_function("vernier_convert", |b| {
        b.iter(|| {
            vernier.convert(
                &tech,
                Volts(0.6),
                env,
                GateMismatch::NOMINAL,
                black_box(Seconds::from_nanos(2.0)),
            )
        })
    });
    g.bench_function("yield_study_100_dies", |b| {
        use subvt_core::study::StudyConfig;
        use subvt_core::yield_study::YieldSpec;
        use subvt_device::units::{Hertz, Joules};
        use subvt_exec::ExecConfig;
        let spec = YieldSpec {
            min_rate: Hertz(110e3),
            max_energy_per_op: Joules::from_femtos(2.9),
        };
        let study = StudyConfig::new(100, 1)
            .eval(EvalMode::Analytic.build(&tech))
            .env(env)
            .spec(spec)
            .exec(ExecConfig::from_env());
        b.iter(|| study.run())
    });
    g.bench_function("drift_run_200_cycles", |b| {
        use subvt_core::controller::{
            AdaptiveController, ControllerConfig, SupplyKind, SupplyPolicy,
        };
        use subvt_core::drift::{run_with_drift, DriftSchedule};
        use subvt_core::experiment::design_rate_controller;
        use subvt_loads::ring_oscillator::RingOscillator;
        use subvt_loads::workload::{WorkloadPattern, WorkloadSource};
        let rate = design_rate_controller(&AnalyticEval::new(&tech), env).unwrap();
        b.iter(|| {
            let mut c = AdaptiveController::new(
                tech.clone(),
                RingOscillator::paper_circuit(),
                rate.clone(),
                env,
                env,
                GateMismatch::NOMINAL,
                SupplyPolicy::AdaptiveCompensated,
                SupplyKind::Ideal,
                ControllerConfig::default(),
            );
            let schedule = DriftSchedule::heat_ramp(40);
            let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
            let mut rng = subvt_rng::StdRng::seed_from_u64(0);
            run_with_drift(&mut c, &schedule, &mut wl, 200, &mut rng)
        })
    });
    g.finish();
}

subvt_testkit::bench_main!(bench);
