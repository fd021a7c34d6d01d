//! Integration tests over the extension features: body biasing, boot
//! sequencing, drift tracking, overhead accounting, dithering, idle
//! policies and the alternative TDC methods — wired across crates.

use subvt::prelude::*;
use subvt_core::drift::{run_with_drift, DriftSchedule};
use subvt_core::idle_policy::compare_idle_policies;
use subvt_core::overhead::{overhead_per_cycle, ControllerInventory};
use subvt_dcdc::NoLoad;
use subvt_device::units::Hertz;

#[test]
fn abb_and_avs_are_interchangeable_for_one_lsb_of_variation() {
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    let eval = AnalyticEval::new(&tech);
    let sensor = VariationSensor::with_eval(&eval, env, SensorConfig::default());
    let die = GateMismatch {
        nmos_dvth: Volts(0.018_75),
        pmos_dvth: Volts(0.018_75),
    };

    // AVS route: one word up.
    let avs = sensor
        .sense_with(&eval, 12, word_voltage(13), env, die)
        .unwrap();
    // ABB route: converge the bias.
    let mut abb = AbbCompensator::new(BodyEffect::bulk_130nm());
    let (bias, abb_res) = abb.converge(&tech, &sensor, 12, env, die, 8).unwrap();

    assert_eq!(avs, 0);
    assert_eq!(abb_res, 0);
    assert!(bias.nmos_vbs.volts() > 0.0, "forward bias expected");
}

#[test]
fn boot_then_adapt_end_to_end() {
    // Full life-cycle: soft-start the converter, pass the calibration
    // check, then hand over to the adaptive controller on a slow die.
    let tech = Technology::st_130nm();
    let env = Environment::at_corner(ProcessCorner::Ss);
    let eval = AnalyticEval::new(&tech);
    let sensor = VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
    let mut converter = DcDcConverter::new(ConverterParams::default(), Box::new(NoLoad));
    let mut boot = BootSequence::new(12, 30);
    let state = boot
        .run(
            &mut converter,
            &sensor,
            &tech,
            env,
            GateMismatch::NOMINAL,
            300,
        )
        .expect("sensor usable");
    // One LSB of corner shift passes the |dev| ≤ 1 gate.
    assert!(matches!(state, BootState::Ready { .. }), "{state:?}");

    // The adaptive loop then takes over and lands the +1 correction.
    let rate = design_rate_controller(&eval, Environment::nominal()).unwrap();
    let mut controller = AdaptiveController::new(
        tech,
        RingOscillator::paper_circuit(),
        rate,
        Environment::nominal(),
        env,
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
    let mut rng = subvt_rng::StdRng::seed_from_u64(1);
    let summary = controller.run(&mut wl, 30, &mut rng);
    assert!((1..=2).contains(&summary.compensation));
}

#[test]
fn drift_and_monte_carlo_compose() {
    // A sampled slow-ish die *and* a temperature step, tracked live.
    let model = VariationModel::st_130nm();
    let mut rng = subvt_rng::StdRng::seed_from_u64(40);
    // Draw dies until a clearly slow one appears (deterministic seed).
    let die = loop {
        let d = model.sample_die(&mut rng);
        if d.corner_units() > 0.9 {
            break d;
        }
    };

    let tech = Technology::st_130nm();
    let rate = design_rate_controller(&AnalyticEval::new(&tech), Environment::nominal()).unwrap();
    let mut controller = AdaptiveController::new(
        tech,
        RingOscillator::paper_circuit(),
        rate,
        Environment::nominal(),
        Environment::nominal(),
        die.mean_gate(),
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    let schedule = DriftSchedule::new(vec![
        (0, Environment::nominal()),
        (80, Environment::at_celsius(85.0)),
    ]);
    let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
    let r = run_with_drift(&mut controller, &schedule, &mut wl, 160, &mut rng);

    let (_, comp_cold) = r.segment_compensation[0];
    let (_, comp_hot) = r.segment_compensation[1];
    assert!(comp_cold >= 1, "slow die first: {comp_cold}");
    assert!(comp_hot < comp_cold, "heat pulls it back down: {comp_hot}");
}

#[test]
fn overhead_is_dwarfed_by_a_realistic_load_but_not_by_the_probe() {
    let tech = Technology::st_130nm();
    let b = overhead_per_cycle(
        &tech,
        ControllerInventory::default(),
        Volts(0.206),
        Hertz::from_megahertz(64.0),
        Seconds::from_micros(1.0),
    );
    let sense_cost = (b.tdc + b.control).femtos();

    let env = Environment::nominal();
    let eval = AnalyticEval::new(&tech);
    let ring_op = RingOscillator::paper_circuit()
        .energy_per_op(&eval, Volts(0.206), env)
        .unwrap()
        .total()
        .femtos();
    let fir_op = FirFilter::lowpass_9tap()
        .energy_per_op(&eval, Volts(0.206), env)
        .unwrap()
        .total()
        .femtos();
    assert!(
        sense_cost > 10.0 * ring_op,
        "sensing ({sense_cost} fJ) must dwarf the 64-gate probe ({ring_op} fJ)"
    );
    assert!(
        fir_op * 10.0 > sense_cost,
        "ten FIR samples ({fir_op} fJ each) must cover one sensing event"
    );
}

#[test]
fn counter_tdc_agrees_with_direct_sensor_on_corner_direction() {
    let tech = Technology::st_130nm();
    let env_slow = Environment::at_corner(ProcessCorner::Ss);
    let eval = AnalyticEval::new(&tech);
    let sensor = VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
    let counter = CounterSensor::full_range();
    let v = word_voltage(12);

    let direct = sensor
        .sense_with(&eval, 12, v, env_slow, GateMismatch::NOMINAL)
        .unwrap();
    let count_nominal = counter.measure(&tech, v, Environment::nominal(), GateMismatch::NOMINAL);
    let count_slow = counter.measure(&tech, v, env_slow, GateMismatch::NOMINAL);

    assert!(direct < 0, "direct sensor reads slow");
    assert!(count_slow < count_nominal, "counter method reads slow too");
}

#[test]
fn dither_tracks_the_compensated_operating_point() {
    // After a +1 LSB correction the true iso-delay point usually sits
    // between words; the dither plan reconstructs it.
    let tech = Technology::st_130nm();
    let ring = CircuitProfile::ring_oscillator();
    let target = Volts(0.218_75); // the paper's corrected 218.75 mV
    let plan = DitherPlan::for_target(target);
    assert_eq!((plan.low, plan.high), (11, 12));
    assert!((plan.average_voltage() - target).volts().abs() < 1e-9);
    let e = plan
        .energy_per_op(&tech, &ring, Environment::at_corner(ProcessCorner::Ss))
        .unwrap();
    // Near the SS MEP (1.7 fJ): the dithered point must be close.
    assert!(
        (e.femtos() - 1.7).abs() < 0.15,
        "dithered energy {} fJ",
        e.femtos()
    );
}

#[test]
fn idle_policy_and_controller_agree_on_the_operating_point() {
    // The analytic idle-policy DVS voltage and the closed-loop
    // controller's chosen word must match for the same workload.
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    let ring = RingOscillator::paper_circuit();
    let cmp = compare_idle_policies(&tech, &ring, env, Hertz(100e3), Volts(0.6), 0.05).unwrap();

    let rate = design_rate_controller(&AnalyticEval::new(&tech), env).unwrap();
    let mut controller = AdaptiveController::new(
        tech,
        ring,
        rate,
        env,
        env,
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    // 0.1 items/cycle = 100 kHz offered rate.
    let mut wl = WorkloadSource::new(WorkloadPattern::Burst {
        busy_rate: 1,
        busy_cycles: 10,
        idle_cycles: 90,
    });
    let mut rng = subvt_rng::StdRng::seed_from_u64(9);
    let summary = controller.run(&mut wl, 1_000, &mut rng);
    let diff = (summary.mean_vout - cmp.dvs.vdd).millivolts().abs();
    assert!(
        diff < 2.5 * 18.75,
        "controller {} vs analytic {}",
        summary.mean_vout,
        cmp.dvs.vdd
    );
}

#[test]
fn the_whole_stack_works_on_the_65nm_node() {
    // Re-run the paper's worked example on the second technology
    // preset: design at TT, fabricate slow, let the sensor correct.
    use subvt_core::RateController;
    use subvt_device::units::Hertz;

    let tech = Technology::generic_65nm();
    let eval = AnalyticEval::new(&tech);
    let ring = RingOscillator::paper_circuit();
    let rate = RateController::design(
        &eval,
        &ring,
        Environment::nominal(),
        &[(8, Hertz(100e3)), (16, Hertz(1e6)), (32, Hertz(10e6))],
    )
    .expect("designable on 65nm");

    // The 65 nm MEP sits at its own (higher-Vth) point.
    let mep = find_mep(
        &eval,
        ring.profile(),
        Environment::nominal(),
        Volts(0.12),
        Volts(0.9),
    )
    .unwrap();
    assert!(
        mep.vopt.volts() < tech.nmos.vth0.volts(),
        "still a subthreshold MEP: {}",
        mep.vopt
    );

    let mut controller = AdaptiveController::new(
        tech,
        ring,
        rate,
        Environment::nominal(),
        Environment::at_corner(ProcessCorner::Ss),
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
    let mut rng = subvt_rng::StdRng::seed_from_u64(21);
    let summary = controller.run(&mut wl, 40, &mut rng);
    assert!(
        (1..=2).contains(&summary.compensation),
        "65nm slow die corrected by {}",
        summary.compensation
    );
    assert_eq!(summary.dropped, 0);
}
