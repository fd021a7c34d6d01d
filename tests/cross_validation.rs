//! Cross-validation between independent model layers: the analytic
//! timing model vs the structural gate-level simulator, and the
//! switched converter vs the ideal converter.

use subvt::prelude::*;
use subvt_dcdc::ConstantLoad;
use subvt_device::units::Amps;
use subvt_sim::logic::Logic;
use subvt_sim::netlist::Netlist;
use subvt_sim::time::{SimDuration, SimTime};
use subvt_tdc::CellKind;

#[test]
fn structural_delay_line_matches_analytic_model_across_voltages() {
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    for vdd_mv in [300.0, 600.0, 900.0, 1200.0] {
        let vdd = Volts::from_millivolts(vdd_mv);
        let line = DelayLine::new(16, CellKind::InvNor);
        let cell = line
            .cell_delay_with(&AnalyticEval::new(&tech), vdd, env)
            .expect("in range");

        let mut nl = Netlist::new();
        let (input, taps) = line
            .build_netlist(&tech, vdd, env, &mut nl)
            .expect("in range");
        nl.drive(input, Logic::Low, SimTime::ZERO);
        let settle = SimTime::ZERO + SimDuration::from_seconds(cell.value() * 40.0);
        nl.run_until(settle, 1_000_000);

        nl.drive(input, Logic::High, settle);
        // Binary-search-free check: the edge must arrive at the last tap
        // between 15.5 and 16.5 cell delays (half-cell tolerance from
        // the two half-cell gates inside each stage).
        let before = settle + SimDuration::from_seconds(cell.value() * 15.4);
        nl.run_until(before, 1_000_000);
        assert_eq!(
            nl.signal(*taps.last().unwrap()),
            Logic::Low,
            "{vdd_mv} mV: edge arrived early"
        );
        let after = settle + SimDuration::from_seconds(cell.value() * 16.6);
        nl.run_until(after, 1_000_000);
        assert_eq!(
            nl.signal(*taps.last().unwrap()),
            Logic::High,
            "{vdd_mv} mV: edge arrived late"
        );
    }
}

#[test]
fn structural_ring_frequency_matches_analytic_frequency() {
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    let ring = RingOscillator::with_stages(7, 0.1);
    let vdd = Volts(0.8);
    let expected = ring.period(&tech, vdd, env).expect("in range");

    let mut nl = Netlist::new();
    let (_, nodes) = ring
        .build_netlist(&tech, vdd, env, &mut nl)
        .expect("in range");
    // Count transitions on node 0 over 30 expected periods.
    let horizon = SimTime::ZERO + SimDuration::from_seconds(expected.value() * 30.0);
    let step = SimDuration::from_seconds(expected.value() / 40.0);
    let mut t = SimTime::ZERO;
    let mut transitions = 0u32;
    let mut last = Logic::Unknown;
    while t < horizon {
        t += step;
        nl.run_until(t, 10_000_000);
        let v = nl.signal(nodes[0]);
        if v != last {
            transitions += 1;
            last = v;
        }
    }
    // 30 periods → 60 transitions expected.
    assert!(
        (54..=66).contains(&transitions),
        "structural ring transitions {transitions}, expected ≈60"
    );
}

#[test]
fn switched_converter_converges_to_the_ideal_converter() {
    for word in [9u8, 19, 32, 47, 60] {
        let mut ideal = IdealConverter::new();
        ideal.set_word(word);

        let mut switched = DcDcConverter::new(
            ConverterParams::default(),
            Box::new(ConstantLoad(Amps(2e-6))),
        );
        switched.set_word(word);
        switched.run_system_cycles(150);

        let err = (switched.vout() - ideal.vout()).millivolts().abs();
        assert!(
            err < 6.0,
            "word {word}: switched {} vs ideal {} ({err} mV apart)",
            switched.vout(),
            ideal.vout()
        );
    }
}

#[test]
fn sensor_deviation_matches_mep_shift_direction_for_corners() {
    // The two independent paths — the energy model's MEP shift and the
    // timing model's TDC signature — must agree on the correction
    // direction for process corners.
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let ring = CircuitProfile::ring_oscillator();
    let sensor = VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
    let tt_mep = find_mep(
        &eval,
        &ring,
        Environment::nominal(),
        Volts(0.12),
        Volts(0.6),
    )
    .unwrap();

    for corner in [ProcessCorner::Ss, ProcessCorner::Ff] {
        let env = Environment::at_corner(corner);
        let mep = find_mep(&eval, &ring, env, Volts(0.12), Volts(0.6)).unwrap();
        let mep_direction = (mep.vopt.volts() - tt_mep.vopt.volts()).signum();
        let deviation = sensor
            .sense_with(&eval, 19, word_voltage(19), env, GateMismatch::NOMINAL)
            .expect("usable band");
        // Sensor reads slow (negative) → correction up (+) → matches a
        // higher MEP, and vice versa.
        let correction_direction = f64::from(-deviation.signum());
        assert_eq!(
            mep_direction, correction_direction,
            "{corner}: MEP moved {mep_direction}, correction {correction_direction}"
        );
    }
}

#[test]
fn controller_on_ideal_and_switched_supplies_agree_on_steady_state() {
    let tech = Technology::st_130nm();
    let design = Environment::nominal();
    let rate = design_rate_controller(&AnalyticEval::new(&tech), design).expect("designable");

    let run = |kind: SupplyKind| {
        let mut c = AdaptiveController::new(
            tech.clone(),
            RingOscillator::paper_circuit(),
            rate.clone(),
            design,
            design,
            GateMismatch::NOMINAL,
            SupplyPolicy::AdaptiveCompensated,
            kind,
            ControllerConfig::default(),
        );
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
        let mut rng = subvt_rng::StdRng::seed_from_u64(0);
        c.run(&mut wl, 150, &mut rng);
        c.vout()
    };

    let ideal = run(SupplyKind::Ideal);
    let switched = run(SupplyKind::Switched);
    assert!(
        (ideal - switched).millivolts().abs() < 20.0,
        "ideal {ideal} vs switched {switched}"
    );
}

#[test]
fn structural_quantizer_matches_analytic_snapshot() {
    // Build the TDC structurally: a 16-stage INV-NOR line fed by a
    // periodic Ref_clk, sampled by real DFFs at the anchor instant.
    // The captured word must match the analytic Quantizer's snapshot.
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    let vdd = Volts(0.8);
    let stages = 16u8;
    let line = DelayLine::new(stages, subvt_tdc::CellKind::InvNor);
    let cell = line
        .cell_delay_with(&AnalyticEval::new(&tech), vdd, env)
        .expect("in range");

    // Periodic reference sized for a clean single burst.
    let period = subvt_device::Seconds(cell.value() * 64.0);
    let high = subvt_device::Seconds(period.value() / 2.0);
    let anchor_cells = 7.5f64;

    // Analytic snapshot.
    let quantizer = Quantizer::new(
        stages,
        RefClock::new(period, high),
        subvt_device::Seconds(cell.value() * anchor_cells),
    );
    let analytic = quantizer.sample(cell);

    // Structural: drive the line, let the waveform fill it, then clock
    // sampling DFFs at (k·period + anchor) for some whole k.
    let mut nl = Netlist::new();
    let (input, taps) = line
        .build_netlist(&tech, vdd, env, &mut nl)
        .expect("in range");
    let dff_clk = nl.add_signal("sample_clk");
    let qs: Vec<_> = (0..stages)
        .map(|i| {
            let q = nl.add_signal(format!("q{i}"));
            nl.add_gate(
                subvt_sim::netlist::GateFn::Dff,
                &[taps[usize::from(i)], dff_clk],
                q,
                SimDuration::from_picos(1),
            );
            q
        })
        .collect();
    nl.drive(dff_clk, Logic::Low, SimTime::ZERO);
    // Drive several periods of the reference so the line reaches its
    // periodic steady state.
    let period_fs = SimDuration::from_seconds(period.value());
    let high_fs = SimDuration::from_seconds(high.value());
    nl.drive_clock(input, SimTime::ZERO, period_fs, high_fs, 6);
    // Sample inside period 4 (steady state), at the anchor offset past
    // that period's rising edge.
    let sample_at =
        SimTime::ZERO + period_fs * 4 + SimDuration::from_seconds(cell.value() * anchor_cells);
    nl.run_until(sample_at, 10_000_000);
    nl.drive(dff_clk, Logic::High, sample_at);
    nl.run_until(sample_at + SimDuration::from_nanos(1), 10_000_000);

    let mut structural_bits = 0u64;
    for (i, &q) in qs.iter().enumerate() {
        // Stage i of the analytic model indexes from the line input.
        if nl.signal(q).is_high() {
            structural_bits |= 1 << i;
        }
    }

    // The analytic model treats the line as pure transport; the
    // structural line has two half-cell gates per stage, so edge
    // positions may differ by one stage at the boundary. Compare the
    // decoded edge positions with that tolerance.
    let structural_word = subvt_digital::encoder::QuantizerWord::new(stages, structural_bits);
    let analytic_code = analytic.encode().expect("clean burst");
    let structural_code = structural_word
        .encode_bubble_tolerant()
        .expect("clean burst from silicon-like line");
    assert!(
        analytic_code.abs_diff(structural_code) <= 1,
        "analytic {analytic_code} vs structural {structural_code} ({})",
        structural_word.to_table_hex()
    );
}
