//! Property-based tests over cross-crate invariants.

use subvt::prelude::*;
use subvt_digital::encoder::QuantizerWord;
use subvt_testkit::prelude::*;

properties! {
    cases = 64;

    /// Delay decreases monotonically with supply voltage at any corner
    /// and temperature in range.
    fn delay_monotone_in_vdd(
        v1 in 0.12f64..1.3,
        dv in 0.01f64..0.2,
        corner_idx in 0usize..5,
        celsius in 0.0f64..115.0,
    ) {
        let tech = Technology::st_130nm();
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx])
            .with_celsius(celsius);
        let timing = GateTiming::new(&tech);
        let d_low = timing.gate_delay(GateKind::Inverter, Volts(v1), env).unwrap();
        let d_high = timing.gate_delay(GateKind::Inverter, Volts(v1 + dv), env).unwrap();
        prop_assert!(d_high.value() < d_low.value());
    }

    /// Total per-op energy is the sum of its parts and all parts are
    /// non-negative everywhere in the operating envelope.
    fn energy_decomposition_is_consistent(
        v in 0.11f64..1.2,
        activity in 0.01f64..1.0,
        corner_idx in 0usize..5,
    ) {
        let tech = Technology::st_130nm();
        let profile = CircuitProfile::ring_oscillator().with_activity(activity);
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx]);
        let e = energy_per_cycle(&tech, &profile, Volts(v), env).unwrap();
        prop_assert!(e.dynamic.value() >= 0.0);
        prop_assert!(e.leakage.value() >= 0.0);
        let total = e.total().value();
        prop_assert!((total - e.dynamic.value() - e.leakage.value()).abs() <= total * 1e-12);
        let f = e.leakage_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// The located MEP never beats any sweep sample (it is a true
    /// minimum) for any activity.
    fn mep_is_global_minimum(activity in 0.02f64..0.8) {
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let profile = CircuitProfile::ring_oscillator().with_activity(activity);
        let env = Environment::nominal();
        let mep = find_mep(&tech, &profile, env, Volts(0.12), Volts(0.9)).unwrap();
        // 1e-4 relative tolerance: when the minimum sits on the bracket
        // edge, the golden-section midpoint lands half a tolerance in.
        for e in energy_sweep(&tech, &profile, env, Volts(0.12), Volts(0.9), 30) {
            prop_assert!(e.total().value() >= mep.energy.value() * (1.0 - 1e-4));
        }
    }

    /// Quantizer codes are monotone in cell delay: slower cells never
    /// produce a larger edge position.
    fn quantizer_code_monotone_in_cell_delay(
        base_ps in 200.0f64..2_000.0,
        factor in 1.01f64..1.8,
    ) {
        let cell_fast = subvt_device::Seconds::from_picos(base_ps);
        let cell_slow = subvt_device::Seconds::from_picos(base_ps * factor);
        // Slow-clock regime sized for the slow cell: both reliable.
        let period = subvt_device::Seconds(cell_slow.value() * 256.0);
        let q = Quantizer::new(
            64,
            RefClock::square(period),
            subvt_device::Seconds(cell_slow.value() * 31.5),
        );
        let slow_code = q.sample(cell_slow).encode().unwrap();
        if let Ok(fast_code) = q.sample(cell_fast).encode() {
            prop_assert!(fast_code >= slow_code, "{fast_code} < {slow_code}");
        }
    }

    /// Thermometer encoding round-trips for any clean leading run.
    fn thermometer_encode_round_trip(run in 1u32..63) {
        let bits = (1u64 << run) - 1;
        let w = QuantizerWord::new(64, bits);
        prop_assert_eq!(w.encode().unwrap(), run);
        prop_assert_eq!(w.encode_bubble_tolerant().unwrap(), run);
    }

    /// A FIFO never loses accepted items: pushes - pops = occupancy.
    fn fifo_conservation(ops in vec(0u8..3, 1..200)) {
        let mut fifo: Fifo<u32> = Fifo::new(16);
        let mut pushed_ok = 0u64;
        let mut popped = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    if fifo.push(i as u32) {
                        pushed_ok += 1;
                    }
                }
                _ => {
                    if fifo.pop().is_some() {
                        popped += 1;
                    }
                }
            }
        }
        prop_assert_eq!(pushed_ok - popped, fifo.queue_length() as u64);
        prop_assert_eq!(fifo.write_pointer() - fifo.read_pointer(), fifo.queue_length() as u64);
    }

    /// The rate controller's designed LUT is monotone: more queue
    /// pressure never lowers the voltage word.
    fn designed_lut_is_monotone(q1 in 0usize..64, q2 in 0usize..64) {
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let rate = design_rate_controller(&tech, Environment::nominal()).unwrap();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(rate.desired_word(lo) <= rate.desired_word(hi));
    }

    /// Sensor deviations respond with the correct sign to die-level
    /// threshold shifts.
    fn sensor_sign_tracks_die_shift(shift_mv in -25.0f64..25.0) {
        // One deviation LSB corresponds to ≈18.75 mV of effective Vth
        // shift, so anything below ~half an LSB legitimately reads 0.
        prop_assume!(shift_mv.abs() > 12.0);
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let sensor = VariationSensor::with_eval(&tech, Environment::nominal(), SensorConfig::default());
        let mismatch = GateMismatch {
            nmos_dvth: Volts::from_millivolts(shift_mv),
            pmos_dvth: Volts::from_millivolts(shift_mv),
        };
        let dev = sensor
            .sense_with(&tech, 12, word_voltage(12), Environment::nominal(), mismatch)
            .unwrap();
        if shift_mv > 0.0 {
            prop_assert!(dev < 0, "higher Vth must read slow, got {dev}");
        } else {
            prop_assert!(dev > 0, "lower Vth must read fast, got {dev}");
        }
    }

    /// The switched converter's settled mean tracks the word voltage
    /// within one LSB for any word in the usable band.
    fn converter_accuracy_within_one_lsb(word in 6u8..62) {
        let mut c = DcDcConverter::new(ConverterParams::default(), Box::new(NoLoad));
        c.set_word(word);
        c.run_system_cycles(120);
        let target = f64::from(word) * 18.75;
        let vout = c.vout().millivolts();
        prop_assert!((vout - target).abs() < 18.75, "word {word}: {vout} vs {target}");
    }

    /// Pulse-shrinking conversion is linear: doubling the pulse width
    /// roughly doubles the vanish count.
    fn pulse_shrink_linearity(width_ns in 1.0f64..50.0) {
        use subvt_tdc::{PulseShrinkRing, PulseShrinkStage};
        let ring = PulseShrinkRing::new(
            PulseShrinkStage::nominal_130nm(),
            subvt_device::Seconds::ZERO,
        );
        let w = subvt_device::Seconds(width_ns * 1e-9);
        let c1 = ring.circulate(w, 10_000_000).unwrap().cycles;
        let c2 = ring.circulate(subvt_device::Seconds(w.value() * 2.0), 10_000_000).unwrap().cycles;
        let ratio = f64::from(c2) / f64::from(c1.max(1));
        prop_assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }
}

/// The tabulated surfaces shared by the accuracy properties below —
/// built once (a build prices ~4 ms of analytic node evaluations, far
/// too much to repeat per generated case).
fn shared_tabulated() -> &'static subvt_device::tabulate::TabulatedEval {
    use std::sync::OnceLock;
    static TAB: OnceLock<subvt_device::tabulate::TabulatedEval> = OnceLock::new();
    TAB.get_or_init(|| subvt_device::tabulate::TabulatedEval::new(&Technology::st_130nm()))
}

properties! {
    cases = 64;

    /// Accuracy contract of the tabulated device model: anywhere inside
    /// the grid — every corner, the full temperature span, the full Vdd
    /// bracket, and beyond-3σ local mismatch — the interpolated gate
    /// delay stays within the documented budget of the analytic model.
    fn tabulated_delay_within_budget(
        v in 0.14f64..1.24,
        corner_idx in 0usize..5,
        celsius in -35.0f64..120.0,
        mm_n in -0.05f64..0.05,
        mm_p in -0.05f64..0.05,
        kind_idx in 0usize..3,
    ) {
        use subvt_device::tabulate::{DeviceEval, ACCURACY_BUDGET};
        let tech = Technology::st_130nm();
        let kind = GateKind::ALL[kind_idx];
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx]).with_celsius(celsius);
        let mm = GateMismatch {
            nmos_dvth: Volts(mm_n),
            pmos_dvth: Volts(mm_p),
        };
        let t = shared_tabulated().gate_delay(kind, Volts(v), env, mm, 1.0).unwrap();
        let a = GateTiming::new(&tech).gate_delay_with(kind, Volts(v), env, mm, 1.0).unwrap();
        let rel = (t.value() - a.value()).abs() / a.value();
        prop_assert!(rel < ACCURACY_BUDGET, "rel err {rel:.2e}");
    }

    /// Same contract on total energy per cycle (and its closed-form
    /// dynamic part is exact, not merely within budget).
    fn tabulated_energy_within_budget(
        v in 0.14f64..1.24,
        corner_idx in 0usize..5,
        celsius in -35.0f64..120.0,
        activity in 0.02f64..1.0,
    ) {
        use subvt_device::tabulate::{DeviceEval, ACCURACY_BUDGET};
        let tech = Technology::st_130nm();
        let profile = CircuitProfile::ring_oscillator().with_activity(activity);
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx]).with_celsius(celsius);
        let t = shared_tabulated().energy(&profile, Volts(v), env).unwrap();
        let a = energy_per_cycle(&tech, &profile, Volts(v), env).unwrap();
        let rel = (t.total().value() - a.total().value()).abs() / a.total().value();
        prop_assert!(rel < ACCURACY_BUDGET, "rel err {rel:.2e}");
        prop_assert_eq!(t.dynamic.value().to_bits(), a.dynamic.value().to_bits());
    }

    /// Monotone interpolation is load-bearing: delay on the tabulated
    /// surface decreases with Vdd everywhere, exactly like the analytic
    /// model it shadows (Fritsch–Carlson slopes forbid the overshoot a
    /// natural cubic spline would introduce between nodes).
    fn tabulated_delay_monotone_in_vdd(
        v1 in 0.14f64..1.1,
        dv in 0.005f64..0.12,
        corner_idx in 0usize..5,
        celsius in -35.0f64..120.0,
    ) {
        use subvt_device::tabulate::DeviceEval;
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx]).with_celsius(celsius);
        let tab = shared_tabulated();
        let d_low = tab
            .gate_delay(GateKind::Inverter, Volts(v1), env, GateMismatch::NOMINAL, 1.0)
            .unwrap();
        let d_high = tab
            .gate_delay(GateKind::Inverter, Volts(v1 + dv), env, GateMismatch::NOMINAL, 1.0)
            .unwrap();
        prop_assert!(d_high.value() < d_low.value());
    }

    /// The fused pair query is pure restructuring: for both evaluator
    /// flavours it returns exactly the two delays the single-kind
    /// queries produce, bit for bit.
    fn pair_query_matches_single_queries(
        v in 0.14f64..1.24,
        corner_idx in 0usize..5,
        celsius in -35.0f64..120.0,
        mm_n in -0.05f64..0.05,
    ) {
        use subvt_device::tabulate::{AnalyticEval, DeviceEval};
        let tech = Technology::st_130nm();
        let env = Environment::at_corner(ProcessCorner::ALL[corner_idx]).with_celsius(celsius);
        let mm = GateMismatch {
            nmos_dvth: Volts(mm_n),
            pmos_dvth: Volts(-mm_n),
        };
        let kinds = (GateKind::Inverter, GateKind::Nor2);
        let analytic = AnalyticEval::new(&tech);
        for eval in [&analytic as &dyn DeviceEval, shared_tabulated()] {
            let (pa, pb) = eval.gate_delay_pair(kinds, Volts(v), env, mm, 1.0).unwrap();
            let sa = eval.gate_delay(kinds.0, Volts(v), env, mm, 1.0).unwrap();
            let sb = eval.gate_delay(kinds.1, Volts(v), env, mm, 1.0).unwrap();
            prop_assert_eq!(pa.value().to_bits(), sa.value().to_bits());
            prop_assert_eq!(pb.value().to_bits(), sb.value().to_bits());
        }
    }
}

/// Deterministic (non-harness) cross-crate property: controller energy
/// accounting is additive across runs of the same seed.
#[test]
fn controller_runs_are_deterministic() {
    let run = || {
        let tech = Technology::st_130nm();
        let rate =
            design_rate_controller(&AnalyticEval::new(&tech), Environment::nominal()).unwrap();
        let mut c = AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            Environment::nominal(),
            Environment::at_corner(ProcessCorner::Ss),
            GateMismatch::NOMINAL,
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
            ControllerConfig::default(),
        );
        let mut wl = WorkloadSource::new(WorkloadPattern::Poisson { mean: 0.4 });
        let mut rng = subvt_rng::StdRng::seed_from_u64(77);
        c.run(&mut wl, 400, &mut rng)
    };
    let a = run();
    let b = run();
    assert_eq!(a.operations, b.operations);
    assert_eq!(a.compensation, b.compensation);
    assert!((a.account.total().value() - b.account.total().value()).abs() < 1e-30);
}

properties! {
    cases = 24;

    /// System-level convergence: for any corner, moderate temperature
    /// and bounded die shift, the idle controller settles with a
    /// residual sensed deviation of at most one LSB within 60 cycles.
    fn controller_converges_for_any_reasonable_die(
        corner_idx in 0usize..5,
        celsius in 10.0f64..50.0,
        shift_mv in -20.0f64..20.0,
        seed in 0u64..1000,
    ) {
        let tech = Technology::st_130nm();
        let design = Environment::nominal();
        let rate = design_rate_controller(&AnalyticEval::new(&tech), design).unwrap();
        let actual = Environment::at_corner(ProcessCorner::ALL[corner_idx])
            .with_celsius(celsius);
        let die = GateMismatch {
            nmos_dvth: Volts::from_millivolts(shift_mv),
            pmos_dvth: Volts::from_millivolts(shift_mv),
        };
        let mut c = AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            design,
            actual,
            die,
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
            ControllerConfig::default(),
        );
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
        let mut rng = subvt_rng::StdRng::seed_from_u64(seed);
        c.run(&mut wl, 60, &mut rng);
        // Settled: the last 10 cycles' sensed deviations are all ≤ 1
        // LSB in magnitude (or sensing was budget-clamped, which pins
        // the word and therefore the deviation constant).
        let tail = &c.history()[50..];
        let max_dev = tail
            .iter()
            .filter_map(|r| r.deviation)
            .map(|d| d.abs())
            .max()
            .unwrap_or(0);
        let comp = c.rate_controller().compensation();
        let at_budget = comp.abs() >= 3;
        prop_assert!(
            max_dev <= 1 || at_budget,
            "residual deviation {max_dev} LSB with compensation {comp}"
        );
        // And compensation direction opposes the die shift when the
        // shift is big enough to see and temperature isn't partially
        // cancelling it (heat makes subthreshold logic faster, ~1 mV of
        // effective Vth per °C).
        // Only the symmetric typical corner gives a clean prediction
        // (asymmetric corners add their own delay offset).
        let thermal_mv = (celsius - 25.0) * 1.2;
        let net_mv = shift_mv - thermal_mv;
        if ProcessCorner::ALL[corner_idx] == ProcessCorner::Tt {
            if net_mv > 14.0 {
                prop_assert!(comp >= 1, "net-slow die ({net_mv:.1} mV), comp {comp}");
            }
            if net_mv < -14.0 {
                prop_assert!(comp <= -1, "net-fast die ({net_mv:.1} mV), comp {comp}");
            }
        }
    }
}
