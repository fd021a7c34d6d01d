//! Integration tests pinning every quantitative claim of the paper to
//! the reproduction, in paper order.

use subvt::prelude::*;
use subvt_tdc::PAPER_SIGNATURES;

fn tech() -> Technology {
    Technology::st_130nm()
}

fn analytic() -> SharedEval {
    EvalMode::Analytic.build(&tech())
}

// --- Abstract -------------------------------------------------------------

#[test]
fn abstract_dcdc_range_and_resolution() {
    // "generating an operating Vdd from 0V to 1.2V with a resolution of
    // 18.75mV"
    let mut ideal = IdealConverter::new();
    ideal.set_word(0);
    assert_eq!(ideal.vout(), Volts(0.0));
    ideal.set_word(63);
    assert!((ideal.vout().volts() - 1.18125).abs() < 1e-12);
    ideal.set_word(32);
    let low = ideal.vout();
    ideal.set_word(33);
    assert!((ideal.vout() - low).millivolts() - 18.75 < 1e-9);
}

#[test]
fn abstract_energy_improvement_up_to_55_percent() {
    // "energy improvement of upto 55% compared to when no controller is
    // employed"
    let report =
        savings_experiment(&Scenario::paper_worked_example(), &analytic()).expect("designable");
    let savings = report.savings_vs_fixed();
    assert!(
        (0.40..0.70).contains(&savings),
        "headline savings {:.1}%",
        savings * 100.0
    );
}

// --- Sec. II: process and temperature effects ------------------------------

#[test]
fn sec2_nmos_vth_by_corner() {
    // "The nmos Vth is 302mV for slow, 287mV for typical and 272mV for
    // a fast process corner"
    let t = tech();
    let base = t.nmos.vth0;
    assert!((base.millivolts() - 287.0).abs() < 1e-9);
    assert!(((base + ProcessCorner::Ss.nmos_vth_shift()).millivolts() - 302.0).abs() < 1e-9);
    assert!(((base + ProcessCorner::Ff.nmos_vth_shift()).millivolts() - 272.0).abs() < 1e-9);
}

#[test]
fn sec2_fig1_mep_loci() {
    // "the Vopt is 200mV at typical corner, 220mV at slow and 250mV for
    // FS corner. The minimum energy is 2.65fJ for typical, 1.7fJ for
    // slow and 2.42fJ for fast-slow."
    let t = AnalyticEval::new(&tech());
    let ring = CircuitProfile::ring_oscillator();
    let cases = [
        (ProcessCorner::Tt, 200.0, 2.65),
        (ProcessCorner::Ss, 220.0, 1.70),
        (ProcessCorner::Fs, 250.0, 2.42),
    ];
    for (corner, vopt_mv, e_fj) in cases {
        let mep = find_mep(
            &t,
            &ring,
            Environment::at_corner(corner),
            Volts(0.12),
            Volts(0.6),
        )
        .expect("range valid");
        assert!(
            (mep.vopt.millivolts() - vopt_mv).abs() < vopt_mv * 0.02,
            "{corner}: {} mV",
            mep.vopt.millivolts()
        );
        assert!(
            (mep.energy.femtos() - e_fj).abs() < e_fj * 0.02,
            "{corner}: {} fJ",
            mep.energy.femtos()
        );
    }
}

#[test]
fn sec2_vopt_and_energy_spread() {
    // "This shows a variation in the Vopt of 25% and the energy
    // variation of 55%."
    let t = AnalyticEval::new(&tech());
    let ring = CircuitProfile::ring_oscillator();
    let meps: Vec<_> = ProcessCorner::FIGURE_CORNERS
        .iter()
        .map(|&c| {
            find_mep(
                &t,
                &ring,
                Environment::at_corner(c),
                Volts(0.12),
                Volts(0.6),
            )
            .unwrap()
        })
        .collect();
    let vs: Vec<f64> = meps.iter().map(|m| m.vopt.volts()).collect();
    let es: Vec<f64> = meps.iter().map(|m| m.energy.value()).collect();
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::MAX, f64::min);
        let hi = v.iter().copied().fold(f64::MIN, f64::max);
        (hi - lo) / lo
    };
    assert!(
        (spread(&vs) - 0.25).abs() < 0.03,
        "Vopt spread {}",
        spread(&vs)
    );
    assert!(
        (spread(&es) - 0.55).abs() < 0.05,
        "E spread {}",
        spread(&es)
    );
}

#[test]
fn sec2_fig2_temperature_moves_the_mep_up() {
    // "the Vopt at T=25C is 200mV and at T=85C is 250mV" (our physics
    // gives 247 mV; the energy rises steeper than the paper's +25% —
    // see EXPERIMENTS.md).
    let t = AnalyticEval::new(&tech());
    let ring = CircuitProfile::ring_oscillator();
    let cold = find_mep(
        &t,
        &ring,
        Environment::at_celsius(25.0),
        Volts(0.12),
        Volts(0.9),
    )
    .unwrap();
    let hot = find_mep(
        &t,
        &ring,
        Environment::at_celsius(85.0),
        Volts(0.12),
        Volts(0.9),
    )
    .unwrap();
    assert!((cold.vopt.millivolts() - 200.0).abs() < 5.0);
    assert!((hot.vopt.millivolts() - 250.0).abs() < 10.0);
    assert!(hot.energy.value() > 1.2 * cold.energy.value());
}

#[test]
fn sec2a_published_inverter_delays() {
    // "the delay of inverter at full Vdd is 102 ps and at 0.6V is
    // 442 ps and at 200mV is 79430 ps"
    let t = tech();
    let timing = GateTiming::new(&t);
    let env = Environment::nominal();
    for (v, ps) in [(1.2, 102.0), (0.6, 442.0), (0.2, 79_430.0)] {
        let d = timing
            .gate_delay(GateKind::Inverter, Volts(v), env)
            .expect("in range");
        assert!(
            (d.picos() - ps).abs() / ps < 0.05,
            "{v} V: {} ps",
            d.picos()
        );
    }
}

#[test]
fn sec2a_table1_structure() {
    // Table I: clean signatures at high Vdd, 16 shifts per 200 mV,
    // double-latch at 0.6 V.
    let rows = reproduce_table1(&tech(), Environment::nominal()).expect("published voltages");
    assert_eq!(rows.len(), PAPER_SIGNATURES.len());
    let c12 = rows[0].code.expect("1.2 V decodes");
    let c10 = rows[1].code.expect("1.0 V decodes");
    assert!((14..=18).contains(&(c12 - c10)), "shift {}", c12 - c10);
    assert!(rows[3].bursts >= 2, "0.6 V must double-latch");
    assert_eq!(rows[3].code, None);
}

// --- Sec. III: the controller blocks ---------------------------------------

#[test]
fn sec3_word_to_voltage_examples() {
    // "a 6-bit value '001111' will mean the desired output from DC-DC
    // will be 15 × 18.75 ≈ 282mV" and "a digital word '19' ... gets
    // translated to 19 × 18.75 ≈ 356mV".
    assert!((word_voltage(0b001111).millivolts() - 281.25).abs() < 1e-9);
    assert!((word_voltage(19).millivolts() - 356.25).abs() < 1e-9);
}

#[test]
fn sec3_comparator_encoding() {
    // "less than ('01') or equal to ('10') or greater than ('11')"
    let cmp = MagnitudeComparator::new();
    assert_eq!(cmp.compare(10, 19).to_bits(), 0b01);
    assert_eq!(cmp.compare(19, 19).to_bits(), 0b10);
    assert_eq!(cmp.compare(25, 19).to_bits(), 0b11);
}

#[test]
fn sec3_pwm_duty_ratio() {
    // "PWM controller generates the modulated signal with a duty ratio
    // of N/2^6=64"
    let mut pwm = PwmGenerator::new(6);
    pwm.load_duty(40);
    let mut high = 0;
    for _ in 0..64 {
        if pwm.tick().0.is_high() {
            high += 1;
        }
    }
    assert_eq!(high, 40);
}

// --- Sec. IV: system validation --------------------------------------------

#[test]
fn sec4_system_timing() {
    // "The operational frequency of the clock is 64 MHz and the system
    // cycle is 1 MHz (64 MHz/2^6)"
    let c = DcDcConverter::new(ConverterParams::default(), Box::new(NoLoad));
    assert!((c.system_cycle().value() - 1e-6).abs() < 1e-12);
}

#[test]
fn sec4_fig6_voltage_steps() {
    // Fig. 6: 350 mV initial, step to 220 mV, step to 880 mV.
    let result = run_transient(
        ConverterParams::default(),
        Box::new(NoLoad),
        &fig6_schedule(),
    );
    let settled: Vec<f64> = result
        .segments
        .iter()
        .map(|s| s.settled.millivolts())
        .collect();
    assert!((settled[0] - 356.25).abs() < 10.0, "{settled:?}");
    assert!((settled[1] - 225.0).abs() < 10.0, "{settled:?}");
    assert!((settled[2] - 881.25).abs() < 10.0, "{settled:?}");
}

#[test]
fn sec4_one_bit_correction_to_the_slow_mep() {
    // "because of the 1-bit shift the corrected value will be
    // ~200+18.75 = 218.75 which is the optimal voltage for MEP for the
    // slow process" — within 2 system-cycle confirmation.
    let report =
        savings_experiment(&Scenario::paper_worked_example(), &analytic()).expect("designable");
    assert_eq!(report.compensated.compensation, 1, "the 1-bit LUT shift");
    // Idle voltage after correction ≈ 218.75 mV ≈ the SS MEP (220 mV).
    let idle_mv = report.compensated.mean_vout.millivolts();
    assert!(
        (215.0..235.0).contains(&idle_mv),
        "corrected idle supply {idle_mv} mV"
    );
}

#[test]
fn sec4_controller_works_with_the_fir_load() {
    // "We have also examined the capability when the load is a 9-tap
    // FIR filter. It is observed that the proposed controller behaving
    // as expected."
    let t = tech();
    let fir = FirFilter::lowpass_9tap();
    let rate = RateController::design(
        &AnalyticEval::new(&t),
        &fir,
        Environment::nominal(),
        &[
            (8, subvt_device::units::Hertz(200e3)),
            (32, subvt_device::units::Hertz(2e6)),
        ],
    )
    .expect("designable");
    let mut controller = AdaptiveController::new(
        t,
        fir,
        rate,
        Environment::nominal(),
        Environment::at_corner(ProcessCorner::Ss),
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );
    let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 1 });
    let mut rng = subvt_rng::StdRng::seed_from_u64(5);
    let summary = controller.run(&mut wl, 500, &mut rng);
    assert_eq!(summary.dropped, 0);
    assert!(summary.compensation >= 1, "slow die sensed on the FIR too");
}
