//! Failure injection: stuck bits, metastable sensors, load transients,
//! flaky measurements and overload bursts — the system must degrade
//! gracefully, never diverge.

use subvt::prelude::*;
use subvt_dcdc::ConstantLoad;
use subvt_device::units::Amps;
use subvt_digital::encoder::QuantizerWord;
use subvt_digital::voter::MedianVoter;
use subvt_rng::Rng;
use subvt_rng::StdRng;
use subvt_tdc::MetastabilityModel;

#[test]
fn single_stuck_low_stage_is_repaired_by_bubble_tolerance() {
    // A manufacturing defect: one quantizer flip-flop stuck at 0 in the
    // middle of the burst. The bubble-tolerant encoder must still
    // decode within one LSB of the true edge.
    for stuck in 3..30u32 {
        let true_run = 32u32;
        let bits = ((1u64 << true_run) - 1) & !(1 << stuck);
        let w = QuantizerWord::new(64, bits);
        let code = w
            .encode_bubble_tolerant()
            .expect("single stuck bit must not kill the measurement");
        assert_eq!(code, true_run, "stuck stage {stuck}");
    }
}

#[test]
fn stuck_high_stage_beyond_the_burst_is_detected_not_misread() {
    // A stage stuck at 1 beyond the edge creates a second burst: the
    // encoder must flag it rather than silently return a wrong code.
    let bits = ((1u64 << 20) - 1) | (1 << 45);
    let w = QuantizerWord::new(64, bits);
    assert!(w.encode().is_err());
    assert!(w.encode_bubble_tolerant().is_err());
}

#[test]
fn metastable_sensor_with_voting_converges_to_the_clean_code() {
    // Repeated noisy measurements through the median voter recover the
    // ideal code with high probability even with a wide aperture.
    let cell = Seconds::from_nanos(2.0);
    let clk = subvt_tdc::RefClock::square(Seconds(cell.value() * 256.0));
    let q = subvt_tdc::Quantizer::new(64, clk, Seconds(cell.value() * 31.5));
    let ideal = q.sample(cell).encode().expect("clean");
    let noisy = MetastabilityModel {
        aperture: Seconds::from_picos(300.0),
        tau: Seconds::from_picos(600.0),
    };
    let mut rng = StdRng::seed_from_u64(13);
    let mut voter = MedianVoter::new(5);
    let mut voted = Vec::new();
    for _ in 0..100 {
        let w = noisy.sample_word(&q, cell, &mut rng);
        if let Ok(code) = w.encode_bubble_tolerant() {
            if let Some(v) = voter.feed(code) {
                voted.push(v);
            }
        }
    }
    assert!(!voted.is_empty(), "voter produced nothing");
    let good = voted.iter().filter(|&&v| v.abs_diff(ideal) <= 1).count();
    assert!(
        good * 10 >= voted.len() * 9,
        "only {good}/{} votes within 1 LSB of {ideal}",
        voted.len()
    );
}

#[test]
fn flaky_deviation_stream_cannot_run_the_compensation_away() {
    // Pure measurement noise (random ±1) must produce almost no net
    // LUT movement thanks to the 2-cycle confirmation.
    let mut rng = StdRng::seed_from_u64(5);
    let mut loop_ = subvt_core::CompensationLoop::new(CompensationPolicy::default());
    for _ in 0..2_000 {
        let noise = *[-1i16, 0, 1].get(rng.gen_range(0..3)).unwrap();
        let _ = loop_.observe(noise);
    }
    assert!(
        loop_.applied_total().abs() <= 2,
        "noise walked the LUT to {}",
        loop_.applied_total()
    );
}

#[test]
fn converter_survives_a_100x_load_step() {
    let mut c = DcDcConverter::new(
        ConverterParams::default(),
        Box::new(ConstantLoad(Amps(20e-6))),
    );
    c.set_word(32);
    c.run_system_cycles(120);
    let before = c.vout().millivolts();
    assert!((before - 600.0).abs() < 5.0, "pre-step {before} mV");

    // Slam the load from 20 µA to 2 mA.
    c.set_load(Box::new(ConstantLoad(Amps(2e-3))));
    c.run_system_cycles(2);
    let during = c.vout().millivolts();
    assert!(during > 400.0, "transient collapse to {during} mV");
    c.run_system_cycles(60);
    let after = c.vout().millivolts();
    // Settles to the target minus the (real) IR drop of ~2 mA · 7 Ω.
    assert!(
        (after - (600.0 - 14.0)).abs() < 10.0,
        "post-step {after} mV"
    );
}

#[test]
fn controller_recovers_from_an_overload_burst() {
    use subvt_rng::StdRng;
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
    let mut rng = StdRng::seed_from_u64(3);

    // Calm traffic, then a 30-cycle flood far beyond capacity, then calm.
    let mut wl = WorkloadSource::new(WorkloadPattern::Schedule(
        std::iter::repeat_n(0, 100)
            .chain(std::iter::repeat_n(50, 30))
            .chain(std::iter::repeat_n(0, 300))
            .collect(),
    ));
    let summary = c.run(&mut wl, 430, &mut rng);

    // Losses happen during the flood (bounded by it), never after.
    assert!(summary.dropped > 0, "the flood must overflow");
    assert!(summary.dropped < 30 * 50, "losses bounded by the burst");
    assert_eq!(summary.backlog, 0, "queue fully drained after the burst");
    // The controller came back down to the MEP word afterwards.
    let last = c.history().last().unwrap();
    assert_eq!(last.word, 11, "did not return to idle word: {}", last.word);
    // And the flood did not poison the compensation.
    assert_eq!(summary.compensation, 0);
}

#[test]
fn sensor_on_a_dead_supply_reads_slow_not_garbage() {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let sensor = VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
    // The rail collapsed to 30 mV: below the functional floor.
    let dev = sensor
        .sense_with(
            &eval,
            19,
            Volts(0.03),
            Environment::nominal(),
            GateMismatch::NOMINAL,
        )
        .expect("a dead rail is a valid (extreme) measurement");
    assert_eq!(dev, -3, "dead rail must read extreme-slow");
}

#[test]
fn boot_retries_then_fails_rather_than_handing_over_a_bad_chip() {
    use subvt::prelude::{BootSequence, BootState};
    let tech = Technology::st_130nm();
    let sensor = VariationSensor::with_eval(
        &AnalyticEval::new(&tech),
        Environment::nominal(),
        SensorConfig::default(),
    );
    let mut converter =
        DcDcConverter::new(ConverterParams::default(), Box::new(subvt_dcdc::NoLoad));
    let mut boot = BootSequence::new(12, 8);
    // A catastrophically slow die (way beyond any corner).
    let broken = GateMismatch {
        nmos_dvth: Volts(0.12),
        pmos_dvth: Volts(0.12),
    };
    let state = boot
        .run(
            &mut converter,
            &sensor,
            &tech,
            Environment::nominal(),
            broken,
            500,
        )
        .expect("sensor path stays usable");
    assert_eq!(state, BootState::Failed);
    assert!(!boot.is_ready());
}

#[test]
fn out_of_domain_temperatures_are_typed_study_errors_not_panics() {
    use subvt_core::matrix::StudyMatrix;
    use subvt_core::study::StudyError;
    use subvt_device::SUPPORTED_CELSIUS;

    let is_range_error = |r: Result<(), StudyError>| matches!(r, Err(StudyError::Environment(e)) if !SUPPORTED_CELSIUS.contains(&e.celsius));
    for celsius in [-300.0, f64::NAN, 151.0] {
        let env = Environment::at_celsius(celsius);
        let study = StudyConfig::new(40, 1).env(env);
        let summary = study.try_run_summary().map(drop);
        assert!(
            is_range_error(summary),
            "summary at {celsius} °C: not a typed range error"
        );
        let faults = study.try_run_faults().map(drop);
        assert!(
            is_range_error(faults),
            "fault study at {celsius} °C: not a typed range error"
        );
        // One bad cell in an otherwise valid matrix fails the matrix.
        let matrix = StudyMatrix::new(StudyConfig::new(40, 1))
            .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
            .cell(SupplyBackendKind::Buck, env, None)
            .try_run()
            .map(drop);
        assert!(
            is_range_error(matrix),
            "matrix cell at {celsius} °C: not a typed range error"
        );
    }
    // The domain's edges still run.
    for celsius in [-55.0, 150.0] {
        let env = Environment::at_celsius(celsius);
        assert!(StudyConfig::new(8, 1).env(env).try_run_summary().is_ok());
    }
}

#[test]
fn invalid_fault_rates_are_typed_study_errors_not_worker_panics() {
    use subvt_core::matrix::StudyMatrix;
    use subvt_core::study::StudyError;

    for domain in ["tdc", "dcdc", "ctrl"] {
        for rate in [f64::NAN, -0.1, 1.5] {
            let mut plan = FaultPlan::uniform(0.02);
            match domain {
                "tdc" => plan.tdc_rate = rate,
                "dcdc" => plan.dcdc_rate = rate,
                _ => plan.ctrl_rate = rate,
            }
            let is_rate_error = |r: Result<(), StudyError>| {
                matches!(r, Err(StudyError::Faults(e))
                    if e.domain == domain && e.rate.to_bits() == rate.to_bits())
            };
            let study = StudyConfig::new(40, 1).faults(plan);
            assert!(
                is_rate_error(study.try_run_faults().map(drop)),
                "fault study with {domain} rate {rate}"
            );
            assert!(
                is_rate_error(study.try_run_summary().map(drop)),
                "summary with {domain} rate {rate}"
            );
            // One bad cell in an otherwise valid matrix fails the matrix.
            let matrix = StudyMatrix::new(StudyConfig::new(40, 1))
                .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
                .cell(
                    SupplyBackendKind::Buck,
                    Environment::nominal(),
                    Some(FaultPlan::uniform(0.02)),
                )
                .cell(SupplyBackendKind::Dldo, Environment::nominal(), Some(plan))
                .try_run()
                .map(drop);
            assert!(
                is_rate_error(matrix),
                "matrix cell with {domain} rate {rate}"
            );
            let err = study.try_run_faults().unwrap_err().to_string();
            assert!(
                err.contains(domain) && err.contains("not a probability"),
                "{err}"
            );
        }
    }
    // The range's edges still run.
    let mut edge = FaultPlan::uniform(0.0);
    edge.ctrl_rate = 1.0;
    assert!(StudyConfig::new(8, 1).faults(edge).try_run_faults().is_ok());
}

#[test]
#[should_panic(expected = "temperature NaN °C is outside the supported range")]
fn scalar_reference_rejects_a_nan_temperature_at_entry() {
    let _ = StudyConfig::new(4, 1)
        .env(Environment::at_celsius(f64::NAN))
        .run();
}

#[test]
#[should_panic(expected = "temperature 400 °C is outside the supported range")]
fn scalar_reference_rejects_400_celsius_at_entry() {
    let _ = StudyConfig::new(4, 1)
        .env(Environment::at_celsius(400.0))
        .run();
}
