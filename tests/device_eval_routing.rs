//! Every consumer evaluates through the `DeviceEval` it is handed: a
//! recording evaluator must see the loads' critical paths and the
//! sensor's calibration and senses. A consumer that quietly fell back
//! to its own analytic model would leave the recorder silent.

use std::sync::atomic::{AtomicUsize, Ordering};

use subvt::prelude::*;
use subvt_device::{EnergyBreakdown, SupplyRangeError};

/// Wraps the analytic model and counts the delay and energy queries
/// that reach it. The pair, lane and per-die-supply shapes keep the
/// trait defaults, so they are counted per query through `gate_delay`
/// and `energy`.
#[derive(Debug)]
struct Recorder {
    inner: AnalyticEval,
    delays: AtomicUsize,
    energies: AtomicUsize,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            inner: AnalyticEval::new(&Technology::st_130nm()),
            delays: AtomicUsize::new(0),
            energies: AtomicUsize::new(0),
        }
    }

    /// Delay queries since the last call.
    fn take_delays(&self) -> usize {
        self.delays.swap(0, Ordering::Relaxed)
    }
}

impl DeviceEval for Recorder {
    fn technology(&self) -> &Technology {
        self.inner.technology()
    }

    fn label(&self) -> &'static str {
        "recorder"
    }

    fn gate_delay(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<Seconds, SupplyRangeError> {
        self.delays.fetch_add(1, Ordering::Relaxed);
        self.inner.gate_delay(kind, vdd, env, mismatch, fanout)
    }

    fn energy(
        &self,
        profile: &CircuitProfile,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        self.energies.fetch_add(1, Ordering::Relaxed);
        self.inner.energy(profile, vdd, env)
    }
}

#[test]
fn every_load_times_its_critical_path_on_the_given_evaluator() {
    let rec = Recorder::new();
    let env = Environment::nominal();
    let loads: [(&str, &dyn CircuitLoad); 3] = [
        ("ring", &RingOscillator::paper_circuit()),
        ("fir", &FirFilter::lowpass_9tap()),
        ("adder", &RippleCarryAdder::new(16)),
    ];
    for (name, load) in loads {
        let direct = load
            .critical_path(&rec.inner, Volts(0.3), env, GateMismatch::NOMINAL)
            .unwrap();
        let recorded = load
            .critical_path(&rec, Volts(0.3), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(
            rec.take_delays() > 0,
            "{name}: critical path bypassed the evaluator"
        );
        assert_eq!(recorded, direct, "{name}");
        load.max_rate(&rec, Volts(0.3), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(
            rec.take_delays() > 0,
            "{name}: max rate bypassed the evaluator"
        );
        let mut lane = [Seconds(0.0); 3];
        load.critical_path_lane(
            &rec,
            Volts(0.3),
            env,
            &[GateMismatch::NOMINAL; 3],
            &mut lane,
        )
        .unwrap();
        assert!(
            rec.take_delays() >= 3,
            "{name}: lane bypassed the evaluator"
        );
        assert_eq!(lane, [direct; 3], "{name}");
        let before = rec.energies.load(Ordering::Relaxed);
        load.energy_per_op(&rec, Volts(0.3), env).unwrap();
        assert_eq!(
            rec.energies.load(Ordering::Relaxed),
            before + 1,
            "{name}: energy bypassed the evaluator"
        );
        // The per-die-supply lanes of the dithered check.
        let mut multi = [None; 2];
        load.critical_path_multi(
            &rec,
            &[Volts(0.3); 2],
            env,
            &[GateMismatch::NOMINAL; 2],
            &mut multi,
        );
        assert!(
            rec.take_delays() >= 2,
            "{name}: per-die-supply lane bypassed the evaluator"
        );
        assert_eq!(multi, [Some(direct); 2], "{name}");
        let before = rec.energies.load(Ordering::Relaxed);
        let mut energies = [None; 2];
        load.energy_per_op_multi(&rec, &[Volts(0.3); 2], env, &mut energies);
        assert_eq!(
            rec.energies.load(Ordering::Relaxed),
            before + 2,
            "{name}: per-die-supply energy lane bypassed the evaluator"
        );
    }
}

#[test]
fn the_sensor_calibrates_and_senses_on_the_given_evaluator() {
    let rec = Recorder::new();
    let sensor = VariationSensor::with_eval(&rec, Environment::nominal(), SensorConfig::default());
    assert!(rec.take_delays() > 0, "calibration bypassed the evaluator");
    let slow = Environment::at_corner(ProcessCorner::Ss);
    let dev = sensor
        .sense_with(&rec, 19, word_voltage(19), slow, GateMismatch::NOMINAL)
        .unwrap();
    assert!(rec.take_delays() > 0, "sense bypassed the evaluator");
    assert!(dev < 0, "a slow die reads slow, got {dev}");
    sensor
        .sense_fractional_with(&rec, 19, word_voltage(19), slow, GateMismatch::NOMINAL)
        .unwrap();
    assert!(
        rec.take_delays() > 0,
        "fractional sense bypassed the evaluator"
    );
    let mut lane = vec![Ok(0i16); 2];
    sensor
        .sense_lane_with(
            &rec,
            19,
            word_voltage(19),
            slow,
            &[GateMismatch::NOMINAL; 2],
            &mut lane,
        )
        .unwrap();
    assert!(rec.take_delays() > 0, "lane sense bypassed the evaluator");
    assert_eq!(lane, vec![Ok(dev); 2]);
}
