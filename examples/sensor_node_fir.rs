//! A scavenging-powered sensor node running the paper's second load: the
//! 9-tap subthreshold FIR filter (paper ref. [4]).
//!
//! A noisy sine wave arrives in bursts (the sensor wakes, samples,
//! sleeps); the adaptive controller rides the queue, dropping to the
//! FIR's minimum-energy point between bursts. The example checks the
//! filter really filters — output noise must shrink — while the
//! controller really saves energy vs a fixed-supply design.
//!
//! ```bash
//! cargo run --example sensor_node_fir
//! ```

use subvt::prelude::*;
use subvt_device::units::Hertz;
use subvt_rng::Rng;
use subvt_rng::StdRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::st_130nm();
    let design_env = Environment::nominal();
    let mut rng = StdRng::seed_from_u64(99);

    // --- The DSP itself: filter a noisy tone, measure noise rejection.
    let mut fir = FirFilter::lowpass_9tap();
    let q15 = f64::from(subvt_loads::Q15);
    let samples: Vec<i32> = (0..512)
        .map(|i| {
            let t = f64::from(i);
            let tone = (t * 0.05 * std::f64::consts::TAU).sin() * 0.4;
            let noise =
                (t * 0.45 * std::f64::consts::TAU).sin() * 0.3 + (rng.gen::<f64>() - 0.5) * 0.1;
            ((tone + noise) * q15) as i32
        })
        .collect();
    let filtered = fir.filter(&samples);
    let rms = |v: &[i32]| {
        (v.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>() / v.len() as f64).sqrt()
    };
    // High-frequency content estimate: first difference RMS.
    let hf = |v: &[i32]| {
        let d: Vec<i32> = v.windows(2).map(|w| w[1] - w[0]).collect();
        rms(&d)
    };
    println!(
        "FIR: input HF content {:.0}, output HF content {:.0} (lower = cleaner)",
        hf(&samples),
        hf(&filtered[16..])
    );

    // --- The controller driving the FIR as its load.
    let fir_load = FirFilter::lowpass_9tap();
    let eval = AnalyticEval::new(&tech);
    let fir_mep = find_mep(
        &eval,
        fir_load.profile(),
        design_env,
        Volts(0.12),
        Volts(0.6),
    )?;
    println!(
        "FIR MEP at TT: {:.0} mV, {:.2} fJ/sample",
        fir_mep.vopt.millivolts(),
        fir_mep.energy.femtos()
    );

    let rate = RateController::design(
        &eval,
        &fir_load,
        design_env,
        &[(8, Hertz(200e3)), (16, Hertz(1e6)), (32, Hertz(5e6))],
    )?;

    // Bursty sampling: 4 samples/cycle for 20 cycles, then 180 idle.
    let workload = WorkloadPattern::Burst {
        busy_rate: 4,
        busy_cycles: 20,
        idle_cycles: 180,
    };

    let run = |policy: SupplyPolicy| -> RunSummary {
        let mut controller = AdaptiveController::new(
            tech.clone(),
            FirFilter::lowpass_9tap(),
            rate.clone(),
            design_env,
            Environment::at_corner(ProcessCorner::Ss), // slow silicon
            GateMismatch::NOMINAL,
            policy,
            SupplyKind::Ideal,
            ControllerConfig::default(),
        );
        let mut source = WorkloadSource::new(workload.clone());
        let mut wl_rng = StdRng::seed_from_u64(7);
        controller.run(&mut source, 3_000, &mut wl_rng)
    };

    let adaptive = run(SupplyPolicy::AdaptiveCompensated);
    let fixed = run(SupplyPolicy::FixedWord(24)); // design-time safe supply

    println!(
        "adaptive: {} samples, mean Vdd {:.0} mV, LUT shift {:+}, {:.1} pJ total",
        adaptive.operations,
        adaptive.mean_vout.millivolts(),
        adaptive.compensation,
        adaptive.account.total().value() * 1e12,
    );
    println!(
        "fixed:    {} samples, Vdd 450 mV, {:.1} pJ total",
        fixed.operations,
        fixed.account.total().value() * 1e12,
    );
    println!(
        "energy saved by the controller: {:.0}%",
        adaptive.account.savings_vs(&fixed.account) * 100.0
    );
    Ok(())
}
