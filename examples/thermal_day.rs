//! A day in the life of a deployed sensor node: ambient temperature
//! cycles (night → noon sun → night) while the controller runs, and
//! everything it does is exported as waveforms.
//!
//! ```bash
//! cargo run --release --example thermal_day > thermal_day.vcd
//! gtkwave thermal_day.vcd   # or any VCD viewer
//! ```
//!
//! The human-readable summary goes to stderr; the VCD to stdout.

use subvt::prelude::*;
use subvt_core::drift::{run_with_drift, DriftSchedule};
use subvt_rng::StdRng;
use subvt_sim::vcd::VcdWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::st_130nm();
    let design = Environment::nominal();
    let rate = design_rate_controller(&AnalyticEval::new(&tech), design)?;

    // The silicon is a slightly slow die (sampled once, fixed).
    let die = GateMismatch {
        nmos_dvth: Volts(0.012),
        pmos_dvth: Volts(0.012),
    };

    let mut controller = AdaptiveController::new(
        tech,
        RingOscillator::paper_circuit(),
        rate,
        design,
        design,
        die,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Ideal,
        ControllerConfig::default(),
    );

    // A compressed "day": each segment is 150 system cycles (150 µs of
    // simulated time standing in for hours of wall clock).
    let day = DriftSchedule::new(vec![
        (0, Environment::at_celsius(10.0)),   // pre-dawn
        (150, Environment::at_celsius(25.0)), // morning
        (300, Environment::at_celsius(45.0)), // noon sun on the enclosure
        (450, Environment::at_celsius(25.0)), // evening
        (600, Environment::at_celsius(10.0)), // night
    ]);

    // Periodic sensing bursts (the node wakes, samples, sleeps).
    let workload = WorkloadPattern::Burst {
        busy_rate: 2,
        busy_cycles: 5,
        idle_cycles: 45,
    };
    let mut source = WorkloadSource::new(workload);
    let mut rng = StdRng::seed_from_u64(2026);

    let result = run_with_drift(&mut controller, &day, &mut source, 750, &mut rng);

    eprintln!("thermal day on a +12 mV die:");
    for (i, &(start, comp)) in result.segment_compensation.iter().enumerate() {
        let env = day.segments()[i].1;
        eprintln!(
            "  from {start:>3} µs at {:>4.0} °C → compensation {comp:+} LSB",
            env.temperature.celsius()
        );
    }
    let summary = controller.summary();
    eprintln!(
        "  {} ops, {} dropped, {:.1} pJ total, mean supply {:.0} mV",
        summary.operations,
        summary.dropped,
        summary.account.total().value() * 1e12,
        summary.mean_vout.millivolts()
    );

    // Waveforms: the controller's own history as VCD real lanes.
    let traces = controller.history_traces();
    let mut vcd = VcdWriter::new("thermal_day");
    for i in 0.. {
        match traces.trace(i) {
            Some(t) => {
                vcd.add_analog(t.clone());
            }
            None => break,
        }
    }
    vcd.write(std::io::stdout().lock())?;
    Ok(())
}
