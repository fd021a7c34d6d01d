//! Explore the minimum-energy-point landscape: energy-vs-voltage curves
//! across corners, temperatures and switching activities, with the MEP
//! marked on each — an interactive superset of the paper's Figs. 1-2.
//!
//! ```bash
//! cargo run --example mep_explorer [corner|temp|activity]
//! ```

use subvt::prelude::*;

fn sweep_and_report(
    eval: &dyn DeviceEval,
    profile: &CircuitProfile,
    env: Environment,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mep = find_mep(eval, profile, env, Volts(0.12), Volts(0.9))?;
    let curve = energy_sweep(eval, profile, env, Volts(0.12), Volts(0.6), 24);
    print!("{label:>14}: ");
    for point in &curve {
        // Tiny ASCII sparkline: one char per point, log-scaled.
        let e = point.total().femtos();
        let c = match e {
            e if e < mep.energy.femtos() * 1.05 => '_',
            e if e < mep.energy.femtos() * 1.5 => '.',
            e if e < mep.energy.femtos() * 3.0 => ':',
            e if e < mep.energy.femtos() * 8.0 => '|',
            _ => '^',
        };
        print!("{c}");
    }
    println!(
        "  MEP {:.0} mV / {:.2} fJ",
        mep.vopt.millivolts(),
        mep.energy.femtos()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());

    println!("Energy landscape, 120 mV → 600 mV left to right ('_' marks the MEP basin)\n");

    if which == "corner" || which == "all" {
        println!("By process corner (α = 0.1, 25 °C) — the paper's Fig. 1:");
        let ring = CircuitProfile::ring_oscillator();
        for corner in ProcessCorner::ALL {
            sweep_and_report(&eval, &ring, Environment::at_corner(corner), corner.name())?;
        }
        println!();
    }

    if which == "temp" || which == "all" {
        println!("By temperature (TT corner) — the paper's Fig. 2:");
        let ring = CircuitProfile::ring_oscillator();
        for celsius in [0.0, 25.0, 55.0, 85.0, 115.0] {
            sweep_and_report(
                &eval,
                &ring,
                Environment::at_celsius(celsius),
                &format!("{celsius:.0} °C"),
            )?;
        }
        println!();
    }

    if which == "activity" || which == "all" {
        println!(
            "By switching factor (TT, 25 °C) — why different computations need different Vdd:"
        );
        for activity in [0.02, 0.05, 0.1, 0.3, 0.6] {
            let profile = CircuitProfile::ring_oscillator().with_activity(activity);
            sweep_and_report(
                &eval,
                &profile,
                Environment::nominal(),
                &format!("α = {activity}"),
            )?;
        }
        println!();
        println!(
            "Busier circuits (higher α) push the MEP down: dynamic energy grows \
             relative to leakage — this is why the rate controller maps each \
             workload band to its own voltage word."
        );
    }
    Ok(())
}
