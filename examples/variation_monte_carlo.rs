//! Monte-Carlo yield study: how does the controller behave across a
//! population of virtual dies with sampled threshold variation?
//!
//! Prints a histogram of the LUT corrections the sensor settled on and
//! the spread of energy savings — the statistical version of the
//! paper's single SS-die worked example. The dies fan out across
//! worker threads via `subvt-exec` (`--jobs`/`SUBVT_JOBS`); results
//! are bit-identical for any thread count.
//!
//! ```bash
//! cargo run --release --example variation_monte_carlo
//! ```

use std::collections::BTreeMap;
use subvt::prelude::*;
use subvt_rng::{Rng, StdRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DIES: usize = 40;
    let model = VariationModel::st_130nm();
    let eval = EvalMode::Analytic.build(&Technology::st_130nm());
    let mut rng = StdRng::seed_from_u64(1234);

    // Each die owns a label-addressed stream forked off the root seed,
    // so rerunning a single die reproduces it exactly. Drawing the
    // fork seeds serially here keeps the population independent of how
    // the per-die experiments are scheduled below.
    let seeds: Vec<u64> = (0..DIES)
        .map(|die| rng.fork_seed(&format!("die-{die}")))
        .collect();

    let reports = par_map_indexed(&ExecConfig::from_env(), DIES, |die| {
        let mut die_rng = StdRng::seed_from_u64(seeds[die]);
        let variation = model.sample_die(&mut die_rng);
        let mut scenario = Scenario::paper_worked_example().with_actual_env(Environment::nominal());
        scenario.name = format!("die-{die}");
        scenario.die = variation.mean_gate();
        scenario.seed = 5_000 + die as u64;
        savings_experiment(&scenario, &eval)
    });

    let mut shift_histogram: BTreeMap<i16, usize> = BTreeMap::new();
    let mut savings = Vec::with_capacity(DIES);
    let mut uncorrected_excess = Vec::with_capacity(DIES);
    for report in reports {
        let report = report?;
        *shift_histogram
            .entry(report.compensated.compensation)
            .or_default() += 1;
        savings.push(report.savings_vs_fixed());
        uncorrected_excess.push(report.savings_vs_uncompensated());
    }

    println!("LUT correction across {DIES} sampled dies:");
    for (shift, count) in &shift_histogram {
        println!("  {shift:+} LSB: {}", "#".repeat(*count));
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);

    println!(
        "\nsavings vs fixed supply: mean {:.1}%, range {:.1}% .. {:.1}%",
        mean(&savings) * 100.0,
        min(&savings) * 100.0,
        max(&savings) * 100.0
    );
    println!(
        "savings attributable to compensation alone: mean {:.2}%, worst {:.2}%",
        mean(&uncorrected_excess) * 100.0,
        min(&uncorrected_excess) * 100.0
    );
    println!(
        "\n(On most near-typical dies no correction fires; the tails of the \
         distribution get the paper's ±1 LSB treatment.)"
    );
    Ok(())
}
