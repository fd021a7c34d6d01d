//! Memo accounting of a lane energy query, in a process of its own
//! (the device-model counters are process-global, so exact deltas
//! need a single-test binary).
//!
//! `CachedEval::energy_multi` must leave the counters exactly where
//! the sequential scalar loop of `CachedEval::energy` calls leaves
//! them: the same analytic or interpolated evaluations, the same cache
//! hits — for a lane with repeated keys, supplies below the floor and
//! keys already in the memo.

use subvt_device::energy::{CircuitProfile, EnergyBreakdown};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, CachedEval, DeviceEval, TabulatedEval};
use subvt_device::technology::Technology;
use subvt_device::units::Volts;
use subvt_device::MetricsSnapshot;

/// Runs `lane` through a fresh memo pre-seeded with `seeded`, as one
/// lane query or as the scalar loop, and returns the counter delta of
/// that query alone together with its answers.
fn run(
    inner: &dyn DeviceEval,
    seeded: &[Volts],
    lane: &[Volts],
    as_lane: bool,
) -> (MetricsSnapshot, Vec<Option<EnergyBreakdown>>) {
    let profile = CircuitProfile::ring_oscillator();
    let env = Environment::nominal();
    let cached = CachedEval::new(inner);
    for &v in seeded {
        cached.energy(&profile, v, env).unwrap();
    }
    let before = MetricsSnapshot::snapshot();
    let out = if as_lane {
        let mut out = vec![None; lane.len()];
        cached.energy_multi(&profile, lane, env, &mut out);
        out
    } else {
        lane.iter()
            .map(|&v| cached.energy(&profile, v, env).ok())
            .collect()
    };
    (MetricsSnapshot::snapshot().since(&before), out)
}

#[test]
fn cached_energy_lane_counts_like_the_scalar_loop() {
    let tech = Technology::st_130nm();
    let below = Volts(tech.min_vdd.volts() - 1e-3);
    let seeded = [Volts(0.2), Volts(0.25)];
    let lane = [
        Volts(0.2), // seeded: hit
        Volts(0.31),
        below,
        Volts(0.31), // earlier in the lane, `Ok`: hit
        below,       // earlier in the lane, an error: never a hit
        Volts(0.25), // seeded: hit
        Volts(0.22),
        Volts(0.2),  // seeded: hit
        Volts(0.31), // hit
        Volts(0.05),
    ];
    let analytic = AnalyticEval::new(&tech);
    let tabulated = TabulatedEval::new(&tech);
    let inners: [&dyn DeviceEval; 2] = [&analytic, &tabulated];
    for inner in inners {
        let (lane_delta, lane_out) = run(inner, &seeded, &lane, true);
        let (scalar_delta, scalar_out) = run(inner, &seeded, &lane, false);
        assert_eq!(lane_out, scalar_out, "{inner:?}");
        assert_eq!(lane_delta, scalar_delta, "{inner:?}");
        assert_eq!(scalar_delta.cache_hits, 5, "{inner:?}");
    }
    // The analytic leg priced exactly the two fresh in-range keys, each
    // `energy_per_cycle` timing one gate delay.
    let (delta, _) = run(&analytic, &seeded, &lane, true);
    assert_eq!(
        (delta.analytic_delay_evals, delta.analytic_energy_evals),
        (2, 2)
    );
}
