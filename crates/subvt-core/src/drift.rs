//! Runtime environment drift: the controller re-adapting as the die
//! heats, cools, or a voltage island's corner-like aging shift arrives
//! mid-run.
//!
//! The paper's Sec. IV validates a single static shift (designed at
//! TT, operated slow). This module exercises the dynamic version: the
//! environment changes *while the controller runs*, and the only way
//! it can know is through its own TDC signature.

use subvt_rng::Rng;

use subvt_device::mosfet::Environment;
use subvt_loads::load::CircuitLoad;
use subvt_loads::workload::WorkloadSource;

use crate::controller::{AdaptiveController, CycleRecord};

/// An environment schedule: `(starting_cycle, environment)` segments in
/// ascending cycle order.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    segments: Vec<(u64, Environment)>,
}

impl DriftSchedule {
    /// Builds a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, does not start at cycle 0, or is
    /// not strictly ascending.
    pub fn new(segments: Vec<(u64, Environment)>) -> DriftSchedule {
        assert!(!segments.is_empty(), "need at least one segment");
        assert_eq!(segments[0].0, 0, "schedule must start at cycle 0");
        assert!(
            segments.windows(2).all(|w| w[0].0 < w[1].0),
            "segment starts must be strictly ascending"
        );
        DriftSchedule { segments }
    }

    /// A heat ramp: nominal, then progressively hotter plateaus.
    pub fn heat_ramp(cycles_per_step: u64) -> DriftSchedule {
        DriftSchedule::new(vec![
            (0, Environment::at_celsius(25.0)),
            (cycles_per_step, Environment::at_celsius(55.0)),
            (2 * cycles_per_step, Environment::at_celsius(85.0)),
            (3 * cycles_per_step, Environment::at_celsius(55.0)),
            (4 * cycles_per_step, Environment::at_celsius(25.0)),
        ])
    }

    /// Environment in force at a cycle.
    pub fn environment_at(&self, cycle: u64) -> Environment {
        let idx = self
            .segments
            .partition_point(|&(start, _)| start <= cycle)
            .saturating_sub(1);
        self.segments[idx].1
    }

    /// The segments.
    pub fn segments(&self) -> &[(u64, Environment)] {
        &self.segments
    }
}

/// Result of a drift run: the full history plus per-segment
/// compensation states.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftResult {
    /// Per-cycle records.
    pub history: Vec<CycleRecord>,
    /// `(segment start cycle, compensation at segment end)` pairs.
    pub segment_compensation: Vec<(u64, i16)>,
}

/// Runs `controller` for `cycles`, switching its hidden environment per
/// `schedule`, and records how the compensation tracks.
pub fn run_with_drift<L: CircuitLoad, R: Rng + ?Sized>(
    controller: &mut AdaptiveController<L>,
    schedule: &DriftSchedule,
    workload: &mut WorkloadSource,
    cycles: u64,
    rng: &mut R,
) -> DriftResult {
    let mut segment_compensation = Vec::new();
    let mut current = schedule.environment_at(0);
    controller.set_actual_env(current);
    let mut segment_start = 0u64;
    let mut history = Vec::with_capacity(cycles as usize);

    for cycle in 0..cycles {
        let env = schedule.environment_at(cycle);
        if env != current {
            segment_compensation.push((segment_start, controller.rate_controller().compensation()));
            current = env;
            segment_start = cycle;
            controller.set_actual_env(env);
        }
        let arrivals = workload.next_arrivals(rng);
        history.push(controller.step(arrivals));
    }
    segment_compensation.push((segment_start, controller.rate_controller().compensation()));

    DriftResult {
        history,
        segment_compensation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, SupplyKind, SupplyPolicy};
    use crate::experiment::design_rate_controller;
    use subvt_device::corner::ProcessCorner;
    use subvt_device::delay::GateMismatch;
    use subvt_device::tabulate::AnalyticEval;
    use subvt_device::technology::Technology;
    use subvt_loads::ring_oscillator::RingOscillator;
    use subvt_loads::workload::WorkloadPattern;
    use subvt_rng::StdRng;

    fn controller() -> AdaptiveController<RingOscillator> {
        let tech = Technology::st_130nm();
        let design = Environment::nominal();
        let rate = design_rate_controller(&AnalyticEval::new(&tech), design).expect("designable");
        AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            design,
            design,
            GateMismatch::NOMINAL,
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
            ControllerConfig::default(),
        )
    }

    #[test]
    fn schedule_lookup() {
        let s = DriftSchedule::heat_ramp(100);
        assert_eq!(s.environment_at(0).temperature.celsius().round(), 25.0);
        assert_eq!(s.environment_at(99).temperature.celsius().round(), 25.0);
        assert_eq!(s.environment_at(100).temperature.celsius().round(), 55.0);
        assert_eq!(s.environment_at(250).temperature.celsius().round(), 85.0);
        assert_eq!(s.environment_at(10_000).temperature.celsius().round(), 25.0);
        assert_eq!(s.segments().len(), 5);
    }

    #[test]
    #[should_panic(expected = "start at cycle 0")]
    fn schedule_must_start_at_zero() {
        let _ = DriftSchedule::new(vec![(5, Environment::nominal())]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn schedule_must_ascend() {
        let _ = DriftSchedule::new(vec![
            (0, Environment::nominal()),
            (0, Environment::at_celsius(85.0)),
        ]);
    }

    #[test]
    fn corner_step_is_tracked_and_released() {
        // Nominal → slow → nominal: compensation should rise then fall
        // back, all discovered through the sensor.
        let schedule = DriftSchedule::new(vec![
            (0, Environment::nominal()),
            (50, Environment::at_corner(ProcessCorner::Ss)),
            (150, Environment::nominal()),
        ]);
        let mut c = controller();
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
        let mut rng = StdRng::seed_from_u64(0);
        let r = run_with_drift(&mut c, &schedule, &mut wl, 250, &mut rng);

        assert_eq!(r.segment_compensation.len(), 3);
        let (_, comp_nominal) = r.segment_compensation[0];
        let (_, comp_slow) = r.segment_compensation[1];
        let (_, comp_back) = r.segment_compensation[2];
        assert_eq!(comp_nominal, 0);
        assert!((1..=2).contains(&comp_slow), "slow segment: {comp_slow}");
        assert_eq!(comp_back, 0, "compensation released on return");
    }

    #[test]
    fn heat_ramp_pulls_compensation_down_then_back() {
        let schedule = DriftSchedule::heat_ramp(80);
        let mut c = controller();
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 0 });
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_with_drift(&mut c, &schedule, &mut wl, 400, &mut rng);

        let comps: Vec<i16> = r.segment_compensation.iter().map(|&(_, c)| c).collect();
        // Hot plateaus read "fast" → negative compensation (bounded by
        // the ±3 budget), releasing as it cools.
        assert!(comps[2] < 0, "85 °C plateau: {comps:?}");
        assert!(
            comps[4] > comps[2],
            "cooling must release compensation: {comps:?}"
        );
    }

    #[test]
    fn history_covers_every_cycle() {
        let schedule = DriftSchedule::heat_ramp(10);
        let mut c = controller();
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 1 });
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_with_drift(&mut c, &schedule, &mut wl, 60, &mut rng);
        assert_eq!(r.history.len(), 60);
        assert!(r
            .history
            .iter()
            .enumerate()
            .all(|(i, rec)| rec.cycle == i as u64));
    }
}
