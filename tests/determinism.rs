//! Bit-level reproducibility of the stochastic stack: the same seed
//! must give the same simulation, down to the last f64 bit, run after
//! run. This is the contract the in-tree RNG exists to provide — every
//! figure in EXPERIMENTS.md is re-derivable from its seed.

use subvt::prelude::*;
use subvt_bench::savings::savings_rows;
use subvt_dcdc::SolverMode;
use subvt_device::tabulate::{EvalMode, ACCURACY_BUDGET};
use subvt_rng::{Rng, StdRng};
use subvt_sim::analog::{IntegrationMethod, OdeSystem};
use subvt_sim::kernel::{run_cosim, CoSimConfig, TickOutcome};
use subvt_sim::time::{SimDuration, SimTime};

/// Runs the paper controller end to end and returns its full per-cycle
/// history (word, vout, deviation, shift, ops — the voltage trajectory
/// and everything that shaped it).
fn controller_history(seed: u64) -> Vec<subvt_core::CycleRecord> {
    let tech = Technology::st_130nm();
    let rate = design_rate_controller(&AnalyticEval::new(&tech), Environment::nominal()).unwrap();
    let mut c = AdaptiveController::new(
        tech,
        RingOscillator::paper_circuit(),
        rate,
        Environment::nominal(),
        Environment::at_corner(ProcessCorner::Ss),
        GateMismatch::NOMINAL,
        SupplyPolicy::AdaptiveCompensated,
        SupplyKind::Switched,
        ControllerConfig::default(),
    );
    let mut wl = WorkloadSource::new(WorkloadPattern::Poisson { mean: 0.4 });
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = c.run(&mut wl, 300, &mut rng);
    c.history().to_vec()
}

#[test]
fn controller_voltage_trajectory_is_bit_identical_across_runs() {
    let a = controller_history(2009);
    let b = controller_history(2009);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        // Compare the voltage in bit space: `==` on f64 would also
        // accept -0.0 vs 0.0 or hide a NaN.
        assert_eq!(ra.vout.volts().to_bits(), rb.vout.volts().to_bits());
        assert_eq!(ra, rb, "cycle {} diverged", ra.cycle);
    }
    // And a different seed must actually change the run (the workload
    // draws are live, not ignored).
    let c = controller_history(2010);
    assert!(
        a.iter().zip(&c).any(|(ra, rc)| ra != rc),
        "seed change had no effect on the trajectory"
    );
}

/// A supply filter driven by a digitally chosen target — the smallest
/// mixed-mode system that exercises the kernel with RNG in the loop.
struct NoisyRc {
    target: f64,
}

impl OdeSystem for NoisyRc {
    fn dim(&self) -> usize {
        1
    }
    fn derivatives(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = (self.target - y[0]) / 1e-6;
    }
}

fn cosim_trace(seed: u64) -> (Vec<u64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = NoisyRc { target: 0.0 };
    let config = CoSimConfig {
        clock_period: SimDuration::from_nanos(100),
        substeps: 8,
        method: IntegrationMethod::Rk4,
        stop_at: SimTime::ZERO + SimDuration::from_micros(20),
    };
    let mut trace = Vec::new();
    let (y, stats) = run_cosim(&mut sys, &[0.3], config, |tick, _t, y, sys| {
        // Each tick retargets from its own forked stream, like the
        // controller's per-cycle workload draws.
        let mut tick_rng = rng.fork(&format!("tick-{tick}"));
        sys.target = tick_rng.gen_range(0.2..1.1);
        trace.push(y[0].to_bits());
        TickOutcome::Continue
    });
    trace.push(y[0].to_bits());
    (trace, stats.ticks)
}

#[test]
fn sim_kernel_trajectory_is_bit_identical_across_runs() {
    let (ta, na) = cosim_trace(41);
    let (tb, nb) = cosim_trace(41);
    assert_eq!(na, nb);
    assert_eq!(ta, tb, "analog trajectory diverged between identical runs");
    let (tc, _) = cosim_trace(42);
    assert_ne!(ta, tc, "seed change had no effect on the kernel run");
}

/// The default study (paper spec, words 11/11) with workers from the
/// environment — what the removed `yield_study` entry point computed.
fn mc_yield(seed: u64, dies: usize) -> YieldReport {
    StudyConfig::new(dies, seed).run()
}

/// The rendered statistics of a Monte-Carlo yield run — byte-for-byte
/// what a report or plot script would consume.
fn mc_stats_text(report: &YieldReport) -> String {
    format!(
        "fixed={:.17e} adaptive={:.17e} dithered={:.17e} mean_energy={:.17e}",
        report.fixed_yield(),
        report.adaptive_yield(),
        report.dithered_yield(),
        report
            .mean_adaptive_energy()
            .map(|e| e.value())
            .unwrap_or(f64::NAN),
    )
}

#[test]
fn monte_carlo_energy_statistics_are_byte_identical_across_runs() {
    let a = mc_yield(77, 120);
    let b = mc_yield(77, 120);
    assert_eq!(a, b, "per-die outcomes diverged between identical runs");
    assert_eq!(
        mc_stats_text(&a).into_bytes(),
        mc_stats_text(&b).into_bytes()
    );
}

fn mc_yield_jobs(jobs: usize, seed: u64, dies: usize) -> YieldReport {
    StudyConfig::new(dies, seed)
        .exec(ExecConfig::with_jobs(jobs))
        .run()
}

#[test]
fn parallel_yield_study_is_bit_identical_to_the_serial_reference() {
    let reference = StudyConfig::new(120, 77).exec(ExecConfig::serial()).run();
    for jobs in [1, 2, 7] {
        let parallel = mc_yield_jobs(jobs, 77, 120);
        assert_eq!(
            reference, parallel,
            "yield study diverged from the serial reference at {jobs} jobs"
        );
        assert_eq!(
            mc_stats_text(&reference).into_bytes(),
            mc_stats_text(&parallel).into_bytes()
        );
    }
}

#[test]
fn summary_only_yield_study_is_thread_count_invariant() {
    let report = mc_yield_jobs(1, 77, 120);
    let expected = report.summarize();
    for jobs in [1, 2, 7] {
        let summary = StudyConfig::new(120, 77)
            .exec(ExecConfig::with_jobs(jobs))
            .run_summary();
        assert_eq!(
            expected, summary,
            "summary-only path diverged from summarize() at {jobs} jobs"
        );
    }
}

fn mc_yield_eval(mode: EvalMode, jobs: usize, seed: u64, dies: usize) -> YieldReport {
    StudyConfig::new(dies, seed)
        .eval(mode.build(&Technology::st_130nm()))
        .exec(ExecConfig::with_jobs(jobs))
        .run()
}

#[test]
fn tabulated_yield_study_is_bit_identical_across_job_counts() {
    // The tabulated surfaces are a pure function of the technology and
    // grid, and interpolation is a pure function of the table — so the
    // PR 2 determinism contract must hold unchanged with tabulation on.
    let reference = StudyConfig::new(120, 77)
        .eval(EvalMode::Tabulated.build(&Technology::st_130nm()))
        .exec(ExecConfig::serial())
        .run();
    for jobs in [1, 2, 7] {
        let parallel = mc_yield_eval(EvalMode::Tabulated, jobs, 77, 120);
        assert_eq!(
            reference, parallel,
            "tabulated yield study diverged from the serial reference at {jobs} jobs"
        );
        assert_eq!(
            mc_stats_text(&reference).into_bytes(),
            mc_stats_text(&parallel).into_bytes()
        );
    }
}

#[test]
fn tabulated_yield_study_divergence_from_analytic_is_bounded() {
    // Interpolation error is ≤1% on delay/energy; through the
    // LSB-quantized settle loop that leaves almost every die's settled
    // word identical (18.75 mV steps dwarf sub-1% model error) and
    // keeps per-die adaptive energy within a small multiple of the
    // budget. Only dies whose rate/energy sits exactly on the spec
    // boundary may flip pass/fail.
    let analytic = mc_yield_eval(EvalMode::Analytic, 4, 77, 120);
    let tabulated = mc_yield_eval(EvalMode::Tabulated, 4, 77, 120);
    assert_eq!(analytic.dies.len(), tabulated.dies.len());
    let mut word_diffs = 0usize;
    let mut flips = 0usize;
    for (a, t) in analytic.dies.iter().zip(&tabulated.dies) {
        assert_eq!(
            a.corner_units.to_bits(),
            t.corner_units.to_bits(),
            "die sampling must not depend on the eval mode"
        );
        if a.adaptive_word != t.adaptive_word {
            word_diffs += 1;
            assert!(
                a.adaptive_word.abs_diff(t.adaptive_word) <= 1,
                "settled words diverged by more than one LSB: {} vs {}",
                a.adaptive_word,
                t.adaptive_word
            );
        } else {
            let rel = (t.adaptive_energy.value() - a.adaptive_energy.value()).abs()
                / a.adaptive_energy.value();
            assert!(
                rel < 3.0 * ACCURACY_BUDGET,
                "adaptive energy diverged by {rel:.2e} at equal words"
            );
        }
        if a.adaptive_passes != t.adaptive_passes {
            flips += 1;
        }
    }
    assert!(word_diffs <= 6, "{word_diffs} of 120 settled words moved");
    assert!(flips <= 6, "{flips} of 120 dies flipped pass/fail");
    let dy = (analytic.adaptive_yield() - tabulated.adaptive_yield()).abs();
    assert!(dy <= 0.05, "adaptive yield moved by {dy:.3}");
}

#[test]
fn regulated_supply_yield_studies_are_bit_identical_across_job_counts() {
    // Every backend's table (per-word droop/ripple) is built serially
    // before the fan-out and only read by workers, so the
    // `subvt yield --supply {buck,dldo,dlr} --jobs N` contract is the
    // same as the ideal rail's: bit-identical to the serial reference
    // at any N — and a freshly built supply model must also reproduce
    // exactly (the table itself is deterministic, not just its use).
    for kind in [
        SupplyBackendKind::Buck,
        SupplyBackendKind::Dldo,
        SupplyBackendKind::Dlr,
    ] {
        let reference = StudyConfig::new(120, 77)
            .supply_backend(kind)
            .solver(SolverMode::ClosedForm)
            .exec(ExecConfig::serial())
            .run();
        for jobs in [2usize, 7] {
            let parallel = StudyConfig::new(120, 77)
                .supply_backend(kind)
                .solver(SolverMode::ClosedForm)
                .exec(ExecConfig::with_jobs(jobs))
                .run();
            assert_eq!(
                reference,
                parallel,
                "{} yield diverged from the serial reference at {jobs} jobs",
                kind.label()
            );
            assert_eq!(
                mc_stats_text(&reference).into_bytes(),
                mc_stats_text(&parallel).into_bytes()
            );
        }
        // The default solver is the closed form the reference names.
        let by_default = StudyConfig::new(120, 77).supply_backend(kind).run();
        assert_eq!(reference, by_default, "{} default solver", kind.label());
    }
}

#[test]
fn parallel_savings_rows_match_the_serial_reference() {
    let reference = savings_rows(
        &StudyConfig::new(24, 2026).exec(ExecConfig::serial()),
        EvalMode::Analytic,
    );
    for jobs in [1, 2, 7] {
        let rows = savings_rows(
            &StudyConfig::new(24, 2026).exec(ExecConfig::with_jobs(jobs)),
            EvalMode::Analytic,
        );
        assert_eq!(
            reference, rows,
            "savings MC diverged from the serial reference at {jobs} jobs"
        );
    }
}

#[test]
fn fault_study_is_bit_identical_across_job_counts() {
    // Fault injection adds a third stream (the per-die fault draws)
    // forked off each die's own generator, so the jobs-invariance
    // contract must survive it for both mitigation arms.
    for mitigation in [false, true] {
        let plan = FaultPlan::uniform(0.05).with_mitigation(mitigation);
        let reference = StudyConfig::new(60, 77)
            .faults(plan)
            .exec(ExecConfig::with_jobs(1))
            .run_faults();
        assert!(reference.faults_injected > 0, "the plan never fired");
        for jobs in [2usize, 7] {
            let parallel = StudyConfig::new(60, 77)
                .faults(plan)
                .exec(ExecConfig::with_jobs(jobs))
                .run_faults();
            assert_eq!(
                reference, parallel,
                "fault study (mitigation {mitigation}) diverged at {jobs} jobs"
            );
        }
    }
}

#[test]
fn zero_rate_fault_plan_is_byte_identical_to_no_plan() {
    // Arming a plan that never fires must not perturb a single bit of
    // the study: the fault stream is forked off the die stream *after*
    // every variation draw, and the degradation machinery is designed
    // to be exactly transparent on clean samples.
    let clean = StudyConfig::new(60, 77).run();
    for mitigation in [false, true] {
        let armed = StudyConfig::new(60, 77)
            .faults(FaultPlan::uniform(0.0).with_mitigation(mitigation))
            .run();
        assert_eq!(
            clean, armed,
            "a zero-rate plan (mitigation {mitigation}) changed the study"
        );
    }
}

#[test]
fn forked_die_streams_make_mc_prefixes_stable() {
    // Because every die draws from its own label-addressed stream,
    // growing the population must not perturb the dies already
    // sampled: run 40 dies and 120 dies, the first 40 outcomes agree.
    let small = mc_yield(77, 40);
    let large = mc_yield(77, 120);
    assert_eq!(small.dies.as_slice(), &large.dies[..40]);
}
