//! # subvt — variation resilient adaptive controller for subthreshold circuits
//!
//! A full Rust reproduction of **Mishra, Al-Hashimi & Zwolinski,
//! *"Variation Resilient Adaptive Controller for Subthreshold
//! Circuits"*, DATE 2009**: an all-digital adaptive supply-voltage
//! controller that senses process/temperature variation with a
//! time-to-digital-converter (TDC) delay replica and retargets an
//! 18.75 mV-resolution DC-DC converter so subthreshold logic keeps
//! operating at its minimum-energy point (MEP).
//!
//! This facade crate re-exports the whole stack:
//!
//! | Crate | Role |
//! |---|---|
//! | [`subvt_device`] | 0.13 µm EKV device models, delay/energy physics, MEP analysis, Monte-Carlo variation |
//! | [`subvt_sim`] | mixed-mode kernel: event-driven gates + RK4 analog ODE + traces |
//! | [`subvt_digital`] | RTL primitives: FIFO, counters, encoder, comparator, LUT, PWM |
//! | [`subvt_tdc`] | the novel TDC variation sensor (delay line, quantizer, signatures) |
//! | [`subvt_dcdc`] | the all-digital buck converter (power array, LC filter, PWM loop) |
//! | [`subvt_loads`] | ring-oscillator and 9-tap FIR loads, workload generators |
//! | [`subvt_exec`] | deterministic parallel execution engine + streaming statistics |
//! | [`subvt_core`] | the adaptive controller itself + experiments and baselines |
//!
//! ## Quickstart
//!
//! ```
//! use subvt::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Where is the minimum-energy point of the paper's ring oscillator?
//! let eval = EvalMode::Analytic.build(&Technology::st_130nm());
//! let ring = CircuitProfile::ring_oscillator();
//! let mep = find_mep(eval.as_ref(), &ring, Environment::nominal(), Volts(0.12), Volts(0.6))?;
//! assert!((mep.vopt.millivolts() - 200.0).abs() < 5.0); // paper: 200 mV at TT
//!
//! // Run the paper's worked example: TT-designed controller on slow silicon.
//! let report = savings_experiment(&Scenario::paper_worked_example(), &eval)?;
//! assert_eq!(report.compensated.compensation, 1); // the 1-LSB correction
//! assert!(report.savings_vs_fixed() > 0.3);       // "up to 55%" savings
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use subvt_core;
pub use subvt_dcdc;
pub use subvt_device;
pub use subvt_digital;
pub use subvt_exec;
pub use subvt_loads;
pub use subvt_regulators;
pub use subvt_rng;
pub use subvt_scenario;
pub use subvt_sim;
pub use subvt_tdc;

/// The most commonly used items across the stack, for glob import.
pub mod prelude {
    pub use subvt_core::{
        compare_dither, compare_idle_policies, design_rate_controller, fig6_schedule,
        overhead_per_cycle, run_transient, run_with_drift, savings_experiment, AbbCompensator,
        AdaptiveController, BootSequence, BootState, CompensationPolicy, ControllerConfig,
        ControllerInventory, DitherPlan, DriftSchedule, FaultPlan, NetSavings, RateController,
        RunSummary, SavingsReport, Scenario, StudyArgs, StudyConfig, SupplyBackendKind, SupplyKind,
        SupplyPolicy, SupplySim, YieldReport, YieldSpec, YieldSummary,
    };
    pub use subvt_dcdc::{
        ConverterParams, DcDcConverter, IdealConverter, ModulationMode, NoLoad, ResistiveLoad,
    };
    pub use subvt_device::{
        energy_per_cycle, energy_sweep, find_mep, sizing_sweep, AnalyticEval, BodyBias, BodyEffect,
        CircuitProfile, DeviceEval, DieVariation, Environment, EvalMode, GateKind, GateMismatch,
        GateTiming, Joules, ProcessCorner, Seconds, SharedEval, Technology, VariationModel, Volts,
    };
    pub use subvt_digital::{Comparison, Fifo, MagnitudeComparator, PwmGenerator, VoltageLut};
    pub use subvt_exec::{
        par_fold_chunked, par_map_indexed, CancelToken, ExecConfig, QuantileSketch, Welford,
    };
    pub use subvt_loads::{
        CircuitLoad, FirFilter, RingOscillator, RippleCarryAdder, WorkloadPattern, WorkloadSource,
    };
    pub use subvt_tdc::{
        reproduce_table1, voltage_word, word_voltage, CounterSensor, DelayLine, Quantizer,
        RefClock, SensorConfig, VariationSensor, VernierTdc,
    };
}
