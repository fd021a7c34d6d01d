//! # subvt-core
//!
//! The variation resilient adaptive controller of Mishra, Al-Hashimi &
//! Zwolinski, *"Variation Resilient Adaptive Controller for
//! Subthreshold Circuits"*, DATE 2009 — the paper's primary
//! contribution, assembled from the substrate crates:
//!
//! * [`rate_controller`] — queue length → 6-bit voltage word via the
//!   designed LUT (idle band = the load's minimum-energy point);
//! * [`compensation`] — the TDC-signature-driven LUT correction loop;
//! * [`controller`] — the full system: FIFO + rate controller + TDC
//!   sensor + DC-DC converter + load, stepped in 1 µs system cycles,
//!   with per-cycle history and energy accounting;
//! * [`transient`] — the Fig. 6 closed-loop voltage-step reproduction
//!   on the switched converter;
//! * [`experiment`] — scenarios and the headline savings comparison
//!   (controller vs. fixed supply vs. uncompensated vs. oracle);
//! * [`energy_account`] — energy bookkeeping.
//!
//! ## Example
//!
//! Run the paper's worked example (typical-corner design on slow
//! silicon) and watch the controller find the true MEP:
//!
//! ```
//! use subvt_core::experiment::{savings_experiment, Scenario};
//! use subvt_device::tabulate::EvalMode;
//! use subvt_device::technology::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let eval = EvalMode::Analytic.build(&Technology::st_130nm());
//! let report = savings_experiment(&Scenario::paper_worked_example(), &eval)?;
//! println!(
//!     "controller saves {:.0}% vs a fixed supply; LUT corrected by {} LSB",
//!     100.0 * report.savings_vs_fixed(),
//!     report.compensated.compensation,
//! );
//! assert!(report.savings_vs_fixed() > 0.3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abb;
mod batch;
pub mod boot;
pub mod compensation;
pub mod controller;
pub mod dithering;
pub mod drift;
pub mod energy_account;
pub mod experiment;
pub mod fault_study;
pub mod idle_policy;
pub mod matrix;
pub mod overhead;
pub mod profile;
pub mod rate_controller;
pub mod study;
pub mod transient;
pub mod watchdog;
pub mod yield_study;

pub use abb::{AbbCompensator, AbbStep};
pub use boot::{BootSequence, BootState};
pub use compensation::{CompensationLoop, CompensationPolicy, SignatureDebounce};
pub use controller::{
    AdaptiveController, ControllerConfig, CycleRecord, RunSummary, SupplyKind, SupplyPolicy,
};
pub use dithering::{compare_dither, DitherComparison, DitherPlan};
pub use drift::{run_with_drift, DriftResult, DriftSchedule};
pub use energy_account::EnergyAccount;
pub use experiment::{
    design_rate_controller, fixed_baseline_word, run_scenario, savings_experiment, SavingsReport,
    Scenario,
};
pub use fault_study::{FaultDieOutcome, FaultStudySummary};
pub use idle_policy::{breakeven_retention, compare_idle_policies, IdlePolicyComparison};
pub use matrix::{CellSummary, MatrixCell, StudyMatrix};
pub use overhead::{overhead_per_cycle, ControllerInventory, NetSavings, OverheadBreakdown};
pub use profile::PhaseProfile;
pub use rate_controller::{DesignError, LutCheckpoint, RateController};
pub use study::{
    ArgError, FaultPlan, StudyArgs, StudyConfig, StudyError, SupplyBackendKind, DEFAULT_BATCH,
    STUDY_HELP,
};
pub use transient::{fig6_schedule, run_transient, SegmentSummary, TransientResult, TransientStep};
pub use watchdog::{RailWatchdog, WatchdogPolicy};
pub use yield_study::{DieOutcome, SupplySim, YieldReport, YieldSpec, YieldSummary};
