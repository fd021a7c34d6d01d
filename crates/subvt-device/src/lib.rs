//! # subvt-device
//!
//! Analytic 0.13 µm CMOS technology model underlying the `subvt`
//! reproduction of *"Variation Resilient Adaptive Controller for
//! Subthreshold Circuits"* (Mishra, Al-Hashimi, Zwolinski — DATE 2009).
//!
//! The crate substitutes for the SPICE + foundry-model layer of the
//! paper's mixed-mode validation flow. It provides:
//!
//! * [`mosfet`] — an EKV-style MOSFET current model covering deep
//!   subthreshold through strong inversion, with process corners,
//!   temperature and local mismatch;
//! * [`delay`] — the CV/I gate-delay metric, calibrated to the paper's
//!   published inverter delays (Fig. 3);
//! * [`energy`] / [`mep`] — the per-operation energy decomposition and
//!   minimum-energy-point analysis (Figs. 1-2);
//! * [`calibration`] — fitting routines that pin the analytic models to
//!   the paper's published silicon numbers;
//! * [`variation`] — Monte-Carlo global + local threshold variation;
//! * [`tabulate`] / [`metrics`] — precomputed monotone-cubic device
//!   surfaces behind the [`tabulate::DeviceEval`] trait (the
//!   Monte-Carlo hot path), plus the counters that measure them;
//! * [`units`] / [`constants`] / [`corner`] / [`technology`] /
//!   [`optimize`] — supporting vocabulary.
//!
//! ## Example
//!
//! Locate the minimum-energy point of the paper's ring-oscillator case
//! study at the typical corner:
//!
//! ```
//! use subvt_device::energy::CircuitProfile;
//! use subvt_device::mep::find_mep;
//! use subvt_device::mosfet::Environment;
//! use subvt_device::tabulate::AnalyticEval;
//! use subvt_device::technology::Technology;
//! use subvt_device::units::Volts;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let eval = AnalyticEval::new(&Technology::st_130nm());
//! let ring = CircuitProfile::ring_oscillator_uncalibrated();
//! let mep = find_mep(&eval, &ring, Environment::nominal(), Volts(0.12), Volts(0.9))?;
//! println!("Vopt = {:.0} mV, E = {:.2} fJ", mep.vopt.millivolts(), mep.energy.femtos());
//! assert!(mep.vopt.volts() < 0.287); // below threshold
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod body_bias;
pub mod calibration;
pub mod constants;
pub mod corner;
pub mod delay;
pub mod energy;
pub mod mep;
pub mod metrics;
pub mod mosfet;
pub mod noise_margin;
pub mod optimize;
pub mod sizing;
pub mod tabulate;
pub mod technology;
pub mod units;
pub mod variation;

pub use body_bias::{BodyBias, BodyEffect};
pub use corner::ProcessCorner;
pub use delay::{GateMismatch, GateTiming, SupplyRangeError};
pub use energy::{energy_per_cycle, CircuitProfile, EnergyBreakdown};
pub use mep::{energy_sweep, find_mep, MepPoint};
pub use metrics::MetricsSnapshot;
pub use mosfet::{
    check_celsius, DeviceType, Environment, MosfetParams, TemperatureRangeError, SUPPORTED_CELSIUS,
};
pub use noise_margin::{minimum_operational_vdd, static_noise_margin, switching_threshold};
pub use sizing::{sizing_sweep, SizingPoint};
pub use tabulate::{
    AnalyticEval, AxisSpec, CachedEval, DeviceEval, EvalMode, GridSpec, SharedEval, TabulatedEval,
    ACCURACY_BUDGET,
};
pub use technology::{GateKind, Technology};
pub use units::{Amps, Farads, Hertz, Joules, Kelvin, Ohms, Seconds, Volts, Watts};
pub use variation::{DieVariation, VariationModel};
