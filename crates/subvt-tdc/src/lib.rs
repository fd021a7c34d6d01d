//! # subvt-tdc
//!
//! The time-to-digital-converter variation sensor of *"Variation
//! Resilient Adaptive Controller for Subthreshold Circuits"*
//! (DATE 2009) — the paper's key novel component.
//!
//! * [`delay_line`] — the INV-NOR delay replica running at the measured
//!   supply, analytic and structural (gate-level netlist) forms;
//! * [`quantizer`] — the D-flip-flop sampling bank that snapshots the
//!   Ref_clk waveform along the line, including the double-latch
//!   failure at fast Ref_clk;
//! * [`sensor`] — the calibrated variation sensor: per-voltage-word
//!   signature tables and deviation extraction in 18.75 mV LSBs;
//! * [`table1`] — reproduction of the paper's Table I signatures;
//! * [`pulse`] — the Eq. 1 pulse-shrinking model (β sizing);
//! * [`metastability`] — flip-flop upset modelling and its interaction
//!   with bubble-tolerant encoding.
//!
//! ## Example
//!
//! Sense a slow die the way the paper's worked example does (TT-signed
//! controller, slower silicon, word 19 ≈ 356 mV):
//!
//! ```
//! use subvt_device::corner::ProcessCorner;
//! use subvt_device::delay::GateMismatch;
//! use subvt_device::mosfet::Environment;
//! use subvt_device::tabulate::AnalyticEval;
//! use subvt_device::technology::Technology;
//! use subvt_tdc::sensor::{word_voltage, SensorConfig, VariationSensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let eval = AnalyticEval::new(&Technology::st_130nm());
//! let sensor = VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
//! let deviation = sensor.sense_with(
//!     &eval,
//!     19,
//!     word_voltage(19),
//!     Environment::at_corner(ProcessCorner::Ss),
//!     GateMismatch::NOMINAL,
//! )?;
//! assert!(deviation < 0); // the die reads "slow" → compensate upward
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counter_method;
pub mod delay_line;
pub mod metastability;
pub mod pulse;
pub mod quantizer;
pub mod sensor;
pub mod table1;
pub mod vernier;

pub use counter_method::CounterSensor;
pub use delay_line::{CellKind, DelayLine};
pub use metastability::MetastabilityModel;
pub use pulse::{PulseShrinkRing, PulseShrinkStage, ShrinkResult};
pub use quantizer::{Quantizer, RefClock};
pub use sensor::{voltage_word, word_voltage, SenseError, SensorConfig, VariationSensor};
pub use table1::{reproduce_table1, Table1Row, PAPER_SIGNATURES, SAMPLE_ANCHOR};
pub use vernier::{VernierReading, VernierTdc};
