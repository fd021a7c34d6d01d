//! Reproduction of the paper's Table I: "Supply voltage and quantizer
//! output".
//!
//! The paper feeds a 14 ns Ref_clk into the delay line and prints the
//! raw quantizer words at 1.2, 1.0, 0.8 and 0.6 V. The published hex
//! strings depend on an unpublished phase (the replica length ahead of
//! the quantizer and which clock edge samples), so the absolute
//! patterns are not derivable from the paper text; the *structure* is:
//!
//! * a single contiguous burst at high supplies whose edge moves ~16
//!   stages per 200 mV around 1.0-1.2 V (= 12.5 mV per shift);
//! * at 0.6 V the line window (64 × 442 ps ≈ 28 ns) spans two Ref_clk
//!   periods, so two pulses are latched at once and the code is
//!   unreliable — the paper's "data being latched twice".
//!
//! [`SAMPLE_ANCHOR`] is the free phase parameter, chosen so the
//! 1.2 V → 1.0 V edge shift lands on the paper's 16 stages.

use subvt_device::delay::SupplyRangeError;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::AnalyticEval;
use subvt_device::technology::Technology;
use subvt_device::units::{Seconds, Volts};
use subvt_digital::encoder::QuantizerWord;

use crate::delay_line::{CellKind, DelayLine};
use crate::quantizer::{Quantizer, RefClock};

/// The sampling anchor reproducing the paper's 16-shift sensitivity
/// between 1.2 V and 1.0 V with the 14 ns Ref_clk.
pub const SAMPLE_ANCHOR: Seconds = Seconds(6.07e-9);

/// The supply voltages of the published table.
pub const TABLE1_VOLTAGES: [Volts; 4] = [Volts(1.2), Volts(1.0), Volts(0.8), Volts(0.6)];

/// The paper's published hex signatures, for side-by-side reporting.
pub const PAPER_SIGNATURES: [(&str, &str); 4] = [
    ("1.2V", "FE00 0000 0000 0000"),
    ("1.0V", "FFFF FE00 0000 0000"),
    ("0.8V", "01FF FFFF FF00 0000"),
    ("0.6V", "000F FFE0 001F FFC0"),
];

/// One reproduced row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Supply voltage of the measurement.
    pub vdd: Volts,
    /// Per-stage cell delay at this supply.
    pub cell_delay: Seconds,
    /// Raw 64-bit quantizer word.
    pub word: QuantizerWord,
    /// Decoded edge position, or `None` when unreliable.
    pub code: Option<u32>,
    /// Number of bursts in the word (>1 = double-latched).
    pub bursts: u32,
}

impl Table1Row {
    /// The word formatted as the paper's table formats it.
    pub fn hex(&self) -> String {
        self.word.to_table_hex()
    }
}

/// Regenerates Table I with the calibrated technology model.
///
/// # Errors
///
/// Returns [`SupplyRangeError`] if a requested voltage is below the
/// technology floor (never the case for the published voltages).
pub fn reproduce_table1(
    tech: &Technology,
    env: Environment,
) -> Result<Vec<Table1Row>, SupplyRangeError> {
    let line = DelayLine::new(64, CellKind::Inverter);
    let quantizer = Quantizer::new(64, RefClock::paper_14ns(), SAMPLE_ANCHOR);
    let eval = AnalyticEval::new(tech);
    TABLE1_VOLTAGES
        .iter()
        .map(|&vdd| {
            let cell_delay = line.cell_delay_with(&eval, vdd, env)?;
            let word = quantizer.sample(cell_delay);
            Ok(Table1Row {
                vdd,
                cell_delay,
                code: word.encode().ok(),
                bursts: word.burst_count(),
                word,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Table1Row> {
        reproduce_table1(&Technology::st_130nm(), Environment::nominal()).expect("in range")
    }

    #[test]
    fn high_voltage_rows_are_single_burst() {
        let rows = rows();
        assert_eq!(rows[0].bursts, 1, "1.2 V: {}", rows[0].hex());
        assert_eq!(rows[1].bursts, 1, "1.0 V: {}", rows[1].hex());
        assert!(rows[0].code.is_some());
        assert!(rows[1].code.is_some());
    }

    #[test]
    fn sixteen_shifts_from_12_to_10_volts() {
        let rows = rows();
        let c12 = rows[0].code.unwrap();
        let c10 = rows[1].code.unwrap();
        let shift = c12 - c10;
        assert!(
            (14..=18).contains(&shift),
            "expected ~16 shifts (12.5 mV each), got {shift}"
        );
    }

    #[test]
    fn point_six_volts_is_double_latched() {
        let rows = rows();
        let row06 = &rows[3];
        assert!(row06.bursts >= 2, "0.6 V word: {}", row06.hex());
        assert_eq!(row06.code, None, "0.6 V must be unreliable");
    }

    #[test]
    fn window_spans_two_periods_at_point_six() {
        // The physical reason for the double latch: 64 stages × 442 ps
        // ≈ 28 ns ≈ two 14 ns periods.
        let rows = rows();
        let span = rows[3].cell_delay.value() * 64.0;
        let periods = span / 14e-9;
        assert!((1.8..2.4).contains(&periods), "window = {periods} periods");
    }

    #[test]
    fn hex_formatting_matches_table_style() {
        for row in rows() {
            let hex = row.hex();
            assert_eq!(hex.len(), 19, "grouped 16 hex digits: {hex}");
            assert_eq!(hex.matches(' ').count(), 3);
        }
    }

    #[test]
    fn codes_decrease_with_falling_supply() {
        // Slower cells → the edge reaches fewer stages by the sampling
        // instant.
        let rows = rows();
        let c12 = rows[0].code.unwrap();
        let c10 = rows[1].code.unwrap();
        let c08 = rows[2].code;
        assert!(c12 > c10);
        if let Some(c08) = c08 {
            assert!(c10 > c08 || rows[2].bursts > 1);
        }
    }
}
