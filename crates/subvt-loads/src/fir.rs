//! The 9-tap subthreshold FIR filter load (the paper's reference \[4\],
//! Mishra & Al-Hashimi, PATMOS'08), used in Sec. IV to show the
//! controller working on a second, realistic load.
//!
//! The filter is functional — it really filters samples in Q15 fixed
//! point — and carries an electrical profile (gate count, logic depth,
//! switching factor) so the controller can reason about its energy and
//! timing like any other load.

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::energy::CircuitProfile;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::DeviceEval;
use subvt_device::technology::GateKind;
use subvt_device::units::{Seconds, Volts};

use crate::load::CircuitLoad;

/// Number of taps.
pub const TAPS: usize = 9;

/// Q15 fixed-point scale.
pub const Q15: i32 = 1 << 15;

/// A 9-tap direct-form FIR filter with Q15 coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    coefficients: [i32; TAPS],
    delay_line: [i32; TAPS],
    profile: CircuitProfile,
    samples_processed: u64,
}

impl FirFilter {
    /// A symmetric 9-tap low-pass filter (Hamming-windowed sinc,
    /// cutoff ≈ 0.2 f_s), quantized to Q15. Coefficients sum to ≈ 1.0.
    pub fn lowpass_9tap() -> FirFilter {
        // Symmetric; midpoint largest.
        let coefficients = [242, 1317, 3849, 6879, 8194, 6879, 3849, 1317, 242];
        FirFilter::with_coefficients(coefficients)
    }

    /// Builds a filter from raw Q15 coefficients.
    pub fn with_coefficients(coefficients: [i32; TAPS]) -> FirFilter {
        // Electrical profile of the PATMOS'08-style implementation:
        // nine 16×16 multipliers and an adder tree, ~2 400 gates,
        // multiplier + 4-level adder tree on the critical path.
        let profile = CircuitProfile {
            name: "fir-9tap".to_owned(),
            gate: GateKind::Nand2,
            gates: 2_400.0,
            activity: 0.15,
            depth: 42.0,
            cap_scale: 2.372_001,
            leak_scale: 1.099_502,
            corner_cal: CircuitProfile::ring_oscillator().corner_cal,
        };
        FirFilter {
            coefficients,
            delay_line: [0; TAPS],
            profile,
            samples_processed: 0,
        }
    }

    /// The coefficient set.
    pub fn coefficients(&self) -> &[i32; TAPS] {
        &self.coefficients
    }

    /// Samples processed since construction or reset.
    pub fn samples_processed(&self) -> u64 {
        self.samples_processed
    }

    /// Clears the delay line.
    pub fn reset(&mut self) {
        self.delay_line = [0; TAPS];
    }

    /// Processes one Q15 input sample and returns the filtered output.
    pub fn process(&mut self, x: i32) -> i32 {
        self.delay_line.rotate_right(1);
        self.delay_line[0] = x;
        let acc: i64 = self
            .delay_line
            .iter()
            .zip(&self.coefficients)
            .map(|(&s, &c)| i64::from(s) * i64::from(c))
            .sum();
        self.samples_processed += 1;
        (acc >> 15) as i32
    }

    /// Filters a whole block.
    pub fn filter(&mut self, input: &[i32]) -> Vec<i32> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// DC gain of the coefficient set in Q15 (sum of taps).
    pub fn dc_gain_q15(&self) -> i32 {
        self.coefficients.iter().sum()
    }
}

impl CircuitLoad for FirFilter {
    fn name(&self) -> &str {
        "fir-9tap"
    }

    fn profile(&self) -> &CircuitProfile {
        &self.profile
    }

    fn critical_path(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        let t = eval.gate_delay(GateKind::Nand2, vdd, env, mismatch, 1.0)?;
        Ok(t * self.profile.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::tabulate::AnalyticEval;
    use subvt_device::technology::Technology;

    #[test]
    fn dc_gain_is_near_unity() {
        let f = FirFilter::lowpass_9tap();
        let gain = f.dc_gain_q15();
        assert!((gain - Q15).abs() < Q15 / 50, "DC gain {gain} vs {Q15}");
    }

    #[test]
    fn impulse_response_replays_coefficients() {
        let mut f = FirFilter::lowpass_9tap();
        let mut input = vec![0i32; TAPS + 2];
        input[0] = Q15; // unit impulse at full scale
        let out = f.filter(&input);
        for (i, &c) in f.coefficients().iter().enumerate() {
            assert_eq!(out[i], c, "tap {i}");
        }
        assert_eq!(out[TAPS], 0);
    }

    #[test]
    fn step_response_settles_to_dc_gain() {
        let mut f = FirFilter::lowpass_9tap();
        let out = f.filter(&[Q15; 20]);
        let settled = out[TAPS + 1];
        assert!(
            (settled - f.dc_gain_q15()).abs() <= TAPS as i32,
            "settled {settled}"
        );
    }

    #[test]
    fn lowpass_attenuates_nyquist() {
        // Alternating ±full-scale (Nyquist tone) must come out tiny.
        let mut f = FirFilter::lowpass_9tap();
        let input: Vec<i32> = (0..64)
            .map(|i| if i % 2 == 0 { Q15 } else { -Q15 })
            .collect();
        let out = f.filter(&input);
        let tail_peak = out[16..].iter().map(|v| v.abs()).max().unwrap();
        assert!(tail_peak < Q15 / 20, "Nyquist leakage {tail_peak}");
    }

    #[test]
    fn linearity() {
        let mut f1 = FirFilter::lowpass_9tap();
        let mut f2 = FirFilter::lowpass_9tap();
        let x: Vec<i32> = (0..32).map(|i| (i * 321) % 4096).collect();
        let y1 = f1.filter(&x);
        let x2: Vec<i32> = x.iter().map(|v| v * 2).collect();
        let y2 = f2.filter(&x2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((b - 2 * a).abs() <= 2, "rounding beyond tolerance");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = FirFilter::lowpass_9tap();
        f.filter(&[Q15; 5]);
        f.reset();
        let out = f.process(0);
        assert_eq!(out, 0);
        assert_eq!(f.samples_processed(), 6);
    }

    #[test]
    fn fir_is_slower_than_ring_per_operation() {
        // Deeper pipeline: longer critical path at the same voltage.
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let env = Environment::nominal();
        let fir = FirFilter::lowpass_9tap();
        let ring = crate::ring_oscillator::RingOscillator::with_stages(9, 0.1);
        let v = Volts(0.3);
        let cp_fir = fir
            .critical_path(&tech, v, env, GateMismatch::NOMINAL)
            .unwrap();
        let cp_ring = ring
            .critical_path(&tech, v, env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(cp_fir.value() > cp_ring.value());
    }

    #[test]
    fn fir_has_its_own_subthreshold_mep() {
        use subvt_device::mep::find_mep;
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let fir = FirFilter::lowpass_9tap();
        let mep = find_mep(
            &tech,
            fir.profile(),
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        assert!(
            mep.vopt.volts() < 0.287,
            "FIR MEP should be subthreshold, got {}",
            mep.vopt
        );
    }
}
