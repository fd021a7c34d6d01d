//! Ultra-dynamic voltage scaling by local voltage dithering — the
//! paper's reference \[12\] (Calhoun & Chandrakasan, JSSC'06).
//!
//! The 6-bit converter quantizes the supply to 18.75 mV steps; a target
//! between two steps can be *synthesized on average* by time-dithering
//! between the adjacent words. This module computes the optimal dither
//! and the energy it recovers relative to rounding to the nearest word
//! — the dynamic companion to the static code-width ablation.

use subvt_device::delay::SupplyRangeError;
use subvt_device::energy::CircuitProfile;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Joules, Volts};
use subvt_digital::lut::VoltageWord;
use subvt_tdc::sensor::word_voltage;

/// A dither schedule between two adjacent voltage words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DitherPlan {
    /// The lower word.
    pub low: VoltageWord,
    /// The upper word (`low + 1`).
    pub high: VoltageWord,
    /// Fraction of operations run at the upper word (0..=1).
    pub high_fraction: f64,
}

impl DitherPlan {
    /// Plans a dither for a target voltage: operations are split so
    /// the *throughput-weighted* average rate matches running exactly
    /// at `target` (Calhoun's rate-matching construction).
    ///
    /// Targets at or beyond the code range collapse to a single word.
    pub fn for_target(target: Volts) -> DitherPlan {
        let lsb = 0.01875;
        let idx = target.volts() / lsb;
        let low = idx.floor().clamp(0.0, 63.0) as VoltageWord;
        if f64::from(low) >= 63.0 || idx <= 0.0 {
            return DitherPlan {
                low: low.min(63),
                high: low.min(63),
                high_fraction: 0.0,
            };
        }
        DitherPlan {
            low,
            high: low + 1,
            high_fraction: (idx - f64::from(low)).clamp(0.0, 1.0),
        }
    }

    /// The time-averaged supply voltage of the plan.
    pub fn average_voltage(&self) -> Volts {
        let lo = word_voltage(self.low).volts();
        let hi = word_voltage(self.high).volts();
        Volts(lo + (hi - lo) * self.high_fraction)
    }

    /// Energy per operation under the dither on the analytic model of
    /// `tech`: the per-op average of the two operating points weighted
    /// by where the operations run.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] when either word is below the
    /// technology floor.
    pub fn energy_per_op(
        &self,
        tech: &Technology,
        profile: &CircuitProfile,
        env: Environment,
    ) -> Result<Joules, SupplyRangeError> {
        let eval = AnalyticEval::new(tech);
        let e_low = eval.energy(profile, word_voltage(self.low), env)?.total();
        if self.high_fraction <= 0.0 || self.low == self.high {
            return Ok(e_low);
        }
        let e_high = eval.energy(profile, word_voltage(self.high), env)?.total();
        Ok(Joules(
            e_low.value() * (1.0 - self.high_fraction) + e_high.value() * self.high_fraction,
        ))
    }
}

/// Compares dithering to round-up quantization for a target voltage.
///
/// The reference is the *throughput-safe* choice: a controller that
/// must sustain the rate implied by `target` has to round **up** to
/// the next word; rounding down would miss deadlines. Dithering
/// synthesizes the exact average, recovering most of that round-up
/// penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DitherComparison {
    /// The requested target.
    pub target: Volts,
    /// Energy per op when rounding up to the next word.
    pub rounded: Joules,
    /// Energy per op under the optimal dither.
    pub dithered: Joules,
    /// Energy per op if the converter had infinite resolution.
    pub exact: Joules,
}

impl DitherComparison {
    /// Fraction of the quantization penalty the dither recovers
    /// (1 = all of it; 0 = none; negative = dither made it worse).
    pub fn recovery(&self) -> f64 {
        let penalty = self.rounded.value() - self.exact.value();
        if penalty <= 0.0 {
            return 1.0;
        }
        (self.rounded.value() - self.dithered.value()) / penalty
    }
}

/// Evaluates dithering at a target voltage on the analytic model of
/// `tech`.
///
/// # Errors
///
/// Returns [`SupplyRangeError`] when the involved voltages are below
/// the technology floor.
pub fn compare_dither(
    tech: &Technology,
    profile: &CircuitProfile,
    env: Environment,
    target: Volts,
) -> Result<DitherComparison, SupplyRangeError> {
    let plan = DitherPlan::for_target(target);
    let ceil = ((target.volts() / 0.01875).ceil().clamp(0.0, 63.0)) as VoltageWord;
    let eval = AnalyticEval::new(tech);
    let rounded = eval.energy(profile, word_voltage(ceil), env)?.total();
    let dithered = plan.energy_per_op(tech, profile, env)?;
    let exact = eval.energy(profile, target, env)?.total();
    Ok(DitherComparison {
        target,
        rounded,
        dithered,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::energy::energy_per_cycle;

    fn fixture() -> (Technology, CircuitProfile, Environment) {
        (
            Technology::st_130nm(),
            CircuitProfile::ring_oscillator(),
            Environment::nominal(),
        )
    }

    #[test]
    fn plan_brackets_the_target() {
        let plan = DitherPlan::for_target(Volts(0.210));
        assert_eq!(plan.low, 11);
        assert_eq!(plan.high, 12);
        assert!((plan.average_voltage().volts() - 0.210).abs() < 1e-9);
    }

    #[test]
    fn on_grid_target_needs_no_dither() {
        let plan = DitherPlan::for_target(Volts(0.225));
        assert!((plan.average_voltage().millivolts() - 225.0).abs() < 1e-6);
        assert!(plan.high_fraction.abs() < 1e-9 || plan.high_fraction > 1.0 - 1e-9);
    }

    #[test]
    fn range_edges_collapse() {
        let top = DitherPlan::for_target(Volts(2.0));
        assert_eq!(top.low, top.high);
        let bottom = DitherPlan::for_target(Volts(-0.1));
        assert_eq!(bottom.low, 0);
        assert_eq!(bottom.high_fraction, 0.0);
    }

    #[test]
    fn dither_energy_interpolates_between_words() {
        let (tech, profile, env) = fixture();
        let plan = DitherPlan::for_target(Volts(0.215));
        let e = plan.energy_per_op(&tech, &profile, env).unwrap();
        let e_lo = energy_per_cycle(&tech, &profile, word_voltage(11), env)
            .unwrap()
            .total();
        let e_hi = energy_per_cycle(&tech, &profile, word_voltage(12), env)
            .unwrap()
            .total();
        assert!(e.value() >= e_lo.value().min(e_hi.value()));
        assert!(e.value() <= e_lo.value().max(e_hi.value()));
    }

    #[test]
    fn dither_recovers_quantization_penalty_off_grid() {
        // Worst case: the MEP sits exactly between two words.
        let (tech, profile, env) = fixture();
        let cmp = compare_dither(&tech, &profile, env, Volts(0.215_625)).unwrap();
        // The linear interpolation tracks the (locally convex) energy
        // curve closely; recovery should be large when rounding hurts.
        if cmp.rounded.value() > cmp.exact.value() * 1.001 {
            assert!(cmp.recovery() > 0.3, "recovery {}", cmp.recovery());
        }
        assert!(cmp.dithered.value() <= cmp.rounded.value() * 1.001);
    }

    #[test]
    fn dither_never_beats_round_up_penalty_above_the_mep() {
        // Above the MEP the energy curve rises, so the throughput-safe
        // round-up always costs at least as much as the interpolated
        // dither (convex-combination bound).
        // Start where both bracket words sit at/above the 200 mV MEP
        // (the first such target floors to word 11 = 206.25 mV).
        let (tech, profile, env) = fixture();
        for mv in (208..=400).step_by(7) {
            let cmp = compare_dither(&tech, &profile, env, Volts::from_millivolts(f64::from(mv)))
                .unwrap();
            assert!(
                cmp.dithered.value() <= cmp.rounded.value() * (1.0 + 1e-9),
                "{mv} mV: dither {} vs round-up {}",
                cmp.dithered.femtos(),
                cmp.rounded.femtos()
            );
        }
    }

    #[test]
    fn recovery_is_substantial_for_mid_step_targets_above_mep() {
        let (tech, profile, env) = fixture();
        let mut recoveries = Vec::new();
        for mv in [215.6, 234.4, 253.1, 271.9] {
            let cmp = compare_dither(&tech, &profile, env, Volts::from_millivolts(mv)).unwrap();
            recoveries.push(cmp.recovery());
        }
        let mean = recoveries.iter().sum::<f64>() / recoveries.len() as f64;
        assert!(mean > 0.4, "mean recovery {mean}: {recoveries:?}");
    }
}
