//! Calibration of the analytic models against the paper's published
//! silicon numbers.
//!
//! Two fits are provided:
//!
//! * [`fit_delay_model`] — fits the EKV slope factor, DIBL coefficient
//!   and drive scale so the inverter delay hits the paper's three
//!   published points (102 ps @ 1.2 V, 442 ps @ 0.6 V, 79 430 ps
//!   @ 0.2 V). The resulting constants are baked into
//!   [`Technology::st_130nm`] and the regression test here keeps them
//!   honest.
//! * [`fit_energy_profile`] — fits a circuit profile's capacitance and
//!   leakage scales so its minimum-energy point lands on a published
//!   (Vopt, Emin) target, used per process corner for Fig. 1 and per
//!   temperature for Fig. 2.

use crate::delay::GateTiming;
use crate::energy::CircuitProfile;
use crate::mep::find_mep;
use crate::mosfet::Environment;
use crate::optimize::{nelder_mead, NelderMeadOptions};
use crate::tabulate::AnalyticEval;
use crate::technology::{GateKind, Technology};
use crate::units::{Joules, Seconds, Volts};

/// One published delay point: the inverter delay at a supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// Supply voltage of the measurement.
    pub vdd: Volts,
    /// Published inverter delay.
    pub delay: Seconds,
}

/// The paper's three published inverter delays (Sec. II-A, typical
/// corner, 25 °C).
pub fn paper_delay_points() -> [DelayPoint; 3] {
    [
        DelayPoint {
            vdd: Volts(1.2),
            delay: Seconds::from_picos(102.0),
        },
        DelayPoint {
            vdd: Volts(0.6),
            delay: Seconds::from_picos(442.0),
        },
        DelayPoint {
            vdd: Volts(0.2),
            delay: Seconds::from_picos(79_430.0),
        },
    ]
}

/// Result of a delay-model fit.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayFit {
    /// Fitted subthreshold slope factor `n`.
    pub slope_factor: f64,
    /// Fitted DIBL coefficient.
    pub dibl: f64,
    /// Fitted nMOS specific current (A); the pMOS current keeps the
    /// technology's n/p ratio.
    pub nmos_spec: f64,
    /// Root-mean-square relative delay error over the target points.
    pub rms_relative_error: f64,
    /// Technology with the fit applied.
    pub technology: Technology,
}

fn apply_delay_params(tech: &mut Technology, slope: f64, dibl: f64, nmos_spec: f64) {
    let ratio = tech.pmos.spec_current.value() * tech.pmos.width_ratio
        / (tech.nmos.spec_current.value() * tech.nmos.width_ratio);
    tech.nmos.slope_factor = slope;
    tech.pmos.slope_factor = slope + 0.02;
    tech.nmos.dibl = dibl;
    tech.pmos.dibl = dibl;
    tech.nmos.spec_current = crate::units::Amps(nmos_spec);
    tech.pmos.spec_current =
        crate::units::Amps(nmos_spec * ratio * tech.nmos.width_ratio / tech.pmos.width_ratio);
}

/// Fits the delay model of `base` to the given delay points by
/// Nelder-Mead on the squared log-delay residuals.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn fit_delay_model(base: &Technology, points: &[DelayPoint]) -> DelayFit {
    assert!(!points.is_empty(), "need at least one delay target");
    let env = Environment::nominal();
    let objective = |x: &[f64]| -> f64 {
        let (slope, dibl, log_spec) = (x[0], x[1], x[2]);
        if !(1.0..=2.5).contains(&slope) || !(0.0..=0.3).contains(&dibl) {
            return f64::INFINITY;
        }
        let mut tech = base.clone();
        apply_delay_params(&mut tech, slope, dibl, log_spec.exp());
        let timing = GateTiming::new(&tech);
        points
            .iter()
            .map(
                |p| match timing.gate_delay(GateKind::Inverter, p.vdd, env) {
                    Ok(d) => {
                        let r = (d.value() / p.delay.value()).ln();
                        r * r
                    }
                    Err(_) => f64::INFINITY,
                },
            )
            .sum()
    };
    let start = [
        base.nmos.slope_factor,
        base.nmos.dibl.max(0.01),
        base.nmos.spec_current.value().ln(),
    ];
    let opts = NelderMeadOptions {
        max_evals: 40_000,
        f_tol: 1e-16,
        initial_scale: 0.15,
    };
    let m = nelder_mead(objective, &start, opts);

    let mut tech = base.clone();
    apply_delay_params(&mut tech, m.x[0], m.x[1], m.x[2].exp());
    let timing = GateTiming::new(&tech);
    let mse: f64 = points
        .iter()
        .map(|p| {
            let d = timing
                .gate_delay(GateKind::Inverter, p.vdd, env)
                .map(|d| d.value())
                .unwrap_or(f64::INFINITY);
            let r = d / p.delay.value() - 1.0;
            r * r
        })
        .sum::<f64>()
        / points.len() as f64;

    DelayFit {
        slope_factor: m.x[0],
        dibl: m.x[1],
        nmos_spec: m.x[2].exp(),
        rms_relative_error: mse.sqrt(),
        technology: tech,
    }
}

/// A published minimum-energy-point target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MepTarget {
    /// Published optimal supply voltage.
    pub vopt: Volts,
    /// Published energy per operation at the optimum.
    pub energy: Joules,
}

/// Result of an energy-profile fit.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyFit {
    /// Fitted dynamic-capacitance scale.
    pub cap_scale: f64,
    /// Fitted leakage scale.
    pub leak_scale: f64,
    /// Relative error on the fitted Vopt.
    pub vopt_error: f64,
    /// Relative error on the fitted minimum energy.
    pub energy_error: f64,
}

/// Fits `(cap_scale, leak_scale)` of `profile` so that its MEP in `env`
/// lands on `target`. The search range for the optimum voltage is
/// `[v_lo, v_hi]`.
///
/// The fit is exact up to solver tolerance because the two knobs map
/// one-to-one onto the two targets: the leak/cap ratio positions Vopt
/// and the absolute scale positions Emin.
pub fn fit_energy_profile(
    tech: &Technology,
    profile: &CircuitProfile,
    env: Environment,
    target: MepTarget,
    v_lo: Volts,
    v_hi: Volts,
) -> EnergyFit {
    let eval = AnalyticEval::new(tech);
    let objective = |x: &[f64]| -> f64 {
        let (log_cap, log_leak) = (x[0], x[1]);
        let mut p = profile.clone();
        p.cap_scale = log_cap.exp();
        p.leak_scale = log_leak.exp();
        match find_mep(&eval, &p, env, v_lo, v_hi) {
            Ok(mep) => {
                let ev = (mep.vopt.volts() / target.vopt.volts()).ln();
                let ee = (mep.energy.value() / target.energy.value()).ln();
                ev * ev + ee * ee
            }
            Err(_) => f64::INFINITY,
        }
    };
    let start = [profile.cap_scale.ln(), profile.leak_scale.ln()];
    let opts = NelderMeadOptions {
        max_evals: 20_000,
        f_tol: 1e-16,
        initial_scale: 0.4,
    };
    let m = nelder_mead(objective, &start, opts);

    let mut fitted = profile.clone();
    fitted.cap_scale = m.x[0].exp();
    fitted.leak_scale = m.x[1].exp();
    let mep = find_mep(&eval, &fitted, env, v_lo, v_hi).expect("fit produced invalid profile");
    EnergyFit {
        cap_scale: fitted.cap_scale,
        leak_scale: fitted.leak_scale,
        vopt_error: (mep.vopt.volts() - target.vopt.volts()).abs() / target.vopt.volts(),
        energy_error: (mep.energy.value() - target.energy.value()).abs() / target.energy.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::{CALIBRATED_DIBL, CALIBRATED_NMOS_SPEC, CALIBRATED_SLOPE_FACTOR};

    #[test]
    fn delay_fit_reaches_published_points() {
        let fit = fit_delay_model(&Technology::st_130nm(), &paper_delay_points());
        assert!(
            fit.rms_relative_error < 0.05,
            "rms error {}",
            fit.rms_relative_error
        );
    }

    #[test]
    fn baked_constants_match_a_fresh_fit() {
        // The constants hard-coded in Technology::st_130nm must agree
        // with what the calibrator reproduces from the paper's numbers.
        let fit = fit_delay_model(&Technology::st_130nm(), &paper_delay_points());
        assert!(
            (fit.slope_factor - CALIBRATED_SLOPE_FACTOR).abs() < 0.05,
            "slope {} vs baked {}",
            fit.slope_factor,
            CALIBRATED_SLOPE_FACTOR
        );
        assert!(
            (fit.dibl - CALIBRATED_DIBL).abs() < 0.05,
            "dibl {} vs baked {}",
            fit.dibl,
            CALIBRATED_DIBL
        );
        let ratio = fit.nmos_spec / CALIBRATED_NMOS_SPEC;
        assert!((0.5..2.0).contains(&ratio), "spec ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one delay target")]
    fn delay_fit_rejects_empty_targets() {
        let _ = fit_delay_model(&Technology::st_130nm(), &[]);
    }

    #[test]
    fn energy_fit_hits_typical_corner_target() {
        let tech = Technology::st_130nm();
        let profile = CircuitProfile::ring_oscillator_uncalibrated();
        let target = MepTarget {
            vopt: Volts(0.200),
            energy: Joules::from_femtos(2.65),
        };
        let fit = fit_energy_profile(
            &tech,
            &profile,
            Environment::nominal(),
            target,
            Volts(0.12),
            Volts(0.6),
        );
        assert!(fit.vopt_error < 0.02, "vopt error {}", fit.vopt_error);
        assert!(fit.energy_error < 0.02, "energy error {}", fit.energy_error);
    }
}
