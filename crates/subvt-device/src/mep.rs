//! Minimum-energy-point (MEP) analysis: the quantity the paper's
//! adaptive controller exists to track.
//!
//! Provides the energy-vs-Vdd sweep behind Figs. 1 and 2 and a
//! golden-section search for the optimum supply voltage `Vopt`.

use crate::delay::SupplyRangeError;
use crate::energy::{CircuitProfile, EnergyBreakdown};
use crate::mosfet::Environment;
use crate::optimize::golden_section;
use crate::tabulate::DeviceEval;
use crate::units::{Joules, Volts};

/// A located minimum-energy point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MepPoint {
    /// Optimal supply voltage.
    pub vopt: Volts,
    /// Energy per operation at the optimum.
    pub energy: Joules,
    /// Full breakdown at the optimum.
    pub breakdown: EnergyBreakdown,
}

/// Finds the minimum-energy point of `profile` in `env` over
/// `[v_lo, v_hi]`, with every energy sample answered by `eval` (the
/// tabulated evaluators serve the ~90 samples of the golden-section
/// search from their interpolation surfaces).
///
/// # Errors
///
/// Returns [`SupplyRangeError`] when `v_lo` is below the technology's
/// functional floor.
///
/// # Panics
///
/// Panics if `v_lo >= v_hi`.
///
/// ```
/// # use subvt_device::mep::find_mep;
/// # use subvt_device::energy::CircuitProfile;
/// # use subvt_device::tabulate::AnalyticEval;
/// # use subvt_device::technology::Technology;
/// # use subvt_device::mosfet::Environment;
/// # use subvt_device::units::Volts;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::st_130nm();
/// let ring = CircuitProfile::ring_oscillator_uncalibrated();
/// let mep = find_mep(&AnalyticEval::new(&tech), &ring, Environment::nominal(), Volts(0.12), Volts(0.9))?;
/// assert!(mep.vopt.volts() > 0.12 && mep.vopt.volts() < 0.5);
/// # Ok(())
/// # }
/// ```
pub fn find_mep(
    eval: &dyn DeviceEval,
    profile: &CircuitProfile,
    env: Environment,
    v_lo: Volts,
    v_hi: Volts,
) -> Result<MepPoint, SupplyRangeError> {
    assert!(v_lo < v_hi, "invalid voltage bracket");
    // Validate the lower edge once so the closure below can't fail.
    eval.energy(profile, v_lo, env)?;
    // Stash the breakdown of the best sample as the search evaluates
    // it, mirroring `golden_section`'s strict-< tie rule so the stashed
    // sample is exactly the one the minimizer returns — no re-eval at
    // the optimum.
    let mut best: Option<EnergyBreakdown> = None;
    let m = golden_section(
        |v| match eval.energy(profile, Volts(v), env) {
            Ok(e) => {
                let total = e.total().value();
                if best.is_none_or(|b| total < b.total().value()) {
                    best = Some(e);
                }
                total
            }
            Err(_) => f64::INFINITY,
        },
        v_lo.volts(),
        v_hi.volts(),
        1e-6,
    );
    let breakdown = best.expect("the validated lower edge was sampled");
    debug_assert_eq!(breakdown.vdd.volts(), m.x);
    Ok(MepPoint {
        vopt: Volts(m.x),
        energy: breakdown.total(),
        breakdown,
    })
}

/// Sweeps energy vs supply voltage (the raw series of Figs. 1-2)
/// through `eval`.
///
/// Points below the technology's functional floor are skipped, which is
/// why the returned series may be shorter than `steps + 1`.
///
/// # Panics
///
/// Panics if `v_lo >= v_hi` or `steps == 0`.
pub fn energy_sweep(
    eval: &dyn DeviceEval,
    profile: &CircuitProfile,
    env: Environment,
    v_lo: Volts,
    v_hi: Volts,
    steps: usize,
) -> Vec<EnergyBreakdown> {
    assert!(v_lo < v_hi, "invalid voltage bracket");
    assert!(steps > 0, "need at least one step");
    (0..=steps)
        .filter_map(|i| {
            let v = v_lo.volts() + (v_hi.volts() - v_lo.volts()) * (i as f64) / (steps as f64);
            eval.energy(profile, Volts(v), env).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::ProcessCorner;
    use crate::tabulate::AnalyticEval;
    use crate::technology::Technology;

    fn fixture() -> (AnalyticEval, CircuitProfile) {
        (
            AnalyticEval::new(&Technology::st_130nm()),
            CircuitProfile::ring_oscillator_uncalibrated(),
        )
    }

    #[test]
    fn mep_exists_in_subthreshold() {
        let (tech, profile) = fixture();
        let mep = find_mep(
            &tech,
            &profile,
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        // Below the 287 mV threshold: the paper's core premise.
        assert!(mep.vopt.volts() < 0.287, "vopt {}", mep.vopt);
        assert!(mep.vopt.volts() > 0.12);
    }

    #[test]
    fn mep_is_a_true_minimum_of_the_sweep() {
        let (tech, profile) = fixture();
        let env = Environment::nominal();
        let mep = find_mep(&tech, &profile, env, Volts(0.12), Volts(0.9)).unwrap();
        for e in energy_sweep(&tech, &profile, env, Volts(0.12), Volts(0.9), 60) {
            assert!(
                e.total().value() >= mep.energy.value() * (1.0 - 1e-6),
                "sweep point {} beats the located MEP {}",
                e,
                mep.energy
            );
        }
    }

    #[test]
    fn hotter_die_has_higher_vopt() {
        // Fig. 2's qualitative content: temperature pushes the MEP up.
        let (tech, profile) = fixture();
        let cold = find_mep(
            &tech,
            &profile,
            Environment::at_celsius(25.0),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        let hot = find_mep(
            &tech,
            &profile,
            Environment::at_celsius(85.0),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        assert!(hot.vopt.volts() > cold.vopt.volts());
        assert!(hot.energy.value() > cold.energy.value());
    }

    #[test]
    fn sweep_skips_subfloor_points() {
        let (tech, profile) = fixture();
        let series = energy_sweep(
            &tech,
            &profile,
            Environment::nominal(),
            Volts(0.02),
            Volts(0.5),
            24,
        );
        assert!(!series.is_empty());
        assert!(series.iter().all(|e| e.vdd >= tech.technology().min_vdd));
        assert!(series.len() < 25);
    }

    #[test]
    fn leakage_equals_half_ish_at_mep() {
        // At the MEP the leakage and dynamic slopes balance; the
        // leakage fraction should be substantial but not everything.
        let (tech, profile) = fixture();
        let mep = find_mep(
            &tech,
            &profile,
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        let f = mep.breakdown.leakage_fraction();
        assert!((0.1..0.9).contains(&f), "leakage fraction {f}");
    }

    #[test]
    fn corners_move_the_mep() {
        let (tech, mut profile) = fixture();
        // Give SS a deliberately leakier calibration to emulate the
        // published spread and confirm the MEP reacts.
        profile.corner_cal.scales_mut(ProcessCorner::Ss).leak = 3.0;
        let tt = find_mep(
            &tech,
            &profile,
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        let ss = find_mep(
            &tech,
            &profile,
            Environment::at_corner(ProcessCorner::Ss),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        assert!(ss.vopt.volts() > tt.vopt.volts());
    }

    #[test]
    fn calibrated_ring_reproduces_fig1_loci() {
        // Paper Fig. 1: Vopt = 200 mV (TT), 220 mV (SS), 250 mV (FS);
        // Emin = 2.65 fJ (TT), 1.70 fJ (SS), 2.42 fJ (FS).
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let ring = CircuitProfile::ring_oscillator();
        let targets = [
            (ProcessCorner::Tt, 200.0, 2.65),
            (ProcessCorner::Ss, 220.0, 1.70),
            (ProcessCorner::Fs, 250.0, 2.42),
        ];
        for (corner, vopt_mv, energy_fj) in targets {
            let mep = find_mep(
                &tech,
                &ring,
                Environment::at_corner(corner),
                Volts(0.12),
                Volts(0.6),
            )
            .unwrap();
            assert!(
                (mep.vopt.millivolts() - vopt_mv).abs() / vopt_mv < 0.02,
                "{corner}: vopt {} vs {vopt_mv} mV",
                mep.vopt.millivolts()
            );
            assert!(
                (mep.energy.femtos() - energy_fj).abs() / energy_fj < 0.02,
                "{corner}: energy {} vs {energy_fj} fJ",
                mep.energy.femtos()
            );
        }
    }

    #[test]
    fn fig1_spread_matches_paper_claims() {
        // Sec. II: "a variation in the Vopt of 25% and the energy
        // variation of 55%" across the plotted corners.
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let ring = CircuitProfile::ring_oscillator();
        let meps: Vec<MepPoint> = ProcessCorner::FIGURE_CORNERS
            .iter()
            .map(|&c| {
                find_mep(
                    &tech,
                    &ring,
                    Environment::at_corner(c),
                    Volts(0.12),
                    Volts(0.6),
                )
                .unwrap()
            })
            .collect();
        let vmax = meps.iter().map(|m| m.vopt.volts()).fold(0.0, f64::max);
        let vmin = meps.iter().map(|m| m.vopt.volts()).fold(1.0, f64::min);
        let emax = meps.iter().map(|m| m.energy.value()).fold(0.0, f64::max);
        let emin = meps.iter().map(|m| m.energy.value()).fold(1.0, f64::min);
        let v_spread = (vmax - vmin) / vmin;
        let e_spread = (emax - emin) / emin;
        assert!((0.20..0.32).contains(&v_spread), "vopt spread {v_spread}");
        assert!((0.45..0.65).contains(&e_spread), "energy spread {e_spread}");
    }

    #[test]
    fn tabulated_eval_tracks_the_analytic_mep() {
        use crate::tabulate::{TabulatedEval, ACCURACY_BUDGET};
        let tech = Technology::st_130nm();
        let ring = CircuitProfile::ring_oscillator();
        let env = Environment::nominal();
        let analytic = AnalyticEval::new(&tech);
        let exact = find_mep(&analytic, &ring, env, Volts(0.12), Volts(0.6)).unwrap();

        // The tabulated evaluator lands within the accuracy budget.
        let tab = TabulatedEval::new(&tech);
        let t = find_mep(&tab, &ring, env, Volts(0.12), Volts(0.6)).unwrap();
        let e_err = (t.energy.value() - exact.energy.value()).abs() / exact.energy.value();
        assert!(e_err < ACCURACY_BUDGET, "energy err {e_err}");
        assert!(
            (t.vopt.volts() - exact.vopt.volts()).abs() < 0.005,
            "vopt moved"
        );

        // The sweep agrees point-by-point within budget.
        let sa = energy_sweep(&analytic, &ring, env, Volts(0.12), Volts(0.6), 24);
        let st = energy_sweep(&tab, &ring, env, Volts(0.12), Volts(0.6), 24);
        assert_eq!(sa.len(), st.len());
        for (a, t) in sa.iter().zip(&st) {
            let err = (t.total().value() - a.total().value()).abs() / a.total().value();
            assert!(err < ACCURACY_BUDGET, "at {}: err {err}", a.vdd);
        }
    }

    #[test]
    #[should_panic(expected = "invalid voltage bracket")]
    fn rejects_inverted_bracket() {
        let (tech, profile) = fixture();
        let _ = find_mep(
            &tech,
            &profile,
            Environment::nominal(),
            Volts(0.9),
            Volts(0.2),
        );
    }
}
