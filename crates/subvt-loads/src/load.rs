//! The load abstraction the adaptive controller drives.

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::energy::{CircuitProfile, EnergyBreakdown};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::DeviceEval;
use subvt_device::units::{Amps, Hertz, Seconds, Volts};

/// A digital circuit that can serve as the controller's load: it has a
/// critical path (hence a maximum operating rate at a given supply) and
/// a per-operation energy.
///
/// `Send + Sync` is a supertrait so `&dyn CircuitLoad` can be shared
/// across `subvt-exec` worker threads: every implementor is an
/// immutable description of a circuit, and Monte-Carlo sweeps score
/// the same load on many dies concurrently.
pub trait CircuitLoad: std::fmt::Debug + Send + Sync {
    /// Human-readable load name.
    fn name(&self) -> &str;

    /// The electrical profile used for energy analysis.
    fn profile(&self) -> &CircuitProfile;

    /// Critical-path delay at the given operating point, with the
    /// gate delays answered by `eval` (analytic or tabulated surfaces).
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology's functional
    /// floor.
    fn critical_path(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError>;

    /// Maximum operation rate: `1 / critical_path`.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn max_rate(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Hertz, SupplyRangeError> {
        Ok(self.critical_path(eval, vdd, env, mismatch)?.to_frequency())
    }

    /// Energy breakdown of one operation.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn energy_per_op(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        eval.energy(self.profile(), vdd, env)
    }

    /// Critical-path delays for a whole lane of per-die mismatches at
    /// one (vdd, env) operating point — the batched-study shape. The
    /// default loops [`CircuitLoad::critical_path`], bit-identical
    /// to per-die calls; gate-level implementors should forward to
    /// [`DeviceEval::gate_delay_lane`] so the device model's lane hoist
    /// (one grid resolution per batch) applies.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatches.len()`.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn critical_path_lane(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        for (m, o) in mismatches.iter().zip(out.iter_mut()) {
            *o = self.critical_path(eval, vdd, env, *m)?;
        }
        Ok(())
    }

    /// Critical-path delays with a *per-die* supply voltage — the
    /// dithered spec check's shape, where every die is timed at its own
    /// settled voltage. `out[i]` is `None` exactly when die `i`'s
    /// supply is below the floor. The default loops
    /// [`CircuitLoad::critical_path`], bit-identical to per-die calls;
    /// gate-level implementors should forward to
    /// [`DeviceEval::gate_delay_multi`] so the device model's hoists
    /// apply.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    fn critical_path_multi(
        &self,
        eval: &dyn DeviceEval,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Option<Seconds>],
    ) {
        assert_eq!(
            vdds.len(),
            mismatches.len(),
            "supply lane length must match the mismatch lane"
        );
        assert_eq!(
            vdds.len(),
            out.len(),
            "lane output length must match the supply lane"
        );
        for ((v, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = self.critical_path(eval, *v, env, *m).ok();
        }
    }

    /// Per-operation energies with a per-die supply voltage (`None`
    /// below the floor): the lane form of the default
    /// [`CircuitLoad::energy_per_op`], one
    /// [`DeviceEval::energy_multi`] query. An implementor that
    /// overrides `energy_per_op` must override this too.
    ///
    /// # Panics
    ///
    /// Panics if `vdds` and `out` lengths differ.
    fn energy_per_op_multi(
        &self,
        eval: &dyn DeviceEval,
        vdds: &[Volts],
        env: Environment,
        out: &mut [Option<EnergyBreakdown>],
    ) {
        eval.energy_multi(self.profile(), vdds, env, out);
    }

    /// Average supply current while operating continuously at `vdd`:
    /// dynamic charge per cycle over the cycle time, plus leakage.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn supply_current(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
    ) -> Result<Amps, SupplyRangeError> {
        let e = self.energy_per_op(eval, vdd, env)?;
        let dynamic_current = if vdd.volts() > 0.0 {
            e.dynamic.value() / vdd.volts() / e.cycle_time.value()
        } else {
            0.0
        };
        Ok(Amps(dynamic_current + e.leak_current.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::RippleCarryAdder;
    use crate::fir::FirFilter;
    use crate::ring_oscillator::RingOscillator;
    use subvt_device::corner::ProcessCorner;
    use subvt_device::tabulate::{AnalyticEval, TabulatedEval};
    use subvt_device::technology::Technology;

    #[test]
    fn per_die_supply_lanes_match_the_scalar_calls() {
        let tech = Technology::st_130nm();
        let analytic = AnalyticEval::new(&tech);
        let tabulated = TabulatedEval::new(&tech);
        let evals: [&dyn DeviceEval; 2] = [&analytic, &tabulated];
        let loads: [&dyn CircuitLoad; 3] = [
            &RingOscillator::paper_circuit(),
            &FirFilter::lowpass_9tap(),
            &RippleCarryAdder::new(16),
        ];
        let floor = tech.min_vdd.volts();
        let vdds: Vec<Volts> = [floor - 1e-3, floor, 0.2063, 0.05, 0.3111, 0.2063, 0.9]
            .map(Volts)
            .to_vec();
        let mms: Vec<GateMismatch> = [(0.0, 0.0), (0.013, -0.021), (-0.008, 0.004), (0.5, 0.0)]
            .iter()
            .cycle()
            .take(vdds.len())
            .map(|&(n, p)| GateMismatch {
                nmos_dvth: Volts(n),
                pmos_dvth: Volts(p),
            })
            .collect();
        for eval in evals {
            for load in loads {
                let env = Environment::at_corner(ProcessCorner::Fs).with_celsius(70.0);
                let mut paths = vec![None; vdds.len()];
                load.critical_path_multi(eval, &vdds, env, &mms, &mut paths);
                let mut energies = vec![None; vdds.len()];
                load.energy_per_op_multi(eval, &vdds, env, &mut energies);
                for i in 0..vdds.len() {
                    let want = load.critical_path(eval, vdds[i], env, mms[i]).ok();
                    assert_eq!(
                        paths[i].map(|t| t.value().to_bits()),
                        want.map(|t| t.value().to_bits()),
                        "{} {eval:?} die {i}",
                        load.name()
                    );
                    let want = load.energy_per_op(eval, vdds[i], env).ok();
                    assert_eq!(energies[i], want, "{} {eval:?} die {i}", load.name());
                }
            }
        }
    }
}
