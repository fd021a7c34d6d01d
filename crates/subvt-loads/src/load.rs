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
