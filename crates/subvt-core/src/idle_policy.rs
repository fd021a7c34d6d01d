//! Run-slow (DVS) vs race-to-idle: the trade the paper's reference
//! \[10\] (Gutnik & Chandrakasan) settles in favour of variable supplies.
//!
//! For a workload that needs `rate` operations per second, a system
//! with buffering can either
//!
//! * **match the rate** with a low supply (the paper's controller), or
//! * **race to idle**: run at a fast fixed supply and power-gate the
//!   rest of the time.
//!
//! With the subthreshold energy model both policies can be priced
//! exactly; this module computes the comparison and the break-even
//! retention (how leaky the sleep state may be before racing wins).

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::mep::find_mep;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Joules, Volts};
use subvt_loads::load::CircuitLoad;

/// Energy of one second of operation under a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEnergy {
    /// Supply used while processing.
    pub vdd: Volts,
    /// Fraction of time spent processing (1 = fully busy).
    pub busy_fraction: f64,
    /// Energy spent per second.
    pub energy_per_second: Joules,
}

/// Comparison of the two policies at one workload rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdlePolicyComparison {
    /// Required operation rate.
    pub rate: Hertz,
    /// Rate-matched DVS (never below the MEP voltage).
    pub dvs: PolicyEnergy,
    /// Race-to-idle at the given fast supply.
    pub race: PolicyEnergy,
}

impl IdlePolicyComparison {
    /// Energy ratio `race / dvs` (> 1 means DVS wins).
    pub fn race_to_dvs_ratio(&self) -> f64 {
        self.race.energy_per_second.value() / self.dvs.energy_per_second.value()
    }
}

fn policy_energy(
    eval: &dyn DeviceEval,
    load: &dyn CircuitLoad,
    env: Environment,
    vdd: Volts,
    rate: Hertz,
    idle_retention: f64,
) -> Result<Option<PolicyEnergy>, SupplyRangeError> {
    let max = load.max_rate(eval, vdd, env, GateMismatch::NOMINAL)?;
    if max.value() < rate.value() {
        return Ok(None); // cannot sustain the rate at this supply
    }
    let e = load.energy_per_op(eval, vdd, env)?;
    let ops_per_s = rate.value();
    let busy = ops_per_s * e.cycle_time.value();
    let idle = 1.0 - busy;
    let idle_power = e.leak_current.value() * vdd.volts() * idle_retention;
    let energy = ops_per_s * e.total().value() + idle_power * idle;
    Ok(Some(PolicyEnergy {
        vdd,
        busy_fraction: busy,
        energy_per_second: Joules(energy),
    }))
}

/// Compares rate-matched DVS against race-to-idle at `race_vdd` for a
/// required `rate`, with the given sleep-state retention fraction.
///
/// The DVS supply is the lowest voltage that sustains the rate, floored
/// at the load's MEP voltage (running below the MEP wastes energy).
/// Both policies are priced on the analytic model of `tech`.
///
/// # Errors
///
/// Returns [`SupplyRangeError`] on model-range violations, or when no
/// supply sustains the rate.
pub fn compare_idle_policies(
    tech: &Technology,
    load: &dyn CircuitLoad,
    env: Environment,
    rate: Hertz,
    race_vdd: Volts,
    idle_retention: f64,
) -> Result<IdlePolicyComparison, SupplyRangeError> {
    let eval = AnalyticEval::new(tech);
    let mep = find_mep(
        &eval,
        load.profile(),
        env,
        tech.min_vdd + Volts(0.02),
        Volts(0.9),
    )?;

    // Lowest sustaining voltage by scan at LSB granularity.
    let mut dvs_vdd = None;
    for word in 1u16..=63 {
        let v = Volts(f64::from(word) * 0.01875);
        if v < tech.min_vdd {
            continue;
        }
        if let Ok(max) = load.max_rate(&eval, v, env, GateMismatch::NOMINAL) {
            if max.value() >= rate.value() {
                dvs_vdd = Some(v.max(mep.vopt));
                break;
            }
        }
    }
    let dvs_vdd = dvs_vdd.ok_or_else(|| {
        // Reuse the range error type for "unreachable rate".
        load.critical_path(&eval, Volts(0.0), env, GateMismatch::NOMINAL)
            .unwrap_err()
    })?;

    let dvs = policy_energy(&eval, load, env, dvs_vdd, rate, idle_retention)?
        .expect("dvs voltage sustains the rate by construction");
    let race =
        policy_energy(&eval, load, env, race_vdd, rate, idle_retention)?.ok_or_else(|| {
            load.critical_path(&eval, Volts(0.0), env, GateMismatch::NOMINAL)
                .unwrap_err()
        })?;

    Ok(IdlePolicyComparison { rate, dvs, race })
}

/// Sleep-state retention at which race-to-idle breaks even with DVS at
/// a given rate (bisection over retention in [0, 1]); `None` when DVS
/// wins even with a perfectly leak-free sleep state.
///
/// # Errors
///
/// As [`compare_idle_policies`].
pub fn breakeven_retention(
    tech: &Technology,
    load: &dyn CircuitLoad,
    env: Environment,
    rate: Hertz,
    race_vdd: Volts,
) -> Result<Option<f64>, SupplyRangeError> {
    let at = |r: f64| -> Result<f64, SupplyRangeError> {
        Ok(compare_idle_policies(tech, load, env, rate, race_vdd, r)?.race_to_dvs_ratio())
    };
    if at(0.0)? >= 1.0 {
        return Ok(None); // even a free sleep state cannot save racing
    }
    // ratio grows with retention only through the DVS idle term...
    // actually both idle terms grow; find crossing by scan+bisect.
    let (mut lo, mut hi) = (0.0, 1.0);
    if at(1.0)? < 1.0 {
        return Ok(Some(1.0)); // race wins everywhere
    }
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if at(mid)? < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_loads::ring_oscillator::RingOscillator;

    fn fixture() -> (Technology, RingOscillator, Environment) {
        (
            Technology::st_130nm(),
            RingOscillator::paper_circuit(),
            Environment::nominal(),
        )
    }

    #[test]
    fn dvs_beats_racing_at_light_rates() {
        // The Gutnik result the paper builds on: with buffering, the
        // matched low supply beats run-fast-then-sleep.
        let (tech, ring, env) = fixture();
        let cmp = compare_idle_policies(&tech, &ring, env, Hertz(50e3), Volts(0.6), 0.05).unwrap();
        assert!(
            cmp.race_to_dvs_ratio() > 2.0,
            "ratio {}",
            cmp.race_to_dvs_ratio()
        );
        assert!(cmp.dvs.vdd.volts() < 0.3);
        assert!(cmp.dvs.busy_fraction <= 1.0);
    }

    #[test]
    fn dvs_supply_never_sinks_below_the_mep() {
        let (tech, ring, env) = fixture();
        let cmp = compare_idle_policies(&tech, &ring, env, Hertz(1e3), Volts(0.6), 0.05).unwrap();
        // 1 kHz needs almost nothing, but the supply floors at the MEP.
        assert!(
            (cmp.dvs.vdd.millivolts() - 200.0).abs() < 20.0,
            "dvs vdd {}",
            cmp.dvs.vdd
        );
    }

    #[test]
    fn policies_converge_at_full_utilization() {
        // When the rate needs the race voltage anyway there is no idle
        // to exploit: the two policies coincide.
        let (tech, ring, env) = fixture();
        let race_vdd = Volts(0.6);
        let max_at_race = ring
            .max_rate(
                &AnalyticEval::new(&tech),
                race_vdd,
                env,
                GateMismatch::NOMINAL,
            )
            .unwrap();
        let cmp = compare_idle_policies(
            &tech,
            &ring,
            env,
            Hertz(max_at_race.value() * 0.98),
            race_vdd,
            0.05,
        )
        .unwrap();
        assert!(
            (cmp.race_to_dvs_ratio() - 1.0).abs() < 0.2,
            "ratio {}",
            cmp.race_to_dvs_ratio()
        );
    }

    #[test]
    fn busy_fraction_scales_with_rate() {
        let (tech, ring, env) = fixture();
        let slow = compare_idle_policies(&tech, &ring, env, Hertz(10e3), Volts(0.6), 0.05).unwrap();
        let fast =
            compare_idle_policies(&tech, &ring, env, Hertz(100e3), Volts(0.6), 0.05).unwrap();
        assert!(fast.race.busy_fraction > 5.0 * slow.race.busy_fraction);
    }

    #[test]
    fn breakeven_retention_is_none_for_subthreshold_dvs() {
        // Even a leak-free sleep state cannot rescue racing at 0.6 V
        // against an MEP-matched supply: the V² gap is too large.
        let (tech, ring, env) = fixture();
        let be = breakeven_retention(&tech, &ring, env, Hertz(50e3), Volts(0.6)).unwrap();
        assert_eq!(be, None, "breakeven {be:?}");
    }

    #[test]
    fn unreachable_rate_errors() {
        let (tech, ring, env) = fixture();
        let result = compare_idle_policies(&tech, &ring, env, Hertz(1e12), Volts(0.6), 0.05);
        assert!(result.is_err());
    }
}
