//! EKV-style analytic MOSFET model valid from deep subthreshold to
//! strong inversion.
//!
//! This is the substitute for the paper's SPICE + 0.13 µm ST foundry
//! models. The controller only observes the circuit through delay and
//! leakage, both of which are set by the transistor's on- and
//! off-currents; the single-piece EKV interpolation
//!
//! ```text
//! I_d = I_spec(T) · ln²(1 + e^((Vgs − Vth_eff) / (2 n U_T))) · (1 − e^(−Vds/U_T))
//! ```
//!
//! reproduces the exponential subthreshold region (the regime the paper
//! operates in), the quadratic strong-inversion region, and a smooth
//! moderate-inversion transition, which is exactly the curvature that
//! makes the minimum-energy point move with process and temperature.

use std::fmt;
use std::ops::RangeInclusive;

use crate::constants::{nominal_temperature, thermal_voltage};
use crate::corner::ProcessCorner;
use crate::units::{Amps, Kelvin, Volts};

/// Polarity of a MOS device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceType {
    /// n-channel device.
    #[default]
    Nmos,
    /// p-channel device.
    Pmos,
}

impl DeviceType {
    /// Threshold shift this device experiences at a process corner.
    #[inline]
    pub fn corner_vth_shift(self, corner: ProcessCorner) -> Volts {
        match self {
            DeviceType::Nmos => corner.nmos_vth_shift(),
            DeviceType::Pmos => corner.pmos_vth_shift(),
        }
    }
}

/// The operating environment a device sees: global process corner and
/// die temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Global process corner.
    pub corner: ProcessCorner,
    /// Die temperature.
    pub temperature: Kelvin,
}

impl Environment {
    /// Nominal environment: typical corner at 25 °C.
    pub fn nominal() -> Environment {
        Environment {
            corner: ProcessCorner::Tt,
            temperature: nominal_temperature(),
        }
    }

    /// Environment at a given corner, 25 °C.
    pub fn at_corner(corner: ProcessCorner) -> Environment {
        Environment {
            corner,
            temperature: nominal_temperature(),
        }
    }

    /// Environment at the typical corner and a given Celsius temperature.
    pub fn at_celsius(celsius: f64) -> Environment {
        Environment {
            corner: ProcessCorner::Tt,
            temperature: Kelvin::from_celsius(celsius),
        }
    }

    /// Replaces the temperature, keeping the corner.
    pub fn with_celsius(self, celsius: f64) -> Environment {
        Environment {
            temperature: Kelvin::from_celsius(celsius),
            ..self
        }
    }

    /// Replaces the corner, keeping the temperature.
    pub fn with_corner(self, corner: ProcessCorner) -> Environment {
        Environment { corner, ..self }
    }
}

/// Die temperatures the device model supports, in °C: the military
/// range, which covers every study temperature and the tabulated
/// surfaces' −40..125 °C grid. Far outside it the model's thermal
/// voltage and threshold tempco leave their physical regime (at
/// −273 °C the replica delay is no longer a number).
pub const SUPPORTED_CELSIUS: RangeInclusive<f64> = -55.0..=150.0;

/// A die temperature outside [`SUPPORTED_CELSIUS`], or not finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureRangeError {
    /// The rejected temperature in °C.
    pub celsius: f64,
}

impl fmt::Display for TemperatureRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "temperature {} °C is outside the supported range {}..={} °C",
            self.celsius,
            SUPPORTED_CELSIUS.start(),
            SUPPORTED_CELSIUS.end()
        )
    }
}

impl std::error::Error for TemperatureRangeError {}

/// Checks a die temperature in °C against [`SUPPORTED_CELSIUS`] — the
/// one domain check every temperature input (CLI flag, scenario key)
/// goes through before it reaches the model.
///
/// # Errors
///
/// [`TemperatureRangeError`] for a non-finite or out-of-range value.
pub fn check_celsius(celsius: f64) -> Result<f64, TemperatureRangeError> {
    if SUPPORTED_CELSIUS.contains(&celsius) {
        Ok(celsius)
    } else {
        Err(TemperatureRangeError { celsius })
    }
}

impl Default for Environment {
    fn default() -> Environment {
        Environment::nominal()
    }
}

/// Technology parameters of one device flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Device polarity.
    pub device: DeviceType,
    /// Zero-bias threshold voltage magnitude at 25 °C, typical corner.
    pub vth0: Volts,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub slope_factor: f64,
    /// Specific current at W/L = 1 and 25 °C (sets the absolute drive).
    pub spec_current: Amps,
    /// Drawn W/L ratio of the device instance.
    pub width_ratio: f64,
    /// DIBL coefficient λ_d (V of Vth reduction per V of Vds).
    pub dibl: f64,
    /// Threshold temperature coefficient dVth/dT (typically ≈ −1 mV/K).
    pub vth_tempco: f64,
    /// Mobility temperature exponent (µ ∝ (T/T0)^exp, typically ≈ −1.5).
    pub mobility_exponent: f64,
}

impl MosfetParams {
    /// 0.13 µm-class nMOS parameters matching the paper's quoted
    /// Vth = 287 mV (typical).
    pub fn nmos_130nm() -> MosfetParams {
        MosfetParams {
            device: DeviceType::Nmos,
            vth0: Volts(0.287),
            slope_factor: 1.45,
            spec_current: Amps(6.0e-7),
            width_ratio: 2.0,
            dibl: 0.08,
            vth_tempco: -1.0e-3,
            mobility_exponent: -1.5,
        }
    }

    /// 0.13 µm-class pMOS parameters (wider device to balance the
    /// weaker hole mobility; |Vth| slightly higher than nMOS).
    pub fn pmos_130nm() -> MosfetParams {
        MosfetParams {
            device: DeviceType::Pmos,
            vth0: Volts(0.305),
            slope_factor: 1.50,
            spec_current: Amps(2.4e-7),
            width_ratio: 4.0,
            dibl: 0.09,
            vth_tempco: -1.0e-3,
            mobility_exponent: -1.5,
        }
    }

    /// Effective threshold voltage at the given environment and
    /// drain-source bias, including corner shift, temperature drift,
    /// DIBL and any per-instance local mismatch.
    pub fn vth_effective(&self, env: Environment, vds: Volts, local_delta: Volts) -> Volts {
        let dt = env.temperature.value() - nominal_temperature().value();
        self.vth0 + self.device.corner_vth_shift(env.corner) + Volts(self.vth_tempco * dt)
            - Volts(self.dibl * vds.volts().abs())
            + local_delta
    }

    /// Temperature-adjusted specific current, scaled by W/L.
    ///
    /// Combines mobility degradation (T/T0)^(−1.5) with the EKV
    /// 2nµC'U_T² prefactor's U_T² growth, i.e. a net (T/T0)^(+0.5).
    pub fn spec_current_at(&self, temperature: Kelvin) -> Amps {
        let t0 = nominal_temperature().value();
        let t = temperature.value();
        let mobility = (t / t0).powf(self.mobility_exponent);
        let ut_sq = (t / t0) * (t / t0);
        Amps(self.spec_current.value() * self.width_ratio * mobility * ut_sq)
    }

    /// Drain current using the EKV interpolation, for terminal voltage
    /// magnitudes (pass |Vgs|, |Vds| for pMOS).
    ///
    /// `local_delta` is a per-instance threshold mismatch (zero for a
    /// nominal device; sampled by [`crate::variation`] for Monte Carlo).
    ///
    /// ```
    /// # use subvt_device::mosfet::{MosfetParams, Environment};
    /// # use subvt_device::units::Volts;
    /// let n = MosfetParams::nmos_130nm();
    /// let env = Environment::nominal();
    /// let deep = n.drain_current(Volts(0.2), Volts(0.2), env, Volts::ZERO);
    /// let strong = n.drain_current(Volts(1.2), Volts(1.2), env, Volts::ZERO);
    /// assert!(strong.value() > 100.0 * deep.value());
    /// ```
    pub fn drain_current(
        &self,
        vgs: Volts,
        vds: Volts,
        env: Environment,
        local_delta: Volts,
    ) -> Amps {
        let ut = thermal_voltage(env.temperature).volts();
        let vth = self.vth_effective(env, vds, local_delta).volts();
        let x = (vgs.volts() - vth) / (2.0 * self.slope_factor * ut);
        // ln(1 + e^x), computed without overflow for large |x|.
        let soft = if x > 30.0 { x } else { x.exp().ln_1p() };
        let saturation = 1.0 - (-vds.volts().abs() / ut).exp();
        Amps(self.spec_current_at(env.temperature).value() * soft * soft * saturation)
    }

    /// On-current: device fully driven, `Vgs = Vds = Vdd`.
    #[inline]
    pub fn on_current(&self, vdd: Volts, env: Environment, local_delta: Volts) -> Amps {
        self.drain_current(vdd, vdd, env, local_delta)
    }

    /// Off-current: gate off, full `Vds = Vdd` across the device
    /// (the DIBL term makes this grow with Vdd).
    #[inline]
    pub fn off_current(&self, vdd: Volts, env: Environment, local_delta: Volts) -> Amps {
        self.drain_current(Volts::ZERO, vdd, env, local_delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (MosfetParams, Environment) {
        (MosfetParams::nmos_130nm(), Environment::nominal())
    }

    #[test]
    fn subthreshold_current_is_exponential_in_vgs() {
        let (n, env) = nominal();
        // One decade per n·UT·ln(10) ≈ 86 mV of gate drive in deep
        // subthreshold (the softplus interpolation compresses this
        // slightly as the bias approaches moderate inversion).
        let i1 = n.drain_current(Volts(0.0), Volts(0.2), env, Volts::ZERO);
        let i2 = n.drain_current(Volts(0.086), Volts(0.2), env, Volts::ZERO);
        let ratio = i2.value() / i1.value();
        assert!(
            (8.5..11.5).contains(&ratio),
            "expected ~1 decade per 86 mV, got {ratio}"
        );
    }

    #[test]
    fn current_is_monotonic_in_vgs() {
        let (n, env) = nominal();
        let mut last = 0.0;
        for mv in (0..=1200).step_by(25) {
            let i = n
                .drain_current(
                    Volts::from_millivolts(f64::from(mv)),
                    Volts(1.2),
                    env,
                    Volts::ZERO,
                )
                .value();
            assert!(i >= last, "current decreased at {mv} mV");
            last = i;
        }
    }

    #[test]
    fn slow_corner_reduces_current() {
        let n = MosfetParams::nmos_130nm();
        let tt = Environment::nominal();
        let ss = Environment::at_corner(ProcessCorner::Ss);
        let ff = Environment::at_corner(ProcessCorner::Ff);
        let v = Volts(0.25);
        let i_tt = n.on_current(v, tt, Volts::ZERO).value();
        let i_ss = n.on_current(v, ss, Volts::ZERO).value();
        let i_ff = n.on_current(v, ff, Volts::ZERO).value();
        assert!(i_ss < i_tt && i_tt < i_ff);
    }

    #[test]
    fn fs_corner_shifts_devices_oppositely() {
        let n = MosfetParams::nmos_130nm();
        let p = MosfetParams::pmos_130nm();
        let tt = Environment::nominal();
        let fs = Environment::at_corner(ProcessCorner::Fs);
        let v = Volts(0.3);
        assert!(
            n.on_current(v, fs, Volts::ZERO).value() > n.on_current(v, tt, Volts::ZERO).value()
        );
        assert!(
            p.on_current(v, fs, Volts::ZERO).value() < p.on_current(v, tt, Volts::ZERO).value()
        );
    }

    #[test]
    fn temperature_raises_subthreshold_current() {
        let (n, _) = nominal();
        let cold = Environment::at_celsius(25.0);
        let hot = Environment::at_celsius(85.0);
        let v = Volts(0.2);
        let i_cold = n.on_current(v, cold, Volts::ZERO).value();
        let i_hot = n.on_current(v, hot, Volts::ZERO).value();
        // Vth drop + steeper exponential dominate in subthreshold.
        assert!(i_hot > 1.5 * i_cold, "hot {i_hot} vs cold {i_cold}");
    }

    #[test]
    fn off_current_grows_with_vdd_via_dibl() {
        let (n, env) = nominal();
        let low = n.off_current(Volts(0.3), env, Volts::ZERO).value();
        let high = n.off_current(Volts(1.2), env, Volts::ZERO).value();
        assert!(
            high > 2.0 * low,
            "DIBL should raise leakage: {low} -> {high}"
        );
    }

    #[test]
    fn on_off_ratio_is_large_at_nominal_vdd() {
        let (n, env) = nominal();
        let on = n.on_current(Volts(1.2), env, Volts::ZERO).value();
        let off = n.off_current(Volts(1.2), env, Volts::ZERO).value();
        assert!(on / off > 1e3, "ratio {}", on / off);
    }

    #[test]
    fn local_mismatch_shifts_current() {
        let (n, env) = nominal();
        let v = Volts(0.2);
        let nominal_i = n.on_current(v, env, Volts::ZERO).value();
        let slow_i = n.on_current(v, env, Volts(0.03)).value();
        let fast_i = n.on_current(v, env, Volts(-0.03)).value();
        assert!(slow_i < nominal_i && nominal_i < fast_i);
    }

    #[test]
    fn no_overflow_at_extreme_bias() {
        let (n, env) = nominal();
        let i = n.drain_current(Volts(5.0), Volts(5.0), env, Volts::ZERO);
        assert!(i.value().is_finite());
        let i0 = n.drain_current(Volts(-5.0), Volts(1.0), env, Volts::ZERO);
        assert!(i0.value() >= 0.0 && i0.value().is_finite());
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let (n, env) = nominal();
        let i = n.drain_current(Volts(1.2), Volts::ZERO, env, Volts::ZERO);
        assert_eq!(i.value(), 0.0);
    }

    #[test]
    fn environment_builders() {
        let e = Environment::at_corner(ProcessCorner::Ss).with_celsius(85.0);
        assert_eq!(e.corner, ProcessCorner::Ss);
        assert!((e.temperature.celsius() - 85.0).abs() < 1e-9);
        let e2 = e.with_corner(ProcessCorner::Ff);
        assert_eq!(e2.corner, ProcessCorner::Ff);
        assert!((e2.temperature.celsius() - 85.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_domain_check() {
        for ok in [-55.0, -40.0, 25.0, 115.0, 125.0, 150.0] {
            assert_eq!(check_celsius(ok), Ok(ok));
        }
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -273.0,
            -56.0,
            151.0,
        ] {
            let e = check_celsius(bad).unwrap_err();
            assert!(e.to_string().contains("-55..=150 °C"), "{e}");
        }
    }
}
