//! A ripple-carry adder load: the "different digital loads" the paper
//! says it experimented with (Sec. IV: "We have experimented with
//! different digital loads and found that our proposed adaptive
//! controller can capture the variations in a wide range of load
//! scenarios").
//!
//! Functional (it really adds), with an electrical profile whose
//! critical path — the carry chain — scales with the word width, and a
//! structural gate-level build for cross-validation.

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::energy::CircuitProfile;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::{GateKind, Technology};
use subvt_device::units::{Seconds, Volts};
use subvt_sim::logic::Logic;
use subvt_sim::netlist::{GateFn, Netlist, SignalId};
use subvt_sim::time::SimDuration;

use crate::load::CircuitLoad;

/// A `width`-bit ripple-carry adder.
#[derive(Debug, Clone, PartialEq)]
pub struct RippleCarryAdder {
    width: u8,
    profile: CircuitProfile,
    operations: u64,
}

impl RippleCarryAdder {
    /// Creates a `width`-bit adder.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 63`.
    pub fn new(width: u8) -> RippleCarryAdder {
        assert!((1..=63).contains(&width), "width {width} out of range");
        // ~7 NAND-equivalents per full adder; carry chain of 2 gate
        // delays per bit dominates the critical path.
        let profile = CircuitProfile {
            name: format!("rca-{width}"),
            gate: GateKind::Nand2,
            gates: 7.0 * f64::from(width),
            activity: 0.2,
            depth: 2.0 * f64::from(width) + 2.0,
            cap_scale: 2.372_001,
            leak_scale: 1.099_502,
            corner_cal: CircuitProfile::ring_oscillator().corner_cal,
        };
        RippleCarryAdder {
            width,
            profile,
            operations: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Additions performed.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Adds two operands (masked to the width); returns `(sum, carry)`.
    pub fn add(&mut self, a: u64, b: u64) -> (u64, bool) {
        let mask = (1u64 << self.width) - 1;
        self.operations += 1;
        let full = (a & mask) + (b & mask);
        (full & mask, full > mask)
    }

    /// Builds the adder structurally (XOR/AND/OR full-adder cells) into
    /// a netlist. Returns `(a_bits, b_bits, sum_bits, carry_out)`.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    #[allow(clippy::type_complexity)]
    pub fn build_netlist(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        netlist: &mut Netlist,
    ) -> Result<(Vec<SignalId>, Vec<SignalId>, Vec<SignalId>, SignalId), SupplyRangeError> {
        let t = AnalyticEval::new(tech).gate_delay(
            GateKind::Nand2,
            vdd,
            env,
            GateMismatch::NOMINAL,
            1.0,
        )?;
        let d = SimDuration::from_seconds(t.value());

        let a: Vec<SignalId> = (0..self.width)
            .map(|i| netlist.add_signal(format!("a{i}")))
            .collect();
        let b: Vec<SignalId> = (0..self.width)
            .map(|i| netlist.add_signal(format!("b{i}")))
            .collect();
        let mut sum = Vec::with_capacity(usize::from(self.width));
        let mut carry = netlist.add_signal("c_in");
        netlist.drive(carry, Logic::Low, subvt_sim::time::SimTime::ZERO);

        for i in 0..usize::from(self.width) {
            let axb = netlist.add_signal(format!("axb{i}"));
            netlist.add_gate(GateFn::Xor2, &[a[i], b[i]], axb, d);
            let s = netlist.add_signal(format!("s{i}"));
            netlist.add_gate(GateFn::Xor2, &[axb, carry], s, d);
            sum.push(s);
            let and1 = netlist.add_signal(format!("g{i}"));
            netlist.add_gate(GateFn::And2, &[a[i], b[i]], and1, d);
            let and2 = netlist.add_signal(format!("p{i}"));
            netlist.add_gate(GateFn::And2, &[axb, carry], and2, d);
            let c_next = netlist.add_signal(format!("c{}", i + 1));
            netlist.add_gate(GateFn::Or2, &[and1, and2], c_next, d);
            carry = c_next;
        }
        Ok((a, b, sum, carry))
    }
}

impl CircuitLoad for RippleCarryAdder {
    fn name(&self) -> &str {
        &self.profile.name
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
    use subvt_device::delay::GateTiming;
    use subvt_sim::time::SimTime;

    #[test]
    fn functional_addition() {
        let mut adder = RippleCarryAdder::new(8);
        assert_eq!(adder.add(100, 55), (155, false));
        assert_eq!(adder.add(200, 100), (44, true), "wraps with carry");
        assert_eq!(adder.add(0xFF, 1), (0, true));
        assert_eq!(adder.operations(), 3);
    }

    #[test]
    fn operands_are_masked() {
        let mut adder = RippleCarryAdder::new(4);
        assert_eq!(adder.add(0xFF, 0), (0xF, false));
    }

    #[test]
    fn critical_path_scales_with_width() {
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let env = Environment::nominal();
        let narrow = RippleCarryAdder::new(8);
        let wide = RippleCarryAdder::new(32);
        let v = Volts(0.3);
        let cp8 = narrow
            .critical_path(&tech, v, env, GateMismatch::NOMINAL)
            .unwrap();
        let cp32 = wide
            .critical_path(&tech, v, env, GateMismatch::NOMINAL)
            .unwrap();
        let ratio = cp32.value() / cp8.value();
        assert!((3.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn adder_has_a_subthreshold_mep() {
        use subvt_device::mep::find_mep;
        let tech = AnalyticEval::new(&Technology::st_130nm());
        let adder = RippleCarryAdder::new(16);
        let mep = find_mep(
            &tech,
            adder.profile(),
            Environment::nominal(),
            Volts(0.12),
            Volts(0.9),
        )
        .unwrap();
        assert!(mep.vopt.volts() < 0.287, "MEP {}", mep.vopt);
    }

    #[test]
    fn structural_adder_computes_correct_sums() {
        let tech = Technology::st_130nm();
        let env = Environment::nominal();
        let vdd = Volts(0.8);
        let adder = RippleCarryAdder::new(4);
        let t_gate = GateTiming::new(&tech)
            .gate_delay(GateKind::Nand2, vdd, env)
            .unwrap();

        for (a_val, b_val) in [(3u64, 5u64), (9, 9), (15, 1), (0, 0), (7, 12)] {
            let mut nl = Netlist::new();
            let (a, b, sum, cout) = adder.build_netlist(&tech, vdd, env, &mut nl).unwrap();
            for i in 0..4 {
                nl.drive(a[i], Logic::from_bool((a_val >> i) & 1 == 1), SimTime::ZERO);
                nl.drive(b[i], Logic::from_bool((b_val >> i) & 1 == 1), SimTime::ZERO);
            }
            // Settle: well past the carry chain.
            let settle = SimTime::ZERO + SimDuration::from_seconds(t_gate.value() * 40.0);
            nl.run_until(settle, 1_000_000);
            let mut got = 0u64;
            for (i, &s) in sum.iter().enumerate() {
                if nl.signal(s).is_high() {
                    got |= 1 << i;
                }
            }
            let expect = (a_val + b_val) & 0xF;
            let expect_carry = a_val + b_val > 0xF;
            assert_eq!(got, expect, "{a_val}+{b_val}");
            assert_eq!(
                nl.signal(cout).is_high(),
                expect_carry,
                "{a_val}+{b_val} carry"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = RippleCarryAdder::new(0);
    }
}
