//! The TDC's delay replica line.
//!
//! Paper Fig. 4: the line is a chain of "single delay cells (with an
//! inverter and nor gate delay)" running at the measured supply
//! voltage, so its per-stage delay carries the full exponential
//! process/temperature/voltage sensitivity of the subthreshold load it
//! replicates.

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::{GateKind, Technology};
use subvt_device::units::{Seconds, Volts};
use subvt_sim::logic::Logic;
use subvt_sim::netlist::{GateFn, Netlist, SignalId};
use subvt_sim::time::{SimDuration, SimTime};

/// Cell flavour of the delay line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellKind {
    /// The paper's INV + NOR cell (the NOR's second pin is the enable).
    #[default]
    InvNor,
    /// A plain inverter pair (used by the calibration discussion, which
    /// quotes single-inverter delays).
    Inverter,
}

/// A delay replica line of identical cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayLine {
    stages: u8,
    cell: CellKind,
    /// Per-die mismatch applied to every cell (a replica is drawn with
    /// large devices, so local mismatch averages out and the global
    /// die shift dominates).
    mismatch: GateMismatch,
}

impl DelayLine {
    /// Creates a line of `stages` cells (the paper's quantizer uses 64).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(stages: u8, cell: CellKind) -> DelayLine {
        assert!(stages > 0, "delay line needs at least one stage");
        DelayLine {
            stages,
            cell,
            mismatch: GateMismatch::NOMINAL,
        }
    }

    /// Returns the line with a die-level mismatch applied to its cells.
    pub fn with_mismatch(mut self, mismatch: GateMismatch) -> DelayLine {
        self.mismatch = mismatch;
        self
    }

    /// Number of stages.
    pub fn stages(&self) -> u8 {
        self.stages
    }

    /// Cell flavour.
    pub fn cell(&self) -> CellKind {
        self.cell
    }

    /// Per-stage propagation delay at the given supply and environment,
    /// through a [`DeviceEval`] (analytic or tabulated surfaces).
    ///
    /// The inverter+NOR₂ cell goes through the evaluator's fused
    /// [`DeviceEval::gate_delay_pair`]: both stages sit at the same
    /// (Vdd, environment, mismatch) point, so a table-backed evaluator
    /// answers them from one current interpolation.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology's functional
    /// floor.
    pub fn cell_delay_with(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
    ) -> Result<Seconds, SupplyRangeError> {
        match self.cell {
            CellKind::InvNor => {
                let (inv, nor) = eval.gate_delay_pair(
                    (GateKind::Inverter, GateKind::Nor2),
                    vdd,
                    env,
                    self.mismatch,
                    1.0,
                )?;
                Ok(inv + nor)
            }
            CellKind::Inverter => eval.gate_delay(GateKind::Inverter, vdd, env, self.mismatch, 1.0),
        }
    }

    /// End-to-end delay of the full line on the analytic model of
    /// `tech`.
    ///
    /// # Errors
    ///
    /// As [`DelayLine::cell_delay_with`].
    pub fn total_delay(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Seconds, SupplyRangeError> {
        Ok(self.cell_delay_with(&AnalyticEval::new(tech), vdd, env)? * f64::from(self.stages))
    }

    /// Deepest stage index the rising edge has passed after `elapsed`
    /// (saturating at the line length), on the analytic model of `tech`.
    ///
    /// # Errors
    ///
    /// As [`DelayLine::cell_delay_with`].
    pub fn edge_position(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        elapsed: Seconds,
    ) -> Result<u32, SupplyRangeError> {
        let cell = self.cell_delay_with(&AnalyticEval::new(tech), vdd, env)?;
        let pos = (elapsed.value() / cell.value()).floor();
        Ok((pos.max(0.0) as u32).min(u32::from(self.stages)))
    }

    /// Builds the line structurally into a gate-level netlist for
    /// cross-validation against the analytic model. Returns the input
    /// signal and the per-stage output taps.
    ///
    /// # Errors
    ///
    /// As [`DelayLine::cell_delay_with`].
    pub fn build_netlist(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        netlist: &mut Netlist,
    ) -> Result<(SignalId, Vec<SignalId>), SupplyRangeError> {
        let cell = self.cell_delay_with(&AnalyticEval::new(tech), vdd, env)?;
        let half = SimDuration::from_seconds(cell.value() / 2.0);
        let input = netlist.add_signal("tdc_in");
        let enable = netlist.add_signal("tdc_enable_n");
        netlist.drive(enable, Logic::Low, SimTime::ZERO);
        let mut taps = Vec::with_capacity(usize::from(self.stages));
        let mut prev = input;
        for i in 0..self.stages {
            let mid = netlist.add_signal(format!("tdc_s{i}_inv"));
            let out = netlist.add_signal(format!("tdc_s{i}"));
            // INV then NOR(.., enable_n): with enable_n low the NOR is a
            // second inversion, so each cell is non-inverting overall.
            netlist.add_gate(GateFn::Inv, &[prev], mid, half);
            netlist.add_gate(GateFn::Nor2, &[mid, enable], out, half);
            taps.push(out);
            prev = out;
        }
        Ok((input, taps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::corner::ProcessCorner;

    fn fixture() -> (AnalyticEval, Environment) {
        (
            AnalyticEval::new(&Technology::st_130nm()),
            Environment::nominal(),
        )
    }

    #[test]
    fn inverter_cell_matches_published_delays() {
        let (tech, env) = fixture();
        let line = DelayLine::new(64, CellKind::Inverter);
        for (v, ps) in [(1.2, 102.0), (0.6, 442.0), (0.2, 79_430.0)] {
            let d = line.cell_delay_with(&tech, Volts(v), env).unwrap();
            assert!(
                (d.picos() - ps).abs() / ps < 0.05,
                "{v} V: {} ps vs {ps} ps",
                d.picos()
            );
        }
    }

    #[test]
    fn inv_nor_cell_is_slower_than_inverter() {
        let (tech, env) = fixture();
        let inv = DelayLine::new(64, CellKind::Inverter);
        let cell = DelayLine::new(64, CellKind::InvNor);
        let v = Volts(0.6);
        assert!(
            cell.cell_delay_with(&tech, v, env).unwrap().value()
                > inv.cell_delay_with(&tech, v, env).unwrap().value()
        );
    }

    #[test]
    fn total_delay_scales_with_stages() {
        let (tech, env) = fixture();
        let short = DelayLine::new(8, CellKind::InvNor);
        let long = DelayLine::new(64, CellKind::InvNor);
        let v = Volts(0.3);
        let ratio = long.total_delay(tech.technology(), v, env).unwrap().value()
            / short
                .total_delay(tech.technology(), v, env)
                .unwrap()
                .value();
        assert!((ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn edge_position_saturates_at_line_end() {
        let (tech, env) = fixture();
        let line = DelayLine::new(64, CellKind::InvNor);
        let cell = line.cell_delay_with(&tech, Volts(0.6), env).unwrap();
        let pos = line
            .edge_position(tech.technology(), Volts(0.6), env, cell * 10.5)
            .unwrap();
        assert_eq!(pos, 10);
        let far = line
            .edge_position(tech.technology(), Volts(0.6), env, cell * 1000.0)
            .unwrap();
        assert_eq!(far, 64);
        let none = line
            .edge_position(tech.technology(), Volts(0.6), env, Seconds::ZERO)
            .unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn slow_corner_slows_the_replica() {
        let (tech, _) = fixture();
        let line = DelayLine::new(64, CellKind::InvNor);
        let v = Volts(0.25);
        let tt = line
            .cell_delay_with(&tech, v, Environment::nominal())
            .unwrap();
        let ss = line
            .cell_delay_with(&tech, v, Environment::at_corner(ProcessCorner::Ss))
            .unwrap();
        assert!(ss.value() > 1.2 * tt.value(), "tt {tt} ss {ss}");
    }

    #[test]
    fn die_mismatch_shifts_cell_delay() {
        let (tech, env) = fixture();
        let nominal = DelayLine::new(64, CellKind::InvNor);
        let slow = DelayLine::new(64, CellKind::InvNor).with_mismatch(GateMismatch {
            nmos_dvth: Volts(0.02),
            pmos_dvth: Volts(0.02),
        });
        let v = Volts(0.25);
        assert!(
            slow.cell_delay_with(&tech, v, env).unwrap().value()
                > nominal.cell_delay_with(&tech, v, env).unwrap().value()
        );
    }

    #[test]
    fn structural_netlist_agrees_with_analytic_delay() {
        // Drive a rising edge into an 8-stage structural line and check
        // the edge arrives at the last tap after ~8 cell delays.
        let (tech, env) = fixture();
        let line = DelayLine::new(8, CellKind::InvNor);
        let vdd = Volts(0.6);
        let cell = line.cell_delay_with(&tech, vdd, env).unwrap();
        let mut nl = Netlist::new();
        let (input, taps) = line
            .build_netlist(tech.technology(), vdd, env, &mut nl)
            .unwrap();
        nl.drive(input, Logic::Low, SimTime::ZERO);
        let settle = SimTime::ZERO + SimDuration::from_seconds(cell.value() * 20.0);
        nl.run_until(settle, 100_000);
        assert_eq!(nl.signal(*taps.last().unwrap()), Logic::Low);

        let launch = settle;
        nl.drive(input, Logic::High, launch);
        // Just before 8 cell delays: edge has not arrived.
        let before = launch + SimDuration::from_seconds(cell.value() * 7.5);
        nl.run_until(before, 100_000);
        assert_eq!(nl.signal(*taps.last().unwrap()), Logic::Low);
        // Just after: it has.
        let after = launch + SimDuration::from_seconds(cell.value() * 8.5);
        nl.run_until(after, 100_000);
        assert_eq!(nl.signal(*taps.last().unwrap()), Logic::High);
    }

    #[test]
    fn tabulated_cell_delay_tracks_the_analytic_one() {
        use subvt_device::tabulate::{TabulatedEval, ACCURACY_BUDGET};
        let (analytic, env) = fixture();
        let line = DelayLine::new(64, CellKind::InvNor).with_mismatch(GateMismatch {
            nmos_dvth: Volts(0.008),
            pmos_dvth: Volts(-0.005),
        });
        let tabulated = TabulatedEval::new(analytic.technology());
        for mv in [233.0, 356.25, 601.0] {
            let v = Volts::from_millivolts(mv);
            let exact = line.cell_delay_with(&analytic, v, env).unwrap();
            let via_table = line.cell_delay_with(&tabulated, v, env).unwrap();
            let rel = (via_table.value() - exact.value()).abs() / exact.value();
            assert!(rel < ACCURACY_BUDGET, "{mv} mV: rel err {rel:.2e}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_line_rejected() {
        let _ = DelayLine::new(0, CellKind::InvNor);
    }
}
