//! Data generators for the paper's Figs. 1-3 and Table I.
//!
//! Each generator returns the raw series; the `exp-*` binaries render
//! them and the Criterion benches time them.

use subvt_device::corner::ProcessCorner;
use subvt_device::delay::GateMismatch;
use subvt_device::energy::{CircuitProfile, EnergyBreakdown};
use subvt_device::mep::{energy_sweep, find_mep, MepPoint};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::{GateKind, Technology};
use subvt_device::units::Volts;
use subvt_tdc::table1::{reproduce_table1, Table1Row};

/// One corner's series of Fig. 1.
#[derive(Debug, Clone)]
pub struct Fig1Series {
    /// The process corner.
    pub corner: ProcessCorner,
    /// Energy vs Vdd sweep (α = 0.1).
    pub sweep: Vec<EnergyBreakdown>,
    /// The located minimum-energy point.
    pub mep: MepPoint,
}

/// Fig. 1: MEP with process variation (SS/TT/FS, α = 0.1, 25 °C).
pub fn fig1_mep_corners() -> Vec<Fig1Series> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let ring = CircuitProfile::ring_oscillator();
    ProcessCorner::FIGURE_CORNERS
        .iter()
        .map(|&corner| {
            let env = Environment::at_corner(corner);
            Fig1Series {
                corner,
                sweep: energy_sweep(&eval, &ring, env, Volts(0.10), Volts(0.90), 40),
                mep: find_mep(&eval, &ring, env, Volts(0.12), Volts(0.60))
                    .expect("sweep range valid"),
            }
        })
        .collect()
}

/// One temperature's series of Fig. 2.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// Die temperature in °C.
    pub celsius: f64,
    /// Energy vs Vdd sweep.
    pub sweep: Vec<EnergyBreakdown>,
    /// The located minimum-energy point.
    pub mep: MepPoint,
}

/// Fig. 2: MEP with temperature variation (TT corner, 25/85/115 °C).
pub fn fig2_mep_temperature() -> Vec<Fig2Series> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let ring = CircuitProfile::ring_oscillator();
    [25.0, 85.0, 115.0]
        .iter()
        .map(|&celsius| {
            let env = Environment::at_celsius(celsius);
            Fig2Series {
                celsius,
                sweep: energy_sweep(&eval, &ring, env, Volts(0.10), Volts(1.40), 52),
                mep: find_mep(&eval, &ring, env, Volts(0.12), Volts(0.90))
                    .expect("sweep range valid"),
            }
        })
        .collect()
}

/// One corner's series of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// The process corner.
    pub corner: ProcessCorner,
    /// `(Vdd, inverter delay in ns)` samples.
    pub delays: Vec<(Volts, f64)>,
}

/// Fig. 3: delay vs supply voltage per corner, 0.1-1.4 V log scale.
pub fn fig3_delay_corners() -> Vec<Fig3Series> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    ProcessCorner::FIGURE_CORNERS
        .iter()
        .map(|&corner| {
            let env = Environment::at_corner(corner);
            let delays = (0..=52)
                .filter_map(|i| {
                    let v = Volts(0.10 + 0.025 * f64::from(i));
                    eval.gate_delay(GateKind::Inverter, v, env, GateMismatch::NOMINAL, 1.0)
                        .ok()
                        .map(|d| (v, d.nanos()))
                })
                .collect();
            Fig3Series { corner, delays }
        })
        .collect()
}

/// Table I: the quantizer signatures at 1.2/1.0/0.8/0.6 V.
pub fn table1_rows() -> Vec<Table1Row> {
    reproduce_table1(&Technology::st_130nm(), Environment::nominal()).expect("published voltages")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_three_corners_with_subthreshold_meps() {
        let series = fig1_mep_corners();
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(!s.sweep.is_empty());
            assert!(s.mep.vopt.volts() < 0.3, "{}: {}", s.corner, s.mep.vopt);
        }
    }

    #[test]
    fn fig1_order_matches_paper() {
        let series = fig1_mep_corners();
        let vopt: Vec<f64> = series.iter().map(|s| s.mep.vopt.millivolts()).collect();
        // SS, TT, FS order → 220, 200, 250.
        assert!((vopt[0] - 220.0).abs() < 5.0);
        assert!((vopt[1] - 200.0).abs() < 5.0);
        assert!((vopt[2] - 250.0).abs() < 5.0);
    }

    #[test]
    fn fig2_mep_rises_with_temperature() {
        let series = fig2_mep_temperature();
        assert!(series[0].mep.vopt < series[1].mep.vopt);
        assert!(series[1].mep.vopt < series[2].mep.vopt);
        assert!(series[0].mep.energy.value() < series[2].mep.energy.value());
    }

    #[test]
    fn fig3_spans_five_decades() {
        let series = fig3_delay_corners();
        for s in &series {
            let min = s.delays.iter().map(|&(_, d)| d).fold(f64::MAX, f64::min);
            let max = s.delays.iter().map(|&(_, d)| d).fold(0.0, f64::max);
            assert!(
                max / min > 1e4,
                "{}: {min} .. {max} ns spans too little",
                s.corner
            );
        }
    }

    #[test]
    fn table1_produces_four_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert!(rows[3].bursts >= 2, "0.6 V must double-latch");
    }
}
