//! Ablation studies over the design choices DESIGN.md calls out:
//! code width (6 bits), Ref_clk strategy, pulse-shrink β, FIFO depth.

use subvt_core::controller::ControllerConfig;
use subvt_core::experiment::{run_scenario, Scenario};
use subvt_core::SupplyPolicy;
use subvt_device::energy::CircuitProfile;
use subvt_device::mep::find_mep;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, DeviceEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Seconds, Volts};
use subvt_loads::workload::WorkloadPattern;
use subvt_tdc::delay_line::{CellKind, DelayLine};
use subvt_tdc::pulse::{PulseShrinkRing, PulseShrinkStage};
use subvt_tdc::quantizer::{Quantizer, RefClock};

/// One row of the code-width ablation.
#[derive(Debug, Clone, Copy)]
pub struct BitsRow {
    /// Code width in bits.
    pub bits: u8,
    /// Converter LSB at this width (mV).
    pub lsb_mv: f64,
    /// Worst quantization distance from the true MEP voltage across
    /// the studied corners (mV).
    pub worst_error_mv: f64,
    /// Worst relative energy overhead vs. sitting exactly on the MEP.
    pub worst_energy_overhead: f64,
    /// System-cycle length implied by the PWM terminal count at 64 MHz
    /// (µs) — the controller's reaction latency.
    pub system_cycle_us: f64,
}

/// Sweeps the voltage-code width (the paper fixes 6 bits as "the best
/// resolution and best tradeoffs").
pub fn ablation_bits() -> Vec<BitsRow> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let ring = CircuitProfile::ring_oscillator();
    let corners = [
        Environment::nominal(),
        Environment::at_corner(subvt_device::corner::ProcessCorner::Ss),
        Environment::at_corner(subvt_device::corner::ProcessCorner::Fs),
    ];
    let meps: Vec<_> = corners
        .iter()
        .map(|&env| find_mep(&eval, &ring, env, Volts(0.12), Volts(0.6)).expect("valid range"))
        .collect();

    (3..=9)
        .map(|bits| {
            let lsb = 1.2 / f64::from(1u32 << bits);
            let mut worst_error = 0.0f64;
            let mut worst_overhead = 0.0f64;
            for (mep, env) in meps.iter().zip(&corners) {
                let word = (mep.vopt.volts() / lsb).round();
                let quantized = Volts(word * lsb);
                worst_error = worst_error.max((quantized - mep.vopt).abs().volts() * 1e3);
                if let Ok(e) = eval.energy(&ring, quantized, *env) {
                    let overhead = e.total().value() / mep.energy.value() - 1.0;
                    worst_overhead = worst_overhead.max(overhead);
                }
            }
            BitsRow {
                bits,
                lsb_mv: lsb * 1e3,
                worst_error_mv: worst_error,
                worst_energy_overhead: worst_overhead,
                system_cycle_us: f64::from(1u32 << bits) / 64.0,
            }
        })
        .collect()
}

/// One row of the Ref_clk ablation.
#[derive(Debug, Clone, Copy)]
pub struct RefClkRow {
    /// Ref_clk period (ns); `None` = the per-band adaptive clock.
    pub period_ns: Option<f64>,
    /// Lowest supply (mV) at which the quantizer word is still a
    /// single clean burst.
    pub min_reliable_mv: Option<f64>,
    /// Highest supply (mV) at which it is reliable.
    pub max_reliable_mv: Option<f64>,
}

/// Sweeps the Ref_clk strategy: fixed periods (the paper's 14 ns
/// direct method) vs the per-band "much lower frequency" method.
pub fn ablation_refclk() -> Vec<RefClkRow> {
    let eval = AnalyticEval::new(&Technology::st_130nm());
    let env = Environment::nominal();
    let line = DelayLine::new(64, CellKind::Inverter);
    let voltages: Vec<Volts> = (4..=63).map(|w| Volts(f64::from(w) * 0.01875)).collect();

    let reliable_at = |period: Seconds, anchor: Seconds, v: Volts| -> bool {
        let Ok(cell) = line.cell_delay_with(&eval, v, env) else {
            return false;
        };
        let q = Quantizer::new(64, RefClock::square(period), anchor);
        q.sample(cell).encode().is_ok()
    };

    let mut rows = Vec::new();
    for period_ns in [14.0, 50.0, 200.0, 1000.0] {
        let period = Seconds::from_nanos(period_ns);
        let anchor = Seconds::from_nanos(period_ns * 0.43);
        let reliable: Vec<f64> = voltages
            .iter()
            .filter(|&&v| reliable_at(period, anchor, v))
            .map(|v| v.millivolts())
            .collect();
        rows.push(RefClkRow {
            period_ns: Some(period_ns),
            min_reliable_mv: reliable.first().copied(),
            max_reliable_mv: reliable.last().copied(),
        });
    }
    // Per-band method: period = 256 cells, anchor = 31.5 cells.
    let reliable: Vec<f64> = voltages
        .iter()
        .filter(|&&v| {
            let Ok(cell) = line.cell_delay_with(&eval, v, env) else {
                return false;
            };
            reliable_at(
                Seconds(cell.value() * 256.0),
                Seconds(cell.value() * 31.5),
                v,
            )
        })
        .map(|v| v.millivolts())
        .collect();
    rows.push(RefClkRow {
        period_ns: None,
        min_reliable_mv: reliable.first().copied(),
        max_reliable_mv: reliable.last().copied(),
    });
    rows
}

/// One row of the pulse-shrink β ablation.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkRow {
    /// Aspect-ratio factor β.
    pub beta: f64,
    /// Width change per circulation (ps; negative = expands).
    pub shrink_ps: f64,
    /// Circulations to absorb a 7 ns reference pulse (`None` if the
    /// pulse never vanishes).
    pub cycles_for_7ns: Option<u32>,
}

/// Sweeps β through Eq. 1 (β > 1 shrinks, β < 1 expands).
pub fn ablation_shrink() -> Vec<ShrinkRow> {
    [0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.5]
        .iter()
        .map(|&beta| {
            let stage = PulseShrinkStage::nominal_130nm().with_beta(beta);
            let ring = PulseShrinkRing::new(stage, Seconds::from_picos(10.0));
            ShrinkRow {
                beta,
                shrink_ps: stage.width_change().picos(),
                cycles_for_7ns: ring
                    .circulate(Seconds::from_nanos(7.0), 1_000_000)
                    .map(|r| r.cycles),
            }
        })
        .collect()
}

/// One row of the FIFO-depth ablation.
#[derive(Debug, Clone, Copy)]
pub struct FifoRow {
    /// FIFO capacity.
    pub depth: usize,
    /// Mean arrivals per cycle offered.
    pub arrivals_per_cycle: f64,
    /// Fraction of offered items lost.
    pub loss_rate: f64,
    /// Mean supply voltage the controller chose (mV).
    pub mean_vout_mv: f64,
}

/// Sweeps FIFO depth × arrival rate under the full controller.
pub fn ablation_fifo() -> Vec<FifoRow> {
    let mut rows = Vec::new();
    for depth in [4usize, 8, 16, 32, 64] {
        for rate in [1u32, 2, 4] {
            let mut scenario =
                Scenario::paper_worked_example().with_workload(WorkloadPattern::Poisson {
                    mean: f64::from(rate),
                });
            scenario.cycles = 800;
            scenario.config = ControllerConfig {
                fifo_capacity: depth,
                ..ControllerConfig::default()
            };
            let summary =
                run_scenario(&scenario, SupplyPolicy::AdaptiveCompensated).expect("designable");
            rows.push(FifoRow {
                depth,
                arrivals_per_cycle: f64::from(rate),
                loss_rate: summary.loss_rate(),
                mean_vout_mv: summary.mean_vout.millivolts(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_bits_is_near_the_knee() {
        let rows = ablation_bits();
        let at = |bits: u8| rows.iter().find(|r| r.bits == bits).copied().unwrap();
        // Energy overhead collapses going 3→6 bits, but 6→9 buys little.
        let gain_3_to_6 = at(3).worst_energy_overhead - at(6).worst_energy_overhead;
        let gain_6_to_9 = at(6).worst_energy_overhead - at(9).worst_energy_overhead;
        assert!(
            gain_3_to_6 > 5.0 * gain_6_to_9.max(1e-4),
            "knee not at 6 bits: {gain_3_to_6} vs {gain_6_to_9}"
        );
        assert!((at(6).lsb_mv - 18.75).abs() < 1e-9);
        assert!(at(6).worst_energy_overhead < 0.05);
    }

    #[test]
    fn fixed_fast_refclk_fails_in_subthreshold() {
        let rows = ablation_refclk();
        let fixed14 = rows[0];
        assert_eq!(fixed14.period_ns, Some(14.0));
        // The 14 ns clock cannot cover the subthreshold region...
        if let Some(min) = fixed14.min_reliable_mv {
            assert!(min > 300.0, "14 ns clock reliable down to {min} mV?");
        }
        // ...while the per-band method covers everything measurable.
        let adaptive = rows.last().unwrap();
        assert!(adaptive.period_ns.is_none());
        let min = adaptive.min_reliable_mv.unwrap();
        assert!(min < 150.0, "adaptive method floor {min} mV");
    }

    #[test]
    fn shrink_only_for_beta_above_one() {
        for row in ablation_shrink() {
            if row.beta > 1.0 {
                assert!(row.shrink_ps > 0.0);
                assert!(row.cycles_for_7ns.is_some());
            } else {
                assert!(row.cycles_for_7ns.is_none());
            }
        }
    }

    #[test]
    fn bigger_beta_converts_faster() {
        let rows = ablation_shrink();
        let c12 = rows
            .iter()
            .find(|r| r.beta == 1.2)
            .unwrap()
            .cycles_for_7ns
            .unwrap();
        let c15 = rows
            .iter()
            .find(|r| r.beta == 1.5)
            .unwrap()
            .cycles_for_7ns
            .unwrap();
        assert!(c15 < c12);
    }

    #[test]
    fn deeper_fifo_loses_less() {
        let rows = ablation_fifo();
        let loss = |depth: usize, rate: f64| {
            rows.iter()
                .find(|r| r.depth == depth && r.arrivals_per_cycle == rate)
                .unwrap()
                .loss_rate
        };
        assert!(loss(64, 4.0) <= loss(4, 4.0));
    }

    #[test]
    fn heavier_arrivals_raise_the_voltage() {
        let rows = ablation_fifo();
        let vout = |rate: f64| {
            rows.iter()
                .find(|r| r.depth == 64 && r.arrivals_per_cycle == rate)
                .unwrap()
                .mean_vout_mv
        };
        assert!(vout(4.0) > vout(1.0), "{} vs {}", vout(4.0), vout(1.0));
    }
}
