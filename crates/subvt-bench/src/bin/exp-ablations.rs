//! Ablation studies over the paper's design choices: code width,
//! Ref_clk strategy, pulse-shrink β, FIFO depth.
//!
//! The seven tables are independent, so they are rendered via a coarse
//! `subvt-exec` fan-out (one chunk per table) and printed in their
//! fixed order afterwards.

use subvt_bench::ablation::{ablation_bits, ablation_fifo, ablation_refclk, ablation_shrink};
use subvt_bench::jobs::harness_config;
use subvt_bench::report::{f, pct, Table};
use subvt_core::study::STUDY_HELP;
use subvt_exec::par_map_indexed;

fn usage() -> String {
    format!(
        "exp-ablations — design-choice ablation tables\n\n\
         USAGE: exp-ablations [study flags]\n\n{STUDY_HELP}"
    )
}

fn bits_table() -> String {
    let mut bits = Table::new(
        "Code width (paper: 6 bits is \"the best resolution and best tradeoffs\")",
        &[
            "bits",
            "LSB (mV)",
            "worst MEP quantization (mV)",
            "worst energy overhead",
            "system cycle (µs)",
        ],
    );
    for row in ablation_bits() {
        bits.row(&[
            row.bits.to_string(),
            f(row.lsb_mv, 2),
            f(row.worst_error_mv, 2),
            pct(row.worst_energy_overhead),
            f(row.system_cycle_us, 3),
        ]);
    }
    bits.render()
}

fn refclk_table() -> String {
    let mut refclk = Table::new(
        "Ref_clk strategy (fixed direct conversion vs per-band slow clock)",
        &["Ref_clk", "reliable from (mV)", "reliable to (mV)"],
    );
    for row in ablation_refclk() {
        refclk.row(&[
            row.period_ns
                .map_or("per-band".into(), |p| format!("{p:.0} ns")),
            row.min_reliable_mv.map_or("-".into(), |v| f(v, 0)),
            row.max_reliable_mv.map_or("-".into(), |v| f(v, 0)),
        ]);
    }
    refclk.render()
}

fn shrink_table() -> String {
    let mut shrink = Table::new(
        "Pulse shrinking, Eq. 1 (β > 1 shrinks, β < 1 expands)",
        &["β", "ΔW (ps/cycle)", "cycles to absorb 7 ns"],
    );
    for row in ablation_shrink() {
        shrink.row(&[
            f(row.beta, 2),
            f(row.shrink_ps, 2),
            row.cycles_for_7ns.map_or("never".into(), |c| c.to_string()),
        ]);
    }
    shrink.render()
}

fn sizing_table() -> String {
    use subvt_device::energy::CircuitProfile;
    use subvt_device::mosfet::Environment;
    use subvt_device::sizing::sizing_sweep;
    use subvt_device::technology::Technology;
    use subvt_device::units::Volts;
    let mut sizing = Table::new(
        "Device sizing (design-time mitigation, paper refs [5][7]): MEP cost vs mismatch immunity",
        &[
            "upsize",
            "MEP (fJ)",
            "Vopt (mV)",
            "relative σ",
            "3σ guard-band energy (fJ)",
        ],
    );
    let tech = Technology::st_130nm();
    for p in sizing_sweep(
        &tech,
        &CircuitProfile::ring_oscillator(),
        Environment::nominal(),
        Volts(0.012),
        &[1.0, 2.0, 4.0, 8.0, 16.0],
    ) {
        sizing.row(&[
            f(p.upsize, 0),
            f(p.mep_energy.femtos(), 3),
            f(p.vopt.millivolts(), 1),
            f(p.relative_sigma, 3),
            f(p.guardband_energy.femtos(), 3),
        ]);
    }
    sizing.render()
}

fn dither_table() -> String {
    use subvt_core::dithering::compare_dither;
    use subvt_device::energy::CircuitProfile;
    use subvt_device::mosfet::Environment;
    use subvt_device::technology::Technology;
    use subvt_device::units::Volts;
    let mut dither = Table::new(
        "UDVS dithering (paper ref [12]): recovering the round-up quantization penalty",
        &[
            "target (mV)",
            "round-up (fJ)",
            "dithered (fJ)",
            "exact (fJ)",
            "recovery",
        ],
    );
    let tech = Technology::st_130nm();
    let ring = CircuitProfile::ring_oscillator();
    for mv in [215.6, 234.4, 253.1, 290.6, 328.1] {
        let c = compare_dither(
            &tech,
            &ring,
            Environment::nominal(),
            Volts::from_millivolts(mv),
        )
        .expect("in range");
        dither.row(&[
            f(mv, 1),
            f(c.rounded.femtos(), 4),
            f(c.dithered.femtos(), 4),
            f(c.exact.femtos(), 4),
            pct(c.recovery()),
        ]);
    }
    dither.render()
}

fn tdc_table() -> String {
    use subvt_device::mosfet::Environment;
    use subvt_device::tabulate::AnalyticEval;
    use subvt_device::technology::Technology;
    use subvt_device::units::Volts;
    use subvt_tdc::counter_method::CounterSensor;
    use subvt_tdc::delay_line::{CellKind, DelayLine};
    use subvt_tdc::vernier::VernierTdc;
    let mut tdcs = Table::new(
        "Sensor alternatives: direct quantizer vs counter-feedback vs Vernier",
        &[
            "method",
            "configuration",
            "resolution @220 mV",
            "conversion span",
            "range",
        ],
    );
    let tech = Technology::st_130nm();
    let env = Environment::nominal();
    let v = Volts(0.22);
    let cell = DelayLine::new(64, CellKind::InvNor)
        .cell_delay_with(&AnalyticEval::new(&tech), v, env)
        .expect("in range");
    tdcs.row(&[
        "direct (paper)".into(),
        "64 stages, per-band clock".into(),
        "≈18.75 mV/LSB equiv".into(),
        format!("{:.1} µs", cell.value() * 256.0 * 1e6),
        "per band".into(),
    ]);
    let counter = CounterSensor::full_range();
    let r = counter.resolution_at(&tech, v, env).expect("in range");
    tdcs.row(&[
        "counter feedback".into(),
        "15-cell ring, 100 µs window".into(),
        format!("{:.2} mV", r.millivolts()),
        "100 µs".into(),
        "full 0.1-1.2 V".into(),
    ]);
    let vern = VernierTdc::fine_grained();
    let res = vern.resolution(&tech, v, env).expect("in range");
    tdcs.row(&[
        "Vernier".into(),
        "256 stages, 5% skew".into(),
        format!("{:.1} ns time-bin", res.nanos()),
        format!("{:.1} µs", vern.range(&tech, v, env).unwrap().value() * 1e6),
        "interval-limited".into(),
    ]);
    tdcs.render()
}

fn fifo_table() -> String {
    let mut fifo = Table::new(
        "FIFO depth × arrival rate (loss and chosen voltage)",
        &["depth", "arrivals/cycle", "loss rate", "mean Vdd (mV)"],
    );
    for row in ablation_fifo() {
        fifo.row(&[
            row.depth.to_string(),
            f(row.arrivals_per_cycle, 1),
            format!("{:.2e}", row.loss_rate),
            f(row.mean_vout_mv, 1),
        ]);
    }
    fifo.render()
}

fn main() {
    let cfg = harness_config(&usage());

    println!("Ablations over the design choices called out in DESIGN.md\n");

    let tables: [fn() -> String; 7] = [
        bits_table,
        refclk_table,
        shrink_table,
        sizing_table,
        dither_table,
        tdc_table,
        fifo_table,
    ];
    for rendered in par_map_indexed(&cfg, tables.len(), |i| tables[i]()) {
        println!("{rendered}");
    }
}
