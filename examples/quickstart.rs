//! Quickstart: the paper's story in five steps.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use subvt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let eval = EvalMode::Analytic.build(&Technology::st_130nm());

    // 1. Subthreshold logic has a minimum-energy point (MEP) below Vth.
    let ring = CircuitProfile::ring_oscillator();
    let mep = find_mep(
        eval.as_ref(),
        &ring,
        Environment::nominal(),
        Volts(0.12),
        Volts(0.6),
    )?;
    println!(
        "1. Ring-oscillator MEP at the typical corner: {:.0} mV, {:.2} fJ/op (paper: 200 mV, 2.65 fJ)",
        mep.vopt.millivolts(),
        mep.energy.femtos()
    );

    // 2. Process corners move the MEP — a fixed supply misses it.
    for corner in [ProcessCorner::Ss, ProcessCorner::Fs] {
        let shifted = find_mep(
            eval.as_ref(),
            &ring,
            Environment::at_corner(corner),
            Volts(0.12),
            Volts(0.6),
        )?;
        println!(
            "2. At the {corner} corner the MEP moves to {:.0} mV, {:.2} fJ/op",
            shifted.vopt.millivolts(),
            shifted.energy.femtos()
        );
    }

    // 3. The TDC delay replica reads the shift as a digital signature.
    let sensor = VariationSensor::with_eval(
        eval.as_ref(),
        Environment::nominal(),
        SensorConfig::default(),
    );
    let deviation = sensor.sense_with(
        eval.as_ref(),
        19,
        word_voltage(19),
        Environment::at_corner(ProcessCorner::Ss),
        GateMismatch::NOMINAL,
    )?;
    println!(
        "3. On slow silicon the sensor reads {deviation} LSB at word 19 (slow ⇒ raise the supply)"
    );

    // 4. The DC-DC converter turns 6-bit words into supply voltages.
    let mut dcdc = DcDcConverter::new(ConverterParams::default(), Box::new(NoLoad));
    dcdc.set_word(19);
    dcdc.run_system_cycles(80);
    println!(
        "4. Word 19 regulates the switched converter to {:.1} mV (ideal: 356.25 mV, resolution 18.75 mV)",
        dcdc.vout().millivolts()
    );

    // 5. The assembled controller corrects the LUT and saves energy.
    let report = savings_experiment(&Scenario::paper_worked_example(), &eval)?;
    println!(
        "5. TT-designed controller on a slow die: LUT corrected by {:+} LSB, \
         {:.0}% energy saved vs a fixed supply (paper: \"up to 55%\")",
        report.compensated.compensation,
        report.savings_vs_fixed() * 100.0
    );
    Ok(())
}
