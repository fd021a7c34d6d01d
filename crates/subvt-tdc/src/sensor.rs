//! The variation sensor: the paper's novel contribution.
//!
//! Sec. II-A: "The novel variation sensor captures the variation in
//! operating conditions based on time to digital conversion. Therefore,
//! it can be used as a signature for a change in process and
//! temperature variations."
//!
//! At design time the sensor is calibrated at the *design* environment
//! (the corner the chip was signed off at): for every 6-bit voltage
//! word it records the quantizer code the delay replica should produce
//! at that word's voltage, plus the codes of the neighbouring words.
//! At run time the replica runs on the *actual* die; the measured code
//! is matched against the neighbour table, and the best-matching
//! neighbour offset is the variation signature in DC-DC LSBs
//! (18.75 mV units).

use std::fmt;

use subvt_device::constants::DCDC_LSB;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::DeviceEval;
use subvt_device::technology::GateKind;
use subvt_device::units::{Seconds, Volts};
use subvt_digital::encoder::{EncodeError, QuantizerWord};
use subvt_digital::lut::VoltageWord;

use crate::delay_line::{CellKind, DelayLine};
use crate::quantizer::{Quantizer, RefClock};

/// Dies per stack buffer in the lane senses: the default sub-batch
/// size, so a default-sized lane is one device-kernel call.
const LANE_CHUNK: usize = 32;

/// Sensor geometry and calibration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Delay-line length (the paper's quantizer has 64 stages).
    pub stages: u8,
    /// Anchor position in cell delays: the sampling instant is placed
    /// so the edge sits at this stage when the die matches the design
    /// environment.
    pub anchor_stages: f64,
    /// Ref_clk period in cell delays for each band ("varying the
    /// Ref_clk to a much lower frequency", Sec. II-A).
    pub period_stages: f64,
    /// Neighbour range of the signature table (± this many LSBs).
    pub neighbor_range: i16,
}

impl Default for SensorConfig {
    fn default() -> SensorConfig {
        SensorConfig {
            // Half-stage anchor: the edge sits mid-cell, away from the
            // metastability window of the boundary flip-flop.
            stages: 64,
            anchor_stages: 31.5,
            period_stages: 256.0,
            neighbor_range: 3,
        }
    }
}

/// Why a measurement could not be turned into a deviation.
#[derive(Debug, Clone, PartialEq)]
pub enum SenseError {
    /// The requested band's voltage is below the technology floor, so
    /// no calibration exists for it.
    BandUnusable {
        /// The offending voltage word.
        word: VoltageWord,
    },
    /// The quantizer word was not decodable (and not classifiable as a
    /// simple saturation): the double-latch failure mode.
    Unreliable(EncodeError),
}

impl fmt::Display for SenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SenseError::BandUnusable { word } => {
                write!(f, "voltage word {word} is below the sensor's usable range")
            }
            SenseError::Unreliable(e) => write!(f, "unreliable quantizer output: {e}"),
        }
    }
}

impl std::error::Error for SenseError {}

/// One calibrated measurement band (one voltage word).
#[derive(Debug, Clone, PartialEq)]
struct BandTable {
    quantizer: Quantizer,
    /// `(offset_lsb, expected_code)` at the design environment, for
    /// offsets where the code is cleanly decodable.
    neighbors: Vec<(i16, u32)>,
}

/// The calibrated TDC variation sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSensor {
    config: SensorConfig,
    design_env: Environment,
    line: DelayLine,
    bands: Vec<Option<BandTable>>,
}

/// Voltage of a 6-bit DC-DC word: `word × 18.75 mV`.
pub fn word_voltage(word: VoltageWord) -> Volts {
    DCDC_LSB * f64::from(word)
}

/// Closest 6-bit word to a voltage.
pub fn voltage_word(v: Volts) -> VoltageWord {
    (v.volts() / DCDC_LSB.volts()).round().clamp(0.0, 63.0) as VoltageWord
}

impl VariationSensor {
    /// Calibrates a sensor through a [`DeviceEval`] at the design
    /// environment.
    ///
    /// Bands whose voltage (or whose lowest in-range neighbour) falls
    /// below the technology's functional floor are marked unusable.
    pub fn with_eval(
        eval: &dyn DeviceEval,
        design_env: Environment,
        config: SensorConfig,
    ) -> VariationSensor {
        let line = DelayLine::new(config.stages, CellKind::InvNor);
        let mut bands = Vec::with_capacity(64);
        for word in 0u8..64 {
            bands.push(Self::calibrate_band(eval, design_env, &line, config, word));
        }
        VariationSensor {
            config,
            design_env,
            line,
            bands,
        }
    }

    fn calibrate_band(
        eval: &dyn DeviceEval,
        design_env: Environment,
        line: &DelayLine,
        config: SensorConfig,
        word: VoltageWord,
    ) -> Option<BandTable> {
        let v = word_voltage(word);
        let cell = line.cell_delay_with(eval, v, design_env).ok()?;
        let period = Seconds(cell.value() * config.period_stages);
        let anchor = Seconds(cell.value() * config.anchor_stages);
        let quantizer = Quantizer::new(config.stages, RefClock::square(period), anchor);
        let mut neighbors = Vec::new();
        for k in -config.neighbor_range..=config.neighbor_range {
            let w = i16::from(word) + k;
            if !(0..64).contains(&w) {
                continue;
            }
            let vn = word_voltage(w as VoltageWord);
            let Ok(cell_n) = line.cell_delay_with(eval, vn, design_env) else {
                continue;
            };
            if let Ok(code) = quantizer.sample(cell_n).encode() {
                neighbors.push((k, code));
            }
        }
        // A usable band must at least know its own code.
        if neighbors.iter().any(|&(k, _)| k == 0) {
            Some(BandTable {
                quantizer,
                neighbors,
            })
        } else {
            None
        }
    }

    /// The sensor configuration.
    pub fn config(&self) -> SensorConfig {
        self.config
    }

    /// The environment the sensor was calibrated at.
    pub fn design_env(&self) -> Environment {
        self.design_env
    }

    /// The expected (calibration) code of a band, if usable.
    pub fn expected_code(&self, word: VoltageWord) -> Option<u32> {
        self.bands
            .get(usize::from(word))?
            .as_ref()?
            .neighbors
            .iter()
            .find(|&&(k, _)| k == 0)
            .map(|&(_, c)| c)
    }

    /// Measures the quantizer code for band `word` with the replica at
    /// `actual_vdd` in the actual `env`, with die mismatch `mismatch`;
    /// the replica delay comes from `eval`.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands;
    /// [`SenseError::Unreliable`] when the code cannot be decoded.
    pub fn measure_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        actual_vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<u32, SenseError> {
        let band = self.band(word)?;
        let line = self.line.clone().with_mismatch(mismatch);
        // A supply below the functional floor means the replica never
        // toggles: the flip-flops capture an empty word ("infinitely
        // slow"), not a configuration error.
        let cell = line
            .cell_delay_with(eval, actual_vdd, env)
            .map_err(|_| SenseError::Unreliable(EncodeError::Empty))?;
        Self::encode_cell(band, cell)
    }

    /// Samples the raw thermometer word for band `word` — the
    /// quantizer output *before* encoding, so callers can corrupt or
    /// vote on it (fault injection, redundant sampling) and feed the
    /// result back through [`VariationSensor::decode`].
    ///
    /// The sample is a pure function of the operating point: repeated
    /// calls at the same arguments return the identical word, which is
    /// what makes within-cycle redundant sampling free of extra state.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands;
    /// [`SenseError::Unreliable`]`(`[`EncodeError::Empty`]`)` when the
    /// replica never toggles (supply below the functional floor).
    pub fn sample_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        actual_vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<QuantizerWord, SenseError> {
        let band = self.band(word)?;
        let line = self.line.clone().with_mismatch(mismatch);
        let cell = line
            .cell_delay_with(eval, actual_vdd, env)
            .map_err(|_| SenseError::Unreliable(EncodeError::Empty))?;
        Ok(band.quantizer.sample(cell))
    }

    /// [`VariationSensor::sample_with`] for a lane of dies sharing one
    /// band but each at its *own* actual supply — the fault walk's
    /// shape, where every die's capture sees its own (possibly faulted)
    /// rail. `out[i]` is exactly what
    /// `sample_with(eval, word, vdds[i], env, mismatches[i])` would
    /// return; per-die below-floor supplies capture empty words, as in
    /// the scalar path. The replica delays come from one fused
    /// [`DeviceEval::gate_delay_pair_multi`] call per 32-die stack
    /// chunk, so the call does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands (the band
    /// does not depend on the die, so one `Err` covers the lane and
    /// `out` is left untouched).
    pub fn sample_multi_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Result<QuantizerWord, SenseError>],
    ) -> Result<(), SenseError> {
        self.pair_multi_with(
            eval,
            word,
            vdds,
            env,
            mismatches,
            out,
            |band, cell| match cell {
                Some(cell) => Ok(band.quantizer.sample(cell)),
                None => Err(SenseError::Unreliable(EncodeError::Empty)),
            },
            |v, m| self.sample_with(eval, word, v, env, m),
        )
    }

    /// Decodes a raw quantizer word (e.g. from
    /// [`VariationSensor::sample_with`], possibly corrupted in between)
    /// into the integer variation signature, with the same
    /// bubble-tolerant encode and out-of-range classification as
    /// [`VariationSensor::sense_with`]: for any operating point,
    /// `decode(word, sample_with(..)?)` equals `sense_with(..)`.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn decode(&self, word: VoltageWord, sample: QuantizerWord) -> Result<i16, SenseError> {
        self.classify(
            word,
            sample
                .encode_bubble_tolerant()
                .map_err(SenseError::Unreliable),
        )
    }

    /// [`VariationSensor::decode`] without bubble repair: isolated
    /// zero bubbles make the measurement
    /// [`SenseError::Unreliable`] instead of being filled. This is the
    /// decode a non-hardened encoder would implement; the delta
    /// against [`VariationSensor::decode`] is the bubble-correction
    /// mitigation.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn decode_strict(
        &self,
        word: VoltageWord,
        sample: QuantizerWord,
    ) -> Result<i16, SenseError> {
        self.classify(word, sample.encode().map_err(SenseError::Unreliable))
    }

    fn encode_cell(band: &BandTable, cell: Seconds) -> Result<u32, SenseError> {
        band.quantizer
            .sample(cell)
            .encode_bubble_tolerant()
            .map_err(|e| match e {
                EncodeError::Empty => SenseError::Unreliable(EncodeError::Empty),
                other => SenseError::Unreliable(other),
            })
    }

    /// Converts a measured code into a variation signature: the
    /// neighbour offset `k` (in 18.75 mV LSBs) whose design-time code
    /// best matches the measurement. A slow die reads negative (it
    /// behaves like the design corner at a lower voltage); the
    /// compensation loop applies the opposite shift.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn deviation_lsb(&self, word: VoltageWord, code: u32) -> Result<i16, SenseError> {
        let band = self.band(word)?;
        let best = band
            .neighbors
            .iter()
            .min_by_key(|&&(k, c)| (c.abs_diff(code), k.unsigned_abs()))
            .expect("usable band has neighbors");
        Ok(best.0)
    }

    /// Fractional variant of [`VariationSensor::deviation_lsb`]:
    /// linearly interpolates the measured code on the (monotone)
    /// neighbour table, resolving variation *below* one 18.75 mV LSB.
    /// This is what enables sub-LSB compensation by supply dithering.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn deviation_fractional(&self, word: VoltageWord, code: u32) -> Result<f64, SenseError> {
        let band = self.band(word)?;
        // Neighbours are stored in ascending k; codes ascend with k
        // (higher voltage → faster → larger code).
        let n = &band.neighbors;
        let c = f64::from(code);
        // Below/above the table: clamp to the edges.
        if c <= f64::from(n.first().expect("non-empty").1) {
            return Ok(f64::from(n.first().expect("non-empty").0));
        }
        if c >= f64::from(n.last().expect("non-empty").1) {
            return Ok(f64::from(n.last().expect("non-empty").0));
        }
        for pair in n.windows(2) {
            let (k0, c0) = pair[0];
            let (k1, c1) = pair[1];
            let (c0, c1) = (f64::from(c0), f64::from(c1));
            if (c0..=c1).contains(&c) && c1 > c0 {
                let t = (c - c0) / (c1 - c0);
                return Ok(f64::from(k0) + t * f64::from(k1 - k0));
            }
        }
        // Fallback (duplicate codes): integer answer.
        self.deviation_lsb(word, code).map(f64::from)
    }

    /// Measures and converts in one step, mapping out-of-range line
    /// states to extreme deviations: a fully-saturated line means
    /// "much faster than any neighbour", an empty line "much slower",
    /// and multiple bursts mean the line window outgrew the Ref_clk
    /// period — which in this per-band slow-clock architecture only
    /// happens when the die is far slower than calibrated.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn sense_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        actual_vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<i16, SenseError> {
        self.classify(
            word,
            self.measure_with(eval, word, actual_vdd, env, mismatch),
        )
    }

    /// Fractional-deviation variant of [`VariationSensor::sense_with`].
    ///
    /// # Errors
    ///
    /// As [`VariationSensor::sense_with`].
    pub fn sense_fractional_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        actual_vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<f64, SenseError> {
        self.classify_fractional(
            word,
            self.measure_with(eval, word, actual_vdd, env, mismatch),
        )
    }

    /// [`VariationSensor::sense_with`] for a whole lane of dies
    /// sharing one band and one actual supply — the batched word-walk
    /// shape, where a cohort of dies all test the same candidate word.
    /// `out[i]` is exactly what
    /// `sense_with(eval, word, actual_vdd, env, mismatches[i])` would
    /// return; the replica-cell delays come from the evaluator's fused
    /// [`DeviceEval::gate_delay_pair_lane`] kernel, and the per-die
    /// quantize/encode/classify steps stay scalar (they are integer
    /// bit-twiddling, not float work). The lane runs in chunks of 32
    /// dies through a stack buffer, so the call does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatches.len()`.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands (the band
    /// does not depend on the die, so one `Err` covers the lane).
    pub fn sense_lane_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        actual_vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Result<i16, SenseError>],
    ) -> Result<(), SenseError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        let band = self.band(word)?;
        match self.line.cell() {
            CellKind::InvNor => {
                let mut pairs = [(Seconds(0.0), Seconds(0.0)); LANE_CHUNK];
                for (mms, outs) in mismatches
                    .chunks(LANE_CHUNK)
                    .zip(out.chunks_mut(LANE_CHUNK))
                {
                    let pairs = &mut pairs[..mms.len()];
                    match eval.gate_delay_pair_lane(
                        (GateKind::Inverter, GateKind::Nor2),
                        actual_vdd,
                        env,
                        mms,
                        1.0,
                        pairs,
                    ) {
                        Ok(()) => {
                            for (o, (inv, nor)) in outs.iter_mut().zip(pairs.iter()) {
                                *o = self.classify(word, Self::encode_cell(band, *inv + *nor));
                            }
                        }
                        Err(_) => {
                            // Below the functional floor the replica
                            // never toggles: every die captures an
                            // empty word — the same die-independent
                            // mapping `measure_with` applies.
                            for o in outs.iter_mut() {
                                *o = self.classify(
                                    word,
                                    Err(SenseError::Unreliable(EncodeError::Empty)),
                                );
                            }
                        }
                    }
                }
            }
            CellKind::Inverter => {
                for (m, o) in mismatches.iter().zip(out.iter_mut()) {
                    *o = self.sense_with(eval, word, actual_vdd, env, *m);
                }
            }
        }
        Ok(())
    }

    /// [`VariationSensor::sense_fractional_with`] for a lane of dies
    /// sharing one band but each at its *own* actual supply — the
    /// dither-settle shape, where every die walks its own voltage.
    /// `out[i]` is exactly what
    /// `sense_fractional_with(eval, word, vdds[i], env, mismatches[i])`
    /// would return; per-die below-floor supplies classify as empty
    /// words, exactly as in the scalar path. Like
    /// [`VariationSensor::sense_lane_with`], it runs in chunks of 32
    /// dies through a stack buffer and does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    ///
    /// # Errors
    ///
    /// [`SenseError::BandUnusable`] for uncalibrated bands.
    pub fn sense_fractional_multi_with(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Result<f64, SenseError>],
    ) -> Result<(), SenseError> {
        self.pair_multi_with(
            eval,
            word,
            vdds,
            env,
            mismatches,
            out,
            |band, cell| {
                let measured = match cell {
                    Some(cell) => Self::encode_cell(band, cell),
                    None => Err(SenseError::Unreliable(EncodeError::Empty)),
                };
                self.classify_fractional(word, measured)
            },
            |v, m| self.sense_fractional_with(eval, word, v, env, m),
        )
    }

    /// The per-die-supply lane shared by
    /// [`VariationSensor::sample_multi_with`] and
    /// [`VariationSensor::sense_fractional_multi_with`]: one fused
    /// [`DeviceEval::gate_delay_pair_multi`] call per 32-die stack
    /// chunk gives each die's replica cell delay (`None` below the
    /// functional floor), which `per_die` maps against the band. Lines
    /// of a cell kind without a fused pair fall back to `scalar` per
    /// die.
    #[allow(clippy::too_many_arguments)]
    fn pair_multi_with<T>(
        &self,
        eval: &dyn DeviceEval,
        word: VoltageWord,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [T],
        per_die: impl Fn(&BandTable, Option<Seconds>) -> T,
        scalar: impl Fn(Volts, GateMismatch) -> T,
    ) -> Result<(), SenseError> {
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
        let band = self.band(word)?;
        match self.line.cell() {
            CellKind::InvNor => {
                let mut pairs = [None; LANE_CHUNK];
                for ((vs, mms), outs) in vdds
                    .chunks(LANE_CHUNK)
                    .zip(mismatches.chunks(LANE_CHUNK))
                    .zip(out.chunks_mut(LANE_CHUNK))
                {
                    let pairs = &mut pairs[..vs.len()];
                    eval.gate_delay_pair_multi(
                        (GateKind::Inverter, GateKind::Nor2),
                        vs,
                        env,
                        mms,
                        1.0,
                        pairs,
                    );
                    for (o, p) in outs.iter_mut().zip(pairs.iter()) {
                        *o = per_die(band, p.map(|(inv, nor)| inv + nor));
                    }
                }
            }
            CellKind::Inverter => {
                for ((v, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
                    *o = scalar(*v, *m);
                }
            }
        }
        Ok(())
    }

    /// Maps a measurement to the integer signature, classifying the
    /// out-of-range line states as extreme deviations.
    fn classify(
        &self,
        word: VoltageWord,
        measured: Result<u32, SenseError>,
    ) -> Result<i16, SenseError> {
        match measured {
            Ok(code) => self.deviation_lsb(word, code),
            Err(SenseError::Unreliable(EncodeError::Saturated)) => Ok(self.config.neighbor_range),
            Err(SenseError::Unreliable(EncodeError::Empty))
            | Err(SenseError::Unreliable(EncodeError::MultipleBursts { .. })) => {
                Ok(-self.config.neighbor_range)
            }
            Err(e) => Err(e),
        }
    }

    fn classify_fractional(
        &self,
        word: VoltageWord,
        measured: Result<u32, SenseError>,
    ) -> Result<f64, SenseError> {
        match measured {
            Ok(code) => self.deviation_fractional(word, code),
            Err(SenseError::Unreliable(EncodeError::Saturated)) => {
                Ok(f64::from(self.config.neighbor_range))
            }
            Err(SenseError::Unreliable(EncodeError::Empty))
            | Err(SenseError::Unreliable(EncodeError::MultipleBursts { .. })) => {
                Ok(-f64::from(self.config.neighbor_range))
            }
            Err(e) => Err(e),
        }
    }

    fn band(&self, word: VoltageWord) -> Result<&BandTable, SenseError> {
        self.bands
            .get(usize::from(word))
            .and_then(|b| b.as_ref())
            .ok_or(SenseError::BandUnusable { word })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::corner::ProcessCorner;
    use subvt_device::tabulate::{AnalyticEval, TabulatedEval};
    use subvt_device::technology::Technology;

    fn sensor_fixture() -> (AnalyticEval, VariationSensor) {
        let eval = AnalyticEval::new(&Technology::st_130nm());
        let sensor =
            VariationSensor::with_eval(&eval, Environment::nominal(), SensorConfig::default());
        (eval, sensor)
    }

    #[test]
    fn word_voltage_round_trip() {
        assert!((word_voltage(19).millivolts() - 356.25).abs() < 1e-9);
        assert!((word_voltage(12).millivolts() - 225.0).abs() < 1e-9);
        assert_eq!(voltage_word(Volts(0.35625)), 19);
        assert_eq!(voltage_word(Volts(1.2)), 63);
        assert_eq!(voltage_word(Volts(0.0)), 0);
    }

    #[test]
    fn low_words_are_unusable_high_words_are_calibrated() {
        let (_, sensor) = sensor_fixture();
        assert!(sensor.expected_code(3).is_none());
        assert!(sensor.expected_code(19).is_some());
        assert!(sensor.expected_code(47).is_some());
    }

    #[test]
    fn expected_code_sits_at_the_anchor() {
        let (_, sensor) = sensor_fixture();
        let code = sensor.expected_code(19).unwrap();
        assert_eq!(code, 32, "edge should sit at the anchor stage");
    }

    #[test]
    fn nominal_die_reads_zero_deviation() {
        let (eval, sensor) = sensor_fixture();
        for word in [11u8, 19, 32, 47] {
            let dev = sensor
                .sense_with(
                    &eval,
                    word,
                    word_voltage(word),
                    Environment::nominal(),
                    GateMismatch::NOMINAL,
                )
                .unwrap();
            assert_eq!(dev, 0, "word {word}");
        }
    }

    #[test]
    fn slow_corner_reads_negative_deviation() {
        // The paper's worked example: a TT-calibrated controller on a
        // slower die sees a ~1-bit signature at word 19 (~356 mV).
        let (eval, sensor) = sensor_fixture();
        let dev = sensor
            .sense_with(
                &eval,
                19,
                word_voltage(19),
                Environment::at_corner(ProcessCorner::Ss),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(dev < 0, "slow die must read slow, got {dev}");
        assert!(dev >= -2, "15 mV shift should be ~1 LSB, got {dev}");
    }

    #[test]
    fn fast_corner_reads_positive_deviation() {
        let (eval, sensor) = sensor_fixture();
        let dev = sensor
            .sense_with(
                &eval,
                19,
                word_voltage(19),
                Environment::at_corner(ProcessCorner::Ff),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(dev > 0, "fast die must read fast, got {dev}");
    }

    #[test]
    fn hot_die_reads_fast_in_subthreshold() {
        let (eval, sensor) = sensor_fixture();
        let dev = sensor
            .sense_with(
                &eval,
                12,
                word_voltage(12),
                Environment::at_celsius(85.0),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(dev > 0, "hot subthreshold logic is faster, got {dev}");
    }

    #[test]
    fn voltage_error_is_sensed_like_variation() {
        // Supplying a lower voltage than the band expects reads slow:
        // the same mechanism regulates the DC-DC output.
        let (eval, sensor) = sensor_fixture();
        let dev = sensor
            .sense_with(
                &eval,
                19,
                word_voltage(17),
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(
            (-3..=-1).contains(&dev),
            "two LSBs low should read ≈ -2, got {dev}"
        );
    }

    #[test]
    fn unusable_band_reports_error() {
        let (eval, sensor) = sensor_fixture();
        let err = sensor
            .sense_with(
                &eval,
                2,
                word_voltage(2),
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap_err();
        assert!(matches!(err, SenseError::BandUnusable { word: 2 }));
        assert!(err.to_string().contains("below the sensor"));
    }

    #[test]
    fn extreme_fast_die_clamps_to_range() {
        let (eval, sensor) = sensor_fixture();
        // 200 mV above the band voltage: the line saturates.
        let dev = sensor
            .sense_with(
                &eval,
                19,
                Volts(word_voltage(19).volts() + 0.2),
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert_eq!(dev, sensor.config().neighbor_range);
    }

    #[test]
    fn fractional_deviation_resolves_half_lsb_shifts() {
        // A die shifted by half an LSB of effective Vth reads ≈ ±0.5
        // fractionally, where the integer path rounds to 0 or ±1.
        let (eval, sensor) = sensor_fixture();
        let half = GateMismatch {
            nmos_dvth: Volts(0.009_4),
            pmos_dvth: Volts(0.009_4),
        };
        let frac = sensor
            .sense_fractional_with(&eval, 12, word_voltage(12), Environment::nominal(), half)
            .unwrap();
        assert!(
            (-0.85..=-0.25).contains(&frac),
            "half-LSB slow die reads {frac}"
        );
        // Nominal die reads near zero fractionally too.
        let zero = sensor
            .sense_fractional_with(
                &eval,
                12,
                word_voltage(12),
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(zero.abs() < 0.2, "nominal reads {zero}");
    }

    #[test]
    fn fractional_deviation_is_monotone_in_die_shift() {
        let (eval, sensor) = sensor_fixture();
        let mut last = f64::MAX;
        for mv in [-20.0, -10.0, 0.0, 10.0, 20.0] {
            let die = GateMismatch {
                nmos_dvth: Volts::from_millivolts(mv),
                pmos_dvth: Volts::from_millivolts(mv),
            };
            let frac = sensor
                .sense_fractional_with(&eval, 12, word_voltage(12), Environment::nominal(), die)
                .unwrap();
            assert!(
                frac <= last + 1e-9,
                "not monotone at {mv} mV: {frac} > {last}"
            );
            last = frac;
        }
    }

    #[test]
    fn fractional_clamps_at_the_table_edges() {
        let (eval, sensor) = sensor_fixture();
        let wild = GateMismatch {
            nmos_dvth: Volts(0.2),
            pmos_dvth: Volts(0.2),
        };
        let frac = sensor
            .sense_fractional_with(&eval, 12, word_voltage(12), Environment::nominal(), wild)
            .unwrap();
        assert_eq!(frac, -3.0, "clamped at the neighbour range");
    }

    #[test]
    fn tabulated_calibration_and_sensing_reproduce_the_worked_example() {
        let tech = Technology::st_130nm();
        let env = Environment::nominal();
        // Tabulated calibration + sensing reproduces the worked example:
        // a TT-calibrated sensor reads a slow corner as slow.
        let tabulated = TabulatedEval::new(&tech);
        let sensor = VariationSensor::with_eval(&tabulated, env, SensorConfig::default());
        let dev = sensor
            .sense_with(
                &tabulated,
                19,
                word_voltage(19),
                Environment::at_corner(ProcessCorner::Ss),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!((-2..0).contains(&dev), "slow die reads {dev}");
        let zero = sensor
            .sense_fractional_with(&tabulated, 19, word_voltage(19), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!(zero.abs() < 0.2, "nominal die reads {zero}");
    }

    #[test]
    fn sample_then_decode_matches_sense() {
        let (eval, sensor) = sensor_fixture();
        for (word, env) in [
            (11u8, Environment::nominal()),
            (19, Environment::at_corner(ProcessCorner::Ss)),
            (19, Environment::at_corner(ProcessCorner::Ff)),
            (12, Environment::at_celsius(85.0)),
        ] {
            let sample = sensor
                .sample_with(&eval, word, word_voltage(word), env, GateMismatch::NOMINAL)
                .unwrap();
            let via_decode = sensor.decode(word, sample).unwrap();
            let direct = sensor
                .sense_with(&eval, word, word_voltage(word), env, GateMismatch::NOMINAL)
                .unwrap();
            assert_eq!(via_decode, direct, "word {word}");
        }
    }

    #[test]
    fn strict_decode_rejects_the_bubble_the_tolerant_path_repairs() {
        let (eval, sensor) = sensor_fixture();
        let sample = sensor
            .sample_with(
                &eval,
                19,
                word_voltage(19),
                Environment::nominal(),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        // Punch an interior bubble into the thermometer run.
        let run = sample.leading_run();
        assert!(run >= 3, "fixture run too short: {run}");
        let bubbled = QuantizerWord::new(sample.width(), sample.bits() & !(1 << (run / 2)));
        assert_eq!(
            sensor.decode(19, bubbled).unwrap(),
            sensor.decode(19, sample).unwrap(),
            "tolerant decode repairs the bubble"
        );
        let strict = sensor.decode_strict(19, bubbled).unwrap();
        assert_ne!(
            strict,
            sensor.decode_strict(19, sample).unwrap(),
            "strict decode mis-signatures the bubbled word"
        );
    }

    #[test]
    fn sense_lane_matches_scalar_sense() {
        let (analytic, sensor) = sensor_fixture();
        let tabulated = TabulatedEval::new(analytic.technology());
        let evals: [&dyn DeviceEval; 2] = [&analytic, &tabulated];
        // Lane lengths covering full chunks and every ragged tail, of
        // the 4-wide kernels and of the 32-die sense chunks, with
        // mismatches spanning nominal, slow, fast and wild dies.
        let draws = [0.0, 0.013, -0.021, 0.2, 0.004, -0.0087, 0.0123];
        for eval in evals {
            for env in [Environment::nominal(), Environment::at_celsius(85.0)] {
                for (word, vdd) in [
                    (19u8, word_voltage(19)),
                    (12, word_voltage(13)),
                    (47, Volts(0.9)),
                ] {
                    for len in [1, 2, 3, 4, 5, 7, 33, 71] {
                        let mms: Vec<GateMismatch> = draws
                            .iter()
                            .cycle()
                            .take(len)
                            .map(|&d| GateMismatch {
                                nmos_dvth: Volts(d),
                                pmos_dvth: Volts(d * 0.5),
                            })
                            .collect();
                        let mut lane = vec![Ok(0i16); len];
                        sensor
                            .sense_lane_with(eval, word, vdd, env, &mms, &mut lane)
                            .unwrap();
                        for (m, got) in mms.iter().zip(&lane) {
                            let want = sensor.sense_with(eval, word, vdd, env, *m);
                            assert_eq!(*got, want, "word {word} len {len}");
                        }
                    }
                }
            }
            // Below-floor supply: every die reads empty → −range, as
            // in the scalar path.
            let mms = vec![GateMismatch::NOMINAL; 5];
            let mut lane = vec![Ok(0i16); 5];
            sensor
                .sense_lane_with(
                    eval,
                    19,
                    Volts(0.01),
                    Environment::nominal(),
                    &mms,
                    &mut lane,
                )
                .unwrap();
            for (m, got) in mms.iter().zip(&lane) {
                let want = sensor.sense_with(eval, 19, Volts(0.01), Environment::nominal(), *m);
                assert_eq!(*got, want);
            }
            // Unusable band errors for the whole lane, like each scalar
            // call would.
            assert!(sensor
                .sense_lane_with(eval, 2, Volts(0.1), Environment::nominal(), &mms, &mut lane)
                .is_err());
        }
    }

    #[test]
    fn sense_fractional_multi_matches_scalar() {
        let (analytic, sensor) = sensor_fixture();
        let tabulated = TabulatedEval::new(analytic.technology());
        let evals: [&dyn DeviceEval; 2] = [&analytic, &tabulated];
        // 71 dies: two full 32-die sense chunks and a ragged one, with
        // a below-floor die in each.
        let vdds: Vec<Volts> = [
            word_voltage(19),
            Volts(0.01), // below the floor → empty word → −range
            Volts(0.3601),
            Volts(0.3389),
            Volts(1.18),
        ]
        .into_iter()
        .cycle()
        .take(71)
        .collect();
        let mms: Vec<GateMismatch> = [0.0, 0.0094, -0.012, 0.2, -0.0021, 0.0057]
            .iter()
            .cycle()
            .take(71)
            .map(|&d| GateMismatch {
                nmos_dvth: Volts(d),
                pmos_dvth: Volts(d),
            })
            .collect();
        for eval in evals {
            for env in [Environment::nominal(), Environment::at_celsius(-10.0)] {
                let mut lane = vec![Ok(0.0f64); vdds.len()];
                sensor
                    .sense_fractional_multi_with(eval, 19, &vdds, env, &mms, &mut lane)
                    .unwrap();
                for i in 0..vdds.len() {
                    let want = sensor.sense_fractional_with(eval, 19, vdds[i], env, mms[i]);
                    match (&lane[i], &want) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "die {i}");
                        }
                        (a, b) => assert_eq!(a, b, "die {i}"),
                    }
                }
            }
            assert!(sensor
                .sense_fractional_multi_with(
                    eval,
                    2,
                    &vdds,
                    Environment::nominal(),
                    &mms,
                    &mut vec![Ok(0.0f64); vdds.len()]
                )
                .is_err());
        }
    }

    #[test]
    fn sample_multi_matches_scalar_sample() {
        let (analytic, sensor) = sensor_fixture();
        let tabulated = TabulatedEval::new(analytic.technology());
        let evals: [&dyn DeviceEval; 2] = [&analytic, &tabulated];
        // The same calibration driven through a plain-inverter line:
        // the lane falls back to the scalar sample for that cell kind.
        let mut inverter = sensor.clone();
        inverter.line = DelayLine::new(64, CellKind::Inverter);
        // Faulted-walk rails: word voltages, droops, a collapsed and a
        // below-floor supply (empty capture), and the upper clamp.
        let supplies = [
            word_voltage(11),
            Volts(0.01),
            word_voltage(11) - Volts(0.0123),
            word_voltage(19),
            Volts(0.0),
            word_voltage(43),
            Volts(1.18),
        ];
        let draws = [0.0, 0.013, -0.021, 0.2, 0.004, -0.0087, 0.0123];
        for eval in evals {
            for sensor in [&sensor, &inverter] {
                for env in [Environment::nominal(), Environment::at_celsius(125.0)] {
                    for len in (0..=33).chain([71]) {
                        let vdds: Vec<Volts> = supplies.iter().cycle().take(len).copied().collect();
                        let mms: Vec<GateMismatch> = draws
                            .iter()
                            .cycle()
                            .skip(len % 3)
                            .take(len)
                            .map(|&d| GateMismatch {
                                nmos_dvth: Volts(d),
                                pmos_dvth: Volts(d * 0.5),
                            })
                            .collect();
                        let mut lane = vec![Err(SenseError::BandUnusable { word: 0 }); len];
                        sensor
                            .sample_multi_with(eval, 11, &vdds, env, &mms, &mut lane)
                            .unwrap();
                        for i in 0..len {
                            let want = sensor.sample_with(eval, 11, vdds[i], env, mms[i]);
                            // Raw words compare width and bits.
                            assert_eq!(lane[i], want, "{:?} len {len} die {i}", sensor.line.cell());
                        }
                    }
                }
                // An unusable band errors for the whole lane, as every
                // scalar sample would, and leaves the lane untouched.
                let vdds = vec![word_voltage(2); 5];
                let mms = vec![GateMismatch::NOMINAL; 5];
                let mut lane = vec![Err(SenseError::Unreliable(EncodeError::Saturated)); 5];
                let err = sensor
                    .sample_multi_with(eval, 2, &vdds, Environment::nominal(), &mms, &mut lane)
                    .unwrap_err();
                assert_eq!(err, SenseError::BandUnusable { word: 2 });
                assert_eq!(
                    sensor.sample_with(eval, 2, vdds[0], Environment::nominal(), mms[0]),
                    Err(err)
                );
                assert!(lane
                    .iter()
                    .all(|o| *o == Err(SenseError::Unreliable(EncodeError::Saturated))));
            }
        }
    }

    #[test]
    fn deviation_lookup_prefers_small_offsets_on_ties() {
        let (_, sensor) = sensor_fixture();
        let code = sensor.expected_code(19).unwrap();
        assert_eq!(sensor.deviation_lsb(19, code).unwrap(), 0);
    }
}
