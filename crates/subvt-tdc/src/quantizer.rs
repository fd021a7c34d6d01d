//! The delay quantizer: D flip-flops sampling the Ref_clk waveform as
//! it propagates down the delay line (paper Fig. 4 and Table I).
//!
//! At a sampling instant, stage `i` of the line holds the value the
//! reference waveform had `i` cell-delays ago, so the flip-flop word is
//! a spatial snapshot of the waveform's recent history. The position of
//! the propagating edge inside the word *is* the time-to-digital
//! conversion; its movement with supply voltage gives the paper's
//! "16 shifts per 200 mV" signature, and a Ref_clk period shorter than
//! the window lets two pulses coexist in the line — the paper's
//! "data being latched twice" failure at 0.6 V.

use subvt_device::units::Seconds;
use subvt_digital::encoder::QuantizerWord;

/// The reference clock driving the TDC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefClock {
    period: Seconds,
    high_time: Seconds,
}

impl RefClock {
    /// Creates a reference clock.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < high_time < period`.
    pub fn new(period: Seconds, high_time: Seconds) -> RefClock {
        assert!(
            period.value() > 0.0 && high_time.value() > 0.0 && high_time < period,
            "need 0 < high_time < period"
        );
        RefClock { period, high_time }
    }

    /// A square wave (50 % duty) of the given period.
    pub fn square(period: Seconds) -> RefClock {
        RefClock::new(period, period / 2.0)
    }

    /// The paper's 14 ns reference input (Sec. II-A).
    pub fn paper_14ns() -> RefClock {
        RefClock::square(Seconds::from_nanos(14.0))
    }

    /// Clock period.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// High time per period.
    pub fn high_time(&self) -> Seconds {
        self.high_time
    }

    /// Waveform level at time `t` relative to a rising edge at `t = 0`
    /// (periodic for all `t`, including negative).
    pub fn level_at(&self, t: Seconds) -> bool {
        self.locate(t.value()).phase < self.high_time.value()
    }

    /// The clock period `t` falls in and its phase inside that period.
    ///
    /// The phase is `t.rem_euclid(period)` bit for bit. `rem_euclid`
    /// reduces to one (at most) add for |t| < p, which covers
    /// essentially every stage of every sense (the anchor is a fraction
    /// of the period): for 0 ≤ t < p, `t % p == t` exactly, so
    /// `rem_euclid` returns `t`; for −p < t < 0 it returns exactly
    /// `t + p`. Both branches are bit-identical to the general fmod
    /// path they bypass. The period index is exact while
    /// |t| < 2⁵⁰ periods (see [`PERIOD_INDEX_LIMIT`]).
    #[inline]
    fn locate(&self, t: f64) -> Stage {
        let p = self.period.value();
        if (0.0..p).contains(&t) {
            Stage {
                period: 0,
                phase: t,
            }
        } else if -p < t && t < 0.0 {
            Stage {
                period: -1,
                phase: t + p,
            }
        } else {
            // `%` is exact, so `t - r` is a whole number of periods.
            let r = t % p;
            let whole = ((t - r) / p).round() as i64;
            if r < 0.0 {
                Stage {
                    period: whole.saturating_sub(1),
                    phase: r + p,
                }
            } else {
                Stage {
                    period: whole,
                    phase: r,
                }
            }
        }
    }
}

/// Where a sampling time falls on the reference waveform: period `k`
/// spans `[k·T, (k+1)·T)` and the phase is the offset inside it. For a
/// fixed period the phase grows with the time, so `(period, phase)`
/// compared lexicographically is monotone in the time.
#[derive(Debug, Clone, Copy)]
struct Stage {
    period: i64,
    phase: f64,
}

/// How many clock periods from the reference edge the period index of
/// [`RefClock::locate`] stays exact: the quotient `(t − r) / T` is
/// within 2⁵⁰·2⁻⁵² = ¼ of a whole number, so it rounds to it.
const PERIOD_INDEX_LIMIT: f64 = (1u64 << 50) as f64;

/// Bits `start..end` of a `u64` (bits past 63 fall off).
fn run_mask(start: usize, end: usize) -> u64 {
    let below = |b: usize| if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
    below(end) & !below(start)
}

/// The quantizer: a bank of sampling flip-flops along the delay line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    stages: u8,
    ref_clk: RefClock,
    /// Sampling instant relative to a reference rising edge entering
    /// stage 0.
    sample_offset: Seconds,
}

impl Quantizer {
    /// Creates a quantizer over `stages` flip-flops.
    ///
    /// `sample_offset` anchors the sampling instant relative to a
    /// rising edge of the reference entering the line — in hardware it
    /// is set by the delay replica ahead of the quantizer plus the
    /// chosen sampling edge.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is 0 or `sample_offset` is negative.
    pub fn new(stages: u8, ref_clk: RefClock, sample_offset: Seconds) -> Quantizer {
        assert!(stages > 0, "need at least one stage");
        assert!(
            sample_offset.value() >= 0.0,
            "sample offset must be non-negative"
        );
        Quantizer {
            stages,
            ref_clk,
            sample_offset,
        }
    }

    /// Number of sampling flip-flops.
    pub fn stages(&self) -> u8 {
        self.stages
    }

    /// The reference clock.
    pub fn ref_clk(&self) -> RefClock {
        self.ref_clk
    }

    /// The sampling anchor.
    pub fn sample_offset(&self) -> Seconds {
        self.sample_offset
    }

    /// Samples the line given its per-stage delay: stage `i` holds the
    /// waveform value from `i` cell-delays before the sampling instant.
    ///
    /// The word is built run by run instead of stage by stage. Stage
    /// times `t_i = offset − i·d` fall with `i`, so their
    /// `(period, phase)` positions fall too, and a run of equal bits
    /// ends at the first stage past a threshold: a high run where the
    /// period index drops, a low run where the position drops below
    /// `(period, high_time)`. Each threshold is monotone in `i`, so
    /// stepping from the estimate `phase / d` (high) or
    /// `(phase − high_time) / d` (low) to the first stage past it gives
    /// the run end exactly; a typical sense evaluates four stages. The
    /// word equals the per-stage `level_at` loop bit for bit. Beyond
    /// 2⁵⁰ periods from the reference edge the period index is not
    /// exact, and a run ends at the first stage whose level differs.
    ///
    /// # Panics
    ///
    /// Panics if `cell_delay` is not positive.
    pub fn sample(&self, cell_delay: Seconds) -> QuantizerWord {
        assert!(cell_delay.value() > 0.0, "cell delay must be positive");
        let d = cell_delay.value();
        let n = usize::from(self.stages);
        let high = self.ref_clk.high_time.value();
        let limit = PERIOD_INDEX_LIMIT * self.ref_clk.period.value();
        let indexed = self.stage_time(d, 0) < limit && self.stage_time(d, n - 1) > -limit;
        let mut bits = 0u64;
        let mut start = 0;
        let mut here = self.stage(d, 0);
        loop {
            let is_high = here.phase < high;
            let ends = |s: Stage| {
                if !indexed {
                    (s.phase < high) != is_high
                } else if is_high {
                    s.period < here.period
                } else {
                    s.period < here.period || (s.period == here.period && s.phase < high)
                }
            };
            let guess = if indexed {
                // Whole cells to the edge (`as` truncates and saturates;
                // the distance is never negative).
                let to_edge = if is_high {
                    here.phase
                } else {
                    here.phase - high
                };
                start + ((to_edge / d) as usize).min(n) + 1
            } else {
                start + 1
            };
            // The first stage past `start` where the run ends, and its
            // position (`None` at the end of the line).
            let mut end = guess.clamp(start + 1, n);
            let mut next = (end < n).then(|| self.stage(d, end));
            if next.is_some_and(|s| !ends(s)) {
                next = None;
                end += 1;
                while end < n {
                    let s = self.stage(d, end);
                    if ends(s) {
                        next = Some(s);
                        break;
                    }
                    end += 1;
                }
            } else {
                while end > start + 1 {
                    let s = self.stage(d, end - 1);
                    if !ends(s) {
                        break;
                    }
                    end -= 1;
                    next = Some(s);
                }
            }
            if is_high {
                bits |= run_mask(start, end);
            }
            match next {
                Some(s) => {
                    start = end;
                    here = s;
                }
                None => break,
            }
        }
        QuantizerWord::new(self.stages, bits)
    }

    /// Stage `i`'s sampling time for cell delay `d`.
    fn stage_time(&self, d: f64, i: usize) -> f64 {
        self.sample_offset.value() - i as f64 * d
    }

    /// Stage `i`'s position on the reference waveform. Kept out of
    /// line: inlined into the run walk, the whole sample measured about
    /// 20% slower on x86-64.
    #[inline(never)]
    fn stage(&self, d: f64, i: usize) -> Stage {
        #[cfg(test)]
        tests::PROBES.with(|p| p.set(p.get() + 1));
        self.ref_clk.locate(self.stage_time(d, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use subvt_testkit::prelude::*;
    use subvt_testkit::PropResult;

    thread_local! {
        /// Stage positions evaluated by `Quantizer::stage` on this
        /// thread.
        pub(super) static PROBES: Cell<usize> = const { Cell::new(0) };
    }

    fn ns(x: f64) -> Seconds {
        Seconds::from_nanos(x)
    }

    /// The per-stage loop the run finder replaced: the oracle every
    /// closed-form word is checked against.
    fn sample_stepwise(q: &Quantizer, cell_delay: Seconds) -> QuantizerWord {
        let mut bits: u64 = 0;
        for i in 0..q.stages {
            let t = Seconds(q.sample_offset.value() - f64::from(i) * cell_delay.value());
            if q.ref_clk.level_at(t) {
                bits |= 1 << i;
            }
        }
        QuantizerWord::new(q.stages, bits)
    }

    /// The closed form and the oracle agree on `q` sampled at `d`.
    fn agrees(q: Quantizer, d: f64) -> PropResult {
        let d = Seconds(d);
        prop_assert_eq!(q.sample(d), sample_stepwise(&q, d));
        Ok(())
    }

    /// The sensor's band geometry (`SensorConfig::default`): a 64-stage
    /// line, a square Ref_clk of 256 calibration cells, the anchor at
    /// 31.5 cells.
    fn sensor_band(stages: u8, cal: f64) -> Quantizer {
        Quantizer::new(
            stages,
            RefClock::square(Seconds(cal * 256.0)),
            Seconds(cal * 31.5),
        )
    }

    properties! {
        cases = 4096;

        /// Dies up to 16× faster or slower than the calibration cell,
        /// at the sensor's own band geometry.
        fn closed_form_matches_the_loop_far_from_the_calibration_cell(
            stages in 1u8..65,
            cal_ps in 20.0f64..2000.0,
            die_log2 in -4.0f64..4.0,
        ) {
            let cal = cal_ps * 1e-12;
            agrees(sensor_band(stages, cal), cal * die_log2.exp2())?;
        }

        /// Every time on a dyadic grid, so stage times land exactly on
        /// 0, ±period and high_time: the anchor is `k·d`, the period
        /// `P·d` and the high time `H·d`, all exact products.
        fn closed_form_matches_the_loop_on_exact_clock_edges(
            stages in 1u8..65,
            mantissa in 1u64..(1 << 20),
            anchor_cells in 0u32..200,
            period_cells in 2u32..160,
            high_pick in 0u32..1000,
        ) {
            let d = mantissa as f64 * (-40.0f64).exp2();
            let high_cells = 1 + high_pick % (period_cells - 1);
            let clk = RefClock::new(
                Seconds(f64::from(period_cells) * d),
                Seconds(f64::from(high_cells) * d),
            );
            let q = Quantizer::new(stages, clk, Seconds(f64::from(anchor_cells) * d));
            agrees(q, d)?;
        }

        /// The sampling instant in the high part or in the low part of
        /// some period, at any duty cycle.
        fn closed_form_matches_the_loop_from_either_starting_phase(
            stages in 1u8..65,
            period_cells in 1.0f64..400.0,
            duty in 0.01f64..0.99,
            start_high in 0u8..2,
            depth in 0.0f64..1.0,
            cycles in 0u32..4,
        ) {
            let d = 1e-10;
            let p = period_cells * d;
            let h = duty * p;
            let into = if start_high == 1 { depth * h } else { h + depth * (p - h) };
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(p), Seconds(h)),
                Seconds(f64::from(cycles) * p + into),
            );
            agrees(q, d)?;
        }

        /// A period shorter than the line window puts several bursts in
        /// the word (the paper's 0.6 V double latch); below one cell per
        /// period the line aliases the clock.
        fn closed_form_matches_the_loop_with_short_periods(
            stages in 1u8..65,
            period_cells in 0.2f64..48.0,
            duty in 0.02f64..0.98,
            anchor_cells in 0.0f64..200.0,
            d_ps in 50.0f64..5000.0,
        ) {
            let d = d_ps * 1e-12;
            let p = period_cells * d;
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(p), Seconds(duty * p)),
                Seconds(anchor_cells * d),
            );
            agrees(q, d)?;
        }

        /// Non-square Ref_clk at the sensor's long period, anchor
        /// anywhere in the first two periods.
        fn closed_form_matches_the_loop_off_fifty_percent_duty(
            stages in 1u8..65,
            duty in 0.001f64..0.999,
            anchor_cells in 0.0f64..512.0,
            die_log2 in -3.0f64..3.0,
        ) {
            let cal = 300e-12;
            let p = 256.0 * cal;
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(p), Seconds(duty * p)),
                Seconds(anchor_cells * cal),
            );
            agrees(q, cal * die_log2.exp2())?;
        }

        /// Sampling instants up to 2⁶⁰ periods after the reference
        /// edge, across the 2⁵⁰-period limit of the exact period index.
        fn closed_form_matches_the_loop_far_from_the_reference_edge(
            stages in 1u8..65,
            periods_log2 in 30.0f64..60.0,
            period_cells in 0.5f64..300.0,
            duty in 0.05f64..0.95,
        ) {
            let d = 1e-10;
            let p = period_cells * d;
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(p), Seconds(duty * p)),
                Seconds(periods_log2.exp2() * p),
            );
            agrees(q, d)?;
        }
    }

    #[test]
    fn closed_form_matches_the_loop_on_degenerate_inputs() {
        // (stages, period, high time, anchor, cell delay), in seconds.
        let p = 14e-9;
        let cases = [
            // The sampling instant exactly on a rising edge.
            (64, p, p / 2.0, 0.0, 0.442e-9),
            (64, p, p / 2.0, p, 0.442e-9),
            // Cells far shorter and far longer than a period.
            (64, p, p / 2.0, 30e-9, f64::MIN_POSITIVE),
            (64, p, p / 2.0, 30e-9, 1e300),
            (64, p, p / 2.0, 30e-9, f64::INFINITY),
            // An infinite anchor: every stage time is NaN or infinite.
            (64, p, p / 2.0, f64::INFINITY, 0.442e-9),
            // Past 2⁵⁰ periods, where the period index is not exact.
            (64, p, p / 2.0, 2f64.powi(52) * p, 0.3 * p),
            (64, p, 0.3 * p, 2f64.powi(60) * p, 0.7 * p),
            // A one-stage line.
            (1, p, p / 2.0, 3e-9, 1e-9),
        ];
        for (stages, period, high, anchor, d) in cases {
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(period), Seconds(high)),
                Seconds(anchor),
            );
            assert_eq!(
                q.sample(Seconds(d)),
                sample_stepwise(&q, Seconds(d)),
                "stages {stages}, period {period}, high {high}, anchor {anchor}, d {d}"
            );
        }
    }

    #[test]
    fn a_sensor_band_sample_probes_four_stages() {
        // One high run into one low run: the first stage, the high
        // run's end and its left neighbour, and the line's last stage.
        let cal = 300e-12;
        for die in [0.8, 1.0, 1.25] {
            PROBES.with(|p| p.set(0));
            let q = sensor_band(64, cal);
            let word = q.sample(Seconds(cal * die));
            assert_eq!(word.burst_count(), 1);
            assert_eq!(
                PROBES.with(Cell::get),
                4,
                "die at {die}× the calibration cell"
            );
        }
    }

    #[test]
    fn ref_clock_waveform() {
        let clk = RefClock::paper_14ns();
        assert!((clk.period().nanos() - 14.0).abs() < 1e-12);
        assert!(clk.level_at(ns(1.0)));
        assert!(clk.level_at(ns(6.9)));
        assert!(!clk.level_at(ns(7.1)));
        assert!(!clk.level_at(ns(13.9)));
        // Periodicity, including negative times.
        assert!(clk.level_at(ns(15.0)));
        assert!(clk.level_at(ns(-13.0)));
        assert!(!clk.level_at(ns(-1.0)));
    }

    #[test]
    fn level_at_fast_path_matches_rem_euclid() {
        // Sweep through both fast branches (|t| < period, either sign)
        // and the general fmod branch (|t| ≥ period), pinning each
        // against the reference reduction bit for bit.
        let clk = RefClock::paper_14ns();
        let p = clk.period().value();
        let high = clk.high_time().value();
        for k in -300..300 {
            let t = k as f64 * 0.097e-9;
            assert_eq!(clk.level_at(Seconds(t)), t.rem_euclid(p) < high, "t = {t}");
            assert_eq!(clk.locate(t).period, (t / p).floor() as i64, "t = {t}");
        }
        // Exact boundaries.
        for t in [0.0, p, -p, 2.0 * p, high, -high] {
            assert_eq!(clk.level_at(Seconds(t)), t.rem_euclid(p) < high, "t = {t}");
        }
    }

    #[test]
    fn fresh_edge_yields_leading_run() {
        // Sample 5.5 cell-delays after a rising edge entered: stages
        // 0..=5 are behind the edge (high), the rest still low.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(16, clk, ns(5.5));
        let w = q.sample(ns(1.0));
        assert_eq!(w.leading_run(), 6);
        assert_eq!(w.encode(), Ok(6));
    }

    #[test]
    fn edge_position_tracks_cell_delay() {
        // Faster cells → edge further down the line → larger code.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(64, clk, ns(30.0));
        let slow = q.sample(ns(1.0)).encode().unwrap();
        let fast = q.sample(ns(0.6)).encode().unwrap();
        assert_eq!(slow, 31);
        assert_eq!(fast, 51);
        assert!(fast > slow);
    }

    #[test]
    fn short_period_produces_multiple_bursts() {
        // Line window (64 × 0.44 ns ≈ 28 ns) spans two 14 ns periods:
        // the paper's double-latch regime at 0.6 V.
        let q = Quantizer::new(64, RefClock::paper_14ns(), ns(30.0));
        let w = q.sample(Seconds::from_picos(442.0));
        assert!(w.burst_count() >= 2, "bursts {}", w.burst_count());
        assert!(w.encode().is_err());
    }

    #[test]
    fn long_period_keeps_single_burst() {
        // Same sampling, but a slow Ref_clk (the paper's suggested fix)
        // restores a clean single-burst word.
        let cell = Seconds::from_picos(442.0);
        let period = Seconds(cell.value() * 256.0);
        let clk = RefClock::square(period);
        let q = Quantizer::new(64, clk, Seconds(cell.value() * 31.5));
        let w = q.sample(cell);
        assert_eq!(w.burst_count(), 1);
        assert_eq!(w.encode(), Ok(32));
    }

    #[test]
    fn sixteen_shifts_per_200mv_shape() {
        // With a fixed anchor, the code moves by the ratio of cell
        // delays. Using the paper's published inverter delays at 1.2 V
        // (102 ps) and 1.0 V (~139 ps from the calibrated model), a
        // 6.07 ns anchor gives the paper's "16 shifts" per 200 mV.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(64, clk, ns(6.07));
        let at_12 = q.sample(Seconds::from_picos(102.0)).encode().unwrap();
        let at_10 = q.sample(Seconds::from_picos(139.5)).encode().unwrap();
        let shifts = at_12 - at_10;
        assert!(
            (14..=18).contains(&shifts),
            "expected ~16 shifts, got {shifts} ({at_12} vs {at_10})"
        );
    }

    #[test]
    #[should_panic(expected = "cell delay must be positive")]
    fn zero_cell_delay_rejected() {
        let q = Quantizer::new(8, RefClock::paper_14ns(), ns(1.0));
        let _ = q.sample(Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "high_time < period")]
    fn bad_ref_clock_rejected() {
        let _ = RefClock::new(ns(10.0), ns(10.0));
    }
}
