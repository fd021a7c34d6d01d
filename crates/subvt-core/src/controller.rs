//! The variation resilient adaptive controller (paper Fig. 5).
//!
//! One instance wires together the FIFO, the rate controller, the
//! TDC variation sensor, the compensation loop, the DC-DC converter
//! (switched or ideal) and a load. It advances in 1 µs system cycles
//! (the 64 MHz clock divided by the 6-bit terminal count) and keeps a
//! full per-cycle history plus an energy account.
//!
//! The same engine runs the baselines: a fixed-supply design (no
//! controller), an adaptive-but-uncompensated controller (sensor off),
//! and — by constructing it with `design_env == actual_env` — an
//! oracle that knows the die.

use std::fmt;

use subvt_rng::Rng;

use subvt_dcdc::converter::{ConverterParams, DcDcConverter};
use subvt_dcdc::filter::ConstantLoad;
use subvt_dcdc::ideal::IdealConverter;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{EvalMode, SharedEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Joules, Seconds, Volts};
use subvt_digital::fifo::Fifo;
use subvt_digital::lut::VoltageWord;
use subvt_loads::load::CircuitLoad;
use subvt_loads::workload::WorkloadSource;
use subvt_tdc::sensor::{SenseError, SensorConfig, VariationSensor};

use crate::compensation::{CompensationLoop, CompensationPolicy};
use crate::energy_account::EnergyAccount;
use crate::fault_study::{scrub_cost, trip_cost};
use crate::rate_controller::{LutCheckpoint, RateController};
use crate::watchdog::{RailWatchdog, WatchdogPolicy};

/// How the supply voltage is decided each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplyPolicy {
    /// Full controller: rate LUT + TDC sensing + LUT compensation.
    AdaptiveCompensated,
    /// Sub-LSB controller: fractional TDC sensing drives a sigma-delta
    /// dither between adjacent words (the UDVS extension, paper
    /// ref. \[12\]), landing the *average* supply on the iso-delay
    /// point between 18.75 mV steps. Ideal-supply runs only.
    AdaptiveDithered,
    /// Rate LUT only; the sensor and compensation are disabled.
    AdaptiveUncompensated,
    /// A fixed design-time word — the paper's "no controller" baseline.
    FixedWord(VoltageWord),
}

/// Which converter model supplies the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupplyKind {
    /// Instantaneous ideal converter (fast, for long energy studies).
    #[default]
    Ideal,
    /// The switched PWM + LC converter (for transient fidelity).
    Switched,
}

/// Controller-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// FIFO depth.
    pub fifo_capacity: usize,
    /// System cycle length (the paper's 1 µs).
    pub system_cycle: Seconds,
    /// TDC sensor geometry.
    pub sensor: SensorConfig,
    /// Compensation confirmation policy.
    pub compensation: CompensationPolicy,
    /// Fraction of the cycle the load may spend processing.
    pub utilization: f64,
    /// Leakage fraction retained while power-gated idle (0 = perfect
    /// gating; 1 = no gating).
    pub idle_retention: f64,
    /// System cycles between duty-trim updates on the switched
    /// converter. Must exceed the LC settling time or the trim
    /// integrator pumps the filter resonance.
    pub trim_interval: u64,
    /// Converter configuration for [`SupplyKind::Switched`] runs
    /// (solver mode, passives, power stage); ignored by the ideal
    /// supply.
    pub converter: ConverterParams,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            fifo_capacity: 64,
            system_cycle: Seconds::from_micros(1.0),
            sensor: SensorConfig::default(),
            compensation: CompensationPolicy::default(),
            utilization: 1.0,
            idle_retention: 0.05,
            trim_interval: 20,
            converter: ConverterParams::default(),
        }
    }
}

enum Supply {
    Ideal(IdealConverter),
    Switched(Box<DcDcConverter>),
}

impl fmt::Debug for Supply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Supply::Ideal(_) => write!(f, "Supply::Ideal"),
            Supply::Switched(_) => write!(f, "Supply::Switched"),
        }
    }
}

/// One system cycle of recorded history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// Cycle index.
    pub cycle: u64,
    /// Items that arrived this cycle.
    pub arrivals: u32,
    /// Queue length after arrivals.
    pub queue: usize,
    /// Voltage word issued by the rate controller.
    pub word: VoltageWord,
    /// Supply voltage seen by the load at cycle end.
    pub vout: Volts,
    /// Sensed deviation in LSBs (`None` when sensing is off or the
    /// band is unusable).
    pub deviation: Option<i16>,
    /// LUT shift applied this cycle.
    pub shift: i16,
    /// Operations completed this cycle.
    pub ops: u32,
}

/// Summary of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Total energy account.
    pub account: EnergyAccount,
    /// System cycles simulated.
    pub cycles: u64,
    /// Operations completed.
    pub operations: u64,
    /// Items lost to FIFO overflow.
    pub dropped: u64,
    /// Net LUT compensation at the end (LSBs).
    pub compensation: i16,
    /// Mean supply voltage over the run.
    pub mean_vout: Volts,
    /// Items still queued at the end.
    pub backlog: usize,
}

impl RunSummary {
    /// Fraction of offered items that were lost.
    pub fn loss_rate(&self) -> f64 {
        let offered = self.operations + self.dropped + self.backlog as u64;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

/// The assembled adaptive controller.
#[derive(Debug)]
pub struct AdaptiveController<L: CircuitLoad> {
    /// The device model the sensor, the load's rate and the energy
    /// account all run on (tabulated surfaces take the analytic model
    /// off the per-cycle path).
    eval: SharedEval,
    design_env: Environment,
    actual_env: Environment,
    die_mismatch: GateMismatch,
    load: L,
    policy: SupplyPolicy,
    config: ControllerConfig,
    fifo: Fifo<u64>,
    rate: RateController,
    sensor: VariationSensor,
    compensation: CompensationLoop,
    supply: Supply,
    account: EnergyAccount,
    history: Vec<CycleRecord>,
    cycle: u64,
    next_item: u64,
    work_carry: f64,
    duty_trim: i16,
    /// Continuous LUT shift maintained by the dithered policy (LSBs).
    frac_shift: f64,
    /// First-order sigma-delta accumulator for word emission.
    sigma_delta_acc: f64,
    /// Optional rail watchdog: last-known-good fallback when the
    /// sensed deviation refuses to settle.
    watchdog: Option<RailWatchdog>,
    /// Golden LUT copy for the end-of-cycle scrub (SEU hardening).
    golden: Option<LutCheckpoint>,
}

impl<L: CircuitLoad> AdaptiveController<L> {
    /// Builds a controller.
    ///
    /// * `design_env` — the corner/temperature the LUT and sensor were
    ///   calibrated for at design time;
    /// * `actual_env` + `die_mismatch` — what the silicon actually is.
    ///
    /// The device physics runs on the analytic model of `tech`;
    /// [`AdaptiveController::with_eval`] swaps in another evaluator.
    #[allow(clippy::too_many_arguments)] // mirrors the physical wiring of Fig. 5
    pub fn new(
        tech: Technology,
        load: L,
        rate: RateController,
        design_env: Environment,
        actual_env: Environment,
        die_mismatch: GateMismatch,
        policy: SupplyPolicy,
        kind: SupplyKind,
        config: ControllerConfig,
    ) -> AdaptiveController<L> {
        let eval = EvalMode::Analytic.build(&tech);
        let sensor = VariationSensor::with_eval(eval.as_ref(), design_env, config.sensor);
        let supply = match kind {
            SupplyKind::Ideal => Supply::Ideal(IdealConverter::new()),
            SupplyKind::Switched => {
                // The converter load is the electrical image of the
                // digital load at a representative operating point; it
                // is refreshed implicitly through the voltage ODE.
                let dc = DcDcConverter::new(
                    config.converter,
                    Box::new(ConstantLoad(subvt_device::units::Amps(2e-6))),
                );
                Supply::Switched(Box::new(dc))
            }
        };
        AdaptiveController {
            compensation: CompensationLoop::new(config.compensation),
            fifo: Fifo::new(config.fifo_capacity),
            eval,
            design_env,
            actual_env,
            die_mismatch,
            load,
            policy,
            config,
            rate,
            sensor,
            supply,
            account: EnergyAccount::new(),
            history: Vec::new(),
            cycle: 0,
            next_item: 0,
            work_carry: 0.0,
            duty_trim: 0,
            frac_shift: 0.0,
            sigma_delta_acc: 0.0,
            watchdog: None,
            golden: None,
        }
    }

    /// Routes the controller's device physics — sensor calibration,
    /// runtime sensing, the load's processing rate and the energy
    /// account — through `eval` instead of the analytic model `new`
    /// built. With a
    /// [`TabulatedEval`](subvt_device::tabulate::TabulatedEval) the
    /// per-cycle loop stays off the analytic model.
    pub fn with_eval(mut self, eval: SharedEval) -> AdaptiveController<L> {
        self.sensor =
            VariationSensor::with_eval(eval.as_ref(), self.design_env, self.config.sensor);
        self.eval = eval;
        self
    }

    /// Arms the rail watchdog: once the loop has settled (a zero
    /// deviation), a deviation that stays large for several cycles
    /// falls back to the last-known-good word by shifting the LUT, and
    /// retries with exponential backoff. Quiet on a healthy die — the
    /// run is bit-identical to an unarmed controller.
    pub fn with_watchdog(mut self, policy: WatchdogPolicy) -> AdaptiveController<L> {
        self.watchdog = Some(RailWatchdog::new(policy));
        self
    }

    /// Enables the end-of-cycle LUT scrub: the current designed words
    /// become the golden shadow copy, and every cycle ends by
    /// repairing any register that drifted from it (an SEU), booking
    /// the rewrite energy as recovery. The live compensation shift is
    /// not part of the checkpoint and survives scrubbing.
    pub fn enable_lut_scrub(&mut self) {
        self.golden = Some(self.rate.checkpoint());
    }

    /// Fault hook: flips one bit of the LUT word register for `band`,
    /// as a particle strike would.
    pub fn inject_lut_upset(&mut self, band: usize, bit: u8) {
        self.rate.upset_word(band, bit);
    }

    /// The rail watchdog, when armed.
    pub fn watchdog(&self) -> Option<&RailWatchdog> {
        self.watchdog.as_ref()
    }

    /// The load.
    pub fn load(&self) -> &L {
        &self.load
    }

    /// The environment the controller was designed/calibrated for.
    pub fn design_env(&self) -> Environment {
        self.design_env
    }

    /// The actual silicon's environment.
    pub fn actual_env(&self) -> Environment {
        self.actual_env
    }

    /// Changes the silicon's environment mid-run (temperature drift, a
    /// hot spot arriving): the controller is not told — it has to
    /// re-discover the change through the sensor.
    pub fn set_actual_env(&mut self, env: Environment) {
        self.actual_env = env;
    }

    /// The accumulated duty trim on the switched converter (LSBs).
    pub fn duty_trim(&self) -> i16 {
        self.duty_trim
    }

    /// The per-cycle history.
    pub fn history(&self) -> &[CycleRecord] {
        &self.history
    }

    /// The energy account so far.
    pub fn account(&self) -> &EnergyAccount {
        &self.account
    }

    /// The rate controller (to inspect the LUT/compensation).
    pub fn rate_controller(&self) -> &RateController {
        &self.rate
    }

    /// Current supply voltage.
    pub fn vout(&self) -> Volts {
        match &self.supply {
            Supply::Ideal(c) => c.vout(),
            Supply::Switched(c) => c.vout(),
        }
    }

    fn set_word(&mut self, word: VoltageWord) {
        match &mut self.supply {
            Supply::Ideal(c) => c.set_word(word),
            Supply::Switched(c) => c.set_word(word),
        }
    }

    fn advance_supply(&mut self) -> Joules {
        match &mut self.supply {
            Supply::Ideal(_) => Joules::ZERO,
            Supply::Switched(c) => {
                let before = c.conduction_energy();
                c.run_system_cycles(1);
                c.conduction_energy() - before
            }
        }
    }

    /// Advances one system cycle with `arrivals` new items. Returns the
    /// cycle record.
    pub fn step(&mut self, arrivals: u32) -> CycleRecord {
        // 1. Arrivals enter the FIFO; overflow is lost data.
        for _ in 0..arrivals {
            let id = self.next_item;
            self.next_item += 1;
            self.fifo.push(id);
        }
        let queue = self.fifo.queue_length();

        // 2. Rate control: queue length → voltage word.
        let word = match self.policy {
            SupplyPolicy::FixedWord(w) => w,
            SupplyPolicy::AdaptiveDithered => {
                // Continuous target = LUT word + fractional shift;
                // first-order sigma-delta picks the per-cycle word so
                // the running average hits the target exactly.
                let base = f64::from(self.rate.desired_word(queue));
                let target = (base + self.frac_shift).clamp(1.0, 63.0);
                let floor = target.floor();
                self.sigma_delta_acc += target - floor;
                let up = self.sigma_delta_acc >= 1.0;
                if up {
                    self.sigma_delta_acc -= 1.0;
                }
                (floor as i16 + i16::from(up)).clamp(1, 63) as VoltageWord
            }
            _ => self.rate.desired_word(queue),
        };
        match &self.supply {
            Supply::Ideal(_) => self.set_word(word),
            Supply::Switched(_) => {
                // The comparator's up/down/hold duty trim (paper
                // Sec. III) rides on top of the feed-forward word.
                let duty = (i16::from(word) + self.duty_trim).clamp(1, 63) as u64;
                if let Supply::Switched(c) = &mut self.supply {
                    c.set_duty(duty);
                }
            }
        }

        // 3. The converter produces the supply for this cycle.
        let converter_loss = self.advance_supply();
        self.account.add_converter(converter_loss);
        let vout = self.vout();

        // 4. Variation sensing: LUT compensation on the ideal supply;
        //    on the switched supply the same signature drives the duty
        //    trim (regulating the replica delay onto the design target
        //    corrects converter error and process shift together).
        let mut deviation = None;
        let mut shift = 0;
        if self.policy == SupplyPolicy::AdaptiveDithered {
            let base = self.rate.desired_word(queue);
            if let Ok(frac) = self.sense_fractional(base, vout) {
                deviation = Some(frac.round() as i16);
                // Slow integrator: the EMA of −deviation is the shift
                // that holds the *average* replica delay on target.
                self.frac_shift = (self.frac_shift - 0.2 * frac).clamp(-3.0, 3.0);
            }
        }
        if self.policy == SupplyPolicy::AdaptiveCompensated {
            // The sensing band is the *uncompensated* word: the target
            // stays "design-corner delay at the designed voltage".
            let base = self.base_word(queue);
            if let Ok(dev) = self.sense(base, vout) {
                deviation = Some(dev);
                match &self.supply {
                    Supply::Ideal(_) => {
                        let trip = self
                            .watchdog
                            .as_mut()
                            .and_then(|dog| dog.observe(word, dev));
                        if let Some(good) = trip {
                            // Fall back to last-known-good: shift the
                            // LUT so this queue maps onto the word the
                            // rail last settled at.
                            let delta = i16::from(good) - i16::from(word);
                            self.rate.apply_compensation(delta);
                            self.compensation.reset_streak();
                            self.account.add_recovery(trip_cost());
                            shift = delta;
                        } else if let Some(step) = self.compensation.observe(dev) {
                            self.rate.apply_compensation(step);
                            shift = step;
                        }
                    }
                    Supply::Switched(_) => {
                        // Up/down/hold, applied once per trim interval
                        // so the LC filter settles between corrections.
                        if (self.cycle + 1).is_multiple_of(self.config.trim_interval) {
                            self.duty_trim = (self.duty_trim - dev.signum()).clamp(-6, 6);
                        }
                    }
                }
            }
        }

        // 5. The load drains the queue as fast as this supply allows.
        let ops = self.process(vout);

        // 6. Energy accounting.
        self.account_energy(vout, ops);

        // 7. End-of-cycle LUT scrub against the golden shadow copy.
        if let Some(golden) = &self.golden {
            if self.rate.scrub(golden) {
                self.account.add_recovery(scrub_cost());
            }
        }

        let record = CycleRecord {
            cycle: self.cycle,
            arrivals,
            queue,
            word,
            vout,
            deviation,
            shift,
            ops,
        };
        self.history.push(record);
        self.cycle += 1;
        record
    }

    fn base_word(&self, queue: usize) -> VoltageWord {
        let shifted = i16::from(self.rate.desired_word(queue));
        (shifted - self.rate.compensation()).clamp(0, 63) as VoltageWord
    }

    fn sense(&self, word: VoltageWord, vout: Volts) -> Result<i16, SenseError> {
        self.sensor.sense_with(
            self.eval.as_ref(),
            word,
            vout,
            self.actual_env,
            self.die_mismatch,
        )
    }

    fn sense_fractional(&self, word: VoltageWord, vout: Volts) -> Result<f64, SenseError> {
        self.sensor.sense_fractional_with(
            self.eval.as_ref(),
            word,
            vout,
            self.actual_env,
            self.die_mismatch,
        )
    }

    fn process(&mut self, vout: Volts) -> u32 {
        let rate = self
            .load
            .max_rate(self.eval.as_ref(), vout, self.actual_env, self.die_mismatch);
        let Ok(rate) = rate else {
            return 0; // supply below functional floor: the load stalls
        };
        let capacity = rate.value() * self.config.system_cycle.value() * self.config.utilization
            + self.work_carry;
        let possible = capacity.floor();
        let done = (possible as u64).min(self.fifo.queue_length() as u64) as u32;
        self.work_carry = (capacity - possible).clamp(0.0, 1.0);
        for _ in 0..done {
            self.fifo.pop();
        }
        done
    }

    fn account_energy(&mut self, vout: Volts, ops: u32) {
        let e = self
            .load
            .energy_per_op(self.eval.as_ref(), vout, self.actual_env);
        let Ok(e) = e else {
            // Below the functional floor the load cannot compute, but
            // its (gated) leakage still flows.
            let profile = self.load.profile();
            let tech = self.eval.technology();
            let i_off_n = tech.nmos.off_current(vout, self.actual_env, Volts::ZERO);
            let i_off_p = tech.pmos.off_current(vout, self.actual_env, Volts::ZERO);
            let scales = profile.corner_cal.scales(self.actual_env.corner);
            let leak = 0.5
                * (i_off_n.value() + i_off_p.value())
                * profile.gates
                * profile.gate.leak_factor()
                * profile.leak_scale
                * scales.leak;
            let idle_power = leak * vout.volts() * self.config.idle_retention;
            self.account.add_leakage(
                Joules(idle_power * self.config.system_cycle.value()),
                self.config.system_cycle,
            );
            return;
        };
        // Per-op energy: switching plus leakage over the op's own
        // critical path (the classic MEP decomposition).
        let per_op = e.dynamic + e.leakage;
        self.account
            .add_dynamic(per_op * f64::from(ops), u64::from(ops));
        // Idle leakage: the remainder of the cycle at the retention
        // fraction (the load is power-gated between operations).
        let busy = e.cycle_time.value() * f64::from(ops);
        let idle = (self.config.system_cycle.value() - busy).max(0.0);
        let idle_power = e.leak_current.value() * vout.volts() * self.config.idle_retention;
        self.account
            .add_leakage(Joules(idle_power * idle), self.config.system_cycle);
    }

    /// Runs `cycles` system cycles fed by `workload`, then summarizes.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        workload: &mut WorkloadSource,
        cycles: u64,
        rng: &mut R,
    ) -> RunSummary {
        for _ in 0..cycles {
            let arrivals = workload.next_arrivals(rng);
            self.step(arrivals);
        }
        self.summary()
    }

    /// Exports the per-cycle history as named waveforms (supply
    /// voltage, issued word, sensed deviation, queue length) for CSV
    /// or VCD dumping through `subvt_sim::trace`/`subvt_sim::vcd`.
    pub fn history_traces(&self) -> subvt_sim::trace::TraceSet {
        use subvt_sim::time::{SimDuration, SimTime};
        use subvt_sim::trace::{AnalogTrace, TraceSet};
        let cycle_span = SimDuration::from_seconds(self.config.system_cycle.value());
        let mut vout = AnalogTrace::new("v_out");
        let mut word = AnalogTrace::new("word");
        let mut deviation = AnalogTrace::new("deviation_lsb");
        let mut queue = AnalogTrace::new("queue_length");
        for r in &self.history {
            let t = SimTime::ZERO + cycle_span * r.cycle;
            vout.push(t, r.vout.volts());
            word.push(t, f64::from(r.word));
            deviation.push(t, r.deviation.map_or(f64::NAN, f64::from));
            queue.push(t, r.queue as f64);
        }
        let mut set = TraceSet::new();
        set.add(vout);
        set.add(word);
        set.add(deviation);
        set.add(queue);
        set
    }

    /// Summary of everything simulated so far.
    pub fn summary(&self) -> RunSummary {
        let mean_vout = if self.history.is_empty() {
            Volts::ZERO
        } else {
            Volts(
                self.history.iter().map(|r| r.vout.volts()).sum::<f64>()
                    / self.history.len() as f64,
            )
        };
        RunSummary {
            account: self.account,
            cycles: self.cycle,
            operations: self.account.operations(),
            dropped: self.fifo.dropped(),
            compensation: self.rate.compensation(),
            mean_vout,
            backlog: self.fifo.queue_length(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::corner::ProcessCorner;
    use subvt_device::units::Hertz;
    use subvt_loads::ring_oscillator::RingOscillator;
    use subvt_loads::workload::WorkloadPattern;
    use subvt_rng::StdRng;

    fn rate_controller(tech: &Technology, env: Environment) -> RateController {
        RateController::design(
            EvalMode::Analytic.build(tech).as_ref(),
            &RingOscillator::paper_circuit(),
            env,
            &[(8, Hertz(100e3)), (16, Hertz(1e6)), (32, Hertz(10e6))],
        )
        .expect("designable")
    }

    fn controller(
        actual: Environment,
        policy: SupplyPolicy,
        kind: SupplyKind,
    ) -> AdaptiveController<RingOscillator> {
        let tech = Technology::st_130nm();
        let design = Environment::nominal();
        let rate = rate_controller(&tech, design);
        AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            design,
            actual,
            GateMismatch::NOMINAL,
            policy,
            kind,
            ControllerConfig::default(),
        )
    }

    #[test]
    fn idle_controller_sits_at_the_mep_word() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        for _ in 0..10 {
            c.step(0);
        }
        let last = *c.history().last().unwrap();
        assert_eq!(last.word, 11, "MEP word ≈ 200 mV");
        assert!((last.vout.millivolts() - 206.25).abs() < 1.0);
        assert_eq!(c.summary().compensation, 0, "nominal die needs no shift");
    }

    #[test]
    fn queue_pressure_raises_the_voltage() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        c.step(40); // flood the queue
        let busy = *c.history().last().unwrap();
        for _ in 0..200 {
            c.step(0);
        }
        let idle = *c.history().last().unwrap();
        assert!(
            busy.word > idle.word,
            "busy {} vs idle {}",
            busy.word,
            idle.word
        );
        assert!(busy.vout.volts() > idle.vout.volts());
    }

    #[test]
    fn slow_die_gets_compensated_up_one_lsb() {
        // The paper's worked example: TT-designed controller on a slow
        // die corrects the LUT by ~1 LSB within a few system cycles.
        let mut c = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        for _ in 0..20 {
            c.step(0);
        }
        let s = c.summary();
        assert!(
            (1..=2).contains(&s.compensation),
            "expected ≈ +1 LSB, got {}",
            s.compensation
        );
        // Corrected idle voltage ≈ 200 + 18.75 ≈ 219 mV: the SS MEP.
        let last = *c.history().last().unwrap();
        assert!(
            (215.0..245.0).contains(&last.vout.millivolts()),
            "vout {}",
            last.vout.millivolts()
        );
    }

    #[test]
    fn fast_die_gets_compensated_down() {
        let mut c = controller(
            Environment::at_corner(ProcessCorner::Ff),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        for _ in 0..20 {
            c.step(0);
        }
        assert!(c.summary().compensation < 0);
    }

    #[test]
    fn uncompensated_policy_never_shifts() {
        let mut c = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveUncompensated,
            SupplyKind::Ideal,
        );
        for _ in 0..20 {
            c.step(0);
        }
        assert_eq!(c.summary().compensation, 0);
        assert!(c.history().iter().all(|r| r.deviation.is_none()));
    }

    #[test]
    fn fixed_word_policy_holds_the_supply() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::FixedWord(32),
            SupplyKind::Ideal,
        );
        c.step(10);
        c.step(0);
        assert!(c.history().iter().all(|r| r.word == 32));
        assert!((c.vout().millivolts() - 600.0).abs() < 1.0);
    }

    #[test]
    fn workload_is_processed_without_loss_when_sized_right() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 2 });
        let mut rng = StdRng::seed_from_u64(1);
        let s = c.run(&mut wl, 500, &mut rng);
        assert_eq!(s.dropped, 0, "no data loss");
        // Everything offered is either done or still queued (the queue
        // hovers near a band boundary, so a bounded backlog remains).
        assert!(s.operations >= 950, "ops {}", s.operations);
        assert!(s.backlog <= 40, "backlog {}", s.backlog);
        assert!(s.loss_rate() < 1e-9);
    }

    #[test]
    fn overload_drops_data_like_the_paper_warns() {
        // "If the data approaches faster than it can process, it
        // results in loss of data."
        let tech = Technology::st_130nm();
        let design = Environment::nominal();
        let rate = rate_controller(&tech, design);
        let config = ControllerConfig {
            fifo_capacity: 8,
            ..ControllerConfig::default()
        };
        let mut c = AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            design,
            design,
            GateMismatch::NOMINAL,
            SupplyPolicy::FixedWord(8), // far too slow for the offered rate
            SupplyKind::Ideal,
            config,
        );
        let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 10 });
        let mut rng = StdRng::seed_from_u64(2);
        let s = c.run(&mut wl, 50, &mut rng);
        assert!(s.dropped > 0);
        assert!(s.loss_rate() > 0.1);
    }

    #[test]
    fn switched_supply_reaches_the_same_word_voltage() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Switched,
        );
        for _ in 0..80 {
            c.step(0);
        }
        // The duty-trim loop holds the output within ~1 LSB of the MEP
        // word's voltage despite converter imperfection.
        let v = c.vout().millivolts();
        assert!((v - 206.25).abs() < 22.0, "switched vout {v} mV");
        // The switched path also books converter loss.
        assert!(c.account().converter().value() > 0.0);
    }

    #[test]
    fn history_traces_export_every_cycle() {
        let mut c = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        for arrivals in [0, 3, 0, 0, 1, 0] {
            c.step(arrivals);
        }
        let set = c.history_traces();
        let vout = set.trace(0).expect("v_out trace");
        assert_eq!(vout.len(), 6);
        assert_eq!(vout.name(), "v_out");
        // CSV dump contains all four waveforms.
        let mut buf = Vec::new();
        set.write_csv(&mut buf).expect("vec write");
        let csv = String::from_utf8(buf).unwrap();
        for name in ["v_out", "word", "deviation_lsb", "queue_length"] {
            assert!(csv.contains(name), "{name} missing");
        }
    }

    #[test]
    fn dithered_policy_lands_between_words_on_a_half_lsb_die() {
        // A die half an LSB slow: integer compensation must choose
        // word 11 or 12; the dithered policy synthesizes the point in
        // between and its sensed error averages to zero.
        let tech = Technology::st_130nm();
        let design = Environment::nominal();
        let rate = rate_controller(&tech, design);
        let half_lsb = GateMismatch {
            nmos_dvth: subvt_device::units::Volts(0.009_4),
            pmos_dvth: subvt_device::units::Volts(0.009_4),
        };
        let mut c = AdaptiveController::new(
            tech,
            RingOscillator::paper_circuit(),
            rate,
            design,
            design,
            half_lsb,
            SupplyPolicy::AdaptiveDithered,
            SupplyKind::Ideal,
            ControllerConfig::default(),
        );
        for _ in 0..400 {
            c.step(0);
        }
        // Average supply over the settled tail.
        let tail = &c.history()[300..];
        let mean_mv = tail.iter().map(|r| r.vout.millivolts()).sum::<f64>() / tail.len() as f64;
        // Iso-delay target ≈ 206.25 + ~9.4 mV; strictly between words.
        assert!(
            (208.0..225.0).contains(&mean_mv),
            "dithered mean {mean_mv} mV"
        );
        let off_grid = (mean_mv / 18.75).fract();
        assert!(
            (0.08..0.92).contains(&off_grid),
            "mean sits on a word: {mean_mv} mV"
        );
        // Both adjacent words are actually used.
        let words: std::collections::HashSet<u8> = tail.iter().map(|r| r.word).collect();
        assert!(words.len() >= 2, "no dithering happened: {words:?}");
    }

    #[test]
    fn dithered_policy_stays_on_grid_for_a_nominal_die() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveDithered,
            SupplyKind::Ideal,
        );
        for _ in 0..200 {
            c.step(0);
        }
        let tail = &c.history()[150..];
        let mean_mv = tail.iter().map(|r| r.vout.millivolts()).sum::<f64>() / tail.len() as f64;
        assert!(
            (mean_mv - 206.25).abs() < 6.0,
            "nominal dithered mean {mean_mv} mV"
        );
    }

    #[test]
    fn tabulated_runs_match_the_analytic_controller() {
        let run = |c: &mut AdaptiveController<RingOscillator>| {
            let mut wl = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 1 });
            let mut rng = StdRng::seed_from_u64(9);
            c.run(&mut wl, 200, &mut rng)
        };
        let mut analytic = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        let baseline = run(&mut analytic);

        // Tabulated eval: same control decisions (the 18.75 mV word
        // grid dwarfs the ≤1% interpolation budget), energy within it.
        let mut via_table = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        )
        .with_eval(EvalMode::Tabulated.build(&Technology::st_130nm()));
        let tabulated = run(&mut via_table);
        assert_eq!(tabulated.compensation, baseline.compensation);
        // The ≤1% rate interpolation error can move one floor() in the
        // work accumulator over a long run, never more than that.
        let op_gap = tabulated.operations.abs_diff(baseline.operations);
        assert!(
            (op_gap as f64) <= 1.0 + 0.01 * baseline.operations as f64,
            "ops diverged: {} vs {}",
            tabulated.operations,
            baseline.operations
        );
        assert_eq!(tabulated.dropped, baseline.dropped);
        let (t, b) = (
            tabulated.account.total().value(),
            baseline.account.total().value(),
        );
        assert!((t - b).abs() / b < 0.02, "energy diverged: {t:e} vs {b:e}");
    }

    #[test]
    fn adaptive_beats_fixed_high_voltage_on_light_work() {
        let mut adaptive = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        let mut fixed = controller(
            Environment::nominal(),
            SupplyPolicy::FixedWord(32),
            SupplyKind::Ideal,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut wl1 = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 1 });
        let mut wl2 = WorkloadSource::new(WorkloadPattern::Constant { per_cycle: 1 });
        let a = adaptive.run(&mut wl1, 300, &mut rng);
        let b = fixed.run(&mut wl2, 300, &mut rng);
        assert_eq!(a.dropped, 0);
        assert_eq!(b.dropped, 0);
        let savings = a.account.savings_vs(&b.account);
        assert!(savings > 0.3, "savings {savings}");
    }

    #[test]
    fn hardening_is_silent_on_a_healthy_die() {
        // The degradation machinery must not perturb a fault-free run:
        // same history, same energy, zero watchdog trips, no recovery.
        let mut plain = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        let mut hard = controller(
            Environment::at_corner(ProcessCorner::Ss),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        )
        .with_watchdog(WatchdogPolicy::default());
        hard.enable_lut_scrub();
        for _ in 0..30 {
            plain.step(0);
            hard.step(0);
        }
        assert_eq!(plain.history(), hard.history());
        assert_eq!(plain.summary(), hard.summary());
        assert_eq!(hard.watchdog().unwrap().trips(), 0);
        assert_eq!(hard.account().recovery(), Joules::ZERO);
    }

    #[test]
    fn lut_scrub_repairs_an_upset_within_one_cycle() {
        let mut c = controller(
            Environment::nominal(),
            SupplyPolicy::AdaptiveCompensated,
            SupplyKind::Ideal,
        );
        c.enable_lut_scrub();
        for _ in 0..5 {
            c.step(0);
        }
        let settled = c.history().last().unwrap().word;
        c.inject_lut_upset(0, 5);
        let hit = c.step(0);
        assert_ne!(hit.word, settled, "the upset register drives one cycle");
        let next = c.step(0);
        assert_eq!(next.word, settled, "the scrub restored the golden word");
        assert!(c.account().recovery().value() > 0.0, "rewrite was booked");
    }
}
