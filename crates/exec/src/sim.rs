//! The sequential engine: one dispatch core under one coordinator.
//!
//! A [`Simulation`] shares a read-only [`Program`] (the model compiled
//! once per load) and owns one dispatch core — the instance population,
//! signal queues, scheduler stream, trace and timers — and the external
//! stimulus queue.
//! The core dispatches; the simulation coordinates: it delivers due
//! stimuli and timers into the core's queues, jumps time forward when
//! only timers or future stimuli remain, and drives the core's superloop
//! for `step`, `run_steps`, `run_until` and `run_to_quiescence`. Time
//! advances by one tick per consumed signal.
//!
//! The dispatch hot path is allocation-light by design: state actions are
//! pre-compiled to bytecode and resolved into a dense dispatch table when
//! the [`Program`] is built, the set of ready instances is maintained
//! incrementally instead of rescanned per step, signal payloads are shared
//! (`Arc<[Value]>`) and recycled, and one frame buffer is reused across
//! dispatches (see `exec::dispatch`).

pub use crate::dispatch::Engine;
use crate::dispatch::{livelock, Core, Envelope, Host, Timer};
use crate::program::Program;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::collections::VecDeque;
use std::sync::Arc;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{EventId, InstId};
use xtuml_core::interp::ActionHost;
use xtuml_core::model::Domain;
use xtuml_core::testcase::Drive;
use xtuml_core::value::Value;
use xtuml_obs::{Counter, Gauge, Recorder, Sink as _};

/// A pending external stimulus.
#[derive(Debug, Clone)]
pub(crate) struct Stimulus {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) to: InstId,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
}

impl Stimulus {
    pub(crate) fn snap_write_all<'a>(
        w: &mut snapshot::Writer,
        stimuli: impl ExactSizeIterator<Item = &'a Stimulus>,
    ) {
        w.len(stimuli.len());
        for s in stimuli {
            w.u64(s.time);
            w.u64(s.seq);
            w.u32(u32::from(s.to));
            w.u32(u32::from(s.event));
            snapshot::write_values(w, &s.args);
        }
    }

    /// Decodes a stimulus list, checking every target against `store`.
    pub(crate) fn snap_read_all(
        r: &mut snapshot::Reader<'_>,
        domain: &Domain,
        store: &ObjectStore,
    ) -> SnapResult<Vec<Stimulus>> {
        let n = r.len(28)?;
        let mut stimuli = Vec::with_capacity(n);
        for _ in 0..n {
            let s = Stimulus {
                time: r.u64()?,
                seq: r.u64()?,
                to: InstId::new(r.u32()?),
                event: EventId::new(r.u32()?),
                args: snapshot::read_values(r)?,
            };
            store
                .check_signal(domain, s.to, s.event, &s.args)
                .map_err(|why| SnapError::Corrupt(format!("stimulus: {why}")))?;
            stimuli.push(s);
        }
        Ok(stimuli)
    }
}

/// Removes every stimulus and timer due at `now` and yields them as
/// `(target, signal)` in delivery order: by `(time, seq)`, except that
/// with `stimuli_first` stimuli precede timers at the same instant — the
/// sharded engine's timer seqs come from shard counters, not from the
/// stimulus counter, so only the kind keeps its order total.
pub(crate) fn take_due(
    stimuli: &mut VecDeque<Stimulus>,
    timers: &mut Vec<Timer>,
    now: u64,
    stimuli_first: bool,
) -> impl Iterator<Item = (InstId, Envelope)> {
    let mut due: Vec<(u64, bool, InstId, Envelope)> = Vec::new();
    while stimuli.front().is_some_and(|s| s.time <= now) {
        let s = stimuli.pop_front().expect("peeked above");
        let env = Envelope {
            from: None,
            event: s.event,
            args: s.args,
            seq: s.seq,
        };
        due.push((s.time, false, s.to, env));
    }
    timers.retain(|t| {
        let fire = t.deadline <= now;
        if fire {
            let env = Envelope {
                from: Some(t.from),
                event: t.event,
                args: Arc::clone(&t.args),
                seq: t.seq,
            };
            due.push((t.deadline, true, t.to, env));
        }
        !fire
    });
    due.sort_by_key(|(time, timer, _, env)| (*time, *timer && stimuli_first, env.seq));
    due.into_iter().map(|(_, _, to, env)| (to, env))
}

/// An executing Executable UML model. See the crate-level example.
pub struct Simulation<'d> {
    pub(crate) program: Arc<Program<'d>>,
    pub(crate) core: Core,
    /// Pending external stimuli, kept sorted ascending by `(time, seq)`.
    /// Injection is overwhelmingly in time order, so maintaining the
    /// order on push is one back-element compare; delivery then streams
    /// `pop_front` over contiguous memory.
    pub(crate) stimuli: VecDeque<Stimulus>,
    pub(crate) max_steps: u64,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("domain", &self.program.domain().name)
            .field("now", &self.core.now)
            .field("live", &self.core.store.live_count())
            .field("policy", &self.core.policy)
            .finish_non_exhaustive()
    }
}

impl Drive for Simulation<'_> {
    type Handle = InstId;
    type Error = CoreError;

    fn create(&mut self, class: &str) -> Result<InstId> {
        Simulation::create(self, class)
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        Simulation::relate(self, a, b, assoc)
    }

    fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        Simulation::inject(self, time, inst, event, args)
    }
}

impl<'d> Simulation<'d> {
    /// Creates a simulation with the default (seed 0, strict) policy.
    pub fn new(domain: &'d Domain) -> Simulation<'d> {
        Simulation::with_policy(domain, SchedPolicy::default())
    }

    /// Creates a simulation with an explicit scheduling policy, on a
    /// [`Program`] built for it alone. Callers that run one model more
    /// than once build the program once and use
    /// [`Simulation::with_program`].
    pub fn with_policy(domain: &'d Domain, policy: SchedPolicy) -> Simulation<'d> {
        Simulation::with_program(Arc::new(Program::new(domain)), policy)
    }

    /// Creates a simulation of a shared, already-built [`Program`].
    pub fn with_program(program: Arc<Program<'d>>, policy: SchedPolicy) -> Simulation<'d> {
        let assocs = program.domain().associations.len();
        Simulation {
            program,
            core: Core::with_store(policy, ObjectStore::new(assocs)),
            stimuli: VecDeque::new(),
            max_steps: 10_000_000,
        }
    }

    /// Attaches a telemetry recorder; counters and (when the recorder
    /// carries a span buffer) spans are recorded from here on. Counter
    /// values are deterministic: a pure function of the seed for a given
    /// model and stimulus schedule.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.core.obs = Some(Box::new(rec));
    }

    /// Detaches and returns the recorder, if one is attached.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.core.obs.take().map(|b| *b)
    }

    /// The domain being executed.
    pub fn domain(&self) -> &Domain {
        self.program.domain()
    }

    /// Current simulation time (ticks).
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The instance population (read-only).
    pub fn store(&self) -> &ObjectStore {
        &self.core.store
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.core.dropped
    }

    /// Caps the total number of dispatch steps per `run_*` call.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Does nothing: every action runs on the bytecode VM. Kept so
    /// callers written against the two-executor API still build; either
    /// [`Engine`] variant is accepted.
    pub fn set_engine(&mut self, engine: Engine) {
        let _ = engine;
    }

    /// Sets the trace recording mode ([`TraceMode::Full`] by default).
    ///
    /// [`TraceMode::Off`] records nothing; differential and golden
    /// comparisons require `Full`.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.core.trace.set_mode(mode);
    }

    /// Creates an instance of the named class.
    ///
    /// Creation places the instance in its initial state **without**
    /// executing that state's entry action (xtUML creation semantics).
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown.
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        let id = self.domain().class_id(class)?;
        self.host().create(id)
    }

    /// Relates two instances across the named association.
    ///
    /// # Errors
    ///
    /// Propagates store errors (multiplicity, class mismatch, dangling).
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        let id = self.domain().assoc_id(assoc)?;
        self.host().relate(a, b, id)
    }

    fn host(&mut self) -> Host<'_> {
        Host {
            core: &mut self.core,
            domain: self.program.domain(),
        }
    }

    /// Schedules an external stimulus: deliver `event` to `inst` at
    /// absolute time `time` (must not be in the past).
    ///
    /// # Errors
    ///
    /// Fails on unknown events, dead instances, arity mismatches or past
    /// times.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        if time < self.core.now {
            return Err(CoreError::runtime(format!(
                "cannot inject at past time {time} (now {})",
                self.core.now
            )));
        }
        let class = self.core.store.class_of(inst)?;
        let c = self.domain().class(class);
        let event_id = c
            .event_id(event)
            .ok_or_else(|| CoreError::unresolved("event", format!("{}.{event}", c.name)))?;
        if c.events[event_id.index()].params.len() != args.len() {
            return Err(CoreError::runtime(format!(
                "event `{event}` takes {} argument(s), got {}",
                c.events[event_id.index()].params.len(),
                args.len()
            )));
        }
        let seq = self.core.next_seq();
        let args = self.core.payloads.payload(args);
        self.stim_insert(Stimulus {
            time,
            seq,
            to: inst,
            event: event_id,
            args,
        });
        if let Some(o) = self.core.obs.as_mut() {
            o.count(Counter::StimuliInjected, 1);
            o.gauge_max(Gauge::StimulusHeapMax, self.stimuli.len() as u64);
        }
        Ok(())
    }

    /// Reads an attribute by name.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes or dangling instances.
    pub fn attr(&self, inst: InstId, name: &str) -> Result<Value> {
        let class = self.core.store.class_of(inst)?;
        let c = self.domain().class(class);
        let id = c
            .attr_id(name)
            .ok_or_else(|| CoreError::unresolved("attribute", format!("{}.{name}", c.name)))?;
        self.core.store.attr_read(inst, id)
    }

    /// The name of the instance's current state.
    ///
    /// # Errors
    ///
    /// Fails on dangling instances or passive classes.
    pub fn state_name(&self, inst: InstId) -> Result<&str> {
        let class = self.core.store.class_of(inst)?;
        let machine = self
            .domain()
            .class(class)
            .state_machine
            .as_ref()
            .ok_or_else(|| CoreError::runtime("passive class has no states"))?;
        Ok(&machine.state(self.core.store.state_of(inst)?).name)
    }

    // -- the dispatch loop --------------------------------------------------

    /// Runs until no signal, timer or stimulus remains.
    ///
    /// Returns the number of dispatch steps taken.
    ///
    /// # Errors
    ///
    /// Propagates action runtime errors and, in strict mode, can't-happen
    /// events; fails if `max_steps` is exceeded.
    pub fn run_to_quiescence(&mut self) -> Result<u64> {
        if let Some(o) = self.core.obs.as_mut() {
            let track = o.track;
            o.span_begin(track, "sim", "run_to_quiescence");
        }
        let r = self.run_to_quiescence_inner();
        if let Some(o) = self.core.obs.as_mut() {
            let track = o.track;
            o.span_end(track);
        }
        r
    }

    fn run_to_quiescence_inner(&mut self) -> Result<u64> {
        let mut steps = 0u64;
        if self.run_steps(self.max_steps.saturating_add(1), &mut steps)? {
            Ok(steps)
        } else {
            Err(livelock(self.max_steps))
        }
    }

    /// Runs at most `budget - *steps` dispatch steps through the core's
    /// superloop, which yields whenever a timer is pending or the next
    /// stimulus comes due; callers fall back to [`Simulation::step`] for
    /// delivery and time jumps. Actions never inject stimuli, so the
    /// queue front is fixed for the whole batch.
    fn superloop(&mut self, budget: u64, steps: &mut u64) -> Result<()> {
        let stop_at = self.stimuli.front().map_or(u64::MAX, |s| s.time);
        self.core.run_ready(&self.program, budget, steps, stop_at)
    }

    /// Runs at most `budget` dispatch steps, batching through the
    /// superloop (the serve daemon's step path). `ran` is incremented
    /// per dispatch — also on error, so callers can account fuel.
    /// Returns `true` when the run reached quiescence before the budget
    /// was exhausted.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run_to_quiescence`], except `max_steps`
    /// does not apply (the budget is the cap).
    pub fn run_steps(&mut self, budget: u64, ran: &mut u64) -> Result<bool> {
        loop {
            self.superloop(budget, ran)?;
            if *ran >= budget {
                return Ok(false);
            }
            if !self.step()? {
                return Ok(true);
            }
            *ran += 1;
        }
    }

    /// Runs until simulation time reaches `deadline` or quiescence.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run_to_quiescence`].
    pub fn run_until(&mut self, deadline: u64) -> Result<u64> {
        let mut steps = 0u64;
        while self.core.now < deadline {
            if !self.step()? {
                break;
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(livelock(self.max_steps));
            }
        }
        Ok(steps)
    }

    /// Performs one dispatch step; returns `false` at quiescence.
    ///
    /// # Errors
    ///
    /// Propagates action errors and strict-mode can't-happen events.
    pub fn step(&mut self) -> Result<bool> {
        loop {
            // Pure signal traffic (no pending timer or stimulus) has
            // nothing to deliver; skip the scan entirely.
            if !self.core.timers.is_empty() || !self.stimuli.is_empty() {
                self.deliver_due();
            }
            if self.core.ready.is_empty() {
                // Jump to the next timer/stimulus moment, if any.
                let next = self
                    .core
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(self.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > self.core.now => {
                        self.core.now = t;
                        continue;
                    }
                    Some(_) => continue, // due now; deliver on next loop
                    None => return Ok(false),
                }
            }
            self.core.dispatch_next(&self.program)?;
            self.core.now += 1;
            return Ok(true);
        }
    }

    /// Inserts a stimulus, maintaining the `(time, seq)` sort. The
    /// common case — injection in nondecreasing time order — is a
    /// single compare against the back element.
    pub(crate) fn stim_insert(&mut self, s: Stimulus) {
        let in_order = self
            .stimuli
            .back()
            .is_none_or(|b| (b.time, b.seq) <= (s.time, s.seq));
        if in_order {
            self.stimuli.push_back(s);
        } else {
            let at = self
                .stimuli
                .partition_point(|q| (q.time, q.seq) < (s.time, s.seq));
            self.stimuli.insert(at, s);
        }
    }

    /// Moves due stimuli and timers into instance queues, in `(time, seq)`
    /// order.
    fn deliver_due(&mut self) {
        let now = self.core.now;
        if !self.core.timers.iter().any(|t| t.deadline <= now) {
            // Fast path (no due timer): the queue is sorted by
            // (time, seq), the exact order a merge would produce, because
            // `seq` is globally unique across timers and stimuli.
            while self.stimuli.front().is_some_and(|s| s.time <= now) {
                let s = self.stimuli.pop_front().expect("peeked above");
                if !self.core.store.is_alive(s.to) {
                    continue; // instance died while the stimulus was in flight
                }
                self.core.enqueue(
                    s.to,
                    Envelope {
                        from: None,
                        event: s.event,
                        args: s.args,
                        seq: s.seq,
                    },
                );
            }
            return;
        }
        // General path: merge due timers and due stimuli.
        for (to, env) in take_due(&mut self.stimuli, &mut self.core.timers, now, false) {
            if !self.core.store.is_alive(to) {
                continue; // instance died while the signal was in flight
            }
            if env.from.is_some() {
                if let Some(o) = self.core.obs.as_mut() {
                    o.count(Counter::TimersFired, 1);
                }
            }
            self.core.enqueue(to, env);
        }
    }

    // -- snapshot / restore -------------------------------------------------

    /// Number of pending (not yet delivered) external stimuli — the
    /// bound the serve daemon's per-session backpressure checks against.
    pub fn pending_stimuli(&self) -> usize {
        self.stimuli.len()
    }

    /// Serializes the full execution state (DESIGN §15, kind 1).
    ///
    /// Captures everything execution can observe: the population, signal
    /// queues, timers, pending stimuli, the scheduler PRNG state, the
    /// trace so far, and the deterministic metrics of an attached
    /// recorder. [`Simulation::restore`] continues **byte-identically**
    /// to an uninterrupted run. Not captured (see [`crate::snapshot`]):
    /// wall-clock telemetry and allocation caches.
    pub fn snapshot(&self) -> Vec<u8> {
        let c = &self.core;
        let mut w =
            snapshot::Writer::with_header(snapshot::KIND_SEQUENTIAL, self.program.fingerprint());
        snapshot::write_policy(&mut w, &c.policy);
        w.u64(c.now);
        w.u64(c.seq);
        w.u64(c.dropped);
        w.u64(self.max_steps);
        w.u64(c.rng.state());
        c.snap_write(&mut w);
        Timer::snap_write_all(&mut w, &c.timers);
        // The queue invariant keeps stimuli sorted by the total
        // (time, seq) key, so plain iteration is canonical.
        Stimulus::snap_write_all(&mut w, self.stimuli.iter());
        snapshot::write_trace(&mut w, &c.trace);
        snapshot::write_recorder(&mut w, c.obs.as_deref());
        w.finish()
    }

    /// Rebuilds a simulation from a [`Simulation::snapshot`] against the
    /// same domain, on a [`Program`] built for it alone (see
    /// [`Simulation::restore_with`]).
    ///
    /// The restored simulation continues byte-identically to the one the
    /// snapshot was taken from. An attached recorder comes back with its
    /// deterministic metrics only (no span buffer, zeroed wall-clock
    /// timing).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] — never panics — on truncated
    /// or corrupt input (including ids out of range for the domain),
    /// version or kind mismatch, or a snapshot taken against a different
    /// domain.
    pub fn restore(domain: &'d Domain, bytes: &[u8]) -> SnapResult<Simulation<'d>> {
        Simulation::restore_with(Arc::new(Program::new(domain)), bytes)
    }

    /// [`Simulation::restore`] onto a shared, already-built [`Program`]
    /// of the snapshot's domain.
    ///
    /// # Errors
    ///
    /// As [`Simulation::restore`].
    pub fn restore_with(program: Arc<Program<'d>>, bytes: &[u8]) -> SnapResult<Simulation<'d>> {
        // Keeps the domain readable after `program` moves into the result.
        let held = Arc::clone(&program);
        let domain = held.domain();
        let (mut r, kind) = snapshot::Reader::open(bytes, program.fingerprint())?;
        if kind != snapshot::KIND_SEQUENTIAL {
            return Err(SnapError::Corrupt(format!(
                "expected a sequential snapshot, got kind {kind}"
            )));
        }
        let policy = snapshot::read_policy(&mut r)?;
        let mut sim = Simulation::with_program(program, policy);
        sim.core.now = r.u64()?;
        sim.core.seq = r.u64()?;
        sim.core.dropped = r.u64()?;
        sim.max_steps = r.u64()?;
        sim.core.rng = SplitMix64::from_state(r.u64()?);
        sim.core.snap_read(&mut r, domain)?;
        sim.core.timers = Timer::snap_read_all(&mut r)?;
        for t in &sim.core.timers {
            t.check(domain, &sim.core.store)?;
        }
        for s in Stimulus::snap_read_all(&mut r, domain, &sim.core.store)? {
            // Snapshots write stimuli in (time, seq) order; stim_insert
            // keeps that invariant (and repairs a hand-edited snapshot).
            sim.stim_insert(s);
        }
        sim.core.trace = snapshot::read_trace(&mut r, domain)?;
        sim.core.obs = snapshot::read_recorder(&mut r)?;
        r.expect_end()?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use xtuml_core::builder::{pipeline_domain, DomainBuilder};
    use xtuml_core::ids::StateId;
    use xtuml_core::value::DataType;

    fn counter_domain() -> Domain {
        let mut b = DomainBuilder::new("demo");
        b.actor("OUT").event("done", &[("v", DataType::Int)]);
        b.class("Counter")
            .attr("n", DataType::Int)
            .event("Bump", &[])
            .event("Reset", &[])
            .state("Idle", "")
            .state("Bumping", "self.n = self.n + 1; gen done(self.n) to OUT;")
            .state("Zero", "self.n = 0;")
            .initial("Idle")
            .transition("Idle", "Bump", "Bumping")
            .transition("Bumping", "Bump", "Bumping")
            .transition("Bumping", "Reset", "Zero")
            .transition("Zero", "Bump", "Bumping")
            .ignore("Idle", "Reset");
        b.build().unwrap()
    }

    #[test]
    fn basic_dispatch_and_observables() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Bump", vec![]).unwrap();
        sim.inject(1, c, "Bump", vec![]).unwrap();
        sim.inject(2, c, "Reset", vec![]).unwrap();
        sim.inject(3, c, "Bump", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.attr(c, "n").unwrap(), Value::Int(1));
        assert_eq!(sim.state_name(c).unwrap(), "Bumping");
        let obs = sim.trace().observable(&d);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].args, vec![Value::Int(1)]);
        assert_eq!(obs[1].args, vec![Value::Int(2)]);
        assert_eq!(obs[2].args, vec![Value::Int(1)]);
    }

    #[test]
    fn ignore_consumes_silently() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Reset", vec![]).unwrap(); // ignored in Idle
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state_name(c).unwrap(), "Idle");
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Ignored { .. })));
    }

    #[test]
    fn cant_happen_errors_in_strict_mode() {
        let mut b = DomainBuilder::new("m");
        b.class("C")
            .event("E", &[])
            .event("F", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "F", vec![]).unwrap();
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(matches!(err, CoreError::CantHappen { .. }));
    }

    #[test]
    fn cant_happen_dropped_in_lenient_mode() {
        let mut b = DomainBuilder::new("m");
        b.class("C")
            .event("E", &[])
            .event("F", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let d = b.build().unwrap();
        let mut sim = Simulation::with_policy(
            &d,
            SchedPolicy {
                strict: false,
                ..SchedPolicy::default()
            },
        );
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "F", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.dropped_events(), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("fired", &[("tag", DataType::Int)]);
        b.class("T")
            .event("Arm", &[])
            .event("Late", &[("tag", DataType::Int)])
            .state("Idle", "")
            .state(
                "Armed",
                "gen Late(2) to self after 20;\n\
                 gen Late(1) to self after 10;",
            )
            .state("Fired", "gen fired(rcvd.tag) to OUT;")
            .initial("Idle")
            .transition("Idle", "Arm", "Armed")
            .transition("Armed", "Late", "Fired")
            .transition("Fired", "Late", "Fired");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let t = sim.create("T").unwrap();
        sim.inject(0, t, "Arm", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        let obs = sim.trace().observable(&d);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].args, vec![Value::Int(1)]);
        assert_eq!(obs[1].args, vec![Value::Int(2)]);
        assert!(sim.now() >= 20);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("fired", &[]);
        b.class("T")
            .event("Arm", &[])
            .event("Disarm", &[])
            .event("Late", &[])
            .state("Idle", "")
            .state("Armed", "gen Late() to self after 50;")
            .state("Safe", "cancel Late;")
            .state("Boom", "gen fired() to OUT;")
            .initial("Idle")
            .transition("Idle", "Arm", "Armed")
            .transition("Armed", "Disarm", "Safe")
            .transition("Armed", "Late", "Boom");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let t = sim.create("T").unwrap();
        sim.inject(0, t, "Arm", vec![]).unwrap();
        sim.inject(1, t, "Disarm", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.trace().observable(&d).is_empty());
        assert_eq!(sim.state_name(t).unwrap(), "Safe");
    }

    #[test]
    fn self_events_preempt_external_ones() {
        // In state Work, the instance sends itself Finish. An external
        // Next is already queued. With self-priority, Finish must be
        // consumed first.
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("seen", &[("which", DataType::Int)]);
        b.class("W")
            .event("Go", &[])
            .event("Next", &[])
            .event("Finish", &[])
            .state("Idle", "")
            .state("Work", "gen Finish() to self;")
            .state("Done", "gen seen(1) to OUT;")
            .state("Nexted", "gen seen(2) to OUT;")
            .initial("Idle")
            .transition("Idle", "Go", "Work")
            .transition("Work", "Finish", "Done")
            .transition("Work", "Next", "Nexted")
            .transition("Done", "Next", "Nexted")
            .ignore("Nexted", "Finish");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let w = sim.create("W").unwrap();
        sim.inject(0, w, "Go", vec![]).unwrap();
        sim.inject(0, w, "Next", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        let obs = sim.trace().observable(&d);
        let order: Vec<i64> = obs.iter().map(|o| o.args[0].as_int().unwrap()).collect();
        assert_eq!(order, vec![1, 2], "self event must be consumed first");
    }

    #[test]
    fn same_seed_same_trace_different_seed_may_differ() {
        let d = pipeline_domain(4).unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::with_policy(&d, SchedPolicy::seeded(seed));
            let insts: Vec<InstId> = (0..4)
                .map(|k| sim.create(&format!("Stage{k}")).unwrap())
                .collect();
            for k in 0..3 {
                sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                    .unwrap();
            }
            for i in 0..8 {
                sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                    .unwrap();
            }
            sim.run_to_quiescence().unwrap();
            sim.trace().clone()
        };
        let t1 = run(1);
        let t2 = run(1);
        assert_eq!(t1, t2, "same seed must reproduce the trace exactly");
        // Observable outputs must be identical across seeds for this
        // deterministic pipeline (it is confluent).
        let t3 = run(99);
        assert_eq!(
            t1.observable(&d),
            t3.observable(&d),
            "pipeline output is interleaving-independent"
        );
    }

    #[test]
    fn causality_holds_with_rules_on() {
        let d = pipeline_domain(3).unwrap();
        let mut sim = Simulation::new(&d);
        let insts: Vec<InstId> = (0..3)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..2 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..20 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(0)])
                .unwrap();
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.trace().causality_violations(), 0);
    }

    #[test]
    fn pair_order_ablation_can_violate_causality() {
        // One sender fires many ordered signals at one receiver; with FIFO
        // off, some pair must eventually be dispatched out of order.
        let mut b = DomainBuilder::new("m");
        b.class("Recv")
            .attr("last", DataType::Int)
            .event("Msg", &[("k", DataType::Int)])
            .state("Idle", "")
            .state("Got", "self.last = rcvd.k;")
            .initial("Idle")
            .transition("Idle", "Msg", "Got")
            .transition("Got", "Msg", "Got");
        b.class("Send")
            .event("Go", &[])
            .state("Idle", "")
            .state(
                "Burst",
                "select any r from Recv;\n\
                 k = 0;\n\
                 while (k < 50) { gen Msg(k) to r; k = k + 1; }",
            )
            .initial("Idle")
            .transition("Idle", "Go", "Burst");
        let d = b.build().unwrap();
        let mut violated = false;
        for seed in 0..10 {
            let mut sim = Simulation::with_policy(
                &d,
                SchedPolicy {
                    pair_order: false,
                    ..SchedPolicy::seeded(seed)
                },
            );
            let _r = sim.create("Recv").unwrap();
            let s = sim.create("Send").unwrap();
            sim.inject(0, s, "Go", vec![]).unwrap();
            sim.run_to_quiescence().unwrap();
            if sim.trace().causality_violations() > 0 {
                violated = true;
                break;
            }
        }
        assert!(violated, "ablating pair order must eventually reorder");
    }

    #[test]
    fn delete_drops_in_flight_signals() {
        let mut b = DomainBuilder::new("m");
        b.actor("OUT").event("late", &[]);
        b.class("Victim")
            .event("Poke", &[])
            .state("Idle", "")
            .state("Poked", "gen late() to OUT;")
            .initial("Idle")
            .transition("Idle", "Poke", "Poked")
            .transition("Poked", "Poke", "Poked");
        b.class("Killer")
            .event("Go", &[])
            .state("Idle", "")
            .state(
                "Kill",
                "select any v from Victim;\n\
                 gen Poke() to v after 100;\n\
                 delete v;",
            )
            .initial("Idle")
            .transition("Idle", "Go", "Kill");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let _v = sim.create("Victim").unwrap();
        let k = sim.create("Killer").unwrap();
        sim.inject(0, k, "Go", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.trace().observable(&d).is_empty());
    }

    #[test]
    fn unregistered_bridge_returns_default() {
        let mut b = DomainBuilder::new("m");
        b.actor("MATH")
            .func("abs", &[("v", DataType::Int)], Some(DataType::Int));
        b.class("C")
            .attr("r", DataType::Int)
            .event("E", &[])
            .state("Idle", "")
            .state("Calc", "self.r = MATH::abs(-5) + 7;")
            .initial("Idle")
            .transition("Idle", "E", "Calc");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        let c = sim.create("C").unwrap();
        sim.inject(0, c, "E", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.attr(c, "r").unwrap(), Value::Int(7));
    }

    #[test]
    fn inject_validates_event_and_time() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        assert!(sim.inject(0, c, "Nope", vec![]).is_err());
        assert!(sim.inject(0, c, "Bump", vec![Value::Int(1)]).is_err());
        sim.inject(5, c, "Bump", vec![]).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.inject(0, c, "Bump", vec![]).is_err(), "past time");
    }

    #[test]
    fn max_steps_guards_livelock() {
        let mut b = DomainBuilder::new("m");
        b.class("Loop")
            .event("E", &[])
            .state("A", "gen E() to self;")
            .initial("A")
            .transition("A", "E", "A");
        let d = b.build().unwrap();
        let mut sim = Simulation::new(&d);
        sim.set_max_steps(100);
        let c = sim.create("Loop").unwrap();
        sim.inject(0, c, "E", vec![]).unwrap();
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("max_steps"));
    }

    #[test]
    fn snapshot_mid_run_continues_byte_identically() {
        let d = pipeline_domain(4).unwrap();
        let setup = |sim: &mut Simulation| {
            let insts: Vec<InstId> = (0..4)
                .map(|k| sim.create(&format!("Stage{k}")).unwrap())
                .collect();
            for k in 0..3 {
                sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                    .unwrap();
            }
            for i in 0..12 {
                sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                    .unwrap();
            }
        };
        let mut reference = Simulation::with_policy(&d, SchedPolicy::seeded(7));
        setup(&mut reference);
        reference.run_to_quiescence().unwrap();

        for cut in [0u64, 1, 5, 11] {
            let mut sim = Simulation::with_policy(&d, SchedPolicy::seeded(7));
            setup(&mut sim);
            for _ in 0..cut {
                assert!(sim.step().unwrap());
            }
            let bytes = sim.snapshot();
            let mut restored = Simulation::restore(&d, &bytes).unwrap();
            restored.run_to_quiescence().unwrap();
            assert_eq!(
                restored.trace(),
                reference.trace(),
                "divergence after restoring at step {cut}"
            );
            assert_eq!(restored.now(), reference.now());
            // A second snapshot of the same state is byte-identical.
            let mut again = Simulation::restore(&d, &bytes).unwrap();
            assert_eq!(again.snapshot(), bytes);
            again.run_to_quiescence().unwrap();
            assert_eq!(again.trace(), reference.trace());
        }
    }

    #[test]
    fn corrupt_snapshots_error_structurally() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        sim.inject(0, c, "Bump", vec![]).unwrap();
        let bytes = sim.snapshot();
        // Every truncation must produce SnapError, never a panic.
        for cut in 0..bytes.len() {
            assert!(Simulation::restore(&d, &bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Simulation::restore(&d, &long).is_err());
    }

    #[test]
    fn restore_rejects_out_of_range_ids() {
        let d = counter_domain();
        let restore_edited = |edit: &dyn Fn(&mut Simulation)| {
            let mut sim = Simulation::new(&d);
            let c = sim.create("Counter").unwrap();
            sim.inject(3, c, "Bump", vec![]).unwrap();
            edit(&mut sim);
            Simulation::restore(&d, &sim.snapshot()).map(|_| ())
        };
        let (c, bad_event) = (InstId::new(0), EventId::new(9));
        restore_edited(&|s| s.core.store.set_state(c, StateId::new(2)).unwrap()).unwrap();
        let edits: [&dyn Fn(&mut Simulation); 4] = [
            // A state past the machine would index another row of the
            // dispatch table.
            &|s| s.core.store.set_state(c, StateId::new(3)).unwrap(),
            &|s| {
                let args = Arc::from(vec![]);
                let env = Envelope {
                    from: None,
                    event: bad_event,
                    args,
                    seq: 9,
                };
                s.core.enqueue(c, env);
            },
            &|s| {
                let mut t = s.core.timers.pop().unwrap_or_else(|| Timer {
                    deadline: 5,
                    seq: 9,
                    from: c,
                    to: c,
                    event: EventId::new(0),
                    args: Arc::from(vec![]),
                });
                t.to = InstId::new(7);
                s.core.timers.push(t);
            },
            &|s| s.stimuli[0].event = bad_event,
        ];
        for edit in edits {
            let err = restore_edited(edit).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let d = counter_domain();
        let mut sim = Simulation::new(&d);
        let c = sim.create("Counter").unwrap();
        for i in 0..100 {
            sim.inject(i, c, "Bump", vec![]).unwrap();
        }
        sim.run_until(10).unwrap();
        assert!(sim.now() >= 10);
        let n = sim.attr(c, "n").unwrap().as_int().unwrap();
        assert!(n < 100);
    }
}
