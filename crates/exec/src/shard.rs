//! Deterministic sharded parallel execution: one coordinator over N
//! dispatch cores.
//!
//! The paper's semantics make parallelism *legal*: instances are
//! concurrently executing state machines that communicate only by
//! signals, and each dispatch runs to completion. [`ShardedSimulation`]
//! exploits that. Setup (`create`, `relate`, `inject`) goes through an
//! owned [`Simulation`]; a run clones that simulation's dispatch core
//! into `policy.shards` replicas, partitioning ownership by instance id
//! (`id % shards`), and proceeds in **epochs**:
//!
//! 1. due stimuli and timers are delivered into replica queues;
//! 2. every replica independently runs its local run-to-completion steps
//!    until it has no ready instance, buffering signals to other shards
//!    in its outbox and appending to its own trace;
//! 3. at the **epoch barrier** the replica traces are concatenated in
//!    shard-id order, outboxes are routed (source shards in id order,
//!    each source's signals in send order — so signals between any
//!    sender–receiver pair stay FIFO), new timers are collected, and
//!    global time advances by the largest per-shard dispatch count.
//!
//! Every choice above is a pure function of the seed and the shard
//! count: shard `k` schedules with its own PRNG stream derived from
//! `policy.seed`, and the barrier merge is order-deterministic. The
//! worker count (`--jobs`) only decides how many shards execute
//! *concurrently* between barriers — the merged trace is byte-identical
//! whether the shards run on one thread or eight. At `shards == 1` the
//! owned simulation simply runs in place, so single-shard traces are the
//! sequential engine's. Replicas and the sequential engine share one
//! dispatch path (`exec::dispatch`); what differs follows from each
//! core's `(id, nshards)`.
//!
//! Not every model is shardable. [`shard_safety`] consults the
//! whole-model effect analysis (`xtuml_core::effects`) before any thread
//! starts: models whose actions only write `self` attributes and
//! communicate by signals shard without restriction, and the analysis
//! additionally *admits* reads of never-written attributes (replicas
//! hold the declared defaults), creation of classes nothing selects over
//! (ids are allocated congruent to the creating shard, so ownership
//! holds — see [`ObjectStore::create_with_id`]), and attribute access
//! confined to a single navigated association whose links are
//! shard-colocated. That last rule is a *runtime* precondition: the run
//! re-checks the setup links at the actual shard count and silently runs
//! the owned sequential simulation when it fails (see
//! [`ShardedSimulation::runtime_fallback`]), keeping the trace a pure
//! function of `(seed, shards)`. Structure mutation
//! (`delete`/`relate`/`unrelate`) and irreconcilable non-self access
//! still reject — the latter as diagnostic `X0017 cross-shard-race`.

use crate::dispatch::{livelock, Core, Envelope, Timer};
use crate::program::Program;
use crate::sched::{SchedPolicy, SplitMix64};
use crate::sim::{take_due, Simulation, Stimulus};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::{Trace, TraceMode};
use std::sync::Arc;
use xtuml_core::effects::{self, ShardPlan};
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{AssocId, InstId};
use xtuml_core::model::Domain;
use xtuml_core::testcase::Drive;
use xtuml_core::value::Value;
use xtuml_obs::{Counter, EpochRow, Gauge, HistKind, Metrics, NullSink, Recorder, Sink};
use xtuml_pool::Pool;

// ---------------------------------------------------------------------------
// Static shard-safety analysis
// ---------------------------------------------------------------------------

/// Checks whether a domain's actions are safe to execute sharded.
///
/// Safe actions may read/write `self` attributes, navigate associations,
/// select over the (static) population, generate signals (buffered at
/// the barrier), cancel their own timers, and call bridge functions
/// (traced, returning the declared default). On
/// top of that, the effect analysis admits read-only access to
/// never-written attributes, writes to instances created in the same
/// run-to-completion step (creation-confined classes only), and access
/// confined to one shard-colocated association. What remains —
/// `delete`/`relate`/`unrelate`, unconfined creates, and non-self
/// access no admission rule covers — would race between shards and
/// rejects here.
///
/// # Errors
///
/// Returns a runtime error naming every offending class/state/construct,
/// so callers can report *why* a model must run sequentially.
pub fn shard_safety(domain: &Domain) -> Result<()> {
    plan_safety(&effects::analyze(domain))
}

/// [`shard_safety`] of an already-computed plan.
pub(crate) fn plan_safety(plan: &ShardPlan) -> Result<()> {
    if plan.admitted() {
        Ok(())
    } else {
        let described: Vec<String> = plan.offenses.iter().map(|o| o.describe()).collect();
        Err(CoreError::runtime(format!(
            "model is not shard-safe: {}",
            described.join("; ")
        )))
    }
}

// ---------------------------------------------------------------------------
// The sharded engine
// ---------------------------------------------------------------------------

/// One shard between barriers: its dispatch core plus the epoch's
/// bookkeeping.
struct Replica {
    core: Core,
    /// Dispatches this epoch; reset at each barrier.
    dispatches: u64,
    /// Wall-clock nanoseconds this shard spent busy in the last epoch —
    /// the coordinator subtracts it from the epoch wall time to estimate
    /// barrier wait. Only measured while a recorder is attached.
    busy_ns: u64,
}

impl Replica {
    fn new(core: Core) -> Replica {
        Replica {
            core,
            dispatches: 0,
            busy_ns: 0,
        }
    }

    /// Queues a signal routed to this shard by the coordinator.
    fn deliver(&mut self, to: InstId, env: Envelope) {
        self.core.enqueue(to, env);
        if let Some(r) = self.core.obs.as_mut() {
            r.gauge_max(Gauge::ReadySetMax, self.core.ready.len() as u64);
        }
    }

    /// Runs this shard's run-to-completion steps until no local instance
    /// is ready. Called between barriers, possibly on a worker thread.
    ///
    /// Bounded by `budget` (the global budget remaining when the epoch
    /// started): each shard checks against the full remaining budget
    /// independently, so whether a shard errors is a pure function of its
    /// own inputs — deterministic across worker counts — and a
    /// shard-local livelock fails like the sequential engine does instead
    /// of hanging the run.
    fn run_epoch(
        &mut self,
        t: &Program<'_>,
        epoch: u64,
        budget: u64,
        max_steps: u64,
    ) -> Result<()> {
        let timed = self.core.obs.is_some().then(std::time::Instant::now);
        if let Some(r) = self.core.obs.as_mut() {
            if r.spans_enabled() {
                let track = r.track;
                r.span_begin(track, "shard", &format!("epoch {epoch}"));
            }
        }
        let mut out = self
            .core
            .run_ready(t, budget, &mut self.dispatches, u64::MAX);
        if out.is_ok() && !self.core.ready.is_empty() {
            if let Some(r) = self.core.obs.as_mut() {
                r.count(Counter::BudgetExhausted, 1);
            }
            out = Err(livelock(max_steps));
        }
        if let Some(r) = self.core.obs.as_mut() {
            if r.spans_enabled() {
                let track = r.track;
                r.span_end(track);
            }
        }
        if let Some(t0) = timed {
            self.busy_ns = t0.elapsed().as_nanos() as u64;
        }
        out
    }
}

/// A sharded run paused at an epoch barrier ([`ShardedSimulation::run_epochs`]
/// returned `None`) — exactly the points where every replica's
/// epoch-local buffers are drained, which is what makes the pause a valid
/// snapshot point. Undelivered stimuli stay in the coordinator's queue.
struct Epochs {
    replicas: Vec<Replica>,
    /// Armed timers, sorted by `(deadline, seq)` at every barrier.
    timers: Vec<Timer>,
    total_steps: u64,
    epoch_no: u64,
}

/// The sharded counterpart of [`Simulation`]: the same setup API
/// (`create`, `relate`, `inject` — implemented by an owned
/// [`Simulation`]), then [`ShardedSimulation::run_to_quiescence`]
/// executes epochs with a caller-supplied worker count.
///
/// With `policy.shards <= 1` the owned simulation runs in place, so the
/// trace is the sequential engine's. With more shards the trace is a pure
/// function of `(seed, shards)` — see the module docs for the guarantee
/// and [`shard_safety`] for the model classes this engine accepts.
pub struct ShardedSimulation<'d> {
    /// Setup population, stimulus queue, clock, merged trace and root
    /// recorder — and the engine itself at one shard or on a runtime
    /// fallback. Its core never dispatches during a sharded run, so its
    /// store stays the setup population the replicas were cloned from.
    sim: Simulation<'d>,
    /// Setup-time relate calls, in call order (for the colocation check).
    setup_links: Vec<(InstId, InstId, AssocId)>,
    /// Why the last run fell back to the sequential engine at runtime
    /// despite static admission; `None` otherwise.
    runtime_fallback: Option<String>,
    /// The paused run, `Some` only between a `run_epochs` pause and its
    /// resumption (always at an epoch barrier).
    epochs: Option<Epochs>,
}

impl std::fmt::Debug for ShardedSimulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("domain", &self.sim.domain().name)
            .field("policy", &self.sim.core.policy)
            .field("live", &self.sim.core.store.live_count())
            .finish_non_exhaustive()
    }
}

impl Drive for ShardedSimulation<'_> {
    type Handle = InstId;
    type Error = CoreError;

    fn create(&mut self, class: &str) -> Result<InstId> {
        ShardedSimulation::create(self, class)
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        ShardedSimulation::relate(self, a, b, assoc)
    }

    fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        ShardedSimulation::inject(self, time, inst, event, args)
    }
}

impl<'d> ShardedSimulation<'d> {
    /// Creates a sharded simulation with an explicit policy, on a
    /// [`Program`] built for it alone (see
    /// [`ShardedSimulation::with_program`]).
    pub fn with_policy(domain: &'d Domain, policy: SchedPolicy) -> ShardedSimulation<'d> {
        ShardedSimulation::with_program(Arc::new(Program::new(domain)), policy)
    }

    /// Creates a sharded simulation of a shared, already-built
    /// [`Program`]; the static shard-safety gate and the runtime
    /// colocation check read its plan.
    pub fn with_program(program: Arc<Program<'d>>, policy: SchedPolicy) -> ShardedSimulation<'d> {
        ShardedSimulation {
            sim: Simulation::with_program(program, policy.with_shards(policy.shards)),
            setup_links: Vec::new(),
            runtime_fallback: None,
            epochs: None,
        }
    }

    /// Attaches a telemetry recorder. Setup already performed still
    /// counts: the instances created and stimuli injected so far are
    /// counted here, exactly as if the recorder had been attached first.
    pub fn attach_recorder(&mut self, mut rec: Recorder) {
        let live = self.sim.core.store.live_count() as u64;
        let pending = self.sim.stimuli.len() as u64;
        rec.metrics.add(Counter::InstancesCreated, live);
        rec.metrics.gauge_max(Gauge::LiveInstancesMax, live);
        rec.metrics.add(Counter::StimuliInjected, pending);
        rec.metrics.gauge_max(Gauge::StimulusHeapMax, pending);
        self.sim.attach_recorder(rec);
    }

    /// See [`Simulation::take_recorder`]; a finished run has absorbed
    /// every shard's counts.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.sim.take_recorder()
    }

    /// The domain being executed.
    pub fn domain(&self) -> &Domain {
        self.sim.domain()
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Current simulation time (ticks; epochs advance by their critical
    /// path in sharded runs).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Number of events dropped in non-strict mode.
    pub fn dropped_events(&self) -> u64 {
        self.sim.dropped_events()
    }

    /// Why the last [`ShardedSimulation::run_to_quiescence`] fell back
    /// to the sequential engine at runtime despite static admission:
    /// the effect analysis admitted the model on the precondition that
    /// some association's links be shard-colocated, and the actual setup
    /// links violated it at this shard count. `None` when the run
    /// executed sharded (or never needed the precondition).
    pub fn runtime_fallback(&self) -> Option<&str> {
        self.runtime_fallback.as_deref()
    }

    /// Caps the total number of dispatch steps per run.
    pub fn set_max_steps(&mut self, max: u64) {
        self.sim.set_max_steps(max);
    }

    /// See [`Simulation::set_trace_mode`].
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.sim.set_trace_mode(mode);
        // A restored mid-run engine already has live replicas.
        for r in self.epochs.iter_mut().flat_map(|st| st.replicas.iter_mut()) {
            r.core.trace.set_mode(mode);
        }
    }

    /// Creates an instance during setup; see [`Simulation::create`].
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        self.sim.create(class)
    }

    /// Relates two instances during setup; see [`Simulation::relate`].
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        self.sim.relate(a, b, assoc)?;
        let id = self.sim.domain().assoc_id(assoc)?;
        self.setup_links.push((a, b, id));
        Ok(())
    }

    /// Schedules an external stimulus during setup; see
    /// [`Simulation::inject`].
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        self.sim.inject(time, inst, event, args)
    }

    /// Runs epochs until quiescence, distributing shards over `jobs`
    /// worker threads. Returns the number of dispatch steps taken.
    ///
    /// The result — including the full trace — does not depend on
    /// `jobs`; it depends only on `(policy.seed, policy.shards)`.
    ///
    /// # Errors
    ///
    /// Fails if the model is not shard-safe ([`shard_safety`]), on action
    /// runtime errors (the lowest-id failing shard's error is reported,
    /// deterministically), and on `max_steps` exhaustion.
    pub fn run_to_quiescence(&mut self, jobs: usize) -> Result<u64> {
        let steps = self.run_epochs(jobs, u64::MAX)?;
        Ok(steps.expect("an unbounded epoch budget reaches quiescence"))
    }

    /// Runs at most `max_epochs` epochs (clamped to ≥ 1), pausing at the
    /// epoch barrier — the one point where every shard's epoch-local
    /// buffers are drained, so the engine can be captured exactly by
    /// [`ShardedSimulation::snapshot`]. Returns `Some(total_steps)` once
    /// the run reaches quiescence, `None` when it paused with work
    /// remaining; calling again resumes, and the eventual trace is
    /// byte-identical to an uninterrupted
    /// [`ShardedSimulation::run_to_quiescence`] no matter how often the
    /// run pauses. Time jumps to the next timer/stimulus deadline do not
    /// count as epochs — only barriers where shards actually dispatched.
    ///
    /// Two paths run the owned sequential simulation in place to
    /// completion and return `Some` regardless of `max_epochs`:
    /// `policy.shards <= 1`, and the colocation-precondition fallback
    /// ([`ShardedSimulation::runtime_fallback`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedSimulation::run_to_quiescence`]. An error abandons any
    /// paused engine — a failing shard stopped mid-dispatch, which is not
    /// a barrier — so the next call starts a fresh run.
    pub fn run_epochs(&mut self, jobs: usize, max_epochs: u64) -> Result<Option<u64>> {
        let max_epochs = max_epochs.max(1);
        let nshards = self.sim.core.policy.shards;
        if self.epochs.is_none() {
            self.runtime_fallback = None;
            if nshards <= 1 {
                return self.sim.run_to_quiescence().map(Some);
            }
            let program = Arc::clone(&self.sim.program);
            program.shard_safety()?;

            // Runtime leg of the colocation admission rule: the static
            // pass admitted access through these associations on the
            // promise that every link keeps both endpoints on one shard.
            // Check the actual setup links at the actual shard count; on
            // violation, run sequentially (the trace stays a pure
            // function of `(seed, shards)` — this check depends on
            // nothing else).
            for &assoc in &program.plan().coloc_assocs {
                if let Some(&(a, b, _)) = self
                    .setup_links
                    .iter()
                    .find(|&&(a, b, r)| r == assoc && a.index() % nshards != b.index() % nshards)
                {
                    self.runtime_fallback = Some(format!(
                        "association `{}` links {a} and {b} across shards at shards={nshards}; \
                         colocation precondition failed, running sequentially",
                        program.domain().association(assoc).name
                    ));
                    if let Some(r) = self.sim.core.obs.as_mut() {
                        r.count(Counter::ShardFallbacks, 1);
                    }
                    return self.sim.run_to_quiescence().map(Some);
                }
            }
            if let Some(r) = self.sim.core.obs.as_mut() {
                r.count(Counter::ShardAdmitted, 1);
                if r.spans_enabled() {
                    let track = r.track;
                    r.span_begin(track, "sim", "sharded_run");
                }
            }
            let core = &self.sim.core;
            self.epochs = Some(Epochs {
                replicas: (0..nshards)
                    .map(|id| Replica::new(core.replica(id, nshards)))
                    .collect(),
                timers: Vec::new(),
                total_steps: 0,
                epoch_no: 0,
            });
        }

        let pool = Pool::new(jobs);
        // Taken out for the duration of the call: an error leaves the
        // engine abandoned (see above), success either pauses (putting
        // it back) or finishes (dropping it).
        let mut st = self.epochs.take().expect("ensured above");
        let sim = &mut self.sim;
        let mut ran = 0u64;

        loop {
            // 1. Deliver due stimuli and timers into shard queues,
            // stimuli before timers at the same instant.
            let mut fired = 0u64;
            for (to, env) in take_due(&mut sim.stimuli, &mut st.timers, sim.core.now, true) {
                fired += u64::from(env.from.is_some());
                st.replicas[to.index() % nshards].deliver(to, env);
            }
            if let Some(r) = sim.core.obs.as_mut() {
                if fired > 0 {
                    r.count(Counter::TimersFired, fired);
                }
            }

            // 2. If nothing is ready anywhere, jump time or quiesce.
            if st.replicas.iter().all(|r| r.core.ready.is_empty()) {
                let next = st
                    .timers
                    .iter()
                    .map(|t| t.deadline)
                    .chain(sim.stimuli.front().map(|s| s.time))
                    .min();
                match next {
                    Some(t) if t > sim.core.now => {
                        sim.core.now = t;
                        continue;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }

            // 3. Run every shard to local quiescence, in parallel. Each
            // shard carries the remaining global dispatch budget so a
            // never-quiescing local cycle errors inside the epoch.
            let remaining = sim.max_steps.saturating_sub(st.total_steps);
            st.epoch_no += 1;
            for r in st.replicas.iter_mut() {
                r.core.now = sim.core.now;
            }
            let (program, epoch, max_steps) = (&*sim.program, st.epoch_no, sim.max_steps);
            let epoch_t0 = sim.core.obs.is_some().then(std::time::Instant::now);
            let mut null = NullSink;
            let sink: &mut dyn Sink = match sim.core.obs.as_mut() {
                Some(r) => r.as_mut(),
                None => &mut null,
            };
            let outcomes = pool
                .try_map_mut_obs(sink, "epoch", &mut st.replicas, |_, r| {
                    r.run_epoch(program, epoch, remaining, max_steps)
                })
                .map_err(|e| CoreError::runtime(e.to_string()))?;
            let epoch_wall_ns = epoch_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

            // 4. Barrier: merge traces in shard order; report the
            // lowest-id shard's error (deterministic across jobs).
            let mut epoch_dispatches = 0u64;
            for r in st.replicas.iter_mut() {
                let s = &mut r.core;
                sim.core.trace.append(&mut s.trace);
                sim.core.dropped += s.dropped;
                s.dropped = 0;
                epoch_dispatches = epoch_dispatches.max(r.dispatches);
                st.total_steps += r.dispatches;
                if let Some(o) = sim.core.obs.as_mut() {
                    o.observe(HistKind::EpochDispatches, r.dispatches);
                    o.observe(HistKind::EpochOutbox, s.outbox.len() as u64);
                    let lane = o.metrics.lane_mut(s.id as u32);
                    lane.dispatches += r.dispatches;
                    if r.dispatches > 0 {
                        lane.epochs_active += 1;
                    }
                    if o.stream_epochs {
                        o.metrics.epoch_rows.push(EpochRow {
                            epoch: st.epoch_no,
                            shard: s.id as u32,
                            dispatches: r.dispatches,
                            outbox: s.outbox.len() as u64,
                        });
                    }
                    // Barrier wait: epoch wall time minus this shard's
                    // busy time (wall-clock, segregated from metrics).
                    o.timing.barrier_wait_ns += epoch_wall_ns.saturating_sub(r.busy_ns);
                    r.busy_ns = 0;
                }
                r.dispatches = 0;
            }
            if let Some(o) = sim.core.obs.as_mut() {
                o.count(Counter::Epochs, 1);
                o.count(Counter::EpochMaxDispatches, epoch_dispatches);
                o.timing.epochs_timed += 1;
            }
            outcomes.into_iter().collect::<Result<Vec<()>>>()?;
            if st.total_steps > sim.max_steps {
                if let Some(o) = sim.core.obs.as_mut() {
                    o.count(Counter::BudgetExhausted, 1);
                }
                return Err(livelock(sim.max_steps));
            }

            // 5. Route outboxes: source shards in id order, each
            // source's signals in send order — per-pair FIFO holds
            // because a sender lives in exactly one shard.
            let routed: Vec<(InstId, Envelope)> = st
                .replicas
                .iter_mut()
                .flat_map(|r| r.core.outbox.drain(..))
                .collect();
            if let Some(o) = sim.core.obs.as_mut() {
                o.gauge_max(Gauge::OutboxBurstMax, routed.len() as u64);
            }
            for (to, env) in routed {
                st.replicas[to.index() % nshards].deliver(to, env);
            }

            // 6. Collect every shard's new timers first, then apply
            // every shard's cancellations. Two passes, not one:
            // `send_delayed` can arm a timer on another shard's
            // instance, so a cancel from a lower-id shard must also see
            // same-epoch timers armed by higher-id shards — interleaving
            // the passes would make the outcome depend on shard ids.
            for r in st.replicas.iter_mut() {
                st.timers.append(&mut r.core.timers);
            }
            let mut cancelled = 0u64;
            for r in st.replicas.iter_mut() {
                for (inst, event) in r.core.cancels.drain(..) {
                    let before = st.timers.len();
                    st.timers.retain(|t| !(t.to == inst && t.event == event));
                    cancelled += (before - st.timers.len()) as u64;
                }
            }
            st.timers.sort_by_key(|t| (t.deadline, t.seq));
            if let Some(o) = sim.core.obs.as_mut() {
                if cancelled > 0 {
                    o.count(Counter::TimersCancelled, cancelled);
                }
                o.gauge_max(Gauge::TimerListMax, st.timers.len() as u64);
            }

            // 7. Advance time by the epoch's critical path: the busiest
            // shard's dispatch count (all shards ran concurrently).
            sim.core.now += epoch_dispatches.max(1);

            // Pause at the barrier once the epoch budget is spent. Every
            // shard's epoch-local buffers were drained above, so this is
            // exactly a snapshot point; the next call picks up at step 1.
            ran += 1;
            if ran >= max_epochs {
                self.epochs = Some(st);
                return Ok(None);
            }
        }
        // Fold per-shard recorders back in shard-id order — the merged
        // snapshot must not depend on worker scheduling — then close the
        // run-level span.
        if let Some(o) = sim.core.obs.as_mut() {
            for r in st.replicas.iter_mut() {
                if let Some(child) = r.core.obs.take() {
                    o.absorb(*child);
                }
            }
            if o.spans_enabled() {
                let track = o.track;
                o.span_end(track);
            }
        }
        Ok(Some(st.total_steps))
    }

    // -- snapshot / restore -------------------------------------------------

    /// Serializes the full engine state (DESIGN §15, kind 2).
    ///
    /// Valid before a run, after quiescence, and at any epoch barrier —
    /// i.e. whenever the caller can observe the simulation at all, since
    /// [`ShardedSimulation::run_epochs`] only ever pauses at barriers.
    /// Captures the setup population and pending stimuli, the trace so
    /// far, and (mid-run) every shard replica: store, queues, PRNG
    /// stream state, send counter, and deterministic metrics.
    /// [`ShardedSimulation::restore`] continues byte-identically to an
    /// uninterrupted run. Wall-clock telemetry (spans, `Timing`) and
    /// allocation caches are not captured, by design.
    pub fn snapshot(&self) -> Vec<u8> {
        let (sim, c) = (&self.sim, &self.sim.core);
        let mut w =
            snapshot::Writer::with_header(snapshot::KIND_SHARDED, sim.program.fingerprint());
        snapshot::write_policy(&mut w, &c.policy);
        w.u64(sim.max_steps);
        w.u64(c.now);
        w.u64(c.dropped);
        w.u64(c.seq);
        c.store.snap_write(&mut w);
        w.len(self.setup_links.len());
        for &(a, b, assoc) in &self.setup_links {
            w.u32(u32::from(a));
            w.u32(u32::from(b));
            w.u32(u32::from(assoc));
        }
        // Before a run the pending stimuli are setup, recorded in
        // injection (seq) order; mid-run they belong to the paused
        // engine below.
        let mut setup: Vec<&Stimulus> = match self.epochs {
            None => sim.stimuli.iter().collect(),
            Some(_) => Vec::new(),
        };
        setup.sort_by_key(|s| s.seq);
        Stimulus::snap_write_all(&mut w, setup.into_iter());
        snapshot::write_trace(&mut w, &c.trace);
        match self.runtime_fallback.as_deref() {
            Some(why) => {
                w.bool(true);
                w.str(why);
            }
            None => w.bool(false),
        }
        snapshot::write_recorder(&mut w, c.obs.as_deref());
        match self.epochs.as_ref() {
            Some(st) => {
                w.bool(true);
                w.u64(st.total_steps);
                w.u64(st.epoch_no);
                Stimulus::snap_write_all(&mut w, sim.stimuli.iter());
                Timer::snap_write_all(&mut w, &st.timers);
                w.len(st.replicas.len());
                for r in &st.replicas {
                    let s = &r.core;
                    // Barrier invariant: epoch-local buffers are drained.
                    debug_assert!(s.trace.is_empty() && s.outbox.is_empty());
                    debug_assert!(s.timers.is_empty() && s.cancels.is_empty());
                    s.snap_write(&mut w);
                    w.u64(s.rng.state());
                    w.u64(s.seq);
                    match s.obs.as_ref() {
                        Some(rec) => {
                            w.bool(true);
                            snapshot::write_metrics(&mut w, &rec.metrics.to_raw());
                        }
                        None => w.bool(false),
                    }
                }
            }
            None => w.bool(false),
        }
        w.finish()
    }

    /// Rebuilds a sharded simulation from a
    /// [`ShardedSimulation::snapshot`] against the same domain, on a
    /// [`Program`] built for it alone (see
    /// [`ShardedSimulation::restore_with`]).
    ///
    /// A mid-run snapshot resumes at the captured epoch barrier and the
    /// completed run's trace is byte-identical to an uninterrupted one.
    /// An attached recorder comes back with its deterministic metrics
    /// only (no span buffer, zeroed wall-clock timing).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] — never panics — on truncated
    /// or corrupt input (including ids out of range for the domain),
    /// version or kind mismatch, or a snapshot taken against a different
    /// domain.
    pub fn restore(domain: &'d Domain, bytes: &[u8]) -> SnapResult<ShardedSimulation<'d>> {
        ShardedSimulation::restore_with(Arc::new(Program::new(domain)), bytes)
    }

    /// [`ShardedSimulation::restore`] onto a shared, already-built
    /// [`Program`] of the snapshot's domain.
    ///
    /// # Errors
    ///
    /// As [`ShardedSimulation::restore`].
    pub fn restore_with(
        program: Arc<Program<'d>>,
        bytes: &[u8],
    ) -> SnapResult<ShardedSimulation<'d>> {
        // Keeps the domain readable after `program` moves into the result.
        let held = Arc::clone(&program);
        let domain = held.domain();
        let (mut r, kind) = snapshot::Reader::open(bytes, program.fingerprint())?;
        if kind != snapshot::KIND_SHARDED {
            return Err(SnapError::Corrupt(format!(
                "expected a sharded-engine snapshot, got kind {kind}"
            )));
        }
        let policy = snapshot::read_policy(&mut r)?;
        let mut out = ShardedSimulation::with_program(program, policy);
        let sim = &mut out.sim;
        sim.max_steps = r.u64()?;
        let (now, dropped, seq) = (r.u64()?, r.u64()?, r.u64()?);
        let store = ObjectStore::snap_read(&mut r)?;
        store.check(domain).map_err(SnapError::Corrupt)?;
        sim.core = Core::with_store(sim.core.policy, store);
        (sim.core.now, sim.core.dropped, sim.core.seq) = (now, dropped, seq);
        let nl = r.len(12)?;
        out.setup_links.reserve(nl);
        for _ in 0..nl {
            out.setup_links.push((
                InstId::new(r.u32()?),
                InstId::new(r.u32()?),
                AssocId::new(r.u32()?),
            ));
        }
        for s in Stimulus::snap_read_all(&mut r, domain, &sim.core.store)? {
            sim.stim_insert(s);
        }
        sim.core.trace = snapshot::read_trace(&mut r, domain)?;
        if r.bool()? {
            out.runtime_fallback = Some(r.str()?);
        }
        sim.core.obs = snapshot::read_recorder(&mut r)?;
        if r.bool()? {
            let total_steps = r.u64()?;
            let epoch_no = r.u64()?;
            for s in Stimulus::snap_read_all(&mut r, domain, &sim.core.store)? {
                sim.stim_insert(s);
            }
            let timers = Timer::snap_read_all(&mut r)?;
            let nshards = r.len(29)?;
            if nshards != sim.core.policy.shards {
                return Err(SnapError::Corrupt(format!(
                    "{nshards} shard replicas for a policy of {} shards",
                    sim.core.policy.shards
                )));
            }
            let mut replicas = Vec::with_capacity(nshards);
            for id in 0..nshards {
                let mut core = Core::with_store(sim.core.policy, ObjectStore::default());
                (core.id, core.nshards, core.now) = (id, nshards, now);
                core.snap_read(&mut r, domain)?;
                core.rng = SplitMix64::from_state(r.u64()?);
                core.seq = r.u64()?;
                if r.bool()? {
                    let mut child = sim
                        .core
                        .obs
                        .as_deref()
                        .map_or_else(Recorder::new, |root| root.fork_shard(id as u32));
                    child.track = id as u32 + 1;
                    child.metrics = Metrics::from_raw(snapshot::read_metrics(&mut r)?);
                    core.obs = Some(Box::new(child));
                }
                replicas.push(Replica::new(core));
            }
            // Timers are checked against the replica that will receive
            // them: a shard may arm one for an instance it created.
            for t in &timers {
                t.check(domain, &replicas[t.to.index() % nshards].core.store)?;
            }
            out.epochs = Some(Epochs {
                replicas,
                timers,
                total_steps,
                epoch_no,
            });
        }
        r.expect_end()?;
        Ok(out)
    }
}
