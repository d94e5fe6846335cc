//! The one dispatch core both engines share.
//!
//! A [`Core`] owns everything a run-to-completion executor mutates: an
//! instance population, per-instance signal queues and the ready set, the
//! scheduler PRNG and send counter, the trace, recycled frame and
//! payload buffers, an optional telemetry recorder, and the effects that
//! leave the core — cross-shard signals (the outbox), armed timers and
//! timer cancellations. [`Core::dispatch`] is the crate's only signal
//! dispatch and [`Host`] its only [`ActionHost`]. The read-only per-domain
//! [`Tables`] (the dispatch table, holding each pair's lowered bytecode,
//! and span names) are passed in by reference, so a dispatch clones no
//! handle and moves no table.
//!
//! A core is shard `id` of `nshards`. The sequential
//! [`Simulation`](crate::Simulation) coordinates one core (`0` of `1`);
//! the [`ShardedSimulation`](crate::ShardedSimulation) clones its setup
//! core into `nshards` replicas and runs them in epochs. Every difference
//! between the two engines follows from `(id, nshards)`, and at one shard
//! each check is trivially local:
//!
//! * a core owns instance `i` iff `i % nshards == id`;
//! * creation allocates the next id congruent to `id`, which at one shard
//!   is the next dense id;
//! * send sequence numbers are `local * nshards + id`, which at one shard
//!   is the plain counter;
//! * structure mutation (`delete`, `relate`, `unrelate`) is allowed only
//!   at one shard;
//! * time advances per dispatch at one shard, and stays at the epoch's
//!   start time across a shard's epoch.

use crate::sched::{SchedPolicy, SplitMix64};
use crate::snapshot::{self, SnapError, SnapResult};
use crate::store::ObjectStore;
use crate::trace::Trace;
use std::collections::VecDeque;
use std::sync::Arc;
use xtuml_core::bc::{self, BcAction, BcProgram};
use xtuml_core::code::CompiledProgram;
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
use xtuml_core::interp::{ActionHost, ExecCtx, Outcome};
use xtuml_core::model::{Domain, TransitionTarget};
use xtuml_core::value::Value;
use xtuml_obs::{Counter, Gauge, Recorder, Sink as _};
use xtuml_pool::stream_seed;

/// A former choice of action executor, kept so existing callers of
/// [`Simulation::set_engine`](crate::Simulation::set_engine) still build.
///
/// Every action runs on the register bytecode VM whichever variant is
/// named; the selection is accepted and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Formerly the compiled-frame walker; now runs the bytecode VM.
    Frames,
    /// The register bytecode VM.
    #[default]
    Bc,
}

/// The error a run reports when it exceeds its `max_steps` budget.
pub(crate) fn livelock(max_steps: u64) -> CoreError {
    CoreError::runtime(format!("exceeded max_steps ({max_steps}) — livelock?"))
}

/// A queued signal. Argument payloads are reference-counted so fan-out
/// (timers, stimuli, trace records) shares one allocation.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub(crate) from: Option<InstId>,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
    pub(crate) seq: u64,
}

impl Envelope {
    pub(crate) fn snap_write(&self, w: &mut snapshot::Writer) {
        snapshot::write_opt_inst(w, self.from);
        w.u32(u32::from(self.event));
        w.u64(self.seq);
        snapshot::write_values(w, &self.args);
    }

    pub(crate) fn snap_read(r: &mut snapshot::Reader<'_>) -> SnapResult<Envelope> {
        Ok(Envelope {
            from: snapshot::read_opt_inst(r)?,
            event: EventId::new(r.u32()?),
            seq: r.u64()?,
            args: snapshot::read_values(r)?,
        })
    }
}

/// Per-instance signal queues. Self-directed signals have their own queue
/// so they can be consumed with priority.
#[derive(Debug, Clone, Default)]
struct InstQueues {
    self_q: VecDeque<Envelope>,
    main_q: VecDeque<Envelope>,
}

impl InstQueues {
    fn is_empty(&self) -> bool {
        self.self_q.is_empty() && self.main_q.is_empty()
    }
}

/// A delayed signal armed by `gen ... after`.
#[derive(Debug, Clone)]
pub(crate) struct Timer {
    pub(crate) deadline: u64,
    pub(crate) seq: u64,
    pub(crate) from: InstId,
    pub(crate) to: InstId,
    pub(crate) event: EventId,
    pub(crate) args: Arc<[Value]>,
}

impl Timer {
    pub(crate) fn snap_write_all(w: &mut snapshot::Writer, timers: &[Timer]) {
        w.len(timers.len());
        for t in timers {
            w.u64(t.deadline);
            w.u64(t.seq);
            w.u32(u32::from(t.from));
            w.u32(u32::from(t.to));
            w.u32(u32::from(t.event));
            snapshot::write_values(w, &t.args);
        }
    }

    pub(crate) fn snap_read_all(r: &mut snapshot::Reader<'_>) -> SnapResult<Vec<Timer>> {
        let n = r.len(32)?;
        let mut timers = Vec::with_capacity(n);
        for _ in 0..n {
            timers.push(Timer {
                deadline: r.u64()?,
                seq: r.u64()?,
                from: InstId::new(r.u32()?),
                to: InstId::new(r.u32()?),
                event: EventId::new(r.u32()?),
                args: snapshot::read_values(r)?,
            });
        }
        Ok(timers)
    }

    /// Checks a decoded timer against the population that will receive
    /// it.
    pub(crate) fn check(&self, domain: &Domain, store: &ObjectStore) -> SnapResult<()> {
        store
            .check_signal(domain, self.to, self.event, &self.args)
            .map_err(|why| SnapError::Corrupt(format!("timer: {why}")))
    }
}

/// By-arity recycling pool for signal payload buffers.
///
/// A dispatched envelope's payload `Arc` dies at the end of its dispatch:
/// [`TraceEvent::Dispatch`](crate::TraceEvent::Dispatch) records no
/// arguments, so unless a timer or an actor-trace event still holds a
/// clone, the buffer is uniquely owned again and can be handed back to
/// the VM's next computed send instead of going through the allocator
/// twice (argument `Vec` + `Arc` payload) per signal. Pooling is invisible
/// to execution: buffers are only reissued when uniquely owned, and the VM
/// overwrites every slot before sending.
pub(crate) struct PayloadPool {
    /// `free[arity]` holds uniquely-owned buffers of exactly `arity` slots.
    free: [Vec<Arc<[Value]>>; PayloadPool::MAX_ARITY + 1],
}

impl PayloadPool {
    /// Largest pooled arity; wider signals are rare enough to take the
    /// allocator path.
    const MAX_ARITY: usize = 8;
    /// Per-arity retention cap, bounding pool memory on bursty workloads.
    const MAX_FREE: usize = 64;

    pub(crate) fn new() -> PayloadPool {
        PayloadPool {
            free: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Pops a uniquely-owned buffer of exactly `len` slots, if one is
    /// pooled.
    #[inline]
    pub(crate) fn take(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.free.get_mut(len)?.pop()
    }

    /// Returns a dispatched payload to the pool — if nothing else (a
    /// timer, the actor trace, a literal-payload table) still holds it.
    #[inline]
    pub(crate) fn recycle(&mut self, mut args: Arc<[Value]>) {
        if let Some(lane) = self.free.get_mut(args.len()) {
            if lane.len() < Self::MAX_FREE && Arc::get_mut(&mut args).is_some() {
                lane.push(args);
            }
        }
    }

    /// Moves `args` into a pooled buffer when one of the right arity is
    /// free, avoiding the double allocation (`Vec` + `Arc`) per payload.
    #[inline]
    pub(crate) fn payload(&mut self, args: Vec<Value>) -> Arc<[Value]> {
        match self.take(args.len()) {
            Some(mut buf) => {
                let slots = Arc::get_mut(&mut buf).expect("pooled buffers are uniquely owned");
                for (slot, v) in slots.iter_mut().zip(args) {
                    *slot = v;
                }
                buf
            }
            None => Arc::from(args),
        }
    }
}

/// How a resolved dispatch slot executes its action.
#[derive(Debug, Clone)]
enum Exec {
    /// Run the lowered bytecode action.
    Vm(Arc<BcAction>),
    /// The lowered body is provably effect-free ([`BcAction::is_nop`]):
    /// skip frame setup and execution entirely. The state change, the
    /// trace record and the `BcActions` count still happen, exactly as
    /// for a run that entered the VM.
    Nop,
    /// The pair has no lowered action: its block failed to compile, or
    /// the lowering cannot encode it (X0016). Dispatching it raises the
    /// error after the state change, where the action would have run.
    Fail(Box<CoreError>),
}

/// One pre-resolved `(from_state, event)` dispatch decision.
#[derive(Debug, Clone)]
enum Slot {
    /// Transition to `to`, executing per `exec`.
    Run { to: StateId, exec: Exec },
    /// Declared ignore: consume silently.
    Ignore,
    /// Undeclared pair: error in strict mode, drop otherwise.
    CantHappen,
}

/// Dense per-class slot table, indexed `state * n_events + event`.
#[derive(Debug, Clone)]
struct ClassSlots {
    n_events: usize,
    slots: Vec<Slot>,
}

impl ClassSlots {
    /// Ids come from the store and from typechecked sends; restore
    /// validates both against the domain, so they are always in range.
    #[inline]
    fn slot(&self, state: StateId, event: EventId) -> &Slot {
        &self.slots[state.index() * self.n_events + event.index()]
    }
}

/// Resolves every `(class, state, event)` to its dispatch slot, per
/// class (`None` for passive classes). Decided once here, not
/// re-discovered per signal.
fn resolve_slots(
    domain: &Domain,
    program: &CompiledProgram,
    bc: &BcProgram,
) -> Vec<Option<ClassSlots>> {
    domain
        .classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let class = ClassId::new(ci as u32);
            let machine = c.state_machine.as_ref()?;
            let n_events = c.events.len();
            let mut slots = Vec::with_capacity(machine.states.len() * n_events);
            for s in 0..machine.states.len() {
                for e in 0..n_events {
                    let (state, event) = (StateId::new(s as u32), EventId::new(e as u32));
                    slots.push(match program.target(class, state, event) {
                        TransitionTarget::To(to) => {
                            let exec = match bc.entry(class, to, event) {
                                Some(Ok(a)) if a.is_nop() => Exec::Nop,
                                Some(Ok(a)) => Exec::Vm(Arc::clone(a)),
                                Some(Err(e)) => Exec::Fail(Box::new(e)),
                                None => Exec::Fail(Box::new(CoreError::runtime(
                                    "internal: dispatched pair has no compiled action",
                                ))),
                            };
                            Slot::Run { to, exec }
                        }
                        TransitionTarget::Ignore => Slot::Ignore,
                        TransitionTarget::CantHappen => Slot::CantHappen,
                    });
                }
            }
            Some(ClassSlots { n_events, slots })
        })
        .collect()
}

/// The read-only per-domain tables every dispatch consults, built once
/// per engine construction and shared by reference with every core
/// (`Sync`: shard workers read one copy).
pub(crate) struct Tables<'d> {
    pub(crate) domain: &'d Domain,
    /// Dispatch slots (see [`resolve_slots`]). The hot path indexes them
    /// with two loads, and a slot holds a direct reference to the lowered
    /// [`BcAction`].
    slots: Vec<Option<ClassSlots>>,
    /// Pre-interned span names, `[class][event]` = `"Class.Event"` and
    /// `[class][state]` = `"action Class.State"`, so `--profile` runs
    /// never format per signal. Interned when a span-recording recorder
    /// attaches — the only way spans reach a core, since replicas fork
    /// their recorder from an attached one.
    rtc_names: Vec<Vec<String>>,
    action_names: Vec<Vec<String>>,
}

impl<'d> Tables<'d> {
    pub(crate) fn new(domain: &'d Domain) -> Tables<'d> {
        let program = CompiledProgram::new(domain);
        let bc = BcProgram::new(domain, &program);
        Tables {
            domain,
            slots: resolve_slots(domain, &program, &bc),
            rtc_names: Vec::new(),
            action_names: Vec::new(),
        }
    }

    /// Interns span names when `rec` records spans.
    pub(crate) fn prepare_spans(&mut self, rec: &Recorder) {
        if !rec.spans_enabled() || !self.rtc_names.is_empty() {
            return;
        }
        let classes = &self.domain.classes;
        self.rtc_names = classes
            .iter()
            .map(|c| {
                let name = |e: &xtuml_core::model::EventDecl| format!("{}.{}", c.name, e.name);
                c.events.iter().map(name).collect()
            })
            .collect();
        self.action_names = classes
            .iter()
            .map(|c| {
                let states = c.state_machine.as_ref().map_or(&[][..], |m| &m.states);
                states
                    .iter()
                    .map(|s| format!("action {}.{}", c.name, s.name))
                    .collect()
            })
            .collect();
    }
}

/// One run-to-completion executor: shard `id` of `nshards` (see the
/// module docs).
pub(crate) struct Core {
    pub(crate) id: usize,
    pub(crate) nshards: usize,
    pub(crate) policy: SchedPolicy,
    /// The population. Replicas only diverge in slots no other shard
    /// reads (the effect analysis admits nothing else), and in the
    /// shard-congruent ids each creates, which never escape their shard.
    pub(crate) store: ObjectStore,
    queues: Vec<InstQueues>,
    /// Instances with at least one queued signal, kept sorted ascending by
    /// id so the scheduler's random pick indexes a canonical list.
    pub(crate) ready: Vec<InstId>,
    /// Membership mirror of `ready`, indexed by instance.
    in_ready: Vec<bool>,
    pub(crate) rng: SplitMix64,
    /// Local send counter; sequence numbers are `seq * nshards + id`, so
    /// they stay strictly increasing per sending shard without
    /// cross-shard coordination.
    pub(crate) seq: u64,
    pub(crate) now: u64,
    /// Events dropped in non-strict mode.
    pub(crate) dropped: u64,
    pub(crate) trace: Trace,
    /// Armed timers. At one shard this is every pending timer; a shard
    /// replica holds only the timers armed this epoch, which the
    /// coordinator collects at the barrier.
    pub(crate) timers: Vec<Timer>,
    /// `(instance, event)` cancellations a replica made this epoch,
    /// applied to the coordinator's timer list at the barrier.
    pub(crate) cancels: Vec<(InstId, EventId)>,
    /// Signals to instances another shard owns, routed at the barrier.
    pub(crate) outbox: Vec<(InstId, Envelope)>,
    /// Recycled execution frame: taken by each dispatch, returned after.
    frame_buf: Vec<Option<Value>>,
    /// Recycled signal payload buffers, fed by finished dispatches and
    /// drained by the VM's computed sends; core-local, so pooling never
    /// couples shards.
    pub(crate) payloads: PayloadPool,
    /// Telemetry sink; `None` (the default) costs one predictable branch
    /// per instrumented site — the zero-cost-when-disabled contract.
    pub(crate) obs: Option<Box<Recorder>>,
}

impl Core {
    /// A lone core over `store`, with empty queues.
    pub(crate) fn with_store(policy: SchedPolicy, store: ObjectStore) -> Core {
        let space = store.id_space();
        Core {
            id: 0,
            nshards: 1,
            policy,
            store,
            queues: vec![InstQueues::default(); space],
            ready: Vec::new(),
            in_ready: vec![false; space],
            rng: SplitMix64::new(policy.seed),
            seq: 0,
            now: 0,
            dropped: 0,
            trace: Trace::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            outbox: Vec::new(),
            frame_buf: Vec::new(),
            payloads: PayloadPool::new(),
            obs: None,
        }
    }

    /// Shard `id` of `nshards`: a replica of this core's population with
    /// empty queues, a fresh send counter and trace, its own scheduler
    /// stream, and a recorder forked from this one.
    pub(crate) fn replica(&self, id: usize, nshards: usize) -> Core {
        Core {
            id,
            nshards,
            // stream_seed even for shard 0: stream_seed(base, 0) != base,
            // so a sharded run never replays the unsharded schedule by
            // accident.
            rng: SplitMix64::new(stream_seed(self.policy.seed, id as u64)),
            trace: Trace::with_mode(self.trace.mode()),
            now: self.now,
            obs: self.obs.as_ref().map(|r| Box::new(r.fork_shard(id as u32))),
            ..Core::with_store(self.policy, self.store.clone())
        }
    }

    /// Whether this core owns `inst`.
    #[inline]
    pub(crate) fn owns(&self, inst: InstId) -> bool {
        self.nshards == 1 || inst.index() % self.nshards == self.id
    }

    /// The next send sequence number.
    #[inline]
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq * self.nshards as u64 + self.id as u64
    }

    /// Queues `env` for `to` and marks it ready.
    pub(crate) fn enqueue(&mut self, to: InstId, env: Envelope) {
        let is_self = self.policy.self_priority && env.from == Some(to);
        let q = &mut self.queues[to.index()];
        if is_self {
            q.self_q.push_back(env);
        } else {
            q.main_q.push_back(env);
        }
        if !self.in_ready[to.index()] {
            self.in_ready[to.index()] = true;
            let at = self.ready.partition_point(|&r| r < to);
            self.ready.insert(at, to);
        }
    }

    fn unmark_ready(&mut self, inst: InstId) {
        if self.in_ready[inst.index()] {
            self.in_ready[inst.index()] = false;
            let at = self.ready.partition_point(|&r| r < inst);
            debug_assert_eq!(self.ready.get(at), Some(&inst));
            self.ready.remove(at);
        }
    }

    #[inline]
    fn pop_envelope(&mut self, inst: InstId) -> Envelope {
        if !self.policy.pair_order {
            return self.pop_envelope_anywhere(inst);
        }
        let q = &mut self.queues[inst.index()];
        match q.self_q.pop_front() {
            Some(env) => env,
            None => q.main_q.pop_front().expect("ready instance has a signal"),
        }
    }

    /// The `pair_order` ablation: pops a random position instead of the
    /// front.
    #[cold]
    fn pop_envelope_anywhere(&mut self, inst: InstId) -> Envelope {
        let q = &mut self.queues[inst.index()];
        let k = self.rng.below(q.self_q.len() + q.main_q.len());
        if k < q.self_q.len() {
            q.self_q.remove(k).expect("index checked")
        } else {
            let k = k - q.self_q.len();
            q.main_q.remove(k).expect("index checked")
        }
    }

    /// Picks a ready instance and dispatches one of its signals.
    pub(crate) fn dispatch_next(&mut self, t: &Tables<'_>) -> Result<()> {
        let pick = self.ready[self.rng.below(self.ready.len())];
        let env = self.pop_envelope(pick);
        if self.queues[pick.index()].is_empty() {
            self.unmark_ready(pick);
        }
        self.dispatch(t, pick, env)
    }

    /// Whether a lone core must hand control back to its coordinator: a
    /// timer is pending, or time has reached `stop_at` (the next
    /// stimulus), so something may be due for delivery.
    #[inline]
    fn must_yield(&self, stop_at: u64) -> bool {
        !self.timers.is_empty() || stop_at <= self.now
    }

    /// The superloop: dispatches ready signals until the ready set drains
    /// or `*steps` reaches `budget`. A lone core advances time per
    /// dispatch and stops when [`Core::must_yield`]; a replica runs its
    /// whole epoch at the epoch's start time. Byte-identical to per-step
    /// dispatch: while no timer is pending and no stimulus is due,
    /// delivery is a no-op, and a lone ready instance still consumes the
    /// scheduler draw (`below(1)`), so the PRNG stream is unchanged.
    pub(crate) fn run_ready(
        &mut self,
        t: &Tables<'_>,
        budget: u64,
        steps: &mut u64,
        stop_at: u64,
    ) -> Result<()> {
        let lone = self.nshards == 1;
        while *steps < budget && !self.ready.is_empty() && !(lone && self.must_yield(stop_at)) {
            let pick = self.ready[self.rng.below(self.ready.len())];
            // Same-instance batch: drain `pick`'s queues in a tight
            // inner loop without re-entering ready-set bookkeeping, for
            // as long as it provably remains the only candidate.
            loop {
                let env = self.pop_envelope(pick);
                let drained = self.queues[pick.index()].is_empty();
                if drained {
                    self.unmark_ready(pick);
                }
                self.dispatch(t, pick, env)?;
                if lone {
                    self.now += 1;
                }
                *steps += 1;
                if *steps >= budget
                    || drained
                    || (lone && self.must_yield(stop_at))
                    || self.ready.len() != 1
                    || self.ready[0] != pick
                {
                    break;
                }
                // The scheduler would re-draw over a single candidate;
                // consume that draw to keep the stream identical.
                self.rng.below(1);
            }
        }
        Ok(())
    }

    /// Dispatches one signal to `inst`: look up the transition, run the
    /// destination state's action to completion, record the trace.
    #[inline]
    pub(crate) fn dispatch(&mut self, t: &Tables<'_>, inst: InstId, env: Envelope) -> Result<()> {
        let (class, from_state) = self.store.class_state(inst)?;
        let Some(cs) = t.slots[class.index()].as_ref() else {
            return Err(CoreError::runtime(format!(
                "signal sent to passive class {}",
                t.domain.class(class).name
            )));
        };
        let mut rtc_span = false;
        if let Some(o) = self.obs.as_mut() {
            o.count(Counter::SignalsDispatched, 1);
            if o.spans_enabled() {
                let track = o.track;
                o.span_begin(track, "rtc", &t.rtc_names[class.index()][env.event.index()]);
                rtc_span = true;
            }
        }
        let out = match cs.slot(from_state, env.event) {
            Slot::Run { to, exec } => {
                let to_state = *to;
                self.store.set_state(inst, to_state)?;
                self.trace.push_dispatch(
                    self.now, inst, env.from, env.event, env.seq, from_state, to_state,
                );
                let mut action_span = false;
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::TransitionsFired, 1);
                    if o.spans_enabled() {
                        let track = o.track;
                        let name = &t.action_names[class.index()][to_state.index()];
                        o.span_begin(track, "action", name);
                        action_span = true;
                    }
                }
                let run = match exec {
                    Exec::Nop => {
                        // Provably effect-free body: no frame, no ctx, no
                        // VM entry. Counters must match a real execution.
                        if let Some(o) = self.obs.as_mut() {
                            o.count(Counter::BcActions, 1);
                        }
                        Ok(Outcome::Completed)
                    }
                    Exec::Vm(bca) => {
                        if let Some(o) = self.obs.as_mut() {
                            o.count(Counter::BcActions, 1);
                        }
                        let mut ctx = self.exec_ctx(inst, class, bca.n_regs, &env);
                        let r = bc::run_bc(&mut Host { core: self, t }, &mut ctx, bca);
                        self.recycle_ctx(ctx);
                        r
                    }
                    Exec::Fail(e) => Err((**e).clone()),
                };
                if action_span {
                    if let Some(o) = self.obs.as_mut() {
                        let track = o.track;
                        o.span_end(track);
                    }
                }
                run?;
                Ok(())
            }
            Slot::Ignore => {
                if let Some(o) = self.obs.as_mut() {
                    o.count(Counter::SignalsIgnored, 1);
                }
                self.trace.push_ignored(self.now, inst, env.event);
                Ok(())
            }
            Slot::CantHappen => {
                if self.policy.strict {
                    let c = t.domain.class(class);
                    let machine = c.state_machine.as_ref().expect("active class");
                    Err(CoreError::CantHappen {
                        class: c.name.clone(),
                        state: machine.state(from_state).name.clone(),
                        event: c.events[env.event.index()].name.clone(),
                    })
                } else {
                    self.dropped += 1;
                    if let Some(o) = self.obs.as_mut() {
                        o.count(Counter::SignalsDropped, 1);
                    }
                    self.trace.push_dropped(self.now, inst, env.event);
                    Ok(())
                }
            }
        };
        if rtc_span {
            if let Some(o) = self.obs.as_mut() {
                let track = o.track;
                o.span_end(track);
            }
        }
        // The envelope is fully consumed: offer its payload buffer to the
        // next computed send.
        self.payloads.recycle(env.args);
        out
    }

    /// An execution context on the recycled frame, with the signal's
    /// arguments bound.
    #[inline(always)]
    fn exec_ctx(
        &mut self,
        inst: InstId,
        class: ClassId,
        frame_len: usize,
        env: &Envelope,
    ) -> ExecCtx {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        frame.resize(frame_len, None);
        let mut ctx = ExecCtx::with_frame(inst, class, frame);
        ctx.bind_args(env.args.iter().cloned());
        ctx
    }

    #[inline(always)]
    fn recycle_ctx(&mut self, mut ctx: ExecCtx) {
        self.frame_buf = std::mem::take(&mut ctx.frame);
    }

    // -- snapshot codec -----------------------------------------------------

    /// Encodes the population and the signal queues.
    pub(crate) fn snap_write(&self, w: &mut snapshot::Writer) {
        self.store.snap_write(w);
        w.len(self.queues.len());
        for q in &self.queues {
            for half in [&q.self_q, &q.main_q] {
                w.len(half.len());
                for e in half {
                    e.snap_write(w);
                }
            }
        }
    }

    /// Decodes what [`Core::snap_write`] wrote, checking every id against
    /// the domain, and rebuilds the derived ready set.
    pub(crate) fn snap_read(
        &mut self,
        r: &mut snapshot::Reader<'_>,
        domain: &Domain,
    ) -> SnapResult<()> {
        let store = ObjectStore::snap_read(r)?;
        store.check(domain).map_err(SnapError::Corrupt)?;
        let nq = r.len(8)?;
        if nq != store.id_space() {
            return Err(SnapError::Corrupt(format!(
                "{nq} instance queues for an id space of {}",
                store.id_space()
            )));
        }
        let mut queues = Vec::with_capacity(nq);
        for i in 0..nq {
            let mut q = InstQueues::default();
            for half in [&mut q.self_q, &mut q.main_q] {
                let n = r.len(10)?;
                for _ in 0..n {
                    let env = Envelope::snap_read(r)?;
                    let to = InstId::new(i as u32);
                    store
                        .check_signal(domain, to, env.event, &env.args)
                        .map_err(|why| SnapError::Corrupt(format!("queued signal: {why}")))?;
                    half.push_back(env);
                }
            }
            queues.push(q);
        }
        // The ready set is derived state: exactly the instances with a
        // non-empty queue, ascending by id (the sorted-list invariant).
        self.in_ready = queues.iter().map(|q| !q.is_empty()).collect();
        self.ready = (0..nq)
            .filter(|&i| self.in_ready[i])
            .map(|i| InstId::new(i as u32))
            .collect();
        self.queues = queues;
        self.store = store;
        Ok(())
    }
}

/// The [`ActionHost`] every dispatch executes against: a core plus the
/// read-only tables. At one shard every access is local; a shard replica
/// delivers local sends immediately, buffers cross-shard sends, timers
/// and cancels for the barrier, allocates shard-congruent ids, and
/// rejects the accesses the effect analysis blocks (structure mutation,
/// non-owned writes — unreachable after
/// [`shard_safety`](crate::shard_safety), but enforced anyway).
pub(crate) struct Host<'a, 'd> {
    pub(crate) core: &'a mut Core,
    pub(crate) t: &'a Tables<'d>,
}

impl Host<'_, '_> {
    fn unsupported(what: &str) -> CoreError {
        CoreError::runtime(format!(
            "{what} is not shard-safe; run with --jobs 1 (sequential)"
        ))
    }

    /// Structure mutation is allowed only at one shard.
    fn structure_mutation(&self, what: &str) -> Result<()> {
        if self.core.nshards == 1 {
            Ok(())
        } else {
            Err(Self::unsupported(what))
        }
    }

    fn owned(&self, inst: InstId) -> Result<()> {
        if self.core.owns(inst) {
            Ok(())
        } else {
            Err(Self::unsupported("writing another shard's attribute"))
        }
    }
}

impl ActionHost for Host<'_, '_> {
    fn domain(&self) -> &Domain {
        self.t.domain
    }

    fn create(&mut self, class: ClassId) -> Result<InstId> {
        // The next id congruent to `id`, so a shard owns what it creates.
        // The effect analysis admits only classes nothing selects over, so
        // other replicas never learn the id (a leaked one hits a tombstone).
        let c = &mut *self.core;
        let len = c.store.id_space();
        let rem = len % c.nshards;
        let want = if rem <= c.id {
            len + (c.id - rem)
        } else {
            len + c.nshards - rem + c.id
        };
        let inst = c
            .store
            .create_with_id(self.t.domain, class, InstId::new(want as u32));
        let space = c.store.id_space();
        c.queues.resize_with(space, InstQueues::default);
        c.in_ready.resize(space, false);
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::InstancesCreated, 1);
            o.gauge_max(Gauge::LiveInstancesMax, c.store.live_count() as u64);
        }
        c.trace.push_create(c.now, inst, class);
        Ok(inst)
    }

    fn delete(&mut self, inst: InstId) -> Result<()> {
        self.structure_mutation("instance deletion")?;
        let c = &mut *self.core;
        c.store.delete(inst)?;
        c.queues[inst.index()] = InstQueues::default();
        c.unmark_ready(inst);
        c.timers.retain(|t| t.to != inst);
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::InstancesDeleted, 1);
        }
        c.trace.push_delete(c.now, inst);
        Ok(())
    }

    fn class_of(&self, inst: InstId) -> Result<ClassId> {
        self.core.store.class_of(inst)
    }

    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        self.core.store.attr_read(inst, attr)
    }

    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.owned(inst)?;
        self.core.store.attr_write(self.t.domain, inst, attr, value)
    }

    fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.owned(inst)?;
        self.core.store.attr_write_typed(inst, attr, value)
    }

    fn take_payload(&mut self, len: usize) -> Option<Arc<[Value]>> {
        self.core.payloads.take(len)
    }

    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.core.store.instances_of(class)
    }

    fn related(&self, inst: InstId, assoc: AssocId) -> Result<Vec<InstId>> {
        self.core.store.related(inst, assoc)
    }

    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.core.store.first_instance_of(class)
    }

    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()> {
        self.core.store.related_iter(inst, assoc)?.for_each(f);
        Ok(())
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.structure_mutation("relating instances")?;
        self.core.store.relate(self.t.domain, a, b, assoc)
    }

    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.structure_mutation("unrelating instances")?;
        self.core.store.unrelate(a, b, assoc)
    }

    fn send(&mut self, from: InstId, to: InstId, event: EventId, args: Vec<Value>) -> Result<()> {
        self.send_arc(from, to, event, Arc::from(args))
    }

    fn send_arc(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        let c = &mut *self.core;
        c.store.class_of(to)?; // liveness check
        let env = Envelope {
            from: Some(from),
            event,
            args,
            seq: c.next_seq(),
        };
        let local = c.owns(to);
        if local {
            c.enqueue(to, env);
        } else {
            c.outbox.push((to, env));
        }
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::SignalsSent, 1);
            if from == to {
                o.count(Counter::SelfSignals, 1);
            }
            if c.nshards > 1 {
                o.count(
                    if local {
                        Counter::LocalShardSignals
                    } else {
                        Counter::CrossShardSignals
                    },
                    1,
                );
                let lane = o.metrics.lane_mut(c.id as u32);
                lane.sent += 1;
                if !local {
                    lane.cross_shard += 1;
                }
            }
            if local {
                o.gauge_max(Gauge::ReadySetMax, c.ready.len() as u64);
            }
        }
        Ok(())
    }

    fn send_actor(
        &mut self,
        from: InstId,
        actor: ActorId,
        event: EventId,
        args: Vec<Value>,
    ) -> Result<()> {
        self.send_actor_arc(from, actor, event, Arc::from(args))
    }

    fn send_actor_arc(
        &mut self,
        _from: InstId,
        actor: ActorId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        let c = &mut *self.core;
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::ActorSignals, 1);
        }
        c.trace.push_actor_signal(c.now, actor, event, args);
        Ok(())
    }

    fn send_delayed(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Vec<Value>,
        delay: i64,
    ) -> Result<()> {
        let c = &mut *self.core;
        c.store.class_of(to)?;
        let seq = c.next_seq();
        c.timers.push(Timer {
            deadline: c.now + delay as u64,
            seq,
            from,
            to,
            event,
            args: Arc::from(args),
        });
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::TimersSet, 1);
            // Only a lone core's list is the whole timer list; the
            // sharded coordinator gauges its merged list per barrier.
            if c.nshards == 1 {
                o.gauge_max(Gauge::TimerListMax, c.timers.len() as u64);
            }
        }
        Ok(())
    }

    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()> {
        let c = &mut *self.core;
        let before = c.timers.len();
        c.timers.retain(|t| !(t.to == inst && t.event == event));
        let removed = (before - c.timers.len()) as u64;
        if removed > 0 {
            if let Some(o) = c.obs.as_mut() {
                o.count(Counter::TimersCancelled, removed);
            }
        }
        // A replica's list holds only this epoch's timers; older ones live
        // in the coordinator and are cancelled at the barrier.
        if c.nshards > 1 {
            c.cancels.push((inst, event));
        }
        Ok(())
    }

    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value> {
        let decl = self
            .t
            .domain
            .actor(actor)
            .func(func)
            .ok_or_else(|| CoreError::unresolved("bridge function", func))?;
        let c = &mut *self.core;
        if let Some(o) = c.obs.as_mut() {
            o.count(Counter::BridgeCalls, 1);
        }
        c.trace
            .push_bridge_call(c.now, actor, func, Arc::from(args.as_slice()));
        // Bridges are observed, not serviced: every call is traced and
        // returns the function's declared default value.
        Ok(match decl.ret {
            Some(t) => Value::default_for(t),
            None => Value::Bool(false),
        })
    }
}
