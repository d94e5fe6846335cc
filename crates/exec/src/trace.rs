//! Execution traces.
//!
//! A trace records everything a run did; the **observable** projection —
//! signals generated to external actors, plus bridge calls — is what the
//! paper's "formal test cases" check, and what the verification layer
//! compares between the abstract model and any partitioned implementation.
//!
//! Trace events store **ids**, not names: recording an event on the
//! dispatch hot path costs no string clones. Names are resolved against
//! the [`Domain`] only when a trace is rendered or projected.
//!
//! Internally the trace is a **packed ring**: every record is one
//! fixed-width `Rec` (tag byte + five `u32` operands + two `u64`s,
//! 40 bytes after alignment) appended to a flat vector, with the rare
//! variable-width payloads (actor-signal arguments, bridge function
//! names) interned into side tables and referenced by index. The public
//! [`TraceEvent`] enum is materialized **lazily** on read, so rendering,
//! goldens, and the snapshot codec see byte-identical output while the
//! dispatch hot path pushes a branch-free fixed-width record instead of
//! constructing a large enum with embedded `Arc`/`String` variants.

use std::fmt;
use std::sync::Arc;
use xtuml_core::ids::{ActorId, ClassId, EventId, InstId, StateId};
use xtuml_core::model::Domain;
use xtuml_core::value::Value;

/// One entry of a full execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An instance was created.
    Create {
        /// Simulation time of the creation.
        time: u64,
        /// The new instance.
        inst: InstId,
        /// Its class.
        class: ClassId,
    },
    /// An instance was deleted.
    Delete {
        /// Simulation time of the deletion.
        time: u64,
        /// The deleted instance.
        inst: InstId,
    },
    /// A signal was dispatched to an instance (a run-to-completion step).
    Dispatch {
        /// Simulation time of the dispatch.
        time: u64,
        /// Receiving instance.
        inst: InstId,
        /// Sender (`None` for external stimuli and timer deliveries).
        from: Option<InstId>,
        /// The event.
        event: EventId,
        /// Send-sequence number of the envelope (global, monotonically
        /// increasing at send time) — used by the causality checker.
        seq: u64,
        /// State before the transition.
        from_state: StateId,
        /// State after the transition (same as `from_state` for ignores).
        to_state: StateId,
    },
    /// An event arrived that the state machine ignores (declared ignore).
    Ignored {
        /// Simulation time.
        time: u64,
        /// Receiving instance.
        inst: InstId,
        /// The event.
        event: EventId,
    },
    /// An event was dropped in non-strict mode (undeclared pair).
    Dropped {
        /// Simulation time.
        time: u64,
        /// Receiving instance.
        inst: InstId,
        /// The event.
        event: EventId,
    },
    /// A signal left the domain towards an actor — **observable**.
    ActorSignal {
        /// Simulation time.
        time: u64,
        /// Destination actor.
        actor: ActorId,
        /// The actor event.
        event: EventId,
        /// Arguments (shared, not cloned per record).
        args: Arc<[Value]>,
    },
    /// A synchronous bridge call — **observable**.
    BridgeCall {
        /// Simulation time.
        time: u64,
        /// The actor providing the function.
        actor: ActorId,
        /// Function name (bridge functions have no id space).
        func: String,
        /// Arguments.
        args: Arc<[Value]>,
    },
}

/// One observable output: a signal to an actor or a bridge call.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservableEvent {
    /// Actor name.
    pub actor: String,
    /// Event or function name.
    pub event: String,
    /// Arguments.
    pub args: Vec<Value>,
}

impl fmt::Display for ObservableEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}(", self.actor, self.event)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// Whether a simulation records its trace.
///
/// `Off` drops every record at the push site: the trace stays empty and
/// the hot path pays one predictable branch. Differential and golden
/// comparisons require `Full` — an empty trace is vacuously "equal" and
/// proves nothing — so the fuzz harness and CI reject `Off` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record every event (the default).
    #[default]
    Full,
    /// Record nothing.
    Off,
}

// Record tags. Deliberately identical to the snapshot codec's trace-event
// tags (exec::snapshot::write_trace_event) so the two encodings never
// drift apart silently.
const T_CREATE: u8 = 0;
const T_DELETE: u8 = 1;
const T_DISPATCH: u8 = 2;
const T_IGNORED: u8 = 3;
const T_DROPPED: u8 = 4;
const T_ACTOR: u8 = 5;
const T_BRIDGE: u8 = 6;

/// One packed trace record. Fixed width; meanings of the operand words
/// depend on `tag`:
///
/// | tag      | a     | b           | c     | d          | e        | seq  |
/// |----------|-------|-------------|-------|------------|----------|------|
/// | Create   | inst  | class       | —     | —          | —        | —    |
/// | Delete   | inst  | —           | —     | —          | —        | —    |
/// | Dispatch | inst  | from + 1 (0 = env) | event | from_state | to_state | seq |
/// | Ignored  | inst  | —           | event | —          | —        | —    |
/// | Dropped  | inst  | —           | event | —          | —        | —    |
/// | Actor    | actor | payload idx | event | —          | —        | —    |
/// | Bridge   | actor | payload idx | func idx | —       | —        | —    |
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rec {
    time: u64,
    seq: u64,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    e: u32,
    tag: u8,
}

impl Rec {
    #[inline]
    fn dispatch_from(&self) -> Option<InstId> {
        if self.b == 0 {
            None
        } else {
            Some(InstId::new(self.b - 1))
        }
    }
}

/// A full execution trace, stored as a packed record ring with side
/// tables for the rare variable-width operands.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    recs: Vec<Rec>,
    /// Actor-signal / bridge-call argument tuples, by `Rec::b` index.
    payloads: Vec<Arc<[Value]>>,
    /// Bridge function names, by `Rec::c` index.
    funcs: Vec<String>,
    mode: TraceMode,
}

// Equality is over recorded content only: two traces with the same
// events are equal regardless of recording mode.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.recs == other.recs && self.payloads == other.payloads && self.funcs == other.funcs
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace with the given recording mode.
    pub fn with_mode(mode: TraceMode) -> Trace {
        Trace {
            mode,
            ..Trace::default()
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Sets the recording mode for subsequent pushes.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Reserves room for `n` more records.
    pub fn reserve(&mut self, n: usize) {
        self.recs.reserve(n);
    }

    /// Appends an entry. Compatibility entry point (tests, restore, the
    /// serve trace window); the execution hot path uses the typed
    /// `push_*` methods below, which skip the enum round-trip.
    pub fn push(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::Create { time, inst, class } => self.push_create(time, inst, class),
            TraceEvent::Delete { time, inst } => self.push_delete(time, inst),
            TraceEvent::Dispatch {
                time,
                inst,
                from,
                event,
                seq,
                from_state,
                to_state,
            } => self.push_dispatch(time, inst, from, event, seq, from_state, to_state),
            TraceEvent::Ignored { time, inst, event } => self.push_ignored(time, inst, event),
            TraceEvent::Dropped { time, inst, event } => self.push_dropped(time, inst, event),
            TraceEvent::ActorSignal {
                time,
                actor,
                event,
                args,
            } => self.push_actor_signal(time, actor, event, args),
            TraceEvent::BridgeCall {
                time,
                actor,
                func,
                args,
            } => self.push_bridge_call(time, actor, &func, args),
        }
    }

    /// Records an instance creation.
    #[inline]
    pub fn push_create(&mut self, time: u64, inst: InstId, class: ClassId) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.recs.push(Rec {
            time,
            seq: 0,
            a: inst.0,
            b: class.0,
            c: 0,
            d: 0,
            e: 0,
            tag: T_CREATE,
        });
    }

    /// Records an instance deletion.
    #[inline]
    pub fn push_delete(&mut self, time: u64, inst: InstId) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.recs.push(Rec {
            time,
            seq: 0,
            a: inst.0,
            b: 0,
            c: 0,
            d: 0,
            e: 0,
            tag: T_DELETE,
        });
    }

    /// Records a dispatch (run-to-completion step).
    ///
    /// Takes the seven record fields positionally: this is the hot-path
    /// push and a params struct would be built and torn down per signal.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn push_dispatch(
        &mut self,
        time: u64,
        inst: InstId,
        from: Option<InstId>,
        event: EventId,
        seq: u64,
        from_state: StateId,
        to_state: StateId,
    ) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.recs.push(Rec {
            time,
            seq,
            a: inst.0,
            b: from.map_or(0, |f| f.0 + 1),
            c: event.0,
            d: from_state.0,
            e: to_state.0,
            tag: T_DISPATCH,
        });
    }

    /// Records a declared ignore.
    #[inline]
    pub fn push_ignored(&mut self, time: u64, inst: InstId, event: EventId) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.recs.push(Rec {
            time,
            seq: 0,
            a: inst.0,
            b: 0,
            c: event.0,
            d: 0,
            e: 0,
            tag: T_IGNORED,
        });
    }

    /// Records a lenient-mode drop.
    #[inline]
    pub fn push_dropped(&mut self, time: u64, inst: InstId, event: EventId) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.recs.push(Rec {
            time,
            seq: 0,
            a: inst.0,
            b: 0,
            c: event.0,
            d: 0,
            e: 0,
            tag: T_DROPPED,
        });
    }

    /// Records an observable actor signal.
    #[inline]
    pub fn push_actor_signal(
        &mut self,
        time: u64,
        actor: ActorId,
        event: EventId,
        args: Arc<[Value]>,
    ) {
        if self.mode == TraceMode::Off {
            return;
        }
        let idx = self.payloads.len() as u32;
        self.payloads.push(args);
        self.recs.push(Rec {
            time,
            seq: 0,
            a: actor.0,
            b: idx,
            c: event.0,
            d: 0,
            e: 0,
            tag: T_ACTOR,
        });
    }

    /// Records an observable bridge call.
    #[inline]
    pub fn push_bridge_call(&mut self, time: u64, actor: ActorId, func: &str, args: Arc<[Value]>) {
        if self.mode == TraceMode::Off {
            return;
        }
        let pidx = self.payloads.len() as u32;
        self.payloads.push(args);
        let fidx = self.funcs.len() as u32;
        self.funcs.push(func.to_owned());
        self.recs.push(Rec {
            time,
            seq: 0,
            a: actor.0,
            b: pidx,
            c: fidx,
            d: 0,
            e: 0,
            tag: T_BRIDGE,
        });
    }

    /// Moves every record of `other` to the end of `self`, rebasing its
    /// side-table references. Used by the shard barrier merge; `other`
    /// is left empty (its side tables included).
    pub fn append(&mut self, other: &mut Trace) {
        let pbase = self.payloads.len() as u32;
        let fbase = self.funcs.len() as u32;
        self.payloads.append(&mut other.payloads);
        self.funcs.append(&mut other.funcs);
        self.recs.reserve(other.recs.len());
        for mut r in other.recs.drain(..) {
            match r.tag {
                T_ACTOR => r.b += pbase,
                T_BRIDGE => {
                    r.b += pbase;
                    r.c += fbase;
                }
                _ => {}
            }
            self.recs.push(r);
        }
    }

    /// Materializes record `i` as a [`TraceEvent`].
    pub fn event(&self, i: usize) -> TraceEvent {
        self.materialize(&self.recs[i])
    }

    fn materialize(&self, r: &Rec) -> TraceEvent {
        match r.tag {
            T_CREATE => TraceEvent::Create {
                time: r.time,
                inst: InstId::new(r.a),
                class: ClassId::new(r.b),
            },
            T_DELETE => TraceEvent::Delete {
                time: r.time,
                inst: InstId::new(r.a),
            },
            T_DISPATCH => TraceEvent::Dispatch {
                time: r.time,
                inst: InstId::new(r.a),
                from: r.dispatch_from(),
                event: EventId::new(r.c),
                seq: r.seq,
                from_state: StateId::new(r.d),
                to_state: StateId::new(r.e),
            },
            T_IGNORED => TraceEvent::Ignored {
                time: r.time,
                inst: InstId::new(r.a),
                event: EventId::new(r.c),
            },
            T_DROPPED => TraceEvent::Dropped {
                time: r.time,
                inst: InstId::new(r.a),
                event: EventId::new(r.c),
            },
            T_ACTOR => TraceEvent::ActorSignal {
                time: r.time,
                actor: ActorId::new(r.a),
                event: EventId::new(r.c),
                args: Arc::clone(&self.payloads[r.b as usize]),
            },
            T_BRIDGE => TraceEvent::BridgeCall {
                time: r.time,
                actor: ActorId::new(r.a),
                func: self.funcs[r.c as usize].clone(),
                args: Arc::clone(&self.payloads[r.b as usize]),
            },
            _ => unreachable!("corrupt trace tag {}", r.tag),
        }
    }

    /// Iterates the trace, materializing each record lazily.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.recs.iter().map(|r| self.materialize(r))
    }

    /// The observable projection: actor signals and bridge calls, in
    /// order, with ids resolved to names against the domain.
    pub fn observable(&self, domain: &Domain) -> Vec<ObservableEvent> {
        self.recs
            .iter()
            .filter_map(|r| match r.tag {
                T_ACTOR => {
                    let a = domain.actor(ActorId::new(r.a));
                    Some(ObservableEvent {
                        actor: a.name.clone(),
                        event: a.events[r.c as usize].name.clone(),
                        args: self.payloads[r.b as usize].to_vec(),
                    })
                }
                T_BRIDGE => Some(ObservableEvent {
                    actor: domain.actor(ActorId::new(r.a)).name.clone(),
                    event: self.funcs[r.c as usize].clone(),
                    args: self.payloads[r.b as usize].to_vec(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Number of dispatches (run-to-completion steps) in the trace.
    pub fn dispatch_count(&self) -> usize {
        self.recs.iter().filter(|r| r.tag == T_DISPATCH).count()
    }

    /// Renders the full trace as a human-readable log, resolving ids to
    /// names against the domain. A debugging aid; the observable
    /// projection is what verification compares.
    pub fn render(&self, domain: &Domain) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.recs {
            let time = r.time;
            match r.tag {
                T_CREATE => {
                    let inst = InstId::new(r.a);
                    let _ = writeln!(
                        out,
                        "[{time:>6}] create {inst} : {}",
                        domain.class(ClassId::new(r.b)).name
                    );
                }
                T_DELETE => {
                    let inst = InstId::new(r.a);
                    let _ = writeln!(out, "[{time:>6}] delete {inst}");
                }
                T_DISPATCH => {
                    let inst = InstId::new(r.a);
                    let event = EventId::new(r.c);
                    let (from_state, to_state) = (StateId::new(r.d), StateId::new(r.e));
                    // The receiving class is recoverable only through the
                    // creation record; scan for it.
                    let class = self
                        .recs
                        .iter()
                        .find_map(|c| (c.tag == T_CREATE && c.a == r.a).then(|| ClassId::new(c.b)));
                    let (ev_name, s0, s1) = match class {
                        Some(c) => {
                            let cls = domain.class(c);
                            let machine = cls.state_machine.as_ref();
                            (
                                cls.events[event.index()].name.clone(),
                                machine.map_or(from_state.to_string(), |m| {
                                    m.state(from_state).name.clone()
                                }),
                                machine.map_or(to_state.to_string(), |m| {
                                    m.state(to_state).name.clone()
                                }),
                            )
                        }
                        None => (
                            event.to_string(),
                            from_state.to_string(),
                            to_state.to_string(),
                        ),
                    };
                    let from_s = r
                        .dispatch_from()
                        .map_or("<env>".to_owned(), |f| f.to_string());
                    let _ = writeln!(
                        out,
                        "[{time:>6}] {from_s} -> {inst} : {ev_name} ({s0} -> {s1})"
                    );
                }
                T_IGNORED => {
                    let (inst, event) = (InstId::new(r.a), EventId::new(r.c));
                    let _ = writeln!(out, "[{time:>6}] {inst} ignored {event}");
                }
                T_DROPPED => {
                    let (inst, event) = (InstId::new(r.a), EventId::new(r.c));
                    let _ = writeln!(out, "[{time:>6}] {inst} DROPPED {event}");
                }
                T_ACTOR => {
                    let a_decl = domain.actor(ActorId::new(r.a));
                    let _ = write!(
                        out,
                        "[{time:>6}] >> {}.{}(",
                        a_decl.name, a_decl.events[r.c as usize].name
                    );
                    for (i, a) in self.payloads[r.b as usize].iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(out, "{a}");
                    }
                    let _ = writeln!(out, ")");
                }
                T_BRIDGE => {
                    let _ = write!(
                        out,
                        "[{time:>6}] :: {}::{}(",
                        domain.actor(ActorId::new(r.a)).name,
                        self.funcs[r.c as usize]
                    );
                    for (i, a) in self.payloads[r.b as usize].iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(out, "{a}");
                    }
                    let _ = writeln!(out, ")");
                }
                _ => unreachable!("corrupt trace tag {}", r.tag),
            }
        }
        out
    }

    /// Counts causality violations: for each (sender, receiver) pair, the
    /// dispatch order must match the send order (send-sequence numbers
    /// strictly increasing). With the event rules on this is always zero;
    /// E5 ablations make it positive.
    pub fn causality_violations(&self) -> usize {
        use std::collections::BTreeMap;
        let mut last_seq: BTreeMap<(InstId, InstId), u64> = BTreeMap::new();
        let mut violations = 0;
        for r in &self.recs {
            if r.tag != T_DISPATCH {
                continue;
            }
            let Some(from) = r.dispatch_from() else {
                continue;
            };
            let key = (from, InstId::new(r.a));
            if let Some(prev) = last_seq.get(&key) {
                if r.seq < *prev {
                    violations += 1;
                }
            }
            let entry = last_seq.entry(key).or_insert(0);
            *entry = (*entry).max(r.seq);
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(from: u32, to: u32, seq: u64) -> TraceEvent {
        TraceEvent::Dispatch {
            time: 0,
            inst: InstId::new(to),
            from: Some(InstId::new(from)),
            event: EventId::new(0),
            seq,
            from_state: StateId::new(0),
            to_state: StateId::new(0),
        }
    }

    #[test]
    fn observable_filters_and_orders() {
        use xtuml_core::builder::DomainBuilder;
        use xtuml_core::value::DataType;
        let mut b = DomainBuilder::new("t");
        b.actor("OUT").event("done", &[("v", DataType::Int)]);
        b.actor("LOG").func("info", &[("msg", DataType::Str)], None);
        let d = b.build().unwrap();
        let mut t = Trace::new();
        t.push(TraceEvent::Create {
            time: 0,
            inst: InstId::new(0),
            class: ClassId::new(0),
        });
        t.push(TraceEvent::ActorSignal {
            time: 1,
            actor: ActorId::new(0),
            event: EventId::new(0),
            args: Arc::from(vec![Value::Int(1)]),
        });
        t.push(TraceEvent::BridgeCall {
            time: 2,
            actor: ActorId::new(1),
            func: "info".into(),
            args: Arc::from(vec![Value::from("x")]),
        });
        let obs = t.observable(&d);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].actor, "OUT");
        assert_eq!(obs[1].event, "info");
        assert_eq!(obs[0].to_string(), "OUT.done(1)");
    }

    #[test]
    fn causality_clean_when_ordered() {
        let mut t = Trace::new();
        t.push(dispatch(0, 1, 1));
        t.push(dispatch(0, 1, 2));
        t.push(dispatch(2, 1, 5));
        t.push(dispatch(0, 1, 3));
        assert_eq!(t.causality_violations(), 0);
    }

    #[test]
    fn causality_violation_detected() {
        let mut t = Trace::new();
        t.push(dispatch(0, 1, 2));
        t.push(dispatch(0, 1, 1)); // arrived after a later send: violation
        assert_eq!(t.causality_violations(), 1);
    }

    #[test]
    fn dispatch_count() {
        let mut t = Trace::new();
        t.push(dispatch(0, 1, 1));
        t.push(TraceEvent::Delete {
            time: 0,
            inst: InstId::new(0),
        });
        assert_eq!(t.dispatch_count(), 1);
    }

    #[test]
    fn round_trip_through_packed_records() {
        let events = vec![
            TraceEvent::Create {
                time: 0,
                inst: InstId::new(3),
                class: ClassId::new(1),
            },
            TraceEvent::Dispatch {
                time: 1,
                inst: InstId::new(3),
                from: None,
                event: EventId::new(2),
                seq: 9,
                from_state: StateId::new(0),
                to_state: StateId::new(4),
            },
            dispatch(0, 3, 10),
            TraceEvent::Ignored {
                time: 2,
                inst: InstId::new(3),
                event: EventId::new(1),
            },
            TraceEvent::Dropped {
                time: 3,
                inst: InstId::new(3),
                event: EventId::new(0),
            },
            TraceEvent::ActorSignal {
                time: 4,
                actor: ActorId::new(0),
                event: EventId::new(0),
                args: Arc::from(vec![Value::Int(7)]),
            },
            TraceEvent::BridgeCall {
                time: 5,
                actor: ActorId::new(0),
                func: "log".into(),
                args: Arc::from(vec![Value::from("hi")]),
            },
            TraceEvent::Delete {
                time: 6,
                inst: InstId::new(3),
            },
        ];
        let mut t = Trace::new();
        for e in &events {
            t.push(e.clone());
        }
        assert_eq!(t.len(), events.len());
        let back: Vec<TraceEvent> = t.iter().collect();
        assert_eq!(back, events);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(&t.event(i), e);
        }
    }

    #[test]
    fn append_rebases_side_tables() {
        let mut a = Trace::new();
        a.push(TraceEvent::ActorSignal {
            time: 0,
            actor: ActorId::new(0),
            event: EventId::new(0),
            args: Arc::from(vec![Value::Int(1)]),
        });
        let mut b = Trace::new();
        b.push(TraceEvent::BridgeCall {
            time: 1,
            actor: ActorId::new(1),
            func: "f".into(),
            args: Arc::from(vec![Value::Int(2)]),
        });
        b.push(TraceEvent::ActorSignal {
            time: 2,
            actor: ActorId::new(0),
            event: EventId::new(1),
            args: Arc::from(vec![Value::Int(3)]),
        });
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 3);
        match a.event(1) {
            TraceEvent::BridgeCall { func, args, .. } => {
                assert_eq!(func, "f");
                assert_eq!(&args[..], &[Value::Int(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match a.event(2) {
            TraceEvent::ActorSignal { args, .. } => assert_eq!(&args[..], &[Value::Int(3)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut t = Trace::with_mode(TraceMode::Off);
        t.push(dispatch(0, 1, 1));
        t.push_create(0, InstId::new(0), ClassId::new(0));
        assert!(t.is_empty());
        assert_eq!(t.dispatch_count(), 0);
        // Content equality ignores the mode.
        assert_eq!(t, Trace::new());
    }
}
