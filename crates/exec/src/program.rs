//! The one compiled form of a loaded model.
//!
//! A [`Program`] is everything the engines derive from a [`Domain`]
//! before the first signal: the actions' bytecode ([`BcProgram`], lowered
//! straight from the parsed blocks), the whole-model effect analysis
//! ([`ShardPlan`]) and the dispatch slots, one dense table that joins
//! every state machine transition to its bytecode. It is built once per
//! model load and shared read-only through an `Arc` by every
//! [`Simulation`](crate::Simulation) and
//! [`ShardedSimulation`](crate::ShardedSimulation) that runs the model,
//! by the model compiler's partition cores, and across threads by shard
//! workers. Nothing that runs mutates it: the two values computed on
//! first use, profiling span names and the snapshot fingerprint, sit
//! behind `OnceLock`s and are pure functions of the domain.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use xtuml_core::bc::{BcAction, BcProgram};
use xtuml_core::effects::{self, ShardPlan};
use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{ClassId, EventId, StateId};
use xtuml_core::model::{Domain, TransitionTarget};

/// How a resolved dispatch slot executes its action.
#[derive(Debug, Clone)]
pub(crate) enum Exec {
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
pub(crate) enum Slot {
    /// Transition to `to`, executing per `exec`.
    Run { to: StateId, exec: Exec },
    /// Declared ignore: consume silently.
    Ignore,
    /// Undeclared pair: error in strict mode, drop otherwise.
    CantHappen,
}

/// Dense per-class slot table, indexed `state * n_events + event`.
#[derive(Debug, Clone)]
pub(crate) struct ClassSlots {
    n_events: usize,
    slots: Vec<Slot>,
}

impl ClassSlots {
    /// Ids come from the store and from typechecked sends; restore
    /// validates both against the domain, so they are always in range.
    #[inline]
    pub(crate) fn slot(&self, state: StateId, event: EventId) -> &Slot {
        &self.slots[state.index() * self.n_events + event.index()]
    }
}

/// Resolves every `(class, state, event)` to its dispatch slot, per
/// class (`None` for passive classes), from the state machines'
/// transitions: a pair no transition names can't happen. Decided once
/// here, not re-discovered per signal.
fn resolve_slots(domain: &Domain, bc: &BcProgram) -> Vec<Option<ClassSlots>> {
    domain
        .classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let class = ClassId::new(ci as u32);
            let machine = c.state_machine.as_ref()?;
            let n_events = c.events.len();
            let mut slots = vec![Slot::CantHappen; machine.states.len() * n_events];
            for t in &machine.transitions {
                slots[t.from.index() * n_events + t.event.index()] = match t.target {
                    TransitionTarget::To(to) => {
                        let exec = match bc.entry(class, to, t.event) {
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
                };
            }
            Some(ClassSlots { n_events, slots })
        })
        .collect()
}

/// Pre-interned span names, `rtc[class][event]` = `"Class.Event"` and
/// `action[class][state]` = `"action Class.State"`, so `--profile` runs
/// never format per signal.
pub(crate) struct SpanNames {
    pub(crate) rtc: Vec<Vec<String>>,
    pub(crate) action: Vec<Vec<String>>,
}

impl SpanNames {
    fn new(domain: &Domain) -> SpanNames {
        let classes = &domain.classes;
        SpanNames {
            rtc: classes
                .iter()
                .map(|c| {
                    let name = |e: &xtuml_core::model::EventDecl| format!("{}.{}", c.name, e.name);
                    c.events.iter().map(name).collect()
                })
                .collect(),
            action: classes
                .iter()
                .map(|c| {
                    let states = c.state_machine.as_ref().map_or(&[][..], |m| &m.states);
                    states
                        .iter()
                        .map(|s| format!("action {}.{}", c.name, s.name))
                        .collect()
                })
                .collect(),
        }
    }
}

/// A model compiled once for every engine that runs it (see the module
/// docs).
///
/// ```
/// use std::sync::Arc;
/// use xtuml_core::builder::pipeline_domain;
/// use xtuml_exec::{Program, SchedPolicy, Simulation};
///
/// let domain = pipeline_domain(3)?;
/// let program = Arc::new(Program::new(&domain));
/// assert!(program.plan().admitted());
/// // Two runs, one build.
/// let runs = [1, 2].map(|seed| {
///     Simulation::with_program(Arc::clone(&program), SchedPolicy::seeded(seed))
/// });
/// assert_eq!(Arc::strong_count(&program), 1 + runs.len());
/// # Ok::<(), xtuml_core::CoreError>(())
/// ```
pub struct Program<'d> {
    /// Borrowed from the caller ([`Program::new`]) or owned
    /// ([`Program::owned`]), so a program in a long-lived table frees its
    /// model when its last user drops it.
    domain: Cow<'d, Domain>,
    bc: BcProgram,
    plan: ShardPlan,
    /// Dispatch slots (see [`resolve_slots`]). The hot path indexes them
    /// with two loads, and a slot holds a direct reference to the lowered
    /// [`BcAction`].
    pub(crate) slots: Vec<Option<ClassSlots>>,
    /// Interned by the first dispatch that records spans.
    spans: OnceLock<SpanNames>,
    /// Computed by the first snapshot or restore.
    fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for Program<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("domain", &self.domain.name)
            .finish_non_exhaustive()
    }
}

impl<'d> Program<'d> {
    /// Compiles `domain`: one effect-analysis walk, one bytecode
    /// lowering (folding the plan's constant attributes), one slot
    /// resolution. Infallible, like [`BcProgram::new`]: a pair whose
    /// block failed to resolve or lower raises its error when, and only
    /// when, it is dispatched.
    pub fn new(domain: &'d Domain) -> Program<'d> {
        Program::build(Cow::Borrowed(domain))
    }

    fn build(domain: Cow<'d, Domain>) -> Program<'d> {
        let plan = effects::analyze(&domain);
        let bc = BcProgram::new(&domain, &plan.const_attrs);
        let slots = resolve_slots(&domain, &bc);
        Program {
            domain,
            bc,
            plan,
            slots,
            spans: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The compiled domain.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Where `event` takes an instance of `class` in `state`, read from
    /// the dispatch slots.
    pub fn target(&self, class: ClassId, state: StateId, event: EventId) -> TransitionTarget {
        let slots = self.slots.get(class.index()).and_then(Option::as_ref);
        match slots.and_then(|c| c.slots.get(state.index() * c.n_events + event.index())) {
            Some(Slot::Run { to, .. }) => TransitionTarget::To(*to),
            Some(Slot::Ignore) => TransitionTarget::Ignore,
            Some(Slot::CantHappen) | None => TransitionTarget::CantHappen,
        }
    }

    /// The actions lowered to bytecode, the form every engine executes.
    pub fn bc(&self) -> &BcProgram {
        &self.bc
    }

    /// The whole-model effect analysis: per-action summaries, shard
    /// admission and its runtime colocation preconditions.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// [`shard_safety`](crate::shard_safety) read from this program's
    /// plan.
    ///
    /// # Errors
    ///
    /// As [`shard_safety`](crate::shard_safety).
    pub fn shard_safety(&self) -> Result<()> {
        crate::shard::plan_safety(&self.plan)
    }

    /// The domain's snapshot fingerprint.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::snapshot::fingerprint(&self.domain))
    }

    /// Span names, interned on first use.
    pub(crate) fn span_names(&self) -> &SpanNames {
        self.spans.get_or_init(|| SpanNames::new(&self.domain))
    }
}

impl Program<'static> {
    /// Compiles `domain` as [`Program::new`] does and keeps it, so the
    /// program borrows nothing: a table that outlives every caller can
    /// hold it, and dropping the last `Arc` frees the model too.
    pub fn owned(domain: Domain) -> Program<'static> {
        Program::build(Cow::Owned(domain))
    }
}
