//! Whole-model effect analysis: the dataflow engine behind shard safety.
//!
//! The paper's argument (§3) is that a model compiler can apply
//! *repeatable, analyzable mapping rules* because the action language is
//! a closed, statically tractable notation. This module takes that
//! seriously for the sharded executor: instead of the historical
//! syntactic reject-list (ban every `create`/`delete`/`relate`/
//! `unrelate` and every non-self attribute access), it computes
//! per-action **effect summaries** — attribute read/write sets keyed by
//! `(class, attr, receiver shape)`, plus create/delete/relate/select
//! footprints and send/timer counts — and then runs a whole-model
//! admission pass that classifies each class as *shard-local*,
//! *shard-safe-with-reason* or *unsafe-with-witness*.
//!
//! ## The receiver-shape abstraction
//!
//! Every attribute access happens through an instance-valued base
//! expression. The analysis abstracts that base into a small lattice
//! ([`Receiver`]):
//!
//! * [`Receiver::This`] — the base is `self`. Always shard-safe: the
//!   dispatching shard owns `self` by construction.
//! * [`Receiver::Created`] — the base is an instance created earlier in
//!   the *same* run-to-completion step. Safe when the create itself is
//!   admitted: the creating shard allocates (and therefore owns) the id.
//! * [`Receiver::Via`]`(R)` — the base is reached from `self` by
//!   navigating association `R` (possibly through `any(...)` or a
//!   `foreach` binding). Safe iff every link of `R` is shard-colocated —
//!   a *runtime* precondition the sharded engine checks against the
//!   setup population.
//! * [`Receiver::Other`] — anything else (`select` bindings, `selected`,
//!   navigation from a non-self base, bindings the inference loses).
//!
//! ## Admission rules
//!
//! A non-self access to `(class, attr)` is admitted when:
//!
//! 1. **const-replica**: the attribute is written nowhere in the model.
//!    Every shard's replica then holds the declared default forever, so
//!    any read — through any receiver — returns the same value the
//!    sequential engine would produce.
//! 2. **colocated navigation**: *all* non-self accesses to the
//!    attribute go through one common association `R`. If every setup
//!    link of `R` keeps both endpoints on the same shard, reader,
//!    writer and owner coincide and the access is local. The static
//!    pass admits the model and records `R` in
//!    [`ShardPlan::coloc_assocs`]; the engine re-checks the link
//!    population at its actual shard count and falls back otherwise.
//! 3. **created-instance access**: reads and writes through
//!    [`Receiver::Created`] ride on rule 3's create admission below.
//!
//! A `create` of class `K` is admitted when no action anywhere selects
//! over `K` (creation confinement): created instances then never become
//! visible to other shards, and the engine allocates ids congruent to
//! the creating shard so ownership holds. `delete`/`relate`/`unrelate`
//! remain rejected — they mutate population structure other shards
//! replicate.
//!
//! Everything else is an offense; when two access sites on the same
//! written attribute conflict, the pair becomes a [`Race`] witness
//! (diagnostic `X0017 cross-shard-race`).
//!
//! ## Soundness oracle
//!
//! The analysis is deliberately falsifiable: every model it newly
//! admits to `shards > 1` must keep its trace a pure function of
//! `(seed, shards)` and its per-actor observables equal to the
//! sequential engine's, under the fuzz differential and the
//! jobs-invariance suites. The analyzer is wrong iff a differential
//! catches it (DESIGN.md §14).

use crate::action::{Block, Expr, GenTarget, LValue, Stmt};
use crate::error::Pos;
use crate::ids::{AssocId, AttrId, ClassId, EventId, StateId};
use crate::model::Domain;
use crate::value::UnOp;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Effect summaries
// ---------------------------------------------------------------------------

/// The shape of the instance an attribute access goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Receiver {
    /// The dispatching instance (`self`).
    This,
    /// An instance created earlier in the same action.
    Created,
    /// Reached from `self` by navigating the given association.
    Via(AssocId),
    /// Any other shape: `select` bindings, `selected`, navigation from a
    /// non-self base, or a binding the inference lost.
    Other,
}

impl Receiver {
    /// Human phrasing, e.g. `"via R1"`.
    pub fn describe(self, domain: &Domain) -> String {
        match self {
            Receiver::This => "self".to_owned(),
            Receiver::Created => "created".to_owned(),
            Receiver::Via(r) => format!("via {}", domain.association(r).name),
            Receiver::Other => "any-instance".to_owned(),
        }
    }
}

/// One attribute read or write found in an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrAccess {
    /// Class owning the attribute.
    pub class: ClassId,
    /// The attribute.
    pub attr: AttrId,
    /// Shape of the instance accessed.
    pub receiver: Receiver,
    /// True for a write (assignment target).
    pub write: bool,
    /// Statement position of the access.
    pub pos: Pos,
}

/// One instance-directed `gen` statement: the send graph's edge source
/// for the lints, the interface channels and the locality rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSite {
    /// The inferred target class; `None` only for a target the walk
    /// cannot type, which typeck rejects (hand-built ASTs).
    pub target: Option<ClassId>,
    /// The generated event of the target class; `None` when the target
    /// is unresolved or declares no such event.
    pub event: Option<EventId>,
    /// True for `gen ... after <delay>` (a timer).
    pub after: bool,
    /// Position of the `gen` statement.
    pub pos: Pos,
    /// Why `target` is `None`, naming the target expression and event as
    /// written; `None` whenever the target resolves.
    pub unresolved: Option<Box<str>>,
}

/// The effect summary of one state entry action.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionEffects {
    /// Class whose state machine holds the action.
    pub class: ClassId,
    /// The entered state.
    pub state: StateId,
    /// Every attribute access, in source order.
    pub accesses: Vec<AttrAccess>,
    /// `create` statements: `(created class, position)`.
    pub creates: Vec<(ClassId, Pos)>,
    /// `delete` statements: `(inferred class of the deleted instance,
    /// position)`.
    pub deletes: Vec<(Option<ClassId>, Pos)>,
    /// `relate` statements: `(inferred classes of both operands, position)`.
    pub relates: Vec<([Option<ClassId>; 2], Pos)>,
    /// `unrelate` statements: `(inferred classes of both operands,
    /// position)`.
    pub unrelates: Vec<([Option<ClassId>; 2], Pos)>,
    /// `select any`/`select many` statements: `(selected class, position)`.
    pub selects: Vec<(ClassId, Pos)>,
    /// This action's instance-directed `gen` statements, as a range of
    /// [`ModelEffects::sends`] (see [`ModelEffects::sends_of`]).
    pub sends: Range<usize>,
    /// Actor-directed (observable) `gen` statements.
    pub actor_sends: u32,
    /// `gen ... after` statements (timers armed).
    pub timers_set: u32,
    /// `cancel` statements.
    pub timers_cancelled: u32,
    /// Bridge (external-entity) calls.
    pub bridge_calls: u32,
    /// Attribute accesses whose base the inference could not type; each
    /// is treated as an [`Receiver::Other`] access to an unknown
    /// attribute and blocks admission: `(position, is_write)`. Empty for
    /// validated models.
    pub unknown: Vec<(Pos, bool)>,
}

/// Per-action effect summaries for the whole domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelEffects {
    /// One summary per state entry action, in model order.
    pub actions: Vec<ActionEffects>,
    /// Every instance-directed send site, in model order; each action
    /// owns the contiguous range [`ActionEffects::sends`].
    pub sends: Vec<SendSite>,
}

impl ModelEffects {
    /// Walks every state entry action in the domain. This is the one
    /// class-inference walk of action bodies: sharding admission, the
    /// bytecode const-fold, the whole-model lints and the model
    /// compiler's usage analysis all fold its output.
    pub fn gather(domain: &Domain) -> ModelEffects {
        let states = domain
            .classes
            .iter()
            .filter_map(|c| c.state_machine.as_ref())
            .map(|m| m.states.len())
            .sum();
        let mut effects = ModelEffects {
            actions: Vec::with_capacity(states),
            sends: Vec::new(),
        };
        for (ci, class) in domain.classes.iter().enumerate() {
            let class_id = ClassId::new(ci as u32);
            let Some(machine) = &class.state_machine else {
                continue;
            };
            for (si, state) in machine.states.iter().enumerate() {
                let first_send = effects.sends.len();
                let mut eff = ActionEffects {
                    class: class_id,
                    state: StateId::new(si as u32),
                    ..ActionEffects::default()
                };
                let mut w = EffectWalker {
                    domain,
                    self_class: class_id,
                    env: BTreeMap::new(),
                    selected: None,
                    eff: &mut eff,
                    sends: &mut effects.sends,
                };
                w.block(&state.action);
                eff.sends = first_send..effects.sends.len();
                effects.actions.push(eff);
            }
        }
        effects
    }

    /// The instance-directed send sites of one action.
    pub fn sends_of(&self, eff: &ActionEffects) -> &[SendSite] {
        &self.sends[eff.sends.clone()]
    }
}

/// Per-action walker tracking the receiver shape of every instance-typed
/// binding.
struct EffectWalker<'d, 'w> {
    domain: &'d Domain,
    self_class: ClassId,
    env: BTreeMap<&'d str, (ClassId, Receiver)>,
    selected: Option<ClassId>,
    eff: &'w mut ActionEffects,
    sends: &'w mut Vec<SendSite>,
}

impl<'d> EffectWalker<'d, '_> {
    fn block(&mut self, block: &'d Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    /// Infers the `(class, receiver shape)` of an instance-valued
    /// expression; `None` for scalars and lost bindings.
    fn infer(&self, expr: &Expr) -> Option<(ClassId, Receiver)> {
        match expr {
            Expr::SelfRef => Some((self.self_class, Receiver::This)),
            Expr::Var(name) => self.env.get(name.as_str()).copied(),
            Expr::Nav(base, class_name, assoc_name) => {
                let class = self.domain.class_id(class_name).ok()?;
                let recv = match self.infer(base) {
                    Some((_, Receiver::This)) => self
                        .domain
                        .assoc_id(assoc_name)
                        .map(Receiver::Via)
                        .unwrap_or(Receiver::Other),
                    _ => Receiver::Other,
                };
                Some((class, recv))
            }
            Expr::Unary(UnOp::Any, inner) => self.infer(inner),
            Expr::Selected => self.selected.map(|c| (c, Receiver::Other)),
            _ => None,
        }
    }

    /// The inferred class of an instance-valued expression.
    fn class_of(&self, expr: &Expr) -> Option<ClassId> {
        self.infer(expr).map(|(class, _)| class)
    }

    /// Binds `name` to the shape of `expr`; a scalar or uninferable value
    /// kills any previous instance binding of the name.
    fn bind(&mut self, name: &'d str, expr: &Expr) {
        match self.infer(expr) {
            Some(binding) => {
                self.env.insert(name, binding);
            }
            None => {
                self.env.remove(name);
            }
        }
    }

    /// Records an attribute access through `base`.
    fn access(&mut self, base: &Expr, attr_name: &str, write: bool, pos: Pos) {
        match self.infer(base) {
            Some((class, receiver)) => {
                if let Some(attr) = self.domain.class(class).attr_id(attr_name) {
                    self.eff.accesses.push(AttrAccess {
                        class,
                        attr,
                        receiver,
                        write,
                        pos,
                    });
                } else {
                    self.eff.unknown.push((pos, write));
                }
            }
            None => self.eff.unknown.push((pos, write)),
        }
    }

    /// Records attribute reads in an expression (recursively).
    fn reads(&mut self, expr: &Expr, pos: Pos) {
        match expr {
            Expr::Attr(base, name) => {
                self.access(base, name, false, pos);
                self.reads(base, pos);
            }
            Expr::Nav(base, _, _) => self.reads(base, pos),
            Expr::Unary(_, e) => self.reads(e, pos),
            Expr::Binary(_, a, b) => {
                self.reads(a, pos);
                self.reads(b, pos);
            }
            Expr::BridgeCall(_, _, args) => {
                for a in args {
                    self.reads(a, pos);
                }
            }
            Expr::Lit(_) | Expr::Var(_) | Expr::SelfRef | Expr::Selected | Expr::Param(_) => {}
        }
    }

    fn stmt(&mut self, stmt: &'d Stmt) {
        let pos = stmt.pos();
        match stmt {
            Stmt::Assign { lhs, expr, .. } => {
                self.reads(expr, pos);
                match lhs {
                    LValue::Var(name) => self.bind(name, expr),
                    LValue::Attr(base, attr) => {
                        self.reads(base, pos);
                        self.access(base, attr, true, pos);
                    }
                }
            }
            Stmt::Create { var, class, .. } => {
                if let Ok(id) = self.domain.class_id(class) {
                    self.eff.creates.push((id, pos));
                    self.env.insert(var, (id, Receiver::Created));
                }
            }
            Stmt::Delete { expr, .. } => {
                self.eff.deletes.push((self.class_of(expr), pos));
                self.reads(expr, pos);
            }
            Stmt::SelectAny {
                var, class, filter, ..
            }
            | Stmt::SelectMany {
                var, class, filter, ..
            } => {
                if let Ok(id) = self.domain.class_id(class) {
                    self.eff.selects.push((id, pos));
                    if let Some(f) = filter {
                        let saved = self.selected.replace(id);
                        self.reads(f, pos);
                        self.selected = saved;
                    }
                    self.env.insert(var, (id, Receiver::Other));
                } else if let Some(f) = filter {
                    self.reads(f, pos);
                }
            }
            Stmt::Relate { a, b, .. } => {
                let operands = [self.class_of(a), self.class_of(b)];
                self.eff.relates.push((operands, pos));
                self.reads(a, pos);
                self.reads(b, pos);
            }
            Stmt::Unrelate { a, b, .. } => {
                let operands = [self.class_of(a), self.class_of(b)];
                self.eff.unrelates.push((operands, pos));
                self.reads(a, pos);
                self.reads(b, pos);
            }
            Stmt::Generate {
                event,
                args,
                target,
                delay,
                ..
            } => {
                for a in args {
                    self.reads(a, pos);
                }
                if let Some(d) = delay {
                    self.reads(d, pos);
                    self.eff.timers_set += 1;
                }
                match target {
                    GenTarget::Inst(texpr) => {
                        // A bare unbound variable resolves to an actor at
                        // run time (observable send).
                        let is_actor_fallback = matches!(texpr, Expr::Var(name)
                            if !self.env.contains_key(name.as_str())
                                && self.domain.actor_id(name).is_ok());
                        if is_actor_fallback {
                            self.eff.actor_sends += 1;
                        } else {
                            self.reads(texpr, pos);
                            let target = self.class_of(texpr);
                            self.sends.push(SendSite {
                                target,
                                event: target.and_then(|c| self.domain.class(c).event_id(event)),
                                after: delay.is_some(),
                                pos,
                                unresolved: target.is_none().then(|| {
                                    format!(
                                        "cannot statically resolve the class of signal \
                                         target `{texpr}` for event `{event}`"
                                    )
                                    .into()
                                }),
                            });
                        }
                    }
                    GenTarget::Actor(_) => self.eff.actor_sends += 1,
                }
            }
            Stmt::Cancel { .. } => self.eff.timers_cancelled += 1,
            Stmt::If {
                arms, otherwise, ..
            } => {
                for (cond, body) in arms {
                    self.reads(cond, pos);
                    self.block(body);
                }
                if let Some(body) = otherwise {
                    self.block(body);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.reads(cond, pos);
                self.block(body);
            }
            Stmt::ForEach { var, set, body, .. } => {
                self.reads(set, pos);
                self.bind(var, set);
                self.block(body);
            }
            Stmt::ExprStmt { expr, .. } => {
                if matches!(expr, Expr::BridgeCall(..)) {
                    self.eff.bridge_calls += 1;
                }
                self.reads(expr, pos);
            }
            Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Return { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Offenses (shared with the lint layer and the sharded executor)
// ---------------------------------------------------------------------------

/// Why a state action blocks sharded execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardReason {
    /// The action creates an instance of a class that is selected over
    /// somewhere (creation is not confined).
    Creates,
    /// The action deletes an instance.
    Deletes,
    /// The action relates instances.
    Relates,
    /// The action unrelates instances.
    Unrelates,
    /// The action writes a non-self attribute no admission rule covers.
    NonSelfWrite,
    /// The action reads a non-self attribute no admission rule covers.
    NonSelfRead,
}

impl ShardReason {
    /// Human phrasing, e.g. `"creates an instance"`.
    pub fn describe(self) -> &'static str {
        match self {
            ShardReason::Creates => "creates an instance",
            ShardReason::Deletes => "deletes an instance",
            ShardReason::Relates => "relates instances",
            ShardReason::Unrelates => "unrelates instances",
            ShardReason::NonSelfWrite => "writes a non-self attribute",
            ShardReason::NonSelfRead => "reads a non-self attribute",
        }
    }

    /// Stable machine key, e.g. `"create"` (metric and JSONL column).
    pub fn key(self) -> &'static str {
        match self {
            ShardReason::Creates => "create",
            ShardReason::Deletes => "delete",
            ShardReason::Relates => "relate",
            ShardReason::Unrelates => "unrelate",
            ShardReason::NonSelfWrite => "non_self_write",
            ShardReason::NonSelfRead => "non_self_read",
        }
    }
}

/// One construct that blocks sharded execution, at statement granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOffense {
    /// Class whose state machine holds the offending action.
    pub class: String,
    /// State whose entry action offends.
    pub state: String,
    /// What the action does.
    pub reason: ShardReason,
    /// Position of the offending statement.
    pub pos: Pos,
}

impl ShardOffense {
    /// The historical one-line rendering, `Class.State: reason`.
    pub fn describe(&self) -> String {
        format!("{}.{}: {}", self.class, self.state, self.reason.describe())
    }
}

// ---------------------------------------------------------------------------
// Whole-model admission
// ---------------------------------------------------------------------------

/// One access site of a conflicting attribute (race witness leg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Acting class (whose action contains the access).
    pub class: ClassId,
    /// Acting state.
    pub state: StateId,
    /// Receiver shape of the access.
    pub receiver: Receiver,
    /// True for a write.
    pub write: bool,
    /// Statement position.
    pub pos: Pos,
}

/// A genuine cross-shard write race: two access sites on the same
/// written attribute that no admission rule reconciles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// Class owning the raced attribute.
    pub class: ClassId,
    /// The raced attribute.
    pub attr: AttrId,
    /// The writing site.
    pub a: Site,
    /// The conflicting site (read or write, preferably in another action).
    pub b: Site,
}

/// The admission verdict for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every action touches only `self` attributes and communicates by
    /// signals: shards freely, no admission rule consulted.
    Local,
    /// Shard-safe because the listed admission rules apply.
    Safe(Vec<String>),
    /// Blocks sharding; the string is the first witness.
    Unsafe(String),
}

/// The whole-model admission result: effect summaries, offenses, race
/// witnesses, per-class verdicts and the runtime preconditions the
/// sharded engine must check.
#[derive(Debug, Clone, Default)]
pub struct ShardPlan {
    /// Per-action effect summaries.
    pub effects: ModelEffects,
    /// Everything that blocks sharding, at statement granularity, in
    /// model order (sorted by position within each action).
    pub offenses: Vec<ShardOffense>,
    /// Two-site witnesses for raced attributes (`X0017`).
    pub races: Vec<Race>,
    /// Per-class verdicts, in class order (one per domain class).
    pub verdicts: Vec<(ClassId, Verdict)>,
    /// Associations whose links must be shard-colocated at run time for
    /// the admission to hold (rule 2).
    pub coloc_assocs: BTreeSet<AssocId>,
    /// Classes admitted for runtime creation (creation-confined).
    pub creatable: BTreeSet<ClassId>,
    /// Attributes written nowhere in the model (rule 1, and the
    /// bytecode lowering's const-attr fact source).
    pub const_attrs: BTreeSet<(ClassId, AttrId)>,
}

impl ShardPlan {
    /// True when nothing blocks sharded execution.
    pub fn admitted(&self) -> bool {
        self.offenses.is_empty()
    }

    /// True when admission needed more than the trivial self-only rule:
    /// the model has a non-self access or a create the analysis proved
    /// safe. Such models were rejected by the old syntactic gate.
    pub fn uses_admission(&self) -> bool {
        self.admitted()
            && self
                .verdicts
                .iter()
                .any(|(_, v)| matches!(v, Verdict::Safe(_)))
    }
}

/// Attributes written nowhere in the domain — every read of one yields
/// the declared default. [`analyze`] embeds the set in its [`ShardPlan`],
/// where the `bc` lowering reads its const-fold facts.
fn const_attrs(domain: &Domain, effects: &ModelEffects) -> BTreeSet<(ClassId, AttrId)> {
    let mut written: BTreeSet<(ClassId, AttrId)> = BTreeSet::new();
    let mut any_unknown_write = false;
    for eff in &effects.actions {
        for a in &eff.accesses {
            if a.write {
                written.insert((a.class, a.attr));
            }
        }
        any_unknown_write |= eff.unknown.iter().any(|&(_, w)| w);
    }
    let mut consts = BTreeSet::new();
    // An untypeable write could target anything: claim no constants.
    if any_unknown_write {
        return consts;
    }
    for (ci, class) in domain.classes.iter().enumerate() {
        let class_id = ClassId::new(ci as u32);
        for ai in 0..class.attributes.len() {
            let key = (class_id, AttrId::new(ai as u32));
            if !written.contains(&key) {
                consts.insert(key);
            }
        }
    }
    consts
}

/// How the admission pass resolved one `(class, attr)` access group.
enum GroupFate {
    /// All accesses are `self`/created: nothing to admit.
    SelfOnly,
    /// Admitted: the attribute is written nowhere (rule 1).
    ConstRead,
    /// Admitted: all non-self accesses share this association (rule 2).
    Coloc(AssocId),
    /// Blocked: non-self sites conflict with a write.
    Blocked,
}

/// Runs the whole-model admission analysis.
pub fn analyze(domain: &Domain) -> ShardPlan {
    let effects = ModelEffects::gather(domain);
    let const_set = const_attrs(domain, &effects);

    // Group every access by (class, attr), keeping acting-action sites:
    // one sorted list, where a stable sort keeps each group in model
    // order.
    let accesses = effects.actions.iter().map(|e| e.accesses.len()).sum();
    let mut sites: Vec<((ClassId, AttrId), Site)> = Vec::with_capacity(accesses);
    let mut selects_over: BTreeSet<ClassId> = BTreeSet::new();
    for eff in &effects.actions {
        for a in &eff.accesses {
            let site = Site {
                class: eff.class,
                state: eff.state,
                receiver: a.receiver,
                write: a.write,
                pos: a.pos,
            };
            sites.push(((a.class, a.attr), site));
        }
        for &(c, _) in &eff.selects {
            selects_over.insert(c);
        }
    }
    sites.sort_by_key(|&(key, _)| key);

    // Resolve each group's fate and collect race witnesses. Fates are
    // kept in key order, for lookup by binary search.
    let mut fates: Vec<((ClassId, AttrId), GroupFate)> = Vec::new();
    let mut races: Vec<Race> = Vec::new();
    let mut coloc_assocs: BTreeSet<AssocId> = BTreeSet::new();
    for group in sites.chunk_by(|a, b| a.0 == b.0) {
        let key = group[0].0;
        let sites = || group.iter().map(|(_, s)| s);
        let nonself =
            || sites().filter(|s| matches!(s.receiver, Receiver::Via(_) | Receiver::Other));
        let fate = if nonself().next().is_none() {
            GroupFate::SelfOnly
        } else if const_set.contains(&key) {
            GroupFate::ConstRead
        } else {
            let mut via = nonself().map(|s| match s.receiver {
                Receiver::Via(r) => Some(r),
                _ => None,
            });
            let first = via.next().flatten();
            match first {
                Some(r) if via.all(|v| v == Some(r)) => {
                    coloc_assocs.insert(r);
                    GroupFate::Coloc(r)
                }
                _ => {
                    // The attribute is written somewhere and non-self
                    // sites disagree on how they reach it: a genuine
                    // race. Witness with a write site plus a conflicting
                    // site, preferring one in a different action.
                    if let Some(wr) = sites().find(|s| s.write) {
                        let other = sites()
                            .filter(|s| !std::ptr::eq(*s, wr))
                            .find(|s| (s.class, s.state) != (wr.class, wr.state))
                            .or_else(|| sites().find(|s| !std::ptr::eq(*s, wr)));
                        if let Some(b) = other {
                            races.push(Race {
                                class: key.0,
                                attr: key.1,
                                a: *wr,
                                b: *b,
                            });
                        }
                    }
                    GroupFate::Blocked
                }
            }
        };
        fates.push((key, fate));
    }
    let fate_of = |key| {
        fates
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &fates[i].1)
    };

    // Creation confinement: a created class must never be selected over.
    let mut creatable: BTreeSet<ClassId> = BTreeSet::new();
    for eff in &effects.actions {
        for &(c, _) in &eff.creates {
            if !selects_over.contains(&c) {
                creatable.insert(c);
            }
        }
    }

    // Second pass: per-action offenses (statement-granular) and
    // per-class admission reasons.
    let mut offenses: Vec<ShardOffense> = Vec::new();
    let mut reasons: BTreeMap<ClassId, BTreeSet<String>> = BTreeMap::new();
    let mut first_witness: BTreeMap<ClassId, (Pos, String)> = BTreeMap::new();
    let witness =
        |map: &mut BTreeMap<ClassId, (Pos, String)>, class: ClassId, pos: Pos, what: String| {
            match map.entry(class) {
                Entry::Vacant(slot) => {
                    slot.insert((pos, what));
                }
                Entry::Occupied(mut slot) if pos < slot.get().0 => {
                    slot.insert((pos, what));
                }
                Entry::Occupied(_) => {}
            }
        };
    for eff in &effects.actions {
        let class_name = &domain.class(eff.class).name;
        let machine = domain.class(eff.class).state_machine.as_ref();
        let state_name = machine
            .map(|m| m.states[eff.state.index()].name.as_str())
            .unwrap_or("?");
        let mut local: Vec<(Pos, ShardReason)> = Vec::new();
        for &(_, pos) in &eff.deletes {
            local.push((pos, ShardReason::Deletes));
        }
        for &(_, pos) in &eff.relates {
            local.push((pos, ShardReason::Relates));
        }
        for &(_, pos) in &eff.unrelates {
            local.push((pos, ShardReason::Unrelates));
        }
        for &(c, pos) in &eff.creates {
            if creatable.contains(&c) {
                reasons.entry(eff.class).or_default().insert(format!(
                    "creates `{}` (creation-confined, shard-local ids)",
                    domain.class(c).name
                ));
            } else {
                local.push((pos, ShardReason::Creates));
            }
        }
        for a in &eff.accesses {
            if !matches!(a.receiver, Receiver::Via(_) | Receiver::Other) {
                continue;
            }
            let attr_name = || {
                let class = domain.class(a.class);
                format!("{}.{}", class.name, class.attributes[a.attr.index()].name)
            };
            match fate_of((a.class, a.attr)) {
                Some(GroupFate::ConstRead) => {
                    reasons.entry(eff.class).or_default().insert(format!(
                        "reads `{}` (written nowhere: replicas hold the default)",
                        attr_name()
                    ));
                }
                Some(GroupFate::Coloc(r)) => {
                    reasons.entry(eff.class).or_default().insert(format!(
                        "accesses `{}` only via `{}` (colocated partition)",
                        attr_name(),
                        domain.association(*r).name
                    ));
                }
                _ => {
                    let reason = if a.write {
                        ShardReason::NonSelfWrite
                    } else {
                        ShardReason::NonSelfRead
                    };
                    local.push((a.pos, reason));
                }
            }
        }
        for &(pos, write) in &eff.unknown {
            let reason = if write {
                ShardReason::NonSelfWrite
            } else {
                ShardReason::NonSelfRead
            };
            local.push((pos, reason));
        }
        local.sort_unstable();
        local.dedup();
        for (pos, reason) in local {
            witness(
                &mut first_witness,
                eff.class,
                pos,
                format!("state {state_name}: {} at {pos}", reason.describe()),
            );
            offenses.push(ShardOffense {
                class: class_name.clone(),
                state: state_name.to_owned(),
                reason,
                pos,
            });
        }
    }

    // Per-class verdicts, one per domain class.
    let verdicts = (0..domain.classes.len())
        .map(|ci| {
            let class_id = ClassId::new(ci as u32);
            let verdict = if let Some((_, what)) = first_witness.remove(&class_id) {
                Verdict::Unsafe(what)
            } else if let Some(rs) = reasons.remove(&class_id) {
                Verdict::Safe(rs.into_iter().collect())
            } else {
                Verdict::Local
            };
            (class_id, verdict)
        })
        .collect();

    ShardPlan {
        effects,
        offenses,
        races,
        verdicts,
        coloc_assocs,
        creatable,
        const_attrs: const_set,
    }
}

// ---------------------------------------------------------------------------
// Renders (the `xtuml analyze` surfaces)
// ---------------------------------------------------------------------------

fn attr_name(domain: &Domain, class: ClassId, attr: AttrId) -> String {
    format!(
        "{}.{}",
        domain.class(class).name,
        domain.class(class).attributes[attr.index()].name
    )
}

fn action_name(domain: &Domain, class: ClassId, state: StateId) -> String {
    let c = domain.class(class);
    let s = c
        .state_machine
        .as_ref()
        .map(|m| m.states[state.index()].name.as_str())
        .unwrap_or("?");
    format!("{}.{}", c.name, s)
}

impl ShardPlan {
    /// The human render: per-action effect summary table, per-class
    /// partition coloring, race witnesses and the admission verdict.
    /// Deterministic for a given model.
    pub fn render_human(&self, domain: &Domain) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "effect analysis for domain `{}`", domain.name);
        let _ = writeln!(out, "action summaries:");
        for eff in &self.effects.actions {
            let mut parts: Vec<String> = Vec::new();
            let mut reads: Vec<String> = Vec::new();
            let mut writes: Vec<String> = Vec::new();
            for a in &eff.accesses {
                let s = format!(
                    "{} [{}]",
                    attr_name(domain, a.class, a.attr),
                    a.receiver.describe(domain)
                );
                let list = if a.write { &mut writes } else { &mut reads };
                if !list.contains(&s) {
                    list.push(s);
                }
            }
            if !reads.is_empty() {
                parts.push(format!("reads {}", reads.join(", ")));
            }
            if !writes.is_empty() {
                parts.push(format!("writes {}", writes.join(", ")));
            }
            if !eff.creates.is_empty() {
                let names: Vec<&str> = eff
                    .creates
                    .iter()
                    .map(|&(c, _)| domain.class(c).name.as_str())
                    .collect();
                parts.push(format!("creates {}", names.join(", ")));
            }
            for (n, label) in [
                (eff.deletes.len(), "delete"),
                (eff.relates.len(), "relate"),
                (eff.unrelates.len(), "unrelate"),
                (eff.selects.len(), "select"),
            ] {
                if n > 0 {
                    parts.push(format!("{label} x{n}"));
                }
            }
            if !eff.sends.is_empty() {
                parts.push(format!("sends {}", eff.sends.len()));
            }
            if eff.actor_sends > 0 {
                parts.push(format!("actor-sends {}", eff.actor_sends));
            }
            if eff.timers_set > 0 {
                parts.push(format!("timers {}", eff.timers_set));
            }
            if eff.timers_cancelled > 0 {
                parts.push(format!("cancels {}", eff.timers_cancelled));
            }
            if eff.bridge_calls > 0 {
                parts.push(format!("bridge-calls {}", eff.bridge_calls));
            }
            let summary = if parts.is_empty() {
                "(pure)".to_owned()
            } else {
                parts.join("; ")
            };
            let _ = writeln!(
                out,
                "  {:<24} {}",
                action_name(domain, eff.class, eff.state),
                summary
            );
        }
        let _ = writeln!(out, "class partition:");
        for (class, verdict) in &self.verdicts {
            let name = &domain.class(*class).name;
            match verdict {
                Verdict::Local => {
                    let _ = writeln!(out, "  {name:<16} shard-local");
                }
                Verdict::Safe(reasons) => {
                    let _ = writeln!(out, "  {name:<16} shard-safe");
                    for r in reasons {
                        let _ = writeln!(out, "    - {r}");
                    }
                }
                Verdict::Unsafe(witness) => {
                    let _ = writeln!(out, "  {name:<16} unsafe ({witness})");
                }
            }
        }
        if !self.coloc_assocs.is_empty() {
            let names: Vec<&str> = self
                .coloc_assocs
                .iter()
                .map(|&r| domain.association(r).name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "runtime precondition: links of {} must be shard-colocated",
                names.join(", ")
            );
        }
        for race in &self.races {
            let _ = writeln!(
                out,
                "race on `{}`: {} {} at {} vs {} {} at {}",
                attr_name(domain, race.class, race.attr),
                action_name(domain, race.a.class, race.a.state),
                if race.a.write { "writes" } else { "reads" },
                race.a.pos,
                action_name(domain, race.b.class, race.b.state),
                if race.b.write { "writes" } else { "reads" },
                race.b.pos,
            );
        }
        let verdict = if self.admitted() {
            if self.uses_admission() {
                "admitted to sharding (non-trivial: admission rules applied)"
            } else {
                "admitted to sharding (self-only)"
            }
        } else {
            "falls back to sequential execution"
        };
        let _ = writeln!(out, "verdict: {verdict}");
        if !self.admitted() {
            for o in &self.offenses {
                let _ = writeln!(out, "  X0015 {} at {}", o.describe(), o.pos);
            }
        }
        out
    }

    /// The `--json` render: one deterministic document with the summary
    /// table, partition coloring, races and runtime preconditions.
    pub fn render_json(&self, domain: &Domain) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"domain\": \"{}\",", esc(&domain.name));
        let _ = writeln!(out, "  \"admitted\": {},", self.admitted());
        let _ = writeln!(out, "  \"uses_admission\": {},", self.uses_admission());
        out.push_str("  \"actions\": [\n");
        for (i, eff) in self.effects.actions.iter().enumerate() {
            let accesses: Vec<String> = eff
                .accesses
                .iter()
                .map(|a| {
                    format!(
                        "{{\"attr\": \"{}\", \"receiver\": \"{}\", \"write\": {}, \
                         \"line\": {}, \"col\": {}}}",
                        esc(&attr_name(domain, a.class, a.attr)),
                        esc(&a.receiver.describe(domain)),
                        a.write,
                        a.pos.line,
                        a.pos.col
                    )
                })
                .collect();
            let _ = write!(
                out,
                "    {{\"action\": \"{}\", \"accesses\": [{}], \"creates\": {}, \
                 \"deletes\": {}, \"relates\": {}, \"unrelates\": {}, \"selects\": {}, \
                 \"sends\": {}, \"actor_sends\": {}, \"timers_set\": {}, \
                 \"timers_cancelled\": {}, \"bridge_calls\": {}}}",
                esc(&action_name(domain, eff.class, eff.state)),
                accesses.join(", "),
                eff.creates.len(),
                eff.deletes.len(),
                eff.relates.len(),
                eff.unrelates.len(),
                eff.selects.len(),
                eff.sends.len(),
                eff.actor_sends,
                eff.timers_set,
                eff.timers_cancelled,
                eff.bridge_calls,
            );
            out.push_str(if i + 1 < self.effects.actions.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"classes\": [\n");
        for (i, (class, verdict)) in self.verdicts.iter().enumerate() {
            let (kind, detail) = match verdict {
                Verdict::Local => ("shard-local", Vec::new()),
                Verdict::Safe(rs) => ("shard-safe", rs.clone()),
                Verdict::Unsafe(w) => ("unsafe", vec![w.clone()]),
            };
            let details: Vec<String> = detail.iter().map(|d| format!("\"{}\"", esc(d))).collect();
            let _ = write!(
                out,
                "    {{\"class\": \"{}\", \"verdict\": \"{}\", \"detail\": [{}]}}",
                esc(&domain.class(*class).name),
                kind,
                details.join(", ")
            );
            out.push_str(if i + 1 < self.verdicts.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let coloc: Vec<String> = self
            .coloc_assocs
            .iter()
            .map(|&r| format!("\"{}\"", esc(&domain.association(r).name)))
            .collect();
        let _ = writeln!(out, "  \"coloc_assocs\": [{}],", coloc.join(", "));
        out.push_str("  \"races\": [\n");
        for (i, race) in self.races.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"attr\": \"{}\", \
                 \"a\": {{\"action\": \"{}\", \"write\": {}, \"line\": {}, \"col\": {}}}, \
                 \"b\": {{\"action\": \"{}\", \"write\": {}, \"line\": {}, \"col\": {}}}}}",
                esc(&attr_name(domain, race.class, race.attr)),
                esc(&action_name(domain, race.a.class, race.a.state)),
                race.a.write,
                race.a.pos.line,
                race.a.pos.col,
                esc(&action_name(domain, race.b.class, race.b.state)),
                race.b.write,
                race.b.pos.line,
                race.b.pos.col,
            );
            out.push_str(if i + 1 < self.races.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"offenses\": [\n");
        for (i, o) in self.offenses.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"class\": \"{}\", \"state\": \"{}\", \"reason\": \"{}\", \
                 \"line\": {}, \"col\": {}}}",
                esc(&o.class),
                esc(&o.state),
                o.reason.key(),
                o.pos.line,
                o.pos.col
            );
            out.push_str(if i + 1 < self.offenses.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DomainBuilder;
    use crate::model::Multiplicity;
    use crate::value::DataType;

    /// Parent reads a child attribute nobody writes: const-replica rule.
    fn const_read_domain() -> Domain {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .attr("acc", DataType::Int)
            .event("Go", &[])
            .state("I", "")
            .state("W", "self.acc = any(self -> C[R1]).k;")
            .initial("I")
            .transition("I", "Go", "W");
        b.class("C")
            .attr("k", DataType::Int)
            .event("Nudge", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "Nudge", "S");
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::One);
        b.build().unwrap()
    }

    #[test]
    fn const_nonself_read_is_admitted() {
        let plan = analyze(&const_read_domain());
        assert!(plan.admitted(), "{:?}", plan.offenses);
        assert!(plan.uses_admission());
        assert!(plan.races.is_empty());
        assert!(plan.coloc_assocs.is_empty(), "const reads need no coloc");
        let d = const_read_domain();
        let c = d.class_id("C").unwrap();
        let k = d.class(c).attr_id("k").unwrap();
        assert!(plan.const_attrs.contains(&(c, k)));
        // P is safe-with-reason, C is local.
        assert!(matches!(plan.verdicts[0].1, Verdict::Safe(_)));
        assert!(matches!(plan.verdicts[1].1, Verdict::Local));
    }

    /// Writes confined to one navigated association: coloc rule, with
    /// the association recorded as a runtime precondition.
    #[test]
    fn single_assoc_nav_write_is_admitted_with_coloc() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .state("I", "")
            .state("W", "any(self -> C[R1]).w = 7;")
            .initial("I")
            .transition("I", "Go", "W");
        b.class("C")
            .attr("w", DataType::Int)
            .event("Nudge", &[])
            .state("S", "x = self.w;")
            .initial("S")
            .transition("S", "Nudge", "S");
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::One);
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(plan.admitted(), "{:?}", plan.offenses);
        assert_eq!(plan.coloc_assocs.len(), 1);
        assert!(plan.races.is_empty());
    }

    /// The same written attribute reached via two different
    /// associations: a genuine race with a two-site witness.
    #[test]
    fn two_assoc_write_paths_race() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .event("Again", &[])
            .state("I", "")
            .state("W1", "any(self -> C[R1]).w = 1;")
            .state("W2", "any(self -> C[R2]).w = 2;")
            .initial("I")
            .transition("I", "Go", "W1")
            .transition("W1", "Again", "W2");
        b.class("C")
            .attr("w", DataType::Int)
            .event("Nudge", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "Nudge", "S");
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::One);
        b.association("R2", "P", Multiplicity::One, "C", Multiplicity::One);
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(!plan.admitted());
        assert_eq!(plan.races.len(), 1, "{:?}", plan.races);
        let race = &plan.races[0];
        assert!(race.a.write);
        // The witness spans two different actions.
        assert_ne!((race.a.class, race.a.state), (race.b.class, race.b.state));
        // Offenses are statement-granular, one per conflicting site
        // (positions are per-action, so the states distinguish them).
        assert_eq!(plan.offenses.len(), 2);
        assert_ne!(plan.offenses[0].state, plan.offenses[1].state);
    }

    /// A write through a `select` binding conflicts with the owner's
    /// self-read: race witness pairing the write with the distant read.
    #[test]
    fn select_write_vs_self_read_races() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .state("I", "")
            .state("W", "select any v from C; v.w = 1;")
            .initial("I")
            .transition("I", "Go", "W");
        b.class("C")
            .attr("w", DataType::Int)
            .event("Nudge", &[])
            .state("S", "x = self.w;")
            .initial("S")
            .transition("S", "Nudge", "S");
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(!plan.admitted());
        assert_eq!(plan.races.len(), 1);
        assert!(matches!(plan.verdicts[0].1, Verdict::Unsafe(_)));
    }

    /// Creation confinement: admitted when nothing selects the created
    /// class, blocked (at the create statement) when something does.
    #[test]
    fn create_admitted_iff_confined() {
        let build = |selects: bool| {
            let mut b = DomainBuilder::new("d");
            let probe = if selects { "select any v from K;" } else { "" };
            b.class("P")
                .event("Go", &[])
                .event("More", &[])
                .state("I", "")
                .state("W", "k = create K;")
                .state("Probe", probe)
                .initial("I")
                .transition("I", "Go", "W")
                .transition("W", "More", "Probe");
            b.class("K").attr("x", DataType::Int);
            b.build().unwrap()
        };
        let confined = analyze(&build(false));
        assert!(confined.admitted(), "{:?}", confined.offenses);
        assert!(confined.uses_admission());
        assert_eq!(confined.creatable.len(), 1);
        let leaky = analyze(&build(true));
        assert!(!leaky.admitted());
        assert_eq!(leaky.offenses.len(), 1);
        assert_eq!(leaky.offenses[0].reason, ShardReason::Creates);
    }

    /// Writes to a created instance ride on the create admission.
    #[test]
    fn created_instance_writes_are_admitted() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .state("I", "")
            .state("W", "k = create K; k.x = 5;")
            .initial("I")
            .transition("I", "Go", "W");
        b.class("K").attr("x", DataType::Int);
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(plan.admitted(), "{:?}", plan.offenses);
        assert!(plan.uses_admission());
    }

    /// Structure mutation stays rejected, with statement positions.
    #[test]
    fn delete_relate_unrelate_stay_offenses() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .state("I", "")
            .state(
                "W",
                "x = any(self -> C[R1]); unrelate self from x across R1; delete x;",
            )
            .initial("I")
            .transition("I", "Go", "W");
        b.class("C").attr("w", DataType::Int);
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::One);
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(!plan.admitted());
        let reasons: Vec<ShardReason> = plan.offenses.iter().map(|o| o.reason).collect();
        assert!(reasons.contains(&ShardReason::Unrelates));
        assert!(reasons.contains(&ShardReason::Deletes));
        assert!(plan.offenses.iter().all(|o| o.pos != Pos::UNKNOWN));
    }

    /// Pure self-attr models stay trivially admitted (regression guard:
    /// the analysis must not be stricter than the old gate).
    #[test]
    fn self_only_model_is_local() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .attr("n", DataType::Int)
            .event("Tick", &[])
            .state("S", "self.n = self.n + 1; gen Tick() to self;")
            .initial("S")
            .transition("S", "Tick", "S");
        let d = b.build().unwrap();
        let plan = analyze(&d);
        assert!(plan.admitted());
        assert!(!plan.uses_admission());
        assert!(matches!(plan.verdicts[0].1, Verdict::Local));
    }

    /// `foreach` over a self navigation keeps the `Via` shape.
    #[test]
    fn foreach_nav_binding_keeps_via_shape() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .attr("acc", DataType::Int)
            .event("Go", &[])
            .state("I", "")
            .state(
                "W",
                "foreach c in self -> C[R1] { self.acc = self.acc + c.k; }",
            )
            .initial("I")
            .transition("I", "Go", "W");
        b.class("C").attr("k", DataType::Int);
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::Many);
        let d = b.build().unwrap();
        let effects = ModelEffects::gather(&d);
        let w = &effects.actions[1];
        let c = d.class_id("C").unwrap();
        let k = d.class(c).attr_id("k").unwrap();
        assert!(w
            .accesses
            .iter()
            .any(|a| a.class == c && a.attr == k && matches!(a.receiver, Receiver::Via(_))));
        // And it is admitted: `k` is const.
        assert!(analyze(&d).admitted());
    }

    /// Send sites carry the inferred target class, event and timer flag
    /// in one model-wide list; deletes and relate operands carry their
    /// inferred classes.
    #[test]
    fn footprints_carry_inferred_classes() {
        let mut b = DomainBuilder::new("d");
        b.class("P")
            .event("Go", &[])
            .state("I", "")
            .state(
                "W",
                "c = any(self -> C[R1]); gen Nudge() to c after 5; \
                 unrelate self from c across R1; delete c; gen Go() to self;",
            )
            .initial("I")
            .transition("I", "Go", "W")
            .transition("W", "Go", "W");
        b.class("C")
            .event("Nudge", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "Nudge", "S");
        b.association("R1", "P", Multiplicity::One, "C", Multiplicity::One);
        let d = b.build().unwrap();
        let (p, c) = (d.class_id("P").unwrap(), d.class_id("C").unwrap());
        let effects = ModelEffects::gather(&d);
        let w = &effects.actions[1];
        let sends = effects.sends_of(w);
        assert_eq!(sends.len(), 2);
        assert_eq!((sends[0].target, sends[0].after), (Some(c), true));
        assert_eq!(sends[0].event, d.class(c).event_id("Nudge"));
        assert_eq!((sends[1].target, sends[1].after), (Some(p), false));
        assert!(sends.iter().all(|s| s.unresolved.is_none()));
        assert_eq!(w.deletes[0].0, Some(c));
        assert_eq!(w.unrelates[0].0, [Some(p), Some(c)]);
        assert!(effects.sends_of(&effects.actions[0]).is_empty());
    }

    /// Renders are deterministic and name the key facts.
    #[test]
    fn renders_are_deterministic() {
        let d = const_read_domain();
        let plan = analyze(&d);
        let h1 = plan.render_human(&d);
        let h2 = analyze(&d).render_human(&d);
        assert_eq!(h1, h2);
        assert!(h1.contains("shard-safe"), "{h1}");
        assert!(h1.contains("admitted to sharding"), "{h1}");
        let j = plan.render_json(&d);
        assert!(j.contains("\"admitted\": true"), "{j}");
        assert!(j.contains("\"uses_admission\": true"), "{j}");
    }

    /// `const_attrs` is exactly the never-written set.
    #[test]
    fn const_attrs_excludes_written() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .attr("w", DataType::Int)
            .attr("k", DataType::Int)
            .event("Tick", &[])
            .state("S", "self.w = self.k;")
            .initial("S")
            .transition("S", "Tick", "S");
        let d = b.build().unwrap();
        let consts = analyze(&d).const_attrs;
        let c = d.class_id("C").unwrap();
        assert!(!consts.contains(&(c, d.class(c).attr_id("w").unwrap())));
        assert!(consts.contains(&(c, d.class(c).attr_id("k").unwrap())));
    }
}
