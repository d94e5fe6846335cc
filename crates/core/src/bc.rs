//! Register-based bytecode for state actions, and the VM that runs them:
//! the workspace's one action executor.
//!
//! [`BcProgram::new`] lowers every event-reachable state action of a
//! domain straight from its parsed [`Block`] into a contiguous
//! instruction stream executed by a `match`-threaded dispatch loop
//! ([`run_bc`]). Names resolve as the lowering emits: variables and event
//! parameters become frame slots (parameters first, positionally; locals
//! at their first textual binding), and attributes, associations,
//! classes, events and actors become their typed ids, resolved against
//! the best-known static class of each expression. Registers are the
//! frame slots plus compiler temporaries above them, so the VM reuses the
//! caller's recycled `Vec<Option<Value>>` frame.
//!
//! The lowering is **semantics-exact**: an action burns one fuel unit per
//! statement and per expression node, in the same order relative to every
//! fallible check and every host effect as a direct walk of the block, so
//! error identity (fuel exhaustion vs unbound slot vs runtime error) is
//! preserved at exact fuel boundaries. Burns are merged into an
//! instruction's entry `fuel` only when nothing fallible or effectful
//! separates them; otherwise fused handlers burn internally between their
//! checks. The unit tests hold the VM to a test-only tree walker of the
//! AST at every fuel level.
//!
//! **Superinstructions** collapse the dominant traffic shapes measured on
//! the pipeline/doorbell workloads: `self.a = self.a op <lit>`
//! ([`Op::SelfAttrOpConst`]), literal-payload sends ([`Op::SendSelfLit`]
//! and friends, payloads pooled as `Arc<[Value]>` shared with the signal
//! queue), slot/const binops, guard-and-branch fusions, and a
//! navigate-then-`gen … to any(...)` peephole ([`Op::NavFirst`] +
//! [`Op::SendFirstTo`]) that elides the per-dispatch `Vec` materialisation
//! and dedup of the navigation.
//!
//! A block with a name that does not resolve keeps that error, raised
//! when — and only when — its pair is dispatched. A construct that cannot
//! be encoded (a frame needing more than `u16::MAX` registers, or a pool
//! outgrowing the 16-bit operands) is a model error too: [`BcProgram::new`]
//! stores it as diagnostic X0016 (`bc-unsupported`) in that action's
//! entry, raised the same way.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::action::{Block, Expr, GenTarget, LValue, Stmt};
use crate::diag::Code;
use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
use crate::interp::{ActionHost, ExecCtx, Outcome};
use crate::model::{Domain, TransitionTarget};
use crate::value::{apply_binop, apply_unop, BinOp, DataType, UnOp, Value};

/// Bytecode operations. Operand conventions per variant are documented as
/// `a`/`b`/`c` (`u16`) and `d` (`i32`: relative jump displacement or a
/// 32-bit id payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operand roles documented per-variant below
pub enum Op {
    /// Burn `fuel` and nothing else (loop-header flushes).
    Fuel,
    /// `a = consts[b]`.
    Const,
    /// `a = frame[b]` (unbound-checked slot read, clones).
    LoadSlot,
    /// `a = self`.
    LoadSelf,
    /// `a = selected` (errors outside a `where` clause).
    LoadSelected,
    /// `a = self.attr(d)`.
    AttrSelf,
    /// `a = reg(b).attr(d)` (as_inst-checked).
    AttrReg,
    /// `a = self -> class(d)[assoc(b)]` (dedup'd set).
    NavSelf,
    /// `a = reg(b) -> class(d)[assoc(c)]` (full navigation semantics).
    NavReg,
    /// `a = unop(c) frame[b]` — by-reference slot operand fast path.
    UnarySlot,
    /// `a = unop(c) reg(b)`.
    UnaryReg,
    /// `a = reg(b) binop(d) reg(c)`.
    BinRR,
    /// `a = frame[b] binop(d) consts[c]` (fused; internal burn).
    BinSC,
    /// `a = consts[b] binop(d) frame[c]` (fused).
    BinCS,
    /// `a = frame[b] binop(d) frame[c]` (fused; internal burn).
    BinSS,
    /// `reg(a).as_inst()?` — ordering check between operand evaluations.
    CheckInst,
    /// `frame[a] = create class(d)`.
    CreateI,
    /// `delete reg(a)`.
    DeleteI,
    /// `frame[a] = select any from class(d)` (no filter).
    SelAny,
    /// `frame[a] = select many from class(d)` (no filter).
    SelMany,
    /// Filtered `select any` init: temps `a`=candidates, `a+1`=index.
    SelFInit,
    /// Filtered `select any` loop head: bind `selected`, exit to `d`.
    /// `a`=dest slot, `b`=candidate base temp.
    SelIterA,
    /// Filtered `select any` take: test filter reg `b`, else jump `d`.
    SelTakeA,
    /// Filtered `select many` init: temps `a`=cands, `a+1`=idx, `a+2`=acc.
    SelFInitM,
    /// Filtered `select many` loop head; `a`=dest slot, `b`=base, exit `d`.
    SelIterM,
    /// Filtered `select many` take: accumulate if reg `b`, jump `d`.
    SelTakeM,
    /// `relate reg(a) to reg(b) across assoc(d)`.
    RelateI,
    /// `unrelate reg(a) from reg(b) across assoc(d)`.
    UnrelateI,
    /// `gen event(d)(regs b..b+c) to reg(a)`.
    SendR,
    /// Delayed send; delay value in reg `b+c`.
    SendDelayedR,
    /// `gen event(d)(regs b..b+c) to actor(a)`.
    SendActorR,
    /// `gen event(d)(regs b..b+c) to self`.
    SendSelf,
    /// `gen event(d)(regs b..b+c) to frame[a]`.
    SendSlot,
    /// `gen event(d)(regs b..b+c) to any(frame[a])`.
    SendAnySlot,
    /// `gen event(d)(payloads[b]) to self` — pooled literal payload.
    SendSelfLit,
    /// `gen event(d)(payloads[b]) to frame[a]`.
    SendSlotLit,
    /// `gen event(d)(payloads[b]) to any(frame[a])`.
    SendAnySlotLit,
    /// `gen event(d)(payloads[b]) to actor(a)`.
    SendActorLit,
    /// `gen event(d)(regs b..b+c) to any(reg(a))` where reg(a) holds the
    /// first navigation hit from [`Op::NavFirst`].
    SendFirstTo,
    /// `reg(a) = first related across assoc(b) from self`, as
    /// `Inst(class(d), first)` — allocation-free navigation peephole.
    NavFirst,
    /// `gen event(d & 0xFFFF)([frame[b] binop(d >> 16) consts[c]]) to
    /// frame[a]` — fused single-argument payload compute + send, the
    /// dominant traffic shape (every pipeline/ring hop forwards
    /// `counter op literal`).
    SendSlotOpC,
    /// Payload as [`Op::SendSlotOpC`], sent to `any(frame[a])`.
    SendAnyOpC,
    /// Payload as [`Op::SendSlotOpC`], sent to the navigation hit left
    /// in `reg(a)` by [`Op::NavFirst`].
    SendFirstOpC,
    /// `cancel event(d)` (delayed signals to self).
    CancelI,
    /// `a = bridges[d](regs b..b+c)`.
    CallBridge,
    /// `self.attr(d) = reg(b)`.
    StAttrSelf,
    /// `reg(a).attr(d) = reg(b)`.
    StAttrReg,
    /// `self.attr(d) = consts[b]`.
    StAttrSelfConst,
    /// `self.attr(d) = self.attr(a) binop(c) consts[b]` — the
    /// increment/accumulate superinstruction.
    SelfAttrOpConst,
    /// Unconditional relative jump to `d`.
    Jump,
    /// Jump to `d` unless reg(a) is `true` (as_bool-checked).
    JumpIfFalse,
    /// Guard fusion: jump to `d` unless `frame[a] binop(c) consts[b]`.
    JmpSCFalse,
    /// Guard fusion: jump to `d` unless `frame[a] binop(c) frame[b]`.
    JmpSSFalse,
    /// `foreach` loop head: `a`=bind slot, `b`=set reg, `c`=index reg,
    /// exhaust exit to `d`.
    ForIter,
    /// `return;`
    Ret,
    /// End of action (completed).
    Halt,
    /// `break;` outside any loop (runtime error, after burning).
    ErrBreak,
    /// `continue;` outside any loop (runtime error, after burning).
    ErrContinue,
}

/// One bytecode instruction: opcode, three short operands, one wide
/// operand (`d`: relative jump displacement or 32-bit id), and the fuel
/// burned on entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// First short operand (usually the destination register).
    pub a: u16,
    /// Second short operand.
    pub b: u16,
    /// Third short operand.
    pub c: u16,
    /// Wide operand: relative jump target (`pc + 1 + d`) or an id index.
    pub d: i32,
    /// Fuel burned before the operation executes (merged from the
    /// interpreter's per-node burns where exactness allows).
    pub fuel: u32,
}

/// A lowered action: flat code, pools, and the register file size.
#[derive(Debug, Clone)]
pub struct BcAction {
    /// The instruction stream; always ends in [`Op::Halt`].
    pub code: Vec<Instr>,
    /// Literal pool.
    pub consts: Vec<Value>,
    /// Pooled literal signal payloads, shared with the send queue.
    pub payloads: Vec<Arc<[Value]>>,
    /// Bridge-call targets (actor, function name).
    pub bridges: Vec<(ActorId, String)>,
    /// Register file size: frame slots `0..layout.len()` then temporaries.
    pub n_regs: usize,
    /// Static class of `self`.
    pub self_class: ClassId,
    /// Slot layout (for unbound-read diagnostics).
    pub layout: FrameLayout,
    /// Self-attribute reads folded to constants because the effect
    /// analysis proved the attribute is written nowhere in the model.
    pub const_folds: u32,
}

impl BcAction {
    /// True when running this action can have no observable effect:
    /// every instruction is pure fuel accounting or the terminator.
    /// Fuel and step counts live in a per-dispatch [`ExecCtx`] and are
    /// discarded on return (an empty body can never exhaust
    /// `DEFAULT_FUEL`), so executors may skip the VM entirely for such
    /// actions.
    pub fn is_nop(&self) -> bool {
        self.code
            .iter()
            .all(|i| matches!(i.op, Op::Fuel | Op::Halt))
    }
}

/// Index of a variable or parameter in the execution frame.
pub type Slot = usize;

/// The frame layout of a lowered action: which name lives in which slot.
///
/// Event parameters occupy slots `0..params()` positionally (matching the
/// argument order of the triggering event); locals follow in
/// first-textual-binding order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameLayout {
    names: Vec<String>,
    params: usize,
}

impl FrameLayout {
    /// Total number of slots (parameters + locals).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the frame holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of event-parameter slots (always the first slots).
    pub fn params(&self) -> usize {
        self.params
    }

    /// The name bound to a slot.
    pub fn name(&self, slot: Slot) -> &str {
        &self.names[slot]
    }

    /// Finds the slot of a local variable or parameter by name (locals
    /// shadow parameters).
    pub fn slot(&self, name: &str) -> Option<Slot> {
        // Search locals first, then parameters.
        self.names[self.params..]
            .iter()
            .position(|n| n == name)
            .map(|i| i + self.params)
            .or_else(|| self.names[..self.params].iter().position(|n| n == name))
    }
}

#[derive(Debug, Clone, Default)]
struct BcClass {
    n_events: usize,
    entries: Vec<Option<Result<Arc<BcAction>>>>,
}

/// All lowered actions of a domain, keyed by `(class, entry state,
/// triggering event)` and indexed `state * n_events + event` per class.
///
/// Only `(state, event)` pairs reachable through a transition are
/// lowered: a state's entry action runs exactly when an event drives a
/// transition into it (creation enters the initial state silently), and
/// the frame layout depends on the triggering event's parameters.
#[derive(Debug, Clone, Default)]
pub struct BcProgram {
    classes: Vec<BcClass>,
}

impl BcProgram {
    /// Lowers every event-reachable state action of `domain`.
    /// Construction is infallible: a pair whose block has a name that
    /// does not resolve keeps that error, and a pair the lowering cannot
    /// encode stores an X0016 error naming the action and the reason.
    /// Either is raised when — and only when — the pair is dispatched.
    ///
    /// `const_attrs` are the whole-model constant-attribute facts of the
    /// effect analysis ([`ShardPlan::const_attrs`](crate::effects::ShardPlan::const_attrs)):
    /// an attribute written nowhere always holds its declared default, so
    /// `self.attr` reads of it lower to `Op::Const`.
    pub fn new(domain: &Domain, const_attrs: &BTreeSet<(ClassId, AttrId)>) -> BcProgram {
        let folds = const_fold_maps(domain, const_attrs);
        let classes = domain
            .classes
            .iter()
            .zip(&folds)
            .enumerate()
            .map(|(ci, (class, consts))| {
                let Some(machine) = class.state_machine.as_ref() else {
                    return BcClass::default();
                };
                let n_events = class.events.len();
                let mut entries = vec![None; machine.states.len() * n_events];
                for t in &machine.transitions {
                    let TransitionTarget::To(state) = t.target else {
                        continue;
                    };
                    let idx = state.index() * n_events + t.event.index();
                    if entries[idx].is_none() {
                        let params = &class.events[t.event.index()].params;
                        let block = &machine.state(state).action;
                        let self_class = ClassId::new(ci as u32);
                        entries[idx] = Some(
                            lower_block(domain, self_class, params, block, consts).and_then(|r| {
                                r.map(Arc::new)
                                    .map_err(|why| unsupported(domain, ci, idx, n_events, &why))
                            }),
                        );
                    }
                }
                BcClass { n_events, entries }
            })
            .collect();
        BcProgram { classes }
    }

    /// The lowered action entered when `event` drives `class` into
    /// `state`, or `None` if no transition produces that pair.
    ///
    /// # Errors
    ///
    /// Returns the resolution or X0016 lowering error recorded for the
    /// pair.
    #[inline]
    pub fn entry(
        &self,
        class: ClassId,
        state: StateId,
        event: EventId,
    ) -> Option<Result<&Arc<BcAction>>> {
        let cc = self.classes.get(class.index())?;
        let entry = cc
            .entries
            .get(state.index() * cc.n_events + event.index())?;
        entry.as_ref().map(|r| r.as_ref().map_err(CoreError::clone))
    }

    /// The errors recorded for pairs that have no lowered action.
    pub fn errors(&self) -> impl Iterator<Item = &CoreError> {
        self.classes
            .iter()
            .flat_map(|c| c.entries.iter())
            .filter_map(|e| e.as_ref()?.as_ref().err())
    }

    /// Total lowered (VM-executable) entries.
    pub fn vm_entries(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| c.entries.iter())
            .filter(|e| matches!(e, Some(Ok(_))))
            .count()
    }

    /// Total self-attribute reads folded to constants across all lowered
    /// actions, using the effect analysis as the fact source.
    pub fn const_folds(&self) -> u32 {
        self.classes
            .iter()
            .flat_map(|c| c.entries.iter())
            .filter_map(|e| Some(e.as_ref()?.as_ref().ok()?.const_folds))
            .sum()
    }
}

/// The X0016 error for the action at `idx` of class `ci`, which the
/// lowering cannot encode for the reason `why`.
fn unsupported(domain: &Domain, ci: usize, idx: usize, n_events: usize, why: &str) -> CoreError {
    let class = &domain.classes[ci];
    let state = class
        .state_machine
        .as_ref()
        .map_or("?", |m| m.states[idx / n_events].name.as_str());
    CoreError::validate(format!(
        "{} {}: action {}.{state} on {} cannot be lowered to bytecode: {why}",
        Code::BcUnsupported.as_str(),
        Code::BcUnsupported.name(),
        class.name,
        class.events[idx % n_events].name
    ))
}

/// Per-class maps from attribute index to declared default, restricted to
/// attributes the effect analysis proves constant (written nowhere in the
/// model).
fn const_fold_maps(
    domain: &Domain,
    const_attrs: &BTreeSet<(ClassId, AttrId)>,
) -> Vec<BTreeMap<AttrId, Value>> {
    let mut maps = vec![BTreeMap::new(); domain.classes.len()];
    for &(class, attr) in const_attrs {
        let default = domain.classes[class.index()].attributes[attr.index()]
            .default
            .clone();
        maps[class.index()].insert(attr, default);
    }
    maps
}

// -- lowering --------------------------------------------------------------

struct LoopCtx {
    /// Instruction index `continue` jumps back to.
    continue_to: usize,
    /// Forward-jump sites to patch to the loop exit.
    breaks: Vec<usize>,
}

struct Lower<'a> {
    domain: &'a Domain,
    /// Class whose state machine owns the action (static type of `self`).
    self_class: ClassId,
    /// Slot names; `0..params` are event parameters. Filled once the
    /// scan has found every local.
    names: Vec<String>,
    params: usize,
    /// Slot of every local of the block, by name (see [`Lower::scan`]).
    locals: BTreeMap<&'a str, Slot>,
    /// Best-known static type per slot bound so far (`None` once a slot
    /// is rebound with a different type — only possible in unvalidated
    /// blocks). A local is in scope once its slot is below `types.len()`:
    /// locals are bound in slot order.
    types: Vec<Option<DataType>>,
    /// Stack of candidate classes for nested `where` clauses.
    selected: Vec<ClassId>,
    /// Read count per local (slot minus `params`) over the whole block
    /// (peephole legality).
    reads: Vec<u32>,
    /// Declared defaults of provably-const `self` attributes; `None` when
    /// there are none or the block contains a `delete` (a read after
    /// deleting `self` must still raise, exactly as the walker does).
    fold: Option<&'a BTreeMap<AttrId, Value>>,
    /// Count of self-attribute reads folded to constants.
    folds: u32,
    code: Vec<Instr>,
    consts: Vec<Value>,
    payloads: Vec<Arc<[Value]>>,
    bridges: Vec<(ActorId, String)>,
    /// Next scratch temporary (reset per statement, to `floor`).
    next_temp: usize,
    /// Temporaries below this survive across statements (loop state).
    floor: usize,
    /// Register-file high-water mark.
    high: usize,
    loops: Vec<LoopCtx>,
    /// The first operand that overflowed its 16-bit field. Lowering goes
    /// on past it, so a name that fails to resolve later in the block
    /// still takes precedence.
    overflow: Option<String>,
}

/// Lowers one action block, run with `self` of class `self_class` and
/// the triggering event's positional `params`, folding `self` reads of
/// the attributes in `const_attrs` (the action class's provably-const
/// attributes and their declared defaults) to constants at the same fuel
/// as the `AttrSelf` fast path.
///
/// # Errors
///
/// The outer error is the first name the lowering meets that does not
/// resolve ([`CoreError::Unresolved`]), or a statically detectable misuse
/// ([`CoreError::Runtime`]: arity mismatches, navigating to the wrong
/// class, `after` on actor signals). The inner error is the reason a
/// block that resolves cannot be encoded (operand-width overflow), which
/// [`BcProgram::new`] turns into an X0016 error for that action.
pub(crate) fn lower_block(
    domain: &Domain,
    self_class: ClassId,
    params: &[(String, DataType)],
    block: &Block,
    const_attrs: &BTreeMap<AttrId, Value>,
) -> Result<Result<BcAction, String>> {
    let mut lw = Lower {
        domain,
        self_class,
        names: Vec::new(),
        params: params.len(),
        locals: BTreeMap::new(),
        types: params.iter().map(|(_, t)| Some(*t)).collect(),
        selected: Vec::new(),
        reads: Vec::new(),
        fold: Some(const_attrs).filter(|c| !c.is_empty()),
        folds: 0,
        code: Vec::new(),
        consts: Vec::new(),
        payloads: Vec::new(),
        bridges: Vec::new(),
        next_temp: 0,
        floor: 0,
        high: 0,
        loops: Vec::new(),
        overflow: None,
    };
    lw.scan(block);
    let slots = lw.params + lw.locals.len();
    // Sized once: the layout lives as long as the program does.
    lw.names.reserve_exact(slots);
    lw.names.extend(params.iter().map(|(n, _)| n.clone()));
    lw.names.resize(slots, String::new());
    for (name, &slot) in &lw.locals {
        lw.names[slot] = (*name).to_owned();
    }
    (lw.next_temp, lw.floor, lw.high) = (slots, slots, slots);
    // Every slot must itself be addressable.
    lw.u16(slots, "frame slot");
    lw.stmt_list(&block.stmts, 1)?;
    lw.emit(Op::Halt, 0, 0, 0, 0, 0);
    if let Some(why) = lw.overflow {
        return Ok(Err(why));
    }
    Ok(Ok(BcAction {
        code: lw.code,
        consts: lw.consts,
        payloads: lw.payloads,
        bridges: lw.bridges,
        n_regs: lw.high,
        self_class,
        layout: FrameLayout {
            names: lw.names,
            params: lw.params,
        },
        const_folds: lw.folds,
    }))
}

/// Packs a binop code and an event index into the `d` operand of the
/// fused payload-compute sends: binop in the high half, event in the
/// low. `None` when either overflows its half — the caller falls back
/// to the unfused sequence, so the limit is a deoptimisation, not an
/// error.
fn pack_op_event(op: BinOp, event: EventId) -> Option<i32> {
    let opc = binop_code(op);
    let ev = event.index();
    if opc < 0x8000 && ev <= 0xFFFF {
        Some((i32::from(opc) << 16) | ev as i32)
    } else {
        None
    }
}

fn binop_code(op: BinOp) -> u16 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn binop_from(c: u16) -> BinOp {
    match c {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        _ => BinOp::Or,
    }
}

fn unop_code(op: UnOp) -> u16 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::Cardinality => 2,
        UnOp::Empty => 3,
        UnOp::NotEmpty => 4,
        UnOp::Any => 5,
        UnOp::ToInt => 6,
        UnOp::ToReal => 7,
        UnOp::ToStr => 8,
    }
}

fn unop_from(c: u16) -> UnOp {
    match c {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::Cardinality,
        3 => UnOp::Empty,
        4 => UnOp::NotEmpty,
        5 => UnOp::Any,
        6 => UnOp::ToInt,
        7 => UnOp::ToReal,
        _ => UnOp::ToStr,
    }
}

fn id_d(idx: usize) -> i32 {
    idx as u32 as i32
}

/// Whether `e` reads a frame slot: a variable or an event parameter.
fn is_slot(e: &Expr) -> bool {
    matches!(e, Expr::Var(_) | Expr::Param(_))
}

/// The static type of `any(e)` for `e` of type `ty`, which is also the
/// type a `foreach` binds for each element.
fn any_type(ty: Option<DataType>) -> Option<DataType> {
    ty.and_then(DataType::class).map(DataType::Inst)
}

/// The dominant computed-payload shape: exactly one argument of the
/// form `slot binop literal` (profile: every pipeline, ring, and fan-out
/// hop forwards a counter this way). Returns the pieces the fused send
/// ops need, or `None` to take the generic path.
fn fused_send_arg(args: &[Expr]) -> Option<(&Expr, &Value, BinOp)> {
    match args {
        [Expr::Binary(op, a, b)] if is_slot(a) => match &**b {
            Expr::Lit(v) => Some((a, v, *op)),
            _ => None,
        },
        _ => None,
    }
}

fn all_lit(args: &[Expr]) -> bool {
    args.iter().all(|a| matches!(a, Expr::Lit(_)))
}

/// The targets the fused send ops address directly.
enum SendTo<'e> {
    /// `self`.
    SelfInst,
    /// A variable or parameter.
    Slot(&'e Expr),
    /// `any(..)` of a variable or parameter.
    Any(&'e Expr),
}

impl SendTo<'_> {
    fn of(target: &Expr) -> Option<SendTo<'_>> {
        match target {
            Expr::SelfRef => Some(SendTo::SelfInst),
            Expr::Unary(UnOp::Any, e) if is_slot(e) => Some(SendTo::Any(e)),
            _ if is_slot(target) => Some(SendTo::Slot(target)),
            _ => None,
        }
    }
}

fn check_arity(params: &[(String, DataType)], got: usize, event: &str) -> Result<()> {
    if params.len() != got {
        return Err(CoreError::runtime(format!(
            "event `{event}` takes {} argument(s), got {got}",
            params.len()
        )));
    }
    Ok(())
}

fn resolve_attr(domain: &Domain, class: ClassId, name: &str) -> Result<AttrId> {
    domain
        .class(class)
        .attr_id(name)
        .ok_or_else(|| CoreError::Unresolved {
            kind: "attribute",
            name: format!("{}.{name}", domain.class(class).name),
        })
}

fn resolve_event(domain: &Domain, class: ClassId, name: &str) -> Result<EventId> {
    domain
        .class(class)
        .event_id(name)
        .ok_or_else(|| CoreError::Unresolved {
            kind: "event",
            name: format!("{}.{name}", domain.class(class).name),
        })
}

impl<'a> Lower<'a> {
    // -- scope -------------------------------------------------------------

    /// Gives every local a slot at its first textual binding and counts
    /// each local's reads, before anything is emitted: temporaries sit
    /// above the last slot, and the navigation peephole needs whole-block
    /// read counts. Emission binds in the same order, so the two agree.
    /// A `delete` anywhere turns the const-attribute fold off.
    fn scan(&mut self, block: &'a Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { lhs, expr, .. } => {
                    self.scan_expr(expr);
                    match lhs {
                        LValue::Var(name) => self.declare(name),
                        LValue::Attr(base, _) => self.scan_expr(base),
                    }
                }
                Stmt::Create { var, .. } => self.declare(var),
                Stmt::Delete { expr, .. } => {
                    self.fold = None;
                    self.scan_expr(expr);
                }
                Stmt::SelectAny { var, filter, .. } | Stmt::SelectMany { var, filter, .. } => {
                    if let Some(f) = filter {
                        self.scan_expr(f);
                    }
                    self.declare(var);
                }
                Stmt::Relate { a, b, .. } | Stmt::Unrelate { a, b, .. } => {
                    self.scan_expr(a);
                    self.scan_expr(b);
                }
                Stmt::Generate {
                    args,
                    target,
                    delay,
                    ..
                } => {
                    args.iter().for_each(|a| self.scan_expr(a));
                    // A bare name that is no local yet is an actor, not a
                    // read: `scan_expr` counts only declared locals.
                    if let GenTarget::Inst(e) = target {
                        self.scan_expr(e);
                    }
                    if let Some(d) = delay {
                        self.scan_expr(d);
                    }
                }
                Stmt::If {
                    arms, otherwise, ..
                } => {
                    for (cond, body) in arms {
                        self.scan_expr(cond);
                        self.scan(body);
                    }
                    if let Some(body) = otherwise {
                        self.scan(body);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    self.scan_expr(cond);
                    self.scan(body);
                }
                Stmt::ForEach { var, set, body, .. } => {
                    self.scan_expr(set);
                    self.declare(var);
                    self.scan(body);
                }
                Stmt::ExprStmt { expr, .. } => self.scan_expr(expr),
                Stmt::Cancel { .. }
                | Stmt::Break { .. }
                | Stmt::Continue { .. }
                | Stmt::Return { .. } => {}
            }
        }
    }

    fn scan_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var(name) => {
                if let Some(&slot) = self.locals.get(name.as_str()) {
                    self.reads[slot - self.params] += 1;
                }
            }
            Expr::Attr(base, _) | Expr::Nav(base, ..) | Expr::Unary(_, base) => {
                self.scan_expr(base);
            }
            Expr::Binary(_, a, b) => {
                self.scan_expr(a);
                self.scan_expr(b);
            }
            Expr::BridgeCall(_, _, args) => args.iter().for_each(|a| self.scan_expr(a)),
            Expr::Lit(_) | Expr::SelfRef | Expr::Selected | Expr::Param(_) => {}
        }
    }

    fn declare(&mut self, name: &'a str) {
        if let Entry::Vacant(e) = self.locals.entry(name) {
            e.insert(self.params + self.reads.len());
            self.reads.push(0);
        }
    }

    /// Finds a local variable's slot, if it is bound at this point of the
    /// block (parameters are not visible as bare variables: they live in
    /// a separate namespace).
    fn local(&self, name: &str) -> Option<Slot> {
        self.locals
            .get(name)
            .copied()
            .filter(|&slot| slot < self.types.len())
    }

    /// Binds a local, bringing its slot into scope at its first binding.
    fn bind(&mut self, name: &str, ty: Option<DataType>) -> Slot {
        let slot = self.locals[name];
        match self.types.get_mut(slot) {
            Some(known) if *known != ty => *known = None,
            Some(_) => {}
            None => self.types.push(ty),
        }
        slot
    }

    /// Resolves a variable or parameter read to its slot.
    fn slot(&self, e: &Expr) -> Result<Slot> {
        match e {
            Expr::Var(name) => self
                .local(name)
                .ok_or_else(|| CoreError::unresolved("variable", name.clone())),
            Expr::Param(name) => self.names[..self.params]
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| CoreError::unresolved("event parameter", name.clone())),
            _ => unreachable!("only variables and parameters read slots"),
        }
    }

    fn class_of(&self, ty: Option<DataType>, e: &Expr) -> Result<ClassId> {
        ty.and_then(DataType::class).ok_or_else(|| {
            CoreError::runtime(format!(
                "cannot statically resolve the class of `{e}` (expected an instance-typed \
                 expression)"
            ))
        })
    }

    /// Resolves `base -> class[assoc]`, given the static type of `base`,
    /// to the association and the class reached.
    fn nav(
        &self,
        base_ty: Option<DataType>,
        base: &Expr,
        class: &str,
        assoc: &str,
    ) -> Result<(AssocId, ClassId)> {
        let assoc_id = self.domain.assoc_id(assoc)?;
        let want = self.domain.class_id(class)?;
        let src = self.class_of(base_ty, base)?;
        let target = self.domain.nav_target(assoc_id, src)?;
        if target != want {
            return Err(CoreError::runtime(format!(
                "association {assoc} from {} reaches {}, not {class}",
                self.domain.class(src).name,
                self.domain.class(target).name,
            )));
        }
        Ok((assoc_id, want))
    }

    /// Resolves `event` against the static class `ty` of a send's
    /// `target` and checks the argument count.
    fn inst_event(
        &self,
        ty: Option<DataType>,
        target: &Expr,
        event: &str,
        nargs: usize,
    ) -> Result<EventId> {
        let class = self.class_of(ty, target)?;
        let ev = resolve_event(self.domain, class, event)?;
        check_arity(
            &self.domain.class(class).events[ev.index()].params,
            nargs,
            event,
        )?;
        Ok(ev)
    }

    /// Resolves a fused send's target: its register operand (`0` for
    /// `self`) and the event it receives.
    fn send_target(
        &mut self,
        to: &SendTo,
        target: &Expr,
        event: &str,
        nargs: usize,
    ) -> Result<(u16, EventId)> {
        let (reg, ty) = match to {
            SendTo::SelfInst => (0, Some(DataType::Inst(self.self_class))),
            SendTo::Slot(e) => {
                let s = self.slot(e)?;
                (self.slot16(s), self.types[s])
            }
            SendTo::Any(e) => {
                let s = self.slot(e)?;
                (self.slot16(s), any_type(self.types[s]))
            }
        };
        Ok((reg, self.inst_event(ty, target, event, nargs)?))
    }

    /// Resolves an actor send: the actor and its event, checking that the
    /// send is not delayed and the argument count.
    fn actor_event(
        &self,
        actor: &str,
        event: &str,
        nargs: usize,
        delayed: bool,
    ) -> Result<(ActorId, EventId)> {
        let actor = self.domain.actor_id(actor)?;
        if delayed {
            return Err(CoreError::runtime(
                "`after` is only valid for instance-directed signals",
            ));
        }
        let decl = self.domain.actor(actor);
        let ev = decl
            .event_id(event)
            .ok_or_else(|| CoreError::unresolved("actor event", event))?;
        check_arity(&decl.events[ev.index()].params, nargs, event)?;
        Ok((actor, ev))
    }

    // -- emission ----------------------------------------------------------

    /// `x` as a 16-bit operand. An overflow is recorded (the first one
    /// becomes the X0016 reason) and lowering goes on with a truncated
    /// operand that is never executed.
    fn u16(&mut self, x: usize, what: &str) -> u16 {
        u16::try_from(x).unwrap_or_else(|_| {
            self.overflow
                .get_or_insert_with(|| format!("{what} index {x} exceeds the u16 operand limit"));
            x as u16
        })
    }

    fn emit(&mut self, op: Op, a: u16, b: u16, c: u16, d: i32, fuel: u32) -> usize {
        self.code.push(Instr {
            op,
            a,
            b,
            c,
            d,
            fuel,
        });
        self.code.len() - 1
    }

    /// Patches a forward jump at `site` to land on the *next* emitted
    /// instruction.
    fn patch_here(&mut self, site: usize) {
        let target = self.code.len();
        self.code[site].d = (target as i64 - site as i64 - 1) as i32;
    }

    fn back_jump(&self, site: usize, target: usize) -> i32 {
        (target as i64 - site as i64 - 1) as i32
    }

    fn temp(&mut self) -> u16 {
        let r = self.next_temp;
        self.next_temp += 1;
        if self.next_temp > self.high {
            self.high = self.next_temp;
        }
        self.u16(r, "register")
    }

    fn const_idx(&mut self, v: &Value) -> u16 {
        let idx = match self.consts.iter().position(|c| c == v) {
            Some(i) => i,
            None => {
                self.consts.push(v.clone());
                self.consts.len() - 1
            }
        };
        self.u16(idx, "constant")
    }

    fn payload_idx(&mut self, args: &[Expr]) -> u16 {
        let vals: Vec<Value> = args
            .iter()
            .map(|a| match a {
                Expr::Lit(v) => v.clone(),
                _ => unreachable!("payload pooling requires literal args"),
            })
            .collect();
        let idx = match self.payloads.iter().position(|p| p[..] == vals[..]) {
            Some(i) => i,
            None => {
                self.payloads.push(Arc::from(vals));
                self.payloads.len() - 1
            }
        };
        self.u16(idx, "payload")
    }

    fn bridge_idx(&mut self, actor: ActorId, func: &str) -> usize {
        match self
            .bridges
            .iter()
            .position(|(a, f)| *a == actor && f == func)
        {
            Some(i) => i,
            None => {
                self.bridges.push((actor, func.to_owned()));
                self.bridges.len() - 1
            }
        }
    }

    fn slot16(&mut self, s: Slot) -> u16 {
        self.u16(s, "frame slot")
    }

    fn assoc16(&mut self, a: AssocId) -> u16 {
        self.u16(a.index(), "association")
    }

    fn actor16(&mut self, a: ActorId) -> u16 {
        self.u16(a.index(), "actor")
    }

    // -- statements --------------------------------------------------------

    /// Lowers a statement list; the first statement's entry burn is
    /// `first_pending` (2 inside a `while` body, where the iteration burn
    /// is merged in; 1 everywhere else).
    fn stmt_list(&mut self, stmts: &[Stmt], first_pending: u32) -> Result<()> {
        let mut i = 0;
        while i < stmts.len() {
            let pending = if i == 0 { first_pending } else { 1 };
            if i + 1 < stmts.len() && self.try_nav_first(&stmts[i], &stmts[i + 1], pending)? {
                i += 2;
                continue;
            }
            self.stmt(&stmts[i], pending)?;
            i += 1;
        }
        Ok(())
    }

    /// The navigate-then-send-to-any peephole:
    /// `s = self -> C[R]; gen Ev(args) to any(s);` where `s` is read
    /// nowhere else lowers to [`Op::NavFirst`] + [`Op::SendFirstTo`],
    /// skipping the set materialisation and dedup entirely (only the
    /// first link matters, and dedup cannot change the first element).
    fn try_nav_first(&mut self, s1: &Stmt, s2: &Stmt, pending: u32) -> Result<bool> {
        let Stmt::Assign {
            lhs: LValue::Var(var),
            expr: Expr::Nav(base, class, assoc),
            ..
        } = s1
        else {
            return Ok(false);
        };
        if !matches!(**base, Expr::SelfRef) {
            return Ok(false);
        }
        let Stmt::Generate {
            event,
            args,
            target: GenTarget::Inst(target),
            delay: None,
            ..
        } = s2
        else {
            return Ok(false);
        };
        let Expr::Unary(UnOp::Any, operand) = target else {
            return Ok(false);
        };
        if !matches!(&**operand, Expr::Var(read) if read == var)
            || self.reads[self.locals[var.as_str()] - self.params] != 1
        {
            return Ok(false);
        }
        let self_ty = Some(DataType::Inst(self.self_class));
        let (assoc, want) = self.nav(self_ty, base, class, assoc)?;
        self.bind(var, Some(DataType::Set(want)));
        self.next_temp = self.floor;
        let nav_tmp = self.temp();
        let assoc16 = self.assoc16(assoc);
        // s1: stmt burn (pending) + Nav node + SelfRef node.
        self.emit(
            Op::NavFirst,
            nav_tmp,
            assoc16,
            0,
            id_d(want.index()),
            pending + 2,
        );
        // s2: args first (carrying the stmt burn), then the fused send.
        // A single `slot binop lit` argument fuses the whole statement
        // into one instruction; fuel 3 = the BinSC loop burn it replaces
        // (stmt 1 + Binary + lhs-Slot), the rest burned in the handler.
        let to = SendTo::Any(operand);
        if let Some((a, lit, op)) = fused_send_arg(args) {
            let sa = self.slot(a)?;
            let (_, ev) = self.send_target(&to, target, event, args.len())?;
            if let Some(d) = pack_op_event(op, ev) {
                let s16 = self.slot16(sa);
                let c = self.const_idx(lit);
                self.emit(Op::SendFirstOpC, nav_tmp, s16, c, d, 1 + 2);
                return Ok(true);
            }
        }
        let n = args.len();
        let block = self.arg_block(args, 1, 0)?;
        let (_, ev) = self.send_target(&to, target, event, n)?;
        let send_fuel = if n == 0 { 1 + 2 } else { 2 };
        let n16 = self.u16(n, "argument count");
        let ev = id_d(ev.index());
        self.emit(Op::SendFirstTo, nav_tmp, block, n16, ev, send_fuel);
        Ok(true)
    }

    /// Allocates a contiguous register block for `args` and `extra`
    /// registers after them, and lowers `args` into it. The first
    /// argument's first instruction carries `pending`.
    fn arg_block(&mut self, args: &[Expr], pending: u32, extra: usize) -> Result<u16> {
        let base = self.next_temp;
        self.next_temp += args.len() + extra;
        if self.next_temp > self.high {
            self.high = self.next_temp;
        }
        let base16 = self.u16(base, "register");
        self.u16(self.next_temp, "register");
        for (i, a) in args.iter().enumerate() {
            let p = if i == 0 { pending } else { 0 };
            let r = self.u16(base + i, "register");
            self.expr(a, p, r)?;
        }
        Ok(base16)
    }

    fn stmt(&mut self, stmt: &Stmt, pending: u32) -> Result<()> {
        self.next_temp = self.floor;
        match stmt {
            Stmt::Assign {
                lhs: LValue::Var(name),
                expr,
                ..
            } => {
                let dst = self.slot16(self.locals[name.as_str()]);
                let ty = self.expr(expr, pending, dst)?;
                self.bind(name, ty);
            }
            Stmt::Assign {
                lhs: LValue::Attr(base, attr),
                expr,
                ..
            } => self.assign_attr(base, attr, expr, pending)?,
            Stmt::Create { var, class, .. } => {
                let class = self.domain.class_id(class)?;
                let slot = self.bind(var, Some(DataType::Inst(class)));
                let dst = self.slot16(slot);
                self.emit(Op::CreateI, dst, 0, 0, id_d(class.index()), pending);
            }
            Stmt::Delete { expr, .. } => {
                let r = self.temp();
                self.expr(expr, pending, r)?;
                self.emit(Op::DeleteI, r, 0, 0, 0, 0);
            }
            Stmt::SelectAny {
                var, class, filter, ..
            } => self.select(var, class, filter.as_ref(), pending, false)?,
            Stmt::SelectMany {
                var, class, filter, ..
            } => self.select(var, class, filter.as_ref(), pending, true)?,
            Stmt::Relate { a, b, assoc, .. } => {
                self.relate_like(Op::RelateI, a, b, assoc, pending)?;
            }
            Stmt::Unrelate { a, b, assoc, .. } => {
                self.relate_like(Op::UnrelateI, a, b, assoc, pending)?;
            }
            Stmt::Generate {
                event,
                args,
                target,
                delay,
                ..
            } => match target {
                GenTarget::Actor(actor) => {
                    self.gen_actor(actor, event, args, delay.is_some(), pending)?;
                }
                // Actor fallback: a bare name that is not a bound local
                // but names an actor is an actor send (the type checker's
                // rule).
                GenTarget::Inst(Expr::Var(name))
                    if self.local(name).is_none() && self.domain.actor_id(name).is_ok() =>
                {
                    self.gen_actor(name, event, args, delay.is_some(), pending)?;
                }
                GenTarget::Inst(target) => {
                    self.gen_inst(event, args, target, delay.as_ref(), pending)?;
                }
            },
            Stmt::Cancel { event, .. } => {
                let event = resolve_event(self.domain, self.self_class, event)?;
                self.emit(Op::CancelI, 0, 0, 0, id_d(event.index()), pending);
            }
            Stmt::If {
                arms, otherwise, ..
            } => self.if_stmt(arms, otherwise.as_ref(), pending)?,
            Stmt::While { cond, body, .. } => self.while_stmt(cond, body, pending)?,
            Stmt::ForEach { var, set, body, .. } => self.foreach_stmt(var, set, body, pending)?,
            Stmt::Break { .. } => match self.loops.last() {
                Some(_) => {
                    let site = self.emit(Op::Jump, 0, 0, 0, 0, pending);
                    self.loops
                        .last_mut()
                        .expect("loop context")
                        .breaks
                        .push(site);
                }
                None => {
                    self.emit(Op::ErrBreak, 0, 0, 0, 0, pending);
                }
            },
            Stmt::Continue { .. } => match self.loops.last() {
                Some(ctx) => {
                    let target = ctx.continue_to;
                    let site = self.emit(Op::Jump, 0, 0, 0, 0, pending);
                    self.code[site].d = self.back_jump(site, target);
                }
                None => {
                    self.emit(Op::ErrContinue, 0, 0, 0, 0, pending);
                }
            },
            Stmt::Return { .. } => {
                self.emit(Op::Ret, 0, 0, 0, 0, pending);
            }
            Stmt::ExprStmt { expr, .. } => {
                let r = self.temp();
                self.expr(expr, pending, r)?;
            }
        }
        Ok(())
    }

    /// `base.attr = expr;` — the value is evaluated before the base.
    fn assign_attr(&mut self, base: &Expr, attr: &str, expr: &Expr, pending: u32) -> Result<()> {
        if !matches!(base, Expr::SelfRef) {
            let rv = self.temp();
            self.expr(expr, pending, rv)?;
            let rb = self.temp();
            let bty = self.expr(base, 0, rb)?;
            let class = self.class_of(bty, base)?;
            let attr = resolve_attr(self.domain, class, attr)?;
            self.emit(Op::StAttrReg, rb, rv, 0, id_d(attr.index()), 0);
            return Ok(());
        }
        // Fusions on the dominant `self.a = ...` shape.
        match expr {
            Expr::Lit(v) => {
                // stmt + Lit node + SelfRef base fast path.
                let attr = resolve_attr(self.domain, self.self_class, attr)?;
                let c = self.const_idx(v);
                self.emit(
                    Op::StAttrSelfConst,
                    0,
                    c,
                    0,
                    id_d(attr.index()),
                    pending + 2,
                );
                return Ok(());
            }
            Expr::Binary(op, lhs, rhs) => {
                if let (Expr::Attr(ab, read), Expr::Lit(v)) = (&**lhs, &**rhs) {
                    if matches!(**ab, Expr::SelfRef) {
                        let read_attr = resolve_attr(self.domain, self.self_class, read)?;
                        let attr = resolve_attr(self.domain, self.self_class, attr)?;
                        // When the read attribute is provably const, skip
                        // the fusion: the generic path below folds the
                        // read to a constant instead.
                        if !self.fold.is_some_and(|f| f.contains_key(&read_attr)) {
                            // stmt + Binary + Attr + inner SelfRef burns up
                            // front; Lit and base-SelfRef burns are internal
                            // (they follow fallible reads/applies).
                            let ra = self.u16(read_attr.index(), "attribute");
                            let c = self.const_idx(v);
                            self.emit(
                                Op::SelfAttrOpConst,
                                ra,
                                c,
                                binop_code(*op),
                                id_d(attr.index()),
                                pending + 3,
                            );
                            return Ok(());
                        }
                    }
                }
            }
            _ => {}
        }
        let rv = self.temp();
        self.expr(expr, pending, rv)?;
        let attr = resolve_attr(self.domain, self.self_class, attr)?;
        self.emit(Op::StAttrSelf, 0, rv, 0, id_d(attr.index()), 1);
        Ok(())
    }

    fn select(
        &mut self,
        var: &str,
        class: &str,
        filter: Option<&Expr>,
        pending: u32,
        many: bool,
    ) -> Result<()> {
        let class = self.domain.class_id(class)?;
        let dst = self.slot16(self.locals[var]);
        match filter {
            None => {
                let op = if many { Op::SelMany } else { Op::SelAny };
                self.emit(op, dst, 0, 0, id_d(class.index()), pending);
            }
            Some(f) => {
                self.selected.push(class);
                let lowered = self.select_filtered(dst, class, f, pending, many);
                self.selected.pop();
                lowered?;
            }
        }
        let ty = if many {
            DataType::Set(class)
        } else {
            DataType::Inst(class)
        };
        self.bind(var, Some(ty));
        Ok(())
    }

    fn relate_like(&mut self, op: Op, a: &Expr, b: &Expr, assoc: &str, pending: u32) -> Result<()> {
        let ra = self.temp();
        self.expr(a, pending, ra)?;
        // The walker as_inst-checks `a` before evaluating `b`.
        self.emit(Op::CheckInst, ra, 0, 0, 0, 0);
        let rb = self.temp();
        self.expr(b, 0, rb)?;
        let assoc = self.domain.assoc_id(assoc)?;
        self.emit(op, ra, rb, 0, id_d(assoc.index()), 0);
        Ok(())
    }

    /// `gen ev(args) to ACTOR;` — an observable output.
    fn gen_actor(
        &mut self,
        actor: &str,
        event: &str,
        args: &[Expr],
        delayed: bool,
        pending: u32,
    ) -> Result<()> {
        let n = args.len();
        let n16 = self.u16(n, "argument count");
        if all_lit(args) {
            let (actor, ev) = self.actor_event(actor, event, n, delayed)?;
            let actor16 = self.actor16(actor);
            let payload = self.payload_idx(args);
            let (ev, fuel) = (id_d(ev.index()), pending + n as u32);
            self.emit(Op::SendActorLit, actor16, payload, 0, ev, fuel);
        } else {
            let block = self.arg_block(args, pending, 0)?;
            let (actor, ev) = self.actor_event(actor, event, n, delayed)?;
            let actor16 = self.actor16(actor);
            self.emit(Op::SendActorR, actor16, block, n16, id_d(ev.index()), 0);
        }
        Ok(())
    }

    /// `gen Ev(args) to target [after delay];`, the event resolved
    /// against the target's static class.
    fn gen_inst(
        &mut self,
        event: &str,
        args: &[Expr],
        target: &Expr,
        delay: Option<&Expr>,
        pending: u32,
    ) -> Result<()> {
        let n = args.len();
        let n16 = self.u16(n, "argument count");
        if let Some(to) = SendTo::of(target).filter(|_| delay.is_none()) {
            if all_lit(args) {
                // Literal payload: pooled Arc shared straight into the queue.
                let (reg, ev) = self.send_target(&to, target, event, n)?;
                let p = self.payload_idx(args);
                let (op, nodes) = match to {
                    SendTo::SelfInst => (Op::SendSelfLit, 1),
                    SendTo::Slot(_) => (Op::SendSlotLit, 1),
                    SendTo::Any(_) => (Op::SendAnySlotLit, 2),
                };
                let fuel = pending + n as u32 + nodes;
                self.emit(op, reg, p, 0, id_d(ev.index()), fuel);
                return Ok(());
            }
            // Single `slot binop lit` argument to a slot / any(slot)
            // target: fuse payload compute and send into one
            // instruction. Fuel `pending + 2` is the BinSC loop burn the
            // fusion replaces; the handler burns the rest in the same
            // order the unfused pair would.
            if let Some((a, lit, op)) = fused_send_arg(args) {
                let sa = self.slot(a)?;
                if !matches!(to, SendTo::SelfInst) {
                    let (reg, ev) = self.send_target(&to, target, event, n)?;
                    if let Some(d) = pack_op_event(op, ev) {
                        let fused = match to {
                            SendTo::Slot(_) => Op::SendSlotOpC,
                            _ => Op::SendAnyOpC,
                        };
                        let sa16 = self.slot16(sa);
                        let c = self.const_idx(lit);
                        self.emit(fused, reg, sa16, c, d, pending + 2);
                        return Ok(());
                    }
                }
            }
            // Computed args, fused common targets.
            let block = self.arg_block(args, pending, 0)?;
            let (reg, ev) = self.send_target(&to, target, event, n)?;
            let (op, fuel) = match to {
                SendTo::SelfInst => (Op::SendSelf, 1),
                SendTo::Slot(_) => (Op::SendSlot, 1),
                SendTo::Any(_) => (Op::SendAnySlot, 2),
            };
            self.emit(op, reg, block, n16, id_d(ev.index()), fuel);
            return Ok(());
        }
        // Generic path. Register layout: args at block..block+n, the delay
        // (when present) at block+n.
        let block = self.arg_block(args, pending, usize::from(delay.is_some()))?;
        let rt = self.temp();
        let ty = self.expr(target, if n == 0 { pending } else { 0 }, rt)?;
        let ev = id_d(self.inst_event(ty, target, event, n)?.index());
        match delay {
            None => {
                self.emit(Op::SendR, rt, block, n16, ev, 0);
            }
            Some(d) => {
                // as_inst on the target precedes the delay evaluation.
                self.emit(Op::CheckInst, rt, 0, 0, 0, 0);
                let rd = self.u16(usize::from(block) + n, "register");
                self.expr(d, 0, rd)?;
                self.emit(Op::SendDelayedR, rt, block, n16, ev, 0);
            }
        }
        Ok(())
    }

    fn if_stmt(
        &mut self,
        arms: &[(Expr, Block)],
        otherwise: Option<&Block>,
        pending: u32,
    ) -> Result<()> {
        let mut end_sites = Vec::new();
        let mut p = pending;
        if arms.is_empty() && p > 0 {
            self.emit(Op::Fuel, 0, 0, 0, 0, p);
        }
        for (cond, body) in arms {
            let false_site = self.guard(cond, p)?;
            p = 0;
            self.stmt_list(&body.stmts, 1)?;
            end_sites.push(self.emit(Op::Jump, 0, 0, 0, 0, 0));
            self.patch_here(false_site);
        }
        if let Some(body) = otherwise {
            self.stmt_list(&body.stmts, 1)?;
        }
        for site in end_sites {
            self.patch_here(site);
        }
        Ok(())
    }

    /// Lowers a condition and emits a jump-if-false, fusing slot/const
    /// comparisons. Returns the jump site to patch.
    fn guard(&mut self, cond: &Expr, pending: u32) -> Result<usize> {
        if let Expr::Binary(op, lhs, rhs) = cond {
            if is_slot(lhs) {
                if let Expr::Lit(v) = &**rhs {
                    let s = self.slot(lhs)?;
                    let s16 = self.slot16(s);
                    let c = self.const_idx(v);
                    // Binary + lhs-Slot nodes up front; the Lit burn is
                    // internal (it follows the fallible slot read).
                    return Ok(self.emit(Op::JmpSCFalse, s16, c, binop_code(*op), 0, pending + 2));
                }
                if is_slot(rhs) {
                    let (sa, sb) = (self.slot(lhs)?, self.slot(rhs)?);
                    let (a16, b16) = (self.slot16(sa), self.slot16(sb));
                    return Ok(self.emit(
                        Op::JmpSSFalse,
                        a16,
                        b16,
                        binop_code(*op),
                        0,
                        pending + 2,
                    ));
                }
            }
        }
        let rc = self.temp();
        self.expr(cond, pending, rc)?;
        Ok(self.emit(Op::JumpIfFalse, rc, 0, 0, 0, 0))
    }

    fn while_stmt(&mut self, cond: &Expr, body: &Block, pending: u32) -> Result<()> {
        // The statement burn fires once; the condition re-evaluates every
        // iteration, so its fuel cannot carry the entry burn.
        self.emit(Op::Fuel, 0, 0, 0, 0, pending);
        let head = self.code.len();
        let exit_site = self.guard(cond, 0)?;
        self.loops.push(LoopCtx {
            continue_to: head,
            breaks: Vec::new(),
        });
        if body.stmts.is_empty() {
            // Iteration burn with an empty body.
            self.emit(Op::Fuel, 0, 0, 0, 0, 1);
        } else {
            // Iteration burn merged into the first body statement.
            self.stmt_list(&body.stmts, 2)?;
        }
        let back = self.emit(Op::Jump, 0, 0, 0, 0, 0);
        self.code[back].d = self.back_jump(back, head);
        let ctx = self.loops.pop().expect("loop context");
        self.patch_here(exit_site);
        for site in ctx.breaks {
            self.patch_here(site);
        }
        Ok(())
    }

    fn foreach_stmt(&mut self, var: &str, set: &Expr, body: &Block, pending: u32) -> Result<()> {
        let dst = self.slot16(self.locals[var]);
        let rset = self.temp();
        let sty = self.expr(set, pending, rset)?;
        self.bind(var, any_type(sty));
        let ridx = self.temp();
        let zero = self.const_idx(&Value::Int(0));
        self.emit(Op::Const, ridx, zero, 0, 0, 0);
        let head = self.code.len();
        let iter_site = self.emit(Op::ForIter, dst, rset, ridx, 0, 0);
        self.loops.push(LoopCtx {
            continue_to: head,
            breaks: Vec::new(),
        });
        // Loop state must survive the per-statement scratch reset.
        let saved_floor = self.floor;
        self.floor = self.next_temp;
        self.stmt_list(&body.stmts, 1)?;
        self.floor = saved_floor;
        let back = self.emit(Op::Jump, 0, 0, 0, 0, 0);
        self.code[back].d = self.back_jump(back, head);
        let ctx = self.loops.pop().expect("loop context");
        self.patch_here(iter_site);
        for site in ctx.breaks {
            self.patch_here(site);
        }
        Ok(())
    }

    fn select_filtered(
        &mut self,
        dst: u16,
        class: ClassId,
        filter: &Expr,
        pending: u32,
        many: bool,
    ) -> Result<()> {
        // Candidate list, index and (for `many`) accumulator live in
        // adjacent temps; the loop ops address them via the base temp.
        let rbase = self.temp();
        let _ridx = self.temp();
        if many {
            let _racc = self.temp();
        }
        let (init, iter, take) = if many {
            (Op::SelFInitM, Op::SelIterM, Op::SelTakeM)
        } else {
            (Op::SelFInit, Op::SelIterA, Op::SelTakeA)
        };
        self.emit(init, rbase, 0, 0, id_d(class.index()), pending);
        let head = self.code.len();
        let iter_site = self.emit(iter, dst, rbase, 0, 0, 0);
        let rf = self.temp();
        self.expr(filter, 0, rf)?;
        let take_site = self.emit(take, dst, rf, rbase, 0, 0);
        self.code[take_site].d = self.back_jump(take_site, head);
        self.patch_here(iter_site);
        Ok(())
    }

    // -- expressions -------------------------------------------------------

    /// Lowers `e` into `dst` and returns its best-known static type
    /// (`None` when unknown or irrelevant: only instance and set classes
    /// are ever consumed). `pending` is fuel owed from enclosing nodes,
    /// burned (together with this node's own unit) by the first emitted
    /// instruction.
    fn expr(&mut self, e: &Expr, pending: u32, dst: u16) -> Result<Option<DataType>> {
        match e {
            Expr::Lit(v) => {
                let c = self.const_idx(v);
                self.emit(Op::Const, dst, c, 0, 0, pending + 1);
                Ok(Some(v.data_type()))
            }
            Expr::Var(_) | Expr::Param(_) => {
                let s = self.slot(e)?;
                let s16 = self.slot16(s);
                self.emit(Op::LoadSlot, dst, s16, 0, 0, pending + 1);
                Ok(self.types[s])
            }
            Expr::SelfRef => {
                self.emit(Op::LoadSelf, dst, 0, 0, 0, pending + 1);
                Ok(Some(DataType::Inst(self.self_class)))
            }
            Expr::Selected => {
                let class = *self.selected.last().ok_or_else(|| {
                    CoreError::runtime("`selected` used outside a `where` clause")
                })?;
                self.emit(Op::LoadSelected, dst, 0, 0, 0, pending + 1);
                Ok(Some(DataType::Inst(class)))
            }
            Expr::Attr(base, name) => {
                if matches!(**base, Expr::SelfRef) {
                    let attr = resolve_attr(self.domain, self.self_class, name)?;
                    let ty = self.domain.class(self.self_class).attribute(attr).ty;
                    if let Some(v) = self.fold.and_then(|f| f.get(&attr)) {
                        // Effect-analysis fold: the attribute is written
                        // nowhere in the model, so the read always yields
                        // the declared default. Fuel matches AttrSelf.
                        let c = self.const_idx(v);
                        self.folds += 1;
                        self.emit(Op::Const, dst, c, 0, 0, pending + 2);
                    } else {
                        // Attr node + SelfRef fast-path burn.
                        self.emit(Op::AttrSelf, dst, 0, 0, id_d(attr.index()), pending + 2);
                    }
                    return Ok(Some(ty));
                }
                let rb = self.temp();
                let bty = self.expr(base, pending + 1, rb)?;
                let class = self.class_of(bty, base)?;
                let attr = resolve_attr(self.domain, class, name)?;
                self.emit(Op::AttrReg, dst, rb, 0, id_d(attr.index()), 0);
                Ok(Some(self.domain.class(class).attribute(attr).ty))
            }
            Expr::Nav(base, class, assoc) => {
                if matches!(**base, Expr::SelfRef) {
                    let self_ty = Some(DataType::Inst(self.self_class));
                    let (assoc, want) = self.nav(self_ty, base, class, assoc)?;
                    let a16 = self.assoc16(assoc);
                    self.emit(Op::NavSelf, dst, a16, 0, id_d(want.index()), pending + 2);
                    return Ok(Some(DataType::Set(want)));
                }
                let rb = self.temp();
                let bty = self.expr(base, pending + 1, rb)?;
                let (assoc, want) = self.nav(bty, base, class, assoc)?;
                let a16 = self.assoc16(assoc);
                self.emit(Op::NavReg, dst, rb, a16, id_d(want.index()), 0);
                Ok(Some(DataType::Set(want)))
            }
            Expr::Unary(op, operand) => {
                let ty = if is_slot(operand) {
                    // By-reference slot operand (no clone), matching the
                    // walker's evaluation order.
                    let s = self.slot(operand)?;
                    let s16 = self.slot16(s);
                    self.emit(Op::UnarySlot, dst, s16, unop_code(*op), 0, pending + 2);
                    self.types[s]
                } else {
                    let rs = self.temp();
                    let ty = self.expr(operand, pending + 1, rs)?;
                    self.emit(Op::UnaryReg, dst, rs, unop_code(*op), 0, 0);
                    ty
                };
                // `any` is the only operator producing an instance type.
                Ok(if *op == UnOp::Any { any_type(ty) } else { None })
            }
            Expr::Binary(op, a, b) => {
                let opc = i32::from(binop_code(*op));
                match (&**a, &**b) {
                    (_, Expr::Lit(v)) if is_slot(a) => {
                        let s = self.slot(a)?;
                        let s16 = self.slot16(s);
                        let c = self.const_idx(v);
                        // Binary + lhs-Slot nodes up front; the Lit burn is
                        // internal (after the fallible slot read).
                        self.emit(Op::BinSC, dst, s16, c, opc, pending + 2);
                    }
                    (Expr::Lit(v), _) if is_slot(b) => {
                        let c = self.const_idx(v);
                        let s = self.slot(b)?;
                        let s16 = self.slot16(s);
                        // Binary + Lit + rhs-Slot nodes all up front:
                        // nothing fallible separates those three burns.
                        self.emit(Op::BinCS, dst, c, s16, opc, pending + 3);
                    }
                    _ if is_slot(a) && is_slot(b) => {
                        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
                        let (a16, b16) = (self.slot16(sa), self.slot16(sb));
                        self.emit(Op::BinSS, dst, a16, b16, opc, pending + 2);
                    }
                    _ => {
                        let ra = self.temp();
                        self.expr(a, pending + 1, ra)?;
                        let rb = self.temp();
                        self.expr(b, 0, rb)?;
                        self.emit(Op::BinRR, dst, ra, rb, opc, 0);
                    }
                }
                Ok(None)
            }
            Expr::BridgeCall(actor, func, args) => {
                let actor = self.domain.actor_id(actor)?;
                let ret = self
                    .domain
                    .actor(actor)
                    .func(func)
                    .ok_or_else(|| CoreError::unresolved("bridge function", func.clone()))?
                    .ret;
                let idx = id_d(self.bridge_idx(actor, func));
                let n = self.u16(args.len(), "argument count");
                if args.is_empty() {
                    self.emit(Op::CallBridge, dst, 0, 0, idx, pending + 1);
                } else {
                    let block = self.arg_block(args, pending + 1, 0)?;
                    self.emit(Op::CallBridge, dst, block, n, idx, 0);
                }
                Ok(ret)
            }
        }
    }
}

// -- the VM ----------------------------------------------------------------

#[cold]
fn unbound(layout: &FrameLayout, idx: usize) -> CoreError {
    if idx < layout.len() {
        let kind = if idx < layout.params() {
            "event parameter"
        } else {
            "variable"
        };
        CoreError::unresolved(kind, layout.name(idx).to_owned())
    } else {
        CoreError::runtime("internal: unbound VM register")
    }
}

#[inline(always)]
fn rd<'f>(frame: &'f [Option<Value>], layout: &FrameLayout, i: u16) -> Result<&'f Value> {
    match frame[usize::from(i)].as_ref() {
        Some(v) => Ok(v),
        None => Err(unbound(layout, usize::from(i))),
    }
}

#[inline(always)]
fn jump(pc: usize, d: i32) -> usize {
    (pc as i64 + 1 + i64::from(d)) as usize
}

/// Packs `n` consecutive argument registers into the `Arc<[Value]>` a
/// computed send hands to [`ActionHost::send_arc`], reusing a
/// uniquely-owned buffer from the host's payload pool when one of the
/// right arity is available — the zero-allocation fast path — and
/// falling back to a fresh allocation otherwise.
#[inline]
fn take_args_arc<H: ActionHost>(
    host: &mut H,
    frame: &mut [Option<Value>],
    block: u16,
    n: u16,
) -> Arc<[Value]> {
    match host.take_payload(usize::from(n)) {
        Some(mut arc) => {
            let slots = Arc::get_mut(&mut arc).expect("pooled payloads are uniquely owned");
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = frame[usize::from(block) + i]
                    .take()
                    .expect("argument register written by lowering");
            }
            arc
        }
        None => Arc::from(take_args(frame, block, n)),
    }
}

/// The shared payload half of the fused compute-and-send ops: evaluates
/// `frame[b] binop(d >> 16) consts[c]` with exactly the burn/error
/// order of the [`Op::BinSC`] instruction the fusion replaced (bound
/// check, then the internal Lit burn, then the fallible binop).
#[inline(always)]
fn fused_payload(
    ctx: &mut ExecCtx,
    layout: &FrameLayout,
    act: &BcAction,
    ins: &Instr,
) -> Result<Value> {
    let b = usize::from(ins.b);
    if ctx.frame[b].is_none() {
        return Err(unbound(layout, b));
    }
    ctx.burn(1)?;
    let va = ctx.frame[b].as_ref().expect("checked");
    apply_binop(
        binop_from((ins.d as u32 >> 16) as u16),
        va,
        &act.consts[usize::from(ins.c)],
    )
}

/// Wraps a single computed value as a send payload, reusing a pooled
/// buffer when the host has one of arity 1.
#[inline(always)]
fn payload1<H: ActionHost>(host: &mut H, v: Value) -> Arc<[Value]> {
    match host.take_payload(1) {
        Some(mut arc) => {
            Arc::get_mut(&mut arc).expect("pooled payloads are uniquely owned")[0] = v;
            arc
        }
        None => Arc::from(vec![v]),
    }
}

#[inline(always)]
fn take_args(frame: &mut [Option<Value>], block: u16, n: u16) -> Vec<Value> {
    (0..usize::from(n))
        .map(|i| {
            frame[usize::from(block) + i]
                .take()
                .expect("argument register written by lowering")
        })
        .collect()
}

/// Reads the integer loop counter maintained by the select/foreach ops.
#[inline(always)]
fn counter(frame: &[Option<Value>], r: usize) -> usize {
    match frame[r] {
        Some(Value::Int(i)) => i as usize,
        _ => unreachable!("loop counter register holds an int"),
    }
}

/// Reads `(class, len)` of the candidate/iteration set register.
#[inline(always)]
fn set_head(frame: &[Option<Value>], r: usize) -> (ClassId, usize) {
    match &frame[r] {
        Some(Value::Set(c, items)) => (*c, items.len()),
        _ => unreachable!("set register holds a set"),
    }
}

#[inline(always)]
fn set_item(frame: &[Option<Value>], r: usize, idx: usize) -> InstId {
    match &frame[r] {
        Some(Value::Set(_, items)) => items[idx],
        _ => unreachable!("set register holds a set"),
    }
}

/// Executes a lowered action against `host`. The caller provides `ctx`
/// with a frame sized to [`BcAction::n_regs`] and the parameter slots
/// bound ([`ExecCtx::bind_args`]); `ctx.steps` counts one unit per
/// statement and expression node of the source [`Block`].
///
/// # Errors
///
/// Runtime errors ([`CoreError::Runtime`], including fuel exhaustion) and
/// unbound-slot reads ([`CoreError::Unresolved`]) from the statements
/// executed, in source order.
pub fn run_bc<H: ActionHost>(host: &mut H, ctx: &mut ExecCtx, act: &BcAction) -> Result<Outcome> {
    let code = &act.code[..];
    let layout = &act.layout;
    let mut pc: usize = 0;
    loop {
        let ins = code[pc];
        if ins.fuel != 0 {
            ctx.burn(u64::from(ins.fuel))?;
        }
        let mut next = pc + 1;
        let a = usize::from(ins.a);
        match ins.op {
            Op::Fuel => {}
            Op::Const => ctx.frame[a] = Some(act.consts[usize::from(ins.b)].clone()),
            Op::LoadSlot => {
                let v = rd(&ctx.frame, layout, ins.b)?.clone();
                ctx.frame[a] = Some(v);
            }
            Op::LoadSelf => {
                ctx.frame[a] = Some(Value::Inst(ctx.self_class, Some(ctx.self_inst)));
            }
            Op::LoadSelected => {
                let v = ctx.selected.clone().ok_or_else(|| {
                    CoreError::runtime("`selected` used outside a `where` clause")
                })?;
                ctx.frame[a] = Some(v);
            }
            Op::AttrSelf => {
                let v = host.attr_read(ctx.self_inst, AttrId::new(ins.d as u32))?;
                ctx.frame[a] = Some(v);
            }
            Op::AttrReg => {
                let inst = rd(&ctx.frame, layout, ins.b)?.as_inst()?;
                let v = host.attr_read(inst, AttrId::new(ins.d as u32))?;
                ctx.frame[a] = Some(v);
            }
            Op::NavSelf => {
                let assoc = AssocId::new(u32::from(ins.b));
                let mut out: Vec<InstId> = Vec::new();
                host.related_each(ctx.self_inst, assoc, &mut |t| {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                })?;
                ctx.frame[a] = Some(Value::Set(ClassId::new(ins.d as u32), out));
            }
            Op::NavReg => {
                let assoc = AssocId::new(u32::from(ins.c));
                let target = ClassId::new(ins.d as u32);
                let mut out: Vec<InstId> = Vec::new();
                {
                    let base = rd(&ctx.frame, layout, ins.b)?;
                    let mut visit = |src: InstId, host: &H| {
                        host.related_each(src, assoc, &mut |t| {
                            if !out.contains(&t) {
                                out.push(t);
                            }
                        })
                    };
                    match base {
                        Value::Inst(_, Some(i)) => visit(*i, host)?,
                        Value::Inst(_, None) => {}
                        Value::Set(_, items) => {
                            for src in items {
                                visit(*src, host)?;
                            }
                        }
                        other => {
                            return Err(CoreError::runtime(format!(
                                "cannot navigate from {}",
                                other.data_type()
                            )))
                        }
                    }
                }
                ctx.frame[a] = Some(Value::Set(target, out));
            }
            Op::UnarySlot => {
                let v = rd(&ctx.frame, layout, ins.b)?;
                let r = apply_unop(unop_from(ins.c), v)?;
                ctx.frame[a] = Some(r);
            }
            Op::UnaryReg => {
                let v = rd(&ctx.frame, layout, ins.b)?;
                let r = apply_unop(unop_from(ins.c), v)?;
                ctx.frame[a] = Some(r);
            }
            Op::BinRR => {
                let va = rd(&ctx.frame, layout, ins.b)?;
                let vb = rd(&ctx.frame, layout, ins.c)?;
                let r = apply_binop(binop_from(ins.d as u16), va, vb)?;
                ctx.frame[a] = Some(r);
            }
            Op::BinSC => {
                if ctx.frame[usize::from(ins.b)].is_none() {
                    return Err(unbound(layout, usize::from(ins.b)));
                }
                ctx.burn(1)?;
                let va = ctx.frame[usize::from(ins.b)].as_ref().expect("checked");
                let r = apply_binop(
                    binop_from(ins.d as u16),
                    va,
                    &act.consts[usize::from(ins.c)],
                )?;
                ctx.frame[a] = Some(r);
            }
            Op::BinCS => {
                let vb = rd(&ctx.frame, layout, ins.c)?;
                let r = apply_binop(
                    binop_from(ins.d as u16),
                    &act.consts[usize::from(ins.b)],
                    vb,
                )?;
                ctx.frame[a] = Some(r);
            }
            Op::BinSS => {
                if ctx.frame[usize::from(ins.b)].is_none() {
                    return Err(unbound(layout, usize::from(ins.b)));
                }
                ctx.burn(1)?;
                let vb = rd(&ctx.frame, layout, ins.c)?;
                let va = ctx.frame[usize::from(ins.b)].as_ref().expect("checked");
                let r = apply_binop(binop_from(ins.d as u16), va, vb)?;
                ctx.frame[a] = Some(r);
            }
            Op::CheckInst => {
                rd(&ctx.frame, layout, ins.a)?.as_inst()?;
            }
            Op::CreateI => {
                let class = ClassId::new(ins.d as u32);
                let inst = host.create(class)?;
                ctx.frame[a] = Some(Value::Inst(class, Some(inst)));
            }
            Op::DeleteI => {
                let inst = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                host.delete(inst)?;
            }
            Op::SelAny => {
                let class = ClassId::new(ins.d as u32);
                let first = host.first_instance_of(class);
                if first.is_some() {
                    ctx.burn(1)?;
                }
                ctx.frame[a] = Some(Value::Inst(class, first));
            }
            Op::SelMany => {
                let class = ClassId::new(ins.d as u32);
                let all = host.instances_of(class);
                ctx.burn(all.len() as u64)?;
                ctx.frame[a] = Some(Value::Set(class, all));
            }
            Op::SelFInit => {
                let class = ClassId::new(ins.d as u32);
                let cands = host.instances_of(class);
                ctx.frame[a] = Some(Value::Set(class, cands));
                ctx.frame[a + 1] = Some(Value::Int(0));
            }
            Op::SelIterA => {
                let base = usize::from(ins.b);
                let (class, len) = set_head(&ctx.frame, base);
                let idx = counter(&ctx.frame, base + 1);
                if idx >= len {
                    ctx.frame[a] = Some(Value::Inst(class, None));
                    ctx.selected = None;
                    next = jump(pc, ins.d);
                } else {
                    ctx.burn(1)?;
                    let item = set_item(&ctx.frame, base, idx);
                    ctx.selected = Some(Value::Inst(class, Some(item)));
                    ctx.frame[base + 1] = Some(Value::Int(idx as i64 + 1));
                }
            }
            Op::SelTakeA => {
                let keep = rd(&ctx.frame, layout, ins.b)?.as_bool()?;
                if keep {
                    ctx.frame[a] = ctx.selected.take();
                } else {
                    next = jump(pc, ins.d);
                }
            }
            Op::SelFInitM => {
                let class = ClassId::new(ins.d as u32);
                let cands = host.instances_of(class);
                ctx.frame[a] = Some(Value::Set(class, cands));
                ctx.frame[a + 1] = Some(Value::Int(0));
                ctx.frame[a + 2] = Some(Value::Set(class, Vec::new()));
            }
            Op::SelIterM => {
                let base = usize::from(ins.b);
                let (class, len) = set_head(&ctx.frame, base);
                let idx = counter(&ctx.frame, base + 1);
                if idx >= len {
                    ctx.frame[a] = ctx.frame[base + 2].take();
                    ctx.selected = None;
                    next = jump(pc, ins.d);
                } else {
                    ctx.burn(1)?;
                    let item = set_item(&ctx.frame, base, idx);
                    ctx.selected = Some(Value::Inst(class, Some(item)));
                    ctx.frame[base + 1] = Some(Value::Int(idx as i64 + 1));
                }
            }
            Op::SelTakeM => {
                let keep = rd(&ctx.frame, layout, ins.b)?.as_bool()?;
                if keep {
                    let inst = match ctx.selected.as_ref() {
                        Some(Value::Inst(_, Some(i))) => *i,
                        _ => unreachable!("selected bound by SelIterM"),
                    };
                    match &mut ctx.frame[usize::from(ins.c) + 2] {
                        Some(Value::Set(_, v)) => v.push(inst),
                        _ => unreachable!("accumulator register holds a set"),
                    }
                }
                next = jump(pc, ins.d);
            }
            Op::RelateI => {
                let ia = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let ib = rd(&ctx.frame, layout, ins.b)?.as_inst()?;
                host.relate(ia, ib, AssocId::new(ins.d as u32))?;
            }
            Op::UnrelateI => {
                let ia = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let ib = rd(&ctx.frame, layout, ins.b)?.as_inst()?;
                host.unrelate(ia, ib, AssocId::new(ins.d as u32))?;
            }
            Op::SendR => {
                let to = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32), args)?;
            }
            Op::SendDelayedR => {
                let to = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let ticks = rd(&ctx.frame, layout, ins.b + ins.c)?.as_int()?;
                if ticks < 0 {
                    return Err(CoreError::runtime("negative signal delay"));
                }
                let args = take_args(&mut ctx.frame, ins.b, ins.c);
                host.send_delayed(ctx.self_inst, to, EventId::new(ins.d as u32), args, ticks)?;
            }
            Op::SendActorR => {
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_actor_arc(
                    ctx.self_inst,
                    ActorId::new(u32::from(ins.a)),
                    EventId::new(ins.d as u32),
                    args,
                )?;
            }
            Op::SendSelf => {
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_arc(
                    ctx.self_inst,
                    ctx.self_inst,
                    EventId::new(ins.d as u32),
                    args,
                )?;
            }
            Op::SendSlot => {
                let to = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32), args)?;
            }
            Op::SendAnySlot => {
                let v = rd(&ctx.frame, layout, ins.a)?;
                let to = apply_unop(UnOp::Any, v)?.as_inst()?;
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32), args)?;
            }
            Op::SendSelfLit => {
                host.send_arc(
                    ctx.self_inst,
                    ctx.self_inst,
                    EventId::new(ins.d as u32),
                    Arc::clone(&act.payloads[usize::from(ins.b)]),
                )?;
            }
            Op::SendSlotLit => {
                let to = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                host.send_arc(
                    ctx.self_inst,
                    to,
                    EventId::new(ins.d as u32),
                    Arc::clone(&act.payloads[usize::from(ins.b)]),
                )?;
            }
            Op::SendAnySlotLit => {
                let v = rd(&ctx.frame, layout, ins.a)?;
                let to = apply_unop(UnOp::Any, v)?.as_inst()?;
                host.send_arc(
                    ctx.self_inst,
                    to,
                    EventId::new(ins.d as u32),
                    Arc::clone(&act.payloads[usize::from(ins.b)]),
                )?;
            }
            Op::SendActorLit => {
                host.send_actor_arc(
                    ctx.self_inst,
                    ActorId::new(u32::from(ins.a)),
                    EventId::new(ins.d as u32),
                    Arc::clone(&act.payloads[usize::from(ins.b)]),
                )?;
            }
            Op::SendFirstTo => {
                let (class, opt) = match &ctx.frame[a] {
                    Some(Value::Inst(c, o)) => (*c, *o),
                    _ => unreachable!("NavFirst writes the target register"),
                };
                let Some(to) = opt else {
                    // Identical to `any` on the empty set the interpreter
                    // would have materialised.
                    return Err(CoreError::runtime(format!(
                        "`any` applied to empty {class} set"
                    )));
                };
                let args = take_args_arc(host, &mut ctx.frame, ins.b, ins.c);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32), args)?;
            }
            Op::NavFirst => {
                let assoc = AssocId::new(u32::from(ins.b));
                let mut first: Option<InstId> = None;
                host.related_each(ctx.self_inst, assoc, &mut |t| {
                    if first.is_none() {
                        first = Some(t);
                    }
                })?;
                ctx.frame[a] = Some(Value::Inst(ClassId::new(ins.d as u32), first));
            }
            // The fused compute-and-send trio. Each replays the exact
            // burn/error order of the two-instruction sequence it
            // replaces: the payload's BinSC first (loop fuel carried by
            // this instruction, Lit burn internal), then the send's own
            // loop burn, then the send's target checks.
            Op::SendSlotOpC => {
                let v = fused_payload(ctx, layout, act, &ins)?;
                ctx.burn(1)?;
                let to = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let args = payload1(host, v);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32 & 0xFFFF), args)?;
            }
            Op::SendAnyOpC => {
                let v = fused_payload(ctx, layout, act, &ins)?;
                ctx.burn(2)?;
                let vt = rd(&ctx.frame, layout, ins.a)?;
                let to = apply_unop(UnOp::Any, vt)?.as_inst()?;
                let args = payload1(host, v);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32 & 0xFFFF), args)?;
            }
            Op::SendFirstOpC => {
                let v = fused_payload(ctx, layout, act, &ins)?;
                ctx.burn(2)?;
                let (class, opt) = match &ctx.frame[a] {
                    Some(Value::Inst(c, o)) => (*c, *o),
                    _ => unreachable!("NavFirst writes the target register"),
                };
                let Some(to) = opt else {
                    return Err(CoreError::runtime(format!(
                        "`any` applied to empty {class} set"
                    )));
                };
                let args = payload1(host, v);
                host.send_arc(ctx.self_inst, to, EventId::new(ins.d as u32 & 0xFFFF), args)?;
            }
            Op::CancelI => {
                host.cancel_delayed(ctx.self_inst, EventId::new(ins.d as u32))?;
            }
            Op::CallBridge => {
                let (actor, func) = &act.bridges[ins.d as u32 as usize];
                let args = take_args(&mut ctx.frame, ins.b, ins.c);
                let v = host.bridge_call(*actor, func, args)?;
                ctx.frame[a] = Some(v);
            }
            Op::StAttrSelf => {
                let v = ctx.frame[usize::from(ins.b)]
                    .take()
                    .expect("value register written by lowering");
                host.attr_write(ctx.self_inst, AttrId::new(ins.d as u32), v)?;
            }
            Op::StAttrReg => {
                let inst = rd(&ctx.frame, layout, ins.a)?.as_inst()?;
                let v = ctx.frame[usize::from(ins.b)]
                    .take()
                    .expect("value register written by lowering");
                host.attr_write(inst, AttrId::new(ins.d as u32), v)?;
            }
            Op::StAttrSelfConst => {
                // Typed store: the lowering only fuses constants the
                // typechecker matched against the declared attribute type.
                let v = act.consts[usize::from(ins.b)].clone();
                host.attr_write_typed(ctx.self_inst, AttrId::new(ins.d as u32), v)?;
            }
            Op::SelfAttrOpConst => {
                let va = host.attr_read(ctx.self_inst, AttrId::new(u32::from(ins.a)))?;
                ctx.burn(1)?;
                let r = apply_binop(binop_from(ins.c), &va, &act.consts[usize::from(ins.b)])?;
                ctx.burn(1)?;
                // Typed store: the typechecker proved the fused
                // expression's type equal to the destination attribute's.
                host.attr_write_typed(ctx.self_inst, AttrId::new(ins.d as u32), r)?;
            }
            Op::Jump => next = jump(pc, ins.d),
            Op::JumpIfFalse => {
                if !rd(&ctx.frame, layout, ins.a)?.as_bool()? {
                    next = jump(pc, ins.d);
                }
            }
            Op::JmpSCFalse => {
                if ctx.frame[a].is_none() {
                    return Err(unbound(layout, a));
                }
                ctx.burn(1)?;
                let va = ctx.frame[a].as_ref().expect("checked");
                let r = apply_binop(binop_from(ins.c), va, &act.consts[usize::from(ins.b)])?;
                if !r.as_bool()? {
                    next = jump(pc, ins.d);
                }
            }
            Op::JmpSSFalse => {
                if ctx.frame[a].is_none() {
                    return Err(unbound(layout, a));
                }
                ctx.burn(1)?;
                let vb = rd(&ctx.frame, layout, ins.b)?;
                let va = ctx.frame[a].as_ref().expect("checked");
                let r = apply_binop(binop_from(ins.c), va, vb)?;
                if !r.as_bool()? {
                    next = jump(pc, ins.d);
                }
            }
            Op::ForIter => {
                let rset = usize::from(ins.b);
                let (class, len) = match &ctx.frame[rset] {
                    Some(Value::Set(c, items)) => (*c, items.len()),
                    Some(other) => {
                        return Err(CoreError::runtime(format!(
                            "foreach needs a set, got {}",
                            other.data_type()
                        )))
                    }
                    None => unreachable!("set register written by lowering"),
                };
                let idx = counter(&ctx.frame, usize::from(ins.c));
                if idx >= len {
                    next = jump(pc, ins.d);
                } else {
                    ctx.burn(1)?;
                    let item = set_item(&ctx.frame, rset, idx);
                    ctx.frame[a] = Some(Value::Inst(class, Some(item)));
                    ctx.frame[usize::from(ins.c)] = Some(Value::Int(idx as i64 + 1));
                }
            }
            Op::Ret => return Ok(Outcome::Returned),
            Op::Halt => return Ok(Outcome::Completed),
            Op::ErrBreak | Op::ErrContinue => {
                return Err(CoreError::runtime("`break`/`continue` outside of a loop"))
            }
        }
        pc = next;
    }
}

// -- disassembler ----------------------------------------------------------

fn fused_note(op: Op) -> Option<&'static str> {
    match op {
        Op::BinSC | Op::BinCS | Op::BinSS => Some("fused slot/const binop"),
        Op::JmpSCFalse | Op::JmpSSFalse => Some("fused guard-and-branch"),
        Op::SendSelfLit | Op::SendSlotLit | Op::SendAnySlotLit | Op::SendActorLit => {
            Some("fused send-literal-payload (pooled Arc)")
        }
        Op::SendSelf => Some("fused self-send"),
        Op::SendSlot | Op::SendAnySlot => Some("fused send-to-slot"),
        Op::StAttrSelfConst => Some("fused assign-const"),
        Op::SelfAttrOpConst => Some("fused self.attr = self.attr op const"),
        Op::NavFirst | Op::SendFirstTo => Some("fused navigate-first + send-to-any"),
        Op::SendSlotOpC | Op::SendAnyOpC | Op::SendFirstOpC => Some("fused payload-compute + send"),
        Op::AttrSelf => Some("fused self-attribute read"),
        Op::UnarySlot => Some("by-reference slot operand"),
        _ => None,
    }
}

/// Renders one lowered action as an annotated instruction listing.
pub fn disasm_action(act: &BcAction) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "    ; regs={} (slots={}, temps={}), consts={}, payloads={}, bridges={}",
        act.n_regs,
        act.layout.len(),
        act.n_regs - act.layout.len(),
        act.consts.len(),
        act.payloads.len(),
        act.bridges.len()
    );
    if act.const_folds > 0 {
        let _ = write!(out, ", const-folds={}", act.const_folds);
    }
    let _ = writeln!(out);
    for (pc, ins) in act.code.iter().enumerate() {
        let target = match ins.op {
            Op::Jump
            | Op::JumpIfFalse
            | Op::JmpSCFalse
            | Op::JmpSSFalse
            | Op::ForIter
            | Op::SelIterA
            | Op::SelIterM
            | Op::SelTakeA
            | Op::SelTakeM => format!(" -> {}", jump(pc, ins.d)),
            _ => String::new(),
        };
        let _ = write!(
            out,
            "    {pc:>4}: {:<16} a={:<5} b={:<5} c={:<5} d={:<6} fuel={}{target}",
            format!("{:?}", ins.op),
            ins.a,
            ins.b,
            ins.c,
            ins.d,
            ins.fuel
        );
        if let Some(note) = fused_note(ins.op) {
            let _ = write!(out, "  ; {note}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders every entry of a program, with `Class · State ← Event`
/// headers resolved against the domain: the annotated instruction listing
/// of each lowered action, or the error of a pair that has none.
pub fn disasm(domain: &Domain, program: &BcProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ci, bcc) in program.classes.iter().enumerate() {
        let class = &domain.classes[ci];
        let Some(machine) = class.state_machine.as_ref() else {
            continue;
        };
        for (idx, entry) in bcc.entries.iter().enumerate() {
            let Some(entry) = entry else {
                continue;
            };
            let (state, event) = (idx / bcc.n_events, idx % bcc.n_events);
            let _ = write!(
                out,
                "{} · {} <- {}:",
                class.name, machine.states[state].name, class.events[event].name
            );
            match entry {
                Ok(act) => {
                    out.push('\n');
                    out.push_str(&disasm_action(act));
                }
                Err(e) => {
                    let _ = writeln!(out, " (not lowered — {e})");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{pipeline_domain, DomainBuilder};
    use crate::interp::DEFAULT_FUEL;
    use crate::model::Multiplicity;
    use crate::parse::parse_block;
    use crate::testhost::{fresh, test_domain, Effects};
    use crate::walker::{run_block, Env};

    /// Lowers `src` for `self` of the test domain's `Counter`, with no
    /// const-attribute facts.
    fn lower(src: &str, params: &[(String, DataType)]) -> BcAction {
        lower_folded(src, params, &BTreeMap::new())
    }

    fn lower_folded(
        src: &str,
        params: &[(String, DataType)],
        consts: &BTreeMap<AttrId, Value>,
    ) -> BcAction {
        let block = parse_block(src).unwrap();
        lower_block(&test_domain(), ClassId::new(0), params, &block, consts)
            .unwrap()
            .expect("test actions fit the operand encoding")
    }

    struct Sides {
        walker: (Result<Outcome>, Effects, ExecCtx, Env),
        vm: (Result<Outcome>, Effects, ExecCtx),
        layout: FrameLayout,
        peephole: bool,
    }

    /// Runs `src` through the walker and the VM on identical fresh hosts,
    /// with `fuel` and bound `args`.
    fn run_both_with(src: &str, args: &[Value], fuel: u64) -> Sides {
        let params: Vec<(String, DataType)> = args
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("p{i}"), v.data_type()))
            .collect();
        run_both_params(src, &params, args, fuel)
    }

    fn run_both_params(
        src: &str,
        params: &[(String, DataType)],
        args: &[Value],
        fuel: u64,
    ) -> Sides {
        run_both_folded(src, params, args, fuel, &BTreeMap::new())
    }

    fn run_both_folded(
        src: &str,
        params: &[(String, DataType)],
        args: &[Value],
        fuel: u64,
        consts: &BTreeMap<AttrId, Value>,
    ) -> Sides {
        let block = parse_block(src).unwrap();
        let bca = lower_folded(src, params, consts);
        // The NavFirst peephole deliberately leaves the elided set slot
        // unwritten in the VM frame; frames are discarded after dispatch in
        // production, so the difference is unobservable there.
        let peephole = bca.code.iter().any(|i| i.op == Op::NavFirst);

        let (mut h1, i1) = fresh();
        let mut ctx1 = ExecCtx::with_frame(i1, ClassId::new(0), Vec::new());
        ctx1.fuel = fuel;
        let mut env = Env::new(params, args);
        let r1 = run_block(&mut h1, &mut ctx1, &mut env, &block);

        let (mut h2, i2) = fresh();
        let mut ctx2 = ExecCtx::with_frame(i2, bca.self_class, vec![None; bca.n_regs]);
        ctx2.fuel = fuel;
        ctx2.bind_args(args.to_vec());
        let r2 = run_bc(&mut h2, &mut ctx2, &bca);

        Sides {
            walker: (r1, h1.fx, ctx1, env),
            vm: (r2, h2.fx, ctx2),
            layout: bca.layout,
            peephole,
        }
    }

    /// The walker's value for the VM's frame slot `slot`, found by the
    /// slot's name: parameters positionally, locals by name.
    fn walker_slot(env: &Env, layout: &FrameLayout, slot: Slot) -> Option<Value> {
        if slot < layout.params() {
            env.params[slot].1.clone()
        } else {
            env.locals.get(layout.name(slot)).cloned()
        }
    }

    /// Asserts walker/VM agreement: outcome or error string, host
    /// effects, and (on success) steps and the named frame slots.
    fn assert_agree(src: &str, args: &[Value]) {
        let s = run_both_with(src, args, DEFAULT_FUEL);
        check_sides(src, &s, true);
    }

    fn check_sides(src: &str, s: &Sides, check_frames: bool) {
        match (&s.walker.0, &s.vm.0) {
            (Ok(o1), Ok(o2)) => {
                assert_eq!(o1, o2, "outcome mismatch for {src:?}");
                assert_eq!(
                    s.walker.2.steps, s.vm.2.steps,
                    "step-count mismatch for {src:?}"
                );
                if check_frames && !s.peephole {
                    for slot in 0..s.layout.len() {
                        assert_eq!(
                            walker_slot(&s.walker.3, &s.layout, slot),
                            s.vm.2.frame[slot],
                            "slot {slot} ({}) mismatch for {src:?}",
                            s.layout.name(slot)
                        );
                    }
                }
            }
            (Err(e1), Err(e2)) => {
                assert_eq!(e1.to_string(), e2.to_string(), "error mismatch for {src:?}");
            }
            (r1, r2) => panic!("outcome divergence for {src:?}: walker={r1:?} vm={r2:?}"),
        }
        assert_eq!(s.walker.1, s.vm.1, "host effects mismatch for {src:?}");
    }

    /// Every fuel level from 0 to just past the full run must produce the
    /// same error identity and the same prefix of host effects.
    fn assert_fuel_sweep(src: &str, args: &[Value]) {
        let full = run_both_with(src, args, DEFAULT_FUEL);
        check_sides(src, &full, true);
        let steps = full.walker.2.steps;
        for fuel in 0..=steps + 1 {
            let s = run_both_with(src, args, fuel);
            match (&s.walker.0, &s.vm.0) {
                (Ok(_), Ok(_)) | (Err(_), Err(_)) => {}
                (r1, r2) => {
                    panic!("fuel={fuel} outcome divergence for {src:?}: walker={r1:?} vm={r2:?}")
                }
            }
            if let (Err(e1), Err(e2)) = (&s.walker.0, &s.vm.0) {
                assert_eq!(
                    e1.to_string(),
                    e2.to_string(),
                    "fuel={fuel} error mismatch for {src:?}"
                );
            }
            assert_eq!(
                s.walker.1, s.vm.1,
                "fuel={fuel} host effects mismatch for {src:?}"
            );
        }
    }

    const BATTERY: &[&str] = &[
        "",
        "x = 1;",
        "self.n = self.n + 41; x = self.n + 1;",
        "self.n = 7;",
        "x = 2; y = 3; x = x + y;",
        "x = 2; x = x * x;",
        "a = create Lamp; b = create Lamp;\n\
         select many all from Lamp;\n\
         n = cardinality(all);\n\
         delete a;\n\
         select many rest from Lamp;\n\
         m = cardinality(rest);",
        "a = create Lamp; b = create Lamp;\n\
         b.on = true;\n\
         select any lit from Lamp where selected.on;\n\
         select any dark from Lamp where not selected.on;\n\
         lit_found = not_empty(lit);",
        "select any l from Lamp; e = empty(l);",
        "select many none from Lamp where selected.on; k = cardinality(none);",
        "a = create Lamp; b = create Lamp;\n\
         relate self to a across R1;\n\
         relate self to b across R1;\n\
         lamps = self -> Lamp[R1];\n\
         n = cardinality(lamps);\n\
         unrelate self from a across R1;\n\
         m = cardinality(self -> Lamp[R1]);",
        "x = self -> Lamp[R1]; n = cardinality(x);",
        "gen Set(7) to self;\n\
         gen Tick() to self after 10;\n\
         gen done(0) to ENV;",
        "gen Tick() to self after 10; cancel Tick;",
        "d = 4; gen Tick() to self after d;",
        "d = 0 - 1; gen Tick() to self after d;",
        "gen Set(self.n) to self;",
        "total = 0; k = 0;\n\
         while (k < 5) { k = k + 1; if (k == 3) { continue; } total = total + k; }\n\
         count = 0;\n\
         a = create Lamp; b = create Lamp; c = create Lamp;\n\
         select many all from Lamp;\n\
         foreach l in all { count = count + 1; if (count == 2) { break; } }",
        "x = 1; return; x = 2;",
        "ENV::info(\"hi\"); r = ENV::info(\"a\");",
        "if (self.n == 0) { x = 1; } elif (self.n == 1) { x = 2; } else { x = 3; }",
        "if (false) { x = 1; }\n\
         y = x + 1;",
        "a = create Lamp; delete a; a.on = true;",
        "x = 1; y = 0; z = x / y;",
        "x = 1; y = 0; z = x % y;",
        "x = 5; s = string(x); t = s + \"!\";",
        "x = 0 - 5; y = int(real(x));",
        "b = true and false; c = b or true;",
        "x = 1; b = x and true;",
        "while (false) { x = 1; }",
        "k = 0; while (k < 3) { k = k + 1; }",
        "k = 10; while (k > 0) { k = k - 1; if (k == 5) { break; } }",
        "a = create Lamp;\n\
         select many all from Lamp;\n\
         foreach l in all { l.on = true; }",
        "foreach l in self.n { x = 1; }",
        "break;",
        "continue;",
        "if (true) { break; }",
        "x = any(self -> Lamp[R1]);",
        "a = create Lamp; relate self to a across R1;\n\
         nexts = self -> Lamp[R1];\n\
         gen Ping() to any(nexts);",
        "a = create Lamp; relate self to a across R1;\n\
         nexts = self -> Lamp[R1];\n\
         gen Ping() to any(nexts);\n\
         m = cardinality(nexts);",
        "nexts = self -> Lamp[R1];\n\
         gen Ping() to any(nexts);",
        "self.n = self.n - 1; self.n = self.n * 3;",
        "x = -self.n; y = not empty(self -> Lamp[R1]);",
    ];

    #[test]
    fn differential_battery_agrees() {
        for src in BATTERY {
            assert_agree(src, &[]);
        }
    }

    #[test]
    fn differential_with_event_params() {
        assert_agree("self.n = rcvd.p0 * 2;", &[Value::Int(21)]);
        // Declared parameter left unbound: both engines must raise the same
        // "unresolved event parameter" error at first read.
        let s = run_both_params(
            "self.n = rcvd.p0 * 2;",
            &[("p0".into(), DataType::Int)],
            &[],
            DEFAULT_FUEL,
        );
        check_sides("self.n = rcvd.p0 * 2; (unbound)", &s, true);
        assert_agree(
            "if (rcvd.p0 > 0) { self.n = rcvd.p0; } else { self.n = 0 - rcvd.p0; }",
            &[Value::Int(-4)],
        );
    }

    #[test]
    fn fuel_boundaries_match_exactly() {
        for src in [
            "self.n = self.n + 41; x = self.n + 1;",
            "total = 0; k = 0;\n\
             while (k < 5) { k = k + 1; if (k == 3) { continue; } total = total + k; }",
            "a = create Lamp; b = create Lamp;\n\
             b.on = true;\n\
             select any lit from Lamp where selected.on;\n\
             found = not_empty(lit);",
            "gen Set(7) to self; gen Tick() to self after 2; gen done(0) to ENV;",
            "a = create Lamp; relate self to a across R1;\n\
             nexts = self -> Lamp[R1];\n\
             gen Ping() to any(nexts);",
            "a = create Lamp;\n\
             select many all from Lamp;\n\
             foreach l in all { l.on = true; }",
            "ENV::info(\"x\");",
            "x = 1; y = 0; z = x / y;",
            // Fused payload-compute + send trio, including its error
            // paths (empty navigation set, binop failure inside the
            // fused instruction).
            "k = 3; a = create Lamp; relate self to a across R1;\n\
             nexts = self -> Lamp[R1];\n\
             gen Pulse(k + 1) to any(nexts);",
            "k = 3; nexts = self -> Lamp[R1];\ngen Pulse(k + 1) to any(nexts);",
            "k = 3; t = self;\ngen Set(k + 1) to t;",
            "k = 3; t = self;\ngen Set(k / 0) to t;",
            "k = 3; a = create Lamp; relate self to a across R1;\n\
             nexts = self -> Lamp[R1];\n\
             gen Pulse(k + 1) to any(nexts);\n\
             c = cardinality(nexts);",
        ] {
            assert_fuel_sweep(src, &[]);
        }
        assert_fuel_sweep("self.n = rcvd.p0 + 1;", &[Value::Int(5)]);
    }

    #[test]
    fn slot_aliasing_in_fused_binops() {
        // dst register == source slot for BinSC/BinSS/BinRR shapes.
        assert_agree("x = 1; x = x + 1;", &[]);
        assert_agree("x = 1; y = 2; x = x + y;", &[]);
        assert_agree("x = 2; x = x * x;", &[]);
    }

    #[test]
    fn empty_action_lowers_to_halt() {
        let bca = lower("", &[]);
        assert_eq!(bca.code.len(), 1);
        assert_eq!(bca.code[0].op, Op::Halt);
        assert_agree("", &[]);
    }

    #[test]
    fn superinstructions_are_selected() {
        let lower = |src: &str| lower(src, &[]);
        assert_eq!(
            lower("self.n = self.n + 1;").code[0].op,
            Op::SelfAttrOpConst
        );
        assert_eq!(lower("self.n = 7;").code[0].op, Op::StAttrSelfConst);
        assert_eq!(lower("gen Set(7) to self;").code[0].op, Op::SendSelfLit);
        assert_eq!(lower("gen done(0) to ENV;").code[0].op, Op::SendActorLit);
        let nav = lower("nexts = self -> Lamp[R1];\ngen Ping() to any(nexts);");
        assert_eq!(nav.code[0].op, Op::NavFirst);
        assert_eq!(nav.code[1].op, Op::SendFirstTo);
        // Payload-compute + send fusion: one `slot binop lit` argument.
        let f = lower("k = 3;\nnexts = self -> Lamp[R1];\ngen Pulse(k + 1) to any(nexts);");
        assert_eq!(f.code[1].op, Op::NavFirst);
        assert_eq!(f.code[2].op, Op::SendFirstOpC);
        let f = lower("k = 3; t = self;\ngen Set(k + 1) to t;");
        assert!(f.code.iter().any(|i| i.op == Op::SendSlotOpC));
        // A second read of the set keeps the materialising nav but still
        // fuses the send.
        let f = lower(
            "k = 3;\nnexts = self -> Lamp[R1];\ngen Pulse(k + 1) to any(nexts);\n\
             c = cardinality(nexts);",
        );
        assert_eq!(f.code[1].op, Op::NavSelf);
        assert!(f.code.iter().any(|i| i.op == Op::SendAnyOpC));
        // A second read of the slot disables the peephole.
        let no_peep =
            lower("nexts = self -> Lamp[R1];\ngen Ping() to any(nexts);\nk = cardinality(nexts);");
        assert_eq!(no_peep.code[0].op, Op::NavSelf);
        // Guard fusion.
        let g = lower("k = 0; if (k < 3) { k = 1; }");
        assert!(g.code.iter().any(|i| i.op == Op::JmpSCFalse));
    }

    #[test]
    fn literal_payloads_are_pooled() {
        let bca = lower(
            "gen Set(7) to self; gen Set(7) to self; gen Set(9) to self;",
            &[],
        );
        assert_eq!(
            bca.payloads.len(),
            2,
            "equal literal payloads share a pool slot"
        );
    }

    /// A model whose one action binds a local more than the 16-bit
    /// register operands can address.
    fn wide_domain() -> Domain {
        let body: String = (0..=u16::MAX as usize)
            .map(|i| format!("v{i} = 0;\n"))
            .collect();
        let mut b = DomainBuilder::new("wide");
        b.class("C")
            .event("Go", &[])
            .state("S", &body)
            .initial("S")
            .transition("S", "Go", "S");
        b.build().unwrap()
    }

    #[test]
    fn register_overflow_is_an_x0016_error_at_dispatch() {
        let domain = wide_domain();
        let machine = domain.classes[0].state_machine.as_ref().unwrap();
        let block = &machine.states[0].action;
        let reason = lower_block(&domain, ClassId::new(0), &[], block, &BTreeMap::new())
            .expect("every name resolves")
            .unwrap_err();
        assert!(
            reason.contains("u16"),
            "reason should name the limit: {reason}"
        );

        // The program keeps the pair, with the reason as its X0016 error.
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &consts);
        assert_eq!(bc.vm_entries(), 0);
        let err = bc
            .entry(ClassId::new(0), StateId::new(0), EventId::new(0))
            .expect("the pair has an entry")
            .unwrap_err()
            .to_string();
        assert!(err.contains("X0016 bc-unsupported"), "{err}");
        assert!(err.contains("C.S on Go") && err.contains(&reason), "{err}");
        assert_eq!(bc.errors().count(), 1);
        assert!(disasm(&domain, &bc).contains("C · S <- Go: (not lowered — "));
    }

    #[test]
    fn a_name_that_fails_to_resolve_outranks_an_operand_overflow() {
        // The overflow comes first in the block, the unknown name last:
        // the pair keeps the resolution error, as it did when blocks were
        // resolved before they were lowered.
        let mut body: String = (0..=u16::MAX as usize)
            .map(|i| format!("v{i} = 0;\n"))
            .collect();
        body.push_str("x = nope;\n");
        let mut b = DomainBuilder::new("wide");
        b.class("C")
            .event("Go", &[])
            .state("S", &body)
            .initial("S")
            .transition("S", "Go", "S");
        let domain = b.build_unvalidated().unwrap();
        let bc = BcProgram::new(&domain, &BTreeSet::new());
        let err = bc
            .entry(ClassId::new(0), StateId::new(0), EventId::new(0))
            .expect("the pair has an entry")
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown variable `nope`");
    }

    #[test]
    fn whole_program_lowering_and_entry_indexing() {
        let domain = pipeline_domain(3).unwrap();
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &consts);
        assert_eq!(bc.errors().count(), 0);
        assert!(bc.vm_entries() > 0);
        // Exactly the pairs some transition enters have an entry.
        for (ci, class) in domain.classes.iter().enumerate() {
            let Some(machine) = class.state_machine.as_ref() else {
                continue;
            };
            for s in 0..machine.states.len() {
                for e in 0..class.events.len() {
                    let cid = ClassId::new(ci as u32);
                    let sid = StateId::new(s as u32);
                    let eid = EventId::new(e as u32);
                    let entered = machine
                        .transitions
                        .iter()
                        .any(|t| t.event == eid && t.target == TransitionTarget::To(sid));
                    assert_eq!(
                        entered,
                        bc.entry(cid, sid, eid).is_some(),
                        "entry presence must match for ({ci},{s},{e})"
                    );
                }
            }
        }
    }

    #[test]
    fn disassembler_renders_annotated_stream() {
        let domain = pipeline_domain(2).unwrap();
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &consts);
        let text = disasm(&domain, &bc);
        assert!(text.contains("Stage0"), "{text}");
        assert!(
            text.contains("fused"),
            "superinstruction annotations expected:\n{text}"
        );
        assert!(text.contains("Halt"), "{text}");
    }

    #[test]
    fn guard_only_transition_bodies() {
        assert_agree("if (self.n > 0) { self.n = 0; }", &[]);
        assert_agree("if (self.n == 0) { } else { self.n = 1; }", &[]);
    }

    /// Runs `src` through the walker and the VM with `n` declared const
    /// (as the effect analysis would for a never-written attribute),
    /// asserting exact agreement including step counts.
    fn assert_agree_folded(src: &str, expect_folds: u32) {
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0)); // Counter.n default
        assert_eq!(
            lower_folded(src, &[], &consts).const_folds,
            expect_folds,
            "fold count for {src:?}"
        );
        let s = run_both_folded(src, &[], &[], DEFAULT_FUEL, &consts);
        assert_eq!(
            s.walker.0.as_ref().unwrap(),
            s.vm.0.as_ref().unwrap(),
            "outcome for {src:?}"
        );
        assert_eq!(
            s.walker.2.steps, s.vm.2.steps,
            "fuel-neutrality for {src:?}"
        );
        assert_eq!(s.walker.1, s.vm.1, "host effects for {src:?}");
        for slot in 0..s.layout.len() {
            assert_eq!(
                walker_slot(&s.walker.3, &s.layout, slot),
                s.vm.2.frame[slot],
                "slot {slot} for {src:?}"
            );
        }
    }

    #[test]
    fn const_attr_reads_fold_to_const_and_stay_walker_exact() {
        assert_agree_folded("x = self.n;", 1);
        assert_agree_folded("x = self.n + 1;\ny = self.n * 2;", 2);
        assert_agree_folded("gen done(self.n) to ENV;", 1);
        // The folded action must not read the attribute at runtime.
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0));
        let bca = lower_folded("x = self.n;", &[], &consts);
        assert!(
            bca.code.iter().all(|i| i.op != Op::AttrSelf),
            "AttrSelf should be folded away"
        );
        assert!(bca.code.iter().any(|i| i.op == Op::Const));
    }

    #[test]
    fn delete_in_action_disables_const_fold() {
        // A read after `delete self` must raise identically on both
        // sides, so the whole action opts out of folding.
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0));
        let bca = lower_folded("delete self;\nx = self.n;", &[], &consts);
        assert_eq!(bca.const_folds, 0);
        assert!(bca.code.iter().any(|i| i.op == Op::AttrSelf));
    }

    #[test]
    fn whole_program_folds_effect_proven_const_attrs() {
        let mut b = DomainBuilder::new("cf");
        b.class("C")
            .attr_default("k", DataType::Int, Value::Int(7))
            .attr("w", DataType::Int)
            .event("Go", &[])
            .state("S", "self.w = self.k + 1;")
            .initial("S")
            .transition("S", "Go", "S");
        let domain = b.build().unwrap();
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &consts);
        assert_eq!(bc.errors().count(), 0);
        assert_eq!(bc.const_folds(), 1, "`k` is never written, `w` is");
        let text = disasm(&domain, &bc);
        assert!(text.contains("const-folds=1"), "{text}");
    }

    // -- name resolution ---------------------------------------------------

    fn demo_domain() -> Domain {
        let mut b = DomainBuilder::new("demo");
        b.actor("OUT").event("done", &[("v", DataType::Int)]);
        b.class("Lamp").attr("on", DataType::Bool);
        b.class("Counter")
            .attr("n", DataType::Int)
            .event("Set", &[("v", DataType::Int)])
            .state("Idle", "")
            .state("Run", "self.n = rcvd.v; gen done(self.n) to OUT;")
            .initial("Idle")
            .transition("Idle", "Set", "Run")
            .transition("Run", "Set", "Run");
        b.association(
            "R1",
            "Counter",
            Multiplicity::One,
            "Lamp",
            Multiplicity::Many,
        );
        b.build().unwrap()
    }

    /// Lowers `src` for `self` of the demo domain's `Counter`.
    fn lower_demo(src: &str, params: &[(String, DataType)]) -> Result<BcAction> {
        let d = demo_domain();
        let counter = d.class_id("Counter").unwrap();
        let block = parse_block(src).unwrap();
        let lowered = lower_block(&d, counter, params, &block, &BTreeMap::new())?;
        Ok(lowered.expect("test actions fit the operand encoding"))
    }

    #[test]
    fn params_occupy_leading_slots() {
        let params = [("v".to_owned(), DataType::Int)];
        let a = lower_demo("x = rcvd.v; y = x + 1;", &params).unwrap();
        assert_eq!(a.layout.params(), 1);
        assert_eq!(a.layout.name(0), "v");
        assert_eq!(a.layout.slot("x"), Some(1));
        assert_eq!(a.layout.slot("y"), Some(2));
        assert_eq!(a.layout.len(), 3);
    }

    #[test]
    fn attrs_and_events_are_id_resolved() {
        let d = demo_domain();
        let counter = d.class(d.class_id("Counter").unwrap());
        let a = lower_demo("self.n = self.n + 1; gen Set(self.n) to self;", &[]).unwrap();
        let n = id_d(counter.attr_id("n").unwrap().index());
        assert_eq!(a.code[0].op, Op::SelfAttrOpConst);
        assert_eq!((i32::from(a.code[0].a), a.code[0].d), (n, n));
        let send = a.code.iter().find(|i| i.op == Op::SendSelf).unwrap();
        assert_eq!(send.d, id_d(counter.event_id("Set").unwrap().index()));
    }

    #[test]
    fn unknown_names_fail_to_lower() {
        for (src, err) in [
            ("x = nope + 1;", "unknown variable `nope`"),
            ("self.zzz = 1;", "unknown attribute `Counter.zzz`"),
            ("gen Nope() to self;", "unknown event `Counter.Nope`"),
            ("x = self -> Lamp[R99];", "unknown association `R99`"),
        ] {
            let got = lower_demo(src, &[]).unwrap_err();
            assert_eq!(got.to_string(), err, "{src}");
        }
    }

    #[test]
    fn navigation_is_class_checked() {
        let err = lower_demo("x = self -> Counter[R1];", &[]).unwrap_err();
        assert!(err.to_string().contains("reaches"), "{err}");
    }

    #[test]
    fn actor_fallback_matches_typecheck_rule() {
        // OUT is not a local, so the generate resolves to the actor.
        let a = lower_demo("gen done(1) to OUT;", &[]).unwrap();
        assert_eq!(a.code[0].op, Op::SendActorLit);
    }

    #[test]
    fn whole_domain_lowers_event_reachable_pairs() {
        let d = pipeline_domain(3).unwrap();
        let p = BcProgram::new(&d, &BTreeSet::new());
        for k in 0..3u32 {
            let class = d.class_id(&format!("Stage{k}")).unwrap();
            let c = d.class(class);
            let m = c.state_machine.as_ref().unwrap();
            let fwd = m.state_id("Forwarding").unwrap();
            let feed = c.event_id("Feed").unwrap();
            let action = p.entry(class, fwd, feed).unwrap().unwrap();
            assert_eq!(action.layout.params(), 1, "Feed carries one parameter");
            // The initial state is never entered by an event.
            let waiting = m.state_id("Waiting").unwrap();
            assert!(p.entry(class, waiting, feed).is_none());
        }
    }
}
