//! Register-based bytecode for compiled actions, and the VM that runs
//! them: the workspace's one action executor.
//!
//! This module lowers each [`CAction`] of a [`CompiledProgram`] into a
//! contiguous instruction stream executed by a `match`-threaded dispatch
//! loop ([`run_bc`]). Registers are the frame slots (parameters, then locals)
//! plus compiler temporaries above them, so the VM reuses the caller's
//! recycled `Vec<Option<Value>>` frame.
//!
//! The lowering is **semantics-exact**: an action burns the fuel of its
//! slot-resolved IR — one unit per statement and per expression node — in
//! the same order relative to every fallible check and every host effect
//! as a direct walk of that IR, so error identity (fuel exhaustion vs
//! unbound slot vs runtime error) is preserved at exact fuel boundaries.
//! Burns are merged into an instruction's entry `fuel` only when nothing
//! fallible or effectful separates them; otherwise fused handlers burn
//! internally between their checks. The unit tests hold the VM to a
//! test-only tree walker of the IR at every fuel level.
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
//! A construct that cannot be encoded (a frame needing more than
//! `u16::MAX` registers, or a pool outgrowing the 16-bit operands) is a
//! model error: [`BcProgram::new`] stores it as diagnostic X0016
//! (`bc-unsupported`) in that action's entry, and executors raise it when
//! the pair is dispatched, exactly like a block that failed to compile.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::code::{CAction, CExpr, CStmt, CompiledProgram, FrameLayout, Slot};
use crate::diag::Code;
use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId, StateId};
use crate::interp::{ActionHost, ExecCtx, Outcome};
use crate::model::Domain;
use crate::value::{apply_binop, apply_unop, BinOp, UnOp, Value};

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

#[derive(Debug, Clone, Default)]
struct BcClass {
    n_events: usize,
    entries: Vec<Option<Result<Arc<BcAction>>>>,
}

/// All lowered actions of a domain, indexed like
/// [`CompiledProgram`]:
/// `state * n_events + event` per class.
#[derive(Debug, Clone, Default)]
pub struct BcProgram {
    classes: Vec<BcClass>,
}

impl BcProgram {
    /// Lowers every compiled action of `program`. Construction is
    /// infallible, like [`CompiledProgram::new`]: a pair whose block failed
    /// to compile keeps that error, and a pair the lowering cannot encode
    /// stores an X0016 error naming the action and the reason. Either is
    /// raised when — and only when — the pair is dispatched.
    ///
    /// `const_attrs` are the whole-model constant-attribute facts of the
    /// effect analysis ([`ShardPlan::const_attrs`](crate::effects::ShardPlan::const_attrs)):
    /// an attribute written nowhere always holds its declared default, so
    /// `self.attr` reads of it lower to `Op::Const`.
    pub fn new(
        domain: &Domain,
        program: &CompiledProgram,
        const_attrs: &BTreeSet<(ClassId, AttrId)>,
    ) -> BcProgram {
        let empty = BTreeMap::new();
        let folds = const_fold_maps(domain, const_attrs);
        let classes = program
            .classes
            .iter()
            .enumerate()
            .map(|(ci, cc)| {
                let consts = folds.get(ci).unwrap_or(&empty);
                let entries = cc
                    .actions
                    .iter()
                    .enumerate()
                    .map(|(idx, slot)| {
                        Some(match slot.as_ref()? {
                            Ok(action) => lower_action_with(action, consts)
                                .map(Arc::new)
                                .map_err(|why| unsupported(domain, ci, idx, cc.n_events, &why)),
                            Err(e) => Err(e.clone()),
                        })
                    })
                    .collect();
                BcClass {
                    n_events: cc.n_events,
                    entries,
                }
            })
            .collect();
        BcProgram { classes }
    }

    /// The lowered action entered when `event` drives `class` into
    /// `state`, or `None` if no transition produces that pair.
    ///
    /// # Errors
    ///
    /// Returns the compile or X0016 lowering error recorded for the pair.
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

type LRes<T> = std::result::Result<T, String>;

fn u16_of(x: usize, what: &str) -> LRes<u16> {
    u16::try_from(x).map_err(|_| format!("{what} index {x} exceeds the u16 operand limit"))
}

struct LoopCtx {
    /// Instruction index `continue` jumps back to.
    continue_to: usize,
    /// Forward-jump sites to patch to the loop exit.
    breaks: Vec<usize>,
}

struct Lower {
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
    /// Read count per slot over the whole action (peephole legality).
    reads: Vec<u32>,
    /// Declared defaults of provably-const `self` attributes; empty when
    /// the action contains a `delete` (a read after deleting `self` must
    /// still raise, exactly as the walker does).
    fold: BTreeMap<AttrId, Value>,
    /// Count of self-attribute reads folded to constants.
    folds: u32,
}

/// Lowers one compiled action to bytecode.
///
/// # Errors
///
/// Returns a human-readable reason when the action cannot be encoded
/// (operand-width overflow); [`BcProgram::new`] turns it into an X0016
/// error for that action.
pub fn lower_action(action: &CAction) -> LRes<BcAction> {
    lower_action_with(action, &BTreeMap::new())
}

/// Like [`lower_action`], with whole-model constant-attribute facts from
/// the effect analysis (see [`ShardPlan::const_attrs`](crate::effects::ShardPlan::const_attrs)).
///
/// `const_attrs` maps attributes of the action's `self` class to their
/// declared defaults, restricted to attributes written nowhere in the
/// model. Reads of those attributes through `self` lower to [`Op::Const`]
/// at the same fuel as the `AttrSelf` fast path — fuel-neutral and
/// walker-exact. The fold is disabled wholesale when the action contains
/// a `delete`: a `self.attr` read after deleting `self` must still raise.
///
/// # Errors
///
/// Same failure modes as [`lower_action`].
pub fn lower_action_with(
    action: &CAction,
    const_attrs: &BTreeMap<AttrId, Value>,
) -> LRes<BcAction> {
    let slots = action.layout.len();
    let mut reads = vec![0u32; slots];
    count_stmt_reads(&action.code, &mut reads);
    let fold = if const_attrs.is_empty() || stmts_contain_delete(&action.code) {
        BTreeMap::new()
    } else {
        const_attrs.clone()
    };
    let mut lw = Lower {
        code: Vec::new(),
        consts: Vec::new(),
        payloads: Vec::new(),
        bridges: Vec::new(),
        next_temp: slots,
        floor: slots,
        high: slots,
        loops: Vec::new(),
        reads,
        fold,
        folds: 0,
    };
    // Every slot must itself be addressable.
    u16_of(slots, "frame slot")?;
    lw.stmt_list(&action.code, 1)?;
    lw.emit(Op::Halt, 0, 0, 0, 0, 0);
    Ok(BcAction {
        code: lw.code,
        consts: lw.consts,
        payloads: lw.payloads,
        bridges: lw.bridges,
        n_regs: lw.high,
        self_class: action.self_class,
        layout: action.layout.clone(),
        const_folds: lw.folds,
    })
}

/// Whether any (possibly nested) statement is a `delete`.
fn stmts_contain_delete(stmts: &[CStmt]) -> bool {
    stmts.iter().any(|s| match s {
        CStmt::Delete { .. } => true,
        CStmt::If { arms, otherwise } => {
            arms.iter().any(|(_, body)| stmts_contain_delete(body))
                || otherwise.as_deref().is_some_and(stmts_contain_delete)
        }
        CStmt::While { body, .. } | CStmt::ForEach { body, .. } => stmts_contain_delete(body),
        _ => false,
    })
}

fn count_expr_reads(e: &CExpr, reads: &mut [u32]) {
    match e {
        CExpr::Slot(s) => reads[*s] += 1,
        CExpr::Lit(_) | CExpr::SelfRef | CExpr::Selected => {}
        CExpr::Attr(b, _) => count_expr_reads(b, reads),
        CExpr::Nav { base, .. } => count_expr_reads(base, reads),
        CExpr::Unary(_, x) => count_expr_reads(x, reads),
        CExpr::Binary(_, a, b) => {
            count_expr_reads(a, reads);
            count_expr_reads(b, reads);
        }
        CExpr::Bridge { args, .. } => {
            for a in args {
                count_expr_reads(a, reads);
            }
        }
    }
}

fn count_stmt_reads(stmts: &[CStmt], reads: &mut [u32]) {
    for s in stmts {
        match s {
            CStmt::AssignSlot { expr, .. } | CStmt::Delete { expr } | CStmt::ExprStmt(expr) => {
                count_expr_reads(expr, reads);
            }
            CStmt::AssignAttr { base, expr, .. } => {
                count_expr_reads(expr, reads);
                count_expr_reads(base, reads);
            }
            CStmt::Create { .. } | CStmt::Cancel { .. } => {}
            CStmt::SelectAny { filter, .. } | CStmt::SelectMany { filter, .. } => {
                if let Some(f) = filter {
                    count_expr_reads(f, reads);
                }
            }
            CStmt::Relate { a, b, .. } | CStmt::Unrelate { a, b, .. } => {
                count_expr_reads(a, reads);
                count_expr_reads(b, reads);
            }
            CStmt::GenInst {
                args,
                target,
                delay,
                ..
            } => {
                for a in args {
                    count_expr_reads(a, reads);
                }
                count_expr_reads(target, reads);
                if let Some(d) = delay {
                    count_expr_reads(d, reads);
                }
            }
            CStmt::GenActor { args, .. } => {
                for a in args {
                    count_expr_reads(a, reads);
                }
            }
            CStmt::If { arms, otherwise } => {
                for (c, body) in arms {
                    count_expr_reads(c, reads);
                    count_stmt_reads(body, reads);
                }
                if let Some(body) = otherwise {
                    count_stmt_reads(body, reads);
                }
            }
            CStmt::While { cond, body } => {
                count_expr_reads(cond, reads);
                count_stmt_reads(body, reads);
            }
            CStmt::ForEach { set, body, .. } => {
                count_expr_reads(set, reads);
                count_stmt_reads(body, reads);
            }
            CStmt::Break | CStmt::Continue | CStmt::Return => {}
        }
    }
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

impl Lower {
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

    fn temp(&mut self) -> LRes<u16> {
        let r = self.next_temp;
        self.next_temp += 1;
        if self.next_temp > self.high {
            self.high = self.next_temp;
        }
        u16_of(r, "register")
    }

    fn const_idx(&mut self, v: &Value) -> LRes<u16> {
        let idx = match self.consts.iter().position(|c| c == v) {
            Some(i) => i,
            None => {
                self.consts.push(v.clone());
                self.consts.len() - 1
            }
        };
        u16_of(idx, "constant")
    }

    fn payload_idx(&mut self, args: &[CExpr]) -> LRes<u16> {
        let vals: Vec<Value> = args
            .iter()
            .map(|a| match a {
                CExpr::Lit(v) => v.clone(),
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
        u16_of(idx, "payload")
    }

    fn bridge_idx(&mut self, actor: ActorId, func: &str) -> LRes<usize> {
        let idx = match self
            .bridges
            .iter()
            .position(|(a, f)| *a == actor && f == func)
        {
            Some(i) => i,
            None => {
                self.bridges.push((actor, func.to_owned()));
                self.bridges.len() - 1
            }
        };
        Ok(idx)
    }

    fn slot16(&self, s: Slot) -> LRes<u16> {
        u16_of(s, "frame slot")
    }

    fn assoc16(&self, a: AssocId) -> LRes<u16> {
        u16_of(a.index(), "association")
    }

    fn actor16(&self, a: ActorId) -> LRes<u16> {
        u16_of(a.index(), "actor")
    }

    // -- statements --------------------------------------------------------

    /// Lowers a statement list; the first statement's entry burn is
    /// `first_pending` (2 inside a `while` body, where the iteration burn
    /// is merged in; 1 everywhere else).
    fn stmt_list(&mut self, stmts: &[CStmt], first_pending: u32) -> LRes<()> {
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
    fn try_nav_first(&mut self, s1: &CStmt, s2: &CStmt, pending: u32) -> LRes<bool> {
        let CStmt::AssignSlot {
            slot,
            expr:
                CExpr::Nav {
                    base,
                    assoc,
                    target,
                },
        } = s1
        else {
            return Ok(false);
        };
        if !matches!(base.as_ref(), CExpr::SelfRef) {
            return Ok(false);
        }
        let CStmt::GenInst {
            event,
            args,
            target: gen_target,
            delay: None,
        } = s2
        else {
            return Ok(false);
        };
        let CExpr::Unary(UnOp::Any, any_operand) = gen_target else {
            return Ok(false);
        };
        let CExpr::Slot(read_slot) = any_operand.as_ref() else {
            return Ok(false);
        };
        if read_slot != slot || self.reads[*slot] != 1 {
            return Ok(false);
        }
        self.next_temp = self.floor;
        let nav_tmp = self.temp()?;
        let assoc16 = self.assoc16(*assoc)?;
        // s1: stmt burn (pending) + Nav node + SelfRef node.
        self.emit(
            Op::NavFirst,
            nav_tmp,
            assoc16,
            0,
            id_d(target.index()),
            pending + 2,
        );
        // s2: args first (carrying the stmt burn), then the fused send.
        // A single `slot binop lit` argument fuses the whole statement
        // into one instruction; fuel 3 = the BinSC loop burn it replaces
        // (stmt 1 + Binary + lhs-Slot), the rest burned in the handler.
        if let Some((sa, lit, op)) = Self::fused_send_arg(args) {
            if let Some(d) = pack_op_event(op, *event) {
                let s16 = self.slot16(sa)?;
                let c = self.const_idx(lit)?;
                self.emit(Op::SendFirstOpC, nav_tmp, s16, c, d, 1 + 2);
                return Ok(true);
            }
        }
        let n = args.len();
        let block = self.arg_block(args, 1)?;
        let send_fuel = if n == 0 { 1 + 2 } else { 2 };
        self.emit(
            Op::SendFirstTo,
            nav_tmp,
            block,
            u16_of(n, "argument count")?,
            id_d(event.index()),
            send_fuel,
        );
        Ok(true)
    }

    /// Allocates a contiguous register block and lowers `args` into it.
    /// The first argument's first instruction carries `pending`.
    fn arg_block(&mut self, args: &[CExpr], pending: u32) -> LRes<u16> {
        let base = self.next_temp;
        self.next_temp += args.len();
        if self.next_temp > self.high {
            self.high = self.next_temp;
        }
        let base16 = u16_of(base, "register")?;
        u16_of(self.next_temp, "register")?;
        for (i, a) in args.iter().enumerate() {
            let p = if i == 0 { pending } else { 0 };
            self.expr(a, p, u16_of(base + i, "register")?)?;
        }
        Ok(base16)
    }

    fn all_lit(args: &[CExpr]) -> bool {
        args.iter().all(|a| matches!(a, CExpr::Lit(_)))
    }

    /// The dominant computed-payload shape: exactly one argument of the
    /// form `slot binop literal` (profile: every pipeline, ring, and
    /// fan-out hop forwards a counter this way). Returns the pieces the
    /// fused send ops need, or `None` to take the generic path.
    fn fused_send_arg(args: &[CExpr]) -> Option<(usize, &Value, BinOp)> {
        if let [CExpr::Binary(op, a, b)] = args {
            if let (CExpr::Slot(sa), CExpr::Lit(v)) = (a.as_ref(), b.as_ref()) {
                return Some((*sa, v, *op));
            }
        }
        None
    }

    fn stmt(&mut self, stmt: &CStmt, pending: u32) -> LRes<()> {
        self.next_temp = self.floor;
        match stmt {
            CStmt::AssignSlot { slot, expr } => {
                let dst = self.slot16(*slot)?;
                self.expr(expr, pending, dst)
            }
            CStmt::AssignAttr { base, attr, expr } => self.assign_attr(base, *attr, expr, pending),
            CStmt::Create { slot, class } => {
                let dst = self.slot16(*slot)?;
                self.emit(Op::CreateI, dst, 0, 0, id_d(class.index()), pending);
                Ok(())
            }
            CStmt::Delete { expr } => {
                let r = self.temp()?;
                self.expr(expr, pending, r)?;
                self.emit(Op::DeleteI, r, 0, 0, 0, 0);
                Ok(())
            }
            CStmt::SelectAny {
                slot,
                class,
                filter,
            } => {
                let dst = self.slot16(*slot)?;
                match filter {
                    None => {
                        self.emit(Op::SelAny, dst, 0, 0, id_d(class.index()), pending);
                        Ok(())
                    }
                    Some(f) => self.select_filtered(dst, *class, f, pending, false),
                }
            }
            CStmt::SelectMany {
                slot,
                class,
                filter,
            } => {
                let dst = self.slot16(*slot)?;
                match filter {
                    None => {
                        self.emit(Op::SelMany, dst, 0, 0, id_d(class.index()), pending);
                        Ok(())
                    }
                    Some(f) => self.select_filtered(dst, *class, f, pending, true),
                }
            }
            CStmt::Relate { a, b, assoc } => self.relate_like(Op::RelateI, a, b, *assoc, pending),
            CStmt::Unrelate { a, b, assoc } => {
                self.relate_like(Op::UnrelateI, a, b, *assoc, pending)
            }
            CStmt::GenInst {
                event,
                args,
                target,
                delay,
            } => self.gen_inst(*event, args, target, delay.as_ref(), pending),
            CStmt::GenActor { actor, event, args } => {
                let n = u16_of(args.len(), "argument count")?;
                let actor16 = self.actor16(*actor)?;
                if Self::all_lit(args) {
                    let payload = self.payload_idx(args)?;
                    self.emit(
                        Op::SendActorLit,
                        actor16,
                        payload,
                        0,
                        id_d(event.index()),
                        pending + args.len() as u32,
                    );
                } else {
                    let block = self.arg_block(args, pending)?;
                    let fuel = if args.is_empty() { pending } else { 0 };
                    self.emit(Op::SendActorR, actor16, block, n, id_d(event.index()), fuel);
                }
                Ok(())
            }
            CStmt::Cancel { event } => {
                self.emit(Op::CancelI, 0, 0, 0, id_d(event.index()), pending);
                Ok(())
            }
            CStmt::If { arms, otherwise } => self.if_stmt(arms, otherwise.as_deref(), pending),
            CStmt::While { cond, body } => self.while_stmt(cond, body, pending),
            CStmt::ForEach { slot, set, body } => self.foreach_stmt(*slot, set, body, pending),
            CStmt::Break => {
                match self.loops.last_mut() {
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
                }
                Ok(())
            }
            CStmt::Continue => {
                match self.loops.last() {
                    Some(ctx) => {
                        let target = ctx.continue_to;
                        let site = self.emit(Op::Jump, 0, 0, 0, 0, pending);
                        self.code[site].d = self.back_jump(site, target);
                    }
                    None => {
                        self.emit(Op::ErrContinue, 0, 0, 0, 0, pending);
                    }
                }
                Ok(())
            }
            CStmt::Return => {
                self.emit(Op::Ret, 0, 0, 0, 0, pending);
                Ok(())
            }
            CStmt::ExprStmt(expr) => {
                let r = self.temp()?;
                self.expr(expr, pending, r)
            }
        }
    }

    fn assign_attr(&mut self, base: &CExpr, attr: AttrId, expr: &CExpr, pending: u32) -> LRes<()> {
        if matches!(base, CExpr::SelfRef) {
            // Fusions on the dominant `self.a = ...` shape.
            match expr {
                CExpr::Lit(v) => {
                    // stmt + Lit node + SelfRef base fast path.
                    let c = self.const_idx(v)?;
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
                CExpr::Binary(op, lhs, rhs) => {
                    if let (CExpr::Attr(ab, read_attr), CExpr::Lit(v)) =
                        (lhs.as_ref(), rhs.as_ref())
                    {
                        // When the read attribute is provably const, skip
                        // the fusion: the generic path below folds the
                        // read to a constant instead.
                        if matches!(ab.as_ref(), CExpr::SelfRef)
                            && !self.fold.contains_key(read_attr)
                        {
                            // stmt + Binary + Attr + inner SelfRef burns up
                            // front; Lit and base-SelfRef burns are internal
                            // (they follow fallible reads/applies).
                            let ra = u16_of(read_attr.index(), "attribute")?;
                            let c = self.const_idx(v)?;
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
                _ => {}
            }
            let rv = self.temp()?;
            self.expr(expr, pending, rv)?;
            self.emit(Op::StAttrSelf, 0, rv, 0, id_d(attr.index()), 1);
            return Ok(());
        }
        let rv = self.temp()?;
        self.expr(expr, pending, rv)?;
        let rb = self.temp()?;
        self.expr(base, 0, rb)?;
        self.emit(Op::StAttrReg, rb, rv, 0, id_d(attr.index()), 0);
        Ok(())
    }

    fn relate_like(
        &mut self,
        op: Op,
        a: &CExpr,
        b: &CExpr,
        assoc: AssocId,
        pending: u32,
    ) -> LRes<()> {
        let ra = self.temp()?;
        self.expr(a, pending, ra)?;
        // The interpreter as_inst-checks `a` before evaluating `b`.
        self.emit(Op::CheckInst, ra, 0, 0, 0, 0);
        let rb = self.temp()?;
        self.expr(b, 0, rb)?;
        self.emit(op, ra, rb, 0, id_d(assoc.index()), 0);
        Ok(())
    }

    fn gen_inst(
        &mut self,
        event: EventId,
        args: &[CExpr],
        target: &CExpr,
        delay: Option<&CExpr>,
        pending: u32,
    ) -> LRes<()> {
        let n = args.len();
        let n16 = u16_of(n, "argument count")?;
        let ev = id_d(event.index());
        if delay.is_none() && Self::all_lit(args) {
            // Literal payload: pooled Arc shared straight into the queue.
            let nfuel = n as u32;
            match target {
                CExpr::SelfRef => {
                    let p = self.payload_idx(args)?;
                    self.emit(Op::SendSelfLit, 0, p, 0, ev, pending + nfuel + 1);
                    return Ok(());
                }
                CExpr::Slot(s) => {
                    let p = self.payload_idx(args)?;
                    let s16 = self.slot16(*s)?;
                    self.emit(Op::SendSlotLit, s16, p, 0, ev, pending + nfuel + 1);
                    return Ok(());
                }
                CExpr::Unary(UnOp::Any, operand) => {
                    if let CExpr::Slot(s) = operand.as_ref() {
                        let p = self.payload_idx(args)?;
                        let s16 = self.slot16(*s)?;
                        self.emit(Op::SendAnySlotLit, s16, p, 0, ev, pending + nfuel + 2);
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        if delay.is_none() {
            // Single `slot binop lit` argument to a slot / any(slot)
            // target: fuse payload compute and send into one
            // instruction. Fuel `pending + 2` is the BinSC loop burn the
            // fusion replaces; the handler burns the rest in the same
            // order the unfused pair would.
            if let Some((sa, lit, op)) = Self::fused_send_arg(args) {
                if let Some(d) = pack_op_event(op, event) {
                    match target {
                        CExpr::Slot(s) => {
                            let s16 = self.slot16(*s)?;
                            let sa16 = self.slot16(sa)?;
                            let c = self.const_idx(lit)?;
                            self.emit(Op::SendSlotOpC, s16, sa16, c, d, pending + 2);
                            return Ok(());
                        }
                        CExpr::Unary(UnOp::Any, operand) => {
                            if let CExpr::Slot(s) = operand.as_ref() {
                                let s16 = self.slot16(*s)?;
                                let sa16 = self.slot16(sa)?;
                                let c = self.const_idx(lit)?;
                                self.emit(Op::SendAnyOpC, s16, sa16, c, d, pending + 2);
                                return Ok(());
                            }
                        }
                        _ => {}
                    }
                }
            }
            // Computed args, fused common targets.
            match target {
                CExpr::SelfRef => {
                    let block = self.arg_block(args, pending)?;
                    let fuel = if n == 0 { pending + 1 } else { 1 };
                    self.emit(Op::SendSelf, 0, block, n16, ev, fuel);
                    return Ok(());
                }
                CExpr::Slot(s) => {
                    let s16 = self.slot16(*s)?;
                    let block = self.arg_block(args, pending)?;
                    let fuel = if n == 0 { pending + 1 } else { 1 };
                    self.emit(Op::SendSlot, s16, block, n16, ev, fuel);
                    return Ok(());
                }
                CExpr::Unary(UnOp::Any, operand) => {
                    if let CExpr::Slot(s) = operand.as_ref() {
                        let s16 = self.slot16(*s)?;
                        let block = self.arg_block(args, pending)?;
                        let fuel = if n == 0 { pending + 2 } else { 2 };
                        self.emit(Op::SendAnySlot, s16, block, n16, ev, fuel);
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        // Generic path. Register layout: args at block..block+n, the delay
        // (when present) at block+n.
        let base = self.next_temp;
        let extra = usize::from(delay.is_some());
        self.next_temp += n + extra;
        if self.next_temp > self.high {
            self.high = self.next_temp;
        }
        let block = u16_of(base, "register")?;
        u16_of(self.next_temp, "register")?;
        for (i, a) in args.iter().enumerate() {
            let p = if i == 0 { pending } else { 0 };
            self.expr(a, p, u16_of(base + i, "register")?)?;
        }
        let rt = self.temp()?;
        self.expr(target, if n == 0 { pending } else { 0 }, rt)?;
        match delay {
            None => {
                self.emit(Op::SendR, rt, block, n16, ev, 0);
            }
            Some(d) => {
                // as_inst on the target precedes the delay evaluation.
                self.emit(Op::CheckInst, rt, 0, 0, 0, 0);
                self.expr(d, 0, u16_of(base + n, "register")?)?;
                self.emit(Op::SendDelayedR, rt, block, n16, ev, 0);
            }
        }
        Ok(())
    }

    fn if_stmt(
        &mut self,
        arms: &[(CExpr, Vec<CStmt>)],
        otherwise: Option<&[CStmt]>,
        pending: u32,
    ) -> LRes<()> {
        let mut end_sites = Vec::new();
        let mut p = pending;
        if arms.is_empty() && p > 0 {
            self.emit(Op::Fuel, 0, 0, 0, 0, p);
            p = 0;
        }
        for (cond, body) in arms {
            let false_site = self.guard(cond, p)?;
            p = 0;
            self.stmt_list(body, 1)?;
            end_sites.push(self.emit(Op::Jump, 0, 0, 0, 0, 0));
            self.patch_here(false_site);
        }
        if let Some(body) = otherwise {
            self.stmt_list(body, 1)?;
        }
        for site in end_sites {
            self.patch_here(site);
        }
        let _ = p;
        Ok(())
    }

    /// Lowers a condition and emits a jump-if-false, fusing slot/const
    /// comparisons. Returns the jump site to patch.
    fn guard(&mut self, cond: &CExpr, pending: u32) -> LRes<usize> {
        if let CExpr::Binary(op, lhs, rhs) = cond {
            match (lhs.as_ref(), rhs.as_ref()) {
                (CExpr::Slot(s), CExpr::Lit(v)) => {
                    let s16 = self.slot16(*s)?;
                    let c = self.const_idx(v)?;
                    // Binary + lhs-Slot nodes up front; the Lit burn is
                    // internal (it follows the fallible slot read).
                    return Ok(self.emit(Op::JmpSCFalse, s16, c, binop_code(*op), 0, pending + 2));
                }
                (CExpr::Slot(sa), CExpr::Slot(sb)) => {
                    let a16 = self.slot16(*sa)?;
                    let b16 = self.slot16(*sb)?;
                    return Ok(self.emit(
                        Op::JmpSSFalse,
                        a16,
                        b16,
                        binop_code(*op),
                        0,
                        pending + 2,
                    ));
                }
                _ => {}
            }
        }
        let rc = self.temp()?;
        self.expr(cond, pending, rc)?;
        Ok(self.emit(Op::JumpIfFalse, rc, 0, 0, 0, 0))
    }

    fn while_stmt(&mut self, cond: &CExpr, body: &[CStmt], pending: u32) -> LRes<()> {
        // The statement burn fires once; the condition re-evaluates every
        // iteration, so its fuel cannot carry the entry burn.
        self.emit(Op::Fuel, 0, 0, 0, 0, pending);
        let head = self.code.len();
        let exit_site = self.guard(cond, 0)?;
        self.loops.push(LoopCtx {
            continue_to: head,
            breaks: Vec::new(),
        });
        if body.is_empty() {
            // Iteration burn with an empty body.
            self.emit(Op::Fuel, 0, 0, 0, 0, 1);
        } else {
            // Iteration burn merged into the first body statement.
            self.stmt_list(body, 2)?;
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

    fn foreach_stmt(&mut self, slot: Slot, set: &CExpr, body: &[CStmt], pending: u32) -> LRes<()> {
        let dst = self.slot16(slot)?;
        let rset = self.temp()?;
        self.expr(set, pending, rset)?;
        let ridx = self.temp()?;
        let zero = self.const_idx(&Value::Int(0))?;
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
        self.stmt_list(body, 1)?;
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
        filter: &CExpr,
        pending: u32,
        many: bool,
    ) -> LRes<()> {
        // Candidate list, index and (for `many`) accumulator live in
        // adjacent temps; the loop ops address them via the base temp.
        let rbase = self.temp()?;
        let _ridx = self.temp()?;
        if many {
            let _racc = self.temp()?;
        }
        let (init, iter, take) = if many {
            (Op::SelFInitM, Op::SelIterM, Op::SelTakeM)
        } else {
            (Op::SelFInit, Op::SelIterA, Op::SelTakeA)
        };
        self.emit(init, rbase, 0, 0, id_d(class.index()), pending);
        let head = self.code.len();
        let iter_site = self.emit(iter, dst, rbase, 0, 0, 0);
        let rf = self.temp()?;
        self.expr(filter, 0, rf)?;
        let take_site = self.emit(take, dst, rf, rbase, 0, 0);
        self.code[take_site].d = self.back_jump(take_site, head);
        self.patch_here(iter_site);
        Ok(())
    }

    // -- expressions -------------------------------------------------------

    /// Lowers `e` into `dst`. `pending` is fuel owed from enclosing nodes,
    /// burned (together with this node's own unit) by the first emitted
    /// instruction.
    fn expr(&mut self, e: &CExpr, pending: u32, dst: u16) -> LRes<()> {
        match e {
            CExpr::Lit(v) => {
                let c = self.const_idx(v)?;
                self.emit(Op::Const, dst, c, 0, 0, pending + 1);
                Ok(())
            }
            CExpr::Slot(s) => {
                let s16 = self.slot16(*s)?;
                self.emit(Op::LoadSlot, dst, s16, 0, 0, pending + 1);
                Ok(())
            }
            CExpr::SelfRef => {
                self.emit(Op::LoadSelf, dst, 0, 0, 0, pending + 1);
                Ok(())
            }
            CExpr::Selected => {
                self.emit(Op::LoadSelected, dst, 0, 0, 0, pending + 1);
                Ok(())
            }
            CExpr::Attr(base, attr) => {
                if matches!(base.as_ref(), CExpr::SelfRef) {
                    if let Some(v) = self.fold.get(attr).cloned() {
                        // Effect-analysis fold: the attribute is written
                        // nowhere in the model, so the read always yields
                        // the declared default. Fuel matches AttrSelf.
                        let c = self.const_idx(&v)?;
                        self.folds += 1;
                        self.emit(Op::Const, dst, c, 0, 0, pending + 2);
                        return Ok(());
                    }
                    // Attr node + SelfRef fast-path burn.
                    self.emit(Op::AttrSelf, dst, 0, 0, id_d(attr.index()), pending + 2);
                    return Ok(());
                }
                let rb = self.temp()?;
                self.expr(base, pending + 1, rb)?;
                self.emit(Op::AttrReg, dst, rb, 0, id_d(attr.index()), 0);
                Ok(())
            }
            CExpr::Nav {
                base,
                assoc,
                target,
            } => {
                let a16 = self.assoc16(*assoc)?;
                if matches!(base.as_ref(), CExpr::SelfRef) {
                    self.emit(Op::NavSelf, dst, a16, 0, id_d(target.index()), pending + 2);
                    return Ok(());
                }
                let rb = self.temp()?;
                self.expr(base, pending + 1, rb)?;
                self.emit(Op::NavReg, dst, rb, a16, id_d(target.index()), 0);
                Ok(())
            }
            CExpr::Unary(op, operand) => {
                if let CExpr::Slot(s) = operand.as_ref() {
                    // By-reference slot operand (no clone), matching the
                    // interpreter's fast path.
                    let s16 = self.slot16(*s)?;
                    self.emit(Op::UnarySlot, dst, s16, unop_code(*op), 0, pending + 2);
                    return Ok(());
                }
                let rs = self.temp()?;
                self.expr(operand, pending + 1, rs)?;
                self.emit(Op::UnaryReg, dst, rs, unop_code(*op), 0, 0);
                Ok(())
            }
            CExpr::Binary(op, a, b) => {
                let opc = binop_code(*op);
                match (a.as_ref(), b.as_ref()) {
                    (CExpr::Slot(sa), CExpr::Lit(v)) => {
                        let s16 = self.slot16(*sa)?;
                        let c = self.const_idx(v)?;
                        // Binary + lhs-Slot nodes up front; the Lit burn is
                        // internal (after the fallible slot read).
                        self.emit(Op::BinSC, dst, s16, c, i32::from(opc), pending + 2);
                        Ok(())
                    }
                    (CExpr::Lit(v), CExpr::Slot(sb)) => {
                        let c = self.const_idx(v)?;
                        let s16 = self.slot16(*sb)?;
                        // Binary + Lit + rhs-Slot nodes all up front:
                        // nothing fallible separates those three burns.
                        self.emit(Op::BinCS, dst, c, s16, i32::from(opc), pending + 3);
                        Ok(())
                    }
                    (CExpr::Slot(sa), CExpr::Slot(sb)) => {
                        let a16 = self.slot16(*sa)?;
                        let b16 = self.slot16(*sb)?;
                        self.emit(Op::BinSS, dst, a16, b16, i32::from(opc), pending + 2);
                        Ok(())
                    }
                    _ => {
                        let ra = self.temp()?;
                        self.expr(a, pending + 1, ra)?;
                        let rb = self.temp()?;
                        self.expr(b, 0, rb)?;
                        self.emit(Op::BinRR, dst, ra, rb, i32::from(opc), 0);
                        Ok(())
                    }
                }
            }
            CExpr::Bridge { actor, func, args } => {
                let idx = self.bridge_idx(*actor, func)?;
                let n = u16_of(args.len(), "argument count")?;
                if args.is_empty() {
                    self.emit(Op::CallBridge, dst, 0, 0, id_d(idx), pending + 1);
                    return Ok(());
                }
                let block = self.arg_block(args, pending + 1)?;
                self.emit(Op::CallBridge, dst, block, n, id_d(idx), 0);
                Ok(())
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
/// statement and expression node of the source [`CAction`].
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
    use crate::code::compile_block;
    use crate::interp::DEFAULT_FUEL;
    use crate::parse::parse_block;
    use crate::testhost::{fresh, test_domain, Effects};
    use crate::value::DataType;
    use crate::walker::run_code;

    struct Sides {
        interp: (Result<Outcome>, Effects, ExecCtx),
        vm: (Result<Outcome>, Effects, ExecCtx),
        action: CAction,
        peephole: bool,
    }

    /// Runs `src` through the frame interpreter and the VM on identical
    /// fresh hosts, with `fuel` and bound `args`.
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
        let block = parse_block(src).unwrap();
        let domain = test_domain();
        let action = compile_block(&domain, ClassId::new(0), params, &block).unwrap();
        let bca = lower_action(&action).unwrap();
        // The NavFirst peephole deliberately leaves the elided set slot
        // unwritten in the VM frame; frames are discarded after dispatch in
        // production, so the difference is unobservable there.
        let peephole = bca.code.iter().any(|i| i.op == Op::NavFirst);

        let (mut h1, i1) = fresh();
        let mut ctx1 = ExecCtx::new(i1, &action);
        ctx1.fuel = fuel;
        ctx1.bind_args(args.to_vec());
        let r1 = run_code(&mut h1, &mut ctx1, &action);

        let (mut h2, i2) = fresh();
        let mut ctx2 = ExecCtx::with_frame(i2, bca.self_class, vec![None; bca.n_regs]);
        ctx2.fuel = fuel;
        ctx2.bind_args(args.to_vec());
        let r2 = run_bc(&mut h2, &mut ctx2, &bca);

        Sides {
            interp: (r1, h1.fx, ctx1),
            vm: (r2, h2.fx, ctx2),
            action,
            peephole,
        }
    }

    /// Asserts interpreter/VM agreement: outcome or error string, host
    /// effects, and (on success) steps and the named frame slots.
    fn assert_agree(src: &str, args: &[Value]) {
        let s = run_both_with(src, args, DEFAULT_FUEL);
        check_sides(src, &s, true);
    }

    fn check_sides(src: &str, s: &Sides, check_frames: bool) {
        match (&s.interp.0, &s.vm.0) {
            (Ok(o1), Ok(o2)) => {
                assert_eq!(o1, o2, "outcome mismatch for {src:?}");
                assert_eq!(
                    s.interp.2.steps, s.vm.2.steps,
                    "step-count mismatch for {src:?}"
                );
                if check_frames && !s.peephole {
                    for slot in 0..s.action.layout.len() {
                        assert_eq!(
                            s.interp.2.frame[slot],
                            s.vm.2.frame[slot],
                            "slot {slot} ({}) mismatch for {src:?}",
                            s.action.layout.name(slot)
                        );
                    }
                }
            }
            (Err(e1), Err(e2)) => {
                assert_eq!(e1.to_string(), e2.to_string(), "error mismatch for {src:?}");
            }
            (r1, r2) => panic!("outcome divergence for {src:?}: interp={r1:?} vm={r2:?}"),
        }
        assert_eq!(s.interp.1, s.vm.1, "host effects mismatch for {src:?}");
    }

    /// Every fuel level from 0 to just past the full run must produce the
    /// same error identity and the same prefix of host effects.
    fn assert_fuel_sweep(src: &str, args: &[Value]) {
        let full = run_both_with(src, args, DEFAULT_FUEL);
        check_sides(src, &full, true);
        let steps = full.interp.2.steps;
        for fuel in 0..=steps + 1 {
            let s = run_both_with(src, args, fuel);
            match (&s.interp.0, &s.vm.0) {
                (Ok(_), Ok(_)) | (Err(_), Err(_)) => {}
                (r1, r2) => {
                    panic!("fuel={fuel} outcome divergence for {src:?}: interp={r1:?} vm={r2:?}")
                }
            }
            if let (Err(e1), Err(e2)) = (&s.interp.0, &s.vm.0) {
                assert_eq!(
                    e1.to_string(),
                    e2.to_string(),
                    "fuel={fuel} error mismatch for {src:?}"
                );
            }
            assert_eq!(
                s.interp.1, s.vm.1,
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
        let block = parse_block("").unwrap();
        let action = compile_block(&test_domain(), ClassId::new(0), &[], &block).unwrap();
        let bca = lower_action(&action).unwrap();
        assert_eq!(bca.code.len(), 1);
        assert_eq!(bca.code[0].op, Op::Halt);
        assert_agree("", &[]);
    }

    #[test]
    fn superinstructions_are_selected() {
        let domain = test_domain();
        let lower = |src: &str| {
            let block = parse_block(src).unwrap();
            let action = compile_block(&domain, ClassId::new(0), &[], &block).unwrap();
            lower_action(&action).unwrap()
        };
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
        let domain = test_domain();
        let block =
            parse_block("gen Set(7) to self; gen Set(7) to self; gen Set(9) to self;").unwrap();
        let action = compile_block(&domain, ClassId::new(0), &[], &block).unwrap();
        let bca = lower_action(&action).unwrap();
        assert_eq!(
            bca.payloads.len(),
            2,
            "equal literal payloads share a pool slot"
        );
    }

    #[test]
    fn register_overflow_is_an_x0016_error_at_dispatch() {
        // One local more than the 16-bit register operands can address.
        let body: String = (0..=u16::MAX as usize)
            .map(|i| format!("v{i} = 0;\n"))
            .collect();
        let mut b = crate::builder::DomainBuilder::new("wide");
        b.class("C")
            .event("Go", &[])
            .state("S", &body)
            .initial("S")
            .transition("S", "Go", "S");
        let domain = b.build().unwrap();
        let program = crate::code::CompiledProgram::new(&domain);
        let action = program
            .action(ClassId::new(0), StateId::new(0), EventId::new(0))
            .unwrap()
            .unwrap();
        let reason = lower_action(action).unwrap_err();
        assert!(
            reason.contains("u16"),
            "reason should name the limit: {reason}"
        );

        // The program keeps the pair, with the reason as its X0016 error.
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &program, &consts);
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
    fn whole_program_lowering_and_entry_indexing() {
        let domain = crate::builder::pipeline_domain(3).unwrap();
        let program = crate::code::CompiledProgram::new(&domain);
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &program, &consts);
        assert_eq!(bc.errors().count(), 0);
        assert!(bc.vm_entries() > 0);
        // Every compiled frame action has a VM entry at the same index.
        for (ci, class) in domain.classes.iter().enumerate() {
            let Some(machine) = class.state_machine.as_ref() else {
                continue;
            };
            for s in 0..machine.states.len() {
                for e in 0..class.events.len() {
                    let cid = ClassId::new(ci as u32);
                    let sid = StateId::new(s as u32);
                    let eid = EventId::new(e as u32);
                    let frames = program.action(cid, sid, eid);
                    let vm = bc.entry(cid, sid, eid);
                    assert_eq!(
                        frames.is_some(),
                        vm.is_some(),
                        "entry presence must match for ({ci},{s},{e})"
                    );
                }
            }
        }
    }

    #[test]
    fn disassembler_renders_annotated_stream() {
        let domain = crate::builder::pipeline_domain(2).unwrap();
        let program = crate::code::CompiledProgram::new(&domain);
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &program, &consts);
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
        let block = parse_block(src).unwrap();
        let domain = test_domain();
        let action = compile_block(&domain, ClassId::new(0), &[], &block).unwrap();
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0)); // Counter.n default
        let bca = lower_action_with(&action, &consts).unwrap();
        assert_eq!(bca.const_folds, expect_folds, "fold count for {src:?}");

        let (mut h1, i1) = fresh();
        let mut ctx1 = ExecCtx::new(i1, &action);
        ctx1.fuel = DEFAULT_FUEL;
        let r1 = run_code(&mut h1, &mut ctx1, &action);

        let (mut h2, i2) = fresh();
        let mut ctx2 = ExecCtx::with_frame(i2, bca.self_class, vec![None; bca.n_regs]);
        ctx2.fuel = DEFAULT_FUEL;
        let r2 = run_bc(&mut h2, &mut ctx2, &bca);

        assert_eq!(r1.unwrap(), r2.unwrap(), "outcome for {src:?}");
        assert_eq!(ctx1.steps, ctx2.steps, "fuel-neutrality for {src:?}");
        assert_eq!(h1.fx, h2.fx, "host effects for {src:?}");
        for slot in 0..action.layout.len() {
            assert_eq!(
                ctx1.frame[slot], ctx2.frame[slot],
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
        let block = parse_block("x = self.n;").unwrap();
        let domain = test_domain();
        let action = compile_block(&domain, ClassId::new(0), &[], &block).unwrap();
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0));
        let bca = lower_action_with(&action, &consts).unwrap();
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
        let block = parse_block("delete self;\nx = self.n;").unwrap();
        let domain = test_domain();
        let action = compile_block(&domain, ClassId::new(0), &[], &block).unwrap();
        let mut consts = BTreeMap::new();
        consts.insert(AttrId::new(0), Value::Int(0));
        let bca = lower_action_with(&action, &consts).unwrap();
        assert_eq!(bca.const_folds, 0);
        assert!(bca.code.iter().any(|i| i.op == Op::AttrSelf));
    }

    #[test]
    fn whole_program_folds_effect_proven_const_attrs() {
        use crate::builder::DomainBuilder;
        let mut b = DomainBuilder::new("cf");
        b.class("C")
            .attr_default("k", DataType::Int, Value::Int(7))
            .attr("w", DataType::Int)
            .event("Go", &[])
            .state("S", "self.w = self.k + 1;")
            .initial("S")
            .transition("S", "Go", "S");
        let domain = b.build().unwrap();
        let program = crate::code::CompiledProgram::new(&domain);
        let consts = crate::effects::analyze(&domain).const_attrs;
        let bc = BcProgram::new(&domain, &program, &consts);
        assert_eq!(bc.errors().count(), 0);
        assert_eq!(bc.const_folds(), 1, "`k` is never written, `w` is");
        let text = disasm(&domain, &bc);
        assert!(text.contains("const-folds=1"), "{text}");
    }
}
