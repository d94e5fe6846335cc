//! The compiled-frame walker: the tree-walking executor the bytecode VM
//! replaced, kept as a test-only oracle.
//!
//! Production code runs every action on [`run_bc`](crate::bc::run_bc).
//! The VM's lowering is *semantics-exact* against this walker — the same
//! outcome, error identity, host effects and step count at every fuel
//! level — and the differential battery and fuel sweep in `bc`'s tests
//! check that agreement action by action.

use crate::code::{CAction, CExpr, CStmt, Slot};
use crate::error::{CoreError, Result};
use crate::ids::{ClassId, InstId};
use crate::interp::{ActionHost, ExecCtx, Outcome};
use crate::value::{apply_binop, apply_unop, Value};

/// Control-flow signal inside loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Broke,
    Continued,
    Returned,
}

/// Executes a compiled action to completion against `host`.
///
/// Returns the outcome and leaves the accumulated step count in
/// `ctx.steps` (the substrates' cost models read it).
///
/// # Errors
///
/// Propagates runtime errors ([`CoreError::Runtime`]) and unbound-slot
/// reads ([`CoreError::Unresolved`]) from the statements executed.
pub fn run_code<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
) -> Result<Outcome> {
    match exec_stmts(host, ctx, action, &action.code)? {
        Flow::Returned => Ok(Outcome::Returned),
        Flow::Broke | Flow::Continued => {
            Err(CoreError::runtime("`break`/`continue` outside of a loop"))
        }
        Flow::Normal => Ok(Outcome::Completed),
    }
}

fn exec_stmts<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    stmts: &[CStmt],
) -> Result<Flow> {
    for stmt in stmts {
        match exec_stmt(host, ctx, action, stmt)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

fn exec_stmt<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    stmt: &CStmt,
) -> Result<Flow> {
    ctx.burn(1)?;
    match stmt {
        CStmt::AssignSlot { slot, expr } => {
            let v = eval(host, ctx, action, expr)?;
            ctx.frame[*slot] = Some(v);
            Ok(Flow::Normal)
        }
        CStmt::AssignAttr { base, attr, expr } => {
            let v = eval(host, ctx, action, expr)?;
            // Same `self.x` fast path as `CExpr::Attr` in [`eval`].
            let inst = if matches!(base, CExpr::SelfRef) {
                ctx.burn(1)?;
                ctx.self_inst
            } else {
                eval(host, ctx, action, base)?.as_inst()?
            };
            host.attr_write(inst, *attr, v)?;
            Ok(Flow::Normal)
        }
        CStmt::Create { slot, class } => {
            let inst = host.create(*class)?;
            ctx.frame[*slot] = Some(Value::Inst(*class, Some(inst)));
            Ok(Flow::Normal)
        }
        CStmt::Delete { expr } => {
            let inst = eval(host, ctx, action, expr)?.as_inst()?;
            host.delete(inst)?;
            Ok(Flow::Normal)
        }
        CStmt::SelectAny {
            slot,
            class,
            filter,
        } => {
            let picked = match filter {
                None => {
                    let first = host.first_instance_of(*class);
                    if first.is_some() {
                        ctx.burn(1)?;
                    }
                    first
                }
                Some(f) => select_first(host, ctx, action, *class, f)?,
            };
            ctx.frame[*slot] = Some(Value::Inst(*class, picked));
            Ok(Flow::Normal)
        }
        CStmt::SelectMany {
            slot,
            class,
            filter,
        } => {
            let matched = match filter {
                None => {
                    let all = host.instances_of(*class);
                    ctx.burn(all.len() as u64)?;
                    all
                }
                Some(f) => select_filtered(host, ctx, action, *class, f)?,
            };
            ctx.frame[*slot] = Some(Value::Set(*class, matched));
            Ok(Flow::Normal)
        }
        CStmt::Relate { a, b, assoc } => {
            let ia = eval(host, ctx, action, a)?.as_inst()?;
            let ib = eval(host, ctx, action, b)?.as_inst()?;
            host.relate(ia, ib, *assoc)?;
            Ok(Flow::Normal)
        }
        CStmt::Unrelate { a, b, assoc } => {
            let ia = eval(host, ctx, action, a)?.as_inst()?;
            let ib = eval(host, ctx, action, b)?.as_inst()?;
            host.unrelate(ia, ib, *assoc)?;
            Ok(Flow::Normal)
        }
        CStmt::GenInst {
            event,
            args,
            target,
            delay,
        } => {
            match delay {
                None => {
                    // Hot path: build the payload in a pooled buffer
                    // (same recycling the bytecode VM's sends use), so
                    // steady-state frame-interpreted sends allocate
                    // nothing either.
                    let payload = eval_payload(host, ctx, action, args)?;
                    let to = eval(host, ctx, action, target)?.as_inst()?;
                    host.send_arc(ctx.self_inst, to, *event, payload)?;
                }
                Some(d) => {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(eval(host, ctx, action, a)?);
                    }
                    let to = eval(host, ctx, action, target)?.as_inst()?;
                    let ticks = eval(host, ctx, action, d)?.as_int()?;
                    if ticks < 0 {
                        return Err(CoreError::runtime("negative signal delay"));
                    }
                    host.send_delayed(ctx.self_inst, to, *event, vals, ticks)?;
                }
            }
            Ok(Flow::Normal)
        }
        CStmt::GenActor { actor, event, args } => {
            let payload = eval_payload(host, ctx, action, args)?;
            host.send_actor_arc(ctx.self_inst, *actor, *event, payload)?;
            Ok(Flow::Normal)
        }
        CStmt::Cancel { event } => {
            host.cancel_delayed(ctx.self_inst, *event)?;
            Ok(Flow::Normal)
        }
        CStmt::If { arms, otherwise } => {
            for (cond, body) in arms {
                if eval(host, ctx, action, cond)?.as_bool()? {
                    return exec_stmts(host, ctx, action, body);
                }
            }
            if let Some(body) = otherwise {
                return exec_stmts(host, ctx, action, body);
            }
            Ok(Flow::Normal)
        }
        CStmt::While { cond, body } => {
            while eval(host, ctx, action, cond)?.as_bool()? {
                ctx.burn(1)?;
                match exec_stmts(host, ctx, action, body)? {
                    Flow::Broke => break,
                    Flow::Returned => return Ok(Flow::Returned),
                    Flow::Normal | Flow::Continued => {}
                }
            }
            Ok(Flow::Normal)
        }
        CStmt::ForEach { slot, set, body } => {
            let set_v = eval(host, ctx, action, set)?;
            let Value::Set(class, items) = set_v else {
                return Err(CoreError::runtime(format!(
                    "foreach needs a set, got {}",
                    set_v.data_type()
                )));
            };
            for item in items {
                ctx.burn(1)?;
                ctx.frame[*slot] = Some(Value::Inst(class, Some(item)));
                match exec_stmts(host, ctx, action, body)? {
                    Flow::Broke => break,
                    Flow::Returned => return Ok(Flow::Returned),
                    Flow::Normal | Flow::Continued => {}
                }
            }
            Ok(Flow::Normal)
        }
        CStmt::Break => Ok(Flow::Broke),
        CStmt::Continue => Ok(Flow::Continued),
        CStmt::Return => Ok(Flow::Returned),
        CStmt::ExprStmt(expr) => {
            eval(host, ctx, action, expr)?;
            Ok(Flow::Normal)
        }
    }
}

/// `select any … where f`: first candidate passing the filter.
fn select_first<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    class: ClassId,
    filter: &CExpr,
) -> Result<Option<InstId>> {
    // The filter needs `&mut host`, so candidates must be materialised
    // before evaluation (the host cannot be borrowed while iterating it).
    for inst in host.instances_of(class) {
        ctx.burn(1)?;
        let saved = ctx.selected.replace(Value::Inst(class, Some(inst)));
        let keep = eval(host, ctx, action, filter).and_then(|v| v.as_bool());
        ctx.selected = saved;
        if keep? {
            return Ok(Some(inst));
        }
    }
    Ok(None)
}

/// `select many … where f`: all candidates passing the filter.
fn select_filtered<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    class: ClassId,
    filter: &CExpr,
) -> Result<Vec<InstId>> {
    let mut out = Vec::new();
    for inst in host.instances_of(class) {
        ctx.burn(1)?;
        let saved = ctx.selected.replace(Value::Inst(class, Some(inst)));
        let keep = eval(host, ctx, action, filter).and_then(|v| v.as_bool());
        ctx.selected = saved;
        if keep? {
            out.push(inst);
        }
    }
    Ok(out)
}

/// Evaluates send arguments into an `Arc<[Value]>` payload, reusing a
/// uniquely-owned buffer from the host's payload pool when one of the
/// right arity is available, and allocating otherwise. Argument
/// evaluation order (and therefore burn/error order) matches the plain
/// `Vec` path exactly.
fn eval_payload<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    args: &[CExpr],
) -> Result<std::sync::Arc<[Value]>> {
    match host.take_payload(args.len()) {
        Some(mut arc) => {
            for (i, a) in args.iter().enumerate() {
                let v = eval(host, ctx, action, a)?;
                std::sync::Arc::get_mut(&mut arc).expect("pooled payloads are uniquely owned")[i] =
                    v;
            }
            Ok(arc)
        }
        None => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(host, ctx, action, a)?);
            }
            Ok(std::sync::Arc::from(vals))
        }
    }
}

fn unbound_slot(action: &CAction, slot: Slot) -> CoreError {
    let kind = if slot < action.layout.params() {
        "event parameter"
    } else {
        "variable"
    };
    CoreError::unresolved(kind, action.layout.name(slot).to_owned())
}

/// Evaluates a compiled expression.
///
/// # Errors
///
/// Propagates runtime and unbound-slot errors.
pub fn eval<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    action: &CAction,
    expr: &CExpr,
) -> Result<Value> {
    ctx.burn(1)?;
    match expr {
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Slot(slot) => ctx.frame[*slot]
            .clone()
            .ok_or_else(|| unbound_slot(action, *slot)),
        CExpr::SelfRef => Ok(Value::Inst(ctx.self_class, Some(ctx.self_inst))),
        CExpr::Selected => ctx
            .selected
            .clone()
            .ok_or_else(|| CoreError::runtime("`selected` used outside a `where` clause")),
        CExpr::Attr(base, attr) => {
            // `self.x` is the dominant shape: burn the base node's step
            // without materialising a `Value::Inst` round trip.
            let inst = if matches!(base.as_ref(), CExpr::SelfRef) {
                ctx.burn(1)?;
                ctx.self_inst
            } else {
                eval(host, ctx, action, base)?.as_inst()?
            };
            host.attr_read(inst, *attr)
        }
        CExpr::Nav {
            base,
            assoc,
            target,
        } => {
            let base_v = eval(host, ctx, action, base)?;
            let mut out: Vec<InstId> = Vec::new();
            let mut visit = |src: InstId, host: &H| {
                host.related_each(src, *assoc, &mut |t| {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                })
            };
            match base_v {
                Value::Inst(_, Some(i)) => visit(i, host)?,
                Value::Inst(_, None) => {}
                Value::Set(_, items) => {
                    for src in items {
                        visit(src, host)?;
                    }
                }
                other => {
                    return Err(CoreError::runtime(format!(
                        "cannot navigate from {}",
                        other.data_type()
                    )))
                }
            }
            Ok(Value::Set(*target, out))
        }
        CExpr::Unary(op, e) => {
            // Slot operands are read by reference: `any(set)` must not
            // clone the whole set to pick one element. Burn the step the
            // slot read would have burned.
            if let CExpr::Slot(slot) = e.as_ref() {
                ctx.burn(1)?;
                let v = ctx.frame[*slot]
                    .as_ref()
                    .ok_or_else(|| unbound_slot(action, *slot))?;
                return apply_unop(*op, v);
            }
            let v = eval(host, ctx, action, e)?;
            apply_unop(*op, &v)
        }
        CExpr::Binary(op, a, b) => {
            let va = eval(host, ctx, action, a)?;
            let vb = eval(host, ctx, action, b)?;
            apply_binop(*op, &va, &vb)
        }
        CExpr::Bridge { actor, func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(host, ctx, action, a)?);
            }
            host.bridge_call(*actor, func, vals)
        }
    }
}
