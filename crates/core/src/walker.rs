//! The reference walker: a tree-walking executor of the action AST, kept
//! as a test-only oracle for the bytecode VM.
//!
//! Production code runs every action on [`run_bc`](crate::bc::run_bc).
//! The VM's lowering is *semantics-exact* against this walker — the same
//! outcome, error identity, host effects and step count at every fuel
//! level — and the differential battery and fuel sweep in `bc`'s tests
//! check that agreement action by action.
//!
//! The walker shares no resolver with the lowering it checks. It keeps
//! variables by name, decides the `gen … to NAME` actor fallback by
//! whether the name holds a value, and resolves attributes, events and
//! navigation from the class that every instance reference and set
//! carries at run time.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::action::{Block, Expr, GenTarget, LValue, Stmt};
use crate::error::{CoreError, Result};
use crate::ids::{AttrId, ClassId, EventId, InstId};
use crate::interp::{ActionHost, ExecCtx, Outcome};
use crate::value::{apply_binop, apply_unop, DataType, Value};

/// The walker's variables: event parameters, positionally, and locals,
/// each in its own namespace as in the action language.
#[derive(Debug)]
pub(crate) struct Env {
    /// `(name, value)` per declared parameter; `None` when unbound.
    pub(crate) params: Vec<(String, Option<Value>)>,
    /// Every local assigned so far.
    pub(crate) locals: BTreeMap<String, Value>,
}

impl Env {
    /// Binds `args` positionally to the declared `params`.
    pub(crate) fn new(params: &[(String, DataType)], args: &[Value]) -> Env {
        let params = params
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.clone(), args.get(i).cloned()))
            .collect();
        Env {
            params,
            locals: BTreeMap::new(),
        }
    }
}

/// Control-flow signal inside loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Broke,
    Continued,
    Returned,
}

/// Executes an action block to completion against `host`, with `self`
/// and the fuel in `ctx` and the variables in `env`.
///
/// Returns the outcome and leaves the accumulated step count in
/// `ctx.steps`.
///
/// # Errors
///
/// Propagates runtime errors ([`CoreError::Runtime`]) and reads of names
/// that hold no value ([`CoreError::Unresolved`]) from the statements
/// executed.
pub(crate) fn run_block<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    block: &Block,
) -> Result<Outcome> {
    match exec_block(host, ctx, env, block)? {
        Flow::Returned => Ok(Outcome::Returned),
        Flow::Broke | Flow::Continued => {
            Err(CoreError::runtime("`break`/`continue` outside of a loop"))
        }
        Flow::Normal => Ok(Outcome::Completed),
    }
}

fn exec_block<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    block: &Block,
) -> Result<Flow> {
    for stmt in &block.stmts {
        match exec_stmt(host, ctx, env, stmt)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

/// The class and id of an instance reference; errors as
/// [`Value::as_inst`].
fn instance(v: &Value) -> Result<(ClassId, InstId)> {
    let inst = v.as_inst()?;
    match v {
        Value::Inst(class, _) => Ok((*class, inst)),
        _ => unreachable!("as_inst accepts only instance references"),
    }
}

fn attr<H: ActionHost>(host: &H, class: ClassId, name: &str) -> Result<AttrId> {
    let class = host.domain().class(class);
    class
        .attr_id(name)
        .ok_or_else(|| CoreError::unresolved("attribute", format!("{}.{name}", class.name)))
}

fn event<H: ActionHost>(host: &H, class: ClassId, name: &str) -> Result<EventId> {
    let class = host.domain().class(class);
    class
        .event_id(name)
        .ok_or_else(|| CoreError::unresolved("event", format!("{}.{name}", class.name)))
}

fn eval_all<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    args: &[Expr],
) -> Result<Vec<Value>> {
    args.iter().map(|a| eval(host, ctx, env, a)).collect()
}

fn exec_stmt<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    stmt: &Stmt,
) -> Result<Flow> {
    ctx.burn(1)?;
    match stmt {
        Stmt::Assign { lhs, expr, .. } => {
            let v = eval(host, ctx, env, expr)?;
            match lhs {
                LValue::Var(name) => {
                    env.locals.insert(name.clone(), v);
                }
                LValue::Attr(base, name) => {
                    let (class, inst) = instance(&eval(host, ctx, env, base)?)?;
                    let attr = attr(host, class, name)?;
                    host.attr_write(inst, attr, v)?;
                }
            }
        }
        Stmt::Create { var, class, .. } => {
            let class = host.domain().class_id(class)?;
            let inst = host.create(class)?;
            env.locals
                .insert(var.clone(), Value::Inst(class, Some(inst)));
        }
        Stmt::Delete { expr, .. } => {
            let inst = eval(host, ctx, env, expr)?.as_inst()?;
            host.delete(inst)?;
        }
        Stmt::SelectAny {
            var, class, filter, ..
        } => {
            let class = host.domain().class_id(class)?;
            let picked = match filter {
                None => {
                    let first = host.first_instance_of(class);
                    if first.is_some() {
                        ctx.burn(1)?;
                    }
                    first
                }
                Some(f) => select(host, ctx, env, class, f, true)?.pop(),
            };
            env.locals.insert(var.clone(), Value::Inst(class, picked));
        }
        Stmt::SelectMany {
            var, class, filter, ..
        } => {
            let class = host.domain().class_id(class)?;
            let matched = match filter {
                None => {
                    let all = host.instances_of(class);
                    ctx.burn(all.len() as u64)?;
                    all
                }
                Some(f) => select(host, ctx, env, class, f, false)?,
            };
            env.locals.insert(var.clone(), Value::Set(class, matched));
        }
        Stmt::Relate { a, b, assoc, .. } | Stmt::Unrelate { a, b, assoc, .. } => {
            let ia = eval(host, ctx, env, a)?.as_inst()?;
            let ib = eval(host, ctx, env, b)?.as_inst()?;
            let assoc = host.domain().assoc_id(assoc)?;
            if matches!(stmt, Stmt::Relate { .. }) {
                host.relate(ia, ib, assoc)?;
            } else {
                host.unrelate(ia, ib, assoc)?;
            }
        }
        Stmt::Generate {
            event: ev,
            args,
            target,
            delay,
            ..
        } => {
            let actor = match target {
                GenTarget::Actor(name) => Some(name),
                GenTarget::Inst(Expr::Var(name))
                    if !env.locals.contains_key(name) && host.domain().actor_id(name).is_ok() =>
                {
                    Some(name)
                }
                GenTarget::Inst(_) => None,
            };
            let vals = eval_all(host, ctx, env, args)?;
            if let Some(name) = actor {
                let actor = host.domain().actor_id(name)?;
                let decl = host.domain().actor(actor);
                let ev = decl
                    .event_id(ev)
                    .ok_or_else(|| CoreError::unresolved("actor event", ev.clone()))?;
                host.send_actor_arc(ctx.self_inst, actor, ev, Arc::from(vals))?;
                return Ok(Flow::Normal);
            }
            let GenTarget::Inst(target) = target else {
                unreachable!("actor targets handled above");
            };
            let (class, to) = instance(&eval(host, ctx, env, target)?)?;
            let ev = event(host, class, ev)?;
            match delay {
                None => host.send_arc(ctx.self_inst, to, ev, Arc::from(vals))?,
                Some(d) => {
                    let ticks = eval(host, ctx, env, d)?.as_int()?;
                    if ticks < 0 {
                        return Err(CoreError::runtime("negative signal delay"));
                    }
                    host.send_delayed(ctx.self_inst, to, ev, vals, ticks)?;
                }
            }
        }
        Stmt::Cancel { event: ev, .. } => {
            let ev = event(host, ctx.self_class, ev)?;
            host.cancel_delayed(ctx.self_inst, ev)?;
        }
        Stmt::If {
            arms, otherwise, ..
        } => {
            for (cond, body) in arms {
                if eval(host, ctx, env, cond)?.as_bool()? {
                    return exec_block(host, ctx, env, body);
                }
            }
            if let Some(body) = otherwise {
                return exec_block(host, ctx, env, body);
            }
        }
        Stmt::While { cond, body, .. } => {
            while eval(host, ctx, env, cond)?.as_bool()? {
                ctx.burn(1)?;
                match exec_block(host, ctx, env, body)? {
                    Flow::Broke => break,
                    Flow::Returned => return Ok(Flow::Returned),
                    Flow::Normal | Flow::Continued => {}
                }
            }
        }
        Stmt::ForEach { var, set, body, .. } => {
            let set_v = eval(host, ctx, env, set)?;
            let Value::Set(class, items) = set_v else {
                return Err(CoreError::runtime(format!(
                    "foreach needs a set, got {}",
                    set_v.data_type()
                )));
            };
            for item in items {
                ctx.burn(1)?;
                env.locals
                    .insert(var.clone(), Value::Inst(class, Some(item)));
                match exec_block(host, ctx, env, body)? {
                    Flow::Broke => break,
                    Flow::Returned => return Ok(Flow::Returned),
                    Flow::Normal | Flow::Continued => {}
                }
            }
        }
        Stmt::Break { .. } => return Ok(Flow::Broke),
        Stmt::Continue { .. } => return Ok(Flow::Continued),
        Stmt::Return { .. } => return Ok(Flow::Returned),
        Stmt::ExprStmt { expr, .. } => {
            eval(host, ctx, env, expr)?;
        }
    }
    Ok(Flow::Normal)
}

/// The candidates of a filtered `select` that pass `filter`, in creation
/// order; a `first` select stops at the first one.
fn select<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    class: ClassId,
    filter: &Expr,
    first: bool,
) -> Result<Vec<InstId>> {
    let mut out = Vec::new();
    // The filter needs `&mut host`, so candidates must be materialised
    // before evaluation (the host cannot be borrowed while iterating it).
    for inst in host.instances_of(class) {
        ctx.burn(1)?;
        let saved = ctx.selected.replace(Value::Inst(class, Some(inst)));
        let keep = eval(host, ctx, env, filter).and_then(|v| v.as_bool());
        ctx.selected = saved;
        if keep? {
            out.push(inst);
            if first {
                break;
            }
        }
    }
    Ok(out)
}

/// Evaluates an expression.
fn eval<H: ActionHost>(
    host: &mut H,
    ctx: &mut ExecCtx,
    env: &mut Env,
    expr: &Expr,
) -> Result<Value> {
    ctx.burn(1)?;
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(name) => env
            .locals
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::unresolved("variable", name.clone())),
        Expr::Param(name) => env
            .params
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.clone())
            .ok_or_else(|| CoreError::unresolved("event parameter", name.clone())),
        Expr::SelfRef => Ok(Value::Inst(ctx.self_class, Some(ctx.self_inst))),
        Expr::Selected => ctx
            .selected
            .clone()
            .ok_or_else(|| CoreError::runtime("`selected` used outside a `where` clause")),
        Expr::Attr(base, name) => {
            let (class, inst) = instance(&eval(host, ctx, env, base)?)?;
            let attr = attr(host, class, name)?;
            host.attr_read(inst, attr)
        }
        Expr::Nav(base, _, assoc) => {
            let base_v = eval(host, ctx, env, base)?;
            let (src, sources) = match &base_v {
                Value::Inst(class, inst) => (*class, inst.as_slice()),
                Value::Set(class, items) => (*class, items.as_slice()),
                other => {
                    return Err(CoreError::runtime(format!(
                        "cannot navigate from {}",
                        other.data_type()
                    )))
                }
            };
            let assoc = host.domain().assoc_id(assoc)?;
            let target = host.domain().nav_target(assoc, src)?;
            let mut out: Vec<InstId> = Vec::new();
            for &src in sources {
                host.related_each(src, assoc, &mut |t| {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                })?;
            }
            Ok(Value::Set(target, out))
        }
        Expr::Unary(op, e) => {
            let v = eval(host, ctx, env, e)?;
            apply_unop(*op, &v)
        }
        Expr::Binary(op, a, b) => {
            let va = eval(host, ctx, env, a)?;
            let vb = eval(host, ctx, env, b)?;
            apply_binop(*op, &va, &vb)
        }
        Expr::BridgeCall(actor, func, args) => {
            let actor = host.domain().actor_id(actor)?;
            let vals = eval_all(host, ctx, env, args)?;
            host.bridge_call(actor, func, vals)
        }
    }
}
