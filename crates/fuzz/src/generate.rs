//! The case generator: one `u64` seed → one well-formed [`FuzzSpec`].
//!
//! Everything the generator emits is **confluent by construction**, so
//! any legal schedule (reference interpreter, model interpreter, partitioned
//! cosim) must produce identical per-actor traces and every divergence is a
//! toolchain bug:
//!
//! * the class send graph is a forest pointing from lower to higher
//!   indices — each class has at most one sender, so per-receiver FIFO
//!   order is fixed by that sender's run-to-completion order;
//! * exactly one instance per class, and each class emits observables
//!   only to its own observer actor, so per-actor sequences have a
//!   single source;
//! * external stimuli target only forest roots;
//! * transition tables are total (`CantHappen` is unreachable), actions
//!   use wrapping `+ - *` on ints (no division — no traps), and all
//!   loops are counter-bounded;
//! * all data is `int`/`bool`, which marshal exactly across a
//!   hardware/software boundary.
//!
//! The **non-self-access axis** stresses the effect analysis
//! ([`xtuml_core::effects`]) without breaking confluence: on roughly
//! half the associations, the child grows a `k0` attribute the parent
//! *reads* through navigation (never written anywhere — a provably
//! const attribute) and a `w0` attribute the parent *writes* through
//! navigation (never read anywhere — a write-only sink, so no
//! observable depends on cross-instance write order). Classes joined by
//! such an edge share one co-simulation partition (remote attribute
//! access is partition-local). A rare **racy** variant duplicates one
//! such association and writes `w0` through both copies from two
//! different parent states — a genuine two-action cross-shard race the
//! analysis must reject (X0017) while the sequential differential still
//! passes.

use xtuml_core::action::{Block, Expr, GenTarget, LValue, Stmt};
use xtuml_core::error::Pos;
use xtuml_core::value::{BinOp, UnOp, Value};
use xtuml_core::Multiplicity;
use xtuml_prop::Gen;

use crate::spec::{AssocSpec, ClassSpec, FuzzSpec, ScalarTy, StimSpec, TransSpec};

const MULTS: [Multiplicity; 3] = [Multiplicity::One, Multiplicity::ZeroOne, Multiplicity::Many];

fn scalar(g: &mut Gen) -> ScalarTy {
    if g.flip() {
        ScalarTy::Int
    } else {
        ScalarTy::Bool
    }
}

/// What an action body may reference while being generated.
struct Ctx<'a> {
    /// `(attr name, type)` of the executing class.
    attrs: &'a [(String, ScalarTy)],
    /// Shared event signature — empty when `rcvd.*` is not allowed
    /// (states with no inbound transition are never entered by an event).
    params: &'a [(String, ScalarTy)],
    /// Outgoing edges: `(assoc name, child class name, child event name,
    /// child signature)`.
    sends: &'a [(String, String, String, Vec<ScalarTy>)],
    /// Observable events `(name, signature)` on the observer actor.
    obs: &'a [(String, Vec<ScalarTy>)],
    /// Observer actor name.
    actor: &'a str,
    /// Navigated reads of child `k0` const attributes, usable wherever
    /// an int leaf is.
    nav_reads: &'a [Expr],
    /// Navigated writes to child `w0` sink attributes: `(nav base,
    /// attr name)`.
    nav_writes: &'a [(Expr, String)],
    /// Int-typed locals currently in scope.
    locals: Vec<String>,
    /// Fresh-name counter for locals.
    next_local: usize,
}

/// An int literal in the parser's canonical form: the lexer has no
/// negative literals, so `-9` must be `Neg(Lit(9))` for the printed text
/// to reparse to the identical AST.
fn int_lit(v: i64) -> Expr {
    if v < 0 {
        Expr::Unary(UnOp::Neg, Box::new(Expr::int(-v)))
    } else {
        Expr::int(v)
    }
}

fn int_leaves(ctx: &Ctx<'_>) -> Vec<Expr> {
    let mut leaves = Vec::new();
    for (n, t) in ctx.attrs {
        // `w*` attrs are write-only sinks: another instance writes them
        // through navigation, so reading one would make observables
        // depend on cross-instance write order and break confluence.
        if *t == ScalarTy::Int && !n.starts_with('w') {
            leaves.push(Expr::Attr(Box::new(Expr::SelfRef), n.clone()));
        }
    }
    leaves.extend(ctx.nav_reads.iter().cloned());
    for (n, t) in ctx.params {
        if *t == ScalarTy::Int {
            leaves.push(Expr::Param(n.clone()));
        }
    }
    for v in &ctx.locals {
        leaves.push(Expr::Var(v.clone()));
    }
    leaves
}

fn int_expr(g: &mut Gen, ctx: &Ctx<'_>, depth: usize) -> Expr {
    if depth == 0 || g.ratio(2, 5) {
        let leaves = int_leaves(ctx);
        if !leaves.is_empty() && g.ratio(3, 5) {
            return leaves[g.index(leaves.len())].clone();
        }
        return int_lit(g.int_in(-9, 9));
    }
    let op = *g.choose(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
    Expr::Binary(
        op,
        Box::new(int_expr(g, ctx, depth - 1)),
        Box::new(int_expr(g, ctx, depth - 1)),
    )
}

fn bool_expr(g: &mut Gen, ctx: &Ctx<'_>, depth: usize) -> Expr {
    if depth == 0 || g.ratio(1, 3) {
        let mut leaves: Vec<Expr> = Vec::new();
        for (n, t) in ctx.attrs {
            if *t == ScalarTy::Bool {
                leaves.push(Expr::Attr(Box::new(Expr::SelfRef), n.clone()));
            }
        }
        for (n, t) in ctx.params {
            if *t == ScalarTy::Bool {
                leaves.push(Expr::Param(n.clone()));
            }
        }
        if !leaves.is_empty() && g.ratio(1, 2) {
            return leaves[g.index(leaves.len())].clone();
        }
        return Expr::bool(g.flip());
    }
    match g.below(4) {
        0 => Expr::Unary(UnOp::Not, Box::new(bool_expr(g, ctx, depth - 1))),
        1 => {
            let op = *g.choose(&[BinOp::And, BinOp::Or]);
            Expr::Binary(
                op,
                Box::new(bool_expr(g, ctx, depth - 1)),
                Box::new(bool_expr(g, ctx, depth - 1)),
            )
        }
        _ => {
            let op = *g.choose(&[
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::Ne,
            ]);
            Expr::Binary(
                op,
                Box::new(int_expr(g, ctx, 1)),
                Box::new(int_expr(g, ctx, 1)),
            )
        }
    }
}

fn expr_of(g: &mut Gen, ctx: &Ctx<'_>, ty: ScalarTy, depth: usize) -> Expr {
    match ty {
        ScalarTy::Int => int_expr(g, ctx, depth),
        ScalarTy::Bool => bool_expr(g, ctx, depth),
    }
}

/// A side-effecting "simple" statement: attribute write (own `a*` attrs
/// or a navigated child `w0` sink), observable emit, or a signal to a
/// child — the building block of both straight-line code and loop/branch
/// bodies.
fn simple_stmt(g: &mut Gen, ctx: &mut Ctx<'_>) -> Stmt {
    let pos = Pos::default();
    // Only `a*` attrs are write targets: `k*` must stay provably const
    // and `w*` is written exclusively through navigation by the parent.
    let writable: Vec<(String, ScalarTy)> = ctx
        .attrs
        .iter()
        .filter(|(n, _)| n.starts_with('a'))
        .cloned()
        .collect();
    for _ in 0..3 {
        match g.below(4) {
            0 if !writable.is_empty() => {
                let (name, ty) = writable[g.index(writable.len())].clone();
                return Stmt::Assign {
                    lhs: LValue::Attr(Expr::SelfRef, name),
                    expr: expr_of(g, ctx, ty, 2),
                    pos,
                };
            }
            3 if !ctx.nav_writes.is_empty() => {
                let (base, attr) = ctx.nav_writes[g.index(ctx.nav_writes.len())].clone();
                return Stmt::Assign {
                    lhs: LValue::Attr(base, attr),
                    expr: int_expr(g, ctx, 1),
                    pos,
                };
            }
            1 if !ctx.sends.is_empty() => {
                let (assoc, child, event, sig) = ctx.sends[g.index(ctx.sends.len())].clone();
                let args = sig.iter().map(|t| expr_of(g, ctx, *t, 1)).collect();
                let nav = Expr::Nav(Box::new(Expr::SelfRef), child, assoc);
                return Stmt::Generate {
                    event,
                    args,
                    target: GenTarget::Inst(Expr::Unary(UnOp::Any, Box::new(nav))),
                    delay: None,
                    pos,
                };
            }
            _ if !ctx.obs.is_empty() => {
                let (event, sig) = ctx.obs[g.index(ctx.obs.len())].clone();
                let args = sig.iter().map(|t| expr_of(g, ctx, *t, 1)).collect();
                return Stmt::Generate {
                    event,
                    args,
                    target: GenTarget::Actor(ctx.actor.to_owned()),
                    delay: None,
                    pos,
                };
            }
            _ => {}
        }
    }
    // Always-available fallback: bind a fresh int local.
    let name = format!("t{}", ctx.next_local);
    ctx.next_local += 1;
    let stmt = Stmt::Assign {
        lhs: LValue::Var(name.clone()),
        expr: int_expr(g, ctx, 1),
        pos,
    };
    ctx.locals.push(name);
    stmt
}

fn action_block(g: &mut Gen, ctx: &mut Ctx<'_>) -> Block {
    let pos = Pos::default();
    let mut stmts = Vec::new();
    let n = 1 + g.index(4);
    for _ in 0..n {
        match g.below(6) {
            0 => {
                // Fresh int local, usable by later statements.
                let name = format!("t{}", ctx.next_local);
                ctx.next_local += 1;
                stmts.push(Stmt::Assign {
                    lhs: LValue::Var(name.clone()),
                    expr: int_expr(g, ctx, 2),
                    pos,
                });
                ctx.locals.push(name);
            }
            1 => {
                let cond = bool_expr(g, ctx, 2);
                let then: Vec<Stmt> = (0..1 + g.index(2)).map(|_| simple_stmt(g, ctx)).collect();
                let otherwise = if g.flip() {
                    Some(Block {
                        stmts: (0..1 + g.index(2)).map(|_| simple_stmt(g, ctx)).collect(),
                    })
                } else {
                    None
                };
                stmts.push(Stmt::If {
                    arms: vec![(cond, Block { stmts: then })],
                    otherwise,
                    pos,
                });
            }
            2 => {
                // Counter-bounded loop: `t = 0; while (t < k) { t = t + 1; ... }`.
                let name = format!("t{}", ctx.next_local);
                ctx.next_local += 1;
                stmts.push(Stmt::Assign {
                    lhs: LValue::Var(name.clone()),
                    expr: Expr::int(0),
                    pos,
                });
                ctx.locals.push(name.clone());
                let bound = 1 + g.index(3) as i64;
                let mut body = vec![Stmt::Assign {
                    lhs: LValue::Var(name.clone()),
                    expr: Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::Var(name.clone())),
                        Box::new(Expr::int(1)),
                    ),
                    pos,
                }];
                for _ in 0..1 + g.index(2) {
                    body.push(simple_stmt(g, ctx));
                }
                stmts.push(Stmt::While {
                    cond: Expr::Binary(
                        BinOp::Lt,
                        Box::new(Expr::Var(name)),
                        Box::new(Expr::int(bound)),
                    ),
                    body: Block { stmts: body },
                    pos,
                });
            }
            _ => stmts.push(simple_stmt(g, ctx)),
        }
    }
    Block { stmts }
}

/// Generates the fuzz case for one seed. Deterministic: the same seed
/// always yields the same spec.
pub fn generate(seed: u64) -> FuzzSpec {
    let mut g = Gen::new(seed);
    let n_classes = 1 + g.index(5);

    // Send forest: class c > 0 gets a parent with high probability.
    let mut assocs: Vec<AssocSpec> = Vec::new();
    for c in 1..n_classes {
        if g.ratio(4, 5) {
            assocs.push(AssocSpec {
                name: format!("R{}", assocs.len() + 1),
                parent: g.index(c),
                child: c,
                parent_mult: *g.choose(&MULTS),
                child_mult: *g.choose(&MULTS),
            });
        }
    }

    // The non-self-access axis: on flagged edges the parent reads the
    // child's `k0` (const) and writes its `w0` (sink) through
    // navigation. Only the original forest edges carry the axis; a racy
    // duplicate edge added below never does.
    let axis: Vec<bool> = assocs.iter().map(|_| g.ratio(1, 2)).collect();

    // Class skeletons first: signatures and tables are needed before any
    // action body can reference a child class.
    let mut classes: Vec<ClassSpec> = (0..n_classes)
        .map(|i| {
            let mut attrs: Vec<(String, ScalarTy)> = (0..g.index(3))
                .map(|k| (format!("a{k}"), scalar(&mut g)))
                .collect();
            if assocs.iter().zip(&axis).any(|(a, on)| *on && a.child == i) {
                attrs.push(("k0".to_owned(), ScalarTy::Int));
                attrs.push(("w0".to_owned(), ScalarTy::Int));
            }
            let params: Vec<(String, ScalarTy)> = (0..g.index(3))
                .map(|k| (format!("p{k}"), scalar(&mut g)))
                .collect();
            let events: Vec<String> = (0..1 + g.index(3)).map(|k| format!("Ev{k}")).collect();
            let obs = (0..1 + g.index(2))
                .map(|k| {
                    let sig = (0..g.index(3)).map(|_| scalar(&mut g)).collect();
                    (format!("o{k}"), sig)
                })
                .collect();
            let n_states = 1 + g.index(3);
            let states = (0..n_states)
                .map(|k| (format!("S{k}"), Block::new()))
                .collect();
            let transitions = (0..n_states)
                .map(|_| {
                    (0..events.len())
                        .map(|_| {
                            if g.ratio(7, 10) {
                                TransSpec::To(g.index(n_states))
                            } else {
                                TransSpec::Ignore
                            }
                        })
                        .collect()
                })
                .collect();
            ClassSpec {
                name: format!("C{i}"),
                actor: format!("O{i}"),
                attrs,
                params,
                events,
                obs,
                states,
                transitions,
                hardware: g.flip(),
            }
        })
        .collect();

    // Navigated attribute access in the co-simulation is partition-local
    // (a remote `x.attr` fails at the bus boundary), so classes joined
    // by an axis edge must share a partition. Edges are in child order
    // with parent < child, so one forward pass pins whole chains.
    for (a, on) in assocs.iter().zip(&axis) {
        if *on {
            classes[a.child].hardware = classes[a.parent].hardware;
        }
    }

    // Racy variant: duplicate one axis edge whose parent has at least
    // two states, then (after the bodies are generated) write the
    // child's `w0` through *both* copies from two different parent
    // states. The two writes reach one attribute through different
    // associations — no single colocation partition justifies them, so
    // the effect analysis must reject the model (X0017) and the sharded
    // differential leg must skip it; the sequential legs still agree
    // because `w0` is never read.
    let racy = g.ratio(1, 6);
    let racy_edge = assocs
        .iter()
        .zip(&axis)
        .position(|(a, on)| *on && classes[a.parent].states.len() >= 2)
        .filter(|_| racy);
    if let Some(idx) = racy_edge {
        let a = assocs[idx].clone();
        assocs.push(AssocSpec {
            name: format!("R{}", assocs.len() + 1),
            parent: a.parent,
            child: a.child,
            parent_mult: Multiplicity::One,
            child_mult: Multiplicity::One,
        });
    }

    // Action bodies. `rcvd.*` is only legal in states an event can enter.
    for i in 0..n_classes {
        let sends: Vec<(String, String, String, Vec<ScalarTy>)> = assocs
            .iter()
            .take(axis.len())
            .filter(|a| a.parent == i)
            .flat_map(|a| {
                let child = &classes[a.child];
                child.events.iter().map(move |ev| {
                    (
                        a.name.clone(),
                        child.name.clone(),
                        ev.clone(),
                        child.params.iter().map(|(_, t)| *t).collect(),
                    )
                })
            })
            .collect();
        let inbound: Vec<bool> = (0..classes[i].states.len())
            .map(|s| {
                classes[i]
                    .transitions
                    .iter()
                    .flatten()
                    .any(|t| *t == TransSpec::To(s))
            })
            .collect();
        let mut nav_reads: Vec<Expr> = Vec::new();
        let mut nav_writes: Vec<(Expr, String)> = Vec::new();
        for (a, on) in assocs.iter().zip(&axis) {
            if !*on || a.parent != i {
                continue;
            }
            let nav = Expr::Unary(
                UnOp::Any,
                Box::new(Expr::Nav(
                    Box::new(Expr::SelfRef),
                    classes[a.child].name.clone(),
                    a.name.clone(),
                )),
            );
            nav_reads.push(Expr::Attr(Box::new(nav.clone()), "k0".to_owned()));
            nav_writes.push((nav, "w0".to_owned()));
        }
        let this = classes[i].clone();
        for (s, entered) in inbound.iter().enumerate() {
            let empty: [(String, ScalarTy); 0] = [];
            let mut ctx = Ctx {
                attrs: &this.attrs,
                params: if *entered { &this.params } else { &empty },
                sends: &sends,
                obs: &this.obs,
                actor: &this.actor,
                nav_reads: &nav_reads,
                nav_writes: &nav_writes,
                locals: Vec::new(),
                next_local: 0,
            };
            classes[i].states[s].1 = action_block(&mut g, &mut ctx);
        }
    }

    // Inject the race: the same `w0`, written via the original edge from
    // the parent's first state and via the duplicate edge from its
    // second state.
    if let Some(idx) = racy_edge {
        let orig = assocs[idx].clone();
        let dup = assocs.last().expect("racy duplicate was pushed").clone();
        let child = classes[orig.child].name.clone();
        let mut write_via = |assoc: &AssocSpec, state: usize, v: i64| {
            let nav = Expr::Unary(
                UnOp::Any,
                Box::new(Expr::Nav(
                    Box::new(Expr::SelfRef),
                    child.clone(),
                    assoc.name.clone(),
                )),
            );
            classes[orig.parent].states[state]
                .1
                .stmts
                .push(Stmt::Assign {
                    lhs: LValue::Attr(nav, "w0".to_owned()),
                    expr: int_lit(v),
                    pos: Pos::default(),
                });
        };
        write_via(&orig, 0, 1);
        write_via(&dup, 1, 2);
    }

    // Stimuli: external signals to forest roots only.
    let roots: Vec<usize> = (0..n_classes)
        .filter(|c| assocs.iter().all(|a| a.child != *c))
        .collect();
    let stimuli = (0..g.index(7))
        .map(|_| {
            let class = roots[g.index(roots.len())];
            let c = &classes[class];
            StimSpec {
                time: g.below(10),
                class,
                event: c.events[g.index(c.events.len())].clone(),
                args: c
                    .params
                    .iter()
                    .map(|(_, t)| match t {
                        ScalarTy::Int => Value::Int(g.int_in(-20, 20)),
                        ScalarTy::Bool => Value::Bool(g.flip()),
                    })
                    .collect(),
            }
        })
        .collect();

    FuzzSpec {
        seed,
        classes,
        assocs,
        stimuli,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_specs_lower_and_validate() {
        for seed in 0..50 {
            let spec = generate(seed);
            let domain = spec
                .lower()
                .unwrap_or_else(|e| panic!("seed {seed}: generated spec failed validation: {e}"));
            assert!(!domain.classes.is_empty());
        }
    }

    #[test]
    fn send_graph_is_a_forward_forest() {
        // The racy axis may duplicate an edge between one parent–child
        // pair, so the forest invariant is on *distinct* sender classes:
        // per-receiver FIFO confluence only needs a single sender.
        for seed in 0..50 {
            let spec = generate(seed);
            for a in &spec.assocs {
                assert!(a.parent < a.child, "seed {seed}: edge must point forward");
            }
            for c in 0..spec.classes.len() {
                let senders: std::collections::BTreeSet<usize> = spec
                    .assocs
                    .iter()
                    .filter(|a| a.child == c)
                    .map(|a| a.parent)
                    .collect();
                assert!(
                    senders.len() <= 1,
                    "seed {seed}: class {c} has {} distinct senders",
                    senders.len()
                );
            }
        }
    }

    #[test]
    fn the_nonself_axis_and_the_racy_variant_both_fire() {
        let mut with_axis = 0;
        let mut with_race = 0;
        for seed in 0..200 {
            let spec = generate(seed);
            if spec
                .classes
                .iter()
                .any(|c| c.attrs.iter().any(|(n, _)| n == "k0"))
            {
                with_axis += 1;
            }
            let mut pairs = std::collections::BTreeSet::new();
            if spec
                .assocs
                .iter()
                .any(|a| !pairs.insert((a.parent, a.child)))
            {
                with_race += 1;
            }
        }
        assert!(with_axis >= 60, "only {with_axis}/200 seeds grew the axis");
        assert!(with_race >= 10, "only {with_race}/200 seeds grew a race");
    }

    #[test]
    fn stimuli_target_roots_only() {
        for seed in 0..50 {
            let spec = generate(seed);
            for s in &spec.stimuli {
                assert!(
                    spec.assocs.iter().all(|a| a.child != s.class),
                    "seed {seed}: stimulus targets a non-root"
                );
            }
        }
    }
}
