//! An independent reference interpreter for generated models.
//!
//! This deliberately shares **no execution machinery** with
//! `xtuml-exec`'s bytecode VM or the `mda` substrates: it walks the
//! action AST directly over a naive store, with one global
//! `(time, sequence)` event queue. It is slow and simple on purpose —
//! the differential oracle compares it against the two production
//! executors, so its value is being an obviously-correct third opinion
//! written against the language definition, not the implementation.
//!
//! It supports exactly the statement forms the generator emits (assign,
//! gen, if, while, break/continue/return) and reports anything else as
//! an error rather than guessing.

use std::collections::BTreeMap;

use xtuml_core::action::{Block, Expr, GenTarget, LValue, Stmt};
use xtuml_core::model::TransitionTarget;
use xtuml_core::testcase::{Drive, TestCase};
use xtuml_core::value::{apply_binop, apply_unop, BinOp, Value};
use xtuml_core::{ClassId, Domain, EventId, InstId, StateId};
use xtuml_exec::ObservableEvent;

/// Counters the cross-implementation "no lost signals" oracle compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefStats {
    /// Events that triggered a transition (and ran an entry action).
    pub dispatches: u64,
    /// Events consumed by an explicit ignore.
    pub ignored: u64,
    /// Instance-directed signals sent by actions (stimuli excluded).
    pub sends: u64,
}

/// Safety net against runaway generated loops; generated loops are
/// counter-bounded, so hitting this is itself a finding.
const FUEL: u64 = 1_000_000;

struct Instance {
    class: ClassId,
    state: StateId,
    attrs: Vec<Value>,
}

struct Pending {
    target: usize,
    event: EventId,
    args: Vec<Value>,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

struct World<'d> {
    domain: &'d Domain,
    insts: Vec<Instance>,
    /// Links per association, as unordered instance-index pairs.
    links: Vec<Vec<(usize, usize)>>,
    /// Ready queue keyed by `(time, sequence)` — one legal total order.
    queue: BTreeMap<(u64, u64), Pending>,
    next_seq: u64,
    now: u64,
    observables: Vec<ObservableEvent>,
    stats: RefStats,
    fuel: u64,
}

impl<'d> World<'d> {
    fn burn(&mut self) -> Result<(), String> {
        if self.fuel == 0 {
            return Err("reference interpreter ran out of fuel".to_owned());
        }
        self.fuel -= 1;
        Ok(())
    }

    fn eval(&mut self, e: &Expr, frame: &Frame<'_>) -> Result<Value, String> {
        match e {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => frame
                .locals
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unbound local `{name}`")),
            Expr::SelfRef => {
                let inst = &self.insts[frame.self_idx];
                Ok(Value::Inst(
                    inst.class,
                    Some(InstId::new(frame.self_idx as u32)),
                ))
            }
            Expr::Param(name) => {
                let class = self.domain.class(self.insts[frame.self_idx].class);
                let params = &class.events[frame.event.index()].params;
                let idx = params
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| format!("unknown event parameter `{name}`"))?;
                Ok(frame.args[idx].clone())
            }
            Expr::Attr(base, name) => {
                let idx = self.inst_of(base, frame)?;
                let class = self.domain.class(self.insts[idx].class);
                let attr = class
                    .attr_id(name)
                    .ok_or_else(|| format!("unknown attribute `{name}`"))?;
                Ok(self.insts[idx].attrs[attr.index()].clone())
            }
            Expr::Nav(base, class_name, assoc_name) => {
                let idx = self.inst_of(base, frame)?;
                let assoc = self
                    .domain
                    .assoc_id(assoc_name)
                    .map_err(|e| e.to_string())?;
                let target_class = self
                    .domain
                    .class_id(class_name)
                    .map_err(|e| e.to_string())?;
                let mut found: Vec<InstId> = Vec::new();
                for (a, b) in &self.links[assoc.index()] {
                    let partner = if *a == idx {
                        Some(*b)
                    } else if *b == idx {
                        Some(*a)
                    } else {
                        None
                    };
                    if let Some(p) = partner {
                        if self.insts[p].class == target_class {
                            found.push(InstId::new(p as u32));
                        }
                    }
                }
                found.sort();
                found.dedup();
                Ok(Value::Set(target_class, found))
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                apply_unop(*op, &v).map_err(|e| e.to_string())
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, frame)?;
                let vb = self.eval(b, frame)?;
                apply_binop(*op, &va, &vb).map_err(|e| e.to_string())
            }
            Expr::Selected | Expr::BridgeCall(..) => {
                Err("expression form not supported by the reference interpreter".to_owned())
            }
        }
    }

    fn inst_of(&mut self, base: &Expr, frame: &Frame<'_>) -> Result<usize, String> {
        match self.eval(base, frame)? {
            Value::Inst(_, Some(id)) => Ok(id.index()),
            Value::Inst(_, None) => Err("navigation from an empty reference".to_owned()),
            other => Err(format!("expected an instance, got {other}")),
        }
    }

    fn exec_block(&mut self, block: &Block, frame: &mut Frame<'_>) -> Result<Flow, String> {
        for stmt in &block.stmts {
            self.burn()?;
            match stmt {
                Stmt::Assign { lhs, expr, .. } => {
                    let v = self.eval(expr, frame)?;
                    match lhs {
                        LValue::Var(name) => {
                            frame.locals.insert(name.clone(), v);
                        }
                        LValue::Attr(base, name) => {
                            let idx = self.inst_of(base, frame)?;
                            let class = self.domain.class(self.insts[idx].class);
                            let attr = class
                                .attr_id(name)
                                .ok_or_else(|| format!("unknown attribute `{name}`"))?;
                            self.insts[idx].attrs[attr.index()] = v;
                        }
                    }
                }
                Stmt::Generate {
                    event,
                    args,
                    target,
                    delay,
                    ..
                } => {
                    if delay.is_some() {
                        return Err("delayed signals not supported".to_owned());
                    }
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(a, frame)?);
                    }
                    match target {
                        GenTarget::Actor(actor) => {
                            self.observables.push(ObservableEvent {
                                actor: actor.clone(),
                                event: event.clone(),
                                args: vals,
                            });
                        }
                        GenTarget::Inst(e) => {
                            let idx = self.inst_of(e, frame)?;
                            let class = self.domain.class(self.insts[idx].class);
                            let ev = class
                                .event_id(event)
                                .ok_or_else(|| format!("unknown event `{event}`"))?;
                            self.queue.insert(
                                (self.now, self.next_seq),
                                Pending {
                                    target: idx,
                                    event: ev,
                                    args: vals,
                                },
                            );
                            self.next_seq += 1;
                            self.stats.sends += 1;
                        }
                    }
                }
                Stmt::If {
                    arms, otherwise, ..
                } => {
                    let mut taken = false;
                    for (cond, body) in arms {
                        let c = self.eval(cond, frame)?;
                        if c.as_bool().map_err(|e| e.to_string())? {
                            match self.exec_block(body, frame)? {
                                Flow::Normal => {}
                                flow => return Ok(flow),
                            }
                            taken = true;
                            break;
                        }
                    }
                    if !taken {
                        if let Some(body) = otherwise {
                            match self.exec_block(body, frame)? {
                                Flow::Normal => {}
                                flow => return Ok(flow),
                            }
                        }
                    }
                }
                Stmt::While { cond, body, .. } => loop {
                    self.burn()?;
                    let c = self.eval(cond, frame)?;
                    if !c.as_bool().map_err(|e| e.to_string())? {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                    }
                },
                Stmt::Break { .. } => return Ok(Flow::Break),
                Stmt::Continue { .. } => return Ok(Flow::Continue),
                Stmt::Return { .. } => return Ok(Flow::Return),
                _ => {
                    return Err(
                        "statement form not supported by the reference interpreter".to_owned()
                    )
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn dispatch(&mut self, p: Pending) -> Result<(), String> {
        let class_id = self.insts[p.target].class;
        let class = self.domain.class(class_id);
        let machine = class
            .state_machine
            .as_ref()
            .ok_or_else(|| format!("class `{}` has no state machine", class.name))?;
        match machine.dispatch(self.insts[p.target].state, p.event) {
            TransitionTarget::CantHappen => Err(format!(
                "can't-happen: event `{}` in state `{}` of `{}`",
                class.events[p.event.index()].name,
                machine.state(self.insts[p.target].state).name,
                class.name
            )),
            TransitionTarget::Ignore => {
                self.stats.ignored += 1;
                Ok(())
            }
            TransitionTarget::To(next) => {
                self.insts[p.target].state = next;
                self.stats.dispatches += 1;
                let action = machine.state(next).action.clone();
                let mut frame = Frame {
                    self_idx: p.target,
                    event: p.event,
                    args: &p.args,
                    locals: BTreeMap::new(),
                };
                self.exec_block(&action, &mut frame)?;
                Ok(())
            }
        }
    }
}

struct Frame<'a> {
    self_idx: usize,
    event: EventId,
    args: &'a [Value],
    locals: BTreeMap<String, Value>,
}

/// Setup straight from the language definition: a created instance
/// starts in its initial state without running its entry action, and a
/// stimulus joins the one `(time, sequence)` queue.
impl Drive for World<'_> {
    type Handle = usize;
    type Error = String;

    fn create(&mut self, class_name: &str) -> Result<usize, String> {
        let domain = self.domain;
        let class_id = domain.class_id(class_name).map_err(|e| e.to_string())?;
        let class = domain.class(class_id);
        let machine = class
            .state_machine
            .as_ref()
            .ok_or_else(|| format!("class `{class_name}` has no state machine"))?;
        self.insts.push(Instance {
            class: class_id,
            state: machine.initial,
            attrs: class.attributes.iter().map(|a| a.default.clone()).collect(),
        });
        Ok(self.insts.len() - 1)
    }

    fn relate(&mut self, a: usize, b: usize, assoc_name: &str) -> Result<(), String> {
        let assoc = self.domain.assoc_id(assoc_name);
        let assoc = assoc.map_err(|e| e.to_string())?;
        self.links[assoc.index()].push((a, b));
        Ok(())
    }

    fn inject(
        &mut self,
        time: u64,
        inst: usize,
        event: &str,
        args: Vec<Value>,
    ) -> Result<(), String> {
        let class = self.domain.class(self.insts[inst].class);
        let event = class
            .event_id(event)
            .ok_or_else(|| format!("unknown event `{event}`"))?;
        self.queue.insert(
            (time, self.next_seq),
            Pending {
                target: inst,
                event,
                args,
            },
        );
        self.next_seq += 1;
        Ok(())
    }
}

/// Runs a test case against the reference interpreter.
///
/// # Errors
///
/// Returns a description when the script or model uses a feature outside
/// the generated subset, or when a can't-happen event fires.
pub fn run_reference(
    domain: &Domain,
    tc: &TestCase,
) -> Result<(Vec<ObservableEvent>, RefStats), String> {
    let mut world = World {
        domain,
        insts: Vec::new(),
        links: vec![Vec::new(); domain.associations.len()],
        queue: BTreeMap::new(),
        next_seq: 0,
        now: 0,
        observables: Vec::new(),
        stats: RefStats::default(),
        fuel: FUEL,
    };
    tc.apply(&mut world)?;
    while let Some(((time, _), pending)) = world.queue.pop_first() {
        world.now = time;
        world.dispatch(pending)?;
    }
    Ok((world.observables, world.stats))
}

/// True when the binary operator is one the generator may emit — used by
/// the generator's own tests to keep the subset and this interpreter in
/// sync.
pub fn generated_binop(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::pipeline_domain;
    use xtuml_exec::SchedPolicy;
    use xtuml_verify::{check_equivalence, run_model};

    #[test]
    fn reference_matches_interpreter_on_pipeline() {
        for stages in 1..4usize {
            let domain = pipeline_domain(stages).unwrap();
            let tc = TestCase::pipeline(stages, 3);
            let (obs, stats) = run_reference(&domain, &tc).unwrap();
            let model = run_model(&domain, SchedPolicy::default(), &tc).unwrap();
            assert!(
                check_equivalence(&model, &obs).is_equivalent(),
                "stages={stages}"
            );
            assert_eq!(stats.dispatches, 3 * stages as u64);
        }
    }

    #[test]
    fn unknown_event_is_an_error() {
        let domain = pipeline_domain(1).unwrap();
        let mut tc = TestCase::new("bad");
        tc.create("Stage0");
        tc.inject(0, 0, "Nope", vec![]);
        assert!(run_reference(&domain, &tc).is_err());
    }

    #[test]
    fn div_and_rem_are_outside_the_generated_subset() {
        assert!(!generated_binop(BinOp::Div));
        assert!(!generated_binop(BinOp::Rem));
        assert!(generated_binop(BinOp::Add));
    }
}
