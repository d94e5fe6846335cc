//! The action-execution interface: the services an execution host gives a
//! running action, and the per-dispatch execution context.
//!
//! The paper's model compiler "may [implement the model] any manner it
//! chooses so long as the defined behavior is preserved" (§4). We make the
//! *defined behaviour* a single reusable artifact: every state action runs
//! on the register bytecode VM ([`run_bc`](crate::bc::run_bc)) against the
//! [`ActionHost`] trait, and every execution platform in the workspace —
//! the abstract model interpreter (`xtuml-exec`), the generated-hardware
//! FSMs (`xtuml-mda`'s `hw`, the executable twin of the VHDL text) and
//! the generated-software tasks (`xtuml-mda` lowering onto `xtuml-swrt`)
//! — implements `ActionHost` over its own object store and signal
//! transport.
//! Behavioural equivalence across partitions then reduces to the hosts'
//! transport semantics, which is exactly what the verification layer
//! checks.
//!
//! Fuel is one unit per statement and per expression node of the action
//! block (see [`bc`](crate::bc)), so every substrate's cost model sees the
//! same step count for the same action.

use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId};
use crate::model::Domain;
use crate::value::Value;

/// The services an execution platform provides to running actions.
///
/// Implementations must keep instance populations **per platform
/// partition**: a host only ever sees classes mapped to it, plus a
/// transport (`send*`) that may cross the partition boundary.
pub trait ActionHost {
    /// The domain model being executed (for name→id resolution).
    fn domain(&self) -> &Domain;

    /// Creates an instance of `class` in its initial state; returns its id.
    ///
    /// # Errors
    ///
    /// Implementations report resource exhaustion or out-of-partition
    /// classes as [`CoreError::Runtime`].
    fn create(&mut self, class: ClassId) -> Result<InstId>;

    /// Deletes an instance; subsequent access through the reference fails.
    ///
    /// # Errors
    ///
    /// Fails if the instance is unknown or already deleted.
    fn delete(&mut self, inst: InstId) -> Result<()>;

    /// The class of a live instance.
    ///
    /// # Errors
    ///
    /// Fails if the instance is unknown or deleted.
    fn class_of(&self, inst: InstId) -> Result<ClassId>;

    /// Reads an attribute.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value>;

    /// Writes an attribute.
    ///
    /// # Errors
    ///
    /// Fails on dangling references or a type mismatch.
    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()>;

    /// All live instances of a class, in creation order.
    fn instances_of(&self, class: ClassId) -> Vec<InstId>;

    /// The first live instance of a class in creation order, if any
    /// (unfiltered `select any`).
    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.instances_of(class).first().copied()
    }

    /// Visits the instances linked to `inst` across `assoc`, in link
    /// order, without materialising a `Vec`.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()>;

    /// Creates a link.
    ///
    /// # Errors
    ///
    /// Fails on dangling references or multiplicity violations.
    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()>;

    /// Removes a link.
    ///
    /// # Errors
    ///
    /// Fails if no such link exists.
    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()>;

    /// Sends a signal to an instance (possibly across the partition
    /// boundary; possibly to `self`). The bytecode VM's send ops hand over
    /// a pooled (or literal-table) `Arc<[Value]>`; hosts whose signal
    /// queue stores `Arc` payloads move it straight into the queue — zero
    /// per-send allocation *and* zero refcount traffic.
    ///
    /// # Errors
    ///
    /// Fails on dangling references or queue overflow (platform-defined).
    fn send_arc(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: std::sync::Arc<[Value]>,
    ) -> Result<()>;

    /// Sends a signal to an external actor — an *observable output*; the
    /// payload is shared as for [`ActionHost::send_arc`].
    ///
    /// # Errors
    ///
    /// Platform-defined.
    fn send_actor_arc(
        &mut self,
        from: InstId,
        actor: ActorId,
        event: EventId,
        args: std::sync::Arc<[Value]>,
    ) -> Result<()>;

    /// Schedules a signal to an instance after `delay` time units (the
    /// timer idiom: `gen Ev() to self after n;`).
    ///
    /// # Errors
    ///
    /// Platform-defined.
    fn send_delayed(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Vec<Value>,
        delay: i64,
    ) -> Result<()>;

    /// Cancels pending delayed signals of the given event to `inst`.
    ///
    /// # Errors
    ///
    /// Platform-defined; cancelling when nothing is pending is *not* an
    /// error.
    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()>;

    /// Invokes a synchronous bridge function on an actor.
    ///
    /// # Errors
    ///
    /// Fails if the actor does not implement the function.
    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value>;

    /// Pops a *uniquely-owned* payload buffer of exactly `len` slots from
    /// the host's recycling pool, if it keeps one. The bytecode VM fills
    /// every slot before handing the buffer to [`ActionHost::send_arc`],
    /// so hosts that recycle dispatched envelope payloads turn computed
    /// sends into zero-allocation operations. The default host keeps no
    /// pool.
    fn take_payload(&mut self, len: usize) -> Option<std::sync::Arc<[Value]>> {
        let _ = len;
        None
    }

    /// [`ActionHost::attr_write`] for a value whose type the caller has
    /// already proven statically — the bytecode lowering only emits this
    /// for fused constant stores the typechecker validated against the
    /// declared attribute type. Hosts with a type-checking store may skip
    /// the declared-type re-check; every liveness and missing-slot error
    /// must still be raised. The default stays fully checked.
    ///
    /// # Errors
    ///
    /// As for [`ActionHost::attr_write`], minus the type mismatch (which
    /// the caller guarantees cannot occur).
    fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.attr_write(inst, attr, value)
    }
}

/// Why a block stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to the end.
    Completed,
    /// A `return;` statement fired.
    Returned,
}

/// Default fuel: maximum primitive steps per action block before the
/// interpreter assumes a runaway loop. Run-to-completion semantics make an
/// unbounded action block a model error, not a scheduling choice.
pub const DEFAULT_FUEL: u64 = 1_000_000;

/// Execution context for one run-to-completion action block.
#[derive(Debug)]
pub struct ExecCtx {
    /// The instance whose state action is running.
    pub self_inst: InstId,
    /// Static class of `self_inst` (from the lowered action).
    pub self_class: ClassId,
    /// The execution frame: event parameters in the leading slots, locals
    /// after them. `None` marks a slot not yet assigned.
    pub frame: Vec<Option<Value>>,
    /// Candidate binding for `selected` inside `where` clauses.
    pub(crate) selected: Option<Value>,
    /// Primitive-step counter (statements + expression nodes); the
    /// substrates convert this into cycles.
    pub steps: u64,
    /// Remaining fuel; see [`DEFAULT_FUEL`].
    pub fuel: u64,
}

impl ExecCtx {
    /// Creates a context over a caller-provided frame, allowing hot
    /// dispatch loops to reuse one frame allocation across steps. The
    /// frame must already be sized to the action's
    /// [`n_regs`](crate::bc::BcAction::n_regs), with every slot unassigned.
    pub fn with_frame(
        self_inst: InstId,
        self_class: ClassId,
        frame: Vec<Option<Value>>,
    ) -> ExecCtx {
        ExecCtx {
            self_inst,
            self_class,
            frame,
            selected: None,
            steps: 0,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Fills the leading parameter slots from the triggering event's
    /// arguments.
    pub fn bind_args<I: IntoIterator<Item = Value>>(&mut self, args: I) {
        for (slot, v) in args.into_iter().enumerate() {
            self.frame[slot] = Some(v);
        }
    }

    #[inline(always)]
    pub(crate) fn burn(&mut self, n: u64) -> Result<()> {
        self.steps += n;
        if self.fuel < n {
            return Err(CoreError::runtime(
                "action block exceeded its fuel limit (runaway loop?)",
            ));
        }
        self.fuel -= n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{lower_block, run_bc, BcAction};
    use crate::parse::parse_block;
    use crate::testhost::{fresh, TestHost};
    use crate::value::DataType;
    use std::collections::BTreeMap;

    /// A lowered-and-executed block plus its final frame, with name-based
    /// access for assertions.
    #[derive(Debug)]
    struct Run {
        bca: BcAction,
        ctx: ExecCtx,
    }

    impl Run {
        fn local(&self, name: &str) -> Value {
            let slot = self
                .bca
                .layout
                .slot(name)
                .unwrap_or_else(|| panic!("no slot for `{name}`"));
            self.ctx.frame[slot]
                .clone()
                .unwrap_or_else(|| panic!("`{name}` never assigned"))
        }
    }

    /// Lowers `src` to bytecode for `self_class` with event parameters
    /// `params`, as the engines do at construction.
    fn lower(
        host: &TestHost,
        self_class: ClassId,
        params: &[(String, DataType)],
        src: &str,
    ) -> Result<BcAction> {
        let block = parse_block(src).unwrap();
        let lowered = lower_block(&host.domain, self_class, params, &block, &BTreeMap::new())?;
        Ok(lowered.expect("test actions fit the operand encoding"))
    }

    /// A fresh context on a register file sized for `bca`.
    fn vm_ctx(self_inst: InstId, bca: &BcAction) -> ExecCtx {
        ExecCtx::with_frame(self_inst, bca.self_class, vec![None; bca.n_regs])
    }

    fn run(host: &mut TestHost, self_inst: InstId, src: &str) -> Result<Run> {
        let self_class = host.class_of(self_inst)?;
        let bca = lower(host, self_class, &[], src)?;
        let mut ctx = vm_ctx(self_inst, &bca);
        run_bc(host, &mut ctx, &bca)?;
        Ok(Run { bca, ctx })
    }

    #[test]
    fn assign_and_attrs() {
        let (mut h, i) = fresh();
        run(&mut h, i, "self.n = self.n + 41; x = self.n + 1;").unwrap();
        assert_eq!(h.attr_read(i, AttrId::new(0)).unwrap(), Value::Int(41));
    }

    #[test]
    fn create_select_delete() {
        let (mut h, i) = fresh();
        let r = run(
            &mut h,
            i,
            "a = create Lamp; b = create Lamp;\n\
             select many all from Lamp;\n\
             n = cardinality(all);\n\
             delete a;\n\
             select many rest from Lamp;\n\
             m = cardinality(rest);",
        )
        .unwrap();
        assert_eq!(r.local("n"), Value::Int(2));
        assert_eq!(r.local("m"), Value::Int(1));
    }

    #[test]
    fn select_with_where() {
        let (mut h, i) = fresh();
        let r = run(
            &mut h,
            i,
            "a = create Lamp; b = create Lamp;\n\
             b.on = true;\n\
             select any lit from Lamp where selected.on;\n\
             select any dark from Lamp where not selected.on;\n\
             lit_found = not_empty(lit);",
        )
        .unwrap();
        assert_eq!(r.local("lit_found"), Value::Bool(true));
        let Value::Inst(_, Some(lit)) = r.local("lit") else {
            panic!("lit should be bound")
        };
        assert_eq!(h.attr_read(lit, AttrId::new(0)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn select_any_empty_binds_empty_ref() {
        let (mut h, i) = fresh();
        let r = run(&mut h, i, "select any l from Lamp; e = empty(l);").unwrap();
        assert_eq!(r.local("e"), Value::Bool(true));
    }

    #[test]
    fn relate_navigate_unrelate() {
        let (mut h, i) = fresh();
        let r = run(
            &mut h,
            i,
            "a = create Lamp; b = create Lamp;\n\
             relate self to a across R1;\n\
             relate self to b across R1;\n\
             lamps = self -> Lamp[R1];\n\
             n = cardinality(lamps);\n\
             unrelate self from a across R1;\n\
             m = cardinality(self -> Lamp[R1]);",
        )
        .unwrap();
        assert_eq!(r.local("n"), Value::Int(2));
        assert_eq!(r.local("m"), Value::Int(1));
    }

    #[test]
    fn navigation_wrong_class_is_error() {
        let (mut h, i) = fresh();
        assert!(run(&mut h, i, "x = self -> Counter[R1];").is_err());
    }

    #[test]
    fn generate_to_instance_and_actor() {
        let (mut h, i) = fresh();
        run(
            &mut h,
            i,
            "gen Set(7) to self;\n\
             gen Tick() to self after 10;\n\
             gen done(0) to ENV;",
        )
        .unwrap();
        assert_eq!(h.fx.sent.len(), 1);
        assert_eq!(h.fx.sent[0].2, EventId::new(1));
        assert_eq!(h.fx.sent[0].3, vec![Value::Int(7)]);
        assert_eq!(h.fx.delayed, vec![(i, EventId::new(0), 10)]);
        assert_eq!(h.fx.actor_sent.len(), 1);
    }

    #[test]
    fn cancel_removes_delayed() {
        let (mut h, i) = fresh();
        run(&mut h, i, "gen Tick() to self after 10; cancel Tick;").unwrap();
        assert!(h.fx.delayed.is_empty());
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let (mut h, i) = fresh();
        assert!(run(&mut h, i, "gen Set() to self;").is_err());
        assert!(run(&mut h, i, "gen done() to ENV;").is_err());
    }

    #[test]
    fn control_flow_loops() {
        let (mut h, i) = fresh();
        let r = run(
            &mut h,
            i,
            "total = 0; k = 0;\n\
             while (k < 5) { k = k + 1; if (k == 3) { continue; } total = total + k; }\n\
             count = 0;\n\
             a = create Lamp; b = create Lamp; c = create Lamp;\n\
             select many all from Lamp;\n\
             foreach l in all { count = count + 1; if (count == 2) { break; } }",
        )
        .unwrap();
        assert_eq!(r.local("total"), Value::Int(1 + 2 + 4 + 5));
        assert_eq!(r.local("count"), Value::Int(2));
    }

    #[test]
    fn return_stops_block() {
        let (mut h, i) = fresh();
        let r = run(&mut h, i, "x = 1; return; x = 2;").unwrap();
        assert_eq!(r.local("x"), Value::Int(1));
    }

    #[test]
    fn runaway_loop_exhausts_fuel() {
        let (mut h, i) = fresh();
        let bca = lower(&h, ClassId::new(0), &[], "while (true) { x = 1; }").unwrap();
        let mut ctx = vm_ctx(i, &bca);
        ctx.fuel = 1000;
        let err = run_bc(&mut h, &mut ctx, &bca).unwrap_err();
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn bridge_call_reaches_host() {
        let (mut h, i) = fresh();
        let r = run(&mut h, i, "ENV::info(\"hi\"); r = ENV::info(\"a\");").unwrap();
        assert_eq!(h.fx.log.len(), 2);
        assert_eq!(r.local("r"), Value::Int(1));
    }

    #[test]
    fn event_params_via_rcvd() {
        let (mut h, i) = fresh();
        let params = [("v".to_owned(), DataType::Int)];
        let bca = lower(&h, ClassId::new(0), &params, "self.n = rcvd.v * 2;").unwrap();
        let mut ctx = vm_ctx(i, &bca);
        ctx.bind_args([Value::Int(21)]);
        run_bc(&mut h, &mut ctx, &bca).unwrap();
        assert_eq!(h.attr_read(i, AttrId::new(0)).unwrap(), Value::Int(42));
    }

    #[test]
    fn unbound_param_read_is_resolution_error() {
        let (mut h, i) = fresh();
        let params = [("v".to_owned(), DataType::Int)];
        let bca = lower(&h, ClassId::new(0), &params, "self.n = rcvd.v * 2;").unwrap();
        // No arguments bound: the parameter slot stays empty.
        let mut ctx = vm_ctx(i, &bca);
        let err = run_bc(&mut h, &mut ctx, &bca).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Unresolved {
                kind: "event parameter",
                ..
            }
        ));
    }

    #[test]
    fn dangling_reference_detected() {
        let (mut h, i) = fresh();
        assert!(run(&mut h, i, "a = create Lamp; delete a; a.on = true;").is_err());
    }

    #[test]
    fn unknown_variable_is_resolution_error() {
        let (mut h, i) = fresh();
        let err = run(&mut h, i, "x = nope + 1;").unwrap_err();
        assert!(matches!(
            err,
            CoreError::Unresolved {
                kind: "variable",
                ..
            }
        ));
    }

    #[test]
    fn use_before_assignment_is_a_runtime_resolution_error() {
        // Flow-insensitive lowering allocates the slot, but reading it
        // before any assignment executed must still fail, as the
        // name-resolving evaluator did.
        let (mut h, i) = fresh();
        let err = run(
            &mut h,
            i,
            "if (false) { x = 1; }\n\
             y = x + 1;",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Unresolved {
                kind: "variable",
                ..
            }
        ));
    }

    #[test]
    fn steps_are_counted() {
        let (mut h, i) = fresh();
        let r = run(&mut h, i, "x = 1;").unwrap();
        // one statement + the literal expression node at minimum.
        assert!(r.ctx.steps >= 2);
    }
}
