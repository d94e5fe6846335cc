//! The shared partition host: one `ActionHost` implementation used by
//! *both* generated partitions.
//!
//! Running a state action produces *effects* — local signals, cross-
//! partition signals, timers, cancellations, observable actor outputs.
//! The host buffers them during the run-to-completion block and the
//! side-specific executor (hardware FSM array or software dispatch loop)
//! routes them afterwards. Because routing happens after the block
//! completes, the paper's run-to-completion and cause-before-effect rules
//! hold on both substrates by construction.

use crate::partition::{Partition, Side};
use crate::{MdaError, Result};
use std::sync::Arc;
use xtuml_core::bc::{self, BcProgram};
use xtuml_core::code::CompiledProgram;
use xtuml_core::error::{CoreError, Result as CoreResult};
use xtuml_core::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId};
use xtuml_core::interp::{ActionHost, ExecCtx};
use xtuml_core::model::{Domain, TransitionTarget};
use xtuml_core::value::Value;
use xtuml_exec::trace::ObservableEvent;
use xtuml_exec::ObjectStore;

/// A locally-routed signal effect.
#[derive(Debug, Clone)]
pub(crate) struct LocalSend {
    pub from: InstId,
    pub to: InstId,
    pub event: EventId,
    pub args: Vec<Value>,
}

/// A signal that must cross the bridge.
#[derive(Debug, Clone)]
pub(crate) struct CrossSend {
    pub to: InstId,
    pub event: EventId,
    pub args: Vec<Value>,
}

/// A delayed signal (timer), deadline in absolute hardware cycles.
#[derive(Debug, Clone)]
pub(crate) struct DelayedSend {
    pub deadline: u64,
    pub from: InstId,
    pub to: InstId,
    pub event: EventId,
    pub args: Vec<Value>,
}

/// Effects accumulated by one dispatched action block.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    pub local: Vec<LocalSend>,
    pub cross: Vec<CrossSend>,
    pub delayed: Vec<DelayedSend>,
    pub cancels: Vec<(InstId, EventId)>,
}

/// A design's executable state actions: compiled once per
/// [`CompiledDesign::instantiate`](crate::CompiledDesign::instantiate) and
/// shared by both partitions.
#[derive(Debug)]
pub(crate) struct ActionCode {
    /// The dense transition table.
    program: CompiledProgram,
    /// The actions, lowered to the same bytecode the abstract interpreter
    /// runs: both substrates execute identical code.
    bc: BcProgram,
}

impl ActionCode {
    pub(crate) fn new(domain: &Domain) -> Arc<ActionCode> {
        let program = CompiledProgram::new(domain);
        let bc = BcProgram::new(domain, &program);
        Arc::new(ActionCode { program, bc })
    }
}

/// The per-partition execution state shared by both lowerings.
pub(crate) struct PCore<'d> {
    pub domain: &'d Domain,
    code: Arc<ActionCode>,
    /// Recycled register file, taken by each dispatch and returned after.
    frame: Vec<Option<Value>>,
    pub side: Side,
    pub partition: Partition,
    pub store: ObjectStore,
    /// Current hardware time (mirrored in by the executor each step).
    pub now: u64,
    /// Hardware cycles per model time unit (timer scaling).
    pub cycles_per_unit: u64,
    /// Observable outputs: `(hw time, sequence, event)`.
    pub observables: Vec<(u64, u64, ObservableEvent)>,
    seq: u64,
    effects: Effects,
}

impl<'d> PCore<'d> {
    pub fn new(
        domain: &'d Domain,
        code: Arc<ActionCode>,
        side: Side,
        partition: Partition,
        cycles_per_unit: u64,
    ) -> PCore<'d> {
        PCore {
            domain,
            code,
            frame: Vec::new(),
            side,
            partition,
            store: ObjectStore::new(domain.associations.len()),
            now: 0,
            cycles_per_unit: cycles_per_unit.max(1),
            observables: Vec::new(),
            seq: 0,
            effects: Effects::default(),
        }
    }

    /// Dispatches one event to a local instance: transition lookup, state
    /// change, action execution. Returns the action's step count (the
    /// substrate cost model input) and leaves effects buffered.
    ///
    /// # Errors
    ///
    /// Propagates action runtime errors; a can't-happen event is an error
    /// (the generated implementations are strict).
    pub fn dispatch(&mut self, to: InstId, event: EventId, args: Vec<Value>) -> Result<u64> {
        let class = self.store.class_of(to)?;
        let c = self.domain.class(class);
        let Some(machine) = c.state_machine.as_ref() else {
            return Err(MdaError::mapping(format!(
                "signal delivered to passive class {}",
                c.name
            )));
        };
        let from_state = self.store.state_of(to)?;
        match self.code.program.target(class, from_state, event) {
            TransitionTarget::To(to_state) => {
                self.store.set_state(to, to_state)?;
                let action = self
                    .code
                    .bc
                    .entry(class, to_state, event)
                    .ok_or_else(|| {
                        CoreError::runtime("internal: dispatched pair has no compiled action")
                    })?
                    .map(Arc::clone)?;
                let mut frame = std::mem::take(&mut self.frame);
                frame.clear();
                frame.resize(action.n_regs, None);
                let mut ctx = ExecCtx::with_frame(to, class, frame);
                ctx.bind_args(args);
                let run = bc::run_bc(self, &mut ctx, &action);
                self.frame = std::mem::take(&mut ctx.frame);
                run?;
                Ok(ctx.steps)
            }
            TransitionTarget::Ignore => Ok(1),
            TransitionTarget::CantHappen => Err(MdaError::Core(CoreError::CantHappen {
                class: c.name.clone(),
                state: machine.state(from_state).name.clone(),
                event: c.events[event.index()].name.clone(),
            })),
        }
    }

    /// Drains the effects buffered by the last dispatch.
    pub fn take_effects(&mut self) -> Effects {
        std::mem::take(&mut self.effects)
    }

    /// Converts a model delay (abstract time units ≙ microseconds) into
    /// hardware cycles, at least one.
    pub fn delay_to_cycles(&self, delay: i64) -> u64 {
        ((delay as u64).saturating_mul(self.cycles_per_unit)).max(1)
    }

    /// Records an observable output at the current time.
    pub fn observe(&mut self, actor: &str, event: &str, args: Vec<Value>) {
        self.seq += 1;
        self.observables.push((
            self.now,
            self.seq,
            ObservableEvent {
                actor: actor.to_owned(),
                event: event.to_owned(),
                args,
            },
        ));
    }
}

impl ActionHost for PCore<'_> {
    fn domain(&self) -> &Domain {
        self.domain
    }

    fn create(&mut self, class: ClassId) -> CoreResult<InstId> {
        if self.partition.side(class) != self.side {
            return Err(CoreError::runtime(format!(
                "mapping rule: cannot create remote-partition class {}",
                self.domain.class(class).name
            )));
        }
        Ok(self.store.create(self.domain, class))
    }

    fn delete(&mut self, inst: InstId) -> CoreResult<()> {
        if self.store.is_proxy(inst) {
            return Err(CoreError::runtime(
                "mapping rule: cannot delete a remote-partition instance",
            ));
        }
        self.store.delete(inst)
    }

    fn class_of(&self, inst: InstId) -> CoreResult<ClassId> {
        self.store.class_of(inst)
    }

    fn attr_read(&self, inst: InstId, attr: AttrId) -> CoreResult<Value> {
        self.store.attr_read(inst, attr)
    }

    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> CoreResult<()> {
        self.store.attr_write(self.domain, inst, attr, value)
    }

    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.store.instances_of(class)
    }

    fn related(&self, inst: InstId, assoc: AssocId) -> CoreResult<Vec<InstId>> {
        self.store.related(inst, assoc)
    }

    fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.store.first_instance_of(class)
    }

    fn related_each(
        &self,
        inst: InstId,
        assoc: AssocId,
        f: &mut dyn FnMut(InstId),
    ) -> CoreResult<()> {
        self.store.related_iter(inst, assoc)?.for_each(f);
        Ok(())
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> CoreResult<()> {
        if self.store.is_proxy(a) || self.store.is_proxy(b) {
            return Err(CoreError::runtime(
                "mapping rule: cannot relate across the partition boundary at run time",
            ));
        }
        self.store.relate(self.domain, a, b, assoc)
    }

    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> CoreResult<()> {
        if self.store.is_proxy(a) || self.store.is_proxy(b) {
            return Err(CoreError::runtime(
                "mapping rule: cannot unrelate across the partition boundary at run time",
            ));
        }
        self.store.unrelate(a, b, assoc)
    }

    fn send(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Vec<Value>,
    ) -> CoreResult<()> {
        let class = self.store.class_of(to)?;
        if self.partition.side(class) == self.side {
            self.effects.local.push(LocalSend {
                from,
                to,
                event,
                args,
            });
        } else {
            self.effects.cross.push(CrossSend { to, event, args });
        }
        Ok(())
    }

    fn send_actor(
        &mut self,
        _from: InstId,
        actor: ActorId,
        event: EventId,
        args: Vec<Value>,
    ) -> CoreResult<()> {
        let a = self.domain.actor(actor);
        let name = a.name.clone();
        let ev = a.events[event.index()].name.clone();
        self.observe(&name, &ev, args);
        Ok(())
    }

    fn send_delayed(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Vec<Value>,
        delay: i64,
    ) -> CoreResult<()> {
        self.store.class_of(to)?;
        let deadline = self.now + self.delay_to_cycles(delay);
        self.effects.delayed.push(DelayedSend {
            deadline,
            from,
            to,
            event,
            args,
        });
        Ok(())
    }

    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> CoreResult<()> {
        // Remove same-dispatch delayed sends, and record the cancel for
        // timers already armed by the executor.
        self.effects
            .delayed
            .retain(|d| !(d.to == inst && d.event == event));
        self.effects.cancels.push((inst, event));
        Ok(())
    }

    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> CoreResult<Value> {
        let a = self.domain.actor(actor);
        let decl = a
            .func(func)
            .ok_or_else(|| CoreError::unresolved("bridge function", func))?;
        let ret = decl.ret;
        let name = a.name.clone();
        self.observe(&name, func, args);
        Ok(match ret {
            Some(t) => Value::default_for(t),
            None => Value::Bool(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ModelCompiler;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::marks::MarkSet;

    #[test]
    fn an_action_the_bytecode_cannot_encode_fails_its_dispatch_with_x0016() {
        // One local more than the 16-bit register operands can address.
        let body: String = (0..=u16::MAX as usize)
            .map(|i| format!("v{i} = 0;\n"))
            .collect();
        let mut b = DomainBuilder::new("wide");
        b.class("C")
            .event("Go", &[])
            .state("S", &body)
            .initial("S")
            .transition("S", "Go", "S");
        let domain = b.build().unwrap();
        for hardware in [false, true] {
            let mut marks = MarkSet::new();
            if hardware {
                marks.mark_hardware("C");
            }
            let design = ModelCompiler::new().compile(&domain, &marks).unwrap();
            let mut sys = design.instantiate();
            let c = sys.create("C").unwrap();
            sys.inject(0, c, "Go", vec![]).unwrap();
            let err = sys.run_to_quiescence().unwrap_err().to_string();
            assert!(err.contains("X0016 bc-unsupported"), "{err}");
            assert!(err.contains("C.S on Go"), "{err}");
        }
    }
}
