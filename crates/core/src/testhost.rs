//! The in-memory [`ActionHost`] the core unit tests run actions against,
//! with observable effects comparable across two executions.

use crate::builder::DomainBuilder;
use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, InstId};
use crate::interp::ActionHost;
use crate::model::{Domain, Multiplicity};
use crate::value::{DataType, Value};
use std::sync::Arc;

/// Everything an action can observably do to a [`TestHost`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Effects {
    /// `(class, attributes, alive)` per instance id.
    pub(crate) instances: Vec<(ClassId, Vec<Value>, bool)>,
    pub(crate) links: Vec<(AssocId, InstId, InstId)>,
    pub(crate) sent: Vec<(InstId, InstId, EventId, Vec<Value>)>,
    pub(crate) actor_sent: Vec<(ActorId, EventId, Vec<Value>)>,
    pub(crate) delayed: Vec<(InstId, EventId, i64)>,
    /// One line per bridge call.
    pub(crate) log: Vec<String>,
}

pub(crate) struct TestHost {
    pub(crate) domain: Domain,
    pub(crate) fx: Effects,
}

impl TestHost {
    pub(crate) fn new(domain: Domain) -> TestHost {
        TestHost {
            domain,
            fx: Effects::default(),
        }
    }

    fn check_live(&self, inst: InstId) -> Result<()> {
        match self.fx.instances.get(inst.index()) {
            Some((_, _, true)) => Ok(()),
            _ => Err(CoreError::runtime(format!("dangling instance {inst}"))),
        }
    }
}

impl ActionHost for TestHost {
    fn domain(&self) -> &Domain {
        &self.domain
    }
    fn create(&mut self, class: ClassId) -> Result<InstId> {
        let attrs = self
            .domain
            .class(class)
            .attributes
            .iter()
            .map(|a| a.default.clone())
            .collect();
        self.fx.instances.push((class, attrs, true));
        Ok(InstId::new(self.fx.instances.len() as u32 - 1))
    }
    fn delete(&mut self, inst: InstId) -> Result<()> {
        self.check_live(inst)?;
        self.fx.instances[inst.index()].2 = false;
        Ok(())
    }
    fn class_of(&self, inst: InstId) -> Result<ClassId> {
        self.check_live(inst)?;
        Ok(self.fx.instances[inst.index()].0)
    }
    fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        self.check_live(inst)?;
        Ok(self.fx.instances[inst.index()].1[attr.index()].clone())
    }
    fn attr_write(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        self.check_live(inst)?;
        self.fx.instances[inst.index()].1[attr.index()] = value;
        Ok(())
    }
    fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.fx
            .instances
            .iter()
            .enumerate()
            .filter(|(_, (c, _, alive))| *alive && *c == class)
            .map(|(i, _)| InstId::new(i as u32))
            .collect()
    }
    fn related_each(&self, inst: InstId, assoc: AssocId, f: &mut dyn FnMut(InstId)) -> Result<()> {
        self.check_live(inst)?;
        self.fx
            .links
            .iter()
            .filter(|(a, x, y)| *a == assoc && (*x == inst || *y == inst))
            .for_each(|(_, x, y)| f(if *x == inst { *y } else { *x }));
        Ok(())
    }
    fn relate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        self.fx.links.push((assoc, a, b));
        Ok(())
    }
    fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        let before = self.fx.links.len();
        self.fx
            .links
            .retain(|(x, p, q)| !(*x == assoc && ((*p == a && *q == b) || (*p == b && *q == a))));
        if self.fx.links.len() == before {
            return Err(CoreError::runtime("no such link"));
        }
        Ok(())
    }
    fn send_arc(
        &mut self,
        from: InstId,
        to: InstId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        self.check_live(to)?;
        self.fx.sent.push((from, to, event, args.to_vec()));
        Ok(())
    }
    fn send_actor_arc(
        &mut self,
        _from: InstId,
        actor: ActorId,
        event: EventId,
        args: Arc<[Value]>,
    ) -> Result<()> {
        self.fx.actor_sent.push((actor, event, args.to_vec()));
        Ok(())
    }
    fn send_delayed(
        &mut self,
        _from: InstId,
        to: InstId,
        event: EventId,
        _args: Vec<Value>,
        delay: i64,
    ) -> Result<()> {
        self.fx.delayed.push((to, event, delay));
        Ok(())
    }
    fn cancel_delayed(&mut self, inst: InstId, event: EventId) -> Result<()> {
        self.fx
            .delayed
            .retain(|(i, e, _)| !(*i == inst && *e == event));
        Ok(())
    }
    fn bridge_call(&mut self, actor: ActorId, func: &str, args: Vec<Value>) -> Result<Value> {
        let name = &self.domain.actor(actor).name;
        self.fx.log.push(format!("{name}::{func}({args:?})"));
        Ok(Value::Int(args.len() as i64))
    }
}

/// `Counter { n: int }` (events `Tick`, `Set(v)`), `Lamp { on: bool }`
/// (events `Ping`, `Pulse(v)`), `R1: Counter 1 — * Lamp`, and an actor
/// `ENV` with event `done(code)` and bridge `info(msg)`. No state
/// machines: tests compile blocks against the classes directly.
pub(crate) fn test_domain() -> Domain {
    let mut b = DomainBuilder::new("t");
    b.class("Counter")
        .attr("n", DataType::Int)
        .event("Tick", &[])
        .event("Set", &[("v", DataType::Int)]);
    b.class("Lamp")
        .attr("on", DataType::Bool)
        .event("Ping", &[])
        .event("Pulse", &[("v", DataType::Int)]);
    b.association(
        "R1",
        "Counter",
        Multiplicity::One,
        "Lamp",
        Multiplicity::Many,
    );
    b.actor("ENV")
        .event("done", &[("code", DataType::Int)])
        .func("info", &[("msg", DataType::Str)], None);
    b.build().unwrap()
}

/// Fresh host with one live Counter instance (`self`).
pub(crate) fn fresh() -> (TestHost, InstId) {
    let mut h = TestHost::new(test_domain());
    let i = h.create(ClassId::new(0)).unwrap();
    (h, i)
}
