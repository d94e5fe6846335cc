//! The generated-case specification: a structured, shrinkable description
//! of one fuzz case — classes, associations, state machines, actions,
//! marks and stimuli — from which the concrete artifacts (a [`Domain`],
//! a [`MarkSet`], a [`TestCase`]) are lowered.
//!
//! The spec is the unit the shrinker edits: it stays well-formed by
//! construction (total transition tables, scalar-only signatures, one
//! instance per class), so every reduction step lowers to a model the
//! whole toolchain accepts.

use xtuml_core::action::Block;
use xtuml_core::builder::DomainBuilder;
use xtuml_core::marks::{ElemRef, MarkSet, MarkValue};
use xtuml_core::testcase::TestCase;
use xtuml_core::value::{DataType, Value};
use xtuml_core::{Domain, Multiplicity, Result};

/// The scalar types generated models use. Strings are excluded because
/// they cannot marshal across a hardware/software boundary; reals are
/// excluded to keep cross-substrate arithmetic bit-trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarTy {
    /// 64-bit signed integer (marshals as two bus words).
    Int,
    /// Boolean (marshals as one bus word).
    Bool,
}

impl ScalarTy {
    /// The corresponding metamodel data type.
    pub fn data_type(self) -> DataType {
        match self {
            ScalarTy::Int => DataType::Int,
            ScalarTy::Bool => DataType::Bool,
        }
    }
}

/// Effect of an event arriving in a state. Tables are **total**: every
/// `(state, event)` pair is either a transition or an explicit ignore, so
/// `CantHappen` is unreachable in a generated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransSpec {
    /// Transition to the state with the given index.
    To(usize),
    /// Consume the event silently.
    Ignore,
}

/// One generated class, its lifecycle and its observer actor.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class name (`C<i>`); stable under shrinking.
    pub name: String,
    /// Observer-actor name (`O<i>`); every observable signal this class
    /// emits goes to its own actor, which keeps per-actor traces
    /// single-sourced and therefore schedule-independent.
    pub actor: String,
    /// Attributes `(name, type)`.
    pub attrs: Vec<(String, ScalarTy)>,
    /// The single parameter signature shared by **all** class events.
    /// Sharing one signature makes `rcvd.<p>` reads well-typed under
    /// every inbound event of every state.
    pub params: Vec<(String, ScalarTy)>,
    /// Event names; all share `params`.
    pub events: Vec<String>,
    /// Observable events on the observer actor `(name, arg types)`.
    pub obs: Vec<(String, Vec<ScalarTy>)>,
    /// States `(name, entry action)`; index 0 is the initial state.
    pub states: Vec<(String, Block)>,
    /// Total transition table, indexed `[state][event]`.
    pub transitions: Vec<Vec<TransSpec>>,
    /// Marked for the hardware partition.
    pub hardware: bool,
}

/// One association edge of the send forest (parent sends to child).
#[derive(Debug, Clone, PartialEq)]
pub struct AssocSpec {
    /// Association name (`R<k>`); stable under shrinking.
    pub name: String,
    /// Parent class index.
    pub parent: usize,
    /// Child class index.
    pub child: usize,
    /// Multiplicity at the parent end.
    pub parent_mult: Multiplicity,
    /// Multiplicity at the child end.
    pub child_mult: Multiplicity,
}

/// One external stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct StimSpec {
    /// Delivery time.
    pub time: u64,
    /// Target class index (always a root of the send forest).
    pub class: usize,
    /// Event name.
    pub event: String,
    /// Literal arguments matching the class's shared signature.
    pub args: Vec<Value>,
}

/// A complete generated fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSpec {
    /// The seed that produced this case (kept through shrinking so a
    /// minimized case still names its origin).
    pub seed: u64,
    /// Classes; the send graph only ever points from lower to higher
    /// indices, and each class has at most one sender — together with
    /// one instance per class this makes every legal schedule produce
    /// the same per-actor traces.
    pub classes: Vec<ClassSpec>,
    /// Send-forest edges.
    pub assocs: Vec<AssocSpec>,
    /// External stimuli (roots only).
    pub stimuli: Vec<StimSpec>,
}

impl FuzzSpec {
    /// Lowers the spec to a validated [`Domain`].
    ///
    /// # Errors
    ///
    /// Returns the validation error when a (shrunk) spec no longer
    /// type-checks; the shrinker treats that as a rejected reduction.
    pub fn lower(&self) -> Result<Domain> {
        let mut b = DomainBuilder::new(&format!("fz{}", self.seed));
        for c in &self.classes {
            let cb = b.class(&c.name);
            for (name, ty) in &c.attrs {
                cb.attr(name, ty.data_type());
            }
            let params: Vec<(&str, DataType)> = c
                .params
                .iter()
                .map(|(n, t)| (n.as_str(), t.data_type()))
                .collect();
            for ev in &c.events {
                cb.event(ev, &params);
            }
            for (name, action) in &c.states {
                cb.state_block(name, action.clone());
            }
            cb.initial(&c.states[0].0);
            for (si, row) in c.transitions.iter().enumerate() {
                for (ei, t) in row.iter().enumerate() {
                    match t {
                        TransSpec::To(ts) => {
                            cb.transition(&c.states[si].0, &c.events[ei], &c.states[*ts].0);
                        }
                        TransSpec::Ignore => {
                            cb.ignore(&c.states[si].0, &c.events[ei]);
                        }
                    }
                }
            }
        }
        for c in &self.classes {
            if !c.obs.is_empty() {
                let ab = b.actor(&c.actor);
                for (name, tys) in &c.obs {
                    let names: Vec<String> = (0..tys.len()).map(|i| format!("x{i}")).collect();
                    let params: Vec<(&str, DataType)> = names
                        .iter()
                        .zip(tys)
                        .map(|(n, t)| (n.as_str(), t.data_type()))
                        .collect();
                    ab.event(name, &params);
                }
            }
        }
        for a in &self.assocs {
            b.association(
                &a.name,
                &self.classes[a.parent].name,
                a.parent_mult,
                &self.classes[a.child].name,
                a.child_mult,
            );
        }
        b.build()
    }

    /// The mark set for this case: per-class hardware placement plus
    /// generous queue depths so bursty generated traffic never overflows
    /// a substrate FIFO (overflow would be a capacity artifact, not a
    /// semantics divergence).
    pub fn marks(&self) -> MarkSet {
        let mut m = MarkSet::new();
        m.set(ElemRef::domain(), "fifoDepth", MarkValue::Int(256));
        for c in &self.classes {
            if c.hardware {
                m.mark_hardware(&c.name);
                m.set(ElemRef::class(&c.name), "queueDepth", MarkValue::Int(256));
            }
        }
        m
    }

    /// The test case: one instance per class (ordinal = class index), one
    /// link per association edge, and the generated stimuli.
    pub fn testcase(&self) -> TestCase {
        let mut tc = TestCase::new(&format!("fuzz-{}", self.seed));
        for c in &self.classes {
            tc.create(&c.name);
        }
        for a in &self.assocs {
            tc.relate(a.parent, a.child, &a.name);
        }
        for s in &self.stimuli {
            tc.inject(s.time, s.class, &s.event, s.args.clone());
        }
        tc
    }

    /// Total number of action statements (nested included) — the shrink
    /// progress metric alongside class and stimulus counts.
    pub fn stmt_count(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| c.states.iter())
            .map(|(_, b)| b.weight())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzSpec {
        FuzzSpec {
            seed: 7,
            classes: vec![ClassSpec {
                name: "C0".into(),
                actor: "O0".into(),
                attrs: vec![("a0".into(), ScalarTy::Int)],
                params: vec![("p0".into(), ScalarTy::Int)],
                events: vec!["Ev0".into()],
                obs: vec![("o0".into(), vec![ScalarTy::Int])],
                states: vec![("S0".into(), Block::new())],
                transitions: vec![vec![TransSpec::To(0)]],
                hardware: true,
            }],
            assocs: vec![],
            stimuli: vec![StimSpec {
                time: 0,
                class: 0,
                event: "Ev0".into(),
                args: vec![Value::Int(3)],
            }],
        }
    }

    #[test]
    fn lowers_and_marks() {
        let spec = tiny();
        let d = spec.lower().unwrap();
        assert_eq!(d.classes.len(), 1);
        assert_eq!(d.actors.len(), 1);
        let m = spec.marks();
        assert!(m.is_hardware("C0"));
        let tc = spec.testcase();
        assert_eq!(tc.creates, vec!["C0".to_owned()]);
        assert_eq!(tc.stimuli.len(), 1);
    }
}
