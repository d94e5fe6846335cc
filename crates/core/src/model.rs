//! The Executable UML metamodel.
//!
//! A [`Domain`] is a self-contained subject matter: classes, associations
//! between them, and the external [`Actor`]s (terminators) on the domain
//! boundary. Classes carry [`StateMachine`]s whose states hold entry
//! [`Block`]s of actions; state machines communicate only by signals
//! ([`EventDecl`]). This is the paper's §2 — the complete modeling language,
//! with *nothing* presuming a hardware or software implementation.

use crate::action::Block;
use crate::error::{CoreError, Result};
use crate::ids::{ActorId, AssocId, AttrId, ClassId, EventId, StateId};
use crate::value::{DataType, Value};
use std::collections::BTreeMap;

/// An attribute of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name, unique within the class.
    pub name: String,
    /// Static type.
    pub ty: DataType,
    /// Initial value for newly created instances.
    pub default: Value,
}

/// A signal (event) declaration, carried by a class or an actor.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDecl {
    /// Event name, unique within its owner.
    pub name: String,
    /// Typed, positional parameters.
    pub params: Vec<(String, DataType)>,
}

/// A bridge-function declaration on an actor (a synchronous service the
/// domain may call, e.g. `LOG::info`).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name, unique within the actor.
    pub name: String,
    /// Typed, positional parameters.
    pub params: Vec<(String, DataType)>,
    /// Return type; `None` for procedures.
    pub ret: Option<DataType>,
}

/// A state of a state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// State name, unique within the machine.
    pub name: String,
    /// Entry action block, executed to completion on entry.
    pub action: Block,
}

/// What happens when an event arrives in a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionTarget {
    /// Transition to the given state and execute its entry actions.
    To(StateId),
    /// Consume the event silently (explicitly declared "ignore").
    Ignore,
    /// Specification error: this event must never arrive here. This is the
    /// implicit default for undeclared (state, event) pairs.
    CantHappen,
}

/// One row of the state-transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Triggering event.
    pub event: EventId,
    /// Effect.
    pub target: TransitionTarget,
}

/// A Moore-style state machine: actions live on states, transitions are
/// `(state, event) -> state` rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateMachine {
    /// States in declaration order.
    pub states: Vec<State>,
    /// The initial state entered at instance creation. The initial state's
    /// entry action is **not** executed at creation (xtUML creation
    /// semantics: creation places the instance in the state silently).
    pub initial: StateId,
    /// Transition rows.
    pub transitions: Vec<Transition>,
    /// Dense dispatch table filled in by [`StateMachine::index`].
    pub(crate) table: BTreeMap<(StateId, EventId), TransitionTarget>,
}

impl StateMachine {
    /// (Re)builds the dispatch table from `transitions`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] if two rows share a
    /// `(state, event)` pair.
    pub fn index(&mut self) -> Result<()> {
        self.table.clear();
        for t in &self.transitions {
            if self.table.insert((t.from, t.event), t.target).is_some() {
                return Err(CoreError::Duplicate {
                    kind: "transition",
                    name: format!("({}, {})", t.from, t.event),
                });
            }
        }
        Ok(())
    }

    /// Looks up the effect of `event` arriving in `state`; undeclared pairs
    /// are [`TransitionTarget::CantHappen`].
    pub fn dispatch(&self, state: StateId, event: EventId) -> TransitionTarget {
        self.table
            .get(&(state, event))
            .copied()
            .unwrap_or(TransitionTarget::CantHappen)
    }

    /// Finds a state id by name.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| StateId::new(i as u32))
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only minted by builders).
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }
}

/// A class: attributes, signal declarations, and an optional state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// Class name, unique within the domain.
    pub name: String,
    /// Attributes in declaration order.
    pub attributes: Vec<Attribute>,
    /// Signals this class's instances can receive.
    pub events: Vec<EventDecl>,
    /// The lifecycle; `None` for passive (data-only) classes.
    pub state_machine: Option<StateMachine>,
}

impl Class {
    /// Finds an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId::new(i as u32))
    }

    /// Finds an event id by name.
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|e| e.name == name)
            .map(|i| EventId::new(i as u32))
    }

    /// The event declaration with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn event(&self, id: EventId) -> &EventDecl {
        &self.events[id.index()]
    }

    /// The attribute declaration with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.index()]
    }
}

/// Multiplicity of one end of an association.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Multiplicity {
    /// Exactly one (unconditional).
    One,
    /// Zero or one (conditional).
    ZeroOne,
    /// Zero or more.
    Many,
}

impl Multiplicity {
    /// True if more than one link is allowed at this end.
    pub fn is_many(self) -> bool {
        matches!(self, Multiplicity::Many)
    }
}

/// A binary association between two classes, named `R<k>` in
/// Shlaer-Mellor style.
#[derive(Debug, Clone, PartialEq)]
pub struct Association {
    /// Association name, e.g. `R1`, unique within the domain.
    pub name: String,
    /// One participating class (the "from" side, declaration order only —
    /// associations are navigable in both directions).
    pub from: ClassId,
    /// The other participating class.
    pub to: ClassId,
    /// Multiplicity at the `from` end (how many `from`-instances one
    /// `to`-instance may be linked to).
    pub from_mult: Multiplicity,
    /// Multiplicity at the `to` end.
    pub to_mult: Multiplicity,
}

/// An external entity on the domain boundary (a *terminator*): something
/// the domain talks to but does not model — the environment, a legacy
/// component, the user.
///
/// Signals generated **to** an actor are the domain's observable outputs;
/// bridge functions are synchronous services the actor provides.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// Actor name, unique within the domain (conventionally upper-case).
    pub name: String,
    /// Signals the domain may send to this actor.
    pub events: Vec<EventDecl>,
    /// Synchronous functions the domain may call on this actor.
    pub funcs: Vec<FuncDecl>,
}

impl Actor {
    /// Finds an event id by name.
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|e| e.name == name)
            .map(|i| EventId::new(i as u32))
    }

    /// Finds a function declaration by name.
    pub fn func(&self, name: &str) -> Option<&FuncDecl> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

/// A complete Executable UML domain model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Domain {
    /// Domain name.
    pub name: String,
    /// Classes; index = [`ClassId`].
    pub classes: Vec<Class>,
    /// Associations; index = [`AssocId`].
    pub associations: Vec<Association>,
    /// External actors; index = [`ActorId`].
    pub actors: Vec<Actor>,
    class_names: BTreeMap<String, ClassId>,
    assoc_names: BTreeMap<String, AssocId>,
    actor_names: BTreeMap<String, ActorId>,
}

impl Domain {
    /// Creates an empty domain with the given name.
    pub fn new(name: impl Into<String>) -> Domain {
        Domain {
            name: name.into(),
            ..Domain::default()
        }
    }

    /// Rebuilds the name-lookup indices; called by builders after mutation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] on duplicate class, association or
    /// actor names.
    pub fn reindex(&mut self) -> Result<()> {
        self.class_names = name_index("class", self.classes.iter().map(|c| &c.name), ClassId::new)?;
        self.index_associations()?;
        self.actor_names = name_index("actor", self.actors.iter().map(|a| &a.name), ActorId::new)?;
        Ok(())
    }

    /// Rebuilds the association index alone, for a builder that indexed
    /// classes and actors before it resolved association endpoints.
    pub(crate) fn index_associations(&mut self) -> Result<()> {
        let names = self.associations.iter().map(|a| &a.name);
        self.assoc_names = name_index("association", names, AssocId::new)?;
        Ok(())
    }

    /// Looks up a class id by name.
    pub fn class_id(&self, name: &str) -> Result<ClassId> {
        self.class_names
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::unresolved("class", name))
    }

    /// Looks up an association id by name.
    pub fn assoc_id(&self, name: &str) -> Result<AssocId> {
        self.assoc_names
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::unresolved("association", name))
    }

    /// Looks up an actor id by name.
    pub fn actor_id(&self, name: &str) -> Result<ActorId> {
        self.actor_names
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::unresolved("actor", name))
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The association with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn association(&self, id: AssocId) -> &Association {
        &self.associations[id.index()]
    }

    /// The actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.index()]
    }

    /// Given an association and the class of a navigation *source*, returns
    /// the class at the far end.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Validate`] if `from` participates at neither
    /// end of the association.
    pub fn nav_target(&self, assoc: AssocId, from: ClassId) -> Result<ClassId> {
        let a = self.association(assoc);
        if a.from == from {
            Ok(a.to)
        } else if a.to == from {
            Ok(a.from)
        } else {
            Err(CoreError::validate(format!(
                "class {} does not participate in association {}",
                self.class(from).name,
                a.name
            )))
        }
    }

    /// Total number of action statements across all state machines — a
    /// coarse model-size metric used in experiment reports.
    pub fn action_weight(&self) -> usize {
        self.classes
            .iter()
            .filter_map(|c| c.state_machine.as_ref())
            .flat_map(|m| m.states.iter())
            .map(|s| s.action.weight())
            .sum()
    }
}

/// Maps each name to its position, rejecting the first repeated name.
fn name_index<'a, Id>(
    kind: &'static str,
    names: impl Iterator<Item = &'a String>,
    id: fn(u32) -> Id,
) -> Result<BTreeMap<String, Id>> {
    let mut index = BTreeMap::new();
    for (i, name) in names.enumerate() {
        if index.insert(name.clone(), id(i as u32)).is_some() {
            let name = name.clone();
            return Err(CoreError::Duplicate { kind, name });
        }
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_domain() -> Domain {
        let mut d = Domain::new("test");
        d.classes.push(Class {
            name: "A".into(),
            attributes: vec![Attribute {
                name: "x".into(),
                ty: DataType::Int,
                default: Value::Int(0),
            }],
            events: vec![EventDecl {
                name: "Go".into(),
                params: vec![],
            }],
            state_machine: None,
        });
        d.classes.push(Class {
            name: "B".into(),
            attributes: vec![],
            events: vec![],
            state_machine: None,
        });
        d.associations.push(Association {
            name: "R1".into(),
            from: ClassId::new(0),
            to: ClassId::new(1),
            from_mult: Multiplicity::One,
            to_mult: Multiplicity::Many,
        });
        d.reindex().unwrap();
        d
    }

    #[test]
    fn name_lookups() {
        let d = two_class_domain();
        assert_eq!(d.class_id("A").unwrap(), ClassId::new(0));
        assert_eq!(d.class_id("B").unwrap(), ClassId::new(1));
        assert!(d.class_id("C").is_err());
        assert_eq!(d.assoc_id("R1").unwrap(), AssocId::new(0));
        let a = d.class(ClassId::new(0));
        assert_eq!(a.attr_id("x").unwrap(), AttrId::new(0));
        assert_eq!(a.event_id("Go").unwrap(), EventId::new(0));
        assert!(a.event_id("Stop").is_none());
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut d = two_class_domain();
        d.classes.push(Class {
            name: "A".into(),
            attributes: vec![],
            events: vec![],
            state_machine: None,
        });
        assert!(matches!(
            d.reindex(),
            Err(CoreError::Duplicate { kind: "class", .. })
        ));
    }

    #[test]
    fn navigation_targets() {
        let d = two_class_domain();
        let r1 = d.assoc_id("R1").unwrap();
        assert_eq!(d.nav_target(r1, ClassId::new(0)).unwrap(), ClassId::new(1));
        assert_eq!(d.nav_target(r1, ClassId::new(1)).unwrap(), ClassId::new(0));
    }

    #[test]
    fn dispatch_table() {
        let mut m = StateMachine {
            states: vec![
                State {
                    name: "S0".into(),
                    action: Block::new(),
                },
                State {
                    name: "S1".into(),
                    action: Block::new(),
                },
            ],
            initial: StateId::new(0),
            transitions: vec![
                Transition {
                    from: StateId::new(0),
                    event: EventId::new(0),
                    target: TransitionTarget::To(StateId::new(1)),
                },
                Transition {
                    from: StateId::new(1),
                    event: EventId::new(0),
                    target: TransitionTarget::Ignore,
                },
            ],
            table: BTreeMap::new(),
        };
        m.index().unwrap();
        assert_eq!(
            m.dispatch(StateId::new(0), EventId::new(0)),
            TransitionTarget::To(StateId::new(1))
        );
        assert_eq!(
            m.dispatch(StateId::new(1), EventId::new(0)),
            TransitionTarget::Ignore
        );
        assert_eq!(
            m.dispatch(StateId::new(1), EventId::new(9)),
            TransitionTarget::CantHappen
        );
        assert_eq!(m.state_id("S1"), Some(StateId::new(1)));
    }

    #[test]
    fn duplicate_transition_rejected() {
        let mut m = StateMachine {
            states: vec![State {
                name: "S0".into(),
                action: Block::new(),
            }],
            initial: StateId::new(0),
            transitions: vec![
                Transition {
                    from: StateId::new(0),
                    event: EventId::new(0),
                    target: TransitionTarget::Ignore,
                },
                Transition {
                    from: StateId::new(0),
                    event: EventId::new(0),
                    target: TransitionTarget::CantHappen,
                },
            ],
            table: BTreeMap::new(),
        };
        assert!(m.index().is_err());
    }

    #[test]
    fn multiplicity_helpers() {
        assert!(Multiplicity::Many.is_many());
        assert!(!Multiplicity::One.is_many());
        assert!(!Multiplicity::ZeroOne.is_many());
    }
}
