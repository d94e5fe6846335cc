//! Fluent, programmatic construction of domains.
//!
//! The builder accepts action bodies as source text (parsed with
//! [`crate::parse`]) or as pre-built [`Block`]s, resolves all names, and
//! validates the result (structure + types) before handing out a
//! [`Domain`]. A model that leaves [`DomainBuilder::build`] successfully is
//! executable.

use crate::action::Block;
use crate::error::{CoreError, Result};
use crate::ids::{EventId, StateId};
use crate::lex::{lex, Tok};
use crate::model::{
    Actor, Association, Attribute, Class, Domain, EventDecl, FuncDecl, Multiplicity, State,
    StateMachine, Transition, TransitionTarget,
};
use crate::parse;
use crate::validate;
use crate::value::{DataType, Value};
use std::collections::BTreeSet;

/// Action body supplied either as source text or as an AST.
#[derive(Debug, Clone)]
enum Body {
    Src(String),
    Ast(Block),
}

#[derive(Debug, Clone)]
struct StateDecl {
    name: String,
    body: Body,
}

#[derive(Debug, Clone)]
enum TargetDecl {
    To(String),
    Ignore,
}

#[derive(Debug, Clone)]
struct TransDecl {
    from: String,
    event: String,
    target: TargetDecl,
}

/// Builder for one class; obtained from [`DomainBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder {
    name: String,
    attrs: Vec<Attribute>,
    events: Vec<EventDecl>,
    states: Vec<StateDecl>,
    initial: Option<String>,
    transitions: Vec<TransDecl>,
}

impl ClassBuilder {
    fn new(name: &str) -> ClassBuilder {
        ClassBuilder {
            name: name.to_owned(),
            attrs: Vec::new(),
            events: Vec::new(),
            states: Vec::new(),
            initial: None,
            transitions: Vec::new(),
        }
    }

    /// Declares an attribute with the type's zero default.
    pub fn attr(&mut self, name: &str, ty: DataType) -> &mut Self {
        self.attr_default(name, ty, Value::default_for(ty))
    }

    /// Declares an attribute with an explicit default value.
    pub fn attr_default(&mut self, name: &str, ty: DataType, default: Value) -> &mut Self {
        self.attrs.push(Attribute {
            name: name.to_owned(),
            ty,
            default,
        });
        self
    }

    /// Declares a signal this class's instances can receive.
    pub fn event(&mut self, name: &str, params: &[(&str, DataType)]) -> &mut Self {
        self.events.push(EventDecl {
            name: name.to_owned(),
            params: params.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        });
        self
    }

    /// Declares a state whose entry action is given as source text.
    pub fn state(&mut self, name: &str, action_src: &str) -> &mut Self {
        self.states.push(StateDecl {
            name: name.to_owned(),
            body: Body::Src(action_src.to_owned()),
        });
        self
    }

    /// Declares a state whose entry action is a pre-built block.
    pub fn state_block(&mut self, name: &str, action: Block) -> &mut Self {
        self.states.push(StateDecl {
            name: name.to_owned(),
            body: Body::Ast(action),
        });
        self
    }

    /// Selects the initial state (required once any state is declared).
    pub fn initial(&mut self, name: &str) -> &mut Self {
        self.initial = Some(name.to_owned());
        self
    }

    /// Declares a transition row `from --event--> to`.
    pub fn transition(&mut self, from: &str, event: &str, to: &str) -> &mut Self {
        self.transitions.push(TransDecl {
            from: from.to_owned(),
            event: event.to_owned(),
            target: TargetDecl::To(to.to_owned()),
        });
        self
    }

    /// Declares that `event` is silently consumed in `state`.
    pub fn ignore(&mut self, state: &str, event: &str) -> &mut Self {
        self.transitions.push(TransDecl {
            from: state.to_owned(),
            event: event.to_owned(),
            target: TargetDecl::Ignore,
        });
        self
    }
}

/// Builder for one actor; obtained from [`DomainBuilder::actor`].
#[derive(Debug)]
pub struct ActorBuilder {
    name: String,
    events: Vec<EventDecl>,
    funcs: Vec<FuncDecl>,
}

impl ActorBuilder {
    fn new(name: &str) -> ActorBuilder {
        ActorBuilder {
            name: name.to_owned(),
            events: Vec::new(),
            funcs: Vec::new(),
        }
    }

    /// Declares a signal the domain may send to this actor.
    pub fn event(&mut self, name: &str, params: &[(&str, DataType)]) -> &mut Self {
        self.events.push(EventDecl {
            name: name.to_owned(),
            params: params.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        });
        self
    }

    /// Declares a synchronous bridge function with a return value.
    pub fn func(
        &mut self,
        name: &str,
        params: &[(&str, DataType)],
        ret: Option<DataType>,
    ) -> &mut Self {
        self.funcs.push(FuncDecl {
            name: name.to_owned(),
            params: params.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
            ret,
        });
        self
    }
}

/// Builds a [`Domain`] incrementally; see the crate-level example.
#[derive(Debug)]
pub struct DomainBuilder {
    name: String,
    classes: Vec<ClassBuilder>,
    assocs: Vec<(String, String, Multiplicity, String, Multiplicity)>,
    actors: Vec<ActorBuilder>,
}

impl DomainBuilder {
    /// Starts a new domain.
    pub fn new(name: &str) -> DomainBuilder {
        DomainBuilder {
            name: name.to_owned(),
            classes: Vec::new(),
            assocs: Vec::new(),
            actors: Vec::new(),
        }
    }

    /// Adds a class and returns its builder.
    pub fn class(&mut self, name: &str) -> &mut ClassBuilder {
        self.classes.push(ClassBuilder::new(name));
        self.classes.last_mut().expect("just pushed")
    }

    /// Adds an actor and returns its builder.
    pub fn actor(&mut self, name: &str) -> &mut ActorBuilder {
        self.actors.push(ActorBuilder::new(name));
        self.actors.last_mut().expect("just pushed")
    }

    /// Declares an association `name: from (fm) -- (tm) to`.
    pub fn association(
        &mut self,
        name: &str,
        from: &str,
        from_mult: Multiplicity,
        to: &str,
        to_mult: Multiplicity,
    ) -> &mut Self {
        self.assocs.push((
            name.to_owned(),
            from.to_owned(),
            from_mult,
            to.to_owned(),
            to_mult,
        ));
        self
    }

    /// Resolves names, indexes transition tables, validates structure and
    /// type-checks every action block.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError`] found: parse errors in action text,
    /// unresolved names, duplicate declarations, structural validation
    /// failures or type errors.
    pub fn build(self) -> Result<Domain> {
        let domain = self.build_unvalidated()?;
        validate::validate(&domain)?;
        Ok(domain)
    }

    /// Like [`DomainBuilder::build`], but stops after name resolution and
    /// transition-table indexing, **without** running
    /// [`validate::validate`]. Lint drivers use this so that structural
    /// and type findings can be *accumulated* over the whole model
    /// (via [`validate::validate_into`]) instead of bailing at the first.
    ///
    /// # Errors
    ///
    /// Returns parse errors in action text, unresolved names in
    /// transitions/associations and duplicate top-level names — defects
    /// that leave no coherent model to lint.
    pub fn build_unvalidated(self) -> Result<Domain> {
        // Everything parsed moves into the domain, and every vector that
        // grew by `push` leaves with exact capacity: a loaded model lives
        // as long as its session or cache entry does.
        let DomainBuilder {
            name,
            classes,
            assocs,
            actors,
        } = self;
        let mut domain = Domain::new(name);

        let actor_names: BTreeSet<&str> = actors.iter().map(|a| a.name.as_str()).collect();
        domain.classes.reserve_exact(classes.len());
        for mut cb in classes {
            let state_machine = if cb.states.is_empty() {
                if cb.initial.is_some() || !cb.transitions.is_empty() {
                    return Err(CoreError::validate(format!(
                        "class {} declares transitions but no states",
                        cb.name
                    )));
                }
                None
            } else {
                Some(build_machine(&mut cb, &actor_names)?)
            };
            cb.attrs.shrink_to_fit();
            cb.events.shrink_to_fit();
            domain.classes.push(Class {
                name: cb.name,
                attributes: cb.attrs,
                events: cb.events,
                state_machine,
            });
        }

        domain.actors.reserve_exact(actors.len());
        for mut ab in actors {
            ab.events.shrink_to_fit();
            ab.funcs.shrink_to_fit();
            domain.actors.push(Actor {
                name: ab.name,
                events: ab.events,
                funcs: ab.funcs,
            });
        }

        // Associations can only be resolved after all classes exist.
        domain.reindex()?;
        domain.associations.reserve_exact(assocs.len());
        for (name, from, fm, to, tm) in assocs {
            let from_id = domain.class_id(&from)?;
            let to_id = domain.class_id(&to)?;
            domain.associations.push(Association {
                name,
                from: from_id,
                to: to_id,
                from_mult: fm,
                to_mult: tm,
            });
        }
        domain.reindex()?;
        Ok(domain)
    }
}

/// Builds `cb`'s state machine, moving its states' actions out of it.
fn build_machine(cb: &mut ClassBuilder, actors: &BTreeSet<&str>) -> Result<StateMachine> {
    let mut states = Vec::with_capacity(cb.states.len());
    for sd in cb.states.drain(..) {
        let action = match sd.body {
            Body::Ast(b) => b,
            Body::Src(src) => {
                let toks = lex(&src)?;
                let mut p = parse::Parser::with_actors(&toks, actors);
                let b = p.parse_block_until(&Tok::Eof)?;
                p.expect(&Tok::Eof)?;
                b
            }
        };
        states.push(State {
            name: sd.name,
            action,
        });
    }

    let state_id = |name: &str| -> Result<StateId> {
        states
            .iter()
            .position(|s| s.name == name)
            .map(|i| StateId::new(i as u32))
            .ok_or_else(|| CoreError::unresolved("state", name))
    };
    let event_id = |name: &str| -> Result<EventId> {
        cb.events
            .iter()
            .position(|e| e.name == name)
            .map(|i| EventId::new(i as u32))
            .ok_or_else(|| CoreError::unresolved("event", name))
    };

    let initial_name = cb.initial.as_deref().ok_or_else(|| {
        CoreError::validate(format!("class {} has states but no initial state", cb.name))
    })?;
    let initial = state_id(initial_name)?;

    let mut transitions = Vec::with_capacity(cb.transitions.len());
    for td in &cb.transitions {
        let target = match &td.target {
            TargetDecl::To(to) => TransitionTarget::To(state_id(to)?),
            TargetDecl::Ignore => TransitionTarget::Ignore,
        };
        transitions.push(Transition {
            from: state_id(&td.from)?,
            event: event_id(&td.event)?,
            target,
        });
    }

    let mut machine = StateMachine {
        states,
        initial,
        transitions,
        ..StateMachine::default()
    };
    machine.index()?;
    Ok(machine)
}

/// Convenience: builds the ubiquitous ping-pong test domain used across
/// the workspace's own tests and benches — `n` `Stage` classes in a
/// pipeline, each forwarding a counted token to the next via `R<k>`
/// associations, with a `SINK` actor receiving the result.
///
/// This is the "generated-pipeline workload" of experiments E2-E5.
pub fn pipeline_domain(stages: usize) -> Result<Domain> {
    assert!(stages >= 1, "pipeline needs at least one stage");
    let mut d = DomainBuilder::new("pipeline");
    d.actor("SINK").event("out", &[("v", DataType::Int)]);
    for k in 0..stages {
        let name = format!("Stage{k}");
        let c = d.class(&name);
        c.attr("seen", DataType::Int)
            .event("Feed", &[("v", DataType::Int)]);
        let forward = if k + 1 < stages {
            // Forward the incremented token across the association.
            format!(
                "self.seen = self.seen + 1;\n\
                 nexts = self -> Stage{}[R{}];\n\
                 gen Feed(rcvd.v + 1) to any(nexts);",
                k + 1,
                k + 1
            )
        } else {
            "self.seen = self.seen + 1;\ngen out(rcvd.v) to SINK;".to_owned()
        };
        c.state("Waiting", "")
            .state("Forwarding", &forward)
            .initial("Waiting")
            .transition("Waiting", "Feed", "Forwarding")
            .transition("Forwarding", "Feed", "Forwarding");
    }
    for k in 0..stages.saturating_sub(1) {
        d.association(
            &format!("R{}", k + 1),
            &format!("Stage{k}"),
            Multiplicity::One,
            &format!("Stage{}", k + 1),
            Multiplicity::One,
        );
    }
    d.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal_class() {
        let mut d = DomainBuilder::new("m");
        d.class("Led")
            .attr("on", DataType::Bool)
            .event("Toggle", &[])
            .state("Off", "self.on = false;")
            .state("On", "self.on = true;")
            .initial("Off")
            .transition("Off", "Toggle", "On")
            .transition("On", "Toggle", "Off");
        let domain = d.build().unwrap();
        let led = domain.class(domain.class_id("Led").unwrap());
        let m = led.state_machine.as_ref().unwrap();
        assert_eq!(m.states.len(), 2);
        assert_eq!(m.initial, StateId::new(0));
        assert_eq!(
            m.dispatch(StateId::new(0), EventId::new(0)),
            TransitionTarget::To(StateId::new(1))
        );
    }

    #[test]
    fn missing_initial_is_error() {
        let mut d = DomainBuilder::new("m");
        d.class("C").event("E", &[]).state("S", "");
        assert!(d.build().is_err());
    }

    #[test]
    fn unknown_state_in_transition_is_error() {
        let mut d = DomainBuilder::new("m");
        d.class("C")
            .event("E", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "Nowhere");
        assert!(d.build().is_err());
    }

    #[test]
    fn type_errors_surface_at_build() {
        let mut d = DomainBuilder::new("m");
        d.class("C")
            .attr("n", DataType::Int)
            .event("E", &[])
            .state("S", "self.n = true;")
            .initial("S")
            .transition("S", "E", "S");
        // Type errors are wrapped with class/state context by validation.
        let err = d.build().unwrap_err();
        assert!(matches!(err, CoreError::Validate { .. }));
        assert!(err.to_string().contains("type error"));
    }

    #[test]
    fn parse_errors_surface_at_build() {
        let mut d = DomainBuilder::new("m");
        d.class("C")
            .event("E", &[])
            .state("S", "this is not valid;")
            .initial("S")
            .transition("S", "E", "S");
        assert!(d.build().is_err());
    }

    #[test]
    fn association_to_unknown_class_is_error() {
        let mut d = DomainBuilder::new("m");
        d.class("A");
        d.association("R1", "A", Multiplicity::One, "B", Multiplicity::One);
        assert!(d.build().is_err());
    }

    #[test]
    fn actor_targets_resolve_in_action_text() {
        let mut d = DomainBuilder::new("m");
        d.actor("OUT").event("ping", &[]);
        d.class("C")
            .event("E", &[])
            .state("S", "gen ping() to OUT;")
            .initial("S")
            .transition("S", "E", "S");
        let domain = d.build().unwrap();
        assert_eq!(domain.actors.len(), 1);
    }

    #[test]
    fn pipeline_domain_builds_at_various_sizes() {
        for n in [1, 2, 5, 16] {
            let d = pipeline_domain(n).unwrap();
            assert_eq!(d.classes.len(), n);
            assert_eq!(d.associations.len(), n.saturating_sub(1));
            assert!(d.action_weight() > 0);
        }
    }

    #[test]
    fn duplicate_class_names_rejected() {
        let mut d = DomainBuilder::new("m");
        d.class("A");
        d.class("A");
        assert!(matches!(
            d.build(),
            Err(CoreError::Duplicate { kind: "class", .. })
        ));
    }

    #[test]
    fn transitions_without_states_rejected() {
        let mut d = DomainBuilder::new("m");
        d.class("A").event("E", &[]).transition("S", "E", "S");
        assert!(d.build().is_err());
    }
}
