//! Per-class usage for the mapping rules.
//!
//! The model compiler needs to know, per class: which classes its actions
//! *create*, *delete*, *select* or *relate* (these must be
//! partition-local), and which `(target class, event)` pairs it *signals*
//! (these define the interface channels when the target is remote).
//!
//! This is no walk of its own: [`class_usage`] folds the per-action
//! summaries of [`xtuml_core::effects`], whose one class-inference walk
//! also feeds sharding admission and the whole-model lints; the model
//! compiler passes the summaries its `Program` already holds. The action
//! language restricts instance-typed values to `self`,
//! `create`/`select`/`foreach` bindings, association navigation and
//! `any(...)` — attributes and event parameters are scalars — so the
//! inference is *complete* for validated models: every send target
//! resolves. A target whose class cannot be inferred (a hand-built AST
//! typeck would reject) is reported as a mapping error.

use crate::{MdaError, Result};
use std::collections::BTreeSet;
use xtuml_core::effects::ModelEffects;
use xtuml_core::ids::{ClassId, EventId};
use xtuml_core::model::Domain;

/// What one class's actions do to the rest of the domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassUsage {
    /// Classes instantiated via `create`.
    pub creates: BTreeSet<ClassId>,
    /// Classes whose populations are queried via `select`.
    pub selects: BTreeSet<ClassId>,
    /// Classes whose instances are deleted (where inferable).
    pub deletes: BTreeSet<ClassId>,
    /// Classes related/unrelated at runtime (where inferable).
    pub relates: BTreeSet<ClassId>,
    /// Signals sent to instances: `(target class, event)`.
    pub sends: BTreeSet<(ClassId, EventId)>,
}

/// The usage of every class, in class order, folded from `effects`
/// (the domain's [`ModelEffects::gather`]).
///
/// A class maps to [`MdaError::Mapping`] if one of its signal targets'
/// class cannot be statically inferred (not expressible through the
/// surface language, but possible with hand-built ASTs); the first such
/// send, in state and statement order, names the error.
pub fn class_usage(domain: &Domain, effects: &ModelEffects) -> Vec<Result<ClassUsage>> {
    let mut usages: Vec<Result<ClassUsage>> = vec![Ok(ClassUsage::default()); domain.classes.len()];
    for eff in &effects.actions {
        let slot = &mut usages[eff.class.index()];
        let Ok(usage) = slot else {
            continue;
        };
        usage.creates.extend(eff.creates.iter().map(|&(c, _)| c));
        usage.selects.extend(eff.selects.iter().map(|&(c, _)| c));
        usage
            .deletes
            .extend(eff.deletes.iter().filter_map(|&(c, _)| c));
        for (operands, _) in eff.relates.iter().chain(&eff.unrelates) {
            usage.relates.extend(operands.iter().flatten());
        }
        for site in effects.sends_of(eff) {
            if let Some(why) = &site.unresolved {
                let class = domain.class(eff.class);
                let state = class
                    .state_machine
                    .as_ref()
                    .map_or("?", |m| m.states[eff.state.index()].name.as_str());
                *slot = Err(MdaError::mapping(format!(
                    "class {}, state {state}: {why}",
                    class.name
                )));
                break;
            }
            if let (Some(target), Some(event)) = (site.target, site.event) {
                usage.sends.insert((target, event));
            }
        }
    }
    usages
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::model::Multiplicity;
    use xtuml_core::value::DataType;

    fn domain() -> Domain {
        let mut b = DomainBuilder::new("d");
        b.actor("OUT").event("done", &[]);
        b.class("Worker")
            .event("Go", &[])
            .state("Idle", "")
            .state(
                "Busy",
                "l = create Lamp;\n\
                 relate self to l across R1;\n\
                 select many ls from Lamp;\n\
                 foreach x in ls { gen Lit() to x; }\n\
                 peer = any(self -> Helper[R2]);\n\
                 gen Assist(3) to peer;\n\
                 gen done() to OUT;\n\
                 delete l;",
            )
            .initial("Idle")
            .transition("Idle", "Go", "Busy");
        b.class("Lamp")
            .event("Lit", &[])
            .state("Off", "")
            .initial("Off")
            .transition("Off", "Lit", "Off");
        b.class("Helper")
            .event("Assist", &[("n", DataType::Int)])
            .state("S", "")
            .initial("S")
            .transition("S", "Assist", "S");
        b.association(
            "R1",
            "Worker",
            Multiplicity::One,
            "Lamp",
            Multiplicity::Many,
        );
        b.association(
            "R2",
            "Worker",
            Multiplicity::One,
            "Helper",
            Multiplicity::Many,
        );
        b.build().unwrap()
    }

    #[test]
    fn collects_all_usage_kinds() {
        let d = domain();
        let worker = d.class_id("Worker").unwrap();
        let lamp = d.class_id("Lamp").unwrap();
        let helper = d.class_id("Helper").unwrap();
        let u = class_usage(&d, &ModelEffects::gather(&d))[worker.index()]
            .clone()
            .unwrap();
        assert!(u.creates.contains(&lamp));
        assert!(u.selects.contains(&lamp));
        assert!(u.deletes.contains(&lamp));
        assert!(u.relates.contains(&worker) && u.relates.contains(&lamp));
        let lit = d.class(lamp).event_id("Lit").unwrap();
        let assist = d.class(helper).event_id("Assist").unwrap();
        assert!(u.sends.contains(&(lamp, lit)));
        assert!(u.sends.contains(&(helper, assist)));
        // Actor signal creates no instance-send entry.
        assert_eq!(u.sends.len(), 2);
    }

    #[test]
    fn passive_class_has_empty_usage() {
        let d = domain();
        let lamp = d.class_id("Lamp").unwrap();
        let u = class_usage(&d, &ModelEffects::gather(&d))[lamp.index()]
            .clone()
            .unwrap();
        assert!(u.creates.is_empty() && u.sends.is_empty());
    }

    #[test]
    fn self_sends_resolve_to_own_class() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .event("E", &[])
            .state("S", "gen E() to self;")
            .initial("S")
            .transition("S", "E", "S");
        let d = b.build().unwrap();
        let c = d.class_id("C").unwrap();
        let u = class_usage(&d, &ModelEffects::gather(&d))[c.index()]
            .clone()
            .unwrap();
        assert!(u.sends.contains(&(c, EventId::new(0))));
    }
}
