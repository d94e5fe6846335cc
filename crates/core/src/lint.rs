//! Whole-model lints over the inter-machine signal graph.
//!
//! [`crate::validate`] checks each class in isolation; the lints here are
//! the *cross-machine* analyses the paper's execution semantics calls
//! for. The causality rule (§2) orders signals only between one
//! sender/receiver pair — so two *different* machines signalling the same
//! target are unordered ([`Code::SignalRace`]), and a cycle of machines
//! that re-generate on receipt can grow queues without bound
//! ([`Code::SignalCycle`]). Dead-model detection
//! ([`Code::DeadEvent`], [`Code::DeadTransition`],
//! [`Code::WriteOnlyAttribute`], [`Code::ConstantAttribute`]) flags
//! specification rot: elements the model declares but can never exercise,
//! which formal test cases run against the model (§2) would silently skip.
//!
//! The facts are no walk of their own: [`ModelFacts::gather`] folds the
//! per-action summaries of [`crate::effects`], whose one class-inference
//! walk also feeds sharding admission and the model compiler's usage
//! analysis. Instance-typed values come only from `self`,
//! `create`/`select`/`foreach` bindings, navigation and `any(...)`, so the
//! inference is complete for validated models.

use crate::diag::{Code, Diagnostic, Diagnostics, SourceMap};
use crate::effects::{self, ModelEffects};
use crate::error::Pos;
use crate::ids::{AttrId, ClassId, EventId, StateId};
use crate::model::{Domain, TransitionTarget};
use std::collections::{BTreeMap, BTreeSet};

pub use crate::effects::{ShardOffense, ShardReason};

/// One instance-directed signal emission found in a state's entry action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendFact {
    /// The class whose action emits the signal.
    pub sender: ClassId,
    /// The state whose entry action emits it.
    pub state: StateId,
    /// The inferred target class.
    pub target: ClassId,
    /// The target-class event generated.
    pub event: EventId,
    /// True for `gen ... after <delay>` (timer-paced).
    pub delayed: bool,
    /// Position of the `gen` statement.
    pub pos: Pos,
}

/// Cross-machine facts gathered from every state entry action.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelFacts {
    /// Every instance-directed send with an inferable target class.
    pub sends: Vec<SendFact>,
    /// First read position of each attribute, by `(class, attribute)`.
    pub attr_reads: BTreeMap<(ClassId, AttrId), Pos>,
    /// First write position of each attribute, by `(class, attribute)`.
    pub attr_writes: BTreeMap<(ClassId, AttrId), Pos>,
    /// Attributes written by each state's entry action, by
    /// `(class, state)` — the per-state write sets used for race
    /// order-sensitivity.
    pub state_writes: BTreeMap<(ClassId, StateId), BTreeSet<(ClassId, AttrId)>>,
    /// Attributes read by each state's entry action, by `(class, state)`
    /// — a write in one signal stream is order-sensitive against a read
    /// in the other even when the streams' write sets are disjoint.
    pub state_reads: BTreeMap<(ClassId, StateId), BTreeSet<(ClassId, AttrId)>>,
    /// Every `(target class, event)` pair any action generates.
    pub generated: BTreeSet<(ClassId, EventId)>,
}

impl ModelFacts {
    /// Folds the effect analysis's per-action summaries into the
    /// cross-machine facts.
    pub fn gather(effects: &ModelEffects) -> ModelFacts {
        let mut facts = ModelFacts::default();
        for eff in &effects.actions {
            let action = (eff.class, eff.state);
            for a in &eff.accesses {
                let (first, per_state) = if a.write {
                    (&mut facts.attr_writes, &mut facts.state_writes)
                } else {
                    (&mut facts.attr_reads, &mut facts.state_reads)
                };
                first.entry((a.class, a.attr)).or_insert(a.pos);
                per_state
                    .entry(action)
                    .or_default()
                    .insert((a.class, a.attr));
            }
            for site in effects.sends_of(eff) {
                let (Some(target), Some(event)) = (site.target, site.event) else {
                    continue;
                };
                facts.generated.insert((target, event));
                facts.sends.push(SendFact {
                    sender: eff.class,
                    state: eff.state,
                    target,
                    event,
                    delayed: site.after,
                    pos: site.pos,
                });
            }
        }
        facts
    }

    /// The union of attributes written by the states class `target`
    /// enters on receipt of `event`.
    fn event_write_set(
        &self,
        domain: &Domain,
        target: ClassId,
        event: EventId,
    ) -> BTreeSet<(ClassId, AttrId)> {
        self.event_access_set(domain, target, event, &self.state_writes)
    }

    /// The union of attributes read by the states class `target` enters
    /// on receipt of `event`.
    fn event_read_set(
        &self,
        domain: &Domain,
        target: ClassId,
        event: EventId,
    ) -> BTreeSet<(ClassId, AttrId)> {
        self.event_access_set(domain, target, event, &self.state_reads)
    }

    fn event_access_set(
        &self,
        domain: &Domain,
        target: ClassId,
        event: EventId,
        per_state: &BTreeMap<(ClassId, StateId), BTreeSet<(ClassId, AttrId)>>,
    ) -> BTreeSet<(ClassId, AttrId)> {
        let mut set = BTreeSet::new();
        if let Some(machine) = &domain.class(target).state_machine {
            for t in &machine.transitions {
                if t.event == event {
                    if let TransitionTarget::To(s) = t.target {
                        if let Some(ws) = per_state.get(&(target, s)) {
                            set.extend(ws.iter().copied());
                        }
                    }
                }
            }
        }
        set
    }
}

/// Runs every whole-model lint (`X0006`..`X0011`, `X0015`, `X0017`)
/// over the domain. The shard plan's effect summaries are walked once
/// and also folded into the [`ModelFacts`].
pub fn lint_domain(domain: &Domain, spans: &SourceMap, diags: &mut Diagnostics) {
    let plan = effects::analyze(domain);
    let facts = ModelFacts::gather(&plan.effects);
    lint_dead_events(domain, spans, diags);
    lint_dead_transitions(domain, &facts, spans, diags);
    lint_attr_usage(domain, &facts, spans, diags);
    lint_signal_races(domain, &facts, diags);
    lint_signal_cycles(domain, &facts, diags);
    lint_shard_safety(&plan, spans, diags);
    lint_cross_shard_races(domain, &plan, diags);
}

/// `X0006`: events no transition row consumes (a `CantHappen` row is a
/// declaration that the event must *not* arrive, so it does not count as
/// consumption; a passive class consumes nothing).
fn lint_dead_events(domain: &Domain, spans: &SourceMap, diags: &mut Diagnostics) {
    for class in &domain.classes {
        for (ei, ev) in class.events.iter().enumerate() {
            let eid = EventId::new(ei as u32);
            let consumed = class.state_machine.as_ref().is_some_and(|m| {
                m.transitions.iter().any(|t| {
                    t.event == eid
                        && matches!(t.target, TransitionTarget::To(_) | TransitionTarget::Ignore)
                })
            });
            if !consumed {
                let mut d = Diagnostic::new(
                    Code::DeadEvent,
                    spans.get(&SourceMap::event_key(&class.name, &ev.name)),
                    format!(
                        "event `{}.{}` is declared but no transition consumes it",
                        class.name, ev.name
                    ),
                )
                .with_element(format!("class {}", class.name));
                if class.state_machine.is_none() {
                    d = d.with_note(
                        "the class is passive (no state machine), so it can never receive signals"
                            .to_owned(),
                    );
                }
                diags.push(d);
            }
        }
    }
}

/// `X0007`: transitions whose trigger no action generates. Events with a
/// row out of the *initial* state are exempt: freshly created instances
/// sit in the initial state, so such events are the model's environment
/// entry points (injected by stimulus, not by actions).
fn lint_dead_transitions(
    domain: &Domain,
    facts: &ModelFacts,
    spans: &SourceMap,
    diags: &mut Diagnostics,
) {
    for (ci, class) in domain.classes.iter().enumerate() {
        let class_id = ClassId::new(ci as u32);
        let Some(machine) = &class.state_machine else {
            continue;
        };
        for (ei, ev) in class.events.iter().enumerate() {
            let eid = EventId::new(ei as u32);
            let consuming: Vec<_> = machine
                .transitions
                .iter()
                .filter(|t| {
                    t.event == eid
                        && matches!(t.target, TransitionTarget::To(_) | TransitionTarget::Ignore)
                })
                .collect();
            if consuming.is_empty() {
                continue; // X0006 already covers it
            }
            if facts.generated.contains(&(class_id, eid)) {
                continue;
            }
            let entry_point = consuming.iter().any(|t| t.from == machine.initial);
            if entry_point {
                continue;
            }
            let first = consuming[0];
            let from_name = &machine.states[first.from.index()].name;
            diags.push(
                Diagnostic::new(
                    Code::DeadTransition,
                    spans.get(&SourceMap::transition_key(&class.name, from_name, &ev.name)),
                    format!(
                        "transition(s) on `{}.{}` can never fire: no action generates the event",
                        class.name, ev.name
                    ),
                )
                .with_element(format!("class {}", class.name))
                .with_note(
                    "events with a transition out of the initial state are assumed to be \
                     environment-injected and are not flagged"
                        .to_owned(),
                ),
            );
        }
    }
}

/// `X0008`/`X0009`: attributes written but never read, and attributes
/// read but never written (every read yields the declared default).
fn lint_attr_usage(
    domain: &Domain,
    facts: &ModelFacts,
    spans: &SourceMap,
    diags: &mut Diagnostics,
) {
    for (ci, class) in domain.classes.iter().enumerate() {
        let class_id = ClassId::new(ci as u32);
        for (ai, attr) in class.attributes.iter().enumerate() {
            let key = (class_id, AttrId::new(ai as u32));
            let read = facts.attr_reads.contains_key(&key);
            let written = facts.attr_writes.contains_key(&key);
            let decl_pos = spans.get(&SourceMap::attr_key(&class.name, &attr.name));
            if written && !read {
                diags.push(
                    Diagnostic::new(
                        Code::WriteOnlyAttribute,
                        decl_pos,
                        format!(
                            "attribute `{}.{}` is written but never read",
                            class.name, attr.name
                        ),
                    )
                    .with_element(format!("class {}", class.name)),
                );
            } else if read && !written {
                diags.push(
                    Diagnostic::new(
                        Code::ConstantAttribute,
                        decl_pos,
                        format!(
                            "attribute `{}.{}` is read but never written: every read yields \
                             the default `{}`",
                            class.name, attr.name, attr.default
                        ),
                    )
                    .with_element(format!("class {}", class.name)),
                );
            }
        }
    }
}

/// `X0010`: two distinct sender classes signal the same target class with
/// order-sensitive events. The execution semantics orders signals only
/// between one sender/receiver pair, so the relative order of the two
/// streams is undefined. Two events are order-sensitive when they are the
/// *same* event (interleaving changes multiplicity-sensitive behaviour)
/// or when the states they enter write overlapping attribute sets.
fn lint_signal_races(domain: &Domain, facts: &ModelFacts, diags: &mut Diagnostics) {
    // (target, sender, event) → first send site, deduplicated.
    let mut sites: BTreeMap<(ClassId, ClassId, EventId), &SendFact> = BTreeMap::new();
    for f in &facts.sends {
        sites.entry((f.target, f.sender, f.event)).or_insert(f);
    }
    let mut reported: BTreeSet<(ClassId, ClassId, EventId, ClassId, EventId)> = BTreeSet::new();
    let entries: Vec<_> = sites.values().collect();
    for (i, a) in entries.iter().enumerate() {
        for b in entries.iter().skip(i + 1) {
            if a.target != b.target || a.sender == b.sender {
                continue;
            }
            let (first, second) = if (a.sender, a.event) <= (b.sender, b.event) {
                (a, b)
            } else {
                (b, a)
            };
            let same_event = first.event == second.event;
            type AttrKeys = Vec<(ClassId, AttrId)>;
            let (overlap, rw_overlap): (AttrKeys, AttrKeys) = if same_event {
                (Vec::new(), Vec::new())
            } else {
                let wa = facts.event_write_set(domain, first.target, first.event);
                let wb = facts.event_write_set(domain, second.target, second.event);
                let ra = facts.event_read_set(domain, first.target, first.event);
                let rb = facts.event_read_set(domain, second.target, second.event);
                // Write/write overlap is the classic lost-update
                // shape; a write in one stream against a read in the
                // other is just as order-sensitive (the read's value
                // depends on the interleaving), so it violates
                // confluence too.
                let ww: Vec<_> = wa.intersection(&wb).copied().collect();
                let mut wr: BTreeSet<(ClassId, AttrId)> = wa.intersection(&rb).copied().collect();
                wr.extend(ra.intersection(&wb).copied());
                (ww, wr.into_iter().collect())
            };
            if !same_event && overlap.is_empty() && rw_overlap.is_empty() {
                continue;
            }
            if !reported.insert((
                first.target,
                first.sender,
                first.event,
                second.sender,
                second.event,
            )) {
                continue;
            }
            let target = &domain.class(first.target).name;
            let s1 = &domain.class(first.sender).name;
            let s2 = &domain.class(second.sender).name;
            let e1 = &domain.class(first.target).events[first.event.index()].name;
            let e2 = &domain.class(second.target).events[second.event.index()].name;
            let attr_list = |set: &[(ClassId, AttrId)]| -> String {
                set.iter()
                    .map(|(c, a)| {
                        format!(
                            "{}.{}",
                            domain.class(*c).name,
                            domain.class(*c).attributes[a.index()].name
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let reason = if same_event {
                format!("both send the same event `{e1}`, so their interleaving is observable")
            } else if !overlap.is_empty() {
                format!(
                    "the states they enter write overlapping attribute(s): {}",
                    attr_list(&overlap)
                )
            } else {
                format!(
                    "one stream writes attribute(s) the other reads: {} — the read's \
                     value depends on the interleaving",
                    attr_list(&rw_overlap)
                )
            };
            diags.push(
                Diagnostic::new(
                    Code::SignalRace,
                    first.pos,
                    format!(
                        "signal race on class `{target}`: `{s1}` sends `{e1}` and `{s2}` \
                         sends `{e2}` with no mutual ordering"
                    ),
                )
                .with_element(format!("class {target}"))
                .with_note(reason)
                .with_note(format!(
                    "the other sender is `{s2}` at {}:{}; the causality rule orders signals \
                     only between one sender/receiver pair",
                    second.pos.line, second.pos.col
                )),
            );
        }
    }
}

/// `X0011`: cycles in the dispatch graph. Node `(class, event)`; edge to
/// `(target, event')` when receiving the event enters a state whose
/// action generates `event'` at the target. A cycle means every
/// participant re-generates on receipt: the signal population never
/// drains, so the scheduler livelocks or queues grow without bound.
fn lint_signal_cycles(domain: &Domain, facts: &ModelFacts, diags: &mut Diagnostics) {
    // Build edges: (class, event) → [(target, event, via send)].
    let mut edges: BTreeMap<(ClassId, EventId), Vec<&SendFact>> = BTreeMap::new();
    for (ci, class) in domain.classes.iter().enumerate() {
        let class_id = ClassId::new(ci as u32);
        let Some(machine) = &class.state_machine else {
            continue;
        };
        for t in &machine.transitions {
            let TransitionTarget::To(s) = t.target else {
                continue;
            };
            for f in &facts.sends {
                if f.sender == class_id && f.state == s {
                    edges.entry((class_id, t.event)).or_default().push(f);
                }
            }
        }
    }
    // Tarjan SCC over the node set.
    let nodes: Vec<(ClassId, EventId)> = {
        let mut set: BTreeSet<(ClassId, EventId)> = edges.keys().copied().collect();
        for outs in edges.values() {
            for f in outs {
                set.insert((f.target, f.event));
            }
        }
        set.into_iter().collect()
    };
    let index_of: BTreeMap<(ClassId, EventId), usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let sccs = tarjan(&nodes, &index_of, &edges);
    for scc in sccs {
        let cyclic = scc.len() > 1
            || edges
                .get(&nodes[scc[0]])
                .is_some_and(|outs| outs.iter().any(|f| (f.target, f.event) == nodes[scc[0]]));
        if !cyclic {
            continue;
        }
        let member_set: BTreeSet<usize> = scc.iter().copied().collect();
        let names: Vec<String> = scc
            .iter()
            .map(|&i| {
                let (c, e) = nodes[i];
                format!(
                    "{}.{}",
                    domain.class(c).name,
                    domain.class(c).events[e.index()].name
                )
            })
            .collect();
        // Anchor the diagnostic at one in-cycle send site.
        let mut anchor: Option<&SendFact> = None;
        let mut any_delayed = false;
        for &i in &scc {
            if let Some(outs) = edges.get(&nodes[i]) {
                for f in outs {
                    if index_of
                        .get(&(f.target, f.event))
                        .is_some_and(|j| member_set.contains(j))
                    {
                        anchor.get_or_insert(f);
                        any_delayed |= f.delayed;
                    }
                }
            }
        }
        let pos = anchor.map_or(Pos::UNKNOWN, |f| f.pos);
        let mut d = Diagnostic::new(
            Code::SignalCycle,
            pos,
            format!(
                "signal cycle: {} — every participant re-generates on receipt, so the \
                 signal population never drains",
                names.join(" -> ")
            ),
        )
        .with_element(format!("{} machine(s)", {
            let classes: BTreeSet<ClassId> = scc.iter().map(|&i| nodes[i].0).collect();
            classes.len()
        }));
        if any_delayed {
            d = d.with_note(
                "the cycle contains a delayed (`after`) signal: it is timer-paced, but still \
                 never terminates"
                    .to_owned(),
            );
        }
        diags.push(d);
    }
}

/// Iterative Tarjan strongly-connected components; returns SCCs in
/// deterministic (reverse topological) order of discovery.
fn tarjan(
    nodes: &[(ClassId, EventId)],
    index_of: &BTreeMap<(ClassId, EventId), usize>,
    edges: &BTreeMap<(ClassId, EventId), Vec<&SendFact>>,
) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
    }
    let n = nodes.len();
    let mut state: Vec<Option<NodeState>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, iterator position over its successors).
    for start in 0..n {
        if state[start].is_some() {
            continue;
        }
        let succs = |v: usize| -> Vec<usize> {
            edges
                .get(&nodes[v])
                .map(|outs| {
                    outs.iter()
                        .filter_map(|f| index_of.get(&(f.target, f.event)).copied())
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut dfs: Vec<(usize, Vec<usize>, usize)> = vec![(start, succs(start), 0)];
        state[start] = Some(NodeState {
            index: next_index,
            lowlink: next_index,
            on_stack: true,
        });
        stack.push(start);
        next_index += 1;
        while let Some((v, vsuccs, i)) = dfs.last_mut() {
            if *i < vsuccs.len() {
                let w = vsuccs[*i];
                *i += 1;
                match state[w] {
                    None => {
                        state[w] = Some(NodeState {
                            index: next_index,
                            lowlink: next_index,
                            on_stack: true,
                        });
                        stack.push(w);
                        next_index += 1;
                        let ws = succs(w);
                        dfs.push((w, ws, 0));
                    }
                    Some(ws) if ws.on_stack => {
                        let v = *v;
                        let vl = state[v].unwrap().lowlink.min(ws.index);
                        state[v].as_mut().unwrap().lowlink = vl;
                    }
                    Some(_) => {}
                }
            } else {
                let (v, _, _) = dfs.pop().unwrap();
                let vs = state[v].unwrap();
                if let Some((parent, _, _)) = dfs.last() {
                    let pl = state[*parent].unwrap().lowlink.min(vs.lowlink);
                    state[*parent].as_mut().unwrap().lowlink = pl;
                }
                if vs.lowlink == vs.index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        state[w].as_mut().unwrap().on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

// ---------------------------------------------------------------------------
// Shard-safety analysis (X0015, X0017)
// ---------------------------------------------------------------------------

/// `X0015`: notes every statement that forces `--shards N` back to
/// sequential execution, anchored at the statement itself.
fn lint_shard_safety(plan: &effects::ShardPlan, spans: &SourceMap, diags: &mut Diagnostics) {
    for off in &plan.offenses {
        // Models parsed from `.xtuml` files carry file-absolute
        // statement positions; fall back to the state header span when
        // the statement has none (builder-assembled models).
        let pos = if off.pos == Pos::UNKNOWN {
            spans.get(&SourceMap::state_key(&off.class, &off.state))
        } else {
            off.pos
        };
        diags.push(
            Diagnostic::new(
                Code::ShardUnsafe,
                pos,
                format!(
                    "state action {} — sharded execution falls back to sequential",
                    off.reason.describe()
                ),
            )
            .with_element(format!("state {}.{}", off.class, off.state))
            .with_note(
                "actions that only touch `self` attributes and communicate by signals shard freely"
                    .to_owned(),
            ),
        );
    }
}

/// `X0017`: a genuine cross-shard write race — two actions access the
/// same written attribute through receiver shapes no admission rule
/// reconciles to one shard. Reported with the two-action witness path.
fn lint_cross_shard_races(domain: &Domain, plan: &effects::ShardPlan, diags: &mut Diagnostics) {
    for race in &plan.races {
        let attr = format!(
            "{}.{}",
            domain.class(race.class).name,
            domain.class(race.class).attributes[race.attr.index()].name
        );
        let site = |s: &effects::Site| {
            let c = domain.class(s.class);
            let state = c
                .state_machine
                .as_ref()
                .map(|m| m.states[s.state.index()].name.as_str())
                .unwrap_or("?");
            format!(
                "{}.{} {} it at {}",
                c.name,
                state,
                if s.write { "writes" } else { "reads" },
                s.pos
            )
        };
        diags.push(
            Diagnostic::new(
                Code::CrossShardRace,
                race.a.pos,
                format!("cross-shard race on attribute `{attr}`"),
            )
            .with_element(format!("attr {attr}"))
            .with_note(format!("witness: {}; {}", site(&race.a), site(&race.b)))
            .with_note(
                "the two sites reach the attribute through different receiver shapes, so no \
                 shard placement makes both accesses local"
                    .to_owned(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DomainBuilder;
    use crate::model::Multiplicity;
    use crate::value::DataType;

    fn lint(domain: &Domain) -> Diagnostics {
        let mut diags = Diagnostics::new();
        lint_domain(domain, &SourceMap::new(), &mut diags);
        diags
    }

    fn codes(diags: &Diagnostics) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    /// Two distinct senders, same event → race regardless of write sets.
    #[test]
    fn same_event_from_two_senders_races() {
        let mut b = DomainBuilder::new("d");
        b.class("T")
            .event("Hit", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "Hit", "S");
        b.class("A")
            .event("Go", &[])
            .state("I", "")
            .state("W", "x = any(self -> T[R1]); gen Hit() to x;")
            .initial("I")
            .transition("I", "Go", "W");
        b.class("B")
            .event("Go", &[])
            .state("I", "")
            .state("W", "x = any(self -> T[R2]); gen Hit() to x;")
            .initial("I")
            .transition("I", "Go", "W");
        b.association("R1", "A", Multiplicity::One, "T", Multiplicity::One);
        b.association("R2", "B", Multiplicity::One, "T", Multiplicity::One);
        let d = b.build().unwrap();
        let diags = lint(&d);
        assert!(codes(&diags).contains(&Code::SignalRace), "{diags:?}");
    }

    /// Distinct events whose entered states write disjoint attributes do
    /// not race; overlapping write sets do.
    #[test]
    fn distinct_events_race_only_on_overlapping_writes() {
        let build = |overlap: bool| {
            let mut b = DomainBuilder::new("d");
            let quiet_action = if overlap {
                "self.n = 0;"
            } else {
                "self.m = 0;"
            };
            b.class("T")
                .attr("n", DataType::Int)
                .attr("m", DataType::Int)
                .event("Bump", &[])
                .event("Clear", &[])
                .state("Idle", "x = self.n + self.m;")
                .state("Up", "self.n = self.n + 1;")
                .state("Down", quiet_action)
                .initial("Idle")
                .transition("Idle", "Bump", "Up")
                .transition("Up", "Bump", "Up")
                .transition("Idle", "Clear", "Down")
                .transition("Up", "Clear", "Down")
                .transition("Down", "Bump", "Up");
            b.class("A")
                .event("Go", &[])
                .state("I", "")
                .state("W", "x = any(self -> T[R1]); gen Bump() to x;")
                .initial("I")
                .transition("I", "Go", "W");
            b.class("B")
                .event("Go", &[])
                .state("I", "")
                .state("W", "x = any(self -> T[R2]); gen Clear() to x;")
                .initial("I")
                .transition("I", "Go", "W");
            b.association("R1", "A", Multiplicity::One, "T", Multiplicity::One);
            b.association("R2", "B", Multiplicity::One, "T", Multiplicity::One);
            b.build().unwrap()
        };
        let racy = lint(&build(true));
        assert!(codes(&racy).contains(&Code::SignalRace), "{racy:?}");
        let clean = lint(&build(false));
        assert!(!codes(&clean).contains(&Code::SignalRace), "{clean:?}");
    }

    #[test]
    fn dead_event_on_active_and_passive_classes() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .event("Used", &[])
            .event("Unused", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "Used", "S");
        b.class("P").event("Ghost", &[]); // passive
        let d = b.build().unwrap();
        let diags = lint(&d);
        let dead: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == Code::DeadEvent).collect();
        assert_eq!(dead.len(), 2, "{diags:?}");
        assert!(dead.iter().any(|d| d.message.contains("C.Unused")));
        assert!(dead.iter().any(|d| d.message.contains("P.Ghost")));
    }

    #[test]
    fn dead_transition_flagged_unless_initial_entry_point() {
        // `Internal` is consumed only deep in the machine and never
        // generated → dead. `Kick` is consumed from the initial state →
        // exempt (environment entry point), even though never generated.
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .event("Kick", &[])
            .event("Internal", &[])
            .state("Start", "")
            .state("Mid", "")
            .state("End", "")
            .initial("Start")
            .transition("Start", "Kick", "Mid")
            .transition("Mid", "Internal", "End");
        let d = b.build().unwrap();
        let diags = lint(&d);
        let dead: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::DeadTransition)
            .collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0].message.contains("C.Internal"));
    }

    #[test]
    fn generated_event_is_not_a_dead_transition() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .event("Kick", &[])
            .event("Step", &[])
            .state("Start", "")
            .state("Mid", "gen Step() to self;")
            .state("End", "")
            .initial("Start")
            .transition("Start", "Kick", "Mid")
            .transition("Mid", "Step", "End");
        let d = b.build().unwrap();
        let diags = lint(&d);
        assert!(!codes(&diags).contains(&Code::DeadTransition), "{diags:?}");
    }

    #[test]
    fn attr_usage_lints() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .attr("hits", DataType::Int) // written, never read
            .attr("limit", DataType::Int) // read, never written
            .attr("both", DataType::Int) // read and written
            .event("E", &[])
            .state("S", "")
            .state(
                "T",
                "self.hits = 1; x = self.limit; self.both = self.both + 1;",
            )
            .initial("S")
            .transition("S", "E", "T");
        let d = b.build().unwrap();
        let diags = lint(&d);
        let write_only: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::WriteOnlyAttribute)
            .collect();
        let constant: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::ConstantAttribute)
            .collect();
        assert_eq!(write_only.len(), 1, "{diags:?}");
        assert!(write_only[0].message.contains("C.hits"));
        assert_eq!(constant.len(), 1, "{diags:?}");
        assert!(constant[0].message.contains("C.limit"));
    }

    #[test]
    fn ping_pong_cycle_detected() {
        let mut b = DomainBuilder::new("d");
        b.class("Ping")
            .event("Serve", &[])
            .state("Idle", "")
            .state("Serving", "x = any(self -> Pong[R1]); gen Return() to x;")
            .initial("Idle")
            .transition("Idle", "Serve", "Serving")
            .transition("Serving", "Serve", "Serving");
        b.class("Pong")
            .event("Return", &[])
            .state("Waiting", "")
            .state("Returning", "y = any(self -> Ping[R1]); gen Serve() to y;")
            .initial("Waiting")
            .transition("Waiting", "Return", "Returning")
            .transition("Returning", "Return", "Returning");
        b.association("R1", "Ping", Multiplicity::One, "Pong", Multiplicity::One);
        let d = b.build().unwrap();
        let diags = lint(&d);
        let cycles: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::SignalCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("Ping.Serve"));
        assert!(cycles[0].message.contains("Pong.Return"));
    }

    #[test]
    fn self_loop_cycle_detected_and_noted_when_delayed() {
        let mut b = DomainBuilder::new("d");
        b.class("C")
            .event("Tick", &[])
            .state("Idle", "")
            .state("Running", "gen Tick() to self after 10;")
            .initial("Idle")
            .transition("Idle", "Tick", "Running")
            .transition("Running", "Tick", "Running");
        let d = b.build().unwrap();
        let diags = lint(&d);
        let cycles: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == Code::SignalCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].notes.iter().any(|n| n.contains("timer-paced")));
    }

    /// A request/response pair is NOT a cycle: the responder's reply event
    /// does not re-generate the request.
    #[test]
    fn request_response_is_not_a_cycle() {
        let mut b = DomainBuilder::new("d");
        b.class("Client")
            .event("Go", &[])
            .event("Reply", &[])
            .state("Idle", "")
            .state("Asking", "x = any(self -> Server[R1]); gen Ask() to x;")
            .state("Done", "")
            .initial("Idle")
            .transition("Idle", "Go", "Asking")
            .transition("Asking", "Reply", "Done");
        b.class("Server")
            .event("Ask", &[])
            .state("Waiting", "")
            .state(
                "Answering",
                "y = any(self -> Client[R1]); gen Reply() to y;",
            )
            .initial("Waiting")
            .transition("Waiting", "Ask", "Answering")
            .transition("Answering", "Ask", "Answering");
        b.association(
            "R1",
            "Client",
            Multiplicity::One,
            "Server",
            Multiplicity::One,
        );
        let d = b.build().unwrap();
        let diags = lint(&d);
        assert!(!codes(&diags).contains(&Code::SignalCycle), "{diags:?}");
    }
}
