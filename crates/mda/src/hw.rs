//! The hardware lowering: marked classes become an array of clocked FSMs.
//!
//! Each hardware instance is a synchronous state machine with a bounded
//! input FIFO (depth from the `queueDepth` mark). All instances advance
//! **in parallel** every clock cycle — hardware is spatial — while each
//! individual instance preserves run-to-completion: dispatching an event
//! makes the instance *busy* for as many cycles as the action block has
//! steps (one microcode step per cycle), during which it accepts no new
//! event.
//!
//! This module is the executable twin of the VHDL the model compiler
//! prints ([`crate::vgen`]): same state encoding, same FIFO depths, same
//! channel table.

use crate::host::{DelayedSend, PCore};
use crate::interface::{self, InterfaceSpec};
use crate::{MdaError, Result};
use std::collections::{BTreeMap, VecDeque};
use xtuml_core::ids::{ClassId, EventId, InstId};
use xtuml_core::interp::ActionHost;
use xtuml_core::value::Value;
use xtuml_cosim::{Bridge, CosimError, HwModel};

/// A queued event at a hardware FSM's input.
#[derive(Debug, Clone)]
struct HwEnvelope {
    from: Option<InstId>,
    event: EventId,
    args: Vec<Value>,
}

/// Per-instance input queues (self-signals bypass the main FIFO, as in
/// the generated VHDL where the self-queue is a separate small FIFO).
#[derive(Debug, Default)]
struct InstQ {
    self_q: VecDeque<HwEnvelope>,
    main_q: VecDeque<HwEnvelope>,
    capacity: usize,
}

impl InstQ {
    fn is_empty(&self) -> bool {
        self.self_q.is_empty() && self.main_q.is_empty()
    }
}

/// The hardware partition: an FSM array lowered from the marked classes.
pub struct HwPartition<'d> {
    pub(crate) core: PCore<'d>,
    iface: InterfaceSpec,
    queues: BTreeMap<InstId, InstQ>,
    busy: BTreeMap<InstId, u64>,
    timers: Vec<(u64, DelayedSend)>,
    tseq: u64,
    stimuli: Vec<(u64, InstId, EventId, Vec<Value>)>,
    default_depth: usize,
    class_depth: BTreeMap<ClassId, usize>,
    /// Cycles in which at least one FSM dispatched (utilisation metric).
    pub active_cycles: u64,
    /// High-water mark of any instance's input queue — sizing data for
    /// the `queueDepth` mark.
    pub max_queue_occupancy: usize,
}

impl<'d> HwPartition<'d> {
    /// Builds the hardware partition model around its execution core.
    pub(crate) fn new(
        core: PCore<'d>,
        iface: InterfaceSpec,
        default_depth: usize,
        class_depth: BTreeMap<ClassId, usize>,
    ) -> HwPartition<'d> {
        HwPartition {
            core,
            iface,
            queues: BTreeMap::new(),
            busy: BTreeMap::new(),
            timers: Vec::new(),
            tseq: 0,
            stimuli: Vec::new(),
            default_depth,
            class_depth,
            active_cycles: 0,
            max_queue_occupancy: 0,
        }
    }

    /// Registers a locally-owned instance (called at system setup and on
    /// runtime creation).
    pub(crate) fn register_instance(&mut self, inst: InstId, class: ClassId) {
        let capacity = self
            .class_depth
            .get(&class)
            .copied()
            .unwrap_or(self.default_depth);
        self.queues.insert(
            inst,
            InstQ {
                capacity,
                ..InstQ::default()
            },
        );
    }

    /// Schedules an external stimulus (testbench wire) for `time`.
    pub(crate) fn add_stimulus(&mut self, time: u64, to: InstId, event: EventId, args: Vec<Value>) {
        self.stimuli.push((time, to, event, args));
    }

    fn enqueue(&mut self, to: InstId, env: HwEnvelope) -> Result<()> {
        let q = self.queues.entry(to).or_default();
        let target = if env.from == Some(to) {
            &mut q.self_q
        } else {
            &mut q.main_q
        };
        if q.capacity > 0 && target.len() >= q.capacity {
            return Err(MdaError::mapping(format!(
                "hardware event FIFO overflow on instance {to} (queueDepth mark too small)"
            )));
        }
        target.push_back(env);
        self.max_queue_occupancy = self
            .max_queue_occupancy
            .max(q.self_q.len() + q.main_q.len());
        Ok(())
    }

    fn route_effects(&mut self, bridge: &mut Bridge, now: u64) -> Result<()> {
        let effects = self.core.take_effects();
        for s in effects.local {
            self.enqueue(
                s.to,
                HwEnvelope {
                    from: Some(s.from),
                    event: s.event,
                    args: s.args,
                },
            )?;
        }
        for c in effects.cross {
            let class = self.core.store.class_of(c.to)?;
            let Some(channel) = self.iface.channel_for(class, c.event) else {
                return Err(MdaError::mapping(format!(
                    "no generated channel for cross signal to {}",
                    self.core.domain().class(class).name
                )));
            };
            let words = interface::marshal(channel, c.to, &c.args)?;
            bridge
                .hw_send(
                    xtuml_cosim::BusMessage {
                        channel: channel.id,
                        words,
                    },
                    now,
                )
                .map_err(|e| MdaError::Cosim(e.to_string()))?;
        }
        for d in effects.delayed {
            self.tseq += 1;
            self.timers.push((self.tseq, d));
        }
        for (inst, event) in effects.cancels {
            self.timers
                .retain(|(_, d)| !(d.to == inst && d.event == event));
        }
        Ok(())
    }

    /// Number of pending events across all FSM inputs.
    pub fn backlog(&self) -> usize {
        self.queues
            .values()
            .map(|q| q.self_q.len() + q.main_q.len())
            .sum()
    }

    /// The partition's observable outputs `(hw time, seq, event)`.
    pub fn observables(&self) -> &[(u64, u64, xtuml_exec::ObservableEvent)] {
        &self.core.observables
    }

    /// Reads an attribute of a locally-owned instance by name.
    ///
    /// # Errors
    ///
    /// Fails for remote instances or unknown attributes.
    pub fn attr(&self, inst: InstId, name: &str) -> Result<Value> {
        let class = self.core.store.class_of(inst)?;
        let c = self.core.domain().class(class);
        let id = c
            .attr_id(name)
            .ok_or_else(|| MdaError::mapping(format!("unknown attribute {}.{name}", c.name)))?;
        Ok(self.core.store.attr_read(inst, id)?)
    }

    pub(crate) fn store_mut(&mut self) -> &mut xtuml_exec::ObjectStore {
        &mut self.core.store
    }

    pub(crate) fn store(&self) -> &xtuml_exec::ObjectStore {
        &self.core.store
    }
}

impl HwModel for HwPartition<'_> {
    fn cycle(&mut self, bridge: &mut Bridge, now: u64) -> std::result::Result<(), CosimError> {
        self.core.now = now;
        self.cycle_inner(bridge, now)
            .map_err(|e| CosimError::new(e.to_string()))
    }

    fn idle(&self) -> bool {
        self.stimuli.is_empty()
            && self.timers.is_empty()
            && self.queues.values().all(InstQ::is_empty)
            && self.busy.values().all(|b| *b == 0)
    }
}

impl HwPartition<'_> {
    fn cycle_inner(&mut self, bridge: &mut Bridge, now: u64) -> Result<()> {
        // 1. Testbench stimuli due this cycle.
        let mut due: Vec<(u64, InstId, EventId, Vec<Value>)> = Vec::new();
        self.stimuli.retain(|(t, to, ev, args)| {
            if *t <= now {
                due.push((*t, *to, ev.to_owned(), args.clone()));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(t, to, ..)| (*t, *to));
        for (_, to, event, args) in due {
            self.enqueue(
                to,
                HwEnvelope {
                    from: None,
                    event,
                    args,
                },
            )?;
        }

        // 2. Expired timers.
        let mut fired: Vec<(u64, DelayedSend)> = Vec::new();
        self.timers.retain(|(seq, d)| {
            if d.deadline <= now {
                fired.push((*seq, d.clone()));
                false
            } else {
                true
            }
        });
        fired.sort_by_key(|(seq, d)| (d.deadline, *seq));
        for (_, d) in fired {
            if !self.core.store.is_alive(d.to) {
                continue;
            }
            self.enqueue(
                d.to,
                HwEnvelope {
                    from: Some(d.from),
                    event: d.event,
                    args: d.args,
                },
            )?;
        }

        // 3. Bridge arrivals.
        while let Some(msg) = bridge.hw_recv() {
            let Some(channel) = self.iface.channel(msg.channel) else {
                return Err(MdaError::mapping(format!(
                    "hardware received unknown channel {}",
                    msg.channel
                )));
            };
            let (to, args) = interface::unmarshal(channel, &msg.words)?;
            if !self.core.store.is_alive(to) {
                continue; // target died while the signal was in flight
            }
            self.enqueue(
                to,
                HwEnvelope {
                    from: None,
                    event: channel.event,
                    args,
                },
            )?;
        }

        // 4. Every non-busy FSM with input dispatches — in parallel
        //    (deterministically ordered by instance id for effect order).
        let ready: Vec<InstId> = self
            .queues
            .iter()
            .filter(|(inst, q)| {
                !q.is_empty()
                    && self.busy.get(inst).copied().unwrap_or(0) == 0
                    && self.core.store.is_alive(**inst)
            })
            .map(|(inst, _)| *inst)
            .collect();
        // Busy countdown for everyone else.
        for b in self.busy.values_mut() {
            *b = b.saturating_sub(1);
        }
        if !ready.is_empty() {
            self.active_cycles += 1;
        }
        for inst in ready {
            let env = {
                let q = self.queues.get_mut(&inst).expect("ready implies queued");
                if let Some(e) = q.self_q.pop_front() {
                    e
                } else {
                    q.main_q.pop_front().expect("ready implies queued")
                }
            };
            let steps = self.core.dispatch(inst, env.event, env.args)?;
            // The action datapath takes one cycle per step.
            self.busy.insert(inst, steps);
            self.route_effects(bridge, now)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::marks::{keys, ElemRef, MarkSet};

    /// The `queueDepth` mark sizes the FIFO in the VHDL text and in this
    /// executable twin alike: `depth` same-cycle events fit, one more
    /// overflows.
    #[test]
    fn queue_depth_mark_bounds_the_vhdl_generic_and_the_fsm_fifo() {
        let mut b = DomainBuilder::new("qd");
        b.class("H")
            .event("E", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let domain = b.build().unwrap();
        for depth in [2usize, 3] {
            let mut m = MarkSet::new();
            m.mark_hardware("H");
            m.set(ElemRef::class("H"), keys::QUEUE_DEPTH, depth as i64);
            let design = crate::ModelCompiler::new().compile(&domain, &m).unwrap();
            assert!(design
                .vhdl_code
                .contains(&format!("generic (QUEUE_DEPTH : positive := {depth});")));
            let run = |events: usize| {
                let mut sys = design.instantiate();
                let h = sys.create("H").unwrap();
                for _ in 0..events {
                    sys.inject(0, h, "E", vec![]).unwrap();
                }
                sys.run_to_quiescence()
            };
            run(depth).unwrap();
            let err = run(depth + 1).unwrap_err().to_string();
            assert!(
                err.contains("hardware event FIFO overflow"),
                "depth {depth}: {err}"
            );
        }
    }
}
