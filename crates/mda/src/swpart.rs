//! The software lowering: unmarked classes become a dispatch loop on the
//! CPU model.
//!
//! The generated C architecture is the classic xtUML runtime: one
//! priority-scheduled event queue (priority from the `priority` class
//! mark; self-directed signals get the reserved top priority so they are
//! consumed first), a dispatch loop that runs each state action to
//! completion, a timer wheel for delayed signals, and the generated bus
//! driver for cross-partition traffic. CPU time is budgeted by the
//! co-simulation clock; an expensive action simply spans several hardware
//! cycles (debt-carrying credit model).

use crate::host::{DelayedSend, PCore};
use crate::interface::{self, InterfaceSpec};
use crate::partition::Side;
use crate::{MdaError, Result};
use std::collections::BTreeMap;
use xtuml_core::ids::{ClassId, EventId, InstId};
use xtuml_core::interp::ActionHost;
use xtuml_core::value::Value;
use xtuml_cosim::regfile::{RX_CHANNEL, RX_DATA0, RX_POP, RX_STATUS};
use xtuml_cosim::{Bridge, BridgeConfig, CosimError, RegisterFile, SwModel};
use xtuml_swrt::{Cpu, Mmio, Scheduler, TimerWheel};

/// Reserved priority for self-directed signals (most urgent).
const SELF_PRIORITY: u8 = 0;
/// Default class priority when unmarked (1 is the most urgent a mark can
/// request).
const DEFAULT_PRIORITY: u8 = 8;
/// CPU cycles charged for receiving one bridge message.
const RX_COST: u64 = 24;

/// A queued software dispatch.
#[derive(Debug, Clone)]
struct SwJob {
    to: InstId,
    event: EventId,
    args: Vec<Value>,
}

/// The software partition: generated dispatch loop + bus driver.
///
/// All bus traffic goes through the **generated register file** via the
/// [`Mmio`] trait — the same register map the generated C driver prints —
/// so the executed software and the emitted text share the interface by
/// construction.
pub struct SwPartition<'d> {
    pub(crate) core: PCore<'d>,
    iface: InterfaceSpec,
    regfile: RegisterFile,
    sched: Scheduler<SwJob>,
    cpu: Cpu,
    credit: i64,
    timers: TimerWheel<DelayedSend>,
    stimuli: Vec<(u64, InstId, EventId, Vec<Value>)>,
    prio: BTreeMap<ClassId, u8>,
    /// E5 ablation: deliver bridge messages with alternating priorities,
    /// breaking per-pair order. Never set by the stock mapping rules.
    scramble_rx: bool,
    rx_flip: bool,
}

impl<'d> SwPartition<'d> {
    /// Builds the software partition model around its execution core.
    pub(crate) fn new(
        core: PCore<'d>,
        iface: InterfaceSpec,
        bridge_cfg: &BridgeConfig,
        cpu_khz: u64,
        prio: BTreeMap<ClassId, u8>,
    ) -> SwPartition<'d> {
        SwPartition {
            core,
            iface,
            regfile: RegisterFile::new(bridge_cfg),
            sched: Scheduler::new(),
            cpu: Cpu::new(cpu_khz),
            credit: 0,
            timers: TimerWheel::new(),
            stimuli: Vec::new(),
            prio,
            scramble_rx: false,
            rx_flip: false,
        }
    }

    /// Enables the E5 rx-scramble ablation (broken mapping).
    pub(crate) fn set_scramble_rx(&mut self, on: bool) {
        self.scramble_rx = on;
    }

    /// Schedules an external stimulus for hardware time `time`.
    pub(crate) fn add_stimulus(&mut self, time: u64, to: InstId, event: EventId, args: Vec<Value>) {
        self.stimuli.push((time, to, event, args));
    }

    fn class_priority(&self, class: ClassId) -> u8 {
        self.prio.get(&class).copied().unwrap_or(DEFAULT_PRIORITY)
    }

    fn post(&mut self, from: Option<InstId>, to: InstId, event: EventId, args: Vec<Value>) {
        let prio = if from == Some(to) {
            SELF_PRIORITY
        } else {
            let class = self
                .core
                .store
                .class_of(to)
                .expect("posted to live instance");
            self.class_priority(class).max(1)
        };
        self.sched.post(prio, SwJob { to, event, args });
    }

    fn route_effects(&mut self, bridge: &mut Bridge, now: u64) -> Result<()> {
        let effects = self.core.take_effects();
        for s in effects.local {
            self.post(Some(s.from), s.to, s.event, s.args);
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
            self.tx_via_registers(bridge, now, channel.id, &words)?;
        }
        for d in effects.delayed {
            self.timers.arm(d.deadline, d);
        }
        for (inst, event) in effects.cancels {
            self.timers
                .cancel_matching(|d| d.to == inst && d.event == event);
        }
        Ok(())
    }

    /// Sends one marshalled message exactly as the generated C driver
    /// does: stage the payload words in the TX data registers (word 0 is
    /// the target id, already included in `words`), then ring the
    /// doorbell.
    fn tx_via_registers(
        &mut self,
        bridge: &mut Bridge,
        now: u64,
        channel: u32,
        words: &[u32],
    ) -> Result<()> {
        let before = self.regfile.errors;
        {
            let mut view = self.regfile.view(bridge, now);
            for (i, w) in words.iter().enumerate() {
                view.write(RegisterFile::tx_data_addr(channel, i), *w);
            }
            view.write(RegisterFile::tx_doorbell_addr(channel), 1);
        }
        if self.regfile.errors > before {
            return Err(MdaError::mapping(format!(
                "bus driver rejected doorbell on channel {channel}"
            )));
        }
        Ok(())
    }

    /// Polls the RX registers exactly as the generated `xtuml_bus_poll`
    /// does; returns the drained `(channel, payload words)` messages.
    fn rx_via_registers(&mut self, bridge: &mut Bridge, now: u64) -> Vec<(u32, Vec<u32>)> {
        let mut out = Vec::new();
        let mut view = self.regfile.view(bridge, now);
        while view.read(RX_STATUS) != 0 {
            let channel = view.read(RX_CHANNEL);
            // Read the full register block; unmarshal trims per spec.
            let words: Vec<u32> = (0..xtuml_cosim::regfile::MAX_PAYLOAD_WORDS)
                .map(|i| view.read(RX_DATA0 + i as u32))
                .collect();
            view.write(RX_POP, 1);
            out.push((channel, words));
        }
        out
    }

    /// CPU cycles consumed so far.
    pub fn cpu_cycles(&self) -> u64 {
        self.cpu.cycles()
    }

    /// Pending dispatches (backlog metric).
    pub fn backlog(&self) -> usize {
        self.sched.len()
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

    #[allow(dead_code)] // symmetry with HwPartition; used by future tooling
    pub(crate) fn store(&self) -> &xtuml_exec::ObjectStore {
        &self.core.store
    }
}

impl SwModel for SwPartition<'_> {
    fn run_slice(
        &mut self,
        bridge: &mut Bridge,
        now: u64,
        budget: u64,
    ) -> std::result::Result<u64, CosimError> {
        self.core.now = now;
        self.slice_inner(bridge, now, budget)
            .map_err(|e| CosimError::new(e.to_string()))
    }

    fn idle(&self) -> bool {
        self.sched.is_empty() && self.timers.is_empty() && self.stimuli.is_empty()
    }
}

impl SwPartition<'_> {
    fn slice_inner(&mut self, bridge: &mut Bridge, now: u64, budget: u64) -> Result<u64> {
        let start_cycles = self.cpu.cycles();
        self.credit += budget as i64;

        // 1. External stimuli due (delivered by the environment, no CPU
        //    cost — they model interrupt lines from the testbench).
        let mut due: Vec<(u64, InstId, EventId, Vec<Value>)> = Vec::new();
        self.stimuli.retain(|(t, to, ev, args)| {
            if *t <= now {
                due.push((*t, *to, *ev, args.clone()));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(t, to, ..)| (*t, *to));
        for (_, to, event, args) in due {
            self.post(None, to, event, args);
        }

        // 2. Expired timers.
        for d in self.timers.pop_due(now) {
            if !self.core.store.is_alive(d.to) {
                continue;
            }
            // A timer to a remote instance becomes a bus message now.
            let class = self.core.store.class_of(d.to)?;
            if self.core.partition.side(class) == Side::Sw {
                self.post(Some(d.from), d.to, d.event, d.args);
            } else {
                let Some(channel) = self.iface.channel_for(class, d.event) else {
                    return Err(MdaError::mapping(
                        "no generated channel for delayed cross signal",
                    ));
                };
                let channel_id = channel.id;
                let words = interface::marshal(channel, d.to, &d.args)?;
                self.tx_via_registers(bridge, now, channel_id, &words)?;
            }
        }

        // 3. Bridge arrivals, polled through the generated register map
        //    (interrupt service: costs cycles).
        for (channel_id, raw_words) in self.rx_via_registers(bridge, now) {
            let Some(channel) = self.iface.channel(channel_id) else {
                return Err(MdaError::mapping(format!(
                    "software received unknown channel {channel_id}"
                )));
            };
            let (to, args) = interface::unmarshal(channel, &raw_words[..channel.payload_words])?;
            self.cpu.consume(RX_COST);
            self.credit -= RX_COST as i64;
            if !self.core.store.is_alive(to) {
                continue;
            }
            if self.scramble_rx {
                // Broken mapping: alternate urgency so later bridge
                // messages overtake earlier ones.
                self.rx_flip = !self.rx_flip;
                let prio = if self.rx_flip { 2 } else { 200 };
                self.sched.post(
                    prio,
                    SwJob {
                        to,
                        event: channel.event,
                        args,
                    },
                );
            } else {
                self.post(None, to, channel.event, args);
            }
        }

        // 4. Dispatch while we have credit (one overdraft allowed: a
        //    dispatch runs to completion even if it exhausts the slice).
        while self.credit > 0 {
            let Some(job) = self.sched.pop() else {
                break;
            };
            if !self.core.store.is_alive(job.payload.to) {
                continue;
            }
            let steps = self
                .core
                .dispatch(job.payload.to, job.payload.event, job.payload.args)?;
            let cost = self.cpu.charge_dispatch(steps);
            self.credit -= cost as i64;
            self.route_effects(bridge, now)?;
        }
        // Idle CPUs don't accumulate unbounded credit.
        if self.sched.is_empty() {
            self.credit = self.credit.min(0);
        }

        Ok(self.cpu.cycles() - start_cycles)
    }
}
