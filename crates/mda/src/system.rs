//! The instantiated, executable partitioned system.
//!
//! [`CompiledSystem`] is what you get from
//! [`CompiledDesign::instantiate`](crate::CompiledDesign::instantiate):
//! the hardware FSM array, the software dispatch loop and the generated
//! bridge assembled into a co-simulation, plus the testbench API — create
//! instances (mirrored as proxies on the other side so cross-partition
//! references resolve), relate them, inject stimuli, run, and read the
//! merged observable trace.

use crate::hw::HwPartition;
use crate::partition::{Partition, Side};
use crate::swpart::SwPartition;
use crate::{MdaError, Result};
use std::sync::Arc;
use xtuml_core::ids::InstId;
use xtuml_core::model::Domain;
use xtuml_core::testcase::Drive;
use xtuml_core::value::Value;
use xtuml_cosim::{Bridge, CoClock, CoSystem, CosimStats};
use xtuml_exec::{ObservableEvent, Program};

/// A running partitioned implementation of a domain.
pub struct CompiledSystem<'d> {
    program: Arc<Program<'d>>,
    partition: Partition,
    sys: CoSystem<HwPartition<'d>, SwPartition<'d>>,
}

impl Drive for CompiledSystem<'_> {
    type Handle = InstId;
    type Error = MdaError;

    fn create(&mut self, class: &str) -> Result<InstId> {
        CompiledSystem::create(self, class)
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        CompiledSystem::relate(self, a, b, assoc)
    }

    fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        CompiledSystem::inject(self, time, inst, event, args)
    }
}

impl<'d> CompiledSystem<'d> {
    pub(crate) fn new(
        program: Arc<Program<'d>>,
        partition: Partition,
        hw: HwPartition<'d>,
        sw: SwPartition<'d>,
        bridge: Bridge,
        clock: CoClock,
    ) -> CompiledSystem<'d> {
        CompiledSystem {
            program,
            partition,
            sys: CoSystem::new(hw, sw, bridge, clock),
        }
    }

    /// The domain this system implements.
    pub fn domain(&self) -> &Domain {
        self.program.domain()
    }

    /// Caps the co-simulation length (livelock guard).
    pub fn set_max_cycles(&mut self, max: u64) {
        self.sys.set_max_cycles(max);
    }

    /// Creates an instance of the named class in its owning partition and
    /// a proxy in the other, keeping instance ids aligned across both
    /// stores (which is what makes cross-partition references
    /// marshallable).
    ///
    /// # Errors
    ///
    /// Fails on unknown class names.
    pub fn create(&mut self, class: &str) -> Result<InstId> {
        let domain = self.program.domain();
        let class_id = domain.class_id(class)?;
        let side = self.partition.side(class_id);
        let (hw_inst, sw_inst) = match side {
            Side::Hw => {
                let r = self.sys.hw_mut().store_mut().create(domain, class_id);
                let p = self.sys.sw_mut().store_mut().create_proxy(class_id);
                (r, p)
            }
            Side::Sw => {
                let p = self.sys.hw_mut().store_mut().create_proxy(class_id);
                let r = self.sys.sw_mut().store_mut().create(domain, class_id);
                (p, r)
            }
        };
        if hw_inst != sw_inst {
            return Err(MdaError::mapping(
                "instance id desynchronisation (create after run start?)",
            ));
        }
        if side == Side::Hw {
            self.sys.hw_mut().register_instance(hw_inst, class_id);
        }
        Ok(hw_inst)
    }

    /// Relates two instances across the named association in both
    /// partition stores (links are mirrored so navigation works on either
    /// side).
    ///
    /// # Errors
    ///
    /// Propagates multiplicity and class-mismatch errors.
    pub fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        let domain = self.program.domain();
        let assoc_id = domain.assoc_id(assoc)?;
        let hw = self.sys.hw_mut().store_mut();
        hw.relate(domain, a, b, assoc_id)?;
        let sw = self.sys.sw_mut().store_mut();
        sw.relate(domain, a, b, assoc_id)?;
        Ok(())
    }

    /// Schedules an external stimulus: deliver `event` to `inst` at
    /// hardware time `time`.
    ///
    /// # Errors
    ///
    /// Fails on unknown events or arity mismatches.
    pub fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        let class_id = self.sys.hw().store().class_of(inst)?;
        let c = self.program.domain().class(class_id);
        let event_id = c
            .event_id(event)
            .ok_or_else(|| MdaError::mapping(format!("unknown event {}.{event}", c.name)))?;
        if c.events[event_id.index()].params.len() != args.len() {
            return Err(MdaError::mapping(format!(
                "event `{event}` takes {} argument(s), got {}",
                c.events[event_id.index()].params.len(),
                args.len()
            )));
        }
        match self.partition.side(class_id) {
            Side::Hw => self.sys.hw_mut().add_stimulus(time, inst, event_id, args),
            Side::Sw => self.sys.sw_mut().add_stimulus(time, inst, event_id, args),
        }
        Ok(())
    }

    /// Runs the co-simulation to joint quiescence.
    ///
    /// # Errors
    ///
    /// Propagates partition/action errors and the livelock guard.
    pub fn run_to_quiescence(&mut self) -> Result<CosimStats> {
        Ok(self.sys.run_to_quiescence()?)
    }

    /// The merged observable trace: both partitions' actor signals and
    /// bridge calls, ordered by hardware time (hardware effects first
    /// within a cycle, matching execution order).
    pub fn observables(&self) -> Vec<ObservableEvent> {
        let mut all: Vec<(u64, u8, u64, &ObservableEvent)> = Vec::new();
        for (t, s, e) in self.sys.hw().observables() {
            all.push((*t, 0, *s, e));
        }
        for (t, s, e) in self.sys.sw().observables() {
            all.push((*t, 1, *s, e));
        }
        all.sort_by_key(|(t, side, s, _)| (*t, *side, *s));
        all.into_iter().map(|(_, _, _, e)| e.clone()).collect()
    }

    /// Reads an attribute from whichever partition owns the instance.
    ///
    /// # Errors
    ///
    /// Fails on unknown attributes or dead instances.
    pub fn attr(&self, inst: InstId, name: &str) -> Result<Value> {
        let class_id = self.sys.hw().store().class_of(inst)?;
        match self.partition.side(class_id) {
            Side::Hw => self.sys.hw().attr(inst, name),
            Side::Sw => self.sys.sw().attr(inst, name),
        }
    }

    /// Co-simulation statistics so far.
    pub fn stats(&self) -> CosimStats {
        self.sys.stats()
    }

    /// CPU cycles consumed by the software partition.
    pub fn cpu_cycles(&self) -> u64 {
        self.sys.sw().cpu_cycles()
    }

    /// Elapsed hardware cycles.
    pub fn now(&self) -> u64 {
        self.sys.now()
    }

    /// High-water mark of the hardware event FIFOs — tells the designer
    /// what `queueDepth` mark the workload actually needs.
    pub fn max_hw_queue_occupancy(&self) -> usize {
        self.sys.hw().max_queue_occupancy
    }

    /// Cycles in which at least one hardware FSM dispatched.
    pub fn hw_active_cycles(&self) -> u64 {
        self.sys.hw().active_cycles
    }
}
