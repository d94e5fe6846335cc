//! Interface derivation — "interface definition in one place, so that
//! consistency is guaranteed" (paper §5).
//!
//! Given a domain and a partition, the compiler computes the exact set of
//! events that can cross the boundary and assigns each a **channel**: a
//! dense id, a direction and a payload layout. The C generator, the VHDL
//! generator and the executable bridge all consume this one
//! [`InterfaceSpec`]; no hand-written interface exists anywhere.
//!
//! Payload layout (32-bit words): word 0 carries the target instance id;
//! each parameter follows — `bool` 1 word, `int` 2 words (hi, lo),
//! `real` 2 words (IEEE-754 bits). Strings cannot cross the boundary
//! (hardware has no string type); a cross-partition event with a string
//! parameter is a mapping error.

use crate::analysis::{self, ClassUsage};
use crate::partition::{Partition, Side};
use crate::{MdaError, Result};
use xtuml_core::effects::ModelEffects;
use xtuml_core::ids::{ClassId, EventId, InstId};
use xtuml_core::model::Domain;
use xtuml_core::value::{DataType, Value};
use xtuml_cosim::{BridgeConfig, ChannelSpec, Direction};

/// One generated channel: an event type crossing the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfChannel {
    /// Dense channel id.
    pub id: u32,
    /// The receiving class.
    pub target_class: ClassId,
    /// The event delivered to that class.
    pub event: EventId,
    /// Direction of travel (towards the target's side).
    pub dir: Direction,
    /// Parameter types, in declaration order.
    pub params: Vec<DataType>,
    /// Payload size in words (target id + marshalled parameters).
    pub payload_words: usize,
}

/// The complete generated interface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterfaceSpec {
    /// The channel table, sorted by id.
    pub channels: Vec<IfChannel>,
}

/// Marshalled words a parameter of the given type occupies.
fn words_for(ty: DataType) -> Option<usize> {
    match ty {
        DataType::Bool => Some(1),
        DataType::Int | DataType::Real => Some(2),
        _ => None,
    }
}

impl InterfaceSpec {
    /// Derives the interface from the model and the partition.
    ///
    /// # Errors
    ///
    /// Returns [`MdaError::Mapping`] for unmarshallable cross-partition
    /// payloads or statically unresolvable signal targets.
    pub fn derive(domain: &Domain, partition: &Partition) -> Result<InterfaceSpec> {
        let effects = ModelEffects::gather(domain);
        Self::derive_from(domain, partition, &analysis::class_usage(domain, &effects))
    }

    /// [`InterfaceSpec::derive`] over an already-computed
    /// [`analysis::class_usage`].
    ///
    /// # Errors
    ///
    /// As [`InterfaceSpec::derive`].
    pub fn derive_from(
        domain: &Domain,
        partition: &Partition,
        usage: &[Result<ClassUsage>],
    ) -> Result<InterfaceSpec> {
        // Union of cross-partition (target, event) pairs over all classes.
        let mut pairs: Vec<(ClassId, EventId)> = Vec::new();
        for (ci, usage) in usage.iter().enumerate() {
            let sender = ClassId::new(ci as u32);
            let usage = usage.as_ref().map_err(Clone::clone)?;
            for &(target, event) in &usage.sends {
                if partition.side(sender) != partition.side(target)
                    && !pairs.contains(&(target, event))
                {
                    pairs.push((target, event));
                }
            }
        }
        // Deterministic channel ids: sort by (class name, event name).
        pairs.sort_by(|a, b| {
            let ka = (
                &domain.class(a.0).name,
                &domain.class(a.0).events[a.1.index()].name,
            );
            let kb = (
                &domain.class(b.0).name,
                &domain.class(b.0).events[b.1.index()].name,
            );
            ka.cmp(&kb)
        });

        let mut channels = Vec::new();
        for (id, (target, event)) in pairs.into_iter().enumerate() {
            let decl = &domain.class(target).events[event.index()];
            let mut payload_words = 1; // target instance id
            let mut params = Vec::new();
            for (pname, ty) in &decl.params {
                let Some(w) = words_for(*ty) else {
                    return Err(MdaError::mapping(format!(
                        "event {}.{} crosses the partition boundary but parameter \
                         `{pname}` has unmarshallable type {ty}",
                        domain.class(target).name,
                        decl.name
                    )));
                };
                payload_words += w;
                params.push(*ty);
            }
            let dir = match partition.side(target) {
                Side::Hw => Direction::SwToHw,
                Side::Sw => Direction::HwToSw,
            };
            channels.push(IfChannel {
                id: id as u32,
                target_class: target,
                event,
                dir,
                params,
                payload_words,
            });
        }
        Ok(InterfaceSpec { channels })
    }

    /// Finds the channel for a `(target class, event)` pair.
    pub fn channel_for(&self, target: ClassId, event: EventId) -> Option<&IfChannel> {
        self.channels
            .iter()
            .find(|c| c.target_class == target && c.event == event)
    }

    /// Finds a channel by id.
    pub fn channel(&self, id: u32) -> Option<&IfChannel> {
        self.channels.iter().find(|c| c.id == id)
    }

    /// Converts to the bridge configuration (FIFO depth and bus latency
    /// come from domain-level marks).
    pub fn to_bridge_config(&self, fifo_depth: usize, bus_latency: u64) -> BridgeConfig {
        BridgeConfig {
            channels: self
                .channels
                .iter()
                .map(|c| ChannelSpec {
                    id: c.id,
                    payload_words: c.payload_words,
                    dir: c.dir,
                })
                .collect(),
            fifo_depth,
            bus_latency,
        }
    }

    /// Total payload words across channels (interface-size metric, E6).
    pub fn total_words(&self) -> usize {
        self.channels.iter().map(|c| c.payload_words).sum()
    }
}

/// Marshals an event for transmission: target id word, then parameters.
///
/// # Errors
///
/// Returns [`MdaError::Mapping`] on payload/spec mismatch (only possible
/// with hand-built values; generated paths are correct by construction).
pub fn marshal(channel: &IfChannel, to: InstId, args: &[Value]) -> Result<Vec<u32>> {
    if args.len() != channel.params.len() {
        return Err(MdaError::mapping(format!(
            "channel {} expects {} parameter(s), got {}",
            channel.id,
            channel.params.len(),
            args.len()
        )));
    }
    let mut words = vec![u32::from(to)];
    for (ty, v) in channel.params.iter().zip(args) {
        match (ty, v) {
            (DataType::Bool, Value::Bool(b)) => words.push(u32::from(*b)),
            (DataType::Int, Value::Int(i)) => {
                let u = *i as u64;
                words.push((u >> 32) as u32);
                words.push(u as u32);
            }
            (DataType::Real, Value::Real(r)) => {
                let u = r.to_bits();
                words.push((u >> 32) as u32);
                words.push(u as u32);
            }
            (want, got) => {
                return Err(MdaError::mapping(format!(
                    "channel {}: expected {want}, got {}",
                    channel.id,
                    got.data_type()
                )))
            }
        }
    }
    debug_assert_eq!(words.len(), channel.payload_words);
    Ok(words)
}

/// Unmarshals a received payload into the target instance and arguments.
///
/// # Errors
///
/// Returns [`MdaError::Mapping`] on truncated payloads.
pub fn unmarshal(channel: &IfChannel, words: &[u32]) -> Result<(InstId, Vec<Value>)> {
    if words.len() != channel.payload_words {
        return Err(MdaError::mapping(format!(
            "channel {}: payload is {} word(s), got {}",
            channel.id,
            channel.payload_words,
            words.len()
        )));
    }
    let to = InstId::new(words[0]);
    let mut at = 1;
    let mut args = Vec::new();
    for ty in &channel.params {
        match ty {
            DataType::Bool => {
                args.push(Value::Bool(words[at] != 0));
                at += 1;
            }
            DataType::Int => {
                let u = (u64::from(words[at]) << 32) | u64::from(words[at + 1]);
                args.push(Value::Int(u as i64));
                at += 2;
            }
            DataType::Real => {
                let u = (u64::from(words[at]) << 32) | u64::from(words[at + 1]);
                args.push(Value::Real(f64::from_bits(u)));
                at += 2;
            }
            other => {
                return Err(MdaError::mapping(format!(
                    "channel {}: unmarshallable type {other}",
                    channel.id
                )))
            }
        }
    }
    Ok((to, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::marks::MarkSet;
    use xtuml_core::model::Multiplicity;

    fn two_class_domain() -> Domain {
        let mut b = DomainBuilder::new("d");
        b.class("Ctrl")
            .event("Kick", &[])
            .state("Idle", "")
            .state("Run", "f = any(self -> Filter[R1]); gen Job(7, true) to f;")
            .initial("Idle")
            .transition("Idle", "Kick", "Run");
        b.class("Filter")
            .event("Job", &[("n", DataType::Int), ("flag", DataType::Bool)])
            .state("Wait", "")
            .state("Work", "c = any(self -> Ctrl[R1]); gen Kick() to c;")
            .initial("Wait")
            .transition("Wait", "Job", "Work")
            .transition("Work", "Job", "Work");
        b.association(
            "R1",
            "Ctrl",
            Multiplicity::One,
            "Filter",
            Multiplicity::Many,
        );
        b.build().unwrap()
    }

    #[test]
    fn homogeneous_partition_has_no_channels() {
        let d = two_class_domain();
        let p = Partition::from_marks(&d, &MarkSet::new());
        let spec = InterfaceSpec::derive(&d, &p).unwrap();
        assert!(spec.channels.is_empty());
        assert_eq!(spec.total_words(), 0);
    }

    #[test]
    fn split_partition_derives_both_directions() {
        let d = two_class_domain();
        let mut m = MarkSet::new();
        m.mark_hardware("Filter");
        let p = Partition::from_marks(&d, &m);
        let spec = InterfaceSpec::derive(&d, &p).unwrap();
        assert_eq!(spec.channels.len(), 2);
        let filter = d.class_id("Filter").unwrap();
        let ctrl = d.class_id("Ctrl").unwrap();
        let job = spec
            .channel_for(filter, d.class(filter).event_id("Job").unwrap())
            .unwrap();
        assert_eq!(job.dir, Direction::SwToHw);
        assert_eq!(job.payload_words, 1 + 2 + 1);
        let kick = spec
            .channel_for(ctrl, d.class(ctrl).event_id("Kick").unwrap())
            .unwrap();
        assert_eq!(kick.dir, Direction::HwToSw);
        assert_eq!(kick.payload_words, 1);
    }

    #[test]
    fn channel_ids_are_deterministic() {
        let d = two_class_domain();
        let mut m = MarkSet::new();
        m.mark_hardware("Filter");
        let p = Partition::from_marks(&d, &m);
        let s1 = InterfaceSpec::derive(&d, &p).unwrap();
        let s2 = InterfaceSpec::derive(&d, &p).unwrap();
        assert_eq!(s1, s2);
        // Sorted by (class, event) name: Ctrl.Kick before Filter.Job.
        assert_eq!(s1.channels[0].target_class, d.class_id("Ctrl").unwrap());
    }

    #[test]
    fn string_payload_across_boundary_is_rejected() {
        let mut b = DomainBuilder::new("d");
        b.class("A")
            .event("Go", &[])
            .state("S", "x = any(self -> B[R1]); gen Msg(\"hi\") to x;")
            .initial("S")
            .transition("S", "Go", "S");
        b.class("B")
            .event("Msg", &[("s", DataType::Str)])
            .state("T", "")
            .initial("T")
            .transition("T", "Msg", "T");
        b.association("R1", "A", Multiplicity::One, "B", Multiplicity::One);
        let d = b.build().unwrap();
        let mut m = MarkSet::new();
        m.mark_hardware("B");
        let p = Partition::from_marks(&d, &m);
        let err = InterfaceSpec::derive(&d, &p).unwrap_err();
        assert!(err.to_string().contains("unmarshallable"));
        // Same model, homogeneous partition: fine (strings never cross).
        let p = Partition::from_marks(&d, &MarkSet::new());
        assert!(InterfaceSpec::derive(&d, &p).is_ok());
    }

    #[test]
    fn marshal_round_trip() {
        let ch = IfChannel {
            id: 0,
            target_class: ClassId::new(1),
            event: EventId::new(0),
            dir: Direction::SwToHw,
            params: vec![DataType::Int, DataType::Bool, DataType::Real],
            payload_words: 1 + 2 + 1 + 2,
        };
        let args = vec![
            Value::Int(-123_456_789_012),
            Value::Bool(true),
            Value::Real(-2.75),
        ];
        let words = marshal(&ch, InstId::new(9), &args).unwrap();
        assert_eq!(words.len(), ch.payload_words);
        let (to, back) = unmarshal(&ch, &words).unwrap();
        assert_eq!(to, InstId::new(9));
        assert_eq!(back, args);
    }

    #[test]
    fn marshal_validates_arity_and_types() {
        let ch = IfChannel {
            id: 0,
            target_class: ClassId::new(0),
            event: EventId::new(0),
            dir: Direction::SwToHw,
            params: vec![DataType::Int],
            payload_words: 3,
        };
        assert!(marshal(&ch, InstId::new(0), &[]).is_err());
        assert!(marshal(&ch, InstId::new(0), &[Value::Bool(true)]).is_err());
        assert!(unmarshal(&ch, &[0, 1]).is_err());
    }

    #[test]
    fn bridge_config_mirrors_channels() {
        let d = two_class_domain();
        let mut m = MarkSet::new();
        m.mark_hardware("Filter");
        let p = Partition::from_marks(&d, &m);
        let spec = InterfaceSpec::derive(&d, &p).unwrap();
        let cfg = spec.to_bridge_config(16, 4);
        assert_eq!(cfg.channels.len(), spec.channels.len());
        assert_eq!(cfg.bus_latency, 4);
        for (c, s) in cfg.channels.iter().zip(&spec.channels) {
            assert_eq!(c.id, s.id);
            assert_eq!(c.payload_words, s.payload_words);
            assert_eq!(c.dir, s.dir);
        }
    }
}
