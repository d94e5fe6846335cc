//! Versioned binary serialization of simulation state (DESIGN §15).
//!
//! A snapshot captures everything the execution semantics can observe —
//! object stores, pending signal queues, timers and stimuli, the
//! scheduler PRNG streams, the trace so far, and the metrics recorder —
//! so that `restore(snapshot(sim))` continues **byte-identically** to an
//! uninterrupted run. The format is deliberately dependency-free: a flat
//! little-endian byte stream behind a magic/version/fingerprint header.
//!
//! What is *not* captured, by design:
//!
//! * **Wall-clock telemetry** (profile spans, `Timing`) — segregated
//!   from the deterministic metrics precisely because it is not a pure
//!   function of `(seed, shards)`.
//! * **Caches** (payload pools, scratch frame buffers) — invisible to
//!   execution; a restored simulation simply re-warms them.
//!
//! Versioning rules: the header is `b"XSNP"` + format version + a kind
//! byte (sequential vs sharded engine) + an FNV-1a fingerprint of the
//! domain model. Any incompatible layout change bumps [`VERSION`]; a
//! snapshot may only be restored into the *same* domain (the fingerprint
//! check turns a mismatch into [`SnapError::DomainMismatch`], never into
//! silent misinterpretation). Corrupt or truncated input always yields a
//! structured [`SnapError`] — decoding never panics. Decoding also checks
//! every class, state, event and instance id against the domain, so a
//! snapshot whose fingerprint matches but whose ids are out of range is
//! rejected as [`SnapError::Corrupt`] instead of reaching a table index.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use xtuml_core::ids::{ActorId, ClassId, EventId, InstId, StateId};
use xtuml_core::model::Domain;
use xtuml_core::value::Value;
use xtuml_obs::{EpochRow, Hist, Metrics, MetricsRaw, Recorder, ShardLane, HIST_BUCKETS};

use crate::sched::SchedPolicy;
use crate::trace::{Trace, TraceEvent};

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 4] = *b"XSNP";
/// Current snapshot format version. Bumped on any incompatible change.
pub const VERSION: u32 = 1;
/// Header kind byte: a sequential [`Simulation`](crate::Simulation).
pub const KIND_SEQUENTIAL: u8 = 1;
/// Header kind byte: an epoch-synchronous
/// [`ShardedSimulation`](crate::ShardedSimulation).
pub const KIND_SHARDED: u8 = 2;

/// A structured snapshot decoding failure. Corrupt input is a normal
/// runtime condition (a truncated file, a hostile client); every decode
/// path reports one of these instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the encoded structure did.
    Truncated,
    /// The input does not start with the `XSNP` magic.
    BadMagic,
    /// The input is a snapshot of an unsupported format version.
    BadVersion(u32),
    /// The header kind byte matches no known engine.
    BadKind(u8),
    /// The snapshot was taken against a structurally different domain.
    DomainMismatch,
    /// The bytes decode to an impossible structure (bad tag, oversized
    /// length, non-UTF-8 string, ...).
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapError::BadKind(k) => write!(f, "unknown snapshot kind {k}"),
            SnapError::DomainMismatch => {
                write!(f, "snapshot was taken against a different domain")
            }
            SnapError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Snapshot decode result.
pub type SnapResult<T> = std::result::Result<T, SnapError>;

/// FNV-1a fingerprint of a domain's full structure.
///
/// Hashes the canonical `Debug` rendering of the metamodel — names,
/// attributes, events, state machines *including action bodies*,
/// associations and actors — so any model edit that could change
/// behaviour changes the fingerprint. Stable for a given build of the
/// library; [`VERSION`] guards cross-build compatibility.
pub fn fingerprint(domain: &Domain) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{domain:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian byte-stream encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a snapshot: header (magic, version, kind and the domain's
    /// [`fingerprint`]) already written.
    pub fn with_header(kind: u8, fingerprint: u64) -> Writer {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u8(kind);
        w.u64(fingerprint);
        w
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (two's-complement little-endian).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an `f64` by exact bit pattern (NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a collection length prefix.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Finishes encoding and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte-stream decoder; every read is bounds-checked and
/// reports [`SnapError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps raw bytes for decoding (no header check).
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Opens a snapshot: checks magic, version and the domain
    /// [`fingerprint`], and returns the kind byte.
    pub fn open(buf: &'a [u8], fingerprint: u64) -> SnapResult<(Reader<'a>, u8)> {
        let mut r = Reader::new(buf);
        if r.take(4)? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let kind = r.u8()?;
        if kind != KIND_SEQUENTIAL && kind != KIND_SHARDED {
            return Err(SnapError::BadKind(kind));
        }
        if r.u64()? != fingerprint {
            return Err(SnapError::DomainMismatch);
        }
        Ok((r, kind))
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the input is fully consumed — trailing garbage means
    /// the snapshot does not parse as exactly one state.
    pub fn expect_end(&self) -> SnapResult<()> {
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> SnapResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Reads an `f64` by exact bit pattern.
    pub fn f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a collection length prefix, rejecting lengths that cannot
    /// possibly fit in the remaining input (`min_elem` = smallest encoded
    /// size of one element) — corrupt input errors out instead of
    /// triggering a giant allocation.
    pub fn len(&mut self, min_elem: usize) -> SnapResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }
}

/// Encodes a runtime [`Value`].
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Bool(b) => {
            w.u8(0);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Value::Real(r) => {
            w.u8(2);
            w.f64(*r);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Inst(c, i) => {
            w.u8(4);
            w.u32(u32::from(*c));
            match i {
                Some(i) => {
                    w.bool(true);
                    w.u32(u32::from(*i));
                }
                None => w.bool(false),
            }
        }
        Value::Set(c, items) => {
            w.u8(5);
            w.u32(u32::from(*c));
            w.len(items.len());
            for i in items {
                w.u32(u32::from(*i));
            }
        }
    }
}

/// Decodes a runtime [`Value`].
pub fn read_value(r: &mut Reader<'_>) -> SnapResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Bool(r.bool()?),
        1 => Value::Int(r.i64()?),
        2 => Value::Real(r.f64()?),
        3 => Value::Str(r.str()?),
        4 => {
            let c = ClassId::new(r.u32()?);
            let i = if r.bool()? {
                Some(InstId::new(r.u32()?))
            } else {
                None
            };
            Value::Inst(c, i)
        }
        5 => {
            let c = ClassId::new(r.u32()?);
            let n = r.len(4)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(InstId::new(r.u32()?));
            }
            Value::Set(c, items)
        }
        t => return Err(SnapError::Corrupt(format!("bad value tag {t}"))),
    })
}

/// Encodes a shared argument slice.
pub fn write_values(w: &mut Writer, args: &[Value]) {
    w.len(args.len());
    for a in args {
        write_value(w, a);
    }
}

/// Decodes a shared argument slice.
pub fn read_values(r: &mut Reader<'_>) -> SnapResult<Arc<[Value]>> {
    let n = r.len(2)?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(read_value(r)?);
    }
    Ok(Arc::from(args))
}

/// Encodes `Option<InstId>` (one flag byte, then the id if present).
pub fn write_opt_inst(w: &mut Writer, v: Option<InstId>) {
    match v {
        Some(i) => {
            w.bool(true);
            w.u32(u32::from(i));
        }
        None => w.bool(false),
    }
}

/// Decodes `Option<InstId>`.
pub fn read_opt_inst(r: &mut Reader<'_>) -> SnapResult<Option<InstId>> {
    Ok(if r.bool()? {
        Some(InstId::new(r.u32()?))
    } else {
        None
    })
}

/// Encodes one trace entry.
pub fn write_trace_event(w: &mut Writer, e: &TraceEvent) {
    match e {
        TraceEvent::Create { time, inst, class } => {
            w.u8(0);
            w.u64(*time);
            w.u32(u32::from(*inst));
            w.u32(u32::from(*class));
        }
        TraceEvent::Delete { time, inst } => {
            w.u8(1);
            w.u64(*time);
            w.u32(u32::from(*inst));
        }
        TraceEvent::Dispatch {
            time,
            inst,
            from,
            event,
            seq,
            from_state,
            to_state,
        } => {
            w.u8(2);
            w.u64(*time);
            w.u32(u32::from(*inst));
            write_opt_inst(w, *from);
            w.u32(u32::from(*event));
            w.u64(*seq);
            w.u32(u32::from(*from_state));
            w.u32(u32::from(*to_state));
        }
        TraceEvent::Ignored { time, inst, event } => {
            w.u8(3);
            w.u64(*time);
            w.u32(u32::from(*inst));
            w.u32(u32::from(*event));
        }
        TraceEvent::Dropped { time, inst, event } => {
            w.u8(4);
            w.u64(*time);
            w.u32(u32::from(*inst));
            w.u32(u32::from(*event));
        }
        TraceEvent::ActorSignal {
            time,
            actor,
            event,
            args,
        } => {
            w.u8(5);
            w.u64(*time);
            w.u32(u32::from(*actor));
            w.u32(u32::from(*event));
            write_values(w, args);
        }
        TraceEvent::BridgeCall {
            time,
            actor,
            func,
            args,
        } => {
            w.u8(6);
            w.u64(*time);
            w.u32(u32::from(*actor));
            w.str(func);
            write_values(w, args);
        }
    }
}

/// Decodes one trace entry.
pub fn read_trace_event(r: &mut Reader<'_>) -> SnapResult<TraceEvent> {
    Ok(match r.u8()? {
        0 => TraceEvent::Create {
            time: r.u64()?,
            inst: InstId::new(r.u32()?),
            class: ClassId::new(r.u32()?),
        },
        1 => TraceEvent::Delete {
            time: r.u64()?,
            inst: InstId::new(r.u32()?),
        },
        2 => TraceEvent::Dispatch {
            time: r.u64()?,
            inst: InstId::new(r.u32()?),
            from: read_opt_inst(r)?,
            event: EventId::new(r.u32()?),
            seq: r.u64()?,
            from_state: StateId::new(r.u32()?),
            to_state: StateId::new(r.u32()?),
        },
        3 => TraceEvent::Ignored {
            time: r.u64()?,
            inst: InstId::new(r.u32()?),
            event: EventId::new(r.u32()?),
        },
        4 => TraceEvent::Dropped {
            time: r.u64()?,
            inst: InstId::new(r.u32()?),
            event: EventId::new(r.u32()?),
        },
        5 => TraceEvent::ActorSignal {
            time: r.u64()?,
            actor: ActorId::new(r.u32()?),
            event: EventId::new(r.u32()?),
            args: read_values(r)?,
        },
        6 => TraceEvent::BridgeCall {
            time: r.u64()?,
            actor: ActorId::new(r.u32()?),
            func: r.str()?,
            args: read_values(r)?,
        },
        t => return Err(SnapError::Corrupt(format!("bad trace-event tag {t}"))),
    })
}

/// The engine byte every snapshot carries after the policy. Snapshots
/// once recorded the action executor there: `0` for the retired
/// compiled-frame walker, `1` for the bytecode VM. Both executors ran
/// byte-identical traces, so a `0` snapshot restores onto the VM; the
/// byte stays so the layout, and [`VERSION`], are unchanged.
const ENGINE_TAG: u8 = 1;

/// Encodes the scheduling policy that opens both snapshot kinds, followed
/// by the engine byte ([`ENGINE_TAG`]).
pub(crate) fn write_policy(w: &mut Writer, p: &SchedPolicy) {
    w.u64(p.seed);
    w.bool(p.self_priority);
    w.bool(p.pair_order);
    w.bool(p.strict);
    w.u32(p.shards as u32);
    w.u8(ENGINE_TAG);
}

/// Decodes what [`write_policy`] wrote, accepting either historical
/// engine byte.
pub(crate) fn read_policy(r: &mut Reader<'_>) -> SnapResult<SchedPolicy> {
    let policy = SchedPolicy {
        seed: r.u64()?,
        self_priority: r.bool()?,
        pair_order: r.bool()?,
        strict: r.bool()?,
        shards: r.u32()? as usize,
    };
    match r.u8()? {
        0 | ENGINE_TAG => Ok(policy),
        t => Err(SnapError::Corrupt(format!("bad engine tag {t}"))),
    }
}

/// Encodes a whole trace.
pub(crate) fn write_trace(w: &mut Writer, trace: &Trace) {
    w.len(trace.len());
    for e in trace.iter() {
        write_trace_event(w, &e);
    }
}

/// Decodes what [`write_trace`] wrote, checking every id against the
/// domain exactly where [`Trace::render`] resolves it — a dispatch's
/// event and states through the class of its instance's first creation
/// record — so rendering a restored trace never indexes out of range.
pub(crate) fn read_trace(r: &mut Reader<'_>, domain: &Domain) -> SnapResult<Trace> {
    let corrupt = || SnapError::Corrupt("trace id out of range for the domain".into());
    let n = r.len(13)?;
    let mut trace = Trace::new();
    trace.reserve(n);
    let mut created: HashMap<InstId, ClassId> = HashMap::new();
    let mut dispatches = Vec::new();
    for _ in 0..n {
        let e = read_trace_event(r)?;
        let in_range = match &e {
            TraceEvent::Create { inst, class, .. } => {
                created.entry(*inst).or_insert(*class);
                class.index() < domain.classes.len()
            }
            TraceEvent::Dispatch {
                inst,
                event,
                from_state,
                to_state,
                ..
            } => {
                dispatches.push((*inst, *event, [*from_state, *to_state]));
                true
            }
            TraceEvent::ActorSignal { actor, event, .. } => domain
                .actors
                .get(actor.index())
                .is_some_and(|a| event.index() < a.events.len()),
            TraceEvent::BridgeCall { actor, .. } => actor.index() < domain.actors.len(),
            TraceEvent::Delete { .. } | TraceEvent::Ignored { .. } | TraceEvent::Dropped { .. } => {
                true
            }
        };
        if !in_range {
            return Err(corrupt());
        }
        trace.push(e);
    }
    for (inst, event, states) in dispatches {
        let Some(&class) = created.get(&inst) else {
            continue; // rendered with raw ids
        };
        let c = domain.class(class);
        let states_ok = c
            .state_machine
            .as_ref()
            .is_none_or(|m| states.iter().all(|s| s.index() < m.states.len()));
        if event.index() >= c.events.len() || !states_ok {
            return Err(corrupt());
        }
    }
    Ok(trace)
}

/// Encodes an optional recorder: track, epoch streaming flag and the
/// deterministic metrics.
pub(crate) fn write_recorder(w: &mut Writer, rec: Option<&Recorder>) {
    match rec {
        Some(rec) => {
            w.bool(true);
            w.u32(rec.track);
            w.bool(rec.stream_epochs);
            write_metrics(w, &rec.metrics.to_raw());
        }
        None => w.bool(false),
    }
}

/// Decodes what [`write_recorder`] wrote: a recorder with its
/// deterministic metrics only (no span buffer, zeroed wall-clock timing).
pub(crate) fn read_recorder(r: &mut Reader<'_>) -> SnapResult<Option<Box<Recorder>>> {
    if !r.bool()? {
        return Ok(None);
    }
    let mut rec = Recorder::new();
    rec.track = r.u32()?;
    rec.stream_epochs = r.bool()?;
    rec.metrics = Metrics::from_raw(read_metrics(r)?);
    Ok(Some(Box::new(rec)))
}

/// Encodes raw deterministic metrics (counters, gauges, histograms,
/// lanes, epoch rows). Wall-clock timing and spans are deliberately not
/// part of a snapshot — they are not a pure function of `(seed, shards)`.
pub fn write_metrics(w: &mut Writer, m: &MetricsRaw) {
    w.len(m.counters.len());
    for c in &m.counters {
        w.u64(*c);
    }
    w.len(m.gauges.len());
    for g in &m.gauges {
        w.u64(*g);
    }
    w.len(m.hists.len());
    for h in &m.hists {
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.max);
        w.len(h.buckets.len());
        for b in &h.buckets {
            w.u64(*b);
        }
    }
    w.len(m.lanes.len());
    for l in &m.lanes {
        w.u32(l.shard);
        w.u64(l.dispatches);
        w.u64(l.sent);
        w.u64(l.cross_shard);
        w.u64(l.epochs_active);
    }
    w.len(m.epoch_rows.len());
    for r in &m.epoch_rows {
        w.u64(r.epoch);
        w.u32(r.shard);
        w.u64(r.dispatches);
        w.u64(r.outbox);
    }
}

/// Decodes raw deterministic metrics.
pub fn read_metrics(r: &mut Reader<'_>) -> SnapResult<MetricsRaw> {
    let nc = r.len(8)?;
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        counters.push(r.u64()?);
    }
    let ng = r.len(8)?;
    let mut gauges = Vec::with_capacity(ng);
    for _ in 0..ng {
        gauges.push(r.u64()?);
    }
    let nh = r.len(28)?;
    let mut hists = Vec::with_capacity(nh);
    for _ in 0..nh {
        let mut h = Hist {
            count: r.u64()?,
            sum: r.u64()?,
            max: r.u64()?,
            buckets: [0; HIST_BUCKETS],
        };
        // Bucket count is written explicitly so a future bucket-count
        // change reads as Corrupt, not as frame-shifted garbage.
        let nb = r.len(8)?;
        if nb != HIST_BUCKETS {
            return Err(SnapError::Corrupt(format!(
                "histogram has {nb} buckets, expected {HIST_BUCKETS}"
            )));
        }
        for b in h.buckets.iter_mut() {
            *b = r.u64()?;
        }
        hists.push(h);
    }
    let nl = r.len(36)?;
    let mut lanes = Vec::with_capacity(nl);
    for _ in 0..nl {
        lanes.push(ShardLane {
            shard: r.u32()?,
            dispatches: r.u64()?,
            sent: r.u64()?,
            cross_shard: r.u64()?,
            epochs_active: r.u64()?,
        });
    }
    let ne = r.len(28)?;
    let mut epoch_rows = Vec::with_capacity(ne);
    for _ in 0..ne {
        epoch_rows.push(EpochRow {
            epoch: r.u64()?,
            shard: r.u32()?,
            dispatches: r.u64()?,
            outbox: r.u64()?,
        });
    }
    Ok(MetricsRaw {
        counters,
        gauges,
        hists,
        lanes,
        epoch_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::value::DataType;

    fn domain() -> Domain {
        let mut b = DomainBuilder::new("t");
        b.class("A").attr("x", DataType::Int);
        b.build().unwrap()
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.bool(true);
        w.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.str("héllo");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn values_round_trip() {
        let vals = [
            Value::Bool(true),
            Value::Int(-9),
            Value::Real(1.5),
            Value::Str("s".into()),
            Value::Inst(ClassId::new(2), None),
            Value::Inst(ClassId::new(2), Some(InstId::new(5))),
            Value::Set(ClassId::new(1), vec![InstId::new(0), InstId::new(3)]),
        ];
        let mut w = Writer::default();
        for v in &vals {
            write_value(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        for v in &vals {
            assert_eq!(&read_value(&mut r).unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let mut w = Writer::default();
        write_value(&mut w, &Value::Str("abcdef".into()));
        write_value(&mut w, &Value::Set(ClassId::new(0), vec![InstId::new(1)]));
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let mut res = read_value(&mut r);
            if res.is_ok() {
                res = read_value(&mut r);
            }
            assert!(res.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn header_checks() {
        let d = fingerprint(&domain());
        let w = Writer::with_header(KIND_SEQUENTIAL, d);
        let bytes = w.finish();
        let (r, kind) = Reader::open(&bytes, d).unwrap();
        assert_eq!(kind, KIND_SEQUENTIAL);
        r.expect_end().unwrap();

        assert_eq!(Reader::open(b"nope", d).unwrap_err(), SnapError::BadMagic);
        assert_eq!(
            Reader::open(&bytes[..3], d).unwrap_err(),
            SnapError::Truncated
        );

        let mut v9 = bytes.clone();
        v9[4] = 9;
        assert_eq!(Reader::open(&v9, d).unwrap_err(), SnapError::BadVersion(9));

        let mut k0 = bytes.clone();
        k0[8] = 0;
        assert_eq!(Reader::open(&k0, d).unwrap_err(), SnapError::BadKind(0));

        let mut b = DomainBuilder::new("t");
        b.class("A").attr("x", DataType::Bool); // differs by one type
        let other = fingerprint(&b.build().unwrap());
        assert_eq!(
            Reader::open(&bytes, other).unwrap_err(),
            SnapError::DomainMismatch
        );
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut w = Writer::default();
        w.u8(5); // Set tag
        w.u32(0); // class
        w.u32(u32::MAX); // absurd element count
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_value(&mut r).unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let d1 = domain();
        let d2 = domain();
        assert_eq!(fingerprint(&d1), fingerprint(&d2));
        let mut b = DomainBuilder::new("t");
        b.class("A").attr("y", DataType::Int); // renamed attribute
        let d3 = b.build().unwrap();
        assert_ne!(fingerprint(&d1), fingerprint(&d3));
    }
}
