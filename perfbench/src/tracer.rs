//! Traced runs: spans around every layer call the harness makes, kept
//! in an `xtuml_obs::SpanBuf` for the Chrome trace, and per-layer time
//! and allocation totals for the per-layer metrics.
//!
//! Layer calls never nest, so a layer's self time is its span's
//! duration; a unit's time not covered by any layer is unattributed.

use std::collections::BTreeMap;
use std::time::Instant;

use xtuml_obs::{Clock, SpanBuf};

use crate::alloc;

/// Units (ops, iterations or sessions) per track whose spans go into
/// the Chrome trace; totals keep counting past it. This keeps a trace
/// file to a few hundred KB, which matters because the trace checker's
/// JSON parser takes time quadratic in the file size.
const SPAN_UNITS: u64 = 100;

/// Totals for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Acc {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// One track of a traced run.
#[derive(Debug)]
pub(crate) struct Tracer {
    spans: SpanBuf,
    track: u32,
    recording: bool,
    layers: BTreeMap<&'static str, Acc>,
    counts: BTreeMap<&'static str, f64>,
    /// Units run.
    pub units: u64,
    /// Wall time inside units, nanoseconds.
    pub busy_ns: u64,
}

impl Tracer {
    pub fn new(clock: Clock, track: u32) -> Tracer {
        Tracer {
            spans: SpanBuf::new(clock),
            track,
            recording: false,
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            units: 0,
            busy_ns: 0,
        }
    }

    /// Runs one unit of work (an op, iteration or session) under a span.
    pub fn unit<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.recording = self.units < SPAN_UNITS;
        if self.recording {
            self.spans.begin(self.track, "bench", name);
        }
        let t0 = Instant::now();
        let out = f(self);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        self.units += 1;
        if self.recording {
            self.spans.end(self.track);
        }
        out
    }

    /// Runs one call into a layer under a span named after it.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.recording {
            let module = name.split('.').next().unwrap_or(name);
            self.spans.begin(self.track, module, name);
        }
        let a0 = alloc::counts();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let used = alloc::counts() - a0;
        if self.recording {
            self.spans.end(self.track);
        }
        let acc = self.layers.entry(name).or_default();
        acc.ns += ns;
        acc.calls += 1;
        acc.allocs += used.allocs;
        acc.bytes += used.bytes;
        out
    }

    /// Adds `v` to the work count `name` (dispatches, bytes, ...).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// The work count `name` (zero when never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Totals for `name` (zero when the layer never ran).
    pub fn get(&self, name: &str) -> Acc {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Summed nanoseconds of every layer whose name starts with `prefix`.
    pub fn ns_with_prefix(&self, prefix: &str) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, acc)| acc.ns)
            .sum()
    }

    /// Summed nanoseconds over every layer.
    pub fn layer_ns(&self) -> u64 {
        self.layers.values().map(|a| a.ns).sum()
    }

    /// Folds another track (another client thread) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.absorb(other.spans);
        for (name, acc) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.ns += acc.ns;
            mine.calls += acc.calls;
            mine.allocs += acc.allocs;
            mine.bytes += acc.bytes;
        }
        for (name, v) in other.counts {
            self.add(name, v);
        }
        self.units += other.units;
        self.busy_ns += other.busy_ns;
    }

    /// The Chrome trace-event document for `tracks` (`(tid, name)`).
    pub fn chrome_json(&self, process: &str, tracks: &[(u32, String)]) -> String {
        self.spans.to_chrome_json(process, tracks)
    }
}

/// `f` as a layer call of `tr` when tracing, plainly otherwise, so the
/// untraced and traced runs share one code path.
pub(crate) fn layer<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.layer(name, f),
        None => f(),
    }
}

/// `f` inside a unit of `tr` when tracing, plainly otherwise.
pub(crate) fn unit<T>(
    tr: Option<&mut Tracer>,
    name: &str,
    f: impl FnOnce(Option<&mut Tracer>) -> T,
) -> T {
    match tr {
        Some(t) => t.unit(name, |t| f(Some(t))),
        None => f(None),
    }
}
