//! # xtuml-perfbench — one benchmark for the xtuml toolchain
//!
//! Six workloads, from loading a model to serving snapshots, each run
//! in its own process for a fixed window after set-up. An untraced run
//! reports the end-to-end metrics a user sees; a traced run wraps every
//! call the harness makes into a layer (`lang`, `core`, `exec`, `serve`,
//! `fuzz`, `mda`, `cosim`, `verify`) in an `xtuml_obs::SpanBuf` span and
//! reports per-layer metrics plus a Chrome trace. The harness only calls
//! the layers' public functions; nothing in the measured crates knows it
//! is being measured. See `README.md` for the workloads, the metrics and
//! the layer → end-to-end map.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload load_run --seed 0 --seconds 12 --trace 0
//! ```

pub mod alloc;
mod fuzz;
mod load;
mod serve;
mod sim;
mod tally;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use tally::{measure, setup_median, Tally};
use tracer::Tracer;
use xtuml_obs::Clock;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order a full run reports them.
pub const WORKLOADS: [&str; 6] = [
    "load_run",
    "sim_pipeline",
    "sim_manycore_sharded",
    "fuzz_sweep",
    "serve_churn",
    "serve_snapshot",
];

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("allocs_per_op", "count"),
    ("peak_heap_mb", "MiB"),
];

/// Layers whose self time a traced run reports as a share of the op
/// time, as metric `<layer>_share`.
const SHARE_LAYERS: [&str; 35] = [
    "lang.parse",
    "lang.print",
    "lang.marks_roundtrip",
    "core.compile",
    "core.effects",
    "exec.script",
    "exec.run",
    "exec.bc",
    "exec.frames",
    "exec.sharded",
    "exec.render",
    "fuzz.generate",
    "fuzz.lower",
    "fuzz.stim_roundtrip",
    "fuzz.reference",
    "mda.compile",
    "cosim.run",
    "verify.equivalence",
    "serve.frame",
    "serve.decode.create",
    "serve.decode.stimulate",
    "serve.decode.step",
    "serve.decode.snapshot",
    "serve.decode.restore",
    "serve.decode.trace",
    "serve.decode.close",
    "serve.apply.create",
    "serve.apply.stimulate",
    "serve.apply.step",
    "serve.apply.snapshot",
    "serve.apply.restore",
    "serve.apply.trace",
    "serve.apply.close",
    "serve.hex",
    "bench.check",
];

/// Per-layer metrics other than the shares: `(name, unit)`. A workload
/// that does not exercise a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 20] = [
    ("serve.wait_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("exec.trace_share", "ratio"),
    ("exec.machinery_share", "ratio"),
    ("exec.dispatches_per_op", "count"),
    ("exec.allocs_per_signal", "count"),
    ("exec.alloc_bytes_per_signal", "B"),
    ("exec.ready_set_max", "count"),
    ("exec.stimulus_queue_max", "count"),
    ("exec.snapshot_bytes", "B"),
    ("lang.parse_allocs", "count"),
    ("lang.parse_bytes", "B"),
    ("shard.epochs", "count"),
    ("shard.epoch_imbalance", "ratio"),
    ("shard.cross_shard_frac", "ratio"),
    ("pool.jobs2_speedup", "ratio"),
    ("serve.request_bytes", "B"),
    ("serve.reply_bytes", "B"),
    ("fuzz.admitted_frac", "ratio"),
];

/// Every per-layer metric a traced run reports: `(name, unit)`.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    SHARE_LAYERS
        .iter()
        .map(|l| (format!("{l}_share"), "ratio"))
        .chain(LAYER_METRICS.iter().map(|&(n, u)| (n.to_owned(), u)))
        .collect()
}

/// Input sizes: `Full` for the benchmark, `Smoke` for quick tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that exercise every path in well under a second.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for the generated inputs.
    pub seed: u64,
    /// Measurement window after set-up (a traced run splits it between
    /// an untraced and a traced half).
    pub window: Duration,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed, in set-up and in the window.
    pub correct: bool,
    /// Ops attempted in the measurement window(s).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The Chrome trace-event document of a traced run.
    pub profile: Option<String>,
}

impl Report {
    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// What a workload measured.
pub(crate) struct Outcome {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// The reference outputs computed in set-up passed their checks.
    pub setup_ok: bool,
    /// The untraced window (the untraced half, in a traced run).
    pub window: Tally,
    /// Traced runs only.
    pub traced: Option<Traced>,
}

/// The traced half of a traced run.
pub(crate) struct Traced {
    /// The traced window's ops and timings.
    pub window: Tally,
    /// Spans and layer totals of the traced window, all tracks merged.
    pub live: Tracer,
    /// Chrome track names, `(tid, name)`.
    pub tracks: Vec<(u32, String)>,
    /// Serve workloads: the in-process replay that splits each round
    /// trip into framing, decoding and applying, and its checked ops.
    pub replay: Option<(Tracer, Tally)>,
    /// Per-layer metrics measured by a workload's own probes.
    pub probes: Vec<(&'static str, f64)>,
}

/// Runs one workload. `traced` selects the per-layer metrics and the
/// Chrome trace instead of the end-to-end metrics.
///
/// # Errors
///
/// Names the problem when `cfg.workload` is not one of [`WORKLOADS`].
pub fn run(cfg: &Config, traced: bool) -> Result<Report, String> {
    let outcome = match cfg.workload.as_str() {
        "load_run" => load::run(cfg, traced),
        "sim_pipeline" => sim::run_pipeline(cfg, traced),
        "sim_manycore_sharded" => sim::run_manycore(cfg, traced),
        "fuzz_sweep" => fuzz::run(cfg, traced),
        "serve_churn" => serve::run_churn(cfg, traced),
        "serve_snapshot" => serve::run_snapshot(cfg, traced),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let mut attempted = outcome.window.ops;
    let mut failed = outcome.window.failed;
    let (metrics, profile) = match outcome.traced {
        None => (end_to_end(&outcome), None),
        Some(t) => {
            let metrics = per_layer(&outcome.window, &t);
            attempted += t.window.ops;
            failed += t.window.failed;
            let mut spans = t.live;
            if let Some((replay, checked)) = t.replay {
                attempted += checked.ops;
                failed += checked.failed;
                spans.absorb(replay);
            }
            (metrics, Some(spans.chrome_json(&cfg.workload, &t.tracks)))
        }
    };
    Ok(Report {
        correct: outcome.setup_ok && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        profile,
    })
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    // Read before the statistics below allocate their temporaries.
    let peak_heap_mb = alloc::peak_heap_bytes() as f64 / f64::from(1 << 20);
    let w = &o.window;
    let values = [
        o.setup_s,
        w.ops_per_s(),
        w.latency_us(0.5),
        w.latency_us(0.9),
        w.allocs_per_op(),
        peak_heap_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(untraced: &Tally, t: &Traced) -> Vec<Metric> {
    let live = &t.live;
    // Shares are per-unit means over per-unit means, so the replay
    // (serve) and the live window (everything) share one denominator.
    let unit_ns = ratio(live.busy_ns as f64, live.units as f64);
    let per_unit = |tr: &Tracer, ns: u64| ratio(ns as f64, tr.units as f64);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for layer in SHARE_LAYERS {
        let src = match &t.replay {
            Some((replay, _)) if layer.starts_with("serve.") && layer != "serve.hex" => replay,
            _ => live,
        };
        let share = ratio(per_unit(src, src.get(layer).ns), unit_ns);
        values.insert(format!("{layer}_share"), share);
    }
    if let Some((replay, _)) = &t.replay {
        let served = replay.ns_with_prefix("serve.frame")
            + replay.ns_with_prefix("serve.decode.")
            + replay.ns_with_prefix("serve.apply.");
        let wait = per_unit(live, live.ns_with_prefix("serve.rtt.")) - per_unit(replay, served);
        values.insert("serve.wait_share".into(), ratio(wait, unit_ns));
    }
    values.insert(
        "bench.unattributed_share".into(),
        1.0 - ratio(live.layer_ns() as f64, live.busy_ns as f64),
    );
    values.insert(
        "bench.trace_overhead".into(),
        1.0 - ratio(t.window.ops_per_s(), untraced.ops_per_s()),
    );
    let count = |name: &str| live.count(name);
    let ops = t.window.ops as f64;
    let run = live.get("exec.run");
    let sharded = live.get("exec.sharded");
    let parse = live.get("lang.parse");
    // Dispatches inside the layers that only run the engine (the fuzz
    // legs also build their simulations, so they count none).
    let run_dispatches = count("exec.run_dispatches");
    for (name, value) in [
        (
            "exec.dispatches_per_op",
            ratio(count("exec.dispatches"), ops),
        ),
        (
            "exec.allocs_per_signal",
            ratio((run.allocs + sharded.allocs) as f64, run_dispatches),
        ),
        (
            "exec.alloc_bytes_per_signal",
            ratio((run.bytes + sharded.bytes) as f64, run_dispatches),
        ),
        (
            "exec.snapshot_bytes",
            ratio(count("exec.snapshot_bytes"), count("exec.snapshots")),
        ),
        (
            "lang.parse_allocs",
            ratio(parse.allocs as f64, parse.calls as f64),
        ),
        (
            "lang.parse_bytes",
            ratio(count("lang.parse_bytes"), parse.calls as f64),
        ),
        (
            "serve.request_bytes",
            ratio(count("serve.request_bytes"), ops),
        ),
        ("serve.reply_bytes", ratio(count("serve.reply_bytes"), ops)),
    ] {
        values.insert(name.into(), value);
    }
    for &(name, value) in &t.probes {
        values.insert(name.into(), value);
    }
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// A single-threaded workload: set-up, the untraced window and, when
/// traced, the traced window and the workload's probes. `cycle` runs one
/// cycle of ops; given a tracer, it runs them as traced units.
pub(crate) fn single_threaded<S>(
    cfg: &Config,
    traced: bool,
    setup: impl FnMut() -> (S, bool),
    mut cycle: impl FnMut(&mut S, Option<&mut Tracer>, &mut Tally),
    probes: impl FnOnce(&S) -> Vec<(&'static str, f64)>,
) -> Outcome {
    let ((mut state, setup_ok), setup_s) = setup_median(setup);
    let (plain, traced_len) = halves(cfg, traced);
    let window = measure(plain, |t| cycle(&mut state, None, t));
    let traced = traced.then(|| {
        let mut live = Tracer::new(Clock::start(), 0);
        let window = measure(traced_len, |t| cycle(&mut state, Some(&mut live), t));
        Traced {
            window,
            live,
            tracks: vec![(0, "main".to_owned())],
            replay: None,
            probes: probes(&state),
        }
    });
    Outcome {
        setup_s,
        setup_ok,
        window,
        traced,
    }
}

/// Splits a traced run's window into its untraced and traced halves.
pub(crate) fn halves(cfg: &Config, traced: bool) -> (Duration, Duration) {
    if traced {
        (cfg.window / 2, cfg.window / 2)
    } else {
        (cfg.window, Duration::ZERO)
    }
}
