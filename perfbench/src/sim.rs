//! `sim_pipeline` and `sim_manycore_sharded`: dispatch-bound runs with
//! real action bodies. Building the simulation and injecting stimuli are
//! untimed; `run_to_quiescence` is timed, and an op is one signal.
//! Allocations are counted over the whole iteration (build, inject and
//! run), since the run alone may rightly allocate nothing; the run's own
//! share is the per-layer `exec.allocs_per_signal`.

use std::time::Instant;

use xtuml::core::builder::pipeline_domain;
use xtuml::core::model::Domain;
use xtuml::core::value::Value;
use xtuml::core::Result as CoreResult;
use xtuml::exec::sched::SplitMix64;
use xtuml::exec::{SchedPolicy, ShardedSimulation, Simulation, Trace, TraceMode};
use xtuml_bench::workloads::{manycore_domain, null_domain};
use xtuml_obs::{Counter, Gauge, Metrics, Recorder};

use crate::tally::{median, Tally};
use crate::tracer::{layer, unit, Tracer};
use crate::{alloc, single_threaded, Config, Outcome, Scale};

const STAGES: usize = 8;
const CORES: usize = 64;
const SHARDS: usize = 4;
/// Repetitions of each probe run; probes report medians.
const PROBE_RUNS: usize = 5;

/// Records one timed iteration of `signals` ops into `t`.
fn record(t: &mut Tally, signals: u64, secs: f64, allocs: u64, ok: bool) {
    t.allocated(allocs, signals);
    t.batch(signals, secs, ok);
}

/// Medians of `PROBE_RUNS` runs of each probe, taken round-robin so a
/// burst of load on the host hits every probe alike.
fn probe_medians<const N: usize>(mut probes: [&mut dyn FnMut() -> f64; N]) -> [f64; N] {
    let mut samples = [(); N].map(|()| Vec::with_capacity(PROBE_RUNS));
    for _ in 0..PROBE_RUNS {
        for (probe, out) in probes.iter_mut().zip(&mut samples) {
            out.push(probe());
        }
    }
    samples.map(|s| median(&s))
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

// -- sim_pipeline ----------------------------------------------------------

struct Pipeline {
    domain: Domain,
    seed: u64,
    /// One `Feed(v)` per entry, injected into stage 0 at time = index.
    feeds: Vec<i64>,
    reference: Trace,
}

impl Pipeline {
    fn signals(&self) -> u64 {
        (STAGES * self.feeds.len()) as u64
    }

    fn populate(&self, sim: &mut Simulation<'_>) -> CoreResult<()> {
        let stages = (0..STAGES)
            .map(|k| sim.create(&format!("Stage{k}")))
            .collect::<CoreResult<Vec<_>>>()?;
        for k in 1..STAGES {
            sim.relate(stages[k - 1], stages[k], &format!("R{k}"))?;
        }
        for (i, &v) in self.feeds.iter().enumerate() {
            sim.inject(i as u64, stages[0], "Feed", vec![Value::Int(v)])?;
        }
        Ok(())
    }

    fn build(&self) -> Simulation<'_> {
        let mut sim = Simulation::with_policy(&self.domain, SchedPolicy::seeded(self.seed));
        self.populate(&mut sim).expect("pipeline inputs are valid");
        sim
    }

    /// The outputs a correct run produces: each feed leaves the last
    /// stage incremented once per hop.
    fn outputs_ok(&self, trace: &Trace) -> bool {
        let outs = trace.observable(&self.domain);
        trace.dispatch_count() as u64 == self.signals()
            && outs.len() == self.feeds.len()
            && outs
                .iter()
                .zip(&self.feeds)
                .all(|(o, &v)| o.args == [Value::Int(v + STAGES as i64 - 1)])
    }
}

fn pipeline_setup(cfg: &Config) -> (Pipeline, bool) {
    let feeds = match cfg.scale {
        Scale::Full => 1 << 16,
        Scale::Smoke => 1 << 9,
    };
    let mut rng = SplitMix64::new(cfg.seed);
    let mut p = Pipeline {
        domain: pipeline_domain(STAGES).expect("pipeline domain builds"),
        seed: cfg.seed,
        feeds: (0..feeds).map(|_| rng.below(1000) as i64).collect(),
        reference: Trace::new(),
    };
    let (ran, reference) = {
        let mut sim = p.build();
        (sim.run_to_quiescence(), sim.trace().clone())
    };
    p.reference = reference;
    let ok = ran.is_ok() && p.outputs_ok(&p.reference);
    (p, ok)
}

fn pipeline_iteration(p: &Pipeline, mut tr: Option<&mut Tracer>, t: &mut Tally) {
    let a0 = alloc::counts();
    let mut sim = layer(&mut tr, "core.compile", || {
        Simulation::with_policy(&p.domain, SchedPolicy::seeded(p.seed))
    });
    let populated = layer(&mut tr, "exec.script", || p.populate(&mut sim));
    let t0 = Instant::now();
    let ran = layer(&mut tr, "exec.run", || sim.run_to_quiescence());
    let secs = t0.elapsed().as_secs_f64();
    let used = alloc::counts() - a0;
    let ok = layer(&mut tr, "bench.check", || {
        populated.is_ok() && ran.is_ok() && *sim.trace() == p.reference
    });
    if let Some(tr) = tr {
        tr.add("exec.dispatches", p.signals() as f64);
        tr.add("exec.run_dispatches", p.signals() as f64);
    }
    record(t, p.signals(), secs, used.allocs, ok);
}

/// Run-side attribution: trace recording (Full vs Off) and per-signal
/// machinery (empty actions, same instance and signal counts), plus the
/// scheduler gauges of one counted run.
fn pipeline_probes(p: &Pipeline) -> Vec<(&'static str, f64)> {
    let run = |mode: TraceMode| {
        let mut sim = p.build();
        sim.set_trace_mode(mode);
        seconds(|| {
            sim.run_to_quiescence().expect("probe run");
        })
    };
    let nulls = null_domain();
    let mut null_run = || {
        let mut sim = Simulation::with_policy(&nulls, SchedPolicy::seeded(p.seed));
        let insts: Vec<_> = (0..STAGES)
            .map(|_| sim.create("Nil").expect("create"))
            .collect();
        for i in 0..p.feeds.len() {
            for &inst in &insts {
                sim.inject(i as u64, inst, "Ping", vec![]).expect("inject");
            }
        }
        seconds(|| {
            sim.run_to_quiescence().expect("probe run");
        })
    };
    let [full, off, null] = probe_medians([
        &mut || run(TraceMode::Full),
        &mut || run(TraceMode::Off),
        &mut null_run,
    ]);
    let mut sim = Simulation::with_policy(&p.domain, SchedPolicy::seeded(p.seed));
    sim.attach_recorder(Recorder::new());
    p.populate(&mut sim).expect("pipeline inputs are valid");
    sim.run_to_quiescence().expect("probe run");
    let m = sim.take_recorder().expect("attached").metrics;
    vec![
        ("exec.trace_share", 1.0 - off / full),
        ("exec.machinery_share", null / full),
        ("exec.ready_set_max", m.gauge(Gauge::ReadySetMax) as f64),
        (
            "exec.stimulus_queue_max",
            m.gauge(Gauge::StimulusHeapMax) as f64,
        ),
    ]
}

pub(crate) fn run_pipeline(cfg: &Config, traced: bool) -> Outcome {
    single_threaded(
        cfg,
        traced,
        || pipeline_setup(cfg),
        |p, tr, t| unit(tr, "iteration", |tr| pipeline_iteration(p, tr, t)),
        pipeline_probes,
    )
}

// -- sim_manycore_sharded --------------------------------------------------

struct Manycore {
    domain: Domain,
    seed: u64,
    /// Core `k` starts a countdown of `ticks[k]` self-sent ticks.
    ticks: Vec<i64>,
    /// The trace of a jobs=2 run; every jobs=1 run must reproduce it.
    reference: Trace,
}

impl Manycore {
    fn signals(&self) -> u64 {
        self.ticks.iter().map(|&n| n as u64 + 1).sum()
    }

    fn policy(&self) -> SchedPolicy {
        SchedPolicy::seeded(self.seed).with_shards(SHARDS)
    }

    fn populate(&self, sim: &mut ShardedSimulation<'_>) -> CoreResult<()> {
        for (k, &n) in self.ticks.iter().enumerate() {
            let core = sim.create(&format!("Core{k}"))?;
            sim.inject(0, core, "Tick", vec![Value::Int(n)])?;
        }
        Ok(())
    }

    fn build(&self) -> ShardedSimulation<'_> {
        let mut sim = ShardedSimulation::with_policy(&self.domain, self.policy());
        self.populate(&mut sim).expect("many-core inputs are valid");
        sim
    }

    /// Core `k` reports Σ_{v=0..n} (v² + k) once its countdown ends.
    fn outputs_ok(&self, trace: &Trace) -> bool {
        let mut got: Vec<Value> = trace
            .observable(&self.domain)
            .into_iter()
            .flat_map(|o| o.args)
            .collect();
        let mut want: Vec<Value> = self
            .ticks
            .iter()
            .enumerate()
            .map(|(k, &n)| Value::Int(n * (n + 1) * (2 * n + 1) / 6 + (n + 1) * k as i64))
            .collect();
        let key = |v: &Value| v.as_int().unwrap_or(i64::MIN);
        got.sort_by_key(key);
        want.sort_by_key(key);
        trace.dispatch_count() as u64 == self.signals() && got == want
    }
}

fn manycore_setup(cfg: &Config) -> (Manycore, bool) {
    let base = match cfg.scale {
        Scale::Full => 4096,
        Scale::Smoke => 64,
    };
    let mut m = Manycore {
        domain: manycore_domain(CORES),
        seed: cfg.seed,
        ticks: (0..CORES as u64)
            .map(|k| base + ((k + cfg.seed) % 7) as i64)
            .collect(),
        reference: Trace::new(),
    };
    let (ran, reference) = {
        let mut sim = m.build();
        let ran = sim.run_to_quiescence(2).is_ok() && sim.runtime_fallback().is_none();
        (ran, sim.trace().clone())
    };
    m.reference = reference;
    let ok = ran && m.outputs_ok(&m.reference);
    // Warm-up at the measured worker count, checked like any iteration.
    let mut warm = Tally::new();
    manycore_iteration(&m, None, &mut warm);
    (m, ok && warm.failed == 0)
}

fn manycore_iteration(m: &Manycore, mut tr: Option<&mut Tracer>, t: &mut Tally) {
    let a0 = alloc::counts();
    let mut sim = layer(&mut tr, "core.compile", || {
        ShardedSimulation::with_policy(&m.domain, m.policy())
    });
    let populated = layer(&mut tr, "exec.script", || m.populate(&mut sim));
    let t0 = Instant::now();
    let ran = layer(&mut tr, "exec.sharded", || sim.run_to_quiescence(1));
    let secs = t0.elapsed().as_secs_f64();
    let used = alloc::counts() - a0;
    let ok = layer(&mut tr, "bench.check", || {
        populated.is_ok()
            && ran.is_ok()
            && sim.runtime_fallback().is_none()
            && *sim.trace() == m.reference
    });
    if let Some(tr) = tr {
        tr.add("exec.dispatches", m.signals() as f64);
        tr.add("exec.run_dispatches", m.signals() as f64);
    }
    record(t, m.signals(), secs, used.allocs, ok);
}

/// Trace and machinery shares as for the pipeline, the sharding counters
/// of one counted run, and the jobs=2 over jobs=1 speed-up.
fn manycore_probes(m: &Manycore) -> Vec<(&'static str, f64)> {
    let run = |mode: TraceMode, jobs: usize| {
        let mut sim = m.build();
        sim.set_trace_mode(mode);
        seconds(|| {
            sim.run_to_quiescence(jobs).expect("probe run");
        })
    };
    let nulls = null_domain();
    let mut null_run = || {
        let mut sim = ShardedSimulation::with_policy(&nulls, m.policy());
        for &n in &m.ticks {
            let nil = sim.create("Nil").expect("create");
            for _ in 0..=n {
                sim.inject(0, nil, "Ping", vec![]).expect("inject");
            }
        }
        seconds(|| {
            sim.run_to_quiescence(1).expect("probe run");
        })
    };
    let [full, off, jobs2, null] = probe_medians([
        &mut || run(TraceMode::Full, 1),
        &mut || run(TraceMode::Off, 1),
        &mut || run(TraceMode::Full, 2),
        &mut null_run,
    ]);
    let mut sim = m.build();
    sim.attach_recorder(Recorder::new());
    sim.run_to_quiescence(1).expect("probe run");
    let metrics: Metrics = sim.take_recorder().expect("attached").metrics;
    vec![
        ("exec.trace_share", 1.0 - off / full),
        ("exec.machinery_share", null / full),
        ("pool.jobs2_speedup", full / jobs2),
        ("shard.epochs", metrics.get(Counter::Epochs) as f64),
        (
            "shard.epoch_imbalance",
            metrics.epoch_imbalance().unwrap_or(0.0),
        ),
        (
            "shard.cross_shard_frac",
            metrics.cross_shard_frac().unwrap_or(0.0),
        ),
        (
            "exec.ready_set_max",
            metrics.gauge(Gauge::ReadySetMax) as f64,
        ),
        (
            "exec.stimulus_queue_max",
            metrics.gauge(Gauge::StimulusHeapMax) as f64,
        ),
    ]
}

pub(crate) fn run_manycore(cfg: &Config, traced: bool) -> Outcome {
    single_threaded(
        cfg,
        traced,
        || manycore_setup(cfg),
        |m, tr, t| unit(tr, "iteration", |tr| manycore_iteration(m, tr, t)),
        manycore_probes,
    )
}
