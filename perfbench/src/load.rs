//! `load_run`: `xtuml run` on three small models, round-robin. Loading
//! (parse, validate, compile, lower) dominates each op; the run side is
//! a few dozen dispatches at most.

use std::time::Instant;

use xtuml::cli::{cmd_run_full, ObsOptions, RunOptions};
use xtuml::exec::{SchedPolicy, ShardedSimulation};
use xtuml::lang::parse_domain;
use xtuml_obs::Gauge;

use crate::tally::{us_since, Tally};
use crate::tracer::Tracer;
use crate::{alloc, single_threaded, Config, Outcome, Scale};

/// `(model, stimulus script)` pairs, run in this order.
const MODELS: [(&str, &str); 3] = [
    (
        include_str!("../../models/doorbell.xtuml"),
        include_str!("../../models/doorbell.stim"),
    ),
    (
        include_str!("../../models/fuzz-corpus/seed2.xtuml"),
        include_str!("../../models/fuzz-corpus/seed2.stim"),
    ),
    (
        include_str!("../../models/fuzz-corpus/seed5.xtuml"),
        include_str!("../../models/fuzz-corpus/seed5.stim"),
    ),
];

/// The doorbell transcript's first line; it is followed by three chimes.
const DOORBELL_HEAD: &str = "ran to quiescence at t=1252 (9 dispatches)";

struct Setup {
    opts: RunOptions,
    /// Reference transcript per model.
    reference: Vec<String>,
}

fn run_text(model: &str, stim: &str, opts: RunOptions) -> Option<String> {
    cmd_run_full(model, stim, opts, &ObsOptions::default())
        .ok()
        .map(|o| o.text)
}

fn setup(cfg: &Config) -> (Setup, bool) {
    let opts = RunOptions {
        seed: cfg.seed,
        ..RunOptions::default()
    };
    let reference: Vec<String> = MODELS
        .iter()
        .map(|(m, s)| run_text(m, s, opts).unwrap_or_default())
        .collect();
    let doorbell = &reference[0];
    let ok = doorbell.starts_with(DOORBELL_HEAD)
        && doorbell.matches("SPEAKER.chime(").count() == 3
        && reference.iter().all(|t| t.starts_with("ran to quiescence"));
    let warmup = match cfg.scale {
        Scale::Full => 500,
        Scale::Smoke => 2,
    };
    for _ in 0..warmup {
        for (m, s) in MODELS {
            let _ = run_text(m, s, opts);
        }
    }
    (Setup { opts, reference }, ok)
}

/// One cycle: each model once, through `cmd_run_full`, or traced
/// through the layer calls it makes.
fn cycle(s: &Setup, mut tr: Option<&mut Tracer>, t: &mut Tally) {
    for ((model, stim), want) in MODELS.iter().zip(&s.reference) {
        let t0 = Instant::now();
        let (lat, ok) = match tr.as_deref_mut() {
            None => {
                let (text, used) = alloc::counted(|| run_text(model, stim, s.opts));
                let lat = us_since(t0);
                t.allocated(used.allocs, 1);
                (lat, text.as_deref() == Some(want.as_str()))
            }
            Some(tr) => {
                let ok = tr.unit("op", |tr| {
                    let text = traced_op(s, tr, model, stim);
                    tr.layer("bench.check", || text.as_deref() == Some(want.as_str()))
                });
                (us_since(t0), ok)
            }
        };
        t.op(1, lat, ok);
    }
}

/// `cmd_run_full` recomposed from the layer calls it makes, each under
/// its own span; the transcript must match the untraced one.
fn traced_op(s: &Setup, tr: &mut Tracer, model: &str, stim: &str) -> Option<String> {
    let domain = tr.layer("lang.parse", || parse_domain(model)).ok()?;
    tr.add("lang.parse_bytes", model.len() as f64);
    let policy = SchedPolicy::seeded(s.opts.seed).with_shards(1);
    let mut sim = tr.layer("core.compile", || {
        ShardedSimulation::with_policy(&domain, policy)
    });
    tr.layer("exec.script", || -> Option<()> {
        let tc = xtuml::fuzz::parse_stim(stim).ok()?;
        let mut handles = Vec::with_capacity(tc.creates.len());
        for class in &tc.creates {
            handles.push(sim.create(class).ok()?);
        }
        for (a, b, assoc) in &tc.relates {
            sim.relate(handles[*a], handles[*b], assoc).ok()?;
        }
        for st in &tc.stimuli {
            sim.inject(st.time, handles[st.inst], &st.event, st.args.clone())
                .ok()?;
        }
        Some(())
    })?;
    tr.layer("exec.run", || sim.run_to_quiescence(1)).ok()?;
    let dispatches = sim.trace().dispatch_count();
    tr.add("exec.dispatches", dispatches as f64);
    tr.add("exec.run_dispatches", dispatches as f64);
    Some(tr.layer("exec.render", || {
        let mut out = format!(
            "ran to quiescence at t={} ({dispatches} dispatches)\n",
            sim.now()
        );
        for ev in sim.trace().observable(&domain) {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }))
}

pub(crate) fn run(cfg: &Config, traced: bool) -> Outcome {
    single_threaded(
        cfg,
        traced,
        || setup(cfg),
        |s, tr, t| cycle(s, tr, t),
        probes,
    )
}

/// Scheduler gauges from one counted run per model (largest wins).
fn probes(s: &Setup) -> Vec<(&'static str, f64)> {
    let counters = ObsOptions {
        counters: true,
        ..ObsOptions::default()
    };
    let (mut ready, mut queue) = (0u64, 0u64);
    for (model, stim) in MODELS {
        if let Some(m) = cmd_run_full(model, stim, s.opts, &counters)
            .ok()
            .and_then(|o| o.metrics)
        {
            ready = ready.max(m.gauge(Gauge::ReadySetMax));
            queue = queue.max(m.gauge(Gauge::StimulusHeapMax));
        }
    }
    vec![
        ("exec.ready_set_max", ready as f64),
        ("exec.stimulus_queue_max", queue as f64),
    ]
}
