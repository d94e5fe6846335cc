//! `fuzz_sweep`: the four-way conformance differential over many small
//! generated models, one seed per `xtuml_fuzz::fuzz` call on one worker.
//! An op is one seed. A run cycles over one pass of consecutive seeds:
//! the first pass records each seed's report, every later pass must
//! reproduce it, and allocations are counted over the first pass.

use std::time::Instant;

use xtuml::core::effects::analyze;
use xtuml::core::marks::MarkSet;
use xtuml::core::model::Domain;
use xtuml::core::AssocId;
use xtuml::exec::{Engine, ObservableEvent, SchedPolicy, ShardedSimulation, Simulation, Trace};
use xtuml::fuzz::{fuzz, generate, parse_stim, render_stim, run_reference, CaseStats, FuzzConfig};
use xtuml::lang::{parse_domain, parse_marks, print_domain, print_marks};
use xtuml::mda::ModelCompiler;
use xtuml::verify::{check_equivalence, run_compiled, TestCase};

use crate::tally::{us_since, Tally};
use crate::tracer::Tracer;
use crate::{alloc, single_threaded, Config, Outcome, Scale};

/// A seed's first report: its rendering and its case row.
struct Case {
    render: String,
    stats: CaseStats,
}

/// The seeds `first .. first + len`, visited round-robin.
struct Sweep {
    first: u64,
    len: u64,
    /// One per seed visited so far in the first pass.
    cases: Vec<Case>,
    next: u64,
}

fn one_seed(seed: u64) -> FuzzConfig {
    FuzzConfig {
        start: seed,
        count: 1,
        jobs: 1,
        ..FuzzConfig::default()
    }
}

impl Sweep {
    /// One op: the next seed of the pass.
    fn op(&mut self, t: &mut Tally) {
        let i = (self.next % self.len) as usize;
        self.next += 1;
        let t0 = Instant::now();
        let (report, used) = alloc::counted(|| fuzz(&one_seed(self.first + i as u64)));
        let lat = us_since(t0);
        let render = report.render();
        let same = match self.cases.get(i) {
            Some(case) => render == case.render,
            None => {
                t.allocated(used.allocs, 1);
                let stats = report.per_case.first().map(|c| c.stats).unwrap_or_default();
                self.cases.push(Case { render, stats });
                true
            }
        };
        t.op(1, lat, report.ok() && same);
    }

    /// One traced op: the next recorded seed, recomposed from the layer
    /// calls `xtuml_fuzz::run_spec` makes and checked against its row.
    fn traced_op(&mut self, live: &mut Tracer, t: &mut Tally) {
        let i = (self.next % self.cases.len() as u64) as usize;
        self.next += 1;
        let want = &self.cases[i].stats;
        let seed = self.first + i as u64;
        let t0 = Instant::now();
        let ok = live.unit("case", |tr| {
            let got = traced_case(tr, seed);
            tr.layer("bench.check", || got.as_ref() == Some(want))
        });
        t.op(1, us_since(t0), ok);
    }
}

fn setup(cfg: &Config) -> (Sweep, bool) {
    let (len, warmup) = match cfg.scale {
        Scale::Full => (4000, 200),
        Scale::Smoke => (8, 2),
    };
    let sweep = Sweep {
        first: cfg.seed * len,
        len,
        cases: Vec::with_capacity(len as usize),
        next: 0,
    };
    let warm = fuzz(&FuzzConfig {
        start: sweep.first,
        count: warmup,
        jobs: 1,
        ..FuzzConfig::default()
    });
    (sweep, warm.ok())
}

struct Interp {
    trace: Trace,
    observables: Vec<ObservableEvent>,
    dispatches: u64,
    consumed: u64,
    clean: bool,
}

fn interpret(domain: &Domain, tc: &TestCase, engine: Engine) -> Option<Interp> {
    let mut sim = Simulation::with_policy(domain, SchedPolicy::default());
    sim.set_engine(engine);
    let handles = tc
        .creates
        .iter()
        .map(|c| sim.create(c))
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    for (a, b, assoc) in &tc.relates {
        sim.relate(handles[*a], handles[*b], assoc).ok()?;
    }
    let mut stims = tc.stimuli.clone();
    stims.sort_by_key(|s| s.time);
    for st in &stims {
        sim.inject(st.time, handles[st.inst], &st.event, st.args.clone())
            .ok()?;
    }
    sim.run_to_quiescence().ok()?;
    let trace = sim.trace().clone();
    let dispatches = trace.dispatch_count() as u64;
    let ignored = trace
        .iter()
        .filter(|e| matches!(e, xtuml::exec::TraceEvent::Ignored { .. }))
        .count() as u64;
    Some(Interp {
        observables: trace.observable(domain),
        clean: trace.causality_violations() == 0 && sim.dropped_events() == 0,
        dispatches,
        consumed: dispatches + ignored,
        trace,
    })
}

/// Per-class create residues (mod 8) that keep colocated classes on one
/// shard at shards ∈ {2, 4, 8}, as the fuzz runner assigns them.
fn coloc_residues(domain: &Domain, coloc: &[AssocId]) -> Vec<usize> {
    fn root(rep: &mut [usize], mut c: usize) -> usize {
        while rep[c] != c {
            rep[c] = rep[rep[c]];
            c = rep[c];
        }
        c
    }
    let mut rep: Vec<usize> = (0..domain.classes.len()).collect();
    for &a in coloc {
        let assoc = domain.association(a);
        let (x, y) = (
            root(&mut rep, assoc.from.index()),
            root(&mut rep, assoc.to.index()),
        );
        rep[x] = y;
    }
    let mut assigned = std::collections::BTreeMap::new();
    (0..rep.len())
        .map(|c| {
            let r = root(&mut rep, c);
            let next = assigned.len();
            *assigned.entry(r).or_insert(next) % 8
        })
        .collect()
}

fn sharded(
    domain: &Domain,
    tc: &TestCase,
    residues: &[usize],
    shards: usize,
) -> Option<Vec<ObservableEvent>> {
    let policy = SchedPolicy::default().with_shards(shards);
    let mut sim = ShardedSimulation::with_policy(domain, policy);
    let mut handles = Vec::with_capacity(tc.creates.len());
    let mut next = 0usize;
    for class in &tc.creates {
        let want = residues[domain.class_id(class).ok()?.index()];
        while next % 8 != want {
            sim.create(class).ok()?;
            next += 1;
        }
        handles.push(sim.create(class).ok()?);
        next += 1;
    }
    for (a, b, assoc) in &tc.relates {
        sim.relate(handles[*a], handles[*b], assoc).ok()?;
    }
    let mut stims = tc.stimuli.clone();
    stims.sort_by_key(|s| s.time);
    for st in &stims {
        sim.inject(st.time, handles[st.inst], &st.event, st.args.clone())
            .ok()?;
    }
    sim.run_to_quiescence(1).ok()?;
    sim.runtime_fallback()
        .is_none()
        .then(|| sim.trace().observable(domain))
}

fn marks_round_trip(domain: &Domain, marks: &MarkSet) -> bool {
    matches!(
        parse_marks(&print_marks(&domain.name, marks)),
        Ok((name, back)) if name == domain.name && back.diff_count(marks) == 0
    )
}

fn stim_round_trip(tc: &TestCase) -> bool {
    let Ok(back) = parse_stim(&render_stim(tc)) else {
        return false;
    };
    let mut sorted = tc.stimuli.clone();
    sorted.sort_by_key(|s| s.time);
    back.creates == tc.creates && back.relates == tc.relates && back.stimuli == sorted
}

/// Equivalence of each `(expected, actual)` pair; the events compared.
fn equivalent(pairs: &[(&[ObservableEvent], &[ObservableEvent])]) -> Option<u64> {
    let mut compared = 0;
    for (expected, actual) in pairs {
        let report = check_equivalence(expected, actual);
        if !report.is_equivalent() {
            return None;
        }
        compared += report.compared as u64;
    }
    Some(compared)
}

/// One seed through generation, round trips and every executor; the
/// case row a passing `run_spec` reports, or `None` on any failure.
fn traced_case(tr: &mut Tracer, seed: u64) -> Option<CaseStats> {
    let spec = tr.layer("fuzz.generate", || generate(seed));
    let lowered = tr.layer("fuzz.lower", || spec.lower()).ok()?;
    let printed = tr.layer("lang.print", || print_domain(&lowered));
    tr.add("lang.parse_bytes", printed.len() as f64);
    let domain = tr.layer("lang.parse", || parse_domain(&printed)).ok()?;
    let marks = spec.marks();
    let tc = spec.testcase();
    let round_trips = domain == lowered
        && tr.layer("lang.marks_roundtrip", || marks_round_trip(&domain, &marks))
        && tr.layer("fuzz.stim_roundtrip", || stim_round_trip(&tc));
    if !round_trips {
        return None;
    }
    let (ref_obs, ref_stats) = tr
        .layer("fuzz.reference", || run_reference(&domain, &tc))
        .ok()?;
    let vm = tr.layer("exec.bc", || interpret(&domain, &tc, Engine::Bc))?;
    tr.add("exec.dispatches", vm.dispatches as f64);
    let frames = tr.layer("exec.frames", || interpret(&domain, &tc, Engine::Frames))?;
    let design = tr
        .layer("mda.compile", || {
            ModelCompiler::new().compile(&domain, &marks)
        })
        .ok()?;
    let cosim = tr.layer("cosim.run", || run_compiled(&design, &tc)).ok()?;
    let mut compared = tr.layer("verify.equivalence", || {
        equivalent(&[
            (&ref_obs, &vm.observables),
            (&ref_obs, &cosim),
            (&vm.observables, &cosim),
        ])
    })?;
    let plan = tr.layer("core.effects", || analyze(&domain));
    if plan.admitted() {
        let coloc: Vec<AssocId> = plan.coloc_assocs.iter().copied().collect();
        let residues = coloc_residues(&domain, &coloc);
        for shards in [2, 4, 8] {
            let obs = tr.layer("exec.sharded", || sharded(&domain, &tc, &residues, shards))?;
            compared += tr.layer("verify.equivalence", || equivalent(&[(&ref_obs, &obs)]))?;
        }
    }
    let consistent = frames.trace == vm.trace
        && vm.clean
        && ref_stats.dispatches + ref_stats.ignored == vm.consumed;
    consistent.then_some(CaseStats {
        dispatches: vm.dispatches,
        observables: ref_obs.len() as u64,
        compared,
        admitted: plan.admitted(),
        newly_admitted: plan.admitted() && plan.uses_admission(),
    })
}

pub(crate) fn run(cfg: &Config, traced: bool) -> Outcome {
    single_threaded(
        cfg,
        traced,
        || setup(cfg),
        |sweep, tr, t| match tr {
            Some(tr) => sweep.traced_op(tr, t),
            None => sweep.op(t),
        },
        |sweep| {
            let admitted = sweep.cases.iter().filter(|c| c.stats.admitted).count();
            vec![(
                "fuzz.admitted_frac",
                admitted as f64 / sweep.cases.len() as f64,
            )]
        },
    )
}
