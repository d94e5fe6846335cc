//! Differential execution of one case across the three executors, plus
//! the invariant oracles.
//!
//! Executor line-up:
//!
//! 1. the **reference interpreter** ([`crate::refinterp`]) — naive AST
//!    walker, independent of all production machinery;
//! 2. the **model interpreter** (`xtuml-exec`, whose actions run on the
//!    bytecode VM);
//! 3. the **partitioned co-simulation** (`xtuml-mda` compile +
//!    hardware/software substrates over the bus bridge, running the same
//!    VM).
//!
//! Two more legs re-run the model interpreter: the checkpoint leg
//! (`--checkpoint`) and, for models the effect analysis admits, the
//! sharded engine at 2, 4 and 8 shards.
//!
//! Every production leg — interpreter, checkpoint, compiler and cosim,
//! and the sharded runs — borrows one [`Program`] built per case, so a
//! case compiles, lowers and analyses its model once. The reference
//! interpreter never reads it.
//!
//! Before any execution, the case round-trips through the textual
//! toolchain (printer → parser for model, marks and stimulus script) and
//! the *reparsed* artifacts are what actually run — so the fuzzer
//! exercises the language layer end-to-end on every case.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xtuml_core::marks::MarkSet;
use xtuml_core::testcase::{Drive, TestCase};
use xtuml_core::{AssocId, Domain, InstId, Result, Value};
use xtuml_exec::{
    ObservableEvent, Program, SchedPolicy, ShardedSimulation, Simulation, Trace, TraceEvent,
};
use xtuml_lang::{parse_domain, parse_marks, print_domain, print_marks};
use xtuml_mda::ModelCompiler;
use xtuml_verify::{check_equivalence, run_compiled, EquivReport};

use crate::corpus::{parse_stim, render_stim};
use crate::refinterp::run_reference;
use crate::spec::FuzzSpec;

/// Test-only fault injection: which event rule the model-interpreter run
/// deliberately breaks. Used to prove the differential oracle actually
/// catches scheduler bugs (and to exercise the shrinker on real
/// divergences).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ablation {
    /// No fault: all executors follow the defined semantics.
    #[default]
    None,
    /// Break per-pair send order in the model interpreter (signals
    /// between a sender–receiver pair may be consumed out of order).
    PairOrder,
}

impl Ablation {
    /// The scheduling policy the model-interpreter executor runs under.
    pub fn policy(self) -> SchedPolicy {
        match self {
            Ablation::None => SchedPolicy::default(),
            Ablation::PairOrder => SchedPolicy {
                pair_order: false,
                ..SchedPolicy::default()
            },
        }
    }

    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized spelling.
    pub fn parse(s: &str) -> Result<Ablation, String> {
        match s {
            "none" => Ok(Ablation::None),
            "pair-order" => Ok(Ablation::PairOrder),
            other => Err(format!(
                "unknown ablation `{other}` (expected `none` or `pair-order`)"
            )),
        }
    }
}

/// Aggregate effort counters for a passing case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// Transitions taken by the model interpreter.
    pub dispatches: u64,
    /// Observable signals emitted (per executor; they agree on a pass).
    pub observables: u64,
    /// Events compared across the executor pairs (sharded legs included).
    pub compared: u64,
    /// The effect analysis admitted the model to sharded execution, so
    /// the sharded differential legs ran.
    pub admitted: bool,
    /// Admission needed the effect summaries (some non-self access was
    /// proven safe) — the old syntactic reject-list would have refused.
    pub newly_admitted: bool,
}

/// The verdict on one case.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseOutcome {
    /// All oracles passed.
    Pass(CaseStats),
    /// The spec no longer lowers to a valid domain (only reachable for
    /// shrunk specs; generated specs validate by construction).
    BuildError(String),
    /// A printer→parser round trip changed the model, marks or stimuli.
    RoundTrip(String),
    /// An executor failed outright.
    ExecError {
        /// Which executor (`reference`, `interpreter`, `compiler`, `cosim`).
        executor: &'static str,
        /// Its error.
        error: String,
    },
    /// An invariant oracle failed (causality, lost signals, drops).
    OracleFailure(String),
    /// Two executors disagree on some actor's observable sequence.
    Divergence {
        /// Which executor pair (e.g. `interpreter-vs-reference`).
        pair: &'static str,
        /// The per-actor divergences.
        report: EquivReport,
    },
}

impl CaseOutcome {
    /// True for anything other than a pass.
    pub fn is_failure(&self) -> bool {
        !matches!(self, CaseOutcome::Pass(_))
    }

    /// Coarse failure class; the shrinker only accepts reductions that
    /// keep the class unchanged.
    pub fn class(&self) -> &'static str {
        match self {
            CaseOutcome::Pass(_) => "pass",
            CaseOutcome::BuildError(_) => "build-error",
            CaseOutcome::RoundTrip(_) => "round-trip",
            CaseOutcome::ExecError { .. } => "exec-error",
            CaseOutcome::OracleFailure(_) => "oracle",
            CaseOutcome::Divergence { .. } => "divergence",
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            CaseOutcome::Pass(s) => format!("pass ({} dispatches)", s.dispatches),
            CaseOutcome::BuildError(e) => format!("build error: {e}"),
            CaseOutcome::RoundTrip(e) => format!("round-trip mismatch: {e}"),
            CaseOutcome::ExecError { executor, error } => format!("{executor} failed: {error}"),
            CaseOutcome::OracleFailure(e) => format!("oracle failure: {e}"),
            CaseOutcome::Divergence { pair, report } => {
                let first = report
                    .divergences
                    .first()
                    .map_or_else(String::new, ToString::to_string);
                format!("{pair} divergence: {first}")
            }
        }
    }
}

struct ExecRun {
    observables: Vec<ObservableEvent>,
    trace: Trace,
    dispatches: u64,
    ignored: u64,
    dropped: u64,
    causality_violations: u64,
}

fn run_interpreter(
    program: &Arc<Program<'_>>,
    policy: SchedPolicy,
    tc: &TestCase,
) -> Result<ExecRun, String> {
    let mut sim = Simulation::with_program(Arc::clone(program), policy);
    tc.apply(&mut sim).map_err(|e| e.to_string())?;
    sim.run_to_quiescence().map_err(|e| e.to_string())?;
    let trace = sim.trace();
    Ok(ExecRun {
        observables: trace.observable(program.domain()),
        trace: trace.clone(),
        dispatches: trace.dispatch_count() as u64,
        ignored: trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Ignored { .. }))
            .count() as u64,
        dropped: sim.dropped_events(),
        causality_violations: trace.causality_violations() as u64,
    })
}

/// Checkpoint cadence for `--checkpoint` runs: dispatches between
/// snapshot/restore cycles. Small enough that short fuzz cases still
/// cross several checkpoints, large enough that the leg stays cheap.
const CHECKPOINT_EVERY: u64 = 5;

/// The interpreter leg again, but the simulation is serialized, dropped
/// and rebuilt from its own snapshot every [`CHECKPOINT_EVERY`]
/// dispatches, each cycle counted in `cycles`. The final trace must be
/// byte-identical to the uninterrupted run — any drift means the
/// snapshot codec lost a piece of live scheduler state.
fn run_interpreter_checkpointed(
    program: &Arc<Program<'_>>,
    policy: SchedPolicy,
    tc: &TestCase,
    cycles: &mut u64,
) -> Result<Trace, String> {
    let mut sim = Simulation::with_program(Arc::clone(program), policy);
    tc.apply(&mut sim).map_err(|e| e.to_string())?;
    let mut steps = 0u64;
    while sim.step().map_err(|e| e.to_string())? {
        steps += 1;
        if steps > 10_000_000 {
            return Err("checkpointed run exceeded 10000000 steps - livelock?".to_owned());
        }
        if steps.is_multiple_of(CHECKPOINT_EVERY) {
            let bytes = sim.snapshot();
            sim =
                Simulation::restore_with(Arc::clone(program), &bytes).map_err(|e| e.to_string())?;
            *cycles += 1;
        }
    }
    Ok(sim.trace().clone())
}

/// Per-class create residues (mod 8) that satisfy the colocation
/// precondition at shards ∈ {2, 4, 8}: classes joined by a colocation
/// association share a residue, distinct components round-robin across
/// residues so the population still spreads over the shards.
pub fn coloc_residues(domain: &Domain, coloc: &BTreeSet<AssocId>) -> Vec<usize> {
    let n = domain.classes.len();
    let mut rep: Vec<usize> = (0..n).collect();
    fn root(rep: &mut [usize], mut c: usize) -> usize {
        while rep[c] != c {
            rep[c] = rep[rep[c]];
            c = rep[c];
        }
        c
    }
    for &a in coloc {
        let assoc = domain.association(a);
        let (x, y) = (
            root(&mut rep, assoc.from.index()),
            root(&mut rep, assoc.to.index()),
        );
        rep[x] = y;
    }
    let mut assigned: BTreeMap<usize, usize> = BTreeMap::new();
    (0..n)
        .map(|c| {
            let r = root(&mut rep, c);
            let next = assigned.len();
            *assigned.entry(r).or_insert(next) % 8
        })
        .collect()
}

/// A sharded simulation and per-class residues (see [`coloc_residues`]):
/// its setup creates are padded with inert extra instances so every
/// class lands on its colocation component's index residue (mod 8). The
/// engine's runtime colocation precondition then holds at 2, 4 and 8
/// shards while distinct components still spread across shards. The
/// padding is observable-neutral: creation runs no entry action, the pad
/// instances are never related or stimulated, and fuzz-generated models
/// never `select` from a class extent.
pub struct Padded<'s, 'd>(pub &'s mut ShardedSimulation<'d>, pub &'s [usize]);

impl Drive for Padded<'_, '_> {
    type Handle = InstId;
    type Error = xtuml_core::CoreError;

    /// Creates pad instances of `class` until one gets an id on the
    /// class's residue (setup ids count up from 0), and returns that one.
    fn create(&mut self, class: &str) -> Result<InstId> {
        let want = self.1[self.0.domain().class_id(class)?.index()];
        loop {
            let inst = self.0.create(class)?;
            if inst.index() % 8 == want {
                return Ok(inst);
            }
        }
    }

    fn relate(&mut self, a: InstId, b: InstId, assoc: &str) -> Result<()> {
        self.0.relate(a, b, assoc)
    }

    fn inject(&mut self, time: u64, inst: InstId, event: &str, args: Vec<Value>) -> Result<()> {
        self.0.inject(time, inst, event, args)
    }
}

/// Runs the test case on the sharded engine at `shards` home shards on a
/// single worker (the shard count alone fixes the schedule; worker-count
/// invariance is the engine suites' job), with the setup [`Padded`].
fn run_sharded(
    program: &Arc<Program<'_>>,
    policy: SchedPolicy,
    tc: &TestCase,
    residues: &[usize],
    shards: usize,
) -> Result<Vec<ObservableEvent>, String> {
    let mut sim = ShardedSimulation::with_program(Arc::clone(program), policy.with_shards(shards));
    tc.apply(&mut Padded(&mut sim, residues))
        .map_err(|e| e.to_string())?;
    sim.run_to_quiescence(1).map_err(|e| e.to_string())?;
    if let Some(why) = sim.runtime_fallback() {
        return Err(format!(
            "statically admitted model hit the runtime fallback at shards={shards}: {why}"
        ));
    }
    Ok(sim.trace().observable(program.domain()))
}

/// Runs one case (already parsed) through all three executors and every
/// oracle. This is the entry point corpus replay shares with the
/// seed-driven path.
pub fn run_case(
    domain: &Domain,
    marks: &MarkSet,
    tc: &TestCase,
    ablation: Ablation,
    checkpoint: bool,
) -> CaseOutcome {
    run_case_counted(domain, marks, tc, ablation, checkpoint, &mut 0)
}

/// [`run_case`], adding the checkpoint leg's snapshot/restore cycles to
/// `cycles`.
fn run_case_counted(
    domain: &Domain,
    marks: &MarkSet,
    tc: &TestCase,
    ablation: Ablation,
    checkpoint: bool,
    cycles: &mut u64,
) -> CaseOutcome {
    // Executor 1: the independent reference interpreter.
    let (ref_obs, ref_stats) = match run_reference(domain, tc) {
        Ok(r) => r,
        Err(error) => {
            return CaseOutcome::ExecError {
                executor: "reference",
                error,
            }
        }
    };

    // The one compiled form of the model every production leg runs.
    let program = Arc::new(Program::new(domain));

    // Executor 2: the model interpreter, possibly with an injected
    // scheduler fault.
    let interp = match run_interpreter(&program, ablation.policy(), tc) {
        Ok(r) => r,
        Err(error) => {
            return CaseOutcome::ExecError {
                executor: "interpreter",
                error,
            }
        }
    };

    // Checkpoint leg (`--checkpoint`): the interpreter leg once more, with a
    // snapshot/restore cycle on a fixed dispatch schedule. Byte-identical
    // traces lock the snapshot codec to the live scheduler state.
    if checkpoint {
        let ck = match run_interpreter_checkpointed(&program, ablation.policy(), tc, cycles) {
            Ok(t) => t,
            Err(error) => {
                return CaseOutcome::ExecError {
                    executor: "checkpoint",
                    error,
                }
            }
        };
        if ck != interp.trace {
            let n = interp
                .trace
                .iter()
                .zip(ck.iter())
                .take_while(|(a, b)| a == b)
                .count();
            return CaseOutcome::OracleFailure(format!(
                "checkpointed interpreter trace diverges from the uninterrupted run at event {n} (uninterrupted {} events, checkpointed {})",
                interp.trace.len(),
                ck.len()
            ));
        }
    }

    // Executor 3: compile under marks, co-simulate.
    let design = match ModelCompiler::new().compile_program(&program, marks) {
        Ok(d) => d,
        Err(e) => {
            return CaseOutcome::ExecError {
                executor: "compiler",
                error: e.to_string(),
            }
        }
    };
    let cosim_obs = match run_compiled(&design, tc) {
        Ok(o) => o,
        Err(e) => {
            return CaseOutcome::ExecError {
                executor: "cosim",
                error: e.to_string(),
            }
        }
    };

    // Pairwise per-actor trace equivalence, reference as the `expected`
    // side where it participates.
    let mut compared = 0u64;
    for (pair, expected, actual) in [
        ("interpreter-vs-reference", &ref_obs, &interp.observables),
        ("cosim-vs-reference", &ref_obs, &cosim_obs),
        ("cosim-vs-interpreter", &interp.observables, &cosim_obs),
    ] {
        let report = check_equivalence(expected, actual);
        compared += report.compared as u64;
        if !report.is_equivalent() {
            return CaseOutcome::Divergence { pair, report };
        }
    }

    // Sharded legs: the model interpreter again, wherever the effect analysis
    // admits the model — the soundness oracle for admission. Every
    // admitted model must produce the reference observables at every
    // shard count; a divergence here means the analysis admitted a model
    // whose trace is *not* a pure function of `(seed, shards)`.
    let plan = program.plan();
    let admitted = plan.admitted();
    let newly_admitted = admitted && plan.uses_admission();
    if admitted && ablation == Ablation::None {
        let residues = coloc_residues(domain, &plan.coloc_assocs);
        for (shards, pair) in [
            (2usize, "sharded2-vs-reference"),
            (4, "sharded4-vs-reference"),
            (8, "sharded8-vs-reference"),
        ] {
            let obs = match run_sharded(&program, ablation.policy(), tc, &residues, shards) {
                Ok(o) => o,
                Err(error) => {
                    return CaseOutcome::ExecError {
                        executor: "sharded",
                        error,
                    }
                }
            };
            let report = check_equivalence(&ref_obs, &obs);
            compared += report.compared as u64;
            if !report.is_equivalent() {
                return CaseOutcome::Divergence { pair, report };
            }
        }
    }

    // Invariant oracles — only meaningful when no fault is injected (a
    // broken pair-order rule legitimately produces causality violations).
    if ablation == Ablation::None {
        if interp.causality_violations != 0 {
            return CaseOutcome::OracleFailure(format!(
                "{} causality violations in the interpreter trace",
                interp.causality_violations
            ));
        }
        if interp.dropped != 0 {
            return CaseOutcome::OracleFailure(format!(
                "{} dropped events in the interpreter",
                interp.dropped
            ));
        }
        // No lost signals: both implementations must consume the same
        // number of events (each event ends as a dispatch or an ignore).
        let ref_consumed = ref_stats.dispatches + ref_stats.ignored;
        let interp_consumed = interp.dispatches + interp.ignored;
        if ref_consumed != interp_consumed {
            return CaseOutcome::OracleFailure(format!(
                "lost signals: reference consumed {ref_consumed}, interpreter {interp_consumed}"
            ));
        }
    }

    CaseOutcome::Pass(CaseStats {
        dispatches: interp.dispatches,
        observables: ref_obs.len() as u64,
        compared,
        admitted,
        newly_admitted,
    })
}

/// Runs one spec end-to-end: lower, round-trip every textual artifact,
/// then [`run_case`] on the **reparsed** model.
pub fn run_spec(spec: &FuzzSpec, ablation: Ablation, checkpoint: bool) -> CaseOutcome {
    run_spec_counted(spec, ablation, checkpoint, &mut 0)
}

/// [`run_spec`], adding the checkpoint leg's snapshot/restore cycles to
/// `cycles`.
pub(crate) fn run_spec_counted(
    spec: &FuzzSpec,
    ablation: Ablation,
    checkpoint: bool,
    cycles: &mut u64,
) -> CaseOutcome {
    let domain = match spec.lower() {
        Ok(d) => d,
        Err(e) => return CaseOutcome::BuildError(e.to_string()),
    };

    // Model text round trip.
    let printed = print_domain(&domain);
    let reparsed = match parse_domain(&printed) {
        Ok(d) => d,
        Err(e) => return CaseOutcome::RoundTrip(format!("model failed to reparse: {e}")),
    };
    if reparsed != domain {
        return CaseOutcome::RoundTrip("model reparsed to a different domain".to_owned());
    }

    // Marks round trip.
    let marks = spec.marks();
    let marks_text = print_marks(&domain.name, &marks);
    match parse_marks(&marks_text) {
        Ok((name, reparsed_marks)) => {
            if name != domain.name || reparsed_marks.diff_count(&marks) != 0 {
                return CaseOutcome::RoundTrip("marks reparsed to a different set".to_owned());
            }
        }
        Err(e) => return CaseOutcome::RoundTrip(format!("marks failed to reparse: {e}")),
    }

    // Stimulus-script round trip (compares the stimuli in delivery order
    // — the script serializes in that order).
    let tc = spec.testcase();
    match parse_stim(&render_stim(&tc)) {
        Ok(back) => {
            if back.creates != tc.creates
                || back.relates != tc.relates
                || !back.stimuli.iter().eq(tc.stimuli_in_order())
            {
                return CaseOutcome::RoundTrip("stimulus script reparsed differently".to_owned());
            }
        }
        Err(e) => return CaseOutcome::RoundTrip(format!("stimulus script failed to reparse: {e}")),
    }

    run_case_counted(&reparsed, &marks, &tc, ablation, checkpoint, cycles)
}

/// Replays serialized corpus artifacts (see [`crate::corpus`]).
///
/// # Errors
///
/// Returns a description when any artifact fails to parse or the mark
/// file names a different domain.
pub fn replay(
    model: &str,
    marks: &str,
    stim: &str,
    ablation: Ablation,
    checkpoint: bool,
) -> Result<CaseOutcome, String> {
    let domain = parse_domain(model).map_err(|e| format!("model: {e}"))?;
    let (marks_domain, markset) = parse_marks(marks).map_err(|e| format!("marks: {e}"))?;
    if marks_domain != domain.name {
        return Err(format!(
            "mark file is for domain `{marks_domain}`, model is `{}`",
            domain.name
        ));
    }
    let tc = parse_stim(stim)?;
    Ok(run_case(&domain, &markset, &tc, ablation, checkpoint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn ablation_spellings() {
        assert_eq!(Ablation::parse("none").unwrap(), Ablation::None);
        assert_eq!(Ablation::parse("pair-order").unwrap(), Ablation::PairOrder);
        assert!(Ablation::parse("frobnicate").is_err());
        assert!(!Ablation::PairOrder.policy().pair_order);
        assert!(Ablation::None.policy().pair_order);
    }

    #[test]
    fn first_seeds_pass_all_oracles() {
        for seed in 0..10 {
            let outcome = run_spec(&generate(seed), Ablation::None, false);
            assert!(!outcome.is_failure(), "seed {seed}: {}", outcome.describe());
        }
    }

    #[test]
    fn checkpointed_runs_match_uninterrupted_ones() {
        // `--checkpoint` re-runs the interpreter leg with a
        // snapshot/restore cycle every few dispatches; the byte-identical
        // trace oracle must hold on healthy seeds.
        for seed in 0..8 {
            let outcome = run_spec(&generate(seed), Ablation::None, true);
            assert!(!outcome.is_failure(), "seed {seed}: {}", outcome.describe());
        }
    }

    #[test]
    fn the_effect_analysis_admits_a_healthy_share_of_generated_models() {
        // The acceptance bar for the non-self-access axis: a good share
        // of generated models must be admitted *because of* the effect
        // summaries (the syntactic reject-list refused every non-self
        // access), and the racy variant must keep producing genuinely
        // rejected models so the negative side stays covered too.
        let mut admitted = 0u32;
        let mut newly = 0u32;
        let mut rejected = 0u32;
        for seed in 0..100 {
            let spec = generate(seed);
            let domain = spec.lower().unwrap();
            let plan = xtuml_core::effects::analyze(&domain);
            if plan.admitted() {
                admitted += 1;
                if plan.uses_admission() {
                    newly += 1;
                }
            } else {
                rejected += 1;
            }
        }
        assert!(newly >= 20, "only {newly}/100 models newly admitted");
        assert!(rejected >= 3, "only {rejected}/100 models rejected");
        assert!(admitted >= 50, "only {admitted}/100 models admitted");
    }

    #[test]
    fn sharded_legs_run_for_newly_admitted_models_and_agree() {
        // End-to-end soundness sweep: every newly admitted model must
        // survive the sharded differential at 2, 4 and 8 shards (a
        // runtime fallback or divergence fails the case), and enough
        // cases must actually take that path for the oracle to mean
        // anything.
        let mut exercised = 0u32;
        for seed in 0..40 {
            let outcome = run_spec(&generate(seed), Ablation::None, false);
            let CaseOutcome::Pass(stats) = &outcome else {
                panic!("seed {seed}: {}", outcome.describe())
            };
            if stats.newly_admitted {
                exercised += 1;
            }
        }
        assert!(
            exercised >= 8,
            "only {exercised}/40 cases exercised the sharded legs"
        );
    }

    #[test]
    fn outcome_classes_are_stable() {
        let outcome = run_spec(&generate(0), Ablation::None, false);
        assert_eq!(outcome.class(), "pass");
        assert!(outcome.describe().starts_with("pass"));
    }
}
