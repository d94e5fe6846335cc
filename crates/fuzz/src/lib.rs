//! # xtuml-fuzz — conformance fuzzing for the xtUML toolchain
//!
//! The paper's translatability argument rests on one guarantee: *"the
//! defined behavior is preserved"* no matter how a model compiler maps a
//! model onto hardware and software. This crate stress-tests that
//! guarantee differentially, in the spirit of compiler fuzzers like
//! Csmith: generate random **well-formed** domains (classes, state
//! machines, actions), random mark files and random stimulus schedules
//! from a single `u64` seed, execute each case on three independent
//! executors —
//!
//! 1. a naive AST-walking **reference interpreter** ([`refinterp`]),
//! 2. the production **model interpreter** (`xtuml-exec`),
//! 3. the **partitioned co-simulation** (`xtuml-mda` + substrates),
//!
//! — and require identical per-actor observable traces
//! ([`xtuml_verify::check_equivalence`]), plus invariant oracles
//! (causality, run-to-completion accounting, no lost signals). Generated
//! cases are *confluent by construction* (see [`mod@generate`]), so **any**
//! divergence is a toolchain bug. On a failure, a greedy shrinker
//! ([`shrink()`]) minimizes the case and the result serializes to a
//! `.xtuml`/`.marks`/`.stim` triple any `xtuml` CLI can replay
//! ([`corpus`]).
//!
//! The whole pipeline is deterministic: same seed, same case, same
//! verdict, byte-identical report.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod corpus;
pub mod generate;
pub mod refinterp;
pub mod runner;
pub mod shrink;
pub mod spec;

pub use corpus::{entry, load_dir, parse_stim, render_stim, write_entry, CorpusEntry};
pub use generate::generate;
pub use refinterp::run_reference;
use runner::run_spec_counted;
pub use runner::{replay, run_case, run_spec, Ablation, CaseOutcome, CaseStats};
pub use shrink::{shrink, ShrinkStats};
pub use spec::FuzzSpec;

/// Configuration for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Number of seeds to run.
    pub count: u64,
    /// Minimize failing cases before reporting.
    pub shrink: bool,
    /// Injected scheduler fault (test-only; `None` in production runs).
    pub ablation: Ablation,
    /// Worker threads for the seed sweep. Each seed is an independent
    /// differential run, so the sweep distributes perfectly;
    /// results are collected in seed order, making the report
    /// byte-identical for any `jobs`. `1` runs strictly serially.
    pub jobs: usize,
    /// Add the checkpoint leg (`--checkpoint`): the interpreter runs a
    /// second time, snapshotting and restoring itself on a fixed
    /// dispatch schedule, and the case fails unless the restored run's
    /// trace is byte-identical to the uninterrupted one.
    pub checkpoint: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            start: 0,
            count: 100,
            shrink: false,
            ablation: Ablation::None,
            jobs: 1,
            checkpoint: false,
        }
    }
}

/// One failing case, with its (possibly minimized) spec.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The seed that produced the case.
    pub seed: u64,
    /// Outcome class (`divergence`, `oracle`, `exec-error`, ...).
    pub class: &'static str,
    /// Failure description (from the *original*, unshrunk outcome).
    pub detail: String,
    /// The spec to report — minimized when shrinking was requested.
    pub spec: FuzzSpec,
    /// Shrink statistics, when shrinking ran.
    pub shrink: Option<ShrinkStats>,
}

/// One per-seed row of the campaign (for structured metric sinks).
#[derive(Debug, Clone, Copy)]
pub struct CaseRow {
    /// The seed.
    pub seed: u64,
    /// Outcome class (`pass`, `divergence`, `oracle`, ...).
    pub class: &'static str,
    /// Effort counters (zero for failing cases).
    pub stats: CaseStats,
}

/// The result of a fuzzing campaign. [`FuzzReport::render`] is
/// deterministic for a given configuration.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// First seed run.
    pub start: u64,
    /// Seeds run.
    pub cases: u64,
    /// Failing cases, in seed order.
    pub failures: Vec<Failure>,
    /// Total interpreter dispatches across passing cases.
    pub dispatches: u64,
    /// Total observable events across passing cases.
    pub observables: u64,
    /// Total events compared by the equivalence oracles.
    pub compared: u64,
    /// Passing cases the effect analysis admitted to sharded execution
    /// (their sharded differential legs ran at 2, 4 and 8 shards).
    pub admitted: u64,
    /// Admitted cases that *needed* the effect summaries — models with
    /// proven-safe non-self access the old syntactic reject-list would
    /// have forced onto the sequential fallback.
    pub newly_admitted: u64,
    /// Per-seed outcome rows, in seed order (JSONL streaming).
    pub per_case: Vec<CaseRow>,
    /// Snapshot/restore cycles the checkpoint leg ran; `None` when the
    /// leg was off.
    pub checkpoints: Option<u64>,
}

impl FuzzReport {
    /// True when every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the campaign summary (stable ordering, no timestamps).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let end = self.start + self.cases;
        let _ = writeln!(out, "conformance fuzz: seeds {}..{}", self.start, end);
        let _ = writeln!(out, "  cases run        : {}", self.cases);
        let _ = writeln!(out, "  divergences      : {}", self.failures.len());
        let _ = writeln!(out, "  dispatches       : {}", self.dispatches);
        let _ = writeln!(out, "  observable events: {}", self.observables);
        let _ = writeln!(out, "  compared events  : {}", self.compared);
        let _ = writeln!(out, "  sharded admitted : {}", self.admitted);
        let _ = writeln!(out, "  newly admitted   : {}", self.newly_admitted);
        if let Some(n) = self.checkpoints {
            let _ = writeln!(out, "  checkpoint cycles: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL seed {}: {}", f.seed, f.detail);
            if let Some(s) = &f.shrink {
                let _ = writeln!(
                    out,
                    "    shrunk {} -> {} classes, {} -> {} stmts, {} -> {} stimuli ({} attempts)",
                    s.classes.0,
                    s.classes.1,
                    s.stmts.0,
                    s.stmts.1,
                    s.stimuli.0,
                    s.stimuli.1,
                    s.attempts
                );
            }
        }
        out
    }

    /// Streams the campaign as JSONL: one `fuzz` header row, then one
    /// `case` row per seed, in seed order. Deterministic for a given
    /// configuration — no timestamps, no host data.
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\": \"fuzz\", \"start\": {}, \"cases\": {}, \"failures\": {}, \
             \"dispatches\": {}, \"observables\": {}, \"compared\": {}, \
             \"admitted\": {}, \"newly_admitted\": {}}}",
            self.start,
            self.cases,
            self.failures.len(),
            self.dispatches,
            self.observables,
            self.compared,
            self.admitted,
            self.newly_admitted
        );
        for row in &self.per_case {
            let _ = writeln!(
                out,
                "{{\"kind\": \"case\", \"seed\": {}, \"class\": \"{}\", \"dispatches\": {}, \
                 \"observables\": {}, \"compared\": {}, \"admitted\": {}, \
                 \"newly_admitted\": {}}}",
                row.seed,
                row.class,
                row.stats.dispatches,
                row.stats.observables,
                row.stats.compared,
                row.stats.admitted,
                row.stats.newly_admitted
            );
        }
        out
    }
}

/// Runs a fuzzing campaign.
///
/// With `cfg.jobs > 1` the seeds are distributed over a worker pool;
/// each worker generates, executes and (on failure) shrinks its seeds
/// independently, and the per-seed results are folded back **in seed
/// order**, so the report is byte-identical to a serial sweep.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let seeds: Vec<u64> = (cfg.start..cfg.start + cfg.count).collect();
    let pool = xtuml_pool::Pool::new(cfg.jobs);
    let outcomes = pool.map(&seeds, |_, &seed| {
        let spec = generate(seed);
        let mut cycles = 0;
        let outcome = run_spec_counted(&spec, cfg.ablation, cfg.checkpoint, &mut cycles);
        let result = match outcome {
            CaseOutcome::Pass(stats) => Ok(stats),
            other => {
                let class = other.class();
                let detail = other.describe();
                let (min_spec, shrink_stats) = if cfg.shrink {
                    let (s, st) = shrink(&spec, cfg.ablation, cfg.checkpoint);
                    (s, Some(st))
                } else {
                    (spec, None)
                };
                // Boxed: failures are rare and `Failure` is large; don't
                // make every per-seed result carry its footprint.
                Err(Box::new(Failure {
                    seed,
                    class,
                    detail,
                    spec: min_spec,
                    shrink: shrink_stats,
                }))
            }
        };
        (result, cycles)
    });
    let mut report = FuzzReport {
        start: cfg.start,
        checkpoints: cfg.checkpoint.then_some(0),
        ..FuzzReport::default()
    };
    for (seed, (outcome, cycles)) in seeds.iter().zip(outcomes) {
        report.cases += 1;
        if let Some(n) = report.checkpoints.as_mut() {
            *n += cycles;
        }
        match outcome {
            Ok(stats) => {
                report.dispatches += stats.dispatches;
                report.observables += stats.observables;
                report.compared += stats.compared;
                report.admitted += u64::from(stats.admitted);
                report.newly_admitted += u64::from(stats.newly_admitted);
                report.per_case.push(CaseRow {
                    seed: *seed,
                    class: "pass",
                    stats,
                });
            }
            Err(failure) => {
                report.per_case.push(CaseRow {
                    seed: *seed,
                    class: failure.class,
                    stats: CaseStats::default(),
                });
                report.failures.push(*failure);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            start: 0,
            count: 15,
            ..FuzzConfig::default()
        };
        let a = fuzz(&cfg);
        let b = fuzz(&cfg);
        assert!(a.ok(), "{}", a.render());
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("cases run        : 15"));
        assert!(a.admitted >= a.newly_admitted);
        assert!(a.render().contains("sharded admitted : "));
        assert!(a.render_jsonl().contains("\"newly_admitted\": "));
        assert!(!a.render().contains("checkpoint cycles"));
    }

    #[test]
    fn the_checkpoint_leg_reports_its_cycles() {
        let cfg = FuzzConfig {
            start: 0,
            count: 15,
            checkpoint: true,
            ..FuzzConfig::default()
        };
        let report = fuzz(&cfg);
        let cycles = report.checkpoints.expect("the leg ran");
        assert!(cycles > 0, "{}", report.render());
        let line = format!("  checkpoint cycles: {cycles}\n");
        assert!(report.render().contains(&line), "{}", report.render());
    }
}
