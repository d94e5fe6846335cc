//! Acceptance tests for the conformance fuzzer (issue 4):
//!
//! * a 200-seed campaign passes on all executor pairs and renders
//!   byte-identically across runs;
//! * every generated model round-trips through the printer/parser
//!   unchanged;
//! * an intentionally injected scheduler bug (pair-order ablation) is
//!   caught by the differential oracle and shrunk to a tiny case;
//! * minimized cases serialize to corpus triples that replay to the same
//!   verdict;
//! * the effect analysis's class inference is complete on validated
//!   models: every send target resolves and no access goes untyped.

use xtuml_fuzz::{
    entry, fuzz, generate, replay, run_spec, shrink, Ablation, CaseOutcome, FuzzConfig,
};
use xtuml_lang::{parse_domain, print_domain};

#[test]
fn two_hundred_seeds_pass_and_render_deterministically() {
    let cfg = FuzzConfig {
        start: 0,
        count: 200,
        shrink: false,
        ablation: Ablation::None,
        jobs: 1,
        checkpoint: false,
    };
    let a = fuzz(&cfg);
    assert!(a.ok(), "divergences found:\n{}", a.render());
    assert_eq!(a.cases, 200);
    // Real work happened: generated machines actually dispatched and the
    // equivalence oracles actually compared events.
    assert!(a.dispatches > 200, "dispatches: {}", a.dispatches);
    assert!(a.compared > 200, "compared: {}", a.compared);
    // Byte-determinism of the whole campaign.
    let b = fuzz(&cfg);
    assert_eq!(a.render(), b.render());
}

#[test]
fn parallel_sweep_report_is_byte_identical_to_serial() {
    // Failures included: run under the pair-order ablation so the sweep
    // has real divergences to collect, and require the parallel report
    // to match the serial one byte-for-byte (seed-ordered collection).
    for ablation in [Ablation::None, Ablation::PairOrder] {
        let serial = fuzz(&FuzzConfig {
            start: 0,
            count: 60,
            shrink: false,
            ablation,
            jobs: 1,
            checkpoint: false,
        });
        for jobs in [2, 4, 8] {
            let parallel = fuzz(&FuzzConfig {
                start: 0,
                count: 60,
                shrink: false,
                ablation,
                jobs,
                checkpoint: false,
            });
            assert_eq!(
                serial.render(),
                parallel.render(),
                "jobs={jobs} ablation={ablation:?} changed the report"
            );
        }
    }
}

#[test]
fn every_generated_model_round_trips() {
    for seed in 0..100 {
        let domain = generate(seed).lower().unwrap();
        let printed = print_domain(&domain);
        let reparsed = parse_domain(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed model failed to parse: {e}"));
        assert_eq!(
            domain, reparsed,
            "seed {seed}: round trip changed the model"
        );
    }
}

#[test]
fn injected_scheduler_bug_is_caught_and_shrunk() {
    // Breaking the per-pair send-order rule in the model interpreter must
    // surface as a per-actor divergence against the reference within a
    // small seed budget...
    let seed = (0..60)
        .find(|s| {
            matches!(
                run_spec(&generate(*s), Ablation::PairOrder, false),
                CaseOutcome::Divergence { .. }
            )
        })
        .expect("pair-order ablation was not caught in seeds 0..60");
    // ...and the very same seeds must be clean without the fault.
    assert!(!run_spec(&generate(seed), Ablation::None, false).is_failure());

    let (min, stats) = shrink(&generate(seed), Ablation::PairOrder, false);
    assert!(
        min.classes.len() <= 3,
        "seed {seed}: shrank only to {} classes",
        min.classes.len()
    );
    assert!(stats.classes.1 <= stats.classes.0);
    assert!(stats.ratio() < 1.0, "shrinker made no progress");
    // The minimized case still reproduces the same failure class.
    assert!(matches!(
        run_spec(&min, Ablation::PairOrder, false),
        CaseOutcome::Divergence { .. }
    ));
}

#[test]
fn minimized_case_serializes_and_replays() {
    let seed = (0..60)
        .find(|s| run_spec(&generate(*s), Ablation::PairOrder, false).is_failure())
        .expect("no failing seed under ablation");
    let (min, _) = shrink(&generate(seed), Ablation::PairOrder, false);
    let e = entry(&min, &format!("seed{seed}-pair-order")).unwrap();
    // Serialization is deterministic.
    assert_eq!(e, entry(&min, &format!("seed{seed}-pair-order")).unwrap());
    // The triple replays: clean under the defined semantics, divergent
    // under the injected fault.
    let clean = replay(&e.model, &e.marks, &e.stim, Ablation::None, true).unwrap();
    assert!(!clean.is_failure(), "replay: {}", clean.describe());
    let faulty = replay(&e.model, &e.marks, &e.stim, Ablation::PairOrder, false).unwrap();
    assert!(matches!(faulty, CaseOutcome::Divergence { .. }));
}

/// Completeness of the one class-inference walk (`effects::ModelEffects`):
/// on a validated model every instance-directed send resolves its target
/// class and event, and every attribute access its base, so
/// `ActionEffects::unknown` stays empty. The model compiler's
/// unresolvable-target mapping error and the const-fold's
/// unknown-write guard rely on this never firing for parsed models.
#[test]
fn effect_inference_is_complete_on_validated_models() {
    use xtuml_core::effects::ModelEffects;
    use xtuml_core::model::Domain;
    fn check(what: &str, domain: &Domain) -> usize {
        let effects = ModelEffects::gather(domain);
        for site in &effects.sends {
            assert!(
                site.target.is_some() && site.event.is_some() && site.unresolved.is_none(),
                "{what}: unresolved send at {}: {site:?}",
                site.pos
            );
        }
        for eff in &effects.actions {
            assert!(
                eff.unknown.is_empty(),
                "{what}: untyped accesses in {:?}/{:?}: {:?}",
                eff.class,
                eff.state,
                eff.unknown
            );
        }
        effects.sends.len()
    }
    let files = [
        ("doorbell", include_str!("../../../models/doorbell.xtuml")),
        ("elevator", include_str!("../../../models/elevator.xtuml")),
        (
            "seed2",
            include_str!("../../../models/fuzz-corpus/seed2.xtuml"),
        ),
        (
            "seed5",
            include_str!("../../../models/fuzz-corpus/seed5.xtuml"),
        ),
        ("cycle", include_str!("../../../models/lints/cycle.xtuml")),
        ("dead", include_str!("../../../models/lints/dead.xtuml")),
        ("marked", include_str!("../../../models/lints/marked.xtuml")),
        ("race", include_str!("../../../models/lints/race.xtuml")),
        (
            "shardrace",
            include_str!("../../../models/lints/shardrace.xtuml"),
        ),
    ];
    let mut sends = 0;
    for (name, src) in files {
        let domain = parse_domain(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        sends += check(name, &domain);
    }
    for seed in 0..500 {
        let domain = generate(seed).lower().unwrap();
        sends += check(&format!("seed {seed}"), &domain);
    }
    // Real sends were checked, not an empty sweep.
    assert!(sends > 500, "only {sends} send sites");
}
