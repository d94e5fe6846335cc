//! Golden-output tests for `xtuml lint`.
//!
//! Each deliberately-buggy fixture under `models/lints/` triggers exactly
//! one lint family; the committed files under `tests/golden/` pin the
//! rendered output byte-for-byte so any drift in codes, spans, messages or
//! ordering fails loudly. Regenerate a golden by running
//! `xtuml lint <fixture> [marks]` and committing the new output — after
//! reading the diff.

use xtuml::cli::{cmd_lint, LintFormat, LintOptions};

fn lint(
    model_path: &str,
    model: &str,
    marks: Option<(&str, &str)>,
    opts: &LintOptions,
) -> (String, bool) {
    cmd_lint(model_path, model, marks, opts).expect("lint options are valid")
}

fn human(model_path: &str, model: &str, marks: Option<(&str, &str)>) -> (String, bool) {
    lint(model_path, model, marks, &LintOptions::default())
}

#[test]
fn race_fixture_matches_golden() {
    let (out, deny_hit) = human(
        "models/lints/race.xtuml",
        include_str!("../models/lints/race.xtuml"),
        None,
    );
    assert_eq!(out, include_str!("golden/race.txt"));
    assert!(!deny_hit, "races are warnings by default");
}

#[test]
fn dead_fixture_matches_golden() {
    let (out, deny_hit) = human(
        "models/lints/dead.xtuml",
        include_str!("../models/lints/dead.xtuml"),
        None,
    );
    assert_eq!(out, include_str!("golden/dead.txt"));
    assert!(!deny_hit);
}

#[test]
fn cycle_fixture_matches_golden() {
    let (out, deny_hit) = human(
        "models/lints/cycle.xtuml",
        include_str!("../models/lints/cycle.xtuml"),
        None,
    );
    assert_eq!(out, include_str!("golden/cycle.txt"));
    assert!(!deny_hit);
}

#[test]
fn marked_fixture_matches_golden_and_fails() {
    let (out, deny_hit) = human(
        "models/lints/marked.xtuml",
        include_str!("../models/lints/marked.xtuml"),
        Some((
            "models/lints/marked.marks",
            include_str!("../models/lints/marked.marks"),
        )),
    );
    assert_eq!(out, include_str!("golden/marked.txt"));
    assert!(deny_hit, "X0014 is an error: the lint run must fail");
}

#[test]
fn shardrace_fixture_matches_golden() {
    // The X0017 regression pin: a genuine cross-shard race (one
    // attribute written through two different associations from two
    // different actions) must render the two-action witness with both
    // statement spans.
    let (out, deny_hit) = human(
        "models/lints/shardrace.xtuml",
        include_str!("../models/lints/shardrace.xtuml"),
        None,
    );
    assert_eq!(out, include_str!("golden/shardrace.txt"));
    assert!(!deny_hit, "cross-shard races are warnings by default");
    assert!(out.contains("warning[X0017]"), "{out}");
    assert!(
        out.contains("witness: Producer.Left writes it at 13:9; Producer.Right writes it at 17:9"),
        "{out}"
    );
}

#[test]
fn doorbell_is_clean() {
    let (out, deny_hit) = human(
        "models/doorbell.xtuml",
        include_str!("../models/doorbell.xtuml"),
        Some((
            "models/doorbell.marks",
            include_str!("../models/doorbell.marks"),
        )),
    );
    assert_eq!(out, include_str!("golden/doorbell.txt"));
    assert!(!deny_hit);
}

#[test]
fn doorbell_json_matches_golden() {
    let opts = LintOptions {
        format: LintFormat::Json,
        ..LintOptions::default()
    };
    let (out, deny_hit) = lint(
        "models/doorbell.xtuml",
        include_str!("../models/doorbell.xtuml"),
        Some((
            "models/doorbell.marks",
            include_str!("../models/doorbell.marks"),
        )),
        &opts,
    );
    assert_eq!(out, include_str!("golden/doorbell.json"));
    assert!(!deny_hit);
}

#[test]
fn dead_json_matches_golden() {
    let opts = LintOptions {
        format: LintFormat::Json,
        ..LintOptions::default()
    };
    let (out, _) = lint(
        "models/lints/dead.xtuml",
        include_str!("../models/lints/dead.xtuml"),
        None,
        &opts,
    );
    assert_eq!(out, include_str!("golden/dead.json"));
}

/// Pins the `--format json` finding order for a *multi-file* lint run.
///
/// Findings are sorted by (rendered file, span, code): the mark-file
/// findings group together, then the model-file findings, regardless of
/// which analysis pass produced each diagnostic. This golden is the
/// regression test for implicit (`file: None`) attributions sorting
/// differently from explicit ones.
#[test]
fn marked_json_matches_golden() {
    let opts = LintOptions {
        format: LintFormat::Json,
        ..LintOptions::default()
    };
    let (out, deny_hit) = lint(
        "models/lints/marked.xtuml",
        include_str!("../models/lints/marked.xtuml"),
        Some((
            "models/lints/marked.marks",
            include_str!("../models/lints/marked.marks"),
        )),
        &opts,
    );
    assert_eq!(out, include_str!("golden/marked.json"));
    assert!(deny_hit);
    // The order is a pure function of the inputs: byte-stable across runs.
    let (again, _) = lint(
        "models/lints/marked.xtuml",
        include_str!("../models/lints/marked.xtuml"),
        Some((
            "models/lints/marked.marks",
            include_str!("../models/lints/marked.marks"),
        )),
        &opts,
    );
    assert_eq!(out, again);
}

#[test]
fn deny_all_promotes_fixture_warnings_to_failures() {
    let opts = LintOptions {
        deny: vec!["all".into()],
        ..LintOptions::default()
    };
    let (out, deny_hit) = lint(
        "models/lints/race.xtuml",
        include_str!("../models/lints/race.xtuml"),
        None,
        &opts,
    );
    assert!(deny_hit);
    assert!(out.contains("error[X0010]"), "{out}");
}

#[test]
fn elevator_warnings_do_not_fail_the_run() {
    // The shipped elevator model has real (intentional) warnings; they
    // must stay below the failure threshold so CI's lint gate passes.
    let (out, deny_hit) = human(
        "models/elevator.xtuml",
        include_str!("../models/elevator.xtuml"),
        None,
    );
    assert!(!deny_hit, "{out}");
    assert!(out.contains("0 error(s)"), "{out}");
}

/// Pins the elevator's full lint output. It is the one shipped model
/// whose actions select, iterate, delete and arm timers, so its
/// findings exercise the signal-graph and attribute-usage passes
/// (`X0009`–`X0011`) and the shard-safety passes (`X0015`, `X0017`)
/// on real action bodies.
#[test]
fn elevator_matches_golden() {
    let (out, deny_hit) = human(
        "models/elevator.xtuml",
        include_str!("../models/elevator.xtuml"),
        None,
    );
    assert_eq!(out, include_str!("golden/elevator.txt"));
    assert!(!deny_hit);
}

#[test]
fn elevator_json_matches_golden() {
    let opts = LintOptions {
        format: LintFormat::Json,
        ..LintOptions::default()
    };
    let (out, _) = lint(
        "models/elevator.xtuml",
        include_str!("../models/elevator.xtuml"),
        None,
        &opts,
    );
    assert_eq!(out, include_str!("golden/elevator.json"));
}

/// The two fuzz-corpus seeds, linted with their marks: generated models
/// with navigation, selects and cross-partition sends.
#[test]
fn corpus_seeds_match_their_goldens() {
    let cases = [
        (
            "models/fuzz-corpus/seed2.xtuml",
            include_str!("../models/fuzz-corpus/seed2.xtuml"),
            "models/fuzz-corpus/seed2.marks",
            include_str!("../models/fuzz-corpus/seed2.marks"),
            include_str!("golden/seed2.txt"),
        ),
        (
            "models/fuzz-corpus/seed5.xtuml",
            include_str!("../models/fuzz-corpus/seed5.xtuml"),
            "models/fuzz-corpus/seed5.marks",
            include_str!("../models/fuzz-corpus/seed5.marks"),
            include_str!("golden/seed5.txt"),
        ),
    ];
    for (model_path, model, marks_path, marks, golden) in cases {
        let (out, deny_hit) = human(model_path, model, Some((marks_path, marks)));
        assert_eq!(out, golden, "{model_path}");
        assert!(!deny_hit, "{model_path}");
    }
}

/// A send target no inference can resolve (`x` is bound to a scalar,
/// which typeck rejects) makes interface derivation fail for its class.
/// The mark lints skip that class instead of panicking, and still lint
/// the rest: the other class's unmarshallable cross-partition send is
/// reported.
#[test]
fn mark_lints_skip_a_class_with_an_unresolvable_send_target() {
    let model = "domain Bad;\n\
                 class C {\n\
                     event E();\n\
                     initial S;\n\
                     state S {\n\
                         x = 5;\n\
                         gen E() to x;\n\
                     }\n\
                     on S: E -> S;\n\
                 }\n\
                 class D {\n\
                     event Go();\n\
                     initial S;\n\
                     state S {\n\
                         select any h from H;\n\
                         gen Set(\"on\") to h;\n\
                     }\n\
                     on S: Go -> S;\n\
                 }\n\
                 class H {\n\
                     event Set(mode: string);\n\
                     initial S;\n\
                     state S {\n\
                     }\n\
                     on S: Set -> S;\n\
                 }\n";
    let marks =
        "marks for Bad;\nmark class C isHardware = true;\nmark class H isHardware = true;\n";
    let (out, deny_hit) = human("bad.xtuml", model, Some(("bad.marks", marks)));
    assert!(deny_hit, "{out}");
    assert!(
        out.contains("error[X0003]"),
        "typeck rejects the model: {out}"
    );
    assert!(out.contains("error[X0014]"), "{out}");
    assert!(
        out.contains("event `H.Set` crosses the partition boundary"),
        "{out}"
    );
    assert!(!out.contains("event `C.E`"), "{out}");
}
