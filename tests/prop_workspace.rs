//! Workspace-level property tests: random models and random partitions
//! preserve behaviour; the textual format round-trips; the mark algebra
//! behaves.
//!
//! Runs offline on the in-repo `xtuml-prop` harness; reproduce a failure
//! with the `XTUML_PROP_SEED` value printed on panic.

use xtuml::core::builder::pipeline_domain;
use xtuml::core::marks::{ElemRef, MarkSet, MarkValue};
use xtuml::core::Value;
use xtuml::exec::SchedPolicy;
use xtuml::fuzz::{parse_stim, render_stim, run_reference};
use xtuml::lang::{parse_domain, print_domain};
use xtuml::mda::ModelCompiler;
use xtuml::verify::{check_equivalence, run_compiled, run_model, verify_partition, TestCase};

/// Any partition of any small pipeline preserves observable behaviour.
#[test]
fn prop_partition_invariance() {
    xtuml_prop::run_with("partition_invariance", xtuml_prop::DEFAULT_BASE, 24, |g| {
        let stages = g.int_in(1, 4) as usize;
        let mask = g.below(32) as u32 & ((1 << stages) - 1);
        let feeds = g.int_in(1, 4) as usize;
        let domain = pipeline_domain(stages).unwrap();
        let tc = TestCase::pipeline(stages, feeds);
        let mut marks = MarkSet::new();
        for k in 0..stages {
            if mask & (1 << k) != 0 {
                marks.mark_hardware(&format!("Stage{k}"));
            }
        }
        let report = verify_partition(&domain, &marks, &tc).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.divergences);
    });
}

/// The model interpreter is deterministic per seed and confluent for the
/// pipeline across seeds.
#[test]
fn prop_seed_determinism() {
    xtuml_prop::run("seed_determinism", |g| {
        let stages = g.int_in(1, 4) as usize;
        let feeds = g.int_in(1, 5) as usize;
        let seed = g.below(1000);
        let domain = pipeline_domain(stages).unwrap();
        let tc = TestCase::pipeline(stages, feeds);
        let a = run_model(&domain, SchedPolicy::seeded(seed), &tc).unwrap();
        let b = run_model(&domain, SchedPolicy::seeded(seed), &tc).unwrap();
        assert_eq!(&a, &b);
        let c = run_model(&domain, SchedPolicy::seeded(seed.wrapping_add(1)), &tc).unwrap();
        assert!(check_equivalence(&a, &c).is_equivalent());
    });
}

/// Printing any generated pipeline model and reparsing yields the same
/// model.
#[test]
fn prop_model_print_parse_roundtrip() {
    xtuml_prop::run("model_print_parse_roundtrip", |g| {
        let stages = g.int_in(1, 6) as usize;
        let domain = pipeline_domain(stages).unwrap();
        let printed = print_domain(&domain);
        let reparsed = parse_domain(&printed).unwrap();
        assert_eq!(domain, reparsed);
    });
}

/// Mark-set diff is a metric-like edit distance: zero iff equal,
/// symmetric.
#[test]
fn prop_markset_diff() {
    xtuml_prop::run("markset_diff", |g| {
        let n = g.index(6);
        let keys: Vec<String> = (0..n).map(|_| g.ident(6)).collect();
        let vals: Vec<i64> = (0..n).map(|_| g.int_in(-5, 4)).collect();
        let mut a = MarkSet::new();
        for (k, v) in keys.iter().zip(&vals) {
            a.set(ElemRef::class("C"), k.clone(), MarkValue::Int(*v));
        }
        let b = a.clone();
        assert_eq!(a.diff_count(&b), 0);
        let mut c = a.clone();
        c.set(ElemRef::class("C"), "zzextra", true);
        assert_eq!(a.diff_count(&c), 1);
        assert_eq!(c.diff_count(&a), 1);
    });
}

/// Injecting the same stimuli in any order gives the trace of the
/// hand-sorted case on the model, the compiled system and the reference
/// interpreter: a test case applies its stimuli by time, ties in the
/// order they were added.
#[test]
fn prop_stimulus_order_irrelevant() {
    xtuml_prop::run("stimulus_order_irrelevant", |g| {
        let domain = pipeline_domain(2).unwrap();
        let design = ModelCompiler::new()
            .compile(&domain, &MarkSet::new())
            .unwrap();
        // Five feeds over three times, so some tie; payloads tell them apart.
        let mut feeds: Vec<(u64, i64)> = (0..5).map(|v| (g.below(3), v)).collect();
        // Fisher-Yates with harness randomness.
        for i in (1..feeds.len()).rev() {
            let j = g.index(i + 1);
            feeds.swap(i, j);
        }
        let (mut shuffled, mut sorted) = (TestCase::pipeline(2, 0), TestCase::pipeline(2, 0));
        for &(t, v) in &feeds {
            shuffled.inject(t, 0, "Feed", vec![Value::Int(v)]);
        }
        // The last stage sends each token, incremented once, to SINK.
        let mut want = Vec::new();
        for time in 0..3 {
            for &(t, v) in feeds.iter().filter(|f| f.0 == time) {
                sorted.inject(t, 0, "Feed", vec![Value::Int(v)]);
                want.push(vec![Value::Int(v + 1)]);
            }
        }
        let model = |tc| run_model(&domain, SchedPolicy::default(), tc).unwrap();
        let got: Vec<_> = model(&shuffled).into_iter().map(|o| o.args).collect();
        assert_eq!(got, want);
        assert_eq!(model(&shuffled), model(&sorted));
        let compiled = |tc| run_compiled(&design, tc).unwrap();
        assert_eq!(compiled(&shuffled), compiled(&sorted));
        let reference = |tc| run_reference(&domain, tc).unwrap();
        assert_eq!(reference(&shuffled), reference(&sorted));
    });
}

/// A scalar stimulus argument: ints across the whole `i64` range, bools,
/// reals (whole, negative, fractional and arbitrary finite bit patterns)
/// and whitespace-free printable ASCII strings, `"` and `\` included:
/// the grammar takes a string's text between its quotes as is.
fn stim_arg(g: &mut xtuml_prop::Gen) -> Value {
    match g.below(7) {
        0 => Value::Int(g.next_u64() as i64),
        1 => Value::Int(g.int_in(-20, 20)),
        2 => Value::Bool(g.flip()),
        3 => Value::Real(g.int_in(-1000, 1000) as f64),
        4 => Value::Real(g.int_in(-100_000, 100_000) as f64 / 64.0),
        5 => Value::Real(
            Some(f64::from_bits(g.next_u64()))
                .filter(|r| r.is_finite())
                .unwrap_or(0.5),
        ),
        _ => {
            let len = g.index(6);
            let text = (0..len)
                .map(|_| char::from(b'!' + g.below(94) as u8))
                .collect();
            Value::Str(text)
        }
    }
}

/// Rendering any test case as a stimulus script and reading it back
/// yields the same test case (stimuli generated in time order, the order
/// the script is written in).
#[test]
fn prop_stim_render_parse_roundtrip() {
    xtuml_prop::run("stim_render_parse_roundtrip", |g| {
        let mut tc = TestCase::new("replay");
        let n = 1 + g.index(4);
        for _ in 0..n {
            let class = format!("C{}", g.ident(4));
            tc.create(&class);
        }
        for _ in 0..g.index(3) {
            let (a, b) = (g.index(n), g.index(n));
            tc.relate(a, b, &format!("R{}", g.below(9)));
        }
        let mut time = 0;
        for _ in 0..g.index(6) {
            time += g.below(50);
            let arity = g.index(4);
            let args = g.vec_of(arity, stim_arg);
            tc.inject(time, g.index(n), &g.ident(5), args);
        }
        let text = render_stim(&tc);
        assert_eq!(parse_stim(&text).as_ref(), Ok(&tc), "{text}");
    });
}
