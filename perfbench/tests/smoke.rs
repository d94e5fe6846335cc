//! Every workload at tiny sizes and a short window: untraced twice, then
//! traced once. One test, so the process-wide allocation counts of one
//! run never include another run's allocations.

use std::time::Duration;

use xtuml_obs::json::{parse, Value};
use xtuml_perfbench::{run, Config, Report, Scale, WORKLOADS};

/// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let field = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("a {section} metric lacks `{key}`"))
            .to_owned()
    };
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{section}`"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn smoke(workload: &str, traced: bool) -> Report {
    let cfg = Config {
        workload: workload.to_owned(),
        seed: 0,
        window: Duration::from_millis(100),
        scale: Scale::Smoke,
    };
    let report = run(&cfg, traced).expect("a known workload");
    assert!(
        report.correct && report.failed == 0 && report.attempted > 0,
        "{workload} (traced: {traced}): {}",
        report.to_json()
    );
    report
}

fn assert_reports(report: &Report, want: &[(String, String)], workload: &str) {
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    assert_eq!(got, want, "{workload}: metric names and units");
    assert!(
        report.metrics.iter().all(|m| m.value.is_finite()),
        "{workload}: {}",
        report.to_json()
    );
}

#[test]
fn every_workload_reports_every_declared_metric_and_passes_its_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let unknown = Config {
        workload: "nope".to_owned(),
        seed: 0,
        window: Duration::ZERO,
        scale: Scale::Smoke,
    };
    assert!(run(&unknown, false).is_err());
    for workload in WORKLOADS {
        let first = smoke(workload, false);
        let second = smoke(workload, false);
        for report in [&first, &second] {
            assert_reports(report, &end_to_end, workload);
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{workload}: an end-to-end metric read 0: {}",
                report.to_json()
            );
        }
        let allocs = |r: &Report| r.metric("allocs_per_op").expect("reported");
        if workload.starts_with("serve") {
            // Two clients interleave on the daemon, so a few allocations
            // (session-table nodes, channel blocks) vary with timing.
            let (a, b) = (allocs(&first), allocs(&second));
            assert!((a - b).abs() <= 0.02 * a, "{workload}: {a} vs {b}");
        } else {
            assert_eq!(allocs(&first), allocs(&second), "{workload}");
        }

        let traced = smoke(workload, true);
        assert_reports(&traced, &per_layer, workload);
        // Every layer a traced run timed is reported: the shares of the
        // op time add up to one.
        let shares: f64 = traced
            .metrics
            .iter()
            .filter(|m| m.name.ends_with("_share"))
            .map(|m| m.value)
            .sum();
        let sim_probes = ["exec.trace_share", "exec.machinery_share"]
            .iter()
            .map(|n| traced.metric(n).expect("reported"))
            .sum::<f64>();
        assert!(
            (shares - sim_probes - 1.0).abs() < 1e-6,
            "{workload}: shares add up to {}",
            shares - sim_probes
        );
        let profile = traced.profile.expect("a traced run returns its profile");
        let events = xtuml_obs::check_chrome_trace(&profile)
            .unwrap_or_else(|e| panic!("{workload}: invalid Chrome trace: {e}"));
        assert!(events > 1, "{workload}: empty trace");
    }
}
