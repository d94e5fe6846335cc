//! The verification harness: one test case, many implementations.

use crate::equivalence::{check_equivalence, EquivReport};
use xtuml_core::marks::MarkSet;
use xtuml_core::model::Domain;
use xtuml_core::testcase::TestCase;
use xtuml_exec::{ObservableEvent, SchedPolicy, Simulation};
use xtuml_mda::{CompiledDesign, MdaError, ModelCompiler};

/// Executes a test case on the abstract model interpreter; returns the
/// observable trace.
///
/// # Errors
///
/// Propagates setup and execution errors from the interpreter.
pub fn run_model(
    domain: &Domain,
    policy: SchedPolicy,
    tc: &TestCase,
) -> Result<Vec<ObservableEvent>, xtuml_core::CoreError> {
    let mut sim = Simulation::with_policy(domain, policy);
    tc.apply(&mut sim)?;
    sim.run_to_quiescence()?;
    Ok(sim.trace().observable(domain))
}

/// Executes a test case on a compiled (partitioned, co-simulated)
/// implementation; returns the merged observable trace.
///
/// # Errors
///
/// Propagates setup and co-simulation errors.
pub fn run_compiled(
    design: &CompiledDesign<'_>,
    tc: &TestCase,
) -> Result<Vec<ObservableEvent>, MdaError> {
    let mut sys = design.instantiate();
    tc.apply(&mut sys)?;
    sys.run_to_quiescence()?;
    Ok(sys.observables())
}

/// Checks a trace against a test case's expectations: per actor, the
/// observed sequence must equal the expected sequence (argument-wildcard
/// expectations match any payload). Returns the unmet expectations /
/// unexpected observations as divergences.
pub fn check_expectations(
    tc: &TestCase,
    observed: &[ObservableEvent],
) -> crate::equivalence::EquivReport {
    // Build the expected trace, reusing the per-actor comparator; wildcard
    // arguments are patched to the observed payload when the names match.
    let mut expected: Vec<ObservableEvent> = Vec::new();
    let mut counters: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    let per_actor: std::collections::BTreeMap<&str, Vec<&ObservableEvent>> = {
        let mut m: std::collections::BTreeMap<&str, Vec<&ObservableEvent>> = Default::default();
        for e in observed {
            m.entry(e.actor.as_str()).or_default().push(e);
        }
        m
    };
    for exp in &tc.expectations {
        let idx = counters.entry(exp.actor.as_str()).or_insert(0);
        let args = match &exp.args {
            Some(a) => a.clone(),
            None => per_actor
                .get(exp.actor.as_str())
                .and_then(|v| v.get(*idx))
                .filter(|o| o.event == exp.event)
                .map(|o| o.args.clone())
                .unwrap_or_default(),
        };
        *idx += 1;
        expected.push(ObservableEvent {
            actor: exp.actor.clone(),
            event: exp.event.clone(),
            args,
        });
    }
    check_equivalence(&expected, observed)
}

/// Checks interleaving-independence of a model: runs the test case under
/// `seeds` different scheduling seeds and reports whether every run's
/// observable trace is per-actor equivalent to seed 0's.
///
/// Confluence is a *model* property, not a toolchain guarantee — racy
/// models legitimately produce different observable orders. Verification
/// against a compiled implementation is only meaningful for test cases
/// whose observables this function reports as seed-independent.
///
/// The sweep runs on `jobs` worker threads. Each seeded run is
/// independent, so the verdict (and any error, taken from the lowest
/// failing seed) does not depend on `jobs`.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn explore_seeds(
    domain: &Domain,
    tc: &TestCase,
    seeds: u64,
    jobs: usize,
) -> Result<bool, xtuml_core::CoreError> {
    let base = run_model(domain, SchedPolicy::seeded(0), tc)?;
    let rest: Vec<u64> = (1..seeds).collect();
    let pool = xtuml_pool::Pool::new(jobs);
    let verdicts = pool.map(&rest, |_, &seed| {
        let t = run_model(domain, SchedPolicy::seeded(seed), tc)?;
        Ok(check_equivalence(&base, &t).is_equivalent())
    });
    for verdict in verdicts {
        if !verdict? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The complete §4 check: compile `domain` under `marks`, run the test
/// case on the abstract model and on the partitioned implementation, and
/// compare the observable traces.
///
/// # Errors
///
/// Propagates compile and run errors; an *inequivalent* trace is **not**
/// an error — it is reported in the returned [`EquivReport`].
pub fn verify_partition(
    domain: &Domain,
    marks: &MarkSet,
    tc: &TestCase,
) -> Result<EquivReport, MdaError> {
    let design = ModelCompiler::new().compile(domain, marks)?;
    let model_trace = run_model(domain, SchedPolicy::default(), tc)?;
    let impl_trace = run_compiled(&design, tc)?;
    Ok(check_equivalence(&model_trace, &impl_trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::pipeline_domain;

    #[test]
    fn pipeline_model_run_produces_outputs() {
        let d = pipeline_domain(3).unwrap();
        let tc = TestCase::pipeline(3, 4);
        let obs = run_model(&d, SchedPolicy::default(), &tc).unwrap();
        assert_eq!(obs.len(), 4);
        assert!(obs.iter().all(|o| o.actor == "SINK"));
    }

    #[test]
    fn all_software_partition_is_equivalent() {
        let d = pipeline_domain(3).unwrap();
        let tc = TestCase::pipeline(3, 4);
        let report = verify_partition(&d, &MarkSet::new(), &tc).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.divergences);
    }

    #[test]
    fn split_partition_is_equivalent() {
        let d = pipeline_domain(3).unwrap();
        let tc = TestCase::pipeline(3, 4);
        let mut marks = MarkSet::new();
        marks.mark_hardware("Stage1");
        let report = verify_partition(&d, &marks, &tc).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.divergences);
    }

    #[test]
    fn pipeline_is_confluent_racy_collector_is_not() {
        let d = pipeline_domain(3).unwrap();
        let tc = TestCase::pipeline(3, 4);
        assert!(explore_seeds(&d, &tc, 10, 1).unwrap());

        // A racy model: two senders burst at one receiver that reports a
        // running total — the totals' order depends on the interleaving.
        use xtuml_core::builder::DomainBuilder;
        use xtuml_core::value::DataType;
        let mut b = DomainBuilder::new("racy");
        b.actor("OUT").event("tot", &[("v", DataType::Int)]);
        b.class("Acc")
            .attr("n", DataType::Int)
            .event("Add", &[("v", DataType::Int)])
            .state("S", "")
            .state("T", "self.n = self.n + rcvd.v;\ngen tot(self.n) to OUT;")
            .initial("S")
            .transition("S", "Add", "T")
            .transition("T", "Add", "T");
        b.class("Src")
            .event("Go", &[("v", DataType::Int)])
            .state("I", "")
            .state("B", "select any a from Acc;\ngen Add(rcvd.v) to a;")
            .initial("I")
            .transition("I", "Go", "B")
            .transition("B", "Go", "B");
        let racy = b.build().unwrap();
        let mut tc = TestCase::new("race");
        tc.create("Acc");
        let s1 = tc.create("Src");
        let s2 = tc.create("Src");
        tc.inject(0, s1, "Go", vec![xtuml_core::Value::Int(1)]);
        tc.inject(0, s2, "Go", vec![xtuml_core::Value::Int(2)]);
        assert!(!explore_seeds(&racy, &tc, 32, 1).unwrap());

        // The parallel sweep reaches the same verdicts as the serial one.
        let ptc = TestCase::pipeline(3, 4);
        for jobs in [2, 4] {
            assert!(explore_seeds(&d, &ptc, 10, jobs).unwrap());
            assert!(!explore_seeds(&racy, &tc, 32, jobs).unwrap());
        }
    }

    #[test]
    fn every_partition_of_a_three_stage_pipeline_is_equivalent() {
        // The paper's punchline: all 2^3 mark placements preserve
        // behaviour.
        let d = pipeline_domain(3).unwrap();
        let tc = TestCase::pipeline(3, 3);
        for mask in 0..8u32 {
            let mut marks = MarkSet::new();
            for k in 0..3 {
                if mask & (1 << k) != 0 {
                    marks.mark_hardware(&format!("Stage{k}"));
                }
            }
            let report = verify_partition(&d, &marks, &tc).unwrap();
            assert!(
                report.is_equivalent(),
                "partition mask {mask:03b} diverged: {:?}",
                report.divergences
            );
        }
    }
}
