//! Sweeps every 2^k hardware/software partition of a k-stage pipeline,
//! verifying observable equivalence for each and printing the paper's
//! punchline as a table: the only artefact that changes between rows is
//! the mark set.
//!
//! ```text
//! cargo run --release --example repartition_sweep
//! ```

use xtuml::core::builder::pipeline_domain;
use xtuml::core::marks::MarkSet;
use xtuml::exec::SchedPolicy;
use xtuml::mda::ModelCompiler;
use xtuml::verify::{check_equivalence, run_compiled, run_model, TestCase};

const STAGES: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let domain = pipeline_domain(STAGES)?;
    let tc = TestCase::pipeline(STAGES, 4);
    let model_trace = run_model(&domain, SchedPolicy::default(), &tc)?;
    println!(
        "pipeline with {STAGES} stages; model produces {} observable event(s)\n",
        model_trace.len()
    );
    println!("| partition (1=hw) | channels | bus msgs | hw cycles | cpu cycles | equivalent |");
    println!("|------------------|----------|----------|-----------|------------|------------|");

    let mut all_ok = true;
    for mask in 0..(1u32 << STAGES) {
        let mut marks = MarkSet::new();
        for k in 0..STAGES {
            if mask & (1 << k) != 0 {
                marks.mark_hardware(&format!("Stage{k}"));
            }
        }
        let design = ModelCompiler::new().compile(&domain, &marks)?;

        let mut sys = design.instantiate();
        tc.apply(&mut sys)?;
        let stats = sys.run_to_quiescence()?;
        let report = check_equivalence(&model_trace, &sys.observables());
        all_ok &= report.is_equivalent();

        println!(
            "| {mask:0w$b} | {:>8} | {:>8} | {:>9} | {:>10} | {:>10} |",
            design.interface.channels.len(),
            stats.msgs_sw_to_hw + stats.msgs_hw_to_sw,
            stats.hw_cycles,
            stats.cpu_cycles,
            if report.is_equivalent() { "yes" } else { "NO" },
            w = STAGES,
        );
    }
    println!(
        "\nall {} partitions preserved the defined behavior: {}",
        1 << STAGES,
        all_ok
    );
    assert!(all_ok);
    // Demonstrate run_compiled for symmetry with the harness API.
    let mut marks = MarkSet::new();
    marks.mark_hardware("Stage0");
    let design = ModelCompiler::new().compile(&domain, &marks)?;
    let trace = run_compiled(&design, &tc)?;
    assert!(check_equivalence(&model_trace, &trace).is_equivalent());
    Ok(())
}
