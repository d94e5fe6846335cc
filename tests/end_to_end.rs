//! End-to-end integration: textual model → parse → validate → execute →
//! mark → compile → co-simulate → verify equivalence → inspect generated
//! text. One continuous tour of the whole toolchain.

use xtuml::core::marks::{keys, ElemRef, MarkSet};
use xtuml::core::value::Value;
use xtuml::exec::{SchedPolicy, Simulation};
use xtuml::lang::{parse_domain, parse_marks, print_domain, print_marks};
use xtuml::mda::ModelCompiler;
use xtuml::verify::{check_equivalence, run_compiled, run_model, TestCase};

const MODEL: &str = r#"
domain Doorbell;

actor SPEAKER {
    signal chime(pattern: int);
}

actor LOGGER {
    func note(msg: string);
}

class Button {
    attr presses: int = 0;

    event Press();

    initial Ready;

    state Ready {
    }
    state Pressed {
        self.presses = self.presses + 1;
        c = any(self -> Chimer[R1]);
        gen Ring(self.presses) to c;
    }

    on Ready: Press -> Pressed;
    on Pressed: Press -> Pressed;
}

class Chimer {
    attr rings: int = 0;

    event Ring(pattern: int);
    event Quiet();

    initial Silent;

    state Silent {
    }
    state Chiming {
        self.rings = self.rings + 1;
        gen chime(rcvd.pattern) to SPEAKER;
        LOGGER::note("ding");
        gen Quiet() to self after 250;
    }
    state Resting {
    }

    on Silent: Ring -> Chiming;
    on Chiming: Ring -> Chiming;
    on Chiming: Quiet -> Resting;
    on Resting: Ring -> Chiming;
    on Resting: Quiet ignore;
    on Silent: Quiet ignore;
}

assoc R1: Button one -- Chimer one;
"#;

const MARKS: &str = r#"
marks for Doorbell;
mark class Chimer isHardware = true;
mark class Chimer queueDepth = 8;
mark domain cpuKhz = 120000;
mark domain hwKhz = 60000;
mark domain busLatency = 3;
"#;

fn test_case() -> TestCase {
    let mut tc = TestCase::new("three-presses");
    let b = tc.create("Button");
    let c = tc.create("Chimer");
    tc.relate(b, c, "R1");
    for i in 0..3u64 {
        tc.inject(i * 10, b, "Press", vec![]);
    }
    tc
}

#[test]
fn parse_execute_compile_cosimulate_verify() {
    // Parse the model and the marks from their separate files.
    let domain = parse_domain(MODEL).expect("model parses and validates");
    let (marks_domain, marks) = parse_marks(MARKS).expect("marks parse");
    assert_eq!(marks_domain, domain.name);

    // Execute the formal test case against the abstract model.
    let tc = test_case();
    let model_trace = run_model(&domain, SchedPolicy::default(), &tc).expect("model runs");
    let chimes = model_trace.iter().filter(|e| e.event == "chime").count();
    assert_eq!(chimes, 3);
    assert!(model_trace.iter().any(|e| e.actor == "LOGGER"));

    // Compile under the marks; check the derived artefacts.
    let design = ModelCompiler::new()
        .compile(&domain, &marks)
        .expect("compiles");
    assert_eq!(design.params.cpu_khz, 120_000);
    assert_eq!(design.params.bus_latency, 3);
    assert_eq!(design.interface.channels.len(), 1, "only Ring crosses");
    assert!(design.c_code.contains("Button_dispatch"));
    assert!(design.vhdl_code.contains("entity Chimer_fsm"));
    assert!(design
        .vhdl_code
        .contains("generic (QUEUE_DEPTH : positive := 8)"));

    // Co-simulate and compare observable traces.
    let impl_trace = run_compiled(&design, &tc).expect("cosim runs");
    let report = check_equivalence(&model_trace, &impl_trace);
    assert!(report.is_equivalent(), "{:#?}", report.divergences);
}

#[test]
fn printed_model_is_the_same_model() {
    let domain = parse_domain(MODEL).unwrap();
    let reparsed = parse_domain(&print_domain(&domain)).unwrap();
    assert_eq!(domain, reparsed);

    let (name, marks) = parse_marks(MARKS).unwrap();
    let (name2, marks2) = parse_marks(&print_marks(&name, &marks)).unwrap();
    assert_eq!(name, name2);
    assert_eq!(marks, marks2);
}

#[test]
fn moving_the_mark_moves_the_partition_not_the_model() {
    let domain = parse_domain(MODEL).unwrap();
    let tc = test_case();
    let model_trace = run_model(&domain, SchedPolicy::default(), &tc).unwrap();

    // Four placements of the two classes.
    for (button_hw, chimer_hw) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut marks = MarkSet::new();
        if button_hw {
            marks.mark_hardware("Button");
        }
        if chimer_hw {
            marks.mark_hardware("Chimer");
        }
        let design = ModelCompiler::new().compile(&domain, &marks).unwrap();
        let impl_trace = run_compiled(&design, &tc).unwrap();
        let report = check_equivalence(&model_trace, &impl_trace);
        assert!(
            report.is_equivalent(),
            "partition (button_hw={button_hw}, chimer_hw={chimer_hw}) diverged: {:?}",
            report.divergences
        );
    }
}

#[test]
fn model_level_attributes_match_cosim_attributes() {
    let domain = parse_domain(MODEL).unwrap();
    let tc = test_case();

    // Model side.
    let mut sim = Simulation::new(&domain);
    let sim_insts = tc.apply(&mut sim).unwrap();
    sim.run_to_quiescence().unwrap();

    // Cosim side (hardware chimer).
    let mut marks = MarkSet::new();
    marks.mark_hardware("Chimer");
    marks.set(ElemRef::domain(), keys::BUS_LATENCY, 2i64);
    let design = ModelCompiler::new().compile(&domain, &marks).unwrap();
    let mut sys = design.instantiate();
    let sys_insts = tc.apply(&mut sys).unwrap();
    sys.run_to_quiescence().unwrap();

    // Creation ordinal 0 is the button, 1 the chimer.
    let attr = |inst: usize, name| {
        let model = sim.attr(sim_insts[inst], name).unwrap();
        assert_eq!(model, sys.attr(sys_insts[inst], name).unwrap(), "{name}");
        model
    };
    attr(0, "presses");
    assert_eq!(attr(1, "rings"), Value::Int(3));
}
