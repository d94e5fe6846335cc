//! Contracts of the one dispatch core both engines share: the engines
//! are `Send`, one shared `Program` serves any number of them exactly as
//! private ones would, the sharded engine honours the same scheduling policy as
//! the sequential one, setup counts the same however late a recorder
//! attaches, an action the bytecode cannot encode fails its dispatch,
//! and both snapshot kinds reject ids out of range for the domain while
//! still restoring snapshots written by the retired frame walker.

use std::sync::Arc;
use xtuml_core::builder::{pipeline_domain, DomainBuilder};
use xtuml_core::model::Domain;
use xtuml_core::value::{DataType, Value};
use xtuml_exec::snapshot::Reader;
use xtuml_exec::{
    shard_safety, Program, SchedPolicy, ShardedSimulation, Simulation, SnapError, Trace,
};
use xtuml_obs::{Clock, Recorder, Sink as _};

#[test]
fn engines_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Simulation<'static>>();
    assert_send::<ShardedSimulation<'static>>();
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Program<'static>>();
}

/// One sender bursting 50 ordered signals at a receiver on another
/// shard.
fn burst_domain() -> Domain {
    let mut b = DomainBuilder::new("m");
    b.class("Recv")
        .attr("last", DataType::Int)
        .event("Msg", &[("k", DataType::Int)])
        .state("Idle", "")
        .state("Got", "self.last = rcvd.k;")
        .initial("Idle")
        .transition("Idle", "Msg", "Got")
        .transition("Got", "Msg", "Got");
    b.class("Send")
        .event("Go", &[])
        .state("Idle", "")
        .state(
            "Burst",
            "select any r from Recv;\n\
             k = 0;\n\
             while (k < 50) { gen Msg(k) to r; k = k + 1; }",
        )
        .initial("Idle")
        .transition("Idle", "Go", "Burst");
    b.build().unwrap()
}

#[test]
fn pair_order_ablation_reorders_sharded_pairs() {
    let domain = burst_domain();
    shard_safety(&domain).unwrap();
    let violations = |pair_order: bool, seed: u64| {
        let policy = SchedPolicy {
            pair_order,
            ..SchedPolicy::seeded(seed)
        };
        let mut sim = ShardedSimulation::with_policy(&domain, policy.with_shards(2));
        sim.create("Recv").unwrap();
        let s = sim.create("Send").unwrap();
        sim.inject(0, s, "Go", vec![]).unwrap();
        sim.run_to_quiescence(2).unwrap();
        assert!(sim.runtime_fallback().is_none());
        sim.trace().causality_violations()
    };
    assert!((0..4).all(|seed| violations(true, seed) == 0));
    assert!(
        (0..10).any(|seed| violations(false, seed) > 0),
        "ablating pair order must reorder a sender-receiver pair"
    );
}

/// Sets up a four-stage pipeline with six feeds.
fn pipeline_setup(sim: &mut ShardedSimulation<'_>) {
    let insts: Vec<_> = (0..4)
        .map(|k| sim.create(&format!("Stage{k}")).unwrap())
        .collect();
    for k in 0..3 {
        sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
            .unwrap();
    }
    for i in 0..6 {
        sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
            .unwrap();
    }
}

/// The sequential engine's half of [`pipeline_setup`].
fn pipeline_setup_seq(sim: &mut Simulation<'_>) {
    let insts: Vec<_> = (0..4)
        .map(|k| sim.create(&format!("Stage{k}")).unwrap())
        .collect();
    for k in 0..3 {
        sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
            .unwrap();
    }
    for i in 0..6 {
        sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
            .unwrap();
    }
}

/// Two sequential runs and one 4-shard run on one `Program`, interleaved
/// and one of them recording spans, end byte-identical to the same runs
/// each on a private `Program`: span interning and every scratch buffer
/// live outside the shared state.
#[test]
fn one_shared_program_runs_like_private_ones() {
    let domain = pipeline_domain(4).unwrap();
    fn seq(program: Arc<Program<'_>>, seed: u64) -> Simulation<'_> {
        let mut sim = Simulation::with_program(program, SchedPolicy::seeded(seed));
        pipeline_setup_seq(&mut sim);
        sim
    }
    fn sharded(program: Arc<Program<'_>>, rec: Recorder) -> ShardedSimulation<'_> {
        let mut sim =
            ShardedSimulation::with_program(program, SchedPolicy::seeded(5).with_shards(4));
        sim.attach_recorder(rec);
        pipeline_setup(&mut sim);
        sim
    }
    let finish = |sim: &mut Simulation<'_>| -> (Trace, Vec<u8>) {
        sim.run_to_quiescence().unwrap();
        (sim.trace().clone(), sim.snapshot())
    };

    let shared = Arc::new(Program::new(&domain));
    let mut a = seq(Arc::clone(&shared), 1);
    let mut b = seq(Arc::clone(&shared), 2);
    let mut c = sharded(Arc::clone(&shared), Recorder::with_spans(Clock::start()));
    assert_eq!(Arc::strong_count(&shared), 4);
    for _ in 0..5 {
        a.step().unwrap();
    }
    let a_mid = a.snapshot();
    assert_eq!(c.run_epochs(2, 2).unwrap(), None, "paused after two epochs");
    let b_done = finish(&mut b);
    c.run_to_quiescence(2).unwrap();
    let c_done = (c.trace().clone(), c.snapshot());
    let a_done = finish(&mut a);

    let private = || Arc::new(Program::new(&domain));
    let mut a2 = seq(private(), 1);
    for _ in 0..5 {
        a2.step().unwrap();
    }
    assert_eq!(a2.snapshot(), a_mid, "seed 1, mid-run");
    assert_eq!(finish(&mut a2), a_done, "seed 1");
    assert_eq!(finish(&mut seq(private(), 2)), b_done, "seed 2");
    let mut c2 = sharded(private(), Recorder::new());
    c2.run_to_quiescence(1).unwrap();
    assert_eq!((c2.trace().clone(), c2.snapshot()), c_done, "4 shards");
    assert!(c.take_recorder().unwrap().spans_enabled());
}

#[test]
fn late_recorder_attach_counts_setup() {
    let domain = pipeline_domain(4).unwrap();
    let metrics = |shards: usize, late: bool| {
        let mut sim =
            ShardedSimulation::with_policy(&domain, SchedPolicy::seeded(3).with_shards(shards));
        if !late {
            sim.attach_recorder(Recorder::new());
        }
        pipeline_setup(&mut sim);
        if late {
            sim.attach_recorder(Recorder::new());
        }
        sim.run_to_quiescence(1).unwrap();
        sim.take_recorder().unwrap().metrics.to_json()
    };
    for shards in [1, 4] {
        let early = metrics(shards, false);
        assert!(early.contains("\"instances_created\": 4"), "{early}");
        assert_eq!(early, metrics(shards, true), "shards {shards}");
    }
}

#[test]
fn sharded_restore_rejects_out_of_range_state() {
    let domain = pipeline_domain(4).unwrap();
    let mut sim = ShardedSimulation::with_policy(&domain, SchedPolicy::seeded(1).with_shards(2));
    pipeline_setup(&mut sim);
    let mut bytes = sim.snapshot();
    ShardedSimulation::restore(&domain, &bytes).unwrap();

    // Walk the sharded snapshot up to instance 0's state id.
    let mut r = Reader::new(&bytes);
    let _header = (r.u32(), r.u32(), r.u8(), r.u64()); // magic, version, kind, fingerprint
    let _policy = (r.u64(), r.u8(), r.u8(), r.u8(), r.u32(), r.u8());
    let _clocks: Vec<_> = (0..4).map(|_| r.u64()).collect(); // max_steps, now, dropped, seq
    let _instance0 = (r.u32(), r.u32()); // instance count, class
    let at = bytes.len() - r.remaining();
    // Stage0 has two states; state 9 is out of range for the domain.
    bytes[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
    let err = ShardedSimulation::restore(&domain, &bytes).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "{err}");
}

/// One class whose only action binds `u16::MAX + 1` locals: one more
/// register than the bytecode's 16-bit operands can address.
fn wide_domain() -> Domain {
    let body: String = (0..=u16::MAX as usize)
        .map(|i| format!("v{i} = 0;\n"))
        .collect();
    let mut b = DomainBuilder::new("wide");
    b.class("C")
        .event("Go", &[])
        .state("S", &body)
        .initial("S")
        .transition("S", "Go", "S");
    b.build().unwrap()
}

#[test]
fn an_action_the_bytecode_cannot_encode_fails_its_dispatch_with_x0016() {
    let domain = wide_domain();
    let mut sim = Simulation::new(&domain);
    let c = sim.create("C").unwrap();
    sim.inject(0, c, "Go", vec![]).unwrap();
    let err = sim.run_to_quiescence().unwrap_err().to_string();
    assert!(err.contains("X0016 bc-unsupported"), "{err}");
    assert!(err.contains("C.S on Go") && err.contains("u16"), "{err}");
    // The dispatch got as far as the state change, like a block that
    // failed to compile.
    assert_eq!(sim.trace().dispatch_count(), 1);
}

/// Byte offset of the engine tag: the header (magic, version, kind,
/// fingerprint) and the policy (seed, three flags, shards) precede it.
const ENGINE_TAG_AT: usize = 4 + 4 + 1 + 8 + 8 + 3 + 4;

#[test]
fn snapshots_with_the_frame_walker_engine_tag_still_restore() {
    let domain = pipeline_domain(4).unwrap();
    let setup = |sim: &mut Simulation<'_>| {
        let insts: Vec<_> = (0..4)
            .map(|k| sim.create(&format!("Stage{k}")).unwrap())
            .collect();
        for k in 0..3 {
            sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                .unwrap();
        }
        for i in 0..6 {
            sim.inject(i, insts[0], "Feed", vec![Value::Int(i as i64)])
                .unwrap();
        }
    };
    let mut reference = Simulation::with_policy(&domain, SchedPolicy::seeded(5));
    setup(&mut reference);
    reference.run_to_quiescence().unwrap();

    let mut sim = Simulation::with_policy(&domain, SchedPolicy::seeded(5));
    setup(&mut sim);
    for _ in 0..7 {
        assert!(sim.step().unwrap());
    }
    let mut bytes = sim.snapshot();
    assert_eq!(bytes[ENGINE_TAG_AT], 1, "new snapshots carry the VM tag");

    // Tag 0 is what a run on the compiled-frame walker wrote.
    bytes[ENGINE_TAG_AT] = 0;
    let mut restored = Simulation::restore(&domain, &bytes).unwrap();
    restored.run_to_quiescence().unwrap();
    assert_eq!(restored.trace(), reference.trace());
    assert_eq!(restored.snapshot(), reference.snapshot());

    bytes[ENGINE_TAG_AT] = 2;
    let err = Simulation::restore(&domain, &bytes).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "{err}");

    // The sharded kind carries the same policy prefix.
    let mut sharded =
        ShardedSimulation::with_policy(&domain, SchedPolicy::seeded(5).with_shards(2));
    pipeline_setup(&mut sharded);
    let mut bytes = sharded.snapshot();
    bytes[ENGINE_TAG_AT] = 0;
    let mut restored = ShardedSimulation::restore(&domain, &bytes).unwrap();
    sharded.run_to_quiescence(1).unwrap();
    restored.run_to_quiescence(1).unwrap();
    assert_eq!(restored.trace(), sharded.trace());
    bytes[ENGINE_TAG_AT] = 2;
    let err = ShardedSimulation::restore(&domain, &bytes).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "{err}");
}
