//! Contracts of the one dispatch core both engines share: the engines
//! are `Send`, the sharded engine honours the same scheduling policy as
//! the sequential one, setup counts the same however late a recorder
//! attaches, and both snapshot kinds reject ids out of range for the
//! domain.

use xtuml_core::builder::{pipeline_domain, DomainBuilder};
use xtuml_core::model::Domain;
use xtuml_core::value::{DataType, Value};
use xtuml_exec::snapshot::Reader;
use xtuml_exec::{shard_safety, SchedPolicy, ShardedSimulation, Simulation, SnapError};
use xtuml_obs::Recorder;

#[test]
fn engines_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Simulation<'static>>();
    assert_send::<ShardedSimulation<'static>>();
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
