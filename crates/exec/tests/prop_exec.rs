//! Property tests for the execution substrate: the object store against a
//! simple reference model, and interpreter determinism.
//!
//! Runs offline on the in-repo `xtuml-prop` harness; reproduce a failure
//! with the `XTUML_PROP_SEED` value printed on panic.

use std::collections::BTreeSet;
use xtuml_core::builder::{pipeline_domain, DomainBuilder};
use xtuml_core::ids::{AttrId, ClassId, InstId};
use xtuml_core::value::{DataType, Value};
use xtuml_exec::{ObjectStore, SchedPolicy, Simulation};
use xtuml_prop::Gen;

#[derive(Debug, Clone)]
enum StoreOp {
    Create(u8),       // class index
    Delete(u8),       // instance ordinal (mod created)
    Write(u8, i64),   // instance ordinal, value
    Relate(u8, u8),   // instance ordinals
    Unrelate(u8, u8), // instance ordinals
}

fn store_op(g: &mut Gen) -> StoreOp {
    match g.below(5) {
        0 => StoreOp::Create(g.below(2) as u8),
        1 => StoreOp::Delete(g.next_u64() as u8),
        2 => StoreOp::Write(g.next_u64() as u8, g.int_in(-100, 99)),
        3 => StoreOp::Relate(g.next_u64() as u8, g.next_u64() as u8),
        _ => StoreOp::Unrelate(g.next_u64() as u8, g.next_u64() as u8),
    }
}

fn two_class_domain() -> xtuml_core::Domain {
    let mut b = DomainBuilder::new("t");
    b.class("A").attr("x", DataType::Int);
    b.class("B").attr("x", DataType::Int);
    b.association(
        "R1",
        "A",
        xtuml_core::Multiplicity::Many,
        "B",
        xtuml_core::Multiplicity::Many,
    );
    b.build().unwrap()
}

/// The store agrees with a naive reference model under arbitrary
/// operation sequences (liveness, attribute values, link symmetry).
#[test]
fn prop_store_matches_reference() {
    xtuml_prop::run("store_matches_reference", |g| {
        let n_ops = g.index(60);
        let ops: Vec<StoreOp> = (0..n_ops).map(|_| store_op(g)).collect();
        let domain = two_class_domain();
        let mut store = ObjectStore::new(domain.associations.len());
        // Reference: (class, value, alive) per instance + link set.
        let mut reference: Vec<(u8, i64, bool)> = Vec::new();
        let mut links: BTreeSet<(usize, usize)> = BTreeSet::new();
        let r1 = domain.assoc_id("R1").unwrap();

        for op in ops {
            match op {
                StoreOp::Create(class) => {
                    let id = store.create(&domain, ClassId::new(u32::from(class)));
                    assert_eq!(id.index(), reference.len());
                    reference.push((class, 0, true));
                }
                StoreOp::Delete(ord) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let i = usize::from(ord) % reference.len();
                    let result = store.delete(InstId::new(i as u32));
                    assert_eq!(result.is_ok(), reference[i].2);
                    if reference[i].2 {
                        reference[i].2 = false;
                        links.retain(|(a, b)| *a != i && *b != i);
                    }
                }
                StoreOp::Write(ord, v) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let i = usize::from(ord) % reference.len();
                    let result = store.attr_write(
                        &domain,
                        InstId::new(i as u32),
                        AttrId::new(0),
                        Value::Int(v),
                    );
                    assert_eq!(result.is_ok(), reference[i].2);
                    if reference[i].2 {
                        reference[i].1 = v;
                    }
                }
                StoreOp::Relate(oa, ob) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let a = usize::from(oa) % reference.len();
                    let b = usize::from(ob) % reference.len();
                    let (ca, cb) = (reference[a].0, reference[b].0);
                    let ok_classes = ca != cb; // R1 links A with B
                    let key = if ca == 0 { (a, b) } else { (b, a) };
                    let expect_ok =
                        reference[a].2 && reference[b].2 && ok_classes && !links.contains(&key);
                    let result =
                        store.relate(&domain, InstId::new(a as u32), InstId::new(b as u32), r1);
                    assert_eq!(result.is_ok(), expect_ok, "relate {a} {b}");
                    if expect_ok {
                        links.insert(key);
                    }
                }
                StoreOp::Unrelate(oa, ob) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let a = usize::from(oa) % reference.len();
                    let b = usize::from(ob) % reference.len();
                    let existed = links.remove(&(a, b)) || links.remove(&(b, a));
                    let result = store.unrelate(InstId::new(a as u32), InstId::new(b as u32), r1);
                    assert_eq!(result.is_ok(), existed);
                }
            }
            // Global invariants after every op.
            let live = reference.iter().filter(|(_, _, alive)| *alive).count();
            assert_eq!(store.live_count(), live);
            for (i, (class, v, alive)) in reference.iter().enumerate() {
                let id = InstId::new(i as u32);
                assert_eq!(store.is_alive(id), *alive);
                if *alive {
                    assert_eq!(store.class_of(id).unwrap().index(), usize::from(*class));
                    assert_eq!(store.attr_read(id, AttrId::new(0)).unwrap(), Value::Int(*v));
                }
            }
            for &(a, b) in &links {
                let related = store
                    .related_iter(InstId::new(a as u32), r1)
                    .unwrap()
                    .collect::<Vec<_>>();
                assert!(related.contains(&InstId::new(b as u32)));
            }
        }
    });
}

/// Same seed ⇒ byte-identical trace; and live instance counts match
/// across seeds (the pipeline never creates/deletes at run time).
#[test]
fn prop_sim_determinism() {
    xtuml_prop::run("sim_determinism", |g| {
        let stages = g.int_in(1, 4) as usize;
        let feeds = g.index(6);
        let seed = g.next_u64();
        let domain = pipeline_domain(stages).unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::with_policy(&domain, SchedPolicy::seeded(seed));
            let insts: Vec<InstId> = (0..stages)
                .map(|k| sim.create(&format!("Stage{k}")).unwrap())
                .collect();
            for k in 0..stages.saturating_sub(1) {
                sim.relate(insts[k], insts[k + 1], &format!("R{}", k + 1))
                    .unwrap();
            }
            for i in 0..feeds {
                sim.inject(i as u64, insts[0], "Feed", vec![Value::Int(i as i64)])
                    .unwrap();
            }
            sim.run_to_quiescence().unwrap();
            (sim.trace().clone(), sim.store().live_count())
        };
        let (t1, live1) = run(seed);
        let (t2, live2) = run(seed);
        assert_eq!(&t1, &t2);
        assert_eq!(live1, live2);
        assert_eq!(live1, stages);
        assert_eq!(t1.dispatch_count(), feeds * stages);
        assert_eq!(t1.causality_violations(), 0);
    });
}
