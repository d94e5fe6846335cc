//! Snapshot/restore conformance sweep (DESIGN §15).
//!
//! The snapshot contract: `restore(snapshot(sim))` continues
//! **byte-identically** to an uninterrupted run, at any legal capture
//! point — any dispatch boundary for the sequential engine, any epoch
//! barrier for the sharded one. This suite locks the contract across the
//! checked-in fuzz corpus plus a sweep of generated models, at shard
//! counts 1, 2 and 4, and checks the failure side too: corrupted or
//! truncated snapshots must decode to a structured [`SnapError`], never
//! a panic or a silently wrong simulation.

mod common;

use common::cases;
use xtuml_core::Domain;
use xtuml_exec::{SchedPolicy, ShardedSimulation, Simulation, SnapError};
use xtuml_fuzz::generate;
use xtuml_fuzz::runner::{coloc_residues, Padded};
use xtuml_verify::TestCase;

/// Generated-model sweep width (seeds `0..FUZZ_SEEDS`).
const FUZZ_SEEDS: u64 = 32;

/// Scheduler seed for every run in this suite; any value works, the
/// point is that both sides of each comparison share it.
const SEED: u64 = 7;

fn setup_seq<'d>(domain: &'d Domain, tc: &TestCase) -> Simulation<'d> {
    let mut sim = Simulation::with_policy(domain, SchedPolicy::seeded(SEED));
    tc.apply(&mut sim).expect("setup");
    sim
}

#[test]
fn sequential_snapshots_restore_byte_identically_at_every_cut() {
    for (name, domain, tc) in &cases(FUZZ_SEEDS) {
        // The uninterrupted reference run, stepped so the dispatch count
        // is known.
        let mut reference = setup_seq(domain, tc);
        let mut total = 0u64;
        while reference.step().expect("reference step") {
            total += 1;
            assert!(total < 1_000_000, "{name}: runaway reference run");
        }
        let want = reference.trace().clone();

        // Cut the run at the start, after one dispatch, and mid-stream;
        // restore must continue to the identical trace each time.
        for cut in [0, 1.min(total), total / 2] {
            let mut sim = setup_seq(domain, tc);
            for _ in 0..cut {
                assert!(sim.step().expect("step before cut"));
            }
            let bytes = sim.snapshot();
            let mut restored = Simulation::restore(domain, &bytes)
                .unwrap_or_else(|e| panic!("{name}: restore at cut {cut} failed: {e}"));
            assert_eq!(
                restored.snapshot(),
                bytes,
                "{name}: re-snapshot differs at cut {cut}"
            );
            restored
                .run_to_quiescence()
                .expect("continue after restore");
            assert_eq!(
                restored.trace(),
                &want,
                "{name}: trace diverged after restore at cut {cut}"
            );
        }

        // At quiescence the snapshot is a fixed point: the restored
        // simulation has nothing left to do and the trace is complete.
        let bytes = reference.snapshot();
        let mut restored = Simulation::restore(domain, &bytes).expect("restore at quiescence");
        assert_eq!(restored.run_to_quiescence().expect("idle run"), 0, "{name}");
        assert_eq!(restored.trace(), &want, "{name}: quiescent trace differs");
    }
}

fn setup_sharded<'d>(
    domain: &'d Domain,
    tc: &TestCase,
    residues: &[usize],
    shards: usize,
) -> ShardedSimulation<'d> {
    let mut sim =
        ShardedSimulation::with_policy(domain, SchedPolicy::seeded(SEED).with_shards(shards));
    tc.apply(&mut Padded(&mut sim, residues)).expect("setup");
    sim
}

#[test]
fn sharded_snapshots_restore_byte_identically_at_epoch_barriers() {
    let mut pauses = 0u64;
    for (name, domain, tc) in &cases(FUZZ_SEEDS) {
        let plan = xtuml_core::effects::analyze(domain);
        if !plan.admitted() {
            continue;
        }
        let residues = coloc_residues(domain, &plan.coloc_assocs);
        for shards in [1usize, 2, 4] {
            let mut reference = setup_sharded(domain, tc, &residues, shards);
            reference.run_to_quiescence(1).expect("reference run");
            if shards > 1 && reference.runtime_fallback().is_some() {
                continue;
            }
            let want = reference.trace().clone();

            // Pause at every epoch barrier, snapshot, tear the engine
            // down, rebuild it from the bytes and continue. (At shards
            // == 1 the engine delegates to the sequential schedule and
            // finishes in one call — the quiescent round trip below
            // still applies.)
            let mut sim = setup_sharded(domain, tc, &residues, shards);
            loop {
                match sim.run_epochs(1, 1).expect("epoch") {
                    Some(_) => break,
                    None => {
                        pauses += 1;
                        let bytes = sim.snapshot();
                        sim = ShardedSimulation::restore(domain, &bytes).unwrap_or_else(|e| {
                            panic!("{name} at {shards} shards: restore failed: {e}")
                        });
                        assert_eq!(
                            sim.snapshot(),
                            bytes,
                            "{name} at {shards} shards: re-snapshot differs"
                        );
                    }
                }
            }
            assert_eq!(
                sim.trace(),
                &want,
                "{name} at {shards} shards: trace diverged across restores"
            );

            // Quiescent snapshots round-trip too.
            let bytes = sim.snapshot();
            let restored =
                ShardedSimulation::restore(domain, &bytes).expect("restore at quiescence");
            assert_eq!(restored.trace(), &want, "{name}: quiescent trace differs");
        }
    }
    assert!(
        pauses >= 32,
        "only {pauses} epoch pauses across the sweep — the barrier path is undertested"
    );
}

#[test]
fn corrupt_and_truncated_snapshots_are_structured_errors() {
    let spec = generate(0);
    let domain = spec.lower().unwrap();
    let tc = spec.testcase();
    let mut sim = setup_seq(&domain, &tc);
    sim.run_to_quiescence().expect("run");
    let bytes = sim.snapshot();

    // Every strict prefix is a structured decode error, never a panic.
    for cut in 0..bytes.len() {
        assert!(
            Simulation::restore(&domain, &bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored"
        );
    }

    // Header-field corruption maps to the specific error classes.
    assert_eq!(
        Simulation::restore(&domain, b"junk").unwrap_err(),
        SnapError::BadMagic
    );
    let mut v = bytes.clone();
    v[4] = 99; // version field
    assert_eq!(
        Simulation::restore(&domain, &v).unwrap_err(),
        SnapError::BadVersion(99)
    );
    let mut k = bytes.clone();
    k[8] = 7; // kind byte
    assert_eq!(
        Simulation::restore(&domain, &k).unwrap_err(),
        SnapError::BadKind(7)
    );

    // A sequential snapshot is not a sharded one, and vice versa.
    assert!(ShardedSimulation::restore(&domain, &bytes).is_err());
    let sharded = ShardedSimulation::with_policy(&domain, SchedPolicy::seeded(SEED).with_shards(2));
    assert!(Simulation::restore(&domain, &sharded.snapshot()).is_err());

    // A structurally different domain is a fingerprint mismatch.
    let other = generate(1).lower().unwrap();
    assert_eq!(
        Simulation::restore(&other, &bytes).unwrap_err(),
        SnapError::DomainMismatch
    );

    // Byte flips anywhere in the payload must decode to an error or to
    // some valid state — never panic, never allocate absurdly.
    for pos in (12..bytes.len()).step_by(3) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0xFF;
        let _ = Simulation::restore(&domain, &flipped);
    }
}
