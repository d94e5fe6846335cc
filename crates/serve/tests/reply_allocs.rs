//! Allocation bounds on the serve requests whose cost could grow with
//! something other than the requested work.
//!
//! A snapshot reply carries the snapshot hex-encoded and a `trace` reply
//! carries one rendered line per record, so a cost paid per byte or per
//! line shows up as thousands of allocations. A `restore` and a repeated
//! `create` of a loaded model reuse the model's compiled program, so
//! rebuilding it would show up as hundreds. A model no session runs any
//! more is freed once more than [`IDLE_MODELS`] such models are cached,
//! so the bytes the store retains stop growing with the number of
//! distinct model texts. Decoding a request copies each JSON string
//! once, whatever its length. Every request is applied here in process,
//! straight through [`Store::apply`], under a global allocator that
//! counts the calling thread's allocations and live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xtuml_core::builder::pipeline_domain;
use xtuml_lang::print_domain;
use xtuml_serve::daemon::{SMOKE_MODEL, SMOKE_SETUP};
use xtuml_serve::proto::json_str;
use xtuml_serve::session::IDLE_MODELS;
use xtuml_serve::{Request, SessionCfg, Store};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and the live bytes they leave, per thread.
struct Counting;

/// Adds one allocation that changed this thread's live bytes by `grow`.
fn count(grow: i64) {
    // During thread teardown the counters may be gone; skip them then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    track(grow);
}

fn track(grow: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + grow));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread
/// made meanwhile.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The bytes this thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn number(reply: &str, key: &str) -> f64 {
    let doc = xtuml_obs::json::parse(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    doc.get(key)
        .and_then(xtuml_obs::json::Value::as_num)
        .unwrap_or_else(|| panic!("reply lacks `{key}`: {reply}"))
}

/// A `create` of the 8-stage pipeline with its stages related and
/// `feeds` tokens fed into stage 0.
fn pipeline_create(feeds: usize) -> Request {
    const STAGES: usize = 8;
    let model = print_domain(&pipeline_domain(STAGES).expect("pipeline domain builds"));
    let mut setup = String::new();
    for k in 0..STAGES {
        setup.push_str(&format!("create s{k} Stage{k}\n"));
    }
    for k in 1..STAGES {
        setup.push_str(&format!("relate s{} s{k} R{k}\n", k - 1));
    }
    for t in 0..feeds {
        setup.push_str(&format!("at {t} s0 Feed {t}\n"));
    }
    Request::Create {
        model,
        setup,
        seed: 7,
        fuel: None,
    }
}

#[test]
fn large_replies_take_a_bounded_number_of_allocations() {
    // 128 tokens: each token is 8 dispatches and one actor signal, so
    // the run records over a thousand trace events.
    let mut store = Store::new(SessionCfg::default());
    let created = store.apply(&pipeline_create(128));
    assert_eq!(number(&created, "session"), 1.0);
    let stepped = store.apply(&Request::Step {
        session: 1,
        max_steps: None,
    });
    assert!(stepped.contains("\"quiescent\": true"), "{stepped}");

    let (snapshot, allocs) = allocs_in(|| store.apply(&Request::Snapshot { session: 1 }));
    assert!(number(&snapshot, "len") >= 8192.0, "{}", &snapshot[..60]);
    assert!(allocs < 100, "snapshot reply took {allocs} allocations");

    let (trace, allocs) = allocs_in(|| {
        store.apply(&Request::TraceFrom {
            session: 1,
            from: 0,
        })
    });
    assert!(number(&trace, "total") >= 1000.0);
    assert!(allocs < 100, "trace reply took {allocs} allocations");
}

#[test]
fn restore_and_a_second_create_reuse_the_compiled_model() {
    // The `serve_snapshot` session shape: 32 feeds, stepped 64 and
    // snapshotted.
    let create = pipeline_create(32);
    let mut store = Store::new(SessionCfg::default());
    assert_eq!(number(&store.apply(&create), "session"), 1.0);
    let stepped = store.apply(&Request::Step {
        session: 1,
        max_steps: Some(64),
    });
    assert_eq!(number(&stepped, "steps"), 64.0, "{stepped}");
    let snapshot = store.apply(&Request::Snapshot { session: 1 });
    let doc = xtuml_obs::json::parse(&snapshot).expect("snapshot reply is JSON");
    let hex = doc
        .get("bytes")
        .and_then(|v| v.as_str())
        .expect("hex bytes");
    let restore = Request::Restore {
        session: 1,
        hex: hex.to_owned(),
    };

    let (restored, allocs) = allocs_in(|| store.apply(&restore));
    assert_eq!(restored, "{\"ok\": true}");
    assert!(allocs < 150, "restore took {allocs} allocations");
    // The restored session re-snapshots to the bytes it came from.
    assert_eq!(store.apply(&Request::Snapshot { session: 1 }), snapshot);

    let (created, allocs) = allocs_in(|| store.apply(&create));
    assert_eq!(number(&created, "session"), 2.0, "{created}");
    assert!(allocs < 150, "a second create took {allocs} allocations");
}

#[test]
fn a_repeated_doorbell_create_stays_within_its_allocation_count() {
    // The `serve_churn` session shape on a loaded model: the setup script
    // applies straight to the simulation, building no test case. 22 is
    // the count measured when the bound was set.
    let create = Request::Create {
        model: SMOKE_MODEL.to_owned(),
        setup: SMOKE_SETUP.to_owned(),
        seed: 7,
        fuel: None,
    };
    let mut store = Store::new(SessionCfg::default());
    store.apply(&create);
    let (created, allocs) = allocs_in(|| store.apply(&create));
    assert_eq!(number(&created, "session"), 2.0, "{created}");
    assert!(allocs <= 22, "a doorbell create took {allocs} allocations");
}

fn doorbell_create(model: String) -> Request {
    Request::Create {
        model,
        setup: SMOKE_SETUP.to_owned(),
        seed: 7,
        fuel: None,
    }
}

#[test]
fn distinct_model_texts_do_not_grow_the_store() {
    // Doorbell renamed `Doorbell000` to `Doorbell199`: distinct texts of
    // one length, so every model retains the same bytes.
    let churn = |store: &mut Store, models: std::ops::Range<usize>| {
        for k in models {
            let model = SMOKE_MODEL.replacen("Doorbell", &format!("Doorbell{k:03}"), 1);
            let created = store.apply(&doorbell_create(model));
            let session = number(&created, "session") as u64;
            let closed = store.apply(&Request::Close { session });
            assert_eq!(closed, "{\"ok\": true}");
        }
    };
    let base = live_bytes();
    let mut store = Store::new(SessionCfg::default());
    churn(&mut store, 0..IDLE_MODELS + 1);
    let early = live_bytes() - base;
    churn(&mut store, IDLE_MODELS + 1..200);
    let late = live_bytes() - base;
    assert!(
        late <= early,
        "the store retains {late} bytes after 200 models, {early} after {}",
        IDLE_MODELS + 1
    );
}

#[test]
fn a_create_after_every_session_closed_is_still_a_cache_hit() {
    let create = doorbell_create(SMOKE_MODEL.to_owned());
    let mut store = Store::new(SessionCfg::default());
    store.apply(&create);
    store.apply(&create);
    for session in [1, 2] {
        let closed = store.apply(&Request::Close { session });
        assert_eq!(closed, "{\"ok\": true}");
    }
    let (created, allocs) = allocs_in(|| store.apply(&create));
    assert_eq!(number(&created, "session"), 3.0, "{created}");
    assert!(allocs <= 22, "a doorbell create took {allocs} allocations");
}

#[test]
fn decoding_a_request_copies_each_string_once() {
    // A string's allocations must not grow with its length: the doorbell
    // model is ~1 KiB of text and the restore's hex over 8 KiB.
    let create = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}, "seed": 42}}"#,
        json_str(SMOKE_MODEL),
        json_str(SMOKE_SETUP)
    );
    let (parsed, allocs) = allocs_in(|| Request::parse(&create));
    assert!(matches!(parsed, Ok(Request::Create { .. })), "{parsed:?}");
    assert!(
        allocs <= 10,
        "decoding a doorbell create took {allocs} allocations"
    );

    let mut store = Store::new(SessionCfg::default());
    store.apply(&pipeline_create(128));
    store.apply(&Request::Step {
        session: 1,
        max_steps: None,
    });
    let snapshot = store.apply(&Request::Snapshot { session: 1 });
    let doc = xtuml_obs::json::parse(&snapshot).expect("snapshot reply is JSON");
    let hex = doc
        .get("bytes")
        .and_then(|v| v.as_str())
        .expect("hex bytes");
    assert!(hex.len() >= 8192, "{} hex digits", hex.len());
    let restore = format!(r#"{{"verb": "restore", "session": 1, "bytes": "{hex}"}}"#);
    let (parsed, allocs) = allocs_in(|| Request::parse(&restore));
    assert!(matches!(parsed, Ok(Request::Restore { .. })), "{parsed:?}");
    assert!(allocs <= 8, "decoding a restore took {allocs} allocations");
}
