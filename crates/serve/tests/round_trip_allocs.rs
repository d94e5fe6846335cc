//! The exact allocation guard on a served round trip: every allocation
//! a doorbell session makes on a live daemon, from the client's request
//! text through the connection thread's decode, apply and reply to the
//! client's read of it.
//!
//! The daemon's connection thread does most of the work, so the counter
//! is process-wide, and this file holds one test so that no other test
//! allocates meanwhile. One client talks to the daemon at a time, so the
//! count repeats exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use xtuml_serve::daemon::{SMOKE_MODEL, SMOKE_SETUP};
use xtuml_serve::proto::json_str;
use xtuml_serve::{Client, ServeConfig, Server, SessionCfg};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls on every thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The `serve_churn` session: create → stimulate → step → trace → close.
/// The request texts are written into `body`, which the warm-up has
/// grown, so the count is the daemon's and the replies'.
fn session(client: &mut Client, create: &str, body: &mut String) {
    let created = client.request(create).expect("create reply");
    let at = created.find("\"session\": ").expect("a session id") + 11;
    let id: u64 = created[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a numeric session id");
    for verb in ["stimulate", "step", "trace", "close"] {
        body.clear();
        let _ = write!(body, r#"{{"verb": "{verb}", "session": {id}"#);
        if verb == "stimulate" {
            body.push_str(r#", "inst": 0, "event": "Press", "time": 2042"#);
        }
        body.push('}');
        let reply = client.request(body).expect("reply");
        assert!(reply.starts_with(r#"{"ok": true"#), "{body}: {reply}");
    }
}

#[test]
fn a_served_doorbell_session_stays_within_its_allocation_count() {
    const SESSIONS: u64 = 100;
    let server = Server::start(ServeConfig {
        port: 0,
        session: SessionCfg::default(),
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let create = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}, "seed": 42}}"#,
        json_str(SMOKE_MODEL),
        json_str(SMOKE_SETUP)
    );
    // The warm-up loads the model and grows the store's tables.
    let mut body = String::new();
    for _ in 0..5 {
        session(&mut client, &create, &mut body);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..SESSIONS {
        session(&mut client, &create, &mut body);
    }
    let per_session = (ALLOCS.load(Ordering::SeqCst) - before) as f64 / SESSIONS as f64;
    assert!(
        per_session <= 125.0,
        "a served doorbell session took {per_session} allocations"
    );
}
