//! Session-conformance suite for the serve daemon (DESIGN §15).
//!
//! Covers the wire contract verb by verb against a live loopback
//! server: golden replies, structured rejection of malformed and
//! oversized frames, explicit backpressure when a session queue fills,
//! fuel exhaustion, idle eviction round-trips, and session isolation —
//! two sessions with the same seed produce identical traces no matter
//! how a third tenant's requests interleave between them, or how
//! concurrent clients' requests interleave — and the connection cap.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xtuml_serve::{frame, Client, Request, ServeConfig, Server, SessionCfg, Store, MAX_FRAME};

const MODEL: &str = "domain Tiny;\n\
    actor OUT { signal out(v: int); }\n\
    class C {\n\
        attr n: int = 0;\n\
        event E(v: int);\n\
        initial S;\n\
        state S { }\n\
        state T { self.n = self.n + rcvd.v; gen out(self.n) to OUT; }\n\
        on S: E -> T;\n\
        on T: E -> T;\n\
    }\n";

const SETUP: &str = "create c C\nat 0 c E 1\nat 10 c E 2\n";

fn start(session: SessionCfg) -> (Server, Client) {
    let server = Server::start(ServeConfig { port: 0, session }).expect("bind loopback");
    let client = Client::connect(server.addr()).expect("connect");
    (server, client)
}

fn create_req(seed: u64, fuel: Option<u64>) -> String {
    let fuel = fuel.map_or(String::from("null"), |f| f.to_string());
    format!(
        r#"{{"verb": "create", "model": {}, "setup": {}, "seed": {seed}, "fuel": {fuel}}}"#,
        xtuml_serve::proto::json_str(MODEL),
        xtuml_serve::proto::json_str(SETUP),
    )
}

fn get<'a>(reply: &'a xtuml_obs::json::Value, key: &str) -> &'a xtuml_obs::json::Value {
    reply
        .get(key)
        .unwrap_or_else(|| panic!("reply lacks `{key}`"))
}

fn parsed(reply: &str) -> xtuml_obs::json::Value {
    xtuml_obs::json::parse(reply).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}"))
}

#[test]
fn every_verb_answers_its_golden_reply() {
    let (_server, mut c) = start(SessionCfg::default());

    assert_eq!(c.request(r#"{"verb": "ping"}"#).unwrap(), r#"{"ok": true}"#);
    assert_eq!(
        c.request(&create_req(9, None)).unwrap(),
        r#"{"ok": true, "session": 1, "instances": 1}"#
    );
    assert_eq!(
        c.request(r#"{"verb": "step", "session": 1}"#).unwrap(),
        r#"{"ok": true, "steps": 2, "quiescent": true, "now": 11, "fuel_left": 999998}"#
    );
    assert_eq!(
        c.request(
            r#"{"verb": "stimulate", "session": 1, "inst": 0, "event": "E", "args": [5], "time": 20}"#
        )
        .unwrap(),
        r#"{"ok": true, "pending": 1}"#
    );

    let stats = parsed(&c.request(r#"{"verb": "stats", "session": 1}"#).unwrap());
    assert_eq!(get(&stats, "pending").as_num(), Some(1.0));
    assert_eq!(get(&stats, "steps").as_num(), Some(2.0));
    assert_eq!(get(&stats, "dropped").as_num(), Some(0.0));
    let metrics = get(&stats, "metrics");
    assert_eq!(get(metrics, "dispatched").as_num(), Some(2.0));

    // The trace is complete and renders from any suffix index.
    let trace = parsed(&c.request(r#"{"verb": "trace", "session": 1}"#).unwrap());
    let events = get(&trace, "events").as_arr().expect("events array");
    assert_eq!(get(&trace, "total").as_num(), Some(events.len() as f64));
    assert!(events[0].as_str().unwrap().contains("create I0 : C"));
    let tail_req = format!(
        r#"{{"verb": "trace", "session": 1, "from": {}}}"#,
        events.len() - 1
    );
    let tail = parsed(&c.request(&tail_req).unwrap());
    assert_eq!(get(&tail, "events").as_arr().unwrap().len(), 1);

    // Snapshot replies carry the codec bytes hex-encoded; restore
    // rewinds to them and a re-snapshot returns the identical hex.
    let snap = parsed(&c.request(r#"{"verb": "snapshot", "session": 1}"#).unwrap());
    let hex = get(&snap, "bytes").as_str().expect("hex bytes").to_owned();
    assert_eq!(get(&snap, "len").as_num(), Some(hex.len() as f64 / 2.0));
    assert_eq!(
        c.request(r#"{"verb": "step", "session": 1}"#).unwrap(),
        r#"{"ok": true, "steps": 1, "quiescent": true, "now": 21, "fuel_left": 999997}"#
    );
    let restore = format!(r#"{{"verb": "restore", "session": 1, "bytes": "{hex}"}}"#);
    assert_eq!(c.request(&restore).unwrap(), r#"{"ok": true}"#);
    let again = parsed(&c.request(r#"{"verb": "snapshot", "session": 1}"#).unwrap());
    assert_eq!(get(&again, "bytes").as_str(), Some(hex.as_str()));

    assert_eq!(
        c.request(r#"{"verb": "close", "session": 1}"#).unwrap(),
        r#"{"ok": true}"#
    );
    assert_eq!(
        c.request(r#"{"verb": "close", "session": 1}"#).unwrap(),
        r#"{"ok": false, "error": "no session 1"}"#
    );
}

#[test]
fn request_level_errors_are_replies_not_disconnects() {
    let (_server, mut c) = start(SessionCfg::default());
    for (req, want) in [
        ("not json at all", "malformed JSON"),
        (r#"{"x": 1}"#, "missing `verb`"),
        (r#"{"verb": "frobnicate"}"#, "unknown verb"),
        (r#"{"verb": "step"}"#, "missing `session`"),
        (r#"{"verb": "step", "session": 99}"#, "no session 99"),
        (
            r#"{"verb": "restore", "session": 1, "bytes": "zz"}"#,
            "no session 1",
        ),
    ] {
        let reply = parsed(&c.request(req).unwrap());
        assert_eq!(get(&reply, "ok").as_bool(), Some(false), "{req}");
        assert!(
            get(&reply, "error").as_str().unwrap().contains(want),
            "{req} answered {reply:?}"
        );
    }
    // The connection survived all of it.
    assert_eq!(c.request(r#"{"verb": "ping"}"#).unwrap(), r#"{"ok": true}"#);

    // A model that does not parse is a create-time error.
    let bad = r#"{"verb": "create", "model": "domain Broken", "setup": ""}"#;
    let reply = parsed(&c.request(bad).unwrap());
    assert!(get(&reply, "error").as_str().unwrap().contains("parse"));

    // A setup script referencing unknown names is rejected with its line.
    let req = format!(
        r#"{{"verb": "create", "model": {}, "setup": "create c C\nrelate c ghost R1\n"}}"#,
        xtuml_serve::proto::json_str(MODEL)
    );
    let reply = parsed(&c.request(&req).unwrap());
    assert!(get(&reply, "error").as_str().unwrap().contains("line 2"));
}

#[test]
fn restoring_out_of_range_ids_is_an_error_reply() {
    let (_server, mut c) = start(SessionCfg::default());
    c.request(&create_req(3, None)).unwrap();
    let snap = parsed(&c.request(r#"{"verb": "snapshot", "session": 1}"#).unwrap());
    let mut bytes = xtuml_serve::proto::from_hex(get(&snap, "bytes").as_str().unwrap()).unwrap();

    // Walk the sequential snapshot up to instance 0's state id.
    let mut r = xtuml_exec::snapshot::Reader::new(&bytes);
    let _header = (r.u32(), r.u32(), r.u8(), r.u64()); // magic, version, kind, fingerprint
    let _policy = (r.u64(), r.u8(), r.u8(), r.u8(), r.u32(), r.u8());
    let _clocks: Vec<_> = (0..5).map(|_| r.u64()).collect(); // now, seq, dropped, max_steps, rng
    let _instance0 = (r.u32(), r.u32()); // instance count, class
    let at = bytes.len() - r.remaining();
    // Class C has two states; state 7 is out of range for the domain.
    bytes[at..at + 4].copy_from_slice(&7u32.to_le_bytes());

    let restore = format!(
        r#"{{"verb": "restore", "session": 1, "bytes": "{}"}}"#,
        xtuml_serve::proto::to_hex(&bytes)
    );
    let reply = parsed(&c.request(&restore).unwrap());
    assert_eq!(get(&reply, "ok").as_bool(), Some(false));
    assert!(
        get(&reply, "error")
            .as_str()
            .unwrap()
            .contains("corrupt snapshot"),
        "{reply:?}"
    );
    // The session keeps its state and keeps stepping.
    assert_eq!(
        c.request(r#"{"verb": "step", "session": 1}"#).unwrap(),
        r#"{"ok": true, "steps": 2, "quiescent": true, "now": 11, "fuel_left": 999998}"#
    );
}

#[test]
fn oversized_frames_get_one_error_then_the_connection_closes() {
    let (server, _keep) = start(SessionCfg::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
    raw.write_all(&huge).unwrap();
    raw.flush().unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let reply = frame::read_frame(&mut reader, MAX_FRAME)
        .unwrap()
        .expect("error frame");
    let reply = parsed(std::str::from_utf8(&reply).unwrap());
    assert_eq!(get(&reply, "ok").as_bool(), Some(false));
    assert!(get(&reply, "error").as_str().unwrap().contains("exceeds"));
    // After the error frame the server hangs up: next read is EOF.
    assert!(frame::read_frame(&mut reader, MAX_FRAME).unwrap().is_none());
}

#[test]
fn non_utf8_frames_are_structured_errors() {
    let (_server, mut c) = start(SessionCfg::default());
    // Client::request only sends strings; drive the frame layer directly.
    let mut raw = TcpStream::connect(_server.addr()).unwrap();
    frame::write_frame(&mut raw, &[0xFF, 0xFE, 0x00]).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let reply = frame::read_frame(&mut reader, MAX_FRAME)
        .unwrap()
        .expect("reply");
    assert!(std::str::from_utf8(&reply).unwrap().contains("not UTF-8"));
    drop(raw);
    assert_eq!(c.request(r#"{"verb": "ping"}"#).unwrap(), r#"{"ok": true}"#);
}

#[test]
fn full_queues_answer_backpressure_and_drain_on_step() {
    let cfg = SessionCfg {
        queue_cap: 3,
        ..SessionCfg::default()
    };
    let (_server, mut c) = start(cfg);
    // SETUP already queues 2 stimuli, so one more fits and the next is
    // refused with the queue depth in the reply.
    c.request(&create_req(0, None)).unwrap();
    let stim =
        r#"{"verb": "stimulate", "session": 1, "inst": 0, "event": "E", "args": [1], "time": 30}"#;
    assert_eq!(c.request(stim).unwrap(), r#"{"ok": true, "pending": 3}"#);
    assert_eq!(
        c.request(stim).unwrap(),
        r#"{"ok": false, "error": "backpressure: session queue full", "pending": 3, "queue_cap": 3}"#
    );
    // Draining the queue lifts the backpressure (at a fresh time — the
    // drain advanced the session clock past 30).
    c.request(r#"{"verb": "step", "session": 1}"#).unwrap();
    let later =
        r#"{"verb": "stimulate", "session": 1, "inst": 0, "event": "E", "args": [1], "time": 100}"#;
    assert_eq!(c.request(later).unwrap(), r#"{"ok": true, "pending": 1}"#);
}

#[test]
fn fuel_budgets_are_enforced_per_session() {
    let (_server, mut c) = start(SessionCfg::default());
    c.request(&create_req(0, Some(1))).unwrap();
    assert_eq!(
        c.request(r#"{"verb": "step", "session": 1}"#).unwrap(),
        r#"{"ok": true, "steps": 1, "quiescent": false, "now": 1, "fuel_left": 0}"#
    );
    assert_eq!(
        c.request(r#"{"verb": "step", "session": 1}"#).unwrap(),
        r#"{"ok": false, "error": "fuel exhausted", "fuel_left": 0}"#
    );
    // Fuel is per session: a fresh tenant is unaffected.
    c.request(&create_req(0, None)).unwrap();
    let reply = parsed(&c.request(r#"{"verb": "step", "session": 2}"#).unwrap());
    assert_eq!(get(&reply, "ok").as_bool(), Some(true));
}

#[test]
fn idle_sessions_evict_to_disk_and_revive_transparently() {
    let spool = std::env::temp_dir().join(format!("xtuml-serve-test-{}", std::process::id()));
    let cfg = SessionCfg {
        idle_evict: 2,
        spool: spool.clone(),
        ..SessionCfg::default()
    };
    let (_server, mut c) = start(cfg);
    c.request(&create_req(4, None)).unwrap();
    c.request(r#"{"verb": "step", "session": 1}"#).unwrap();
    let before = c.request(r#"{"verb": "trace", "session": 1}"#).unwrap();

    // Two ticks of other-tenant traffic push session 1 over the idle
    // threshold; its state moves to the spool directory.
    c.request(r#"{"verb": "ping"}"#).unwrap();
    c.request(r#"{"verb": "ping"}"#).unwrap();
    let spooled: PathBuf = spool.join("session-1.snap");
    assert!(spooled.exists(), "idle session was not spooled");

    // Touching the session revives it from the snapshot file with its
    // trace intact, and the spool file is consumed.
    assert_eq!(
        c.request(r#"{"verb": "trace", "session": 1}"#).unwrap(),
        before
    );
    assert!(!spooled.exists(), "revive left the spool file behind");
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn sessions_are_isolated_and_interleaving_is_invisible() {
    let (_server, mut c) = start(SessionCfg::default());

    // A solo reference run in its own session.
    c.request(&create_req(11, None)).unwrap();
    c.request(r#"{"verb": "step", "session": 1}"#).unwrap();
    let reference = c.request(r#"{"verb": "trace", "session": 1}"#).unwrap();

    // Two more tenants with the same model and seed, stepped with a
    // noisy third tenant's requests interleaved between every call.
    c.request(&create_req(11, None)).unwrap(); // session 2
    c.request(&create_req(11, None)).unwrap(); // session 3
    c.request(&create_req(99, Some(7))).unwrap(); // session 4: the noise
    let noise = [
        r#"{"verb": "stimulate", "session": 4, "inst": 0, "event": "E", "args": [9], "time": 40}"#,
        r#"{"verb": "step", "session": 4, "max_steps": 1}"#,
        r#"{"verb": "stats", "session": 4}"#,
        r#"{"verb": "snapshot", "session": 4}"#,
    ];
    for (i, step_target) in [2u64, 3].into_iter().enumerate() {
        c.request(noise[i]).unwrap();
        let req = format!(r#"{{"verb": "step", "session": {step_target}, "max_steps": 1}}"#);
        c.request(&req).unwrap();
        c.request(noise[i + 2]).unwrap();
        let req = format!(r#"{{"verb": "step", "session": {step_target}}}"#);
        c.request(&req).unwrap();
    }
    let t2 = c.request(r#"{"verb": "trace", "session": 2}"#).unwrap();
    let t3 = c.request(r#"{"verb": "trace", "session": 3}"#).unwrap();
    assert_eq!(t2, t3, "same seed, same model: traces must match");
    assert_eq!(t2, reference, "interleaving perturbed a session");

    // And the noisy tenant really did something different.
    let t4 = c.request(r#"{"verb": "trace", "session": 4}"#).unwrap();
    assert_ne!(t4, t2);
}

/// A `trace` reply from any `from` is the tail of the full reply: a
/// dispatch keeps its event and state names even when its receiver was
/// created before `from`.
#[test]
fn trace_from_any_index_is_the_tail_of_the_full_trace() {
    use xtuml_serve::daemon::{SMOKE_MODEL, SMOKE_SETUP};
    use xtuml_serve::proto::json_str;

    let (_server, mut c) = start(SessionCfg::default());
    let create = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}}}"#,
        json_str(SMOKE_MODEL),
        json_str(SMOKE_SETUP)
    );
    c.request(&create).unwrap();
    c.request(r#"{"verb": "step", "session": 1}"#).unwrap();
    let full = parsed(&c.request(r#"{"verb": "trace", "session": 1}"#).unwrap());
    let all = get(&full, "events").as_arr().unwrap();
    let total = all.len();
    assert_eq!(get(&full, "total").as_num(), Some(total as f64));
    assert!(
        total > 2,
        "the doorbell run records creations and dispatches"
    );
    for from in 0..=total {
        let req = format!(r#"{{"verb": "trace", "session": 1, "from": {from}}}"#);
        let tail = parsed(&c.request(&req).unwrap());
        assert_eq!(get(&tail, "total").as_num(), Some(total as f64));
        assert_eq!(
            get(&tail, "events").as_arr().unwrap(),
            &all[from..],
            "trace from {from}"
        );
    }
}

/// The doorbell session every concurrent client drives: create with
/// `seed`, one more `Press`, step to quiescence, then the trace. Returns
/// the trace reply and closes the session.
fn doorbell_session(seed: u64, mut send: impl FnMut(&str) -> String) -> String {
    use xtuml_serve::daemon::{SMOKE_MODEL, SMOKE_SETUP};
    use xtuml_serve::proto::json_str;

    let create = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}, "seed": {seed}}}"#,
        json_str(SMOKE_MODEL),
        json_str(SMOKE_SETUP)
    );
    let created = parsed(&send(&create));
    let id = get(&created, "session").as_num().expect("session id");
    let stim = format!(
        r#"{{"verb": "stimulate", "session": {id}, "inst": 0, "event": "Press", "time": {}}}"#,
        2000 + seed
    );
    assert!(send(&stim).starts_with(r#"{"ok": true"#));
    assert!(send(&format!(r#"{{"verb": "step", "session": {id}}}"#)).contains("quiescent"));
    let trace = send(&format!(r#"{{"verb": "trace", "session": {id}}}"#));
    assert_eq!(
        send(&format!(r#"{{"verb": "close", "session": {id}}}"#)),
        r#"{"ok": true}"#
    );
    trace
}

#[test]
fn concurrent_clients_get_the_replies_of_an_in_process_store() {
    const CLIENTS: u64 = 4;
    const SESSIONS: u64 = 25;
    let mut store = Store::new(SessionCfg::default());
    let want: Vec<String> = (0..CLIENTS * SESSIONS)
        .map(|seed| {
            doorbell_session(seed, |body| {
                store.apply(&Request::parse(body).expect("the request parses"))
            })
        })
        .collect();

    let (server, _idle) = start(SessionCfg::default());
    let got: Vec<Vec<String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = server.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (c * SESSIONS..(c + 1) * SESSIONS)
                        .map(|seed| {
                            doorbell_session(seed, |body| client.request(body).expect("reply"))
                        })
                        .collect()
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let got: Vec<String> = got.into_iter().flatten().collect();
    assert_eq!(got.len(), want.len());
    for (seed, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "seed {seed}");
    }
    assert_ne!(want[0], want[1], "distinct seeds give distinct traces");
}

#[test]
fn a_connection_past_the_cap_gets_one_error_frame_then_eof() {
    const PING: &str = r#"{"verb": "ping"}"#;
    const REFUSED: &str = r#"{"ok": false, "error": "connection limit reached", "max_conns": 2}"#;
    let cfg = SessionCfg {
        max_conns: 2,
        ..SessionCfg::default()
    };
    let (server, mut first) = start(cfg);
    let mut second = Client::connect(server.addr()).expect("connect");
    // A reply on each means both connection threads are running.
    assert_eq!(first.request(PING).unwrap(), r#"{"ok": true}"#);
    assert_eq!(second.request(PING).unwrap(), r#"{"ok": true}"#);

    let third = TcpStream::connect(server.addr()).unwrap();
    let mut reader = std::io::BufReader::new(third);
    let reply = frame::read_frame(&mut reader, MAX_FRAME)
        .unwrap()
        .expect("the refusal frame");
    assert_eq!(std::str::from_utf8(&reply).unwrap(), REFUSED);
    assert!(frame::read_frame(&mut reader, MAX_FRAME).unwrap().is_none());
    assert_eq!(first.request(PING).unwrap(), r#"{"ok": true}"#);

    // The slot frees when the dropped client's thread sees EOF and
    // exits; until then a new client is still refused.
    drop(second);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut fourth = Client::connect(server.addr()).expect("connect");
        match fourth.request(PING) {
            Ok(reply) if reply == r#"{"ok": true}"# => break,
            Ok(reply) => assert_eq!(reply, REFUSED),
            // A refused client that already sent its request may see a
            // reset instead of the refusal frame.
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "no slot freed within 10 s");
        std::thread::sleep(Duration::from_millis(10));
    }
}
