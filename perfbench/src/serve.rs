//! `serve_churn` and `serve_snapshot`: an in-process `xtuml serve`
//! daemon on loopback, driven by two clients in a closed loop (each
//! sends its next request only after the previous reply).
//!
//! Every layer of the daemon runs on its threads, out of the client's
//! reach, so a traced run does two things: it times each round trip per
//! verb on the live daemon, then replays the same sessions in-process
//! through `write_frame`/`read_frame` on a `Vec`, `Request::parse` and a
//! fresh `Store::apply`. The round trip minus the replayed framing,
//! decoding and applying is the time spent waiting (socket, queue and
//! the single manager thread).

use std::time::{Duration, Instant};

use xtuml::core::builder::pipeline_domain;
use xtuml::exec::sched::SplitMix64;
use xtuml::lang::print_domain;
use xtuml_obs::Clock;
use xtuml_serve::daemon::{MAX_REPLY, SMOKE_MODEL, SMOKE_SETUP};
use xtuml_serve::proto::json_str;
use xtuml_serve::{
    read_frame, write_frame, Client, Request, ServeConfig, Server, SessionCfg, Store,
};

use crate::tally::{measure, setup_median, us_since, Tally};
use crate::tracer::{layer, unit, Tracer};
use crate::{alloc, halves, Config, Outcome, Scale, Traced};

const CLIENTS: usize = 2;
/// `serve_snapshot`: step/snapshot/restore cycles per session.
const CYCLES: usize = 4;
/// `serve_snapshot`: dispatch budget of each cycle's step.
const CYCLE_STEPS: u64 = 64;
const STAGES: usize = 8;

/// The round-trip, decode and apply layers of a request verb.
fn layers_of(verb: &str) -> [&'static str; 3] {
    match verb {
        "create" => [
            "serve.rtt.create",
            "serve.decode.create",
            "serve.apply.create",
        ],
        "stimulate" => [
            "serve.rtt.stimulate",
            "serve.decode.stimulate",
            "serve.apply.stimulate",
        ],
        "step" => ["serve.rtt.step", "serve.decode.step", "serve.apply.step"],
        "snapshot" => [
            "serve.rtt.snapshot",
            "serve.decode.snapshot",
            "serve.apply.snapshot",
        ],
        "restore" => [
            "serve.rtt.restore",
            "serve.decode.restore",
            "serve.apply.restore",
        ],
        "trace" => ["serve.rtt.trace", "serve.decode.trace", "serve.apply.trace"],
        "close" => ["serve.rtt.close", "serve.decode.close", "serve.apply.close"],
        other => unreachable!("the harness sends no `{other}` requests"),
    }
}

/// The unsigned integer after `"key": ` in a reply, found by substring
/// search.
fn field(reply: &str, key: &str) -> Option<u64> {
    let at = reply.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits = reply[at..].split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// The hex string of a snapshot reply, by substring search.
fn snapshot_hex(reply: &str) -> Option<&str> {
    let at = reply.find("\"bytes\": \"")? + 10;
    let len = reply[at..].find('"')?;
    Some(&reply[at..at + len])
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\": true")
}

/// Where a session's requests go.
enum Link<'a> {
    /// The live daemon, over a socket.
    Live(&'a mut Client),
    /// An in-process store, through the daemon's own framing and parsing.
    Replay(&'a mut Store),
}

struct Conn<'a> {
    link: Link<'a>,
    tr: Option<&'a mut Tracer>,
}

impl Conn<'_> {
    fn request(&mut self, verb: &str, body: &str) -> Option<String> {
        let [rtt, decode, apply] = layers_of(verb);
        let reply = match &mut self.link {
            Link::Live(client) => {
                let reply = layer(&mut self.tr, rtt, || client.request(body).ok())?;
                if let Some(tr) = self.tr.as_deref_mut() {
                    tr.add("serve.request_bytes", body.len() as f64);
                    tr.add("serve.reply_bytes", reply.len() as f64);
                }
                reply
            }
            Link::Replay(store) => {
                let text = layer(&mut self.tr, "serve.frame", || framed(body))?;
                let req = layer(&mut self.tr, decode, || Request::parse(&text)).ok()?;
                let reply = layer(&mut self.tr, apply, || store.apply(&req));
                layer(&mut self.tr, "serve.frame", || framed(&reply))?
            }
        };
        if let Some(tr) = self.tr.as_deref_mut() {
            if verb == "step" {
                tr.add(
                    "exec.dispatches",
                    field(&reply, "steps").unwrap_or(0) as f64,
                );
            }
            if verb == "snapshot" {
                tr.add(
                    "exec.snapshot_bytes",
                    field(&reply, "len").unwrap_or(0) as f64,
                );
                tr.add("exec.snapshots", 1.0);
            }
        }
        Some(reply)
    }
}

/// `text` through one length-prefixed frame and back, as the daemon's
/// connection threads move it.
fn framed(text: &str) -> Option<String> {
    let mut wire = Vec::with_capacity(text.len() + 4);
    write_frame(&mut wire, text.as_bytes()).ok()?;
    let body = read_frame(&mut wire.as_slice(), MAX_REPLY).ok()??;
    String::from_utf8(body).ok()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Churn,
    Snapshot,
}

/// A session script and the replies it must produce.
struct Script {
    kind: Kind,
    create: String,
    /// `serve_churn`: the one extra stimulus's time.
    press_at: u64,
    /// Step replies, in order, of a run without snapshot/restore.
    steps: Vec<String>,
    /// The final trace reply of that run.
    trace: String,
}

impl Script {
    fn new(kind: Kind, cfg: &Config) -> Script {
        let (model, setup) = match kind {
            Kind::Churn => (SMOKE_MODEL.to_owned(), SMOKE_SETUP.to_owned()),
            Kind::Snapshot => {
                let feeds = match cfg.scale {
                    Scale::Full => 32,
                    Scale::Smoke => 8,
                };
                (
                    print_domain(&pipeline_domain(STAGES).expect("pipeline domain builds")),
                    pipeline_setup(cfg.seed, feeds),
                )
            }
        };
        let mut script = Script {
            kind,
            create: format!(
                r#"{{"verb": "create", "model": {}, "setup": {}, "seed": {}}}"#,
                json_str(&model),
                json_str(&setup),
                cfg.seed
            ),
            press_at: 2000 + cfg.seed % 1000,
            steps: Vec::new(),
            trace: String::new(),
        };
        // The expected replies: the same script on an in-process store,
        // without snapshot/restore.
        let mut store = Store::new(SessionCfg::default());
        let mut conn = Conn {
            link: Link::Replay(&mut store),
            tr: None,
        };
        let (steps, trace) = script.reference(&mut conn).unwrap_or_default();
        script.steps = steps;
        script.trace = trace;
        script
    }

    fn reference(&self, conn: &mut Conn<'_>) -> Option<(Vec<String>, String)> {
        let id = field(&conn.request("create", &self.create)?, "session")?;
        let mut steps = Vec::new();
        match self.kind {
            Kind::Churn => {
                conn.request("stimulate", &self.stimulate(id))?;
                steps.push(conn.request("step", &step(id, None))?);
            }
            Kind::Snapshot => {
                for _ in 0..CYCLES {
                    steps.push(conn.request("step", &step(id, Some(CYCLE_STEPS)))?);
                }
            }
        }
        let trace = conn.request("trace", &trace(id))?;
        conn.request("close", &close(id))?;
        let all_ok = steps.iter().all(|s| is_ok(s)) && is_ok(&trace);
        all_ok.then_some((steps, trace))
    }

    fn stimulate(&self, id: u64) -> String {
        format!(
            r#"{{"verb": "stimulate", "session": {id}, "inst": 0, "event": "Press", "time": {}}}"#,
            self.press_at
        )
    }

    /// One session; records its ops (one per session, or one per
    /// step/snapshot/restore cycle) into `t`.
    fn session(&self, conn: &mut Conn<'_>, t: &mut Tally) {
        let t0 = Instant::now();
        let mut cycles: Vec<(f64, bool)> = Vec::with_capacity(CYCLES);
        let ok = self.drive(conn, &mut cycles).is_some();
        match self.kind {
            Kind::Churn => t.op(1, us_since(t0), ok),
            Kind::Snapshot => {
                // Cycles a failed session never reached count as failed.
                cycles.resize(CYCLES, (0.0, false));
                for (lat, cycle_ok) in cycles {
                    t.op(1, lat, ok && cycle_ok);
                }
            }
        }
    }

    fn drive(&self, conn: &mut Conn<'_>, cycles: &mut Vec<(f64, bool)>) -> Option<()> {
        let created = conn.request("create", &self.create)?;
        let id = field(&created, "session").filter(|_| is_ok(&created))?;
        match self.kind {
            Kind::Churn => {
                let stimulated = conn.request("stimulate", &self.stimulate(id))?;
                let stepped = conn.request("step", &step(id, None))?;
                (is_ok(&stimulated) && self.steps.first() == Some(&stepped)).then_some(())?;
            }
            Kind::Snapshot => {
                for want in &self.steps {
                    let t0 = Instant::now();
                    let ok = self.cycle(conn, id, want).is_some();
                    cycles.push((us_since(t0), ok));
                }
            }
        }
        let traced = conn.request("trace", &trace(id))?;
        let closed = conn.request("close", &close(id))?;
        (traced == self.trace && is_ok(&closed)).then_some(())
    }

    /// step → snapshot → restore(the snapshot's own bytes).
    fn cycle(&self, conn: &mut Conn<'_>, id: u64, want_step: &str) -> Option<()> {
        let stepped = conn.request("step", &step(id, Some(CYCLE_STEPS)))?;
        let snap = conn.request(
            "snapshot",
            &format!(r#"{{"verb": "snapshot", "session": {id}}}"#),
        )?;
        let restore = layer(&mut conn.tr, "serve.hex", || {
            snapshot_hex(&snap)
                .map(|hex| format!(r#"{{"verb": "restore", "session": {id}, "bytes": "{hex}"}}"#))
        })?;
        let restored = conn.request("restore", &restore)?;
        (stepped == want_step && is_ok(&snap) && is_ok(&restored)).then_some(())
    }
}

fn step(id: u64, max_steps: Option<u64>) -> String {
    match max_steps {
        Some(n) => format!(r#"{{"verb": "step", "session": {id}, "max_steps": {n}}}"#),
        None => format!(r#"{{"verb": "step", "session": {id}}}"#),
    }
}

fn trace(id: u64) -> String {
    format!(r#"{{"verb": "trace", "session": {id}}}"#)
}

fn close(id: u64) -> String {
    format!(r#"{{"verb": "close", "session": {id}}}"#)
}

/// The `serve_snapshot` setup script: a related 8-stage pipeline and
/// `feeds` seeded `Feed`s into stage 0.
fn pipeline_setup(seed: u64, feeds: usize) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut out = String::new();
    for k in 0..STAGES {
        out.push_str(&format!("create s{k} Stage{k}\n"));
    }
    for k in 1..STAGES {
        out.push_str(&format!("relate s{} s{k} R{k}\n", k - 1));
    }
    let mut time = 0;
    for _ in 0..feeds {
        time += rng.below(4) as u64;
        out.push_str(&format!("at {time} s0 Feed {}\n", rng.below(1000)));
    }
    out
}

/// A running daemon, its clients and the script they drive.
struct Setup {
    script: Script,
    clients: Vec<Client>,
    /// Dropped after the clients, which shuts the daemon down.
    _server: Server,
}

fn setup(kind: Kind, cfg: &Config) -> (Setup, bool) {
    let script = Script::new(kind, cfg);
    let server = Server::start(ServeConfig {
        port: 0,
        session: SessionCfg::default(),
    })
    .expect("bind a loopback port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the daemon"))
        .collect();
    let warmup = match (kind, cfg.scale) {
        (Kind::Churn, Scale::Full) => 500,
        _ => 1,
    };
    let warm = on_clients(&mut clients, |_, client| {
        let mut t = Tally::new();
        let mut conn = Conn {
            link: Link::Live(client),
            tr: None,
        };
        for _ in 0..warmup {
            script.session(&mut conn, &mut t);
        }
        t.failed
    });
    let ok = !script.steps.is_empty() && warm.iter().all(|&f| f == 0);
    (
        Setup {
            script,
            clients,
            _server: server,
        },
        ok,
    )
}

/// Runs `f` on every client at once, one thread each.
fn on_clients<T: Send>(
    clients: &mut [Client],
    f: impl Fn(usize, &mut Client) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let f = &f;
                scope.spawn(move || f(i, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Both clients in a closed loop for `window`; allocations are counted
/// process-wide (the daemon's threads included) over the whole window.
fn live_window(s: &mut Setup, window: Duration, clock: Option<Clock>) -> (Tally, Option<Tracer>) {
    let script = &s.script;
    let before = alloc::counts();
    let results = on_clients(&mut s.clients, |i, client| {
        let mut tracer = clock.map(|c| Tracer::new(c, i as u32));
        let tally = measure(window, |t| {
            unit(tracer.as_mut(), "session", |tr| {
                let link = Link::Live(&mut *client);
                script.session(&mut Conn { link, tr }, t);
            });
        });
        (tally, tracer)
    });
    let allocs = (alloc::counts() - before).allocs;
    let mut results = results.into_iter();
    let (mut tally, mut merged) = results.next().expect("at least one client");
    for (t, tr) in results {
        tally.merge(t);
        if let (Some(m), Some(tr)) = (merged.as_mut(), tr) {
            m.absorb(tr);
        }
    }
    tally.allocated(allocs, tally.ops);
    (tally, merged)
}

fn run(kind: Kind, cfg: &Config, traced: bool) -> Outcome {
    let ((mut s, setup_ok), setup_s) = setup_median(|| setup(kind, cfg));
    let (plain, traced_len) = halves(cfg, traced);
    let (window, _) = live_window(&mut s, plain, None);
    let traced = traced.then(|| {
        let clock = Clock::start();
        let (window, live) = live_window(&mut s, traced_len, Some(clock));
        let live = live.expect("traced clients");
        let mut replay = Tracer::new(clock, CLIENTS as u32);
        let mut store = Store::new(SessionCfg::default());
        let mut checked = Tally::new();
        for _ in 0..live.units {
            replay.unit("session", |tr| {
                let mut conn = Conn {
                    link: Link::Replay(&mut store),
                    tr: Some(tr),
                };
                s.script.session(&mut conn, &mut checked);
            });
        }
        let mut tracks: Vec<(u32, String)> = (0..CLIENTS)
            .map(|i| (i as u32, format!("client {i}")))
            .collect();
        tracks.push((CLIENTS as u32, "in-process replay".to_owned()));
        Traced {
            window,
            live,
            tracks,
            replay: Some((replay, checked)),
            probes: Vec::new(),
        }
    });
    Outcome {
        setup_s,
        setup_ok,
        window,
        traced,
    }
}

pub(crate) fn run_churn(cfg: &Config, traced: bool) -> Outcome {
    run(Kind::Churn, cfg, traced)
}

pub(crate) fn run_snapshot(cfg: &Config, traced: bool) -> Outcome {
    run(Kind::Snapshot, cfg, traced)
}
