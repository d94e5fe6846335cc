//! Session bookkeeping: the multi-tenant simulation table.
//!
//! A session is one [`Simulation`] plus its fuel budget and instance
//! handles; the store owns every session and applies one request at a
//! time (the daemon's connection threads apply requests under one
//! lock). A logical *tick* — one per applied request — is the store's
//! only clock: idle eviction is defined in ticks, never wall time, so
//! the daemon's observable behaviour stays deterministic.
//!
//! Two design choices make the table possible:
//!
//! * Every distinct model text is parsed once and compiled once into a
//!   shared [`Program`] that owns its domain ([`Program::owned`]), cached
//!   by content: a hash hit also needs equal text. Every `create`,
//!   `restore` and spool revival of that model runs the one program. The
//!   cache keeps a model while a live or spooled session holds it, plus
//!   the [`IDLE_MODELS`] most recently used idle ones.
//! * The store sits behind one lock in the daemon. Each connection
//!   thread decodes its request outside the lock and applies it inside,
//!   so one request runs at a time and each client's requests run in the
//!   order it sent them, which keeps its transcript deterministic.
//!   Evicted sessions become snapshot files on disk and are revived by
//!   `restore` on their next touch.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use xtuml_core::ids::InstId;
use xtuml_exec::{Program, SchedPolicy, Simulation};
use xtuml_lang::parse_domain;
use xtuml_lang::stim;
use xtuml_obs::{Counter, Recorder};

use crate::proto::{err_response, from_hex, ok_response, push_hex, push_json_str, Request};

/// Tunable per-daemon session limits.
#[derive(Debug, Clone)]
pub struct SessionCfg {
    /// Maximum live + spooled sessions.
    pub max_sessions: usize,
    /// Pending-stimulus cap per session; a `stimulate` beyond it gets an
    /// explicit backpressure reply instead of unbounded queue growth.
    pub queue_cap: usize,
    /// Default dispatch budget per session (a `create` may override).
    pub fuel: u64,
    /// Sessions untouched for this many request ticks are evicted to
    /// disk (snapshot-to-spool). `0` disables eviction.
    pub idle_evict: u64,
    /// Directory for spooled snapshots of evicted sessions.
    pub spool: PathBuf,
    /// Maximum live client connections; the daemon answers one past it
    /// with an error frame and closes it. Each connection is a thread.
    pub max_conns: usize,
}

impl Default for SessionCfg {
    fn default() -> SessionCfg {
        SessionCfg {
            max_sessions: 1024,
            queue_cap: 1024,
            fuel: 1_000_000,
            idle_evict: 0,
            spool: std::env::temp_dir().join("xtuml-serve-spool"),
            max_conns: 256,
        }
    }
}

enum SlotState {
    Live(Box<Simulation<'static>>),
    Spooled(PathBuf),
}

struct Slot {
    program: Arc<Program<'static>>,
    state: SlotState,
    handles: Vec<InstId>,
    fuel_left: u64,
    steps: u64,
    last_used: u64,
}

/// Compiled models the cache keeps although no session runs them, so a
/// client that closes every session and creates again on the same model
/// recompiles nothing.
pub const IDLE_MODELS: usize = 8;

/// A loaded model: the FNV-1a hash of its text, the text itself, which
/// makes a cache hit exact, its compiled program, and the tick it was
/// last seen in use.
struct Loaded {
    hash: u64,
    text: Box<str>,
    program: Arc<Program<'static>>,
    last_used: u64,
}

/// The session table. One instance per daemon, behind the lock its
/// connection threads share.
pub struct Store {
    cfg: SessionCfg,
    /// Loaded models, found by the FNV-1a hash of their text. FNV
    /// collisions can be crafted, so a hit also needs equal text: a
    /// colliding text must never pick the program another tenant's
    /// `create` runs.
    models: Vec<Loaded>,
    sessions: BTreeMap<u64, Slot>,
    next_id: u64,
    tick: u64,
    /// Sessions evicted to disk over the store's lifetime (stats).
    pub evictions: u64,
    /// A session whose next request panics, to test panic isolation.
    #[cfg(test)]
    pub(crate) panic_in: Option<u64>,
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Store {
    /// Creates an empty table (the spool directory is created lazily).
    pub fn new(cfg: SessionCfg) -> Store {
        Store {
            cfg,
            models: Vec::new(),
            sessions: BTreeMap::new(),
            next_id: 1,
            tick: 0,
            evictions: 0,
            #[cfg(test)]
            panic_in: None,
        }
    }

    /// Live (unspooled) session count.
    pub fn live_sessions(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s.state, SlotState::Live(_)))
            .count()
    }

    fn program_for(&mut self, model: &str) -> Result<Arc<Program<'static>>, String> {
        let hash = fnv(model);
        let hit = self
            .models
            .iter_mut()
            .find(|m| m.hash == hash && *m.text == *model);
        if let Some(loaded) = hit {
            loaded.last_used = self.tick;
            return Ok(Arc::clone(&loaded.program));
        }
        let domain = parse_domain(model).map_err(|e| format!("model does not parse: {e}"))?;
        let program = Arc::new(Program::owned(domain));
        self.models.push(Loaded {
            hash,
            text: model.into(),
            program: Arc::clone(&program),
            last_used: self.tick,
        });
        Ok(program)
    }

    /// Frees the least recently used idle models beyond [`IDLE_MODELS`].
    /// A model is idle when the cache holds the only reference to its
    /// program, i.e. no live or spooled session runs it; a model in use
    /// counts as used now.
    fn trim_models(&mut self) {
        let idle = |m: &Loaded| Arc::strong_count(&m.program) == 1;
        for m in self.models.iter_mut().filter(|m| !idle(m)) {
            m.last_used = self.tick;
        }
        while self.models.iter().filter(|m| idle(m)).count() > IDLE_MODELS {
            let idle_models = self.models.iter().enumerate().filter(|(_, m)| idle(m));
            let (oldest, _) = idle_models
                .min_by_key(|(_, m)| m.last_used)
                .expect("more idle models than the cap");
            self.models.swap_remove(oldest);
        }
    }

    /// Removes session `id` and its spool file; `false` if it does not
    /// exist.
    fn remove_session(&mut self, id: u64) -> bool {
        let Some(slot) = self.sessions.remove(&id) else {
            return false;
        };
        if let SlotState::Spooled(path) = slot.state {
            let _ = std::fs::remove_file(path);
        }
        true
    }

    /// Drops session `id` after a request on it panicked: its state may
    /// be torn, so it is not kept, and its model may become idle.
    pub(crate) fn drop_session(&mut self, id: u64) {
        self.remove_session(id);
        self.trim_models();
    }

    fn spool_path(&self, id: u64) -> PathBuf {
        self.cfg.spool.join(format!("session-{id}.snap"))
    }

    /// Brings a spooled session back to life; no-op for live sessions.
    fn revive(&mut self, id: u64) -> Result<(), String> {
        let Some(slot) = self.sessions.get_mut(&id) else {
            return Err(format!("no session {id}"));
        };
        if let SlotState::Spooled(path) = &slot.state {
            let bytes =
                std::fs::read(path).map_err(|e| format!("spooled snapshot unreadable: {e}"))?;
            // The codec restores the session's recorder (track and
            // deterministic counters included), so the metrics lane
            // survives eviction untouched.
            let sim = Simulation::restore_with(Arc::clone(&slot.program), &bytes)
                .map_err(|e| format!("spooled snapshot corrupt: {e}"))?;
            let _ = std::fs::remove_file(path);
            slot.state = SlotState::Live(Box::new(sim));
        }
        Ok(())
    }

    /// Evicts every session idle for `idle_evict`+ ticks: snapshot to
    /// the spool directory, drop the live simulation. Called after each
    /// applied request.
    fn evict_idle(&mut self) {
        if self.cfg.idle_evict == 0 {
            return;
        }
        let now = self.tick;
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                matches!(s.state, SlotState::Live(_))
                    && now.saturating_sub(s.last_used) >= self.cfg.idle_evict
            })
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            let path = self.spool_path(id);
            let slot = self.sessions.get_mut(&id).expect("listed above");
            let SlotState::Live(sim) = &slot.state else {
                continue;
            };
            if std::fs::create_dir_all(&self.cfg.spool).is_err() {
                continue; // no spool, no eviction — keep the session live
            }
            if std::fs::write(&path, sim.snapshot()).is_ok() {
                slot.state = SlotState::Spooled(path);
                self.evictions += 1;
            }
        }
    }

    fn with_live_sim<F>(&mut self, id: u64, f: F) -> String
    where
        F: FnOnce(&mut Simulation<'static>, &[InstId], &mut u64, &mut u64, &SessionCfg) -> String,
    {
        if let Err(e) = self.revive(id) {
            return err_response(&e, &[]);
        }
        let Some(slot) = self.sessions.get_mut(&id) else {
            return err_response(&format!("no session {id}"), &[]);
        };
        slot.last_used = self.tick;
        #[cfg(test)]
        if self.panic_in == Some(id) {
            panic!("injected panic in session {id}");
        }
        let Slot {
            state,
            handles,
            fuel_left,
            steps,
            ..
        } = slot;
        let SlotState::Live(sim) = state else {
            unreachable!("revived above");
        };
        f(sim, handles, fuel_left, steps, &self.cfg)
    }

    /// Applies one request and renders the reply. Advances the logical
    /// tick and runs the idle-eviction sweep.
    pub fn apply(&mut self, req: &Request) -> String {
        self.tick += 1;
        let reply = self.dispatch(req);
        self.evict_idle();
        // Only these two verbs change which models a session runs.
        if matches!(req, Request::Create { .. } | Request::Close { .. }) {
            self.trim_models();
        }
        reply
    }

    fn dispatch(&mut self, req: &Request) -> String {
        match req {
            Request::Ping => ok_response(&[]),
            Request::Create {
                model,
                setup,
                seed,
                fuel,
            } => self.create(model, setup, *seed, *fuel),
            Request::Stimulate {
                session,
                inst,
                event,
                args,
                time,
            } => {
                // `args` is cloned because the request is borrowed; it
                // allocates nothing when empty, as it is for most events.
                let (inst, time) = (*inst, *time);
                self.with_live_sim(*session, |sim, handles, _, _, cfg| {
                    let pending = sim.pending_stimuli();
                    if pending >= cfg.queue_cap {
                        return err_response(
                            "backpressure: session queue full",
                            &[
                                ("pending", pending.to_string()),
                                ("queue_cap", cfg.queue_cap.to_string()),
                            ],
                        );
                    }
                    let Some(&handle) = handles.get(inst) else {
                        return err_response(&format!("no instance handle {inst}"), &[]);
                    };
                    let time = time.unwrap_or_else(|| sim.now());
                    match sim.inject(time, handle, event, args.clone()) {
                        Ok(()) => ok_response(&[("pending", sim.pending_stimuli().to_string())]),
                        Err(e) => err_response(&e.to_string(), &[]),
                    }
                })
            }
            Request::Step { session, max_steps } => {
                let max_steps = *max_steps;
                self.with_live_sim(*session, |sim, _, fuel_left, steps, _| {
                    let budget = max_steps.unwrap_or(u64::MAX).min(*fuel_left);
                    if budget == 0 && max_steps != Some(0) {
                        return err_response("fuel exhausted", &[("fuel_left", "0".to_owned())]);
                    }
                    // Batched stepping: the superloop amortizes scheduler and
                    // lookup overhead across the whole budget instead of
                    // paying it per signal.
                    let mut ran = 0u64;
                    let quiescent = match sim.run_steps(budget, &mut ran) {
                        Ok(q) => q,
                        Err(e) => {
                            *fuel_left -= ran;
                            *steps += ran;
                            return err_response(&e.to_string(), &[]);
                        }
                    };
                    *fuel_left -= ran;
                    *steps += ran;
                    ok_response(&[
                        ("steps", ran.to_string()),
                        ("quiescent", quiescent.to_string()),
                        ("now", sim.now().to_string()),
                        ("fuel_left", fuel_left.to_string()),
                    ])
                })
            }
            Request::Snapshot { session } => self.with_live_sim(*session, |sim, _, _, _, _| {
                // The hex goes straight into the quoted field, and the
                // raw bytes are freed before the reply is rendered.
                let bytes = sim.snapshot();
                let len = bytes.len().to_string();
                let mut hex = String::with_capacity(2 * bytes.len() + 2);
                hex.push('"');
                push_hex(&mut hex, &bytes);
                hex.push('"');
                drop(bytes);
                ok_response(&[("len", len), ("bytes", hex)])
            }),
            Request::Restore { session, hex } => {
                // Revive + lookup first so domain is known; then replace.
                if let Err(e) = self.revive(*session) {
                    return err_response(&e, &[]);
                }
                let Some(slot) = self.sessions.get_mut(session) else {
                    return err_response(&format!("no session {session}"), &[]);
                };
                slot.last_used = self.tick;
                let bytes = match from_hex(hex) {
                    Ok(b) => b,
                    Err(e) => return err_response(&e, &[]),
                };
                // The codec rebuilds the recorder from the snapshot, so a
                // restore rewinds the metrics lane along with the state —
                // a re-snapshot returns the identical bytes.
                match Simulation::restore_with(Arc::clone(&slot.program), &bytes) {
                    Ok(sim) => {
                        slot.state = SlotState::Live(Box::new(sim));
                        ok_response(&[])
                    }
                    Err(e) => err_response(&e.to_string(), &[]),
                }
            }
            Request::TraceFrom { session, from } => {
                let from = *from;
                self.with_live_sim(*session, |sim, _, _, _, _| {
                    let trace = sim.trace();
                    let rendered = trace.render_from(sim.domain(), from);
                    // Each line gains two quotes and a `, ` separator.
                    let lines = trace.len().saturating_sub(from);
                    let mut events = String::with_capacity(rendered.len() + 4 * lines + 2);
                    events.push('[');
                    for (i, line) in rendered.lines().enumerate() {
                        if i > 0 {
                            events.push_str(", ");
                        }
                        push_json_str(&mut events, line);
                    }
                    events.push(']');
                    ok_response(&[("total", trace.len().to_string()), ("events", events)])
                })
            }
            Request::Stats { session } => {
                self.with_live_sim(*session, |sim, _, fuel_left, steps, _| {
                    // The per-session metrics lane: every session carries its
                    // own Recorder (track = session id), so dispatch/send
                    // counters are attributable per tenant.
                    let metrics = sim.take_recorder().map(|rec| {
                        let row = format!(
                            "{{\"dispatched\": {}, \"sent\": {}, \"timers_fired\": {}}}",
                            rec.metrics.get(Counter::SignalsDispatched),
                            rec.metrics.get(Counter::SignalsSent),
                            rec.metrics.get(Counter::TimersFired)
                        );
                        sim.attach_recorder(rec);
                        row
                    });
                    let mut fields = vec![
                        ("now", sim.now().to_string()),
                        ("steps", steps.to_string()),
                        ("pending", sim.pending_stimuli().to_string()),
                        ("fuel_left", fuel_left.to_string()),
                        ("trace_len", sim.trace().len().to_string()),
                        ("dropped", sim.dropped_events().to_string()),
                    ];
                    if let Some(m) = metrics {
                        fields.push(("metrics", m));
                    }
                    ok_response(&fields)
                })
            }
            Request::Close { session } => {
                if self.remove_session(*session) {
                    ok_response(&[])
                } else {
                    err_response(&format!("no session {session}"), &[])
                }
            }
        }
    }

    fn create(&mut self, model: &str, setup: &str, seed: u64, fuel: Option<u64>) -> String {
        if self.sessions.len() >= self.cfg.max_sessions {
            return err_response(
                "session table full",
                &[("max_sessions", self.cfg.max_sessions.to_string())],
            );
        }
        let program = match self.program_for(model) {
            Ok(p) => p,
            Err(e) => return err_response(&e, &[]),
        };
        let id = self.next_id;
        let mut sim = Simulation::with_program(Arc::clone(&program), SchedPolicy::seeded(seed));
        let mut rec = Recorder::new();
        rec.track = id as u32;
        sim.attach_recorder(rec);
        let handles = match stim::drive(setup, &mut sim) {
            Ok(h) => h,
            Err(e) => return err_response(&format!("setup {e}"), &[]),
        };
        self.next_id += 1;
        self.sessions.insert(
            id,
            Slot {
                program,
                state: SlotState::Live(Box::new(sim)),
                handles,
                fuel_left: fuel.unwrap_or(self.cfg.fuel),
                steps: 0,
                last_used: self.tick,
            },
        );
        let instances = self.sessions[&id].handles.len();
        ok_response(&[
            ("session", id.to_string()),
            ("instances", instances.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{SMOKE_MODEL, SMOKE_SETUP};
    use xtuml_core::builder::pipeline_domain;
    use xtuml_lang::print_domain;

    /// A model text whose FNV-1a hash collides with another's (FNV
    /// collisions can be crafted) must not pick the program a later
    /// tenant's `create` runs: a hit needs equal text.
    #[test]
    fn a_colliding_model_text_does_not_choose_the_program() {
        let mut store = Store::new(SessionCfg::default());
        let foreign = pipeline_domain(2).unwrap();
        store.models.push(Loaded {
            hash: fnv(SMOKE_MODEL),
            text: print_domain(&foreign).into(),
            program: Arc::new(Program::owned(foreign)),
            last_used: 0,
        });
        let create = Request::Create {
            model: SMOKE_MODEL.to_owned(),
            setup: SMOKE_SETUP.to_owned(),
            seed: 0,
            fuel: None,
        };
        let reply = store.apply(&create);
        assert!(reply.starts_with("{\"ok\": true"), "{reply}");
        let session = &store.sessions[&1];
        assert_eq!(session.program.domain().name, "Doorbell");
        assert_eq!(store.models.len(), 2);
        // The second tenant of the same text shares the first's program.
        store.apply(&create);
        assert!(Arc::ptr_eq(
            &store.sessions[&1].program,
            &store.sessions[&2].program
        ));
        let step = store.apply(&Request::Step {
            session: 1,
            max_steps: None,
        });
        assert!(step.contains("\"quiescent\": true"), "{step}");
    }
}
