//! Session bookkeeping: the multi-tenant simulation table.
//!
//! A session is one [`Simulation`] plus its fuel budget and instance
//! handles; the store owns every session and applies one request at a
//! time (requests arrive serialized through the daemon's manager
//! thread). A logical *tick* — one per applied request — is the store's
//! only clock: idle eviction is defined in ticks, never wall time, so
//! the daemon's observable behaviour stays deterministic.
//!
//! Two lifetime tricks make the table possible:
//!
//! * [`Simulation`] borrows its domain, so every distinct model text is
//!   parsed once and leaked to `&'static Domain` (cached by content
//!   hash — re-creating sessions on the same model costs nothing).
//! * The store lives on the daemon's single manager thread. A
//!   [`Simulation`] is `Send`, but one owner applying requests in order
//!   is what keeps transcripts deterministic. Evicted sessions become
//!   snapshot files on disk and are revived by `restore` on their next
//!   touch.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use xtuml_core::ids::InstId;
use xtuml_core::model::Domain;
use xtuml_exec::{SchedPolicy, Simulation, Trace};
use xtuml_lang::parse_domain;
use xtuml_lang::stim::{self, Directive};
use xtuml_obs::{Counter, Recorder};

use crate::proto::{err_response, from_hex, json_str, ok_response, to_hex, Request};

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
}

impl Default for SessionCfg {
    fn default() -> SessionCfg {
        SessionCfg {
            max_sessions: 1024,
            queue_cap: 1024,
            fuel: 1_000_000,
            idle_evict: 0,
            spool: std::env::temp_dir().join("xtuml-serve-spool"),
        }
    }
}

enum SlotState {
    Live(Box<Simulation<'static>>),
    Spooled(PathBuf),
}

struct Slot {
    domain: &'static Domain,
    state: SlotState,
    handles: Vec<InstId>,
    fuel_left: u64,
    steps: u64,
    last_used: u64,
}

/// The session table. One instance per daemon, owned by the manager
/// thread.
pub struct Store {
    cfg: SessionCfg,
    domains: HashMap<u64, &'static Domain>,
    sessions: BTreeMap<u64, Slot>,
    next_id: u64,
    tick: u64,
    /// Sessions evicted to disk over the store's lifetime (stats).
    pub evictions: u64,
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
            domains: HashMap::new(),
            sessions: BTreeMap::new(),
            next_id: 1,
            tick: 0,
            evictions: 0,
        }
    }

    /// Live (unspooled) session count.
    pub fn live_sessions(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s.state, SlotState::Live(_)))
            .count()
    }

    fn domain_for(&mut self, model: &str) -> Result<&'static Domain, String> {
        let key = fnv(model);
        if let Some(d) = self.domains.get(&key) {
            return Ok(d);
        }
        let domain = parse_domain(model).map_err(|e| format!("model does not parse: {e}"))?;
        // Sessions borrow their domain for the daemon's whole life; one
        // leak per distinct model text is the price of a borrow-based
        // simulator behind a 'static session table.
        let leaked: &'static Domain = Box::leak(Box::new(domain));
        self.domains.insert(key, leaked);
        Ok(leaked)
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
            let sim = Simulation::restore(slot.domain, &bytes)
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
        let cfg = self.cfg.clone();
        let Some(slot) = self.sessions.get_mut(&id) else {
            return err_response(&format!("no session {id}"), &[]);
        };
        slot.last_used = self.tick;
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
        f(sim, handles, fuel_left, steps, &cfg)
    }

    /// Applies one request and renders the reply. Advances the logical
    /// tick and runs the idle-eviction sweep.
    pub fn apply(&mut self, req: &Request) -> String {
        self.tick += 1;
        let reply = self.dispatch(req);
        self.evict_idle();
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
                let (inst, event, args, time) = (*inst, event.clone(), args.clone(), *time);
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
                    match sim.inject(time, handle, &event, args) {
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
                let bytes = sim.snapshot();
                ok_response(&[
                    ("len", bytes.len().to_string()),
                    ("bytes", json_str(&to_hex(&bytes))),
                ])
            }),
            Request::Restore { session, hex } => {
                let hex = hex.clone();
                // Revive + lookup first so domain is known; then replace.
                if let Err(e) = self.revive(*session) {
                    return err_response(&e, &[]);
                }
                let Some(slot) = self.sessions.get_mut(session) else {
                    return err_response(&format!("no session {session}"), &[]);
                };
                slot.last_used = self.tick;
                let bytes = match from_hex(&hex) {
                    Ok(b) => b,
                    Err(e) => return err_response(&e, &[]),
                };
                // The codec rebuilds the recorder from the snapshot, so a
                // restore rewinds the metrics lane along with the state —
                // a re-snapshot returns the identical bytes.
                match Simulation::restore(slot.domain, &bytes) {
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
                    let total = trace.len();
                    let mut sub = Trace::new();
                    for e in trace.iter().skip(from) {
                        sub.push(e);
                    }
                    let rendered = sub.render(sim.domain());
                    let mut events = String::from("[");
                    for (i, line) in rendered.lines().enumerate() {
                        if i > 0 {
                            events.push_str(", ");
                        }
                        events.push_str(&json_str(line));
                    }
                    events.push(']');
                    ok_response(&[("total", total.to_string()), ("events", events)])
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
                let Some(slot) = self.sessions.remove(session) else {
                    return err_response(&format!("no session {session}"), &[]);
                };
                if let SlotState::Spooled(path) = slot.state {
                    let _ = std::fs::remove_file(path);
                }
                ok_response(&[])
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
        let domain = match self.domain_for(model) {
            Ok(d) => d,
            Err(e) => return err_response(&e, &[]),
        };
        let id = self.next_id;
        let mut sim = Simulation::with_policy(domain, SchedPolicy::seeded(seed));
        let mut rec = Recorder::new();
        rec.track = id as u32;
        sim.attach_recorder(rec);
        let mut handles = Vec::new();
        let applied = stim::for_each(setup, |d| match d {
            Directive::Create(class) => sim.create(class).map(|h| handles.push(h)),
            Directive::Relate(a, b, assoc) => sim.relate(handles[a], handles[b], assoc),
            Directive::At(time, i, event, args) => sim.inject(time, handles[i], event, args),
        });
        if let Err(e) = applied {
            return err_response(&format!("setup {e}"), &[]);
        }
        self.next_id += 1;
        self.sessions.insert(
            id,
            Slot {
                domain,
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
