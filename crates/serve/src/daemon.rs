//! The TCP daemon: an accept loop, and one thread per connection that
//! decodes each request frame and applies it to the one [`Store`] under
//! a lock, so a request crosses no other thread. One client's requests
//! apply in the order it sent them, which keeps its transcript
//! deterministic (the smoke test diffs one byte-for-byte); different
//! clients' requests apply in lock order. At most
//! [`SessionCfg::max_conns`] connections are served at once; one more
//! gets an error frame and is closed.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use crate::frame::{read_frame, write_frame, MAX_FRAME};
use crate::proto::{err_response, json_str, Request};
use crate::session::{SessionCfg, Store};

/// Reply-frame cap for [`Client`] reads. Replies can carry hex-encoded
/// snapshots, so the bound is far looser than the request-side
/// [`MAX_FRAME`].
pub const MAX_REPLY: usize = 64 << 20;

/// Daemon configuration: bind port plus the session-table limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on loopback (0 = ephemeral, for tests).
    pub port: u16,
    /// Session-table limits.
    pub session: SessionCfg,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 7711,
            session: SessionCfg::default(),
        }
    }
}

/// Decodes one request frame, then applies it under the store's lock
/// and renders the reply. The frame is dropped once decoded, before the
/// lock is taken. A panic while applying the request becomes an error
/// reply and drops only the session the request named; it is caught
/// before the lock guard unwinds, so the lock is never poisoned.
fn handle(store: &Mutex<Store>, body: Vec<u8>) -> String {
    let req = {
        let Ok(text) = String::from_utf8(body) else {
            return err_response("frame payload is not UTF-8", &[]);
        };
        match Request::parse(&text) {
            Ok(req) => req,
            Err(e) => return err_response(&e, &[]),
        }
    };
    let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
    match panic::catch_unwind(AssertUnwindSafe(|| store.apply(&req))) {
        Ok(reply) => reply,
        Err(_) => match req.session() {
            Some(id) => {
                store.drop_session(id);
                err_response(
                    "internal error: the session panicked and was closed",
                    &[("session", id.to_string())],
                )
            }
            None => err_response("internal error: the request panicked", &[]),
        },
    }
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connection threads die with their peers.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds loopback and spawns the accept thread, which spawns one
    /// thread per connection.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let max_conns = cfg.session.max_conns;
        let store = Arc::new(Mutex::new(Store::new(cfg.session)));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Each connection thread holds a clone of the store's
                // `Arc` until it exits, even by panic; this loop holds
                // the other count and is the only one to add clones.
                if Arc::strong_count(&store) > max_conns {
                    let max = [("max_conns", max_conns.to_string())];
                    let refusal = err_response("connection limit reached", &max);
                    let _ = write_frame(&mut BufWriter::new(&stream), refusal.as_bytes());
                    continue;
                }
                let store = Arc::clone(&store);
                thread::spawn(move || serve_conn(stream, &store));
            }
        });
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections. Established connections finish on
    /// their own, and the session table is freed when the last of them
    /// ends.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// Splits a connected stream into its buffered read and write halves,
/// with Nagle's algorithm off. Both ends of the protocol go through here:
/// a frame larger than the write buffer leaves as two writes (prefix,
/// then payload), and with Nagle on the payload would wait for the
/// peer's delayed ACK of the prefix — tens of milliseconds per reply.
fn buffered(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

fn serve_conn(stream: TcpStream, store: &Mutex<Store>) {
    let Ok((mut reader, mut writer)) = buffered(stream) else {
        return;
    };
    loop {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(None) => break,
            Ok(Some(body)) => {
                let reply = handle(store, body);
                if write_frame(&mut writer, reply.as_bytes()).is_err() {
                    break;
                }
            }
            Err(e) => {
                // Oversized or truncated framing leaves the stream
                // position unknowable: answer once, then hang up.
                let _ = write_frame(&mut writer, err_response(&e.to_string(), &[]).as_bytes());
                break;
            }
        }
    }
}

/// A blocking request/reply client over one connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let (reader, writer) = buffered(TcpStream::connect(addr)?)?;
        Ok(Client { reader, writer })
    }

    /// Sends one request frame and waits for its reply frame.
    ///
    /// # Errors
    ///
    /// I/O errors, a non-UTF-8 reply, or the server closing the
    /// connection instead of replying.
    pub fn request(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.writer, body.as_bytes())?;
        match read_frame(&mut self.reader, MAX_REPLY)? {
            Some(bytes) => String::from_utf8(bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8")),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

/// The doorbell model used by the smoke transcript.
pub const SMOKE_MODEL: &str = include_str!("../../../models/doorbell.xtuml");
/// The doorbell setup script used by the smoke transcript.
pub const SMOKE_SETUP: &str = include_str!("../../../models/doorbell.stim");

fn transcript_step(client: &mut Client, out: &mut String, req: &str) -> io::Result<String> {
    let resp = client.request(req)?;
    out.push_str("-> ");
    out.push_str(req);
    out.push_str("\n<- ");
    out.push_str(&resp);
    out.push('\n');
    Ok(resp)
}

/// Runs the deterministic smoke transcript against an in-process server
/// on an ephemeral loopback port and returns the full `->`/`<-` log.
/// The same session is driven to quiescence, snapshotted, stimulated
/// further, rolled back via `restore`, and stimulated identically — so
/// the transcript itself witnesses that restore rewinds state exactly.
/// CI diffs the returned text against `tests/golden/serve_smoke.txt`.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` if the replayed
/// continuation diverges from the pre-restore one.
pub fn smoke() -> io::Result<String> {
    let cfg = ServeConfig {
        port: 0,
        session: SessionCfg::default(),
    };
    let server = Server::start(cfg)?;
    let mut client = Client::connect(server.addr())?;
    let mut out = String::new();

    transcript_step(&mut client, &mut out, r#"{"verb": "ping"}"#)?;
    let create = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}, "seed": 42}}"#,
        json_str(SMOKE_MODEL),
        json_str(SMOKE_SETUP)
    );
    transcript_step(&mut client, &mut out, &create)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "step", "session": 1}"#)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "trace", "session": 1}"#)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "stats", "session": 1}"#)?;

    // Snapshot at quiescence, then a stimulate/step/trace continuation.
    let snap = transcript_step(
        &mut client,
        &mut out,
        r#"{"verb": "snapshot", "session": 1}"#,
    )?;
    let hex = xtuml_obs::json::parse(&snap)
        .ok()
        .and_then(|doc| doc.get("bytes").and_then(|b| b.as_str().map(str::to_owned)))
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "snapshot reply without bytes")
        })?;
    let stim = r#"{"verb": "stimulate", "session": 1, "inst": 0, "event": "Press", "time": 2000}"#;
    transcript_step(&mut client, &mut out, stim)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "step", "session": 1}"#)?;
    let first = transcript_step(&mut client, &mut out, r#"{"verb": "trace", "session": 1}"#)?;

    // Rewind via restore and replay the identical continuation; the
    // trace replies must match byte-for-byte.
    let restore = format!(
        r#"{{"verb": "restore", "session": 1, "bytes": {}}}"#,
        json_str(&hex)
    );
    transcript_step(&mut client, &mut out, &restore)?;
    transcript_step(&mut client, &mut out, stim)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "step", "session": 1}"#)?;
    let second = transcript_step(&mut client, &mut out, r#"{"verb": "trace", "session": 1}"#)?;
    if first != second {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "continuation after restore diverged from the original",
        ));
    }

    transcript_step(&mut client, &mut out, r#"{"verb": "close", "session": 1}"#)?;
    transcript_step(&mut client, &mut out, r#"{"verb": "step", "session": 1}"#)?;
    drop(client);
    server.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two doorbell sessions, interleaved: each `(session, request)` pair
    /// is applied through the locked [`handle`], with session
    /// `panic_in`'s requests panicking inside the store. A panic must
    /// leave the lock unpoisoned.
    fn interleaved(panic_in: Option<u64>) -> Vec<(u64, String)> {
        let create = format!(
            r#"{{"verb": "create", "model": {}, "setup": {}, "seed": 42}}"#,
            json_str(SMOKE_MODEL),
            json_str(SMOKE_SETUP)
        );
        let mut store = Store::new(SessionCfg::default());
        store.panic_in = panic_in;
        let store = Mutex::new(store);
        let mut replies = Vec::new();
        for id in [1, 2] {
            replies.push((id, handle(&store, create.clone().into_bytes())));
        }
        let requests = [
            (1, r#"{"verb": "step", "session": 1, "max_steps": 2}"#),
            (2, r#"{"verb": "step", "session": 2, "max_steps": 2}"#),
            (1, r#"{"verb": "step", "session": 1}"#),
            (
                2,
                r#"{"verb": "stimulate", "session": 2, "inst": 0, "event": "Press", "time": 2000}"#,
            ),
            (2, r#"{"verb": "step", "session": 2}"#),
            (1, r#"{"verb": "trace", "session": 1}"#),
            (2, r#"{"verb": "trace", "session": 2}"#),
            (2, r#"{"verb": "stats", "session": 2}"#),
            (2, r#"{"verb": "close", "session": 2}"#),
        ];
        for (id, req) in requests {
            replies.push((id, handle(&store, req.as_bytes().to_vec())));
            assert!(!store.is_poisoned(), "a panic poisoned the store's lock");
        }
        replies
    }

    #[test]
    fn a_panicking_session_is_dropped_and_the_others_are_untouched() {
        let plain = interleaved(None);
        let panicked = interleaved(Some(1));
        let of = |run: &[(u64, String)], id| {
            run.iter()
                .filter(|(s, _)| *s == id)
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(of(&plain, 2), of(&panicked, 2));
        assert!(of(&plain, 2).iter().all(|r| r.starts_with("{\"ok\": true")));
        let first = of(&panicked, 1);
        assert!(
            first[0].starts_with("{\"ok\": true, \"session\": 1"),
            "{}",
            first[0]
        );
        assert_eq!(
            first[1],
            "{\"ok\": false, \"error\": \"internal error: the session panicked and was closed\", \"session\": 1}"
        );
        assert!(
            first[2..].iter().all(|r| r.contains("no session 1")),
            "{first:?}"
        );
    }

    #[test]
    fn both_ends_turn_nagle_off() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for stream in [dialed, accepted] {
            let (reader, writer) = buffered(stream).unwrap();
            assert!(reader.get_ref().nodelay().unwrap());
            assert!(writer.get_ref().nodelay().unwrap());
        }
    }
}
