//! The request/response protocol: one JSON object per frame.
//!
//! Every request carries a `"verb"` field; every response is a single
//! JSON object whose first field is `"ok"`. Responses are built with
//! deterministic field order, so a transcript of a deterministic session
//! is byte-stable — the serve smoke test and the proto golden tests
//! depend on that.
//!
//! Snapshot bytes cross the wire hex-encoded: JSON-safe, dependency-free
//! and trivially diffable in a transcript.

use std::collections::BTreeMap;
use xtuml_core::value::Value;
use xtuml_obs::json::{self, escape_into};

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered without touching any session.
    Ping,
    /// Create a session from model text, an optional setup stimulus
    /// script, a scheduler seed and an optional fuel override.
    Create {
        /// Model source (`.xtuml` text).
        model: String,
        /// Setup script (`.stim` text): creates, relates, initial
        /// stimuli. Empty for a blank session.
        setup: String,
        /// Scheduler seed for this session's interleaving.
        seed: u64,
        /// Per-session dispatch budget override (`None` = server default).
        fuel: Option<u64>,
    },
    /// Inject a stimulus into a session's pending queue.
    Stimulate {
        /// Target session.
        session: u64,
        /// Instance handle: index into the setup script's `create` list.
        inst: usize,
        /// Event name.
        event: String,
        /// Event arguments.
        args: Vec<Value>,
        /// Delivery time (`None` = the session's current time).
        time: Option<u64>,
    },
    /// Run up to `max_steps` dispatches (bounded by remaining fuel).
    Step {
        /// Target session.
        session: u64,
        /// Dispatch budget for this call (`None` = all remaining fuel).
        max_steps: Option<u64>,
    },
    /// Serialize the session's full state.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Replace the session's state from hex-encoded snapshot bytes.
    Restore {
        /// Target session.
        session: u64,
        /// Hex-encoded snapshot bytes.
        hex: String,
    },
    /// Fetch the execution trace from an event index onward.
    TraceFrom {
        /// Target session.
        session: u64,
        /// First event index to return.
        from: usize,
    },
    /// Session statistics and per-session metrics.
    Stats {
        /// Target session.
        session: u64,
    },
    /// Discard a session (and its spooled snapshot, if any).
    Close {
        /// Target session.
        session: u64,
    },
}

/// A request's fields. Decoding moves string and array fields out of
/// the parsed document, so a `restore`'s hex or a `create`'s model text
/// is never copied after the JSON parser built it.
type Fields = BTreeMap<String, json::Value>;

fn get_u64(obj: &Fields, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(json::Value::Null) => Ok(None),
        Some(json::Value::Num(n)) => n
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("`{key}` must be a non-negative integer")),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

fn need_u64(obj: &Fields, key: &str) -> Result<u64, String> {
    get_u64(obj, key)?.ok_or_else(|| format!("missing `{key}`"))
}

fn need_str(obj: &mut Fields, key: &str) -> Result<String, String> {
    match obj.remove(key) {
        Some(json::Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("`{key}` must be a string")),
        None => Err(format!("missing `{key}`")),
    }
}

fn opt_str(obj: &mut Fields, key: &str) -> Result<String, String> {
    match obj.remove(key) {
        Some(json::Value::Str(s)) => Ok(s),
        Some(json::Value::Null) | None => Ok(String::new()),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn json_to_value(v: json::Value) -> Result<Value, String> {
    Ok(match v {
        json::Value::Bool(b) => Value::Bool(b),
        json::Value::Str(s) => Value::Str(s),
        json::Value::Num(n) => {
            if let Ok(i) = n.parse::<i64>() {
                Value::Int(i)
            } else {
                Value::Real(
                    n.parse::<f64>()
                        .map_err(|_| format!("unrepresentable number `{n}`"))?,
                )
            }
        }
        other => return Err(format!("unsupported argument value {other:?}")),
    })
}

impl Request {
    /// The session the request names, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Ping | Request::Create { .. } => None,
            Request::Stimulate { session, .. }
            | Request::Step { session, .. }
            | Request::Snapshot { session }
            | Request::Restore { session, .. }
            | Request::TraceFrom { session, .. }
            | Request::Stats { session }
            | Request::Close { session } => Some(*session),
        }
    }

    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns a description for malformed JSON, a missing or unknown
    /// verb, or wrongly-typed fields.
    pub fn parse(body: &str) -> Result<Request, String> {
        let mut doc = match json::parse(body).map_err(|e| format!("malformed JSON: {e}"))? {
            json::Value::Obj(fields) => fields,
            _ => Fields::new(),
        };
        let verb = need_str(&mut doc, "verb")?;
        Ok(match verb.as_str() {
            "ping" => Request::Ping,
            "create" => Request::Create {
                model: need_str(&mut doc, "model")?,
                setup: opt_str(&mut doc, "setup")?,
                seed: get_u64(&doc, "seed")?.unwrap_or(0),
                fuel: get_u64(&doc, "fuel")?,
            },
            "stimulate" => {
                let args = match doc.remove("args") {
                    None | Some(json::Value::Null) => Vec::new(),
                    Some(json::Value::Arr(items)) => items
                        .into_iter()
                        .map(json_to_value)
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err("`args` must be an array".to_owned()),
                };
                Request::Stimulate {
                    session: need_u64(&doc, "session")?,
                    inst: need_u64(&doc, "inst")? as usize,
                    event: need_str(&mut doc, "event")?,
                    args,
                    time: get_u64(&doc, "time")?,
                }
            }
            "step" => Request::Step {
                session: need_u64(&doc, "session")?,
                max_steps: get_u64(&doc, "max_steps")?,
            },
            "snapshot" => Request::Snapshot {
                session: need_u64(&doc, "session")?,
            },
            "restore" => Request::Restore {
                session: need_u64(&doc, "session")?,
                hex: need_str(&mut doc, "bytes")?,
            },
            "trace" => Request::TraceFrom {
                session: need_u64(&doc, "session")?,
                from: get_u64(&doc, "from")?.unwrap_or(0) as usize,
            },
            "stats" => Request::Stats {
                session: need_u64(&doc, "session")?,
            },
            "close" => Request::Close {
                session: need_u64(&doc, "session")?,
            },
            other => return Err(format!("unknown verb `{other}`")),
        })
    }
}

/// Builds an `{"ok": true, ...}` response; values are emitted raw, so
/// pass pre-rendered JSON (numbers as-is, strings pre-quoted).
pub fn ok_response(fields: &[(&str, String)]) -> String {
    response("{\"ok\": true", fields)
}

/// Builds an `{"ok": false, "error": ...}` response, with optional extra
/// raw fields (e.g. backpressure depth).
pub fn err_response(error: &str, fields: &[(&str, String)]) -> String {
    let mut head = String::from("{\"ok\": false, \"error\": ");
    push_json_str(&mut head, error);
    response(&head, fields)
}

/// `head`, then `, "key": value` per field and the closing brace, in one
/// allocation: a snapshot's hex or a long trace is copied once.
fn response(head: &str, fields: &[(&str, String)]) -> String {
    let len: usize = fields.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
    let mut out = String::with_capacity(head.len() + len + 1);
    out.push_str(head);
    for (k, v) in fields {
        out.push_str(", \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Renders a JSON string literal (quotes + escaping).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal (quotes + escaping).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Lower-hex encoding of arbitrary bytes.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    push_hex(&mut out, bytes);
    out
}

/// Appends the lower-hex encoding of `bytes` to `out`.
pub(crate) fn push_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

/// Decodes lower- or upper-hex.
///
/// # Errors
///
/// Returns a description for odd length or non-hex bytes.
pub fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_owned());
    }
    let digits = hex.as_bytes();
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit `{}`", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit `{}`", pair[1] as char))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            Request::parse(r#"{"verb": "ping"}"#).unwrap(),
            Request::Ping
        );
        let r = Request::parse(
            r#"{"verb": "stimulate", "session": 3, "inst": 0, "event": "Press",
                "args": [true, 4, 2.5, "x"], "time": 10}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Stimulate {
                session: 3,
                inst: 0,
                event: "Press".into(),
                args: vec![
                    Value::Bool(true),
                    Value::Int(4),
                    Value::Real(2.5),
                    Value::Str("x".into())
                ],
                time: Some(10),
            }
        );
    }

    #[test]
    fn malformed_requests_are_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"no": "verb"}"#).is_err());
        assert!(Request::parse(r#"{"verb": "frobnicate"}"#).is_err());
        assert!(Request::parse(r#"{"verb": "step"}"#).is_err()); // no session
        assert!(Request::parse(r#"{"verb": "step", "session": "x"}"#).is_err());
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn responses_are_json() {
        let ok = ok_response(&[("session", "1".into()), ("name", json_str("a\"b"))]);
        assert!(xtuml_obs::json::parse(&ok).is_ok(), "{ok}");
        let err = err_response("bad \"thing\"", &[("pending", "9".into())]);
        assert!(xtuml_obs::json::parse(&err).is_ok(), "{err}");
    }
}
