//! Stimulus scripts (`.stim`): the one reader of the grammar that
//! `xtuml run`, the serve daemon's `create` setup and the fuzz corpus
//! share.
//!
//! ```text
//! # Doorbell scenario.
//! create btn Button
//! create chm Chimer
//! relate btn chm R1
//! at 0   btn Press      # first visitor
//! at 500 btn Press
//! ```
//!
//! `#` starts a comment wherever it begins a token. Each directive has an
//! exact token count (`at` takes any number of arguments), a name is bound
//! by exactly one `create`, and arguments are `true`/`false`, an `i64`, an
//! `f64` or a `"…"` string without whitespace. Directives reach the caller
//! in script order with instance names already mapped to creation
//! ordinals, so every caller applies the same script the same way.

use std::collections::BTreeMap;
use std::fmt;

use xtuml_core::value::Value;

/// One directive; instances are named by creation ordinal (the number of
/// `create`s before the one that bound the name).
#[derive(Debug, Clone, PartialEq)]
pub enum Directive<'a> {
    /// `create <name> <Class>`: the next ordinal.
    Create(&'a str),
    /// `relate <a> <b> <Assoc>`.
    Relate(usize, usize, &'a str),
    /// `at <time> <name> <Event> [arg…]`.
    At(u64, usize, &'a str, Vec<Value>),
}

/// Reads `src` and hands each directive to `apply`, in script order.
///
/// # Errors
///
/// Stops at the first malformed line, or the first line whose directive
/// `apply` rejects, and reports it as `line N: …` (1-based).
pub fn for_each<'a, E: fmt::Display>(
    src: &'a str,
    mut apply: impl FnMut(Directive<'a>) -> Result<(), E>,
) -> Result<(), String> {
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, line) in src.lines().enumerate() {
        let mut toks = line.split_whitespace().take_while(|t| !t.starts_with('#'));
        let Some(verb) = toks.next() else { continue };
        directive(verb, &mut toks, &mut names)
            .and_then(|d| match toks.next() {
                Some(extra) => Err(format!("extra token `{extra}`")),
                None => apply(d).map_err(|e| e.to_string()),
            })
            .map_err(|msg| format!("line {}: {msg}", i + 1))?;
    }
    Ok(())
}

fn directive<'a>(
    verb: &str,
    toks: &mut impl Iterator<Item = &'a str>,
    names: &mut BTreeMap<&'a str, usize>,
) -> Result<Directive<'a>, String> {
    let mut next = |what: &str| toks.next().ok_or_else(|| format!("missing {what}"));
    let inst = |name: &str| {
        names
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown `{name}`"))
    };
    match verb {
        "create" => {
            let (name, class) = (next("name")?, next("class")?);
            let ordinal = names.len();
            if names.insert(name, ordinal).is_some() {
                return Err(format!("`{name}` is already created"));
            }
            Ok(Directive::Create(class))
        }
        "relate" => {
            let (a, b) = (inst(next("instance")?)?, inst(next("instance")?)?);
            Ok(Directive::Relate(a, b, next("association")?))
        }
        "at" => {
            let time = next("time")?;
            let time = time.parse().map_err(|_| format!("bad time `{time}`"))?;
            let name = inst(next("instance")?)?;
            let event = next("event")?;
            let args = toks.map(argument).collect::<Result<_, _>>()?;
            Ok(Directive::At(time, name, event, args))
        }
        other => Err(format!("unknown verb `{other}`")),
    }
}

/// Parses one `at` argument: `true`/`false`, an `i64`, an `f64`, or a
/// `"…"` string (the text between the quotes, taken as is).
///
/// # Errors
///
/// Names the word when it is none of these.
pub fn argument(word: &str) -> Result<Value, String> {
    match word {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = word.parse() {
        return Ok(Value::Int(i));
    }
    if let Ok(r) = word.parse() {
        return Ok(Value::Real(r));
    }
    match word.strip_prefix('"').and_then(|w| w.strip_suffix('"')) {
        Some(s) => Ok(Value::Str(s.to_owned())),
        None => Err(format!("bad argument `{word}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Directive::{At, Create, Relate};

    fn read(src: &str) -> Result<Vec<Directive<'_>>, String> {
        let mut out = Vec::new();
        for_each(src, |d| {
            out.push(d);
            Ok::<_, String>(())
        })?;
        Ok(out)
    }

    #[test]
    fn names_become_creation_ordinals() {
        let src =
            "create a A\ncreate b B # second\n\nrelate b a R1\nat 5 b E 1 -2.5 true \"x#y\"\n";
        let args = vec![
            Value::Int(1),
            Value::Real(-2.5),
            Value::Bool(true),
            Value::Str("x#y".into()),
        ];
        let want = vec![
            Create("A"),
            Create("B"),
            Relate(1, 0, "R1"),
            At(5, 1, "E", args),
        ];
        assert_eq!(read(src).unwrap(), want);
    }

    #[test]
    fn errors_name_their_line() {
        for (src, line, msg) in [
            ("create a A\ncreate a A", 2, "`a` is already created"),
            ("create a A extra", 1, "extra token `extra`"),
            ("create a", 1, "missing class"),
            ("# intro\nrelate a b R1", 2, "unknown `a`"),
            ("at x", 1, "bad time `x`"),
            ("create a A\nat 0 a E @", 2, "bad argument `@`"),
            ("create a A\nat 0 a E \"", 2, "bad argument `\"`"),
            ("frob", 1, "unknown verb `frob`"),
        ] {
            assert_eq!(
                read(src).unwrap_err(),
                format!("line {line}: {msg}"),
                "{src}"
            );
        }
    }

    #[test]
    fn apply_errors_carry_the_line() {
        let err = for_each("create a A\n\ncreate b B", |d| match d {
            Create("B") => Err("no class B"),
            _ => Ok(()),
        });
        assert_eq!(err.unwrap_err(), "line 3: no class B");
    }
}
