//! Parser for model files (`domain ... ;` declarations).
//!
//! Declaration parsing reuses the core lexer and hands action bodies to
//! the core action parser with the declared actor names in scope. Because
//! actors may be declared after the classes that signal them, parsing is
//! two-pass: a cheap token scan collects actor names first.

use std::collections::BTreeSet;
use xtuml_core::builder::{ActorBuilder, ClassBuilder, DomainBuilder};
use xtuml_core::diag::SourceMap;
use xtuml_core::error::{CoreError, Pos, Result};
use xtuml_core::lex::{lex, Spanned, Tok};
use xtuml_core::model::{Domain, Multiplicity};
use xtuml_core::parse::Parser;
use xtuml_core::value::{DataType, Value};

/// Parses a complete model file into a validated [`Domain`].
///
/// # Errors
///
/// Returns lexical, syntax, resolution, structural-validation or type
/// errors — a domain returned by this function is ready to execute.
pub fn parse_domain(src: &str) -> Result<Domain> {
    parse_to_builder(src, None)?.build()
}

/// Parses a model file for *linting*: name resolution and indexing run,
/// but whole-model validation does **not** — structural and type findings
/// are left for the caller to accumulate (via
/// `xtuml_core::validate::validate_into`). Also returns the
/// [`SourceMap`] of declaration positions so diagnostics can point at
/// real source locations.
///
/// # Errors
///
/// Returns lexical, syntax and name-resolution errors — defects that
/// leave no coherent model to lint.
pub fn parse_domain_for_lint(src: &str) -> Result<(Domain, SourceMap)> {
    let mut spans = SourceMap::new();
    let builder = parse_to_builder(src, Some(&mut spans))?;
    Ok((builder.build_unvalidated()?, spans))
}

/// Where declaration positions go: into the lint parse's [`SourceMap`],
/// or nowhere, so a plain load builds no keys.
type Spans<'m> = Option<&'m mut SourceMap>;

/// Records `pos` under the key `key` builds, if spans are kept.
fn record(spans: &mut Spans<'_>, key: impl FnOnce() -> String, pos: Pos) {
    if let Some(map) = spans {
        map.record(key(), pos);
    }
}

fn parse_to_builder(src: &str, mut spans: Spans<'_>) -> Result<DomainBuilder> {
    let toks = lex(src)?;
    let actors = scan_actor_names(&toks);
    let mut p = Parser::with_actors(&toks, &actors);

    p.expect_kw("domain")?;
    let name = p.expect_word()?;
    p.expect(&Tok::Semi)?;

    let mut builder = DomainBuilder::new(name);
    loop {
        if p.eat_kw("class") {
            let pos = p.pos();
            let name = p.expect_word()?;
            record(&mut spans, || SourceMap::class_key(name), pos);
            parse_class(&mut p, builder.class(name), name, &mut spans)?;
        } else if p.eat_kw("actor") {
            let pos = p.pos();
            let name = p.expect_word()?;
            record(&mut spans, || SourceMap::actor_key(name), pos);
            parse_actor(&mut p, builder.actor(name))?;
        } else if p.eat_kw("assoc") {
            parse_assoc(&mut p, &mut builder, &mut spans)?;
        } else if p.peek() == &Tok::Eof {
            break;
        } else {
            return Err(CoreError::Parse {
                pos: p.pos(),
                msg: format!("expected `class`, `actor` or `assoc`, found {}", p.peek()),
            });
        }
    }
    Ok(builder)
}

/// First pass: find every `actor <Name>` pair in the token stream.
fn scan_actor_names<'s>(toks: &[Spanned<'s>]) -> BTreeSet<&'s str> {
    let mut names = BTreeSet::new();
    for w in toks.windows(2) {
        if let (Tok::Ident("actor"), Tok::Ident(name)) = (&w[0].tok, &w[1].tok) {
            names.insert(*name);
        }
    }
    names
}

fn parse_type(p: &mut Parser<'_, '_>) -> Result<DataType> {
    match p.expect_word()? {
        "bool" => Ok(DataType::Bool),
        "int" => Ok(DataType::Int),
        "real" => Ok(DataType::Real),
        "string" => Ok(DataType::Str),
        other => Err(CoreError::Parse {
            pos: p.pos(),
            msg: format!(
                "unknown type `{other}` (attribute and parameter types must be scalar: bool, int, real, string)"
            ),
        }),
    }
}

fn parse_literal(p: &mut Parser<'_, '_>) -> Result<Value> {
    let neg = p.eat(&Tok::Minus);
    match p.next() {
        Tok::Int(v) => Ok(Value::Int(if neg { -v } else { *v })),
        Tok::Real(v) => Ok(Value::Real(if neg { -v } else { *v })),
        Tok::Str(s) if !neg => Ok(Value::Str(s.as_ref().to_owned())),
        Tok::Ident("true") if !neg => Ok(Value::Bool(true)),
        Tok::Ident("false") if !neg => Ok(Value::Bool(false)),
        other => Err(CoreError::Parse {
            pos: p.pos(),
            msg: format!("expected literal default value, found {other}"),
        }),
    }
}

fn parse_params<'s>(p: &mut Parser<'_, 's>) -> Result<Vec<(&'s str, DataType)>> {
    p.expect(&Tok::LParen)?;
    let mut params = Vec::new();
    if p.peek() != &Tok::RParen {
        loop {
            let name = p.expect_word()?;
            p.expect(&Tok::Colon)?;
            let ty = parse_type(p)?;
            params.push((name, ty));
            if !p.eat(&Tok::Comma) {
                break;
            }
        }
    }
    p.expect(&Tok::RParen)?;
    Ok(params)
}

fn parse_class(
    p: &mut Parser<'_, '_>,
    cb: &mut ClassBuilder,
    class_name: &str,
    spans: &mut Spans<'_>,
) -> Result<()> {
    p.expect(&Tok::LBrace)?;
    loop {
        if p.eat_kw("attr") {
            let pos = p.pos();
            let name = p.expect_word()?;
            record(spans, || SourceMap::attr_key(class_name, name), pos);
            p.expect(&Tok::Colon)?;
            let ty = parse_type(p)?;
            if p.eat(&Tok::Assign) {
                let v = parse_literal(p)?;
                if v.data_type() != ty {
                    return Err(CoreError::Parse {
                        pos: p.pos(),
                        msg: format!("default value type {} != declared {ty}", v.data_type()),
                    });
                }
                cb.attr_default(name, ty, v);
            } else {
                cb.attr(name, ty);
            }
            p.expect(&Tok::Semi)?;
        } else if p.eat_kw("event") {
            let pos = p.pos();
            let name = p.expect_word()?;
            record(spans, || SourceMap::event_key(class_name, name), pos);
            cb.event(name, &parse_params(p)?);
            p.expect(&Tok::Semi)?;
        } else if p.eat_kw("initial") {
            cb.initial(p.expect_word()?);
            p.expect(&Tok::Semi)?;
        } else if p.eat_kw("state") {
            let pos = p.pos();
            let name = p.expect_word()?;
            record(spans, || SourceMap::state_key(class_name, name), pos);
            let block = p.parse_braced_block()?;
            cb.state_block(name, block);
        } else if p.eat_kw("on") {
            let pos = p.pos();
            let from = p.expect_word()?;
            p.expect(&Tok::Colon)?;
            let event = p.expect_word()?;
            record(
                spans,
                || SourceMap::transition_key(class_name, from, event),
                pos,
            );
            if p.eat(&Tok::Arrow) {
                cb.transition(from, event, p.expect_word()?);
            } else if p.eat_kw("ignore") {
                cb.ignore(from, event);
            } else {
                return Err(CoreError::Parse {
                    pos: p.pos(),
                    msg: format!("expected `->` or `ignore`, found {}", p.peek()),
                });
            }
            p.expect(&Tok::Semi)?;
        } else if p.eat(&Tok::RBrace) {
            return Ok(());
        } else {
            return Err(CoreError::Parse {
                pos: p.pos(),
                msg: format!(
                    "expected `attr`, `event`, `initial`, `state`, `on` or `}}`, found {}",
                    p.peek()
                ),
            });
        }
    }
}

fn parse_actor(p: &mut Parser<'_, '_>, ab: &mut ActorBuilder) -> Result<()> {
    p.expect(&Tok::LBrace)?;
    loop {
        if p.eat_kw("signal") {
            let name = p.expect_word()?;
            ab.event(name, &parse_params(p)?);
            p.expect(&Tok::Semi)?;
        } else if p.eat_kw("func") {
            let name = p.expect_word()?;
            let params = parse_params(p)?;
            let ret = if p.eat(&Tok::Arrow) {
                Some(parse_type(p)?)
            } else {
                None
            };
            ab.func(name, &params, ret);
            p.expect(&Tok::Semi)?;
        } else if p.eat(&Tok::RBrace) {
            return Ok(());
        } else {
            return Err(CoreError::Parse {
                pos: p.pos(),
                msg: format!("expected `signal`, `func` or `}}`, found {}", p.peek()),
            });
        }
    }
}

fn parse_mult(p: &mut Parser<'_, '_>) -> Result<Multiplicity> {
    match p.expect_word()? {
        "one" => Ok(Multiplicity::One),
        "maybe" => Ok(Multiplicity::ZeroOne),
        "many" => Ok(Multiplicity::Many),
        other => Err(CoreError::Parse {
            pos: p.pos(),
            msg: format!("expected multiplicity `one`, `maybe` or `many`, found `{other}`"),
        }),
    }
}

fn parse_assoc(
    p: &mut Parser<'_, '_>,
    builder: &mut DomainBuilder,
    spans: &mut Spans<'_>,
) -> Result<()> {
    // assoc R1: From one -- To many;
    let pos = p.pos();
    let name = p.expect_word()?;
    record(spans, || SourceMap::assoc_key(name), pos);
    p.expect(&Tok::Colon)?;
    let from = p.expect_word()?;
    let from_mult = parse_mult(p)?;
    p.expect(&Tok::DashDash)?;
    let to = p.expect_word()?;
    let to_mult = parse_mult(p)?;
    p.expect(&Tok::Semi)?;
    builder.association(name, from, from_mult, to, to_mult);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLINKER: &str = r#"
domain Blinker;

actor ENV {
    signal blinked(count: int);
    func now() -> int;
    func info(msg: string);
}

class Led {
    attr on: bool;
    attr blinks: int = 0;

    event Toggle();
    event SetRate(hz: int);

    initial Off;

    state Off {
        self.on = false;
    }
    state On {
        self.on = true;
        self.blinks = self.blinks + 1;
        gen blinked(self.blinks) to ENV;
    }

    on Off: Toggle -> On;
    on On: Toggle -> Off;
    on Off: SetRate ignore;
}

class Board {
    attr name: string = "b0";
}

assoc R1: Board one -- Led many;
"#;

    #[test]
    fn parses_full_model() {
        let d = parse_domain(BLINKER).unwrap();
        assert_eq!(d.name, "Blinker");
        assert_eq!(d.classes.len(), 2);
        assert_eq!(d.actors.len(), 1);
        assert_eq!(d.associations.len(), 1);
        let led = d.class(d.class_id("Led").unwrap());
        assert_eq!(led.attributes.len(), 2);
        assert_eq!(led.events.len(), 2);
        let m = led.state_machine.as_ref().unwrap();
        assert_eq!(m.states.len(), 2);
        assert_eq!(m.transitions.len(), 3);
        let board = d.class(d.class_id("Board").unwrap());
        assert!(board.state_machine.is_none());
        assert_eq!(board.attributes[0].default, Value::Str("b0".into()));
        let env = d.actor(d.actor_id("ENV").unwrap());
        assert_eq!(env.events.len(), 1);
        assert_eq!(env.funcs.len(), 2);
        assert_eq!(env.funcs[0].ret, Some(DataType::Int));
        assert_eq!(env.funcs[1].ret, None);
    }

    #[test]
    fn actor_declared_after_class_still_resolves() {
        let src = r#"
domain D;
class C {
    event E();
    initial S;
    state S { gen ping() to OUT; }
    on S: E -> S;
}
actor OUT { signal ping(); }
"#;
        let d = parse_domain(src).unwrap();
        assert_eq!(d.actors.len(), 1);
    }

    #[test]
    fn negative_default_values() {
        let src = "domain D; class C { attr x: int = -5; attr y: real = -2.5; }";
        let d = parse_domain(src).unwrap();
        let c = d.class(d.class_id("C").unwrap());
        assert_eq!(c.attributes[0].default, Value::Int(-5));
        assert_eq!(c.attributes[1].default, Value::Real(-2.5));
    }

    #[test]
    fn default_type_mismatch_rejected() {
        assert!(parse_domain("domain D; class C { attr x: int = true; }").is_err());
    }

    #[test]
    fn nonscalar_attr_type_rejected() {
        assert!(parse_domain("domain D; class C { attr x: Lamp; }").is_err());
    }

    #[test]
    fn junk_at_top_level_rejected() {
        assert!(parse_domain("domain D; junk").is_err());
    }

    #[test]
    fn missing_transition_arrow_rejected() {
        let src = "domain D; class C { event E(); initial S; state S { } on S: E 5; }";
        assert!(parse_domain(src).is_err());
    }

    #[test]
    fn semantic_errors_surface() {
        // Transition references an unknown state.
        let src = "domain D; class C { event E(); initial S; state S { } on S: E -> T; }";
        assert!(parse_domain(src).is_err());
        // Action type error.
        let src =
            "domain D; class C { attr n: int; event E(); initial S; state S { self.n = true; } on S: E -> S; }";
        assert!(parse_domain(src).is_err());
    }

    #[test]
    fn lint_parse_records_declaration_spans() {
        let (d, spans) = parse_domain_for_lint(BLINKER).unwrap();
        assert_eq!(d.name, "Blinker");
        // Line numbers follow declaration order in the BLINKER source.
        let led = spans.get(&SourceMap::class_key("Led"));
        assert!(led.line > 0, "class span missing");
        let on_attr = spans.get(&SourceMap::attr_key("Led", "on"));
        let toggle = spans.get(&SourceMap::event_key("Led", "Toggle"));
        let off = spans.get(&SourceMap::state_key("Led", "Off"));
        let row = spans.get(&SourceMap::transition_key("Led", "Off", "Toggle"));
        let r1 = spans.get(&SourceMap::assoc_key("R1"));
        let env = spans.get(&SourceMap::actor_key("ENV"));
        for p in [on_attr, toggle, off, row, r1, env] {
            assert!(p.line > 0, "span missing: {spans:?}");
        }
        assert!(led.line < on_attr.line);
        assert!(on_attr.line < toggle.line);
        assert!(toggle.line < off.line);
        assert!(off.line < row.line);
        assert!(env.line < led.line);
    }

    #[test]
    fn lint_parse_skips_validation() {
        // A type error in an action must NOT fail parse_domain_for_lint —
        // it is the lint driver's job to report it with full accumulation.
        let src =
            "domain D; class C { attr n: int; event E(); initial S; state S { self.n = true; } on S: E -> S; }";
        assert!(parse_domain(src).is_err());
        let (d, _spans) = parse_domain_for_lint(src).unwrap();
        assert_eq!(d.classes.len(), 1);
    }

    #[test]
    fn multiplicities_parse() {
        let src = "domain D; class A { } class B { } assoc R1: A maybe -- B many;";
        let d = parse_domain(src).unwrap();
        assert_eq!(d.associations[0].from_mult, Multiplicity::ZeroOne);
        assert_eq!(d.associations[0].to_mult, Multiplicity::Many);
        assert!(parse_domain("domain D; class A { } assoc R1: A two -- A one;").is_err());
    }
}
