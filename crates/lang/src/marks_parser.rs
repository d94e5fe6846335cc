//! Parser and printer for mark files.
//!
//! Marks live in their own file, keyed to a domain by name, so the model
//! file is never edited to change the implementation mapping (paper §3):
//!
//! ```text
//! marks for Blinker;
//! mark class Led isHardware = true;
//! mark class Led queueDepth = 8;
//! mark domain cpuKhz = 100000;
//! mark actor ENV busLatency = 4;
//! ```

use xtuml_core::error::{CoreError, Pos, Result};
use xtuml_core::lex::{lex, Tok};
use xtuml_core::marks::{ElemKind, ElemRef, MarkSet, MarkValue};
use xtuml_core::parse::Parser;

/// Where one mark was declared, for span-accurate mark lints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkSpan {
    /// The marked element.
    pub elem: ElemRef,
    /// The mark key.
    pub key: String,
    /// Position of the `mark` keyword that declared it.
    pub pos: Pos,
}

/// Parses a mark file; returns the target domain name and the marks.
///
/// # Errors
///
/// Returns lexical or syntax errors. Mark *keys* are free-form by design
/// (mapping rules define which keys they understand), so unknown keys are
/// not errors here.
pub fn parse_marks(src: &str) -> Result<(String, MarkSet)> {
    parse_marks_into(src, None)
}

/// Like [`parse_marks`], but also returns the position of every mark
/// declaration so mark lints can point at the offending line.
///
/// # Errors
///
/// Returns lexical or syntax errors.
pub fn parse_marks_spanned(src: &str) -> Result<(String, MarkSet, Vec<MarkSpan>)> {
    let mut spans = Vec::new();
    let (domain, marks) = parse_marks_into(src, Some(&mut spans))?;
    Ok((domain, marks, spans))
}

/// Parses a mark file, appending each declaration's span to `spans` if
/// given.
fn parse_marks_into(src: &str, mut spans: Option<&mut Vec<MarkSpan>>) -> Result<(String, MarkSet)> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks);
    p.expect_kw("marks")?;
    p.expect_kw("for")?;
    let domain = p.expect_ident()?;
    p.expect(&Tok::Semi)?;

    let mut marks = MarkSet::new();
    while p.peek() != &Tok::Eof {
        let mark_pos = p.pos();
        p.expect_kw("mark")?;
        let elem = match p.expect_word()? {
            "domain" => ElemRef::domain(),
            "class" => ElemRef::class(p.expect_word()?),
            "actor" => ElemRef::actor(p.expect_word()?),
            "assoc" => ElemRef::assoc(p.expect_word()?),
            other => {
                return Err(CoreError::Parse {
                    pos: p.pos(),
                    msg: format!("expected `domain`, `class`, `actor` or `assoc`, found `{other}`"),
                })
            }
        };
        let key = p.expect_ident()?;
        p.expect(&Tok::Assign)?;
        let neg = p.eat(&Tok::Minus);
        let value = match p.next() {
            Tok::Int(v) => MarkValue::Int(if neg { -v } else { *v }),
            Tok::Str(s) if !neg => MarkValue::Str(s.as_ref().to_owned()),
            Tok::Ident("true") if !neg => MarkValue::Bool(true),
            Tok::Ident("false") if !neg => MarkValue::Bool(false),
            other => {
                return Err(CoreError::Parse {
                    pos: p.pos(),
                    msg: format!("expected mark value, found {other}"),
                })
            }
        };
        p.expect(&Tok::Semi)?;
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(MarkSpan {
                elem: elem.clone(),
                key: key.clone(),
                pos: mark_pos,
            });
        }
        marks.set(elem, key, value);
    }
    Ok((domain, marks))
}

/// Renders a mark set as a mark file for `domain`.
pub fn print_marks(domain: &str, marks: &MarkSet) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "marks for {domain};");
    for (elem, key, value) in marks.iter() {
        let target = match elem.kind {
            ElemKind::Domain => "domain".to_owned(),
            ElemKind::Class => format!("class {}", elem.name),
            ElemKind::Actor => format!("actor {}", elem.name),
            ElemKind::Assoc => format!("assoc {}", elem.name),
        };
        let _ = writeln!(out, "mark {target} {key} = {value};");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::marks::keys;

    #[test]
    fn parses_marks_of_all_kinds() {
        let src = r#"
marks for Blinker;
mark class Led isHardware = true;
mark class Led queueDepth = 8;
mark domain cpuKhz = 100000;
mark actor ENV label = "north";
mark assoc R1 weight = -2;
"#;
        let (domain, marks) = parse_marks(src).unwrap();
        assert_eq!(domain, "Blinker");
        assert_eq!(marks.len(), 5);
        assert!(marks.is_hardware("Led"));
        assert_eq!(
            marks.get_int_or(&ElemRef::class("Led"), keys::QUEUE_DEPTH, 0),
            8
        );
        assert_eq!(
            marks.get(&ElemRef::assoc("R1"), "weight"),
            Some(&MarkValue::Int(-2))
        );
        assert_eq!(
            marks.get(&ElemRef::actor("ENV"), "label"),
            Some(&MarkValue::Str("north".into()))
        );
    }

    #[test]
    fn round_trip() {
        let src = "marks for D;\nmark class A isHardware = true;\nmark domain cpuKhz = 5;\n";
        let (domain, marks) = parse_marks(src).unwrap();
        let printed = print_marks(&domain, &marks);
        let (d2, m2) = parse_marks(&printed).unwrap();
        assert_eq!(domain, d2);
        assert_eq!(marks, m2);
    }

    #[test]
    fn bad_target_kind_rejected() {
        assert!(parse_marks("marks for D; mark widget X k = 1;").is_err());
    }

    #[test]
    fn bad_value_rejected() {
        assert!(parse_marks("marks for D; mark class A k = ;").is_err());
        assert!(parse_marks("marks for D; mark class A k = -true;").is_err());
    }

    #[test]
    fn spanned_parse_reports_mark_positions() {
        let src = "marks for D;\nmark class A isHardware = true;\nmark domain cpuKhz = 5;\n";
        let (_, _, spans) = parse_marks_spanned(src).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].elem, ElemRef::class("A"));
        assert_eq!(spans[0].key, "isHardware");
        assert_eq!(spans[0].pos.line, 2);
        assert_eq!(spans[1].pos.line, 3);
    }

    #[test]
    fn empty_mark_file_is_valid() {
        let (d, m) = parse_marks("marks for D;").unwrap();
        assert_eq!(d, "D");
        assert!(m.is_empty());
    }
}
