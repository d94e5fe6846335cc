//! Lexer shared by the action-language parser ([`crate::parse`]) and the
//! model-file parser in `xtuml-lang`.
//!
//! The token set is deliberately small: identifiers (keywords are
//! recognised by the parsers, not the lexer), integer/real/string literals,
//! and punctuation. `//` starts a line comment.
//!
//! Tokens borrow from the source: an identifier is a slice of it, and so
//! is a string literal without escapes, so lexing a model allocates only
//! the token vector (plus one `String` per escaped literal).

use crate::error::{CoreError, Pos, Result};
use std::borrow::Cow;
use std::fmt;

/// A lexical token, borrowing its text from the source `'s`.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'s> {
    /// Identifier or keyword.
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// Real literal (contains a `.`).
    Real(f64),
    /// String literal (supports `\"`, `\\`, `\n`, `\t` escapes); owned
    /// only when an escape made its value differ from its source text.
    Str(Cow<'s, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `::`
    ColonColon,
    /// `->`
    Arrow,
    /// `--`
    DashDash,
    /// `=`
    Assign,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Real(v) => write!(f, "`{v}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::ColonColon => write!(f, "`::`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::DashDash => write!(f, "`--`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::Eq => write!(f, "`==`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token paired with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub tok: Tok<'s>,
    /// Position of the token's first character.
    pub pos: Pos,
}

/// Tokenises `src`, appending an [`Tok::Eof`] sentinel.
///
/// The walk is by byte offset; columns count characters, so a
/// multi-byte character advances its column by one.
///
/// # Errors
///
/// Returns [`CoreError::Lex`] on unknown characters, malformed numbers,
/// or unterminated strings.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>> {
    let bytes = src.as_bytes();
    // Shipped models run about 4 source bytes per token and generated
    // ones at least 2.6, so this never grows on either.
    let mut out = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($tok:expr, $pos:expr) => {
            out.push(Spanned {
                tok: $tok,
                pos: $pos,
            })
        };
    }

    while i < bytes.len() {
        let c = src[i..]
            .chars()
            .next()
            .expect("`i` is a character boundary");
        let pos = Pos::new(line, col);
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += c.len_utf8();
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // A `\n` byte never occurs inside a multi-byte character.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                for ch in src[i..].chars() {
                    if !(ch.is_alphanumeric() || ch == '_') {
                        break;
                    }
                    i += ch.len_utf8();
                    col += 1;
                }
                push!(Tok::Ident(&src[start..i]), pos);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
                // A `.` followed by a digit makes this a real literal; a
                // bare `.` is attribute access on an int (not allowed, but
                // the parser will say so with a better message).
                let is_real =
                    bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_real {
                    i += 1;
                    col += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                        col += 1;
                    }
                }
                let text = &src[start..i];
                if is_real {
                    let v = text.parse::<f64>().map_err(|e| CoreError::Lex {
                        pos,
                        msg: format!("bad real literal `{text}`: {e}"),
                    })?;
                    push!(Tok::Real(v), pos);
                } else {
                    let v = text.parse::<i64>().map_err(|e| CoreError::Lex {
                        pos,
                        msg: format!("bad int literal `{text}`: {e}"),
                    })?;
                    push!(Tok::Int(v), pos);
                }
            }
            '"' => {
                i += 1;
                col += 1;
                // Text before the first escape is borrowed; an escape
                // moves the value into `owned`, and `run` starts the
                // source text not yet copied there.
                let mut owned: Option<String> = None;
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None | Some(b'\n') => {
                            return Err(CoreError::Lex {
                                pos,
                                msg: "unterminated string literal".into(),
                            })
                        }
                        Some(b'"') => break,
                        Some(b'\\') => {
                            let ch = match bytes.get(i + 1) {
                                Some(b'n') => '\n',
                                Some(b't') => '\t',
                                Some(b'\\') => '\\',
                                Some(b'"') => '"',
                                _ => {
                                    let other = src[i + 1..].chars().next().unwrap_or(' ');
                                    return Err(CoreError::Lex {
                                        pos,
                                        msg: format!("unknown escape `\\{other}`"),
                                    });
                                }
                            };
                            let s = owned.get_or_insert_with(String::new);
                            s.push_str(&src[run..i]);
                            s.push(ch);
                            i += 2;
                            col += 2;
                            run = i;
                        }
                        Some(&b) => {
                            i += 1;
                            // One column per character: count lead bytes.
                            if b & 0xC0 != 0x80 {
                                col += 1;
                            }
                        }
                    }
                }
                let tail = &src[run..i];
                let text = match owned {
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(tail),
                };
                i += 1;
                col += 1;
                push!(Tok::Str(text), pos);
            }
            _ => {
                // Punctuation, longest match first.
                let next = bytes.get(i + 1).copied();
                let (tok, len) = match (c, next) {
                    (':', Some(b':')) => (Tok::ColonColon, 2),
                    ('-', Some(b'>')) => (Tok::Arrow, 2),
                    ('-', Some(b'-')) => (Tok::DashDash, 2),
                    ('=', Some(b'=')) => (Tok::Eq, 2),
                    ('!', Some(b'=')) => (Tok::Ne, 2),
                    ('<', Some(b'=')) => (Tok::Le, 2),
                    ('>', Some(b'=')) => (Tok::Ge, 2),
                    ('(', _) => (Tok::LParen, 1),
                    (')', _) => (Tok::RParen, 1),
                    ('{', _) => (Tok::LBrace, 1),
                    ('}', _) => (Tok::RBrace, 1),
                    ('[', _) => (Tok::LBracket, 1),
                    (']', _) => (Tok::RBracket, 1),
                    (';', _) => (Tok::Semi, 1),
                    (',', _) => (Tok::Comma, 1),
                    ('.', _) => (Tok::Dot, 1),
                    (':', _) => (Tok::Colon, 1),
                    ('=', _) => (Tok::Assign, 1),
                    ('<', _) => (Tok::Lt, 1),
                    ('>', _) => (Tok::Gt, 1),
                    ('+', _) => (Tok::Plus, 1),
                    ('-', _) => (Tok::Minus, 1),
                    ('*', _) => (Tok::Star, 1),
                    ('/', _) => (Tok::Slash, 1),
                    ('%', _) => (Tok::Percent, 1),
                    (other, _) => {
                        return Err(CoreError::Lex {
                            pos,
                            msg: format!("unexpected character `{other}`"),
                        })
                    }
                };
                push!(tok, pos);
                i += len;
                col += len as u32;
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        pos: Pos::new(line, col),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            toks("x = y + 1;"),
            vec![
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Ident("y"),
                Tok::Plus,
                Tok::Int(1),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("a == b != c <= d >= e -> f :: g --"),
            vec![
                Tok::Ident("a"),
                Tok::Eq,
                Tok::Ident("b"),
                Tok::Ne,
                Tok::Ident("c"),
                Tok::Le,
                Tok::Ident("d"),
                Tok::Ge,
                Tok::Ident("e"),
                Tok::Arrow,
                Tok::Ident("f"),
                Tok::ColonColon,
                Tok::Ident("g"),
                Tok::DashDash,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("3.5"), vec![Tok::Real(3.5), Tok::Eof]);
        // `1.x` lexes as int, dot, ident — attribute access, not a real.
        assert_eq!(
            toks("1.x"),
            vec![Tok::Int(1), Tok::Dot, Tok::Ident("x"), Tok::Eof]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks(r#""hi\n\"there\"""#),
            vec![Tok::Str("hi\n\"there\"".into()), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
        assert!(lex(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\nb"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos::new(1, 1));
        assert_eq!(ts[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn unknown_char_is_an_error() {
        assert!(lex("a ? b").is_err());
        assert!(lex("a #").is_err());
    }

    #[test]
    fn empty_input_yields_eof() {
        assert_eq!(toks(""), vec![Tok::Eof]);
    }

    fn positions(src: &str) -> Vec<(Tok<'_>, u32, u32)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|s| (s.tok, s.pos.line, s.pos.col))
            .collect()
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes and `日本` six: each is one column per char.
        assert_eq!(
            positions("é = 日本 + x;"),
            vec![
                (Tok::Ident("é"), 1, 1),
                (Tok::Assign, 1, 3),
                (Tok::Ident("日本"), 1, 5),
                (Tok::Plus, 1, 8),
                (Tok::Ident("x"), 1, 10),
                (Tok::Semi, 1, 11),
                (Tok::Eof, 1, 12),
            ]
        );
        assert_eq!(
            positions("\"ü€😀\" y \"a\\tß\" z"),
            vec![
                (Tok::Str("ü€😀".into()), 1, 1),
                (Tok::Ident("y"), 1, 7),
                (Tok::Str("a\tß".into()), 1, 9),
                (Tok::Ident("z"), 1, 16),
                (Tok::Eof, 1, 17),
            ]
        );
    }

    #[test]
    fn only_escaped_strings_own_their_text() {
        let ts = lex(r#""plain" "esc\"aped""#).unwrap();
        assert!(matches!(&ts[0].tok, Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&ts[1].tok, Tok::Str(Cow::Owned(s)) if s == "esc\"aped"));
    }

    #[test]
    fn crlf_line_endings() {
        // `\r` is whitespace: it takes a column, and `\n` starts the line.
        assert_eq!(
            positions("a;\r\n  b\r\n"),
            vec![
                (Tok::Ident("a"), 1, 1),
                (Tok::Semi, 1, 2),
                (Tok::Ident("b"), 2, 3),
                (Tok::Eof, 3, 1),
            ]
        );
        assert_eq!(
            positions("x // note\r\ny"),
            vec![
                (Tok::Ident("x"), 1, 1),
                (Tok::Ident("y"), 2, 1),
                (Tok::Eof, 2, 2)
            ]
        );
    }

    fn lex_error(src: &str) -> String {
        lex(src).unwrap_err().to_string()
    }

    #[test]
    fn lex_errors_name_their_text_and_position() {
        assert_eq!(
            lex_error("x = 99999999999999999999;"),
            "lex error at 1:5: bad int literal `99999999999999999999`: \
             number too large to fit in target type"
        );
        assert_eq!(
            lex_error("a\n  \"open"),
            "lex error at 2:3: unterminated string literal"
        );
        assert_eq!(
            lex_error("\"two\nlines\""),
            "lex error at 1:1: unterminated string literal"
        );
        assert_eq!(
            lex_error("é \"ok \\q\""),
            "lex error at 1:3: unknown escape `\\q`"
        );
        assert_eq!(lex_error("\"\\"), "lex error at 1:1: unknown escape `\\ `");
        assert_eq!(
            lex_error("ab ? c"),
            "lex error at 1:4: unexpected character `?`"
        );
        assert_eq!(
            lex_error("日本 €"),
            "lex error at 1:4: unexpected character `€`"
        );
    }
}
