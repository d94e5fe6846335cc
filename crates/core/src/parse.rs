//! Recursive-descent parser for the action language.
//!
//! Grammar (statements):
//!
//! ```text
//! stmt  := lvalue '=' 'create' Class ';'
//!        | lvalue '=' expr ';'
//!        | 'delete' expr ';'
//!        | 'select' ('any'|'many') var 'from' Class ('where' expr)? ';'
//!        | 'relate' expr 'to' expr 'across' Rk ';'
//!        | 'unrelate' expr 'from' expr 'across' Rk ';'
//!        | 'gen' Event '(' args ')' 'to' gen_target ('after' expr)? ';'
//!        | 'cancel' Event ';'
//!        | 'if' '(' expr ')' block ('elif' '(' expr ')' block)* ('else' block)?
//!        | 'while' '(' expr ')' block
//!        | 'foreach' var 'in' expr block
//!        | 'break' ';' | 'continue' ';' | 'return' ';'
//!        | expr ';'                      // bridge-call statement
//! ```
//!
//! Expression precedence, loosest first: `or`, `and`, comparisons,
//! additive, multiplicative, unary (`-`, `not`), postfix (`.attr`,
//! `-> Class[Rk]`), primary. Built-ins (`cardinality`, `empty`,
//! `not_empty`, `any`, `int`, `real`, `string`) are keyword-call syntax:
//! `cardinality(expr)`.
//!
//! The parser is exported so that `xtuml-lang` can reuse it for the action
//! bodies inside model files (passing the set of declared actor names so
//! `gen E() to LOG;` resolves to an actor target at parse time).

use crate::action::{Block, Expr, GenTarget, LValue, Stmt};
use crate::error::{CoreError, Pos, Result};
use crate::lex::{lex, Spanned, Tok};
use crate::value::{BinOp, UnOp, Value};
use std::collections::BTreeSet;

/// Parses a standalone action block (no enclosing braces).
///
/// Actor names in `gen ... to <name>` targets cannot be distinguished from
/// variables without the declaration context; use [`Parser::with_actors`]
/// (as `xtuml-lang` does) to resolve them at parse time. Without it, the
/// interpreter and type checker fall back to treating an unknown variable
/// in target position as an actor name.
///
/// # Errors
///
/// Returns [`CoreError::Lex`] or [`CoreError::Parse`] on malformed input.
///
/// ```
/// let block = xtuml_core::parse::parse_block("self.x = self.x + 1;")?;
/// assert_eq!(block.stmts.len(), 1);
/// # Ok::<(), xtuml_core::CoreError>(())
/// ```
pub fn parse_block(src: &str) -> Result<Block> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks);
    let block = p.parse_block_until(&Tok::Eof)?;
    p.expect(&Tok::Eof)?;
    Ok(block)
}

/// Parses a standalone expression.
///
/// # Errors
///
/// Returns [`CoreError::Lex`] or [`CoreError::Parse`] on malformed input.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks);
    let e = p.parse_expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

/// Statement keywords that may not be used as variable names.
const RESERVED: &[&str] = &[
    "create",
    "delete",
    "select",
    "any",
    "many",
    "from",
    "where",
    "relate",
    "unrelate",
    "to",
    "across",
    "gen",
    "after",
    "cancel",
    "if",
    "elif",
    "else",
    "while",
    "foreach",
    "in",
    "break",
    "continue",
    "return",
    "and",
    "or",
    "not",
    "true",
    "false",
    "self",
    "selected",
    "rcvd",
    "empty",
    "not_empty",
    "cardinality",
    "int",
    "real",
    "string",
    "bool",
];

/// The deepest nesting the parser accepts. Braced blocks, expressions
/// (parenthesised or not) and unary operators each open a level; an
/// operator chain (`a + b + c`, `x.p.q`) takes one level per operator,
/// since its tree is as deep as the chain is long. Each level costs the
/// parser or a later pass over the tree a few stack frames, so without a
/// bound one action of nested `(` or of a 100,000-term sum overflows the
/// stack and aborts the process. Shipped models nest fewer than ten
/// levels deep.
pub const MAX_NESTING: usize = 64;

/// An expression and its height: the nodes on its longest root-to-leaf
/// path.
type Tall = (Expr, usize);

/// A resumable recursive-descent parser over a token slice.
pub struct Parser<'t> {
    toks: &'t [Spanned],
    at: usize,
    actors: BTreeSet<String>,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'t> Parser<'t> {
    /// Creates a parser with no actor-name context.
    pub fn new(toks: &'t [Spanned]) -> Parser<'t> {
        Parser {
            toks,
            at: 0,
            actors: BTreeSet::new(),
            depth: 0,
        }
    }

    /// Creates a parser that resolves the given names as actor targets in
    /// `gen` statements.
    pub fn with_actors(toks: &'t [Spanned], actors: BTreeSet<String>) -> Parser<'t> {
        Parser {
            toks,
            at: 0,
            actors,
            depth: 0,
        }
    }

    /// Current token.
    pub fn peek(&self) -> &Tok {
        &self.toks[self.at.min(self.toks.len() - 1)].tok
    }

    /// Position of the current token.
    pub fn pos(&self) -> Pos {
        self.toks[self.at.min(self.toks.len() - 1)].pos
    }

    /// Consumes and returns the current token.
    #[allow(clippy::should_implement_trait)] // a parser cursor, not an Iterator
    pub fn next(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.at < self.toks.len() - 1 {
            self.at += 1;
        }
        t
    }

    /// Consumes the current token if it equals `t`.
    pub fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    /// Consumes the current token, failing if it is not `t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] naming the expected token.
    pub fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    /// Consumes an identifier token and returns its text.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] if the current token is not an
    /// identifier.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Consumes an identifier usable as a variable (not a reserved word).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for reserved words or non-identifiers.
    pub fn expect_name(&mut self) -> Result<String> {
        let name = self.expect_ident()?;
        if RESERVED.contains(&name.as_str()) {
            return Err(self.err(format!("`{name}` is a reserved word")));
        }
        Ok(name)
    }

    /// True if the current token is the identifier `kw`.
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Consumes the identifier `kw` if present.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    /// Consumes the identifier `kw`, failing otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] naming the expected keyword.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn err(&self, msg: String) -> CoreError {
        CoreError::Parse {
            pos: self.pos(),
            msg,
        }
    }

    fn too_deep(&self) -> CoreError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of a chain node over a child `height` levels tall.
    /// Chains build their trees in a loop rather than by recursion, so
    /// this, not [`Self::nested`], keeps them within [`MAX_NESTING`].
    fn taller(&self, height: usize) -> Result<usize> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(height + 1)
    }

    /// Builds the chain node `lhs op rhs`.
    fn bin(&self, op: BinOp, (lhs, hl): Tall, (rhs, hr): Tall) -> Result<Tall> {
        let height = self.taller(hl.max(hr))?;
        Ok((Expr::bin(op, lhs, rhs), height))
    }

    // -- statements ---------------------------------------------------------

    /// Parses statements until `end` (not consumed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] on malformed statements.
    pub fn parse_block_until(&mut self, end: &Tok) -> Result<Block> {
        let mut stmts = Vec::new();
        while self.peek() != end && self.peek() != &Tok::Eof {
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block { stmts })
    }

    /// Parses one `{ ... }`-braced block.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] on malformed input.
    pub fn parse_braced_block(&mut self) -> Result<Block> {
        self.expect(&Tok::LBrace)?;
        let b = self.nested(|p| p.parse_block_until(&Tok::RBrace))?;
        self.expect(&Tok::RBrace)?;
        Ok(b)
    }

    /// Parses a single statement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] on malformed input.
    pub fn parse_stmt(&mut self) -> Result<Stmt> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Ident(kw) => match kw.as_str() {
                "delete" => {
                    self.next();
                    let expr = self.parse_expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Delete { expr, pos })
                }
                "select" => self.parse_select(pos),
                "relate" => {
                    self.next();
                    let a = self.parse_expr()?;
                    self.expect_kw("to")?;
                    let b = self.parse_expr()?;
                    self.expect_kw("across")?;
                    let assoc = self.expect_ident()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Relate { a, b, assoc, pos })
                }
                "unrelate" => {
                    self.next();
                    let a = self.parse_expr()?;
                    self.expect_kw("from")?;
                    let b = self.parse_expr()?;
                    self.expect_kw("across")?;
                    let assoc = self.expect_ident()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Unrelate { a, b, assoc, pos })
                }
                "gen" => self.parse_generate(pos),
                "cancel" => {
                    self.next();
                    let event = self.expect_ident()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Cancel { event, pos })
                }
                "if" => self.parse_if(pos),
                "while" => {
                    self.next();
                    self.expect(&Tok::LParen)?;
                    let cond = self.parse_expr()?;
                    self.expect(&Tok::RParen)?;
                    let body = self.parse_braced_block()?;
                    Ok(Stmt::While { cond, body, pos })
                }
                "foreach" => {
                    self.next();
                    let var = self.expect_name()?;
                    self.expect_kw("in")?;
                    let set = self.parse_expr()?;
                    let body = self.parse_braced_block()?;
                    Ok(Stmt::ForEach {
                        var,
                        set,
                        body,
                        pos,
                    })
                }
                "break" => {
                    self.next();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Break { pos })
                }
                "continue" => {
                    self.next();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Continue { pos })
                }
                "return" => {
                    self.next();
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return { pos })
                }
                _ => self.parse_assign_or_call(pos),
            },
            _ => self.parse_assign_or_call(pos),
        }
    }

    fn parse_select(&mut self, pos: Pos) -> Result<Stmt> {
        self.next(); // `select`
        let many = if self.eat_kw("any") {
            false
        } else if self.eat_kw("many") {
            true
        } else {
            return Err(self.err("expected `any` or `many` after `select`".into()));
        };
        let var = self.expect_name()?;
        self.expect_kw("from")?;
        let class = self.expect_ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&Tok::Semi)?;
        if many {
            Ok(Stmt::SelectMany {
                var,
                class,
                filter,
                pos,
            })
        } else {
            Ok(Stmt::SelectAny {
                var,
                class,
                filter,
                pos,
            })
        }
    }

    fn parse_generate(&mut self, pos: Pos) -> Result<Stmt> {
        self.next(); // `gen`
        let event = self.expect_ident()?;
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect_kw("to")?;
        let target = match self.peek().clone() {
            Tok::Ident(name) if self.actors.contains(&name) => {
                self.next();
                GenTarget::Actor(name)
            }
            _ => GenTarget::Inst(self.parse_expr()?),
        };
        let delay = if self.eat_kw("after") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Generate {
            event,
            args,
            target,
            delay,
            pos,
        })
    }

    fn parse_if(&mut self, pos: Pos) -> Result<Stmt> {
        self.next(); // `if`
        let mut arms = Vec::new();
        self.expect(&Tok::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Tok::RParen)?;
        arms.push((cond, self.parse_braced_block()?));
        let mut otherwise = None;
        loop {
            if self.eat_kw("elif") {
                self.expect(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                arms.push((cond, self.parse_braced_block()?));
            } else if self.eat_kw("else") {
                otherwise = Some(self.parse_braced_block()?);
                break;
            } else {
                break;
            }
        }
        Ok(Stmt::If {
            arms,
            otherwise,
            pos,
        })
    }

    fn parse_assign_or_call(&mut self, pos: Pos) -> Result<Stmt> {
        let expr = self.parse_expr()?;
        if self.eat(&Tok::Assign) {
            let lhs = match expr {
                Expr::Var(n) => LValue::Var(n),
                Expr::Attr(base, name) => LValue::Attr(*base, name),
                other => {
                    return Err(self.err(format!("`{other}` is not assignable")));
                }
            };
            // `v = create Class;`
            if self.eat_kw("create") {
                let class = self.expect_ident()?;
                self.expect(&Tok::Semi)?;
                let LValue::Var(var) = lhs else {
                    return Err(self.err("`create` result must bind a variable".into()));
                };
                return Ok(Stmt::Create { var, class, pos });
            }
            let rhs = self.parse_expr()?;
            self.expect(&Tok::Semi)?;
            Ok(Stmt::Assign {
                lhs,
                expr: rhs,
                pos,
            })
        } else {
            self.expect(&Tok::Semi)?;
            if !matches!(expr, Expr::BridgeCall(..)) {
                return Err(self.err(format!(
                    "expression statement must be a bridge call, found `{expr}`"
                )));
            }
            Ok(Stmt::ExprStmt { expr, pos })
        }
    }

    // -- expressions --------------------------------------------------------

    /// Parses an expression at the lowest precedence level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] on malformed input.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        Ok(self.expr()?.0)
    }

    /// [`Self::parse_expr`], with the expression's height.
    fn expr(&mut self) -> Result<Tall> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Tall> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("or") {
            let rhs = self.parse_and()?;
            lhs = self.bin(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Tall> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_kw("and") {
            let rhs = self.parse_cmp()?;
            lhs = self.bin(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Tall> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.parse_add()?;
        self.bin(op, lhs, rhs)
    }

    fn parse_add(&mut self) -> Result<Tall> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_mul()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Tall> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Tall> {
        if self.eat(&Tok::Minus) {
            let (e, h) = self.nested(Self::parse_unary)?;
            return Ok((Expr::Unary(UnOp::Neg, Box::new(e)), h + 1));
        }
        if self.eat_kw("not") {
            let (e, h) = self.nested(Self::parse_unary)?;
            return Ok((Expr::Unary(UnOp::Not, Box::new(e)), h + 1));
        }
        for (kw, op) in [
            ("cardinality", UnOp::Cardinality),
            ("empty", UnOp::Empty),
            ("not_empty", UnOp::NotEmpty),
            ("any", UnOp::Any),
            ("int", UnOp::ToInt),
            ("real", UnOp::ToReal),
            ("string", UnOp::ToStr),
        ] {
            if self.at_kw(kw) {
                self.next();
                self.expect(&Tok::LParen)?;
                let (e, h) = self.expr()?;
                self.expect(&Tok::RParen)?;
                // Builtin calls are primaries: postfix (`.attr`, `->`)
                // chains onto their result.
                return self.parse_postfix_on((Expr::Unary(op, Box::new(e)), h + 1));
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Tall> {
        let e = self.parse_primary()?;
        self.parse_postfix_on(e)
    }

    fn parse_postfix_on(&mut self, (mut e, mut h): Tall) -> Result<Tall> {
        loop {
            if self.eat(&Tok::Dot) {
                let name = self.expect_ident()?;
                h = self.taller(h)?;
                e = Expr::Attr(Box::new(e), name);
            } else if self.eat(&Tok::Arrow) {
                let class = self.expect_ident()?;
                self.expect(&Tok::LBracket)?;
                let assoc = self.expect_ident()?;
                self.expect(&Tok::RBracket)?;
                h = self.taller(h)?;
                e = Expr::Nav(Box::new(e), class, assoc);
            } else {
                break;
            }
        }
        Ok((e, h))
    }

    fn parse_primary(&mut self) -> Result<Tall> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.next();
                Ok((Expr::Lit(Value::Int(v)), 1))
            }
            Tok::Real(v) => {
                self.next();
                Ok((Expr::Lit(Value::Real(v)), 1))
            }
            Tok::Str(s) => {
                self.next();
                Ok((Expr::Lit(Value::Str(s)), 1))
            }
            Tok::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => {
                    self.next();
                    Ok((Expr::Lit(Value::Bool(true)), 1))
                }
                "false" => {
                    self.next();
                    Ok((Expr::Lit(Value::Bool(false)), 1))
                }
                "self" => {
                    self.next();
                    Ok((Expr::SelfRef, 1))
                }
                "selected" => {
                    self.next();
                    Ok((Expr::Selected, 1))
                }
                "rcvd" => {
                    self.next();
                    self.expect(&Tok::Dot)?;
                    let p = self.expect_ident()?;
                    Ok((Expr::Param(p), 1))
                }
                _ => {
                    self.next();
                    if self.eat(&Tok::ColonColon) {
                        let func = self.expect_ident()?;
                        self.expect(&Tok::LParen)?;
                        let mut args = Vec::new();
                        let mut h = 1;
                        if self.peek() != &Tok::RParen {
                            loop {
                                let (a, ha) = self.expr()?;
                                args.push(a);
                                h = h.max(ha + 1);
                                if !self.eat(&Tok::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&Tok::RParen)?;
                        Ok((Expr::BridgeCall(name, func, args), h))
                    } else {
                        Ok((Expr::Var(name), 1))
                    }
                }
            },
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{GenTarget, LValue, Stmt};

    #[test]
    fn parse_simple_assign() {
        let b = parse_block("x = 1 + 2 * 3;").unwrap();
        assert_eq!(b.stmts.len(), 1);
        let Stmt::Assign { lhs, expr, .. } = &b.stmts[0] else {
            panic!("expected assign");
        };
        assert_eq!(lhs, &LValue::Var("x".into()));
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn precedence_and_parens() {
        assert_eq!(
            parse_expr("(1 + 2) * 3").unwrap().to_string(),
            "((1 + 2) * 3)"
        );
        assert_eq!(
            parse_expr("a or b and c == d").unwrap().to_string(),
            "(a or (b and (c == d)))"
        );
        assert_eq!(parse_expr("-a + b").unwrap().to_string(), "(-a + b)");
        assert_eq!(
            parse_expr("not a or b").unwrap().to_string(),
            "(not a or b)"
        );
    }

    #[test]
    fn attr_and_nav_postfix() {
        assert_eq!(parse_expr("self.count").unwrap(), Expr::self_attr("count"));
        let e = parse_expr("self -> Lamp[R1]").unwrap();
        assert_eq!(
            e,
            Expr::Nav(Box::new(Expr::SelfRef), "Lamp".into(), "R1".into())
        );
        // Chained: navigate then read attribute of `any`.
        let e = parse_expr("any(x -> Lamp[R1]).on").unwrap();
        assert!(matches!(e, Expr::Attr(..)));
    }

    #[test]
    fn builtins() {
        assert_eq!(
            parse_expr("cardinality(s)").unwrap(),
            Expr::Unary(UnOp::Cardinality, Box::new(Expr::var("s")))
        );
        assert_eq!(
            parse_expr("not_empty(s)").unwrap(),
            Expr::Unary(UnOp::NotEmpty, Box::new(Expr::var("s")))
        );
        assert_eq!(
            parse_expr("real(3)").unwrap(),
            Expr::Unary(UnOp::ToReal, Box::new(Expr::int(3)))
        );
    }

    #[test]
    fn create_and_delete() {
        let b = parse_block("l = create Lamp; delete l;").unwrap();
        assert!(matches!(&b.stmts[0], Stmt::Create { var, class, .. }
            if var == "l" && class == "Lamp"));
        assert!(matches!(&b.stmts[1], Stmt::Delete { .. }));
    }

    #[test]
    fn selects() {
        let b = parse_block(
            "select any l from Lamp where selected.on == true;\n\
             select many ls from Lamp;",
        )
        .unwrap();
        assert!(matches!(
            &b.stmts[0],
            Stmt::SelectAny {
                filter: Some(_),
                ..
            }
        ));
        assert!(matches!(&b.stmts[1], Stmt::SelectMany { filter: None, .. }));
    }

    #[test]
    fn relate_unrelate() {
        let b = parse_block("relate a to b across R1; unrelate a from b across R1;").unwrap();
        assert!(matches!(&b.stmts[0], Stmt::Relate { assoc, .. } if assoc == "R1"));
        assert!(matches!(&b.stmts[1], Stmt::Unrelate { assoc, .. } if assoc == "R1"));
    }

    #[test]
    fn generate_variants() {
        let b = parse_block("gen Tick() to self after 10; gen Go(1, x) to l;").unwrap();
        let Stmt::Generate { delay, target, .. } = &b.stmts[0] else {
            panic!()
        };
        assert!(delay.is_some());
        assert_eq!(target, &GenTarget::Inst(Expr::SelfRef));
        let Stmt::Generate { args, .. } = &b.stmts[1] else {
            panic!()
        };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn generate_to_actor_with_context() {
        let toks = lex("gen done(3) to ENV;").unwrap();
        let actors: BTreeSet<String> = ["ENV".to_string()].into();
        let mut p = Parser::with_actors(&toks, actors);
        let b = p.parse_block_until(&Tok::Eof).unwrap();
        let Stmt::Generate { target, .. } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(target, &GenTarget::Actor("ENV".into()));
    }

    #[test]
    fn control_flow() {
        let b = parse_block(
            "if (x > 0) { x = x - 1; } elif (x == 0) { return; } else { break; }\n\
             while (true) { continue; }\n\
             foreach l in ls { delete l; }",
        )
        .unwrap();
        assert_eq!(b.stmts.len(), 3);
        let Stmt::If {
            arms, otherwise, ..
        } = &b.stmts[0]
        else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert!(otherwise.is_some());
    }

    #[test]
    fn bridge_call_stmt_and_expr() {
        let b = parse_block("LOG::info(\"hi\"); x = MATH::abs(-3);").unwrap();
        assert!(matches!(&b.stmts[0], Stmt::ExprStmt { .. }));
        assert!(matches!(&b.stmts[1], Stmt::Assign { .. }));
    }

    #[test]
    fn bare_expression_statement_rejected() {
        assert!(parse_block("x + 1;").is_err());
    }

    #[test]
    fn reserved_words_rejected_as_variables() {
        assert!(parse_block("select any create from Lamp;").is_err());
        assert!(parse_block("foreach gen in ls { }").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_block("x = ;").unwrap_err();
        let CoreError::Parse { pos, .. } = err else {
            panic!("expected parse error")
        };
        assert_eq!(pos.line, 1);
    }

    #[test]
    fn cancel_statement() {
        let b = parse_block("cancel Tick;").unwrap();
        assert!(matches!(&b.stmts[0], Stmt::Cancel { event, .. } if event == "Tick"));
    }

    #[test]
    fn display_round_trip() {
        let src = "\
if ((self.n > 0)) {
    self.n = (self.n - 1);
    gen Tick() to self after 5;
}
else {
    gen done(self.n) to sink;
}
";
        let b = parse_block(src).unwrap();
        let printed = b.to_string();
        let reparsed = parse_block(&printed).unwrap();
        assert_eq!(b, reparsed);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        for src in [
            format!("x = {}1{};", "(".repeat(n), ")".repeat(n)),
            format!("x = {}1;", "- ".repeat(n)),
            format!("x = {}true;", "not ".repeat(n)),
            format!("{}x = 1;{}", "if (true) { ".repeat(n), "}".repeat(n)),
            // Chains build their trees without recursing in the parser.
            format!("x = 1{};", " + 1".repeat(n)),
            format!("x = 1{};", " * 1".repeat(n)),
            format!("x = 1{};", " < 1 and 1".repeat(n)),
            format!("x = true{};", " or true".repeat(n)),
            format!("x = self{};", ".a".repeat(n)),
            format!("x = self{};", " -> C[R1]".repeat(n)),
            // Each parenthesised sum is shallow; together they are not.
            format!("x = {}1{};", "(".repeat(40), " + 1 + 1)".repeat(40)),
        ] {
            let err = parse_block(&src).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        // The statement's expression is the first level.
        let parens = |k: usize| format!("x = {}1{};", "(".repeat(k), ")".repeat(k));
        assert!(parse_block(&parens(MAX_NESTING - 1)).is_ok());
        assert!(parse_block(&parens(MAX_NESTING)).is_err());
        // ... and each operator of a chain one more.
        let sum = |k: usize| format!("x = 1{};", " + 1".repeat(k));
        assert!(parse_block(&sum(MAX_NESTING - 1)).is_ok());
        assert!(parse_block(&sum(MAX_NESTING)).is_err());
    }
}
