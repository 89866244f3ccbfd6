//! Text form of the scenario DSL's arithmetic [`Expr`]s.
//!
//! Scenario-spec files store expressions as strings (`"ego.v + 4.0"`,
//! `"min(ego.set_speed - dv, 33.5)"`). This module provides the
//! recursive-descent parser and the precedence-aware emitter; the pair
//! is exact — `parse_expr(emit_expr(e)) == e` for every expression tree
//! (the property the round-trip tests pin), because the emitter
//! parenthesizes exactly where the left-associative grammar would
//! otherwise rebuild a different tree.
//!
//! Grammar:
//!
//! ```text
//! expr   := term (('+' | '-') term)*
//! term   := factor (('*' | '/') factor)*
//! factor := number | ident | '-' factor | func '(' expr ',' expr ')' | '(' expr ')'
//! func   := 'min' | 'max'
//! ```
//!
//! Identifiers may contain dots (`ego.set_speed`); `min`/`max` are
//! reserved function names when followed by `(`.

use crate::PlanError;
use drivefi_world::spec::{intern, Expr};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Comma,
    Open,
    Close,
}

/// The most tokens an expression may have. The parser recurses once per
/// `(`, unary `-` and `min(`/`max(`, and a chain of `+ - * /` builds a
/// tree as deep as it is long, so the token count bounds both the
/// parser's stack and the depth of the tree every later pass walks. The
/// longest shipped expression has 10 tokens.
const MAX_TOKENS: usize = 256;

fn tokenize(src: &str) -> Result<Vec<Token>, PlanError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if tokens.len() > MAX_TOKENS {
            break;
        }
        let c = bytes[i];
        match c {
            b' ' | b'\t' => i += 1,
            b'+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            b'-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            b'*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            b'/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            b',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            b'(' => {
                tokens.push(Token::Open);
                i += 1;
            }
            b')' => {
                tokens.push(Token::Close);
                i += 1;
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let value = text.parse::<f64>().map_err(|_| {
                    PlanError::new(format!("malformed number `{text}` in expression `{src}`"))
                })?;
                tokens.push(Token::Number(value));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(src[start..i].to_owned()));
            }
            other => {
                return Err(PlanError::new(format!(
                    "unexpected character `{}` in expression `{src}`",
                    other as char
                )))
            }
        }
    }
    if tokens.len() > MAX_TOKENS {
        return Err(PlanError::new(format!("expression has more than {MAX_TOKENS} tokens")));
    }
    Ok(tokens)
}

struct ExprParser<'a> {
    tokens: &'a [Token],
    pos: usize,
    src: &'a str,
}

impl<'a> ExprParser<'a> {
    fn err(&self, message: impl std::fmt::Display) -> PlanError {
        PlanError::new(format!("{message} in expression `{}`", self.src))
    }

    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn expr(&mut self) -> Result<Expr, PlanError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.pos += 1;
                    lhs = lhs + self.term()?;
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    lhs = lhs - self.term()?;
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, PlanError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.pos += 1;
                    lhs = lhs * self.factor()?;
                }
                Some(Token::Slash) => {
                    self.pos += 1;
                    lhs = lhs / self.factor()?;
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, PlanError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Const(*n)),
            Some(Token::Minus) => {
                // A minus directly on a number literal is the literal's
                // sign (`-2.5` round-trips as Const(-2.5)); anything else
                // is negation.
                if let Some(Token::Number(n)) = self.peek() {
                    self.pos += 1;
                    Ok(Expr::Const(-n))
                } else {
                    Ok(-self.factor()?)
                }
            }
            Some(Token::Open) => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(Token::Close) => Ok(inner),
                    _ => Err(self.err("expected `)`")),
                }
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::Open) {
                    self.pos += 1;
                    let a = self.expr()?;
                    if self.bump() != Some(&Token::Comma) {
                        return Err(
                            self.err(format!("`{name}` takes two comma-separated arguments"))
                        );
                    }
                    let b = self.expr()?;
                    if self.bump() != Some(&Token::Close) {
                        return Err(self.err(format!("unterminated `{name}(...)` call")));
                    }
                    match name.as_str() {
                        "min" => Ok(a.min(b)),
                        "max" => Ok(a.max(b)),
                        other => Err(self.err(format!("unknown function `{other}`"))),
                    }
                } else {
                    Ok(Expr::Var(intern(name)))
                }
            }
            Some(other) => Err(self.err(format!("unexpected token {other:?}"))),
            None => Err(self.err("unexpected end")),
        }
    }
}

/// Parses the text form of an expression.
///
/// # Errors
///
/// Returns a [`PlanError`] on malformed syntax, unknown functions, or
/// trailing input.
pub fn parse_expr(src: &str) -> Result<Expr, PlanError> {
    let tokens = tokenize(src)?;
    let mut parser = ExprParser { tokens: &tokens, pos: 0, src };
    let expr = parser.expr()?;
    if parser.pos != tokens.len() {
        return Err(parser.err("trailing input"));
    }
    Ok(expr)
}

/// Binding strength: atoms 4, unary minus 3, `* /` 2, `+ -` 1.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Min(_, _) | Expr::Max(_, _) => 4,
        Expr::Neg(_) => 3,
        Expr::Mul(_, _) | Expr::Div(_, _) => 2,
        Expr::Add(_, _) | Expr::Sub(_, _) => 1,
    }
}

fn emit(e: &Expr, ctx: u8, out: &mut String) {
    let p = prec(e);
    if p < ctx {
        out.push('(');
    }
    match e {
        Expr::Const(c) => out.push_str(&format!("{c:?}")),
        Expr::Var(v) => out.push_str(v),
        Expr::Add(a, b) => {
            emit(a, 1, out);
            out.push_str(" + ");
            emit(b, 2, out);
        }
        Expr::Sub(a, b) => {
            emit(a, 1, out);
            out.push_str(" - ");
            emit(b, 2, out);
        }
        Expr::Mul(a, b) => {
            emit(a, 2, out);
            out.push_str(" * ");
            emit(b, 3, out);
        }
        Expr::Div(a, b) => {
            emit(a, 2, out);
            out.push_str(" / ");
            emit(b, 3, out);
        }
        Expr::Neg(x) => {
            out.push('-');
            // A literal directly under negation must keep its own
            // parentheses, or the parser would fold the sign into the
            // literal and rebuild Const(-c) instead of Neg(Const(c)).
            if matches!(**x, Expr::Const(_)) {
                out.push('(');
                emit(x, 0, out);
                out.push(')');
            } else {
                emit(x, 3, out);
            }
        }
        Expr::Min(a, b) => {
            out.push_str("min(");
            emit(a, 0, out);
            out.push_str(", ");
            emit(b, 0, out);
            out.push(')');
        }
        Expr::Max(a, b) => {
            out.push_str("max(");
            emit(a, 0, out);
            out.push_str(", ");
            emit(b, 0, out);
            out.push(')');
        }
    }
    if p < ctx {
        out.push(')');
    }
}

/// Renders an expression in the canonical text form.
pub fn emit_expr(e: &Expr) -> String {
    let mut out = String::new();
    emit(e, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_world::spec::{lit, var};

    #[test]
    fn parses_basic_arithmetic() {
        assert_eq!(parse_expr("1 + 2 * 3").unwrap(), lit(1.0) + lit(2.0) * lit(3.0));
        assert_eq!(parse_expr("(1 + 2) * 3").unwrap(), (lit(1.0) + lit(2.0)) * lit(3.0));
        assert_eq!(parse_expr("ego.v").unwrap(), var("ego.v"));
        assert_eq!(parse_expr("-x").unwrap(), -var("x"));
        assert_eq!(parse_expr("-2.5").unwrap(), lit(-2.5));
        assert_eq!(parse_expr("min(a, max(b, 1.0))").unwrap(), var("a").min(var("b").max(1.0)));
    }

    #[test]
    fn associativity_is_preserved() {
        // a - b - c parses left-associated…
        assert_eq!(parse_expr("a - b - c").unwrap(), var("a") - var("b") - var("c"));
        // …and the emitter re-parenthesizes right-nested trees.
        let right = var("a") - (var("b") - var("c"));
        assert_eq!(emit_expr(&right), "a - (b - c)");
        assert_eq!(parse_expr(&emit_expr(&right)).unwrap(), right);
    }

    #[test]
    fn tricky_trees_round_trip() {
        let cases = vec![
            -(var("a") * var("b")),
            -(-var("a")),
            Expr::Neg(Box::new(lit(2.0))),
            (var("a") + 1.0) / (var("b") - 2.0),
            var("gap") * (var("ego.v") + var("dv")).max(15.0),
            lit(0.5) * var("accel") * var("t") * var("t"),
            (var("x") - 4.5) * -var("y"),
        ];
        for e in cases {
            let text = emit_expr(&e);
            assert_eq!(parse_expr(&text).unwrap(), e, "via `{text}`");
        }
    }

    #[test]
    fn malformed_expressions_are_rejected() {
        for src in ["", "1 +", "foo(1, 2)", "min(1)", "a b", "1 ^ 2", "(1", "min(1, 2"] {
            assert!(parse_expr(src).is_err(), "`{src}` should not parse");
        }
    }
}
