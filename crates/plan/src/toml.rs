//! A hand-rolled TOML-subset parser and emitter.
//!
//! The build environment has no crates.io access, so campaign plans and
//! scenario-spec files are read and written by this minimal
//! implementation instead of `toml` + `serde`. The subset covers what
//! plan files need:
//!
//! * `key = value` pairs with bare (`[A-Za-z0-9_-]+`) or quoted keys;
//! * `[table]` and `[[array-of-tables]]` headers, dotted paths allowed;
//! * basic strings with `\\ \" \n \t \r` escapes;
//! * integers, floats, booleans;
//! * arrays (newlines allowed inside, trailing comma tolerated);
//! * inline tables `{ k = v, ... }` (more lenient than upstream TOML:
//!   newlines inside are accepted);
//! * `#` comments.
//!
//! Documents parse into a [`Toml`] value tree; [`emit_document`] renders
//! a canonical form such that `parse(emit(x)) == x` for any tree without
//! NaN floats (the round-trip property the plan layer's tests pin).

use crate::PlanError;
use std::collections::BTreeMap;
use std::num::IntErrorKind;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Toml {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Toml>),
    /// A table (document, section, or inline).
    Table(Map),
}

/// A TOML table: sorted key → value.
pub type Map = BTreeMap<String, Toml>;

impl Toml {
    /// The value as a table, if it is one.
    pub fn as_table(&self) -> Option<&Map> {
        match self {
            Toml::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Toml]> {
        match self {
            Toml::Array(a) => Some(a),
            _ => None,
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Toml::Str(_) => "string",
            Toml::Int(_) => "integer",
            Toml::Float(_) => "float",
            Toml::Bool(_) => "boolean",
            Toml::Array(_) => "array",
            Toml::Table(_) => "table",
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deep arrays and inline tables may nest. The deepest shipped plan
/// or scenario spec nests 6 levels; a bound keeps a hostile file from
/// overflowing the parser's stack.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and inline tables open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src: src.as_bytes(), pos: 0, line: 1, depth: 0 }
    }

    fn err(&self, message: impl std::fmt::Display) -> PlanError {
        PlanError::new(format!("line {}: {message}", self.line))
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (never newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, newlines, and comments.
    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') => {
                    self.pos += 1;
                }
                Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// After a `key = value` pair or header: only a comment may follow on
    /// the line.
    fn expect_line_end(&mut self) -> Result<(), PlanError> {
        self.skip_inline_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b'\r') => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected end of line, found `{}`", c as char))),
        }
    }

    fn parse_key(&mut self) -> Result<String, PlanError> {
        match self.peek() {
            Some(b'"') => self.parse_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                {
                    self.pos += 1;
                }
                Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
            }
            Some(c) => Err(self.err(format!("expected a key, found `{}`", c as char))),
            None => Err(self.err("expected a key, found end of input")),
        }
    }

    /// A dotted key path (`a.b.c`).
    fn parse_path(&mut self) -> Result<Vec<String>, PlanError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.skip_inline_ws();
                path.push(self.parse_key()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, PlanError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\n') => return Err(self.err("newline inside a basic string")),
                Some(b'\\') => match self.bump() {
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    other => {
                        return Err(self.err(format!(
                            "unsupported escape `\\{}`",
                            other.map_or(String::from("<eof>"), |c| (c as char).to_string())
                        )))
                    }
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Re-decode the UTF-8 sequence starting at `first`.
                    let start = self.pos - 1;
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.src.len());
                    match std::str::from_utf8(&self.src[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Toml, PlanError> {
        match self.peek() {
            Some(b'"') => Ok(Toml::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!(
                        "arrays and inline tables nest more than {MAX_NESTING} levels deep"
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let value =
                    if open == b'[' { self.parse_array() } else { self.parse_inline_table() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b't' || c == b'f' => {
                let start = self.pos;
                while self.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                    self.pos += 1;
                }
                match &self.src[start..self.pos] {
                    b"true" => Ok(Toml::Bool(true)),
                    b"false" => Ok(Toml::Bool(false)),
                    other => {
                        Err(self
                            .err(format!("unexpected value `{}`", String::from_utf8_lossy(other))))
                    }
                }
            }
            Some(c) if c == b'+' || c == b'-' || c == b'i' || c == b'n' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|c| {
                    c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.' | b'_')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid number"))?;
                let is_float = text.contains(['.', 'e', 'E']) || text.contains("inf");
                if !is_float {
                    match text.parse::<i64>() {
                        Ok(i) => return Ok(Toml::Int(i)),
                        Err(e)
                            if matches!(
                                e.kind(),
                                IntErrorKind::PosOverflow | IntErrorKind::NegOverflow
                            ) =>
                        {
                            return Err(self.err(format!("integer out of range: `{text}`")));
                        }
                        Err(_) => {}
                    }
                }
                text.parse::<f64>()
                    .map(Toml::Float)
                    .map_err(|_| self.err(format!("malformed number `{text}`")))
            }
            Some(c) => Err(self.err(format!("unexpected value character `{}`", c as char))),
            None => Err(self.err("expected a value, found end of input")),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn parse_array(&mut self) -> Result<Toml, PlanError> {
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Toml::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// The rest of an inline table whose `{` was consumed.
    fn parse_inline_table(&mut self) -> Result<Toml, PlanError> {
        let mut table = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Toml::Table(table));
        }
        loop {
            self.skip_ws();
            let key = self.parse_key()?;
            self.skip_ws();
            if self.bump() != Some(b'=') {
                return Err(self.err("expected `=` in inline table"));
            }
            self.skip_ws();
            let value = self.parse_value()?;
            if table.insert(key.clone(), value).is_some() {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    // Tolerate a trailing comma.
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Toml::Table(table));
                    }
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Toml::Table(table));
                }
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }

    /// Descends `root` along `path`, creating tables as needed and
    /// entering the last element of arrays-of-tables.
    fn descend<'m>(&self, root: &'m mut Map, path: &[String]) -> Result<&'m mut Map, PlanError> {
        let mut cur = root;
        for key in path {
            let entry = cur.entry(key.clone()).or_insert_with(|| Toml::Table(Map::new()));
            cur = match entry {
                Toml::Table(t) => t,
                Toml::Array(items) => match items.last_mut() {
                    Some(Toml::Table(t)) => t,
                    _ => return Err(self.err(format!("`{key}` is not an array of tables"))),
                },
                other => {
                    return Err(self
                        .err(format!("`{key}` is already a {}, not a table", other.type_name())))
                }
            };
        }
        Ok(cur)
    }

    fn parse_document(&mut self) -> Result<Map, PlanError> {
        let mut root = Map::new();
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Ok(root),
                Some(b'[') => {
                    self.pos += 1;
                    let is_array = self.peek() == Some(b'[');
                    if is_array {
                        self.pos += 1;
                    }
                    self.skip_inline_ws();
                    let path = self.parse_path()?;
                    self.skip_inline_ws();
                    if self.bump() != Some(b']') || (is_array && self.bump() != Some(b']')) {
                        return Err(self.err("unterminated table header"));
                    }
                    self.expect_line_end()?;
                    if is_array {
                        let (last, parents) = path.split_last().expect("non-empty path");
                        let parent = self.descend(&mut root, parents)?;
                        let entry =
                            parent.entry(last.clone()).or_insert_with(|| Toml::Array(Vec::new()));
                        match entry {
                            Toml::Array(items) => items.push(Toml::Table(Map::new())),
                            other => {
                                return Err(self.err(format!(
                                    "`{last}` is already a {}, not an array of tables",
                                    other.type_name()
                                )))
                            }
                        }
                    } else {
                        // Creating (or re-entering) a plain table; reject
                        // redefinition of a non-table.
                        self.descend(&mut root, &path)?;
                    }
                    current = path;
                }
                Some(_) => {
                    let path = self.parse_path()?;
                    self.skip_inline_ws();
                    if self.bump() != Some(b'=') {
                        return Err(self.err("expected `=` after key"));
                    }
                    self.skip_inline_ws();
                    let value = self.parse_value()?;
                    self.expect_line_end()?;
                    let (last, parents) = path.split_last().expect("non-empty path");
                    let full: Vec<String> = current.iter().chain(parents.iter()).cloned().collect();
                    let table = self.descend(&mut root, &full)?;
                    if table.insert(last.clone(), value).is_some() {
                        return Err(self.err(format!("duplicate key `{last}`")));
                    }
                }
            }
        }
    }
}

/// Parses a TOML-subset document into its root table.
///
/// # Errors
///
/// Returns a [`PlanError`] with a line number on any syntax error,
/// duplicate key, or table redefinition.
pub fn parse_document(src: &str) -> Result<Map, PlanError> {
    Parser::new(src).parse_document()
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn key_needs_quoting(key: &str) -> bool {
    key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn emit_key(key: &str, out: &mut String) {
    if key_needs_quoting(key) {
        emit_string(key, out);
    } else {
        out.push_str(key);
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a value inline (the form used for everything below the
/// top-level sections).
pub fn emit_value(value: &Toml, out: &mut String) {
    match value {
        Toml::Str(s) => emit_string(s, out),
        Toml::Int(i) => out.push_str(&i.to_string()),
        Toml::Float(f) => out.push_str(&format!("{f:?}")),
        Toml::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Toml::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_value(item, out);
            }
            out.push(']');
        }
        Toml::Table(t) => {
            out.push('{');
            for (i, (k, v)) in t.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { " " });
                emit_key(k, out);
                out.push_str(" = ");
                emit_value(v, out);
            }
            out.push_str(if t.is_empty() { "}" } else { " }" });
        }
    }
}

/// True when every element of the array is a table (and there is at
/// least one) — the `[[section]]` emission form.
fn is_table_array(items: &[Toml]) -> bool {
    !items.is_empty() && items.iter().all(|i| matches!(i, Toml::Table(_)))
}

fn emit_section(path: &str, table: &Map, out: &mut String) {
    out.push_str(&format!("\n[{path}]\n"));
    for (key, value) in table {
        emit_key(key, out);
        out.push_str(" = ");
        emit_value(value, out);
        out.push('\n');
    }
}

/// Renders a document: top-level scalars and plain arrays first, then
/// one `[section]` per table value and one `[[section]]` per element of
/// each array-of-tables (anything nested deeper is emitted inline).
/// Canonical: `parse(emit_document(t)) == t` for NaN-free trees.
pub fn emit_document(root: &Map) -> String {
    let mut out = String::new();
    for (key, value) in root {
        match value {
            Toml::Table(_) => {}
            Toml::Array(items) if is_table_array(items) => {}
            other => {
                emit_key(key, &mut out);
                out.push_str(" = ");
                emit_value(other, &mut out);
                out.push('\n');
            }
        }
    }
    for (key, value) in root {
        let mut path = String::new();
        emit_key(key, &mut path);
        match value {
            Toml::Table(t) => emit_section(&path, t, &mut out),
            Toml::Array(items) if is_table_array(items) => {
                for item in items {
                    let Toml::Table(t) = item else { unreachable!() };
                    out.push_str(&format!("\n[[{path}]]\n"));
                    for (k, v) in t {
                        emit_key(k, &mut out);
                        out.push_str(" = ");
                        emit_value(v, &mut out);
                        out.push('\n');
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pairs: &[(&str, Toml)]) -> Map {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn scalars_parse() {
        let doc = parse_document("a = 1\nb = -2.5\nc = \"hi\\n\"\nd = true\ne = 1e-9\nf = 40.0\n")
            .unwrap();
        assert_eq!(doc["a"], Toml::Int(1));
        assert_eq!(doc["b"], Toml::Float(-2.5));
        assert_eq!(doc["c"], Toml::Str("hi\n".into()));
        assert_eq!(doc["d"], Toml::Bool(true));
        assert_eq!(doc["e"], Toml::Float(1e-9));
        assert_eq!(doc["f"], Toml::Float(40.0));
    }

    #[test]
    fn sections_and_table_arrays_parse() {
        let doc = parse_document(
            "top = 1\n\n[alpha]\nx = 2 # trailing comment\n\n[alpha.beta]\ny = 3\n\n\
             [[items]]\nn = 1\n\n[[items]]\nn = 2\n",
        )
        .unwrap();
        let alpha = doc["alpha"].as_table().unwrap();
        assert_eq!(alpha["x"], Toml::Int(2));
        assert_eq!(alpha["beta"].as_table().unwrap()["y"], Toml::Int(3));
        let items = doc["items"].as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].as_table().unwrap()["n"], Toml::Int(2));
    }

    #[test]
    fn arrays_and_inline_tables_parse() {
        let doc = parse_document(
            "a = [1, 2,\n     3]\nb = { x = 1, y = { z = \"deep\" } }\nempty = []\n",
        )
        .unwrap();
        assert_eq!(doc["a"], Toml::Array(vec![Toml::Int(1), Toml::Int(2), Toml::Int(3)]));
        let b = doc["b"].as_table().unwrap();
        assert_eq!(b["y"].as_table().unwrap()["z"], Toml::Str("deep".into()));
        assert_eq!(doc["empty"], Toml::Array(vec![]));
    }

    #[test]
    fn malformed_documents_are_rejected_with_line_numbers() {
        for (src, needle) in [
            ("a = \n", "line 1"),
            ("a = 1\na = 2\n", "duplicate key"),
            ("a = 1 b = 2\n", "end of line"),
            ("[unclosed\nx = 1\n", "unterminated table header"),
            ("a = \"unterminated\n", "string"),
            ("a = 1..2\n", "malformed number"),
            ("a = truthy\n", "unexpected value"),
            ("[t]\nx = 1\n\n[t.x]\ny = 2\n", "not a table"),
        ] {
            let err = parse_document(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src:?} → {err}");
        }
    }

    #[test]
    fn canonical_emission_round_trips() {
        let doc = table(&[
            ("name", Toml::Str("x \"quoted\"\n".into())),
            ("count", Toml::Int(-3)),
            ("ratio", Toml::Float(0.125)),
            ("flag", Toml::Bool(false)),
            ("list", Toml::Array(vec![Toml::Int(1), Toml::Str("two".into())])),
            (
                "section",
                Toml::Table(table(&[
                    ("inner", Toml::Array(vec![Toml::Table(table(&[("k", Toml::Int(1))]))])),
                    ("plain", Toml::Int(7)),
                ])),
            ),
            (
                "rows",
                Toml::Array(vec![
                    Toml::Table(table(&[("a", Toml::Int(1))])),
                    Toml::Table(table(&[("a", Toml::Int(2)), ("weird key", Toml::Int(3))])),
                ]),
            ),
        ]);
        let text = emit_document(&doc);
        assert_eq!(parse_document(&text).unwrap(), doc, "emitted:\n{text}");
    }

    #[test]
    fn mixed_arrays_inside_sections_round_trip() {
        // An array that mixes tables and scalars must emit inline, not as
        // [[sections]].
        let doc = table(&[(
            "s",
            Toml::Table(table(&[(
                "mixed",
                Toml::Array(vec![Toml::Int(1), Toml::Table(table(&[("x", Toml::Int(2))]))]),
            )])),
        )]);
        let text = emit_document(&doc);
        assert_eq!(parse_document(&text).unwrap(), doc, "emitted:\n{text}");
    }
}
