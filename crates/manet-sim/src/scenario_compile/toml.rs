//! A minimal TOML front-end with source positions.
//!
//! The scenario compiler needs position-carrying error messages ("line 12,
//! column 3: subscriber_fraction must be within [0, 1]"), which the real
//! `toml` crate only offers through `toml_edit` — and the build environment
//! has no crates.io access anyway (see `vendor/`). So the front-end is
//! hand-rolled: a parser for the TOML subset scenario files actually use,
//! producing a [`Table`] tree in which every key and value remembers the
//! line and column it came from.
//!
//! Supported syntax: `[table]` and `[a.b]` headers, `[[array-of-tables]]`
//! headers, bare keys, basic (`"…"` with `\\ \" \n \t \r` escapes) and
//! literal (`'…'`) strings, decimal integers and floats (with `_`
//! separators), booleans, (multi-line) arrays with trailing commas, and `#`
//! comments. Unsupported syntax — inline tables, dotted keys, multi-line
//! strings, dates — is rejected with a clear error rather than misparsed.

use std::fmt;

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number in characters, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A value (or key) together with the position it was parsed at.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<T> {
    /// Where the item starts in the source.
    pub pos: Pos,
    /// The parsed item.
    pub value: T,
}

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic or literal string.
    Str(String),
    /// A decimal integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Spanned<Value>>),
    /// A (sub-)table, from a `[header]` or `[[header]]`.
    Table(Table),
}

impl Value {
    /// A short name for error messages ("string", "integer", …).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// A table: ordered key → value entries, each remembering its position.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Position of the table header (or 1:1 for the root table).
    pub pos: Pos,
    entries: Vec<(Spanned<String>, Spanned<Value>)>,
}

impl Table {
    fn new(pos: Pos) -> Self {
        Table {
            pos,
            entries: Vec::new(),
        }
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Spanned<Value>> {
        self.entries
            .iter()
            .find(|(k, _)| k.value == key)
            .map(|(_, v)| v)
    }

    /// The value stored under `key`, mutably, if any.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Spanned<Value>> {
        let entry = self.entries.iter_mut().find(|(k, _)| k.value == key);
        entry.map(|(_, v)| v)
    }

    /// Stores `value` under `key`, replacing the entry already there.
    pub fn insert(&mut self, key: Spanned<String>, value: Spanned<Value>) {
        match self.entries.iter_mut().find(|(k, _)| k.value == key.value) {
            Some(entry) => *entry = (key, value),
            None => self.entries.push((key, value)),
        }
    }

    /// Lays `over` onto this table key by key: where both hold a table under
    /// the same key the two merge the same way; any other entry of `over`
    /// (a value, an array, an array of tables) replaces this table's entry
    /// or is appended.
    pub fn merge(&mut self, over: Table) {
        for (key, Spanned { pos, value }) in over.entries {
            match (self.get_mut(&key.value), value) {
                (
                    Some(Spanned {
                        value: Value::Table(base),
                        ..
                    }),
                    Value::Table(over),
                ) => base.merge(over),
                (_, value) => self.insert(key, Spanned { pos, value }),
            }
        }
    }

    /// The entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&Spanned<String>, &Spanned<Value>)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The first key not contained in `allowed`, for unknown-key diagnostics.
    pub fn first_unknown_key(&self, allowed: &[&str]) -> Option<&Spanned<String>> {
        self.entries
            .iter()
            .map(|(k, _)| k)
            .find(|k| !allowed.contains(&k.value.as_str()))
    }
}

/// A TOML syntax error with the position it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where the error was detected.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `source` into the root [`Table`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the position of the first syntax error,
/// duplicate key or unsupported construct.
pub fn parse(source: &str) -> Result<Table, ParseError> {
    Parser::new(source).parse_document()
}

struct Parser {
    chars: Vec<char>,
    index: usize,
    line: u32,
    col: u32,
}

/// One segment of the path to the currently open table: a key, possibly
/// narrowed to the last element of an array-of-tables.
#[derive(Debug, Clone, PartialEq)]
struct PathSeg {
    key: String,
    /// `true` when the segment traverses an array-of-tables (always into its
    /// last element, per TOML semantics).
    into_last_array_element: bool,
}

impl Parser {
    fn new(source: &str) -> Self {
        Parser {
            chars: source.chars().collect(),
            index: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn err_at(&self, pos: Pos, message: impl Into<String>) -> ParseError {
        ParseError {
            pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.index).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.index += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// Skips whitespace, newlines and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\n' | '\r') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes the rest of the line, which may only hold whitespace and a
    /// comment.
    fn expect_line_end(&mut self) -> Result<(), ParseError> {
        self.skip_inline_ws();
        match self.peek() {
            None | Some('\n') => Ok(()),
            Some('\r') => {
                self.bump();
                match self.peek() {
                    None | Some('\n') => Ok(()),
                    _ => Err(self.err("expected end of line")),
                }
            }
            Some('#') => {
                while !matches!(self.peek(), None | Some('\n')) {
                    self.bump();
                }
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected end of line, found `{c}`"))),
        }
    }

    fn parse_document(mut self) -> Result<Table, ParseError> {
        let mut root = Table::new(Pos { line: 1, col: 1 });
        let mut current: Vec<PathSeg> = Vec::new();
        loop {
            self.skip_trivia();
            let Some(c) = self.peek() else { break };
            if c == '[' {
                current = self.parse_header(&mut root)?;
            } else {
                let (key, value) = self.parse_key_value()?;
                let table = resolve_path(&mut root, &current);
                insert_entry(table, key, value)?;
            }
        }
        Ok(root)
    }

    /// Parses `[a.b]` or `[[a.b]]` and creates the table it opens.
    fn parse_header(&mut self, root: &mut Table) -> Result<Vec<PathSeg>, ParseError> {
        let header_pos = self.pos();
        self.bump(); // consume '['
        let is_array = self.peek() == Some('[');
        if is_array {
            self.bump();
        }
        let mut path: Vec<Spanned<String>> = Vec::new();
        loop {
            self.skip_inline_ws();
            path.push(self.parse_key()?);
            self.skip_inline_ws();
            match self.peek() {
                Some('.') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    break;
                }
                Some(c) => return Err(self.err(format!("expected `.` or `]`, found `{c}`"))),
                None => return Err(self.err("unterminated table header")),
            }
        }
        if is_array {
            match self.peek() {
                Some(']') => {
                    self.bump();
                }
                _ => return Err(self.err("expected `]]` to close the array-of-tables header")),
            }
        }
        self.expect_line_end()?;

        // Walk to the parent of the last path segment, creating intermediate
        // tables as needed.
        let mut segs: Vec<PathSeg> = Vec::new();
        for step in &path[..path.len() - 1] {
            let table = resolve_path(root, &segs);
            let into_array = match table.get(&step.value) {
                None => {
                    let implicit = Value::Table(Table::new(step.pos));
                    table.entries.push((
                        step.clone(),
                        Spanned {
                            pos: step.pos,
                            value: implicit,
                        },
                    ));
                    false
                }
                Some(spanned) => match &spanned.value {
                    Value::Table(_) => false,
                    Value::Array(_) => true,
                    other => {
                        return Err(self.err_at(
                            step.pos,
                            format!("`{}` is a {}, not a table", step.value, other.type_name()),
                        ))
                    }
                },
            };
            segs.push(PathSeg {
                key: step.value.clone(),
                into_last_array_element: into_array,
            });
        }

        let last = path.last().expect("header has at least one segment");
        let parent = resolve_path(root, &segs);
        if is_array {
            match parent.get(&last.value) {
                None => {
                    let array = Value::Array(vec![Spanned {
                        pos: header_pos,
                        value: Value::Table(Table::new(header_pos)),
                    }]);
                    parent.entries.push((
                        last.clone(),
                        Spanned {
                            pos: header_pos,
                            value: array,
                        },
                    ));
                }
                Some(_) => {
                    // Re-borrow mutably to push; separate lookup to appease
                    // the borrow checker.
                    let entry = parent
                        .entries
                        .iter_mut()
                        .find(|(k, _)| k.value == last.value)
                        .expect("entry just observed");
                    match &mut entry.1.value {
                        Value::Array(items) => items.push(Spanned {
                            pos: header_pos,
                            value: Value::Table(Table::new(header_pos)),
                        }),
                        other => {
                            return Err(self.err_at(
                                last.pos,
                                format!(
                                    "`{}` is already defined as a {}",
                                    last.value,
                                    other.type_name()
                                ),
                            ))
                        }
                    }
                }
            }
            segs.push(PathSeg {
                key: last.value.clone(),
                into_last_array_element: true,
            });
        } else {
            match parent.get(&last.value) {
                None => {
                    parent.entries.push((
                        last.clone(),
                        Spanned {
                            pos: header_pos,
                            value: Value::Table(Table::new(header_pos)),
                        },
                    ));
                }
                Some(existing) => {
                    let first = existing.pos;
                    return Err(self.err_at(
                        last.pos,
                        format!(
                            "table `{}` is already defined at {first}",
                            path_string(&path)
                        ),
                    ));
                }
            }
            segs.push(PathSeg {
                key: last.value.clone(),
                into_last_array_element: false,
            });
        }
        Ok(segs)
    }

    fn parse_key(&mut self) -> Result<Spanned<String>, ParseError> {
        let pos = self.pos();
        let mut key = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                key.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if key.is_empty() {
            let found = self
                .peek()
                .map(|c| format!("`{c}`"))
                .unwrap_or_else(|| "end of input".to_owned());
            return Err(self.err_at(
                pos,
                format!("expected a key (letters, digits, `_`, `-`), found {found}"),
            ));
        }
        Ok(Spanned { pos, value: key })
    }

    fn parse_key_value(&mut self) -> Result<(Spanned<String>, Spanned<Value>), ParseError> {
        let key = self.parse_key()?;
        self.skip_inline_ws();
        match self.peek() {
            Some('=') => {
                self.bump();
            }
            Some('.') => {
                return Err(self.err_at(
                    key.pos,
                    format!(
                        "dotted keys are not supported; use a `[{}.…]` table header",
                        key.value
                    ),
                ))
            }
            _ => return Err(self.err(format!("expected `=` after key `{}`", key.value))),
        }
        self.skip_inline_ws();
        let value = self.parse_value()?;
        self.expect_line_end()?;
        Ok((key, value))
    }

    fn parse_value(&mut self) -> Result<Spanned<Value>, ParseError> {
        let pos = self.pos();
        let value = match self.peek() {
            Some('"') => Value::Str(self.parse_basic_string()?),
            Some('\'') => Value::Str(self.parse_literal_string()?),
            Some('[') => self.parse_array()?,
            Some('{') => return Err(self.err("inline tables are not supported")),
            Some(c) if c == 't' || c == 'f' => self.parse_bool()?,
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' || c == '.' => {
                self.parse_number()?
            }
            Some(c) => return Err(self.err(format!("expected a value, found `{c}`"))),
            None => return Err(self.err("expected a value, found end of input")),
        };
        Ok(Spanned { pos, value })
    }

    fn parse_basic_string(&mut self) -> Result<String, ParseError> {
        let start = self.pos();
        self.bump(); // opening quote
        if self.peek() == Some('"') {
            // Either the empty string or the start of a `"""` multi-line
            // string, which is not supported.
            self.bump();
            if self.peek() == Some('"') {
                return Err(self.err_at(start, "multi-line strings are not supported"));
            }
            return Ok(String::new());
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err_at(start, "unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some(c) => return Err(self.err(format!("unsupported escape `\\{c}`"))),
                    None => return Err(self.err_at(start, "unterminated string")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, ParseError> {
        let start = self.pos();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err_at(start, "unterminated string")),
                Some('\'') => return Ok(out),
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.bump(); // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            match self.peek() {
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                None => return Err(self.err("unterminated array")),
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                Some(c) => return Err(self.err(format!("expected `,` or `]`, found `{c}`"))),
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, ParseError> {
        let pos = self.pos();
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(self.err_at(pos, format!("expected a value, found `{other}`"))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let pos = self.pos();
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit()
                || matches!(c, '+' | '-' | '.' | '_' | 'e' | 'E')
                // 'e'/'E' may be followed by a sign which the match above
                // already accepts; hex/octal/binary literals are unsupported
                // and will fail the parse below.
                || (c == 'x' || c == 'o' || c == 'b') && text == "0"
            {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let cleaned: String = text.chars().filter(|&c| c != '_').collect();
        if cleaned.contains(['.', 'e', 'E']) {
            cleaned
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(Value::Float)
                .ok_or_else(|| self.err_at(pos, format!("invalid float `{text}`")))
        } else {
            cleaned
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err_at(pos, format!("invalid integer `{text}`")))
        }
    }
}

/// Walks `path` from `root`, descending into the last element of
/// array-of-tables segments.
fn resolve_path<'a>(root: &'a mut Table, path: &[PathSeg]) -> &'a mut Table {
    let mut current = root;
    for seg in path {
        let entry = current
            .entries
            .iter_mut()
            .find(|(k, _)| k.value == seg.key)
            .expect("path segments are created before being walked");
        let value = &mut entry.1.value;
        current = match value {
            Value::Table(table) => table,
            Value::Array(items) if seg.into_last_array_element => {
                match &mut items
                    .last_mut()
                    .expect("array-of-tables is never empty")
                    .value
                {
                    Value::Table(table) => table,
                    _ => unreachable!("array-of-tables elements are tables"),
                }
            }
            _ => unreachable!("path segments always traverse tables"),
        };
    }
    current
}

fn insert_entry(
    table: &mut Table,
    key: Spanned<String>,
    value: Spanned<Value>,
) -> Result<(), ParseError> {
    if let Some((first_key, _)) = table.entries.iter().find(|(k, _)| k.value == key.value) {
        let first = first_key.pos;
        return Err(ParseError {
            pos: key.pos,
            message: format!("key `{}` is already defined at {first}", key.value),
        });
    }
    table.entries.push((key, value));
    Ok(())
}

fn path_string(path: &[Spanned<String>]) -> String {
    path.iter()
        .map(|s| s.value.as_str())
        .collect::<Vec<_>>()
        .join(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(table: &'a Table, key: &str) -> &'a Value {
        &table.get(key).unwrap_or_else(|| panic!("key {key}")).value
    }

    #[test]
    fn parses_scalars_and_positions() {
        let doc = parse(
            "title = \"hello world\"\n\
             count = 42\n\
             ratio = 0.5\n\
             big = 1_000\n\
             neg = -3.5e2\n\
             on = true\n\
             off = false\n\
             lit = 'no \\escapes'\n",
        )
        .unwrap();
        assert_eq!(get(&doc, "title"), &Value::Str("hello world".into()));
        assert_eq!(get(&doc, "count"), &Value::Int(42));
        assert_eq!(get(&doc, "ratio"), &Value::Float(0.5));
        assert_eq!(get(&doc, "big"), &Value::Int(1000));
        assert_eq!(get(&doc, "neg"), &Value::Float(-350.0));
        assert_eq!(get(&doc, "on"), &Value::Bool(true));
        assert_eq!(get(&doc, "off"), &Value::Bool(false));
        assert_eq!(get(&doc, "lit"), &Value::Str("no \\escapes".into()));
        let count = doc.get("count").unwrap();
        assert_eq!(count.pos, Pos { line: 2, col: 9 });
        let (key, _) = doc.entries().nth(1).unwrap();
        assert_eq!(key.pos, Pos { line: 2, col: 1 });
    }

    #[test]
    fn parses_string_escapes() {
        let doc = parse("s = \"a\\\"b\\\\c\\nd\\te\\rf\"\nempty = \"\"\n").unwrap();
        assert_eq!(get(&doc, "s"), &Value::Str("a\"b\\c\nd\te\rf".into()));
        assert_eq!(get(&doc, "empty"), &Value::Str(String::new()));
    }

    #[test]
    fn parses_tables_and_nested_headers() {
        let doc = parse(
            "top = 1\n\
             [alpha]\n\
             x = 2\n\
             [alpha.beta] # nested\n\
             y = 3\n\
             [gamma]\n\
             z = 4\n",
        )
        .unwrap();
        assert_eq!(get(&doc, "top"), &Value::Int(1));
        let Value::Table(alpha) = get(&doc, "alpha") else {
            panic!("alpha is a table")
        };
        assert_eq!(get(alpha, "x"), &Value::Int(2));
        let Value::Table(beta) = get(alpha, "beta") else {
            panic!("beta is a table")
        };
        assert_eq!(get(beta, "y"), &Value::Int(3));
        let Value::Table(gamma) = get(&doc, "gamma") else {
            panic!("gamma is a table")
        };
        assert_eq!(get(gamma, "z"), &Value::Int(4));
    }

    #[test]
    fn parses_array_of_tables() {
        let doc = parse(
            "[[pub]]\n\
             at = 1\n\
             [[pub]]\n\
             at = 2\n",
        )
        .unwrap();
        let Value::Array(items) = get(&doc, "pub") else {
            panic!("pub is an array")
        };
        assert_eq!(items.len(), 2);
        let Value::Table(second) = &items[1].value else {
            panic!("elements are tables")
        };
        assert_eq!(get(second, "at"), &Value::Int(2));
    }

    #[test]
    fn parses_multi_line_arrays() {
        let doc = parse(
            "values = [\n\
             \t1, 2, # twos\n\
             \t3.5,\n\
             ]\n\
             names = [\"a\", \"b\"]\n\
             none = []\n",
        )
        .unwrap();
        let Value::Array(values) = get(&doc, "values") else {
            panic!("values is an array")
        };
        assert_eq!(values.len(), 3);
        assert_eq!(values[2].value, Value::Float(3.5));
        let Value::Array(names) = get(&doc, "names") else {
            panic!("names is an array")
        };
        assert_eq!(names[1].value, Value::Str("b".into()));
        let Value::Array(none) = get(&doc, "none") else {
            panic!("none is an array")
        };
        assert!(none.is_empty());
    }

    #[test]
    fn reports_duplicate_keys_with_both_positions() {
        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, col: 1 });
        assert!(err.message.contains("`a` is already defined at 1:1"));
        let err = parse("[t]\nx = 1\n[t]\n").unwrap_err();
        assert_eq!(err.pos.line, 3);
        assert!(err.message.contains("already defined"));
    }

    #[test]
    fn reports_syntax_errors_with_positions() {
        let err = parse("a 1\n").unwrap_err();
        assert!(err.message.contains("expected `=`"), "{}", err.message);
        let err = parse("a = \"oops\n").unwrap_err();
        assert!(err.message.contains("unterminated string"));
        assert_eq!(err.pos, Pos { line: 1, col: 5 });
        let err = parse("a = {x = 1}\n").unwrap_err();
        assert!(err.message.contains("inline tables"));
        let err = parse("a.b = 1\n").unwrap_err();
        assert!(err.message.contains("dotted keys"));
        let err = parse("a = 1 b = 2\n").unwrap_err();
        assert!(err.message.contains("expected end of line"));
        let err = parse("a = 0x10\n").unwrap_err();
        assert!(err.message.contains("invalid integer"));
        let err = parse("a = tru\n").unwrap_err();
        assert!(err.message.contains("`tru`"));
        let err = parse("a = \"\"\"x\"\"\"\n").unwrap_err();
        assert!(err.message.contains("multi-line strings"));
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let doc = parse("a = 1\r\n[t]\r\nb = 2\r\n").unwrap();
        assert_eq!(get(&doc, "a"), &Value::Int(1));
        let Value::Table(t) = get(&doc, "t") else {
            panic!("t is a table")
        };
        assert_eq!(get(t, "b"), &Value::Int(2));
    }

    #[test]
    fn first_unknown_key_reports_position() {
        let doc = parse("known = 1\nmystery = 2\n").unwrap();
        let unknown = doc.first_unknown_key(&["known"]).unwrap();
        assert_eq!(unknown.value, "mystery");
        assert_eq!(unknown.pos, Pos { line: 2, col: 1 });
        assert!(doc.first_unknown_key(&["known", "mystery"]).is_none());
    }
}
