//! Query fingerprinting — the mechanism behind `SQL2Template` (§IV-A
//! step 1): "for any new query, we replace the predicate values in the
//! query with placeholders and match that query with the most similar
//! template".
//!
//! Two fingerprinting paths are provided:
//!
//! * [`fingerprint`] — text-level: lex the query, replace every literal
//!   token with `$`, normalise whitespace/casing, and hash the result. It
//!   never builds an AST; [`scan_fingerprint`] computes the same hash
//!   without building the text either, which is what the per-statement
//!   `SQL2Template` path uses — the text is only needed when a template is
//!   admitted.
//! * [`fingerprint_statement`] — structural: render a parsed statement with
//!   all values replaced by placeholders. Used when the template store also
//!   needs the AST (e.g. for candidate generation on first sight of a
//!   template).
//!
//! Both produce the same string for the same query, so templates created on
//! either path unify.

use crate::ast::{InsertStatement, Predicate, SelectStatement, Statement, TableRef, Value};
use crate::lexer::{Lexer, TokenKind};
use crate::SqlError;

/// A canonical query template string plus a stable 64-bit hash of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Canonical text with literals replaced by `$`.
    pub text: String,
    /// FNV-1a hash of `text` (stable across runs — used as the template
    /// key so the store never depends on `DefaultHasher` randomisation).
    pub hash: u64,
}

impl Fingerprint {
    fn from_text(text: String) -> Self {
        let hash = fnv1a(text.as_bytes());
        Fingerprint { text, hash }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Stable FNV-1a (64-bit) hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Text-level fingerprint: lex, replace literals with `$`, re-emit with
/// single spaces. Errors only on lexically invalid SQL.
pub fn fingerprint(sql: &str) -> Result<Fingerprint, SqlError> {
    let mut lexer = Lexer::new(sql);
    // Canonical text is about the same length as the input.
    let mut text = String::with_capacity(sql.len());
    let mut prev_glue = false; // previous token glues to the next (no space)
    let mut after_like = false; // previous keyword was LIKE
    loop {
        let kind = lexer.next_token()?.kind;
        let piece: &str = match kind {
            TokenKind::Eof => break,
            // A string after LIKE keeps its wildcard anchoring: prefix
            // patterns ('abc%') are sargable, suffix patterns ('%abc') are
            // not, so they must map to different templates.
            TokenKind::Str(s) if after_like => {
                if s.starts_with('%') || s.starts_with('_') {
                    "'%$'"
                } else {
                    "'$%'"
                }
            }
            TokenKind::Int(_)
            | TokenKind::Float(_)
            | TokenKind::Str(_)
            | TokenKind::Placeholder => "$",
            TokenKind::Ident(s) => s,
            TokenKind::Keyword(k) => k,
            TokenKind::Punct(p) => p,
        };
        after_like = matches!(kind, TokenKind::Keyword("LIKE"));
        let glue_before = matches!(kind, TokenKind::Punct("." | "," | ")" | ";"));
        if !text.is_empty() && !prev_glue && !glue_before {
            text.push(' ');
        }
        let at = text.len();
        text.push_str(piece);
        if matches!(kind, TokenKind::Ident(_)) {
            // Identifiers are case-insensitive; the token is as written.
            text[at..].make_ascii_lowercase();
        }
        prev_glue = matches!(kind, TokenKind::Punct("." | "("));
    }
    Ok(Fingerprint::from_text(text))
}

/// Structural fingerprint: replace all values in the AST with
/// [`Value::Placeholder`], multi-row inserts with a single row, then render
/// through the text-level path so both paths produce identical strings.
pub fn fingerprint_statement(stmt: &Statement) -> Fingerprint {
    let templated = templatize(stmt);
    let rendered = templated.to_string();
    fingerprint(&rendered).expect("rendered SQL always lexes")
}

/// Produce the *template statement*: the input with every literal value
/// replaced by a placeholder. The template AST is what candidate index
/// generation runs on.
pub fn templatize(stmt: &Statement) -> Statement {
    match stmt {
        Statement::Select(s) => Statement::Select(templatize_select(s)),
        Statement::Insert(i) => Statement::Insert(InsertStatement {
            table: i.table.clone(),
            columns: i.columns.clone(),
            // Multi-row inserts collapse to one row: same index requirement.
            rows: vec![vec![Value::Placeholder; i.columns.len().max(1)]],
        }),
        Statement::Update(u) => Statement::Update(crate::ast::UpdateStatement {
            table: u.table.clone(),
            sets: u
                .sets
                .iter()
                .map(|s| crate::ast::SetClause {
                    column: s.column.clone(),
                    value: Value::Placeholder,
                })
                .collect(),
            where_clause: u.where_clause.as_ref().map(templatize_predicate),
        }),
        Statement::Delete(d) => Statement::Delete(crate::ast::DeleteStatement {
            table: d.table.clone(),
            where_clause: d.where_clause.as_ref().map(templatize_predicate),
        }),
    }
}

fn templatize_select(s: &SelectStatement) -> SelectStatement {
    SelectStatement {
        distinct: s.distinct,
        projection: s.projection.clone(),
        from: s.from.iter().map(templatize_table_ref).collect(),
        joins: s
            .joins
            .iter()
            .map(|j| crate::ast::Join {
                kind: j.kind,
                relation: templatize_table_ref(&j.relation),
                on: j.on.as_ref().map(templatize_predicate),
            })
            .collect(),
        where_clause: s.where_clause.as_ref().map(templatize_predicate),
        group_by: s.group_by.clone(),
        having: s.having.as_ref().map(templatize_predicate),
        order_by: s.order_by.clone(),
        limit: s.limit,
        for_update: s.for_update,
    }
}

fn templatize_table_ref(t: &TableRef) -> TableRef {
    match t {
        TableRef::Table { .. } => t.clone(),
        TableRef::Derived { query, alias } => TableRef::Derived {
            query: Box::new(templatize_select(query)),
            alias: alias.clone(),
        },
    }
}

fn templatize_predicate(p: &Predicate) -> Predicate {
    match p {
        Predicate::And(ps) => Predicate::And(ps.iter().map(templatize_predicate).collect()),
        Predicate::Or(ps) => Predicate::Or(ps.iter().map(templatize_predicate).collect()),
        Predicate::Not(inner) => Predicate::Not(Box::new(templatize_predicate(inner))),
        Predicate::Cmp { column, op, .. } => Predicate::Cmp {
            column: column.clone(),
            op: *op,
            value: Value::Placeholder,
        },
        Predicate::JoinEq { .. } => p.clone(),
        Predicate::InList {
            column, negated, ..
        } => Predicate::InList {
            column: column.clone(),
            // IN lists collapse to one placeholder: list length varies per
            // query instance but the index requirement does not.
            values: vec![Value::Placeholder],
            negated: *negated,
        },
        Predicate::Between {
            column, negated, ..
        } => Predicate::Between {
            column: column.clone(),
            low: Value::Placeholder,
            high: Value::Placeholder,
            negated: *negated,
        },
        Predicate::Like {
            column,
            pattern,
            negated,
        } => {
            // Keep a leading literal prefix marker: `abc%` and `%abc` have
            // different sargability, so they must template differently.
            let canonical = if pattern.starts_with('%') || pattern.starts_with('_') {
                "%$".to_string()
            } else {
                "$%".to_string()
            };
            Predicate::Like {
                column: column.clone(),
                pattern: canonical,
                negated: *negated,
            }
        }
        Predicate::IsNull { .. } => p.clone(),
        Predicate::Exists { query, negated } => Predicate::Exists {
            query: Box::new(templatize_select(query)),
            negated: *negated,
        },
        Predicate::InSubquery {
            column,
            query,
            negated,
        } => Predicate::InSubquery {
            column: column.clone(),
            query: Box::new(templatize_select(query)),
            negated: *negated,
        },
        Predicate::AggCmp { func, arg, op, .. } => Predicate::AggCmp {
            func: func.clone(),
            arg: arg.clone(),
            op: *op,
            value: Value::Placeholder,
        },
    }
}

/// Reusable literal buffer filled by [`scan_fingerprint`].
///
/// Holds the literal values of one statement in source order (the order of
/// `$` placeholders in the canonical template text). The buffer retains its
/// capacity across calls, so the steady-state scan allocates nothing for
/// numeric workloads (`Str` literals still copy their content).
#[derive(Debug, Clone, Default)]
pub struct LiteralBuf {
    /// Collected literal values, one per literal token.
    pub values: Vec<Value>,
}

impl LiteralBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        LiteralBuf::default()
    }
}

/// Incremental FNV-1a over the canonical fingerprint byte stream. Whether
/// anything has been emitted yet is tracked by the caller (per token, not
/// per byte) so the per-byte step stays a bare xor-multiply.
struct FnvStream {
    h: u64,
}

impl FnvStream {
    fn new() -> Self {
        FnvStream {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
}

/// Zero-allocation text-level fingerprint: computes exactly the hash that
/// [`fingerprint`] would return, without building the canonical string,
/// token vector or any per-token `String`s, and collects the statement's
/// literal values into `lits` (cleared first).
///
/// Returns `None` on any input the lexer would reject (unterminated
/// string/comment, stray characters) — callers fall back to the allocating
/// path, which reproduces the original error behaviour.
///
/// This is the serving hot path's front end: `scan + template-cache lookup`
/// replaces `parse + shape extraction` for statements whose template is
/// already compiled (see the `sql.fastpath.*` counters).
pub fn scan_fingerprint(sql: &str, lits: &mut LiteralBuf) -> Option<u64> {
    lits.values.clear();
    let bytes = sql.as_bytes();
    let mut pos = 0usize;
    let mut fnv = FnvStream::new();
    let mut started = false;
    let mut prev_glue = false;
    let mut after_like = false;

    // Emit one canonical piece with the fingerprint spacing rules.
    // `started` mirrors the canonical renderer's `!text.is_empty()`: it is
    // set by each arm *after* emitting, and only when bytes were actually
    // emitted (an empty quoted identifier emits none), keeping the hash
    // byte-identical to [`fingerprint`] without per-byte bookkeeping.
    macro_rules! space {
        ($glue_before:expr) => {
            if started && !prev_glue && !$glue_before {
                fnv.byte(b' ');
            }
        };
    }

    loop {
        // --- skip whitespace and comments (mirrors Lexer::skip_ws_and_comments)
        loop {
            match bytes.get(pos) {
                Some(b) if b.is_ascii_whitespace() => pos += 1,
                Some(b'-') if bytes.get(pos + 1) == Some(&b'-') => {
                    while let Some(&b) = bytes.get(pos) {
                        if b == b'\n' {
                            break;
                        }
                        pos += 1;
                    }
                }
                Some(b'/') if bytes.get(pos + 1) == Some(&b'*') => {
                    pos += 2;
                    loop {
                        match (bytes.get(pos), bytes.get(pos + 1)) {
                            (Some(b'*'), Some(b'/')) => {
                                pos += 2;
                                break;
                            }
                            (Some(_), _) => pos += 1,
                            (None, _) => return None, // unterminated block comment
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(&b) = bytes.get(pos) else {
            return Some(fnv.h); // Eof
        };
        // Each arm mirrors one Lexer::next_token case plus the fingerprint
        // piece it canonicalises to. `after_like` is recomputed per token.
        match b {
            b'\'' => {
                // String literal with '' escapes.
                pos += 1;
                let start = pos;
                let mut has_escape = false;
                loop {
                    match bytes.get(pos) {
                        Some(b'\'') => {
                            if bytes.get(pos + 1) == Some(&b'\'') {
                                has_escape = true;
                                pos += 2;
                            } else {
                                break;
                            }
                        }
                        Some(_) => pos += 1,
                        None => return None, // unterminated string literal
                    }
                }
                let raw = &sql[start..pos];
                pos += 1; // closing quote
                let piece: &str = if after_like {
                    // First *content* char decides the anchoring class; the
                    // raw slice starts with the content (an escaped quote
                    // yields a literal `'`, which is neither `%` nor `_`).
                    if raw.starts_with('%') || raw.starts_with('_') {
                        "'%$'"
                    } else {
                        "'$%'"
                    }
                } else {
                    "$"
                };
                space!(false);
                fnv.bytes(piece.as_bytes());
                let content = if has_escape {
                    raw.replace("''", "'")
                } else {
                    raw.to_string()
                };
                lits.values.push(Value::Str(content));
                started = true;
                after_like = false;
                prev_glue = false;
            }
            b'0'..=b'9' => {
                // Number literal (mirrors Lexer::lex_number exactly).
                let start = pos;
                while bytes.get(pos).is_some_and(|c| c.is_ascii_digit()) {
                    pos += 1;
                }
                let mut is_float = false;
                if bytes.get(pos) == Some(&b'.')
                    && bytes.get(pos + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_float = true;
                    pos += 1;
                    while bytes.get(pos).is_some_and(|c| c.is_ascii_digit()) {
                        pos += 1;
                    }
                }
                if matches!(bytes.get(pos), Some(b'e') | Some(b'E')) {
                    let save = pos;
                    pos += 1;
                    if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                        pos += 1;
                    }
                    if bytes.get(pos).is_some_and(|c| c.is_ascii_digit()) {
                        is_float = true;
                        while bytes.get(pos).is_some_and(|c| c.is_ascii_digit()) {
                            pos += 1;
                        }
                    } else {
                        pos = save;
                    }
                }
                let text = &sql[start..pos];
                let value = if is_float {
                    Value::Float(text.parse::<f64>().ok()?)
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => Value::Int(v),
                        Err(_) => Value::Float(text.parse::<f64>().ok()?),
                    }
                };
                space!(false);
                fnv.byte(b'$');
                lits.values.push(value);
                started = true;
                after_like = false;
                prev_glue = false;
            }
            b'?' => {
                pos += 1;
                space!(false);
                fnv.byte(b'$');
                lits.values.push(Value::Placeholder);
                started = true;
                after_like = false;
                prev_glue = false;
            }
            b'$' => {
                pos += 1;
                while bytes.get(pos).is_some_and(|c| c.is_ascii_digit()) {
                    pos += 1;
                }
                space!(false);
                fnv.byte(b'$');
                lits.values.push(Value::Placeholder);
                started = true;
                after_like = false;
                prev_glue = false;
            }
            b'"' => {
                // Quoted identifier: lower-cased content.
                pos += 1;
                let start = pos;
                loop {
                    match bytes.get(pos) {
                        Some(b'"') => break,
                        Some(_) => pos += 1,
                        None => return None, // unterminated quoted identifier
                    }
                }
                space!(false);
                if pos > start {
                    started = true;
                }
                for &c in &bytes[start..pos] {
                    fnv.byte(c.to_ascii_lowercase());
                }
                pos += 1;
                after_like = false;
                prev_glue = false;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = pos;
                while bytes
                    .get(pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    pos += 1;
                }
                let word = &sql[start..pos];
                let keyword = crate::lexer::keyword_match(word);
                space!(false);
                match keyword {
                    Some(k) => {
                        fnv.bytes(k.as_bytes());
                        after_like = k == "LIKE";
                    }
                    None => {
                        for &c in word.as_bytes() {
                            fnv.byte(c.to_ascii_lowercase());
                        }
                        after_like = false;
                    }
                }
                started = true;
                prev_glue = false;
            }
            _ => {
                // Punctuation (mirrors Lexer::lex_punct).
                pos += 1;
                let p: &str = match b {
                    b'(' => "(",
                    b')' => ")",
                    b',' => ",",
                    b'.' => ".",
                    b'*' => "*",
                    b'+' => "+",
                    b'-' => "-",
                    b'/' => "/",
                    b';' => ";",
                    b'=' => "=",
                    b'<' => match bytes.get(pos) {
                        Some(b'=') => {
                            pos += 1;
                            "<="
                        }
                        Some(b'>') => {
                            pos += 1;
                            "<>"
                        }
                        _ => "<",
                    },
                    b'>' => match bytes.get(pos) {
                        Some(b'=') => {
                            pos += 1;
                            ">="
                        }
                        _ => ">",
                    },
                    b'!' => match bytes.get(pos) {
                        Some(b'=') => {
                            pos += 1;
                            "<>"
                        }
                        _ => return None, // unexpected '!'
                    },
                    _ => return None, // unexpected character
                };
                let glue_before = matches!(p, "." | "," | ")" | ";");
                space!(glue_before);
                fnv.bytes(p.as_bytes());
                started = true;
                after_like = false;
                prev_glue = matches!(p, "." | "(");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    #[test]
    fn same_template_for_different_constants() {
        let f1 = fingerprint("SELECT a FROM t WHERE b = 10 AND c = 'x'").unwrap();
        let f2 = fingerprint("SELECT a FROM t WHERE b = 999 AND c = 'zebra'").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_structure_different_template() {
        let f1 = fingerprint("SELECT a FROM t WHERE b = 1").unwrap();
        let f2 = fingerprint("SELECT a FROM t WHERE c = 1").unwrap();
        assert_ne!(f1, f2);
        let f3 = fingerprint("SELECT a FROM t WHERE b > 1").unwrap();
        assert_ne!(f1, f3);
    }

    #[test]
    fn whitespace_case_and_comments_are_normalised() {
        let f1 = fingerprint("select  a\nfrom   T where B = 3 -- note").unwrap();
        let f2 = fingerprint("SELECT a FROM t WHERE b = 3").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn placeholders_and_literals_unify() {
        let f1 = fingerprint("SELECT a FROM t WHERE b = ?").unwrap();
        let f2 = fingerprint("SELECT a FROM t WHERE b = 42").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn fingerprint_is_idempotent() {
        let f1 = fingerprint("SELECT a FROM t WHERE b = 7").unwrap();
        let f2 = fingerprint(&f1.text).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn structural_matches_textual() {
        for sql in [
            "SELECT a, b FROM t WHERE a = 1 AND b > 2.5 ORDER BY a",
            "UPDATE t SET a = 3 WHERE b = 'x'",
            "DELETE FROM t WHERE a BETWEEN 1 AND 2",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let fs = fingerprint_statement(&stmt);
            // Textual fingerprint of the structural template's text must be
            // a fixed point.
            let ft = fingerprint(&fs.text).unwrap();
            assert_eq!(fs, ft, "for {sql:?}");
        }
    }

    #[test]
    fn having_aggregate_fingerprints_on_both_paths() {
        // Regression: HAVING over an aggregate used to fail to parse, so
        // the structural path silently dropped the template. Both paths
        // must now agree and unify across constants.
        let sql1 = "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 5";
        let sql2 = "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 99";
        let stmt = parse_statement(sql1).unwrap();
        let fs = fingerprint_statement(&stmt);
        let ft = fingerprint(sql1).unwrap();
        assert_eq!(fs, ft);
        assert_eq!(ft, fingerprint(sql2).unwrap());
        // The scan path agrees too.
        let mut lits = LiteralBuf::new();
        assert_eq!(scan_fingerprint(sql1, &mut lits), Some(ft.hash));
    }

    #[test]
    fn insert_row_count_does_not_change_template() {
        let s1 = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)").unwrap();
        let s2 = parse_statement("INSERT INTO t (a, b) VALUES (3, 4), (5, 6)").unwrap();
        assert_eq!(fingerprint_statement(&s1), fingerprint_statement(&s2));
    }

    #[test]
    fn in_list_length_does_not_change_template() {
        let s1 = parse_statement("SELECT * FROM t WHERE a IN (1)").unwrap();
        let s2 = parse_statement("SELECT * FROM t WHERE a IN (1, 2, 3, 4)").unwrap();
        assert_eq!(fingerprint_statement(&s1), fingerprint_statement(&s2));
    }

    #[test]
    fn like_prefix_vs_suffix_template_differ() {
        let s1 = parse_statement("SELECT * FROM t WHERE a LIKE 'abc%'").unwrap();
        let s2 = parse_statement("SELECT * FROM t WHERE a LIKE '%abc'").unwrap();
        assert_ne!(fingerprint_statement(&s1), fingerprint_statement(&s2));
    }

    #[test]
    fn scan_matches_fingerprint_on_representative_statements() {
        let mut lits = LiteralBuf::new();
        for sql in [
            "SELECT a FROM t WHERE b = 10 AND c = 'x'",
            "select  a\nfrom   T where B = 3 -- note",
            "SELECT a FROM t WHERE b = ?",
            "SELECT acct_id, balance FROM account WHERE acct_id = 4711 LIMIT 10",
            "UPDATE account SET balance = balance - 25 WHERE acct_id = 99",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2.5, 'y')",
            "DELETE FROM t WHERE a BETWEEN 1 AND 2 AND b != 3",
            "SELECT * FROM t WHERE a LIKE 'abc%' OR a LIKE '%abc'",
            "SELECT * FROM t WHERE n = 99999999999999999999999999",
            "SELECT * FROM t WHERE s = 'o''brien' AND p = $3",
            "SELECT COUNT(*) FROM w, b WHERE w.id = b.id GROUP BY b.x ORDER BY b.x DESC",
            "SELECT a FROM \"Order\" WHERE x >= 1e3 AND y <= 7.5e-2; ",
        ] {
            let expect = fingerprint(sql).unwrap();
            let got = scan_fingerprint(sql, &mut lits)
                .unwrap_or_else(|| panic!("scanner rejected {sql:?}"));
            assert_eq!(got, expect.hash, "hash mismatch for {sql:?}");
            // One literal collected per `$` in the canonical text (LIKE
            // patterns render as quoted pieces but still collect one value).
            let dollars = expect.text.matches('$').count();
            assert_eq!(lits.values.len(), dollars, "literal count for {sql:?}");
        }
    }

    #[test]
    fn scan_collects_literals_in_order() {
        let mut lits = LiteralBuf::new();
        scan_fingerprint(
            "SELECT a FROM t WHERE b = 10 AND c = 'x' AND d < 2.5",
            &mut lits,
        )
        .unwrap();
        assert_eq!(
            lits.values,
            vec![Value::Int(10), Value::Str("x".into()), Value::Float(2.5)]
        );
        // Buffer is cleared and refilled on the next call.
        scan_fingerprint("SELECT a FROM t WHERE b = ?", &mut lits).unwrap();
        assert_eq!(lits.values, vec![Value::Placeholder]);
    }

    #[test]
    fn scan_rejects_what_the_lexer_rejects() {
        let mut lits = LiteralBuf::new();
        for sql in [
            "'oops",
            "select /* nope",
            "a ! b",
            "a # b",
            "\"unterminated",
        ] {
            assert!(fingerprint(sql).is_err(), "lexer accepted {sql:?}");
            assert!(
                scan_fingerprint(sql, &mut lits).is_none(),
                "scanner accepted {sql:?}"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Known FNV-1a vector.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // The workspace's other byte hash is the same function.
        for s in ["", "a", "SELECT * FROM t WHERE a = $"] {
            assert_eq!(
                fnv1a(s.as_bytes()),
                autoindex_support::hash::fnv1a(s.as_bytes())
            );
        }
    }
}
