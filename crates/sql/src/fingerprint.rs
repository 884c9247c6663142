//! Query fingerprinting — the mechanism behind `SQL2Template` (§IV-A
//! step 1): "for any new query, we replace the predicate values in the
//! query with placeholders and match that query with the most similar
//! template".
//!
//! Fingerprinting is text-level and never builds an AST:
//!
//! * [`fingerprint`] lexes the query, replaces every literal token with
//!   `$`, normalises whitespace/casing, and hashes the result;
//! * [`scan_fingerprint`] computes the same hash without building the text
//!   either, which is what the per-statement `SQL2Template` path uses — the
//!   text is only needed when a template is admitted.
//!
//! One literal token is one `$`, so two statements unify only when they
//! have the same token structure: `IN ($)` and `IN ($, $, $)`, or a one-row
//! and a two-row `VALUES`, are different templates.

use crate::ast::Value;
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
    fn having_aggregate_fingerprints_on_both_paths() {
        // HAVING over an aggregate unifies across constants, and the text
        // and scan paths agree on it.
        let sql1 = "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 5";
        let sql2 = "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 99";
        let ft = fingerprint(sql1).unwrap();
        assert_eq!(ft, fingerprint(sql2).unwrap());
        let mut lits = LiteralBuf::new();
        assert_eq!(scan_fingerprint(sql1, &mut lits), Some(ft.hash));
    }

    #[test]
    fn like_prefix_vs_suffix_template_differ() {
        let f1 = fingerprint("SELECT * FROM t WHERE a LIKE 'abc%'").unwrap();
        let f2 = fingerprint("SELECT * FROM t WHERE a LIKE '%abc'").unwrap();
        assert_ne!(f1, f2);
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
