//! Query fingerprinting — the mechanism behind `SQL2Template` (§IV-A
//! step 1): "for any new query, we replace the predicate values in the
//! query with placeholders and match that query with the most similar
//! template".
//!
//! Fingerprinting is text-level and never builds an AST. One private walk
//! over the [`Lexer`]'s tokens owns the canonical form (a literal becomes
//! `$`, a `LIKE` pattern `'%$'` or `'$%'`, an identifier is lower-cased, one
//! rule places the blanks) and hands it to one of two sinks: [`fingerprint`]
//! writes the text and hashes it; [`scan_fingerprint`] folds it straight
//! into the same hash and collects the literals it replaced. The latter is
//! the per-statement `SQL2Template` path: the text is needed only when a
//! template is admitted.
//!
//! One literal token is one `$`, so two statements unify only when they
//! have the same token structure: `IN ($)` and `IN ($, $, $)`, or a one-row
//! and a two-row `VALUES`, are different templates.

use crate::ast::Value;
use crate::lexer::{unescape_into, Lexer, TokenKind};
use crate::SqlError;
use autoindex_support::hash::{fnv1a_step, FNV_OFFSET};

pub use autoindex_support::hash::fnv1a;

/// A canonical query template string plus a stable 64-bit hash of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Canonical text with literals replaced by `$`.
    pub text: String,
    /// FNV-1a hash of `text` (stable across runs — used as the template
    /// key so the store never depends on `DefaultHasher` randomisation).
    pub hash: u64,
}

/// Dense handle for a query template (assigned by the template store in
/// first-seen order; stable for the life of the store). The compiled fast
/// path uses it as the stable, transcript-independent identity of a
/// compiled entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Text-level fingerprint: lex, replace literals with `$`, re-emit with
/// single spaces. Errors only on lexically invalid SQL.
pub fn fingerprint(sql: &str) -> Result<Fingerprint, SqlError> {
    // Canonical text is about the same length as the input.
    let mut text = String::with_capacity(sql.len());
    canonical_walk(sql, &mut text)?;
    let hash = fnv1a(text.as_bytes());
    Ok(Fingerprint { text, hash })
}

/// Reusable literal buffer filled by [`scan_fingerprint`].
///
/// Holds the literal values of one statement in source order (the order of
/// `$` placeholders in the canonical template text). The buffer retains its
/// capacity across calls, and a scan writes its string literals into the
/// strings the scan before collected, the `k`-th into the `k`-th, so the
/// steady-state scan allocates nothing: a string literal allocates only
/// where the scan before had fewer, or wrote a shorter one.
#[derive(Debug, Clone, Default)]
pub struct LiteralBuf {
    /// Collected literal values, one per literal token.
    pub values: Vec<Value>,
    /// The strings of earlier scans, the next one to write last.
    spare: Vec<String>,
}

impl LiteralBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        LiteralBuf::default()
    }
}

/// Zero-allocation text-level fingerprint: exactly the hash that
/// [`fingerprint`] would return, without building the canonical string,
/// and the statement's literal values collected into `lits` (cleared
/// first, its strings kept for this scan's string literals).
///
/// Returns `None` on any input the lexer rejects (unterminated
/// string/comment, stray characters) — callers fall back to the allocating
/// path, which reproduces the error.
///
/// This is the serving hot path's front end: `scan + template-cache lookup`
/// replaces `parse + shape extraction` for statements whose template is
/// already compiled (see the `sql.fastpath.*` counters).
pub fn scan_fingerprint(sql: &str, lits: &mut LiteralBuf) -> Option<u64> {
    // Last to first, so that the first string literal gets the first
    // string back. (Writing over the slots in place instead reuses a
    // string only where the scan before had one in the same slot, and
    // measured slower on numeric statements, as did a loop of `pop`s.)
    let strings = lits.values.drain(..).rev().filter_map(|v| match v {
        Value::Str(s) => Some(s),
        _ => None,
    });
    lits.spare.extend(strings);
    let mut scan = Scan {
        hash: FNV_OFFSET,
        lits: &mut lits.values,
        spare: &mut lits.spare,
    };
    canonical_walk(sql, &mut scan).ok()?;
    Some(scan.hash)
}

/// Where [`canonical_walk`] writes the canonical form.
trait Sink {
    /// Append `piece`, ASCII-lower-cased when `lower`.
    fn push(&mut self, piece: &str, lower: bool);
    /// The literal token just written as `$` (or a `LIKE` pattern piece).
    fn literal(&mut self, _token: TokenKind<'_>) {}
}

/// [`fingerprint`]'s sink: the canonical text.
impl Sink for String {
    fn push(&mut self, piece: &str, lower: bool) {
        let at = self.len();
        self.push_str(piece);
        if lower {
            self[at..].make_ascii_lowercase();
        }
    }
}

/// [`scan_fingerprint`]'s sink: FNV-1a over the canonical bytes, and the
/// literal values in source order, a string written into a spare one.
struct Scan<'b> {
    hash: u64,
    lits: &'b mut Vec<Value>,
    spare: &'b mut Vec<String>,
}

impl Sink for Scan<'_> {
    #[inline(always)]
    fn push(&mut self, piece: &str, lower: bool) {
        for &b in piece.as_bytes() {
            let b = if lower { b.to_ascii_lowercase() } else { b };
            self.hash = fnv1a_step(self.hash, b);
        }
    }

    #[inline(always)]
    fn literal(&mut self, token: TokenKind<'_>) {
        self.lits.push(match token {
            TokenKind::Int(v) => Value::Int(v),
            TokenKind::Float(v) => Value::Float(v),
            TokenKind::Str(raw) => {
                let mut s = self.spare.pop().unwrap_or_default();
                unescape_into(raw, &mut s);
                Value::Str(s)
            }
            _ => Value::Placeholder,
        });
    }
}

/// The canonical form, written once: lex `sql` and hand `sink` one piece
/// per token — a literal as `$`, an identifier lower-cased, a keyword in
/// its upper-case spelling, punctuation as lexed — with one blank between
/// two pieces unless the first glues to the next (`.` `(`) or the second
/// to the previous (`.` `,` `)` `;`). Each arm pushes its own piece, so the
/// hash sink folds a constant one (`$`) without entering a loop.
#[inline(always)]
fn canonical_walk(sql: &str, sink: &mut impl Sink) -> Result<(), SqlError> {
    let mut lexer = Lexer::new(sql);
    let mut started = false; // a non-empty piece has been written
    let mut prev_glue = false; // the previous token glues to the next
    let mut after_like = false; // the previous token was LIKE
    loop {
        let kind = lexer.next_token()?.kind;
        if matches!(kind, TokenKind::Eof) {
            return Ok(());
        }
        // Punctuation glues by its one byte (comparing bytes, not `&str`s,
        // keeps these checks to a couple of instructions).
        let glue_before = matches!(
            kind,
            TokenKind::Punct(p) if matches!(p.as_bytes(), [b'.' | b',' | b')' | b';'])
        );
        if started && !prev_glue && !glue_before {
            sink.push(" ", false);
        }
        match kind {
            TokenKind::Ident(s) => sink.push(s, true),
            TokenKind::Keyword(k) => sink.push(k, false),
            TokenKind::Punct(p) => sink.push(p, false),
            // A pattern keeps its anchoring: prefix patterns ('abc%') are
            // sargable, suffix patterns ('%abc', '_bc') are not, so they
            // are different templates.
            TokenKind::Str(raw) if after_like => {
                if raw.starts_with(['%', '_']) {
                    sink.push("'%$'", false);
                } else {
                    sink.push("'$%'", false);
                }
                sink.literal(kind);
            }
            _ => {
                sink.push("$", false);
                sink.literal(kind);
            }
        }
        // Only an empty quoted identifier writes nothing.
        started |= !matches!(kind, TokenKind::Ident(""));
        after_like = matches!(kind, TokenKind::Keyword("LIKE"));
        prev_glue = matches!(
            kind,
            TokenKind::Punct(p) if matches!(p.as_bytes(), [b'.' | b'('])
        );
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

    /// A scan writes its string literals into the strings the scan before
    /// collected, the first into the first, and what it leaves equals a
    /// fresh buffer's scan whatever the slots held before: fewer literals,
    /// a `Str` slot now an `Int`.
    #[test]
    fn a_rescan_reuses_string_buffers_and_equals_a_fresh_scan() {
        let mut lits = LiteralBuf::new();
        let buffers = |lits: &LiteralBuf| -> Vec<*const u8> {
            let strs = lits.values.iter().filter_map(|v| match v {
                Value::Str(s) => Some(s.as_ptr()),
                _ => None,
            });
            strs.collect()
        };
        let sql = "SELECT a FROM t WHERE c = 'a longer string' AND b = 1 AND d = 'another one'";
        scan_fingerprint(sql, &mut lits).unwrap();
        let first = buffers(&lits);
        let sql = "SELECT a FROM t WHERE c = 'o''brien' AND b = 2 AND d = 'z'";
        scan_fingerprint(sql, &mut lits).unwrap();
        let expect = [
            Value::Str("o'brien".into()),
            Value::Int(2),
            Value::Str("z".into()),
        ];
        assert_eq!(lits.values, expect);
        assert_eq!(buffers(&lits), first, "each string's buffer");

        for sql in [
            "SELECT a FROM t WHERE c = 'x' AND b = 'y' AND d = 'z' AND e = 4",
            "SELECT a FROM t WHERE c = 'short' AND b = 3",
            "SELECT a FROM t WHERE c = 5 AND b = 'now a string' AND d = 2.5",
            "SELECT a FROM t",
            "SELECT a FROM t WHERE c = 'x' AND b = 'y' AND d = ?",
            "SELECT a FROM t WHERE c = 'unterminated",
        ] {
            let at = scan_fingerprint(sql, &mut lits);
            let mut fresh = LiteralBuf::new();
            assert_eq!(at, scan_fingerprint(sql, &mut fresh), "{sql}");
            assert_eq!(lits.values, fresh.values, "{sql}");
        }
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
        // The scanner hashes byte by byte; that stream must equal the
        // whole-string hash the text path takes of the same template.
        for s in ["", "a", "SELECT * FROM t WHERE a = $"] {
            let streamed = s.bytes().fold(FNV_OFFSET, fnv1a_step);
            assert_eq!(streamed, fnv1a(s.as_bytes()));
        }
    }
}
