//! Golden oracle for the `SQL2Template` front end: [`scan_fingerprint`] and
//! [`fingerprint`].
//!
//! A fixed-seed corpus of statements, written to reach every rule the
//! canonical form has — `LIKE` anchoring (a leading `%` or `_` is
//! suffix-anchored), `''` escapes, non-ASCII string content, quoted
//! identifiers (`""` included), `?` / `$n`, `--` and `/* */` comments,
//! `!=`, exponent floats, i64 overflow, qualified join columns, `GROUP BY` /
//! `HAVING COUNT(*) > n` / `ORDER BY … DESC` / `LIMIT` — plus six
//! byte-mutated copies of each, is fingerprinted both ways. Per statement
//! one FNV-1a digest folds in the scanner's hash (or its rejection), the
//! literal values it collected (`Debug`), and `fingerprint`'s text and hash
//! (or the byte offset of its lexical error). The digest below was printed
//! by the byte-level scanner that mirrored the tokenizer, before both
//! readings became sinks of one walk over the lexer; a change to either
//! reading must leave it where it is.
//!
//! The corpus has its own generator, independent of `proptests.rs`'s.

use autoindex_sql::{fingerprint, scan_fingerprint, LiteralBuf, SqlError};
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::rng::StdRng;

/// What the byte-level scanner printed for [`corpus`].
const GOLDEN: u64 = 0x65ba_bc17_0162_5625;
const STATEMENTS: usize = 2_100;
const MUTANTS: usize = 6;

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    rng.choose(xs).expect("non-empty")
}

/// Space between two tokens: usually one blank, sometimes a run of
/// whitespace or a comment.
fn gap(rng: &mut StdRng) -> &'static str {
    match rng.random_range(0u32..20) {
        0 => "  ",
        1 => "\n\t",
        2 => " /* note */ ",
        3 => " -- trailing\n",
        4 => "/**/",
        _ => " ",
    }
}

/// A table reference as written: bare, mixed case, or quoted.
fn table(rng: &mut StdRng) -> &'static str {
    pick::<&str>(
        rng,
        &[
            "account",
            "Account",
            "visit",
            "\"Order\"",
            "\"line item\"",
            "t",
        ],
    )
}

/// A column, bare, mixed case, quoted or qualified.
fn column(rng: &mut StdRng) -> String {
    let name = *pick(rng, &["a", "B", "c_id", "Balance", "\"Mixed\"", "_x"]);
    match rng.random_range(0u32..6) {
        0 => format!("t.{name}"),
        1 => format!("T.{name}"),
        2 => format!("\"t\".{name}"),
        _ => name.to_string(),
    }
}

fn number(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..12) {
        0 => "99999999999999999999".to_string(),
        1 => format!(
            "{}e{}",
            rng.random_range(1u32..9),
            rng.random_range(0u32..20)
        ),
        2 => format!(
            "{}.5E-{}",
            rng.random_range(0u32..9),
            rng.random_range(1u32..4)
        ),
        3 => format!("{}e+2", rng.random_range(1u32..9)),
        4 => format!(
            "{}.{}",
            rng.random_range(0u32..100),
            rng.random_range(0u32..100)
        ),
        5 => format!("-{}", rng.random_range(1u32..50)),
        // Not an exponent: `1e` lexes as `1` then the identifier `e`.
        6 => "1e".to_string(),
        7 => "9223372036854775807".to_string(),
        _ => rng.random_range(0i64..100_000).to_string(),
    }
}

fn string(rng: &mut StdRng) -> &'static str {
    pick::<&str>(
        rng,
        &[
            "'x'",
            "'o''brien'",
            "'café'",
            "'日本語'",
            "''",
            "''''",
            "'it''s ''quoted'''",
            "'riverside'",
            "'€ 5'",
        ],
    )
}

fn placeholder(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..3) {
        0 => "?".to_string(),
        1 => format!("${}", rng.random_range(1u32..30)),
        _ => "$".to_string(),
    }
}

fn value(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..4) {
        0 | 1 => number(rng),
        2 => string(rng).to_string(),
        _ => placeholder(rng),
    }
}

fn atom(rng: &mut StdRng) -> String {
    let col = column(rng);
    let g = gap(rng);
    match rng.random_range(0u32..14) {
        0..=4 => {
            let op = *pick(rng, &["=", "!=", "<>", "<", "<=", ">", ">="]);
            // Operators written tight as often as spaced.
            if rng.random_bool(0.3) {
                format!("{col}{op}{}", value(rng))
            } else {
                format!("{col} {op}{g}{}", value(rng))
            }
        }
        5 | 6 => {
            let pat = *pick(
                rng,
                &[
                    "'ab%'", "'%ab'", "'_b%'", "'a_%'", "'%'", "''", "'''%'", "'é%'", "'_'",
                ],
            );
            let not = if rng.random_bool(0.25) { "NOT " } else { "" };
            let kw = *pick(rng, &["LIKE", "like", "Like"]);
            format!("{col} {not}{kw}{g}{pat}")
        }
        7 => {
            let not = if rng.random_bool(0.5) { "NOT " } else { "" };
            format!("{col} IS {not}NULL")
        }
        8 => {
            let n = rng.random_range(1usize..4);
            let vals: Vec<String> = (0..n).map(|_| value(rng)).collect();
            format!("{col} IN ({})", vals.join(","))
        }
        9 => format!("{col} BETWEEN {} AND {}", number(rng), number(rng)),
        // A qualified join column.
        10 => format!("account.acct_id = visit.{}", column(rng)),
        _ => format!("{col} = {}", value(rng)),
    }
}

fn predicate(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.random_bool(0.4) {
        return atom(rng);
    }
    let n = rng.random_range(2usize..4);
    let parts: Vec<String> = (0..n).map(|_| predicate(rng, depth - 1)).collect();
    match rng.random_range(0u32..3) {
        0 => parts.join(" AND "),
        1 => format!("({})", parts.join(" or ")),
        _ => format!("NOT ({})", parts.join(" AND ")),
    }
}

fn select(rng: &mut StdRng) -> String {
    let kw = *pick(rng, &["SELECT", "select", "SeLeCt"]);
    let grouped = rng.random_bool(0.3);
    let projection = if grouped {
        format!("{}, COUNT(*)", column(rng))
    } else {
        match rng.random_range(0u32..4) {
            0 => "*".to_string(),
            1 => format!("{}, {}", column(rng), column(rng)),
            2 => format!("DISTINCT {}", column(rng)),
            _ => "\"\", a".to_string(),
        }
    };
    let from = match rng.random_range(0u32..4) {
        0 => "account JOIN visit ON account.acct_id = visit.acct_id".to_string(),
        1 => "account a, visit v".to_string(),
        _ => table(rng).to_string(),
    };
    let g = gap(rng);
    let mut sql = format!("{kw} {projection}{g}FROM {from}");
    if rng.random_bool(0.9) {
        sql += &format!(" WHERE{}{}", gap(rng), predicate(rng, 2));
    }
    if grouped {
        sql += &format!(" GROUP BY {}", column(rng));
        if rng.random_bool(0.6) {
            sql += &format!(" HAVING COUNT(*) > {}", rng.random_range(0u32..20));
        }
    }
    if rng.random_bool(0.4) {
        let dir = *pick(rng, &["", " ASC", " DESC", " desc"]);
        sql += &format!(" ORDER BY {}{dir}", column(rng));
    }
    if rng.random_bool(0.35) {
        sql += &format!(" LIMIT {}", rng.random_range(1u32..100));
    }
    sql
}

fn write(rng: &mut StdRng) -> String {
    let t = table(rng);
    match rng.random_range(0u32..3) {
        0 => {
            let rows: Vec<String> = (0..rng.random_range(1usize..3))
                .map(|_| format!("({}, {})", value(rng), value(rng)))
                .collect();
            format!("INSERT INTO {t} (a, \"B\") VALUES {}", rows.join(", "))
        }
        1 => format!(
            "UPDATE {t} SET {} = {} - {} WHERE {}",
            column(rng),
            column(rng),
            value(rng),
            predicate(rng, 1)
        ),
        _ => format!("delete from {t} where {}", predicate(rng, 1)),
    }
}

/// One random edit of `sql`'s bytes: insert, delete, flip or truncate, or
/// splice in a quote, a comment opener, a `!`, a non-ASCII character, an
/// escaped quote, a wildcard, a blank or a digit. Edits that break UTF-8
/// are repaired lossily.
fn mutate(rng: &mut StdRng, sql: &str) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    let at = rng.random_range(0..=bytes.len());
    let splice: &[u8] = match rng.random_range(0u32..16) {
        0 => {
            bytes.insert(at, rng.random_range(0u8..=255));
            &[]
        }
        1 if at < bytes.len() => {
            bytes.remove(at);
            &[]
        }
        2 if at < bytes.len() => {
            bytes[at] ^= 1 << rng.random_range(0u32..8);
            &[]
        }
        3 => {
            bytes.truncate(at);
            &[]
        }
        4 => b"'",
        5 => b"\"",
        6 => b"/*",
        7 => b"--",
        8 => b"!",
        9 => "ß".as_bytes(),
        10 => "€".as_bytes(),
        11 => b"''",
        12 => b"%",
        13 => b"_",
        14 => b" ",
        _ => b"9",
    };
    bytes.splice(at..at, splice.iter().copied());
    String::from_utf8_lossy(&bytes).into_owned()
}

fn corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x00f1_9e26);
    let mut out = Vec::with_capacity(STATEMENTS * (1 + MUTANTS));
    for _ in 0..STATEMENTS {
        let mut sql = if rng.random_bool(0.75) {
            select(&mut rng)
        } else {
            write(&mut rng)
        };
        match rng.random_range(0u32..10) {
            0 => sql.push(';'),
            1 => sql.push_str(" -- done"),
            _ => {}
        }
        out.push(sql);
    }
    for i in 0..STATEMENTS {
        for _ in 0..MUTANTS {
            let mut sql = mutate(&mut rng, &out[i]);
            if rng.random_bool(0.3) {
                sql = mutate(&mut rng, &sql);
            }
            out.push(sql);
        }
    }
    out
}

fn digest(corpus: &[String]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut lits = LiteralBuf::new();
    for sql in corpus {
        let scanned = scan_fingerprint(sql, &mut lits);
        let rendered = match fingerprint(sql) {
            Ok(fp) => format!("{}#{:016x}", fp.text, fp.hash),
            Err(SqlError::Lex { offset, .. }) => format!("lex@{offset}"),
            Err(e) => panic!("fingerprint of {sql:?} failed outside the lexer: {e}"),
        };
        h = fnv1a_from(
            h,
            format!("{scanned:?}|{:?}|{rendered}\n", lits.values).as_bytes(),
        );
    }
    h
}

#[test]
fn fingerprints_of_the_fixed_corpus_match_the_recorded_digest() {
    let corpus = corpus();
    let clean = &corpus[..STATEMENTS];
    assert!(clean.len() >= 2_000);
    // The corpus exercises what it claims to.
    for needle in [
        "LIKE '%",
        "LIKE '_",
        "LIKE 'a",
        "''",
        "é",
        "日本",
        "\"\"",
        "\"Order\"",
        "?",
        "$",
        "--",
        "/*",
        "!=",
        "e+",
        "E-",
        "99999999999999999999",
        "account.acct_id = visit.",
        "GROUP BY",
        "HAVING COUNT(*) > ",
        " DESC",
        "LIMIT ",
        "INSERT INTO",
        "UPDATE ",
        "delete from",
    ] {
        let n = clean.iter().filter(|s| s.contains(needle)).count();
        assert!(n >= 10, "only {n} statements contain {needle:?}");
    }
    // Every clean statement scans; thousands of mutated copies land on each
    // side of the lexer's accept / reject line.
    let mut lits = LiteralBuf::new();
    let mut scans = |sqls: &[String]| {
        sqls.iter()
            .filter(|s| scan_fingerprint(s, &mut lits).is_some())
            .count()
    };
    assert_eq!(scans(clean), STATEMENTS);
    let accepted = scans(&corpus[STATEMENTS..]);
    let rejected = STATEMENTS * MUTANTS - accepted;
    assert!(
        accepted >= 2_000 && rejected >= 2_000,
        "{accepted} mutated copies accepted, {rejected} rejected"
    );
    let got = digest(&corpus);
    assert_eq!(
        got, GOLDEN,
        "fingerprint digest moved: got {got:#018x}, recorded {GOLDEN:#018x}"
    );
}
