//! Property-based tests for the SQL front-end (autoindex-support harness).
//!
//! * DNF conversion preserves boolean semantics on random predicate trees.
//! * `Display` → `parse` round-trips on randomly generated statements.
//! * Fingerprinting is idempotent and literal-invariant.
//! * The tokenizer, the fingerprint scanner and the parser agree on
//!   generated statements and on byte-mutated copies of them.

use autoindex_sql::lexer::unescape;
use autoindex_sql::predicate::{collect_atoms, evaluate, evaluate_dnf, to_dnf_capped};
use autoindex_sql::{
    fingerprint, parse_statement, scan_fingerprint, CmpOp, ColumnRef, DeleteStatement,
    InsertStatement, Join, JoinKind, Lexer, LiteralBuf, OrderItem, Predicate, SelectItem,
    SelectStatement, SetClause, SqlError, Statement, TableRef, TokenKind, UpdateStatement, Value,
};
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::rng::StdRng;
use autoindex_support::{prop_assert, prop_assert_eq};

const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];

fn gen_column(rng: &mut StdRng) -> ColumnRef {
    ColumnRef::bare(*rng.choose(&COLUMNS).unwrap())
}

fn gen_value(rng: &mut StdRng) -> Value {
    Value::Int(rng.random_range(0i64..5))
}

fn gen_op(rng: &mut StdRng) -> CmpOp {
    *rng.choose(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
    .unwrap()
}

fn gen_atom(rng: &mut StdRng) -> Predicate {
    match rng.random_range(0u32..3) {
        0 => Predicate::Cmp {
            column: gen_column(rng),
            op: gen_op(rng),
            value: gen_value(rng),
        },
        1 => {
            let n = rng.random_range(1usize..3);
            Predicate::InList {
                column: gen_column(rng),
                values: (0..n).map(|_| gen_value(rng)).collect(),
                negated: rng.random_bool(0.5),
            }
        }
        _ => Predicate::Between {
            column: gen_column(rng),
            low: Value::Int(rng.random_range(0i64..3)),
            high: Value::Int(rng.random_range(2i64..5)),
            negated: rng.random_bool(0.5),
        },
    }
}

/// Random predicate tree; `depth` bounds nesting (0 = atom), matching the
/// previous suite's recursion depth of 4.
fn gen_predicate(rng: &mut StdRng, depth: usize) -> Predicate {
    if depth == 0 || rng.random_bool(0.3) {
        return gen_atom(rng);
    }
    match rng.random_range(0u32..3) {
        0 => {
            let n = rng.random_range(2usize..4);
            Predicate::And((0..n).map(|_| gen_predicate(rng, depth - 1)).collect())
        }
        1 => {
            let n = rng.random_range(2usize..4);
            Predicate::Or((0..n).map(|_| gen_predicate(rng, depth - 1)).collect())
        }
        _ => Predicate::Not(Box::new(gen_predicate(rng, depth - 1))),
    }
}

/// Size hint → tree depth in 0..=4.
fn depth_for(size: usize) -> usize {
    (size / 25).min(4)
}

/// A richer literal mix (int / float / string / placeholder) for
/// statement-level tests. Kept render-safe: every value round-trips through
/// `Display` → lexer.
fn gen_value_rich(rng: &mut StdRng) -> Value {
    match rng.random_range(0u32..5) {
        0 | 1 => Value::Int(rng.random_range(-100i64..1000)),
        // Halves avoid integral floats, which render as "2" and re-lex as Int.
        2 => Value::Float(rng.random_range(0i64..100) as f64 + 0.5),
        3 => Value::Placeholder,
        _ => Value::Str(match rng.random_range(0u32..3) {
            0 => "x".to_string(),
            1 => "o'neil".to_string(), // exercises '' escaping
            _ => "pat%tern".to_string(),
        }),
    }
}

/// A statement's `WHERE` tree: [`gen_predicate`]'s, often ANDed with an
/// atom the fingerprint treats specially — a `LIKE` pattern in either
/// anchoring (a leading `_` is suffix-anchored), `IS [NOT] NULL`, or a
/// comparison with a placeholder.
fn gen_where(rng: &mut StdRng, size: usize) -> Predicate {
    let tree = gen_predicate(rng, depth_for(size));
    if rng.random_bool(0.4) {
        return tree;
    }
    let column = gen_column(rng);
    let atom = match rng.random_range(0u32..4) {
        0 | 1 => Predicate::Like {
            column,
            pattern: rng
                .choose(&["ab%", "%ab", "_b%", "o'k%", "%"])
                .unwrap()
                .to_string(),
            negated: rng.random_bool(0.25),
        },
        2 => Predicate::IsNull {
            column,
            negated: rng.random_bool(0.5),
        },
        _ => Predicate::Cmp {
            column,
            op: gen_op(rng),
            value: Value::Placeholder,
        },
    };
    Predicate::And(vec![tree, atom])
}

/// Random full statement (all four kinds), built to be render-safe: the
/// `Display` output re-parses, which is what lets the scanner
/// property test compare against the allocating parser.
fn gen_statement(rng: &mut StdRng, size: usize) -> Statement {
    let table = *rng.choose(&["t", "account", "visit"]).unwrap();
    match rng.random_range(0u32..6) {
        // SELECT dominates the mix, as it does in the workloads.
        0..=2 => {
            let projection = if rng.random_bool(0.5) {
                vec![SelectItem::Star]
            } else {
                vec![
                    SelectItem::Column(gen_column(rng)),
                    SelectItem::Aggregate {
                        func: "COUNT".to_string(),
                        arg: None,
                    },
                ]
            };
            let group_by = if projection.len() > 1 {
                vec![gen_column(rng)]
            } else {
                vec![]
            };
            let having =
                (!group_by.is_empty() && rng.random_bool(0.5)).then(|| Predicate::AggCmp {
                    func: "COUNT".to_string(),
                    arg: None,
                    op: gen_op(rng),
                    value: Value::Int(rng.random_range(0i64..20)),
                });
            let alias = rng.random_bool(0.3).then(|| "s".to_string());
            let binding = alias.clone().unwrap_or_else(|| table.to_string());
            // A join on qualified columns.
            let joins = rng
                .random_bool(0.3)
                .then(|| Join {
                    kind: *rng.choose(&[JoinKind::Inner, JoinKind::Left]).unwrap(),
                    relation: TableRef::Table {
                        name: "visit".to_string(),
                        alias: Some("v".to_string()),
                    },
                    on: Some(Predicate::JoinEq {
                        left: ColumnRef::qualified(binding, gen_column(rng).column),
                        right: ColumnRef::qualified("v", gen_column(rng).column),
                    }),
                })
                .into_iter()
                .collect();
            Statement::Select(SelectStatement {
                distinct: rng.random_bool(0.2) && projection[0] != SelectItem::Star,
                projection,
                from: vec![TableRef::Table {
                    name: table.to_string(),
                    alias,
                }],
                joins,
                where_clause: rng.random_bool(0.9).then(|| gen_where(rng, size)),
                group_by,
                having,
                order_by: rng
                    .random_bool(0.4)
                    .then(|| OrderItem {
                        column: gen_column(rng),
                        descending: rng.random_bool(0.5),
                    })
                    .into_iter()
                    .collect(),
                limit: rng
                    .random_bool(0.4)
                    .then(|| rng.random_range(1i64..50) as u64),
                for_update: rng.random_bool(0.1),
            })
        }
        3 => {
            let cols: Vec<String> = COLUMNS
                .iter()
                .take(rng.random_range(1usize..4))
                .map(|c| c.to_string())
                .collect();
            let rows = (0..rng.random_range(1usize..3))
                .map(|_| cols.iter().map(|_| gen_value_rich(rng)).collect())
                .collect();
            Statement::Insert(InsertStatement {
                table: table.to_string(),
                columns: cols,
                rows,
            })
        }
        4 => Statement::Update(UpdateStatement {
            table: table.to_string(),
            sets: vec![SetClause {
                column: COLUMNS[rng.random_range(0usize..4)].to_string(),
                value: gen_value_rich(rng),
            }],
            where_clause: rng.random_bool(0.8).then(|| gen_where(rng, size)),
        }),
        _ => Statement::Delete(DeleteStatement {
            table: table.to_string(),
            where_clause: rng.random_bool(0.8).then(|| gen_where(rng, size)),
        }),
    }
}

/// Tokenise `sql` to its end; the literal tokens as the values the parser
/// would take them for, in source order.
fn token_literals(sql: &str) -> Result<Vec<Value>, SqlError> {
    let mut lexer = Lexer::new(sql);
    let mut literals = Vec::new();
    loop {
        match lexer.next_token()?.kind {
            TokenKind::Eof => return Ok(literals),
            TokenKind::Int(v) => literals.push(Value::Int(v)),
            TokenKind::Float(v) => literals.push(Value::Float(v)),
            TokenKind::Str(raw) => literals.push(Value::Str(unescape(raw))),
            TokenKind::Placeholder => literals.push(Value::Placeholder),
            TokenKind::Ident(_) | TokenKind::Keyword(_) | TokenKind::Punct(_) => {}
        }
    }
}

/// DNF must agree with direct evaluation on every assignment of small
/// integers to the four columns (two-valued rows, no NULLs).
#[test]
fn dnf_preserves_semantics() {
    property(
        "dnf_preserves_semantics",
        PropConfig::default(),
        |rng, size| {
            let p = gen_predicate(rng, depth_for(size));
            let row: Vec<i64> = (0..4).map(|_| rng.random_range(0i64..5)).collect();
            let Ok(dnf) = to_dnf_capped(&p, 4096) else {
                // Cap exceeded is an accepted outcome; callers fall back.
                return Ok(());
            };
            let lookup = |c: &ColumnRef| -> Option<Value> {
                COLUMNS
                    .iter()
                    .position(|n| *n == c.column)
                    .map(|i| Value::Int(row[i]))
            };
            let oracle = |_: &str| false;
            prop_assert_eq!(
                evaluate(&p, &lookup, &oracle),
                evaluate_dnf(&dnf, &lookup, &oracle),
                "predicate: {p}"
            );
            Ok(())
        },
    );
}

/// Every atom collected from a tree keeps a resolvable column.
#[test]
fn collected_atoms_have_columns() {
    property(
        "collected_atoms_have_columns",
        PropConfig::default(),
        |rng, size| {
            let p = gen_predicate(rng, depth_for(size));
            for atom in collect_atoms(&p) {
                prop_assert!(atom.restricted_column().is_some() || atom.join_edge().is_some());
            }
            Ok(())
        },
    );
}

/// Rendering a SELECT built around a random predicate and re-parsing it
/// yields the same AST.
#[test]
fn select_display_roundtrips() {
    property(
        "select_display_roundtrips",
        PropConfig::default(),
        |rng, size| {
            let p = gen_predicate(rng, depth_for(size));
            let stmt = Statement::Select(SelectStatement {
                distinct: false,
                projection: vec![SelectItem::Star],
                from: vec![TableRef::Table {
                    name: "t".into(),
                    alias: None,
                }],
                joins: vec![],
                where_clause: Some(p),
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
                for_update: false,
            });
            let rendered = stmt.to_string();
            let reparsed = parse_statement(&rendered);
            prop_assert!(reparsed.is_ok(), "failed to reparse {}", rendered);
            prop_assert_eq!(reparsed.unwrap(), stmt);
            Ok(())
        },
    );
}

/// Fingerprinting is idempotent: fp(fp(q).text) == fp(q).
#[test]
fn fingerprint_idempotent() {
    property(
        "fingerprint_idempotent",
        PropConfig::default(),
        |rng, size| {
            let p = gen_predicate(rng, depth_for(size));
            let sql = format!("SELECT * FROM t WHERE {p}");
            let f1 = fingerprint(&sql).unwrap();
            let f2 = fingerprint(&f1.text).unwrap();
            prop_assert_eq!(f1, f2);
            Ok(())
        },
    );
}

/// Fingerprints are invariant under changing every literal.
#[test]
fn fingerprint_literal_invariant() {
    property(
        "fingerprint_literal_invariant",
        PropConfig::default(),
        |rng, _size| {
            let col = *rng.choose(&COLUMNS).unwrap();
            let v1 = rng.random_range(0i64..1000);
            let v2 = rng.random_range(0i64..1000);
            let f1 = fingerprint(&format!("SELECT * FROM t WHERE {col} = {v1}")).unwrap();
            let f2 = fingerprint(&format!("SELECT * FROM t WHERE {col} = {v2}")).unwrap();
            prop_assert_eq!(f1, f2);
            Ok(())
        },
    );
}

/// The zero-allocation scanner agrees with the token-based fingerprint on
/// random statements: same hash, and one collected literal per literal
/// token the lexer sees.
#[test]
fn scan_fingerprint_matches_token_fingerprint() {
    property(
        "scan_fingerprint_matches_token_fingerprint",
        PropConfig::default(),
        |rng, size| {
            let sql = gen_statement(rng, size).to_string();
            let fp = fingerprint(&sql);
            prop_assert!(fp.is_ok(), "fingerprint failed on {sql}");
            let fp = fp.unwrap();
            let mut lits = LiteralBuf::new();
            let scanned = scan_fingerprint(&sql, &mut lits);
            prop_assert_eq!(scanned, Some(fp.hash), "hash mismatch on {}", sql);
            let token_literals = token_literals(&sql).map(|lits| lits.len());
            prop_assert!(token_literals.is_ok(), "tokenizer failed on {sql}");
            let token_literals = token_literals.unwrap();
            prop_assert_eq!(
                lits.values.len(),
                token_literals,
                "literal count on {}",
                sql
            );
            Ok(())
        },
    );
}

/// The statement generator reaches every token the fingerprint walk treats
/// specially, at a property run's case count.
#[test]
fn generated_statements_reach_every_special_case() {
    let mut rng = StdRng::seed_from_u64(7);
    let statements: Vec<String> = (0..256)
        .map(|i| gen_statement(&mut rng, i * 100 / 256).to_string())
        .collect();
    for needle in [
        "LIKE '%",
        "LIKE '_",
        "LIKE 'a",
        "''",
        "IS NULL",
        "IS NOT NULL",
        "$",
        " JOIN visit AS v ON ",
        "HAVING COUNT(*) ",
        "GROUP BY",
        " DESC",
        "LIMIT ",
        ".",
    ] {
        let n = statements.iter().filter(|s| s.contains(needle)).count();
        assert!(n >= 3, "only {n} generated statements contain {needle:?}");
    }
}

/// The DNF conjunct count never exceeds the cap when Ok.
#[test]
fn dnf_respects_cap() {
    property("dnf_respects_cap", PropConfig::default(), |rng, size| {
        let p = gen_predicate(rng, depth_for(size));
        let cap = rng.random_range(1usize..64);
        if let Ok(dnf) = to_dnf_capped(&p, cap) {
            prop_assert!(dnf.conjuncts.len() <= cap);
        }
        Ok(())
    });
}

/// One random edit of `sql`'s bytes: insert, delete or flip a byte,
/// truncate, or splice in a quote, a comment opener or a multi-byte
/// character. Edits that break UTF-8 are repaired lossily, which itself
/// splices a three-byte replacement character in.
fn mutate(rng: &mut StdRng, sql: &str) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    let at = rng.random_range(0..=bytes.len());
    let splice: &[u8] = match rng.random_range(0u32..10) {
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
        8 => "é".as_bytes(),
        _ => "'日本''語'".as_bytes(),
    };
    bytes.splice(at..at, splice.iter().copied());
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The tokenizer has an adversary. On generated statements and mutated
/// copies of them it never panics (slicing the source off a character
/// boundary would), the scanner accepts exactly what it accepts, and
/// where both do they agree on the hash and on every literal, value for
/// value; the parser reports a lexical error as the tokenizer does.
#[test]
fn tokenizer_scanner_and_parser_agree_on_mutated_statements() {
    property(
        "tokenizer_scanner_and_parser_agree_on_mutated_statements",
        PropConfig::default(),
        |rng, size| {
            let clean = gen_statement(rng, size).to_string();
            let mut lits = LiteralBuf::new();
            let mut cases = vec![clean.clone()];
            for _ in 0..6 {
                let mut sql = mutate(rng, &clean);
                if rng.random_bool(0.3) {
                    sql = mutate(rng, &sql);
                }
                cases.push(sql);
            }
            for sql in &cases {
                let tokens = token_literals(sql);
                let scanned = scan_fingerprint(sql, &mut lits);
                let parsed = parse_statement(sql);
                prop_assert_eq!(
                    scanned.is_some(),
                    tokens.is_ok(),
                    "scanner and tokenizer disagree on {:?}",
                    sql
                );
                match tokens {
                    Ok(literals) => {
                        let fp = fingerprint(sql);
                        prop_assert!(fp.is_ok(), "fingerprint failed on {sql:?}");
                        prop_assert_eq!(scanned, Some(fp.unwrap().hash), "hash of {:?}", sql);
                        prop_assert_eq!(&lits.values, &literals, "literals of {:?}", sql);
                        prop_assert!(
                            !matches!(parsed, Err(SqlError::Lex { .. })),
                            "parser met a lexical error in {sql:?}"
                        );
                    }
                    Err(e) => {
                        prop_assert_eq!(fingerprint(sql), Err(e.clone()), "on {:?}", sql);
                        prop_assert_eq!(parsed, Err(e), "on {:?}", sql);
                    }
                }
            }
            prop_assert!(parse_statement(&clean).is_ok(), "clean {clean:?}");
            Ok(())
        },
    );
}

/// Error text is part of the interface (`online`'s `FeedOutcome::error`
/// carries it): these are the strings the owned-token parser printed,
/// offsets included. A lexical error anywhere outranks a parse error
/// before it; tokens print as what they mean (identifier lower-cased,
/// string unescaped), not as they were written.
#[test]
fn errors_read_as_they_did_with_owned_tokens() {
    for (sql, want) in [
        (
            "SELEKT * FROM t",
            "parse error: expected a statement keyword, found Ident(\"selekt\") (at byte 0)",
        ),
        (
            "SELECT FROM",
            "parse error: expected identifier, found Keyword(\"FROM\") (at byte 7)",
        ),
        (
            "SELECT a FROM t WHERE",
            "parse error: expected identifier, found Eof (at byte 21)",
        ),
        (
            "SELECT a FROM t extra garbage ~",
            "lexical error at byte 30: unexpected character '~'",
        ),
        (
            "SELECT a FROM t; SELECT b FROM u",
            "parse error: trailing input: Keyword(\"SELECT\") (at byte 17)",
        ),
        (
            "SELECT a FROM t LIMIT x",
            "parse error: expected LIMIT count, found Ident(\"x\") (at byte 23)",
        ),
        (
            "SELECT a FROM t LIMIT",
            "parse error: expected LIMIT count, found Eof (at byte 21)",
        ),
        (
            "SELECT a FROM t LIMIT -3",
            "parse error: expected LIMIT count, found Punct(\"-\") (at byte 23)",
        ),
        (
            "SELECT * FROM t WHERE a NOT = 1",
            "parse error: expected IN/BETWEEN/LIKE after NOT (at byte 28)",
        ),
        (
            "SELECT * FROM t WHERE a = 'oops",
            "lexical error at byte 26: unterminated string literal",
        ),
        (
            "SELECT a, /* nope",
            "lexical error at byte 10: unterminated block comment",
        ),
        (
            "SELECT a ! b FROM t",
            "lexical error at byte 9: unexpected '!'",
        ),
        (
            "SELECT \"Unterminated FROM t",
            "lexical error at byte 7: unterminated quoted identifier",
        ),
        (
            "INSERT INTO t VALUES (1, 2",
            "parse error: expected \")\", found Eof (at byte 26)",
        ),
        (
            "INSERT t VALUES (1)",
            "parse error: expected keyword INTO, found Ident(\"t\") (at byte 7)",
        ),
        (
            "UPDATE t SET a 1",
            "parse error: expected \"=\", found Int(1) (at byte 15)",
        ),
        (
            "DELETE t WHERE a = 1",
            "parse error: expected keyword FROM, found Ident(\"t\") (at byte 7)",
        ),
        (
            "SELECT * FROM t WHERE a IN ()",
            "parse error: expected a value, found Punct(\")\") (at byte 29)",
        ),
        (
            "SELECT * FROM t WHERE a BETWEEN 1 OR 2",
            "parse error: expected keyword AND, found Keyword(\"OR\") (at byte 34)",
        ),
        (
            "SELECT * FROM t WHERE a LIKE 5",
            "parse error: expected LIKE pattern, found Int(5) (at byte 30)",
        ),
        (
            "SELECT * FROM t WHERE Name = -'x'",
            "parse error: expected a value, found Str(\"x\") (at byte 33)",
        ),
        (
            "SELECT COUNT( FROM t",
            "parse error: expected identifier, found Keyword(\"FROM\") (at byte 14)",
        ),
        (
            "SELECT * FROM WHERE a = 'É'",
            "parse error: expected identifier, found Keyword(\"WHERE\") (at byte 14)",
        ),
        (
            "SELECT * FROM t WHERE É = 1",
            "lexical error at byte 22: unexpected character 'É'",
        ),
        (
            "SELECT a FROM t WHERE b = é",
            "lexical error at byte 26: unexpected character 'é'",
        ),
        (
            "SELECT a FROM t WHERE b = 1 € 2",
            "lexical error at byte 28: unexpected character '€'",
        ),
        (
            "SELECT Foo.Bar FROM T WHERE x = 1 GROUP Foo",
            "parse error: expected keyword BY, found Ident(\"foo\") (at byte 40)",
        ),
        (
            "SELECT * FROM t WHERE s = 'a''b' 'it''s'",
            "parse error: trailing input: Str(\"it's\") (at byte 33)",
        ),
        (
            "SELECT a FROM t WHERE a = 1e",
            "parse error: trailing input: Ident(\"e\") (at byte 27)",
        ),
        (
            "SELECT a FROM t WHERE a = 2.5 \"Quoted\"",
            "parse error: trailing input: Ident(\"quoted\") (at byte 30)",
        ),
        (
            "SELECT a FROM t WHERE a = $1 ?",
            "parse error: trailing input: Placeholder (at byte 29)",
        ),
        (
            "SELECT a FROM WHERE 'oops",
            "lexical error at byte 20: unterminated string literal",
        ),
        (
            "",
            "parse error: expected a statement keyword, found Eof (at byte 0)",
        ),
    ] {
        let got = parse_statement(sql).unwrap_err().to_string();
        assert_eq!(got, want, "for {sql:?}");
    }
}
