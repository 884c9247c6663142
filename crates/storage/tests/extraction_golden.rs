//! Golden oracle for [`QueryShape::extract`] / [`QueryShape::extract_traced`].
//!
//! A fixed-seed corpus of generated statements — joins, aliases, derived
//! tables, `EXISTS` / `IN (SELECT …)`, `OR` / `NOT` trees, `IN` lists,
//! `LIKE`, `HAVING`, writes — plus the statement forms of the wall-clock
//! benchmark's `parse_adhoc` and `wide_serve` workloads is parsed and
//! extracted, traced and untraced, and the `Debug` rendering of every shape
//! and trace is folded into two FNV-1a digests: [`SHAPES`], of the shapes
//! alone, and [`GOLDEN`], of the shapes with their traces. A rewrite of
//! extraction or of the tokenizer must leave both where they are (vector
//! orders, dedup rules and `filter_sel` bits included — floats
//! `Debug`-print their shortest round-trip form); a change to what a trace
//! records moves `GOLDEN` only.
//!
//! Every generated column is either qualified or names a column exactly one
//! visible table has, so the digest does not depend on how an *ambiguous*
//! unqualified column is attributed.

use autoindex_sql::parse_statement;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::shape::QueryShape;
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::rng::StdRng;

/// [`corpus`]'s traced shapes alone, recorded while extraction, its
/// selectivity traces and the template fast path still folded `filter_sel`
/// through three evaluators (and, as part of the combined digest, before
/// the by-reference rewrite of `shape.rs` and the borrowing tokenizer).
const SHAPES: u64 = 0x6a13_5579_8f27_27de;
/// [`corpus`]'s shapes with their traces, re-recorded when a trace became
/// its factors' predicates and resolved atoms instead of factor trees.
const GOLDEN: u64 = 0xb0a2_d856_c4c8_70ac;
const GENERATED: usize = 2_400;

/// `(table, rows, int columns with ndv, float column, text column)`.
type TableSpec = (
    &'static str,
    u64,
    [(&'static str, u64); 3],
    &'static str,
    &'static str,
);

const SCHEMA: [TableSpec; 5] = [
    (
        "orders",
        800_000,
        [("o_id", 800_000), ("o_cust", 50_000), ("o_status", 6)],
        "o_total",
        "o_note",
    ),
    (
        "customer",
        50_000,
        [("c_id", 50_000), ("c_region", 40), ("c_tier", 4)],
        "c_score",
        "c_name",
    ),
    (
        "item",
        2_000_000,
        [("i_id", 2_000_000), ("i_order", 800_000), ("i_qty", 100)],
        "i_price",
        "i_sku",
    ),
    (
        "branch",
        300,
        [("b_id", 300), ("b_zone", 12), ("b_kind", 3)],
        "b_area",
        "b_city",
    ),
    (
        "audit",
        5_000_000,
        [("a_id", 5_000_000), ("a_ref", 800_000), ("a_kind", 9)],
        "a_cost",
        "a_msg",
    ),
];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, rows, ints, float, text) in SCHEMA {
        let mut b = TableBuilder::new(name, rows);
        for (col, ndv) in ints {
            b = b.column(Column::int(col, ndv));
        }
        b = b
            .column(Column::float(float, 1_000, 0.0, 500.0))
            .column(Column::text(text, rows / 3 + 1, 20))
            .primary_key(&[ints[0].0]);
        c.add_table(b.build().unwrap());
    }
    c
}

/// One bound table: `(binding name, index into SCHEMA)`.
type Scope = Vec<(String, usize)>;

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    rng.choose(xs).expect("non-empty")
}

/// A column of a table in `scope`, qualified by its binding or — the name
/// being unique to its table — bare. `kind`: 0 int, 1 float, 2 text.
fn column(rng: &mut StdRng, scope: &Scope, kind: u32) -> String {
    let (binding, t) = pick(rng, scope);
    let (_, _, ints, float, text) = SCHEMA[*t];
    let name = match kind {
        0 => pick(rng, &ints).0,
        1 => float,
        _ => text,
    };
    if rng.random_bool(0.55) {
        format!("{binding}.{name}")
    } else {
        name.to_string()
    }
}

fn int_lit(rng: &mut StdRng) -> String {
    // A small domain, so equal atoms recur inside one predicate.
    rng.random_range(0i64..6).to_string()
}

fn atom(rng: &mut StdRng, scope: &Scope, outer: &Scope, depth: usize) -> String {
    match rng.random_range(0u32..16) {
        0..=3 => {
            let op = *pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
            format!("{} {op} {}", column(rng, scope, 0), int_lit(rng))
        }
        4 => format!(
            "{} > {}.5",
            column(rng, scope, 1),
            rng.random_range(0i64..400)
        ),
        5 => {
            let n = rng.random_range(1usize..4);
            let vals: Vec<String> = (0..n).map(|_| int_lit(rng)).collect();
            let not = if rng.random_bool(0.25) { "NOT " } else { "" };
            format!("{} {not}IN ({})", column(rng, scope, 0), vals.join(", "))
        }
        6 => {
            let not = if rng.random_bool(0.25) { "NOT " } else { "" };
            format!(
                "{} {not}BETWEEN {} AND {}",
                column(rng, scope, 0),
                rng.random_range(0i64..3),
                rng.random_range(3i64..9)
            )
        }
        7 => {
            let pat = *pick(rng, &["ab%", "%ab", "_x%", "o''k%", "plain"]);
            let not = if rng.random_bool(0.2) { "NOT " } else { "" };
            format!("{} {not}LIKE '{pat}'", column(rng, scope, 2))
        }
        8 => {
            let not = if rng.random_bool(0.5) { "NOT " } else { "" };
            format!("{} IS {not}NULL", column(rng, scope, 0))
        }
        9 => format!(
            "{} = '{}'",
            column(rng, scope, 2),
            pick(rng, &["x", "it''s", "riverside"])
        ),
        // Column-to-column: a join edge across tables, a self-compare
        // within one, or a non-equi range hint.
        10 | 11 => {
            let op = *pick(rng, &["=", "=", "=", "<"]);
            format!("{} {op} {}", column(rng, scope, 0), column(rng, scope, 0))
        }
        // A correlated reference to the enclosing query, when there is one.
        12 if !outer.is_empty() => {
            let (binding, t) = pick(rng, outer);
            let name = pick(rng, &SCHEMA[*t].2).0;
            format!("{} = {binding}.{name}", column(rng, scope, 0))
        }
        13 if depth > 0 => {
            let not = if rng.random_bool(0.2) { "NOT " } else { "" };
            let sub = subquery(rng, scope, depth - 1);
            format!("{} {not}IN ({sub})", column(rng, scope, 0))
        }
        14 if depth > 0 => {
            format!("EXISTS ({})", subquery(rng, scope, depth - 1))
        }
        // A column the catalog does not know.
        15 if rng.random_bool(0.3) => format!("{}.zz = {}", pick(rng, scope).0, int_lit(rng)),
        _ => format!("{} = ?", column(rng, scope, 0)),
    }
}

fn predicate(rng: &mut StdRng, scope: &Scope, outer: &Scope, depth: usize) -> String {
    if depth == 0 || rng.random_bool(0.35) {
        return atom(rng, scope, outer, depth);
    }
    let n = rng.random_range(2usize..4);
    let part = |rng: &mut StdRng| predicate(rng, scope, outer, depth - 1);
    match rng.random_range(0u32..5) {
        0 | 1 => {
            let parts: Vec<String> = (0..n).map(|_| part(rng)).collect();
            format!("({})", parts.join(" AND "))
        }
        2 | 3 => {
            let parts: Vec<String> = (0..n).map(|_| part(rng)).collect();
            format!("({})", parts.join(" OR "))
        }
        _ => format!("NOT ({})", part(rng)),
    }
}

/// `FROM` clause over one to three tables; returns the text and the scope.
/// `fresh` numbers the aliases, so nested levels never reuse a binding name.
fn from_clause(rng: &mut StdRng, max_tables: usize, fresh: &mut usize) -> (String, Scope) {
    let n = rng.random_range(1..=max_tables);
    let mut scope = Scope::new();
    let mut text = String::new();
    for i in 0..n {
        let t = rng.random_range(0..SCHEMA.len());
        let name = SCHEMA[t].0;
        // A table already bound at this level needs an alias to stay
        // distinguishable; otherwise aliasing is a coin flip.
        let repeated = scope.iter().any(|(_, u)| *u == t);
        let binding = if repeated || rng.random_bool(0.5) {
            *fresh += 1;
            format!("{}{}", &name[..1], *fresh)
        } else {
            name.to_string()
        };
        let rendered = match (binding == name, rng.random_bool(0.5)) {
            (true, _) => name.to_string(),
            (false, true) => format!("{name} AS {binding}"),
            (false, false) => format!("{name} {binding}"),
        };
        if i == 0 {
            text = rendered;
        } else if rng.random_bool(0.5) {
            text = format!("{text}, {rendered}");
        } else {
            let kind = *pick(rng, &["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN"]);
            let mut pair = scope.clone();
            pair.push((binding.clone(), t));
            let l = pick(rng, &scope).clone();
            let on = format!(
                "{}.{} = {binding}.{}",
                l.0,
                pick(rng, &SCHEMA[l.1].2).0,
                pick(rng, &SCHEMA[t].2).0
            );
            let extra = if rng.random_bool(0.3) {
                format!(" AND {}", atom(rng, &pair, &Scope::new(), 0))
            } else {
                String::new()
            };
            text = format!("{text} {kind} {rendered} ON {on}{extra}");
        }
        scope.push((binding, t));
    }
    (text, scope)
}

/// A subquery with a one-column projection, as `IN (…)` needs.
fn subquery(rng: &mut StdRng, outer: &Scope, depth: usize) -> String {
    let mut fresh = 100 * (depth + 1) + rng.random_range(0usize..50);
    let (from, scope) = from_clause(rng, 2, &mut fresh);
    let proj = column(rng, &scope, 0);
    let filter = if rng.random_bool(0.85) {
        format!(" WHERE {}", predicate(rng, &scope, outer, depth.min(2)))
    } else {
        String::new()
    };
    format!("SELECT {proj} FROM {from}{filter}")
}

fn select(rng: &mut StdRng, size: usize) -> String {
    let depth = (size / 25).min(3);
    let mut fresh = 0;
    let (mut from, scope) = from_clause(rng, 3, &mut fresh);
    if rng.random_bool(0.12) {
        from = format!("{from}, ({}) d", subquery(rng, &Scope::new(), 1));
    }
    let grouped = rng.random_bool(0.25);
    let group_col = column(rng, &scope, 0);
    let projection = if grouped {
        let agg = match rng.random_range(0u32..4) {
            0 => "COUNT(*)".to_string(),
            1 => format!("SUM({})", column(rng, &scope, 1)),
            2 => format!("COUNT(DISTINCT {}) AS n", column(rng, &scope, 0)),
            _ => format!("MAX({})", column(rng, &scope, 0)),
        };
        format!("{group_col}, {agg}")
    } else {
        match rng.random_range(0u32..3) {
            0 => "*".to_string(),
            1 => column(rng, &scope, 0),
            _ => format!(
                "{}, {} AS label",
                column(rng, &scope, 0),
                column(rng, &scope, 2)
            ),
        }
    };
    let distinct = if !grouped && projection != "*" && rng.random_bool(0.15) {
        "DISTINCT "
    } else {
        ""
    };
    let mut sql = format!("SELECT {distinct}{projection} FROM {from}");
    if rng.random_bool(0.9) {
        sql += &format!(
            " WHERE {}",
            predicate(rng, &scope, &Scope::new(), depth.max(1))
        );
    }
    if grouped {
        sql += &format!(" GROUP BY {group_col}");
        match rng.random_range(0u32..4) {
            0 => sql += &format!(" HAVING COUNT(*) > {}", int_lit(rng)),
            1 => {
                sql += &format!(
                    " HAVING SUM({}) >= {} AND {group_col} > {}",
                    column(rng, &scope, 1),
                    int_lit(rng),
                    int_lit(rng)
                )
            }
            _ => {}
        }
    }
    if rng.random_bool(0.35) {
        let keys: Vec<String> = (0..rng.random_range(1usize..3))
            .map(|_| {
                let dir = *pick(rng, &["", " ASC", " DESC"]);
                format!("{}{dir}", column(rng, &scope, 0))
            })
            .collect();
        sql += &format!(" ORDER BY {}", keys.join(", "));
    }
    if rng.random_bool(0.3) {
        sql += &format!(" LIMIT {}", rng.random_range(1u32..50));
    }
    if rng.random_bool(0.05) {
        sql += " FOR UPDATE";
    }
    sql
}

fn write(rng: &mut StdRng, size: usize) -> String {
    let t = rng.random_range(0..SCHEMA.len());
    let (name, _, ints, float, text) = SCHEMA[t];
    let scope: Scope = vec![(name.to_string(), t)];
    let depth = (size / 30).min(2);
    match rng.random_range(0u32..3) {
        0 => {
            let rows: Vec<String> = (0..rng.random_range(1usize..4))
                .map(|_| format!("({}, {}.25, 'n')", int_lit(rng), int_lit(rng)))
                .collect();
            format!(
                "INSERT INTO {name} ({}, {float}, {text}) VALUES {}",
                ints[0].0,
                rows.join(", ")
            )
        }
        1 => {
            let set = match rng.random_range(0u32..3) {
                0 => format!("{} = {}", ints[2].0, int_lit(rng)),
                1 => format!("{0} = {0} + 1, {text} = 'u'", ints[1].0),
                _ => format!("{float} = 1.5"),
            };
            format!(
                "UPDATE {name} SET {set} WHERE {}",
                predicate(rng, &scope, &Scope::new(), depth)
            )
        }
        _ if rng.random_bool(0.1) => format!("DELETE FROM {name}"),
        _ => format!(
            "DELETE FROM {name} WHERE {}",
            predicate(rng, &scope, &Scope::new(), depth)
        ),
    }
}

/// The statement forms `perf`'s `parse_adhoc` (4 per table × 8 bindings of
/// key / second column) and `wide_serve` (10 slots) workloads render.
fn benchmark_forms(rng: &mut StdRng) -> Vec<String> {
    let mut out = Vec::new();
    let n = |rng: &mut StdRng| rng.random_range(1u32..900);
    let mut bindings: Vec<(&str, &str, &str, &str)> = Vec::new();
    for (t, _, ints, _, text) in SCHEMA {
        bindings.push((t, ints[0].0, ints[1].0, text));
        bindings.push((t, ints[1].0, ints[2].0, text));
    }
    bindings.truncate(8);
    for (i, &(t, k, s, txt)) in bindings.iter().enumerate() {
        out.push(format!(
            "SELECT * FROM {t} WHERE {k} IN ({}, {}, {})",
            n(rng),
            n(rng),
            n(rng)
        ));
        out.push(format!(
            "SELECT {k}, {s} FROM {t} WHERE {k} = {} OR {s} = {}",
            n(rng),
            n(rng)
        ));
        out.push(format!(
            "SELECT {s}, COUNT(*) FROM {t} WHERE {k} IN ({}, {}) AND {s} > {} GROUP BY {s}",
            n(rng),
            n(rng),
            n(rng)
        ));
        out.push(if i % 2 == 0 {
            format!(
                "SELECT {k} FROM {t} WHERE {txt} LIKE 'qz%' AND {s} = {}",
                n(rng)
            )
        } else {
            format!(
                "SELECT * FROM {t} WHERE ({k} = {} OR {k} = {}) AND {s} = {} ORDER BY {k} LIMIT 20",
                n(rng),
                n(rng),
                n(rng)
            )
        });
    }
    assert_eq!(out.len(), 32);
    let (t, a, b) = ("item", "i_order", "i_qty");
    out.extend([
        format!("INSERT INTO {t} ({a}, {b}) VALUES ({}, {})", n(rng), n(rng)),
        format!("UPDATE {t} SET {b} = {} WHERE {a} = {}", n(rng), n(rng)),
        format!(
            "SELECT * FROM {t} WHERE {a} IN ({}, {}, {})",
            n(rng),
            n(rng),
            n(rng)
        ),
        format!(
            "SELECT {a}, {b} FROM {t} WHERE {a} = {} OR {b} = {}",
            n(rng),
            n(rng)
        ),
        format!("SELECT * FROM {t} WHERE {a} = {}", n(rng)),
        format!("SELECT * FROM {t} WHERE {b} = {}", n(rng)),
        format!(
            "SELECT {a}, {b} FROM {t} WHERE {a} = {} AND {b} > {}",
            n(rng),
            n(rng)
        ),
        format!(
            "SELECT {b}, COUNT(*) FROM {t} WHERE {a} = {} GROUP BY {b}",
            n(rng)
        ),
        format!(
            "SELECT {a}, COUNT(*) FROM {t} WHERE {b} = {} GROUP BY {a}",
            n(rng)
        ),
        format!(
            "SELECT * FROM {t} WHERE {a} = {} ORDER BY {b} LIMIT 10",
            n(rng)
        ),
    ]);
    out
}

fn corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x005e_ed22);
    let mut out = benchmark_forms(&mut rng);
    for i in 0..GENERATED {
        let size = i * 100 / GENERATED;
        out.push(if rng.random_bool(0.8) {
            select(&mut rng, size)
        } else {
            write(&mut rng, size)
        });
    }
    // Tables the catalog does not know: the single-binding fallback.
    out.push("SELECT * FROM mystery WHERE zzz = 1 AND (y < 2 OR zzz = 1)".to_string());
    out.push("UPDATE mystery SET a = 1 WHERE b IN (1, 2) AND NOT (c = 3)".to_string());
    out
}

/// `(shapes, golden)`: the digest of every traced shape alone, and of
/// every shape with its trace.
fn digest(corpus: &[String], catalog: &Catalog) -> (u64, u64) {
    let (mut shapes, mut golden) = (FNV_OFFSET, FNV_OFFSET);
    for sql in corpus {
        let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let plain = QueryShape::extract(&stmt, catalog);
        let (traced, trace) = QueryShape::extract_traced(&stmt, catalog);
        assert_eq!(plain, traced, "traced shape drifted on {sql}");
        shapes = fnv1a_from(shapes, format!("{traced:?}").as_bytes());
        golden = fnv1a_from(golden, format!("{plain:?}{trace:?}").as_bytes());
    }
    (shapes, golden)
}

#[test]
fn extraction_of_the_fixed_corpus_matches_the_recorded_digest() {
    let corpus = corpus();
    assert!(corpus.len() >= 2_000 + 42);
    // The corpus exercises what it claims to.
    for needle in [
        " JOIN ",
        "EXISTS (",
        " IN (SELECT",
        " OR ",
        "NOT (",
        " LIKE '",
        " HAVING ",
        ") d",
        " AS ",
        "INSERT INTO",
        "UPDATE ",
        "DELETE FROM",
        " BETWEEN ",
        "IS NOT NULL",
        ".zz",
    ] {
        let n = corpus.iter().filter(|s| s.contains(needle)).count();
        assert!(n >= 10, "only {n} statements contain {needle:?}");
    }
    let (shapes, golden) = digest(&corpus, &catalog());
    assert_eq!(
        shapes, SHAPES,
        "extracted shapes moved: got {shapes:#018x}, recorded {SHAPES:#018x}"
    );
    assert_eq!(
        golden, GOLDEN,
        "extraction digest moved: got {golden:#018x}, recorded {GOLDEN:#018x}"
    );
}
