//! Boolean predicate normalisation.
//!
//! §IV-A of the paper rewrites filter predicates into *Disjunctive Normal
//! Form* (DNF) before extracting candidate indexes: DNF "provides a unified
//! form and simplifies predicate factorization", so that the two equivalent
//! forms `(a AND b) OR (a AND c)` and `a AND (b OR c)` yield the *same*
//! candidates — one multi-column candidate per conjunct.
//!
//! The pipeline is: negation push-down (NNF) → distribution of AND over OR
//! (DNF) → per-conjunct atomic predicate lists. To bound the worst-case
//! exponential blow-up we cap the number of produced conjuncts; predicates
//! past the cap return [`DnfError::TooLarge`] and the caller falls back to
//! treating each atom independently.

use crate::ast::{CmpOp, ColumnRef, Predicate, Value};

/// An atomic (non-boolean-composite) predicate, the unit of candidate index
/// generation.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicPredicate {
    /// `col op value`.
    Cmp {
        column: ColumnRef,
        op: CmpOp,
        value: Value,
    },
    /// `t1.c = t2.c`.
    JoinEq { left: ColumnRef, right: ColumnRef },
    /// `col IN (...)` — equivalent to a disjunction of equalities but kept
    /// atomic: a single index on `col` serves all arms.
    InList {
        column: ColumnRef,
        values: Vec<Value>,
        negated: bool,
    },
    /// `col BETWEEN low AND high` (negation folded in).
    Between {
        column: ColumnRef,
        low: Value,
        high: Value,
        negated: bool,
    },
    /// `col LIKE pattern`.
    Like {
        column: ColumnRef,
        pattern: String,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { column: ColumnRef, negated: bool },
    /// `[NOT] EXISTS (...)` / `col [NOT] IN (subquery)` — opaque to DNF; the
    /// subquery is analysed separately by the candidate generator.
    Opaque {
        /// Column restricted by the atom at this query level, if any.
        column: Option<ColumnRef>,
        /// Canonical text, for display/debugging.
        text: String,
    },
}

impl AtomicPredicate {
    /// The column this atom restricts at the current query level, if any.
    /// Join atoms restrict both sides and return `None` here; callers use
    /// [`AtomicPredicate::join_edge`] for those.
    pub fn restricted_column(&self) -> Option<&ColumnRef> {
        match self {
            AtomicPredicate::Cmp { column, .. }
            | AtomicPredicate::InList { column, .. }
            | AtomicPredicate::Between { column, .. }
            | AtomicPredicate::Like { column, .. }
            | AtomicPredicate::IsNull { column, .. } => Some(column),
            AtomicPredicate::Opaque { column, .. } => column.as_ref(),
            AtomicPredicate::JoinEq { .. } => None,
        }
    }

    /// The join edge `(left, right)` if this atom is an equi-join.
    pub fn join_edge(&self) -> Option<(&ColumnRef, &ColumnRef)> {
        match self {
            AtomicPredicate::JoinEq { left, right } => Some((left, right)),
            _ => None,
        }
    }

    /// Whether this atom supports a *sargable* index lookup: equality and
    /// range atoms do; `IS NULL`, `<>`, `NOT LIKE`, negated `IN` and opaque
    /// atoms don't (a B+Tree cannot seek them).
    pub fn is_sargable(&self) -> bool {
        match self {
            AtomicPredicate::Cmp { op, .. } => *op != CmpOp::Ne,
            AtomicPredicate::InList { negated, .. } => !negated,
            AtomicPredicate::Between { negated, .. } => !negated,
            // Only prefix LIKE patterns can use a B+Tree.
            AtomicPredicate::Like {
                pattern, negated, ..
            } => !negated && !pattern.starts_with('%') && !pattern.starts_with('_'),
            AtomicPredicate::IsNull { .. } => false,
            AtomicPredicate::JoinEq { .. } => true,
            AtomicPredicate::Opaque { .. } => false,
        }
    }

    /// Whether the atom is an equality-style restriction (point lookup),
    /// which may be followed by further index columns in a composite key.
    pub fn is_equality(&self) -> bool {
        match self {
            AtomicPredicate::Cmp { op, .. } => op.is_equality(),
            AtomicPredicate::InList { negated, .. } => !negated,
            AtomicPredicate::JoinEq { .. } => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for AtomicPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtomicPredicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            AtomicPredicate::JoinEq { left, right } => write!(f, "{left} = {right}"),
            AtomicPredicate::InList {
                column, negated, ..
            } => write!(f, "{column} {}IN (...)", if *negated { "NOT " } else { "" }),
            AtomicPredicate::Between {
                column, negated, ..
            } => write!(
                f,
                "{column} {}BETWEEN ...",
                if *negated { "NOT " } else { "" }
            ),
            AtomicPredicate::Like {
                column,
                pattern,
                negated,
            } => write!(
                f,
                "{column} {}LIKE '{pattern}'",
                if *negated { "NOT " } else { "" }
            ),
            AtomicPredicate::IsNull { column, negated } => {
                write!(f, "{column} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            AtomicPredicate::Opaque { text, .. } => write!(f, "{text}"),
        }
    }
}

/// A predicate in Disjunctive Normal Form: a disjunction of conjunctions of
/// atomic predicates. The empty DNF (`conjuncts == []`) represents FALSE;
/// a DNF containing an empty conjunct represents TRUE.
#[derive(Debug, Clone, PartialEq)]
pub struct Dnf {
    pub conjuncts: Vec<Vec<AtomicPredicate>>,
}

/// Errors from DNF conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum DnfError {
    /// Distribution would exceed [`to_dnf_capped`]'s conjunct cap.
    TooLarge { produced: usize, cap: usize },
}

impl std::fmt::Display for DnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnfError::TooLarge { produced, cap } => {
                write!(f, "DNF expansion produced {produced} conjuncts (cap {cap})")
            }
        }
    }
}

impl std::error::Error for DnfError {}

/// Default cap on the number of DNF conjuncts.
pub const DEFAULT_DNF_CAP: usize = 64;

/// Convert a predicate to DNF with the default conjunct cap.
pub fn to_dnf(p: &Predicate) -> Result<Dnf, DnfError> {
    to_dnf_capped(p, DEFAULT_DNF_CAP)
}

/// Convert a predicate to DNF, failing if more than `cap` conjuncts would
/// be produced.
pub fn to_dnf_capped(p: &Predicate, cap: usize) -> Result<Dnf, DnfError> {
    let conjuncts = distribute(push_negations(p, false), cap)?;
    Ok(Dnf { conjuncts })
}

/// Intermediate NNF tree: negations only on atoms (folded into them).
enum Nnf {
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
    Atom(AtomicPredicate),
}

/// The atomic predicate of one leaf of a predicate tree, with the
/// negations above it (`negated`: an odd number of `NOT`s) folded in.
///
/// # Panics
/// On a composite (`AND` / `OR` / `NOT`): callers descend into those.
pub fn atom_from(p: &Predicate, negated: bool) -> AtomicPredicate {
    match p {
        Predicate::Cmp { column, op, value } => AtomicPredicate::Cmp {
            column: column.clone(),
            op: if negated { op.negate() } else { *op },
            value: value.clone(),
        },
        Predicate::JoinEq { left, right } => {
            if negated {
                // NOT (a = b) over a join edge: treat as an opaque non-
                // sargable restriction; advisors cannot index it.
                AtomicPredicate::Opaque {
                    column: None,
                    text: format!("NOT ({left} = {right})"),
                }
            } else {
                AtomicPredicate::JoinEq {
                    left: left.clone(),
                    right: right.clone(),
                }
            }
        }
        Predicate::InList {
            column,
            values,
            negated: n,
        } => AtomicPredicate::InList {
            column: column.clone(),
            values: values.clone(),
            negated: *n != negated,
        },
        Predicate::Between {
            column,
            low,
            high,
            negated: n,
        } => AtomicPredicate::Between {
            column: column.clone(),
            low: low.clone(),
            high: high.clone(),
            negated: *n != negated,
        },
        Predicate::Like {
            column,
            pattern,
            negated: n,
        } => AtomicPredicate::Like {
            column: column.clone(),
            pattern: pattern.clone(),
            negated: *n != negated,
        },
        Predicate::IsNull { column, negated: n } => AtomicPredicate::IsNull {
            column: column.clone(),
            negated: *n != negated,
        },
        Predicate::Exists { query, negated: n } => AtomicPredicate::Opaque {
            column: None,
            text: format!(
                "{}EXISTS ({query})",
                if *n != negated { "NOT " } else { "" }
            ),
        },
        Predicate::InSubquery {
            column,
            query,
            negated: n,
        } => AtomicPredicate::Opaque {
            column: Some(column.clone()),
            text: format!(
                "{column} {}IN ({query})",
                if *n != negated { "NOT " } else { "" }
            ),
        },
        Predicate::AggCmp {
            func,
            arg,
            op,
            value,
        } => {
            // An aggregate comparison restricts groups, not rows: no index
            // can seek it, so it folds to an opaque atom (negation folds
            // into the operator like a plain comparison).
            let op = if negated { op.negate() } else { *op };
            let arg_text = match arg {
                Some(c) => c.to_string(),
                None => "*".to_string(),
            };
            AtomicPredicate::Opaque {
                column: None,
                text: format!("{func}({arg_text}) {op} {value}"),
            }
        }
        Predicate::And(_) | Predicate::Or(_) | Predicate::Not(_) => {
            unreachable!("composite predicates are not leaves")
        }
    }
}

fn push_negations(p: &Predicate, negated: bool) -> Nnf {
    match p {
        Predicate::And(ps) => {
            let children = ps.iter().map(|c| push_negations(c, negated)).collect();
            if negated {
                Nnf::Or(children)
            } else {
                Nnf::And(children)
            }
        }
        Predicate::Or(ps) => {
            let children = ps.iter().map(|c| push_negations(c, negated)).collect();
            if negated {
                Nnf::And(children)
            } else {
                Nnf::Or(children)
            }
        }
        Predicate::Not(inner) => push_negations(inner, !negated),
        atom => Nnf::Atom(atom_from(atom, negated)),
    }
}

/// Distribute AND over OR bottom-up, producing the conjunct list. Consumes
/// the tree: an atom is cloned only where distribution duplicates it, so a
/// plain conjunction moves every atom into its one conjunct.
fn distribute(n: Nnf, cap: usize) -> Result<Vec<Vec<AtomicPredicate>>, DnfError> {
    match n {
        Nnf::Atom(a) => Ok(vec![vec![a]]),
        Nnf::Or(children) => {
            let mut out = Vec::new();
            for c in children {
                let mut sub = distribute(c, cap)?;
                out.append(&mut sub);
                if out.len() > cap {
                    return Err(DnfError::TooLarge {
                        produced: out.len(),
                        cap,
                    });
                }
            }
            Ok(out)
        }
        Nnf::And(children) => {
            // Cartesian product of the children's conjunct lists.
            let mut acc: Vec<Vec<AtomicPredicate>> = vec![Vec::new()];
            for c in children {
                let mut sub = distribute(c, cap)?;
                let produced = acc.len().saturating_mul(sub.len());
                if produced > cap {
                    return Err(DnfError::TooLarge {
                        produced: cap + 1,
                        cap,
                    });
                }
                if let [only] = sub.as_mut_slice() {
                    // One factor: every conjunct so far grows by it, the
                    // last of them by the original. (None so far — an
                    // empty `OR` came before — and the product stays empty.)
                    let Some((last, rest)) = acc.split_last_mut() else {
                        continue;
                    };
                    for left in rest {
                        left.extend(only.iter().cloned());
                    }
                    last.append(only);
                    continue;
                }
                let mut next = Vec::with_capacity(produced);
                for left in &acc {
                    for right in &sub {
                        let mut merged = left.clone();
                        merged.extend(right.iter().cloned());
                        next.push(merged);
                    }
                }
                acc = next;
            }
            Ok(acc)
        }
    }
}

/// Collect every atomic predicate in a tree without normalising (used as
/// the fall-back when DNF expansion exceeds the cap, and for join-edge
/// extraction which is DNF-independent).
pub fn collect_atoms(p: &Predicate) -> Vec<AtomicPredicate> {
    fn walk(p: &Predicate, negated: bool, out: &mut Vec<AtomicPredicate>) {
        match p {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for c in ps {
                    walk(c, negated, out);
                }
            }
            Predicate::Not(inner) => walk(inner, !negated, out),
            atom => out.push(atom_from(atom, negated)),
        }
    }
    let mut out = Vec::new();
    walk(p, false, &mut out);
    out
}

/// Evaluate a predicate against a row (map from column to value).
/// Subquery atoms evaluate via the supplied oracle (`true`/`false` per
/// canonical text), which property tests use to check DNF equivalence.
/// Three-valued logic is collapsed: unknown comparisons evaluate to false
/// (the SQL filter semantics of discarding the row).
pub fn evaluate(
    p: &Predicate,
    row: &dyn Fn(&ColumnRef) -> Option<Value>,
    subquery_oracle: &dyn Fn(&str) -> bool,
) -> bool {
    let atoms_true = |a: &AtomicPredicate| evaluate_atom(a, row, subquery_oracle);
    match p {
        Predicate::And(ps) => ps.iter().all(|c| evaluate(c, row, subquery_oracle)),
        Predicate::Or(ps) => ps.iter().any(|c| evaluate(c, row, subquery_oracle)),
        Predicate::Not(inner) => !evaluate(inner, row, subquery_oracle),
        atom => atoms_true(&atom_from(atom, false)),
    }
}

/// Evaluate a DNF against a row; must agree with [`evaluate`] on the source
/// predicate whenever the atoms are two-valued (no NULLs involved).
pub fn evaluate_dnf(
    dnf: &Dnf,
    row: &dyn Fn(&ColumnRef) -> Option<Value>,
    subquery_oracle: &dyn Fn(&str) -> bool,
) -> bool {
    dnf.conjuncts
        .iter()
        .any(|conj| conj.iter().all(|a| evaluate_atom(a, row, subquery_oracle)))
}

fn evaluate_atom(
    a: &AtomicPredicate,
    row: &dyn Fn(&ColumnRef) -> Option<Value>,
    subquery_oracle: &dyn Fn(&str) -> bool,
) -> bool {
    match a {
        AtomicPredicate::Cmp { column, op, value } => {
            let Some(v) = row(column) else { return false };
            let Some(ord) = v.partial_cmp_sql(value) else {
                return false;
            };
            match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            }
        }
        AtomicPredicate::JoinEq { left, right } => match (row(left), row(right)) {
            (Some(a), Some(b)) => a.partial_cmp_sql(&b) == Some(std::cmp::Ordering::Equal),
            _ => false,
        },
        AtomicPredicate::InList {
            column,
            values,
            negated,
        } => {
            let Some(v) = row(column) else { return false };
            let found = values
                .iter()
                .any(|w| v.partial_cmp_sql(w) == Some(std::cmp::Ordering::Equal));
            found != *negated
        }
        AtomicPredicate::Between {
            column,
            low,
            high,
            negated,
        } => {
            let Some(v) = row(column) else { return false };
            let ge_low = matches!(
                v.partial_cmp_sql(low),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            );
            let le_high = matches!(
                v.partial_cmp_sql(high),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            (ge_low && le_high) != *negated
        }
        AtomicPredicate::Like {
            column,
            pattern,
            negated,
        } => {
            let Some(Value::Str(s)) = row(column) else {
                return false;
            };
            like_match(pattern, &s) != *negated
        }
        AtomicPredicate::IsNull { column, negated } => {
            let is_null = matches!(row(column), Some(Value::Null) | None);
            is_null != *negated
        }
        AtomicPredicate::Opaque { text, .. } => subquery_oracle(text),
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(pattern: &str, s: &str) -> bool {
    fn rec(p: &[u8], s: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => (0..=s.len()).any(|i| rec(&p[1..], &s[i..])),
            Some(b'_') => !s.is_empty() && rec(&p[1..], &s[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&p[1..], &s[1..]),
        }
    }
    rec(pattern.as_bytes(), s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;
    use crate::Statement;

    fn where_of(sql: &str) -> Predicate {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn dnf_of_atom_is_single_conjunct() {
        let p = where_of("SELECT * FROM t WHERE a = 1");
        let d = to_dnf(&p).unwrap();
        assert_eq!(d.conjuncts.len(), 1);
        assert_eq!(d.conjuncts[0].len(), 1);
    }

    #[test]
    fn dnf_unifies_equivalent_forms() {
        // The paper's Example 6: (a AND b) OR (a AND c) vs a AND (b OR c).
        let p1 = where_of("SELECT * FROM t WHERE (a = 1 AND b = 2) OR (a = 1 AND c = 3)");
        let p2 = where_of("SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)");
        let d1 = to_dnf(&p1).unwrap();
        let d2 = to_dnf(&p2).unwrap();
        // Same number of conjuncts over the same column multisets.
        assert_eq!(d1.conjuncts.len(), 2);
        assert_eq!(d2.conjuncts.len(), 2);
        let cols = |d: &Dnf| -> Vec<Vec<String>> {
            let mut v: Vec<Vec<String>> = d
                .conjuncts
                .iter()
                .map(|c| {
                    let mut cs: Vec<String> = c
                        .iter()
                        .filter_map(|a| a.restricted_column().map(|c| c.column.clone()))
                        .collect();
                    cs.sort();
                    cs
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(cols(&d1), cols(&d2));
    }

    #[test]
    fn dnf_pushes_not_through_demorgan() {
        let p = where_of("SELECT * FROM t WHERE NOT (a = 1 OR b < 2)");
        let d = to_dnf(&p).unwrap();
        // NOT(a=1 OR b<2) == a<>1 AND b>=2 — one conjunct with two atoms.
        assert_eq!(d.conjuncts.len(), 1);
        assert_eq!(d.conjuncts[0].len(), 2);
        assert!(matches!(
            d.conjuncts[0][0],
            AtomicPredicate::Cmp { op: CmpOp::Ne, .. }
        ));
        assert!(matches!(
            d.conjuncts[0][1],
            AtomicPredicate::Cmp { op: CmpOp::Ge, .. }
        ));
    }

    #[test]
    fn double_negation_cancels() {
        let p = where_of("SELECT * FROM t WHERE NOT (NOT (a = 1))");
        let d = to_dnf(&p).unwrap();
        assert!(matches!(
            d.conjuncts[0][0],
            AtomicPredicate::Cmp { op: CmpOp::Eq, .. }
        ));
    }

    #[test]
    fn dnf_cap_is_enforced() {
        // (a1=1 OR b1=1) AND (a2=1 OR b2=1) AND ... expands exponentially.
        let clauses: Vec<String> = (0..10).map(|i| format!("(a{i} = 1 OR b{i} = 1)")).collect();
        let sql = format!("SELECT * FROM t WHERE {}", clauses.join(" AND "));
        let p = where_of(&sql);
        assert!(matches!(
            to_dnf_capped(&p, 64),
            Err(DnfError::TooLarge { .. })
        ));
        // A big enough cap succeeds with exactly 2^10 conjuncts.
        let d = to_dnf_capped(&p, 2000).unwrap();
        assert_eq!(d.conjuncts.len(), 1024);
    }

    #[test]
    fn an_empty_disjunction_empties_the_conjunction_around_it() {
        // Only a caller-built tree has an empty `OR` (the parser builds
        // none): it has no satisfying conjunct, so neither has an `AND`
        // over it, whichever side the atoms are on.
        let atom = where_of("SELECT * FROM t WHERE a = 1");
        let either = where_of("SELECT * FROM t WHERE b = 1 OR c = 1");
        for children in [
            vec![Predicate::Or(vec![]), atom.clone()],
            vec![atom.clone(), Predicate::Or(vec![])],
            vec![Predicate::Or(vec![]), either, atom.clone()],
            vec![Predicate::Not(Box::new(Predicate::And(vec![]))), atom],
        ] {
            let d = to_dnf(&Predicate::And(children)).unwrap();
            assert!(d.conjuncts.is_empty());
        }
    }

    #[test]
    fn collect_atoms_handles_negation() {
        let p = where_of("SELECT * FROM t WHERE NOT (a = 1 AND b NOT IN (2))");
        let atoms = collect_atoms(&p);
        assert_eq!(atoms.len(), 2);
        assert!(matches!(
            atoms[0],
            AtomicPredicate::Cmp { op: CmpOp::Ne, .. }
        ));
        assert!(matches!(
            atoms[1],
            AtomicPredicate::InList { negated: false, .. }
        ));
    }

    #[test]
    fn having_aggregate_becomes_opaque_atom() {
        // Regression: a HAVING clause over an unindexed aggregate must not
        // panic in DNF conversion nor drop the statement's atoms.
        let stmt =
            parse_statement("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 5 AND SUM(b) <= 10")
                .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let h = s.having.unwrap();
        let d = to_dnf(&h).unwrap();
        assert_eq!(d.conjuncts.len(), 1);
        assert_eq!(d.conjuncts[0].len(), 2);
        for a in &d.conjuncts[0] {
            assert!(matches!(a, AtomicPredicate::Opaque { column: None, .. }));
            assert!(!a.is_sargable());
        }
        // Negation folds into the operator rather than wrapping the text.
        let stmt = parse_statement("SELECT a FROM t GROUP BY a HAVING NOT COUNT(*) > 5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let atoms = collect_atoms(&s.having.unwrap());
        assert!(
            matches!(&atoms[0], AtomicPredicate::Opaque { text, .. } if text == "COUNT(*) <= 5")
        );
    }

    #[test]
    fn sargability_rules() {
        let col = ColumnRef::bare("a");
        assert!(AtomicPredicate::Cmp {
            column: col.clone(),
            op: CmpOp::Eq,
            value: Value::Int(1)
        }
        .is_sargable());
        assert!(!AtomicPredicate::Cmp {
            column: col.clone(),
            op: CmpOp::Ne,
            value: Value::Int(1)
        }
        .is_sargable());
        assert!(AtomicPredicate::Like {
            column: col.clone(),
            pattern: "abc%".into(),
            negated: false
        }
        .is_sargable());
        assert!(!AtomicPredicate::Like {
            column: col.clone(),
            pattern: "%abc".into(),
            negated: false
        }
        .is_sargable());
        assert!(!AtomicPredicate::IsNull {
            column: col,
            negated: false
        }
        .is_sargable());
    }

    #[test]
    fn like_match_semantics() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(like_match("%", ""));
        assert!(!like_match("a_", "a"));
        assert!(!like_match("ab", "abc"));
    }

    #[test]
    fn evaluate_matches_dnf_on_example() {
        let p = where_of("SELECT * FROM t WHERE (a = 1 AND b = 2) OR NOT (c > 5)");
        let d = to_dnf(&p).unwrap();
        let rows = [
            [("a", 1), ("b", 2), ("c", 9)],
            [("a", 1), ("b", 3), ("c", 9)],
            [("a", 0), ("b", 0), ("c", 3)],
        ];
        for r in rows {
            let lookup = move |c: &ColumnRef| -> Option<Value> {
                r.iter()
                    .find(|(n, _)| *n == c.column)
                    .map(|(_, v)| Value::Int(*v))
            };
            let oracle = |_: &str| false;
            assert_eq!(
                evaluate(&p, &lookup, &oracle),
                evaluate_dnf(&d, &lookup, &oracle),
                "row {r:?}"
            );
        }
    }
}
