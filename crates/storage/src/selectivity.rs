//! Selectivity estimation over catalog statistics.
//!
//! Follows the classic System-R / PostgreSQL rules: `=` → `1/ndv`, ranges
//! interpolate against the column's `[min, max]`, unknown comparisons fall
//! back to the standard defaults. Selectivities are always clamped to
//! `[1/rows, 1]` so downstream cost arithmetic stays sane.

use crate::catalog::{Column, Table};
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_sql::{CmpOp, Value};

/// Default selectivity of an equality against a column with unknown NDV.
pub const DEFAULT_EQ_SEL: f64 = 0.005;
/// Default selectivity of a range restriction (PostgreSQL's 1/3; also the
/// paper's example threshold in §IV-A).
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of a sargable LIKE 'prefix%' pattern.
pub const DEFAULT_PREFIX_LIKE_SEL: f64 = 0.02;
/// Selectivity of an opaque (unanalysable) atom.
pub const DEFAULT_OPAQUE_SEL: f64 = 0.5;

/// Clamp a raw selectivity to `[1/rows, 1]` (idempotent). Exposed so the
/// estimator's compiled selectivity programs reproduce this module's
/// arithmetic bit-for-bit on their literal-dependent leaves, outside of
/// [`atom_selectivity`].
pub fn clamp_sel(sel: f64, rows: u64) -> f64 {
    let floor = 1.0 / rows.max(1) as f64;
    sel.clamp(floor.min(1.0), 1.0)
}

/// Numeric view of a literal (`Int` widened, `Float` as-is, else `None`).
pub fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Per-column primitives.
//
// Each returns the *unclamped* selectivity for one atom kind given the
// resolved column statistics (`None` = unknown column → defaults). They are
// the single source of truth for the math: `atom_selectivity` below and the
// estimator's compiled `TemplateSelProgram` both call these per leaf, and
// both combine leaves through `shape::fold_factor`, which is what
// guarantees the fast path cannot drift from the interpreted path.
// ---------------------------------------------------------------------------

/// `col OP value` comparison selectivity.
pub fn cmp_selectivity(col: Option<&Column>, op: CmpOp, value: &Value) -> f64 {
    let Some(col) = col else {
        return default_for_op(op);
    };
    let ndv = col.stats.ndv.max(1.0);
    match op {
        CmpOp::Eq => 1.0 / ndv,
        CmpOp::Ne => 1.0 - 1.0 / ndv,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            match value_as_f64(value) {
                Some(v) if col.ty.is_numeric() && col.stats.max > col.stats.min => {
                    // Equi-depth histogram when available; min/max
                    // interpolation otherwise.
                    let below = match &col.stats.histogram {
                        Some(h) => h.fraction_below(v),
                        None => {
                            ((v - col.stats.min) / (col.stats.max - col.stats.min)).clamp(0.0, 1.0)
                        }
                    };
                    match op {
                        CmpOp::Lt | CmpOp::Le => below,
                        _ => 1.0 - below,
                    }
                }
                _ => DEFAULT_RANGE_SEL,
            }
        }
    }
}

/// `col IN (v1, ..., vk)` selectivity for a `k`-element list.
pub fn in_list_selectivity(col: Option<&Column>, len: usize, negated: bool) -> f64 {
    let ndv = col.map(|c| c.stats.ndv.max(1.0)).unwrap_or(200.0);
    let k = len.max(1) as f64;
    let sel = (k / ndv).min(1.0);
    if negated {
        1.0 - sel
    } else {
        sel
    }
}

/// `col BETWEEN low AND high` selectivity.
pub fn between_selectivity(col: Option<&Column>, low: &Value, high: &Value, negated: bool) -> f64 {
    let sel = match (col, value_as_f64(low), value_as_f64(high)) {
        (Some(c), Some(lo), Some(hi)) if c.ty.is_numeric() && c.stats.max > c.stats.min => {
            match &c.stats.histogram {
                Some(h) => h.range_selectivity(lo, hi),
                None => ((hi - lo) / (c.stats.max - c.stats.min)).clamp(0.0, 1.0),
            }
        }
        _ => DEFAULT_RANGE_SEL * DEFAULT_RANGE_SEL,
    };
    if negated {
        1.0 - sel
    } else {
        sel
    }
}

/// `col LIKE pattern` selectivity (pattern shape only; stats-free).
pub fn like_selectivity(pattern: &str, negated: bool) -> f64 {
    let sel = if pattern.starts_with('%') || pattern.starts_with('_') {
        0.1
    } else {
        DEFAULT_PREFIX_LIKE_SEL
    };
    if negated {
        1.0 - sel
    } else {
        sel
    }
}

/// `col IS [NOT] NULL` selectivity.
pub fn is_null_selectivity(col: Option<&Column>, negated: bool) -> f64 {
    let frac = col.map(|c| c.stats.null_frac).unwrap_or(0.01);
    if negated {
        1.0 - frac
    } else {
        frac.max(1e-4)
    }
}

/// Selectivity of a single atomic predicate against `table`.
///
/// The atom's column is resolved by name on `table`; unknown columns get
/// the defaults (the advisor must stay total even when statistics lag the
/// schema).
pub fn atom_selectivity(atom: &AtomicPredicate, table: &Table) -> f64 {
    let col = atom
        .restricted_column()
        .and_then(|c| table.column(&c.column));
    atom_selectivity_at(atom, col, table.rows)
}

/// [`atom_selectivity`] with the atom's column already resolved (`None` =
/// unknown column) on a table of `rows` rows: what a prepared plan calls
/// per statement, having looked the column up once.
pub(crate) fn atom_selectivity_at(atom: &AtomicPredicate, col: Option<&Column>, rows: u64) -> f64 {
    let sel = match atom {
        AtomicPredicate::Cmp { op, value, .. } => cmp_selectivity(col, *op, value),
        AtomicPredicate::JoinEq { .. } => {
            // Join selectivity is handled by the join model; as a filter
            // atom (e.g. `t.a = t.b` on one table) use the eq default.
            DEFAULT_EQ_SEL
        }
        AtomicPredicate::InList {
            values, negated, ..
        } => in_list_selectivity(col, values.len(), *negated),
        AtomicPredicate::Between {
            low, high, negated, ..
        } => between_selectivity(col, low, high, *negated),
        AtomicPredicate::Like {
            pattern, negated, ..
        } => like_selectivity(pattern, *negated),
        AtomicPredicate::IsNull { negated, .. } => is_null_selectivity(col, *negated),
        AtomicPredicate::Opaque { .. } => DEFAULT_OPAQUE_SEL,
    };
    clamp_sel(sel, rows)
}

/// Default comparison selectivity when the column is unknown.
pub fn default_for_op(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => DEFAULT_EQ_SEL,
        CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
        _ => DEFAULT_RANGE_SEL,
    }
}

/// Combined selectivity of a conjunction of atoms on one table.
///
/// Independence is assumed (multiplication) with *exponential backoff* on
/// the 3rd+ atom — repeated multiplication under correlated columns is the
/// classic source of underestimation, so later factors are square-rooted
/// (the SQL Server 2014+ heuristic).
pub fn conjunct_selectivity<'a>(
    atoms: impl IntoIterator<Item = &'a AtomicPredicate>,
    table: &Table,
) -> f64 {
    let sels = atoms.into_iter().map(|a| atom_selectivity(a, table));
    combined_selectivity(sels, table.rows)
}

/// [`conjunct_selectivity`] over the atoms' selectivities, already taken
/// against a table of `rows` rows.
pub(crate) fn combined_selectivity(atom_sels: impl IntoIterator<Item = f64>, rows: u64) -> f64 {
    // Sorted on the stack: the planner asks once per candidate index per
    // statement, and a conjunction wider than this is rare enough to spill.
    const INLINE: usize = 8;
    let mut inline = [0.0; INLINE];
    let mut spill = Vec::new();
    let mut n = 0;
    for sel in atom_sels {
        match inline.get_mut(n) {
            Some(slot) => *slot = sel,
            None => {
                if spill.is_empty() {
                    spill.extend_from_slice(&inline);
                }
                spill.push(sel);
            }
        }
        n += 1;
    }
    let sels = if n <= INLINE {
        &mut inline[..n]
    } else {
        &mut spill[..]
    };
    // Most selective first; damp later factors.
    sels.sort_unstable_by(f64::total_cmp);
    let mut sel = 1.0;
    for (i, s) in sels.iter().enumerate() {
        sel *= match i {
            0 | 1 => *s,
            _ => s.sqrt(),
        };
    }
    clamp_sel(sel, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableBuilder};
    use autoindex_sql::ColumnRef;

    fn table() -> Table {
        TableBuilder::new("t", 10_000)
            .column(Column::int("id", 10_000))
            .column(Column::int("cat", 10))
            .column(Column::float("temp", 300, 35.0, 42.0))
            .column(Column::text("name", 5_000, 16).with_null_frac(0.2))
            .build()
            .unwrap()
    }

    fn cmp(col: &str, op: CmpOp, v: Value) -> AtomicPredicate {
        AtomicPredicate::Cmp {
            column: ColumnRef::bare(col),
            op,
            value: v,
        }
    }

    #[test]
    fn equality_uses_ndv() {
        let t = table();
        let s = atom_selectivity(&cmp("cat", CmpOp::Eq, Value::Int(3)), &t);
        assert!((s - 0.1).abs() < 1e-9);
        let s = atom_selectivity(&cmp("id", CmpOp::Eq, Value::Int(3)), &t);
        assert!((s - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn range_interpolates_min_max() {
        let t = table();
        // temp > 40.25 → (42-40.25)/7 = 0.25
        let s = atom_selectivity(&cmp("temp", CmpOp::Gt, Value::Float(40.25)), &t);
        assert!((s - 0.25).abs() < 1e-6);
        let s = atom_selectivity(&cmp("temp", CmpOp::Lt, Value::Float(40.25)), &t);
        assert!((s - 0.75).abs() < 1e-6);
    }

    #[test]
    fn range_out_of_bounds_clamps() {
        let t = table();
        let s = atom_selectivity(&cmp("temp", CmpOp::Gt, Value::Float(99.0)), &t);
        assert!(
            (s - 1.0 / 10_000.0).abs() < 1e-9,
            "floor at 1/rows, got {s}"
        );
        let s = atom_selectivity(&cmp("temp", CmpOp::Lt, Value::Float(99.0)), &t);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn placeholder_range_uses_default_third() {
        let t = table();
        let s = atom_selectivity(&cmp("temp", CmpOp::Gt, Value::Placeholder), &t);
        assert!((s - DEFAULT_RANGE_SEL).abs() < 1e-9);
    }

    #[test]
    fn in_list_scales_with_arity() {
        let t = table();
        let a = AtomicPredicate::InList {
            column: ColumnRef::bare("cat"),
            values: vec![Value::Int(1), Value::Int(2)],
            negated: false,
        };
        let s = atom_selectivity(&a, &t);
        assert!((s - 0.2).abs() < 1e-9);
    }

    #[test]
    fn between_uses_range_width() {
        let t = table();
        let a = AtomicPredicate::Between {
            column: ColumnRef::bare("temp"),
            low: Value::Float(38.5),
            high: Value::Float(42.0),
            negated: false,
        };
        let s = atom_selectivity(&a, &t);
        assert!((s - 0.5).abs() < 1e-6);
    }

    #[test]
    fn is_null_uses_null_frac() {
        let t = table();
        let a = AtomicPredicate::IsNull {
            column: ColumnRef::bare("name"),
            negated: false,
        };
        assert!((atom_selectivity(&a, &t) - 0.2).abs() < 1e-9);
        let a = AtomicPredicate::IsNull {
            column: ColumnRef::bare("name"),
            negated: true,
        };
        assert!((atom_selectivity(&a, &t) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn unknown_column_gets_defaults() {
        let t = table();
        let s = atom_selectivity(&cmp("ghost", CmpOp::Eq, Value::Int(1)), &t);
        assert!((s - DEFAULT_EQ_SEL).abs() < 1e-9);
    }

    #[test]
    fn selectivities_stay_in_unit_interval() {
        let t = table();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            for v in [
                Value::Int(-100),
                Value::Int(50),
                Value::Float(1e9),
                Value::Placeholder,
            ] {
                let s = atom_selectivity(&cmp("temp", op, v.clone()), &t);
                assert!((0.0..=1.0).contains(&s), "{op:?} {v:?} -> {s}");
            }
        }
    }

    #[test]
    fn conjunction_multiplies_with_backoff() {
        let t = table();
        let a1 = cmp("cat", CmpOp::Eq, Value::Int(1)); // 0.1
        let a2 = cmp("temp", CmpOp::Gt, Value::Float(40.25)); // 0.25
        let a3 = cmp("name", CmpOp::Eq, Value::Str("x".into())); // 1/5000
        let s12 = conjunct_selectivity([&a1, &a2], &t);
        assert!((s12 - 0.025).abs() < 1e-9);
        // Third factor (largest sel among the three is damped last).
        let s123 = conjunct_selectivity([&a1, &a2, &a3], &t);
        assert!(s123 < s12);
        assert!(s123 >= 1.0 / 10_000.0);
    }

    #[test]
    fn conjunction_of_none_is_one() {
        let t = table();
        assert_eq!(conjunct_selectivity([], &t), 1.0);
    }

    fn skewed_table() -> Table {
        // 90% of `amount` values under 100, the tail stretching to 10000.
        let mut samples: Vec<f64> = (0..900).map(|i| i as f64 / 9.0).collect();
        samples.extend((0..100).map(|i| 100.0 + i as f64 * 99.0));
        TableBuilder::new("s", 1_000_000)
            .column(Column::float("amount", 10_000, 0.0, 10_000.0).with_histogram(samples, 32))
            .column(Column::float("flat", 10_000, 0.0, 10_000.0))
            .build()
            .unwrap()
    }

    #[test]
    fn histogram_corrects_skewed_range_estimate() {
        let t = skewed_table();
        // amount < 100 covers ~90% of rows; min/max interpolation says 1%.
        let with_hist = atom_selectivity(&cmp("amount", CmpOp::Lt, Value::Float(100.0)), &t);
        let without = atom_selectivity(&cmp("flat", CmpOp::Lt, Value::Float(100.0)), &t);
        assert!(with_hist > 0.8, "histogram estimate {with_hist}");
        assert!(without < 0.02, "min/max estimate {without}");
    }

    #[test]
    fn histogram_between_uses_bucket_mass() {
        let t = skewed_table();
        let a = AtomicPredicate::Between {
            column: ColumnRef::bare("amount"),
            low: Value::Float(0.0),
            high: Value::Float(50.0),
            negated: false,
        };
        let s = atom_selectivity(&a, &t);
        assert!(s > 0.4, "half the dense region: {s}");
    }

    #[test]
    fn histogram_tightens_min_max_bounds() {
        let t = skewed_table();
        let c = t.column("amount").unwrap();
        assert_eq!(c.stats.min, 0.0);
        assert!(c.stats.max > 9_000.0);
        assert!(c.stats.histogram.is_some());
    }
}
