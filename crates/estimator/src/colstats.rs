//! Compiled selectivity programs.
//!
//! The interpreted estimator path resolves every predicate's column *by
//! name* against the catalog on every evaluation. For the template fast
//! path that is wasted work: a template's predicate structure is fixed, so
//! column resolution, statistics lookup, and every value-independent leaf
//! selectivity can be done **once at compile time**, leaving only the
//! literal-dependent leaves to evaluate per statement.
//!
//! [`TemplateSelProgram`] is a [`SelTrace`] (from
//! `QueryShape::extract_traced`) compiled against one catalog state: per
//! `(predicate, table)` factor, each leaf becomes a constant or a
//! literal-dependent comparison, and a factor whose leaves are all constant
//! is folded once. The rest are folded at each bind through
//! [`fold_factor`] — the very walk extraction folds through — with the
//! dynamic leaves evaluated by the *same* `autoindex_storage::selectivity`
//! primitives, so results are bit-identical. The program reads nothing
//! outside itself: when a table it touches grows, the kept trace is
//! compiled again and nothing else is rebuilt.

use autoindex_sql::predicate::AtomicPredicate;
use autoindex_sql::{CmpOp, Predicate, Value};
use autoindex_storage::catalog::{Catalog, Column, Table};
use autoindex_storage::selectivity::{
    atom_selectivity, between_selectivity, clamp_sel, cmp_selectivity,
};
use autoindex_storage::shape::{fold_factor, SelTrace};
use autoindex_storage::QueryShape;
use std::ops::Range;
use std::sync::Arc;

/// Where a literal-dependent leaf gets its value at evaluation time.
#[derive(Debug, Clone, PartialEq)]
enum LitRef {
    /// `literals[slot]`, negated (unary minus in the statement) if set.
    Slot { slot: u16, negate: bool },
    /// A constant baked into the template text.
    Const(Value),
}

/// One leaf of a compiled factor; `col` indexes the program's own column
/// copies.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    /// A selectivity no literal moves, computed at compile time.
    Const(f64),
    /// Range comparison whose selectivity depends on the literal.
    Cmp { col: u32, op: CmpOp, value: LitRef },
    /// BETWEEN whose bounds include at least one literal slot.
    Between {
        col: u32,
        low: LitRef,
        high: LitRef,
        negated: bool,
    },
}

/// One `(predicate, table)` selectivity factor, compiled.
#[derive(Debug, Clone, PartialEq)]
struct Factor {
    /// Index of the factor's table in the shape's `tables` vector.
    table_index: u16,
    /// Row count of that table (the `AND` floor and each leaf's clamp).
    rows: u64,
    fold: Fold,
}

#[derive(Debug, Clone, PartialEq)]
enum Fold {
    /// Every leaf is constant: the factor, folded at compile time.
    Const(f64),
    /// The factor's predicate and where its compiled leaves lie in the
    /// program's `leaves`, in fold order.
    Leaves(Arc<Predicate>, Range<usize>),
}

/// A compiled selectivity program for one template: writes every table's
/// `filter_sel`, bit-identical to what `QueryShape::extract` would compute
/// for the same literals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateSelProgram {
    factors: Vec<Factor>,
    /// The leaves of every factor folded at each bind, one run per factor.
    leaves: Vec<Leaf>,
    /// The columns the literal-dependent leaves read, as the catalog had
    /// them at compile time, in first-use order.
    cols: Vec<Column>,
}

impl TemplateSelProgram {
    /// Compile `trace` (recorded against the template's sentinel-parsed
    /// statement) against `catalog`. `slot_of` maps a sentinel literal
    /// value back to its literal-buffer slot (`None` = a real constant).
    /// The result depends on the statistics of the tables `trace` names and
    /// on nothing else, so it stays exact until one of them changes.
    /// Returns `None` when a factor's table is missing from the shape or
    /// catalog — callers fall back to the interpreted path.
    pub fn compile(
        trace: &SelTrace,
        shape: &QueryShape,
        catalog: &Catalog,
        slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    ) -> Option<TemplateSelProgram> {
        let mut program = TemplateSelProgram::default();
        program
            .refold(trace, shape, catalog, slot_of)
            .then_some(program)
    }

    /// [`compile`](Self::compile) into this program, over what it held:
    /// its vectors keep their capacity, so compiling the trace it was
    /// compiled from again — the same factors and leaves, only the
    /// statistics moved — allocates nothing but the columns its dynamic
    /// leaves copy. `false` where `compile` gives `None`; the program is
    /// then unspecified.
    pub fn refold(
        &mut self,
        trace: &SelTrace,
        shape: &QueryShape,
        catalog: &Catalog,
        slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    ) -> bool {
        self.factors.clear();
        self.leaves.clear();
        self.cols.clear();
        for f in &trace.factors {
            let Some(table_index) = shape.tables.iter().position(|t| t.table == f.table) else {
                return false;
            };
            let Some(def) = catalog.table(&f.table) else {
                return false;
            };
            let dynamic = |atom: &Option<AtomicPredicate>, col| {
                dynamic_leaf(atom.as_ref()?, def, slot_of, col)
            };
            // No atom: a leaf that restricts another table, or none.
            let constant = |atom: &Option<AtomicPredicate>| {
                atom.as_ref()
                    .map_or(1.0, |atom| atom_selectivity(atom, def))
            };
            let fold = if f.leaves.iter().any(|atom| dynamic(atom, 0).is_some()) {
                // Only a factor folded at each bind keeps its leaves.
                let start = self.leaves.len();
                self.leaves.reserve_exact(f.leaves.len());
                for atom in &f.leaves {
                    let leaf = match dynamic(atom, self.cols.len() as u32) {
                        Some((leaf, column)) => {
                            self.cols.push(column.clone());
                            leaf
                        }
                        None => Leaf::Const(constant(atom)),
                    };
                    self.leaves.push(leaf);
                }
                Fold::Leaves(Arc::clone(&f.predicate), start..self.leaves.len())
            } else {
                let mut atoms = f.leaves.iter();
                Fold::Const(fold_factor(&f.predicate, def.rows, &mut || {
                    constant(atoms.next().expect("one leaf per atom"))
                }))
            };
            self.factors.push(Factor {
                table_index: table_index as u16,
                rows: def.rows,
                fold,
            });
        }
        true
    }

    /// Write into each of `shape`'s tables the `filter_sel` its factors
    /// give with `literals` bound.
    pub fn eval(&self, literals: &[Value], shape: &mut QueryShape) {
        for (i, t) in shape.tables.iter_mut().enumerate() {
            let factors = self.factors.iter().filter(|f| f.table_index as usize == i);
            let sel = factors.fold(1.0, |sel, f| {
                sel * f.sel(literals, &self.leaves, &self.cols)
            });
            t.filter_sel = sel.clamp(0.0, 1.0);
        }
    }
}

impl Factor {
    fn sel(&self, literals: &[Value], leaves: &[Leaf], cols: &[Column]) -> f64 {
        match &self.fold {
            Fold::Const(s) => *s,
            Fold::Leaves(predicate, at) => {
                let mut leaves = leaves[at.clone()].iter();
                fold_factor(predicate, self.rows, &mut || {
                    let leaf = leaves.next().expect("one leaf per atom");
                    eval_leaf(leaf, literals, cols, self.rows)
                })
            }
        }
    }
}

/// Compile one atom of a factor on `def` whose selectivity provably reads
/// a literal slot: a leaf reading the program's column `col`, with the
/// column of `def` to copy there. `None` for any other atom — a constant,
/// its selectivity left for the caller to compute. Conservative in the
/// right direction: a dynamic leaf only costs an evaluation per bind, a
/// constant one must be provably constant.
fn dynamic_leaf<'t>(
    atom: &AtomicPredicate,
    def: &'t Table,
    slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    col: u32,
) -> Option<(Leaf, &'t Column)> {
    // A range estimate reads the value only on a numeric column with a
    // range (the guard inside `cmp_selectivity` / `between_selectivity`).
    let column = atom.restricted_column().and_then(|c| def.column(&c.column));
    let column = column.filter(|c| c.ty.is_numeric() && c.stats.max > c.stats.min)?;
    let leaf = match atom {
        // Eq/Ne read only NDV; ranges read the value.
        AtomicPredicate::Cmp { op, value, .. }
            if !matches!(op, CmpOp::Eq | CmpOp::Ne) && slot_of(value).is_some() =>
        {
            Leaf::Cmp {
                col,
                op: *op,
                value: lit_ref(value, slot_of),
            }
        }
        // BETWEEN reads values iff a bound is a slot and neither is a
        // non-numeric constant (which forces the default branch
        // regardless of the other bound).
        AtomicPredicate::Between {
            low, high, negated, ..
        } if (slot_of(low).is_some() || slot_of(high).is_some())
            && !blocks_range(low, slot_of)
            && !blocks_range(high, slot_of) =>
        {
            Leaf::Between {
                col,
                low: lit_ref(low, slot_of),
                high: lit_ref(high, slot_of),
                negated: *negated,
            }
        }
        // IN-list selectivity depends only on arity (fixed per template);
        // LIKE on the pattern shape; IS NULL and opaque atoms on stats
        // alone.
        _ => return None,
    };
    Some((leaf, column))
}

/// A BETWEEN bound that is a non-numeric constant.
fn blocks_range(v: &Value, slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>) -> bool {
    slot_of(v).is_none() && !matches!(v, Value::Int(_) | Value::Float(_))
}

fn lit_ref(v: &Value, slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>) -> LitRef {
    match slot_of(v) {
        Some((slot, negate)) => LitRef::Slot { slot, negate },
        None => LitRef::Const(v.clone()),
    }
}

fn eval_leaf(leaf: &Leaf, literals: &[Value], cols: &[Column], rows: u64) -> f64 {
    let sel = match leaf {
        Leaf::Const(s) => return *s,
        Leaf::Cmp { col, op, value } => with_lit(value, literals, |v| {
            cmp_selectivity(Some(&cols[*col as usize]), *op, v)
        }),
        Leaf::Between {
            col,
            low,
            high,
            negated,
        } => with_lit(low, literals, |lo| {
            with_lit(high, literals, |hi| {
                between_selectivity(Some(&cols[*col as usize]), lo, hi, *negated)
            })
        }),
    };
    // The interpreted path clamps each atom via `atom_selectivity`.
    clamp_sel(sel, rows)
}

/// Resolve a `LitRef` to a `&Value` without heap allocation: slots borrow
/// from the literal buffer; negated slots materialise a stack-only
/// `Int`/`Float` (the bind guards reject negated non-numeric literals).
fn with_lit<R>(r: &LitRef, literals: &[Value], f: impl FnOnce(&Value) -> R) -> R {
    match r {
        LitRef::Const(v) => f(v),
        LitRef::Slot {
            slot,
            negate: false,
        } => f(&literals[*slot as usize]),
        LitRef::Slot { slot, negate: true } => match &literals[*slot as usize] {
            Value::Int(i) => f(&Value::Int(-i)),
            Value::Float(x) => f(&Value::Float(-x)),
            other => f(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Column as Col, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("account", 100_000)
                .column(Col::int("id", 100_000))
                .column(Col::int("branch", 100))
                .column(Col::float("balance", 5_000, 0.0, 1_000_000.0))
                .column(Col::text("owner", 90_000, 16))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("branch", 100)
                .column(Col::int("bid", 100))
                .column(Col::int("region", 10))
                .build()
                .unwrap(),
        );
        c
    }

    /// Compile a template's trace with sentinels standing in for the
    /// literals, then check that evaluating the program with *real*
    /// literals reproduces `QueryShape::extract` on the real statement,
    /// bit for bit.
    fn assert_program_matches(template_sql: &str, real_sql: &str, literals: Vec<Value>) {
        const SENTINEL_BASE: i64 = 9_100_000_000_000_000;
        let c = catalog();
        let tmpl = parse_statement(template_sql).unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= SENTINEL_BASE => Some(((*i - SENTINEL_BASE) as u16, false)),
                Value::Int(i) if *i <= -SENTINEL_BASE => Some(((-*i - SENTINEL_BASE) as u16, true)),
                _ => None,
            }
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).expect("compiles");
        let mut bound = shape.clone();
        prog.eval(&literals, &mut bound);

        let real = parse_statement(real_sql).unwrap();
        let expect = QueryShape::extract(&real, &c);
        assert_eq!(bound.tables.len(), expect.tables.len());
        for (b, t) in bound.tables.iter().zip(&expect.tables) {
            assert_eq!(
                b.filter_sel.to_bits(),
                t.filter_sel.to_bits(),
                "filter_sel drift on table {} ({} vs {})",
                t.table,
                b.filter_sel,
                t.filter_sel
            );
        }
    }

    #[test]
    fn program_reproduces_interpreted_filter_sel() {
        // Slot k is encoded as SENTINEL_BASE + k in the template text.
        assert_program_matches(
            "SELECT * FROM account WHERE branch = 9100000000000000 AND \
             balance > 9100000000000001",
            "SELECT * FROM account WHERE branch = 7 AND balance > 250000",
            vec![Value::Int(7), Value::Int(250_000)],
        );
        assert_program_matches(
            "SELECT * FROM account WHERE balance BETWEEN 9100000000000000 AND 9100000000000001",
            "SELECT * FROM account WHERE balance BETWEEN 1000 AND 90000",
            vec![Value::Int(1000), Value::Int(90_000)],
        );
        // OR / NOT structure with a mixed dynamic + constant leaf.
        assert_program_matches(
            "SELECT * FROM account WHERE balance < 9100000000000000 OR NOT (branch = 9100000000000001)",
            "SELECT * FROM account WHERE balance < 5000 OR NOT (branch = 3)",
            vec![Value::Int(5000), Value::Int(3)],
        );
        // Join query touching two tables.
        assert_program_matches(
            "SELECT * FROM account a, branch b WHERE a.branch = b.bid AND \
             b.region = 9100000000000000 AND a.balance >= 9100000000000001",
            "SELECT * FROM account a, branch b WHERE a.branch = b.bid AND \
             b.region = 4 AND a.balance >= 123.5",
            vec![Value::Int(4), Value::Float(123.5)],
        );
    }

    #[test]
    fn negated_slots_evaluate_with_sign_applied() {
        // Template encodes `balance > -$0` as Int(-(SENTINEL_BASE + 0)).
        assert_program_matches(
            "SELECT * FROM account WHERE balance > -9100000000000000",
            "SELECT * FROM account WHERE balance > -50",
            vec![Value::Int(50)],
        );
    }

    #[test]
    fn value_independent_template_is_constant() {
        let c = catalog();
        let tmpl = parse_statement(
            "SELECT * FROM account WHERE branch = 9100000000000000 AND owner IS NOT NULL",
        )
        .unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        // Eq depends only on NDV, IS NULL only on stats: fully foldable.
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            matches!(v, Value::Int(i) if *i >= 9_100_000_000_000_000).then_some((0, false))
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).unwrap();
        let folded = |f: &Factor| matches!(f.fold, Fold::Const(_));
        assert!(
            prog.factors.iter().all(folded),
            "Eq + IS NULL folds entirely"
        );
        assert!(prog.cols.is_empty(), "a folded leaf keeps no column");
        let mut bound = shape.clone();
        prog.eval(&[Value::Int(3)], &mut bound);
        assert_eq!(
            bound, shape,
            "a constant program binds the skeleton's selectivities"
        );
    }

    #[test]
    fn only_range_leaves_on_literal_slots_stay_dynamic() {
        let c = catalog();
        let tmpl = parse_statement(
            "SELECT * FROM account WHERE balance > 9100000000000000 OR branch = 9100000000000001",
        )
        .unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= 9_100_000_000_000_000 => {
                    Some(((*i - 9_100_000_000_000_000) as u16, false))
                }
                _ => None,
            }
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).unwrap();
        assert_eq!(prog.cols.len(), 1, "only the range leaf's column is kept");
        let [Factor {
            fold: Fold::Leaves(_, at),
            ..
        }] = prog.factors.as_slice()
        else {
            panic!("one factor, folded at each bind: {:?}", prog.factors);
        };
        assert!(matches!(
            prog.leaves[at.clone()],
            [Leaf::Cmp { .. }, Leaf::Const(_)]
        ));
    }

    /// Compiling a program's own trace again after its table grew equals
    /// compiling it afresh, and keeps its vectors where they were.
    #[test]
    fn a_refold_equals_a_fresh_compile_in_the_same_buffers() {
        let mut c = catalog();
        let tmpl = parse_statement(
            "SELECT * FROM account WHERE balance > 9100000000000000 AND branch = 9100000000000001",
        )
        .unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= 9_100_000_000_000_000 => {
                    Some(((*i - 9_100_000_000_000_000) as u16, false))
                }
                _ => None,
            }
        };
        let mut prog = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).unwrap();
        let buffers = |p: &TemplateSelProgram| (p.factors.as_ptr(), p.leaves.as_ptr());
        let before = buffers(&prog);
        c.grow_table("account", 400_000).unwrap();
        assert!(prog.refold(&trace, &shape, &c, &slot_of));
        assert_eq!(buffers(&prog), before);
        let fresh = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).unwrap();
        assert_eq!(prog, fresh);
        assert_ne!(prog.factors[0].rows, 100_000, "the growth is folded in");
    }

    /// The only scratch `eval` has is the bound clone itself: it writes
    /// each table's `filter_sel` in place and grows nothing (the counted
    /// zero is `index_view_counts.rs`'s steady-state fast-path test).
    #[test]
    fn eval_is_allocation_free_on_reused_scratch() {
        let c = catalog();
        let tmpl =
            parse_statement("SELECT * FROM account WHERE balance > 9100000000000000").unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            matches!(v, Value::Int(i) if *i >= 9_100_000_000_000_000).then_some((0, false))
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &c, &slot_of).unwrap();
        assert_eq!(prog.cols.len(), 1, "only the range leaf's column is kept");
        let capacities = |s: &QueryShape| (s.tables.capacity(), s.tables[0].all_atoms.capacity());
        let mut bound = shape.clone();
        for v in [10.0, 500_000.0, 999_999.0] {
            prog.eval(&[Value::Float(v)], &mut bound);
        }
        let warm = capacities(&bound);
        for i in 0..100 {
            prog.eval(&[Value::Int(i)], &mut bound);
        }
        assert_eq!(capacities(&bound), warm);
    }
}
