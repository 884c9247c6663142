//! Compiled selectivity programs.
//!
//! The interpreted estimator path resolves every predicate's column *by
//! name* against the catalog on every evaluation. For the template fast
//! path that is wasted work: a template's predicate structure is fixed, so
//! column resolution, statistics lookup, and every value-independent
//! selectivity factor can be done **once at compile time**, leaving only
//! the literal-dependent leaves to evaluate per statement — batched over a
//! flat program instead of a per-predicate tree walk.
//!
//! [`TemplateSelProgram`] is a [`SelTrace`] (from
//! `QueryShape::extract_traced`) folded against one catalog state into
//! flat postfix programs, one per `(predicate, table)` factor.
//! Value-independent subtrees are const-folded; literal-dependent leaves
//! index the program's own copy of the columns they read and evaluate via
//! the *same* `autoindex_storage::selectivity` primitives as the
//! interpreted path, so results are bit-identical. The program reads
//! nothing outside itself: when a table it touches grows, the kept trace
//! is folded again and nothing else is rebuilt.

use autoindex_sql::predicate::AtomicPredicate;
use autoindex_sql::{CmpOp, Value};
use autoindex_storage::catalog::{Catalog, Column, Table};
use autoindex_storage::selectivity::{between_selectivity, clamp_sel, cmp_selectivity};
use autoindex_storage::shape::{SelTrace, SelTree};
use autoindex_storage::QueryShape;

/// Where a literal-dependent leaf gets its value at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub enum LitRef {
    /// `literals[slot]`, negated (unary minus in the statement) if set.
    Slot { slot: u16, negate: bool },
    /// A constant baked into the template text.
    Const(Value),
}

/// A literal-dependent selectivity leaf; `col` indexes the program's own
/// column copies.
#[derive(Debug, Clone, PartialEq)]
pub enum DynLeaf {
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

/// One postfix instruction of a factor program.
#[derive(Debug, Clone, PartialEq)]
enum SelOp {
    /// Push a compile-time-folded selectivity.
    Const(f64),
    /// Push a literal-dependent leaf's selectivity.
    Leaf(DynLeaf),
    /// Pop `n`, push their product floored at `1/rows`.
    AndN(u16),
    /// Pop `n`, push `1 - ∏(1 - s)` clamped to `[0, 1]`.
    OrN(u16),
    /// Pop one, push `1 - s`.
    Not,
}

/// One `(predicate, table)` selectivity factor, compiled.
#[derive(Debug, Clone, PartialEq)]
struct FactorProgram {
    /// Index of the factor's table in the shape's `tables` vector.
    table_index: u16,
    /// Row count of that table (clamp floor).
    rows: u64,
    /// Postfix ops; a fully folded factor is a single `Const`.
    ops: Vec<SelOp>,
}

/// A compiled selectivity program for one template: evaluates every
/// literal-dependent factor of the template's `filter_sel`s in one flat
/// pass, writing per-table selectivities bit-identical to what
/// `QueryShape::extract` would compute for the same literals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateSelProgram {
    factors: Vec<FactorProgram>,
    /// Number of tables in the template's shape (length of the output).
    n_tables: u16,
    /// The columns the literal-dependent leaves read, as the catalog had
    /// them at compile time, in first-use order.
    cols: Vec<Column>,
}

impl TemplateSelProgram {
    /// Fold `trace` (recorded against the template's sentinel-parsed
    /// statement) against `catalog` into a flat program. `slot_of` maps a
    /// sentinel literal value back to its literal-buffer slot (`None` = a
    /// real constant). The result depends on the statistics of the tables
    /// `trace` names and on nothing else, so it stays exact until one of
    /// them changes. Returns `None` when a factor's table is missing from
    /// the shape or catalog — callers fall back to the interpreted path.
    pub fn compile(
        trace: &SelTrace,
        shape: &QueryShape,
        catalog: &Catalog,
        slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    ) -> Option<TemplateSelProgram> {
        let mut factors = Vec::with_capacity(trace.factors.len());
        let mut cols = Vec::new();
        for (table, tree) in &trace.factors {
            let table_index = shape.tables.iter().position(|t| &t.table == table)?;
            let def = catalog.table(table)?;
            let mut ops = Vec::new();
            compile_tree(tree, def, slot_of, &mut cols, &mut ops)?;
            // Most factors fold to one constant; the program is long-lived.
            ops.shrink_to_fit();
            factors.push(FactorProgram {
                table_index: table_index as u16,
                rows: def.rows,
                ops,
            });
        }
        Some(TemplateSelProgram {
            factors,
            n_tables: shape.tables.len() as u16,
            cols,
        })
    }

    /// True when every factor const-folded (no literal-dependent leaves):
    /// the template's `filter_sel`s never change between statements.
    pub fn is_constant(&self) -> bool {
        self.factors
            .iter()
            .all(|f| matches!(f.ops.as_slice(), [SelOp::Const(_)]))
    }

    /// Evaluate with `literals` bound, writing one `filter_sel` per shape
    /// table into `out` (resized and reset by this call). `stack` is caller
    /// scratch, reused across calls to stay allocation-free at steady state.
    pub fn eval_into(&self, literals: &[Value], out: &mut Vec<f64>, stack: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_tables as usize, 1.0);
        for f in &self.factors {
            stack.clear();
            for op in &f.ops {
                match op {
                    SelOp::Const(s) => stack.push(*s),
                    SelOp::Leaf(leaf) => stack.push(eval_leaf(leaf, literals, &self.cols, f.rows)),
                    SelOp::AndN(n) => {
                        let at = stack.len() - *n as usize;
                        let mut sel = 1.0;
                        for s in &stack[at..] {
                            sel *= *s;
                        }
                        stack.truncate(at);
                        stack.push(sel.max(1.0 / f.rows.max(1) as f64));
                    }
                    SelOp::OrN(n) => {
                        let at = stack.len() - *n as usize;
                        let mut not_sel = 1.0;
                        for s in &stack[at..] {
                            not_sel *= 1.0 - *s;
                        }
                        stack.truncate(at);
                        stack.push((1.0 - not_sel).clamp(0.0, 1.0));
                    }
                    SelOp::Not => {
                        let s = stack.pop().expect("well-formed program");
                        stack.push(1.0 - s);
                    }
                }
            }
            debug_assert_eq!(stack.len(), 1, "factor program leaves one value");
            out[f.table_index as usize] *= stack[0];
        }
        for s in out.iter_mut() {
            *s = s.clamp(0.0, 1.0);
        }
    }
}

/// The column of `def` an atom restricts (atoms in a [`SelTree`] are
/// normalised to bare column names on the tree's own table).
fn atom_column<'a>(atom: &AtomicPredicate, def: &'a Table) -> Option<&'a Column> {
    def.column(&atom.restricted_column()?.column)
}

/// Whether a range estimate on this column actually reads the value
/// (mirrors the guard inside `cmp_selectivity` / `between_selectivity`).
fn col_qualifies(col: &Column) -> bool {
    col.ty.is_numeric() && col.stats.max > col.stats.min
}

/// Compile one subtree, appending postfix ops. Value-independent subtrees
/// fold to a single `Const` computed by `SelTree::eval` — the same
/// arithmetic the interpreted path runs, so folding cannot change bits.
fn compile_tree(
    tree: &SelTree,
    def: &Table,
    slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    cols: &mut Vec<Column>,
    ops: &mut Vec<SelOp>,
) -> Option<()> {
    if !tree_depends_on_literals(tree, def, slot_of) {
        ops.push(SelOp::Const(tree.eval(def)));
        return Some(());
    }
    match tree {
        SelTree::And(children) => {
            for c in children {
                compile_tree(c, def, slot_of, cols, ops)?;
            }
            ops.push(SelOp::AndN(children.len() as u16));
        }
        SelTree::Or(children) => {
            for c in children {
                compile_tree(c, def, slot_of, cols, ops)?;
            }
            ops.push(SelOp::OrN(children.len() as u16));
        }
        SelTree::Not(inner) => {
            compile_tree(inner, def, slot_of, cols, ops)?;
            ops.push(SelOp::Not);
        }
        SelTree::Atom(atom) => {
            let col = cols.len() as u32;
            cols.push(atom_column(atom, def)?.clone());
            let leaf = match atom {
                AtomicPredicate::Cmp { op, value, .. } => DynLeaf::Cmp {
                    col,
                    op: *op,
                    value: lit_ref(value, slot_of),
                },
                AtomicPredicate::Between {
                    low, high, negated, ..
                } => DynLeaf::Between {
                    col,
                    low: lit_ref(low, slot_of),
                    high: lit_ref(high, slot_of),
                    negated: *negated,
                },
                // Every other atom kind is value-independent and was
                // handled by the const fold above.
                _ => return None,
            };
            ops.push(SelOp::Leaf(leaf));
        }
        SelTree::One => ops.push(SelOp::Const(1.0)),
    }
    Some(())
}

fn lit_ref(v: &Value, slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>) -> LitRef {
    match slot_of(v) {
        Some((slot, negate)) => LitRef::Slot { slot, negate },
        None => LitRef::Const(v.clone()),
    }
}

/// Whether any leaf under `tree` produces a different selectivity for
/// different literal bindings. Conservative in the right direction: a
/// `true` only costs a dynamic leaf, a `false` must be provably constant.
fn tree_depends_on_literals(
    tree: &SelTree,
    def: &Table,
    slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
) -> bool {
    match tree {
        SelTree::And(children) | SelTree::Or(children) => children
            .iter()
            .any(|c| tree_depends_on_literals(c, def, slot_of)),
        SelTree::Not(inner) => tree_depends_on_literals(inner, def, slot_of),
        SelTree::One => false,
        SelTree::Atom(atom) => {
            let qualifies = atom_column(atom, def).is_some_and(col_qualifies);
            match atom {
                // Eq/Ne read only NDV; ranges read the value iff the
                // column has usable numeric bounds.
                AtomicPredicate::Cmp { op, value, .. } => {
                    !matches!(op, CmpOp::Eq | CmpOp::Ne) && qualifies && slot_of(value).is_some()
                }
                // BETWEEN reads values iff the column qualifies and
                // neither bound is a non-numeric constant (which forces
                // the default branch regardless of the other bound).
                AtomicPredicate::Between { low, high, .. } => {
                    let bound_blocks = |v: &Value| {
                        slot_of(v).is_none() && !matches!(v, Value::Int(_) | Value::Float(_))
                    };
                    qualifies
                        && (slot_of(low).is_some() || slot_of(high).is_some())
                        && !bound_blocks(low)
                        && !bound_blocks(high)
                }
                // IN-list selectivity depends only on arity (fixed per
                // template); LIKE on the pattern shape; IS NULL and
                // opaque atoms on stats alone.
                _ => false,
            }
        }
    }
}

fn eval_leaf(leaf: &DynLeaf, literals: &[Value], cols: &[Column], rows: u64) -> f64 {
    let sel = match leaf {
        DynLeaf::Cmp { col, op, value } => with_lit(value, literals, |v| {
            cmp_selectivity(Some(&cols[*col as usize]), *op, v)
        }),
        DynLeaf::Between {
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
        let mut out = Vec::new();
        let mut stack = Vec::new();
        prog.eval_into(&literals, &mut out, &mut stack);

        let real = parse_statement(real_sql).unwrap();
        let expect = QueryShape::extract(&real, &c);
        assert_eq!(out.len(), expect.tables.len());
        for (i, t) in expect.tables.iter().enumerate() {
            assert_eq!(
                out[i].to_bits(),
                t.filter_sel.to_bits(),
                "filter_sel drift on table {} ({} vs {})",
                t.table,
                out[i],
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
        assert!(prog.is_constant(), "Eq + IS NULL folds entirely");
        assert!(prog.cols.is_empty(), "a folded leaf keeps no column");
    }

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
        let mut out = Vec::with_capacity(4);
        let mut stack = Vec::with_capacity(8);
        // Warm up, then check capacities never grow (proxy for no realloc).
        for v in [10.0, 500_000.0, 999_999.0] {
            prog.eval_into(&[Value::Float(v)], &mut out, &mut stack);
        }
        let (co, cs) = (out.capacity(), stack.capacity());
        for i in 0..100 {
            prog.eval_into(&[Value::Int(i)], &mut out, &mut stack);
        }
        assert_eq!(out.capacity(), co);
        assert_eq!(stack.capacity(), cs);
    }
}
