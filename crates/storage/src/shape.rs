//! Query shape extraction: the indexing-relevant structure of a statement.
//!
//! The planner and the candidate generator both need the same view of a
//! query: *which base tables are touched, with which sargable restrictions,
//! joined along which edges, grouped/ordered on which columns, writing
//! what*. [`QueryShape::extract`] computes that once, resolving aliases
//! against the statement and attributing unqualified columns via the
//! catalog. Subqueries (EXISTS / IN / derived tables) are flattened into
//! the same shape: their tables are scanned and semi-joined just like
//! top-level ones, which is exactly why the paper's Q32 example needs
//! indexes on *both* the outer and the subquery table.

use crate::catalog::{Catalog, Table};
use crate::selectivity::atom_selectivity;
use autoindex_sql::predicate::{collect_atoms, AtomicPredicate};
use autoindex_sql::{ColumnRef, Predicate, SelectStatement, Statement, TableRef};
use std::collections::HashMap;

/// The kind of write a statement performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    Update,
    Delete,
}

/// Write target summary.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteShape {
    pub kind: WriteKind,
    pub table: String,
    /// Columns assigned by `SET` (UPDATE only).
    pub set_columns: Vec<String>,
    /// Rows inserted (INSERT only; UPDATE/DELETE row counts come from the
    /// WHERE selectivity at plan time).
    pub inserted_rows: u64,
}

/// An equi-join edge between two resolved base-table columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    pub left_table: String,
    pub left_column: String,
    pub right_table: String,
    pub right_column: String,
}

/// Per-base-table filter information.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAtoms {
    pub table: String,
    /// Atoms in top-level conjunctive position — the ones an index prefix
    /// can match. Column refs are normalised to bare column names.
    pub conjuncts: Vec<AtomicPredicate>,
    /// All filter atoms on this table, conjunctive or not (used for
    /// residual-filter CPU costing and candidate generation fallbacks).
    pub all_atoms: Vec<AtomicPredicate>,
    /// DNF conjunct groups on this table (§IV-A: predicates are rewritten
    /// to Disjunctive Normal Form and each conjunct yields one composite
    /// candidate index). Each inner vector is the sargable atoms of one
    /// DNF conjunct restricted to this table.
    pub conjunct_groups: Vec<Vec<AtomicPredicate>>,
    /// Combined selectivity of the full boolean filter on this table.
    pub filter_sel: f64,
    /// GROUP BY columns on this table, in clause order.
    pub group_columns: Vec<String>,
    /// ORDER BY columns on this table, in clause order.
    pub order_columns: Vec<String>,
    /// Per-`order_columns` entry: `true` when that key is `DESC`. Always
    /// aligned with `order_columns` (GROUP BY keys have no direction).
    pub order_desc: Vec<bool>,
    /// Every column of this table the statement references (projection,
    /// predicates, grouping, ordering). With [`TableAtoms::whole_row`]
    /// false, an index containing all of them supports an index-only scan.
    pub referenced_columns: Vec<String>,
    /// The statement needs whole rows from this table (`SELECT *`).
    pub whole_row: bool,
}

/// The complete shape of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryShape {
    /// One entry per distinct base table touched (top level + subqueries),
    /// in first-touch order.
    pub tables: Vec<TableAtoms>,
    /// Equi-join edges (including semi-join edges into subqueries).
    pub joins: Vec<JoinEdge>,
    /// Write summary if the statement is a write.
    pub write: Option<WriteShape>,
    /// Number of subqueries flattened into this shape.
    pub subquery_count: usize,
    /// LIMIT, if present on the top-level select.
    pub limit: Option<u64>,
}

/// One table's selectivity factor, mirroring the recursion of
/// `sel_for_table` with the resolved atoms at the leaves.
///
/// [`QueryShape::extract_traced`] records one tree per
/// `(predicate, touched table)` application; evaluating a tree with
/// [`SelTree::eval`] reproduces `sel_for_table` bit-for-bit. The estimator
/// compiles these trees into flat selectivity programs so the template fast
/// path can recompute `filter_sel` for fresh literals without re-walking
/// the predicate (or re-parsing the statement).
#[derive(Debug, Clone, PartialEq)]
pub enum SelTree {
    /// Product of children, floored at `1/rows`.
    And(Vec<SelTree>),
    /// `1 - ∏(1 - s)`, clamped to `[0, 1]`.
    Or(Vec<SelTree>),
    /// `1 - s`.
    Not(Box<SelTree>),
    /// A resolved, normalised atom on this tree's table.
    Atom(AtomicPredicate),
    /// An atom that does not restrict this table (other table, join edge,
    /// unresolved column): constant `1.0`.
    One,
}

impl SelTree {
    /// Evaluate against `table_def`, reproducing `sel_for_table` exactly.
    pub fn eval(&self, table_def: &Table) -> f64 {
        match self {
            SelTree::And(children) => {
                let mut sel = 1.0;
                for c in children {
                    sel *= c.eval(table_def);
                }
                sel.max(1.0 / table_def.rows.max(1) as f64)
            }
            SelTree::Or(children) => {
                let mut not_sel = 1.0;
                for c in children {
                    not_sel *= 1.0 - c.eval(table_def);
                }
                (1.0 - not_sel).clamp(0.0, 1.0)
            }
            SelTree::Not(inner) => 1.0 - inner.eval(table_def),
            SelTree::Atom(a) => atom_selectivity(a, table_def),
            SelTree::One => 1.0,
        }
    }
}

/// The ordered selectivity factors recorded by
/// [`QueryShape::extract_traced`]: one `(table, factor tree)` pair per
/// predicate-application, in the exact order `filter_sel` multiplied them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelTrace {
    pub factors: Vec<(String, SelTree)>,
}

impl QueryShape {
    /// Extract the shape of `stmt` against `catalog`.
    pub fn extract(stmt: &Statement, catalog: &Catalog) -> QueryShape {
        Self::extract_inner(stmt, catalog, false).0
    }

    /// Like [`QueryShape::extract`], additionally recording the per-table
    /// selectivity factor trees (see [`SelTrace`]). The returned shape is
    /// identical to the untraced one — `SelTree::eval` performs the same
    /// arithmetic `sel_for_table` does, in the same order.
    pub fn extract_traced(stmt: &Statement, catalog: &Catalog) -> (QueryShape, SelTrace) {
        let (shape, trace) = Self::extract_inner(stmt, catalog, true);
        (shape, trace.expect("trace requested"))
    }

    fn extract_inner(
        stmt: &Statement,
        catalog: &Catalog,
        traced: bool,
    ) -> (QueryShape, Option<SelTrace>) {
        let mut b = ShapeBuilder::new(catalog);
        if traced {
            b.trace = Some(SelTrace::default());
        }
        match stmt {
            Statement::Select(s) => {
                b.walk_select(s, &Bindings::empty());
                b.finish(None, s.limit)
            }
            Statement::Insert(i) => {
                let write = WriteShape {
                    kind: WriteKind::Insert,
                    table: i.table.clone(),
                    set_columns: i.columns.clone(),
                    inserted_rows: i.rows.len().max(1) as u64,
                };
                b.touch_table(&i.table);
                b.finish(Some(write), None)
            }
            Statement::Update(u) => {
                let bindings = Bindings::single(&u.table);
                if let Some(w) = &u.where_clause {
                    b.walk_predicate(w, &bindings, u.table.as_str());
                }
                b.touch_table(&u.table);
                let write = WriteShape {
                    kind: WriteKind::Update,
                    table: u.table.clone(),
                    set_columns: u.sets.iter().map(|s| s.column.clone()).collect(),
                    inserted_rows: 0,
                };
                b.finish(Some(write), None)
            }
            Statement::Delete(d) => {
                let bindings = Bindings::single(&d.table);
                if let Some(w) = &d.where_clause {
                    b.walk_predicate(w, &bindings, d.table.as_str());
                }
                b.touch_table(&d.table);
                let write = WriteShape {
                    kind: WriteKind::Delete,
                    table: d.table.clone(),
                    set_columns: Vec::new(),
                    inserted_rows: 0,
                };
                b.finish(Some(write), None)
            }
        }
    }

    /// The shape entry for `table`, if touched.
    pub fn table(&self, name: &str) -> Option<&TableAtoms> {
        self.tables.iter().find(|t| t.table == name)
    }

    /// Whether the statement reads (every statement except bare INSERT).
    pub fn has_read_side(&self) -> bool {
        self.tables.iter().any(|t| !t.all_atoms.is_empty())
            || self.write.is_none()
            || !self.joins.is_empty()
    }
}

/// Alias→base-table bindings, one frame per nesting level (inner frames
/// shadow outer ones; outer frames stay visible for correlated columns).
#[derive(Debug, Clone)]
struct Bindings {
    frames: Vec<HashMap<String, String>>,
}

impl Bindings {
    fn empty() -> Self {
        Bindings { frames: Vec::new() }
    }

    fn single(table: &str) -> Self {
        let mut m = HashMap::new();
        m.insert(table.to_string(), table.to_string());
        Bindings { frames: vec![m] }
    }

    fn push_frame(&self, frame: HashMap<String, String>) -> Self {
        let mut frames = self.frames.clone();
        frames.push(frame);
        Bindings { frames }
    }

    /// Resolve a binding name to a base table, innermost frame first.
    fn resolve_binding(&self, name: &str) -> Option<&str> {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.get(name).map(|s| s.as_str()))
    }

    /// All visible base tables, innermost first.
    fn visible_tables(&self) -> impl Iterator<Item = &str> {
        self.frames
            .iter()
            .rev()
            .flat_map(|f| f.values())
            .map(|s| s.as_str())
    }
}

struct ShapeBuilder<'a> {
    catalog: &'a Catalog,
    tables: Vec<TableAtoms>,
    order: HashMap<String, usize>,
    joins: Vec<JoinEdge>,
    subquery_count: usize,
    /// When set, `accumulate_filter_sel` records each factor tree here.
    trace: Option<SelTrace>,
}

impl<'a> ShapeBuilder<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        ShapeBuilder {
            catalog,
            tables: Vec::new(),
            order: HashMap::new(),
            joins: Vec::new(),
            subquery_count: 0,
            trace: None,
        }
    }

    fn entry(&mut self, table: &str) -> &mut TableAtoms {
        let idx = *self.order.entry(table.to_string()).or_insert_with(|| {
            self.tables.push(TableAtoms {
                table: table.to_string(),
                conjuncts: Vec::new(),
                all_atoms: Vec::new(),
                conjunct_groups: Vec::new(),
                filter_sel: 1.0,
                group_columns: Vec::new(),
                order_columns: Vec::new(),
                order_desc: Vec::new(),
                referenced_columns: Vec::new(),
                whole_row: false,
            });
            self.tables.len() - 1
        });
        &mut self.tables[idx]
    }

    fn touch_table(&mut self, table: &str) {
        let _ = self.entry(table);
    }

    /// Resolve a column reference to `(base_table, column)`.
    fn resolve(&self, col: &ColumnRef, bindings: &Bindings) -> Option<(String, String)> {
        if let Some(t) = &col.table {
            let base = bindings.resolve_binding(t)?;
            return Some((base.to_string(), col.column.clone()));
        }
        // Unqualified: first visible table whose catalog entry has the column.
        for t in bindings.visible_tables() {
            if let Some(table) = self.catalog.table(t) {
                if table.column(&col.column).is_some() {
                    return Some((t.to_string(), col.column.clone()));
                }
            }
        }
        // Fall back to the innermost single binding (schema may be unknown).
        let mut it = bindings.visible_tables();
        match (it.next(), it.next()) {
            (Some(only), None) => Some((only.to_string(), col.column.clone())),
            _ => None,
        }
    }

    fn walk_select(&mut self, sel: &SelectStatement, outer: &Bindings) {
        // Build this level's binding frame.
        let mut frame = HashMap::new();
        for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.relation)) {
            match t {
                TableRef::Table { name, alias } => {
                    frame.insert(alias.clone().unwrap_or_else(|| name.clone()), name.clone());
                    self.touch_table(name);
                }
                TableRef::Derived { query, .. } => {
                    self.subquery_count += 1;
                    self.walk_select(query, outer);
                }
            }
        }
        let bindings = outer.push_frame(frame);

        // WHERE, HAVING, JOIN ... ON all contribute atoms.
        let preds = sel
            .where_clause
            .iter()
            .chain(sel.having.iter())
            .chain(sel.joins.iter().filter_map(|j| j.on.as_ref()));
        for p in preds {
            self.walk_predicate_multi(p, &bindings);
            // Recurse into predicate subqueries (EXISTS / IN (SELECT ...)).
            for sub in p.subqueries() {
                self.subquery_count += 1;
                self.walk_select(sub, &bindings);
            }
            // `col IN (SELECT proj FROM ...)` is a semi-join: record the
            // edge between the outer column and the subquery's projection,
            // so the planner can drive a lookup join through it (the Q32
            // decorrelation pattern).
            self.record_semijoin_edges(p, &bindings);
        }

        // GROUP BY / ORDER BY columns.
        for c in &sel.group_by {
            if let Some((t, col)) = self.resolve(c, &bindings) {
                self.entry(&t).group_columns.push(col.clone());
                self.reference(&t, &col);
            }
        }
        for o in &sel.order_by {
            if let Some((t, col)) = self.resolve(&o.column, &bindings) {
                let entry = self.entry(&t);
                entry.order_columns.push(col.clone());
                entry.order_desc.push(o.descending);
                self.reference(&t, &col);
            }
        }

        // Projection: referenced columns / whole-row markers, for
        // index-only-scan eligibility.
        for item in &sel.projection {
            match item {
                autoindex_sql::SelectItem::Star => {
                    for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.relation)) {
                        if let TableRef::Table { name, .. } = t {
                            self.entry(name).whole_row = true;
                        }
                    }
                }
                autoindex_sql::SelectItem::Column(c) => {
                    if let Some((t, col)) = self.resolve(c, &bindings) {
                        self.reference(&t, &col);
                    }
                }
                autoindex_sql::SelectItem::Aggregate { arg: Some(c), .. } => {
                    if let Some((t, col)) = self.resolve(c, &bindings) {
                        self.reference(&t, &col);
                    }
                }
                autoindex_sql::SelectItem::Aggregate { arg: None, .. } => {}
            }
        }
    }

    /// Record that the statement touches `table.column`.
    fn reference(&mut self, table: &str, column: &str) {
        let entry = self.entry(table);
        if !entry.referenced_columns.iter().any(|c| c == column) {
            entry.referenced_columns.push(column.to_string());
        }
    }

    /// Walk a predicate whose columns may span several bound tables.
    fn walk_predicate_multi(&mut self, p: &Predicate, bindings: &Bindings) {
        // Conjunctive atoms: reachable through AND-only paths.
        let mut conjunctive = Vec::new();
        collect_conjunctive(p, &mut conjunctive);
        let conj_set: Vec<AtomicPredicate> = conjunctive;

        for atom in collect_atoms(p) {
            self.record_atom(&atom, bindings, conj_set.contains(&atom));
        }
        self.record_conjunct_groups(p, bindings);
        self.accumulate_filter_sel(p, bindings);
    }

    /// DNF the predicate and record, per table, the sargable atoms of each
    /// DNF conjunct (§IV-A). On DNF blow-up, fall back to treating every
    /// atom as its own singleton conjunct.
    fn record_conjunct_groups(&mut self, p: &Predicate, bindings: &Bindings) {
        use autoindex_sql::predicate::to_dnf;
        let conjuncts: Vec<Vec<AtomicPredicate>> = match to_dnf(p) {
            Ok(dnf) => dnf.conjuncts,
            Err(_) => collect_atoms(p).into_iter().map(|a| vec![a]).collect(),
        };
        for conj in conjuncts {
            // Group this conjunct's sargable atoms by resolved table.
            let mut per_table: Vec<(String, Vec<AtomicPredicate>)> = Vec::new();
            for atom in conj {
                if !atom.is_sargable() || atom.join_edge().is_some() {
                    continue;
                }
                let Some(colref) = atom.restricted_column() else {
                    continue;
                };
                let Some((table, column)) = self.resolve(colref, bindings) else {
                    continue;
                };
                let normalised = normalise_atom(&atom, &column);
                match per_table.iter_mut().find(|(t, _)| *t == table) {
                    Some((_, v)) => v.push(normalised),
                    None => per_table.push((table, vec![normalised])),
                }
            }
            for (table, atoms) in per_table {
                if !atoms.is_empty() {
                    let entry = self.entry(&table);
                    if !entry.conjunct_groups.contains(&atoms) {
                        entry.conjunct_groups.push(atoms);
                    }
                }
            }
        }
    }

    /// Walk a single-table predicate (UPDATE/DELETE WHERE).
    fn walk_predicate(&mut self, p: &Predicate, bindings: &Bindings, table: &str) {
        self.touch_table(table);
        self.walk_predicate_multi(p, bindings);
        // Subqueries inside write predicates.
        for sub in p.subqueries() {
            self.subquery_count += 1;
            self.walk_select(sub, bindings);
        }
    }

    /// Record semi-join edges for `col IN (SELECT proj FROM t ...)` atoms
    /// anywhere in the predicate tree.
    fn record_semijoin_edges(&mut self, p: &Predicate, bindings: &Bindings) {
        match p {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for c in ps {
                    self.record_semijoin_edges(c, bindings);
                }
            }
            Predicate::Not(inner) => self.record_semijoin_edges(inner, bindings),
            Predicate::InSubquery {
                column,
                query,
                negated: false,
            } => {
                // Outer side.
                let Some((ot, oc)) = self.resolve(column, bindings) else {
                    return;
                };
                // Inner side: the subquery's (single-column) projection,
                // resolved inside the subquery's own binding frame.
                let inner_col = query.projection.iter().find_map(|item| match item {
                    autoindex_sql::SelectItem::Column(c) => Some(c.clone()),
                    _ => None,
                });
                let Some(ic) = inner_col else { return };
                let mut frame = HashMap::new();
                for t in query
                    .from
                    .iter()
                    .chain(query.joins.iter().map(|j| &j.relation))
                {
                    if let TableRef::Table { name, alias } = t {
                        frame.insert(alias.clone().unwrap_or_else(|| name.clone()), name.clone());
                    }
                }
                let sub_bindings = bindings.push_frame(frame);
                let Some((it, icol)) = self.resolve(&ic, &sub_bindings) else {
                    return;
                };
                if it != ot {
                    self.touch_table(&ot);
                    self.touch_table(&it);
                    self.joins.push(JoinEdge {
                        left_table: ot,
                        left_column: oc,
                        right_table: it,
                        right_column: icol,
                    });
                }
            }
            _ => {}
        }
    }

    fn record_atom(&mut self, atom: &AtomicPredicate, bindings: &Bindings, conjunctive: bool) {
        if let Some((l, r)) = atom.join_edge() {
            let lr = self.resolve(l, bindings);
            let rr = self.resolve(r, bindings);
            match (lr, rr) {
                (Some((lt, lc)), Some((rt, rc))) if lt != rt => {
                    self.touch_table(&lt);
                    self.touch_table(&rt);
                    self.reference(&lt, &lc);
                    self.reference(&rt, &rc);
                    self.joins.push(JoinEdge {
                        left_table: lt,
                        left_column: lc,
                        right_table: rt,
                        right_column: rc,
                    });
                }
                (Some((lt, lc)), Some((_, rc))) => {
                    // Same-table comparison: record as a (non-sargable)
                    // filter hint on both columns.
                    let entry = self.entry(&lt);
                    entry.all_atoms.push(AtomicPredicate::Opaque {
                        column: Some(ColumnRef::bare(lc)),
                        text: format!("self-compare {rc}"),
                    });
                }
                _ => {}
            }
            return;
        }
        let Some(colref) = atom.restricted_column() else {
            return;
        };
        let Some((table, column)) = self.resolve(colref, bindings) else {
            return;
        };
        let normalised = normalise_atom(atom, &column);
        self.reference(&table, &column);
        let entry = self.entry(&table);
        entry.all_atoms.push(normalised.clone());
        if conjunctive {
            entry.conjuncts.push(normalised);
        }
    }

    /// Accumulate the full boolean filter selectivity per table.
    fn accumulate_filter_sel(&mut self, p: &Predicate, bindings: &Bindings) {
        // Collect the touched tables first to avoid borrowing issues.
        let touched: Vec<String> = {
            let mut v = Vec::new();
            p.visit_columns(&mut |c| {
                if let Some((t, _)) = self.resolve(c, bindings) {
                    if !v.contains(&t) {
                        v.push(t);
                    }
                }
            });
            v
        };
        for t in touched {
            if let Some(table) = self.catalog.table(&t) {
                let sel = if self.trace.is_some() {
                    // Traced extraction: build the factor tree first, then
                    // evaluate it — SelTree::eval is sel_for_table's twin,
                    // so the resulting filter_sel is bit-identical.
                    let tree = sel_tree_for_table(p, &t, table, self, bindings);
                    let sel = tree.eval(table);
                    if let Some(trace) = &mut self.trace {
                        trace.factors.push((t.clone(), tree));
                    }
                    sel
                } else {
                    sel_for_table(p, &t, table, self, bindings)
                };
                self.entry(&t).filter_sel *= sel;
            }
        }
    }

    fn finish(
        mut self,
        write: Option<WriteShape>,
        limit: Option<u64>,
    ) -> (QueryShape, Option<SelTrace>) {
        for t in &mut self.tables {
            t.filter_sel = t.filter_sel.clamp(0.0, 1.0);
        }
        (
            QueryShape {
                tables: self.tables,
                joins: self.joins,
                write,
                subquery_count: self.subquery_count,
                limit,
            },
            self.trace,
        )
    }
}

/// Rewrite an atom's column reference to a bare (unqualified) name so that
/// downstream consumers can compare against index column lists directly.
fn normalise_atom(atom: &AtomicPredicate, column: &str) -> AtomicPredicate {
    let bare = ColumnRef::bare(column);
    match atom {
        AtomicPredicate::Cmp { op, value, .. } => AtomicPredicate::Cmp {
            column: bare,
            op: *op,
            value: value.clone(),
        },
        AtomicPredicate::InList {
            values, negated, ..
        } => AtomicPredicate::InList {
            column: bare,
            values: values.clone(),
            negated: *negated,
        },
        AtomicPredicate::Between {
            low, high, negated, ..
        } => AtomicPredicate::Between {
            column: bare,
            low: low.clone(),
            high: high.clone(),
            negated: *negated,
        },
        AtomicPredicate::Like {
            pattern, negated, ..
        } => AtomicPredicate::Like {
            column: bare,
            pattern: pattern.clone(),
            negated: *negated,
        },
        AtomicPredicate::IsNull { negated, .. } => AtomicPredicate::IsNull {
            column: bare,
            negated: *negated,
        },
        AtomicPredicate::Opaque { text, .. } => AtomicPredicate::Opaque {
            column: Some(bare),
            text: text.clone(),
        },
        AtomicPredicate::JoinEq { left, right } => AtomicPredicate::JoinEq {
            left: left.clone(),
            right: right.clone(),
        },
    }
}

/// Recursive selectivity of predicate `p` *restricted to* `table`:
/// atoms on other tables contribute 1.0.
fn sel_for_table(
    p: &Predicate,
    table: &str,
    table_def: &Table,
    b: &ShapeBuilder<'_>,
    bindings: &Bindings,
) -> f64 {
    match p {
        Predicate::And(ps) => {
            // Multiply with the same backoff as conjunct_selectivity by
            // delegating atom collection to it where possible.
            let mut sel = 1.0;
            for c in ps {
                sel *= sel_for_table(c, table, table_def, b, bindings);
            }
            sel.max(1.0 / table_def.rows.max(1) as f64)
        }
        Predicate::Or(ps) => {
            let mut not_sel = 1.0;
            for c in ps {
                not_sel *= 1.0 - sel_for_table(c, table, table_def, b, bindings);
            }
            (1.0 - not_sel).clamp(0.0, 1.0)
        }
        Predicate::Not(inner) => 1.0 - sel_for_table(inner, table, table_def, b, bindings),
        atom => {
            let atoms = collect_atoms(atom);
            let Some(a) = atoms.first() else { return 1.0 };
            if let Some((l, r)) = a.join_edge() {
                // Join atoms don't filter a single table here.
                let _ = (l, r);
                return 1.0;
            }
            let Some(colref) = a.restricted_column() else {
                return 1.0;
            };
            match b.resolve(colref, bindings) {
                Some((t, col)) if t == table => {
                    atom_selectivity(&normalise_atom(a, &col), table_def)
                }
                _ => 1.0,
            }
        }
    }
}

/// Structural twin of [`sel_for_table`]: builds the [`SelTree`] whose
/// [`SelTree::eval`] performs exactly the computation `sel_for_table`
/// would, with the resolved atoms preserved at the leaves.
// `table_def` is unused at the leaves (eval resolves it later) but the
// signature must stay parallel to `sel_for_table` for the twin review.
#[allow(clippy::only_used_in_recursion)]
fn sel_tree_for_table(
    p: &Predicate,
    table: &str,
    table_def: &Table,
    b: &ShapeBuilder<'_>,
    bindings: &Bindings,
) -> SelTree {
    match p {
        Predicate::And(ps) => SelTree::And(
            ps.iter()
                .map(|c| sel_tree_for_table(c, table, table_def, b, bindings))
                .collect(),
        ),
        Predicate::Or(ps) => SelTree::Or(
            ps.iter()
                .map(|c| sel_tree_for_table(c, table, table_def, b, bindings))
                .collect(),
        ),
        Predicate::Not(inner) => SelTree::Not(Box::new(sel_tree_for_table(
            inner, table, table_def, b, bindings,
        ))),
        atom => {
            let atoms = collect_atoms(atom);
            let Some(a) = atoms.first() else {
                return SelTree::One;
            };
            if a.join_edge().is_some() {
                return SelTree::One;
            }
            let Some(colref) = a.restricted_column() else {
                return SelTree::One;
            };
            match b.resolve(colref, bindings) {
                Some((t, col)) if t == table => SelTree::Atom(normalise_atom(a, &col)),
                _ => SelTree::One,
            }
        }
    }
}

/// Collect atoms reachable through AND-only paths (the index-matchable
/// conjuncts).
fn collect_conjunctive(p: &Predicate, out: &mut Vec<AtomicPredicate>) {
    match p {
        Predicate::And(ps) => {
            for c in ps {
                collect_conjunctive(c, out);
            }
        }
        Predicate::Or(_) | Predicate::Not(_) => {}
        atom => out.extend(collect_atoms(atom)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableBuilder};
    use autoindex_sql::parse_statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("person", 100_000)
                .column(Column::int("id", 100_000))
                .column(Column::text("name", 90_000, 16))
                .column(Column::float("temperature", 300, 35.0, 42.0))
                .column(Column::text("community", 50, 12))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("visit", 500_000)
                .column(Column::int("vid", 500_000))
                .column(Column::int("person_id", 100_000))
                .column(Column::int("site", 200))
                .build()
                .unwrap(),
        );
        c
    }

    fn shape(sql: &str) -> QueryShape {
        let stmt = parse_statement(sql).unwrap();
        QueryShape::extract(&stmt, &catalog())
    }

    #[test]
    fn simple_filter_shape() {
        let s = shape("SELECT name FROM person WHERE temperature > 38 AND community = 'x'");
        assert_eq!(s.tables.len(), 1);
        let t = s.table("person").unwrap();
        assert_eq!(t.conjuncts.len(), 2);
        assert!(t.filter_sel < 0.6);
        assert!(s.write.is_none());
    }

    #[test]
    fn or_atoms_are_not_conjunctive() {
        let s = shape("SELECT * FROM person WHERE temperature > 38 OR community = 'x'");
        let t = s.table("person").unwrap();
        assert!(t.conjuncts.is_empty());
        assert_eq!(t.all_atoms.len(), 2);
        // OR selectivity > each individual atom's.
        assert!(t.filter_sel > 0.5, "got {}", t.filter_sel);
    }

    #[test]
    fn join_edges_resolved_through_aliases() {
        let s = shape("SELECT * FROM person p, visit v WHERE p.id = v.person_id AND v.site = 3");
        assert_eq!(s.joins.len(), 1);
        let e = &s.joins[0];
        assert_eq!(
            (e.left_table.as_str(), e.right_table.as_str()),
            ("person", "visit")
        );
        let v = s.table("visit").unwrap();
        assert_eq!(v.conjuncts.len(), 1);
    }

    #[test]
    fn explicit_join_on_clause() {
        let s = shape("SELECT * FROM person JOIN visit ON person.id = visit.person_id");
        assert_eq!(s.joins.len(), 1);
    }

    #[test]
    fn unqualified_columns_resolve_via_catalog() {
        let s = shape("SELECT * FROM person, visit WHERE site = 3 AND community = 'x'");
        assert_eq!(s.table("visit").unwrap().conjuncts.len(), 1);
        assert_eq!(s.table("person").unwrap().conjuncts.len(), 1);
    }

    #[test]
    fn subquery_tables_are_flattened_with_semijoin_edge() {
        let s = shape(
            "SELECT * FROM person WHERE community = 'x' AND id IN \
             (SELECT person_id FROM visit WHERE site = 5)",
        );
        assert_eq!(s.subquery_count, 1);
        assert!(s.table("visit").is_some());
        assert_eq!(s.table("visit").unwrap().conjuncts.len(), 1);
    }

    #[test]
    fn correlated_exists_records_cross_edge() {
        let s = shape(
            "SELECT * FROM person p WHERE EXISTS \
             (SELECT vid FROM visit v WHERE v.person_id = p.id AND v.site = 2)",
        );
        assert_eq!(s.subquery_count, 1);
        assert_eq!(s.joins.len(), 1, "correlated equality is a join edge");
    }

    #[test]
    fn group_and_order_columns_recorded() {
        let s =
            shape("SELECT community, COUNT(*) FROM person GROUP BY community ORDER BY community");
        let t = s.table("person").unwrap();
        assert_eq!(t.group_columns, vec!["community"]);
        assert_eq!(t.order_columns, vec!["community"]);
        assert_eq!(t.order_desc, vec![false]);
    }

    #[test]
    fn order_directions_recorded_per_key() {
        let s = shape("SELECT * FROM person ORDER BY community DESC, age LIMIT 5");
        let t = s.table("person").unwrap();
        assert_eq!(t.order_columns, vec!["community", "age"]);
        assert_eq!(t.order_desc, vec![true, false]);
    }

    #[test]
    fn update_shape() {
        let s = shape_stmt(
            "UPDATE person SET temperature = 37.0 WHERE name = 'bo' AND community = 'x'",
        );
        let w = s.write.as_ref().unwrap();
        assert_eq!(w.kind, WriteKind::Update);
        assert_eq!(w.set_columns, vec!["temperature"]);
        assert_eq!(s.table("person").unwrap().conjuncts.len(), 2);
    }

    #[test]
    fn insert_shape() {
        let s = shape_stmt("INSERT INTO person (id, name) VALUES (1, 'a'), (2, 'b')");
        let w = s.write.as_ref().unwrap();
        assert_eq!(w.kind, WriteKind::Insert);
        assert_eq!(w.inserted_rows, 2);
        assert!(s.table("person").is_some());
    }

    #[test]
    fn delete_shape_has_zero_set_columns() {
        let s = shape_stmt("DELETE FROM visit WHERE site = 9");
        let w = s.write.as_ref().unwrap();
        assert_eq!(w.kind, WriteKind::Delete);
        assert!(w.set_columns.is_empty());
    }

    fn shape_stmt(sql: &str) -> QueryShape {
        let stmt = parse_statement(sql).unwrap();
        QueryShape::extract(&stmt, &catalog())
    }

    #[test]
    fn derived_table_flattens() {
        let s = shape(
            "SELECT * FROM person, (SELECT person_id FROM visit WHERE site = 2) d \
             WHERE person.id = 7",
        );
        assert!(s.table("visit").is_some());
        assert_eq!(s.table("visit").unwrap().conjuncts.len(), 1);
    }

    #[test]
    fn filter_sel_bounded() {
        let s = shape(
            "SELECT * FROM person WHERE temperature > 36 AND temperature < 41 AND \
             community = 'a' AND name LIKE 'x%' AND id BETWEEN 5 AND 50",
        );
        let t = s.table("person").unwrap();
        assert!(t.filter_sel > 0.0 && t.filter_sel <= 1.0);
    }

    #[test]
    fn referenced_columns_and_whole_row_tracked() {
        let s = shape("SELECT name FROM person WHERE temperature > 38 ORDER BY temperature");
        let t = s.table("person").unwrap();
        assert!(!t.whole_row);
        let mut cols = t.referenced_columns.clone();
        cols.sort();
        assert_eq!(cols, vec!["name", "temperature"]);

        let s = shape("SELECT * FROM person WHERE community = 'x'");
        assert!(s.table("person").unwrap().whole_row);
    }

    #[test]
    fn join_columns_are_referenced() {
        let s = shape("SELECT vid FROM person, visit WHERE person.id = visit.person_id");
        assert!(s
            .table("person")
            .unwrap()
            .referenced_columns
            .contains(&"id".to_string()));
        assert!(s
            .table("visit")
            .unwrap()
            .referenced_columns
            .contains(&"person_id".to_string()));
    }

    #[test]
    fn traced_extraction_is_bit_identical_to_untraced() {
        for sql in [
            "SELECT name FROM person WHERE temperature > 38 AND community = 'x'",
            "SELECT * FROM person WHERE temperature > 38 OR community = 'x'",
            "SELECT * FROM person p, visit v WHERE p.id = v.person_id AND v.site = 3",
            "SELECT * FROM person WHERE community = 'x' AND id IN \
             (SELECT person_id FROM visit WHERE site = 5)",
            "SELECT * FROM person WHERE NOT (temperature > 38 AND community = 'x') \
             AND id BETWEEN 5 AND 50",
            "UPDATE person SET temperature = 37.0 WHERE name = 'bo' AND community = 'x'",
            "DELETE FROM visit WHERE site = 9",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let c = catalog();
            let plain = QueryShape::extract(&stmt, &c);
            let (traced, trace) = QueryShape::extract_traced(&stmt, &c);
            assert_eq!(plain, traced, "shape drift on {sql}");
            for (t, p) in plain.tables.iter().zip(traced.tables.iter()) {
                assert_eq!(
                    t.filter_sel.to_bits(),
                    p.filter_sel.to_bits(),
                    "filter_sel bits drift on {sql}"
                );
            }
            // Re-evaluating the trace reproduces filter_sel exactly.
            for table in &plain.tables {
                let Some(def) = c.table(&table.table) else {
                    continue;
                };
                let mut sel = 1.0;
                for (t, tree) in &trace.factors {
                    if t == &table.table {
                        sel *= tree.eval(def);
                    }
                }
                assert_eq!(
                    sel.clamp(0.0, 1.0).to_bits(),
                    table.filter_sel.to_bits(),
                    "trace replay drift on {sql} / {}",
                    table.table
                );
            }
        }
    }

    #[test]
    fn unknown_table_still_yields_shape() {
        let s = shape("SELECT * FROM mystery WHERE zzz = 1");
        assert_eq!(s.tables.len(), 1);
        // Unqualified column on unknown table falls back to single binding.
        assert_eq!(s.table("mystery").unwrap().conjuncts.len(), 1);
    }
}
