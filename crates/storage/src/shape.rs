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

use crate::catalog::Catalog;
use crate::selectivity::atom_selectivity;
use autoindex_sql::predicate::{atom_from, collect_atoms, to_dnf, AtomicPredicate};
use autoindex_sql::{ColumnRef, Predicate, SelectItem, SelectStatement, Statement, TableRef};
use std::sync::Arc;

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

/// One `(predicate, touched table)` selectivity factor, as
/// [`QueryShape::extract_traced`] recorded it: the predicate, and per leaf
/// in [`fold_factor`]'s order the resolved, normalised atom when that leaf
/// restricts `table` (`None`: a join edge, another table's atom, an
/// unresolved column — a constant `1.0`). Folding the leaves' selectivities
/// through [`fold_factor`] reproduces the factor extraction multiplied in;
/// the estimator compiles these factors so the template fast path can
/// recompute `filter_sel` for fresh literals without re-parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct SelFactor {
    pub table: String,
    pub predicate: Arc<Predicate>,
    pub leaves: Vec<Option<AtomicPredicate>>,
}

/// The ordered selectivity factors recorded by
/// [`QueryShape::extract_traced`], in the exact order `filter_sel`
/// multiplied them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelTrace {
    pub factors: Vec<SelFactor>,
}

impl QueryShape {
    /// Extract the shape of `stmt` against `catalog`.
    pub fn extract(stmt: &Statement, catalog: &Catalog) -> QueryShape {
        Self::extract_inner(stmt, catalog, false).0
    }

    /// Like [`QueryShape::extract`], additionally recording the per-table
    /// selectivity factors (see [`SelTrace`]). The returned shape is the
    /// untraced one: recording a factor changes nothing it folds.
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
                b.walk_select(s);
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
                b.walk_write_predicate(&u.table, u.where_clause.as_ref());
                let write = WriteShape {
                    kind: WriteKind::Update,
                    table: u.table.clone(),
                    set_columns: u.sets.iter().map(|s| s.column.clone()).collect(),
                    inserted_rows: 0,
                };
                b.finish(Some(write), None)
            }
            Statement::Delete(d) => {
                b.walk_write_predicate(&d.table, d.where_clause.as_ref());
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
}

/// What one predicate leaf contributes to a table's selectivity factor:
/// the resolved leaf [`fold_factor`] reads.
struct SelLeaf<'a> {
    /// The base table the leaf restricts.
    table: &'a str,
    /// `atom_selectivity` of the leaf against that table (unused when the
    /// catalog does not know the table: no factor is computed for it).
    sel: f64,
    /// The resolved, normalised atom; kept only for a traced extraction,
    /// whose factor on `table` takes it.
    atom: Option<AtomicPredicate>,
}

/// What the one resolving walk over a predicate leaves behind for the
/// passes after it.
struct PredicateWalk<'a> {
    root: &'a Predicate,
    /// One entry per leaf in walk order; `None` for a leaf that restricts
    /// no table (join edge, `EXISTS`, aggregate, unresolved column).
    leaves: Vec<Option<SelLeaf<'a>>>,
    /// The tables the predicate's columns resolve to, in first-seen order.
    touched: Vec<&'a str>,
    /// The atoms of `root` reachable through AND-only paths, as written;
    /// collected when the first leaf outside such a path asks.
    conjunctive: Option<Vec<AtomicPredicate>>,
}

impl<'a> PredicateWalk<'a> {
    fn touch(&mut self, table: &'a str) {
        if !self.touched.contains(&table) {
            self.touched.push(table);
        }
    }

    /// Whether `atom`, met under an `OR` or `NOT`, equals an atom in
    /// conjunctive position: it then counts as index-matchable as well.
    fn repeats_a_conjunct(&mut self, atom: &AtomicPredicate) -> bool {
        let root = self.root;
        self.conjunctive
            .get_or_insert_with(|| {
                let mut atoms = Vec::new();
                collect_conjunctive(root, &mut atoms);
                atoms
            })
            .contains(atom)
    }
}

struct ShapeBuilder<'a> {
    catalog: &'a Catalog,
    tables: Vec<TableAtoms>,
    joins: Vec<JoinEdge>,
    subquery_count: usize,
    /// When set, `accumulate_filter_sel` records each factor here.
    trace: Option<SelTrace>,
    /// `(binding name, base table)` of every table in scope: outermost
    /// nesting level first, FROM-clause order within a level. Inner levels
    /// shadow outer ones; outer ones stay visible for correlated columns.
    bindings: Vec<(&'a str, &'a str)>,
    /// Where each open nesting level starts in `bindings`.
    frames: Vec<usize>,
}

impl<'a> ShapeBuilder<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        ShapeBuilder {
            catalog,
            tables: Vec::new(),
            joins: Vec::new(),
            subquery_count: 0,
            trace: None,
            bindings: Vec::new(),
            frames: Vec::new(),
        }
    }

    fn entry(&mut self, table: &str) -> &mut TableAtoms {
        let idx = match self.tables.iter().position(|t| t.table == table) {
            Some(idx) => idx,
            None => {
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
            }
        };
        &mut self.tables[idx]
    }

    fn touch_table(&mut self, table: &str) {
        let _ = self.entry(table);
    }

    fn push_frame(&mut self) {
        self.frames.push(self.bindings.len());
    }

    fn pop_frame(&mut self) {
        let start = self.frames.pop().expect("a frame is open");
        self.bindings.truncate(start);
    }

    /// Bind `name` to `table` in the innermost frame. A name binds once per
    /// frame: repeating it rebinds it in place.
    fn bind(&mut self, name: &'a str, table: &'a str) {
        let start = *self.frames.last().expect("a frame is open");
        match self.bindings[start..].iter_mut().find(|(n, _)| *n == name) {
            Some(binding) => binding.1 = table,
            None => self.bindings.push((name, table)),
        }
    }

    /// Open a frame binding the base tables of `sel`'s FROM clause and
    /// joins, in clause order.
    fn push_select_frame(&mut self, sel: &'a SelectStatement) {
        self.push_frame();
        for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.relation)) {
            if let TableRef::Table { name, alias } = t {
                self.bind(alias.as_ref().unwrap_or(name), name);
            }
        }
    }

    /// All visible base tables: innermost frame first, FROM-clause order
    /// within a frame.
    fn visible_tables(&self) -> impl Iterator<Item = &'a str> + '_ {
        let mut end = self.bindings.len();
        self.frames
            .iter()
            .rev()
            .flat_map(move |&start| {
                let frame = &self.bindings[start..end];
                end = start;
                frame
            })
            .map(|&(_, table)| table)
    }

    /// Resolve a column reference to `(base_table, column)`, both borrowed:
    /// the table from the statement's FROM clause, the column from `col`.
    ///
    /// A qualified column follows its binding, innermost frame first. An
    /// unqualified one belongs to the first visible table whose catalog
    /// entry has the column — *innermost frame first, FROM-clause order
    /// within a frame* — so a name several visible tables share is
    /// attributed the same way every time: to the first of them in the
    /// FROM clause.
    fn resolve<'c>(&self, col: &'c ColumnRef) -> Option<(&'a str, &'c str)> {
        if let Some(binding) = &col.table {
            // Names are unique within a frame, so the last match overall is
            // the innermost frame's.
            let &(_, base) = self.bindings.iter().rev().find(|(n, _)| n == binding)?;
            return Some((base, &col.column));
        }
        let known = self.visible_tables().find(|t| {
            self.catalog
                .table(t)
                .is_some_and(|table| table.column(&col.column).is_some())
        });
        // Fall back to the single visible table (schema may be unknown).
        let mut visible = self.visible_tables();
        let table = known.or_else(|| match (visible.next(), visible.next()) {
            (only, None) => only,
            _ => None,
        })?;
        Some((table, &col.column))
    }

    fn walk_select(&mut self, sel: &'a SelectStatement) {
        // Derived tables are walked before this level's frame opens: they
        // see the enclosing levels only.
        for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.relation)) {
            match t {
                TableRef::Table { name, .. } => self.touch_table(name),
                TableRef::Derived { query, .. } => {
                    self.subquery_count += 1;
                    self.walk_select(query);
                }
            }
        }
        self.push_select_frame(sel);

        // WHERE, HAVING, JOIN ... ON all contribute atoms.
        let preds = sel
            .where_clause
            .iter()
            .chain(sel.having.iter())
            .chain(sel.joins.iter().filter_map(|j| j.on.as_ref()));
        for p in preds {
            self.walk_predicate_multi(p);
            // Recurse into predicate subqueries (EXISTS / IN (SELECT ...)).
            for sub in p.subqueries() {
                self.subquery_count += 1;
                self.walk_select(sub);
            }
            // `col IN (SELECT proj FROM ...)` is a semi-join: record the
            // edge between the outer column and the subquery's projection,
            // so the planner can drive a lookup join through it (the Q32
            // decorrelation pattern).
            self.record_semijoin_edges(p);
        }

        // GROUP BY / ORDER BY columns.
        for c in &sel.group_by {
            if let Some((t, col)) = self.resolve(c) {
                self.entry(t).group_columns.push(col.to_string());
                self.reference(t, col);
            }
        }
        for o in &sel.order_by {
            if let Some((t, col)) = self.resolve(&o.column) {
                let entry = self.entry(t);
                entry.order_columns.push(col.to_string());
                entry.order_desc.push(o.descending);
                self.reference(t, col);
            }
        }

        // Projection: referenced columns / whole-row markers, for
        // index-only-scan eligibility.
        for item in &sel.projection {
            match item {
                SelectItem::Star => {
                    for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.relation)) {
                        if let TableRef::Table { name, .. } = t {
                            self.entry(name).whole_row = true;
                        }
                    }
                }
                SelectItem::Column(c) | SelectItem::Aggregate { arg: Some(c), .. } => {
                    if let Some((t, col)) = self.resolve(c) {
                        self.reference(t, col);
                    }
                }
                SelectItem::Aggregate { arg: None, .. } => {}
            }
        }
        self.pop_frame();
    }

    /// Record that the statement touches `table.column`.
    fn reference(&mut self, table: &str, column: &str) {
        let entry = self.entry(table);
        if !entry.referenced_columns.iter().any(|c| c == column) {
            entry.referenced_columns.push(column.to_string());
        }
    }

    /// Walk a predicate whose columns may span several bound tables: one
    /// resolving walk records every atom (normalised once) and what the
    /// selectivity pass needs of it; the DNF grouping is its own pass.
    fn walk_predicate_multi(&mut self, p: &'a Predicate) {
        let mut walk = PredicateWalk {
            root: p,
            leaves: Vec::new(),
            touched: Vec::new(),
            conjunctive: None,
        };
        self.walk_leaves(p, false, true, &mut walk);
        self.record_conjunct_groups(p);
        self.accumulate_filter_sel(p, &mut walk);
    }

    /// Visit the leaves of `p` in order. `negated`: under an odd number of
    /// `NOT`s; `conjunctive`: reached through AND-only paths — the position
    /// an index prefix can match.
    ///
    /// This is the leaf order: children left to right, every non-composite
    /// node one entry of `walk.leaves`, whatever it resolved to.
    /// [`fold_factor`] descends the same tree taking one entry per leaf, so
    /// a change to the traversal here is a change to it too
    /// (`accumulate_filter_sel` checks that the fold used the entries up;
    /// `tests/extraction_golden.rs` pins the result).
    fn walk_leaves(
        &mut self,
        p: &'a Predicate,
        negated: bool,
        conjunctive: bool,
        walk: &mut PredicateWalk<'a>,
    ) {
        match p {
            Predicate::And(ps) => {
                for c in ps {
                    self.walk_leaves(c, negated, conjunctive, walk);
                }
            }
            Predicate::Or(ps) => {
                for c in ps {
                    self.walk_leaves(c, negated, false, walk);
                }
            }
            Predicate::Not(inner) => self.walk_leaves(inner, !negated, false, walk),
            leaf => {
                let sel_leaf = self.record_leaf(leaf, negated, conjunctive, walk);
                walk.leaves.push(sel_leaf);
            }
        }
    }

    /// Record one leaf: the tables its columns touch, its join edge, or its
    /// atom on the table it restricts — with the negations above it folded
    /// in for `all_atoms` / `conjuncts`, without them for the selectivity
    /// leaf ([`fold_factor`] applies `NOT` as `1 - s`).
    fn record_leaf(
        &mut self,
        leaf: &'a Predicate,
        negated: bool,
        conjunctive: bool,
        walk: &mut PredicateWalk<'a>,
    ) -> Option<SelLeaf<'a>> {
        let column = match leaf {
            Predicate::JoinEq { left, right } => {
                let (l, r) = (self.resolve(left), self.resolve(right));
                for (table, _) in l.iter().chain(r.iter()) {
                    walk.touch(table);
                }
                // Negated, a join edge is an opaque atom on no column.
                if !negated {
                    self.record_join(l, r);
                }
                return None;
            }
            Predicate::AggCmp { arg, .. } => {
                if let Some((table, _)) = arg.as_ref().and_then(|c| self.resolve(c)) {
                    walk.touch(table);
                }
                return None;
            }
            Predicate::Exists { .. } => return None,
            Predicate::Cmp { column, .. }
            | Predicate::InList { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::Like { column, .. }
            | Predicate::IsNull { column, .. }
            | Predicate::InSubquery { column, .. } => column,
            Predicate::And(_) | Predicate::Or(_) | Predicate::Not(_) => {
                unreachable!("walk_leaves descends into composites")
            }
        };
        let (table, column) = self.resolve(column)?;
        walk.touch(table);
        let mut atom = atom_from(leaf, negated);
        let conjunctive = conjunctive || walk.repeats_a_conjunct(&atom);
        strip_qualifier(&mut atom);
        self.reference(table, column);

        let def = self.catalog.table(table);
        let sel_of = |a: &AtomicPredicate| def.map_or(1.0, |d| atom_selectivity(a, d));
        let traced = self.trace.is_some();
        let (sel, kept) = if negated {
            let mut positive = atom_from(leaf, false);
            strip_qualifier(&mut positive);
            (sel_of(&positive), traced.then_some(positive))
        } else {
            (sel_of(&atom), traced.then(|| atom.clone()))
        };

        let entry = self.entry(table);
        if conjunctive {
            entry.conjuncts.push(atom.clone());
        }
        entry.all_atoms.push(atom);
        Some(SelLeaf {
            table,
            sel,
            atom: kept,
        })
    }

    /// Record `l = r`: a join edge between two tables, or a (non-sargable)
    /// filter hint when both sides are columns of one.
    fn record_join(&mut self, l: Option<(&str, &str)>, r: Option<(&str, &str)>) {
        match (l, r) {
            (Some((lt, lc)), Some((rt, rc))) if lt != rt => {
                self.touch_table(lt);
                self.touch_table(rt);
                self.reference(lt, lc);
                self.reference(rt, rc);
                self.joins.push(JoinEdge {
                    left_table: lt.to_string(),
                    left_column: lc.to_string(),
                    right_table: rt.to_string(),
                    right_column: rc.to_string(),
                });
            }
            (Some((lt, lc)), Some((_, rc))) => {
                self.entry(lt).all_atoms.push(AtomicPredicate::Opaque {
                    column: Some(ColumnRef::bare(lc)),
                    text: format!("self-compare {rc}"),
                });
            }
            _ => {}
        }
    }

    /// DNF the predicate and record, per table, the sargable atoms of each
    /// DNF conjunct (§IV-A). On DNF blow-up, fall back to treating every
    /// atom as its own singleton conjunct.
    fn record_conjunct_groups(&mut self, p: &Predicate) {
        let conjuncts: Vec<Vec<AtomicPredicate>> = match to_dnf(p) {
            Ok(dnf) => dnf.conjuncts,
            Err(_) => collect_atoms(p).into_iter().map(|a| vec![a]).collect(),
        };
        for conj in conjuncts {
            // Group this conjunct's sargable atoms by resolved table.
            let mut per_table: Vec<(&str, Vec<AtomicPredicate>)> = Vec::new();
            for mut atom in conj {
                if !atom.is_sargable() || atom.join_edge().is_some() {
                    continue;
                }
                let Some((table, _)) = atom.restricted_column().and_then(|c| self.resolve(c))
                else {
                    continue;
                };
                strip_qualifier(&mut atom);
                match per_table.iter_mut().find(|(t, _)| *t == table) {
                    Some((_, atoms)) => atoms.push(atom),
                    None => per_table.push((table, vec![atom])),
                }
            }
            for (table, atoms) in per_table {
                let entry = self.entry(table);
                if !entry.conjunct_groups.contains(&atoms) {
                    entry.conjunct_groups.push(atoms);
                }
            }
        }
    }

    /// Walk the WHERE clause of an UPDATE / DELETE on `table`.
    fn walk_write_predicate(&mut self, table: &'a str, p: Option<&'a Predicate>) {
        self.touch_table(table);
        let Some(p) = p else { return };
        self.push_frame();
        self.bind(table, table);
        self.walk_predicate_multi(p);
        // Subqueries inside write predicates.
        for sub in p.subqueries() {
            self.subquery_count += 1;
            self.walk_select(sub);
        }
        self.pop_frame();
    }

    /// Record semi-join edges for `col IN (SELECT proj FROM t ...)` atoms
    /// anywhere in the predicate tree.
    fn record_semijoin_edges(&mut self, p: &'a Predicate) {
        match p {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for c in ps {
                    self.record_semijoin_edges(c);
                }
            }
            Predicate::Not(inner) => self.record_semijoin_edges(inner),
            Predicate::InSubquery {
                column,
                query,
                negated: false,
            } => {
                // Outer side.
                let Some((ot, oc)) = self.resolve(column) else {
                    return;
                };
                // Inner side: the subquery's (single-column) projection,
                // resolved inside the subquery's own binding frame.
                let inner_col = query.projection.iter().find_map(|item| match item {
                    SelectItem::Column(c) => Some(c),
                    _ => None,
                });
                let Some(ic) = inner_col else { return };
                self.push_select_frame(query);
                let inner = self.resolve(ic);
                self.pop_frame();
                let Some((it, icol)) = inner else { return };
                if it != ot {
                    self.touch_table(ot);
                    self.touch_table(it);
                    self.joins.push(JoinEdge {
                        left_table: ot.to_string(),
                        left_column: oc.to_string(),
                        right_table: it.to_string(),
                        right_column: icol.to_string(),
                    });
                }
            }
            _ => {}
        }
    }

    /// Accumulate the full boolean filter selectivity per touched table.
    fn accumulate_filter_sel(&mut self, p: &Predicate, walk: &mut PredicateWalk<'a>) {
        // A traced extraction shares one copy of the predicate among its
        // factors.
        let predicate = self.trace.is_some().then(|| Arc::new(p.clone()));
        for &t in &walk.touched {
            let Some(table) = self.catalog.table(t) else {
                continue;
            };
            let mut leaves = walk.leaves.iter();
            let sel = fold_factor(p, table.rows, &mut || {
                match leaves.next().expect("one leaf per atom") {
                    Some(leaf) if leaf.table == t => leaf.sel,
                    // Join atoms and atoms on other tables don't filter this one.
                    _ => 1.0,
                }
            });
            debug_assert!(leaves.next().is_none(), "a fold skipped a leaf");
            if let (Some(trace), Some(predicate)) = (&mut self.trace, &predicate) {
                let leaves = walk.leaves.iter_mut().map(|leaf| match leaf {
                    Some(leaf) if leaf.table == t => leaf.atom.take(),
                    _ => None,
                });
                trace.factors.push(SelFactor {
                    table: t.to_string(),
                    predicate: Arc::clone(predicate),
                    leaves: leaves.collect(),
                });
            }
            self.entry(t).filter_sel *= sel;
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
fn strip_qualifier(atom: &mut AtomicPredicate) {
    match atom {
        AtomicPredicate::Cmp { column, .. }
        | AtomicPredicate::InList { column, .. }
        | AtomicPredicate::Between { column, .. }
        | AtomicPredicate::Like { column, .. }
        | AtomicPredicate::IsNull { column, .. }
        | AtomicPredicate::Opaque {
            column: Some(column),
            ..
        } => column.table = None,
        AtomicPredicate::Opaque { column: None, .. } | AtomicPredicate::JoinEq { .. } => {}
    }
}

/// The selectivity of predicate `p` on a table of `rows` rows, the leaves'
/// selectivities drawn from `leaf` in the order
/// `ShapeBuilder::walk_leaves` visits them: `AND` is the product, floored
/// at `1/rows`; `OR` is `1 - ∏(1 - s)`, clamped to `[0, 1]`; `NOT` is
/// `1 - s`. Extraction and the template fast path's compiled programs both
/// fold through here, so their `filter_sel`s agree bit for bit.
pub fn fold_factor(p: &Predicate, rows: u64, leaf: &mut impl FnMut() -> f64) -> f64 {
    match p {
        Predicate::And(ps) => {
            let mut sel = 1.0;
            for c in ps {
                sel *= fold_factor(c, rows, leaf);
            }
            sel.max(1.0 / rows.max(1) as f64)
        }
        Predicate::Or(ps) => {
            let mut not_sel = 1.0;
            for c in ps {
                not_sel *= 1.0 - fold_factor(c, rows, leaf);
            }
            (1.0 - not_sel).clamp(0.0, 1.0)
        }
        Predicate::Not(inner) => 1.0 - fold_factor(inner, rows, leaf),
        _ => leaf(),
    }
}

/// Collect atoms reachable through AND-only paths (the index-matchable
/// conjuncts), as written.
fn collect_conjunctive(p: &Predicate, out: &mut Vec<AtomicPredicate>) {
    match p {
        Predicate::And(ps) => {
            for c in ps {
                collect_conjunctive(c, out);
            }
        }
        Predicate::Or(_) | Predicate::Not(_) => {}
        atom => out.push(atom_from(atom, false)),
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

    /// An unqualified column several visible tables have goes to the first
    /// of them in the FROM clause — every time (bindings used to sit in a
    /// `HashMap`, and the pick followed its iteration order).
    #[test]
    fn ambiguous_unqualified_column_goes_to_the_first_from_table() {
        let mut c = Catalog::new();
        for (name, rows) in [("accounts", 500_000), ("tellers", 5_000)] {
            c.add_table(
                TableBuilder::new(name, rows)
                    .column(Column::int("id", rows))
                    .column(Column::int("branch", 512))
                    .build()
                    .unwrap(),
            );
        }
        for (sql, first, other) in [
            (
                "SELECT * FROM accounts, tellers WHERE branch = 7",
                "accounts",
                "tellers",
            ),
            (
                "SELECT * FROM tellers t JOIN accounts a ON a.id = t.id WHERE branch = 7",
                "tellers",
                "accounts",
            ),
        ] {
            let stmt = parse_statement(sql).unwrap();
            for _ in 0..200 {
                let s = QueryShape::extract(&stmt, &c);
                assert_eq!(s.table(first).unwrap().conjuncts.len(), 1, "{sql}");
                assert!(s.table(other).unwrap().all_atoms.is_empty(), "{sql}");
            }
        }
        // An inner frame is searched before the frames around it.
        let s = QueryShape::extract(
            &parse_statement(
                "SELECT * FROM accounts WHERE id IN (SELECT id FROM tellers WHERE branch = 7)",
            )
            .unwrap(),
            &c,
        );
        let on_branch = |table: &str| {
            let atoms = &s.table(table).unwrap().all_atoms;
            atoms
                .iter()
                .filter(|a| a.restricted_column().is_some_and(|c| c.column == "branch"))
                .count()
        };
        assert_eq!((on_branch("tellers"), on_branch("accounts")), (1, 0));
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
            // Folding the trace's atoms again reproduces filter_sel exactly.
            for table in &plain.tables {
                let Some(def) = c.table(&table.table) else {
                    continue;
                };
                let mut sel = 1.0;
                for f in trace.factors.iter().filter(|f| f.table == table.table) {
                    let mut leaves = f.leaves.iter();
                    sel *= fold_factor(&f.predicate, def.rows, &mut || match leaves
                        .next()
                        .expect("one leaf per atom")
                    {
                        Some(atom) => atom_selectivity(atom, def),
                        None => 1.0,
                    });
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
