//! Template-based candidate index generation (§IV-A steps 2–3).
//!
//! For every template shape, three classes of expressions produce
//! candidates:
//!
//! 1. **Filter predicates** — each DNF conjunct whose combined selectivity
//!    passes the threshold yields one composite candidate: equality columns
//!    first (most selective first), then at most one range column. A
//!    conjunct that filters too little ("low selectivity" in the paper's
//!    terminology) is discarded.
//! 2. **Join predicates** — each equi-join edge yields a candidate on the
//!    join column of the *driven* table (the smaller side, looked up during
//!    the join). Additionally, a composite `(join column + equality filter
//!    columns)` candidate is generated when the driven side also carries
//!    equality filters — the classic index-nested-loop accelerator. (The
//!    paper generates the join-column candidate; the composite extension is
//!    documented in DESIGN.md.)
//! 3. **GROUP/ORDER expressions** — the involved columns, when the
//!    expression takes effect (non-trivial cardinality, columns exist).
//!
//! Step 3 then deduplicates, merges by the leftmost-prefix principle
//! (keep `(a,b)`, drop `a`), and subtracts indexes that already exist.
//! For partitioned tables a LOCAL variant is emitted alongside the GLOBAL
//! one, supporting §III's index *type* selection.
//!
//! The two steps are two calls. [`CandidateGenerator::emit`] is step 2 for
//! one template: it reads the shape, the config and the touched tables'
//! statistics, never the existing indexes, and renders each candidate's
//! key once. [`CandidateGenerator::merge`] is step 3 over a workload's
//! emissions in workload order, and the only reader of `existing`: it drops
//! a conjunct composite an existing index already serves (permutation-aware)
//! and a covering candidate an existing index covers before anything else,
//! so neither can merge another away, then sorts and dedups on the kept
//! keys and runs the `covers` tests table by table.
//! [`CandidateGenerator::generate`] is `emit` over every template, then
//! `merge`. A tuning boundary instead keeps each template's emission with
//! its template (`crate::templates`) while its tables' growth stamps and the
//! config stand, and merges the kept ones.

use crate::error::{invalid, AutoIndexError};
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_storage::catalog::Catalog;
use autoindex_storage::index::{IndexDef, IndexScope, SortDirection};
use autoindex_storage::selectivity::atom_selectivity;
use autoindex_storage::shape::{QueryShape, TableAtoms};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Candidate generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateConfig {
    /// A conjunct must keep at most this fraction of rows to be indexable
    /// (the paper's example threshold: 1/3).
    pub selectivity_threshold: f64,
    /// Skip index candidates on tables smaller than this (a tiny table is
    /// always cached and scanned faster than it is sought).
    pub min_table_rows: u64,
    /// Generate sort-order-aware candidates: `(equality filter columns ++
    /// ORDER BY keys)` with per-key-part directions matching the clause, so
    /// mixed-direction `ORDER BY a DESC, b` becomes seekable. Off by
    /// default — existing workload transcripts predate this class.
    pub sort_aware: bool,
    /// Generate covering candidates: a filter/order key extended with the
    /// statement's remaining referenced columns so the plan becomes an
    /// index-only scan. Off by default, same reason as `sort_aware`.
    pub covering: bool,
    /// Column cap for covering candidates (key + appended payload). Wider
    /// than a composite key (`MAX_INDEX_COLUMNS`, 4) because the payload
    /// carries no seek cost.
    pub max_covering_columns: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            selectivity_threshold: 1.0 / 3.0,
            min_table_rows: 100,
            sort_aware: false,
            covering: false,
            max_covering_columns: 6,
        }
    }
}

impl CandidateConfig {
    /// Check every field.
    pub fn validate(&self) -> Result<(), AutoIndexError> {
        if !self.selectivity_threshold.is_finite()
            || self.selectivity_threshold <= 0.0
            || self.selectivity_threshold > 1.0
        {
            return Err(invalid(
                "candidates.selectivity_threshold",
                "must be finite and in (0, 1]",
            ));
        }
        if self.max_covering_columns < MAX_INDEX_COLUMNS {
            return Err(invalid(
                "candidates.max_covering_columns",
                "must be >= max_index_columns (the payload extends the key)",
            ));
        }
        Ok(())
    }
}

/// Maximum columns in a generated composite index.
const MAX_INDEX_COLUMNS: usize = 4;

/// Generate LOCAL variants for partitioned tables.
const PARTITIONED_VARIANTS: bool = true;

/// Generate `(join col + equality filters)` composites.
const JOIN_FILTER_COMPOSITES: bool = true;

/// Per-class tallies from one generation pass (pre-merge emissions),
/// surfaced as the `advisor.candidates.{sort_aware,covering}` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Sort-order-aware candidates emitted.
    pub sort_aware: usize,
    /// Covering candidates emitted.
    pub covering: usize,
}

/// One pre-merge candidate of [`CandidateGenerator::emit`]: the definition,
/// its key rendered once, and what [`CandidateGenerator::merge`] needs to
/// know of the class that emitted it.
#[derive(Debug, Clone, PartialEq)]
pub struct Emitted {
    /// Shared with every merge that keeps it: a kept emission outlives
    /// its boundary, and the candidate lists of each boundary since.
    def: Arc<IndexDef>,
    /// `def.key()`: what the merge sorts by.
    key: Box<str>,
    class: Class,
}

impl Emitted {
    fn new(def: IndexDef, class: Class) -> Self {
        let key = def.key().into_boxed_str();
        Emitted {
            def: Arc::new(def),
            key,
            class,
        }
    }
}

/// The class that emitted a candidate, as far as the merge tells them
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// (1): equality columns, then the conjunct's range column last when
    /// `range`. Dropped when an existing index serves the conjunct.
    Conjunct { range: bool },
    /// (2) and (3).
    Plain,
    /// (4): tallied.
    SortAware,
    /// (5): dropped when an existing index covers it, tallied otherwise.
    Covering,
}

/// The candidate index generator.
pub struct CandidateGenerator {
    pub config: CandidateConfig,
}

impl CandidateGenerator {
    /// Generator with the given config.
    pub fn new(config: CandidateConfig) -> Self {
        CandidateGenerator { config }
    }

    /// Generate candidates for a template workload against `catalog`,
    /// excluding (anything covered by) `existing`.
    pub fn generate<S: Borrow<QueryShape>>(
        &self,
        workload: &[(S, u64)],
        catalog: &Catalog,
        existing: &[IndexDef],
    ) -> Vec<IndexDef> {
        self.generate_with_stats(workload, catalog, existing).0
    }

    /// [`generate`](Self::generate) plus per-class emission tallies: every
    /// template's [`emit`](Self::emit), in workload order, then one
    /// [`merge`](Self::merge).
    pub fn generate_with_stats<S: Borrow<QueryShape>>(
        &self,
        workload: &[(S, u64)],
        catalog: &Catalog,
        existing: &[IndexDef],
    ) -> (Vec<IndexDef>, CandidateStats) {
        let emitted: Vec<Emitted> = workload
            .iter()
            .flat_map(|(shape, _)| self.emit(shape.borrow(), catalog))
            .collect();
        let (merged, stats) = self.merge(&emitted, catalog, existing);
        // The emissions go first: each kept definition is then held once.
        drop(emitted);
        (
            merged.into_iter().map(Arc::unwrap_or_clone).collect(),
            stats,
        )
    }

    /// Step 2 for one template shape: its candidates before any merge.
    /// Reads the shape, the config and the statistics of the tables the
    /// shape touches, and not the existing indexes, so an emission holds
    /// while those tables' growth stamps and the config do.
    pub fn emit(&self, shape: &QueryShape, catalog: &Catalog) -> Vec<Emitted> {
        let mut out = Vec::new();
        // (1) Filter predicates: one composite per DNF conjunct.
        for t in &shape.tables {
            let Some(table) = catalog.table(&t.table) else {
                continue;
            };
            if table.rows < self.config.min_table_rows {
                continue;
            }
            for group in &t.conjunct_groups {
                if let Some((cols, range)) = self.conjunct_columns(group, table) {
                    let def = IndexDef::new(t.table.clone(), &to_strs(&cols));
                    out.push(Emitted::new(def, Class::Conjunct { range }));
                }
            }
        }

        // (2) Join predicates: driven-table join column (+ filter composite).
        for e in &shape.joins {
            let lt = catalog.table(&e.left_table);
            let rt = catalog.table(&e.right_table);
            let (driven_table, driven_col) = match (lt, rt) {
                (Some(l), Some(r)) => {
                    if l.rows <= r.rows {
                        (&e.left_table, &e.left_column)
                    } else {
                        (&e.right_table, &e.right_column)
                    }
                }
                (Some(_), None) => (&e.left_table, &e.left_column),
                (None, Some(_)) => (&e.right_table, &e.right_column),
                (None, None) => continue,
            };
            let driven_ok = catalog.table(driven_table).is_some_and(|table| {
                table.rows >= self.config.min_table_rows && table.column(driven_col).is_some()
            });
            if driven_ok {
                let table = catalog.table(driven_table).expect("checked above");
                let def = IndexDef::new(driven_table.clone(), &[driven_col]);
                out.push(Emitted::new(def, Class::Plain));

                // Composite: join column + the driven table's equality filters.
                if JOIN_FILTER_COMPOSITES {
                    if let Some(t) = shape.table(driven_table) {
                        let mut cols = vec![driven_col.clone()];
                        for atom in &t.conjuncts {
                            if cols.len() >= MAX_INDEX_COLUMNS {
                                break;
                            }
                            if atom.is_sargable() && atom.is_equality() {
                                if let Some(c) = atom.restricted_column() {
                                    if !cols.contains(&c.column)
                                        && table.column(&c.column).is_some()
                                    {
                                        cols.push(c.column.clone());
                                    }
                                }
                            }
                        }
                        if cols.len() > 1 {
                            let def = IndexDef::new(driven_table.clone(), &to_strs(&cols));
                            out.push(Emitted::new(def, Class::Plain));
                        }
                    }
                }
            }
            // The join also serves the other side: an index on the bigger
            // table's join column lets it be driven when the plan flips.
            let (other_table, other_col) =
                if driven_table == &e.left_table && driven_col == &e.left_column {
                    (&e.right_table, &e.right_column)
                } else {
                    (&e.left_table, &e.left_column)
                };
            if let Some(ot) = catalog.table(other_table) {
                if ot.rows >= self.config.min_table_rows && ot.column(other_col).is_some() {
                    let def = IndexDef::new(other_table.clone(), &[other_col]);
                    out.push(Emitted::new(def, Class::Plain));
                }
            }
        }

        // (3) GROUP/ORDER expressions.
        for t in &shape.tables {
            let Some(table) = catalog.table(&t.table) else {
                continue;
            };
            if table.rows < self.config.min_table_rows {
                continue;
            }
            for cols in [&t.group_columns, &t.order_columns] {
                if cols.is_empty() || cols.len() > MAX_INDEX_COLUMNS {
                    continue;
                }
                if !cols.iter().all(|c| table.column(c).is_some()) {
                    continue;
                }
                // "Takes effect": grouping a column that is already unique
                // per row is pointless.
                let trivially_distinct = cols.len() == 1
                    && table
                        .column(&cols[0])
                        .is_some_and(|c| c.stats.ndv >= table.rows as f64 * 0.99)
                    && !t.order_columns.contains(&cols[0]);
                if trivially_distinct {
                    continue;
                }
                let def = IndexDef::new(t.table.clone(), &to_strs(cols));
                out.push(Emitted::new(def, Class::Plain));
            }
        }

        // (4) Sort-order-aware composites (gated: `config.sort_aware`).
        // (5) Covering extensions (gated: `config.covering`).
        if self.config.sort_aware || self.config.covering {
            for t in &shape.tables {
                let Some(table) = catalog.table(&t.table) else {
                    continue;
                };
                if table.rows < self.config.min_table_rows {
                    continue;
                }
                if self.config.sort_aware {
                    self.sort_aware_candidates(t, table, &mut out);
                }
                if self.config.covering {
                    self.covering_candidates(t, table, &mut out);
                }
            }
        }
        out
    }

    /// Equality-filter columns of `t` that exist on `table`, in conjunct
    /// order (deterministic), deduplicated.
    fn equality_filter_columns(
        &self,
        t: &TableAtoms,
        table: &autoindex_storage::catalog::Table,
    ) -> Vec<String> {
        let mut cols = Vec::new();
        for atom in &t.conjuncts {
            if !atom.is_sargable() || !atom.is_equality() {
                continue;
            }
            let Some(c) = atom.restricted_column() else {
                continue;
            };
            if table.column(&c.column).is_some() && !cols.contains(&c.column) {
                cols.push(c.column.clone());
            }
        }
        cols
    }

    /// Class (4): `(equality filter columns ++ ORDER BY keys)` with the
    /// clause's per-key directions, so the planner can seek the filtered
    /// range already in output order — including mixed-direction orders no
    /// uniform-direction key can serve with a forward or backward scan.
    fn sort_aware_candidates(
        &self,
        t: &TableAtoms,
        table: &autoindex_storage::catalog::Table,
        out: &mut Vec<Emitted>,
    ) {
        if t.order_columns.is_empty() || !t.order_columns.iter().all(|c| table.column(c).is_some())
        {
            return;
        }
        let mut eq = self.equality_filter_columns(t, table);
        // Order keys win the budget; equality columns yield from the back.
        eq.retain(|c| !t.order_columns.contains(c));
        let budget = MAX_INDEX_COLUMNS;
        if t.order_columns.len() > budget {
            return;
        }
        eq.truncate(budget - t.order_columns.len());

        let mut cols: Vec<String> = eq;
        let mut dirs: Vec<SortDirection> = vec![SortDirection::Asc; cols.len()];
        for (c, desc) in t.order_columns.iter().zip(&t.order_desc) {
            cols.push(c.clone());
            dirs.push(if *desc {
                SortDirection::Desc
            } else {
                SortDirection::Asc
            });
        }
        let strs = to_strs(&cols);
        let def = IndexDef::new(t.table.clone(), &strs).with_directions(&dirs);
        out.push(Emitted::new(def, Class::SortAware));
    }

    /// Class (5): extend a filter (or filter+order) key with the
    /// statement's remaining referenced columns so the whole projection is
    /// answered from the index leaves. Only for statements with an explicit
    /// column list — `SELECT *` can never be covered.
    fn covering_candidates(
        &self,
        t: &TableAtoms,
        table: &autoindex_storage::catalog::Table,
        out: &mut Vec<Emitted>,
    ) {
        if t.whole_row
            || t.referenced_columns.is_empty()
            || !t
                .referenced_columns
                .iter()
                .all(|c| table.column(c).is_some())
        {
            return;
        }
        // Seed keys: each thresholded DNF-conjunct composite, plus the
        // sort-aware key when the statement orders this table.
        let mut seeds: Vec<(Vec<String>, Vec<SortDirection>)> = Vec::new();
        for group in &t.conjunct_groups {
            if let Some((cols, _)) = self.conjunct_columns(group, table) {
                let dirs = vec![SortDirection::Asc; cols.len()];
                seeds.push((cols, dirs));
            }
        }
        if !t.order_columns.is_empty() && t.order_columns.iter().all(|c| table.column(c).is_some())
        {
            let mut eq = self.equality_filter_columns(t, table);
            eq.retain(|c| !t.order_columns.contains(c));
            let mut cols = eq;
            let mut dirs = vec![SortDirection::Asc; cols.len()];
            for (c, desc) in t.order_columns.iter().zip(&t.order_desc) {
                cols.push(c.clone());
                dirs.push(if *desc {
                    SortDirection::Desc
                } else {
                    SortDirection::Asc
                });
            }
            seeds.push((cols, dirs));
        }
        for (mut cols, mut dirs) in seeds {
            if cols.is_empty() {
                continue;
            }
            // Append the missing referenced columns as an ASC payload.
            for c in &t.referenced_columns {
                if !cols.contains(c) {
                    cols.push(c.clone());
                    dirs.push(SortDirection::Asc);
                }
            }
            // A truncated payload would not cover; skip rather than emit a
            // silently non-covering wide key.
            if cols.len() > self.config.max_covering_columns {
                continue;
            }
            // Nothing appended means the seed key already covers.
            let def = IndexDef::new(t.table.clone(), &to_strs(&cols)).with_directions(&dirs);
            out.push(Emitted::new(def, Class::Covering));
        }
    }

    /// Order and threshold one DNF conjunct: equality atoms (most selective
    /// first), then the single most selective range atom. Returns `None`
    /// when the conjunct filters too little; otherwise the columns and
    /// whether the last one is the conjunct's range column (what the
    /// merge's permutation-aware "already served" test needs).
    fn conjunct_columns(
        &self,
        group: &[AtomicPredicate],
        table: &autoindex_storage::catalog::Table,
    ) -> Option<(Vec<String>, bool)> {
        let mut eqs: Vec<(&AtomicPredicate, f64)> = Vec::new();
        let mut ranges: Vec<(&AtomicPredicate, f64)> = Vec::new();
        for a in group {
            if !a.is_sargable() {
                continue;
            }
            let Some(col) = a.restricted_column() else {
                continue;
            };
            if table.column(&col.column).is_none() {
                continue;
            }
            let sel = atom_selectivity(a, table);
            if a.is_equality() {
                eqs.push((a, sel));
            } else {
                ranges.push((a, sel));
            }
        }
        if eqs.is_empty() && ranges.is_empty() {
            return None;
        }
        eqs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("selectivity is finite"));
        ranges.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("selectivity is finite"));

        let mut cols: Vec<String> = Vec::new();
        let mut combined = 1.0_f64;
        for (a, sel) in &eqs {
            let col = &a.restricted_column().expect("checked above").column;
            if !cols.contains(col) && cols.len() < MAX_INDEX_COLUMNS {
                cols.push(col.clone());
                combined *= sel;
            }
        }
        if let Some((a, sel)) = ranges.first() {
            let col = &a.restricted_column().expect("checked above").column;
            if !cols.contains(col) && cols.len() < MAX_INDEX_COLUMNS {
                cols.push(col.clone());
                combined *= sel;
            }
        }
        if cols.is_empty() || combined > self.config.selectivity_threshold {
            return None;
        }
        let range = ranges.first().is_some_and(|(a, _)| {
            a.restricted_column()
                .is_some_and(|c| cols.last() == Some(&c.column))
        });
        Some((cols, range))
    }

    /// Step 3 over the emissions of a whole workload, in workload order:
    /// drop what an existing index already serves, dedupe, merge by
    /// leftmost prefix, subtract what an existing index covers, add the
    /// partitioned variants — sorted by key, a LOCAL twin after its GLOBAL
    /// one. Sorts, dedups and runs on the emitted keys and renders none;
    /// every `covers` test stays within one table. A kept candidate is its
    /// emission's definition, shared; only a LOCAL twin is made here.
    pub fn merge<'e>(
        &self,
        emitted: impl IntoIterator<Item = &'e Emitted>,
        catalog: &Catalog,
        existing: &[impl Borrow<IndexDef>],
    ) -> (Vec<Arc<IndexDef>>, CandidateStats) {
        let mut by_table: HashMap<&str, Vec<&IndexDef>> = HashMap::new();
        for e in existing.iter().map(Borrow::borrow) {
            by_table.entry(e.table.as_str()).or_default().push(e);
        }
        let existing_on = |table: &str| by_table.get(table).map_or(&[][..], Vec::as_slice);

        // The two tests that read `existing` come first, so an emission they
        // drop merges nothing away; `stats` counts what they keep.
        let mut stats = CandidateStats::default();
        let mut raw: Vec<&Emitted> = Vec::new();
        for e in emitted {
            let existing = existing_on(&e.def.table);
            match e.class {
                Class::Conjunct { range } => {
                    // Permutation-aware (equality columns commute): the
                    // customer primary key `(c_w_id, c_d_id, c_id)` fully
                    // serves a would-be candidate `(c_id, c_d_id, c_w_id)`.
                    let cols = &e.def.columns;
                    let (eq_cols, range_col) = if range {
                        (&cols[..cols.len() - 1], cols.last())
                    } else {
                        (&cols[..], None)
                    };
                    if existing
                        .iter()
                        .any(|x| serves_conjunct(&x.columns, &[], eq_cols, range_col))
                    {
                        continue;
                    }
                }
                Class::Covering => {
                    if existing.iter().any(|x| x.covers(&e.def)) {
                        continue;
                    }
                    stats.covering += 1;
                }
                Class::SortAware => stats.sort_aware += 1,
                Class::Plain => {}
            }
            raw.push(e);
        }

        // Dedupe exact definitions.
        raw.sort_by(|a, b| a.key.cmp(&b.key));
        raw.dedup_by(|a, b| a.def == b.def);

        // A key starts with `table(` and no table name holds a `(`, so one
        // table's candidates are one run of the sorted list.
        let mut out = Vec::new();
        for run in raw.chunk_by(|a, b| a.def.table == b.def.table) {
            let table = &run[0].def.table;
            let existing = existing_on(table);
            let partitioned =
                PARTITIONED_VARIANTS && catalog.table(table).is_some_and(|t| t.partitions > 1);
            for (i, c) in run.iter().enumerate() {
                // Leftmost-prefix merge: drop any candidate covered by
                // another; then subtract what an existing index covers.
                let merged = run
                    .iter()
                    .enumerate()
                    .any(|(j, b)| j != i && b.def.covers(&c.def));
                if merged || existing.iter().any(|e| e.covers(&c.def)) {
                    continue;
                }
                out.push(Arc::clone(&c.def));
                // Partitioned tables: a LOCAL twin for index-type selection.
                if partitioned {
                    let local = IndexDef::clone(&c.def).with_scope(IndexScope::Local);
                    if !existing.contains(&&local) {
                        out.push(Arc::new(local));
                    }
                }
            }
        }
        (out, stats)
    }
}

fn to_strs(cols: &[String]) -> Vec<&str> {
    cols.iter().map(String::as_str).collect()
}

/// Whether an existing index with `index_cols` serves a conjunct of
/// `fixed_prefix ++ eq_cols (any order) ++ [range_col]` as well as a
/// purpose-built candidate would: the index must start with exactly
/// `fixed_prefix`, then consume every equality column (in any order, since
/// equality columns commute in a B+Tree prefix) and, if present, reach the
/// range column immediately after.
fn serves_conjunct(
    index_cols: &[String],
    fixed_prefix: &[String],
    eq_cols: &[String],
    range_col: Option<&String>,
) -> bool {
    let (p, e) = (fixed_prefix.len(), eq_cols.len());
    if index_cols.len() < p + e + usize::from(range_col.is_some()) {
        return false;
    }
    // Fixed prefix: position-sensitive.
    if index_cols[..p] != *fixed_prefix {
        return false;
    }
    // The next `e` columns are the equality columns in some order: each of
    // them as often as among the equality columns. A foreign column, or one
    // seen more often than there, interrupts the prefix.
    let consumed = &index_cols[p..p + e];
    let count = |cols: &[String], c: &String| cols.iter().filter(|x| *x == c).count();
    if !consumed
        .iter()
        .all(|c| count(consumed, c) == count(eq_cols, c))
    {
        return false;
    }
    match range_col {
        None => true,
        Some(r) => index_cols.get(p + e) == Some(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Column, TableBuilder};
    use autoindex_storage::shape::QueryShape;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("orders", 1_000_000)
                .column(Column::int("o_id", 1_000_000))
                .column(Column::int("o_c_id", 30_000))
                .column(Column::int("o_w_id", 100))
                .column(Column::int("o_d_id", 10))
                .column(Column::float("o_amount", 100_000, 0.0, 10_000.0))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("customer", 30_000)
                .column(Column::int("c_id", 30_000))
                .column(Column::text("c_last", 1_000, 16))
                .column(Column::int("c_w_id", 100))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("part_t", 500_000)
                .column(Column::int("pk", 500_000))
                .column(Column::int("region", 16))
                .column(Column::int("val", 250_000))
                .partitioned(16, "region")
                .build()
                .unwrap(),
        );
        c
    }

    fn gen(sqls: &[&str], existing: &[IndexDef]) -> Vec<IndexDef> {
        let c = catalog();
        let workload: Vec<(QueryShape, u64)> = sqls
            .iter()
            .map(|s| (QueryShape::extract(&parse_statement(s).unwrap(), &c), 1u64))
            .collect();
        CandidateGenerator::new(CandidateConfig::default()).generate(&workload, &c, existing)
    }

    fn keys(v: &[IndexDef]) -> Vec<String> {
        v.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn composite_from_and_conjunct() {
        let c = gen(
            &["SELECT * FROM orders WHERE o_c_id = 5 AND o_w_id = 2"],
            &[],
        );
        // Equality atoms ordered most-selective-first: o_c_id (1/30000)
        // before o_w_id (1/100).
        assert!(
            keys(&c).contains(&"orders(o_c_id,o_w_id)".to_string()),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn range_column_goes_last() {
        let c = gen(
            &["SELECT * FROM orders WHERE o_amount > 9000 AND o_c_id = 5"],
            &[],
        );
        assert!(
            keys(&c).contains(&"orders(o_c_id,o_amount)".to_string()),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn unselective_conjunct_rejected() {
        // o_d_id alone keeps 1/10 of rows — passes 1/3; o_amount > tiny
        // keeps ~all rows — rejected.
        let c = gen(&["SELECT * FROM orders WHERE o_amount > 1"], &[]);
        assert!(c.is_empty(), "{:?}", keys(&c));
    }

    #[test]
    fn dnf_equivalent_forms_give_same_candidates() {
        let c1 = gen(
            &["SELECT * FROM orders WHERE (o_c_id = 1 AND o_w_id = 2) OR (o_c_id = 1 AND o_d_id = 3)"],
            &[],
        );
        let c2 = gen(
            &["SELECT * FROM orders WHERE o_c_id = 1 AND (o_w_id = 2 OR o_d_id = 3)"],
            &[],
        );
        assert_eq!(keys(&c1), keys(&c2));
        assert!(keys(&c1).contains(&"orders(o_c_id,o_w_id)".to_string()));
        assert!(keys(&c1).contains(&"orders(o_c_id,o_d_id)".to_string()));
    }

    #[test]
    fn join_generates_driven_table_candidate() {
        let c = gen(
            &["SELECT * FROM customer, orders WHERE customer.c_id = orders.o_c_id AND customer.c_w_id = 7"],
            &[],
        );
        let k = keys(&c);
        // Driven side is the smaller table (customer), but the fact-side
        // join column is also offered.
        assert!(k.iter().any(|s| s.starts_with("customer(c_id")), "{k:?}");
        assert!(k.contains(&"orders(o_c_id)".to_string()), "{k:?}");
    }

    #[test]
    fn join_filter_composite_generated() {
        let c = gen(
            &["SELECT * FROM customer, orders WHERE customer.c_id = orders.o_c_id AND customer.c_w_id = 7"],
            &[],
        );
        assert!(
            keys(&c).contains(&"customer(c_id,c_w_id)".to_string()),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn group_and_order_candidates() {
        let c = gen(
            &["SELECT c_w_id, COUNT(*) FROM customer GROUP BY c_w_id"],
            &[],
        );
        assert!(keys(&c).contains(&"customer(c_w_id)".to_string()));
        let c = gen(&["SELECT * FROM customer ORDER BY c_last"], &[]);
        assert!(keys(&c).contains(&"customer(c_last)".to_string()));
    }

    #[test]
    fn trivially_distinct_group_skipped() {
        // Grouping by a unique column takes no effect.
        let c = gen(&["SELECT c_id, COUNT(*) FROM customer GROUP BY c_id"], &[]);
        assert!(
            !keys(&c).contains(&"customer(c_id)".to_string()),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn leftmost_prefix_merge() {
        let c = gen(
            &[
                "SELECT * FROM orders WHERE o_c_id = 1",
                "SELECT * FROM orders WHERE o_c_id = 1 AND o_w_id = 2",
            ],
            &[],
        );
        let k = keys(&c);
        assert!(k.contains(&"orders(o_c_id,o_w_id)".to_string()));
        assert!(
            !k.contains(&"orders(o_c_id)".to_string()),
            "prefix must merge: {k:?}"
        );
    }

    #[test]
    fn permuted_equality_prefix_subsumed_by_existing() {
        // The PK orders the same equality columns differently; a candidate
        // for the same conjunct must not be generated.
        let existing = [IndexDef::new("orders", &["o_w_id", "o_c_id"])];
        let c = gen(
            &["SELECT * FROM orders WHERE o_c_id = 1 AND o_w_id = 2"],
            &existing,
        );
        assert!(
            !keys(&c).iter().any(|k| k.contains("o_c_id,o_w_id")),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn a_served_conjunct_merges_nothing_away() {
        // The existing index serves the two-column conjunct, so its
        // candidate `(o_c_id,o_w_id)` is dropped before the leftmost-prefix
        // merge and cannot take `(o_c_id)` with it.
        let existing = [IndexDef::new("orders", &["o_w_id", "o_c_id"])];
        let c = gen(
            &[
                "SELECT * FROM orders WHERE o_c_id = 1 AND o_w_id = 2",
                "SELECT * FROM orders WHERE o_c_id = 1",
            ],
            &existing,
        );
        assert_eq!(keys(&c), ["orders(o_c_id)"]);
    }

    #[test]
    fn range_position_not_permuted() {
        // (o_amount range) must stay last: an existing index with the range
        // column in the middle does NOT serve the conjunct.
        let existing = [IndexDef::new("orders", &["o_amount", "o_c_id"])];
        let c = gen(
            &["SELECT * FROM orders WHERE o_amount > 9900 AND o_c_id = 5"],
            &existing,
        );
        assert!(
            keys(&c).contains(&"orders(o_c_id,o_amount)".to_string()),
            "{:?}",
            keys(&c)
        );
    }

    #[test]
    fn serves_conjunct_rules() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        // Permuted equality prefix.
        assert!(serves_conjunct(
            &s(&["a", "b", "c"]),
            &[],
            &s(&["b", "a"]),
            None
        ));
        // Range must follow the consumed equalities.
        let r = "r".to_string();
        assert!(serves_conjunct(
            &s(&["a", "b", "r"]),
            &[],
            &s(&["b", "a"]),
            Some(&r)
        ));
        assert!(!serves_conjunct(
            &s(&["a", "r", "b"]),
            &[],
            &s(&["b", "a"]),
            Some(&r)
        ));
        // Foreign column interrupting the prefix defeats it.
        assert!(!serves_conjunct(
            &s(&["a", "x", "b"]),
            &[],
            &s(&["a", "b"]),
            None
        ));
        // Fixed prefix is position-sensitive.
        assert!(serves_conjunct(
            &s(&["j", "a"]),
            &s(&["j"]),
            &s(&["a"]),
            None
        ));
        assert!(!serves_conjunct(
            &s(&["a", "j"]),
            &s(&["j"]),
            &s(&["a"]),
            None
        ));
        // Too short.
        assert!(!serves_conjunct(&s(&["a"]), &[], &s(&["a", "b"]), None));
    }

    /// `serves_conjunct` as it was written first: consume the equality
    /// columns from a list, one index column at a time.
    fn serves_conjunct_by_list(
        index_cols: &[String],
        fixed_prefix: &[String],
        eq_cols: &[String],
        range_col: Option<&String>,
    ) -> bool {
        if index_cols.len() < fixed_prefix.len() + eq_cols.len() + usize::from(range_col.is_some())
        {
            return false;
        }
        if !index_cols.iter().zip(fixed_prefix).all(|(a, b)| a == b) {
            return false;
        }
        let mut remaining: Vec<&String> = eq_cols.iter().collect();
        let mut i = fixed_prefix.len();
        while !remaining.is_empty() {
            let Some(col) = index_cols.get(i) else {
                return false;
            };
            match remaining.iter().position(|c| *c == col) {
                Some(p) => {
                    remaining.swap_remove(p);
                }
                None => return false,
            }
            i += 1;
        }
        match range_col {
            None => true,
            Some(r) => index_cols.get(i) == Some(r),
        }
    }

    #[test]
    fn serves_conjunct_is_the_list_consuming_check() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::prop_assert_eq;
        use autoindex_support::rng::StdRng;
        const COLS: [&str; 4] = ["a", "b", "c", "d"];
        property(
            "serves_conjunct_is_the_list_consuming_check",
            PropConfig::default(),
            |rng, _size| {
                // Four names, so columns repeat and collide; up to `max`.
                let cols = |rng: &mut StdRng, max: usize| -> Vec<String> {
                    let n = rng.random_range(0..max);
                    (0..n)
                        .map(|_| COLS[rng.random_range(0..COLS.len())].to_string())
                        .collect()
                };
                let prefix = cols(rng, 3);
                let eq = cols(rng, 4);
                let range = cols(rng, 2).pop();
                let mut index = if rng.random_bool(0.5) {
                    // Built to serve, then perhaps disturbed.
                    let mut permuted = eq.clone();
                    rng.shuffle(&mut permuted);
                    let mut index = prefix.clone();
                    index.extend(permuted);
                    index.extend(range.clone());
                    index
                } else {
                    cols(rng, 7)
                };
                if rng.random_bool(0.3) && !index.is_empty() {
                    let at = rng.random_range(0..index.len());
                    index[at] = COLS[rng.random_range(0..COLS.len())].to_string();
                }
                let tail = cols(rng, 2);
                index.extend(tail);
                prop_assert_eq!(
                    serves_conjunct(&index, &prefix, &eq, range.as_ref()),
                    serves_conjunct_by_list(&index, &prefix, &eq, range.as_ref()),
                    "index {index:?} prefix {prefix:?} eq {eq:?} range {range:?}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn existing_indexes_subtracted() {
        let existing = [IndexDef::new("orders", &["o_c_id", "o_w_id"])];
        let c = gen(
            &[
                "SELECT * FROM orders WHERE o_c_id = 1",
                "SELECT * FROM orders WHERE o_c_id = 1 AND o_w_id = 2",
            ],
            &existing,
        );
        assert!(c.is_empty(), "{:?}", keys(&c));
    }

    #[test]
    fn partitioned_table_gets_local_variant() {
        let c = gen(&["SELECT * FROM part_t WHERE val = 7"], &[]);
        let k = keys(&c);
        assert!(k.contains(&"part_t(val)".to_string()), "{k:?}");
        assert!(k.contains(&"part_t(val) LOCAL".to_string()), "{k:?}");
    }

    #[test]
    fn deterministic_order() {
        let sqls = [
            "SELECT * FROM orders WHERE o_c_id = 1 AND o_w_id = 2",
            "SELECT * FROM customer WHERE c_last = 'X'",
        ];
        assert_eq!(keys(&gen(&sqls, &[])), keys(&gen(&sqls, &[])));
    }

    fn gen_with(
        cfg: CandidateConfig,
        sqls: &[&str],
        existing: &[IndexDef],
    ) -> (Vec<IndexDef>, CandidateStats) {
        let c = catalog();
        let workload: Vec<(QueryShape, u64)> = sqls
            .iter()
            .map(|s| (QueryShape::extract(&parse_statement(s).unwrap(), &c), 1u64))
            .collect();
        CandidateGenerator::new(cfg).generate_with_stats(&workload, &c, existing)
    }

    #[test]
    fn builder_validates_fields() {
        assert!(CandidateConfig::default().validate().is_ok());
        let threshold = |selectivity_threshold| CandidateConfig {
            selectivity_threshold,
            ..CandidateConfig::default()
        };
        assert!(threshold(0.0).validate().is_err());
        assert!(threshold(f64::NAN).validate().is_err());
        assert!(threshold(1.5).validate().is_err());
        let narrow = CandidateConfig {
            max_covering_columns: 3,
            ..CandidateConfig::default()
        };
        assert!(narrow.validate().is_err());
        let cfg = CandidateConfig {
            sort_aware: true,
            covering: true,
            max_covering_columns: 8,
            ..CandidateConfig::default()
        };
        assert!(cfg.validate().is_ok());
        assert!(cfg.sort_aware && cfg.covering);
        assert_eq!(cfg.max_covering_columns, 8);
    }

    #[test]
    fn new_classes_off_by_default() {
        let sql = "SELECT o_id, o_amount FROM orders WHERE o_c_id = 5 \
                   ORDER BY o_w_id DESC, o_d_id LIMIT 10";
        let (cands, stats) = gen_with(CandidateConfig::default(), &[sql], &[]);
        assert_eq!(stats, CandidateStats::default());
        assert!(
            !keys(&cands).iter().any(|k| k.contains("DESC")),
            "{:?}",
            keys(&cands)
        );
    }

    #[test]
    fn sort_aware_emits_directional_composite() {
        let sql = "SELECT o_id, o_amount FROM orders WHERE o_c_id = 5 \
                   ORDER BY o_w_id DESC, o_d_id LIMIT 10";
        let cfg = CandidateConfig {
            sort_aware: true,
            ..CandidateConfig::default()
        };
        let (cands, stats) = gen_with(cfg, &[sql], &[]);
        assert!(stats.sort_aware >= 1);
        assert!(
            keys(&cands).contains(&"orders(o_c_id,o_w_id DESC,o_d_id)".to_string()),
            "{:?}",
            keys(&cands)
        );
    }

    #[test]
    fn covering_appends_referenced_payload() {
        let sql = "SELECT o_id FROM orders WHERE o_c_id = 5 AND o_w_id = 2";
        let cfg = CandidateConfig {
            covering: true,
            ..CandidateConfig::default()
        };
        let (cands, stats) = gen_with(cfg, &[sql], &[]);
        assert!(stats.covering >= 1);
        assert!(
            keys(&cands).contains(&"orders(o_c_id,o_w_id,o_id)".to_string()),
            "{:?}",
            keys(&cands)
        );
    }

    #[test]
    fn covering_skips_select_star_and_wide_payloads() {
        let cfg = CandidateConfig {
            covering: true,
            max_covering_columns: 4,
            ..CandidateConfig::default()
        };
        let (_, stats) = gen_with(cfg.clone(), &["SELECT * FROM orders WHERE o_c_id = 5"], &[]);
        assert_eq!(stats.covering, 0, "SELECT * can never be covered");
        // Payload that would exceed the cap is dropped, not truncated.
        let (cands, stats) = gen_with(
            cfg,
            &["SELECT o_id, o_amount, o_d_id, o_w_id FROM orders WHERE o_c_id = 5"],
            &[],
        );
        assert_eq!(stats.covering, 0, "{:?}", keys(&cands));
    }

    #[test]
    fn sort_aware_candidates_survive_search_and_dedupe() {
        // The same statement twice must not double-emit after reduce, and
        // a covering twin of the sort key merges into the wider one.
        let sql = "SELECT o_id FROM orders WHERE o_c_id = 5 ORDER BY o_amount DESC LIMIT 10";
        let cfg = CandidateConfig {
            sort_aware: true,
            covering: true,
            ..CandidateConfig::default()
        };
        let (cands, _) = gen_with(cfg, &[sql, sql], &[]);
        let k = keys(&cands);
        let dir_keys: Vec<&String> = k.iter().filter(|s| s.contains("DESC")).collect();
        let mut dedup = dir_keys.clone();
        dedup.dedup();
        assert_eq!(dir_keys, dedup, "{k:?}");
    }

    #[test]
    fn subquery_tables_produce_candidates() {
        let c = gen(
            &["SELECT * FROM orders WHERE o_c_id IN (SELECT c_id FROM customer WHERE c_last = 'BARBAR')"],
            &[],
        );
        let k = keys(&c);
        assert!(k.iter().any(|s| s.contains("c_last")), "{k:?}");
    }
}
