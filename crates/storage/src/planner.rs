//! What-if planner and cost model.
//!
//! Given a [`QueryShape`] and an index configuration, the planner chooses
//! access paths (sequential vs. index scan, with leftmost-prefix matching),
//! join strategies (hash vs. index nested-loop) and sort avoidance, then
//! reports a [`CostFeatures`] breakdown in optimizer cost units:
//!
//! * `c_data` — data processing cost: everything the *native* estimator can
//!   see (scan IO+CPU, join CPU, sort CPU, heap write cost),
//! * `c_io` / `c_cpu` — the §V-A *index maintenance* costs, which the
//!   native estimator ignores ("current database cannot estimate the index
//!   maintenance costs") but the learned estimator weighs in.
//!
//! The relative magnitudes follow PostgreSQL's model: `seq_page_cost = 1`,
//! `random_page_cost = 4`, per-tuple CPU costs in the 1e-2…1e-3 range. That
//! is what fixes the seq-vs-index crossover, the hash-vs-NL crossover, and
//! therefore the *shape* of every experiment.

use crate::catalog::{Catalog, Table};
use crate::index::{
    geometry, maintenance_cost, IndexDef, IndexGeometry, IndexId, IndexList, IndexScope,
    MaintenanceCost, MaintenanceTerms, WriteMaintenance,
};
use crate::selectivity::{atom_selectivity_at, combined_selectivity};
use crate::shape::{QueryShape, TableAtoms, WriteKind};
use crate::usage::Maintenance;
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_support::rng::derive_seed;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Optimizer cost parameters (PostgreSQL/openGauss defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_index_tuple_cost: f64,
    pub cpu_operator_cost: f64,
    /// Fraction of index descent IO assumed cached (upper levels are hot).
    pub descent_cache_factor: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            descent_cache_factor: 0.25,
        }
    }
}

/// The §V cost-feature vector of one statement under one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostFeatures {
    /// Data processing cost (read side + heap writes): `C^data`.
    pub c_data: f64,
    /// Index maintenance IO: `C^io`.
    pub c_io: f64,
    /// Index maintenance CPU: `C^cpu`.
    pub c_cpu: f64,
    /// Sort cost actually paid: `C^sort`. Already *included* in `c_data`;
    /// broken out so the learned regression can see how much of a plan's
    /// cost an order-providing index would remove.
    pub c_sort: f64,
    /// Random heap-fetch cost paid by index paths: `C^heap`. Included in
    /// `c_data`; broken out so the regression can see covering benefit.
    pub c_heap: f64,
}

impl CostFeatures {
    /// The native-estimator view: data cost only (maintenance invisible).
    pub fn native_cost(&self) -> f64 {
        self.c_data
    }

    /// The physically-grounded total used by simulated execution. `c_sort`
    /// and `c_heap` are sub-components of `c_data` and carry no extra
    /// weight here — they exist for the learned model's benefit only.
    pub fn true_cost(&self, w: &TrueCostWeights) -> f64 {
        w.data * self.c_data + w.io_maint * self.c_io + w.cpu_maint * self.c_cpu
    }

    /// Feature vector for the learned regression, in §V order
    /// `(C^data, C^io, C^cpu, C^sort, C^heap)`.
    pub fn as_vec(&self) -> [f64; 5] {
        [self.c_data, self.c_io, self.c_cpu, self.c_sort, self.c_heap]
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &CostFeatures) {
        self.c_data += other.c_data;
        self.c_io += other.c_io;
        self.c_cpu += other.c_cpu;
        self.c_sort += other.c_sort;
        self.c_heap += other.c_heap;
    }

    /// Uniformly scaled copy. The fault layer's stale-statistics windows
    /// distort every what-if feature by a per-window factor.
    pub fn scaled(&self, k: f64) -> CostFeatures {
        CostFeatures {
            c_data: self.c_data * k,
            c_io: self.c_io * k,
            c_cpu: self.c_cpu * k,
            c_sort: self.c_sort * k,
            c_heap: self.c_heap * k,
        }
    }
}

/// Ground-truth weights the simulator applies when "executing" a plan. The
/// native estimator implicitly uses `(1, 0, 0)`; the learned estimator has
/// to recover something close to these from historical data.
#[derive(Debug, Clone, PartialEq)]
pub struct TrueCostWeights {
    pub data: f64,
    pub io_maint: f64,
    pub cpu_maint: f64,
}

impl Default for TrueCostWeights {
    fn default() -> Self {
        TrueCostWeights {
            data: 1.0,
            io_maint: 1.3,
            cpu_maint: 1.15,
        }
    }
}

/// How one table is accessed in the chosen plan. Which table is the
/// path's position: [`PlanSummary::paths`] runs parallel to
/// [`QueryShape::tables`], so a path owns no copy of the name and costs
/// nothing to build and discard while candidates are compared.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPath {
    /// Index used, or `None` for a sequential scan.
    pub index: Option<IndexId>,
    /// Additional indexes combined in a BitmapOr path (one per OR arm
    /// beyond the first; empty for plain scans).
    pub bitmap_indexes: IndexList,
    /// Selectivity of the index-matched prefix (1.0 for seq scans).
    pub matched_sel: f64,
    /// Estimated output rows after all filters.
    pub rows_out: f64,
    /// Access cost in optimizer units.
    pub cost: f64,
    /// Whether this path provides the statement's required sort order
    /// (forward scan, or a backward scan when every key direction is the
    /// reverse of the wanted one).
    pub provides_order: bool,
    /// Whether this is an index-only scan (every referenced column lives in
    /// the index leaves; base-table fetches reduced to visibility checks).
    pub covering: bool,
    /// Random heap-fetch component of `cost` (0 for seq scans, whose pages
    /// are read sequentially).
    pub heap_cost: f64,
}

/// A join step in the chosen plan.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    Hash,
    /// Index nested-loop using the given inner index.
    IndexNestedLoop(IndexId),
    /// Plain nested loop (no usable index, no hashable edge).
    NestedLoop,
}

/// The full plan summary for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// One path per entry of the planned shape's `tables`, in that order.
    pub paths: Vec<AccessPath>,
    pub join_strategies: Vec<JoinStrategy>,
    /// Sort cost actually paid (0 when an index provides the order).
    pub sort_cost: f64,
    /// Per-index maintenance charged on the write side.
    pub maintenance: Vec<(IndexId, MaintenanceCost)>,
    /// Indexes that served reads in this plan (for usage tracking).
    pub indexes_used: Vec<IndexId>,
    pub features: CostFeatures,
    /// Tables whose sort/group requirement was satisfied by an
    /// order-providing index path (no simulated sort paid).
    pub sort_elided: u32,
    /// Index-only scans chosen in this plan.
    pub covering_scans: u32,
}

impl PlanSummary {
    /// Total native-estimator cost.
    pub fn native_cost(&self) -> f64 {
        self.features.native_cost()
    }

    /// Render an `EXPLAIN`-style description of the plan. `shape` is the
    /// statement this plan is of (it names the tables); `index_name`
    /// resolves index ids to display names (pass the owning database's
    /// definitions; unknown ids print as `idx#n`).
    pub fn explain(
        &self,
        shape: &QueryShape,
        index_name: &dyn Fn(IndexId) -> Option<String>,
    ) -> String {
        use std::fmt::Write;
        let name = |id: IndexId| index_name(id).unwrap_or_else(|| id.to_string());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan  (data={:.1}, maint_io={:.2}, maint_cpu={:.2})",
            self.features.c_data, self.features.c_io, self.features.c_cpu
        );
        for (t, p) in shape.tables.iter().zip(&self.paths) {
            match p.index {
                Some(id) => {
                    let mut tags = String::new();
                    if p.provides_order {
                        tags.push_str(", provides order");
                    }
                    if p.covering {
                        tags.push_str(", index only");
                    }
                    let _ = writeln!(
                        out,
                        "  -> Index Scan on {} using {}  (sel={:.4}, rows={:.0}, cost={:.1}{})",
                        t.table,
                        name(id),
                        p.matched_sel,
                        p.rows_out,
                        p.cost,
                        tags
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  -> Seq Scan on {}  (rows={:.0}, cost={:.1})",
                        t.table, p.rows_out, p.cost
                    );
                }
            }
        }
        for s in &self.join_strategies {
            let _ = match s {
                JoinStrategy::Hash => writeln!(out, "  -> Hash Join"),
                JoinStrategy::IndexNestedLoop(id) => {
                    writeln!(out, "  -> Index Nested Loop using {}", name(*id))
                }
                JoinStrategy::NestedLoop => writeln!(out, "  -> Nested Loop (no edge)"),
            };
        }
        if self.sort_cost > 0.0 {
            let _ = writeln!(out, "  -> Sort  (cost={:.1})", self.sort_cost);
        }
        for (id, m) in &self.maintenance {
            let _ = writeln!(
                out,
                "  -> Index Maintenance on {}  (io={:.2}, cpu={:.2})",
                name(*id),
                m.io,
                m.cpu
            );
        }
        out
    }
}

/// An index made visible to the planner (real or hypothetical), with its
/// geometry resolved. `D` is how the definition is held: owned (the
/// default, for lists built outside the database), shared (`Arc` — the
/// live [`IndexView`] and every snapshot of it) or borrowed from the
/// caller's configuration (what-if). The database's own paths copy none.
#[derive(Debug, Clone)]
pub struct VisibleIndex<D = IndexDef> {
    pub id: IndexId,
    pub def: D,
    pub geo: IndexGeometry,
}

impl<D: Borrow<IndexDef>> VisibleIndex<D> {
    /// The definition, however it is held.
    pub fn def(&self) -> &IndexDef {
        self.def.borrow()
    }
}

/// What the planner plans against. It only ever asks for the indexes on
/// one table — access paths, bitmap-OR arms, lookup joins and write
/// maintenance all price a table from its own indexes — and breaks cost
/// ties towards the index that comes first, so an implementation fixes a
/// plan by the *per-table* order it yields.
pub trait IndexSet {
    /// How a definition is held (see [`VisibleIndex`]).
    type Def: Borrow<IndexDef>;

    /// The indexes on `table`, in this set's order.
    fn on_table<'s>(&'s self, table: &'s str) -> impl Iterator<Item = &'s VisibleIndex<Self::Def>>;
}

/// A flat list in any table order: filtered per request.
impl<D: Borrow<IndexDef>> IndexSet for [VisibleIndex<D>] {
    type Def = D;

    fn on_table<'s>(&'s self, table: &'s str) -> impl Iterator<Item = &'s VisibleIndex<D>> {
        self.iter().filter(move |vi| vi.def().table == table)
    }
}

/// The real index set of a database, resolved once and kept grouped by
/// table: one table's indexes are a contiguous run in id order, found
/// through a small per-table directory. [`crate::SimDb`] owns the
/// live view behind an `Arc` and edits it copy-on-write, so a
/// [`crate::DbSnapshot`] shares it instead of copying it (a copy is two
/// vectors; definitions are shared). Invalidation rule: geometry depends
/// on the definition and on its table's row count, so DDL touches one
/// entry and table growth re-sizes one table's run — nothing is rebuilt.
/// Its byte total and its [`IndexView::fingerprint`] are kept the same way.
#[derive(Debug, Clone, Default)]
pub struct IndexView {
    /// Every index, one table's run after another; a run is in id order.
    grouped: Vec<VisibleIndex<Arc<IndexDef>>>,
    /// Each table that has indexes, in [`table_order`], with the end of its
    /// run in `grouped` (runs are adjacent: one starts where the last ended).
    runs: Vec<(Arc<str>, usize)>,
    bytes: u64,
    /// The wrapping sum of every definition's [`fingerprint_share`].
    fingerprint: u64,
}

impl IndexView {
    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.grouped.len()
    }

    /// Whether the view holds no index.
    pub fn is_empty(&self) -> bool {
        self.grouped.is_empty()
    }

    /// Total on-disk bytes of every index at its resolved geometry.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The identity of the index *set*: equal for equal sets of
    /// definitions whatever their ids or the order they were created in,
    /// and different — up to a 64-bit collision — for any other set,
    /// scope included. What a serve transcript prints as a configuration
    /// and what a guard rollback reports it restored.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Every index, one table's run after another; a run is in id order.
    pub fn iter(&self) -> impl Iterator<Item = &VisibleIndex<Arc<IndexDef>>> {
        self.grouped.iter()
    }

    /// The indexes on `table`, in id order.
    pub fn table(&self, table: &str) -> &[VisibleIndex<Arc<IndexDef>>] {
        &self.grouped[self.run(table).1]
    }

    /// `table`'s slot in the directory (or where it would go) and its run
    /// (empty, at the insertion point, when it has no indexes).
    fn run(&self, table: &str) -> (Result<usize, usize>, Range<usize>) {
        let slot = self.runs.binary_search_by(|(t, _)| table_order(t, table));
        let (Ok(i) | Err(i)) = slot;
        let start = if i == 0 { 0 } else { self.runs[i - 1].1 };
        let end = if slot.is_ok() { self.runs[i].1 } else { start };
        (slot, start..end)
    }

    /// Add an index whose id is above every id already on its table.
    pub(crate) fn insert(&mut self, id: IndexId, def: Arc<IndexDef>, geo: IndexGeometry) {
        let (slot, run) = self.run(&def.table);
        debug_assert!(self.grouped[run.clone()].iter().all(|vi| vi.id < id));
        let i = slot.unwrap_or_else(|i| {
            self.runs.insert(i, (def.table.as_str().into(), run.end));
            i
        });
        for (_, end) in &mut self.runs[i..] {
            *end += 1;
        }
        self.bytes += geo.bytes;
        self.fingerprint = self.fingerprint.wrapping_add(fingerprint_share(&def));
        self.grouped.insert(run.end, VisibleIndex { id, def, geo });
    }

    /// Remove index `id` of `table`, if present.
    pub(crate) fn remove(&mut self, table: &str, id: IndexId) {
        let (Ok(i), run) = self.run(table) else {
            return;
        };
        let Some(at) = self.grouped[run.clone()].iter().position(|vi| vi.id == id) else {
            return;
        };
        let gone = self.grouped.remove(run.start + at);
        self.bytes -= gone.geo.bytes;
        self.fingerprint = self.fingerprint.wrapping_sub(fingerprint_share(&gone.def));
        for (_, end) in &mut self.runs[i..] {
            *end -= 1;
        }
        if run.len() == 1 {
            self.runs.remove(i);
        }
    }

    /// Where `table`'s indexes sit, for [`IndexView::resize`].
    pub(crate) fn run_of(&self, table: &str) -> Range<usize> {
        self.run(table).1
    }

    /// Re-size the indexes in `run` after their table grew to `rows` rows.
    pub(crate) fn resize(&mut self, run: Range<usize>, rows: u64) {
        for vi in &mut self.grouped[run] {
            let geo = vi.geo.at_rows(vi.def().scope, rows);
            self.bytes = self.bytes - vi.geo.bytes + geo.bytes;
            vi.geo = geo;
        }
    }
}

/// One definition's part of [`IndexView::fingerprint`]: its
/// [`IndexDef::identity_hash`] (table, key parts, directions, scope) mixed
/// through SplitMix64 first: FNV-1a ends on one multiply, so raw values of
/// keys one byte apart stay arithmetically related, and a sum would carry
/// that over; mixed parts are independent-looking, so their sum separates
/// sets as well as a hash of the whole set would.
fn fingerprint_share(def: &IndexDef) -> u64 {
    derive_seed(0, def.identity_hash())
}

/// The directory's order: by length, then bytes. Any total order serves a
/// binary search; this one settles most probes on the length held in the
/// reference, without following it to the name.
fn table_order(a: &str, b: &str) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

impl IndexSet for IndexView {
    type Def = Arc<IndexDef>;

    fn on_table<'s>(
        &'s self,
        table: &'s str,
    ) -> impl Iterator<Item = &'s VisibleIndex<Arc<IndexDef>>> {
        self.table(table).iter()
    }
}

/// What pricing a plan returns: a [`PlanSummary`] without its paths and
/// join steps (those went to the caller's closures), holding nothing on
/// the heap of its own: the used indexes sit inline, the maintenance
/// charges are the plan's, shared. Fields as there.
pub(crate) struct Planned {
    pub(crate) sort_cost: f64,
    pub(crate) maintenance: Maintenance,
    pub(crate) indexes_used: IndexList,
    pub(crate) features: CostFeatures,
    pub(crate) sort_elided: u32,
    pub(crate) covering_scans: u32,
}

/// Tables or matched atoms a statement prices on the stack; one with more
/// spills its scratch to the heap ([`scratch`]).
const INLINE: usize = 16;

/// `n` values of pricing's per-statement scratch: the first `n` of
/// `inline` (which the caller filled with `fill`) when they fit, else
/// `spill`, filled.
fn scratch<'s, T: Copy>(
    inline: &'s mut [T; INLINE],
    spill: &'s mut Vec<T>,
    n: usize,
    fill: T,
) -> &'s mut [T] {
    match inline.get_mut(..n) {
        Some(values) => values,
        None => {
            spill.resize(n, fill);
            spill
        }
    }
}

/// What join planning reads of a table's chosen access path, and of the
/// sequential scan the no-index baseline joins instead.
#[derive(Clone, Copy, Default)]
struct Scanned {
    rows_out: f64,
    cost: f64,
    seq_cost: f64,
}

/// The planner: stateless over a catalog + parameters.
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub params: &'a CostParams,
}

/// Result of matching conjuncts against an index prefix: what of it the
/// atoms' *kinds* fix. The matched atoms themselves went to
/// [`PreparedPlan::matched`]; their combined selectivity is a statement's.
struct PrefixMatch {
    /// The matched atoms, as a run of [`PreparedPlan::matched`].
    atoms: Range<u32>,
    /// Whether the last matched atom was an equality (the prefix continues
    /// providing order on the following column).
    all_equality: bool,
    /// Whether the partition key was matched by an equality (local-index
    /// partition pruning).
    partition_pruned: bool,
}

impl PrefixMatch {
    /// Number of leading index columns matched.
    fn matched_cols(&self) -> usize {
        self.atoms.len()
    }
}

// ---------------------------------------------------------------- prepare

/// Where a prepared atom sits in its table's [`TableAtoms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomSource {
    /// `conjuncts[i]`.
    Conjunct(u32),
    /// `conjunct_groups[g][i]`.
    Group(u32, u32),
}

/// One filter atom some index matches: where a statement's binding of it
/// is found, with its column resolved. Its selectivity is taken once per
/// statement however many indexes match it.
#[derive(Debug, Clone, Copy)]
struct PreparedAtom {
    /// Position in `shape.tables` / [`PreparedPlan::tables`].
    table: u32,
    source: AtomSource,
    /// Position of the restricted column in the table's `columns`; `None`
    /// when the table has no such column (default selectivities).
    column: Option<u32>,
    /// The atom's kind as the match read it (checked by
    /// [`PreparedPlan::fits`]).
    equality: bool,
}

/// How one entry of `shape.tables` is scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// A pure INSERT's target: touched, never read.
    InsertOnly,
    /// Not in the catalog: a constant, tiny sequential scan.
    Unknown,
    /// Sequential scan, index scans or a bitmap-OR, by cost.
    Known,
}

/// One entry of `shape.tables`, prepared.
#[derive(Debug)]
struct PreparedTable {
    scan: Scan,
    /// The table as the catalog shared it when the plan was prepared,
    /// held once a [`PreparedAtom`] reads a column of it.
    table: Option<Arc<Table>>,
    /// `rows.max(1)`, as the cost formulas read it.
    rows: f64,
    /// The table's row count, as selectivity clamps read it.
    row_count: u64,
    /// The finished sequential-scan arm (`LIMIT` halving applied).
    seq_cost: f64,
    /// `all_atoms.len()`: residual-filter CPU per fetched row.
    filter_atoms: f64,
    /// The statement sorts or groups on this table.
    needs_order: bool,
    /// Shape of the filter this was prepared from (see
    /// [`PreparedPlan::fits`]): conjuncts, DNF groups.
    filter_shape: (u32, u32),
    /// Index-scan candidates, a run of [`PreparedPlan::paths`] in the
    /// index set's per-table order.
    paths: Range<u32>,
    /// The bitmap-OR arm: one run of [`PreparedPlan::arm_groups`] entries
    /// per DNF group. `None` when the filter is not a disjunction or some
    /// group has no usable index.
    bitmap: Option<Range<u32>>,
    /// Join edges touching this table, a run of [`PreparedPlan::edges`] in
    /// `shape.joins` order.
    edges: Range<u32>,
}

/// One usable index of a table: everything
/// [`PreparedPlan::best_access_path`] reads of it.
#[derive(Debug)]
struct PreparedPath {
    id: IndexId,
    matched: Range<u32>,
    provides_order: bool,
    covering: bool,
    /// An order-providing scan of a join-free statement with a `LIMIT`
    /// stops after `k` matching rows.
    top_k: bool,
    /// `trees_probed * (height + 1) * random_page_cost * descent_cache_factor`.
    descent: f64,
    leaf_pages: f64,
    /// `trees_probed.min(2.0)`.
    leaf_trees: f64,
    /// `1.0 - 0.8 * |correlation|` of the leading key column.
    scatter: f64,
    /// Share of fetched rows that reach the heap (1 %: visibility checks
    /// of an index-only scan).
    heap_share: f64,
}

/// One index able to serve one DNF group of a bitmap-OR.
#[derive(Debug)]
struct BitmapArm {
    id: IndexId,
    matched: Range<u32>,
    descent: f64,
    leaf_pages: f64,
}

/// One join edge as seen from one of its tables (the prospective inner).
#[derive(Debug)]
struct PreparedEdge {
    /// The table on the other side, as a position in `shape.tables`.
    other: u32,
    /// `max(ndv, 1)` of the inner join column (100 when unknown).
    inner_ndv: f64,
    /// Inner rows per distinct join value.
    rows_per_lookup: f64,
    /// `1.0 - 0.8 * |correlation|` of the inner join column.
    scatter: f64,
    /// Indexes led by the inner join column, a run of
    /// [`PreparedPlan::lookups`] in the index set's order.
    lookups: Range<u32>,
}

/// One index a nested loop can seek per outer row.
#[derive(Debug)]
struct PreparedLookup {
    id: IndexId,
    /// Seek cost: the descent plus one heap fetch.
    per_lookup: f64,
    /// Equality conjuncts on the index's following columns, which narrow
    /// the rows fetched per seek.
    tail: Range<u32>,
}

/// How a write's affected rows are found.
#[derive(Debug)]
enum Affected {
    /// `INSERT`: the statement's row count.
    Inserted(u64),
    /// `UPDATE` / `DELETE`: the table's rows (as the catalog had them)
    /// times the filter selectivity of this `shape.tables` entry (1.0 when
    /// the shape does not list the table).
    Filtered { rows: f64, table: Option<u32> },
}

/// The write side, prepared.
#[derive(Debug)]
struct PreparedWrite {
    kind: WriteKind,
    affected: Affected,
    /// `INSERT`: the table that grows, under the catalog's own copy of
    /// its name.
    grows: Option<Arc<str>>,
    /// `INSERT`: the summed IO / CPU of [`PreparedPlan::inserted`].
    inserted_io: f64,
    inserted_cpu: f64,
}

/// Everything planning a statement reads that is *not* a literal: made by
/// [`Planner::prepare`] from a statement's [`QueryShape`], the catalog and
/// an index set, priced against any other binding of the same template by
/// [`PreparedPlan::plan`].
///
/// What is structural and therefore here: per table the row / page
/// constants and the finished sequential-scan arm; per usable index, in
/// the index set's per-table order, which conjuncts its prefix matches,
/// whether it provides the order, covers the statement or prunes
/// partitions, and its descent / leaf / heap factors; the bitmap-OR arm
/// candidates; join edges with their inner-column statistics and lookup
/// indexes; the write side's per-index maintenance terms (for an `INSERT`
/// the finished list). What a statement brings: each table's
/// `filter_sel`, the matched atoms' literal values (one selectivity each,
/// through the pre-resolved column) and `LIMIT k`.
///
/// **Validity.** A plan holds the `Arc<Table>`s whose column statistics
/// pricing reads, as the catalog shared them when it was prepared, and
/// copies of the row counts and index geometry it read, so it stays
/// *consistent* whatever happens to the catalog or the index set
/// afterwards — and *current* exactly as long as they do not change. It has no
/// invalidation rule of its own; its owner supplies one. Beside a
/// [`crate::DbSnapshot`] the rule is [`crate::DbSnapshot::agrees_on`]: the
/// plan stays current for every later snapshot of the database that has
/// its tables' stamps and index ids. The live [`crate::SimDb`] keeps one
/// per bound template ([`crate::SimDb::execute_bound`]) under a release
/// rule: every table growth and every index created, restored or dropped
/// releases all of its kept plans *before* the catalog or the index view
/// changes — the tables let go, so growth copies none — and a released
/// plan is prepared again, into the same storage, at its template's next
/// execution.
///
/// **Operand order.** Pricing evaluates every floating-point expression
/// with the operands in the order the one-pass planner used, and compares
/// candidates in the index set's order with a strict `<`: a prepared
/// plan's numbers are that planner's, bit for bit
/// (`prepared_pricing_equals_planning` in `tests/proptests.rs`, and a
/// golden digest recorded on the one-pass planner).
#[derive(Debug, Default)]
pub struct PreparedPlan {
    params: CostParams,
    /// `shape.limit.is_some()` / `!shape.joins.is_empty()`.
    limited: bool,
    join_edges: bool,
    tables: Vec<PreparedTable>,
    atoms: Vec<PreparedAtom>,
    /// Runs of positions in `atoms`: an index's matched prefix, a bitmap
    /// arm's, a lookup's equality tail.
    matched: Vec<u32>,
    paths: Vec<PreparedPath>,
    /// Per DNF group of a bitmap-OR table, its run of `arms`.
    arm_groups: Vec<Range<u32>>,
    arms: Vec<BitmapArm>,
    edges: Vec<PreparedEdge>,
    lookups: Vec<PreparedLookup>,
    write: Option<PreparedWrite>,
    /// The write side's per-index maintenance, shared with every
    /// [`Maintenance`] priced through this plan: made by the first write
    /// prepared into this storage that maintains an index, and reused by
    /// the next preparation unless a delta still reads it.
    maintenance: Option<Arc<WriteMaintenance>>,
}

thread_local! {
    /// Storage for the unprepared composition ([`with_scratch`]).
    static SCRATCH: RefCell<PreparedPlan> = RefCell::default();
}

/// Run `f` over this thread's reusable [`PreparedPlan`] storage: what
/// `prepare` + `price` back to back fill and read, so planning a statement
/// nobody keeps a plan for allocates nothing once the storage has grown to
/// it (save a write side a delta still holds). The storage holds no table
/// once `f` returns. (A call from inside `f` gets fresh storage.)
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut PreparedPlan) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut plan) => {
            let r = f(&mut plan);
            plan.release();
            r
        }
        Err(_) => f(&mut PreparedPlan::default()),
    })
}

impl<'a> Planner<'a> {
    /// Create a planner over `catalog` with `params`.
    pub fn new(catalog: &'a Catalog, params: &'a CostParams) -> Self {
        Planner { catalog, params }
    }

    /// Plan `shape` under a flat list of visible indexes.
    pub fn plan(&self, shape: &QueryShape, indexes: &[VisibleIndex]) -> PlanSummary {
        self.plan_over(shape, indexes)
    }

    /// Plan `shape` under `indexes` and return the summary.
    pub fn plan_over<S: IndexSet + ?Sized>(&self, shape: &QueryShape, indexes: &S) -> PlanSummary {
        let mut paths = Vec::with_capacity(shape.tables.len());
        let mut joins = Vec::new();
        let (planned, _) =
            self.plan_each(shape, indexes, |path| paths.push(path), |j| joins.push(j));
        planned.summary(paths, joins)
    }

    /// Native cost of `shape` with no index at all — the baseline an
    /// executed plan's saving is credited against, as a planning pass of
    /// its own over an empty set. Execution does not run it: pricing a
    /// plan returns the same number on the way
    /// ([`PreparedPlan::plan`]); this is the reference that is tested
    /// against.
    pub fn unindexed_cost(&self, shape: &QueryShape) -> f64 {
        self.plan_each(shape, &IndexView::default(), drop, drop)
            .0
            .features
            .native_cost()
    }

    /// The planner proper, for a statement nobody keeps a plan for:
    /// [`Planner::prepare_into`] this thread's scratch storage, then
    /// [`PreparedPlan::price`]. Returns the totals and the no-index
    /// baseline; each table's chosen path goes to `each` in `shape.tables`
    /// order, each join step to `join`. Allocates nothing once the scratch
    /// storage has grown to the statement.
    pub(crate) fn plan_each<S: IndexSet + ?Sized>(
        &self,
        shape: &QueryShape,
        indexes: &S,
        each: impl FnMut(AccessPath),
        join: impl FnMut(JoinStrategy),
    ) -> (Planned, f64) {
        with_scratch(|plan| {
            self.prepare_into(plan, shape, indexes);
            plan.price(shape, each, join)
        })
    }

    /// Prepare a plan for every binding of `shape`'s template under
    /// `indexes` (see [`PreparedPlan`]).
    pub fn prepare<S: IndexSet + ?Sized>(&self, shape: &QueryShape, indexes: &S) -> PreparedPlan {
        let mut plan = PreparedPlan::default();
        self.prepare_into(&mut plan, shape, indexes);
        plan
    }

    /// [`Planner::prepare`] into `plan`, reusing its storage.
    pub(crate) fn prepare_into<S: IndexSet + ?Sized>(
        &self,
        plan: &mut PreparedPlan,
        shape: &QueryShape,
        indexes: &S,
    ) {
        plan.params = self.params.clone();
        plan.limited = shape.limit.is_some();
        plan.join_edges = !shape.joins.is_empty();
        plan.tables.clear();
        plan.atoms.clear();
        plan.matched.clear();
        plan.paths.clear();
        plan.arm_groups.clear();
        plan.arms.clear();
        plan.edges.clear();
        plan.lookups.clear();
        match plan.maintenance.as_mut().and_then(Arc::get_mut) {
            Some(write) => write.clear(),
            // A delta priced through the last preparation still reads it.
            None => plan.maintenance = None,
        }

        for (ti, t) in shape.tables.iter().enumerate() {
            // A pure INSERT touches its target table without reading it.
            let insert_only = shape.write.as_ref().is_some_and(|w| {
                w.kind == WriteKind::Insert && w.table == t.table && t.all_atoms.is_empty()
            });
            let mut prepared = PreparedTable {
                scan: Scan::Unknown,
                table: None,
                rows: 1.0,
                row_count: 1,
                seq_cost: self.params.seq_page_cost,
                filter_atoms: t.all_atoms.len() as f64,
                needs_order: !t.order_columns.is_empty() || !t.group_columns.is_empty(),
                filter_shape: (t.conjuncts.len() as u32, t.conjunct_groups.len() as u32),
                paths: 0..0,
                bitmap: None,
                edges: 0..0,
            };
            if insert_only {
                prepared.scan = Scan::InsertOnly;
            }
            plan.tables.push(prepared);
            if !insert_only {
                if let Some((_, table)) = self.catalog.shared_table(&t.table) {
                    self.prepare_scan(plan, ti as u32, t, table, indexes, shape);
                }
            }
        }
        if shape.tables.len() > 1 {
            for (ti, t) in shape.tables.iter().enumerate() {
                let start = plan.edges.len() as u32;
                self.prepare_edges(plan, ti as u32, t, shape, indexes);
                plan.tables[ti].edges = start..plan.edges.len() as u32;
            }
        }
        plan.write = shape
            .write
            .as_ref()
            .map(|w| self.prepare_write(plan, shape, w, indexes));
    }

    /// The access-path side of one known table: its constants, the
    /// sequential arm, every usable index and the bitmap-OR candidates.
    fn prepare_scan<S: IndexSet + ?Sized>(
        &self,
        plan: &mut PreparedPlan,
        ti: u32,
        t: &TableAtoms,
        table: &Arc<Table>,
        indexes: &S,
        shape: &QueryShape,
    ) {
        let p = self.params;
        let rows = table.rows.max(1) as f64;
        let pages = table.pages().max(1) as f64;
        let (order_cols, order_dirs) = self.required_order(t);

        // Sequential scan baseline.
        let n_atoms = t.all_atoms.len().max(1) as f64;
        let mut seq_cost = pages * p.seq_page_cost
            + rows * p.cpu_tuple_cost
            + rows * n_atoms * p.cpu_operator_cost;
        // If a LIMIT is present with no joins, a seq scan can stop early —
        // but only without ORDER BY.
        if shape.limit.is_some() && order_cols.is_empty() && shape.joins.is_empty() {
            seq_cost *= 0.5;
        }
        let prepared = &mut plan.tables[ti as usize];
        prepared.scan = Scan::Known;
        prepared.rows = rows;
        prepared.row_count = table.rows;
        prepared.seq_cost = seq_cost;

        let start = plan.paths.len() as u32;
        for vi in indexes.on_table(&t.table) {
            let def = vi.def();
            let conjunct = |i| AtomSource::Conjunct(i);
            let m = self.match_prefix(plan, def, &t.conjuncts, conjunct, ti, table);
            let provides_order = !order_cols.is_empty()
                && self.index_provides_order(def, &m, order_cols, order_dirs);
            if m.matched_cols() == 0 && !provides_order {
                continue;
            }
            let geo = &vi.geo;
            // Local indexes without partition pruning probe every tree.
            let trees_probed = match def.scope {
                IndexScope::Global => 1.0,
                IndexScope::Local if m.partition_pruned => 1.0,
                IndexScope::Local => geo.trees as f64,
            };
            // Heap fetches are random, discounted by physical correlation
            // of the leading key column — and almost entirely skipped for
            // an index-only scan (a covering index answers from the
            // leaves, with only occasional visibility checks).
            let covering = !t.whole_row
                && !t.referenced_columns.is_empty()
                && t.referenced_columns.iter().all(|c| def.columns.contains(c));
            let corr = def
                .columns
                .first()
                .and_then(|c| table.column(c))
                .map(|c| c.stats.correlation.abs())
                .unwrap_or(0.0);
            plan.paths.push(PreparedPath {
                id: vi.id,
                matched: m.atoms,
                provides_order,
                covering,
                // Top-k: an order-providing index scan stops after LIMIT
                // matching rows — the classic reason ORDER BY ... LIMIT
                // queries want an index on the order columns.
                top_k: provides_order && shape.joins.is_empty() && shape.limit.is_some(),
                descent: trees_probed
                    * (geo.height as f64 + 1.0)
                    * p.random_page_cost
                    * p.descent_cache_factor,
                leaf_pages: geo.leaf_pages as f64,
                leaf_trees: trees_probed.min(2.0),
                scatter: 1.0 - 0.8 * corr,
                // Visibility checks hit the heap per *page* (via the
                // visibility map), not per tuple — two orders of magnitude
                // cheaper.
                heap_share: if covering { 0.01 } else { 1.0 },
            });
        }
        plan.tables[ti as usize].paths = start..plan.paths.len() as u32;

        // BitmapOr: a disjunctive filter whose every DNF arm is separately
        // indexable can union the per-arm TID bitmaps and fetch the heap
        // once — the plan shape that makes the §IV-A per-OR-arm candidates
        // actually pay off.
        if t.conjuncts.is_empty() && t.conjunct_groups.len() > 1 {
            plan.tables[ti as usize].bitmap = self.prepare_bitmap(plan, ti, t, table, indexes);
        }
    }

    /// The indexes able to probe each DNF arm of `t`'s filter, or `None`
    /// when some arm has none (the scan would be needed anyway).
    fn prepare_bitmap<S: IndexSet + ?Sized>(
        &self,
        plan: &mut PreparedPlan,
        ti: u32,
        t: &TableAtoms,
        table: &Arc<Table>,
        indexes: &S,
    ) -> Option<Range<u32>> {
        let p = self.params;
        let start = plan.arm_groups.len();
        // What a half-prepared bitmap entered is dropped again.
        let (atoms, matched, arms) = (plan.atoms.len(), plan.matched.len(), plan.arms.len());
        for (gi, group) in t.conjunct_groups.iter().enumerate() {
            let first_arm = plan.arms.len() as u32;
            for vi in indexes.on_table(&t.table) {
                let in_group = |i| AtomSource::Group(gi as u32, i);
                let m = self.match_prefix(plan, vi.def(), group, in_group, ti, table);
                if m.matched_cols() == 0 {
                    continue;
                }
                plan.arms.push(BitmapArm {
                    id: vi.id,
                    matched: m.atoms,
                    descent: (vi.geo.height as f64 + 1.0)
                        * p.random_page_cost
                        * p.descent_cache_factor,
                    leaf_pages: vi.geo.leaf_pages as f64,
                });
            }
            let group_arms = first_arm..plan.arms.len() as u32;
            if group_arms.is_empty() {
                plan.arm_groups.truncate(start);
                plan.arms.truncate(arms);
                plan.matched.truncate(matched);
                plan.atoms.truncate(atoms);
                return None;
            }
            plan.arm_groups.push(group_arms);
        }
        Some(start as u32..plan.arm_groups.len() as u32)
    }

    /// The join edges touching table `ti`, in `shape.joins` order, each
    /// with what a join into `ti` through it reads: the inner column's
    /// statistics and the indexes a nested loop could seek.
    fn prepare_edges<S: IndexSet + ?Sized>(
        &self,
        plan: &mut PreparedPlan,
        ti: u32,
        t: &TableAtoms,
        shape: &QueryShape,
        indexes: &S,
    ) {
        let p = self.params;
        let shared = self.catalog.shared_table(&t.table).map(|(_, table)| table);
        let table = shared.map(|table| &**table);
        let position = |name: &str| shape.tables.iter().position(|o| o.table == name);
        for e in &shape.joins {
            // An edge joins `ti` once its *other* table is in the joined
            // set; with `ti` on both sides that never happens.
            let (other, inner_col) = if e.right_table == t.table {
                (&e.left_table, &e.right_column)
            } else if e.left_table == t.table {
                (&e.right_table, &e.left_column)
            } else {
                continue;
            };
            let Some(other) = position(other).filter(|&o| o as u32 != ti) else {
                continue;
            };
            let column = table.and_then(|tb| tb.column(inner_col));
            let inner_ndv = column.map(|c| c.stats.ndv.max(1.0)).unwrap_or(100.0);
            let inner_total_rows = table.map(|tb| tb.rows.max(1) as f64).unwrap_or(1000.0);
            // Heap fetches are discounted by the join column's physical
            // correlation (fact tables loaded in date order make
            // date-driven lookups nearly sequential).
            let corr = column.map(|c| c.stats.correlation.abs()).unwrap_or(0.0);

            // Indexes whose first column is the join column. Later index
            // columns that match equality filter conjuncts on the inner
            // table further cut the rows fetched per lookup.
            let first_lookup = plan.lookups.len() as u32;
            for vi in indexes.on_table(&t.table) {
                let def = vi.def();
                if def.columns.first() != Some(inner_col) {
                    continue;
                }
                let trees = match def.scope {
                    IndexScope::Global => 1.0,
                    IndexScope::Local => {
                        if table.and_then(|tb| tb.partition_key.as_ref()) == Some(inner_col) {
                            1.0
                        } else {
                            vi.geo.trees as f64
                        }
                    }
                };
                let per_lookup = trees
                    * (vi.geo.height as f64 + 1.0)
                    * p.random_page_cost
                    * p.descent_cache_factor
                    + p.random_page_cost; // one heap fetch minimum
                let tail_start = plan.matched.len() as u32;
                if let Some(tb) = shared {
                    for c in &def.columns[1..] {
                        let found = t.conjuncts.iter().position(|a| {
                            a.is_sargable()
                                && a.is_equality()
                                && a.restricted_column().is_some_and(|cr| cr.column == *c)
                        });
                        let Some(i) = found else { break };
                        let source = AtomSource::Conjunct(i as u32);
                        let atom = plan.atom(ti, source, &t.conjuncts[i], tb);
                        plan.matched.push(atom);
                    }
                }
                plan.lookups.push(PreparedLookup {
                    id: vi.id,
                    per_lookup,
                    tail: tail_start..plan.matched.len() as u32,
                });
            }
            plan.edges.push(PreparedEdge {
                other: other as u32,
                inner_ndv,
                rows_per_lookup: (inner_total_rows / inner_ndv).max(1.0),
                scatter: 1.0 - 0.8 * corr,
                lookups: first_lookup..plan.lookups.len() as u32,
            });
        }
    }

    /// The write side: how affected rows are found, and per index on the
    /// written table what maintaining it costs — finished for an `INSERT`,
    /// per affected row for an `UPDATE`, nothing for a `DELETE` (§V
    /// Remark: deletes update the index after the query; their index
    /// update cost is 0).
    fn prepare_write<S: IndexSet + ?Sized>(
        &self,
        plan: &mut PreparedPlan,
        shape: &QueryShape,
        w: &crate::shape::WriteShape,
        indexes: &S,
    ) -> PreparedWrite {
        let mut write = PreparedWrite {
            kind: w.kind,
            affected: match w.kind {
                WriteKind::Insert => Affected::Inserted(w.inserted_rows),
                _ => {
                    // The table loop has looked a listed table up already.
                    let listed = shape.tables.iter().position(|t| t.table == w.table);
                    let rows = match listed.map(|i| &plan.tables[i]) {
                        Some(t) if t.scan == Scan::Known => Some(t.row_count),
                        Some(_) => None,
                        None => self.catalog.table(&w.table).map(|t| t.rows),
                    };
                    Affected::Filtered {
                        rows: rows.unwrap_or(1_000) as f64,
                        table: listed.map(|i| i as u32),
                    }
                }
            },
            grows: None,
            inserted_io: 0.0,
            inserted_cpu: 0.0,
        };
        if w.kind == WriteKind::Insert {
            let name = match self.catalog.shared_table(&w.table) {
                Some((name, _)) => Arc::clone(name),
                None => w.table.as_str().into(),
            };
            write.grows = Some(name);
        }
        let n = indexes.on_table(&w.table).count();
        if w.kind == WriteKind::Delete || n == 0 {
            return write;
        }
        if plan.maintenance.as_mut().and_then(Arc::get_mut).is_none() {
            // Sized to the table's indexes: a delta may hold it for an epoch.
            let mut fresh = WriteMaintenance::default();
            match w.kind {
                WriteKind::Insert => fresh.inserted.reserve_exact(n),
                _ => fresh.updated.reserve_exact(n),
            }
            plan.maintenance = Some(Arc::new(fresh));
        }
        let maintained = plan
            .maintenance
            .as_mut()
            .and_then(Arc::get_mut)
            .expect("unshared");
        maintained.params = self.params.clone();
        match w.kind {
            WriteKind::Delete => {}
            WriteKind::Insert => {
                for vi in indexes.on_table(&w.table) {
                    let m = maintenance_cost(&vi.geo, w.inserted_rows, self.params);
                    if m.total() > 0.0 {
                        write.inserted_io += m.io;
                        write.inserted_cpu += m.cpu;
                        maintained.inserted.push((vi.id, m));
                    }
                }
            }
            WriteKind::Update => {
                for vi in indexes.on_table(&w.table) {
                    let touches_key = vi.def().columns.iter().any(|c| w.set_columns.contains(c));
                    // Delete + insert of the index entry when a key column
                    // is set; else mostly HOT/in-place ("the index update
                    // cost is greatly reduced", §V Remark) — small residual.
                    let factor = if touches_key { 2.0 } else { 0.1 };
                    let terms = MaintenanceTerms::of(&vi.geo, self.params);
                    maintained.updated.push((vi.id, terms, factor));
                }
            }
        }
        write
    }

    /// Order requirement on this table: ORDER BY columns with their
    /// per-key directions, else GROUP BY columns (grouping by a sorted
    /// stream avoids the hash/sort, and any per-column direction groups
    /// equal keys adjacently — so GROUP BY carries no direction vector).
    fn required_order<'t>(&self, t: &'t TableAtoms) -> (&'t [String], Option<&'t [bool]>) {
        if !t.order_columns.is_empty() {
            (&t.order_columns, Some(&t.order_desc))
        } else {
            (&t.group_columns, None)
        }
    }

    /// Whether the key parts of `def` starting at `start` emit rows in the
    /// wanted per-key directions. A forward scan requires every key-part
    /// direction to equal the wanted one; a backward scan (walking the
    /// leaves right-to-left at identical cost) requires every one to be its
    /// reverse. `None` means direction-insensitive (GROUP BY).
    fn directions_compatible(&self, def: &IndexDef, start: usize, dirs: Option<&[bool]>) -> bool {
        use crate::index::SortDirection;
        let Some(dirs) = dirs else { return true };
        let wanted = |d: bool| {
            if d {
                SortDirection::Desc
            } else {
                SortDirection::Asc
            }
        };
        let forward = dirs
            .iter()
            .enumerate()
            .all(|(j, d)| def.direction(start + j) == wanted(*d));
        let backward = dirs
            .iter()
            .enumerate()
            .all(|(j, d)| def.direction(start + j) == wanted(*d).reversed());
        forward || backward
    }

    fn index_provides_order(
        &self,
        def: &IndexDef,
        m: &PrefixMatch,
        order_cols: &[String],
        order_dirs: Option<&[bool]>,
    ) -> bool {
        let matched_cols = m.matched_cols();
        if !m.all_equality {
            // The prefix ends in a range atom. Order is still provided when
            // that range column *is* the first order column (a range scan
            // over `temperature` emits rows in `temperature` order) and the
            // remaining order columns follow it in the index.
            let last = matched_cols.saturating_sub(1);
            return matched_cols >= 1
                && def.columns.get(last) == order_cols.first()
                && order_cols.len() <= def.columns.len() - last
                && order_cols
                    .iter()
                    .zip(&def.columns[last..])
                    .all(|(a, b)| a == b)
                && self.directions_compatible(def, last, order_dirs);
        }
        // Equality-matched prefix: the order columns must follow it...
        let start = matched_cols.min(def.columns.len());
        let tail = &def.columns[start..];
        (order_cols.len() <= tail.len()
            && order_cols.iter().zip(tail).all(|(a, b)| a == b)
            && self.directions_compatible(def, start, order_dirs))
            // ...or be a leftmost prefix of the index outright.
            || (order_cols.len() <= def.columns.len()
                && order_cols
                    .iter()
                    .zip(&def.columns)
                    .all(|(a, b)| a == b)
                && self.directions_compatible(def, 0, order_dirs))
    }

    /// Leftmost-prefix matching of sargable atoms against an index: one
    /// atom per leading index column, until a column has none or a range
    /// atom has consumed the prefix. The matched atoms are appended to
    /// `plan.matched` (`source` says where `atoms[i]` sits in the shape).
    fn match_prefix(
        &self,
        plan: &mut PreparedPlan,
        def: &IndexDef,
        atoms: &[AtomicPredicate],
        source: impl Fn(u32) -> AtomSource,
        ti: u32,
        table: &Arc<Table>,
    ) -> PrefixMatch {
        let start = plan.matched.len() as u32;
        let mut all_equality = true;
        let mut partition_pruned = false;
        for col in &def.columns {
            if !all_equality {
                break;
            }
            let found = atoms.iter().position(|a| {
                a.is_sargable() && a.restricted_column().is_some_and(|c| c.column == *col)
            });
            let Some(i) = found else { break };
            all_equality = atoms[i].is_equality();
            partition_pruned |=
                all_equality && table.partition_key.as_deref() == Some(col.as_str());
            let atom = plan.atom(ti, source(i as u32), &atoms[i], table);
            plan.matched.push(atom);
        }
        PrefixMatch {
            atoms: start..plan.matched.len() as u32,
            all_equality,
            partition_pruned,
        }
    }

    /// Convenience: geometry-resolved flat index list from defs (copies
    /// each definition; the database's own paths borrow or share instead).
    pub fn resolve_indexes(&self, defs: &[(IndexId, IndexDef)]) -> Vec<VisibleIndex> {
        defs.iter()
            .filter_map(|(id, def)| {
                let table = self.catalog.table(&def.table)?;
                let geo = geometry(def, table).ok()?;
                Some(VisibleIndex {
                    id: *id,
                    def: def.clone(),
                    geo,
                })
            })
            .collect()
    }
}

impl Planned {
    fn summary(self, paths: Vec<AccessPath>, join_strategies: Vec<JoinStrategy>) -> PlanSummary {
        PlanSummary {
            paths,
            join_strategies,
            sort_cost: self.sort_cost,
            maintenance: self.maintenance.to_vec(),
            indexes_used: self.indexes_used.to_vec(),
            features: self.features,
            sort_elided: self.sort_elided,
            covering_scans: self.covering_scans,
        }
    }
}

// ------------------------------------------------------------------ price

/// A sequential scan's [`AccessPath`].
fn seq_path(matched_sel: f64, rows_out: f64, cost: f64) -> AccessPath {
    AccessPath {
        index: None,
        bitmap_indexes: IndexList::new(),
        matched_sel,
        rows_out,
        cost,
        provides_order: false,
        covering: false,
        heap_cost: 0.0,
    }
}

impl PreparedPlan {
    /// The position in `atoms` of `atom` — `source` of table `ti` — entered
    /// at its first use with its column resolved on `table`, which the plan
    /// holds from its first atom on.
    fn atom(
        &mut self,
        ti: u32,
        source: AtomSource,
        atom: &AtomicPredicate,
        table: &Arc<Table>,
    ) -> u32 {
        let known = self
            .atoms
            .iter()
            .position(|a| a.table == ti && a.source == source);
        let at = known.unwrap_or_else(|| {
            self.tables[ti as usize]
                .table
                .get_or_insert_with(|| Arc::clone(table));
            self.atoms.push(PreparedAtom {
                table: ti,
                source,
                column: atom
                    .restricted_column()
                    .and_then(|c| table.column_position(&c.column))
                    .map(|i| i as u32),
                equality: atom.is_equality(),
            });
            self.atoms.len() - 1
        });
        at as u32
    }

    /// A statement's binding of prepared atom `a`.
    fn bound<'s>(a: &PreparedAtom, shape: &'s QueryShape) -> Option<&'s AtomicPredicate> {
        let t = shape.tables.get(a.table as usize)?;
        match a.source {
            AtomSource::Conjunct(i) => t.conjuncts.get(i as usize),
            AtomSource::Group(g, i) => t.conjunct_groups.get(g as usize)?.get(i as usize),
        }
    }

    /// Whether `shape` has the structure this plan was prepared from: the
    /// same tables, filter and ordering shape, `LIMIT` and join presence
    /// and write, and under every prepared atom an atom of the same kind
    /// on the same column. Any two bindings of one statement template do;
    /// [`PreparedPlan::plan`] is only meaningful for a shape that does
    /// (debug builds assert it).
    pub fn fits(&self, shape: &QueryShape) -> bool {
        let tables = shape.tables.len() == self.tables.len()
            && self.tables.iter().zip(&shape.tables).all(|(p, t)| {
                p.filter_shape == (t.conjuncts.len() as u32, t.conjunct_groups.len() as u32)
                    && p.filter_atoms == t.all_atoms.len() as f64
                    && p.needs_order == (!t.order_columns.is_empty() || !t.group_columns.is_empty())
            });
        let atoms = || {
            self.atoms.iter().all(|a| {
                let table = self.tables[a.table as usize].table.as_deref();
                let atom = Self::bound(a, shape).filter(|atom| atom.is_sargable());
                atom.zip(table).is_some_and(|(atom, table)| {
                    let column = atom
                        .restricted_column()
                        .and_then(|c| table.column_position(&c.column));
                    atom.is_equality() == a.equality && column.map(|i| i as u32) == a.column
                })
            })
        };
        let write = || match (&self.write, &shape.write) {
            (None, None) => true,
            (Some(p), Some(w)) => {
                p.kind == w.kind
                    && match p.affected {
                        Affected::Inserted(rows) => rows == w.inserted_rows,
                        Affected::Filtered { .. } => true,
                    }
            }
            _ => false,
        };
        tables
            && self.limited == shape.limit.is_some()
            && self.join_edges != shape.joins.is_empty()
            && atoms()
            && write()
    }

    /// The plan of `shape` — a binding of the template this was prepared
    /// from — and the native cost of the same statement with no index at
    /// all (bit for bit [`Planner::unindexed_cost`]'s): what an executed
    /// plan's saving is credited against.
    pub fn plan(&self, shape: &QueryShape) -> (PlanSummary, f64) {
        let mut paths = Vec::with_capacity(shape.tables.len());
        let mut joins = Vec::new();
        let (planned, baseline) = self.price(shape, |path| paths.push(path), |j| joins.push(j));
        (planned.summary(paths, joins), baseline)
    }

    /// Price `shape` through this plan: choose every table's access path,
    /// handing each to `each` in `shape.tables` order — to keep or not
    /// (execution is priced by the totals alone) — then joins (each step
    /// to `join`), sort and the write side; and, from the sequential arms
    /// priced on the way, the no-index baseline. Reads of `shape` only
    /// `filter_sel`, the prepared atoms' values and `limit`. Allocates
    /// nothing unless the statement outgrows [`INLINE`] or a plan uses more
    /// than [`IndexList::INLINE`] indexes.
    pub(crate) fn price(
        &self,
        shape: &QueryShape,
        mut each: impl FnMut(AccessPath),
        join: impl FnMut(JoinStrategy),
    ) -> (Planned, f64) {
        debug_assert!(self.fits(shape), "a shape of another structure");
        // One selectivity per prepared atom, on the stack.
        let (mut inline, mut spill) = ([0.0; INLINE], Vec::new());
        let sels = scratch(&mut inline, &mut spill, self.atoms.len(), 0.0);
        for (sel, a) in sels.iter_mut().zip(&self.atoms) {
            let t = &self.tables[a.table as usize];
            let table = t
                .table
                .as_deref()
                .expect("atoms are matched on known tables");
            let atom = Self::bound(a, shape).expect("the shape fits the plan");
            let column = a.column.map(|c| &table.columns[c as usize]);
            *sel = atom_selectivity_at(atom, column, t.row_count);
        }
        let sels = &*sels;

        let mut features = CostFeatures::default();
        // The no-index plan of the same statement, priced beside the real
        // one: its data cost, and the sort it pays.
        let mut base_data = 0.0;
        let mut base_sort = 0.0;
        let mut used = IndexList::new();
        let mut sort_cost = 0.0;
        let mut sort_elided = 0u32;
        let mut covering_scans = 0u32;
        let joining = self.tables.len() > 1;
        let (mut inline, mut spill) = ([Scanned::default(); INLINE], Vec::new());
        let n = if joining { self.tables.len() } else { 0 };
        let scans = scratch(&mut inline, &mut spill, n, Scanned::default());

        // ---- access paths ------------------------------------------------
        for (ti, (prepared, t)) in self.tables.iter().zip(&shape.tables).enumerate() {
            let (path, seq_cost) = match prepared.scan {
                Scan::InsertOnly => (seq_path(0.0, 0.0, 0.0), 0.0),
                // Unknown table: tiny constant cost, seq scan.
                Scan::Unknown => (seq_path(1.0, 1.0, prepared.seq_cost), prepared.seq_cost),
                Scan::Known => (
                    self.best_access_path(prepared, t, shape.limit, sels),
                    prepared.seq_cost,
                ),
            };
            if prepared.scan != Scan::InsertOnly {
                used.extend(path.index);
                used.extend(path.bitmap_indexes.iter().copied());
                features.c_data += path.cost;
                features.c_heap += path.heap_cost;
                base_data += seq_cost;
            }
            // Sort: paid on the final stream for every table that requires
            // an order its chosen path does not provide.
            if prepared.needs_order {
                let sort = self.sort_cost_for(path.rows_out);
                if path.provides_order {
                    sort_elided += 1;
                } else {
                    sort_cost += sort;
                }
                base_sort += sort;
            }
            covering_scans += u32::from(path.covering);
            if joining {
                scans[ti] = Scanned {
                    rows_out: path.rows_out,
                    cost: path.cost,
                    seq_cost,
                };
            }
            each(path);
        }

        // ---- joins, then the sort -----------------------------------------
        let (join_cost, base_join) = self.price_joins(shape, scans, sels, &mut used, join);
        features.c_data += join_cost;
        features.c_data += sort_cost;
        features.c_sort = sort_cost;
        base_data += base_join;
        base_data += base_sort;

        // ---- write side ----------------------------------------------------
        let mut maintenance = Maintenance::default();
        if let Some(w) = &self.write {
            let affected = match w.affected {
                Affected::Inserted(rows) => rows,
                Affected::Filtered { rows, table } => {
                    let sel = table.map_or(1.0, |t| shape.tables[t as usize].filter_sel);
                    ((rows * sel).ceil() as u64).max(1)
                }
            };
            let heap = self.heap_write_cost(affected as f64);
            features.c_data += heap;
            base_data += heap;
            match w.kind {
                WriteKind::Delete => {}
                WriteKind::Insert => {
                    features.c_io = w.inserted_io;
                    features.c_cpu = w.inserted_cpu;
                }
                WriteKind::Update => {
                    for (_, m) in self.maintenance.iter().flat_map(|w| w.charges(affected)) {
                        features.c_io += m.io;
                        features.c_cpu += m.cpu;
                    }
                }
            }
            if let Some(write) = &self.maintenance {
                maintenance = Maintenance::shared(write, affected);
            }
        }

        let planned = Planned {
            sort_cost,
            maintenance,
            indexes_used: used,
            features,
            sort_elided,
            covering_scans,
        };
        (planned, base_data)
    }

    /// Let go of the catalog's tables (and the grown table's name), keeping
    /// every buffer's capacity for the next prepare.
    pub(crate) fn release(&mut self) {
        self.tables.clear();
        self.write = None;
    }

    /// What an executed `INSERT` of this plan's template makes its table
    /// grow by.
    pub(crate) fn growth(&self) -> Option<(Arc<str>, u64)> {
        match self.write.as_ref()? {
            PreparedWrite {
                grows: Some(table),
                affected: Affected::Inserted(rows),
                ..
            } => Some((Arc::clone(table), *rows)),
            _ => None,
        }
    }

    /// One dirtied heap page per ~4 affected rows plus per-tuple CPU.
    fn heap_write_cost(&self, affected: f64) -> f64 {
        affected * self.params.cpu_tuple_cost * 2.0
            + (affected / 4.0).ceil() * self.params.seq_page_cost
    }

    fn sort_cost_for(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        2.0 * rows * rows.log2().max(1.0) * self.params.cpu_operator_cost
    }

    /// Combined selectivity of a run of `matched` atoms on `table`.
    fn matched_sel(&self, matched: &Range<u32>, sels: &[f64], table: &PreparedTable) -> f64 {
        let atoms = &self.matched[matched.start as usize..matched.end as usize];
        combined_selectivity(atoms.iter().map(|&a| sels[a as usize]), table.row_count)
    }

    /// Choose the cheapest access path for one known table.
    fn best_access_path(
        &self,
        prepared: &PreparedTable,
        t: &TableAtoms,
        limit: Option<u64>,
        sels: &[f64],
    ) -> AccessPath {
        let p = &self.params;
        let rows = prepared.rows;
        let rows_out = (rows * t.filter_sel).max(0.0);
        let mut best = seq_path(1.0, rows_out, prepared.seq_cost);
        // Candidates compare including the sort the path would save.
        let sort_bonus = |provides_order: bool| {
            if provides_order {
                self.sort_cost_for(rows_out)
            } else {
                0.0
            }
        };

        for path in &self.paths[prepared.paths.start as usize..prepared.paths.end as usize] {
            let sel = self.matched_sel(&path.matched, sels, prepared);
            let mut rows = rows;
            if path.top_k {
                if let Some(k) = limit {
                    let residual = (t.filter_sel / sel).clamp(1e-6, 1.0);
                    rows = rows.min((k as f64 / residual) / sel.max(1e-9));
                }
            }
            let leaf_io =
                (sel * path.leaf_pages).ceil().max(1.0) * p.seq_page_cost * path.leaf_trees;
            let fetched = rows * sel;
            let heap_io = fetched * p.random_page_cost * path.scatter * path.heap_share;
            let cpu = fetched * p.cpu_index_tuple_cost
                + fetched * prepared.filter_atoms * p.cpu_operator_cost
                + fetched * p.cpu_tuple_cost;
            let cost = path.descent + leaf_io + heap_io + cpu;
            if cost - sort_bonus(path.provides_order) < best.cost - sort_bonus(best.provides_order)
            {
                best = AccessPath {
                    index: Some(path.id),
                    bitmap_indexes: IndexList::new(),
                    matched_sel: sel,
                    rows_out,
                    cost,
                    provides_order: path.provides_order,
                    covering: path.covering,
                    heap_cost: heap_io,
                };
            }
        }

        if let Some(groups) = &prepared.bitmap {
            if let Some((cost, heap, first, rest)) = self.bitmap_or_path(prepared, t, groups, sels)
            {
                if cost < best.cost {
                    best = AccessPath {
                        index: Some(first),
                        bitmap_indexes: rest,
                        matched_sel: t.filter_sel,
                        rows_out,
                        cost,
                        provides_order: false,
                        covering: false,
                        heap_cost: heap,
                    };
                }
            }
        }
        best
    }

    /// Cost a BitmapOr over the table's DNF arms. Returns
    /// `(cost, heap cost, first index, remaining indexes)`.
    fn bitmap_or_path(
        &self,
        prepared: &PreparedTable,
        t: &TableAtoms,
        groups: &Range<u32>,
        sels: &[f64],
    ) -> Option<(f64, f64, IndexId, IndexList)> {
        let p = &self.params;
        let rows = prepared.rows;
        let mut first = None;
        let mut rest = IndexList::new();
        let mut probe_cost = 0.0;
        for arms in &self.arm_groups[groups.start as usize..groups.end as usize] {
            // Cheapest index probe serving this arm.
            let best_arm = self.arms[arms.start as usize..arms.end as usize]
                .iter()
                .map(|arm| {
                    let sel = self.matched_sel(&arm.matched, sels, prepared);
                    let leaf = (sel * arm.leaf_pages).ceil().max(1.0) * p.seq_page_cost;
                    let tids = rows * sel * p.cpu_index_tuple_cost;
                    (arm.id, arm.descent + leaf + tids)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are never NaN"));
            let (id, c) = best_arm?;
            probe_cost += c;
            match first {
                None => first = Some(id),
                Some(f) if f == id || rest.contains(&id) => {}
                Some(_) => rest.push(id),
            }
        }
        // One heap pass over the unioned bitmap: fetches come out in page
        // order, so they are cheaper than per-tuple random IO.
        let fetched = rows * t.filter_sel;
        let heap = fetched * p.random_page_cost * 0.5;
        let cpu = fetched * (p.cpu_tuple_cost + prepared.filter_atoms * p.cpu_operator_cost);
        Some((probe_cost + heap + cpu, heap, first?, rest))
    }

    /// Plan all joins left-deep in table order, for the chosen paths and —
    /// same order, hash joins only — for the no-index baseline's
    /// sequential scans; returns `(cost, baseline cost)`, hands each step
    /// to `join` and appends the inner indexes used to `used`.
    fn price_joins(
        &self,
        shape: &QueryShape,
        scans: &[Scanned],
        sels: &[f64],
        used: &mut IndexList,
        mut join: impl FnMut(JoinStrategy),
    ) -> (f64, f64) {
        let p = &self.params;
        let n = self.tables.len();
        if n < 2 {
            return (0.0, 0.0);
        }
        let mut cost = 0.0;
        let mut base_cost = 0.0;

        // Greedy join ordering: start from the smallest filtered relation,
        // then repeatedly pick the connected relation with the fewest
        // estimated output rows (falling back to the smallest disconnected
        // one). This is the standard heuristic real optimizers approximate
        // and is what lets a tiny filtered dimension drive a nested loop
        // into a big fact table.
        let (mut inline, mut spill) = ([0; INLINE], Vec::new());
        let order = scratch(&mut inline, &mut spill, n, 0);
        order.iter_mut().enumerate().for_each(|(k, i)| *i = k);
        order.sort_by(|&a, &b| {
            scans[a]
                .rows_out
                .partial_cmp(&scans[b].rows_out)
                .expect("rows_out is never NaN")
        });
        let order = &*order;
        // Start from the most selective *filtered* relation: an unfiltered
        // tiny dimension (e.g. a 5-row warehouse table) must not hijack the
        // driving position from a sharply filtered one, or the filter never
        // gets to seed the nested-loop chain.
        let first = order
            .iter()
            .copied()
            .find(|&i| {
                let t = &shape.tables[i];
                t.filter_sel < 0.99 || !t.conjuncts.is_empty()
            })
            .unwrap_or(order[0]);
        let mut acc_rows = scans[first].rows_out.max(1.0);
        let (mut inline, mut spill) = ([false; INLINE], Vec::new());
        let joined = scratch(&mut inline, &mut spill, n, false);
        joined[first] = true;
        let edges_of = |i: usize| {
            let run = &self.tables[i].edges;
            &self.edges[run.start as usize..run.end as usize]
        };

        for _ in 1..n {
            // The tables left, in `order`: prefer a connected relation (an
            // edge into the joined set), else the first.
            let mut left = order.iter().copied().filter(|&i| !joined[i]);
            let first_left = left.clone().next().expect("a table is left");
            let i = left
                .find(|&i| edges_of(i).iter().any(|e| joined[e.other as usize]))
                .unwrap_or(first_left);
            let scan = &scans[i];
            let inner_rows_out = scan.rows_out.max(1.0);

            match edges_of(i).iter().find(|e| joined[e.other as usize]) {
                Some(edge) => {
                    // Hash join: build the (already filtered) inner once.
                    let hash = |inner_cost: f64| {
                        inner_cost
                            + inner_rows_out * p.cpu_operator_cost * 2.0
                            + acc_rows * p.cpu_operator_cost * 1.5
                            + acc_rows * p.cpu_tuple_cost
                    };
                    let hash_cost = hash(scan.cost);

                    // Index nested loop: per outer row, seek the inner index.
                    // The per-lookup row count shrinks when the index's
                    // later columns match equality filters on the inner.
                    let nl = self.best_lookup_index(edge, sels);
                    let nl_cost = nl.map(|(_, per_lookup, rows_fetched)| {
                        acc_rows
                            * (per_lookup
                                + rows_fetched * p.cpu_index_tuple_cost
                                + rows_fetched * p.random_page_cost * 0.5 * edge.scatter)
                    });

                    match nl_cost {
                        Some(c) if c < hash_cost => {
                            let (id, _, _) = nl.expect("nl_cost implies nl");
                            // The inner's standalone scan is replaced by
                            // lookups; refund its path cost.
                            cost += c - scan.cost;
                            join(JoinStrategy::IndexNestedLoop(id));
                            used.push(id);
                        }
                        _ => {
                            cost += hash_cost - scan.cost;
                            join(JoinStrategy::Hash);
                        }
                    }
                    base_cost += hash(scan.seq_cost) - scan.seq_cost;
                    let join_sel_rows = (acc_rows * inner_rows_out / edge.inner_ndv).max(1.0);
                    acc_rows = join_sel_rows.min(acc_rows * inner_rows_out);
                }
                None => {
                    // No edge: pessimistic nested loop over filtered inputs.
                    let nested = acc_rows * inner_rows_out * p.cpu_operator_cost;
                    cost += nested;
                    base_cost += nested;
                    join(JoinStrategy::NestedLoop);
                    acc_rows = (acc_rows * inner_rows_out).min(1e12);
                }
            }
            joined[i] = true;
        }
        (cost, base_cost)
    }

    /// Cheapest per-lookup index seek through `edge`. Returns (index id,
    /// per-lookup seek cost, rows fetched per lookup).
    fn best_lookup_index(&self, edge: &PreparedEdge, sels: &[f64]) -> Option<(IndexId, f64, f64)> {
        self.lookups[edge.lookups.start as usize..edge.lookups.end as usize]
            .iter()
            .map(|lookup| {
                // Tail columns matching equality conjuncts narrow the range.
                let mut fetched = edge.rows_per_lookup;
                for &a in &self.matched[lookup.tail.start as usize..lookup.tail.end as usize] {
                    fetched *= sels[a as usize].max(1e-9);
                }
                (lookup.id, lookup.per_lookup, fetched.max(1.0))
            })
            .min_by(|a, b| {
                (a.1 + a.2)
                    .partial_cmp(&(b.1 + b.2))
                    .expect("costs are never NaN")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableBuilder};
    use crate::shape::QueryShape;
    use autoindex_sql::parse_statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("orders", 1_000_000)
                .column(Column::int("o_id", 1_000_000))
                .column(Column::int("o_c_id", 30_000))
                .column(Column::int("o_w_id", 100))
                .column(Column::int("o_d_id", 10))
                .column(Column::float("o_amount", 100_000, 0.0, 10_000.0))
                .primary_key(&["o_id"])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("customer", 30_000)
                .column(Column::int("c_id", 30_000))
                .column(Column::text("c_last", 1_000, 16))
                .column(Column::int("c_w_id", 100))
                .primary_key(&["c_id"])
                .build()
                .unwrap(),
        );
        c
    }

    fn vis(catalog: &Catalog, params: &CostParams, defs: &[IndexDef]) -> Vec<VisibleIndex> {
        let pl = Planner::new(catalog, params);
        pl.resolve_indexes(
            &defs
                .iter()
                .enumerate()
                .map(|(i, d)| (IndexId(i as u32), d.clone()))
                .collect::<Vec<_>>(),
        )
    }

    fn plan(sql: &str, defs: &[IndexDef]) -> PlanSummary {
        plan_of(sql, defs).1
    }

    fn plan_of(sql: &str, defs: &[IndexDef]) -> (QueryShape, PlanSummary) {
        let catalog = catalog();
        let params = CostParams::default();
        let stmt = parse_statement(sql).unwrap();
        let shape = QueryShape::extract(&stmt, &catalog);
        let indexes = vis(&catalog, &params, defs);
        let plan = Planner::new(&catalog, &params).plan(&shape, &indexes);
        (shape, plan)
    }

    #[test]
    fn index_beats_seq_scan_on_selective_filter() {
        let no_index = plan("SELECT * FROM orders WHERE o_c_id = 42", &[]);
        let with_index = plan(
            "SELECT * FROM orders WHERE o_c_id = 42",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        assert!(with_index.native_cost() < no_index.native_cost() / 5.0);
        assert!(with_index.paths[0].index.is_some());
        assert_eq!(with_index.indexes_used.len(), 1);
    }

    #[test]
    fn bitmap_or_uses_per_arm_indexes() {
        // Both OR arms are selective; without BitmapOr the only option was
        // a full scan.
        let sql = "SELECT * FROM orders WHERE o_c_id = 42 OR o_id = 7";
        let without = plan(sql, &[]);
        let with = plan(
            sql,
            &[
                IndexDef::new("orders", &["o_c_id"]),
                IndexDef::new("orders", &["o_id"]),
            ],
        );
        assert!(
            with.native_cost() < without.native_cost() / 3.0,
            "{} vs {}",
            with.native_cost(),
            without.native_cost()
        );
        let p = &with.paths[0];
        assert!(p.index.is_some());
        assert_eq!(p.bitmap_indexes.len(), 1, "second arm tracked");
        assert_eq!(with.indexes_used.len(), 2);
    }

    #[test]
    fn bitmap_or_requires_every_arm_indexed() {
        // One unindexable arm forces the scan anyway — no bitmap path.
        let sql = "SELECT * FROM orders WHERE o_c_id = 42 OR o_amount > 1";
        let p = plan(sql, &[IndexDef::new("orders", &["o_c_id"])]);
        assert!(p.paths[0].index.is_none(), "seq scan expected");
        assert!(p.paths[0].bitmap_indexes.is_empty());
    }

    #[test]
    fn seq_scan_wins_on_unselective_filter() {
        // o_d_id has ndv 10 → sel 0.1 over 1M rows → 100k random fetches.
        let p = plan(
            "SELECT * FROM orders WHERE o_d_id = 3",
            &[IndexDef::new("orders", &["o_d_id"])],
        );
        assert!(p.paths[0].index.is_none(), "seq scan should win");
    }

    #[test]
    fn multicolumn_prefix_beats_single_column() {
        let single = plan(
            "SELECT * FROM orders WHERE o_c_id = 42 AND o_w_id = 7 AND o_d_id = 3",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        let multi = plan(
            "SELECT * FROM orders WHERE o_c_id = 42 AND o_w_id = 7 AND o_d_id = 3",
            &[IndexDef::new("orders", &["o_c_id", "o_w_id", "o_d_id"])],
        );
        assert!(multi.native_cost() < single.native_cost());
    }

    #[test]
    fn range_atom_stops_prefix_matching() {
        // (o_amount range, o_c_id eq): index (o_amount, o_c_id) matches only
        // the range column; (o_c_id, o_amount) matches both.
        let bad = plan(
            "SELECT * FROM orders WHERE o_amount > 9900 AND o_c_id = 42",
            &[IndexDef::new("orders", &["o_amount", "o_c_id"])],
        );
        let good = plan(
            "SELECT * FROM orders WHERE o_amount > 9900 AND o_c_id = 42",
            &[IndexDef::new("orders", &["o_c_id", "o_amount"])],
        );
        assert!(good.native_cost() <= bad.native_cost());
    }

    #[test]
    fn index_nested_loop_chosen_for_selective_outer() {
        let p = plan(
            "SELECT * FROM customer c, orders o WHERE c.c_id = 77 AND o.o_c_id = c.c_id",
            &[
                IndexDef::new("customer", &["c_id"]),
                IndexDef::new("orders", &["o_c_id"]),
            ],
        );
        assert!(matches!(
            p.join_strategies[0],
            JoinStrategy::IndexNestedLoop(_)
        ));
    }

    #[test]
    fn hash_join_without_inner_index() {
        let p = plan(
            "SELECT * FROM customer c, orders o WHERE c.c_id = 77 AND o.o_c_id = c.c_id",
            &[IndexDef::new("customer", &["c_id"])],
        );
        assert!(matches!(p.join_strategies[0], JoinStrategy::Hash));
    }

    #[test]
    fn order_by_limit_index_avoids_sort() {
        let without = plan("SELECT * FROM customer ORDER BY c_last LIMIT 10", &[]);
        let with = plan(
            "SELECT * FROM customer ORDER BY c_last LIMIT 10",
            &[IndexDef::new("customer", &["c_last"])],
        );
        assert!(without.sort_cost > 0.0);
        assert_eq!(with.sort_cost, 0.0);
        assert!(with.paths[0].provides_order);
        assert!(with.native_cost() < without.native_cost());
    }

    #[test]
    fn full_scan_order_by_pays_sort_even_with_index() {
        // Without LIMIT, fetching the whole heap through the index is more
        // expensive than scanning + sorting; the planner must know that.
        let p = plan(
            "SELECT * FROM customer ORDER BY c_last",
            &[IndexDef::new("customer", &["c_last"])],
        );
        assert!(p.sort_cost > 0.0);
        assert!(p.paths[0].index.is_none());
    }

    #[test]
    fn insert_charges_maintenance_per_index() {
        let none = plan("INSERT INTO orders (o_id, o_c_id) VALUES (1, 2)", &[]);
        let one = plan(
            "INSERT INTO orders (o_id, o_c_id) VALUES (1, 2)",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        let two = plan(
            "INSERT INTO orders (o_id, o_c_id) VALUES (1, 2)",
            &[
                IndexDef::new("orders", &["o_c_id"]),
                IndexDef::new("orders", &["o_amount", "o_w_id"]),
            ],
        );
        assert_eq!(none.features.c_io, 0.0);
        assert!(one.features.c_io > 0.0);
        assert!(two.features.c_io > one.features.c_io);
        assert!(two.features.c_cpu > one.features.c_cpu);
        assert_eq!(none.maintenance.len(), 0);
        assert_eq!(two.maintenance.len(), 2);
    }

    #[test]
    fn delete_has_zero_maintenance() {
        let p = plan(
            "DELETE FROM orders WHERE o_c_id = 42",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        assert_eq!(p.features.c_io, 0.0);
        assert_eq!(p.features.c_cpu, 0.0);
        // But the read side still benefits from the index.
        assert!(p.paths[0].index.is_some());
    }

    #[test]
    fn update_of_indexed_column_costs_more_than_nonindexed() {
        let hot = plan(
            "UPDATE orders SET o_amount = 5 WHERE o_id = 3",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        let cold = plan(
            "UPDATE orders SET o_c_id = 5 WHERE o_id = 3",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        assert!(cold.features.c_io > hot.features.c_io * 5.0);
    }

    #[test]
    fn native_cost_ignores_maintenance() {
        let p = plan(
            "INSERT INTO orders (o_id) VALUES (1)",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        assert!(p.features.c_io > 0.0);
        let native = p.native_cost();
        let truec = p.features.true_cost(&TrueCostWeights::default());
        assert!(truec > native, "true cost must include maintenance");
    }

    #[test]
    fn local_index_without_pruning_costs_more() {
        let mut c = catalog();
        let t = TableBuilder::new("part_t", 1_000_000)
            .column(Column::int("pk", 1_000_000))
            .column(Column::int("region", 16))
            .column(Column::int("val", 500_000))
            .partitioned(16, "region")
            .build()
            .unwrap();
        c.add_table(t);
        let params = CostParams::default();
        let planner = Planner::new(&c, &params);

        let mk = |scope: IndexScope| {
            let def = IndexDef::new("part_t", &["val"]).with_scope(scope);
            let stmt = parse_statement("SELECT * FROM part_t WHERE val = 9").unwrap();
            let shape = QueryShape::extract(&stmt, &c);
            let indexes = planner.resolve_indexes(&[(IndexId(0), def)]);
            planner.plan(&shape, &indexes).native_cost()
        };
        let global_cost = mk(IndexScope::Global);
        let local_cost = mk(IndexScope::Local);
        assert!(local_cost > global_cost, "unpruned local probes all trees");
    }

    #[test]
    fn index_only_scan_beats_heap_fetching_index() {
        // Projection + predicate both covered by (o_d_id, o_c_id): an
        // index-only scan makes the unselective o_d_id lookup viable.
        let covered = plan(
            "SELECT o_c_id FROM orders WHERE o_d_id = 3",
            &[IndexDef::new("orders", &["o_d_id", "o_c_id"])],
        );
        let uncovered = plan(
            "SELECT o_amount FROM orders WHERE o_d_id = 3",
            &[IndexDef::new("orders", &["o_d_id", "o_c_id"])],
        );
        assert!(covered.native_cost() < uncovered.native_cost() / 2.0);
        assert!(covered.paths[0].index.is_some(), "index-only scan chosen");
    }

    #[test]
    fn select_star_never_index_only() {
        let p = plan(
            "SELECT * FROM orders WHERE o_d_id = 3",
            &[IndexDef::new("orders", &["o_d_id", "o_c_id"])],
        );
        // Whole-row output: heap fetches dominate, seq scan wins again.
        assert!(p.paths[0].index.is_none());
    }

    #[test]
    fn explain_renders_all_plan_parts() {
        let (shape, p) = plan_of(
            "SELECT o_id FROM customer c, orders o \
             WHERE c.c_id = 77 AND o.o_c_id = c.c_id ORDER BY o_amount",
            &[
                IndexDef::new("customer", &["c_id"]),
                IndexDef::new("orders", &["o_c_id"]),
            ],
        );
        let text = p.explain(&shape, &|id| Some(format!("named_{}", id.0)));
        assert!(text.contains("on customer") && text.contains("on orders"));
        assert!(text.contains("Plan"), "{text}");
        assert!(
            text.contains("Index Scan") || text.contains("Seq Scan"),
            "{text}"
        );
        assert!(
            text.contains("Index Nested Loop") || text.contains("Hash Join"),
            "{text}"
        );
        assert!(text.contains("Sort"), "{text}");
        // Name resolver applies.
        assert!(text.contains("named_"), "{text}");
        // Unknown ids fall back to idx#n.
        let fallback = p.explain(&shape, &|_| None);
        assert!(fallback.contains("idx#"), "{fallback}");
    }

    #[test]
    fn explain_shows_maintenance_for_writes() {
        let (shape, p) = plan_of(
            "INSERT INTO orders (o_id, o_c_id) VALUES (1, 2)",
            &[IndexDef::new("orders", &["o_c_id"])],
        );
        let text = p.explain(&shape, &|_| None);
        assert!(text.contains("Index Maintenance"), "{text}");
    }

    #[test]
    fn local_lookup_join_prunes_on_partition_key() {
        // Join column IS the partition key: a LOCAL index on it probes one
        // tree per lookup and matches the GLOBAL plan cost closely.
        let mut c = catalog();
        c.add_table(
            TableBuilder::new("events_p", 4_000_000)
                .column(Column::int("region", 16))
                .column(Column::int("val", 2_000_000))
                .partitioned(16, "region")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("regions", 16)
                .column(Column::int("region", 16))
                .column(Column::int("tier", 4))
                .build()
                .unwrap(),
        );
        let params = CostParams::default();
        let planner = Planner::new(&c, &params);
        let stmt = parse_statement(
            "SELECT COUNT(*) FROM regions, events_p \
             WHERE regions.tier = 1 AND regions.region = events_p.region",
        )
        .unwrap();
        let shape = QueryShape::extract(&stmt, &c);
        let cost_with = |scope: IndexScope| {
            let def = IndexDef::new("events_p", &["region"]).with_scope(scope);
            let vis = planner.resolve_indexes(&[(IndexId(0), def)]);
            planner.plan(&shape, &vis).native_cost()
        };
        let local = cost_with(IndexScope::Local);
        let global = cost_with(IndexScope::Global);
        // Pruned local lookups must not be dramatically worse than global.
        assert!(local <= global * 1.5, "local {local} vs global {global}");
    }

    #[test]
    fn features_accumulate() {
        let mut f = CostFeatures::default();
        f.add(&CostFeatures {
            c_data: 1.0,
            c_io: 2.0,
            c_cpu: 3.0,
            c_sort: 4.0,
            c_heap: 5.0,
        });
        f.add(&CostFeatures {
            c_data: 0.5,
            c_io: 0.5,
            c_cpu: 0.5,
            c_sort: 0.5,
            c_heap: 0.5,
        });
        assert_eq!(f.as_vec(), [1.5, 2.5, 3.5, 4.5, 5.5]);
        // Sub-components carry no extra weight in the scalar costs.
        assert_eq!(f.native_cost(), 1.5);
        let t = f.true_cost(&TrueCostWeights::default());
        assert!((t - (1.5 + 1.3 * 2.5 + 1.15 * 3.5)).abs() < 1e-12);
    }

    #[test]
    fn desc_order_by_served_by_backward_scan() {
        // Single-column DESC over an ASC index: a backward scan provides
        // the order at identical cost — this is load-bearing for every
        // existing `ORDER BY ts DESC LIMIT k` workload statement.
        let asc = plan(
            "SELECT * FROM customer ORDER BY c_last LIMIT 10",
            &[IndexDef::new("customer", &["c_last"])],
        );
        let desc = plan(
            "SELECT * FROM customer ORDER BY c_last DESC LIMIT 10",
            &[IndexDef::new("customer", &["c_last"])],
        );
        assert!(desc.paths[0].provides_order);
        assert_eq!(desc.sort_cost, 0.0);
        assert_eq!(asc.native_cost(), desc.native_cost());
    }

    #[test]
    fn mixed_direction_order_needs_matching_key_directions() {
        use crate::index::SortDirection::{Asc, Desc};
        let sql = "SELECT * FROM orders WHERE o_c_id = 42 \
                   ORDER BY o_w_id DESC, o_d_id LIMIT 10";
        // All-ASC key cannot serve DESC,ASC forward or backward.
        let plain = plan(
            sql,
            &[IndexDef::new("orders", &["o_c_id", "o_w_id", "o_d_id"])],
        );
        assert!(!plain.paths[0].provides_order);
        assert!(plain.sort_cost > 0.0);
        // A key whose directions match (or mirror) the requirement does.
        let matched = plan(
            sql,
            &[IndexDef::new("orders", &["o_c_id", "o_w_id", "o_d_id"])
                .with_directions(&[Asc, Desc, Asc])],
        );
        assert!(matched.paths[0].provides_order);
        assert_eq!(matched.sort_cost, 0.0);
        assert_eq!(matched.sort_elided, 1);
        let mirrored = plan(
            sql,
            &[IndexDef::new("orders", &["o_c_id", "o_w_id", "o_d_id"])
                .with_directions(&[Asc, Asc, Desc])],
        );
        assert!(
            mirrored.paths[0].provides_order,
            "backward scan serves the mirrored key"
        );
        assert!(matched.native_cost() < plain.native_cost());
    }

    #[test]
    fn group_by_order_requirement_is_direction_insensitive() {
        use crate::index::SortDirection::Desc;
        // GROUP BY only needs equal keys adjacent; a DESC key part groups
        // just as well as an ASC one.
        let p = plan(
            "SELECT o_w_id, COUNT(*) FROM orders WHERE o_c_id = 42 GROUP BY o_w_id",
            &[IndexDef::new("orders", &["o_c_id", "o_w_id"]).with_directions(&[Desc, Desc])],
        );
        assert!(p.paths[0].provides_order);
        assert_eq!(p.sort_cost, 0.0);
    }

    #[test]
    fn plan_counters_track_covering_and_sort_elision() {
        let covered = plan(
            "SELECT o_c_id FROM orders WHERE o_d_id = 3",
            &[IndexDef::new("orders", &["o_d_id", "o_c_id"])],
        );
        assert!(covered.paths[0].covering);
        assert_eq!(covered.covering_scans, 1);
        assert_eq!(covered.sort_elided, 0);
        assert!(covered.paths[0].heap_cost < covered.paths[0].cost);
        assert!(covered.features.c_heap > 0.0);

        let sorted = plan(
            "SELECT * FROM customer ORDER BY c_last LIMIT 10",
            &[IndexDef::new("customer", &["c_last"])],
        );
        assert_eq!(sorted.sort_elided, 1);
        assert_eq!(sorted.covering_scans, 0);
        assert_eq!(sorted.features.c_sort, 0.0);

        let unsorted = plan("SELECT * FROM customer ORDER BY c_last LIMIT 10", &[]);
        assert_eq!(unsorted.sort_elided, 0);
        assert!(unsorted.features.c_sort > 0.0);
        assert_eq!(unsorted.features.c_sort, unsorted.sort_cost);
    }
}
