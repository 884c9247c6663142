//! B+Tree index model: definitions, geometry and maintenance cost.
//!
//! The geometry model gives the advisor what `hypopg_index` gives it in
//! openGauss: the estimated size and tree height of an index *without
//! building it* (§V C2.1, "hypothesis index technique"). The maintenance
//! model implements the §V-A formulas verbatim:
//!
//! ```text
//! C^io      = |pages| * seq_page_cost
//! t_start   = (ceil(log N) + (H+1) * 50) * cpu_operator_cost
//! t_running = N_insert * cpu_index_tuple_cost
//! C^cpu     = t_start + t_running
//! ```

use crate::catalog::{Table, PAGE_SIZE};
use crate::planner::CostParams;
use crate::StorageError;
use autoindex_support::hash::{fnv1a, fnv1a_from};

/// Stable identifier of an index within a [`crate::db::SimDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

impl std::fmt::Display for IndexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "idx#{}", self.0)
    }
}

/// A short list of index ids — the indexes one plan used — that holds its
/// first [`IndexList::INLINE`] ids in place and moves once to a heap
/// vector beyond that: building and dropping the list of a statement
/// served by a few indexes allocates nothing. It is the size of a `Vec`
/// and reads as `&[IndexId]`.
#[derive(Clone)]
pub struct IndexList(Ids);

#[derive(Clone)]
enum Ids {
    Inline {
        len: u8,
        ids: [IndexId; IndexList::INLINE],
    },
    Spilled(Vec<IndexId>),
}

impl IndexList {
    /// Ids held without a heap allocation.
    pub const INLINE: usize = 3;

    /// An empty list.
    pub const fn new() -> Self {
        IndexList(Ids::Inline {
            len: 0,
            ids: [IndexId(0); Self::INLINE],
        })
    }

    /// Append `id`.
    pub fn push(&mut self, id: IndexId) {
        match &mut self.0 {
            Ids::Inline { len, ids } if usize::from(*len) < Self::INLINE => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Ids::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * Self::INLINE);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                self.0 = Ids::Spilled(spilled);
            }
            Ids::Spilled(spilled) => spilled.push(id),
        }
    }
}

impl Default for IndexList {
    fn default() -> Self {
        IndexList::new()
    }
}

impl std::ops::Deref for IndexList {
    type Target = [IndexId];

    fn deref(&self) -> &[IndexId] {
        match &self.0 {
            Ids::Inline { len, ids } => &ids[..usize::from(*len)],
            Ids::Spilled(spilled) => spilled,
        }
    }
}

impl Extend<IndexId> for IndexList {
    fn extend<I: IntoIterator<Item = IndexId>>(&mut self, iter: I) {
        iter.into_iter().for_each(|id| self.push(id));
    }
}

impl FromIterator<IndexId> for IndexList {
    fn from_iter<I: IntoIterator<Item = IndexId>>(iter: I) -> Self {
        let mut list = IndexList::new();
        list.extend(iter);
        list
    }
}

impl<'l> IntoIterator for &'l IndexList {
    type Item = &'l IndexId;
    type IntoIter = std::slice::Iter<'l, IndexId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for IndexList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// As the slice: `[IndexId(1), IndexId(4)]`.
impl std::fmt::Debug for IndexList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// GLOBAL vs LOCAL index on a partitioned table (§III): a global index is
/// one tree over all partitions — fast lookups, more space; a local index
/// is one small tree per partition — less space, but a lookup that cannot
/// prune partitions must probe every tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexScope {
    #[default]
    Global,
    Local,
}

/// Sort direction of one key part of a B+Tree index. Ascending is the
/// default everywhere; a key part stored descending serves `ORDER BY c
/// DESC` with a forward leaf scan (and `ORDER BY c` with a backward one —
/// reversing *every* key part yields the same physical tree read the other
/// way, so uniformly-reversed definitions are interchangeable for order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortDirection {
    #[default]
    Asc,
    Desc,
}

impl SortDirection {
    /// The opposite direction (what a backward scan delivers).
    pub fn reversed(self) -> SortDirection {
        match self {
            SortDirection::Asc => SortDirection::Desc,
            SortDirection::Desc => SortDirection::Asc,
        }
    }
}

/// An index definition: target table and ordered key columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexDef {
    pub table: String,
    pub columns: Vec<String>,
    /// Per-key-part sort direction, aligned with `columns`. All-ascending
    /// unless built via [`IndexDef::with_directions`].
    pub directions: Vec<SortDirection>,
    pub scope: IndexScope,
}

impl IndexDef {
    /// A global B+Tree index on `table(columns...)`, all parts ascending.
    pub fn new(table: impl Into<String>, columns: &[&str]) -> Self {
        let columns: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
        let directions = vec![SortDirection::Asc; columns.len()];
        IndexDef {
            table: table.into(),
            columns,
            directions,
            scope: IndexScope::Global,
        }
    }

    /// Same, with an explicit scope.
    pub fn with_scope(mut self, scope: IndexScope) -> Self {
        self.scope = scope;
        self
    }

    /// Replace the per-part sort directions (must match the column count,
    /// enforced by [`IndexDef::validate`]).
    pub fn with_directions(mut self, directions: &[SortDirection]) -> Self {
        self.directions = directions.to_vec();
        self
    }

    /// The direction of key part `i` (ascending when unspecified).
    pub fn direction(&self, i: usize) -> SortDirection {
        self.directions.get(i).copied().unwrap_or_default()
    }

    /// Canonical display key, e.g. `orders(o_c_id,o_w_id)` or
    /// `flows(sensor_id,ts DESC)`. All-ascending indexes render exactly as
    /// before directions existed.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| match self.direction(i) {
                SortDirection::Asc => c.clone(),
                SortDirection::Desc => format!("{c} DESC"),
            })
            .collect();
        format!("{}({})", self.table, parts.join(","))
    }

    /// FNV-1a of the `Display` rendering — the definition's identity — fed
    /// piece by piece, so nothing is formatted: what a universe of
    /// definitions dedups by and what a cost-cache key is folded from.
    pub fn identity_hash(&self) -> u64 {
        let mut h = fnv1a_from(fnv1a(self.table.as_bytes()), b"(");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                h = fnv1a_from(h, b",");
            }
            h = fnv1a_from(h, c.as_bytes());
            if self.direction(i) == SortDirection::Desc {
                h = fnv1a_from(h, b" DESC");
            }
        }
        h = fnv1a_from(h, b")");
        match self.scope {
            IndexScope::Global => h,
            IndexScope::Local => fnv1a_from(h, b" LOCAL"),
        }
    }

    /// Whether the two render the same under `Display`: same table, key
    /// columns, per-part directions (ascending when unspecified) and scope.
    pub fn same_identity(&self, other: &IndexDef) -> bool {
        self.table == other.table
            && self.columns == other.columns
            && self.scope == other.scope
            && (0..self.columns.len()).all(|i| self.direction(i) == other.direction(i))
    }

    /// Whether `other`'s key columns are a leftmost prefix of this index's
    /// key columns (then this index *covers* `other`: §IV-A step 3, "merge
    /// indexes based on the leftmost matching principle"). Key parts must
    /// agree in direction too: `t(a,b DESC)` does not subsume `t(a,b)` for
    /// order purposes.
    pub fn covers(&self, other: &IndexDef) -> bool {
        self.table == other.table
            && other.columns.len() <= self.columns.len()
            && other.columns.iter().zip(&self.columns).all(|(a, b)| a == b)
            && (0..other.columns.len()).all(|i| other.direction(i) == self.direction(i))
    }

    /// Validate against the catalog table (columns exist, non-empty,
    /// directions aligned with columns).
    pub fn validate(&self, table: &Table) -> Result<(), StorageError> {
        if self.columns.is_empty() {
            return Err(StorageError::Invalid(format!(
                "index on {:?} has no columns",
                self.table
            )));
        }
        if self.directions.len() != self.columns.len() {
            return Err(StorageError::Invalid(format!(
                "index {} has {} direction(s) for {} column(s)",
                self.key(),
                self.directions.len(),
                self.columns.len()
            )));
        }
        for c in &self.columns {
            if table.column(c).is_none() {
                return Err(StorageError::UnknownColumn {
                    table: self.table.clone(),
                    column: c.clone(),
                });
            }
        }
        Ok(())
    }
}

/// An index configuration as the what-if entry points take it: the
/// definitions, in order, by reference. A slice or a `Vec` is one; so is
/// any cheaply cloned iterator, e.g. `existing.iter().chain(Some(&extra))`,
/// which prices "this set plus one" without copying a definition.
pub trait IndexConfig<'a>: IntoIterator<Item = &'a IndexDef> + Clone {}

impl<'a, C: IntoIterator<Item = &'a IndexDef> + Clone> IndexConfig<'a> for C {}

impl std::fmt::Display for IndexDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.key())?;
        if self.scope == IndexScope::Local {
            write!(f, " LOCAL")?;
        }
        Ok(())
    }
}

/// Derived physical geometry of a (possibly hypothetical) B+Tree index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexGeometry {
    /// Index entries (= table rows, NULLs included).
    pub entries: u64,
    /// Bytes per leaf entry (key + TID + item header).
    pub entry_width: u64,
    /// Leaf pages per tree.
    pub leaf_pages: u64,
    /// Tree height in levels above the leaves (root at height `h`).
    pub height: u32,
    /// Number of physical trees (1 for global, = partitions for local).
    pub trees: u32,
    /// Total on-disk size in bytes, all trees and internal levels.
    pub bytes: u64,
}

impl IndexGeometry {
    /// Estimated wall time of building this index from scratch, in
    /// milliseconds: a sort-dominated scan over every entry plus a fixed
    /// per-tree setup cost. `ms_per_entry` is the calibration constant
    /// (`SimDb` charges 2e-5 ms); the guarded-apply pipeline charges this
    /// (times any injected slow-build factor) as the DDL latency of a
    /// tuning round.
    pub fn build_ms(&self, ms_per_entry: f64) -> f64 {
        let entries = self.entries.max(1) as f64;
        // n·log2(n) sort term, normalised so ms_per_entry is the per-entry
        // cost at 1M entries (log2(1M) ≈ 20).
        let sort = entries * entries.log2().max(1.0) / 20.0;
        sort * ms_per_entry + self.trees as f64 * 0.5
    }

    /// This index once its table holds `rows` rows — what [`geometry`]
    /// resolves after growth, from the entry width and tree count already
    /// resolved (`scope` is the definition's).
    pub fn at_rows(&self, scope: IndexScope, rows: u64) -> IndexGeometry {
        sized(self.entry_width, self.trees, scope, rows)
    }
}

/// Leaf fill factor for B+Tree pages.
const INDEX_FILL: f64 = 0.9;
/// Per-entry overhead: 6-byte TID + 8-byte item header/alignment.
const ENTRY_OVERHEAD: u64 = 14;
/// Fan-out of internal pages (pointers per internal page).
const INTERNAL_FANOUT: f64 = 256.0;

/// Compute the geometry of `def` over `table` at its current cardinality.
pub fn geometry(def: &IndexDef, table: &Table) -> Result<IndexGeometry, StorageError> {
    def.validate(table)?;
    let key_width: u64 = def
        .columns
        .iter()
        .map(|c| table.column(c).map(|col| col.width as u64).unwrap_or(8))
        .sum();
    let trees = match def.scope {
        IndexScope::Global => 1u32,
        IndexScope::Local => table.partitions,
    };
    Ok(sized(
        key_width + ENTRY_OVERHEAD,
        trees,
        def.scope,
        table.rows,
    ))
}

/// Pages, height and bytes of `trees` B+Trees holding `entries` entries of
/// `entry_width` bytes between them.
fn sized(entry_width: u64, trees: u32, scope: IndexScope, entries: u64) -> IndexGeometry {
    // LOCAL trees stay better packed: inserts spread over many small trees
    // split less and fragment less than one global tree on a partitioned
    // table ("'local' … takes much less space", §III).
    let fill = match scope {
        IndexScope::Global => INDEX_FILL,
        IndexScope::Local => 0.97,
    };
    let entries_per_tree = (entries as f64 / trees as f64).max(1.0);
    let entries_per_page = ((PAGE_SIZE as f64 * fill) / entry_width as f64).max(2.0);
    let leaf_pages_per_tree = (entries_per_tree / entries_per_page).ceil().max(1.0);

    // height = levels needed for internal fan-out to reach the leaves;
    // internal pages ≈ leaf/fanout + leaf/fanout² + ...
    let mut height = 0u32;
    let mut internal_pages = 0.0;
    let mut level_pages = leaf_pages_per_tree;
    while level_pages > 1.0 {
        level_pages = (level_pages / INTERNAL_FANOUT).ceil();
        height += 1;
        internal_pages += level_pages;
    }
    let pages_per_tree = leaf_pages_per_tree + internal_pages + 1.0; // +1 meta page
    let bytes = (pages_per_tree * trees as f64) as u64 * PAGE_SIZE;

    IndexGeometry {
        entries,
        entry_width,
        leaf_pages: leaf_pages_per_tree as u64,
        height,
        trees,
        bytes,
    }
}

/// The §V-A index-maintenance cost of writing `n_rows` rows into an index
/// with geometry `geo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceCost {
    /// `C^io = |pages| * seq_page_cost`.
    pub io: f64,
    /// `C^cpu = t_start + t_running`.
    pub cpu: f64,
}

impl MaintenanceCost {
    /// Zero maintenance (deletes: "whose index update cost is 0", §V).
    pub const ZERO: MaintenanceCost = MaintenanceCost { io: 0.0, cpu: 0.0 };

    /// Total cost units.
    pub fn total(&self) -> f64 {
        self.io + self.cpu
    }
}

/// What of [`maintenance_cost`] an index's geometry fixes, whatever the
/// number of rows written: a prepared plan keeps one per maintained index
/// and prices each statement's rows through [`MaintenanceTerms::cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MaintenanceTerms {
    /// §V-A: `t_start = {ceil(log N) + (H+1)*50} * cpu_operator_cost`.
    t_start: f64,
    /// Pages written per inserted tuple: the leaf plus amortised splits.
    pages_per_row: f64,
}

impl MaintenanceTerms {
    /// The terms of an index with geometry `geo`.
    pub(crate) fn of(geo: &IndexGeometry, params: &CostParams) -> Self {
        let n = geo.entries.max(1) as f64;
        let h = geo.height as f64;
        let t_start = (n.ln().ceil().max(0.0) + (h + 1.0) * 50.0) * params.cpu_operator_cost;
        // IO: descent is usually cached; charge the leaf write plus amortised
        // splits per inserted tuple.
        let entries_per_page = (n / geo.leaf_pages.max(1) as f64).max(1.0);
        let split_rate = 1.0 / entries_per_page;
        MaintenanceTerms {
            t_start,
            pages_per_row: 1.0 + split_rate * 2.0,
        }
    }

    /// The cost of writing `n_rows` index tuples.
    pub(crate) fn cost(&self, n_rows: u64, params: &CostParams) -> MaintenanceCost {
        if n_rows == 0 {
            return MaintenanceCost::ZERO;
        }
        let n_rows_f = n_rows as f64;
        // §V-A: t_running = N_insert * cpu_index_tuple_cost.
        let t_running = n_rows_f * params.cpu_index_tuple_cost;
        let cpu = self.t_start * n_rows_f + t_running;
        let pages = n_rows_f * self.pages_per_row;
        let io = pages * params.seq_page_cost;
        MaintenanceCost { io, cpu }
    }
}

/// A prepared plan's write-side maintenance, shared behind an `Arc` with
/// every [`crate::usage::Maintenance`] priced through the plan: an
/// `INSERT`'s finished list, or per index an `UPDATE` maintains its terms
/// and the factor on them (2.0 when a key column is set, else 0.1).
#[derive(Debug, Default)]
pub(crate) struct WriteMaintenance {
    pub(crate) params: CostParams,
    pub(crate) inserted: Vec<(IndexId, MaintenanceCost)>,
    pub(crate) updated: Vec<(IndexId, MaintenanceTerms, f64)>,
}

impl WriteMaintenance {
    /// Whether the write maintains no index.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of maintained indexes (of charges, at most).
    pub(crate) fn len(&self) -> usize {
        self.inserted.len() + self.updated.len()
    }

    /// Empty, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.inserted.clear();
        self.updated.clear();
    }

    /// Each maintained index's charge for a write of `affected` rows, in
    /// the index set's order: an `INSERT`'s as prepared, an `UPDATE`'s
    /// terms priced at `affected` rows times the factor — the one place
    /// they are, so the planner's totals and the usage counters read the
    /// same bits — with the zero charges left out.
    pub(crate) fn charges(
        &self,
        affected: u64,
    ) -> impl Iterator<Item = (IndexId, MaintenanceCost)> + '_ {
        let updated = self.updated.iter().filter_map(move |(id, terms, factor)| {
            let m = terms.cost(affected, &self.params);
            let m = MaintenanceCost {
                io: m.io * factor,
                cpu: m.cpu * factor,
            };
            (m.total() > 0.0).then_some((*id, m))
        });
        self.inserted.iter().copied().chain(updated)
    }
}

/// Compute the maintenance cost of inserting (or re-inserting, for updates
/// of indexed columns) `n_rows` index tuples.
///
/// Pages touched per inserted tuple: the descent path (`H`), the leaf page,
/// and amortised page splits — a leaf splits roughly once every
/// `entries_per_page` inserts, costing one extra page write plus a parent
/// update ("the effects of splitting index pages", §V).
pub fn maintenance_cost(geo: &IndexGeometry, n_rows: u64, params: &CostParams) -> MaintenanceCost {
    MaintenanceTerms::of(geo, params).cost(n_rows, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableBuilder};

    fn table(rows: u64) -> Table {
        TableBuilder::new("t", rows)
            .column(Column::int("a", rows))
            .column(Column::int("b", 100))
            .column(Column::text("c", 1000, 32))
            .partitioned(8, "b")
            .build()
            .unwrap()
    }

    #[test]
    fn key_and_display() {
        let d = IndexDef::new("t", &["a", "b"]);
        assert_eq!(d.key(), "t(a,b)");
        assert_eq!(d.to_string(), "t(a,b)");
        let l = d.clone().with_scope(IndexScope::Local);
        assert_eq!(l.to_string(), "t(a,b) LOCAL");
    }

    #[test]
    fn identity_is_the_display_rendering() {
        use SortDirection::{Asc, Desc};
        let defs = [
            IndexDef::new("t", &["a"]),
            IndexDef::new("t", &["a", "b"]),
            IndexDef::new("t", &["ab"]),
            IndexDef::new("t", &["a", "b"]).with_directions(&[Asc, Desc]),
            IndexDef::new("t", &["a", "b"]).with_directions(&[Desc, Asc]),
            IndexDef::new("t", &["a", "b"]).with_scope(IndexScope::Local),
            IndexDef::new("ta", &["b"]),
            // Unspecified directions read as ascending.
            IndexDef::new("t", &["a", "b"]).with_directions(&[]),
        ];
        for a in &defs {
            assert_eq!(a.identity_hash(), fnv1a(a.to_string().as_bytes()), "{a}");
            for b in &defs {
                assert_eq!(
                    a.same_identity(b),
                    a.to_string() == b.to_string(),
                    "{a} / {b}"
                );
            }
        }
    }

    #[test]
    fn directions_render_and_compare() {
        use SortDirection::{Asc, Desc};
        let plain = IndexDef::new("t", &["a", "b"]);
        let mixed = IndexDef::new("t", &["a", "b"]).with_directions(&[Asc, Desc]);
        assert_eq!(plain.key(), "t(a,b)");
        assert_eq!(mixed.key(), "t(a,b DESC)");
        assert_ne!(plain, mixed);
        assert_eq!(mixed.direction(0), Asc);
        assert_eq!(mixed.direction(1), Desc);
        assert_eq!(Asc.reversed(), Desc);
        // Direction-differing prefixes don't cover each other.
        assert!(!mixed.covers(&plain));
        assert!(!plain.covers(&mixed));
        assert!(mixed.covers(&IndexDef::new("t", &["a"])));
        // Mismatched direction count fails validation.
        let t = table(1000);
        assert!(mixed.validate(&t).is_ok());
        assert!(IndexDef::new("t", &["a"])
            .with_directions(&[Asc, Desc])
            .validate(&t)
            .is_err());
    }

    #[test]
    fn covers_is_leftmost_prefix() {
        let ab = IndexDef::new("t", &["a", "b"]);
        let a = IndexDef::new("t", &["a"]);
        let b = IndexDef::new("t", &["b"]);
        let ba = IndexDef::new("t", &["b", "a"]);
        assert!(ab.covers(&a));
        assert!(ab.covers(&ab));
        assert!(!ab.covers(&b));
        assert!(!ab.covers(&ba));
        assert!(!a.covers(&ab));
        // Different table never covers.
        let other = IndexDef::new("u", &["a"]);
        assert!(!ab.covers(&other));
    }

    #[test]
    fn validate_checks_columns() {
        let t = table(1000);
        assert!(IndexDef::new("t", &["a"]).validate(&t).is_ok());
        assert!(IndexDef::new("t", &["zz"]).validate(&t).is_err());
        assert!(IndexDef::new("t", &[]).validate(&t).is_err());
    }

    #[test]
    fn geometry_scales_with_rows() {
        let small = geometry(&IndexDef::new("t", &["a"]), &table(1_000)).unwrap();
        let large = geometry(&IndexDef::new("t", &["a"]), &table(10_000_000)).unwrap();
        assert!(large.leaf_pages > small.leaf_pages * 1000);
        assert!(large.bytes > small.bytes);
        assert!(large.height >= small.height);
        assert!(large.height >= 2);
    }

    #[test]
    fn geometry_wider_keys_bigger_index() {
        let t = table(1_000_000);
        let narrow = geometry(&IndexDef::new("t", &["a"]), &t).unwrap();
        let wide = geometry(&IndexDef::new("t", &["a", "c"]), &t).unwrap();
        assert!(wide.bytes > narrow.bytes);
        assert!(wide.entry_width > narrow.entry_width);
    }

    #[test]
    fn local_index_has_many_small_trees_and_less_total_height() {
        let t = table(1_000_000);
        let global = geometry(&IndexDef::new("t", &["a"]), &t).unwrap();
        let local = geometry(
            &IndexDef::new("t", &["a"]).with_scope(IndexScope::Local),
            &t,
        )
        .unwrap();
        assert_eq!(global.trees, 1);
        assert_eq!(local.trees, 8);
        assert!(local.height <= global.height);
    }

    #[test]
    fn maintenance_zero_for_zero_rows() {
        let t = table(100_000);
        let geo = geometry(&IndexDef::new("t", &["a"]), &t).unwrap();
        let m = maintenance_cost(&geo, 0, &CostParams::default());
        assert_eq!(m, MaintenanceCost::ZERO);
        assert_eq!(m.total(), 0.0);
    }

    #[test]
    fn maintenance_grows_with_rows_and_height() {
        let params = CostParams::default();
        let small_geo = geometry(&IndexDef::new("t", &["a"]), &table(10_000)).unwrap();
        let big_geo = geometry(&IndexDef::new("t", &["a"]), &table(100_000_000)).unwrap();
        let m1 = maintenance_cost(&small_geo, 10, &params);
        let m10 = maintenance_cost(&small_geo, 100, &params);
        assert!(m10.total() > m1.total());
        let mb = maintenance_cost(&big_geo, 10, &params);
        assert!(
            mb.total() > m1.total(),
            "taller tree must cost more per insert"
        );
    }

    #[test]
    fn scope_affects_key_identity() {
        let g = IndexDef::new("t", &["a"]);
        let l = IndexDef::new("t", &["a"]).with_scope(IndexScope::Local);
        // Same key string (columns), different definitions.
        assert_eq!(g.key(), l.key());
        assert_ne!(g, l);
        assert_ne!(g.to_string(), l.to_string());
    }

    #[test]
    fn maintenance_update_cost_is_symmetric_in_geometry() {
        // Two geometries differing only in trees (global vs local) cost
        // similarly per inserted row — maintenance is per tree touched.
        let t = table(1_000_000);
        let params = CostParams::default();
        let g = geometry(&IndexDef::new("t", &["a"]), &t).unwrap();
        let l = geometry(
            &IndexDef::new("t", &["a"]).with_scope(IndexScope::Local),
            &t,
        )
        .unwrap();
        let mg = maintenance_cost(&g, 100, &params);
        let ml = maintenance_cost(&l, 100, &params);
        // Local trees are shallower, so maintenance is no more expensive.
        assert!(ml.total() <= mg.total() * 1.05);
    }

    #[test]
    fn unpartitioned_local_scope_degenerates_to_one_tree() {
        let t = TableBuilder::new("u", 50_000)
            .column(Column::int("a", 50_000))
            .build()
            .unwrap();
        let geo = geometry(
            &IndexDef::new("u", &["a"]).with_scope(IndexScope::Local),
            &t,
        )
        .unwrap();
        assert_eq!(geo.trees, 1);
    }

    #[test]
    fn maintenance_formula_matches_paper() {
        // Hand-check t_start/t_running for one insert.
        let params = CostParams::default();
        let geo = IndexGeometry {
            entries: 1000,
            entry_width: 22,
            leaf_pages: 4,
            height: 1,
            trees: 1,
            bytes: 5 * PAGE_SIZE,
        };
        let m = maintenance_cost(&geo, 1, &params);
        let t_start = ((1000.0f64).ln().ceil() + 2.0 * 50.0) * params.cpu_operator_cost;
        let t_running = params.cpu_index_tuple_cost;
        assert!((m.cpu - (t_start + t_running)).abs() < 1e-9);
    }
}
