//! Per-index usage statistics.
//!
//! openGauss exposes per-index scan and tuple counters
//! (`pg_stat_user_indexes`); the Index Diagnosis module (§III) reads them
//! to classify indexes as *beneficial-but-missing*, *rarely used*, or
//! *negative* (maintenance exceeding benefit). This tracker is the
//! simulator's equivalent, fed by every executed plan.

use crate::index::{IndexId, IndexList, MaintenanceCost, WriteMaintenance};
use autoindex_support::hash::U64HashMap;
use std::sync::Arc;

/// Counters for one index.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexUsage {
    /// Number of plans that used this index on the read side.
    pub scans: u64,
    /// Number of statements that charged maintenance to this index.
    pub maintenance_events: u64,
    /// Accumulated maintenance cost (optimizer units).
    pub maintenance_cost: f64,
    /// Accumulated estimated read-cost saving attributed to this index.
    pub benefit: f64,
}

impl IndexUsage {
    /// Net effect: accumulated benefit minus accumulated maintenance.
    pub fn net(&self) -> f64 {
        self.benefit - self.maintenance_cost
    }
}

/// The usage side effects of executing **one** statement, recorded as a
/// detached value so it can be computed on a worker thread (against a
/// read-only snapshot) and merged into the owning [`UsageTracker`] later,
/// in a deterministic order.
///
/// This is the serving pipeline's unit of observation transport: workers
/// never touch the tracker directly; they emit deltas and the single tuner
/// thread applies them via [`UsageTracker::apply_delta`] after a
/// logical-clock merge, so the merged counters are independent of worker
/// count and scheduling.
///
/// Executing a statement builds one without a heap allocation: the used
/// indexes sit inline and the maintenance charges are the plan's own,
/// shared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageDelta {
    /// The read-side credit of each index in `scans`: the plan's saving
    /// against the no-index baseline, shared evenly.
    pub saving: f64,
    /// The indexes the plan used on the read side, each credited `saving`.
    pub scans: IndexList,
    /// `(index, cost)` maintenance charges — one per maintained index.
    pub maintenance: Maintenance,
    /// `(table, rows)` catalog growth caused by an INSERT, if any. The name
    /// is the catalog's own copy, shared: an executed INSERT allocates
    /// nothing for it.
    pub growth: Option<(Arc<str>, u64)>,
}

impl UsageDelta {
    /// True when the statement had no index-visible side effects.
    pub fn is_empty(&self) -> bool {
        self.scans.is_empty() && self.maintenance.is_empty() && self.growth.is_none()
    }
}

/// One statement's `(index, cost)` maintenance charges. Executed, they are
/// its plan's write side, shared, and the rows the statement wrote: each
/// charge is priced when read, exactly as the plan priced it, so carrying
/// them costs a reference count however many indexes the table has.
#[derive(Clone, Default)]
pub struct Maintenance(Option<(Arc<WriteMaintenance>, u64)>);

impl Maintenance {
    /// The charges of a write of `affected` rows through `write` (none when
    /// it maintains no index).
    pub(crate) fn shared(write: &Arc<WriteMaintenance>, affected: u64) -> Self {
        Maintenance((!write.is_empty()).then(|| (Arc::clone(write), affected)))
    }

    /// The charges, in the plan's index order.
    pub fn iter(&self) -> impl Iterator<Item = (IndexId, MaintenanceCost)> + '_ {
        self.0
            .iter()
            .flat_map(|(write, affected)| write.charges(*affected))
    }

    /// Whether no index is charged.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Number of charged indexes.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// The charges as a list.
    pub fn to_vec(&self) -> Vec<(IndexId, MaintenanceCost)> {
        let most = self.0.as_ref().map_or(0, |(write, _)| write.len());
        let mut charges = Vec::with_capacity(most);
        charges.extend(self.iter());
        charges
    }
}

/// A fixed list of charges, held as given.
impl FromIterator<(IndexId, MaintenanceCost)> for Maintenance {
    fn from_iter<I: IntoIterator<Item = (IndexId, MaintenanceCost)>>(iter: I) -> Self {
        let write = WriteMaintenance {
            inserted: iter.into_iter().collect(),
            ..WriteMaintenance::default()
        };
        Maintenance((!write.is_empty()).then(|| (Arc::new(write), 0)))
    }
}

impl PartialEq for Maintenance {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// As the list of charges.
impl std::fmt::Debug for Maintenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Usage counters for all indexes in a database.
#[derive(Debug, Clone, Default)]
pub struct UsageTracker {
    /// Keyed by the id's number: the multiply-fold hasher's `u64` path.
    by_index: U64HashMap<IndexUsage>,
    /// Total statements executed since the last reset.
    pub statements: u64,
}

impl UsageTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        UsageTracker::default()
    }

    /// Record a read-side use of `id`, crediting `saving` cost units.
    pub fn record_scan(&mut self, id: IndexId, saving: f64) {
        let u = self.by_index.entry(u64::from(id.0)).or_default();
        u.scans += 1;
        u.benefit += saving.max(0.0);
    }

    /// Record a maintenance charge against `id`.
    pub fn record_maintenance(&mut self, id: IndexId, cost: f64) {
        let u = self.by_index.entry(u64::from(id.0)).or_default();
        u.maintenance_events += 1;
        u.maintenance_cost += cost.max(0.0);
    }

    /// Bump the statement counter.
    pub fn record_statement(&mut self) {
        self.statements += 1;
    }

    /// Merge one statement's detached side effects (see [`UsageDelta`]).
    /// Counts the statement and applies its scan credits and maintenance
    /// charges; catalog growth is the caller's responsibility (the tracker
    /// has no catalog access).
    pub fn apply_delta(&mut self, delta: &UsageDelta) {
        self.record_statement();
        for id in &delta.scans {
            self.record_scan(*id, delta.saving);
        }
        for (id, cost) in delta.maintenance.iter() {
            self.record_maintenance(id, cost.total());
        }
    }

    /// Usage for one index (zeroes if never seen).
    pub fn usage(&self, id: IndexId) -> IndexUsage {
        self.by_index
            .get(&u64::from(id.0))
            .copied()
            .unwrap_or_default()
    }

    /// Iterate all tracked indexes.
    pub fn iter(&self) -> impl Iterator<Item = (IndexId, &IndexUsage)> {
        self.by_index.iter().map(|(k, v)| (IndexId(*k as u32), v))
    }

    /// Drop counters for an index (after DROP INDEX).
    pub fn forget(&mut self, id: IndexId) {
        self.by_index.remove(&u64::from(id.0));
    }

    /// Reset all counters (e.g. at a diagnosis window boundary).
    pub fn reset(&mut self) {
        self.by_index.clear();
        self.statements = 0;
    }

    /// Indexes whose scan count is below `min_scans` after at least
    /// `min_statements` statements — the §III "rarely-used" class.
    pub fn rarely_used(&self, min_scans: u64, min_statements: u64) -> Vec<IndexId> {
        if self.statements < min_statements {
            return Vec::new();
        }
        let mut v: Vec<IndexId> = self
            .by_index
            .iter()
            .filter(|(_, u)| u.scans < min_scans)
            .map(|(id, _)| IndexId(*id as u32))
            .collect();
        v.sort();
        v
    }

    /// Indexes whose accumulated maintenance exceeds their accumulated
    /// benefit — the §III "negative effect" class.
    pub fn negative(&self) -> Vec<IndexId> {
        let mut v: Vec<IndexId> = self
            .by_index
            .iter()
            .filter(|(_, u)| u.maintenance_cost > u.benefit && u.maintenance_events > 0)
            .map(|(id, _)| IndexId(*id as u32))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 10.0);
        t.record_scan(IndexId(1), 5.0);
        t.record_maintenance(IndexId(1), 3.0);
        let u = t.usage(IndexId(1));
        assert_eq!(u.scans, 2);
        assert_eq!(u.maintenance_events, 1);
        assert!((u.benefit - 15.0).abs() < 1e-9);
        assert!((u.net() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_index_is_zero() {
        let t = UsageTracker::new();
        assert_eq!(t.usage(IndexId(9)), IndexUsage::default());
    }

    #[test]
    fn rarely_used_respects_warmup() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 1.0);
        t.record_maintenance(IndexId(2), 1.0);
        // Not enough statements yet.
        assert!(t.rarely_used(5, 100).is_empty());
        for _ in 0..100 {
            t.record_statement();
        }
        let rare = t.rarely_used(5, 100);
        assert!(rare.contains(&IndexId(1)));
        assert!(rare.contains(&IndexId(2)));
    }

    #[test]
    fn negative_requires_maintenance_exceeding_benefit() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 100.0);
        t.record_maintenance(IndexId(1), 5.0);
        t.record_scan(IndexId(2), 1.0);
        t.record_maintenance(IndexId(2), 50.0);
        assert_eq!(t.negative(), vec![IndexId(2)]);
    }

    #[test]
    fn forget_and_reset() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 1.0);
        t.forget(IndexId(1));
        assert_eq!(t.usage(IndexId(1)), IndexUsage::default());
        t.record_scan(IndexId(2), 1.0);
        t.record_statement();
        t.reset();
        assert_eq!(t.statements, 0);
        assert_eq!(t.usage(IndexId(2)), IndexUsage::default());
    }

    #[test]
    fn negative_savings_clamped() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), -5.0);
        assert_eq!(t.usage(IndexId(1)).benefit, 0.0);
    }

    #[test]
    fn iter_walks_all_tracked_indexes() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 1.0);
        t.record_maintenance(IndexId(2), 2.0);
        t.record_scan(IndexId(3), 3.0);
        let mut ids: Vec<u32> = t.iter().map(|(id, _)| id.0).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn apply_delta_matches_direct_recording() {
        let delta = UsageDelta {
            saving: 10.0,
            scans: [IndexId(1), IndexId(2)].into_iter().collect(),
            maintenance: [(IndexId(3), MaintenanceCost { io: 3.0, cpu: 1.0 })]
                .into_iter()
                .collect(),
            growth: Some(("t".into(), 5)),
        };
        let mut via_delta = UsageTracker::new();
        via_delta.apply_delta(&delta);

        let mut direct = UsageTracker::new();
        direct.record_statement();
        direct.record_scan(IndexId(1), 10.0);
        direct.record_scan(IndexId(2), 10.0);
        direct.record_maintenance(IndexId(3), 4.0);

        assert_eq!(via_delta.statements, direct.statements);
        for id in [1, 2, 3] {
            assert_eq!(via_delta.usage(IndexId(id)), direct.usage(IndexId(id)));
        }
        assert!(!delta.is_empty());
        assert!(UsageDelta::default().is_empty());
    }

    #[test]
    fn net_can_go_negative() {
        let mut t = UsageTracker::new();
        t.record_scan(IndexId(1), 2.0);
        t.record_maintenance(IndexId(1), 10.0);
        assert!((t.usage(IndexId(1)).net() + 8.0).abs() < 1e-12);
    }
}
