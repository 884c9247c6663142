//! Per-index usage statistics.
//!
//! openGauss exposes per-index scan and tuple counters
//! (`pg_stat_user_indexes`); the Index Diagnosis module (§III) reads them
//! to classify indexes as *beneficial-but-missing*, *rarely used*, or
//! *negative* (maintenance exceeding benefit). This tracker is the
//! simulator's equivalent, fed by every executed plan.

use crate::index::{IndexId, MaintenanceCost};
use std::collections::HashMap;
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageDelta {
    /// `(index, saving)` read-side credits — one entry per index the plan
    /// used.
    pub scans: Vec<(IndexId, f64)>,
    /// `(index, cost)` maintenance charges — one entry per maintained
    /// index: the plan's own list, moved here.
    pub maintenance: Vec<(IndexId, MaintenanceCost)>,
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

/// Usage counters for all indexes in a database.
#[derive(Debug, Clone, Default)]
pub struct UsageTracker {
    by_index: HashMap<IndexId, IndexUsage>,
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
        let u = self.by_index.entry(id).or_default();
        u.scans += 1;
        u.benefit += saving.max(0.0);
    }

    /// Record a maintenance charge against `id`.
    pub fn record_maintenance(&mut self, id: IndexId, cost: f64) {
        let u = self.by_index.entry(id).or_default();
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
        for (id, saving) in &delta.scans {
            self.record_scan(*id, *saving);
        }
        for (id, cost) in &delta.maintenance {
            self.record_maintenance(*id, cost.total());
        }
    }

    /// Usage for one index (zeroes if never seen).
    pub fn usage(&self, id: IndexId) -> IndexUsage {
        self.by_index.get(&id).copied().unwrap_or_default()
    }

    /// Iterate all tracked indexes.
    pub fn iter(&self) -> impl Iterator<Item = (IndexId, &IndexUsage)> {
        self.by_index.iter().map(|(k, v)| (*k, v))
    }

    /// Drop counters for an index (after DROP INDEX).
    pub fn forget(&mut self, id: IndexId) {
        self.by_index.remove(&id);
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
            .map(|(id, _)| *id)
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
            .map(|(id, _)| *id)
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
            scans: vec![(IndexId(1), 10.0), (IndexId(2), 3.0)],
            maintenance: vec![(IndexId(3), MaintenanceCost { io: 3.0, cpu: 1.0 })],
            growth: Some(("t".into(), 5)),
        };
        let mut via_delta = UsageTracker::new();
        via_delta.apply_delta(&delta);

        let mut direct = UsageTracker::new();
        direct.record_statement();
        direct.record_scan(IndexId(1), 10.0);
        direct.record_scan(IndexId(2), 3.0);
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
