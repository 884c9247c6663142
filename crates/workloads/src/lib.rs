//! Workload generators for the AutoIndex evaluation (§VI-A).
//!
//! * [`tpcc`] — the TPC-C OLTP benchmark: 9-table schema at scale factors
//!   1x/10x/100x and the standard 5-transaction mix. Used by Figures 5, 8,
//!   9 and 10 and Table I.
//! * [`tpcds`] — a TPC-DS-like OLAP star schema (25 tables) with 99
//!   analytic query shapes, including the Q32-style "two indexes only pay
//!   off together" pattern. Used by Figures 6 and 7.
//! * [`banking`] — the synthetic stand-in for the paper's proprietary
//!   banking scenario: 144 tables, a summarization (OLAP) and a withdrawal
//!   (OLTP) service, and a bloated hand-crafted DBA index set with
//!   redundant/unused/negative indexes. Used by Figure 1 and Tables II–III.
//! * [`fleet`] — the multi-tenant serving-fleet population: T scaled-down
//!   banking tenants (thousands of accounts each) with priorities, latency
//!   SLOs and drifting workload mixes. Used by the PR8 fleet bench.
//! * [`drift`] — single-tenant drift scenarios (flash crowd, seasonal
//!   shift, schema migration, ad-hoc analyst bursts) with marked drift
//!   points and mean-latency SLOs. Used by the PR9 `drift_matrix` bench
//!   comparing greedy/MCTS/bandit recovery and regret.
//! * [`epidemic`] — the Figure 2 motivating example: three workload phases
//!   with opposite index requirements.
//! * [`partitioned`] — a hash-partitioned metering table exercising the
//!   §III GLOBAL-vs-LOCAL index type selection.
//! * [`timeseries`] — metrics ingestion + latest-K dashboard scans
//!   (`ORDER BY ts DESC LIMIT`) and HAVING rollups. Used by the PR10
//!   `sort_surface` bench and chaos matrix.
//! * [`socialgraph`] — timeline fanout with a mixed-direction ranked feed
//!   (`ORDER BY score DESC, post_id`). Used by the PR10 `sort_surface`
//!   bench and chaos matrix.
//! * [`saas`] — multi-tenant ticketing with tenant-scoped equality
//!   prefixes and recency order suffixes. Used by the PR10 `sort_surface`
//!   bench and chaos matrix.
//!
//! Every generator is deterministic given its seed, so experiments are
//! reproducible run to run.

#![forbid(unsafe_code)]

pub mod banking;
pub mod drift;
pub mod epidemic;
pub mod fleet;
pub mod partitioned;
pub mod saas;
pub mod socialgraph;
pub mod timeseries;
pub mod tpcc;
pub mod tpcds;

use autoindex_storage::catalog::Catalog;
use autoindex_storage::index::IndexDef;

/// A fully-specified experimental scenario: schema, the `Default` baseline
/// index configuration, and a query generator.
pub struct Scenario {
    /// Human-readable scenario name (e.g. `"TPC-C 10x"`).
    pub name: String,
    /// The schema with statistics.
    pub catalog: Catalog,
    /// The `Default` baseline configuration (§VI-A: "indexes on the primary
    /// columns for the testing datasets and manually-crafted indexes for
    /// the real datasets").
    pub default_indexes: Vec<IndexDef>,
}

/// A sort/covering-surface scenario (PR10): schema, starting indexes and
/// a deterministic statement stream whose reads lean on ORDER BY /
/// GROUP BY / HAVING shapes. Shared by [`timeseries`], [`socialgraph`]
/// and [`saas`].
pub struct SurfaceScenario {
    /// Stable scenario name (`"time_series"`, ...), used as the BENCH key.
    pub name: &'static str,
    /// The scenario's schema with statistics.
    pub catalog: Catalog,
    /// Starting index set (primary-key lookups, plus at most the obvious
    /// single-column choice the composites must beat).
    pub start_indexes: Vec<IndexDef>,
    /// The deterministic statement stream.
    pub queries: Vec<String>,
    /// Mean-latency SLO (simulated ms per statement) for admission-style
    /// consumers.
    pub slo_mean_ms: f64,
}

/// All three PR10 surface scenarios, in their canonical matrix order.
pub fn surface_scenarios(seed: u64, statements: usize) -> Vec<SurfaceScenario> {
    vec![
        timeseries::scenario(seed, statements),
        socialgraph::scenario(seed, statements),
        saas::scenario(seed, statements),
    ]
}
