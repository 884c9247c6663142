//! Simulated DBMS substrate for AutoIndex ("MiniGauss").
//!
//! The paper deploys AutoIndex inside openGauss. An index advisor interacts
//! with its host database through a narrow interface:
//!
//! 1. **statistics** — table/column statistics for selectivity estimation,
//! 2. **index geometry** — size/height of (possibly hypothetical) B+Tree
//!    indexes, for storage budgets and maintenance-cost features,
//! 3. **what-if costing** — optimizer cost of a query under a hypothetical
//!    index configuration (openGauss exposes this as `hypopg_index`),
//! 4. **execution feedback** — measured latency/throughput and per-index
//!    usage counters, which drive diagnosis and estimator training.
//!
//! This crate rebuilds exactly that interface over an analytic model:
//!
//! * [`catalog`] — tables, columns, per-column statistics.
//! * [`index`] — the B+Tree index model: geometry (height, pages, bytes)
//!   and the §V-A maintenance-cost formulas.
//! * [`shape`] — extraction of the indexing-relevant *shape* of a query
//!   (sargable atoms per table, join edges, group/order columns, write
//!   targets), shared by the planner and the candidate generator.
//! * [`selectivity`] — per-atom and per-conjunct selectivity estimation.
//! * [`planner`] — a what-if planner: chooses access paths and join
//!   strategies under a given index configuration and produces a
//!   [`planner::CostFeatures`] breakdown (`C^data`, `C^io`, `C^cpu` of §V).
//! * [`db`] — the [`db::SimDb`] façade: DDL, hypothetical indexes,
//!   what-if costs, simulated execution with noise, usage tracking and
//!   data growth.
//!
//! Beside the analytic model sit two modules no product path calls — a
//! test reference, kept so the planner's assumptions are checked against
//! real pages (`tests/surface_proptests.rs`):
//!
//! * [`btree`] — a paged B+Tree: insert/split, point + range scans over
//!   the leaf chain, delete with occupancy rebalance.
//! * [`pager`] — the in-memory page arena and freelist the tree lives in.
//!
//! The *native* what-if cost deliberately ignores index-maintenance cost on
//! writes — mirroring the real openGauss/PostgreSQL estimators the paper
//! criticises (§V: "current database cannot estimate the index maintenance
//! costs") — while simulated *execution* pays it. The learned estimator in
//! `autoindex-estimator` closes that gap.

#![forbid(unsafe_code)]

pub mod btree;
pub mod catalog;
pub mod db;
pub mod fault;
pub mod histogram;
pub mod index;
pub mod pager;
pub mod planner;
pub mod selectivity;
pub mod shape;
pub mod usage;

pub use catalog::{Catalog, Column, ColumnStats, ColumnType, Table, TableBuilder};
pub use db::{DbSnapshot, ExecOutcome, PressureModel, SimDb, SimDbConfig, WorkloadMeasurement};
pub use fault::{FaultKind, FaultPlan, FaultPlanConfig};
pub use histogram::Histogram;
pub use index::{
    IndexConfig, IndexDef, IndexGeometry, IndexId, IndexList, IndexScope, MaintenanceCost,
};
pub use planner::{AccessPath, CostFeatures, CostParams, PlanSummary, Planner, PreparedPlan};
pub use selectivity::{atom_selectivity, conjunct_selectivity, DEFAULT_EQ_SEL, DEFAULT_RANGE_SEL};
pub use shape::{QueryShape, SelFactor, SelTrace, TableAtoms, WriteKind, WriteShape};
pub use usage::{IndexUsage, Maintenance, UsageDelta, UsageTracker};

/// Errors surfaced by the storage substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Referenced table does not exist in the catalog.
    UnknownTable(String),
    /// Referenced column does not exist on the table.
    UnknownColumn { table: String, column: String },
    /// Index with the same key already exists.
    DuplicateIndex(String),
    /// Referenced index id does not exist.
    UnknownIndex(IndexId),
    /// Invalid argument (empty column list, zero rows, ...).
    Invalid(String),
    /// A [`fault::FaultPlan`] injected a failure on this call. Retryable
    /// for [`FaultKind::TransientError`]; a [`FaultKind::FailedBuild`]
    /// means this DDL attempt is gone (a new attempt re-rolls).
    FaultInjected(FaultKind),
    /// The reference B+Tree met a malformed node or a page id that was
    /// never allocated.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table:?}.{column:?}")
            }
            StorageError::DuplicateIndex(k) => write!(f, "duplicate index {k}"),
            StorageError::UnknownIndex(id) => write!(f, "unknown index id {id:?}"),
            StorageError::Invalid(m) => write!(f, "invalid argument: {m}"),
            StorageError::FaultInjected(k) => write!(f, "injected fault: {k}"),
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}
