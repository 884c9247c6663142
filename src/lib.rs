//! # autoindex
//!
//! Façade crate for the AutoIndex reproduction (ICDE 2022): re-exports the
//! whole system — SQL front-end, simulated DBMS substrate, workload
//! generators, learned estimator and the AutoIndex core — under one roof,
//! plus a [`prelude`] for examples and downstream users.
//!
//! See the individual crates for deep documentation:
//!
//! * [`autoindex_support`] — hermetic substrate: PRNG, JSON,
//!   property/bench harnesses and the `obs` metrics registry.
//! * [`autoindex_sql`] — parsing, predicate normalisation, fingerprinting.
//! * [`autoindex_storage`] — catalog, index model, what-if planner,
//!   simulated execution ("MiniGauss").
//! * [`autoindex_workloads`] — TPC-C / TPC-DS-like / banking / epidemic.
//! * [`autoindex_estimator`] — §V cost features + one-layer regression.
//! * [`autoindex_core`] — SQL2Template, candidate generation, policy-tree
//!   MCTS, baselines, diagnosis, the [`autoindex_core::AutoIndex`] driver.

#![forbid(unsafe_code)]

pub use autoindex_core as core;
pub use autoindex_estimator as estimator;
pub use autoindex_sql as sql;
pub use autoindex_storage as storage;
pub use autoindex_support as support;
pub use autoindex_workloads as workloads;

/// Helpers shared by the `advisor` CLI binary (kept in the library so they
/// are unit-testable).
pub mod cli_support {
    use autoindex_storage::{IndexDef, IndexScope};

    /// Parse a byte budget: plain bytes or a `K`/`M`/`G` suffix.
    pub fn parse_budget(s: &str) -> Option<u64> {
        let (num, mult) = match s.chars().last()? {
            'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
            'M' | 'm' => (&s[..s.len() - 1], 1u64 << 20),
            'G' | 'g' => (&s[..s.len() - 1], 1u64 << 30),
            _ => (s, 1),
        };
        num.parse::<u64>().ok().map(|n| n.saturating_mul(mult))
    }

    /// Parse `table(col1,col2)[ LOCAL]` index specs.
    pub fn parse_index_spec(line: &str) -> Option<IndexDef> {
        let line = line.trim();
        let open = line.find('(')?;
        let close = line.find(')')?;
        if close < open {
            return None;
        }
        let table = line[..open].trim();
        let cols: Vec<&str> = line[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        if table.is_empty() || cols.is_empty() {
            return None;
        }
        let mut def = IndexDef::new(table, &cols);
        if line[close + 1..].trim().eq_ignore_ascii_case("local") {
            def = def.with_scope(IndexScope::Local);
        }
        Some(def)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn budget_suffixes() {
            assert_eq!(parse_budget("1024"), Some(1024));
            assert_eq!(parse_budget("4K"), Some(4 << 10));
            assert_eq!(parse_budget("100M"), Some(100 << 20));
            assert_eq!(parse_budget("2g"), Some(2 << 30));
            assert_eq!(parse_budget("x"), None);
            assert_eq!(parse_budget(""), None);
            assert_eq!(parse_budget("M"), None);
        }

        #[test]
        fn index_specs() {
            let d = parse_index_spec("orders(o_c_id, o_w_id)").unwrap();
            assert_eq!(d.key(), "orders(o_c_id,o_w_id)");
            assert_eq!(d.scope, IndexScope::Global);
            let d = parse_index_spec("  t(a) LOCAL ").unwrap();
            assert_eq!(d.scope, IndexScope::Local);
            assert!(parse_index_spec("nope").is_none());
            assert!(parse_index_spec("t()").is_none());
            assert!(parse_index_spec(")(").is_none());
            assert!(parse_index_spec("(a,b)").is_none());
        }
    }
}

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use autoindex_core::{
        serve_fleet, ApplyVerdict, AutoIndex, AutoIndexConfig, AutoIndexError, CandidateConfig,
        CandidateGenerator, DiagnosisConfig, FleetConfig, FleetOutcome, FleetTenant, Guard,
        GuardConfig, GuardEvent, GuardPhase, IndexDiagnosis, MctsConfig, Recommendation,
        ServeConfig, ServeOutcome, ServeReport, SessionReport, TemplateStore, TemplateStoreConfig,
        TenantReport, TenantSpec, TuningReport, TuningSession,
    };
    pub use autoindex_estimator::{
        kfold_cross_validate, CollectConfig, CostEstimator, LearnedCostEstimator,
        NativeCostEstimator, OneLayerRegression, TrainConfig, TrainingSet,
    };
    pub use autoindex_sql::{parse_statement, Statement};
    pub use autoindex_storage::{
        Catalog, Column, ColumnStats, ColumnType, FaultPlan, FaultPlanConfig, IndexDef, IndexScope,
        QueryShape, SimDb, SimDbConfig, Table, TableBuilder,
    };
    pub use autoindex_support::json::Json;
    pub use autoindex_support::obs::MetricsRegistry;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 10_000)
                .column(Column::int("a", 10_000))
                .build()
                .unwrap(),
        );
        let db = SimDb::new(c, SimDbConfig::default());
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        ai.observe("SELECT * FROM t WHERE a = 1", &db).unwrap();
        assert_eq!(ai.template_count(), 1);
    }
}
