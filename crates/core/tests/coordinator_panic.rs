//! Regression: a panic on the **coordinator** — the thread that absorbs
//! observations and runs tuning between epochs — must end the run with an
//! error, never with a hang.
//!
//! The statement fence only covers executors. Before the shared epoch
//! engine, `serve_fleet` ran its tuner visit on the coordinator with
//! nothing behind it: the panic unwound out of the thread scope, the done
//! flag was never raised, and the workers polled an empty pool forever
//! while the scope waited to join them. The engine raises the flag (and
//! hangs up the observation channel) from a drop guard, so both drivers
//! return `Err` the way `serve` always has for its tuner.
//!
//! Each driver runs on a spawned thread and the test waits on a channel
//! with a timeout, so a regression is a red test, not a stalled job.

use autoindex_core::{
    serve, serve_fleet, AutoIndex, AutoIndexConfig, AutoIndexError, FleetConfig, FleetTenant,
    ServeConfig, TenantSpec,
};
use autoindex_estimator::CostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::{IndexConfig, QueryShape, SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// An estimator with a bug: the first what-if call of the first tuning
/// round panics — on the coordinator, outside any statement fence.
struct PanickingEstimator;

impl CostEstimator for PanickingEstimator {
    fn shape_cost<'a>(&self, _: &SimDb, _: &QueryShape, _: impl IndexConfig<'a>) -> f64 {
        panic!("injected estimator panic");
    }
}

fn db() -> SimDb {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", 500_000)
            .column(Column::int("id", 500_000))
            .column(Column::int("a", 250_000))
            .column(Column::int("b", 2_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
}

/// 300 point lookups, then 300 `GROUP BY` scans: the drift that makes
/// serve's diagnosis fire and the fleet's regret pick visit the tenant.
fn drifting_stream() -> Vec<String> {
    let lookups = (0..300).map(|i| format!("SELECT * FROM t WHERE a = {i}"));
    let scans = (0..300).map(|i| {
        format!(
            "SELECT b, COUNT(*) FROM t WHERE b > {} GROUP BY b ORDER BY b",
            i % 50
        )
    });
    lookups.chain(scans).collect()
}

/// Run `driver` on its own thread; fail (instead of stalling) if it has
/// not returned within 20 s, and demand the run reported an error.
fn assert_errs_without_hanging<T: Send + 'static>(
    name: &str,
    field: &str,
    driver: impl FnOnce() -> Result<T, AutoIndexError> + Send + 'static,
) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(driver().map(|_| ()));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Err(AutoIndexError::InvalidConfig { field: f, .. })) => assert_eq!(f, field),
        Ok(other) => panic!("{name}: expected a coordinator error, got {other:?}"),
        Err(_) => panic!("{name}: hung after a coordinator panic"),
    }
}

#[test]
fn serve_returns_an_error_when_the_coordinator_panics() {
    assert_errs_without_hanging("serve", "serve.tuner", || {
        let cfg = ServeConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .build()
            .unwrap();
        let advisor = AutoIndex::new(AutoIndexConfig::default(), PanickingEstimator);
        serve(db(), advisor, &drifting_stream(), cfg)
    });
}

#[test]
fn serve_fleet_returns_an_error_when_the_coordinator_panics() {
    assert_errs_without_hanging("serve_fleet", "serve.tuner", || {
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .regret_threshold(0.10)
            .build()
            .unwrap();
        let tenant = FleetTenant {
            spec: TenantSpec {
                name: "drift".to_string(),
                priority: 1,
                slo_p50_ms: 1e9,
                slo_p99_ms: 1e9,
            },
            db: db(),
            advisor: AutoIndex::new(AutoIndexConfig::default(), PanickingEstimator),
            queries: Arc::new(drifting_stream()),
        };
        serve_fleet(vec![tenant], cfg)
    });
}
