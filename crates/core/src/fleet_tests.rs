//! `serve_fleet`'s unit tests. They kept the `fleet::tests` path of the
//! module the fleet was until PR 25; their subject is [`crate::serve`].

#[cfg(test)]
mod tests {
    use crate::serve::*;
    use crate::strategy::StrategyKind;
    use crate::system::{AutoIndex, AutoIndexConfig};
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::{SimDb, SimDbConfig};
    use autoindex_support::obs::MetricsRegistry;
    use std::sync::Arc;

    fn catalog() -> Catalog {
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
        c
    }

    fn tenant(
        name: &str,
        priority: u8,
        queries: Vec<String>,
        seed: u64,
    ) -> FleetTenant<NativeCostEstimator> {
        let cfg = SimDbConfig {
            seed,
            ..Default::default()
        };
        FleetTenant {
            spec: TenantSpec {
                name: name.to_string(),
                priority,
                slo_p50_ms: 1e9,
                slo_p99_ms: 1e9,
            },
            db: SimDb::with_metrics(catalog(), cfg, MetricsRegistry::new()),
            advisor: AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            queries: Arc::new(queries),
        }
    }

    fn point_lookups(n: usize, salt: u64) -> Vec<String> {
        (0..n)
            .map(|i| format!("SELECT * FROM t WHERE a = {}", i as u64 + salt))
            .collect()
    }

    fn scans(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "SELECT b, COUNT(*) FROM t WHERE b > {} GROUP BY b ORDER BY b",
                    i % 50
                )
            })
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(FleetConfig::builder().build().is_ok());
        assert!(FleetConfig::builder().shards(0).build().is_err());
        assert!(FleetConfig::builder().epoch_interval(0).build().is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(0.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(f64::NAN)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .assumed_stmt_cost_ms(0.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .regret_threshold(-1.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(f64::INFINITY)
            .build()
            .is_ok());
    }

    // ---- admission-control unit tests (PR8 satellite) ----

    fn cand(tenant: u32, priority: u8, est: f64) -> AdmissionCandidate {
        AdmissionCandidate {
            tenant,
            priority,
            est_cost_ms: est,
        }
    }

    #[test]
    fn admission_admits_everything_under_capacity() {
        let d = decide_admission(&[cand(0, 1, 10.0), cand(1, 2, 10.0)], 100.0, 1);
        assert!(d.iter().all(|x| x.admission == Admission::Admit));
        // Evaluation order: priority desc, tenant asc.
        assert_eq!(d[0].tenant, 1);
        assert_eq!(d[1].tenant, 0);
    }

    #[test]
    fn admission_head_bid_always_admitted() {
        // Even a bid larger than the whole capacity is admitted at the
        // head — the progress guarantee.
        let d = decide_admission(&[cand(3, 0, 500.0)], 10.0, 1);
        assert_eq!(d[0].admission, Admission::Admit);
    }

    #[test]
    fn saturated_pool_sheds_only_below_floor_priorities() {
        // Capacity fits exactly the two high-priority bids.
        let c = vec![
            cand(0, 0, 10.0), // below floor → shed on overflow
            cand(1, 2, 10.0),
            cand(2, 2, 10.0),
            cand(3, 1, 10.0), // at floor → deferred on overflow
        ];
        let d = decide_admission(&c, 20.0, 1);
        let by_tenant = |t: u32| d.iter().find(|x| x.tenant == t).unwrap().admission;
        assert_eq!(by_tenant(1), Admission::Admit);
        assert_eq!(by_tenant(2), Admission::Admit);
        assert_eq!(by_tenant(3), Admission::Defer, "at/above floor defers");
        assert_eq!(by_tenant(0), Admission::Shed, "below floor sheds");
    }

    #[test]
    fn admission_is_deterministic() {
        let c = vec![cand(2, 1, 7.0), cand(0, 1, 7.0), cand(1, 3, 7.0)];
        let a = decide_admission(&c, 14.0, 1);
        let b = decide_admission(&c, 14.0, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.admission, y.admission);
        }
        // Equal priorities tie-break on tenant id: 1 (prio 3) first, then
        // 0 and 2 in id order.
        assert_eq!(a[0].tenant, 1);
        assert_eq!(a[1].tenant, 0);
        assert_eq!(a[2].tenant, 2);
    }

    // ---- end-to-end fleet tests ----

    #[test]
    fn unconstrained_fleet_executes_everything() {
        let tenants = vec![
            tenant("a", 2, point_lookups(300, 0), 1),
            tenant("b", 1, point_lookups(300, 7_000), 2),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        assert_eq!(out.report.executed, 600);
        assert_eq!(out.report.shed, 0);
        assert_eq!(out.report.deferred_slices, 0);
        assert_eq!(out.report.epochs.len(), 3);
        assert_eq!(out.metrics.counter_value("serve.executed"), 600);
        assert!(out.report.makespan_ms() > 0.0);
        assert!(out.report.simulated_qps() > 0.0);
        for t in &out.report.tenant_reports {
            assert_eq!(t.executed, 300);
            assert_eq!(t.slices.len(), 3);
            assert!(t.slices.iter().all(|s| s.admission == Admission::Admit));
        }
    }

    #[test]
    fn saturated_fleet_sheds_low_priority_and_slo_counters_match_shed_counts() {
        // Three tenants: one shed-eligible (prio 0), two protected. A
        // capacity that fits roughly two slices forces overflow every
        // epoch while all three still bid.
        let tenants = vec![
            tenant("victim", 0, point_lookups(400, 0), 1),
            tenant("gold", 2, point_lookups(400, 50_000), 2),
            tenant("silver", 1, point_lookups(400, 90_000), 3),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            // Point lookups cost ≲ tens of simulated ms per statement
            // here; two 100-statement slices fit, three do not.
            .epoch_capacity_ms(2_500.0)
            .assumed_stmt_cost_ms(10.0)
            .shed_floor_priority(1)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        let victim = &out.report.tenant_reports[0];
        let gold = &out.report.tenant_reports[1];
        let silver = &out.report.tenant_reports[2];
        assert!(victim.shed > 0, "prio-0 tenant sheds under saturation");
        assert_eq!(gold.shed, 0, "protected tenant never shed");
        assert_eq!(silver.shed, 0, "protected tenant never shed");
        // Every statement is accounted exactly once: executed or shed.
        assert_eq!(victim.executed + victim.shed, 400);
        assert_eq!(gold.executed, 400);
        assert_eq!(silver.executed + silver.shed, 400);
        // SLOs here are effectively infinite, so the only violations are
        // shed slices — the counters must match exactly.
        assert_eq!(
            out.metrics.counter_value("serve.slo_violations"),
            out.metrics.counter_value("serve.admission.shed_slices"),
        );
        assert_eq!(
            out.report.slo_violations, out.report.shed_slices,
            "report mirrors the metric"
        );
        assert!(out.report.saturated_epochs > 0);
        assert!(out.metrics.gauge_value("serve.admission.capacity_ms") > 0.0);
    }

    #[test]
    fn backpressure_releases_deterministically() {
        // The deferred tenant finishes after the high-priority stream
        // drains, and the whole run is transcript-deterministic.
        let mk = || {
            vec![
                tenant("big", 2, point_lookups(300, 0), 1),
                tenant("patient", 1, point_lookups(200, 40_000), 2),
            ]
        };
        let cfg = |workers: usize| {
            FleetConfig::builder()
                .workers(workers)
                .epoch_interval(100)
                .epoch_capacity_ms(1_500.0)
                .assumed_stmt_cost_ms(10.0)
                .shed_floor_priority(1)
                .build()
                .unwrap()
        };
        let a = serve_fleet(mk(), cfg(1)).unwrap();
        let b = serve_fleet(mk(), cfg(3)).unwrap();
        let patient = &a.report.tenant_reports[1];
        assert!(patient.deferrals > 0, "low-priority tenant was deferred");
        assert_eq!(patient.executed, 200, "deferral is backpressure, not loss");
        assert_eq!(patient.shed, 0, "at-floor tenant is never shed");
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "deferral/release schedule is worker-count invariant"
        );
        assert_eq!(
            a.metrics.counter_value("serve.admission.deferred_slices"),
            b.metrics.counter_value("serve.admission.deferred_slices"),
        );
    }

    #[test]
    fn fleet_transcripts_are_worker_count_invariant() {
        let mk = || {
            vec![
                tenant("a", 2, point_lookups(250, 0), 1),
                tenant("b", 1, point_lookups(250, 30_000), 2),
                tenant("c", 0, scans(250), 3),
            ]
        };
        let run = |workers: usize| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(64)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.report.transcript(), four.report.transcript());
        for (a, b) in one
            .report
            .tenant_reports
            .iter()
            .zip(&four.report.tenant_reports)
        {
            assert_eq!(a.transcript(), b.transcript(), "tenant {}", a.name);
        }
        assert_eq!(
            one.report.transcript_digest(),
            four.report.transcript_digest()
        );
        // The physical schedule may differ (which worker pops is racy) but the
        // simulated makespan is a pure function of (streams, workers).
        let eight = run(4);
        assert_eq!(
            four.report.sim_makespan_ms.to_bits(),
            eight.report.sim_makespan_ms.to_bits()
        );
    }

    #[test]
    fn regret_directed_tuner_visits_the_drifting_tenant() {
        // Tenant "drift" switches from cheap point lookups to expensive
        // scans half-way: its slice mean rises above its frozen baseline
        // and the fleet slot must visit it.
        let mut stream = point_lookups(300, 0);
        stream.extend(scans(300));
        let tenants = vec![
            tenant("steady", 1, point_lookups(600, 70_000), 1),
            tenant("drift", 1, stream, 2),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .regret_threshold(0.10)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        let drift = &out.report.tenant_reports[1];
        assert!(
            drift.tuning_visits >= 1,
            "drifting tenant visited: {}",
            out.report.transcript()
        );
        assert!(out
            .report
            .epochs
            .iter()
            .any(|e| e.visit.contains("tenant=drift")));
        assert_eq!(
            out.metrics.counter_value("serve.tuning_visits"),
            out.report.tuning_visits
        );
    }

    #[test]
    fn bandit_tuner_override_attributes_visits_and_stays_invariant() {
        // With `tuner_strategy = Some(Bandit)` the drifting tenant's
        // visits are bandit-driven, attributed in the decision string,
        // and the transcript stays worker-count invariant; with the
        // override off nothing about the transcript changes vs PR8.
        let mk = || {
            let mut stream = point_lookups(300, 0);
            stream.extend(scans(300));
            vec![
                tenant("steady", 1, point_lookups(600, 70_000), 1),
                tenant("drift", 1, stream, 2),
            ]
        };
        let run = |workers: usize, strat: Option<StrategyKind>| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(100)
                .regret_threshold(0.10)
                .tuner_strategy(strat)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let a = run(1, Some(StrategyKind::Bandit));
        let b = run(3, Some(StrategyKind::Bandit));
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "bandit visits are worker-count invariant"
        );
        assert!(
            a.report
                .epochs
                .iter()
                .any(|e| e.visit.contains("strategy=bandit")),
            "visits carry strategy attribution: {}",
            a.report.transcript()
        );
        let plain = run(1, None);
        assert!(
            plain
                .report
                .epochs
                .iter()
                .all(|e| !e.visit.contains("strategy=")),
            "no attribution without the override"
        );
    }

    #[test]
    fn injected_worker_panics_retire_workers_but_complete_the_stream() {
        let mk = || vec![tenant("a", 1, point_lookups(200, 0), 1)];
        let run = |workers: usize| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(50)
                .panic_on(vec![(0, 10), (0, 60), (0, 110)])
                .max_worker_panics(0)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let a = run(1);
        assert_eq!(a.report.panics, 3);
        assert_eq!(a.report.executed, 197);
        assert!(a.report.workers_retired >= 1);
        let b = run(3);
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "seq-keyed crashes reproduce at any worker count"
        );
    }

    #[test]
    fn empty_fleet_is_fine() {
        let out = serve_fleet(
            Vec::<FleetTenant<NativeCostEstimator>>::new(),
            FleetConfig::default(),
        )
        .unwrap();
        assert_eq!(out.report.executed, 0);
        assert!(out.report.epochs.is_empty());
        assert_eq!(out.report.simulated_qps(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 51.0); // round(99*0.5)=50 → v[50]
        assert_eq!(percentile(&v, 0.99), 99.0); // round(99*0.99)=98 → v[98]
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Duplicates, sorted the way a slice's latencies are: ties keep
        // their rank, whichever of the equal values lands there.
        let mut dup = vec![2.0, 9.0, 2.0, 0.5, 2.0, 9.0, 0.5, 2.0];
        dup.sort_unstable_by(f64::total_cmp);
        assert_eq!(dup, vec![0.5, 0.5, 2.0, 2.0, 2.0, 2.0, 9.0, 9.0]);
        assert_eq!(percentile(&dup, 0.50), 2.0); // round(7*0.5)=4 → dup[4]
        assert_eq!(percentile(&dup, 0.99), 9.0); // round(7*0.99)=7 → dup[7]
    }
}
