//! # autoindex-support
//!
//! Zero-dependency substrate for the AutoIndex workspace.
//!
//! The build environment for this repository is **hermetic**: crates.io is
//! unreachable, so nothing outside the standard library may be linked. This
//! crate replaces the four external dependencies the workspace previously
//! relied on with small, deterministic, in-repo equivalents:
//!
//! | module | replaces | provides |
//! |--------|----------|----------|
//! | [`rng`]   | `rand`       | SplitMix64-seeded xoshiro256** PRNG with `random_range`, `random_bool`, Gaussian sampling, `shuffle` |
//! | [`json`]  | `serde_json` | a JSON value type, recursive-descent parser and serializer, format-compatible with the files `serde_json` wrote |
//! | [`prop`]  | `proptest`   | a seeded property-testing harness with size ramping, shrinking-lite and failure-seed replay |
//! | [`obs`]   | `metrics`/`prometheus` | named counters, gauges and timers behind a [`obs::MetricsRegistry`] with a deterministic JSON snapshot |
//!
//! Everything here is deterministic given a seed — the precondition for the
//! replayable experiments the benches record.
//!
//! ## PRNG
//!
//! [`rng::StdRng`] mirrors the subset of the `rand` 0.9 surface the
//! workspace uses, so swapping a crate onto it is an import change:
//!
//! ```
//! use autoindex_support::rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die = rng.random_range(1..=6u32);        // unbiased via Lemire rejection
//! assert!((1..=6).contains(&die));
//! let _coin = rng.random_bool(0.5);            // Bernoulli
//! let unit: f64 = rng.random();                // [0, 1) with 53 bits
//! assert!((0.0..1.0).contains(&unit));
//! let gauss = rng.normal_with(10.0, 2.0);      // Box–Muller
//! assert!(gauss.is_finite());
//! let mut v = vec![1, 2, 3, 4];
//! rng.shuffle(&mut v);                         // Fisher–Yates
//! // Same seed ⇒ same stream:
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```
//!
//! ## JSON
//!
//! [`json::Json`] is a plain value enum with a parser and a serializer. The
//! serializer writes the same shapes `serde_json` derives produced (maps as
//! objects, `Option::None` as `null`, tuples as arrays), so existing data
//! files such as `examples/data/sample_schema.json` keep loading:
//!
//! ```
//! use autoindex_support::json::Json;
//!
//! let v = Json::parse(r#"{"name": "lineitem", "rows": 6000000, "pk": ["l_orderkey"]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("lineitem"));
//! assert_eq!(v.get("rows").and_then(Json::as_f64), Some(6_000_000.0));
//! let back = v.to_string();                    // compact serialization
//! assert_eq!(Json::parse(&back).unwrap(), v);  // round-trips
//! ```
//!
//! ## Property testing
//!
//! [`prop::property`] runs a closure over a ramp of sizes with per-case
//! derived seeds. On failure it retries smaller sizes on the failing seed
//! (shrinking-lite), then persists the `(seed, size)` pair to a replay file
//! next to the test target so the exact case re-runs first on the next
//! invocation:
//!
//! ```
//! use autoindex_support::prop::{property, PropConfig};
//! use autoindex_support::{prop_assert, prop_assert_eq};
//!
//! property("addition_commutes", PropConfig::default(), |rng, _size| {
//!     let a = rng.random_range(0..1000u32);
//!     let b = rng.random_range(0..1000u32);
//!     prop_assert_eq!(a + b, b + a);
//!     prop_assert!(a + b >= a, "no wrap for small values");
//!     Ok(())
//! });
//! ```
//!
//! ## Observability
//!
//! [`obs::MetricsRegistry`] is the tuning-telemetry substrate: every
//! subsystem (simulated DB, planner, estimator, MCTS, the online loop)
//! records named counters/gauges/timers into a shared registry, and
//! `MetricsRegistry::snapshot()` exports them through the in-repo JSON
//! writer. See `docs/OBSERVABILITY.md` for the metric-name catalogue:
//!
//! ```
//! use autoindex_support::obs::MetricsRegistry;
//!
//! let m = MetricsRegistry::new();
//! m.counter("mcts.iterations").add(400);
//! let _span = m.scoped("tuning.round"); // records wall time on drop
//! let snapshot = m.snapshot();
//! assert!(snapshot.to_string().contains("\"mcts.iterations\":400"));
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod json;
pub mod obs;
pub mod prop;
pub mod rng;
