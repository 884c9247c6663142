//! Deterministic fault injection for [`SimDb`](crate::SimDb).
//!
//! The paper's deployment story (§III, §VI) — and the production systems
//! that inspired this PR's guard pipeline (AIM at Meta, DBA bandits) —
//! lives or dies by how the tuner behaves when the database *misbehaves*:
//! index builds that fail or crawl, latency spikes unrelated to the index
//! set, statistics that go stale mid-window, and transient execution
//! errors. A [`FaultPlan`] injects exactly those five fault classes into a
//! `SimDb`, deterministically:
//!
//! | fault | surface | effect |
//! |---|---|---|
//! | [`FaultKind::FailedBuild`] | `create_index` | DDL returns `Err(StorageError::FaultInjected)` |
//! | [`FaultKind::SlowBuild`] | `create_index` | build succeeds but charges 8× build time |
//! | [`FaultKind::LatencySpike`] | `execute*` | measured latency multiplied by 12 |
//! | [`FaultKind::TransientError`] | `try_execute_shape` | call fails; infallible wrappers retry and absorb |
//! | [`FaultKind::StaleStatistics`] | `whatif_*` | what-if cost features distorted for a whole op window |
//!
//! Determinism has two regimes, matching the two `SimDb` access patterns:
//!
//! * **`&mut self` paths** (execution, DDL) draw from a dedicated
//!   [`StdRng`] stream seeded from [`FaultPlanConfig::seed`] — completely
//!   independent of the measurement-noise stream, so installing a fault
//!   plan never perturbs the no-fault latency sequence.
//! * **`&self` paths** (what-if costing, which a tuning round and a
//!   diagnosis call through a shared reference, on the one thread that
//!   runs them) use an atomic op counter hashed with [`derive_seed`]:
//!   each call's outcome is a pure function of `(seed, op_index)` — the
//!   what-if call *sequence* decides which call a fault lands on — and no
//!   mutex sits on the planner hot path.
//!
//! A plan with every rate at zero (the default) is exactly the pre-fault
//! database: every roll is branchless-false and the op counter is the only
//! state touched.

use autoindex_support::rng::{derive_seed, StdRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// The taxonomy of injectable faults (see `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `CREATE INDEX` fails outright (out of disk, lock timeout, crash).
    FailedBuild,
    /// `CREATE INDEX` succeeds but takes 8× longer.
    SlowBuild,
    /// One execution's measured latency is multiplied by a spike factor
    /// (checkpoint stall, noisy neighbour, cache eviction storm).
    LatencySpike,
    /// A window of what-if calls is priced against stale statistics: cost
    /// features are multiplicatively distorted, so the estimator (and
    /// everything above it) misjudges candidate configurations.
    StaleStatistics,
    /// A statement fails transiently and must be retried by the caller.
    TransientError,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::FailedBuild => "failed index build",
            FaultKind::SlowBuild => "slow index build",
            FaultKind::LatencySpike => "latency spike",
            FaultKind::StaleStatistics => "stale statistics",
            FaultKind::TransientError => "transient execution error",
        };
        f.write_str(s)
    }
}

/// Per-fault-class rates and magnitudes. All rates are probabilities in
/// `[0, 1]`; a rate of `0` disables the class entirely.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed for both the `&mut` RNG stream and the `&self` hash stream.
    pub seed: u64,
    /// P(a `create_index` call fails outright).
    pub build_failure: f64,
    /// P(a successful build is slow).
    pub slow_build: f64,
    /// P(one execution's latency spikes).
    pub latency_spike: f64,
    /// P(an execution fails transiently).
    pub transient_error: f64,
    /// P(a what-if window is priced against stale statistics).
    pub stale_stats: f64,
    /// What-if ops per stale-roll window.
    pub stale_window: u64,
}

impl Default for FaultPlanConfig {
    /// The all-quiet plan: every rate zero (no faults ever fire).
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0xFA_17,
            build_failure: 0.0,
            slow_build: 0.0,
            latency_spike: 0.0,
            transient_error: 0.0,
            stale_stats: 0.0,
            stale_window: 512,
        }
    }
}

impl FaultPlanConfig {
    /// Whether any class can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.build_failure <= 0.0
            && self.slow_build <= 0.0
            && self.latency_spike <= 0.0
            && self.transient_error <= 0.0
            && self.stale_stats <= 0.0
    }
}

/// Outcome of a fault roll on the execution path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRoll {
    /// The statement fails transiently (retryable).
    pub transient: bool,
    /// Latency multiplier (`1.0` when no spike fired).
    pub latency_factor: f64,
}

/// Outcome of a fault roll on the DDL (index build) path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildRoll {
    /// The build fails outright.
    pub failed: bool,
    /// Build-time multiplier (`1.0` when the build is healthy).
    pub build_factor: f64,
}

/// A deterministic, seeded fault schedule consulted by [`SimDb`].
///
/// [`SimDb`]: crate::SimDb
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    /// RNG for the `&mut self` database paths (execution, DDL).
    rng: StdRng,
    /// Op counter for the shared what-if path; each op's outcome is a pure
    /// function of `(seed, op)`.
    whatif_ops: AtomicU64,
}

impl FaultPlan {
    /// Build a plan from a configuration.
    pub fn new(config: FaultPlanConfig) -> Self {
        let rng = StdRng::seed_from_u64(derive_seed(config.seed, 0x0DD5));
        FaultPlan {
            config,
            rng,
            whatif_ops: AtomicU64::new(0),
        }
    }

    /// The all-quiet plan (no fault ever fires); behaviourally identical
    /// to running without a plan installed.
    pub fn none() -> Self {
        FaultPlan::new(FaultPlanConfig::default())
    }

    /// The configuration this plan rolls against.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// Whether any fault class can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.config.is_quiet()
    }

    /// Latency multiplier for spiked executions.
    const LATENCY_SPIKE_FACTOR: f64 = 12.0;

    /// Roll the execution-path faults for one statement.
    pub fn roll_execute(&mut self) -> ExecRoll {
        if self.config.is_quiet() {
            return ExecRoll {
                transient: false,
                latency_factor: 1.0,
            };
        }
        let transient =
            self.config.transient_error > 0.0 && self.rng.random_bool(self.config.transient_error);
        let latency_factor = if !transient
            && self.config.latency_spike > 0.0
            && self.rng.random_bool(self.config.latency_spike)
        {
            Self::LATENCY_SPIKE_FACTOR
        } else {
            1.0
        };
        ExecRoll {
            transient,
            latency_factor,
        }
    }

    /// Build-time multiplier for slow builds.
    const SLOW_BUILD_FACTOR: f64 = 8.0;

    /// Roll the DDL-path faults for one `create_index`.
    pub fn roll_build(&mut self) -> BuildRoll {
        if self.config.is_quiet() {
            return BuildRoll {
                failed: false,
                build_factor: 1.0,
            };
        }
        let failed =
            self.config.build_failure > 0.0 && self.rng.random_bool(self.config.build_failure);
        let build_factor = if !failed
            && self.config.slow_build > 0.0
            && self.rng.random_bool(self.config.slow_build)
        {
            Self::SLOW_BUILD_FACTOR
        } else {
            1.0
        };
        BuildRoll {
            failed,
            build_factor,
        }
    }

    /// Maximum log-scale distortion of stale what-if costs: each call in a
    /// stale window is scaled by `exp(u · STALE_DISTORTION)` with
    /// `u ∈ [-1, 1)` hashed per call.
    const STALE_DISTORTION: f64 = 0.8;

    /// Roll the shared what-if-path faults for one probe: the
    /// multiplicative cost-feature distortion, `1.0` outside stale windows.
    /// Lock-free: the outcome is a pure function of `(seed, op_index)`.
    pub fn roll_whatif(&self) -> f64 {
        let op = self.whatif_ops.fetch_add(1, Ordering::Relaxed);
        if self.config.is_quiet() {
            return 1.0;
        }
        // Stale statistics are decided once per window of ops, then every
        // call in the window is distorted by its own hashed factor.
        let window = op / self.config.stale_window.max(1);
        let stale = self.config.stale_stats > 0.0
            && unit(derive_seed(self.config.seed ^ 0x57A1_E57A, window)) < self.config.stale_stats;
        if stale {
            let u = 2.0 * unit(derive_seed(self.config.seed ^ 0xD157_0127, op)) - 1.0;
            (u * Self::STALE_DISTORTION).exp()
        } else {
            1.0
        }
    }

    /// What-if probes rolled so far (monotone; includes quiet rolls).
    pub fn whatif_ops(&self) -> u64 {
        self.whatif_ops.load(Ordering::Relaxed)
    }
}

/// Map a hash to a uniform `f64` in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let mut p = FaultPlan::none();
        for _ in 0..1_000 {
            assert_eq!(
                p.roll_execute(),
                ExecRoll {
                    transient: false,
                    latency_factor: 1.0
                }
            );
            assert_eq!(
                p.roll_build(),
                BuildRoll {
                    failed: false,
                    build_factor: 1.0
                }
            );
            assert_eq!(p.roll_whatif(), 1.0);
        }
        assert!(p.is_quiet());
        let reseeded = FaultPlanConfig {
            seed: 1,
            ..FaultPlanConfig::default()
        };
        assert!(reseeded.is_quiet());
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut p = FaultPlan::new(FaultPlanConfig {
            seed: 9,
            transient_error: 0.2,
            latency_spike: 0.3,
            build_failure: 0.25,
            ..FaultPlanConfig::default()
        });
        let n = 20_000;
        let mut transients = 0;
        let mut spikes = 0;
        let mut fails = 0;
        for _ in 0..n {
            let e = p.roll_execute();
            transients += e.transient as u32;
            spikes += (e.latency_factor > 1.0) as u32;
            fails += p.roll_build().failed as u32;
        }
        assert!(!p.is_quiet());
        let frac = |c: u32| c as f64 / n as f64;
        assert!((frac(transients) - 0.2).abs() < 0.02, "{transients}");
        // Spikes only roll when no transient fired: ~0.8 * 0.3.
        assert!((frac(spikes) - 0.24).abs() < 0.02, "{spikes}");
        assert!((frac(fails) - 0.25).abs() < 0.02, "{fails}");
    }

    #[test]
    fn whatif_rolls_are_deterministic_per_op_index() {
        let mk = || {
            FaultPlan::new(FaultPlanConfig {
                seed: 41,
                stale_stats: 0.5,
                stale_window: 16,
                ..FaultPlanConfig::default()
            })
        };
        let a = mk();
        let b = mk();
        let ra: Vec<f64> = (0..500).map(|_| a.roll_whatif()).collect();
        let rb: Vec<f64> = (0..500).map(|_| b.roll_whatif()).collect();
        assert_eq!(ra, rb, "same seed, same op order ⇒ same outcomes");
        assert!(ra.iter().any(|&d| d != 1.0), "stale windows fire");
    }

    #[test]
    fn stale_windows_are_contiguous() {
        let p = FaultPlan::new(FaultPlanConfig {
            seed: 3,
            stale_stats: 0.5,
            stale_window: 32,
            ..FaultPlanConfig::default()
        });
        // Within one window either every op is distorted or none is.
        let rolls: Vec<f64> = (0..320).map(|_| p.roll_whatif()).collect();
        for w in rolls.chunks(32) {
            let stale: Vec<bool> = w.iter().map(|&d| d != 1.0).collect();
            assert!(
                stale.iter().all(|&s| s) || stale.iter().all(|&s| !s),
                "window mixes stale and fresh ops: {stale:?}"
            );
        }
        assert!(rolls.iter().any(|&d| d != 1.0));
        assert!(rolls.contains(&1.0));
    }

    #[test]
    fn fault_kinds_display() {
        for k in [
            FaultKind::FailedBuild,
            FaultKind::SlowBuild,
            FaultKind::LatencySpike,
            FaultKind::StaleStatistics,
            FaultKind::TransientError,
        ] {
            assert!(!k.to_string().is_empty());
        }
    }
}
