//! AutoIndex core: the paper's contribution.
//!
//! * [`templates`] — `SQL2Template` (§IV-A step 1, §IV-C): maps the query
//!   stream onto a bounded set of templates with frequency counters,
//!   LRU/LFU eviction and decay-based workload-shift handling.
//! * [`candgen`] — template-based candidate index generation (§IV-A
//!   steps 2–3): expression extraction (filter / join / GROUP-ORDER),
//!   DNF-driven composite candidates, selectivity thresholding, leftmost-
//!   prefix merging and existing-index subtraction.
//! * [`mcts`] — the policy tree and MCTS-based index update (§IV-B):
//!   UCB-guided exploration over add/remove actions under a storage
//!   budget, with random-descendant rollouts and incremental tree reuse.
//! * [`delta`] — the decomposed delta-cost evaluation engine: splits
//!   workload cost into per-template terms memoized by (template,
//!   projected configuration) so sibling configurations in the policy
//!   tree share almost all what-if work (see `docs/PERFORMANCE.md`).
//! * `greedy` — the Greedy baseline of §VI-A behind
//!   [`strategy::GreedyStrategy`]: per-candidate standalone benefit
//!   ranking, top-k until the budget is exhausted, no removal.
//! * [`strategy`] — the pluggable `TuningStrategy` trait, the
//!   [`strategy::StrategyKind`] selector and the round every strategy is
//!   handed: greedy, MCTS and the bandit all answer the same
//!   `propose`/`observe_reward` contract and price through the round's one
//!   [`delta::DeltaPricer`], so sessions, the online loop and the fleet
//!   pick strategies by name.
//! * [`bandit`] — the C²UCB-style linear contextual bandit strategy
//!   (DBA-bandits): candidate indexes become arms with estimator-prior
//!   context features, measured post-apply latency is the reward, and
//!   per-arm confidence bounds drive safe exploration; plus the
//!   [`bandit::RegretAccounter`] scoring rounds against a frozen
//!   hindsight-oracle configuration.
//! * [`diagnosis`] — the Index Diagnosis module (§III): classifies indexes
//!   into beneficial-but-missing / rarely-used / negative and fires an
//!   index-tuning request when their ratio crosses a threshold.
//! * [`system`] — the [`system::AutoIndex`] driver gluing everything
//!   together: observe queries → diagnose → generate candidates → search →
//!   apply DDL, incrementally, round after round.
//! * [`online`] — the §III control loop: wraps a database and an advisor
//!   so that executing the query stream automatically diagnoses and tunes.
//! * [`guard`] — the guarded-apply pipeline (`docs/ROBUSTNESS.md`): shadow
//!   admission of recommendations, pre-apply snapshots, fault-safe DDL
//!   with retries, probation over measured latency, automatic rollback,
//!   exponential cooldown and observe-only degradation.
//! * [`session`] — the unified [`session::TuningSession`] builder that
//!   replaces the historical `tune`/`recommend`/`apply_recommendation`
//!   entry points.
//! * [`engine`] — the epoch engine under the serving loop
//!   (`docs/SERVING.md`): executor threads drain per-tenant slices from
//!   one task queue, each task carrying the epoch-versioned snapshot it
//!   runs against; the calling thread collects exactly
//!   one observation per sequence slot, merged on `(tenant, seq)`, behind
//!   one panic fence — so every boundary decision is worker-count invariant
//!   and neither a worker nor a coordinator panic can hang a run.
//! * [`mod@serve`] — concurrent serving: one epoch loop over the engine
//!   with three boundary policies as plain values — admission (admit /
//!   defer / shed), SLO accounting, tuner pick. [`serve::serve`] is its
//!   one-tenant adapter (diagnose at every boundary, then cooldown, then a
//!   [`session::TuningSession`]); [`serve::serve_fleet`] multiplexes many
//!   tenants (SLO-driven admission, the highest-regret tenant tuned). One
//!   report, rendered as either driver's worker-count-invariant transcript.
//! * [`error`] — [`error::AutoIndexError`], the crate-wide error type.

#![forbid(unsafe_code)]

pub mod bandit;
pub mod candgen;
pub mod delta;
pub mod diagnosis;
pub mod engine;
pub mod error;
pub mod fastpath;
mod greedy;
pub mod guard;
pub mod mcts;
pub mod online;
pub mod serve;
pub mod session;
pub mod strategy;
pub mod system;
pub mod templates;

pub use bandit::{ArmChoice, BanditConfig, BanditStrategy, RegretAccounter};
pub use candgen::{CandidateConfig, CandidateGenerator, CandidateStats};
pub use delta::{DeltaPricer, DeltaTerm, DeltaWorkload};
pub use diagnosis::{DiagnosisConfig, DiagnosisReport, IndexDiagnosis};
pub use engine::{logical_merge, Observation, ObservationPayload};
pub use error::AutoIndexError;
pub use fastpath::{CompiledTemplate, FastPathCache};
pub use guard::{
    ApplyVerdict, Guard, GuardConfig, GuardEvent, GuardPhase, IndexSnapshot, RollbackReason,
};
pub use mcts::{MctsConfig, MctsSearch, PolicyTree, SearchOutcome};
pub use online::{FeedOutcome, OnlineAutoIndex, OnlineConfig, OnlineEvent};
pub use serve::{
    serve, serve_fleet, Admission, EpochRecord, FleetConfig, FleetOutcome, FleetTenant,
    FleetTenantOutcome, ServeConfig, ServeOutcome, ServeReport, TenantReport, TenantSpec,
};
pub use session::{SessionReport, TuningSession};
pub use strategy::{GreedyStrategy, MctsStrategy, RewardObservation, StrategyKind};
pub use system::{AutoIndex, AutoIndexConfig, Recommendation, TuningReport};
pub use templates::{TemplateEntry, TemplateStore, TemplateStoreConfig};
