//! C²UCB-style linear contextual bandit over candidate index arms, plus
//! the regret accounter (PR 9 tentpole; DBA-bandits, Perera et al. in
//! PAPERS.md).
//!
//! The estimator-driven strategies (greedy, MCTS) trust the what-if cost
//! model completely; the guard then cleans up after its mistakes with
//! measured-latency probation and rollback. The bandit closes that loop
//! *before* applying instead:
//!
//! * every candidate index is an **arm** with a context feature vector
//!   `x ∈ ℝ⁶` built from the existing estimator and catalog terms — the
//!   estimated standalone benefit is the informative prior, leading-column
//!   distinctness and size come from the catalog's statistics and what-if
//!   sizing, and the read/write weight mix of the arm's table comes from
//!   the template workload;
//! * a single **shared linear model** `θ = V⁻¹ b` (ridge regression,
//!   `V = λI + Σ x xᵀ`, `b = Σ r·x`) maps features to expected reward,
//!   where the reward `r` is the *measured* relative latency improvement
//!   fed back by `BanditStrategy::observe_reward` — the SimDb's
//!   post-apply mean, not an estimate;
//! * per-arm **upper confidence bounds** `θᵀx + α·√(xᵀV⁻¹x)` drive safe
//!   exploration: uncertain arms get a bounded optimism bonus that
//!   shrinks as `V` accumulates evidence, so exploration is front-loaded
//!   and provably tapers — the C²UCB recipe;
//! * the **super-arm** is the greedy knapsack over UCB scores under the
//!   storage budget (combinatorial selection, hence the C²);
//! * the bandit only ever drops indexes *it created* that fell out of
//!   the selected super-arm — DBA-provided indexes are left alone, so a
//!   misbehaving model cannot strip a hand-tuned baseline.
//!
//! Everything is deterministic: no randomness, stable tie-breaks (arm
//! key order), fixed-order float accumulation. Same seed + workload →
//! byte-identical arm sequences, which the drift benches exact-gate.
//!
//! Obs-layer surface: `tuner.bandit.*` (rounds, arms considered/selected,
//! max UCB, last reward) and, via [`RegretAccounter`], `tuner.regret.*`
//! (rounds, per-round and cumulative regret vs a frozen hindsight
//! oracle). Rows are documented in `docs/OBSERVABILITY.md`.

use crate::error::{invalid, AutoIndexError};
use crate::greedy;
use crate::strategy::{
    is_primary_key_index, Proposal, RewardObservation, Round, SharedWorkload, TuningStrategy,
};
use crate::system::Recommendation;
use autoindex_estimator::CostEstimator;
use autoindex_storage::catalog::Catalog;
use autoindex_storage::index::IndexDef;
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Context-feature dimension: bias, benefit prior, distinctness, size,
/// read weight, write weight.
const NFEAT: usize = 6;

// ------------------------------------------------------------- config

/// Bandit parameters. Checked by [`BanditConfig::validate`]
/// (PR4 convention: reject, don't clamp).
#[derive(Debug, Clone)]
pub struct BanditConfig {
    /// Cap on candidate arms considered per round (top arms by the
    /// estimator prior; deterministic tie-break on the index key).
    /// Must be `> 0`.
    pub max_arms: usize,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig { max_arms: 48 }
    }
}

impl BanditConfig {
    /// Check every field.
    pub fn validate(&self) -> Result<(), AutoIndexError> {
        if self.max_arms == 0 {
            return Err(invalid("bandit.max_arms", "must be >= 1"));
        }
        Ok(())
    }
}

// ------------------------------------------------------------- model

/// The shared ridge-regression state: `V` (feature outer-product sum
/// plus `λI`) and `b` (reward-weighted feature sum).
#[derive(Debug, Clone)]
struct LinModel {
    v: [[f64; NFEAT]; NFEAT],
    b: [f64; NFEAT],
}

/// Ridge regularizer `λ` of `V = λI + Σ x xᵀ`: the prior that keeps `V`
/// invertible before any reward.
const RIDGE: f64 = 1.0;

impl LinModel {
    fn new() -> Self {
        let mut v = [[0.0; NFEAT]; NFEAT];
        for (i, row) in v.iter_mut().enumerate() {
            row[i] = RIDGE;
        }
        LinModel { v, b: [0.0; NFEAT] }
    }

    fn update(&mut self, x: &[f64; NFEAT], reward: f64) {
        for i in 0..NFEAT {
            for j in 0..NFEAT {
                self.v[i][j] += x[i] * x[j];
            }
            self.b[i] += reward * x[i];
        }
    }

    /// `V⁻¹` by Gauss-Jordan with partial pivoting. `V` is symmetric
    /// positive definite (λI plus outer products), so this never
    /// encounters a zero pivot; the branch order is deterministic.
    fn inverse(&self) -> [[f64; NFEAT]; NFEAT] {
        let mut a = self.v;
        let mut inv = [[0.0; NFEAT]; NFEAT];
        for (i, row) in inv.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for col in 0..NFEAT {
            let mut pivot = col;
            for r in (col + 1)..NFEAT {
                if a[r][col].abs() > a[pivot][col].abs() {
                    pivot = r;
                }
            }
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let p = a[col][col];
            for j in 0..NFEAT {
                a[col][j] /= p;
                inv[col][j] /= p;
            }
            for r in 0..NFEAT {
                if r == col {
                    continue;
                }
                let f = a[r][col];
                if f == 0.0 {
                    continue;
                }
                for j in 0..NFEAT {
                    a[r][j] -= f * a[col][j];
                    inv[r][j] -= f * inv[col][j];
                }
            }
        }
        inv
    }

    /// `θ = V⁻¹ b` and the quadratic form helper.
    fn theta(&self, vinv: &[[f64; NFEAT]; NFEAT]) -> [f64; NFEAT] {
        let mut t = [0.0; NFEAT];
        for (ti, row) in t.iter_mut().zip(vinv.iter()) {
            for (vij, bj) in row.iter().zip(self.b.iter()) {
                *ti += vij * bj;
            }
        }
        t
    }
}

fn dot(a: &[f64; NFEAT], b: &[f64; NFEAT]) -> f64 {
    let mut s = 0.0;
    for i in 0..NFEAT {
        s += a[i] * b[i];
    }
    s
}

fn quad_form(vinv: &[[f64; NFEAT]; NFEAT], x: &[f64; NFEAT]) -> f64 {
    let mut s = 0.0;
    for i in 0..NFEAT {
        let mut row = 0.0;
        for j in 0..NFEAT {
            row += vinv[i][j] * x[j];
        }
        s += x[i] * row;
    }
    s.max(0.0)
}

// --------------------------------------------------------------- arms

/// One arm the bandit selected this round, as surfaced in
/// `SessionReport::arms` and `OnlineEvent::BanditArmApplied`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmChoice {
    /// Canonical index key, e.g. `"t(a,b)"`.
    pub key: String,
    /// The arm's upper confidence bound at selection time.
    pub ucb: f64,
    /// The model's mean reward estimate `θᵀx` (UCB minus the bonus).
    pub expected: f64,
}

/// The C²UCB strategy. One instance per advisor; the linear model and
/// the bandit-owned index set persist across rounds.
pub struct BanditStrategy {
    config: BanditConfig,
    model: LinModel,
    /// Rounds proposed so far (drives the exploration taper).
    rounds: u64,
    /// Feature vectors of the arms selected (or re-selected) by the most
    /// recent proposal, awaiting their shared reward.
    pending: Vec<[f64; NFEAT]>,
    /// Index keys the bandit itself created, mapped to their defs. Only
    /// these are ever eligible for removal — never DBA-provided indexes.
    owned: BTreeMap<String, Arc<IndexDef>>,
    /// Mean latency observed before the last apply; the next observation
    /// is scored against it.
    last_mean_ms: Option<f64>,
    /// Most recent reward (exported as a gauge next round).
    last_reward: f64,
}

/// Exploration width `α` of the confidence bound `θᵀx + α·√(xᵀV⁻¹x)`.
const ALPHA: f64 = 1.0;

/// Planning horizon in rounds; arms whose confidence interval still spans
/// zero after `HORIZON` rounds stop being explored (their optimism bonus is
/// tapered by `ln(horizon)` scaling).
const HORIZON: u64 = 64;

impl BanditStrategy {
    pub fn new(config: BanditConfig) -> Self {
        BanditStrategy {
            config,
            model: LinModel::new(),
            rounds: 0,
            pending: Vec::new(),
            owned: BTreeMap::new(),
            last_mean_ms: None,
            last_reward: 0.0,
        }
    }

    /// Rounds proposed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Exploration width after the taper: `α · √(ln(1+h)/ln(1+t))`
    /// clamped at `α` — wide early, narrowing as the round count
    /// approaches and passes the horizon.
    fn alpha_t(&self) -> f64 {
        let t = (self.rounds + 1) as f64;
        let h = (HORIZON + 1) as f64;
        (ALPHA * (h.ln() / (1.0 + t.ln()))).min(ALPHA)
    }
}

impl<E: CostEstimator> TuningStrategy<E> for BanditStrategy {
    fn observe_reward(&mut self, reward: &RewardObservation) {
        let measured = reward.measured_mean_ms;
        if !measured.is_finite() || measured < 0.0 {
            return;
        }
        if let Some(prev) = self.last_mean_ms {
            if prev > 0.0 {
                // Relative improvement, clamped to [-1, 1]: the shared
                // semi-bandit reward credited to every pending arm.
                let r = ((prev - measured) / prev).clamp(-1.0, 1.0);
                self.last_reward = r;
                for x in std::mem::take(&mut self.pending) {
                    self.model.update(&x, r);
                }
            }
        }
        self.last_mean_ms = Some(measured);
    }

    /// Bandit-owned indexes are standing arms: they stay in the pool even
    /// once built (existing-index subtraction would hide them), so an arm
    /// that stops earning can fall out of the super-arm and be dropped
    /// again.
    fn standing_arms(&self) -> Vec<Arc<IndexDef>> {
        self.owned.values().cloned().collect()
    }

    fn propose(&mut self, round: &mut Round<'_, '_, E>) -> Proposal {
        let (db, workload, existing) = (round.db, round.workload, round.existing);
        let pricer = &mut round.pricer;
        let universe = pricer.universe();
        let mut candidates = round.candidates.to_vec();
        for def in self.owned.values() {
            if !candidates.contains(def) {
                candidates.push(def.clone());
            }
        }
        let existing_set = &round.existing_set;
        if candidates.is_empty() {
            let base = pricer.sum(existing_set);
            return Proposal::noop(base, round.stats(Duration::ZERO));
        }

        let search_started = Instant::now();
        // The estimator prior: standalone benefit of each arm against the
        // configuration *without* bandit-owned indexes (so a built arm's
        // own benefit does not evaporate the round after it was created).
        let baseline: Vec<&IndexDef> = existing
            .iter()
            .map(Arc::as_ref)
            .filter(|d| !self.owned.contains_key(&d.key()))
            .collect();
        let baseline_set = universe.config_of(baseline.iter().copied());
        let (base_cost, priced) = greedy::standalone(pricer, &candidates, &baseline_set);
        let (read_w, write_w, total_w) = table_weights(workload);

        struct Arm {
            def: Arc<IndexDef>,
            key: String,
            x: [f64; NFEAT],
            size: u64,
        }
        let mut arms: Vec<Arm> = priced
            .into_iter()
            .map(|c| {
                let benefit = (c.benefit / base_cost.max(1e-12)).clamp(0.0, 1.0);
                let x = features(
                    &c.def,
                    benefit,
                    c.size,
                    db.catalog(),
                    &read_w,
                    &write_w,
                    total_w,
                );
                Arm {
                    key: c.def.key(),
                    def: c.def,
                    x,
                    size: c.size,
                }
            })
            .collect();
        // Deterministic arm cap: keep the strongest priors, tie-broken on
        // the canonical key.
        arms.sort_by(|a, b| {
            b.x[1]
                .partial_cmp(&a.x[1])
                .expect("benefit is finite")
                .then_with(|| a.key.cmp(&b.key))
        });
        arms.truncate(self.config.max_arms);
        let arms_considered = arms.len();

        // Score every arm: UCB = θᵀx + α_t·√(xᵀV⁻¹x).
        let vinv = self.model.inverse();
        let theta = self.model.theta(&vinv);
        let alpha = self.alpha_t();
        let mut scored: Vec<(f64, f64, usize)> = arms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mean = dot(&theta, &a.x);
                let bonus = alpha * quad_form(&vinv, &a.x).sqrt();
                (mean + bonus, mean, i)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("UCB is finite")
                .then_with(|| arms[a.2].key.cmp(&arms[b.2].key))
        });

        // Greedy knapsack under the storage budget: the super-arm.
        let kept_existing: u64 = baseline
            .iter()
            .filter_map(|d| db.index_size_bytes(d).ok())
            .sum();
        let mut used = kept_existing;
        let mut selected: Vec<(usize, f64, f64)> = Vec::new();
        let mut ucb_max = f64::NEG_INFINITY;
        for &(ucb, mean, i) in &scored {
            ucb_max = ucb_max.max(ucb);
            if ucb <= 0.0 {
                break; // sorted: everything after is worse
            }
            if let Some(b) = round.config.storage_budget {
                if used + arms[i].size > b {
                    continue; // knapsack skip: smaller arms may still fit
                }
            }
            used += arms[i].size;
            selected.push((i, ucb, mean));
        }

        // Diff the super-arm against reality. Additions are selected arms
        // not yet built; removals are bandit-owned indexes that fell out.
        let selected_keys: Vec<String> = selected
            .iter()
            .map(|&(i, ..)| arms[i].key.clone())
            .collect();
        let existing_keys: Vec<String> = existing.iter().map(|d| d.key()).collect();
        let mut add: Vec<IndexDef> = Vec::new();
        let mut arm_choices: Vec<ArmChoice> = Vec::new();
        self.pending.clear();
        for &(i, ucb, mean) in &selected {
            self.pending.push(arms[i].x);
            if !existing_keys.contains(&arms[i].key) {
                add.push(IndexDef::clone(&arms[i].def));
                arm_choices.push(ArmChoice {
                    key: arms[i].key.clone(),
                    ucb,
                    expected: mean,
                });
            }
        }
        let mut remove: Vec<IndexDef> = Vec::new();
        for (key, def) in &self.owned {
            if existing_keys.contains(key)
                && !selected_keys.contains(key)
                && !is_primary_key_index(db, def)
            {
                remove.push(IndexDef::clone(def));
            }
        }

        // Ownership bookkeeping assumes the apply succeeds; a failed DDL
        // leaves a stale entry that simply re-enters the arm pool.
        for d in &add {
            self.owned.insert(d.key(), Arc::new(d.clone()));
        }
        for d in &remove {
            self.owned.remove(&d.key());
        }

        let est_cost_before = pricer.sum(existing_set);
        let after = existing
            .iter()
            .map(Arc::as_ref)
            .filter(|d| !remove.contains(d))
            .chain(&add);
        let est_cost_after = pricer.sum(&universe.config_of(after));
        let search_time = search_started.elapsed();

        self.rounds += 1;
        let m = db.metrics();
        m.counter("tuner.bandit.rounds").incr();
        m.counter("tuner.bandit.arms_considered")
            .add(arms_considered as u64);
        m.counter("tuner.bandit.arms_selected")
            .add(selected.len() as u64);
        m.counter("tuner.bandit.arms_applied").add(add.len() as u64);
        m.gauge("tuner.bandit.ucb_max")
            .set(if ucb_max.is_finite() { ucb_max } else { 0.0 });
        m.gauge("tuner.bandit.last_reward").set(self.last_reward);

        Proposal {
            recommendation: Recommendation {
                add,
                remove,
                est_cost_before,
                est_cost_after,
            },
            stats: round.stats(search_time),
            arms: arm_choices,
        }
    }
}

/// Context features for one arm. All components are bounded (roughly
/// `[0, 1]`), which keeps the shared model's condition number sane.
fn features(
    def: &IndexDef,
    benefit: f64,
    size: u64,
    catalog: &Catalog,
    read_w: &BTreeMap<String, f64>,
    write_w: &BTreeMap<String, f64>,
    total_w: f64,
) -> [f64; NFEAT] {
    // Leading-column distinctness: ndv / rows of the arm's first column
    // (high distinctness → point lookups love it; low → scans win).
    let distinct = def
        .columns
        .first()
        .and_then(|c| {
            let table = catalog.table(&def.table)?;
            let rows = table.rows.max(1) as f64;
            Some((table.column(c)?.stats.ndv / rows).clamp(0.0, 1.0))
        })
        .unwrap_or(0.0);
    let size_norm = ((1.0 + size as f64).ln() / 32.0).clamp(0.0, 1.0);
    let rw = read_w.get(&def.table).copied().unwrap_or(0.0) / total_w.max(1.0);
    let ww = write_w.get(&def.table).copied().unwrap_or(0.0) / total_w.max(1.0);
    [1.0, benefit, distinct, size_norm, rw, ww]
}

/// Per-table read/write template weight sums and the total weight.
fn table_weights(workload: &SharedWorkload) -> (BTreeMap<String, f64>, BTreeMap<String, f64>, f64) {
    let mut reads: BTreeMap<String, f64> = BTreeMap::new();
    let mut writes: BTreeMap<String, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (shape, weight) in workload {
        let w = *weight as f64;
        total += w;
        match &shape.write {
            Some(ws) => *writes.entry(ws.table.clone()).or_default() += w,
            None => {
                for t in &shape.tables {
                    *reads.entry(t.table.clone()).or_default() += w;
                }
            }
        }
    }
    (reads, writes, total)
}

// ------------------------------------------------------------- regret

/// Cumulative-regret accounting against a frozen hindsight-oracle
/// configuration: each round's measured mean latency is compared with
/// the mean the *oracle* configuration achieved on the same statements,
/// and the (non-negative) excess, scaled by the round's statement
/// count, accumulates. Emits `tuner.regret.*` into the obs layer.
#[derive(Debug, Clone)]
pub struct RegretAccounter {
    oracle: Vec<IndexDef>,
    cumulative_ms: f64,
    rounds: u64,
    curve: Vec<f64>,
}

impl RegretAccounter {
    /// Freeze the hindsight-oracle configuration.
    pub fn new(oracle: Vec<IndexDef>) -> Self {
        RegretAccounter {
            oracle,
            cumulative_ms: 0.0,
            rounds: 0,
            curve: Vec::new(),
        }
    }

    /// The frozen oracle configuration.
    pub fn oracle(&self) -> &[IndexDef] {
        &self.oracle
    }

    /// Account one round: `actual` and `oracle` are the mean simulated
    /// statement latencies (ms) measured over the same `statements`-long
    /// round on the live and the oracle-configured database. Returns the
    /// round's regret contribution in ms.
    pub fn observe_round(
        &mut self,
        actual_mean_ms: f64,
        oracle_mean_ms: f64,
        statements: u64,
        metrics: &MetricsRegistry,
    ) -> f64 {
        let regret = ((actual_mean_ms - oracle_mean_ms) * statements as f64).max(0.0);
        self.cumulative_ms += regret;
        self.rounds += 1;
        self.curve.push(self.cumulative_ms);
        metrics.counter("tuner.regret.rounds").incr();
        metrics.gauge("tuner.regret.last_ms").set(regret);
        metrics
            .gauge("tuner.regret.cumulative_ms")
            .set(self.cumulative_ms);
        regret
    }

    /// Total regret accumulated so far (simulated ms).
    pub fn cumulative_ms(&self) -> f64 {
        self.cumulative_ms
    }

    /// Rounds accounted.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The cumulative-regret curve (one entry per round).
    pub fn curve(&self) -> &[f64] {
        &self.curve
    }

    /// FNV-1a digest over the curve's exact bit patterns — the
    /// determinism fingerprint the drift benches exact-gate.
    pub fn curve_digest(&self) -> u64 {
        self.curve
            .iter()
            .fold(FNV_OFFSET, |h, v| fnv1a_from(h, &v.to_bits().to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use crate::system::{AutoIndex, AutoIndexConfig};
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::{SimDb, SimDbConfig};
    use autoindex_support::obs::MetricsRegistry;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 800_000)
                .column(Column::int("id", 800_000))
                .column(Column::int("a", 400_000))
                .column(Column::int("b", 4_000))
                .column(Column::int("c", 40))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
    }

    fn bandit_advisor() -> AutoIndex<NativeCostEstimator> {
        let cfg = AutoIndexConfig {
            strategy: StrategyKind::Bandit,
            ..AutoIndexConfig::default()
        };
        AutoIndex::new(cfg, NativeCostEstimator)
    }

    #[test]
    fn config_builder_validates() {
        assert!(BanditConfig::default().validate().is_ok());
        assert!(matches!(
            BanditConfig { max_arms: 0 }.validate(),
            Err(AutoIndexError::InvalidConfig {
                field: "bandit.max_arms",
                ..
            })
        ));
        let ok = BanditConfig { max_arms: 16 };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.max_arms, 16);
    }

    #[test]
    fn arm_distinctness_reads_the_catalog() {
        let db = db();
        let none = BTreeMap::new();
        let distinct = |table: &str, column: &str| {
            let def = IndexDef::new(table, &[column]);
            features(&def, 0.0, 0, db.catalog(), &none, &none, 0.0)[2]
        };
        assert_eq!(distinct("t", "b"), 4_000.0 / 800_000.0);
        assert_eq!(distinct("t", "id"), 1.0);
        assert_eq!(distinct("t", "ghost"), 0.0);
        assert_eq!(distinct("ghost", "a"), 0.0);
    }

    #[test]
    fn bandit_builds_index_for_hot_template() {
        let mut db = db();
        let mut ai = bandit_advisor();
        for i in 0..400 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
        }
        let out = ai.session(&mut db).run().unwrap();
        assert!(
            !out.report.created.is_empty(),
            "bandit must act on the prior"
        );
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(keys.contains(&"t(a)".to_string()), "{keys:?}");
        assert!(!out.arms.is_empty(), "arm attribution surfaces");
        assert!(out.arms.iter().all(|a| a.ucb >= a.expected));
        assert!(db.metrics().counter_value("tuner.bandit.rounds") >= 1);
        assert!(db.metrics().counter_value("tuner.bandit.arms_applied") >= 1);
    }

    #[test]
    fn arm_priors_are_the_naive_standalone_benefits() {
        use crate::candgen::CandidateGenerator;
        use crate::mcts::Universe;
        use autoindex_estimator::CostCache;
        // Two rounds — the second with built, bandit-owned arms in the
        // pool: the benefit feature of every selected arm is, bit for bit,
        // what one whole-workload `workload_cost` per arm gives.
        let mut db = db();
        db.create_index(IndexDef::new("t", &["c"])).unwrap();
        let mut ai = bandit_advisor();
        for i in 0..200 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 1"), &db)
                .unwrap();
            ai.observe(
                &format!("INSERT INTO t (id, a, b, c) VALUES ({i}, 1, 2, 3)"),
                &db,
            )
            .unwrap();
        }
        let (w, est) = (ai.workload(), NativeCostEstimator);
        let mut bandit = BanditStrategy::new(BanditConfig::default());
        for n in 0..2 {
            let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
            let baseline: Vec<&IndexDef> = existing
                .iter()
                .filter(|d| !bandit.owned.contains_key(&d.key()))
                .collect();
            let base = est.workload_cost(&db, &w, baseline.iter().copied());
            let mut pool = CandidateGenerator::new(ai.config.candidates.clone()).generate(
                &w,
                db.catalog(),
                &existing,
            );
            pool.extend(bandit.owned.values().map(|d| IndexDef::clone(d)));
            let naive: Vec<u64> = pool
                .iter()
                .map(|c| {
                    let with = baseline.iter().copied().chain(Some(c));
                    let cost = est.workload_cost(&db, &w, with);
                    ((base - cost) / base.max(1e-12)).clamp(0.0, 1.0).to_bits()
                })
                .collect();

            let standing = TuningStrategy::<NativeCostEstimator>::standing_arms(&bandit);
            let (mut universe, cache, prologue) =
                (Universe::new(), CostCache::new(), ai.prologue(&db));
            let mut round = Round::new(
                &mut universe,
                &cache,
                &db,
                &prologue,
                &est,
                &ai.config,
                &standing,
            );
            let proposal = bandit.propose(&mut round);
            assert!(!bandit.pending.is_empty(), "round {n} selected nothing");
            for x in &bandit.pending {
                assert!(naive.contains(&x[1].to_bits()), "round {n}: {x:?}");
            }
            for d in proposal.recommendation.add {
                db.create_index(d).unwrap();
            }
        }
        assert!(!bandit.owned.is_empty());
    }

    #[test]
    fn bandit_drops_only_its_own_indexes_when_arms_fall_out() {
        let mut db = db();
        // A DBA index the bandit must never touch.
        db.create_index(IndexDef::new("t", &["c"])).unwrap();
        let mut ai = bandit_advisor();
        for i in 0..400 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
        }
        let out = ai.session(&mut db).run().unwrap();
        assert!(!out.report.created.is_empty());
        // The workload pivots entirely to b; negative reward for the old
        // arm plus a zero prior lets it fall out of the super-arm.
        ai.force_template_decay();
        ai.force_template_decay();
        for i in 0..400 {
            ai.observe(&format!("SELECT * FROM t WHERE b = {i}"), &db)
                .unwrap();
        }
        ai.observe_reward(5.0);
        ai.observe_reward(9.0); // measured regression → negative reward
        for _ in 0..4 {
            let _ = ai.session(&mut db).run().unwrap();
        }
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(
            keys.contains(&"t(c)".to_string()),
            "DBA index must survive: {keys:?}"
        );
        assert!(keys.contains(&"t(b)".to_string()), "{keys:?}");
    }

    #[test]
    fn bandit_rounds_are_deterministic() {
        // Same seed + same workload → byte-identical arm sequence and
        // regret curve (the PR9 determinism property, unit-level).
        let run = || {
            let mut db = db();
            let mut ai = bandit_advisor();
            let mut arm_log: Vec<String> = Vec::new();
            let mut regret = RegretAccounter::new(vec![IndexDef::new("t", &["a"])]);
            for round in 0..5u64 {
                for i in 0..200 {
                    ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                        .unwrap();
                    ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 1"), &db)
                        .unwrap();
                }
                ai.observe_reward(10.0 / (round + 1) as f64);
                let out = ai.session(&mut db).run().unwrap();
                for a in &out.arms {
                    arm_log.push(format!("{}:{:.12}:{:.12}", a.key, a.ucb, a.expected));
                }
                regret.observe_round(10.0 / (round + 1) as f64, 1.0, 200, db.metrics());
            }
            (arm_log, regret.curve_digest())
        };
        let (arms_a, digest_a) = run();
        let (arms_b, digest_b) = run();
        assert_eq!(arms_a, arms_b, "arm sequences must be byte-identical");
        assert_eq!(digest_a, digest_b, "regret curves must be byte-identical");
        assert!(!arms_a.is_empty());
    }

    #[test]
    fn regret_accounter_is_monotone_and_floored_at_zero() {
        let m = MetricsRegistry::new();
        let mut r = RegretAccounter::new(Vec::new());
        let r1 = r.observe_round(5.0, 3.0, 100, &m);
        assert_eq!(r1, 200.0);
        // The live config beating the oracle contributes zero, never
        // negative (regret is a one-sided measure).
        let r2 = r.observe_round(2.0, 3.0, 100, &m);
        assert_eq!(r2, 0.0);
        assert_eq!(r.cumulative_ms(), 200.0);
        assert_eq!(r.rounds(), 2);
        assert_eq!(r.curve(), &[200.0, 200.0]);
        assert_eq!(m.counter_value("tuner.regret.rounds"), 2);
        assert_eq!(m.gauge_value("tuner.regret.cumulative_ms"), 200.0);
    }

    #[test]
    fn alpha_taper_narrows_with_rounds() {
        let mut s = BanditStrategy::new(BanditConfig::default());
        let early = s.alpha_t();
        s.rounds = 1_000;
        let late = s.alpha_t();
        assert!(late < early, "exploration must taper: {early} -> {late}");
        assert!(late > 0.0);
    }
}
