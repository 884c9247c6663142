//! Policy tree + Monte-Carlo Tree Search index update (§IV-B).
//!
//! The *policy tree*'s nodes are index configurations (subsets of the
//! universe = existing indexes ∪ candidate indexes); an edge adds one
//! candidate or removes one existing index, always under the storage
//! budget. Node utility is the paper's UCB:
//!
//! ```text
//! U(v) = B(v) + γ · sqrt( ln F(v₀) / F(v) )
//! ```
//!
//! with `B(v)` the (normalised) best cost reduction seen at `v` or its
//! explored descendants and `F` the visit counts. Each selected node is
//! evaluated through the index benefit estimator and additionally probed
//! with `K` random descendant rollouts (§IV-B step 2: "we randomly explore
//! K descendants of v and take the maximum estimated cost reduction").
//!
//! The tree persists across tuning rounds (*incremental* index
//! management): when the workload changes, cached benefits are invalidated
//! and visit counts decayed, but the explored structure — which the paper
//! calls "the advantage of the policy tree" — is retained, so knowledge
//! about good regions of the configuration space carries over.

use autoindex_estimator::CostEstimator;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{PressureModel, SimDb};
use autoindex_support::hash::{U64HashMap, WordHasher};
use autoindex_support::obs::Counter;
use autoindex_support::rng::StdRng;
use std::borrow::Borrow;
use std::hash::Hasher;
use std::sync::Arc;

use crate::delta::DeltaPricer;
use crate::fastpath::stamp_of;
use crate::strategy::relative_improvement;

/// A set of universe slots, packed into 64-bit words.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct ConfigSet {
    words: Vec<u64>,
}

impl Clone for ConfigSet {
    fn clone(&self) -> Self {
        ConfigSet {
            words: self.words.clone(),
        }
    }

    /// Into `self`'s own buffer (a derived `clone_from` would allocate a
    /// new one): the search copies configurations into reused buffers.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl ConfigSet {
    /// Empty set with backing storage pre-reserved for `n` slots.
    ///
    /// The returned set is *canonical* (no words stored, only capacity), so
    /// it equals `ConfigSet::default()` and inserting any of the `n` slots
    /// never reallocates: a delta-cost term's mask is built in one.
    pub fn with_capacity(n: usize) -> Self {
        ConfigSet {
            words: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Insert slot `i` (growing as needed).
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
        // Canonicalize: inserting a low slot into a set whose vector is
        // longer than its highest member must not leave a zero suffix.
        self.trim();
    }

    /// Remove slot `i`.
    pub fn remove(&mut self, i: usize) {
        let w = i / 64;
        if w < self.words.len() {
            self.words[w] &= !(1 << (i % 64));
        }
        // Keep the representation canonical so Eq/Hash work.
        self.trim();
    }

    /// Drop trailing zero words, restoring the canonical representation.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        self.assert_canonical();
    }

    /// Debug-check the canonical-representation invariant: the backing
    /// vector never ends in a zero word (the empty set is `[]`, not
    /// `[0, 0]`). `Eq`/`Hash` — and therefore node deduplication and the
    /// eval cache — are only sound while this holds.
    #[inline]
    pub fn assert_canonical(&self) {
        debug_assert!(
            self.words.last() != Some(&0),
            "ConfigSet representation is non-canonical: trailing zero word in {:?}",
            self.words
        );
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        let w = i / 64;
        w < self.words.len() && self.words[w] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The members of `self ∩ other`, ascending, without building the
    /// set. With `other` the mask of universe slots whose index lives on a
    /// table a template touches, this is the *projection* of the delta-cost
    /// engine: the part of the configuration that can influence that
    /// template's plan.
    pub(crate) fn intersection<'s>(
        &'s self,
        other: &'s ConfigSet,
    ) -> impl Iterator<Item = usize> + Clone + 's {
        let words = self.words.iter().zip(&other.words).enumerate();
        words.flat_map(|(wi, (a, b))| word_slots(wi, a & b))
    }

    /// Iterate member slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, w)| word_slots(wi, *w))
    }

    /// Slots in exactly one of the two sets, ascending: what a delta-cost
    /// pricer has to look at to price `self` against `other`.
    pub fn symmetric_difference<'s>(
        &'s self,
        other: &'s ConfigSet,
    ) -> impl Iterator<Item = usize> + 's {
        (0..self.words.len().max(other.words.len()))
            .flat_map(move |i| word_slots(i, self.word(i) ^ other.word(i)))
    }

    /// Word `i` of the bitmap (zero past the canonical length).
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The set's words folded through a [`WordHasher`]: what the search's
    /// configuration indexes are keyed by ([`probe`], [`L1`]).
    fn word_hash(&self) -> u64 {
        words_hash(&self.words)
    }
}

/// `words` folded through a [`WordHasher`], one word at a time.
fn words_hash(words: &[u64]) -> u64 {
    let mut h = WordHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Where the entry `holds` is in an index of hash → id, probed from hash
/// `h` — `Ok(id)` — or would go — `Err(free hash)`. A hash another entry
/// took sends the probe to the next hash above it, so an index keeps no
/// copy of a key: `holds` checks the one stored where the id points.
fn probe(
    index: &U64HashMap<usize>,
    mut h: u64,
    holds: impl Fn(usize) -> bool,
) -> Result<usize, u64> {
    loop {
        match index.get(&h) {
            None => return Err(h),
            Some(&id) if holds(id) => return Ok(id),
            Some(_) => h = h.wrapping_add(1),
        }
    }
}

/// Word `wi` of the bitmap holding slots `0..n`.
pub(crate) fn full_word(n: usize, wi: usize) -> u64 {
    u64::MAX >> (64 - (n - wi * 64).min(64))
}

/// The slots word `wi` of a bitmap holds, ascending.
pub(crate) fn word_slots(wi: usize, mut w: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        if w == 0 {
            None
        } else {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + b)
        }
    })
}

impl FromIterator<usize> for ConfigSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = ConfigSet::default();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

/// The stable universe of index definitions: existing + candidates. Slots
/// never change meaning across rounds, which is what lets the policy tree
/// persist. A definition is held as it is handed in, shared: interning the
/// database's own (`SimDb::shared_indexes`) copies none.
#[derive(Debug, Default)]
pub struct Universe {
    defs: Vec<Arc<IndexDef>>,
    /// Per slot, its definition's [`IndexDef::identity_hash`]: what a
    /// delta-cost cache key is made of, so that no key holds a slot number.
    hashes: Vec<u64>,
    /// Identity hash → slot; a definition whose hash is taken by another
    /// identity sits at the next free hash above it.
    by_hash: U64HashMap<usize>,
    /// Estimated size in bytes (refreshed per round).
    sizes: Vec<u64>,
    /// Per slot, its table's growth stamp when its size was estimated
    /// ([`UNSIZED`] before the first estimate).
    stamps: Vec<u64>,
}

/// The stamp of a slot never sized: no table carries it.
const UNSIZED: u64 = u64::MAX;

impl Universe {
    /// Empty universe.
    pub fn new() -> Self {
        Universe::default()
    }

    /// Where `def`, of identity hash `h`, is — `Ok(slot)` — or would go —
    /// `Err(free hash)`.
    fn find(&self, def: &IndexDef, h: u64) -> Result<usize, u64> {
        probe(&self.by_hash, h, |i| self.defs[i].same_identity(def))
    }

    /// Intern a definition, returning its stable slot. A new one is kept as
    /// an `Arc`: handing in a shared definition costs a reference count, an
    /// owned one is moved in.
    pub fn intern<D: Borrow<IndexDef> + Into<Arc<IndexDef>>>(&mut self, def: D) -> usize {
        let hash = def.borrow().identity_hash();
        self.find(def.borrow(), hash).unwrap_or_else(|free| {
            let i = self.defs.len();
            self.defs.push(def.into());
            self.hashes.push(hash);
            self.by_hash.insert(free, i);
            self.sizes.push(0);
            self.stamps.push(UNSIZED);
            i
        })
    }

    /// Fingerprint of the definitions of `config ∩ mask`, folded **in slot
    /// order**: the projected-configuration part of a delta-cost cache key.
    /// Order is part of it because the planner is handed the projection in
    /// this order (`Universe::config_defs`) and both its maintenance sums
    /// and its what-if ids follow position — two universes that number the
    /// same definitions differently must not share a term.
    pub fn projection_fingerprint(&self, config: &ConfigSet, mask: &ConfigSet) -> u64 {
        let mut h = WordHasher::default();
        for slot in config.intersection(mask) {
            h.write_u64(self.hashes[slot]);
        }
        h.finish()
    }

    /// Slot of a definition, if interned.
    pub fn slot(&self, def: &IndexDef) -> Option<usize> {
        self.find(def, def.identity_hash()).ok()
    }

    /// Definition at a slot.
    pub fn def(&self, slot: usize) -> &IndexDef {
        &self.defs[slot]
    }

    /// Number of interned definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Refresh size estimates against the database. A size changes only
    /// with its table's statistics, so a slot is re-estimated only when its
    /// table's growth stamp is not the one it was estimated at — the rule a
    /// compiled template is kept by (`fastpath::stamp_of`; a table the catalog
    /// lacks reads 0 and sizes as `u64::MAX / 1024`).
    pub fn refresh_sizes(&mut self, db: &SimDb) {
        let catalog = db.catalog();
        for (i, d) in self.defs.iter().enumerate() {
            let stamp = stamp_of(catalog, &d.table);
            if self.stamps[i] != stamp {
                self.stamps[i] = stamp;
                self.sizes[i] = db.index_size_bytes(d).unwrap_or(u64::MAX / 1024);
            }
        }
    }

    /// Size of one slot.
    pub fn size(&self, slot: usize) -> u64 {
        self.sizes[slot]
    }

    /// Total size of a configuration.
    pub fn config_size(&self, config: &ConfigSet) -> u64 {
        config.iter().map(|i| self.sizes[i]).sum()
    }

    /// The configuration holding exactly `defs`, all of them interned.
    pub(crate) fn config_of<'d>(&self, defs: impl IntoIterator<Item = &'d IndexDef>) -> ConfigSet {
        defs.into_iter()
            .map(|d| self.slot(d).expect("the round interned this definition"))
            .collect()
    }

    /// The definitions of a configuration, in slot order, by reference
    /// (an [`autoindex_storage::IndexConfig`]).
    pub fn config_defs<'u>(
        &'u self,
        config: &'u ConfigSet,
    ) -> impl Iterator<Item = &'u IndexDef> + Clone {
        config.iter().map(|i| &*self.defs[i])
    }
}

/// MCTS parameters.
#[derive(Debug, Clone)]
pub struct MctsConfig {
    /// Search iterations per round.
    pub iterations: usize,
    /// Exploration constant γ.
    pub gamma: f64,
    /// Random descendant rollouts per evaluated node (the paper's K,
    /// "e.g. 5 leaf nodes for dozens of indexes").
    pub rollouts: usize,
    /// Maximum rollout depth (actions per rollout).
    pub rollout_depth: usize,
    /// RNG seed.
    pub seed: u64,
    /// Early-stop: quit after this many iterations without improvement.
    pub patience: usize,
    /// Use the decomposed delta-cost evaluator: split workload cost into
    /// per-template terms memoized by `(template, projected config)` in a
    /// [`CostCache`](autoindex_estimator::cost_cache::CostCache), so
    /// configurations differing by one index only re-plan the templates on
    /// that index's table. `false` is the whole-workload oracle: every
    /// priced configuration re-plans every template, and
    /// `tests/decomposed_equivalence.rs` pins this mode's results bit for
    /// bit against it. Read where a round's [`DeltaPricer`] is made.
    pub decomposed_eval: bool,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            iterations: 400,
            gamma: 0.7,
            rollouts: 5,
            rollout_depth: 4,
            seed: 17,
            patience: 120,
            decomposed_eval: true,
        }
    }
}

impl MctsConfig {
    /// Check every field.
    pub fn validate(&self) -> Result<(), crate::error::AutoIndexError> {
        use crate::error::invalid;
        if self.iterations == 0 {
            return Err(invalid("mcts.iterations", "must be >= 1"));
        }
        if !self.gamma.is_finite() || self.gamma < 0.0 {
            return Err(invalid("mcts.gamma", "must be finite and >= 0"));
        }
        if self.rollout_depth == 0 {
            return Err(invalid("mcts.rollout_depth", "must be >= 1"));
        }
        if self.patience == 0 {
            return Err(invalid("mcts.patience", "must be >= 1"));
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Node {
    config: ConfigSet,
    children: Vec<usize>,
    /// Actions not yet expanded into children.
    untried: Vec<Action>,
    expanded_init: bool,
    visits: f64,
    /// B(v): best cost reduction at v or explored descendants.
    benefit: f64,
    /// Round at which `benefit` was last computed.
    eval_round: u64,
}

/// One policy-tree action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Add(usize),
    Remove(usize),
}

impl Action {
    /// Take the action on `config`, in place.
    fn apply(self, config: &mut ConfigSet) {
        match self {
            Action::Add(s) => config.insert(s),
            Action::Remove(s) => config.remove(s),
        }
    }
}

/// The persistent policy tree.
pub struct PolicyTree {
    nodes: Vec<Node>,
    /// [`ConfigSet::word_hash`] → node id, checked against the node's
    /// configuration ([`probe`]): a node's configuration is stored once, in
    /// its node.
    by_config: U64HashMap<usize>,
    round: u64,
}

impl Default for PolicyTree {
    fn default() -> Self {
        PolicyTree::new()
    }
}

impl PolicyTree {
    /// Fresh, empty tree.
    pub fn new() -> Self {
        PolicyTree {
            nodes: Vec::new(),
            by_config: U64HashMap::default(),
            round: 0,
        }
    }

    /// Number of materialised nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current tuning round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node of `config`, created — the one copy of its configuration
    /// the tree makes — if there is none.
    fn node_for(&mut self, config: &ConfigSet) -> usize {
        let nodes = &self.nodes;
        match probe(&self.by_config, config.word_hash(), |id| {
            nodes[id].config == *config
        }) {
            Ok(id) => id,
            Err(free) => {
                let id = self.nodes.len();
                self.by_config.insert(free, id);
                self.nodes.push(Node {
                    config: config.clone(),
                    children: Vec::new(),
                    untried: Vec::new(),
                    expanded_init: false,
                    visits: 0.0,
                    benefit: 0.0,
                    eval_round: 0,
                });
                id
            }
        }
    }

    /// Begin a new tuning round: invalidate benefits, decay visits.
    pub fn begin_round(&mut self, decay: f64) {
        self.round += 1;
        for n in &mut self.nodes {
            n.visits *= decay;
            // Benefits are stale; they lazily recompute when revisited.
            if n.eval_round < self.round {
                n.benefit = 0.0;
            }
            // New candidates may have appeared: re-enumerate lazily.
            n.expanded_init = false;
            n.untried.clear();
        }
    }
}

/// Result of one search round.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best configuration found (as universe slots).
    pub best_config: ConfigSet,
    /// Estimated workload cost of the starting configuration.
    pub baseline_cost: f64,
    /// Estimated workload cost of `best_config`.
    pub best_cost: f64,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Estimator evaluations performed (cache misses).
    pub evaluations: usize,
    /// Eval-cache hits (configurations re-costed for free).
    pub cache_hits: usize,
    /// Wall-clock time the search round took.
    pub elapsed: std::time::Duration,
}

impl SearchOutcome {
    /// Estimated relative improvement (0 if none).
    pub fn improvement(&self) -> f64 {
        relative_improvement(self.baseline_cost, self.best_cost)
    }
}

/// One MCTS search over the policy tree.
pub struct MctsSearch<'a> {
    pub universe: &'a Universe,
    /// Whose registry the `mcts.*` counters bind on.
    pub db: &'a SimDb,
    pub config: MctsConfig,
    /// Storage budget in bytes (`None` = unlimited).
    pub budget: Option<u64>,
    /// Slots that are *existing* indexes (removable); all other universe
    /// slots are candidates (addable).
    pub existing: ConfigSet,
    /// Existing indexes that must not be removed (e.g. primary keys).
    pub protected: ConfigSet,
    /// Root configuration the search starts from. Usually equals
    /// `existing`; the system passes a pre-pruned configuration after the
    /// estimator-driven redundant-index pass ("we also figure out redundant
    /// or negative indexes based on the index benefit estimation results",
    /// §III). Baseline cost is always measured at `existing`.
    pub start: ConfigSet,
}

/// The whole-configuration (L1) memo of one [`MctsSearch::run`]: every
/// configuration the search priced, in the order it was entered, and its
/// cost. A long round enters a few thousand, which makes the memo the
/// largest thing a tuning round holds, so it is laid out for size. Each
/// configuration is stored once, as `width` words (the universe's, zero
/// past its canonical length), so a position's words need no end offset.
/// The index is open addressing over positions, probed linearly from a
/// configuration's [`word hash`](ConfigSet::word_hash) and at most half
/// full: a bucket is four bytes — a position + 1, 0 for empty — where a
/// hash map of hash → position takes sixteen and a control byte, and
/// growing re-hashes the stored words instead of keeping a hash per
/// entry.
struct L1 {
    width: usize,
    index: Vec<u32>,
    words: Vec<u64>,
    /// Pressure-inclusive workload cost per position (NaN until priced).
    costs: Vec<f64>,
}

impl L1 {
    /// An empty memo for configurations of a `slots`-slot universe.
    fn new(slots: usize) -> Self {
        L1 {
            width: slots.div_ceil(64),
            index: Vec::new(),
            words: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// Configurations entered.
    fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether position `at` holds `words` (a canonical configuration's).
    fn holds(&self, at: usize, words: &[u64]) -> bool {
        let (head, tail) = self.words[at * self.width..][..self.width].split_at(words.len());
        head == words && tail.iter().all(|&w| w == 0)
    }

    /// The hash of position `at`'s configuration: its words without the
    /// zero padding, as [`ConfigSet::word_hash`] folds them.
    fn hash_of(&self, at: usize) -> u64 {
        let stored = &self.words[at * self.width..][..self.width];
        let len = stored.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words_hash(&stored[..len])
    }

    /// The position of `config`: `Ok` if the memo holds it, otherwise
    /// `Err` of the position it was entered at now, its cost NaN.
    fn find_or_enter(&mut self, config: &ConfigSet) -> Result<usize, usize> {
        assert!(
            config.words.len() <= self.width,
            "a configuration of the universe"
        );
        let hash = config.word_hash();
        if let Some(mask) = self.index.len().checked_sub(1) {
            let mut b = hash as usize & mask;
            while let Some(at) = self.index[b].checked_sub(1) {
                if self.holds(at as usize, &config.words) {
                    return Ok(at as usize);
                }
                b = (b + 1) & mask;
            }
        }
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
        }
        let at = self.len();
        let bucket = self.free_bucket(hash);
        self.index[bucket] = u32::try_from(at + 1).expect("an L1 position fits in u32");
        self.words.extend_from_slice(&config.words);
        let padded = self.words.len() + self.width - config.words.len();
        self.words.resize(padded, 0);
        self.costs.push(f64::NAN);
        Err(at)
    }

    /// The first empty bucket on `hash`'s probe sequence.
    fn free_bucket(&self, hash: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut b = hash as usize & mask;
        while self.index[b] != 0 {
            b = (b + 1) & mask;
        }
        b
    }

    /// Double the index (64 buckets at first) and place every position
    /// again from its configuration's hash.
    fn grow(&mut self) {
        self.index = vec![0; (2 * self.index.len()).max(64)];
        for at in 0..self.len() {
            let bucket = self.free_bucket(self.hash_of(at));
            self.index[bucket] = at as u32 + 1;
        }
    }
}

/// The L1 memo of one [`MctsSearch::run`], its economics and the buffers
/// a batch is priced with. It sits in front of the round's pricer and dies
/// with the search.
struct EvalState {
    /// A configuration is looked up and, on a miss, entered, before the
    /// batch is priced.
    l1: L1,
    /// L1 misses (= real configuration evaluations).
    evaluations: usize,
    /// L1 hits (configurations re-costed for free).
    cache_hits: usize,
    /// `mcts.eval_cache.{hits,misses}`.
    m_hits: Counter,
    m_misses: Counter,
    /// Buffer pressure at the round's heap size.
    pressure: PressureModel,
    // Scratch of `eval_batch`, reused from batch to batch.
    pending: Vec<usize>,
    dups: Vec<(usize, usize)>,
    costs: Vec<f64>,
}

impl MctsSearch<'_> {
    /// Run the search on `tree`, starting from the current existing
    /// configuration and pricing through `pricer` — the round's, over this
    /// search's universe. The reference is left at `start`.
    pub fn run<E: CostEstimator, S: Borrow<QueryShape>>(
        &self,
        tree: &mut PolicyTree,
        pricer: &mut DeltaPricer<'_, '_, E, S>,
    ) -> SearchOutcome {
        let started = std::time::Instant::now();
        let metrics = self.db.metrics();
        let m_iterations = metrics.counter("mcts.iterations");
        let m_expansions = metrics.counter("mcts.expansions");
        let m_rollouts = metrics.counter("mcts.rollouts");
        let m_round_time = metrics.timer("mcts.round_time");

        let mut rng = StdRng::seed_from_u64(self.config.seed ^ tree.round());

        let mut st = EvalState {
            l1: L1::new(self.universe.len()),
            evaluations: 0,
            cache_hits: 0,
            m_hits: metrics.counter("mcts.eval_cache.hits"),
            m_misses: metrics.counter("mcts.eval_cache.misses"),
            pressure: self.db.pressure_model(),
            pending: Vec::new(),
            dups: Vec::new(),
            costs: Vec::new(),
        };

        // The evaluation batch: the selected node and its rollouts, each
        // written in place from iteration to iteration, and their sizes.
        let mut batch = vec![self.existing.clone(), self.start.clone()];
        let mut sizes: Vec<u64> = batch.iter().map(|c| self.universe.config_size(c)).collect();
        let base = self.eval_batch(&batch, &sizes, &mut st, pricer);
        let (baseline_cost, root_cost) = (base[0], base[1]);
        batch.resize_with(1 + self.config.rollouts, ConfigSet::default);
        sizes.resize(batch.len(), 0);
        // Everything the search prices from here on is a few actions away
        // from `start`, which is what that batch priced last (or, being
        // equal to `existing`, only).
        pricer.rebase();
        let root = tree.node_for(&self.start);

        // Ties favour the start configuration: the caller's prune pass may
        // have removed cost-neutral redundant indexes, and that reduction
        // must survive the search.
        let mut best_config = if root_cost <= baseline_cost {
            self.start.clone()
        } else {
            self.existing.clone()
        };
        let mut best_cost = root_cost.min(baseline_cost);
        let mut since_improvement = 0usize;
        let mut iterations = 0usize;
        let masks = self.action_masks();
        let mut legal: Vec<u64> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        // Each expansion's child is built here before the tree looks it up.
        let mut child_config = ConfigSet::default();

        for _ in 0..self.config.iterations {
            iterations += 1;
            m_iterations.incr();
            // ---- selection ------------------------------------------------
            path.clear();
            path.push(root);
            let mut current = root;
            loop {
                if !tree.nodes[current].expanded_init {
                    let untried = self.legal_actions(&tree.nodes[current].config);
                    tree.nodes[current].untried = untried;
                    tree.nodes[current].expanded_init = true;
                }
                // Expand one untried action if any remain.
                if !tree.nodes[current].untried.is_empty() {
                    m_expansions.incr();
                    let k = rng.random_range(0..tree.nodes[current].untried.len());
                    let action = tree.nodes[current].untried.swap_remove(k);
                    child_config.clone_from(&tree.nodes[current].config);
                    action.apply(&mut child_config);
                    let child = tree.node_for(&child_config);
                    if !tree.nodes[current].children.contains(&child) {
                        tree.nodes[current].children.push(child);
                    }
                    path.push(child);
                    current = child;
                    break;
                }
                // Fully expanded: descend to the max-utility child. Nodes
                // are deduplicated by configuration, so a remove-then-add
                // sequence can lead back to an ancestor — skip any child
                // already on the path to keep the walk acyclic, and bound
                // the depth defensively.
                let parent_visits = tree.nodes[current].visits.max(1.0);
                if path.len() > 2 * self.universe.len() + 4 {
                    break; // Depth bound reached.
                }
                let children = tree.nodes[current].children.iter().copied();
                let Some(next) = children.filter(|c| !path.contains(c)).max_by(|&a, &b| {
                    let ua = self.utility(&tree.nodes[a], parent_visits, baseline_cost);
                    let ub = self.utility(&tree.nodes[b], parent_visits, baseline_cost);
                    ua.partial_cmp(&ub).expect("utility is finite")
                }) else {
                    break; // Terminal node.
                };
                path.push(next);
                current = next;
                if tree.nodes[current].visits < 1.0 {
                    break; // First visit of this node: evaluate it now.
                }
            }

            // ---- evaluation + rollouts (§IV-B step 2) ---------------------
            // The selected node and its K rollout descendants form one
            // evaluation batch. Descendants are generated first, in serial
            // RNG order (evaluation consumes no randomness), then the
            // batch is priced. Best-cost updates replay in the exact order a
            // one-at-a-time evaluator would make them: rollouts first, then
            // the node.
            let node_config = &tree.nodes[current].config;
            let node_size = self.universe.config_size(node_config);
            batch[0].clone_from(node_config);
            sizes[0] = node_size;
            for (descendant, size) in batch[1..].iter_mut().zip(&mut sizes[1..]) {
                m_rollouts.incr();
                *size = self.random_descendant(
                    node_config,
                    node_size,
                    &mut rng,
                    &masks,
                    &mut legal,
                    descendant,
                );
            }
            let costs = self.eval_batch(&batch, &sizes, &mut st, pricer);
            let node_cost = costs[0];
            let mut best_local = node_cost;
            for (cfg, &c) in batch[1..].iter().zip(&costs[1..]) {
                if c < best_local {
                    best_local = c;
                }
                if c < best_cost {
                    best_cost = c;
                    best_config.clone_from(cfg);
                    since_improvement = 0;
                }
            }
            if node_cost < best_cost {
                best_cost = node_cost;
                best_config.clone_from(&batch[0]);
                since_improvement = 0;
            }

            // ---- backpropagation (§IV-B step 3) ---------------------------
            let reduction = (baseline_cost - best_local).max(0.0);
            for &id in &path {
                let n = &mut tree.nodes[id];
                n.visits += 1.0;
                if n.eval_round < tree.round {
                    n.benefit = 0.0;
                    n.eval_round = tree.round;
                }
                if reduction > n.benefit {
                    n.benefit = reduction;
                }
            }

            since_improvement += 1;
            if since_improvement > self.config.patience {
                break;
            }
        }

        let elapsed = started.elapsed();
        m_round_time.record(elapsed);
        SearchOutcome {
            best_config,
            baseline_cost,
            best_cost,
            iterations,
            evaluations: st.evaluations,
            cache_hits: st.cache_hits,
            elapsed,
        }
    }

    /// Price a batch of configurations, of `sizes` bytes, returning their
    /// [`pressured`] costs in order.
    ///
    /// L1 bookkeeping mirrors one-at-a-time evaluation exactly: the first
    /// occurrence of an uncached configuration is a miss, repeats (within
    /// the batch or already in L1) are hits, and only the misses reach
    /// the pricer. A miss appends its configuration's words to L1's store,
    /// the one copy of it L1 makes; a hit copies nothing.
    fn eval_batch<'s, E: CostEstimator, S: Borrow<QueryShape>>(
        &self,
        batch: &[ConfigSet],
        sizes: &[u64],
        st: &'s mut EvalState,
        pricer: &mut DeltaPricer<'_, '_, E, S>,
    ) -> &'s [f64] {
        st.costs.clear();
        st.costs.resize(batch.len(), 0.0);
        st.pending.clear();
        st.dups.clear();
        // L1 positions from here on are this batch's misses, priced below.
        let priced = st.l1.len();
        for (i, cfg) in batch.iter().enumerate() {
            match st.l1.find_or_enter(cfg) {
                Ok(at) => {
                    st.cache_hits += 1;
                    st.m_hits.incr();
                    match at {
                        at if at < priced => st.costs[i] = st.l1.costs[at],
                        at => st.dups.push((i, at)),
                    }
                }
                Err(_) => {
                    st.evaluations += 1;
                    st.m_misses.incr();
                    st.pending.push(i);
                }
            }
        }

        let sums = pricer.sum_batch(st.pending.iter().map(|&i| &batch[i]));
        for ((&i, &sum), cost) in st.pending.iter().zip(sums).zip(&mut st.l1.costs[priced..]) {
            *cost = pressured(&st.pressure, sizes[i], sum);
            st.costs[i] = *cost;
        }

        for &(i, at) in &st.dups {
            st.costs[i] = st.l1.costs[at];
        }
        &st.costs
    }

    /// Node utility `U(v) = B(v)/baseline + γ·sqrt(ln F(v0)/F(v))`.
    fn utility(&self, n: &Node, parent_visits: f64, baseline: f64) -> f64 {
        let b_norm = if baseline > 0.0 {
            n.benefit / baseline
        } else {
            0.0
        };
        if n.visits < 1.0 {
            return f64::INFINITY; // Unvisited nodes are explored first.
        }
        b_norm + self.config.gamma * (parent_visits.ln().max(0.0) / n.visits).sqrt()
    }

    /// Legal actions at a configuration: add any absent universe index
    /// within the budget; remove any present, existing, unprotected index.
    fn legal_actions(&self, config: &ConfigSet) -> Vec<Action> {
        let size = self.universe.config_size(config);
        let mut out = Vec::new();
        for slot in 0..self.universe.len() {
            if config.contains(slot) {
                if self.existing.contains(slot) && !self.protected.contains(slot) {
                    out.push(Action::Remove(slot));
                }
                // Candidates added deeper in the tree are not re-removed:
                // their parent node already represents that state.
                continue;
            }
            let fits = match self.budget {
                Some(b) => size + self.universe.size(slot) <= b,
                None => true,
            };
            if fits {
                out.push(Action::Add(slot));
            }
        }
        out
    }

    /// The search's fixed slot bitmaps, one word per 64 universe slots.
    fn action_masks(&self) -> ActionMasks {
        let n = self.universe.len();
        let words = 0..n.div_ceil(64);
        ActionMasks {
            universe: words.clone().map(|i| full_word(n, i)).collect(),
            removable: words
                .map(|i| self.existing.word(i) & !self.protected.word(i))
                .collect(),
        }
    }

    /// [`MctsSearch::legal_actions`] as a slot bitmap, without the list:
    /// `(config ∧ existing ∧ ¬protected) ∨ (¬config ∧ fits-budget)`, a set
    /// bit standing for the one action legal on its slot. `config` is
    /// padded to the universe's word count and weighs `size` bytes.
    /// Returns the number of legal actions.
    fn legal_slots(
        &self,
        masks: &ActionMasks,
        config: &[u64],
        size: u64,
        legal: &mut Vec<u64>,
    ) -> usize {
        legal.clear();
        let mut count = 0;
        for (wi, &c) in config.iter().enumerate() {
            let mut addable = !c & masks.universe[wi];
            if let Some(b) = self.budget {
                for slot in word_slots(wi, addable) {
                    if size + self.universe.size(slot) > b {
                        addable &= !(1 << (slot % 64));
                    }
                }
            }
            let w = (c & masks.removable[wi]) | addable;
            count += w.count_ones() as usize;
            legal.push(w);
        }
        count
    }

    /// A random descendant configuration within the budget, written into
    /// `c`; returns its size, `config` weighing `size` bytes. Each step
    /// draws one index below the number of legal actions and applies the
    /// action at that rank in slot order — what picking from
    /// `legal_actions` does, without materialising it.
    fn random_descendant(
        &self,
        config: &ConfigSet,
        mut size: u64,
        rng: &mut StdRng,
        masks: &ActionMasks,
        legal: &mut Vec<u64>,
        c: &mut ConfigSet,
    ) -> u64 {
        // Padded (non-canonical) while the walk toggles bits in place: one
        // buffer at the universe's full width, reused from rollout to
        // rollout, so a warm walk allocates nothing.
        c.words.clear();
        c.words.extend_from_slice(&config.words);
        c.words.resize(masks.universe.len(), 0);
        for _ in 0..self.config.rollout_depth {
            let n = self.legal_slots(masks, &c.words, size, legal);
            if n == 0 {
                break;
            }
            let slot = select_slot(legal, rng.random_range(0..n));
            let bit = 1u64 << (slot % 64);
            size = if c.words[slot / 64] & bit != 0 {
                size - self.universe.size(slot)
            } else {
                size + self.universe.size(slot)
            };
            c.words[slot / 64] ^= bit;
            // Bias rollouts toward stopping early part of the time so
            // shallow descendants are sampled too.
            if rng.random_bool(0.35) {
                break;
            }
        }
        c.trim();
        size
    }
}

/// The MCTS pipeline's cost of a configuration whose workload `sum` a
/// [`DeltaPricer`] computed and whose indexes weigh `footprint` bytes (the
/// callers carry it along their walks: sizes are integers, so it is the
/// [`Universe::config_size`] of the configuration exactly): the sum
/// inflated by the buffer pressure the footprint would cause. The pressure
/// is what makes dropping *unused* indexes worthwhile (Figure 1): they
/// have zero maintenance, but they evict hot pages. Greedy and the bandit
/// rank by the sum alone.
pub(crate) fn pressured(pressure: &PressureModel, footprint: u64, sum: f64) -> f64 {
    sum * pressure.for_index_bytes(footprint)
}

/// Slot bitmaps that stay fixed for one search (see
/// [`MctsSearch::legal_slots`]).
struct ActionMasks {
    /// Every universe slot.
    universe: Vec<u64>,
    /// `existing ∧ ¬protected`: the slots a configuration may lose.
    removable: Vec<u64>,
}

/// The slot of the `k`-th set bit of a bitmap (`k` below its popcount):
/// the word by popcounts, then the bit by halving — keep the low half of
/// the window if it holds more than `k` set bits, else skip past it.
fn select_slot(words: &[u64], mut k: usize) -> usize {
    for (wi, &w) in words.iter().enumerate() {
        let ones = w.count_ones() as usize;
        if k < ones {
            let (mut w, mut k, mut bit) = (w, k as u32, 0);
            for half in [32usize, 16, 8, 4, 2, 1] {
                let low = (w & ((1 << half) - 1)).count_ones();
                if k >= low {
                    k -= low;
                    w >>= half;
                    bit += half;
                }
            }
            return wi * 64 + bit;
        }
        k -= ones;
    }
    unreachable!("k is below the bitmap's popcount")
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::cost_cache::{shape_keys, CostCache};
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    #[test]
    fn config_set_basics() {
        let mut s = ConfigSet::default();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(70);
        s.insert(3);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(70) && !s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
        s.remove(70);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
        // Canonical representation: equal content ⇒ equal value.
        let t: ConfigSet = [3usize].into_iter().collect();
        assert_eq!(s, t);
        let cap = ConfigSet::with_capacity(100);
        assert!(cap.is_empty());
    }

    #[test]
    fn config_set_canonical_representation() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &ConfigSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // `with_capacity` must be the *same value* as the empty set: the
        // old `vec![0; n/64]` representation broke Eq/Hash and thereby the
        // policy-tree dedup map and the MCTS eval cache.
        let cap = ConfigSet::with_capacity(1000);
        cap.assert_canonical();
        assert_eq!(cap, ConfigSet::default());
        assert_eq!(hash(&cap), hash(&ConfigSet::default()));
        // Inserting a low slot into a high-capacity set yields the same
        // value as building the set directly.
        let mut a = ConfigSet::with_capacity(1000);
        a.insert(3);
        a.assert_canonical();
        let b: ConfigSet = [3usize].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        // Insert-high / remove-high round trip stays canonical and equal.
        let mut c = ConfigSet::default();
        c.insert(200);
        c.insert(5);
        c.remove(200);
        c.assert_canonical();
        let d: ConfigSet = [5usize].into_iter().collect();
        assert_eq!(c, d);
        assert_eq!(hash(&c), hash(&d));
    }

    /// The L1 memo finds what a map of configurations finds, across its
    /// index's growths and for configurations of every canonical length
    /// up to the universe's width, the empty one included; a stored
    /// configuration does not hold one that is a prefix of its words.
    #[test]
    fn l1_memo_finds_what_a_map_finds() {
        for slots in [0, 1, 64, 130] {
            let mut l1 = L1::new(slots);
            let mut oracle = std::collections::HashMap::new();
            let mut rng = StdRng::seed_from_u64(slots as u64);
            // Few slots per word, so that configurations share words.
            let pool: Vec<usize> = [0, 1, 2, 63, 64, 65, 128, 129]
                .into_iter()
                .filter(|&s| s < slots)
                .chain((0..slots).step_by(7))
                .collect();
            for round in 0..3000 {
                let p = if round < 1000 { 0.5 } else { 0.05 };
                let config: ConfigSet = pool
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(p))
                    .collect();
                let next = oracle.len();
                let expected = match oracle.entry(config.words.clone()) {
                    std::collections::hash_map::Entry::Occupied(e) => Ok(*e.get()),
                    std::collections::hash_map::Entry::Vacant(e) => Err(*e.insert(next)),
                };
                assert_eq!(l1.find_or_enter(&config), expected, "{config:?}");
            }
            assert_eq!(l1.len(), oracle.len());
            assert!(2 * l1.len() <= l1.index.len().max(2));
        }
        let mut l1 = L1::new(130);
        let wide: ConfigSet = [1usize, 65].into_iter().collect();
        let narrow: ConfigSet = [1usize].into_iter().collect();
        assert_eq!(l1.find_or_enter(&wide), Err(0));
        assert!(l1.holds(0, &wide.words) && !l1.holds(0, &narrow.words));
        assert_eq!(l1.find_or_enter(&narrow), Err(1));
        assert!(l1.holds(1, &narrow.words) && !l1.holds(1, &wide.words));
    }

    #[test]
    fn universe_interning_is_stable() {
        let mut u = Universe::new();
        let a = IndexDef::new("t", &["a"]);
        let b = IndexDef::new("t", &["b"]);
        let sa = u.intern(a.clone());
        let sb = u.intern(b.clone());
        assert_ne!(sa, sb);
        assert_eq!(u.intern(a.clone()), sa);
        assert_eq!(u.slot(&b), Some(sb));
        assert_eq!(u.def(sa), &a);
        assert_eq!(u.len(), 2);
    }

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 1_000_000)
                .column(Column::int("a", 1_000_000))
                .column(Column::int("b", 5_000))
                .column(Column::int("c", 100))
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
    }

    fn workload(db: &SimDb, sqls: &[(&str, u64)]) -> Vec<(QueryShape, u64)> {
        sqls.iter()
            .map(|(s, n)| {
                (
                    QueryShape::extract(&parse_statement(s).unwrap(), db.catalog()),
                    *n,
                )
            })
            .collect()
    }

    fn setup_universe(u: &mut Universe, defs: &[IndexDef]) -> Vec<usize> {
        defs.iter().map(|d| u.intern(d.clone())).collect()
    }

    /// `search.run` through a fresh pricer of `w` over its own term cache.
    fn run_search<E: CostEstimator>(
        search: &MctsSearch<'_>,
        tree: &mut PolicyTree,
        est: &E,
        w: &[(QueryShape, u64)],
    ) -> SearchOutcome {
        let cache = CostCache::new();
        let decomposed = search.config.decomposed_eval;
        let keys = shape_keys(w);
        let mut pricer = DeltaPricer::new(
            search.universe,
            w,
            &keys,
            search.db,
            est,
            &cache,
            decomposed,
        );
        search.run(tree, &mut pricer)
    }

    /// A maintenance-aware estimator for tests that need write costs.
    struct MaintAware;
    impl CostEstimator for MaintAware {
        fn shape_cost<'a>(
            &self,
            db: &SimDb,
            shape: &QueryShape,
            config: impl autoindex_storage::IndexConfig<'a>,
        ) -> f64 {
            let f = db.whatif_features(shape, config);
            f.c_data + 1.3 * f.c_io + 1.15 * f.c_cpu
        }
    }

    #[test]
    fn search_finds_the_obviously_good_index() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        let mut u = Universe::new();
        let slots = setup_universe(
            &mut u,
            &[IndexDef::new("t", &["a"]), IndexDef::new("t", &["c"])],
        );
        u.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig {
                iterations: 100,
                ..MctsConfig::default()
            },
            budget: None,
            existing: ConfigSet::default(),
            protected: ConfigSet::default(),
            start: ConfigSet::default(),
        };
        let out = run_search(&search, &mut tree, &est, &w);
        assert!(out.best_config.contains(slots[0]), "must pick t(a)");
        assert!(out.best_cost < out.baseline_cost / 5.0);
        assert!(out.improvement() > 0.8);
    }

    #[test]
    fn search_respects_budget() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 100),
            ],
        );
        let mut u = Universe::new();
        let _ = setup_universe(
            &mut u,
            &[IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])],
        );
        u.refresh_sizes(&db);
        // Budget for exactly one index.
        let one = db.index_size_bytes(&IndexDef::new("t", &["a"])).unwrap();
        let est = NativeCostEstimator;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig::default(),
            budget: Some(one + one / 2),
            existing: ConfigSet::default(),
            protected: ConfigSet::default(),
            start: ConfigSet::default(),
        };
        let out = run_search(&search, &mut tree, &est, &w);
        assert!(u.config_size(&out.best_config) <= one + one / 2);
        assert_eq!(out.best_config.len(), 1);
    }

    #[test]
    fn search_removes_harmful_existing_index() {
        // Write-only workload: any index is pure maintenance cost. The
        // native estimator cannot see that; the maintenance-aware one can.
        let db = db();
        let w = workload(&db, &[("INSERT INTO t (a, b, c) VALUES (1, 2, 3)", 1_000)]);
        let mut u = Universe::new();
        let slots = setup_universe(&mut u, &[IndexDef::new("t", &["b"])]);
        u.refresh_sizes(&db);
        let existing: ConfigSet = [slots[0]].into_iter().collect();
        let est = MaintAware;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig::default(),
            budget: None,
            existing: existing.clone(),
            protected: ConfigSet::default(),
            start: existing.clone(),
        };
        let out = run_search(&search, &mut tree, &est, &w);
        assert!(
            !out.best_config.contains(slots[0]),
            "harmful index must be removed"
        );
        assert!(out.best_cost < out.baseline_cost);
    }

    #[test]
    fn protected_indexes_are_never_removed() {
        let db = db();
        let w = workload(&db, &[("INSERT INTO t (a, b, c) VALUES (1, 2, 3)", 1_000)]);
        let mut u = Universe::new();
        let slots = setup_universe(&mut u, &[IndexDef::new("t", &["b"])]);
        u.refresh_sizes(&db);
        let existing: ConfigSet = [slots[0]].into_iter().collect();
        let est = MaintAware;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig::default(),
            budget: None,
            existing: existing.clone(),
            protected: existing.clone(),
            start: existing.clone(),
        };
        let out = run_search(&search, &mut tree, &est, &w);
        assert!(out.best_config.contains(slots[0]));
    }

    /// The rollout step as it was before the bitmap: list the legal
    /// actions, draw one, apply it to a copy.
    fn random_descendant_by_list(
        search: &MctsSearch<'_>,
        config: &ConfigSet,
        rng: &mut StdRng,
    ) -> ConfigSet {
        let mut c = config.clone();
        for _ in 0..search.config.rollout_depth {
            let actions = search.legal_actions(&c);
            if actions.is_empty() {
                break;
            }
            actions[rng.random_range(0..actions.len())].apply(&mut c);
            if rng.random_bool(0.35) {
                break;
            }
        }
        c
    }

    #[test]
    fn bitmap_pick_is_the_kth_legal_action_and_one_draw() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::{prop_assert, prop_assert_eq};
        let db = db();
        property(
            "bitmap_pick_is_the_kth_legal_action_and_one_draw",
            PropConfig::default(),
            |rng, _size| {
                // Universe sizes on and around the 64-slot word edges.
                let n = match rng.random_range(0usize..4) {
                    0 => 1 + rng.random_range(0usize..3),
                    1 => 63 + rng.random_range(0usize..3),
                    2 => 127 + rng.random_range(0usize..3),
                    _ => 1 + rng.random_range(0usize..200),
                };
                let mut u = Universe::new();
                for i in 0..n {
                    u.intern(IndexDef::new(format!("g{i}"), &["x"]));
                }
                for s in &mut u.sizes {
                    *s = rng.random_range(1u64..100);
                }
                let density = [0.0, 0.1, 0.5, 1.0][rng.random_range(0usize..4)];
                let existing: ConfigSet = (0..n).filter(|_| rng.random_bool(density)).collect();
                let protected: ConfigSet =
                    existing.iter().filter(|_| rng.random_bool(0.3)).collect();
                // A descendant-shaped configuration: some existing slots
                // gone, some candidates added.
                let config: ConfigSet = (0..n)
                    .filter(|&s| {
                        if existing.contains(s) {
                            protected.contains(s) || rng.random_bool(0.8)
                        } else {
                            rng.random_bool(0.2)
                        }
                    })
                    .collect();
                let size = u.config_size(&config);
                let budget = match rng.random_range(0usize..4) {
                    0 => None,
                    1 => Some(0),
                    2 => Some(size + rng.random_range(0u64..120)), // tight
                    _ => Some(size + 100 * n as u64),              // loose
                };
                let search = MctsSearch {
                    universe: &u,
                    db: &db,
                    config: MctsConfig {
                        rollout_depth: rng.random_range(1usize..6),
                        ..MctsConfig::default()
                    },
                    budget,
                    existing,
                    protected,
                    start: config.clone(),
                };

                let masks = search.action_masks();
                let actions = search.legal_actions(&config);
                let mut words = config.words.clone();
                words.resize(masks.universe.len(), 0);
                let mut legal = Vec::new();
                let count = search.legal_slots(&masks, &words, size, &mut legal);
                prop_assert_eq!(count, actions.len());
                for (k, action) in actions.iter().enumerate() {
                    let slot = select_slot(&legal, k);
                    let picked = if config.contains(slot) {
                        Action::Remove(slot)
                    } else {
                        Action::Add(slot)
                    };
                    prop_assert_eq!(picked, *action, "rank {k} of {count}");
                }

                // Whole rollouts: the same descendant from the same draws,
                // each written over the one before it.
                let mut got = ConfigSet::default();
                for _ in 0..4 {
                    let mut by_list = rng.clone();
                    let want = random_descendant_by_list(&search, &config, &mut by_list);
                    let got_size =
                        search.random_descendant(&config, size, rng, &masks, &mut legal, &mut got);
                    got.assert_canonical();
                    prop_assert_eq!(got_size, u.config_size(&got));
                    prop_assert_eq!(&got, &want);
                    prop_assert!(*rng == by_list, "rollouts consumed different draws");
                    if let Some(b) = budget {
                        prop_assert!(u.config_size(&got) <= b.max(size));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn select_slot_is_the_kth_set_bit_in_slot_order() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::prop_assert_eq;
        // The reference: count whole words, then walk the word bit by bit.
        let reference = |words: &[u64], mut k: usize| {
            for (wi, &w) in words.iter().enumerate() {
                let ones = w.count_ones() as usize;
                if k < ones {
                    return word_slots(wi, w).nth(k).expect("k < popcount of w");
                }
                k -= ones;
            }
            unreachable!("k is below the bitmap's popcount")
        };
        let check = |words: &[u64]| {
            let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            for k in 0..ones {
                prop_assert_eq!(
                    select_slot(words, k),
                    reference(words, k),
                    "{words:x?} k={k}"
                );
            }
            Ok(())
        };
        // Bit 63 alone, all-ones words, empty leading words; every rank
        // from 0 to popcount - 1 of each.
        for words in [
            vec![1 << 63],
            vec![1, 1 << 63],
            vec![u64::MAX],
            vec![u64::MAX; 5],
            vec![0, 0, 0, 0, 1 << 63],
            vec![0, 0, u64::MAX, 0, 1],
            vec![0, 1 << 32 | 1 << 31, 0x8000_0000_0000_0001],
        ] {
            check(&words).unwrap();
        }
        property(
            "select_slot_is_the_kth_set_bit_in_slot_order",
            PropConfig::default(),
            |rng, _size| {
                let n = 1 + rng.random_range(0usize..6);
                let words: Vec<u64> = (0..n)
                    .map(|_| match rng.random_range(0usize..5) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => 1 << rng.random_range(0u32..64),
                        3 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                        _ => rng.next_u64(),
                    })
                    .collect();
                check(&words)
            },
        );
    }

    #[test]
    fn tree_persists_across_rounds() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        let mut u = Universe::new();
        let _ = setup_universe(&mut u, &[IndexDef::new("t", &["a"])]);
        u.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let mut tree = PolicyTree::new();

        tree.begin_round(0.5);
        let s1 = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig::default(),
            budget: None,
            existing: ConfigSet::default(),
            protected: ConfigSet::default(),
            start: ConfigSet::default(),
        };
        let o1 = run_search(&s1, &mut tree, &est, &w);
        let nodes_after_1 = tree.len();
        assert!(nodes_after_1 > 1);

        // Second round reuses the tree; cached evals are gone but the
        // structure remains and the same optimum is found.
        tree.begin_round(0.5);
        let o2 = run_search(&s1, &mut tree, &est, &w);
        assert_eq!(o1.best_config, o2.best_config);
        assert!(tree.len() >= nodes_after_1);
        assert_eq!(tree.round(), 2);
    }

    #[test]
    fn zero_budget_blocks_all_additions() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        let mut u = Universe::new();
        let _ = setup_universe(&mut u, &[IndexDef::new("t", &["a"])]);
        u.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig::default(),
            budget: Some(0),
            existing: ConfigSet::default(),
            protected: ConfigSet::default(),
            start: ConfigSet::default(),
        };
        let out = run_search(&search, &mut tree, &est, &w);
        assert!(out.best_config.is_empty());
        assert_eq!(out.best_cost, out.baseline_cost);
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let db = db();
        let mut u = Universe::new();
        let _ = u.intern(IndexDef::new("t", &["a"]));
        u.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &u,
            db: &db,
            config: MctsConfig {
                iterations: 20,
                ..MctsConfig::default()
            },
            budget: None,
            existing: ConfigSet::default(),
            protected: ConfigSet::default(),
            start: ConfigSet::default(),
        };
        let out = run_search(&search, &mut tree, &est, &[]);
        assert_eq!(out.baseline_cost, 0.0);
        assert_eq!(out.best_cost, 0.0);
    }

    #[test]
    fn search_outcome_improvement_math() {
        let o = SearchOutcome {
            best_config: ConfigSet::default(),
            baseline_cost: 100.0,
            best_cost: 75.0,
            iterations: 10,
            evaluations: 20,
            cache_hits: 5,
            elapsed: std::time::Duration::ZERO,
        };
        assert!((o.improvement() - 0.25).abs() < 1e-12);
        let regressed = SearchOutcome {
            best_cost: 120.0,
            ..o.clone()
        };
        assert_eq!(regressed.improvement(), 0.0);
        let zero_base = SearchOutcome {
            baseline_cost: 0.0,
            ..o
        };
        assert_eq!(zero_base.improvement(), 0.0);
    }

    #[test]
    fn universe_config_defs_and_sizes() {
        let db = db();
        let mut u = Universe::new();
        let a = u.intern(IndexDef::new("t", &["a"]));
        let b = u.intern(IndexDef::new("t", &["b", "c"]));
        u.refresh_sizes(&db);
        assert!(u.size(a) > 0 && u.size(b) > 0);
        let cfg: ConfigSet = [a, b].into_iter().collect();
        assert_eq!(u.config_defs(&cfg).count(), 2);
        assert_eq!(u.config_size(&cfg), u.size(a) + u.size(b));
        assert!(!u.is_empty());
        // Unknown-table defs get a sentinel size rather than panicking.
        let ghost = u.intern(IndexDef::new("ghost", &["x"]));
        u.refresh_sizes(&db);
        assert!(u.size(ghost) > (1 << 40));
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 50),
                ("SELECT * FROM t WHERE b = 5 AND c = 2", 50),
                ("INSERT INTO t (a, b, c) VALUES (1, 2, 3)", 30),
            ],
        );
        let mut u = Universe::new();
        let _ = setup_universe(
            &mut u,
            &[
                IndexDef::new("t", &["a"]),
                IndexDef::new("t", &["b", "c"]),
                IndexDef::new("t", &["c"]),
            ],
        );
        u.refresh_sizes(&db);
        let est = MaintAware;
        let run = || {
            let mut tree = PolicyTree::new();
            tree.begin_round(0.5);
            let search = MctsSearch {
                universe: &u,
                db: &db,
                config: MctsConfig::default(),
                budget: None,
                existing: ConfigSet::default(),
                protected: ConfigSet::default(),
                start: ConfigSet::default(),
            };
            run_search(&search, &mut tree, &est, &w)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_cost, b.best_cost);
    }
}
