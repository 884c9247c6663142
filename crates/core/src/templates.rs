//! `SQL2Template` — the template store (§IV-A step 1 and §IV-C).
//!
//! Real workloads contain millions of queries but only a handful of access
//! patterns ("in many scenarios, many queries come from the same templates
//! and only some predicate values are different"). The store:
//!
//! * fingerprints every incoming query (literals → placeholders) and
//!   matches it against known templates in O(1);
//! * keeps at most `max_templates` entries, evicting by an LFU/LRU hybrid
//!   score when full (§IV-C: "similar to the LRU strategies, we only
//!   reserve templates that are most frequently matched");
//! * detects workload shifts — when the recent match rate drops below a
//!   threshold — and responds by multiplying all frequencies by a decay
//!   factor and dropping cold templates (§IV-C's second rule);
//! * caches each template's parsed statement and [`QueryShape`] so the
//!   expensive analysis happens once per *template*, not once per query.
//!   That is the entire source of the >98.5% overhead reduction in Fig. 8;
//! * keeps each template's compiled fast-path form ([`crate::fastpath`])
//!   with its entry, current under table growth, so a repeat statement is
//!   *bound*, never parsed: `TemplateStore::compiled_for` serves the
//!   online loop live, `TemplateStore::publish` freezes the same entries
//!   for the serving executors;
//! * keeps each template's candidate emission
//!   ([`CandidateGenerator::emit`]) with its entry, under the same rule: a
//!   tuning boundary shares the shapes (`Arc`) instead of copying them and
//!   emits again only for templates whose tables grew.

use crate::candgen::{CandidateConfig, CandidateGenerator, Emitted};
use crate::fastpath::{
    stamp_of, Compiled, CompiledTemplate, FastPathCache, Upkeep, UpkeepCounters,
};
use autoindex_estimator::cost_cache::shape_key;
use autoindex_sql::{
    fingerprint, parse_statement, scan_fingerprint, LiteralBuf, SqlError, Statement, TemplateId,
};
use autoindex_storage::catalog::Catalog;
use autoindex_storage::shape::QueryShape;
use autoindex_support::hash::{fnv1a_from, U64HashMap, FNV_OFFSET};
use autoindex_support::json::{obj, Json, JsonError};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// Configuration of the template store.
#[derive(Debug, Clone)]
pub struct TemplateStoreConfig {
    /// Maximum number of retained templates (paper: e.g. 5000 for TPC-C).
    pub max_templates: usize,
    /// Window length (queries) over which the match rate is measured.
    pub shift_window: u64,
}

impl Default for TemplateStoreConfig {
    fn default() -> Self {
        TemplateStoreConfig {
            max_templates: 5_000,
            shift_window: 2_000,
        }
    }
}

/// One template: the canonical statement plus bookkeeping.
#[derive(Debug, Clone)]
pub struct TemplateEntry {
    /// Dense template id, assigned in first-seen order; never reused for
    /// the life of the store. (Compiled entries are keyed on the
    /// fingerprint hash, like the store itself.)
    pub id: TemplateId,
    /// Canonical template text (fingerprint text).
    pub text: String,
    /// The template's first statement as written, parsed: its literals
    /// are that statement's, not placeholders.
    pub statement: Statement,
    /// Pre-extracted shape (against the catalog at observation time),
    /// shared with the workload of every tuning boundary since.
    pub shape: Arc<QueryShape>,
    /// [`shape_key`] of `shape`, computed where the shape is extracted: the
    /// delta-cost cache's template fingerprint. Kept as bytes: a `u128`
    /// field raises the entry's alignment to 16 and moves the fields
    /// `observe` touches per statement (`bank_write_263` read −0.9 %
    /// `stmts_per_s`, 0 of 10 pairs, with it; +2 %, 5 of 6, without).
    pub(crate) shape_key: [u8; 16],
    /// Decayed match frequency.
    pub frequency: f64,
    /// Logical timestamp of the last match.
    pub last_seen: u64,
    /// The template's compiled fast-path form; goes when the entry goes.
    pub(crate) compiled: Compiled,
    /// The template's candidate emission as last emitted; goes when the
    /// entry goes, or the shape is re-extracted.
    pub(crate) emission: KeptEmission,
}

/// A workload as a tuning boundary takes it: the shapes shared, not
/// copied, with their weights, each template's `shape_key`, and where each
/// keeps its candidate emission — one of each per template, in order.
pub(crate) struct KeyedWorkload<'s> {
    pub(crate) workload: Vec<(Arc<QueryShape>, u64)>,
    pub(crate) shape_keys: Vec<u128>,
    pub(crate) kept: Vec<&'s KeptEmission>,
}

/// A template's candidate emission with what it was emitted at: it is
/// current while the fold of its touched tables' growth stamps and the
/// candidate config are those (the rule compiled forms and cost terms live
/// by: whatever else moved — frequencies, the index set — it did not read).
pub(crate) struct Emission {
    stamps: u64,
    config: CandidateConfig,
    pub(crate) candidates: Vec<Emitted>,
}

/// Where a template keeps its [`Emission`] between boundaries: one pointer.
/// A cell, because a boundary reads the store through `&self`
/// (`AutoIndex::diagnose` takes `&self`): it takes each emission out,
/// merges them all, and puts them back. A copied entry keeps nothing.
#[derive(Default)]
pub(crate) struct KeptEmission(Cell<Option<Box<Emission>>>);

impl KeptEmission {
    /// The emission of `shape` under `generator` against `catalog`, taken
    /// out of this slot: the kept one when it is current, else a fresh one
    /// (and `false`). [`KeptEmission::keep`] puts it back.
    pub(crate) fn take(
        &self,
        shape: &QueryShape,
        generator: &CandidateGenerator,
        catalog: &Catalog,
    ) -> (Box<Emission>, bool) {
        let stamps = shape.tables.iter().fold(FNV_OFFSET, |h, t| {
            fnv1a_from(h, &stamp_of(catalog, &t.table).to_le_bytes())
        });
        match self.0.take() {
            Some(kept) if kept.stamps == stamps && kept.config == generator.config => (kept, true),
            _ => {
                let fresh = Emission {
                    stamps,
                    config: generator.config.clone(),
                    candidates: generator.emit(shape, catalog),
                };
                (Box::new(fresh), false)
            }
        }
    }

    /// Keep `emission` until the next boundary.
    pub(crate) fn keep(&self, emission: Box<Emission>) {
        self.0.set(Some(emission));
    }
}

impl Clone for KeptEmission {
    fn clone(&self) -> Self {
        KeptEmission::default()
    }
}

impl fmt::Debug for KeptEmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeptEmission")
    }
}

/// The template store.
pub struct TemplateStore {
    config: TemplateStoreConfig,
    /// Keyed by the canonical text's FNV-1a fingerprint, already a hash.
    /// Nothing reads this map in its iteration order: eviction breaks
    /// score ties by hash, the workload sorts, a snapshot sorts by hash and
    /// a publication's ordinals only index its own plan slots.
    by_hash: U64HashMap<TemplateEntry>,
    /// Logical clock: total queries observed.
    clock: u64,
    /// Window bookkeeping for shift detection.
    window_queries: u64,
    window_new_templates: u64,
    /// Next template id to hand out (monotonic; never reused).
    next_id: u32,
    /// Number of workload shifts detected so far.
    pub shifts_detected: u64,
    /// The compiled entries as last published; `None` once a template was
    /// born or dropped, or an entry compiled or re-folded, since.
    published: Option<Arc<FastPathCache>>,
    /// Templates dropped so far (evicted or decayed away): what a caller
    /// that keeps state per template compares to know when to prune it.
    removed: u64,
    /// Where [`TemplateStore::observe`]'s scan puts the literals it skips
    /// (kept for its capacity; nothing reads the values).
    scanned: LiteralBuf,
}

impl TemplateStore {
    /// Create an empty store.
    pub fn new(config: TemplateStoreConfig) -> Self {
        TemplateStore {
            config,
            by_hash: U64HashMap::default(),
            clock: 0,
            window_queries: 0,
            window_new_templates: 0,
            next_id: 0,
            shifts_detected: 0,
            published: None,
            removed: 0,
            scanned: LiteralBuf::new(),
        }
    }

    fn alloc_id(&mut self) -> TemplateId {
        let id = TemplateId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Observe one query. Returns the template hash, or a parse error for
    /// SQL the front-end cannot analyse (the caller typically skips those).
    ///
    /// The hot path — a repeated template — costs one allocation-free scan
    /// of the text ([`scan_fingerprint`]) plus one hash lookup; the
    /// canonical template text, parsing and shape extraction run only for
    /// new templates. From the hash on this *is*
    /// [`TemplateStore::observe_prehashed`].
    pub fn observe(&mut self, sql: &str, catalog: &Catalog) -> Result<u64, SqlError> {
        self.clock += 1;
        self.window_queries += 1;
        let hash = match scan_fingerprint(sql, &mut self.scanned) {
            Some(hash) => hash,
            // The scanner turns down exactly what the tokenizer does, which
            // reports the error.
            None => fingerprint(sql)?.hash,
        };
        self.touch_or_admit(hash, sql, catalog)
    }

    /// Observe a query whose fingerprint hash is already known (computed by
    /// the serving loop's zero-allocation scanner). The repeated-template
    /// hot path skips the lexer pass entirely — one hash lookup. A miss
    /// (a new template, or one evicted since the cache was built)
    /// fingerprints the text after all, for the canonical template text.
    /// [`TemplateStore::observe`] ends here too, which is what keeps
    /// fast-path-on and fast-path-off tuner decisions byte-identical.
    pub fn observe_prehashed(
        &mut self,
        hash: u64,
        sql: &str,
        catalog: &Catalog,
    ) -> Result<u64, SqlError> {
        self.clock += 1;
        self.window_queries += 1;
        self.touch_or_admit(hash, sql, catalog)
    }

    /// Count a match of template `hash`, or admit `sql` as a new template
    /// under its fingerprint: canonical text once, parse once, analyse
    /// once, evict when full.
    fn touch_or_admit(&mut self, hash: u64, sql: &str, catalog: &Catalog) -> Result<u64, SqlError> {
        if let Some(e) = self.by_hash.get_mut(&hash) {
            e.frequency += 1.0;
            e.last_seen = self.clock;
            self.maybe_handle_shift();
            return Ok(hash);
        }
        let fp = fingerprint(sql)?;
        self.window_new_templates += 1;
        let statement = parse_statement(sql)?;
        let shape = Arc::new(QueryShape::extract(&statement, catalog));
        let shape_key = shape_key(&shape).to_le_bytes();
        if self.by_hash.len() >= self.config.max_templates {
            self.evict_one();
        }
        let id = self.alloc_id();
        self.by_hash.insert(
            fp.hash,
            TemplateEntry {
                id,
                text: fp.text,
                statement,
                shape,
                shape_key,
                frequency: 1.0,
                last_seen: self.clock,
                compiled: Compiled::Pending,
                emission: KeptEmission::default(),
            },
        );
        self.published = None;
        self.maybe_handle_shift();
        Ok(fp.hash)
    }

    /// The compiled template of `hash`, current against `catalog`, with
    /// the live reader's bindable clone of its skeleton — `None` when the
    /// template is unknown (never seen, evicted, decayed) or ineligible.
    /// While the catalog stands still this checks nothing; after growth,
    /// an entry is re-folded at its next use if a table it touches grew.
    ///
    /// `catalog` must be the one catalog this store's entries are kept
    /// against (table stamps compare within one catalog's history).
    pub(crate) fn compiled_for(
        &mut self,
        hash: u64,
        catalog: &Catalog,
        upkeep: &UpkeepCounters,
    ) -> Option<(&CompiledTemplate, &mut QueryShape)> {
        let entry = self.by_hash.get_mut(&hash)?;
        let step = entry.compiled.upkeep(&entry.text, catalog);
        upkeep.record(step);
        if step.changed() {
            self.published = None;
        }
        match &mut entry.compiled {
            Compiled::Ready {
                template, bound, ..
            } => {
                let bound = bound.get_or_insert_with(|| template.skeleton().clone());
                Some((&**template, bound))
            }
            _ => None,
        }
    }

    /// Freeze the compiled entries for one publication, every one brought
    /// current against `catalog` first (pending templates compiled, those
    /// whose tables grew re-folded). Copy-on-write: while no template was
    /// born or dropped and no touched table grew, this is the `Arc` the
    /// last call returned, and across a change every untouched entry is
    /// the same `Arc` as before. Same `catalog` condition as
    /// [`TemplateStore::compiled_for`].
    pub(crate) fn publish(
        &mut self,
        catalog: &Catalog,
        upkeep: &UpkeepCounters,
    ) -> Arc<FastPathCache> {
        for entry in self.by_hash.values_mut() {
            let step = entry.compiled.upkeep(&entry.text, catalog);
            if step.changed() {
                self.published = None;
            }
            // To a publication, every entry it did not have to touch is
            // one it reuses, checked or not.
            let untouched = step == Upkeep::Current && entry.compiled.template().is_some();
            upkeep.record(if untouched { Upkeep::Reused } else { step });
        }
        let entries = &self.by_hash;
        Arc::clone(self.published.get_or_insert_with(|| {
            Arc::new(FastPathCache::freeze(
                entries.iter().map(|(h, e)| (*h, &e.compiled)),
            ))
        }))
    }

    /// Templates that currently hold a compiled form (never more than
    /// [`TemplateStore::len`]: the form lives in the template's entry).
    pub fn compiled_len(&self) -> usize {
        let ready = |e: &&TemplateEntry| e.compiled.template().is_some();
        self.by_hash.values().filter(ready).count()
    }

    /// Evict the template with the lowest LFU/LRU score; of equal scores,
    /// the lowest template hash (the map's iteration order differs from
    /// store to store and must not pick).
    fn evict_one(&mut self) {
        let clock = self.clock;
        if let Some((&h, _)) = self.by_hash.iter().min_by(|(ha, a), (hb, b)| {
            score(a, clock)
                .partial_cmp(&score(b, clock))
                .expect("scores are finite")
                .then_with(|| ha.cmp(hb))
        }) {
            self.by_hash.remove(&h);
            self.removed += 1;
        }
    }

    /// Check the shift window; decay if the new-template rate is high.
    fn maybe_handle_shift(&mut self) {
        /// Match rate under which a workload shift is declared.
        const SHIFT_THRESHOLD: f64 = 0.5;
        if self.window_queries < self.config.shift_window {
            return;
        }
        let new_rate = self.window_new_templates as f64 / self.window_queries as f64;
        if new_rate > 1.0 - SHIFT_THRESHOLD {
            self.decay();
            self.shifts_detected += 1;
        }
        self.window_queries = 0;
        self.window_new_templates = 0;
    }

    /// Apply the §IV-C decay: multiply all frequencies, drop cold entries.
    pub fn decay(&mut self) {
        /// Decay factor applied to all frequencies on workload shift.
        const DECAY: f64 = 0.5;
        /// Frequency below which a template is dropped during decay.
        const MIN_FREQUENCY: f64 = 0.75;
        let before = self.by_hash.len();
        self.by_hash.retain(|_, e| {
            e.frequency *= DECAY;
            e.frequency >= MIN_FREQUENCY
        });
        if self.by_hash.len() != before {
            self.published = None;
            self.removed += (before - self.by_hash.len()) as u64;
        }
    }

    /// Number of retained templates.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Templates dropped since the store was made, by eviction or decay.
    pub(crate) fn removed(&self) -> u64 {
        self.removed
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// Total queries observed.
    pub fn observed(&self) -> u64 {
        self.clock
    }

    /// Look up a template by hash.
    pub fn get(&self, hash: u64) -> Option<&TemplateEntry> {
        self.by_hash.get(&hash)
    }

    /// The dense id of a template, by hash.
    pub fn id_of(&self, hash: u64) -> Option<TemplateId> {
        self.by_hash.get(&hash).map(|e| e.id)
    }

    /// Iterate all templates.
    pub fn iter(&self) -> impl Iterator<Item = &TemplateEntry> {
        self.by_hash.values()
    }

    /// Iterate `(fingerprint hash, template)` pairs — what
    /// [`FastPathCache::build`] compiles from scratch.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &TemplateEntry)> {
        self.by_hash.iter().map(|(h, e)| (*h, e))
    }

    /// The template-level workload: `(shape, rounded frequency)` pairs,
    /// ordered by descending frequency. This is what the estimator and the
    /// search consume; it copies every shape (a tuning boundary shares
    /// them instead).
    pub fn workload(&self) -> Vec<(QueryShape, u64)> {
        let shared = self.keyed_workload().workload;
        shared
            .into_iter()
            .map(|(shape, n)| (QueryShape::clone(&shape), n))
            .collect()
    }

    /// [`TemplateStore::workload`] as a tuning boundary takes it, in the
    /// same order.
    pub(crate) fn keyed_workload(&self) -> KeyedWorkload<'_> {
        let mut v: Vec<(&TemplateEntry, u64)> = self
            .by_hash
            .values()
            .map(|e| (e, e.frequency.round().max(1.0) as u64))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.text.cmp(&b.0.text)));
        let mut keyed = KeyedWorkload {
            workload: Vec::with_capacity(v.len()),
            shape_keys: Vec::with_capacity(v.len()),
            kept: Vec::with_capacity(v.len()),
        };
        for (e, n) in v {
            keyed.workload.push((Arc::clone(&e.shape), n));
            keyed.shape_keys.push(u128::from_le_bytes(e.shape_key));
            keyed.kept.push(&e.emission);
        }
        keyed
    }

    /// Re-extract all template shapes against a (changed) catalog — needed
    /// after significant data growth so the planner sees fresh statistics.
    /// A re-extracted template emits its candidates afresh.
    pub fn refresh_shapes(&mut self, catalog: &Catalog) {
        for e in self.by_hash.values_mut() {
            e.shape = Arc::new(QueryShape::extract(&e.statement, catalog));
            e.shape_key = shape_key(&e.shape).to_le_bytes();
            e.emission = KeptEmission::default();
        }
    }

    /// Serialise the store's state (templates + counters) to JSON, so a
    /// management process can persist its knowledge across restarts.
    ///
    /// Each entry records its statement as **canonical SQL** (the parser's
    /// `Display` output, which round-trips through `parse_statement`);
    /// [`TemplateStore::from_json`] re-parses it and re-extracts the shape
    /// against the caller's catalog, so snapshots stay valid across schema
    /// statistics changes and the snapshot format stays independent of the
    /// AST's in-memory layout. Template hashes are 64-bit and JSON numbers
    /// are doubles, so hashes are stored as decimal strings.
    ///
    /// Entries are sorted by hash: identical state ⇒ byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut entries: Vec<(&u64, &TemplateEntry)> = self.by_hash.iter().collect();
        entries.sort_by_key(|(h, _)| **h);
        let entries: Vec<Json> = entries
            .into_iter()
            .map(|(h, e)| {
                obj([
                    ("hash", Json::from(h.to_string())),
                    ("text", Json::from(e.text.as_str())),
                    ("sql", Json::from(e.statement.to_string())),
                    ("frequency", Json::from(e.frequency)),
                    ("last_seen", Json::from(e.last_seen)),
                ])
            })
            .collect();
        obj([
            ("entries", Json::Array(entries)),
            ("clock", Json::from(self.clock)),
            ("shifts_detected", Json::from(self.shifts_detected)),
        ])
        .to_string()
    }

    /// Restore a store from [`TemplateStore::to_json`] output with fresh
    /// config, re-analysing every template against `catalog`. Shift-window
    /// counters restart (they are transient).
    pub fn from_json(
        json: &str,
        config: TemplateStoreConfig,
        catalog: &Catalog,
    ) -> Result<TemplateStore, JsonError> {
        let bad = |message: String| JsonError { offset: 0, message };
        let v = Json::parse(json)?;
        let entries = v
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("snapshot: missing 'entries' array".into()))?;
        let mut by_hash = U64HashMap::with_capacity_and_hasher(entries.len(), Default::default());
        // Snapshot entries are hash-sorted, so re-assigned ids are
        // deterministic for a given snapshot.
        let mut next_id = 0u32;
        for (i, e) in entries.iter().enumerate() {
            let hash: u64 = e
                .get("hash")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("snapshot entry {i}: bad 'hash'")))?;
            let text = e
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("snapshot entry {i}: bad 'text'")))?
                .to_string();
            let sql = e
                .get("sql")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("snapshot entry {i}: bad 'sql'")))?;
            let statement = parse_statement(sql)
                .map_err(|err| bad(format!("snapshot entry {i}: unparsable sql: {err}")))?;
            let shape = Arc::new(QueryShape::extract(&statement, catalog));
            let shape_key = shape_key(&shape).to_le_bytes();
            let frequency = e
                .get("frequency")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(format!("snapshot entry {i}: bad 'frequency'")))?;
            let last_seen = e
                .get("last_seen")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("snapshot entry {i}: bad 'last_seen'")))?;
            let id = TemplateId(next_id);
            next_id += 1;
            by_hash.insert(
                hash,
                TemplateEntry {
                    id,
                    text,
                    statement,
                    shape,
                    shape_key,
                    frequency,
                    last_seen,
                    compiled: Compiled::Pending,
                    emission: KeptEmission::default(),
                },
            );
        }
        let clock = v
            .get("clock")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("snapshot: missing 'clock'".into()))?;
        let shifts_detected = v
            .get("shifts_detected")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("snapshot: missing 'shifts_detected'".into()))?;
        Ok(TemplateStore {
            config,
            by_hash,
            clock,
            window_queries: 0,
            window_new_templates: 0,
            next_id,
            shifts_detected,
            published: None,
            removed: 0,
            scanned: LiteralBuf::new(),
        })
    }
}

/// Eviction score: frequency damped by staleness (smaller = evict first).
fn score(e: &TemplateEntry, clock: u64) -> f64 {
    let age = (clock - e.last_seen) as f64;
    e.frequency / (1.0 + age / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_storage::catalog::{Column, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 10_000)
                .column(Column::int("a", 10_000))
                .column(Column::int("b", 100))
                .build()
                .unwrap(),
        );
        c
    }

    fn small_store(max: usize) -> TemplateStore {
        TemplateStore::new(TemplateStoreConfig {
            max_templates: max,
            ..TemplateStoreConfig::default()
        })
    }

    #[test]
    fn same_pattern_maps_to_one_template() {
        let c = catalog();
        let mut s = small_store(100);
        for i in 0..50 {
            s.observe(&format!("SELECT * FROM t WHERE a = {i}"), &c)
                .unwrap();
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.observed(), 50);
        let w = s.workload();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].1, 50);
    }

    #[test]
    fn different_patterns_get_distinct_templates() {
        let c = catalog();
        let mut s = small_store(100);
        s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
        s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap();
        s.observe("SELECT * FROM t WHERE a = 1 AND b = 2", &c)
            .unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn capacity_evicts_least_valuable() {
        let c = catalog();
        let mut s = small_store(2);
        for _ in 0..10 {
            s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
        }
        s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap();
        // Third distinct template forces an eviction; the hot template must
        // survive.
        s.observe("SELECT a FROM t WHERE b = 2", &c).unwrap();
        assert_eq!(s.len(), 2);
        let texts: Vec<&str> = s.iter().map(|e| e.text.as_str()).collect();
        assert!(
            texts
                .iter()
                .any(|t| t.contains("a = $") || t.contains("a = $".trim())),
            "hot template evicted: {texts:?}"
        );
    }

    #[test]
    fn eviction_breaks_score_ties_the_same_way_in_every_store() {
        // A (matched twice, then idle for 1004 statements: 2 / 2.004) and B
        // (matched once, idle for two: 1 / 1.002) score exactly the same
        // when D arrives at a full store.
        let c = catalog();
        let survivors = || {
            let mut s = TemplateStore::new(TemplateStoreConfig {
                max_templates: 3,
                shift_window: u64::MAX,
            });
            for _ in 0..2 {
                s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
            }
            for _ in 0..1001 {
                s.observe("SELECT a FROM t WHERE a = 1 AND b = 2", &c)
                    .unwrap();
            }
            s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap();
            s.observe("SELECT a FROM t WHERE a = 1 AND b = 2", &c)
                .unwrap();
            let scores: Vec<f64> = s.iter().map(|e| score(e, s.clock + 1)).collect();
            let lowest = scores.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(
                scores.iter().filter(|x| **x == lowest).count(),
                2,
                "the sequence must produce a tie for eviction: {scores:?}"
            );
            s.observe("SELECT b FROM t WHERE b = 2", &c).unwrap();
            let mut kept: Vec<u64> = s.entries().map(|(h, _)| h).collect();
            kept.sort_unstable();
            kept
        };
        let first = survivors();
        assert_eq!(first.len(), 3);
        for _ in 0..63 {
            assert_eq!(survivors(), first);
        }
    }

    #[test]
    fn workload_sorted_by_frequency() {
        let c = catalog();
        let mut s = small_store(100);
        for _ in 0..3 {
            s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap();
        }
        for _ in 0..7 {
            s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
        }
        let w = s.workload();
        assert_eq!(w[0].1, 7);
        assert_eq!(w[1].1, 3);
    }

    #[test]
    fn decay_drops_cold_templates() {
        let c = catalog();
        let mut s = small_store(100);
        s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap(); // freq 1
        for _ in 0..10 {
            s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap(); // freq 10
        }
        s.decay(); // 0.5, 5 — min_frequency 0.75 drops the first
        assert_eq!(s.len(), 1);
        assert!(s.iter().next().unwrap().text.contains("b ="));
    }

    #[test]
    fn shift_detection_fires_on_novel_flood() {
        let c = catalog();
        let mut s = TemplateStore::new(TemplateStoreConfig {
            max_templates: 10_000,
            shift_window: 100,
        });
        // Phase 1: one hot template — no shift.
        for i in 0..200 {
            s.observe(&format!("SELECT * FROM t WHERE a = {i}"), &c)
                .unwrap();
        }
        assert_eq!(s.shifts_detected, 0);
        // Phase 2: every query is structurally new (distinct column lists
        // simulated by varying the projection shape).
        for i in 0..200 {
            let cols = (0..(i % 97) + 1)
                .map(|_| "a")
                .collect::<Vec<_>>()
                .join(", b, ");
            s.observe(&format!("SELECT {cols} FROM t WHERE b = 1"), &c)
                .unwrap();
        }
        assert!(s.shifts_detected >= 1);
    }

    #[test]
    fn bad_sql_is_an_error_but_counts_observation() {
        let c = catalog();
        let mut s = small_store(10);
        assert!(s.observe("SELEKT zzz", &c).is_err());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn refresh_shapes_tracks_catalog_growth() {
        let mut c = catalog();
        let mut s = small_store(10);
        s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
        let sel_before = s.iter().next().unwrap().shape.tables[0].filter_sel;
        c.grow_table("t", 1_000_000).unwrap();
        s.refresh_shapes(&c);
        let sel_after = s.iter().next().unwrap().shape.tables[0].filter_sel;
        assert!(sel_after < sel_before);
    }

    #[test]
    fn json_snapshot_roundtrips() {
        let c = catalog();
        let mut s = small_store(50);
        for i in 0..30 {
            s.observe(&format!("SELECT * FROM t WHERE a = {i}"), &c)
                .unwrap();
            s.observe(&format!("SELECT * FROM t WHERE b = {i} AND a = 2"), &c)
                .unwrap();
        }
        let json = s.to_json();
        let restored = TemplateStore::from_json(&json, TemplateStoreConfig::default(), &c).unwrap();
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.observed(), s.observed());
        // The restored workload matches, including shapes and counts.
        assert_eq!(restored.workload(), s.workload());
        // Determinism: serialising the restored store reproduces the bytes.
        assert_eq!(restored.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        let c = catalog();
        assert!(TemplateStore::from_json("not json", TemplateStoreConfig::default(), &c).is_err());
        assert!(TemplateStore::from_json(
            r#"{"entries": [{}]}"#,
            TemplateStoreConfig::default(),
            &c
        )
        .is_err());
    }

    #[test]
    fn template_ids_are_dense_and_first_seen_ordered() {
        let c = catalog();
        let mut s = small_store(10);
        let h1 = s.observe("SELECT * FROM t WHERE a = 1", &c).unwrap();
        let h2 = s.observe("SELECT * FROM t WHERE b = 1", &c).unwrap();
        s.observe("SELECT * FROM t WHERE a = 99", &c).unwrap(); // repeat of h1
        assert_eq!(s.id_of(h1), Some(TemplateId(0)));
        assert_eq!(s.id_of(h2), Some(TemplateId(1)));
        assert_eq!(s.entries().count(), 2);
    }

    #[test]
    fn observe_prehashed_matches_observe_bookkeeping() {
        let c = catalog();
        let mut a = small_store(10);
        let mut b = small_store(10);
        let queries = [
            "SELECT * FROM t WHERE a = 1",
            "SELECT * FROM t WHERE a = 2",
            "SELECT * FROM t WHERE b = 7",
            "SELECT * FROM t WHERE a = 3",
        ];
        for q in queries {
            let h = a.observe(q, &c).unwrap();
            // Simulate the serving loop: scanner supplies the hash.
            let h2 = b
                .observe_prehashed(autoindex_sql::fingerprint(q).unwrap().hash, q, &c)
                .unwrap();
            assert_eq!(h, h2);
        }
        assert_eq!(a.observed(), b.observed());
        assert_eq!(a.len(), b.len());
        for (h, ea) in a.entries() {
            let eb = b.get(h).unwrap();
            assert_eq!(ea.id, eb.id);
            assert_eq!(ea.frequency.to_bits(), eb.frequency.to_bits());
            assert_eq!(ea.last_seen, eb.last_seen);
        }
        // A miss on the prehashed path (unknown hash) falls back to the
        // full path and still lands on the canonical fingerprint key.
        let h = b
            .observe_prehashed(0xdead_beef, "SELECT a FROM t WHERE b = 1", &c)
            .unwrap();
        assert!(b.get(h).is_some());
        assert_ne!(h, 0xdead_beef);
    }

    #[test]
    fn one_row_inserts_unify_across_values() {
        let c = catalog();
        let mut s = small_store(10);
        s.observe("INSERT INTO t (a, b) VALUES (1, 2)", &c).unwrap();
        s.observe("INSERT INTO t (a, b) VALUES (9, 8)", &c).unwrap();
        assert_eq!(s.len(), 1);
    }

    /// Pinned, not endorsed: a template is a token structure, so the same
    /// statement with more rows or a longer `IN` list is another template
    /// (`perf`'s `parse_adhoc` digest depends on it; ROADMAP "Parked").
    #[test]
    fn row_counts_and_in_list_lengths_are_separate_templates() {
        let c = catalog();
        let mut s = small_store(10);
        s.observe("INSERT INTO t (a, b) VALUES (1, 2)", &c).unwrap();
        s.observe("INSERT INTO t (a, b) VALUES (3, 4), (5, 6)", &c)
            .unwrap();
        assert_eq!(s.len(), 2, "VALUES ($, $) and VALUES ($, $), ($, $)");
        s.observe("SELECT * FROM t WHERE a IN (1)", &c).unwrap();
        s.observe("SELECT * FROM t WHERE a IN (1, 2, 3)", &c)
            .unwrap();
        assert_eq!(s.len(), 4, "IN ($) and IN ($, $, $)");
    }
}
