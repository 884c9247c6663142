//! Compiled-template query fast path: repeat statements skip the parser.
//!
//! The paper's overhead argument (§IV-A `SQL2Template`, Fig. 8) is that a
//! repeat statement is never re-analysed — yet `parse_statement` +
//! `QueryShape::extract`, both allocation-heavy, were most of a statement's
//! budget although almost every OLTP statement repeats a known template.
//! This module compiles each [`TemplateEntry`] into a bindable *skeleton*:
//! the template's pre-extracted [`QueryShape`] plus the exact positions
//! where literal values go. Executing a repeat statement then costs one
//! fingerprint scan ([`autoindex_sql::fingerprint::scan_fingerprint`],
//! zero-copy), one hash lookup, a handful of slot writes into a reusable
//! shape clone, and one fold of the selectivity factors whose leaves read
//! a literal ([`TemplateSelProgram`], through the
//! [`fold_factor`](autoindex_storage::shape::fold_factor) walk extraction
//! folds through) — no parser, no AST, no fresh extraction.
//! `FrontEnd::resolve` is that sequence, and its fallback, once: the
//! engine's workers run it against a frozen [`FastPathCache`] — and, for a
//! template that cache lacks, against the *late* entry the publication they
//! run under compiles at the template's third statement under it, once for
//! every worker (`engine::Publication`; the first two take the parse path,
//! so a template seen once or twice in an epoch is never compiled for it) —
//! [`OnlineAutoIndex::feed`](crate::online::OnlineAutoIndex::feed) against
//! the template store's live entries, each compiled at its first lookup.
//!
//! # Maintained, not rebuilt
//!
//! A [`CompiledTemplate`] is self-contained and kept with its template
//! (the private `Compiled` state of a [`TemplateEntry`]; dropped when the
//! template is evicted or decays). What its text determines — skeleton,
//! slot writes, the [`SelTrace`] extraction recorded: its `Frame`, which
//! holds no statistic — is made once, and under the serving loop once per
//! run for every tenant of one schema (`FrameCache`): a frame a late entry
//! built outlives its epoch in the publication that compiled it, so the
//! lane's next publication folds it instead of building it again. What the
//! statistics determine — the selectivity
//! program: per factor its leaves' constants and literal-dependent
//! comparisons — carries the
//! [growth stamp](autoindex_storage::catalog::Table::stamp) of every table
//! the template touches, and the one invalidation rule is: **an entry is
//! valid iff every touched table's stamp is the one it was folded at**;
//! otherwise the kept trace is *re-folded* against the current catalog
//! ([`TemplateSelProgram::compile`]: no parse, no extraction, nothing
//! catalog-wide) and every other entry is reused as is. Entries sit behind
//! `Arc`s, so a publication that follows an epoch in which no template was
//! born and no touched table grew hands out the very same cache; an entry
//! no frozen cache shares (the online loop's) is re-folded in place, its
//! program and stamps rewritten in their own buffers.
//!
//! # The sentinel trick
//!
//! Template text stores literals as `$` and a `LIKE` pattern as `'$%'` or
//! `'%$'` (see `autoindex_sql::fingerprint`). To learn *where* those
//! literals land in the extracted shape, the compiler replaces the k-th `$`
//! with the integer `SENTINEL_BASE + k` — or, in a pattern, with a sentinel
//! *string* of the pattern's anchoring class (`§k` for a prefix pattern,
//! `%§k` for a suffix one) — parses the result once, extracts it with
//! [`QueryShape::extract_traced`], and scans the shape for sentinels: each
//! occurrence (sign included — `- $` parses to a negated sentinel; every
//! value of an `IN` list; every copy DNF distribution made) becomes a
//! `SlotWrite`. Canonical template text contains no integer literals and no
//! strings of its own, so sentinels cannot collide with baked constants.
//!
//! # Bit-identity contract
//!
//! A bound shape must equal what `parse_statement` + `extract` would
//! produce for the concrete statement against the catalog as it stands at
//! that statement, **bit for bit** (`filter_sel` included) — the serving
//! determinism contract diffs fast-path-on and fast-path-off transcripts
//! byte-for-byte, and `feed` is held to its parse-path composition the
//! same way. Two mechanisms enforce this:
//!
//! * **Eligibility**: templates whose predicates are `AND` / `OR` trees
//!   over `Cmp` / `Between` / `IS NULL` / join-equality atoms, `IN` lists
//!   of either polarity and `LIKE` patterns of either anchoring compile. An
//!   `IN` list's arity is part of its template, and its selectivity depends
//!   on nothing else; a pattern's selectivity depends only on its
//!   anchoring, which its template fixes. `NOT`, `EXISTS`, `IN (subquery)`,
//!   derived tables and aggregate `HAVING` atoms stay ineligible: such a
//!   template misses and takes the full parse path, and its entry
//!   remembers that it is ineligible.
//! * **Bind guards**: conditions whose shape-level effect depends on the
//!   concrete values make [`CompiledTemplate::bind`] return `false`, and
//!   the caller falls back to the full parse (reproducing parse errors
//!   exactly where the slow path would report them):
//!   - extraction keeps one copy of equal DNF groups on a table
//!     (`conjunct_groups.contains`), and counts an atom under an `OR` that
//!     equals a conjunctive atom as a conjunct; so every pair of a table's
//!     DNF groups, and of a conjunctive and a non-conjunctive atom of it,
//!     that differ only where a literal goes is recorded at compile time,
//!     and a bind that makes such a pair equal falls back;
//!   - two atoms of one DNF group made equal (conservatively: extraction
//!     keeps both);
//!   - a pattern bound to a string of the other anchoring class, or to a
//!     non-string;
//!   - a `LIMIT` bound to anything but a non-negative integer, and a
//!     negated slot bound to a non-numeric.

use crate::templates::TemplateEntry;
use autoindex_estimator::TemplateSelProgram;
use autoindex_sql::ast::{Predicate, SelectStatement, Statement, TableRef, Value};
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_sql::{parse_statement, SqlError};
use autoindex_storage::catalog::{Catalog, Table};
use autoindex_storage::shape::{QueryShape, SelTrace};
use autoindex_support::hash::{U64HashMap, WordHashMap};
use autoindex_support::obs::{Counter, MetricsRegistry, ShardCell};
use std::sync::{Arc, Weak};

/// Base of the sentinel literal range. Far above any statistics value a
/// catalog produces and high enough that `SENTINEL_BASE + k` stays well
/// inside `i64` for any realistic slot count.
pub const SENTINEL_BASE: i64 = 9_100_000_000_000_000;

/// Which of a table's three atom collections a slot write targets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AtomArm {
    Conjunct,
    AllAtom,
    Group,
}

/// Which value field of the targeted atom receives the literal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ValueField {
    Cmp,
    BetweenLow,
    BetweenHigh,
    /// The k-th value of an `IN` list.
    InItem(u16),
    /// A `LIKE` pattern; `suffix`: the template's pattern starts with `%`
    /// or `_` (the anchoring class a bound pattern must keep).
    Pattern {
        suffix: bool,
    },
}

/// One literal destination in the skeleton shape.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotWrite {
    table: u16,
    arm: AtomArm,
    /// Group index when `arm == Group`, unused otherwise.
    group: u16,
    atom: u16,
    field: ValueField,
    /// Index into the statement's literal buffer.
    slot: u16,
    /// The template negates this literal (`- $`): bind `Int(-i)`/`Float(-x)`.
    negate: bool,
}

/// Two entries of one table's `all_atoms` (or of its `conjunct_groups`)
/// that differ only where a literal goes: a bind can make them equal.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Twins {
    table: u16,
    first: u16,
    second: u16,
}

/// What a template's *text* compiles to, whatever the statistics say: a
/// pure function of the text and the catalog's schema
/// ([`Catalog::schema_fingerprint`]), made once and shared by every re-fold
/// of the template — and, through a [`FrameCache`], by every tenant of
/// that schema.
#[derive(Debug, PartialEq)]
pub(crate) struct Frame {
    /// The sentinel-valued shape. Its `filter_sel`s are statistics, which
    /// every bind overwrites: the frame keeps them at 1.0.
    skeleton: QueryShape,
    writes: Vec<SlotWrite>,
    limit_slot: Option<u16>,
    n_slots: usize,
    /// `(table, group)` pairs with two or more atoms: a bind that makes
    /// two atoms of one group collide falls back.
    guard_groups: Vec<(u16, u16)>,
    /// Pairs of a conjunctive and a non-conjunctive atom (`all_atoms`) a
    /// bind may make equal: extraction would then have counted the `OR`
    /// arm as a conjunct.
    atom_twins: Vec<Twins>,
    /// DNF group pairs (`conjunct_groups`) a bind may make equal:
    /// extraction would then have kept one of them.
    group_twins: Vec<Twins>,
    /// The selectivity factors `skeleton` was extracted with: what a
    /// re-fold compiles, in place of parsing and extracting again.
    trace: SelTrace,
}

/// A template compiled for the fast path: skeleton shape + slot writes +
/// flat selectivity program, the last folded against one state of the
/// tables the template touches.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    frame: Arc<Frame>,
    program: TemplateSelProgram,
    /// Per `skeleton.tables` entry, that table's growth stamp when
    /// `program` was folded (see [`stamp_of`]).
    stamps: Vec<u64>,
}

/// `table`'s growth stamp in `catalog`; a table the catalog lacks reads 0,
/// below any stamp a catalog hands out.
pub(crate) fn stamp_of(catalog: &Catalog, table: &str) -> u64 {
    catalog.table(table).map_or(0, Table::stamp)
}

/// Maps a sentinel literal of an `n_slots`-literal template back to its
/// `(slot, negated)`; `None` for any other value.
fn sentinel_of(v: &Value, n_slots: usize) -> Option<(u16, bool)> {
    match v {
        Value::Int(i) if *i >= SENTINEL_BASE && (*i - SENTINEL_BASE) < n_slots as i64 => {
            Some(((*i - SENTINEL_BASE) as u16, false))
        }
        Value::Int(i) if *i <= -SENTINEL_BASE && (-*i - SENTINEL_BASE) < n_slots as i64 => {
            Some(((-*i - SENTINEL_BASE) as u16, true))
        }
        _ => None,
    }
}

/// What a sentinel pattern starts with, after the `%` of a suffix one.
const PATTERN_SENTINEL: char = '§';

/// Maps a sentinel `LIKE` pattern of an `n_slots`-literal template back to
/// its `(slot, suffix)`; `None` for any other pattern.
fn pattern_sentinel_of(pattern: &str, n_slots: usize) -> Option<(u16, bool)> {
    let (suffix, rest) = match pattern.strip_prefix('%') {
        Some(rest) => (true, rest),
        None => (false, pattern),
    };
    let slot: u16 = rest.strip_prefix(PATTERN_SENTINEL)?.parse().ok()?;
    ((slot as usize) < n_slots).then_some((slot, suffix))
}

/// Write literal `v` into `dst`, negated when the template negates it. A
/// string reuses the capacity `dst` already has, so a warmed clone binds
/// strings without allocating. `false` when `v` cannot be negated.
fn assign(dst: &mut Value, v: &Value, negate: bool) -> bool {
    match (v, &mut *dst) {
        // The parser folds `- <literal>` by negating the value and rejects
        // negated strings/NULL/placeholders; reproduce both behaviours
        // (rejection via full-parse fallback).
        (Value::Int(i), _) if negate => *dst = Value::Int(-i),
        (Value::Float(f), _) if negate => *dst = Value::Float(-f),
        _ if negate => return false,
        (Value::Str(s), Value::Str(d)) => {
            d.clear();
            d.push_str(s);
        }
        _ => *dst = v.clone(),
    }
    true
}

/// `atom` with every value blanked: two atoms that differ only in their
/// values — the only thing a bind writes — blank to the same atom.
fn blank(atom: &AtomicPredicate) -> AtomicPredicate {
    let mut blank = atom.clone();
    match &mut blank {
        AtomicPredicate::Cmp { value, .. } => *value = Value::Null,
        AtomicPredicate::Between { low, high, .. } => (*low, *high) = (Value::Null, Value::Null),
        AtomicPredicate::InList { values, .. } => values.fill(Value::Null),
        AtomicPredicate::Like { pattern, .. } => pattern.clear(),
        AtomicPredicate::IsNull { .. }
        | AtomicPredicate::JoinEq { .. }
        | AtomicPredicate::Opaque { .. } => {}
    }
    blank
}

impl CompiledTemplate {
    /// The sentinel-valued template shape, every `filter_sel` at 1.0. A
    /// reader clones it once and re-binds the clone per statement; a bound
    /// clone stays bindable by every template that shares its frame — every
    /// later re-fold of the same template, and the template of every tenant
    /// of the same schema (a bind writes every slot and every `filter_sel`).
    pub fn skeleton(&self) -> &QueryShape {
        &self.frame.skeleton
    }

    /// Number of literals a statement of this template carries.
    pub fn n_slots(&self) -> usize {
        self.frame.n_slots
    }

    /// [`Self::bind`] under the signature it had while a cache shared one
    /// statistics table among its entries and a bind took selectivity
    /// scratch; `_cache`, `_sels` and `_stack` are not read — an entry
    /// carries the statistics its program reads, and the program folds
    /// without scratch.
    pub fn bind_into(
        &self,
        lits: &LiteralBuf,
        _cache: &FastPathCache,
        shape: &mut QueryShape,
        _sels: &mut Vec<f64>,
        _stack: &mut Vec<f64>,
    ) -> bool {
        self.bind(lits, shape)
    }

    /// Bind `lits` into `shape` (a clone of [`Self::skeleton`]) and
    /// recompute its per-table `filter_sel`s through the compiled
    /// program.
    ///
    /// Returns `false` — leaving `shape` in an unspecified (but
    /// rebindable) state — when a guard trips; the caller must fall back
    /// to the full parse path.
    pub fn bind(&self, lits: &LiteralBuf, shape: &mut QueryShape) -> bool {
        let frame = &*self.frame;
        let vals = &lits.values;
        if vals.len() != frame.n_slots {
            return false;
        }
        for w in &frame.writes {
            let v = &vals[w.slot as usize];
            let t = &mut shape.tables[w.table as usize];
            let atom = match w.arm {
                AtomArm::Conjunct => &mut t.conjuncts[w.atom as usize],
                AtomArm::AllAtom => &mut t.all_atoms[w.atom as usize],
                AtomArm::Group => &mut t.conjunct_groups[w.group as usize][w.atom as usize],
            };
            let written = match (w.field, atom) {
                (ValueField::Cmp, AtomicPredicate::Cmp { value, .. }) => assign(value, v, w.negate),
                (ValueField::BetweenLow, AtomicPredicate::Between { low, .. }) => {
                    assign(low, v, w.negate)
                }
                (ValueField::BetweenHigh, AtomicPredicate::Between { high, .. }) => {
                    assign(high, v, w.negate)
                }
                (ValueField::InItem(k), AtomicPredicate::InList { values, .. }) => {
                    assign(&mut values[k as usize], v, w.negate)
                }
                (ValueField::Pattern { suffix }, AtomicPredicate::Like { pattern, .. }) => {
                    // A pattern of the other anchoring class (or no
                    // string) would extract to another shape.
                    match v {
                        Value::Str(s) if s.starts_with(['%', '_']) == suffix => {
                            pattern.clear();
                            pattern.push_str(s);
                            true
                        }
                        _ => false,
                    }
                }
                // Unreachable by construction (writes were discovered on
                // this very structure); bail rather than corrupt.
                _ => false,
            };
            if !written {
                return false;
            }
        }
        if let Some(k) = frame.limit_slot {
            match vals[k as usize] {
                // The parser accepts only a non-negative integer here;
                // anything else is a parse error the fallback reproduces.
                Value::Int(n) if n >= 0 => shape.limit = Some(n as u64),
                _ => return false,
            }
        }
        // With distinct sentinels no two atoms of a DNF group collide;
        // concrete values can. Fall back (conservatively: extraction keeps
        // both) rather than bind a group with twice the same atom.
        for &(t, g) in &frame.guard_groups {
            let group = &shape.tables[t as usize].conjunct_groups[g as usize];
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    if group[i] == group[j] {
                        return false;
                    }
                }
            }
        }
        // No twins are equal either; concrete values can make them so, and
        // extraction would then have promoted an `OR` arm to a conjunct or
        // kept one of two equal groups. Fall back so the slow path does it.
        for tw in &frame.atom_twins {
            let atoms = &shape.tables[tw.table as usize].all_atoms;
            if atoms[tw.first as usize] == atoms[tw.second as usize] {
                return false;
            }
        }
        for tw in &frame.group_twins {
            let groups = &shape.tables[tw.table as usize].conjunct_groups;
            if groups[tw.first as usize] == groups[tw.second as usize] {
                return false;
            }
        }
        self.program.eval(vals, shape);
        true
    }

    /// The frame this template was folded from.
    pub(crate) fn frame(&self) -> &Arc<Frame> {
        &self.frame
    }

    /// Whether every table this template touches still carries the stamp
    /// the program was folded at — the whole validity rule.
    fn is_current(&self, catalog: &Catalog) -> bool {
        let tables = &self.frame.skeleton.tables;
        tables
            .iter()
            .zip(&self.stamps)
            .all(|(t, at)| stamp_of(catalog, &t.table) == *at)
    }

    /// Fold `frame`'s kept trace against `catalog` as it stands.
    pub(crate) fn fold(frame: Arc<Frame>, catalog: &Catalog) -> Option<CompiledTemplate> {
        let slot_of = |v: &Value| sentinel_of(v, frame.n_slots);
        let program =
            TemplateSelProgram::compile(&frame.trace, &frame.skeleton, catalog, &slot_of)?;
        let tables = &frame.skeleton.tables;
        let stamps = tables.iter().map(|t| stamp_of(catalog, &t.table)).collect();
        Some(CompiledTemplate {
            frame,
            program,
            stamps,
        })
    }

    /// [`CompiledTemplate::fold`] of this template's own frame, written
    /// over its program and stamps: the structure of both follows from the
    /// kept trace, so their vectors are reused. `false` where `fold` gives
    /// `None`; the template is then unspecified.
    fn refold(&mut self, catalog: &Catalog) -> bool {
        let frame = &*self.frame;
        let slot_of = |v: &Value| sentinel_of(v, frame.n_slots);
        let (trace, skeleton) = (&frame.trace, &frame.skeleton);
        if !self.program.refold(trace, skeleton, catalog, &slot_of) {
            return false;
        }
        for (stamp, t) in self.stamps.iter_mut().zip(&skeleton.tables) {
            *stamp = stamp_of(catalog, &t.table);
        }
        true
    }

    /// Compile `text` (canonical template text) against `catalog`.
    /// `None` means the template is ineligible — it will simply miss the
    /// cache and take the full parse path.
    fn compile(text: &str, catalog: &Catalog) -> Option<CompiledTemplate> {
        let frame = Frame::build(text, catalog)?;
        CompiledTemplate::fold(Arc::new(frame), catalog)
    }
}

impl Frame {
    /// `text` (canonical template text) with the k-th literal replaced by
    /// its sentinel — an integer, or a pattern string of the same anchoring
    /// class — and the number of literals; `None` for a quote or a
    /// placeholder outside a pattern.
    fn sentinel_text(text: &str) -> Option<(String, usize)> {
        use std::fmt::Write;
        let mut out = String::with_capacity(2 * text.len());
        let mut rest = text;
        let mut k = 0usize;
        while let Some(at) = rest.find(['$', '\'', '?']) {
            out.push_str(&rest[..at]);
            let tail = &rest[at..];
            rest = if let Some(after) = tail.strip_prefix("'$%'") {
                let _ = write!(out, "'{PATTERN_SENTINEL}{k}'");
                after
            } else if let Some(after) = tail.strip_prefix("'%$'") {
                let _ = write!(out, "'%{PATTERN_SENTINEL}{k}'");
                after
            } else if let Some(after) = tail.strip_prefix('$') {
                let _ = write!(out, "{}", SENTINEL_BASE + k as i64);
                after
            } else {
                return None;
            };
            k += 1;
        }
        out.push_str(rest);
        Some((out, k))
    }

    /// The frame of `text` (canonical template text) against `catalog`'s
    /// schema: one parse of its sentinel text and one traced extraction,
    /// the statistics the extraction folded in left out. `None` means the
    /// template is ineligible.
    fn build(text: &str, catalog: &Catalog) -> Option<Frame> {
        let (sentinel_text, n_slots) = Self::sentinel_text(text)?;
        if n_slots > u16::MAX as usize {
            return None;
        }
        let stmt = parse_statement(&sentinel_text).ok()?;
        if !statement_eligible(&stmt) {
            return None;
        }
        let (mut skeleton, trace) = QueryShape::extract_traced(&stmt, catalog);
        for table in &mut skeleton.tables {
            table.filter_sel = 1.0;
        }

        // Discover every sentinel occurrence in the shape. The scan walks
        // every `Value`-bearing field `QueryShape` has, so a sentinel
        // cannot hide anywhere a bind would miss.
        let sentinel_of = |v: &Value| sentinel_of(v, n_slots);
        let pattern_of = |p: &str| pattern_sentinel_of(p, n_slots);
        let mut writes = Vec::new();
        let mut guard_groups = Vec::new();
        for (ti, table) in skeleton.tables.iter().enumerate() {
            let arms = [
                (AtomArm::Conjunct, &table.conjuncts),
                (AtomArm::AllAtom, &table.all_atoms),
            ];
            for (arm, atoms) in arms {
                for (ai, atom) in atoms.iter().enumerate() {
                    let at = (ti, arm, 0, ai);
                    scan_atom(atom, at, &sentinel_of, &pattern_of, &mut writes)?;
                }
            }
            for (gi, group) in table.conjunct_groups.iter().enumerate() {
                if group.len() > 1 {
                    guard_groups.push((ti as u16, gi as u16));
                }
                for (ai, atom) in group.iter().enumerate() {
                    let at = (ti, AtomArm::Group, gi, ai);
                    scan_atom(atom, at, &sentinel_of, &pattern_of, &mut writes)?;
                }
            }
        }
        let (atom_twins, group_twins) = twins(&skeleton);
        let limit_slot = match skeleton.limit {
            Some(l) => {
                let (slot, negate) = sentinel_of(&Value::Int(i64::try_from(l).ok()?))?;
                if negate {
                    return None;
                }
                Some(slot)
            }
            None => None,
        };
        // Sized exactly: extraction grows its vectors by doubling, a
        // clone's are exact-sized, and the frame lives as long as the
        // templates folded from it.
        Some(Frame {
            skeleton: skeleton.clone(),
            writes,
            limit_slot,
            n_slots,
            guard_groups,
            atom_twins,
            group_twins,
            trace: trace.clone(),
        })
    }

    /// A pending template's frame, built for it alone: what a reader that
    /// keeps no [`FrameCache`] (the online loop) compiles.
    pub(crate) fn own(text: &str, catalog: &Catalog) -> (Option<Arc<Frame>>, Upkeep) {
        (Frame::build(text, catalog).map(Arc::new), Upkeep::Compiled)
    }
}

/// The frames one serving run has built, by fingerprint hash and
/// [`Catalog::schema_fingerprint`]. A frame is a pure function of the two,
/// so a tenant whose schema another tenant has folds that tenant's frame
/// against its own statistics instead of parsing and extracting the text
/// again. A frame is held weakly — it lives while some tenant's template
/// entry, or some publication that compiled it late, keeps it — and a text
/// that does not compile against a schema is remembered as such. The run
/// keeps one, behind a mutex its publications and their workers' late
/// compiles share (`engine::Publication`).
#[derive(Debug, Default)]
pub(crate) struct FrameCache {
    frames: WordHashMap<(u64, u64), Option<Weak<Frame>>>,
    /// Entries at which the next insert first drops the dead frames.
    sweep_at: usize,
}

impl FrameCache {
    /// The frame of a template (its fingerprint hash and the schema
    /// fingerprint of `catalog` form `key`): the cached one, or built now
    /// from its canonical text — asked of `text` only then (`None`: the
    /// statement has none) — when no live frame is cached. Whether it was
    /// built or shared, as the upkeep step it makes of a pending entry.
    pub(crate) fn frame<T: AsRef<str>>(
        &mut self,
        key: (u64, u64),
        text: impl FnOnce() -> Option<T>,
        catalog: &Catalog,
    ) -> (Option<Arc<Frame>>, Upkeep) {
        match self.frames.get(&key) {
            Some(None) => return (None, Upkeep::Ineligible),
            Some(Some(frame)) => {
                if let Some(frame) = frame.upgrade() {
                    return (Some(frame), Upkeep::Shared);
                }
            }
            None => {}
        }
        if self.frames.len() >= self.sweep_at {
            let live =
                |f: &mut Option<Weak<Frame>>| f.as_ref().is_none_or(|f| f.strong_count() > 0);
            self.frames.retain(|_, f| live(f));
            self.sweep_at = 2 * self.frames.len().max(16);
        }
        let frame = text()
            .and_then(|text| Frame::build(text.as_ref(), catalog))
            .map(Arc::new);
        self.frames.insert(key, frame.as_ref().map(Arc::downgrade));
        (frame, Upkeep::Compiled)
    }
}

/// Per table of `skeleton`, the pairs of a conjunctive and a
/// non-conjunctive atom, and of DNF groups, that differ only in their
/// values. An atom with a literal is conjunctive iff it is in `conjuncts`
/// (no two atoms share a sentinel); one without differs from no atom only
/// in its values.
fn twins(skeleton: &QueryShape) -> (Vec<Twins>, Vec<Twins>) {
    let (mut atoms, mut groups) = (Vec::new(), Vec::new());
    for (t, table) in skeleton.tables.iter().enumerate() {
        let pairs = |n: usize| (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
        let mk = |(first, second): (usize, usize)| Twins {
            table: t as u16,
            first: first as u16,
            second: second as u16,
        };
        let all = &table.all_atoms;
        let blanks: Vec<AtomicPredicate> = all.iter().map(blank).collect();
        let conjunctive = |i: usize| table.conjuncts.contains(&all[i]);
        atoms.extend(
            pairs(all.len())
                .filter(|&(i, j)| {
                    conjunctive(i) != conjunctive(j) && blanks[i] == blanks[j] && all[i] != all[j]
                })
                .map(mk),
        );
        let gs = &table.conjunct_groups;
        let blanks: Vec<Vec<AtomicPredicate>> =
            gs.iter().map(|g| g.iter().map(blank).collect()).collect();
        groups.extend(
            pairs(gs.len())
                .filter(|&(i, j)| blanks[i] == blanks[j] && gs[i] != gs[j])
                .map(mk),
        );
    }
    (atoms, groups)
}

/// Scan one atom, at `(table, arm, group, index)`, for sentinels,
/// appending slot writes. Returns `None` (compile failure) if a sentinel
/// sits in a field binds cannot write.
fn scan_atom(
    atom: &AtomicPredicate,
    (table, arm, group, idx): (usize, AtomArm, usize, usize),
    sentinel_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    pattern_of: &dyn Fn(&str) -> Option<(u16, bool)>,
    writes: &mut Vec<SlotWrite>,
) -> Option<()> {
    let mut push = |field: ValueField, (slot, negate): (u16, bool)| {
        writes.push(SlotWrite {
            table: table as u16,
            arm,
            group: group as u16,
            atom: idx as u16,
            field,
            slot,
            negate,
        });
    };
    let mut value = |field: ValueField, v: &Value| {
        if let Some(at) = sentinel_of(v) {
            push(field, at);
        }
    };
    match atom {
        AtomicPredicate::Cmp { value: v, .. } => value(ValueField::Cmp, v),
        AtomicPredicate::Between { low, high, .. } => {
            value(ValueField::BetweenLow, low);
            value(ValueField::BetweenHigh, high);
        }
        AtomicPredicate::InList { values, .. } => {
            for (k, v) in values.iter().enumerate() {
                value(ValueField::InItem(u16::try_from(k).ok()?), v);
            }
        }
        AtomicPredicate::Like { pattern, .. } => {
            // Canonical text keeps no pattern of its own: every one is a
            // sentinel.
            let (slot, suffix) = pattern_of(pattern)?;
            push(ValueField::Pattern { suffix }, (slot, false));
        }
        // `Opaque` carries no `Value` (self-compare hints only, after
        // eligibility).
        AtomicPredicate::IsNull { .. }
        | AtomicPredicate::JoinEq { .. }
        | AtomicPredicate::Opaque { .. } => {}
    }
    Some(())
}

/// Eligibility over a whole statement (see module docs).
fn statement_eligible(stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(s) => select_eligible(s),
        Statement::Insert(_) => true,
        Statement::Update(u) => u.where_clause.as_ref().is_none_or(predicate_eligible),
        Statement::Delete(d) => d.where_clause.as_ref().is_none_or(predicate_eligible),
    }
}

fn select_eligible(s: &SelectStatement) -> bool {
    let base_from = s.from.iter().all(|t| matches!(t, TableRef::Table { .. }));
    let base_joins = s
        .joins
        .iter()
        .all(|j| matches!(j.relation, TableRef::Table { .. }));
    let on_ok = s
        .joins
        .iter()
        .all(|j| j.on.as_ref().is_none_or(predicate_eligible));
    base_from
        && base_joins
        && on_ok
        && s.where_clause.as_ref().is_none_or(predicate_eligible)
        && s.having.as_ref().is_none_or(predicate_eligible)
}

fn predicate_eligible(p: &Predicate) -> bool {
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().all(predicate_eligible),
        Predicate::Cmp { .. }
        | Predicate::JoinEq { .. }
        | Predicate::Between { .. }
        | Predicate::IsNull { .. }
        | Predicate::InList { .. }
        | Predicate::Like { .. } => true,
        Predicate::Not(_)
        | Predicate::Exists { .. }
        | Predicate::InSubquery { .. }
        | Predicate::AggCmp { .. } => false,
    }
}

/// A template's compiled form as its store entry keeps it.
#[derive(Debug, Clone, Default)]
pub(crate) enum Compiled {
    /// Born since the last lookup or publication; not compiled yet.
    #[default]
    Pending,
    /// Does not compile (see *Eligibility* in the module docs). Remembered,
    /// never retried: eligibility follows from the text and the schema,
    /// and growth changes neither.
    Ineligible,
    Ready {
        template: Arc<CompiledTemplate>,
        /// [`Catalog::version`] `template` was last found current at:
        /// while the catalog stays there, a lookup checks nothing.
        checked_at: u64,
        /// `feed`'s bindable clone of the skeleton (made at its first hit).
        bound: Option<QueryShape>,
    },
}

/// What [`Compiled::upkeep`] had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Upkeep {
    /// Nothing to check: the catalog has not moved, or never will matter.
    Current,
    /// The catalog moved, but no table this template touches did.
    Reused,
    /// A touched table grew: the kept trace was folded again.
    Refolded,
    /// First compilation of a pending template: its frame was built.
    Compiled,
    /// First compilation of a pending template from a frame a
    /// [`FrameCache`] had: only the fold was made.
    Shared,
    /// The template turned out not to compile.
    Ineligible,
}

impl Upkeep {
    /// Whether the step replaced the entry's compiled state (so a cache
    /// frozen before it no longer shows the store).
    pub(crate) fn changed(self) -> bool {
        !matches!(self, Upkeep::Current | Upkeep::Reused)
    }
}

impl Compiled {
    /// Bring this entry up to `catalog`: compile a pending template — fold
    /// the frame `pending` hands over, with the step it names — re-fold
    /// one whose tables grew, leave anything else as it is.
    pub(crate) fn upkeep(
        &mut self,
        catalog: &Catalog,
        pending: impl FnOnce() -> (Option<Arc<Frame>>, Upkeep),
    ) -> Upkeep {
        let version = catalog.version();
        let (next, step) = match self {
            Compiled::Ineligible => return Upkeep::Current,
            Compiled::Ready { checked_at, .. } if *checked_at == version => return Upkeep::Current,
            Compiled::Ready {
                template,
                checked_at,
                ..
            } if template.is_current(catalog) => {
                *checked_at = version;
                return Upkeep::Reused;
            }
            Compiled::Ready {
                template,
                checked_at,
                ..
            } => match Arc::get_mut(template) {
                // The entry's only holder (no frozen cache shares it):
                // re-fold where it lies.
                Some(template) => {
                    if template.refold(catalog) {
                        *checked_at = version;
                        return Upkeep::Refolded;
                    }
                    (None, Upkeep::Refolded)
                }
                None => (
                    CompiledTemplate::fold(Arc::clone(&template.frame), catalog),
                    Upkeep::Refolded,
                ),
            },
            Compiled::Pending => {
                let (frame, step) = pending();
                (frame.and_then(|f| CompiledTemplate::fold(f, catalog)), step)
            }
        };
        let Some(next) = next else {
            *self = Compiled::Ineligible;
            return Upkeep::Ineligible;
        };
        // A bound clone outlives the re-fold: its structure is the frame's.
        let bound = match std::mem::take(self) {
            Compiled::Ready { bound, .. } => bound,
            _ => None,
        };
        *self = Compiled::Ready {
            template: Arc::new(next),
            checked_at: version,
            bound,
        };
        step
    }

    /// The compiled template, when there is one.
    pub(crate) fn template(&self) -> Option<&Arc<CompiledTemplate>> {
        match self {
            Compiled::Ready { template, .. } => Some(template),
            _ => None,
        }
    }
}

/// `sql.fastpath.{compiled,shared,refolded,reused}`: what keeping the
/// compiled templates current took, counted per publication and per live
/// invalidation — the evidence that a run builds one frame per template
/// text and schema, and that a publication re-folds only the templates
/// whose tables grew. Beside them `sql.fastpath.late`: templates a
/// publication compiled at their third statement under it, because its
/// frozen cache had none. With them `planner.prepared`: plans prepared for
/// a publication's templates — against executions, the evidence that a
/// template is planned at most once per publication — and
/// `planner.carried`: plans a publication took from the one before it,
/// which nothing they read had moved since.
#[derive(Debug, Clone)]
pub(crate) struct UpkeepCounters {
    compiled: Counter,
    shared: Counter,
    refolded: Counter,
    reused: Counter,
    pub(crate) late: Counter,
    pub(crate) prepared: Counter,
    pub(crate) carried: Counter,
}

impl UpkeepCounters {
    pub(crate) fn bind(registry: &MetricsRegistry) -> Self {
        UpkeepCounters {
            compiled: registry.counter("sql.fastpath.compiled"),
            shared: registry.counter("sql.fastpath.shared"),
            refolded: registry.counter("sql.fastpath.refolded"),
            reused: registry.counter("sql.fastpath.reused"),
            late: registry.counter("sql.fastpath.late"),
            prepared: registry.counter("planner.prepared"),
            carried: registry.counter("planner.carried"),
        }
    }

    /// Count one entry's step (a step that checked nothing counts nothing).
    pub(crate) fn record(&self, step: Upkeep) {
        match step {
            Upkeep::Compiled => self.compiled.incr(),
            Upkeep::Shared => self.shared.incr(),
            Upkeep::Refolded => self.refolded.incr(),
            Upkeep::Reused => self.reused.incr(),
            Upkeep::Current | Upkeep::Ineligible => {}
        }
    }
}

/// An immutable set of compiled templates, keyed by fingerprint hash: what
/// one publication hands the executors. The template store keeps the
/// entries current and freezes them into one of these at an epoch boundary
/// (`TemplateStore::publish` — the same `Arc` again while nothing moved);
/// [`FastPathCache::build`] makes one from scratch. Workers treat it as
/// read-only shared state, so hit/miss behaviour is a pure function of
/// `(stream, caches)` — invariant under worker count.
#[derive(Debug, Default)]
pub struct FastPathCache {
    /// Each compiled template with its ordinal in `0..len()` (what a
    /// publication keys its per-template state by).
    entries: U64HashMap<(u32, Arc<CompiledTemplate>)>,
    /// Templates seen but ineligible (observability only).
    ineligible: usize,
}

impl FastPathCache {
    /// An empty cache: every lookup misses (fast path disabled).
    pub fn empty() -> Self {
        FastPathCache::default()
    }

    /// Compile every eligible template against `catalog`, from scratch:
    /// one parse and one traced extraction per template. The serving
    /// drivers publish the store's maintained entries instead; this is the
    /// constructor for a caller that holds only a template list, and the
    /// reference those entries are tested against.
    pub fn build<'a>(
        templates: impl Iterator<Item = (u64, &'a TemplateEntry)>,
        catalog: &Catalog,
    ) -> Self {
        Self::collect(templates.map(|(hash, entry)| {
            let compiled = CompiledTemplate::compile(&entry.text, catalog);
            (hash, compiled.map(Arc::new))
        }))
    }

    /// Freeze the compiled state of a store's entries (all brought
    /// current by the caller).
    pub(crate) fn freeze<'a>(entries: impl Iterator<Item = (u64, &'a Compiled)>) -> Self {
        Self::collect(entries.map(|(hash, compiled)| (hash, compiled.template().cloned())))
    }

    /// One cache entry per template that has a compiled form; the rest
    /// are counted ineligible.
    fn collect(templates: impl Iterator<Item = (u64, Option<Arc<CompiledTemplate>>)>) -> Self {
        let mut cache = FastPathCache::empty();
        for (hash, compiled) in templates {
            match compiled {
                Some(t) => {
                    let ordinal = cache.entries.len() as u32;
                    cache.entries.insert(hash, (ordinal, t));
                }
                None => cache.ineligible += 1,
            }
        }
        cache
    }

    /// Look up the compiled template for a fingerprint hash.
    pub fn get(&self, hash: u64) -> Option<&CompiledTemplate> {
        self.slot(hash).map(|(_, t)| t)
    }

    /// Every compiled template's fingerprint hash, with its ordinal.
    pub(crate) fn ordinals(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.entries
            .iter()
            .map(|(hash, (ordinal, _))| (*hash, *ordinal as usize))
    }

    /// [`FastPathCache::get`] with the template's ordinal in `0..len()`.
    pub(crate) fn slot(&self, hash: u64) -> Option<(usize, &CompiledTemplate)> {
        let (ordinal, t) = self.entries.get(&hash)?;
        Some((*ordinal as usize, &**t))
    }

    /// The cache itself, for [`CompiledTemplate::bind_into`]'s unread
    /// argument.
    pub fn stats(&self) -> &Self {
        self
    }

    /// Number of compiled templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing compiled (or the cache is the disabled stub).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Templates that were observed but did not compile.
    pub fn ineligible(&self) -> usize {
        self.ineligible
    }
}

/// A statement resolved to the shape it executes as.
pub(crate) enum Resolved<'t> {
    /// Bound through the compiled template of this fingerprint hash.
    Bound(u64, &'t QueryShape),
    /// Parsed and extracted, with the fingerprint hash when the statement
    /// was scanned (the fast path was on and the scan accepted the text).
    Parsed(Option<u64>, QueryShape),
}

impl Resolved<'_> {
    /// The fingerprint hash whenever the statement was scanned, bound or
    /// not: what the template store observes it under without scanning it
    /// again.
    pub(crate) fn hash(&self) -> Option<u64> {
        match self {
            Resolved::Bound(hash, _) => Some(*hash),
            Resolved::Parsed(hash, _) => *hash,
        }
    }
}

/// A reader's bindable clone of a compiled template's skeleton, with the
/// frame it was cloned from, held weakly. A bind writes every slot and
/// every `filter_sel`, so the clone stays bindable by every template that
/// shares that frame — every re-fold of its template, in any later
/// publication, and the template of every tenant of its schema — and by
/// no other.
#[derive(Debug)]
pub(crate) struct SkeletonClone {
    frame: Weak<Frame>,
    pub(crate) shape: QueryShape,
}

impl SkeletonClone {
    pub(crate) fn of(template: &CompiledTemplate) -> Self {
        SkeletonClone {
            frame: Arc::downgrade(&template.frame),
            shape: template.frame.skeleton.clone(),
        }
    }

    /// The key of `template`'s frame, which a reader keeps its clone
    /// under: the frame's address. A clone's weak hold keeps that address
    /// from being reused while the clone is kept, so `template` can bind
    /// into the clone under its key. The address is shifted past the
    /// allocator's 16-byte alignment — two frames lie further apart than
    /// that — so that the low bits a `U64HashMap` picks buckets by differ
    /// between frames.
    pub(crate) fn key(template: &CompiledTemplate) -> u64 {
        (Arc::as_ptr(&template.frame) as usize as u64) >> 4
    }

    /// Whether some template still holds the frame.
    pub(crate) fn is_live(&self) -> bool {
        self.frame.strong_count() > 0
    }
}

/// One reader's statement front end: its reusable literal buffer and its
/// cells of `sql.fastpath.{hits,misses,fallbacks}`. At steady state —
/// repeat templates, warmed skeleton clones — [`FrontEnd::resolve`]
/// performs **zero heap allocations**, string literals included: the scan
/// writes a string into one the scan before collected, and a bind copies
/// it into the clone's own string; both keep their capacity.
pub(crate) struct FrontEnd {
    lits: LiteralBuf,
    hits: ShardCell,
    misses: ShardCell,
    fallbacks: ShardCell,
}

impl FrontEnd {
    /// A front end counting into `registry` on cell `slot` (one per
    /// concurrent reader).
    pub(crate) fn new(registry: &MetricsRegistry, slot: usize) -> Self {
        let cell = |name| registry.sharded_counter(name).cell(slot);
        FrontEnd {
            lits: LiteralBuf::default(),
            hits: cell("sql.fastpath.hits"),
            misses: cell("sql.fastpath.misses"),
            fallbacks: cell("sql.fastpath.fallbacks"),
        }
    }

    /// Resolve one statement: fingerprint-scan it (collecting its
    /// literals), ask `lookup` for the compiled template of that hash and
    /// the reader's bindable clone of its skeleton, bind. Any miss or
    /// tripped bind guard falls back to the full parse + extract against
    /// `catalog` — which also reproduces parse failures exactly where the
    /// slow path reports them — and keeps the hash the scan found. `lookup:
    /// None` is the fast path switched off: parse, count nothing.
    pub(crate) fn resolve<'t>(
        &mut self,
        sql: &str,
        catalog: &Catalog,
        lookup: Option<impl FnOnce(u64) -> Option<(&'t CompiledTemplate, &'t mut QueryShape)>>,
    ) -> Result<Resolved<'t>, SqlError> {
        let mut scanned = None;
        if let Some(lookup) = lookup {
            scanned = scan_fingerprint(sql, &mut self.lits);
            if let Some(hash) = scanned {
                if let Some((compiled, shape)) = lookup(hash) {
                    if compiled.bind(&self.lits, shape) {
                        self.hits.incr();
                        return Ok(Resolved::Bound(hash, shape));
                    }
                    // A bind guard tripped: the shape (or parseability) of
                    // this statement depends on its concrete values. Take
                    // the slow path; the partial bind stays rebindable.
                    self.fallbacks.incr();
                }
            }
            self.misses.incr();
        }
        let stmt = parse_statement(sql)?;
        Ok(Resolved::Parsed(
            scanned,
            QueryShape::extract(&stmt, catalog),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::fingerprint::{fingerprint, scan_fingerprint};
    use autoindex_storage::catalog::{Column, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("accounts", 500_000)
                .column(Column::int("id", 500_000))
                .column(Column::int("balance", 40_000))
                .column(Column::int("branch", 512))
                .column(Column::text("owner", 300_000, 24))
                .column(Column::float("rate", 2_000, -50.0, 50.0))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("tellers", 5_000)
                .column(Column::int("id", 5_000))
                .column(Column::int("branch", 512))
                .column(Column::float("load", 100, 0.0, 1.0))
                .build()
                .unwrap(),
        );
        c
    }

    fn compile_sql(sql: &str, cat: &Catalog) -> Option<(CompiledTemplate, u64)> {
        let fp = fingerprint(sql).unwrap();
        CompiledTemplate::compile(&fp.text, cat).map(|c| (c, fp.hash))
    }

    /// Bind `sql`'s literals through the compiled template and assert the
    /// result is bit-identical to a full parse + extract.
    fn assert_bind_matches(template_sql: &str, sql: &str, cat: &Catalog) {
        let fp = fingerprint(template_sql).unwrap();
        let compiled = CompiledTemplate::compile(&fp.text, cat)
            .unwrap_or_else(|| panic!("template should compile: {}", fp.text));
        assert_eq!(fingerprint(sql).unwrap().hash, fp.hash, "same template");
        let mut shape = compiled.skeleton().clone();
        assert!(
            binds_as_parsed(&compiled, &mut shape, sql, cat),
            "bind should succeed for {sql}"
        );
    }

    /// Bind `sql`'s literals through `compiled` into `shape` (a clone of
    /// its skeleton, bound before or not); unless a guard trips, assert the
    /// result is bit-identical to a full parse + extract against `cat`.
    /// Whether it bound.
    fn binds_as_parsed(
        compiled: &CompiledTemplate,
        shape: &mut QueryShape,
        sql: &str,
        cat: &Catalog,
    ) -> bool {
        let mut lits = LiteralBuf::default();
        scan_fingerprint(sql, &mut lits).unwrap();
        if !compiled.bind(&lits, shape) {
            return false;
        }
        let expected = QueryShape::extract(&parse_statement(sql).unwrap(), cat);
        assert_eq!(*shape, expected, "bound shape mismatch for {sql}");
        for (b, e) in shape.tables.iter().zip(expected.tables.iter()) {
            assert_eq!(
                b.filter_sel.to_bits(),
                e.filter_sel.to_bits(),
                "filter_sel bits for {} in {sql}",
                b.table
            );
        }
        true
    }

    #[test]
    fn bind_reproduces_full_extraction_bit_for_bit() {
        let cat = catalog();
        let cases = [
            (
                "SELECT * FROM accounts WHERE id = 7",
                "SELECT * FROM accounts WHERE id = 992",
            ),
            (
                "SELECT balance FROM accounts WHERE branch = 3 AND balance > 100 LIMIT 10",
                "SELECT balance FROM accounts WHERE branch = 77 AND balance > 3200 LIMIT 5",
            ),
            (
                "SELECT * FROM accounts WHERE balance BETWEEN 5 AND 10",
                "SELECT * FROM accounts WHERE balance BETWEEN 250 AND 8000",
            ),
            (
                "SELECT * FROM accounts WHERE balance = -5",
                "SELECT * FROM accounts WHERE balance = -999",
            ),
            (
                "SELECT * FROM accounts WHERE owner = 'a' AND branch = 1",
                "SELECT * FROM accounts WHERE owner = 'pat' AND branch = 9",
            ),
            (
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id = 5 AND a.balance >= 100",
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id = 4999 AND a.balance >= 1",
            ),
            (
                "UPDATE accounts SET balance = 10 WHERE id = 3",
                "UPDATE accounts SET balance = 77777 WHERE id = 123456",
            ),
            (
                "DELETE FROM tellers WHERE id = 1",
                "DELETE FROM tellers WHERE id = 44",
            ),
            (
                "INSERT INTO tellers (id, branch) VALUES (1, 2)",
                "INSERT INTO tellers (id, branch) VALUES (900, 12)",
            ),
            (
                "SELECT * FROM accounts WHERE owner IS NULL AND balance < 10",
                "SELECT * FROM accounts WHERE owner IS NULL AND balance < 42",
            ),
            // `OR`, `IN` lists and `LIKE` patterns: every copy DNF
            // distribution made of an atom, every value of a list, the
            // pattern in either anchoring class, escaped quotes included.
            (
                "SELECT * FROM accounts WHERE branch = 1 OR branch = 2",
                "SELECT * FROM accounts WHERE branch = 40 OR branch = 41",
            ),
            (
                "SELECT * FROM accounts WHERE branch IN (1, 2, 3)",
                "SELECT * FROM accounts WHERE branch IN (7, 8, 9)",
            ),
            (
                "SELECT * FROM accounts WHERE branch IN (1, 2, 3)",
                "SELECT * FROM accounts WHERE branch IN (1, 1, 2)",
            ),
            (
                "SELECT * FROM accounts WHERE branch NOT IN (1, -2)",
                "SELECT * FROM accounts WHERE branch NOT IN (17, -300)",
            ),
            (
                "SELECT * FROM accounts WHERE owner IN ('a', 'b') AND branch = 1",
                "SELECT * FROM accounts WHERE owner IN ('pat', 'zoë') AND branch = 9",
            ),
            (
                "SELECT * FROM accounts WHERE owner LIKE 'a%'",
                "SELECT * FROM accounts WHERE owner LIKE 'ab%'",
            ),
            (
                "SELECT * FROM accounts WHERE owner LIKE '%a'",
                "SELECT * FROM accounts WHERE owner LIKE '%ab'",
            ),
            (
                "SELECT * FROM accounts WHERE owner LIKE '%a'",
                "SELECT * FROM accounts WHERE owner LIKE '_b'",
            ),
            (
                "SELECT * FROM accounts WHERE owner LIKE 'a%' AND branch = 1",
                "SELECT * FROM accounts WHERE owner LIKE 'a''b%' AND branch = 3",
            ),
            (
                "SELECT id FROM accounts WHERE owner NOT LIKE 'a%' OR balance > 7",
                "SELECT id FROM accounts WHERE owner NOT LIKE 'q%' OR balance > 9000",
            ),
            (
                "SELECT * FROM accounts WHERE (branch = 1 OR branch = 2) AND balance > 3 \
                 ORDER BY id LIMIT 20",
                "SELECT * FROM accounts WHERE (branch = 11 OR branch = 12) AND balance > 300 \
                 ORDER BY id LIMIT 5",
            ),
            (
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id IN (1, 2) OR a.owner LIKE 'x%'",
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id IN (30, 31) OR a.owner LIKE 'pq%'",
            ),
            (
                "UPDATE accounts SET balance = 1 WHERE id IN (1, 2) OR branch = 3",
                "UPDATE accounts SET balance = 9 WHERE id IN (10, 20) OR branch = 30",
            ),
        ];
        for (template, concrete) in cases {
            assert_bind_matches(template, concrete, &cat);
        }
    }

    /// A string literal reaches the shape the same way on every road: the
    /// tokenizer slices the source (it used to push each *byte* as a
    /// `char`, so `'café'` parsed to `'cafÃ©'` while the scanner kept it).
    #[test]
    fn multi_byte_and_escaped_literals_parse_scan_and_bind_alike() {
        let cat = catalog();
        let sql = "SELECT * FROM accounts WHERE owner = 'café ''zoë''' AND branch = 9";
        let want = Value::Str("café 'zoë'".into());

        let Statement::Select(parsed) = parse_statement(sql).unwrap() else {
            panic!("a select");
        };
        let Some(Predicate::And(parts)) = &parsed.where_clause else {
            panic!("a conjunction");
        };
        assert!(matches!(&parts[0], Predicate::Cmp { value, .. } if *value == want));

        let mut lits = LiteralBuf::default();
        scan_fingerprint(sql, &mut lits).unwrap();
        assert_eq!(lits.values, [want.clone(), Value::Int(9)]);

        // Bound shape = parsed + extracted shape, the literal included.
        let template = "SELECT * FROM accounts WHERE owner = 'a' AND branch = 1";
        assert_bind_matches(template, sql, &cat);
        let shape = QueryShape::extract(&parse_statement(sql).unwrap(), &cat);
        assert!(matches!(
            &shape.tables[0].all_atoms[0],
            AtomicPredicate::Cmp { value, .. } if *value == want
        ));
    }

    #[test]
    fn ineligible_templates_do_not_compile() {
        let cat = catalog();
        for sql in [
            "SELECT * FROM accounts WHERE NOT branch = 1",
            "SELECT * FROM accounts WHERE branch = 1 AND NOT (balance > 5 OR id = 2)",
            "SELECT * FROM accounts WHERE EXISTS (SELECT id FROM tellers WHERE id = 1)",
            "SELECT * FROM accounts WHERE id IN (SELECT id FROM tellers WHERE branch = 1)",
            "SELECT * FROM (SELECT id FROM accounts WHERE id = 1) s",
            "SELECT branch, COUNT(*) FROM accounts GROUP BY branch HAVING COUNT(*) > 5",
        ] {
            assert!(
                compile_sql(sql, &cat).is_none(),
                "should not compile: {sql}"
            );
        }
    }

    /// `sql`'s literals, scanned.
    fn lits_of(sql: &str) -> LiteralBuf {
        let mut lits = LiteralBuf::default();
        scan_fingerprint(sql, &mut lits).unwrap();
        lits
    }

    /// Each value-dependent step of extraction has its guard: a bind that
    /// would make two DNF groups equal (extraction keeps one), or an `OR`
    /// arm equal to a conjunctive atom (extraction counts it a conjunct),
    /// or binds a pattern of the other anchoring class, falls back; the
    /// same templates bind other values bit for bit.
    #[test]
    fn value_dependent_extraction_falls_back() {
        let cat = catalog();
        for (template, tripping, binding) in [
            (
                "SELECT * FROM accounts WHERE (branch = 1 OR branch = 2) AND balance = 1",
                "SELECT * FROM accounts WHERE (branch = 5 OR branch = 5) AND balance = 1",
                "SELECT * FROM accounts WHERE (branch = 5 OR branch = 6) AND balance = 1",
            ),
            (
                "SELECT * FROM accounts WHERE branch = 1 AND (branch = 2 OR balance = 2)",
                "SELECT * FROM accounts WHERE branch = 5 AND (branch = 5 OR balance = 2)",
                "SELECT * FROM accounts WHERE branch = 5 AND (branch = 6 OR balance = 2)",
            ),
            // `<>` is in no DNF group: only the promotion shows.
            (
                "SELECT * FROM accounts WHERE branch <> 1 AND (branch <> 2 OR balance = 2)",
                "SELECT * FROM accounts WHERE branch <> 5 AND (branch <> 5 OR balance = 2)",
                "SELECT * FROM accounts WHERE branch <> 5 AND (branch <> 6 OR balance = 2)",
            ),
            (
                "SELECT * FROM accounts WHERE branch IN (1, 2) OR branch IN (3, 4)",
                "SELECT * FROM accounts WHERE branch IN (1, 2) OR branch IN (1, 2)",
                "SELECT * FROM accounts WHERE branch IN (1, 2) OR branch IN (2, 1)",
            ),
            (
                "SELECT * FROM accounts WHERE owner LIKE 'a%' OR owner LIKE 'b%'",
                "SELECT * FROM accounts WHERE owner LIKE 'ab%' OR owner LIKE 'ab%'",
                "SELECT * FROM accounts WHERE owner LIKE 'ab%' OR owner LIKE 'ac%'",
            ),
        ] {
            let (compiled, _) = compile_sql(template, &cat).unwrap();
            let mut shape = compiled.skeleton().clone();
            let lits = lits_of(tripping);
            assert!(
                !compiled.bind(&lits, &mut shape),
                "{tripping} should fall back"
            );
            let parsed = QueryShape::extract(&parse_statement(tripping).unwrap(), &cat);
            assert_ne!(shape, parsed, "{tripping}: a bind would have missed this");
            assert_bind_matches(template, binding, &cat);
        }

        // A pattern keeps the anchoring class of its template's.
        for (template, other_class) in [("'a%'", "%b"), ("'%a'", "b%"), ("'%a'", "")] {
            let sql = format!("SELECT * FROM accounts WHERE owner LIKE {template}");
            let (compiled, _) = compile_sql(&sql, &cat).unwrap();
            let mut shape = compiled.skeleton().clone();
            let mut lits = lits_of(&sql);
            lits.values[0] = Value::Str(other_class.into());
            assert!(!compiled.bind(&lits, &mut shape), "{sql}");
            lits.values[0] = Value::Int(1);
            assert!(!compiled.bind(&lits, &mut shape), "{sql}");
        }
    }

    #[test]
    fn bind_guards_fall_back() {
        let cat = catalog();
        let (compiled, _) = compile_sql(
            "SELECT * FROM accounts WHERE branch = 1 AND branch = 2",
            &cat,
        )
        .unwrap();
        let mut shape = compiled.skeleton().clone();

        // Colliding values: extraction would dedup the conjunct group.
        let mut lits = LiteralBuf::default();
        scan_fingerprint(
            "SELECT * FROM accounts WHERE branch = 5 AND branch = 5",
            &mut lits,
        )
        .unwrap();
        assert!(!compiled.bind(&lits, &mut shape));

        // Distinct values still bind (and match the slow path).
        assert_bind_matches(
            "SELECT * FROM accounts WHERE branch = 1 AND branch = 2",
            "SELECT * FROM accounts WHERE branch = 5 AND branch = 6",
            &cat,
        );

        // Slot-count mismatch.
        let mut lits = LiteralBuf::default();
        scan_fingerprint("SELECT * FROM accounts WHERE branch = 5", &mut lits).unwrap();
        assert!(!compiled.bind(&lits, &mut shape));

        // LIMIT must bind a non-negative integer (the parser rejects the
        // rest — the fallback reproduces the parse error).
        let (limited, _) =
            compile_sql("SELECT * FROM accounts WHERE id = 1 LIMIT 10", &cat).unwrap();
        let mut shape = limited.skeleton().clone();
        let mut lits = LiteralBuf::default();
        scan_fingerprint("SELECT * FROM accounts WHERE id = 1 LIMIT 2.5", &mut lits).unwrap();
        assert!(!limited.bind(&lits, &mut shape));

        // A negated slot cannot bind a string.
        let (neg, _) = compile_sql("SELECT * FROM accounts WHERE balance = -5", &cat).unwrap();
        let mut shape = neg.skeleton().clone();
        let mut lits = LiteralBuf::default();
        lits.values.clear();
        lits.values.push(Value::Str("x".into()));
        assert!(!neg.bind(&lits, &mut shape));
    }

    #[test]
    fn rebinding_the_same_scratch_shape_is_stable() {
        let cat = catalog();
        let (compiled, _) = compile_sql(
            "SELECT balance FROM accounts WHERE branch = 3 AND balance > 100 LIMIT 10",
            &cat,
        )
        .unwrap();
        let mut shape = compiled.skeleton().clone();
        for i in 0..5i64 {
            let sql = format!(
                "SELECT balance FROM accounts WHERE branch = {} AND balance > {} LIMIT {}",
                i,
                i * 1000,
                i + 1
            );
            let mut lits = LiteralBuf::default();
            scan_fingerprint(&sql, &mut lits).unwrap();
            assert!(compiled.bind(&lits, &mut shape));
            let expected = QueryShape::extract(&parse_statement(&sql).unwrap(), &cat);
            assert_eq!(shape, expected, "rebind {i}");
        }
    }

    #[test]
    fn cache_builds_from_template_store() {
        use crate::templates::{TemplateStore, TemplateStoreConfig};
        let cat = catalog();
        let mut store = TemplateStore::new(TemplateStoreConfig::default());
        store
            .observe("SELECT * FROM accounts WHERE id = 1", &cat)
            .unwrap();
        store
            .observe("SELECT * FROM accounts WHERE owner LIKE 'a%'", &cat)
            .unwrap();
        store
            .observe("SELECT * FROM accounts WHERE NOT branch = 1", &cat)
            .unwrap();
        store
            .observe("UPDATE accounts SET balance = 5 WHERE id = 2", &cat)
            .unwrap();
        let cache = FastPathCache::build(store.entries(), &cat);
        assert_eq!(cache.len(), 3, "three eligible templates compile");
        assert_eq!(cache.ineligible(), 1, "the NOT template is ineligible");
        let hash = fingerprint("SELECT * FROM accounts WHERE id = 99")
            .unwrap()
            .hash;
        assert!(cache.get(hash).is_some());
        assert!(FastPathCache::empty().is_empty());
        assert!(FastPathCache::empty().get(hash).is_none());
    }

    // ------------------------------------------------- the maintained set

    use crate::templates::{TemplateStore, TemplateStoreConfig};
    use autoindex_support::rng::StdRng;

    /// Statement texts over both tables: bindable reads and writes, a join,
    /// `OR`, `IN` and `LIKE` templates, a tripper of each value-dependent
    /// guard, and an ineligible template.
    fn statement(rng: &mut StdRng) -> String {
        let (a, b, c) = (
            rng.random_range(0i64..600),
            rng.random_range(0i64..40_000),
            rng.random_range(0i64..9),
        );
        match rng.random_range(0u32..19) {
            0 => format!("SELECT * FROM accounts WHERE id = {b}"),
            1 => format!(
                "SELECT balance FROM accounts WHERE branch = {a} AND balance > {b} LIMIT {c}"
            ),
            2 => format!("SELECT * FROM accounts WHERE balance BETWEEN {a} AND {b}"),
            3 => format!("SELECT * FROM accounts WHERE balance = -{b}"),
            4 => format!(
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id < {a} AND a.balance >= {b}"
            ),
            5 => format!("UPDATE accounts SET balance = {b} WHERE id = {a}"),
            6 => format!("DELETE FROM tellers WHERE id = {a}"),
            7 => format!("INSERT INTO tellers (id, branch) VALUES ({b}, {a})"),
            8 => format!("SELECT * FROM tellers WHERE id < {a}"),
            9 => format!(
                "SELECT * FROM accounts WHERE branch = {c} AND branch = {}",
                c % 3
            ),
            10 => format!("INSERT INTO accounts (id, balance) VALUES ({b}, {a})"),
            11 => format!("SELECT * FROM accounts WHERE branch = {a} OR branch = {c}"),
            12 => format!("SELECT * FROM accounts WHERE branch IN ({a}, {c})"),
            13 => format!(
                "SELECT * FROM accounts WHERE owner LIKE '{}%'",
                ["a", "b"][c as usize % 2]
            ),
            14 => format!("SELECT id FROM accounts WHERE owner LIKE '%{c}' OR branch IN ({c}, 7)"),
            // Group-dedup and conjunct-promotion guard trippers.
            15 => format!(
                "SELECT * FROM accounts WHERE (branch = {c} OR branch = {}) AND id = {a}",
                c % 3
            ),
            16 => format!(
                "SELECT * FROM accounts WHERE branch <> {c} AND (branch <> {} OR id = {a})",
                c % 3
            ),
            17 => format!(
                "SELECT * FROM accounts WHERE owner LIKE '{c}%' OR owner LIKE '{}%'",
                c % 3
            ),
            _ => format!("SELECT * FROM accounts WHERE NOT branch = {a}"),
        }
    }

    /// `sql` bound through `compiled`, or `None` when a guard tripped.
    fn bound(compiled: &CompiledTemplate, sql: &str) -> Option<QueryShape> {
        let mut lits = LiteralBuf::default();
        scan_fingerprint(sql, &mut lits).unwrap();
        let mut shape = compiled.skeleton().clone();
        compiled.bind(&lits, &mut shape).then_some(shape)
    }

    fn sel_bits(shape: &QueryShape) -> Vec<u64> {
        let sels = shape.tables.iter().map(|t| t.filter_sel.to_bits());
        sels.collect()
    }

    /// After any sequence of observes, grows, evictions, decays, live
    /// lookups and publications, the store's maintained entries are the
    /// entries a from-scratch build over the same templates and catalog
    /// makes: same templates compiled, same templates ineligible, and the
    /// same literals bound to the same shape, `filter_sel` bits included —
    /// which is also what parse + extract gives.
    #[test]
    fn maintained_entries_equal_a_from_scratch_build() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::{prop_assert, prop_assert_eq};

        property(
            "maintained_entries_equal_a_from_scratch_build",
            PropConfig::default().cases(48),
            |rng, size| {
                let mut cat = catalog();
                let upkeep = UpkeepCounters::bind(&MetricsRegistry::new());
                let mut frames = FrameCache::default();
                let mut store = TemplateStore::new(TemplateStoreConfig {
                    max_templates: rng.random_range(2usize..12),
                    ..TemplateStoreConfig::default()
                });
                // The last statement seen of each template, to bind.
                let mut samples: U64HashMap<String> = U64HashMap::default();
                for _ in 0..20 + 4 * size {
                    match rng.random_range(0u32..10) {
                        0 => {
                            let table = ["accounts", "tellers"][rng.random_range(0usize..2)];
                            cat.grow_table(table, rng.random_range(1u64..5_000))
                                .unwrap();
                        }
                        1 => store.decay(),
                        2 => {
                            store.publish(&cat, &upkeep, &mut frames);
                        }
                        3 => {
                            // A live lookup: its bound clone is the parse path's shape.
                            let sql = statement(rng);
                            let mut lits = LiteralBuf::default();
                            let hash = scan_fingerprint(&sql, &mut lits).unwrap();
                            if let Some((compiled, shape)) = store.compiled_for(hash, &cat, &upkeep)
                            {
                                if compiled.bind(&lits, shape) {
                                    let parsed =
                                        QueryShape::extract(&parse_statement(&sql).unwrap(), &cat);
                                    prop_assert_eq!(&*shape, &parsed);
                                    prop_assert_eq!(sel_bits(shape), sel_bits(&parsed));
                                }
                            }
                        }
                        _ => {
                            let sql = statement(rng);
                            let hash = store.observe(&sql, &cat).unwrap();
                            samples.insert(hash, sql);
                        }
                    }
                }

                let maintained = store.publish(&cat, &upkeep, &mut frames);
                let rebuilt = FastPathCache::build(store.entries(), &cat);
                prop_assert_eq!(maintained.len(), rebuilt.len());
                prop_assert_eq!(maintained.ineligible(), rebuilt.ineligible());
                prop_assert_eq!(store.compiled_len(), maintained.len());
                for (hash, entry) in store.entries() {
                    let (kept, fresh) = (maintained.get(hash), rebuilt.get(hash));
                    prop_assert!(kept.is_some() == fresh.is_some(), "{}", entry.text);
                    let (Some(kept), Some(fresh)) = (kept, fresh) else {
                        continue;
                    };
                    let sql = &samples[&hash];
                    let (a, b) = (bound(kept, sql), bound(fresh, sql));
                    prop_assert!(a == b, "{sql}");
                    prop_assert_eq!(a.as_ref().map(sel_bits), b.as_ref().map(sel_bits));
                    if let Some(a) = a {
                        let parsed = QueryShape::extract(&parse_statement(sql).unwrap(), &cat);
                        prop_assert!(a == parsed && sel_bits(&a) == sel_bits(&parsed), "{sql}");
                    }
                }
                Ok(())
            },
        );
    }

    /// Two reads, one on each table, and a join over both, observed and
    /// published once; returns the store, the catalog and the three hashes.
    fn published_store() -> (TemplateStore, Catalog, MetricsRegistry, [u64; 3]) {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let mut store = TemplateStore::new(TemplateStoreConfig::default());
        let hashes = [
            "SELECT * FROM accounts WHERE balance > 7",
            "SELECT * FROM tellers WHERE id < 7",
            "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch WHERE t.id < 5",
        ]
        .map(|sql| store.observe(sql, &cat).unwrap());
        let upkeep = UpkeepCounters::bind(&registry);
        store.publish(&cat, &upkeep, &mut FrameCache::default());
        assert_eq!(registry.counter_value("sql.fastpath.compiled"), 3);
        (store, cat, registry, hashes)
    }

    #[test]
    fn an_epoch_without_births_or_growth_publishes_the_same_entries() {
        let (mut store, cat, registry, hashes) = published_store();
        let upkeep = UpkeepCounters::bind(&registry);
        let first = store.publish(&cat, &upkeep, &mut FrameCache::default());
        // Repeats of known templates move frequencies, not entries.
        for i in 0..50 {
            let sql = format!("SELECT * FROM tellers WHERE id < {i}");
            store.observe(&sql, &cat).unwrap();
        }
        let second = store.publish(&cat, &upkeep, &mut FrameCache::default());
        assert!(Arc::ptr_eq(&first, &second), "the cache itself is reused");
        for h in hashes {
            assert!(Arc::ptr_eq(&first.entries[&h].1, &second.entries[&h].1));
        }
        assert_eq!(registry.counter_value("sql.fastpath.compiled"), 3);
        assert_eq!(registry.counter_value("sql.fastpath.refolded"), 0);

        // A birth makes a new cache out of the same entries plus one.
        store
            .observe("SELECT * FROM tellers WHERE branch = 1", &cat)
            .unwrap();
        let third = store.publish(&cat, &upkeep, &mut FrameCache::default());
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(third.len(), 4);
        for h in hashes {
            assert!(Arc::ptr_eq(&second.entries[&h].1, &third.entries[&h].1));
        }
        assert_eq!(registry.counter_value("sql.fastpath.compiled"), 4);
    }

    #[test]
    fn growth_of_one_table_refolds_only_the_entries_that_touch_it() {
        let (mut store, mut cat, registry, [on_accounts, on_tellers, join]) = published_store();
        let upkeep = UpkeepCounters::bind(&registry);
        let before = store.publish(&cat, &upkeep, &mut FrameCache::default());
        let reused = registry.counter_value("sql.fastpath.reused");

        cat.grow_table("tellers", 5_000).unwrap();
        let after = store.publish(&cat, &upkeep, &mut FrameCache::default());
        assert!(Arc::ptr_eq(
            &before.entries[&on_accounts].1,
            &after.entries[&on_accounts].1
        ));
        for h in [on_tellers, join] {
            let (old, new) = (&before.entries[&h].1, &after.entries[&h].1);
            assert!(!Arc::ptr_eq(old, new), "re-folded");
            assert!(Arc::ptr_eq(&old.frame, &new.frame), "not re-parsed");
        }
        assert_eq!(registry.counter_value("sql.fastpath.refolded"), 2);
        assert_eq!(registry.counter_value("sql.fastpath.reused"), reused + 1);
        assert_eq!(registry.counter_value("sql.fastpath.compiled"), 3);

        // The frozen copy still answers for the catalog it was made at.
        let sql = "SELECT * FROM tellers WHERE id < 2500";
        let old = bound(&before.entries[&on_tellers].1, sql).unwrap();
        let new = bound(&after.entries[&on_tellers].1, sql).unwrap();
        assert_eq!(
            new,
            QueryShape::extract(&parse_statement(sql).unwrap(), &cat)
        );
        assert_ne!(sel_bits(&old), sel_bits(&new));
    }

    /// The live reader's entry is its template's only holder, so a growth
    /// of its table re-folds it where it lies — the same allocation, equal
    /// to a fresh fold, binding as the parse path does — while an entry a
    /// frozen cache shares is copied.
    #[test]
    fn a_sole_holder_is_refolded_in_place() {
        let (mut store, mut cat, registry, [_, on_tellers, _]) = published_store();
        let upkeep = UpkeepCounters::bind(&registry);
        let frozen = store.publish(&cat, &upkeep, &mut FrameCache::default());
        let at = |store: &mut TemplateStore, cat: &Catalog| {
            let (compiled, _) = store.compiled_for(on_tellers, cat, &upkeep).unwrap();
            (compiled as *const CompiledTemplate, compiled.clone())
        };
        cat.grow_table("tellers", 5_000).unwrap();
        let (shared_at, _) = at(&mut store, &cat);
        assert!(!std::ptr::eq(shared_at, frozen.get(on_tellers).unwrap()));
        drop(frozen);

        for rows in [7_000, 90_000] {
            cat.grow_table("tellers", rows).unwrap();
            let (now, template) = at(&mut store, &cat);
            assert!(std::ptr::eq(now, shared_at), "re-folded in place");
            let fresh = CompiledTemplate::fold(Arc::clone(&template.frame), &cat).unwrap();
            assert_eq!(template.program, fresh.program);
            assert_eq!(template.stamps, fresh.stamps);
            let sql = "SELECT * FROM tellers WHERE id < 2500";
            let shape = bound(&template, sql).unwrap();
            let parsed = QueryShape::extract(&parse_statement(sql).unwrap(), &cat);
            assert!(shape == parsed && sel_bits(&shape) == sel_bits(&parsed));
        }
        assert_eq!(registry.counter_value("sql.fastpath.refolded"), 3);
    }

    // ---------------------------------------------- frames across tenants

    /// A frame is a pure function of the template text and the schema:
    /// every `fleet_workload` template builds equal frames against two
    /// tenants' catalogs of one schema and different sizes, and either
    /// tenant's fold of the other's frame binds its statements as parse +
    /// extract gives them, `filter_sel` bits included. Through one run's
    /// [`FrameCache`] the second tenant builds no frame, and a catalog with
    /// one column renamed gets a schema key, and frames, of its own.
    #[test]
    fn a_frame_is_a_function_of_the_text_and_the_schema() {
        use autoindex_workloads::fleet::{fleet_workload, tenant_catalog};

        let catalogs = [tenant_catalog(2_000), tenant_catalog(9_000)];
        // Per template text, up to four of its statements.
        let mut templates: Vec<(String, Vec<String>)> = Vec::new();
        for tenant in fleet_workload(3, 400, 11) {
            for sql in tenant.queries {
                let text = fingerprint(&sql).unwrap().text;
                match templates.iter_mut().find(|(t, _)| *t == text) {
                    Some((_, sqls)) if sqls.len() < 4 => sqls.push(sql),
                    Some(_) => {}
                    None => templates.push((text, vec![sql])),
                }
            }
        }
        assert!(templates.len() >= 12, "{} templates", templates.len());

        let mut bound = 0;
        for (text, sqls) in &templates {
            let [a, b] = catalogs
                .each_ref()
                .map(|c| Frame::build(text, c).map(Arc::new));
            let (Some(a), Some(b)) = (a, b) else {
                panic!("a fleet template compiles: {text}");
            };
            assert_eq!(a, b, "{text}");
            for (frame, catalog) in [(&b, &catalogs[0]), (&a, &catalogs[1])] {
                let folded = CompiledTemplate::fold(Arc::clone(frame), catalog).unwrap();
                let mut shape = folded.skeleton().clone();
                for sql in sqls {
                    bound += usize::from(binds_as_parsed(&folded, &mut shape, sql, catalog));
                }
            }
        }
        let statements: usize = templates.iter().map(|(_, sqls)| sqls.len()).sum();
        assert_eq!(bound, 2 * statements, "every statement binds");

        let mut renamed = catalogs[0].clone();
        let account = renamed.table("account").unwrap().clone();
        let mut table = TableBuilder::new("account", account.rows).primary_key(&["acct_id"]);
        for mut column in account.columns {
            if column.name == "balance" {
                column.name = "balance_cents".into();
            }
            table = table.column(column);
        }
        renamed.add_table(table.build().unwrap());
        let schema = catalogs.each_ref().map(Catalog::schema_fingerprint);
        assert_eq!(schema[0], schema[1]);
        assert_ne!(schema[0], renamed.schema_fingerprint());

        let registry = MetricsRegistry::new();
        let upkeep = UpkeepCounters::bind(&registry);
        let mut frames = FrameCache::default();
        let mut publish = |catalog: &Catalog| {
            let mut store = TemplateStore::new(TemplateStoreConfig::default());
            for (_, sqls) in &templates {
                store.observe(&sqls[0], catalog).unwrap();
            }
            (store.publish(catalog, &upkeep, &mut frames), store)
        };
        let first = publish(&catalogs[0]);
        let second = publish(&catalogs[1]);
        let n = templates.len() as u64;
        let count = |name| registry.counter_value(name);
        assert_eq!(count("sql.fastpath.compiled"), n);
        assert_eq!(count("sql.fastpath.shared"), n);
        let other = publish(&renamed);
        assert_eq!(count("sql.fastpath.compiled"), 2 * n);
        for (hash, _) in first.1.entries() {
            let frame = |cache: &FastPathCache| Arc::clone(&cache.get(hash).unwrap().frame);
            assert!(Arc::ptr_eq(&frame(&first.0), &frame(&second.0)));
            assert!(!Arc::ptr_eq(&frame(&first.0), &frame(&other.0)));
        }
    }

    // ------------------------------------------- the fold, adversarially

    /// A numeric column of the test catalog: `(column, min, max)`; `rate`
    /// and `load` are floats, the rest integers.
    type NumCol = (&'static str, f64, f64);

    const ACCOUNTS: [NumCol; 4] = [
        ("a.id", 0.0, 500_000.0),
        ("a.balance", 0.0, 40_000.0),
        ("a.branch", 0.0, 512.0),
        ("a.rate", -50.0, 50.0),
    ];
    const TELLERS: [NumCol; 3] = [
        ("t.id", 0.0, 5_000.0),
        ("t.branch", 0.0, 512.0),
        ("t.load", 0.0, 1.0),
    ];

    /// A literal for `col`: below, at, inside or above its `[min, max]`,
    /// an integer or a float whatever the column's type, `- $` when
    /// negative.
    fn literal(rng: &mut StdRng, &(_, min, max): &NumCol) -> String {
        let span = max - min;
        let v = match rng.random_range(0u32..5) {
            0 => min - span * rng.random_range(0.01..2.0) - 1.0,
            1 => min,
            2 => max,
            3 => rng.random_range(min..max),
            _ => max + span * rng.random_range(0.01..2.0) + 1.0,
        };
        if rng.random_bool(0.5) {
            format!("{}", v.round() as i64)
        } else {
            format!("{v:.3}")
        }
    }

    /// One predicate leaf over the tables in scope; `dynamic` is set when
    /// its selectivity reads a literal (a range on a numeric column).
    fn leaf(rng: &mut StdRng, cols: &[NumCol], join: bool, dynamic: &mut bool) -> String {
        let col = &cols[rng.random_range(0..cols.len())];
        let not = if rng.random_bool(0.3) { "NOT " } else { "" };
        match rng.random_range(0u32..8) {
            0 | 1 => {
                let op = ["=", "<>", "<", "<=", ">", ">="][rng.random_range(0usize..6)];
                *dynamic = !matches!(op, "=" | "<>");
                format!("{} {op} {}", col.0, literal(rng, col))
            }
            2 | 3 => {
                *dynamic = true;
                let (lo, hi) = (literal(rng, col), literal(rng, col));
                format!("{} {not}BETWEEN {lo} AND {hi}", col.0)
            }
            4 => format!("{} IS {not}NULL", col.0),
            5 => {
                let n = rng.random_range(1usize..4);
                let items: Vec<String> = (0..n).map(|_| literal(rng, col)).collect();
                format!("{} {not}IN ({})", col.0, items.join(", "))
            }
            6 if cols[0].0.starts_with("a.") => {
                let stem = ["a", "ab", "q", "zz"][rng.random_range(0usize..4)];
                let pattern = if rng.random_bool(0.5) {
                    format!("{stem}%")
                } else {
                    format!("%{stem}")
                };
                format!("a.owner {not}LIKE '{pattern}'")
            }
            7 if join => ["a.branch = t.branch", "a.id = t.id"][rng.random_range(0usize..2)].into(),
            _ => format!("{} = {}", col.0, literal(rng, col)),
        }
    }

    /// An `AND` / `OR` tree of `n` leaves, at most `3 - depth` levels
    /// deep. Counts into `mixed` every `OR` with a literal-dependent leaf
    /// beside a constant one among its children.
    fn tree(
        rng: &mut StdRng,
        cols: &[NumCol],
        join: bool,
        depth: usize,
        n: usize,
        mixed: &mut usize,
    ) -> String {
        if n == 1 {
            return leaf(rng, cols, join, &mut false);
        }
        let or = rng.random_bool(0.5);
        let arity = if depth == 2 {
            n
        } else {
            rng.random_range(2..=n.min(3))
        };
        let (mut rest, mut kinds, mut parts) = (n, Vec::new(), Vec::new());
        for i in 0..arity {
            let take = if i + 1 == arity {
                rest
            } else {
                rng.random_range(1..=rest - (arity - i - 1))
            };
            rest -= take;
            if take == 1 {
                let mut dynamic = false;
                parts.push(leaf(rng, cols, join, &mut dynamic));
                kinds.push(dynamic);
            } else {
                parts.push(format!(
                    "({})",
                    tree(rng, cols, join, depth + 1, take, mixed)
                ));
            }
        }
        if or && kinds.contains(&true) && kinds.contains(&false) {
            *mixed += 1;
        }
        parts.join(if or { " OR " } else { " AND " })
    }

    /// Random `AND` / `OR` predicates over `accounts`, `tellers` or both —
    /// ranges with every operator, `BETWEEN` with negated bounds, `IS
    /// [NOT] NULL`, `IN`, `LIKE`, join edges; literals below, at, inside
    /// and above their column's range, integers against float columns and
    /// floats against integer ones — bind bit for bit as parse + extract
    /// gives them, and again after the entry re-folds for a grown table,
    /// and when a frame built against one catalog is folded for another
    /// tenant of its schema whose table grew before its store saw it.
    #[test]
    fn random_predicate_trees_bind_as_extraction_folds_them() {
        use autoindex_support::prop::{property, PropConfig};

        let (mut bound, mut fell_back, mut mixed) = (0usize, 0usize, 0usize);
        property(
            "random_predicate_trees_bind_as_extraction_folds_them",
            PropConfig::default().cases(96),
            |rng, _| {
                let mut cat = catalog();
                let registry = MetricsRegistry::new();
                let upkeep = UpkeepCounters::bind(&registry);
                let mut store = TemplateStore::new(TemplateStoreConfig::default());
                let both: Vec<NumCol> = ACCOUNTS.iter().chain(&TELLERS).copied().collect();
                let (from, cols, join): (&str, &[NumCol], bool) = match rng.random_range(0u32..3) {
                    0 => ("accounts a", &ACCOUNTS, false),
                    1 => ("tellers t", &TELLERS, false),
                    _ => ("accounts a, tellers t", &both, true),
                };
                let statements: Vec<String> = (0..6)
                    .map(|_| {
                        let n = rng.random_range(1usize..=6);
                        let p = tree(rng, cols, join, 0, n, &mut mixed);
                        format!("SELECT * FROM {from} WHERE {p}")
                    })
                    .collect();
                let grown = from.split(", ").next().unwrap().split(' ').next().unwrap();
                let mut tenant = cat.clone();
                tenant
                    .grow_table(grown, rng.random_range(1u64..1_000_000))
                    .unwrap();
                assert_eq!(tenant.schema_fingerprint(), cat.schema_fingerprint());
                for sql in &statements {
                    let text = fingerprint(sql).unwrap().text;
                    let frame =
                        Frame::build(&text, &cat).unwrap_or_else(|| panic!("eligible: {sql}"));
                    let folded = CompiledTemplate::fold(Arc::new(frame), &tenant).unwrap();
                    let mut shape = folded.skeleton().clone();
                    if binds_as_parsed(&folded, &mut shape, sql, &tenant) {
                        bound += 1;
                    } else {
                        fell_back += 1;
                    }
                }
                let mut pass = |store: &mut TemplateStore, cat: &Catalog| {
                    for sql in &statements {
                        let hash = store.observe(sql, cat).unwrap();
                        let (compiled, shape) = store
                            .compiled_for(hash, cat, &upkeep)
                            .unwrap_or_else(|| panic!("eligible: {sql}"));
                        if binds_as_parsed(compiled, shape, sql, cat) {
                            bound += 1;
                        } else {
                            fell_back += 1;
                        }
                    }
                };
                pass(&mut store, &cat);
                cat.grow_table(grown, rng.random_range(1u64..1_000_000))
                    .unwrap();
                pass(&mut store, &cat);
                assert!(registry.counter_value("sql.fastpath.refolded") > 0);
                Ok(())
            },
        );
        assert!(
            bound > 10 * fell_back,
            "{bound} bound, {fell_back} fell back"
        );
        assert!(mixed >= 50, "only {mixed} mixed OR nodes");
    }
}
