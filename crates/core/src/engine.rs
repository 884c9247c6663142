//! The epoch engine: the execution half of the serving loop
//! ([`serve`](crate::serve::serve) and
//! [`serve_fleet`](crate::serve::serve_fleet)).
//!
//! The loop is the paper's §III loop — execute, observe, diagnose, tune,
//! swap the configuration while the workload keeps running — run as a
//! bulk-synchronous machine:
//!
//! ```text
//!  coordinator (the caller's thread)              executors (one scope)
//!  ┌───────────────────────────────┐  TaskQueue  ┌────────┐┌────────┐
//!  │ run_epoch(slices, sink) ─ tasks ────────────►│worker 0││worker 1│ …
//!  │   each carries its lane's     │             │ pop front / wait   │
//!  │   current Arc<Publication>    │◄────────────┤                    │
//!  │   each run passes to sink in  │ one run     └────────┘└────────┘
//!  │   (tenant, seq) order: absorb │ per task
//!  │                               │
//!  │ boundary: close slices, tune  │
//!  │ publish(tenant) overwrites the coordinator's own copy
//!  └───────────────────────────────┘
//! ```
//!
//! * A **lane** is one tenant's query stream. `serve` is one lane.
//! * `Coordinator::run_epoch` cuts each admitted slice into up to
//!   `shards` contiguous runs and makes each non-empty run a
//!   `(tenant, epoch, start, end)` task holding the publication it runs
//!   against, injects them into the one task queue, and hands the caller's
//!   sink **exactly one observation per sequence slot**, each lane's in
//!   `seq` order.
//!   The unit of hand-off is the task, not the statement: a worker sends
//!   everything one task observed as one message — a `seq`-ascending run
//!   of one tenant — and the coordinator passes each run on as soon as the
//!   run before it in its lane has passed (`InOrder`); only a run that
//!   arrives ahead of its predecessor waits. The coordinator absorbs while
//!   the workers run and never holds the epoch. Which worker ran a
//!   statement never shows.
//! * The loop's boundary then runs on the coordinator — the
//!   only thread that owns the live [`SimDb`]s and each lane's current
//!   publication — and `Coordinator::publish` overwrites that
//!   publication. Tasks of epoch `e+1` are made only after every
//!   epoch-`e` observation has been absorbed, from the publications the
//!   coordinator holds then, so a task's publication is current by
//!   construction: executors share no mutable publication state, and a
//!   replaced publication is freed with the last task that carried it.
//!
//! # Determinism
//!
//! A task's range is a pure function of its slice and `shards`
//! (`chunks`), measurement noise is derived per `seq`, and publications
//! are frozen per epoch — what a worker fills in one (a plan, a late
//! entry) is filled once, with a value no thread's choice moves — so an
//! outcome does not depend on which thread computed it. A lane's
//! observations reach the sink in `seq` order whatever order they arrived
//! in, and lanes share no state, so what a lane absorbs does not depend on
//! how its runs interleave with other lanes'. Everything the loop renders
//! into a transcript is downstream of what `Coordinator::run_epoch` passes
//! to its sink, lane by lane, and therefore worker-count invariant.
//!
//! # Crash safety
//!
//! Every statement executes inside the one `catch_unwind` fence
//! (`Engine::run_task`): a panic becomes a `Panicked` observation for
//! its sequence slot, so epoch accounting stays exact. A worker that
//! exhausts its panic budget hands off what it has of its task, puts the
//! unfinished remainder at the front of the queue (the next pop takes
//! it) and retires. An idle worker waits on the queue's condition
//! variable *under the lock every producer takes* — inject, requeue and
//! the done flag all change the state and notify while holding it — so a
//! wake-up cannot fall between a failed pop and the wait, and no wait
//! needs a timeout. The coordinator blocks on the observation channel;
//! when the last worker has retired the channel hangs up and the
//! coordinator drains the queue inline with an unlimited budget. A panic
//! on the coordinator itself (a tuning round) unwinds through
//! a drop guard that raises the done flag and hangs up the observation
//! channel, so the workers exit and `Engine::run` returns an error
//! instead of hanging.

use crate::error::{invalid, AutoIndexError};
use crate::fastpath::{
    CompiledTemplate, FastPathCache, FrameCache, FrontEnd, Resolved, SkeletonClone, UpkeepCounters,
};
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_sql::fingerprint;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{DbSnapshot, ExecOutcome, PreparedPlan, SimDb, UsageDelta};
use autoindex_support::hash::U64HashMap;
use autoindex_support::obs::{Counter, MetricsRegistry, ShardCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

// --------------------------------------------------------- observations

/// Why a sequence slot produced no [`ExecOutcome`].
#[derive(Debug, Clone)]
pub enum ObservationPayload {
    /// The statement executed against the epoch snapshot.
    Executed {
        outcome: ExecOutcome,
        delta: UsageDelta,
        /// Fingerprint hash whenever the worker scanned the statement —
        /// bound by the compiled-template fast path, or missed with the
        /// fast path on; `None` when nothing scanned it. Never rendered
        /// into the transcript, but the coordinator observes the statement
        /// under it instead of scanning the text again.
        fp: Option<u64>,
    },
    /// The statement did not parse; the slot is accounted but empty.
    ParseFailed,
    /// The executing worker panicked on this statement (the panic was
    /// caught; the slot is accounted but empty).
    Panicked,
}

/// One statement's result, stamped with its logical-clock position.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Sequence number of the statement in its tenant's stream — the
    /// logical clock the coordinator merges on.
    pub seq: u64,
    /// Epoch the statement was executed under.
    pub epoch: u64,
    pub payload: ObservationPayload,
}

/// What a worker sends for one task, and [`Coordinator::run_epoch`]
/// passes on: a `seq`-ascending, contiguous run of one tenant's sequence
/// slots. The tenant, the epoch and the first sequence number are facts of
/// the run, kept once, so a slot in flight holds only what its statement
/// produced: 168 bytes.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) tenant: u32,
    pub(crate) epoch: u64,
    /// Sequence number of `slots[0]`.
    pub(crate) start: u64,
    /// Per slot, in `seq` order: its payload, and whether the fast path
    /// bound the statement (what the report tallies as a hit; a miss
    /// carries a fingerprint hash too).
    pub(crate) slots: Vec<(ObservationPayload, bool)>,
}

impl Run {
    /// One past the last sequence number.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.slots.len() as u64
    }

    /// `(seq, payload, bound)` per slot, in `seq` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &ObservationPayload, bool)> {
        (self.start..)
            .zip(&self.slots)
            .map(|(seq, (p, b))| (seq, p, *b))
    }
}

/// An epoch's runs on their way to the coordinator's sink in
/// `(tenant, seq)` order.
///
/// A [`Run`] — a contiguous part of one admitted slice — passes as soon as
/// its lane's previous slot has passed; one that
/// arrives ahead of its predecessor waits in its lane until then. What is
/// held is the runs in flight, never the epoch. As a run passes, each
/// observation's simulated latency is added to its task's makespan item, in
/// `seq` order from `0.0`: the fold over the task's slots the makespan has
/// always used, bit for bit.
struct InOrder {
    epoch: u64,
    lanes: Vec<LaneOrder>,
    /// Per task, in the order `run_epoch` makes them: its last sequence
    /// number + 1, and its simulated-latency total so far.
    task_end: Vec<u64>,
    task_ms: Vec<f64>,
    /// Observations received, and passed on.
    got: u64,
    passed: u64,
}

/// One lane's place in [`InOrder`].
#[derive(Default)]
struct LaneOrder {
    /// The admitted slice (empty when the lane is idle this epoch).
    slice: Range<u64>,
    /// The next sequence number due.
    next: u64,
    /// The task `next` falls in (an index into `task_end`).
    task: usize,
    /// Runs that arrived ahead of `next`.
    ahead: Vec<Run>,
}

impl InOrder {
    /// The order the tasks of epoch `epoch` over `slices` (at most one per
    /// tenant; each cut into up to `shards` runs, `chunks`) pass in over
    /// `lanes` lanes.
    fn new(epoch: u64, lanes: usize, slices: &[Slice], shards: u64) -> Self {
        let mut order: Vec<LaneOrder> = (0..lanes).map(|_| LaneOrder::default()).collect();
        let mut task_end = Vec::new();
        for &s in slices {
            order[s.tenant as usize] = LaneOrder {
                slice: s.start..s.end,
                next: s.start,
                task: task_end.len(),
                ahead: Vec::new(),
            };
            task_end.extend(chunks(s, shards).map(|run| run.end));
        }
        InOrder {
            epoch,
            lanes: order,
            task_ms: vec![0.0; task_end.len()],
            task_end,
            got: 0,
            passed: 0,
        }
    }

    /// Take one run: pass it to `sink` if it is due, with every waiting
    /// run it makes due; keep it if it is ahead. A run of another epoch,
    /// not part of an admitted slice, or whose slots have passed already,
    /// is dropped: the epoch then ends incomplete.
    fn offer(&mut self, mut run: Run, sink: &mut impl FnMut(&Run)) {
        self.got += run.slots.len() as u64;
        let Some(lane) = self.lanes.get_mut(run.tenant as usize) else {
            return;
        };
        let inside = lane.slice.start <= run.start && run.end() <= lane.slice.end;
        if run.epoch != self.epoch || run.slots.is_empty() || !inside || run.start < lane.next {
            return;
        }
        if run.start > lane.next {
            lane.ahead.push(run);
            return;
        }
        loop {
            self.passed += run.slots.len() as u64;
            for (seq, payload, _) in run.iter() {
                while seq >= self.task_end[lane.task] {
                    lane.task += 1;
                }
                if let ObservationPayload::Executed { outcome, .. } = payload {
                    self.task_ms[lane.task] += outcome.latency_ms;
                }
            }
            lane.next = run.end();
            sink(&run);
            let next = lane.next;
            match lane.ahead.iter().position(|r| r.start == next) {
                Some(i) => run = lane.ahead.swap_remove(i),
                None => return,
            }
        }
    }

    /// Each task's makespan item, in the order the tasks were made, or
    /// `None` unless exactly `expected` observations came, each passed.
    fn finish(self, expected: u64) -> Option<Vec<f64>> {
        (self.got == expected && self.passed == expected).then_some(self.task_ms)
    }
}

/// Restore logical-clock order over one tenant's batch of observations.
///
/// This is the merge operator in its single-tenant form: whatever arrival
/// order N workers produce, sorting on `seq` yields the same sequence a
/// single worker would have produced — the permutation-invariance the
/// determinism contract rests on (property-tested in
/// `crates/core/tests/serving.rs`). The engine does not sort: a worker's
/// run is already in `seq` order, and the coordinator passes each lane's
/// runs on in `seq` order as they arrive (`InOrder`, property-tested
/// below).
pub fn logical_merge(batch: &mut [Observation]) {
    batch.sort_unstable_by_key(|o| o.seq);
}

/// The tasks of `slice`: run `k` of `shards` covers
/// `start + len·k/shards .. start + len·(k+1)/shards`, in order, the empty
/// runs left out — a pure function of the slice, identical at any worker
/// count.
fn chunks(slice: Slice, shards: u64) -> impl Iterator<Item = Slice> {
    let len = slice.end - slice.start;
    (0..shards).filter_map(move |k| {
        let start = slice.start + len * k / shards;
        let end = slice.start + len * (k + 1) / shards;
        (start < end).then_some(Slice {
            start,
            end,
            ..slice
        })
    })
}

/// Deterministic epoch makespan: pack per-task simulated-latency totals
/// onto `workers` slots, longest first, each onto the least-loaded slot
/// (greedy LPT). Returns the busiest slot's load.
///
/// This models parallel execution time in the *simulated* time domain as
/// a pure function of the task totals, instead of measuring which thread
/// happened to win the race for which task — which is
/// scheduler-dependent and would make the throughput benches
/// (the `serve_sweep` and `fleet_sweep` results) flaky.
fn lpt_makespan(mut task_ms: Vec<f64>, workers: usize) -> f64 {
    if workers <= 1 {
        return task_ms.iter().sum();
    }
    // Descending; ties keep the deterministic task order (stable sort).
    task_ms.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut slots = vec![0.0f64; workers];
    for ms in task_ms {
        let i = slots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        slots[i] += ms;
    }
    slots.iter().cloned().fold(0.0, f64::max)
}

/// Throughput in the simulation's time domain: executed statements per
/// simulated second of makespan (zero for an empty run).
pub(crate) fn simulated_qps(executed: u64, makespan_ms: f64) -> f64 {
    if makespan_ms <= 0.0 {
        0.0
    } else {
        executed as f64 * 1000.0 / makespan_ms
    }
}

// ---------------------------------------------------------- publication

/// What one epoch publishes for one tenant: the immutable snapshot, the
/// tenant's compiled templates, frozen current against the catalog the
/// snapshot shares, and one plan slot per compiled template — holding at
/// publication the plan the publication before had for it when nothing
/// that plan read has moved since, else filled at the template's first
/// bound statement. A template the frozen cache lacks — one born since
/// the publication, or evicted — is compiled at its third statement under
/// the publication, once for every worker: its *late* entry, the run's
/// frame of its text and schema folded against the snapshot's catalog,
/// with a plan slot of its own. Its first two statements take the parse
/// path ([`PARSED_BEFORE_LATE`]). All of it
/// is read-only for workers but for those one-time fills (whose values do
/// not depend on who fills them), and the mutex that orders the sightings
/// hands each template's first two to the parse path whichever worker
/// they reach, so hits, misses, plans prepared and plans carried are
/// invariant under worker count.
pub(crate) struct Publication {
    snap: DbSnapshot,
    cache: Arc<FastPathCache>,
    /// Per compiled template (by its ordinal in `cache`) the plan of its
    /// statements against `snap`: the publication before's plan of the
    /// template when its snapshot agrees with `snap` on the template's
    /// tables ([`DbSnapshot::agrees_on`], [`Publication::carry`]), else
    /// prepared by whichever worker first executes the template under this
    /// publication.
    plans: Box<[OnceLock<Arc<PreparedPlan>>]>,
    /// The templates statements missed `cache` with, by fingerprint hash,
    /// and how far each got: parsed so far, or compiled late. Emptied when
    /// the epoch's last run is absorbed
    /// ([`Coordinator::run_epoch`]), before the boundary tunes: the next
    /// publication compiles what it needs from the template store.
    late: Mutex<U64HashMap<Sighting>>,
    /// The run's frames, shared by every publication and late entry of it,
    /// and the snapshot catalog's schema fingerprint, which keys them.
    frames: Arc<Mutex<FrameCache>>,
    schema: OnceLock<u64>,
    /// `planner.prepared`: slots filled by a worker; `planner.carried`:
    /// slots taken from the publication before; `sql.fastpath.late`: late
    /// entries compiled.
    prepared: Counter,
    carried: Counter,
    made_late: Counter,
}

/// What a publication knows of a template its frozen cache lacks.
enum Sighting {
    /// This many of its statements took the parse path.
    Parsed(u32),
    /// Its late entry: every later statement binds through it.
    Late(LateEntry),
}

/// Statements of a template the frozen cache lacks that take the parse
/// path under a publication before the template is compiled late: a late
/// compile (canonical text, a sentinel parse, a traced extraction, a fold,
/// a skeleton clone per worker) costs about two parses, so it pays from a
/// template's third statement in an epoch on, and a template seen once or
/// twice costs what it did before there were late entries.
const PARSED_BEFORE_LATE: u32 = 2;

/// A template a publication compiled late, and its plan slot.
struct Late {
    template: CompiledTemplate,
    plan: OnceLock<Arc<PreparedPlan>>,
}

/// A publication's late entry of one template: compiled by the first worker
/// that asks, `None` when the template does not compile.
type LateEntry = Arc<OnceLock<Option<Late>>>;

/// Recover a lock a panicking statement held: what it guards is a cache
/// filled whole or not at all.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Publication {
    /// Snapshot `db` as `epoch` and freeze the advisor's compiled
    /// templates against its catalog: a template born since the last
    /// publication is compiled — folded from the run's frame of its text
    /// and schema, when `frames` has one — one whose tables grew is
    /// re-folded, every other entry — the whole cache, when nothing moved —
    /// is shared with the publication before (`TemplateStore::publish`).
    pub(crate) fn build<E: CostEstimator>(
        db: &SimDb,
        advisor: &mut AutoIndex<E>,
        epoch: u64,
        fastpath: bool,
        upkeep: &UpkeepCounters,
        frames: &Arc<Mutex<FrameCache>>,
    ) -> Self {
        let snap = db.snapshot(epoch);
        let cache = if fastpath {
            advisor
                .templates_mut()
                .publish(db.catalog(), upkeep, &mut lock(frames))
        } else {
            Arc::new(FastPathCache::empty())
        };
        Publication {
            snap,
            plans: (0..cache.len()).map(|_| OnceLock::new()).collect(),
            cache,
            late: Mutex::default(),
            frames: Arc::clone(frames),
            schema: OnceLock::new(),
            prepared: upkeep.prepared.clone(),
            carried: upkeep.carried.clone(),
            made_late: upkeep.late.clone(),
        }
    }

    /// Seed this publication's empty plan slots from `before`, the
    /// publication of the same tenant it replaces: each template `before`
    /// holds a plan for, and this one compiled too, takes that plan when
    /// the two snapshots agree on the template's tables — nothing the plan
    /// read moved in between, so it prices as a fresh one would. What does
    /// not carry is prepared at its template's first bound statement.
    fn carry(&self, before: &Publication) {
        for (hash, ordinal) in before.cache.ordinals() {
            let Some(plan) = before.plans[ordinal].get() else {
                continue;
            };
            let Some((slot, template)) = self.cache.slot(hash) else {
                continue;
            };
            if self.snap.agrees_on(&before.snap, template.skeleton())
                && self.plans[slot].set(Arc::clone(plan)).is_ok()
            {
                self.carried.incr();
            }
        }
    }

    /// The late entry of template `hash`, whose statement `sql` missed the
    /// frozen cache: `None` for the template's first two statements under
    /// this publication, which take the parse path; made at its third —
    /// the run's frame of its text and schema (built now, from its
    /// canonical text, if no tenant's template holds one), one fold
    /// against the snapshot's catalog — and shared with every worker
    /// after.
    fn late(&self, hash: u64, sql: &str) -> Option<LateEntry> {
        let entry = {
            let mut late = lock(&self.late);
            let sighting = late.entry(hash).or_insert(Sighting::Parsed(0));
            match sighting {
                Sighting::Late(entry) => Arc::clone(entry),
                Sighting::Parsed(n) if *n < PARSED_BEFORE_LATE => {
                    *n += 1;
                    return None;
                }
                Sighting::Parsed(_) => {
                    let entry = LateEntry::default();
                    *sighting = Sighting::Late(Arc::clone(&entry));
                    entry
                }
            }
        };
        entry.get_or_init(|| {
            let catalog = self.snap.catalog();
            let schema = *self.schema.get_or_init(|| catalog.schema_fingerprint());
            let text = || Some(fingerprint(sql).ok()?.text);
            let frame = lock(&self.frames).late_frame((hash, schema), text, catalog)?;
            let template = CompiledTemplate::fold(frame, catalog)?;
            self.made_late.incr();
            Some(Late {
                template,
                plan: OnceLock::new(),
            })
        });
        Some(entry)
    }

    /// Drop the late entries: the epoch they were made in is over.
    fn forget_late(&self) {
        std::mem::take(&mut *lock(&self.late));
    }

    /// Execute `shape`, a statement bound through a compiled template whose
    /// plan slot under this publication is `plan`, at logical time `seq`:
    /// through the prepared plan, made now if this is the template's first
    /// bound statement under this publication.
    fn execute_bound(
        &self,
        plan: &OnceLock<Arc<PreparedPlan>>,
        shape: &QueryShape,
        seq: u64,
    ) -> (ExecOutcome, UsageDelta) {
        let plan = plan.get_or_init(|| {
            self.prepared.incr();
            Arc::new(self.snap.prepare(shape))
        });
        self.snap.execute_prepared_at(plan, shape, seq)
    }
}

// ------------------------------------------------------------- executors

/// Per-worker reusable fast-path state: the statement front end and one
/// bindable skeleton clone per frame, whichever tenants' templates share
/// it, with its cell of `sql.fastpath.clones` (clones made).
struct WorkerScratch {
    front: FrontEnd,
    clones: Clones,
    cloned: ShardCell,
}

impl WorkerScratch {
    fn new(registry: &MetricsRegistry, slot: usize) -> Self {
        WorkerScratch {
            front: FrontEnd::new(registry, slot),
            clones: Clones::default(),
            cloned: registry.sharded_counter("sql.fastpath.clones").cell(slot),
        }
    }
}

/// A reader's skeleton clones by [`SkeletonClone::key`], with the epoch of
/// the publication each tenant's tasks last ran under. A clone outlives
/// every publication whose templates still hold its frame (cloning a
/// skeleton costs a dozen or more heap calls; a re-fold keeps its frame).
#[derive(Default)]
struct Clones {
    by_frame: U64HashMap<SkeletonClone>,
    seen: Vec<u64>,
}

impl Clones {
    /// The clones, for a task of `tenant` under its publication of
    /// `epoch`: when the tenant's publication changed, the clones of
    /// frames no template holds any longer go first.
    fn of(&mut self, tenant: u32, epoch: u64) -> &mut U64HashMap<SkeletonClone> {
        let t = tenant as usize;
        if self.seen.len() <= t {
            self.seen.resize(t + 1, epoch);
        }
        if self.seen[t] != epoch {
            self.by_frame.retain(|_, clone| clone.is_live());
            self.seen[t] = epoch;
        }
        &mut self.by_frame
    }
}

/// Execute one statement against `tenant`'s publication. Reads only the
/// publication and the query text; mutates only the worker's own scratch
/// (and fills a plan slot or a late entry of the publication at most once
/// per template). The statement is resolved by [`FrontEnd::resolve`] over
/// the publication's frozen cache, or, when that misses, over its late
/// entry; a hit is priced through its template's prepared plan, anything
/// else is planned from scratch. Either way the payload carries the hash
/// the scan found (`fp`), so the coordinator never scans the statement
/// again; beside it, whether it was bound.
fn execute_statement(
    publication: &Publication,
    tenant: u32,
    sql: &str,
    seq: u64,
    fastpath: bool,
    scratch: &mut WorkerScratch,
) -> (ObservationPayload, bool) {
    let snap = &publication.snap;
    let WorkerScratch {
        front,
        clones,
        cloned,
    } = scratch;
    let shapes = clones.of(tenant, snap.epoch);
    let mut held = None;
    let late = &mut held;
    let mut plan = None;
    let lookup = fastpath.then_some(|hash| {
        // Moved, not reborrowed: the clone handed out lives as long as the
        // scratch, and a late entry as long as `held`, not as long as this
        // (once-called) closure.
        let (shapes, late) = (shapes, late);
        let (compiled, slot) = match publication.cache.slot(hash) {
            Some((ordinal, compiled)) => (compiled, &publication.plans[ordinal]),
            None => {
                let entry = late.insert(publication.late(hash, sql)?).get()?.as_ref()?;
                (&entry.template, &entry.plan)
            }
        };
        plan = Some(slot);
        let clone = shapes
            .entry(SkeletonClone::key(compiled))
            .or_insert_with(|| {
                cloned.incr();
                SkeletonClone::of(compiled)
            });
        Some((compiled, &mut clone.shape))
    });
    let Ok(resolved) = front.resolve(sql, snap.catalog(), lookup) else {
        return (ObservationPayload::ParseFailed, false);
    };
    let ((outcome, delta), bound) = match &resolved {
        Resolved::Bound(_, shape) => {
            let plan = plan.expect("a bound statement's template has a plan slot");
            (publication.execute_bound(plan, shape, seq), true)
        }
        Resolved::Parsed(_, shape) => (snap.execute_shape_at(shape, seq), false),
    };
    let payload = ObservationPayload::Executed {
        outcome,
        delta,
        fp: resolved.hash(),
    };
    (payload, bound)
}

// ------------------------------------------------------------ task queue

/// The engine's one work source: a FIFO of tasks and the run's done flag
/// behind one lock, with one condition variable for idle workers — not a
/// barrier (the engine is bulk-synchronous by construction), only a place
/// to wait when the queue runs dry between epochs.
///
/// Every producer — [`TaskQueue::inject`], [`TaskQueue::requeue`],
/// [`TaskQueue::finish`] — changes the state and notifies while holding
/// the lock a consumer holds from its failed pop until it sleeps, so a
/// wake-up is never lost and the wait has no timeout. Lock acquisitions
/// recover from poisoning, and nothing is held across statement
/// execution, so a worker panic cannot wedge the run.
#[derive(Default)]
struct TaskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    done: bool,
}

impl TaskQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append an epoch's tasks and wake every waiting worker.
    fn inject(&self, tasks: impl IntoIterator<Item = Task>) {
        let mut state = self.lock();
        state.tasks.extend(tasks);
        self.ready.notify_all();
    }

    /// Put the remainder of an interrupted task where the next pop takes
    /// it, and wake a worker for it.
    fn requeue(&self, task: Task) {
        let mut state = self.lock();
        state.tasks.push_front(task);
        self.ready.notify_one();
    }

    /// End the run: waiting workers leave now, running ones at their next
    /// pop. Tasks still queued are dropped with the engine.
    fn finish(&self) {
        let mut state = self.lock();
        state.done = true;
        self.ready.notify_all();
    }

    /// The next task, waiting for one while the queue is empty; `None`
    /// once the run is done.
    fn next(&self) -> Option<Task> {
        let mut state = self.lock();
        loop {
            if state.done {
                return None;
            }
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The next task if one is queued (the coordinator's inline drain).
    fn try_next(&self) -> Option<Task> {
        self.lock().tasks.pop_front()
    }
}

/// Runs its closure when dropped — on unwind as well as on return.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

// ---------------------------------------------------------------- engine

/// A contiguous run of one tenant's stream admitted into an epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slice {
    pub(crate) tenant: u32,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

/// One unit of executor work: the statements of `slice` — a contiguous run
/// of an admitted slice, or what is left of one after an interrupted run —
/// and the publication they execute against, the lane's current one when
/// the epoch was fanned out.
#[derive(Clone)]
struct Task {
    slice: Slice,
    epoch: u64,
    publication: Arc<Publication>,
}

/// Resolve a caller-facing thread count: `0` = auto-detect via
/// [`std::thread::available_parallelism`] (1 if detection fails), anything
/// else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The engine's share of the serving loop's configuration.
pub(crate) struct EngineConfig {
    /// `field` of the error a coordinator panic is reported under.
    pub(crate) name: &'static str,
    /// Executor threads; `0` means one per available core
    /// ([`resolve_threads`]).
    pub(crate) workers: usize,
    /// Contiguous runs a slice is cut into: one task per non-empty run.
    pub(crate) shards: u64,
    pub(crate) fastpath: bool,
    /// Panics a worker absorbs before retiring.
    pub(crate) max_worker_panics: u64,
    /// Test knob: `(tenant, seq)` pairs at which the executing thread
    /// panics inside the fence.
    pub(crate) panic_on: Vec<(u32, u64)>,
}

/// Shared state of one run: lanes (one query stream per tenant), task
/// queue and head counts. Built by the loop, borrowed by every executor for
/// the length of [`Engine::run`].
pub(crate) struct Engine<'a> {
    cfg: EngineConfig,
    lanes: Vec<&'a [String]>,
    /// `<prefix>.worker_panics` / `<prefix>.workers_retired` in the
    /// run's registry (the loop's prefix is `serve`).
    worker_panics: Counter,
    workers_retired: Counter,
    /// `<prefix>.handoff.batches` / `<prefix>.handoff.observations`:
    /// messages collected and what they carried — one add per task.
    handoff_batches: Counter,
    handoff_observations: Counter,
    /// The run's registry: each executor takes its own cells of the
    /// sharded `sql.fastpath.*` counters from it.
    registry: MetricsRegistry,
    queue: TaskQueue,
    retired: AtomicUsize,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        mut cfg: EngineConfig,
        registry: &MetricsRegistry,
        prefix: &str,
        lanes: Vec<&'a [String]>,
    ) -> Self {
        cfg.workers = resolve_threads(cfg.workers);
        Engine {
            worker_panics: registry.counter(&format!("{prefix}.worker_panics")),
            workers_retired: registry.counter(&format!("{prefix}.workers_retired")),
            handoff_batches: registry.counter(&format!("{prefix}.handoff.batches")),
            handoff_observations: registry.counter(&format!("{prefix}.handoff.observations")),
            registry: registry.clone(),
            queue: TaskQueue::default(),
            retired: AtomicUsize::new(0),
            lanes,
            cfg,
        }
    }

    /// Executor threads the run uses (the resolved count).
    pub(crate) fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Executors that retired after exhausting their panic budget.
    pub(crate) fn workers_retired(&self) -> usize {
        self.retired.load(Ordering::SeqCst)
    }

    fn scratch(&self, slot: usize) -> WorkerScratch {
        WorkerScratch::new(&self.registry, slot)
    }

    /// Spawn the executors, run `coordinate` (which drives epochs through
    /// the [`Coordinator`] it is handed, starting from the lanes' `initial`
    /// publications) on the calling thread, and join.
    /// The one place statement executors are spawned. If `coordinate`
    /// panics, the drop guard raises the done flag and the channel hangs
    /// up, so every worker — waiting, mid-task or blocked handing a run
    /// over — exits, and the panic is returned as an error under
    /// [`EngineConfig::name`].
    pub(crate) fn run<R>(
        &self,
        initial: Vec<Publication>,
        coordinate: impl FnOnce(&mut Coordinator<'_, 'a>) -> Result<R, AutoIndexError>,
    ) -> Result<R, AutoIndexError> {
        assert_eq!(initial.len(), self.lanes.len(), "one publication per lane");
        // A rendezvous: a worker's `send` returns when the coordinator takes
        // the run, so each worker holds only the run it fills or hands over.
        let (tx, rx) = mpsc::sync_channel(0);
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for slot in 0..self.cfg.workers {
                    let tx = tx.clone();
                    s.spawn(move || self.worker(slot, tx));
                }
                drop(tx); // the coordinator only receives
                let mut coordinator = Coordinator {
                    engine: self,
                    rx,
                    current: initial.into_iter().map(Arc::new).collect(),
                    scratch: self.scratch(self.cfg.workers),
                    sim_makespan_ms: 0.0,
                };
                let _done = OnDrop(|| self.queue.finish());
                coordinate(&mut coordinator)
            })
        }))
        .unwrap_or_else(|_| {
            Err(invalid(
                self.cfg.name,
                "the coordinator panicked; the pipeline was aborted",
            ))
        })
    }

    /// The executor loop: take the next task (waiting for one when the
    /// queue is dry), run it against the publication it carries, ship its
    /// observations as one batch. Retires after exhausting the panic
    /// budget; exits after at most one task once the coordinator is gone.
    /// Leaving drops `tx`: the last worker out hangs the channel up, which
    /// is how the coordinator learns it has to drain inline.
    fn worker(&self, slot: usize, tx: SyncSender<Run>) {
        let mut scratch = self.scratch(slot);
        let mut panics = 0u64;
        let max = self.cfg.max_worker_panics;
        while let Some(task) = self.queue.next() {
            let (run, remainder) = self.run_task(task, &mut scratch, &mut panics, max);
            // Hand off before requeueing: when a peer (or the inline
            // drain) picks the remainder up, the part already run is on
            // its way and each slot is still observed exactly once.
            let connected = run.slots.is_empty() || tx.send(run).is_ok();
            if let Some(rest) = remainder {
                self.queue.requeue(rest);
            }
            if panics > max {
                // Budget ran out: retire. The remainder (if any) is the
                // queue's next task and a peer was woken for it.
                self.workers_retired.incr();
                self.retired.fetch_add(1, Ordering::SeqCst);
                return;
            }
            if !connected {
                return;
            }
        }
    }

    /// Execute the remaining statements of one task into one run, one
    /// slot per sequence number in `seq` order — the single panic fence,
    /// and the unit of hand-off. The second value is `None` normally, or
    /// the remainder task when the panic budget ran out mid-task (the
    /// caller hands the run off, requeues, and retires).
    fn run_task(
        &self,
        task: Task,
        scratch: &mut WorkerScratch,
        panics: &mut u64,
        max_panics: u64,
    ) -> (Run, Option<Task>) {
        let Slice { tenant, start, end } = task.slice;
        let queries = self.lanes[tenant as usize];
        // Sized exactly: the runs in flight are what an epoch holds.
        let mut run = Run {
            tenant,
            epoch: task.epoch,
            start,
            slots: Vec::with_capacity((end - start) as usize),
        };
        for seq in start..end {
            let (payload, bound) = catch_unwind(AssertUnwindSafe(|| {
                if self.cfg.panic_on.contains(&(tenant, seq)) {
                    panic!("injected panic at tenant {tenant} seq {seq}");
                }
                let sql = &queries[seq as usize];
                let fastpath = self.cfg.fastpath;
                execute_statement(&task.publication, tenant, sql, seq, fastpath, scratch)
            }))
            .unwrap_or_else(|_| {
                self.worker_panics.incr();
                *panics += 1;
                (ObservationPayload::Panicked, false)
            });
            let panicked = matches!(payload, ObservationPayload::Panicked);
            run.slots.push((payload, bound));
            if panicked && *panics > max_panics {
                let rest = (seq + 1 < end).then(|| Task {
                    slice: Slice {
                        start: seq + 1,
                        ..task.slice
                    },
                    ..task
                });
                return (run, rest);
            }
        }
        (run, None)
    }
}

/// The calling thread's handle on a running engine: fans epochs out,
/// collects them, publishes between them.
pub(crate) struct Coordinator<'e, 'a> {
    engine: &'e Engine<'a>,
    rx: Receiver<Run>,
    /// Each lane's current publication: what the next epoch's tasks carry.
    current: Vec<Arc<Publication>>,
    /// For the inline drain when every worker has retired.
    scratch: WorkerScratch,
    /// Deterministic simulated makespan of the epochs run so far, ms: per
    /// epoch, every injected task's simulated-latency total is packed onto
    /// the worker slots (`lpt_makespan`) and the busiest slot's load is
    /// summed over epochs — epochs are synchronisation points.
    pub(crate) sim_makespan_ms: f64,
}

impl Coordinator<'_, '_> {
    /// Run one epoch: fan `slices` (at most one per tenant) out as
    /// contiguous-run tasks and pass every observation they make to `sink`
    /// — each lane's in `seq` order, a run at a time, as soon as the run
    /// before it in its lane has passed — until there is exactly one per
    /// sequence slot. If every worker has retired with tasks still queued,
    /// the queue is drained inline (unlimited panic budget — each sequence
    /// slot panics at most once) so the epoch always completes. An epoch
    /// that gets a stray observation, one twice, or none for a slot is an
    /// error (what `sink` was handed by then stays handed). Once the last
    /// run has passed, every lane's publication drops its late entries.
    pub(crate) fn run_epoch(
        &mut self,
        epoch: u64,
        slices: &[Slice],
        mut sink: impl FnMut(&Run),
    ) -> Result<(), AutoIndexError> {
        let engine = self.engine;
        let expected: u64 = slices.iter().map(|s| s.end - s.start).sum();
        let tasks: Vec<Task> = slices
            .iter()
            .flat_map(|&slice| chunks(slice, engine.cfg.shards))
            .map(|slice| Task {
                slice,
                epoch,
                publication: Arc::clone(&self.current[slice.tenant as usize]),
            })
            .collect();
        let mut order = InOrder::new(epoch, engine.lanes.len(), slices, engine.cfg.shards);
        engine.queue.inject(tasks);

        // Takes one run; true once every slot is accounted.
        let mut collect = |run: Run| {
            engine.handoff_batches.incr();
            engine.handoff_observations.add(run.slots.len() as u64);
            order.offer(run, &mut sink);
            order.got >= expected
        };
        let mut complete = expected == 0;
        while !complete {
            // Blocking: a live worker either sends what it ran or leaves,
            // and the last one out hangs the channel up.
            complete = match self.rx.recv() {
                Ok(run) => collect(run),
                Err(_) => {
                    // Every worker is gone, and whatever they sent was
                    // received before the hang-up showed: the rest is
                    // still in the queue.
                    while let Some(task) = engine.queue.try_next() {
                        let scratch = &mut self.scratch;
                        let (run, rest) = engine.run_task(task, scratch, &mut 0, u64::MAX);
                        debug_assert!(rest.is_none(), "unlimited budget never retires");
                        collect(run);
                    }
                    true
                }
            };
        }

        let got = order.got;
        let Some(task_ms) = order.finish(expected) else {
            return Err(invalid(
                engine.cfg.name,
                format!(
                    "epoch {epoch}: {got} observations for {expected} sequence slots, not one each"
                ),
            ));
        };
        // One makespan item per task, summed in seq order.
        self.sim_makespan_ms += lpt_makespan(task_ms, engine.cfg.workers);
        // Every run is absorbed: the late entries die with their epoch.
        for publication in &self.current {
            publication.forget_late();
        }
        Ok(())
    }

    /// Publish `tenant`'s next-epoch snapshot — the only point a
    /// configuration swap becomes visible to executors: tasks made from
    /// here on carry it. It starts with the plans of the publication it
    /// replaces that are still current ([`Publication::carry`]); that one
    /// is freed now, every task that carried it having been handed off.
    pub(crate) fn publish(&mut self, tenant: u32, publication: Publication) {
        let lane = &mut self.current[tenant as usize];
        publication.carry(lane);
        *lane = Arc::new(publication);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::SimDbConfig;
    use autoindex_support::rng::StdRng;
    use autoindex_workloads::banking::{self, BankingGenerator};
    use std::time::Duration;

    #[test]
    fn zero_threads_means_available_parallelism() {
        // `0` must auto-detect instead of clamping to 1.
        let detected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(0), detected);
        assert_eq!(resolve_threads(3), 3, "explicit counts are literal");
    }

    /// A run in flight holds one `Observation` per statement until the
    /// coordinator has absorbed it, so the record stays as small as when its
    /// outcome and delta held vectors: the inline index lists and the shared
    /// maintenance charges take no more room than those did.
    #[test]
    fn an_observation_is_no_larger_than_it_was() {
        assert_eq!(std::mem::size_of::<ExecOutcome>(), 72);
        assert_eq!(std::mem::size_of::<UsageDelta>(), 72);
        assert_eq!(std::mem::size_of::<Observation>(), 176);
    }

    /// A worker keeps one clone per frame, whichever tenant's template it
    /// was made for: a template of another tenant of the schema binds into
    /// it, a re-fold keeps it, the same text compiled anew (another frame)
    /// does not find it, and once no template holds its frame it goes at
    /// the next publication change of any tenant.
    #[test]
    fn clones_outlive_other_tenants_tasks_and_publications_that_keep_their_frame() {
        use crate::templates::{TemplateStore, TemplateStoreConfig};
        let sql = "SELECT * FROM account WHERE acct_id = 1";
        let upkeep = UpkeepCounters::bind(&MetricsRegistry::new());
        let mut frames = FrameCache::default();
        let mut catalogs = [banking::catalog(), banking::catalog()];
        catalogs[1].grow_table("account", 10_000).unwrap();
        let mut stores = [(); 2].map(|_| TemplateStore::new(TemplateStoreConfig::default()));
        let mut published = Vec::new();
        let mut hash = 0;
        for (store, catalog) in stores.iter_mut().zip(&catalogs) {
            hash = store.observe(sql, catalog).unwrap();
            published.push(store.publish(catalog, &upkeep, &mut frames));
        }
        let key = SkeletonClone::key(published[0].get(hash).unwrap());
        let mut clones = Clones::default();
        let clone = SkeletonClone::of(published[0].get(hash).unwrap());
        clones.of(0, 5).insert(key, clone);
        let other = published[1].get(hash).unwrap();
        assert_eq!(SkeletonClone::key(other), key, "one frame");
        assert_eq!(clones.of(1, 5).len(), 1);

        // The table grew: the template is re-folded, its frame kept.
        catalogs[0].grow_table("account", 10_000).unwrap();
        let refolded = stores[0].publish(&catalogs[0], &upkeep, &mut frames);
        let template = refolded.get(hash).unwrap();
        assert!(!std::ptr::eq(template, published[0].get(hash).unwrap()));
        assert_eq!(SkeletonClone::key(template), key, "a re-fold keeps it");
        assert_eq!(clones.of(0, 6).len(), 1);

        // The same text compiled from scratch is another frame.
        let rebuilt = FastPathCache::build(stores[0].entries(), &catalogs[0]);
        let anew = rebuilt.get(hash).unwrap();
        assert!(!clones.of(0, 6).contains_key(&SkeletonClone::key(anew)));

        // No template holds the frame any longer: the clone stays until a
        // publication changes.
        drop((published, refolded, stores));
        assert_eq!(clones.of(0, 6).len(), 1);
        assert!(clones.of(1, 7).is_empty());
    }

    #[test]
    fn logical_merge_restores_seq_order() {
        let mk = |seq| Observation {
            seq,
            epoch: 0,
            payload: ObservationPayload::ParseFailed,
        };
        let mut batch = vec![mk(3), mk(0), mk(2), mk(1)];
        logical_merge(&mut batch);
        let seqs: Vec<u64> = batch.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    /// A slice's tasks are its contiguous runs: in order, disjoint,
    /// covering the slice exactly once, sizes within one of each other, and
    /// no empty one — at most `shards`, exactly `min(len, shards)`.
    #[test]
    fn chunks_cover_a_slice_in_order_exactly_once() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::{prop_assert, prop_assert_eq};

        property(
            "chunks_cover_a_slice_in_order_exactly_once",
            PropConfig::default(),
            |rng, size| {
                let start = rng.random_range(0u64..10_000);
                let len = rng.random_range(0..4 * size as u64 + 2);
                let shards = rng.random_range(1u64..40);
                let slice = Slice {
                    tenant: rng.random_range(0u32..8),
                    start,
                    end: start + len,
                };
                let runs: Vec<Slice> = chunks(slice, shards).collect();
                prop_assert_eq!(runs.len() as u64, len.min(shards));
                let mut at = start;
                for run in &runs {
                    prop_assert!(run.tenant == slice.tenant, "{run:?}");
                    prop_assert!(run.start == at && run.start < run.end, "{run:?} at {at}");
                    at = run.end;
                }
                prop_assert_eq!(at, slice.end);
                let sizes = runs.iter().map(|r| r.end - r.start);
                let (lo, hi) = (sizes.clone().min(), sizes.max());
                prop_assert!(
                    hi.zip(lo).is_none_or(|(hi, lo)| hi - lo <= 1),
                    "sizes {lo:?}..{hi:?}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn lpt_makespan_is_deterministic_and_bounded() {
        let loads = vec![5.0, 3.0, 3.0, 2.0, 2.0, 1.0];
        let total: f64 = loads.iter().sum();
        // One slot: the makespan is the serial total.
        assert!((lpt_makespan(loads.clone(), 1) - total).abs() < 1e-12);
        for workers in 2..=4 {
            let mk = lpt_makespan(loads.clone(), workers);
            // Same inputs, same schedule — byte-stable.
            assert_eq!(mk.to_bits(), lpt_makespan(loads.clone(), workers).to_bits());
            // Classic packing bounds: no better than a perfect split, no
            // worse than serial, and at least the single longest shard.
            assert!(mk >= total / workers as f64 - 1e-12);
            assert!(mk <= total + 1e-12);
            assert!(mk >= 5.0 - 1e-12);
        }
        // Perfectly splittable case packs perfectly.
        assert!((lpt_makespan(vec![2.0, 2.0, 2.0, 2.0], 2) - 4.0).abs() < 1e-12);
        assert_eq!(lpt_makespan(Vec::new(), 3), 0.0);
    }

    const TENANTS: u32 = 3;
    const LEN: u64 = 120;
    const INTERVAL: u64 = 50;

    /// Three lanes over one banking stream, driven epoch by epoch.
    struct Fixture {
        db: SimDb,
        queries: Vec<String>,
    }

    /// What a run of every epoch handed its sink, flattened lane by lane:
    /// per observation its key, payload kind (0 executed, 1 parse failure,
    /// 2 panic) and simulated latency bits, plus the run's makespan bits.
    #[derive(Debug, PartialEq)]
    struct Record {
        observed: Vec<(u32, u64, u8, u64)>,
        sim_makespan_bits: u64,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                db: SimDb::new(banking::catalog(), SimDbConfig::default()),
                queries: BankingGenerator::new(5)
                    .generate_hybrid(LEN as usize, 0.6)
                    .into_iter()
                    .map(|(_, q)| q)
                    .collect(),
            }
        }

        fn engine(&self, cfg: EngineConfig, registry: &MetricsRegistry) -> Engine<'_> {
            let lanes = vec![&self.queries[..]; TENANTS as usize];
            Engine::new(cfg, registry, "test", lanes)
        }

        /// A publication of the fixture's database as `epoch`.
        fn publication(&self, epoch: u64) -> Publication {
            let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
            let upkeep = UpkeepCounters::bind(&MetricsRegistry::new());
            let frames = Arc::default();
            Publication::build(&self.db, &mut advisor, epoch, true, &upkeep, &frames)
        }

        fn initial(&self) -> Vec<Publication> {
            (0..TENANTS).map(|_| self.publication(0)).collect()
        }

        /// Run all epochs; every lane must be handed exactly its admitted
        /// slots, in `seq` order, stamped with the epoch.
        fn run(&self, engine: &Engine<'_>) -> Record {
            let mut observed = Vec::new();
            let sim_makespan_ms = engine
                .run(self.initial(), |coordinator| {
                    for epoch in 0..LEN.div_ceil(INTERVAL) {
                        let (start, end) = (epoch * INTERVAL, ((epoch + 1) * INTERVAL).min(LEN));
                        let slices: Vec<Slice> = (0..TENANTS)
                            .map(|tenant| Slice { tenant, start, end })
                            .collect();
                        let mut lanes = vec![Vec::new(); TENANTS as usize];
                        coordinator.run_epoch(epoch, &slices, |run| {
                            assert_eq!(run.epoch, epoch);
                            for (seq, payload, _) in run.iter() {
                                let (kind, ms) = match payload {
                                    ObservationPayload::Executed { outcome, .. } => {
                                        (0, outcome.latency_ms)
                                    }
                                    ObservationPayload::ParseFailed => (1, 0.0),
                                    ObservationPayload::Panicked => (2, 0.0),
                                };
                                let lane: &mut Vec<_> = &mut lanes[run.tenant as usize];
                                lane.push((run.tenant, seq, kind, ms.to_bits()));
                            }
                        })?;
                        for lane in &lanes {
                            let seqs: Vec<u64> = lane.iter().map(|o| o.1).collect();
                            assert_eq!(seqs, (start..end).collect::<Vec<_>>(), "epoch={epoch}");
                        }
                        observed.extend(lanes.into_iter().flatten());
                    }
                    Ok(coordinator.sim_makespan_ms)
                })
                .unwrap();
            Record {
                observed,
                sim_makespan_bits: sim_makespan_ms.to_bits(),
            }
        }
    }

    fn config(workers: usize, shards: u64, budget: u64, panic_on: &[(u32, u64)]) -> EngineConfig {
        EngineConfig {
            name: "test.engine",
            workers,
            shards,
            fastpath: true,
            max_worker_panics: budget,
            panic_on: panic_on.to_vec(),
        }
    }

    /// The engine's contract, below any driver: with seeded
    /// `(tenant, seq)` panic injections and a zero panic budget — so
    /// workers retire mid-epoch and, once they are all gone, the
    /// coordinator drains inline — `run_epoch` still hands its sink exactly
    /// one observation per admitted sequence slot, each lane's in `seq`
    /// order, with exactly the injected slots `Panicked`.
    #[test]
    fn run_epoch_accounts_every_slot_through_retirement_and_inline_drain() {
        let fixture = Fixture::new();
        for workers in [1usize, 2, 4] {
            // More injections than workers, all inside epoch 0: every
            // worker retires there, the coordinator finishes the epoch
            // and runs the remaining ones alone.
            let mut rng = StdRng::seed_from_u64(0xE9_61_4E ^ workers as u64);
            let mut panic_on: Vec<(u32, u64)> = (0..workers + 2)
                .map(|_| (rng.random_range(0..TENANTS), rng.random_range(0..INTERVAL)))
                .collect();
            panic_on.sort_unstable();
            panic_on.dedup();
            assert!(panic_on.len() >= workers);
            let registry = MetricsRegistry::new();
            let engine = fixture.engine(config(workers, 4, 0, &panic_on), &registry);
            let run = fixture.run(&engine);
            let panicked: Vec<(u32, u64)> = run
                .observed
                .iter()
                .filter(|o| o.2 == 2)
                .map(|o| (o.0, o.1))
                .collect();
            assert_eq!(panicked, panic_on, "workers={workers}");
            assert_eq!(engine.workers_retired(), workers, "every worker retired");
            assert_eq!(
                registry.counter_value("test.worker_panics"),
                panic_on.len() as u64
            );
        }
    }

    /// The hand-off unit is the task, and a task a worker retires from is
    /// handed off in parts: what it ran (through the panic that spent its
    /// budget) as one batch, the remainder as a task of its own. Together
    /// the parts cover the task's slots exactly once — so at every shard
    /// and worker count a run where every worker retires returns what a
    /// run where none does returns: same observations, same makespan.
    #[test]
    fn a_retiring_workers_batch_and_remainder_cover_the_task_exactly_once() {
        let fixture = Fixture::new();
        // Six panics in epoch 0, two per lane: more than any worker count.
        let panic_on = [(0, 3), (0, 31), (1, 0), (1, 49), (2, 17), (2, 18)];
        let mut reference: Option<Vec<(u32, u64, u8, u64)>> = None;
        for shards in [1u64, 4, 16] {
            // One task — the run of epoch 0's slice holding 31 — run the
            // way a worker with no budget runs it.
            let registry = MetricsRegistry::new();
            let engine = fixture.engine(config(1, shards, 0, &panic_on), &registry);
            let slice = Slice {
                tenant: 0,
                start: 0,
                end: INTERVAL,
            };
            let run = chunks(slice, shards)
                .find(|run| (run.start..run.end).contains(&31))
                .unwrap();
            let task = Task {
                slice: run,
                epoch: 0,
                publication: Arc::new(fixture.publication(0)),
            };
            let mut scratch = engine.scratch(0);
            let mut seqs = Vec::new();
            let mut next = Some(task.clone());
            let mut parts = 0;
            while let Some(task) = next {
                // A fresh budget of zero per part: each stops at its panic.
                let resumed_at = task.slice.start;
                let (part, rest) = engine.run_task(task, &mut scratch, &mut 0, 0);
                assert!(part.tenant == 0 && part.epoch == 0);
                assert!(rest.as_ref().is_none_or(|r| r.slice.start > resumed_at));
                assert!(rest.as_ref().is_none_or(|r| r.slice.end == run.end));
                seqs.extend(part.start..part.end());
                parts += 1;
                next = rest;
            }
            let due: Vec<u64> = (run.start..run.end).collect();
            assert_eq!(seqs, due, "shards={shards}: each slot once, in order");
            assert!(
                parts >= 2,
                "shards={shards}: the panic at 31 split the task"
            );

            for workers in [1usize, 2, 4] {
                let cell = format!("shards={shards} workers={workers}");
                let registry = MetricsRegistry::new();
                let engine = fixture.engine(config(workers, shards, 0, &panic_on), &registry);
                let retiring = fixture.run(&engine);
                assert_eq!(engine.workers_retired(), workers, "{cell}");
                assert_eq!(
                    registry.counter_value("test.handoff.observations"),
                    u64::from(TENANTS) * LEN,
                    "{cell}: one observation per slot through hand-off and inline drain"
                );

                let registry = MetricsRegistry::new();
                let engine =
                    fixture.engine(config(workers, shards, u64::MAX, &panic_on), &registry);
                let steady = fixture.run(&engine);
                assert_eq!(engine.workers_retired(), 0, "{cell}");
                let tasks: u64 = (0..LEN.div_ceil(INTERVAL))
                    .map(|epoch| (LEN - epoch * INTERVAL).min(INTERVAL).min(shards))
                    .sum::<u64>()
                    * u64::from(TENANTS);
                assert!(
                    registry.counter_value("test.handoff.batches") <= tasks,
                    "{cell}: at most one message per task"
                );

                // The makespan packs each epoch's runs onto `workers`
                // slots, so it is compared within the cell; what was
                // observed is the same in all nine.
                assert_eq!(retiring, steady, "{cell}");
                let reference = reference.get_or_insert(steady.observed);
                assert_eq!(retiring.observed, *reference, "{cell}");
            }
        }
    }

    /// A task the queue tests tell apart by `epoch`.
    fn numbered(serial: u64, publication: &Arc<Publication>) -> Task {
        Task {
            slice: Slice {
                tenant: 0,
                start: 0,
                end: 2,
            },
            epoch: serial,
            publication: Arc::clone(publication),
        }
    }

    /// The one queue under contention: four consumers, an injector feeding
    /// it in waves, and every seventh task handed back once at the front
    /// the way a retiring worker hands back a remainder — every task is
    /// delivered exactly once, and `finish` releases every consumer.
    #[test]
    fn the_queue_delivers_every_task_exactly_once() {
        const WAVES: u64 = 20;
        const PER_WAVE: u64 = 50;
        let publication = Arc::new(Fixture::new().publication(0));
        let queue = TaskQueue::default();
        let (tx, rx) = mpsc::channel();
        let mut delivered: Vec<u64> = std::thread::scope(|s| {
            for _ in 0..4 {
                let (tx, queue) = (tx.clone(), &queue);
                s.spawn(move || {
                    while let Some(task) = queue.next() {
                        if task.epoch % 7 == 0 && task.slice.start == 0 {
                            queue.requeue(Task {
                                slice: Slice {
                                    start: 1,
                                    ..task.slice
                                },
                                ..task
                            });
                        } else {
                            tx.send(task.epoch).unwrap();
                        }
                    }
                });
            }
            drop(tx);
            for wave in 0..WAVES {
                queue.inject(
                    (wave * PER_WAVE..(wave + 1) * PER_WAVE).map(|n| numbered(n, &publication)),
                );
                std::thread::yield_now();
            }
            let got: Vec<u64> = rx.iter().take((WAVES * PER_WAVE) as usize).collect();
            queue.finish();
            // The consumers leave, the channel hangs up: nothing came twice.
            assert_eq!(rx.iter().count(), 0);
            got
        });
        delivered.sort_unstable();
        assert_eq!(delivered, (0..WAVES * PER_WAVE).collect::<Vec<_>>());
        assert_eq!(
            Arc::strong_count(&publication),
            1,
            "no task outlives the run"
        );
    }

    /// A worker blocked in the queue's wait — which has no timeout — is
    /// released by each thing that can give it something to do: an
    /// injected epoch, a remainder requeued at the front, the done flag.
    /// The waiter runs on a spawned thread and the test waits on a channel
    /// with a timeout, so a lost wake-up is a red test, not a stalled job.
    #[test]
    fn a_waiting_worker_is_released_by_inject_requeue_and_done() {
        let publication = Arc::new(Fixture::new().publication(0));
        type Release = fn(&TaskQueue, Task);
        let releases: [(&str, Release, Option<u64>); 3] = [
            ("inject", |q, t| q.inject([t]), Some(11)),
            ("requeue", |q, t| q.requeue(t), Some(11)),
            ("finish", |q, _| q.finish(), None),
        ];
        for (name, release, expected) in releases {
            let queue = Arc::new(TaskQueue::default());
            let (tx, rx) = mpsc::channel();
            let waiter = Arc::clone(&queue);
            std::thread::spawn(move || {
                let _ = tx.send(waiter.next().map(|task| task.epoch));
            });
            let idle = rx.recv_timeout(Duration::from_millis(50));
            assert!(
                idle.is_err(),
                "{name}: nothing to hand out yet, got {idle:?}"
            );
            release(&queue, numbered(11, &publication));
            match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(got) => assert_eq!(got, expected, "{name}"),
                Err(_) => panic!("{name}: the waiting worker was never woken"),
            }
        }
    }

    /// The coordinator's copy is the only one that outlives an epoch: when
    /// `run_epoch` returns every task has been run and dropped, so
    /// the publication `publish` replaces is freed there and then — no
    /// worker, slot or queue keeps an older generation alive.
    #[test]
    fn a_replaced_publication_is_freed_with_its_epochs_tasks() {
        let fixture = Fixture::new();
        let registry = MetricsRegistry::new();
        // One run per slice: every task's hand-off is a batch the epoch
        // waits for.
        let engine = fixture.engine(config(2, 1, u64::MAX, &[]), &registry);
        // Per (epoch, tenant): holders after the epoch, after the publish.
        let holders = engine
            .run(fixture.initial(), |coordinator| {
                let mut holders = Vec::new();
                for epoch in 0..LEN.div_ceil(INTERVAL) {
                    let (start, end) = (epoch * INTERVAL, ((epoch + 1) * INTERVAL).min(LEN));
                    let slices: Vec<Slice> = (0..TENANTS)
                        .map(|tenant| Slice { tenant, start, end })
                        .collect();
                    coordinator.run_epoch(epoch, &slices, |_| {})?;
                    for tenant in 0..TENANTS {
                        // The fixture's publications know no template, so
                        // the epoch's statements made late entries; they
                        // died with it.
                        let late = &coordinator.current[tenant as usize].late;
                        assert!(lock(late).is_empty(), "epoch {epoch}");
                        let old = Arc::downgrade(&coordinator.current[tenant as usize]);
                        let before = old.strong_count();
                        coordinator.publish(tenant, fixture.publication(epoch + 1));
                        holders.push((before, old.strong_count()));
                    }
                }
                Ok(holders)
            })
            .unwrap();
        let epochs = LEN.div_ceil(INTERVAL) as usize;
        assert_eq!(holders, vec![(1, 0); epochs * TENANTS as usize]);
    }

    /// A publication takes the plans of the one it replaces whose tables
    /// and indexes held, and only those. Executing under publication *N*
    /// fills *N*'s slots. Rebuilt with nothing moved, the next publication
    /// holds every filled slot at once, prepares nothing and prices bit for
    /// bit as planning each statement from scratch against its own snapshot
    /// does. After one table grew, and after one table gained an index,
    /// only the templates that read it prepare again. After an index was
    /// created and every table grew, nothing
    /// carries: the next publication prices from plans of its own, and
    /// differently from what the old plans say.
    #[test]
    fn a_publication_carries_the_plans_whose_tables_and_indexes_held() {
        use autoindex_storage::index::IndexDef;

        let Fixture { mut db, queries } = Fixture::new();
        let registry = MetricsRegistry::new();
        let upkeep = UpkeepCounters::bind(&registry);
        let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        for sql in &queries {
            advisor.observe(sql, &db).unwrap();
        }
        let filled = |p: &Publication| p.plans.iter().filter(|slot| slot.get().is_some()).count();
        let prepared = || registry.counter_value("planner.prepared");
        let carried = || registry.counter_value("planner.carried");
        // Every statement under `publication`, with its unprepared twin.
        let run = |publication: &Publication| -> Vec<(u64, u64)> {
            let mut scratch = WorkerScratch::new(&registry, 0);
            let mut bound = Vec::new();
            for (seq, sql) in queries.iter().enumerate() {
                let seq = seq as u64;
                let (payload, hit) =
                    execute_statement(publication, 0, sql, seq, true, &mut scratch);
                let ObservationPayload::Executed { outcome, delta, fp } = payload else {
                    panic!("{sql} did not execute");
                };
                let stmt = autoindex_sql::parse_statement(sql).unwrap();
                let shape = QueryShape::extract(&stmt, publication.snap.catalog());
                let (reference, reference_delta) = publication.snap.execute_shape_at(&shape, seq);
                assert_eq!(outcome.latency_ms.to_bits(), reference.latency_ms.to_bits());
                assert_eq!(outcome.features, reference.features, "{sql}");
                assert_eq!(outcome.indexes_used, reference.indexes_used, "{sql}");
                assert_eq!(delta, reference_delta, "{sql}");
                if hit {
                    let fp = fp.expect("a bound statement was scanned");
                    bound.push((fp, outcome.latency_ms.to_bits()));
                }
            }
            bound
        };
        // Publication `epoch` of the database as it is now, seeded from
        // `before` as `Coordinator::publish` seeds it.
        let frames = Arc::default();
        let mut publish = |db: &SimDb, epoch: u64, before: Option<&Publication>| {
            let next = Publication::build(db, &mut advisor, epoch, true, &upkeep, &frames);
            if let Some(before) = before {
                next.carry(before);
            }
            next
        };
        // Of `before`'s filled slots, the templates that read `table`, and
        // those that do not.
        let reading = |before: &Publication, table: &str| {
            let (mut read, mut other) = (0, 0);
            for (hash, ordinal) in before.cache.ordinals() {
                if before.plans[ordinal].get().is_none() {
                    continue;
                }
                let shape = before.cache.get(hash).unwrap().skeleton();
                let written = shape.write.iter().map(|w| &w.table);
                let mut tables = shape.tables.iter().map(|t| &t.table).chain(written);
                match tables.any(|t| t == table) {
                    true => read += 1,
                    false => other += 1,
                }
            }
            (read, other)
        };

        let first = publish(&db, 0, None);
        assert!(!first.plans.is_empty() && first.plans.len() == first.cache.len());
        assert_eq!(filled(&first), 0, "slots fill lazily");
        let under_first = run(&first);
        let made = prepared();
        assert_eq!(made as usize, filled(&first));
        assert!(made > 0 && (made as usize) < under_first.len());
        run(&first);
        assert_eq!(prepared(), made, "a filled slot is not prepared again");

        // Nothing moved: every filled slot carries, as the same plan.
        let same = publish(&db, 1, Some(&first));
        assert_eq!(filled(&same), filled(&first));
        assert_eq!(carried(), made);
        for (hash, ordinal) in first.cache.ordinals() {
            if let Some(plan) = first.plans[ordinal].get() {
                let (slot, _) = same.cache.slot(hash).unwrap();
                assert!(Arc::ptr_eq(plan, same.plans[slot].get().unwrap()));
            }
        }
        let under_same = run(&same);
        assert_eq!(prepared(), made, "nothing is prepared again");
        assert_eq!(under_same, under_first, "the prices did not move");

        // One table grew, then one table gained an index: each time only
        // the templates that read it prepare again.
        let mut before = same;
        for (epoch, table) in [(2, "card"), (3, "account")] {
            match epoch {
                2 => db.grow_table(table, 300_000).unwrap(),
                _ => {
                    db.create_index(IndexDef::new(table, &["acct_type"]))
                        .unwrap();
                }
            }
            let (read, other) = reading(&before, table);
            assert!(
                read > 0 && other > 0,
                "{read} templates read {table}, {other} do not"
            );
            let (made, carried_before) = (prepared(), carried());
            let next = publish(&db, epoch, Some(&before));
            assert_eq!(filled(&next), other, "{table}");
            assert_eq!(carried() - carried_before, other as u64, "{table}");
            run(&next);
            assert_eq!(prepared() - made, read as u64, "{table}");
            assert_eq!(filled(&next), filled(&before), "{table}");
            before = next;
        }
        let (grown, made) = (before, prepared());

        // An index the point lookups want, and growth of every table:
        // nothing carries.
        db.create_index(IndexDef::new("withdraw_flow", &["acct_id", "ts"]))
            .unwrap();
        let tables: Vec<String> = db.catalog().tables().map(|t| t.name.clone()).collect();
        for table in &tables {
            db.grow_table(table, 50_000).unwrap();
        }
        let before = carried();
        let second = publish(&db, 4, Some(&grown));
        assert_eq!(filled(&second), 0, "nothing of publication 3 came along");
        assert_eq!(carried(), before);
        let under_second = run(&second);
        assert_eq!(prepared() - made, filled(&second) as u64);
        assert_eq!(
            under_first.iter().map(|b| b.0).collect::<Vec<_>>(),
            under_second.iter().map(|b| b.0).collect::<Vec<_>>(),
            "the same statements bound"
        );
        assert!(
            under_first
                .iter()
                .zip(&under_second)
                .any(|(a, b)| a.1 != b.1),
            "a plan of publication 0 would have priced these differently"
        );
    }

    /// Two workers that miss one template under one publication at once
    /// share one late entry: the template's first two statements take the
    /// parse path, its third compiles the entry, and every later one, on
    /// either worker, binds into a clone of its one frame through one
    /// prepared plan. A template seen once compiles nothing. Another
    /// tenant's publication of the schema folds a late entry of its own from
    /// that frame. The entries go when the epoch ends, and the frame with
    /// them.
    #[test]
    fn two_workers_missing_one_template_build_one_frame_and_one_late_entry() {
        let db = Fixture::new().db;
        let registry = MetricsRegistry::new();
        let upkeep = UpkeepCounters::bind(&registry);
        let frames = Arc::default();
        let publish = || {
            let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
            Publication::build(&db, &mut advisor, 0, true, &upkeep, &frames)
        };
        let publication = publish();
        assert!(
            publication.cache.is_empty(),
            "the advisor knows no template"
        );
        let sql = |k: u64| format!("SELECT * FROM account WHERE acct_id = {k}");
        let start = std::sync::Barrier::new(2);
        let workers: Vec<(WorkerScratch, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|slot| {
                    let (publication, start, registry) = (&publication, &start, &registry);
                    s.spawn(move || {
                        let mut scratch = WorkerScratch::new(registry, slot);
                        start.wait();
                        let mut bound = 0;
                        for seq in 0..20 {
                            let sql = sql(seq + 100 * slot as u64);
                            let (payload, b) =
                                execute_statement(publication, 0, &sql, seq, true, &mut scratch);
                            assert!(matches!(payload, ObservationPayload::Executed { .. }));
                            bound += u64::from(b);
                        }
                        (scratch, bound)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            workers[0].1 + workers[1].1,
            38,
            "all but the first two bind"
        );
        // Each worker's clone of the template's skeleton, by frame key.
        let keys: Vec<Vec<u64>> = workers
            .iter()
            .map(|(scratch, _)| scratch.clones.by_frame.keys().copied().collect())
            .collect();
        assert_eq!(keys[0].len(), 1);
        assert_eq!(keys[0], keys[1], "one frame");
        assert_eq!(registry.counter_value("sql.fastpath.late"), 1);
        assert_eq!(registry.counter_value("planner.prepared"), 1);
        assert_eq!(
            registry.counter_value("sql.fastpath.compiled"),
            0,
            "`compiled` counts the frames publications build"
        );

        let mut scratch = WorkerScratch::new(&registry, 2);
        let once = "SELECT * FROM card WHERE card_id = 5";
        let (_, bound) = execute_statement(&publication, 0, once, 40, true, &mut scratch);
        assert!(!bound);
        assert_eq!(registry.counter_value("sql.fastpath.late"), 1, "{once}");
        assert_eq!(lock(&publication.late).len(), 2);

        let other = publish();
        let bound: Vec<bool> = (0..3)
            .map(|seq| execute_statement(&other, 1, &sql(seq), seq, true, &mut scratch).1)
            .collect();
        assert_eq!(bound, [false, false, true]);
        assert_eq!(registry.counter_value("sql.fastpath.late"), 2);
        let other_keys: Vec<u64> = scratch.clones.by_frame.keys().copied().collect();
        assert_eq!(other_keys, keys[0], "the schema's frame");

        publication.forget_late();
        other.forget_late();
        assert!(lock(&publication.late).is_empty() && lock(&other.late).is_empty());
        let clones: Vec<_> = workers
            .iter()
            .map(|(scratch, _)| scratch)
            .chain([&scratch])
            .flat_map(|scratch| scratch.clones.by_frame.values())
            .collect();
        assert_eq!(clones.len(), 3);
        assert!(
            clones.iter().all(|c| !c.is_live()),
            "no template holds the frame"
        );
    }

    /// A simulated outcome of `latency_ms`.
    fn executed(latency_ms: f64) -> ObservationPayload {
        let outcome = ExecOutcome {
            latency_ms,
            features: Default::default(),
            indexes_used: Default::default(),
        };
        ObservationPayload::Executed {
            outcome,
            delta: UsageDelta::default(),
            fp: None,
        }
    }

    /// [`InOrder`] is an order, not a buffer: whatever the order runs
    /// arrive in and whichever way retiring workers split tasks, each lane
    /// is handed its slots in `seq` order, exactly once each, and each
    /// task's makespan item is the fold over its slots in `seq` order from
    /// `0.0` — the sum the epoch's makespan always took — bit for bit.
    #[test]
    fn each_lane_receives_its_runs_in_seq_order_and_each_task_its_fold() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::{prop_assert, prop_assert_eq};

        property(
            "each_lane_receives_its_runs_in_seq_order_and_each_task_its_fold",
            PropConfig::default(),
            |rng, size| {
                let lanes = rng.random_range(1u32..6);
                let shards = rng.random_range(1u64..9);
                // At most one slice per tenant, some tenants idle, some
                // slices empty; admitted in any order.
                let mut slices: Vec<Slice> = (0..lanes)
                    .filter_map(|tenant| {
                        let start = rng.random_range(0u64..1_000);
                        let end = start + rng.random_range(0..size as u64 + 2);
                        (rng.random_range(0u32..4) > 0).then_some(Slice { tenant, start, end })
                    })
                    .collect();
                rng.shuffle(&mut slices);

                // One run per task; latencies with all their bits.
                let mut runs: Vec<Run> = Vec::new();
                let mut folds = Vec::new();
                for slice in &slices {
                    for task in chunks(*slice, shards) {
                        let mut slots: Vec<(ObservationPayload, bool)> = (task.start..task.end)
                            .map(|_| match rng.random_range(0u32..8) {
                                0 => (ObservationPayload::Panicked, false),
                                _ => (executed(rng.random_f64() * 10.0), true),
                            })
                            .collect();
                        folds.push(slots.iter().fold(0.0, |ms, (p, _)| match p {
                            ObservationPayload::Executed { outcome, .. } => ms + outcome.latency_ms,
                            _ => ms,
                        }));
                        // Resumed tasks: hand the run off in up to three
                        // parts, possibly empty.
                        let mut start = task.start;
                        for _ in 0..rng.random_range(0u32..3) {
                            let rest = slots.split_off(rng.random_range(0..slots.len() + 1));
                            let part = std::mem::replace(&mut slots, rest);
                            let len = part.len() as u64;
                            let (tenant, epoch) = (slice.tenant, 0);
                            runs.push(Run {
                                tenant,
                                epoch,
                                start,
                                slots: part,
                            });
                            start += len;
                        }
                        let (tenant, epoch) = (slice.tenant, 0);
                        runs.push(Run {
                            tenant,
                            epoch,
                            start,
                            slots,
                        });
                    }
                }
                rng.shuffle(&mut runs);

                let expected: u64 = slices.iter().map(|s| s.end - s.start).sum();
                let mut order = InOrder::new(0, lanes as usize, &slices, shards);
                let mut handed: Vec<Vec<u64>> = vec![Vec::new(); lanes as usize];
                for run in runs {
                    order.offer(run, &mut |run: &Run| {
                        handed[run.tenant as usize].extend(run.start..run.end());
                    });
                }
                let Some(task_ms) = order.finish(expected) else {
                    return Err("the epoch came out incomplete".into());
                };
                for slice in &slices {
                    let due: Vec<u64> = (slice.start..slice.end).collect();
                    prop_assert_eq!(&handed[slice.tenant as usize], &due);
                }
                prop_assert!(handed.iter().map(Vec::len).sum::<usize>() as u64 == expected);
                let bits = |ms: &[f64]| ms.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&task_ms), bits(&folds));
                Ok(())
            },
        );
    }

    #[test]
    fn an_epoch_with_a_stray_or_missing_observation_is_incomplete() {
        let of = |epoch, tenant, start, len| Run {
            tenant,
            epoch,
            start,
            slots: (0..len)
                .map(|_| (ObservationPayload::ParseFailed, false))
                .collect(),
        };
        let slices = [Slice {
            tenant: 1,
            start: 10,
            end: 12,
        }];
        let mk = |tenant, start, len| of(0, tenant, start, len);
        let complete = |runs: Vec<Run>| {
            let mut order = InOrder::new(0, 2, &slices, 2);
            for run in runs {
                order.offer(run, &mut |_: &Run| {});
            }
            order.finish(2).is_some()
        };
        assert!(complete(vec![mk(1, 10, 2)]));
        assert!(complete(vec![mk(1, 11, 1), mk(1, 10, 1)]), "ahead");
        assert!(!complete(vec![mk(1, 10, 1)]), "missing");
        assert!(!complete(vec![mk(1, 10, 1), mk(1, 10, 1)]), "twice");
        assert!(
            !complete(vec![mk(1, 11, 1), mk(1, 10, 2)]),
            "twice, overlapping"
        );
        assert!(
            !complete(vec![mk(1, 10, 1), mk(1, 12, 1)]),
            "outside the slice"
        );
        assert!(!complete(vec![mk(1, 10, 1), mk(0, 11, 1)]), "idle lane");
        assert!(!complete(vec![mk(1, 10, 1), mk(7, 11, 1)]), "no such lane");
        assert!(
            !complete(vec![mk(1, 10, 1), of(1, 1, 11, 1)]),
            "another epoch"
        );
    }
}
