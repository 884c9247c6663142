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
//!  │ run_epoch(slices) ── tasks ───┼────────────►│worker 0││worker 1│ …
//!  │   each carries its lane's     │             │ pop front / wait   │
//!  │   current Arc<Publication>    │◄────────────┤                    │
//!  │   collect exactly |slices|    │ one batch   └────────┘└────────┘
//!  │   place on (tenant, seq)      │ per task
//!  │                               │
//!  │ boundary: absorb, tune        │
//!  │ publish(tenant) overwrites the coordinator's own copy
//!  └───────────────────────────────┘
//! ```
//!
//! * A **lane** is one tenant's query stream. `serve` is one lane.
//! * `Coordinator::run_epoch` cuts each admitted slice into up to
//!   `shards` contiguous runs and makes each non-empty run a
//!   `(tenant, epoch, start, end)` task holding the publication it runs
//!   against, injects them into the one task queue and returns **exactly
//!   one observation per sequence slot**, merged on the `(tenant, seq)`
//!   logical clock.
//!   The unit of hand-off is the task, not the statement: a worker sends
//!   everything one task observed as one message — a `seq`-ascending run
//!   of one tenant — and the coordinator moves each batch to the slots it
//!   was due in (`EpochMerge`). Which worker ran a statement never shows.
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
//! are frozen per epoch, so an outcome does not depend on which thread
//! computed it; the merge erases arrival order. Everything the loop
//! renders into a transcript is downstream of `Coordinator::run_epoch`'s
//! return value and therefore worker-count invariant.
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
use crate::fastpath::{FastPathCache, FrontEnd, Resolved, UpkeepCounters};
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{DbSnapshot, ExecOutcome, PreparedPlan, SimDb, UsageDelta};
use autoindex_support::hash::U64HashMap;
use autoindex_support::obs::{Counter, MetricsRegistry};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bound of the observation channel, in **batches** (one per task; see
/// [`Engine::run_task`]). An epoch has at most `slices × shards` tasks
/// and the coordinator does nothing but receive until it holds them all,
/// so the bound only has to let every worker finish a task or two ahead of
/// the coordinator: 64 is two per worker at 32 workers, and a worker past
/// it blocks in `send` until one is taken (backpressure, as before). In
/// statements: a batch holds at most one task, a contiguous run of
/// `⌈len / shards⌉` statements of one slice at most, so at most 64
/// slices' worth of observations wait in the channel.
const CHANNEL_CAPACITY: usize = 64;

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

/// An [`Observation`] with the lane it belongs to: what workers send (a
/// task's worth at a time) and [`Coordinator::run_epoch`] returns, merged
/// on `(tenant, obs.seq)`.
#[derive(Debug)]
pub(crate) struct TenantObservation {
    pub(crate) tenant: u32,
    pub(crate) obs: Observation,
    /// Whether the fast path bound the statement (what the report tallies
    /// as a hit); kept beside the payload, whose `fp` a miss carries too.
    pub(crate) bound: bool,
}

/// An epoch's observations on their way into `(tenant, seq)` order.
///
/// Exactly one observation is due per admitted sequence slot, so the
/// position each takes in the merged epoch is known before it arrives —
/// slices in tenant order, a slice's slots in `seq` order — and merging is
/// placing: every batch is moved to its slots as it comes in and dropped.
/// Arrival order is erased just as a sort on the key would erase it (the
/// result is the same sequence; property-tested below) in one move per
/// ~200-byte record instead of `log n`, and the epoch is never held twice.
struct EpochMerge {
    /// Per lane: its admitted slice's `start..end` and the position of
    /// `start` in `slots` (an empty range when the lane has no slice).
    homes: Vec<(std::ops::Range<u64>, usize)>,
    slots: Vec<Option<TenantObservation>>,
}

impl EpochMerge {
    /// Lay out the slots of `slices` (at most one per tenant, in any
    /// order) over `lanes` lanes.
    fn new(lanes: usize, slices: &[Slice]) -> Self {
        let mut homes = vec![(0..0, 0); lanes];
        let mut by_tenant: Vec<&Slice> = slices.iter().collect();
        by_tenant.sort_unstable_by_key(|s| s.tenant);
        let mut at = 0;
        for s in by_tenant {
            homes[s.tenant as usize] = (s.start..s.end, at);
            at += (s.end - s.start) as usize;
        }
        let mut slots = Vec::new();
        slots.resize_with(at, || None);
        EpochMerge { homes, slots }
    }

    /// The positions `run`, a contiguous part of an admitted slice, fills
    /// in the merged epoch.
    fn span(&self, run: &Slice) -> Range<usize> {
        let (range, at) = &self.homes[run.tenant as usize];
        let from = at + (run.start - range.start) as usize;
        from..from + (run.end - run.start) as usize
    }

    /// Move a batch to its slots. An observation no slot is waiting for
    /// is dropped; its slot then stays empty and [`EpochMerge::finish`]
    /// reports the epoch incomplete.
    fn place(&mut self, batch: Vec<TenantObservation>) {
        for o in batch {
            let Some((range, at)) = self.homes.get(o.tenant as usize) else {
                continue;
            };
            if !range.contains(&o.obs.seq) {
                continue;
            }
            let slot = &mut self.slots[at + (o.obs.seq - range.start) as usize];
            if slot.is_none() {
                *slot = Some(o);
            }
        }
    }

    /// The merged epoch, or `None` if a slot was never filled.
    fn finish(self) -> Option<Vec<TenantObservation>> {
        // Same element size and layout: collected in place.
        self.slots.into_iter().collect()
    }
}

/// Restore logical-clock order over one tenant's batch of observations.
///
/// This is the merge operator in its single-tenant form: whatever arrival
/// order N workers produce, sorting on `seq` yields the same sequence a
/// single worker would have produced — the permutation-invariance the
/// determinism contract rests on (property-tested in
/// `crates/core/tests/serving.rs`). The engine does not sort: it knows
/// each `(tenant, seq)` slot before its observation arrives and places
/// every observation there (`EpochMerge`, property-tested equal to the
/// sort).
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
/// snapshot shares, and one lazily filled plan slot per compiled template.
/// All of it is read-only for workers but for the one-time fill of a slot
/// (whose value does not depend on who fills it), so fast-path behaviour is
/// a pure function of `(stream, publications)` — invariant under worker
/// count.
pub(crate) struct Publication {
    snap: DbSnapshot,
    cache: Arc<FastPathCache>,
    /// Per compiled template (by its ordinal in `cache`) the plan of its
    /// statements against `snap`, prepared by whichever worker first
    /// executes the template under this publication. A plan is valid for
    /// exactly as long as `snap` is what statements execute against, and
    /// `snap` never changes: the slots have no invalidation rule and die
    /// with the publication.
    plans: Box<[OnceLock<Box<PreparedPlan>>]>,
    /// `planner.prepared`: slots filled.
    prepared: Counter,
}

impl Publication {
    /// Snapshot `db` as `epoch` and freeze the advisor's compiled
    /// templates against its catalog: a template born since the last
    /// publication is compiled, one whose tables grew is re-folded, every
    /// other entry — the whole cache, when nothing moved — is shared with
    /// the publication before (`TemplateStore::publish`).
    pub(crate) fn build<E: CostEstimator>(
        db: &SimDb,
        advisor: &mut AutoIndex<E>,
        epoch: u64,
        fastpath: bool,
        upkeep: &UpkeepCounters,
    ) -> Self {
        let snap = db.snapshot(epoch);
        let cache = if fastpath {
            advisor.templates_mut().publish(db.catalog(), upkeep)
        } else {
            Arc::new(FastPathCache::empty())
        };
        Publication {
            snap,
            plans: (0..cache.len()).map(|_| OnceLock::new()).collect(),
            cache,
            prepared: upkeep.prepared.clone(),
        }
    }

    /// Execute `shape`, a statement bound through the compiled template
    /// with ordinal `slot`, at logical time `seq`: through the template's
    /// prepared plan, made now if this is its first statement under this
    /// publication.
    fn execute_bound(
        &self,
        slot: usize,
        shape: &QueryShape,
        seq: u64,
    ) -> (ExecOutcome, UsageDelta) {
        let plan = self.plans[slot].get_or_init(|| {
            self.prepared.incr();
            Box::new(self.snap.prepare(shape))
        });
        self.snap.execute_prepared_at(plan, shape, seq)
    }
}

// ------------------------------------------------------------- executors

/// Per-worker reusable fast-path state: the statement front end and one
/// bindable skeleton clone per compiled template of each tenant. A clone
/// is bound against the catalog of the publication it was made under, and
/// fingerprints collide across tenants, so clones are kept by
/// `(tenant, hash)` and a tenant's are dropped when its publication's
/// epoch changes — not when a task of another tenant comes in between.
struct WorkerScratch {
    front: FrontEnd,
    clones: Clones,
}

impl WorkerScratch {
    fn new(front: FrontEnd) -> Self {
        WorkerScratch {
            front,
            clones: Clones(Vec::new()),
        }
    }
}

/// Per tenant: the epoch of the publication its clones were made under,
/// and the clones by template hash.
struct Clones(Vec<(u64, U64HashMap<QueryShape>)>);

impl Clones {
    /// `tenant`'s clones, made under its publication of `epoch`: emptied
    /// first if they were made under another.
    fn of(&mut self, tenant: u32, epoch: u64) -> &mut U64HashMap<QueryShape> {
        let t = tenant as usize;
        if self.0.len() <= t {
            self.0.resize_with(t + 1, || (epoch, U64HashMap::default()));
        }
        let (made_under, clones) = &mut self.0[t];
        if *made_under != epoch {
            clones.clear();
            *made_under = epoch;
        }
        clones
    }
}

/// Execute one statement against `tenant`'s publication. Reads only the
/// publication and the query text; mutates only the worker's own scratch
/// (and fills a plan slot of the publication at most once per template).
/// The statement is resolved by [`FrontEnd::resolve`] over the
/// publication's frozen cache; a hit is priced through its template's
/// prepared plan, anything else is planned from scratch. Either way the
/// payload carries the hash the scan found (`fp`), so the coordinator never
/// scans the statement again; beside it, whether it was bound.
fn execute_statement(
    publication: &Publication,
    tenant: u32,
    sql: &str,
    seq: u64,
    fastpath: bool,
    scratch: &mut WorkerScratch,
) -> (ObservationPayload, bool) {
    let snap = &publication.snap;
    let WorkerScratch { front, clones } = scratch;
    let shapes = clones.of(tenant, snap.epoch);
    let mut slot = 0;
    let lookup = fastpath.then_some(|hash| {
        // Moved, not reborrowed: the clone handed out lives as long as the
        // scratch, not as long as this (once-called) closure.
        let shapes = shapes;
        let (ordinal, compiled) = publication.cache.slot(hash)?;
        slot = ordinal;
        let shape = shapes
            .entry(hash)
            .or_insert_with(|| compiled.skeleton().clone());
        Some((compiled, shape))
    });
    let Ok(resolved) = front.resolve(sql, snap.catalog(), lookup) else {
        return (ObservationPayload::ParseFailed, false);
    };
    let ((outcome, delta), bound) = match &resolved {
        Resolved::Bound(_, shape) => (publication.execute_bound(slot, shape, seq), true),
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
        WorkerScratch::new(FrontEnd::new(&self.registry, slot))
    }

    /// Spawn the executors, run `coordinate` (which drives epochs through
    /// the [`Coordinator`] it is handed, starting from the lanes' `initial`
    /// publications) on the calling thread, and join.
    /// The one place statement executors are spawned. If `coordinate`
    /// panics, the drop guard raises the done flag and the channel hangs
    /// up, so every worker — waiting, mid-task or blocked on a full
    /// channel — exits, and the panic is returned as an error under
    /// [`EngineConfig::name`].
    pub(crate) fn run<R>(
        &self,
        initial: Vec<Publication>,
        coordinate: impl FnOnce(&mut Coordinator<'_, 'a>) -> Result<R, AutoIndexError>,
    ) -> Result<R, AutoIndexError> {
        assert_eq!(initial.len(), self.lanes.len(), "one publication per lane");
        let (tx, rx) = mpsc::sync_channel(CHANNEL_CAPACITY);
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
    fn worker(&self, slot: usize, tx: SyncSender<Vec<TenantObservation>>) {
        let mut scratch = self.scratch(slot);
        let mut panics = 0u64;
        let max = self.cfg.max_worker_panics;
        while let Some(task) = self.queue.next() {
            let (batch, remainder) = self.run_task(task, &mut scratch, &mut panics, max);
            // Hand off before requeueing: when a peer (or the inline
            // drain) picks the remainder up, the part already run is on
            // its way and each slot is still observed exactly once.
            let connected = batch.is_empty() || tx.send(batch).is_ok();
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

    /// Execute the remaining statements of one task into one batch, one
    /// observation per sequence slot in `seq` order — the single panic
    /// fence, and the unit of hand-off. The second value is `None`
    /// normally, or the remainder task when the panic budget ran out
    /// mid-task (the caller hands the batch off, requeues, and retires).
    fn run_task(
        &self,
        task: Task,
        scratch: &mut WorkerScratch,
        panics: &mut u64,
        max_panics: u64,
    ) -> (Vec<TenantObservation>, Option<Task>) {
        let Slice { tenant, start, end } = task.slice;
        let queries = self.lanes[tenant as usize];
        // Sized exactly: batches are an epoch's whole memory until they are
        // placed.
        let mut batch = Vec::with_capacity((end - start) as usize);
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
            let obs = Observation {
                seq,
                epoch: task.epoch,
                payload,
            };
            batch.push(TenantObservation { tenant, obs, bound });
            if panicked && *panics > max_panics {
                let rest = (seq + 1 < end).then(|| Task {
                    slice: Slice {
                        start: seq + 1,
                        ..task.slice
                    },
                    ..task
                });
                return (batch, rest);
            }
        }
        (batch, None)
    }
}

/// The calling thread's handle on a running engine: fans epochs out,
/// collects them, publishes between them.
pub(crate) struct Coordinator<'e, 'a> {
    engine: &'e Engine<'a>,
    rx: Receiver<Vec<TenantObservation>>,
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
    /// contiguous-run tasks, collect their batches until there is exactly one
    /// observation per sequence slot, and merge them on the
    /// `(tenant, seq)` logical clock. If every worker has retired with
    /// tasks still queued, the queue is drained inline (unlimited panic
    /// budget — each sequence slot panics at most once) so the epoch
    /// always completes.
    pub(crate) fn run_epoch(
        &mut self,
        epoch: u64,
        slices: &[Slice],
    ) -> Result<Vec<TenantObservation>, AutoIndexError> {
        let engine = self.engine;
        let expected: u64 = slices.iter().map(|s| s.end - s.start).sum();
        let mut merge = EpochMerge::new(engine.lanes.len(), slices);
        // Each task's makespan item is the span of the merged epoch it
        // fills, however many parts it is handed off in.
        let (tasks, spans): (Vec<Task>, Vec<Range<usize>>) = slices
            .iter()
            .flat_map(|&slice| chunks(slice, engine.cfg.shards))
            .map(|slice| {
                let publication = Arc::clone(&self.current[slice.tenant as usize]);
                let task = Task {
                    slice,
                    epoch,
                    publication,
                };
                (task, merge.span(&slice))
            })
            .unzip();
        engine.queue.inject(tasks);

        let mut got = 0u64;
        // Takes one batch; true once every slot is accounted.
        let mut collect = |batch: Vec<TenantObservation>| {
            engine.handoff_batches.incr();
            engine.handoff_observations.add(batch.len() as u64);
            got += batch.len() as u64;
            merge.place(batch);
            got >= expected
        };
        let mut complete = expected == 0;
        while !complete {
            // Blocking: a live worker either sends what it ran or leaves,
            // and the last one out hangs the channel up.
            complete = match self.rx.recv() {
                Ok(batch) => collect(batch),
                Err(_) => {
                    // Every worker is gone, and whatever they sent was
                    // received before the hang-up showed: the rest is
                    // still in the queue.
                    while let Some(task) = engine.queue.try_next() {
                        let scratch = &mut self.scratch;
                        let (batch, rest) = engine.run_task(task, scratch, &mut 0, u64::MAX);
                        debug_assert!(rest.is_none(), "unlimited budget never retires");
                        collect(batch);
                    }
                    true
                }
            };
        }

        let Some(merged) = merge.finish().filter(|_| got == expected) else {
            return Err(invalid(
                engine.cfg.name,
                format!(
                    "epoch {epoch}: {got} observations for {expected} sequence slots, not one each"
                ),
            ));
        };
        // One makespan item per task, summed in seq order.
        let task_ms = spans.into_iter().map(|span| {
            merged[span].iter().fold(0.0, |ms, o| match &o.obs.payload {
                ObservationPayload::Executed { outcome, .. } => ms + outcome.latency_ms,
                _ => ms,
            })
        });
        self.sim_makespan_ms += lpt_makespan(task_ms.collect(), engine.cfg.workers);
        Ok(merged)
    }

    /// Publish `tenant`'s next-epoch snapshot — the only point a
    /// configuration swap becomes visible to executors: tasks made from
    /// here on carry it. The publication it replaces is freed now, every
    /// task that carried it having been handed off.
    pub(crate) fn publish(&mut self, tenant: u32, publication: Publication) {
        self.current[tenant as usize] = Arc::new(publication);
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

    /// An epoch holds one `Observation` per statement until it is merged,
    /// so the record stays as small as when its outcome and delta held
    /// vectors: the inline index lists and the shared maintenance charges
    /// take no more room than those did.
    #[test]
    fn an_observation_is_no_larger_than_it_was() {
        assert_eq!(std::mem::size_of::<ExecOutcome>(), 72);
        assert_eq!(std::mem::size_of::<UsageDelta>(), 72);
        assert_eq!(std::mem::size_of::<Observation>(), 176);
    }

    /// A worker keeps each tenant's skeleton clones apart (fingerprints
    /// collide across tenants) and across the tasks of other tenants, and
    /// drops a tenant's only when its publication's epoch moves.
    #[test]
    fn clones_outlive_other_tenants_tasks_and_not_their_epoch() {
        let sql = "SELECT * FROM account WHERE acct_id = 1";
        let stmt = autoindex_sql::parse_statement(sql).unwrap();
        let shape = QueryShape::extract(&stmt, &banking::catalog());
        let mut clones = Clones(Vec::new());
        clones.of(0, 5).insert(7, shape.clone());
        clones.of(2, 5).insert(7, shape);
        assert!(clones.of(1, 5).is_empty());
        assert_eq!(clones.of(0, 5).len(), 1, "another tenant's task dropped it");
        assert!(clones.of(0, 6).is_empty(), "a new publication keeps none");
        assert_eq!(clones.of(2, 5).len(), 1, "nor drops another tenant's");
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

    /// What a run of every epoch returned, flattened: per observation its
    /// key, payload kind (0 executed, 1 parse failure, 2 panic) and
    /// simulated latency bits, plus the run's makespan bits.
    #[derive(Debug, PartialEq)]
    struct Run {
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
            Publication::build(&self.db, &mut advisor, epoch, true, &upkeep)
        }

        fn initial(&self) -> Vec<Publication> {
            (0..TENANTS).map(|_| self.publication(0)).collect()
        }

        /// Run all epochs; every epoch must come back as exactly its
        /// admitted slots in `(tenant, seq)` order, stamped with it.
        fn run(&self, engine: &Engine<'_>) -> Run {
            let mut observed = Vec::new();
            let sim_makespan_ms = engine
                .run(self.initial(), |coordinator| {
                    for epoch in 0..LEN.div_ceil(INTERVAL) {
                        let (start, end) = (epoch * INTERVAL, ((epoch + 1) * INTERVAL).min(LEN));
                        let slices: Vec<Slice> = (0..TENANTS)
                            .map(|tenant| Slice { tenant, start, end })
                            .collect();
                        let got = coordinator.run_epoch(epoch, &slices)?;
                        let keys: Vec<(u32, u64)> =
                            got.iter().map(|o| (o.tenant, o.obs.seq)).collect();
                        let expected: Vec<(u32, u64)> = (0..TENANTS)
                            .flat_map(|t| (start..end).map(move |seq| (t, seq)))
                            .collect();
                        assert_eq!(keys, expected, "epoch={epoch}");
                        assert!(got.iter().all(|o| o.obs.epoch == epoch));
                        observed.extend(got.iter().map(|o| {
                            let (kind, ms) = match &o.obs.payload {
                                ObservationPayload::Executed { outcome, .. } => {
                                    (0, outcome.latency_ms)
                                }
                                ObservationPayload::ParseFailed => (1, 0.0),
                                ObservationPayload::Panicked => (2, 0.0),
                            };
                            (o.tenant, o.obs.seq, kind, ms.to_bits())
                        }));
                    }
                    Ok(coordinator.sim_makespan_ms)
                })
                .unwrap();
            Run {
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
    /// coordinator drains inline — `run_epoch` still returns exactly one
    /// observation per admitted sequence slot, sorted on `(tenant, seq)`,
    /// with exactly the injected slots `Panicked`.
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
                let (batch, rest) = engine.run_task(task, &mut scratch, &mut 0, 0);
                assert!(batch.iter().all(|o| o.tenant == 0 && o.obs.epoch == 0));
                assert!(rest.as_ref().is_none_or(|r| r.slice.start > resumed_at));
                assert!(rest.as_ref().is_none_or(|r| r.slice.end == run.end));
                seqs.extend(batch.iter().map(|o| o.obs.seq));
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
    /// `run_epoch` returns every task has been handed off and dropped, so
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
                    coordinator.run_epoch(epoch, &slices)?;
                    for tenant in 0..TENANTS {
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

    /// A prepared plan lives in the publication it was prepared under and
    /// nowhere else. Executing under publication *N* fills *N*'s slots; the
    /// publication built after an index was created and a touched table
    /// grew starts with every slot empty, prices its statements from plans
    /// of its own — equal, bit for bit, to planning each from scratch
    /// against its own snapshot, and different from what *N*'s plans say —
    /// and *N*'s plans are freed with *N*.
    #[test]
    fn a_prepared_plan_is_reachable_only_through_its_publication() {
        use autoindex_storage::index::IndexDef;

        let Fixture { mut db, queries } = Fixture::new();
        let registry = MetricsRegistry::new();
        let upkeep = UpkeepCounters::bind(&registry);
        let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        for sql in &queries {
            advisor.observe(sql, &db).unwrap();
        }
        let filled = |p: &Publication| p.plans.iter().filter(|slot| slot.get().is_some()).count();
        // Every statement under `publication`, with its unprepared twin.
        let run = |publication: &Publication| -> Vec<(u64, u64)> {
            let mut scratch = WorkerScratch::new(FrontEnd::new(&registry, 0));
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

        let first = Arc::new(Publication::build(&db, &mut advisor, 0, true, &upkeep));
        assert!(!first.plans.is_empty() && first.plans.len() == first.cache.len());
        assert_eq!(filled(&first), 0, "slots fill lazily");
        let under_first = run(&first);
        let prepared = registry.counter_value("planner.prepared");
        assert_eq!(prepared as usize, filled(&first));
        assert!(prepared > 0 && (prepared as usize) < under_first.len());
        run(&first);
        assert_eq!(
            registry.counter_value("planner.prepared"),
            prepared,
            "a filled slot is not prepared again"
        );

        // An index the point lookups want, and growth of the table they read.
        db.create_index(IndexDef::new("withdraw_flow", &["acct_id", "ts"]))
            .unwrap();
        db.grow_table("withdraw_flow", 400_000).unwrap();
        db.grow_table("account", 50_000).unwrap();
        let second = Publication::build(&db, &mut advisor, 1, true, &upkeep);
        assert_eq!(filled(&second), 0, "nothing of publication 0 came along");
        let under_second = run(&second);
        assert_eq!(
            registry.counter_value("planner.prepared") - prepared,
            filled(&second) as u64
        );
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

        // The old plans go with the old publication: nothing else holds one.
        let plans = Arc::downgrade(&first);
        drop(first);
        assert!(plans.upgrade().is_none());
    }

    /// [`EpochMerge`] is a sort on `(tenant, seq)`: whatever the order the
    /// batches arrive in and whichever way tasks were split by retiring
    /// workers, placing them yields what sorting their concatenation
    /// yields, and each task's span is exactly the positions its
    /// observations took.
    #[test]
    fn placing_batches_equals_sorting_them() {
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::prop_assert_eq;

        property(
            "placing_batches_equals_sorting_them",
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

                // One batch per task, tagged in `epoch` with a serial
                // number so a misplaced twin would show.
                let mut serial = 0;
                let mut batches: Vec<Vec<TenantObservation>> = Vec::new();
                let mut spans = Vec::new();
                for slice in &slices {
                    for task in chunks(*slice, shards) {
                        spans.push((task, serial + 1..serial + 1 + (task.end - task.start)));
                        let mut run: Vec<TenantObservation> = (task.start..task.end)
                            .map(|seq| {
                                serial += 1;
                                TenantObservation {
                                    tenant: slice.tenant,
                                    obs: Observation {
                                        seq,
                                        epoch: serial,
                                        payload: ObservationPayload::ParseFailed,
                                    },
                                    bound: false,
                                }
                            })
                            .collect();
                        // Resumed tasks: hand the run off in up to three
                        // parts, possibly empty.
                        for _ in 0..rng.random_range(0u32..3) {
                            let at = rng.random_range(0..run.len() + 1);
                            batches.push(run.split_off(at));
                        }
                        batches.push(run);
                    }
                }
                rng.shuffle(&mut batches);

                let key = |o: &TenantObservation| (o.tenant, o.obs.seq, o.obs.epoch);
                let mut sorted: Vec<_> = batches.iter().flatten().map(key).collect();
                sorted.sort_unstable_by_key(|&(tenant, seq, _)| (tenant, seq));

                let mut merge = EpochMerge::new(lanes as usize, &slices);
                let spans: Vec<_> = spans
                    .into_iter()
                    .map(|(task, serials)| (merge.span(&task), serials))
                    .collect();
                for batch in batches {
                    merge.place(batch);
                }
                let Some(merged) = merge.finish() else {
                    return Err("a slot was left empty".into());
                };
                prop_assert_eq!(merged.iter().map(key).collect::<Vec<_>>(), sorted);
                for (span, serials) in spans {
                    let got: Vec<u64> = merged[span].iter().map(|o| o.obs.epoch).collect();
                    prop_assert_eq!(got, serials.collect::<Vec<_>>());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn an_epoch_with_a_stray_or_missing_observation_is_incomplete() {
        let mk = |tenant, seq| TenantObservation {
            tenant,
            obs: Observation {
                seq,
                epoch: 0,
                payload: ObservationPayload::ParseFailed,
            },
            bound: false,
        };
        let slices = [Slice {
            tenant: 1,
            start: 10,
            end: 12,
        }];
        let complete = |batch| {
            let mut merge = EpochMerge::new(2, &slices);
            merge.place(batch);
            merge.finish().is_some()
        };
        assert!(complete(vec![mk(1, 11), mk(1, 10)]));
        assert!(!complete(vec![mk(1, 10)]), "missing");
        assert!(!complete(vec![mk(1, 10), mk(1, 10)]), "twice");
        assert!(!complete(vec![mk(1, 10), mk(1, 12)]), "outside the slice");
        assert!(!complete(vec![mk(1, 10), mk(0, 11)]), "idle lane");
        assert!(!complete(vec![mk(1, 10), mk(7, 11)]), "no such lane");
    }
}
