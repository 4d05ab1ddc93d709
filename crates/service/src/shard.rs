//! Shard workers: bounded queues with drop-oldest backpressure feeding
//! per-tenant localization pipelines, under a small supervision tree.
//!
//! Tenants hash onto a fixed set of shards (FNV-1a over the tenant id), so
//! one tenant's frames are always processed in arrival order by a single
//! worker thread while different tenants spread across cores. Each queue
//! is bounded: when ingest outruns localization the *oldest queued frame*
//! is dropped and accounted in the shard's `dropped` counter — the
//! pipeline keeps seeing the freshest data and memory stays bounded.
//! Flush barriers are never dropped, so `flush` remains an exact
//! everything-before-this-was-processed fence even under overload.
//!
//! # Fault tolerance
//!
//! Three independent layers keep one bad tenant — or one bad frame — from
//! taking the daemon down:
//!
//! * **Pipeline quarantine**: each frame is processed under
//!   `catch_unwind`. A panicking pipeline is dropped on the spot (its
//!   internal state may be torn mid-update) and lazily rebuilt on the
//!   tenant's next frame; the worker thread and its other tenants never
//!   notice. Counted in `rapd_pipeline_restarts_total{reason="panic"}`.
//! * **Per-tenant circuit breaker**: consecutive failures (errors, panics,
//!   localization deadline overruns) open a breaker that sheds the
//!   tenant's frames — counted, never silently lost — until a cooldown
//!   probe succeeds ([`ServiceConfig::breaker_threshold`] /
//!   [`ServiceConfig::breaker_cooldown`]).
//! * **Worker supervision**: a supervisor thread polls worker liveness
//!   and respawns any shard thread that dies outside shutdown
//!   (`rapd_worker_restarts_total`). The respawned worker rebuilds tenant
//!   pipelines lazily from the shared queue.
//!
//! # Watermark reordering
//!
//! Frames that carry an event timestamp (`ts` on the observe message) go
//! through a per-tenant reorder buffer before the pipeline. The buffer
//! holds up to [`ServiceConfig::reorder_window`] frames and emits them in
//! timestamp order once the watermark — the newest timestamp seen minus
//! [`ServiceConfig::max_lateness`] — passes them. Frames behind the last
//! emitted timestamp are quarantined as `late`; frames whose timestamp
//! was already buffered or just emitted are quarantined as `replay`.
//! Frames without a timestamp bypass the buffer entirely (arrival order).
//! Flush barriers and shutdown drain every buffer first, so `flush`
//! remains an exact fence and the `processed + dropped + shed +
//! quarantined == ingested` invariant holds at every quiescent point.
//! Known limitation: a worker that dies outside shutdown loses its
//! buffered frames along with its queue, exactly like queued frames.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use baselines::Localizer;
use detect::DetectorConfig;
use pipeline::{DetectingPipeline, LocalizationPipeline};
use timeseries::MovingAverage;

use crate::blackbox::BlackboxWriter;
use crate::checkpoint::{CheckpointStore, ConfigGuard, EngineCheckpoint, TenantCheckpoint};
use crate::config::ServiceConfig;
use crate::metrics::{Metrics, ShardMetrics};
use crate::quarantine::{QuarantineRecord, QuarantineSink};
use crate::sink::{IncidentRecord, IncidentSink};
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};
use crate::wal::FrameWal;

/// Builds one localizer per tenant pipeline; shared across shard threads.
/// The argument is the configured intra-frame thread count
/// ([`pipeline::PipelineConfig::localize_threads`]): `1` keeps a frame on
/// its shard worker's core, `0` lets one frame fan out over the machine.
pub type LocalizerFactory = Arc<dyn Fn(usize) -> Box<dyn Localizer> + Send + Sync>;

/// One unit of shard work.
enum Job {
    /// A snapshot for one tenant; `ts` routes it through the tenant's
    /// reorder buffer. `id` is the correlation token minted at the
    /// observe verb; it rides with the frame through every stage.
    Frame {
        id: obs::FrameId,
        tenant: Arc<str>,
        frame: mdkpi::LeafFrame,
        ts: Option<u64>,
    },
    /// A flush barrier: mark the gate done once everything queued before
    /// it has been processed.
    Barrier(Arc<FlushGate>),
    /// Snapshot every tenant engine on this shard to the checkpoint store
    /// (and compact its WAL segment), then mark the gate done. Like a
    /// barrier it is never dropped; unlike a barrier it does **not** drain
    /// reorder buffers — parked frames stay parked and remain covered by
    /// the WAL suffix past the acknowledged sequence.
    Checkpoint(Arc<FlushGate>),
    /// Forget one tenant's live state (engine, breaker, reorder buffer,
    /// restore latch) so its next frame lazily restores from whatever the
    /// checkpoint store now holds. The fleet handoff protocol posts this
    /// to both sides of a transfer after copying the snapshot. Any frames
    /// still parked in the tenant's reorder buffer are released through
    /// the pipeline first — an adopt must never lose an admitted frame.
    Adopt {
        tenant: Arc<str>,
        gate: Arc<FlushGate>,
    },
    /// Drain-free worker exit.
    Shutdown,
}

/// Counts down shard acknowledgements of one flush.
pub struct FlushGate {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl FlushGate {
    fn new(n: usize) -> Self {
        FlushGate {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn done(&self) {
        let mut remaining = lock_recover(&self.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Wait until every shard acknowledged, or the timeout elapses.
    /// Returns whether the flush completed.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut remaining = lock_recover(&self.remaining);
        while *remaining > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = wait_timeout_recover(&self.cv, remaining, deadline - now);
            remaining = guard;
        }
        true
    }
}

/// A bounded MPSC queue with drop-oldest overflow for frames.
struct ShardQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue a frame. When the queue is at capacity the oldest queued
    /// *frame* is evicted (barriers are never evicted) and counted.
    fn push_frame(
        &self,
        id: obs::FrameId,
        tenant: Arc<str>,
        frame: mdkpi::LeafFrame,
        ts: Option<u64>,
        metrics: &ShardMetrics,
    ) {
        let mut jobs = lock_recover(&self.jobs);
        let frames_queued = |jobs: &VecDeque<Job>| {
            jobs.iter()
                .filter(|j| matches!(j, Job::Frame { .. }))
                .count()
        };
        if frames_queued(&jobs) >= self.capacity {
            if let Some(i) = jobs.iter().position(|j| matches!(j, Job::Frame { .. })) {
                jobs.remove(i);
                metrics.dropped.fetch_add(1, Ordering::Relaxed);
                metrics.depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
        jobs.push_back(Job::Frame {
            id,
            tenant,
            frame,
            ts,
        });
        metrics.depth.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_one();
    }

    /// Enqueue a control job (barrier/shutdown); never dropped, never
    /// counted against the frame capacity.
    fn push_control(&self, job: Job) {
        let mut jobs = lock_recover(&self.jobs);
        jobs.push_back(job);
        self.cv.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = lock_recover(&self.jobs);
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = wait_recover(&self.cv, jobs);
        }
    }
}

/// How often the supervisor polls worker liveness.
const SUPERVISE_INTERVAL: Duration = Duration::from_millis(15);

/// Per-tenant circuit breaker state (owned by one shard worker, so no
/// synchronization is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Frames flow normally.
    Closed,
    /// Frames are shed until the cooldown deadline.
    Open { until: Instant },
    /// One probe frame is being let through.
    HalfOpen,
}

/// Counts consecutive failures of one tenant's pipeline and decides
/// whether its frames are processed, probed, or shed.
#[derive(Debug)]
struct Breaker {
    failures: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            failures: 0,
            state: BreakerState::Closed,
        }
    }
}

/// What to do with the frame that just arrived for a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Breaker closed: process normally.
    Process,
    /// Breaker half-open: process as the recovery probe.
    Probe,
    /// Breaker open: skip the frame, count it shed.
    Shed,
}

impl Breaker {
    fn admit(&mut self, now: Instant) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Process,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
        }
    }

    /// Returns `true` when this closed a half-open breaker (the gauge of
    /// open breakers must drop by one).
    fn on_success(&mut self) -> bool {
        self.failures = 0;
        let closing = self.state == BreakerState::HalfOpen;
        self.state = BreakerState::Closed;
        closing
    }

    /// The state name reported by the `debug` control verb.
    fn state_str(&self) -> &'static str {
        match self.state {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Returns `true` when this opened a closed breaker (the gauge of
    /// open breakers must rise by one). A failed half-open probe re-opens
    /// without a gauge change. `threshold == 0` disables the breaker.
    fn on_failure(&mut self, threshold: u32, cooldown: Duration, now: Instant) -> bool {
        if threshold == 0 {
            return false;
        }
        self.failures = self.failures.saturating_add(1);
        match self.state {
            BreakerState::Closed if self.failures >= threshold => {
                self.state = BreakerState::Open {
                    until: now + cooldown,
                };
                true
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open {
                    until: now + cooldown,
                };
                false
            }
            _ => false,
        }
    }
}

/// Why the reorder buffer refused a timestamped frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rejected {
    /// The timestamp is behind the last emitted one.
    Late { last_emitted: u64 },
    /// A frame with this timestamp was already buffered or just emitted.
    Replay,
}

/// A per-tenant watermark reorder buffer (data-driven: the watermark
/// advances with observed timestamps, never with wall-clock time, so a
/// paused stream neither drops nor reorders anything). Generic over the
/// buffered payload so the pool can park a frame *and* its correlation
/// id together.
#[derive(Debug)]
struct ReorderBuffer<T> {
    /// Buffered payloads by timestamp; `BTreeMap` keeps emission ordered.
    buf: BTreeMap<u64, T>,
    /// The newest timestamp handed to the pipeline so far.
    last_emitted: Option<u64>,
    /// The newest timestamp ever offered (drives the watermark).
    max_seen: u64,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer {
            buf: BTreeMap::new(),
            last_emitted: None,
            max_seen: 0,
        }
    }
}

impl<T> ReorderBuffer<T> {
    /// Offer one timestamped frame. Returns the frames the watermark (or
    /// a window overflow) released, oldest first — possibly none, and
    /// possibly not including the offered frame itself.
    ///
    /// # Errors
    ///
    /// [`Rejected::Late`] when `ts` is behind the last emitted timestamp,
    /// [`Rejected::Replay`] when `ts` equals a buffered or the
    /// just-emitted timestamp.
    fn offer(
        &mut self,
        ts: u64,
        frame: T,
        window: usize,
        lateness_ms: u64,
    ) -> Result<Vec<(u64, T)>, Rejected> {
        if let Some(last) = self.last_emitted {
            if ts == last {
                return Err(Rejected::Replay);
            }
            if ts < last {
                return Err(Rejected::Late { last_emitted: last });
            }
        }
        if self.buf.contains_key(&ts) {
            return Err(Rejected::Replay);
        }
        self.buf.insert(ts, frame);
        self.max_seen = self.max_seen.max(ts);
        let watermark = self.max_seen.saturating_sub(lateness_ms);
        let mut ready = Vec::new();
        loop {
            let overflowing = self.buf.len() > window;
            let Some(entry) = self.buf.first_entry() else {
                break;
            };
            // emit past the watermark in order; overflow past the window
            // releases the oldest frame even if the watermark lags
            if *entry.key() > watermark && !overflowing {
                break;
            }
            ready.push(entry.remove_entry());
        }
        if let Some((ts, _)) = ready.last() {
            self.last_emitted = Some(*ts);
        }
        Ok(ready)
    }

    /// Release everything still buffered, oldest first (flush/shutdown).
    fn drain(&mut self) -> Vec<(u64, T)> {
        let drained: Vec<(u64, T)> = std::mem::take(&mut self.buf).into_iter().collect();
        if let Some((ts, _)) = drained.last() {
            self.last_emitted = Some(*ts);
        }
        drained
    }
}

/// Everything a shard worker (or the supervisor) needs, shared once.
struct PoolShared {
    queues: Vec<Arc<ShardQueue>>,
    metrics: Arc<Metrics>,
    sink: Arc<IncidentSink>,
    quarantine: Arc<QuarantineSink>,
    factory: LocalizerFactory,
    pipeline_config: pipeline::PipelineConfig,
    /// `Some` switches every tenant to detect-then-localize mode: raw
    /// frames in, self-triggered localizations out.
    detector_config: Option<DetectorConfig>,
    window: usize,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    reorder_window: usize,
    max_lateness_ms: u64,
    /// Span/event lines each worker's flight recorder retains for
    /// post-mortem blackbox dumps; `0` disables the recorder.
    flight_capacity: usize,
    /// Post-mortem dump writer shared by every worker: panics, deadline
    /// overruns, and breaker openings snapshot the flight recorders here.
    blackbox: Arc<BlackboxWriter>,
    /// The frame write-ahead log; checkpoints compact each tenant's
    /// segment up to the acknowledged sequence. `None` when the WAL is
    /// disabled or there is no spool directory.
    wal: Option<Arc<FrameWal>>,
    /// The per-tenant snapshot store; `None` without a spool directory.
    /// Workers restore an unseen tenant from it lazily and write into it
    /// on every [`Job::Checkpoint`].
    checkpoints: Option<Arc<CheckpointStore>>,
    /// Live per-tenant internals served by the `debug` control verb;
    /// workers refresh their tenants' entries after every processed frame.
    debug: Mutex<HashMap<String, TenantDebug>>,
    shutting_down: AtomicBool,
}

/// A live snapshot of one tenant's processing internals, served by the
/// `debug` control verb. Refreshed by the tenant's shard worker after
/// every processed frame, so a quiet tenant shows its last-known state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantDebug {
    /// The shard the tenant hashes onto.
    pub shard: usize,
    /// Engine kind: `"classic"` (external alarm), `"detecting"`
    /// (self-triggering), or `"quarantined"` right after a pipeline panic
    /// (the engine is rebuilt lazily on the tenant's next frame).
    pub engine: &'static str,
    /// Streaming-detector phase (`"warmup"`/`"steady"`/`"triggered"`);
    /// `None` in classic mode or while quarantined.
    pub detector_phase: Option<&'static str>,
    /// Circuit-breaker state: `"closed"`, `"open"`, or `"half_open"`.
    pub breaker: &'static str,
    /// Frames currently parked in the reorder buffer.
    pub reorder_buffered: usize,
    /// Newest timestamp handed to the pipeline, if any frame carried one.
    pub reorder_last_emitted: Option<u64>,
    /// Newest timestamp ever offered (drives the watermark).
    pub reorder_max_seen: u64,
    /// How far the newest seen timestamp runs ahead of the newest emitted
    /// one — the reorder buffer's current watermark lag, in stream time.
    pub reorder_lag: u64,
    /// Correlation token of the last frame processed for this tenant.
    pub last_frame: String,
    /// When this tenant's state was last checkpointed (unix milliseconds):
    /// the newest snapshot written — or restored at boot — by this
    /// process. `None` until the first checkpoint touches the tenant.
    pub last_checkpoint_unix_ms: Option<u64>,
}

/// The shard worker pool: `config.shards` threads, each owning the
/// pipelines of the tenants that hash onto it, plus a supervisor thread
/// that respawns any worker that dies outside shutdown.
pub struct ShardPool {
    shared: Arc<PoolShared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// The periodic checkpoint driver (`--checkpoint-interval`); `None`
    /// when checkpointing is disabled.
    ticker: Mutex<Option<JoinHandle<()>>>,
}

impl ShardPool {
    /// Start the workers and their supervisor.
    #[allow(clippy::too_many_arguments)] // crate-internal; one arg per sink
    pub(crate) fn start(
        config: &ServiceConfig,
        metrics: Arc<Metrics>,
        sink: Arc<IncidentSink>,
        quarantine: Arc<QuarantineSink>,
        blackbox: Arc<BlackboxWriter>,
        factory: LocalizerFactory,
        wal: Option<Arc<FrameWal>>,
        checkpoints: Option<Arc<CheckpointStore>>,
    ) -> ShardPool {
        let queues: Vec<Arc<ShardQueue>> = (0..config.shards)
            .map(|_| Arc::new(ShardQueue::new(config.queue_capacity)))
            .collect();
        let shared = Arc::new(PoolShared {
            queues,
            metrics,
            sink,
            quarantine,
            factory,
            pipeline_config: config.pipeline,
            detector_config: config.detect.then(|| DetectorConfig {
                sigma_threshold: config.detect_threshold,
                seasonal_period: config.seasonal_period,
                ..DetectorConfig::default()
            }),
            window: config.forecast_window,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown: config.breaker_cooldown,
            reorder_window: config.reorder_window,
            max_lateness_ms: config.max_lateness.as_millis() as u64,
            flight_capacity: config.flight_recorder_capacity,
            blackbox,
            wal,
            checkpoints,
            debug: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
        });
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(
            (0..shared.queues.len())
                .map(|i| spawn_worker(i, &shared))
                .collect(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("rapd-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &workers))
                .expect("spawn supervisor")
        };
        let ticker =
            (shared.checkpoints.is_some() && !config.checkpoint_interval.is_zero()).then(|| {
                let shared = Arc::clone(&shared);
                let interval = config.checkpoint_interval;
                std::thread::Builder::new()
                    .name("rapd-checkpointer".to_string())
                    .spawn(move || checkpoint_ticker(&shared, interval))
                    .expect("spawn checkpointer")
            });
        ShardPool {
            shared,
            workers,
            supervisor: Mutex::new(Some(supervisor)),
            ticker: Mutex::new(ticker),
        }
    }

    /// The shard a tenant hashes onto (FNV-1a, stable across runs).
    pub fn shard_for(&self, tenant: &str) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in tenant.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.shared.queues.len() as u64) as usize
    }

    /// Queue one frame onto the tenant's shard (drop-oldest on overflow).
    /// `id` is the frame's correlation token, minted at the observe verb
    /// so quarantine records of rejected twins share it. A timestamp
    /// routes the frame through the tenant's reorder buffer; `None`
    /// processes it in arrival order.
    pub fn ingest(&self, id: obs::FrameId, tenant: &str, frame: mdkpi::LeafFrame, ts: Option<u64>) {
        let shard = self.shard_for(tenant);
        self.shared.queues[shard].push_frame(
            id,
            Arc::from(tenant),
            frame,
            ts,
            self.shared.metrics.shard(shard),
        );
    }

    /// Per-tenant live internals for the `debug` control verb, sorted by
    /// tenant id. Each snapshot reflects the tenant's state after its most
    /// recently processed frame.
    pub fn tenant_debug(&self) -> Vec<(String, TenantDebug)> {
        let map = lock_recover(&self.shared.debug);
        let mut entries: Vec<(String, TenantDebug)> =
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Current depth of every shard queue (frames waiting for a worker).
    pub fn queue_depths(&self) -> Vec<u64> {
        (0..self.shared.queues.len())
            .map(|i| self.shared.metrics.shard(i).depth.load(Ordering::Relaxed))
            .collect()
    }

    /// Post a barrier to every shard and wait for all of them to drain
    /// everything queued before it. Returns whether the flush completed
    /// within the timeout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let gate = Arc::new(FlushGate::new(self.shared.queues.len()));
        for queue in &self.shared.queues {
            queue.push_control(Job::Barrier(Arc::clone(&gate)));
        }
        gate.wait(timeout)
    }

    /// Post a checkpoint job to every shard and wait for all of them to
    /// snapshot their tenants (a no-op without a checkpoint store).
    /// Returns whether every shard acknowledged within the timeout.
    pub fn checkpoint_all(&self, timeout: Duration) -> bool {
        post_checkpoint(&self.shared, timeout)
    }

    /// Forget one tenant's live state on its shard worker: any frames
    /// parked in the tenant's reorder buffer are released through the
    /// pipeline first, then the engine, breaker, reorder watermarks, and
    /// lazy-restore latch are dropped. The tenant's next frame restores
    /// from whatever the checkpoint store holds at that point — this is
    /// how both sides of a fleet handoff pick up a transferred snapshot.
    /// Returns whether the shard acknowledged within the timeout.
    pub fn adopt(&self, tenant: &str, timeout: Duration) -> bool {
        let shard = self.shard_for(tenant);
        let gate = Arc::new(FlushGate::new(1));
        self.shared.queues[shard].push_control(Job::Adopt {
            tenant: Arc::from(tenant),
            gate: Arc::clone(&gate),
        });
        gate.wait(timeout)
    }

    /// Stop the supervisor, then every worker after it drains its queue.
    /// Idempotent.
    pub fn shutdown(&self) {
        // Stop the supervisor first so a worker exiting on its Shutdown
        // job is not mistaken for a crash and respawned.
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        if let Some(ticker) = lock_recover(&self.ticker).take() {
            let _ = ticker.join();
        }
        if let Some(supervisor) = lock_recover(&self.supervisor).take() {
            let _ = supervisor.join();
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_recover(&self.workers));
        if workers.is_empty() {
            return;
        }
        for queue in &self.shared.queues {
            queue.push_control(Job::Shutdown);
        }
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Post one checkpoint job per shard and wait for the acknowledgements.
fn post_checkpoint(shared: &PoolShared, timeout: Duration) -> bool {
    let gate = Arc::new(FlushGate::new(shared.queues.len()));
    for queue in &shared.queues {
        queue.push_control(Job::Checkpoint(Arc::clone(&gate)));
    }
    gate.wait(timeout)
}

/// The periodic checkpoint driver: fire [`post_checkpoint`] every
/// `interval`, polling the shutdown flag between short sleeps so shutdown
/// never waits out a long interval.
fn checkpoint_ticker(shared: &PoolShared, interval: Duration) {
    const TICK: Duration = Duration::from_millis(50);
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.shutting_down.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(TICK);
            slept += TICK;
        }
        post_checkpoint(shared, interval.max(Duration::from_secs(60)));
    }
}

/// Wall clock in unix milliseconds (0 if the clock is before the epoch).
fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The config fingerprint stamped into (and checked against) checkpoints.
fn config_guard(shared: &PoolShared) -> ConfigGuard {
    ConfigGuard {
        detect: shared.detector_config.is_some(),
        seasonal_period: shared
            .detector_config
            .as_ref()
            .map_or(0, |d| d.seasonal_period),
        residual_window: shared
            .detector_config
            .as_ref()
            .map_or(0, |d| d.residual_window),
        window: shared.window,
    }
}

fn spawn_worker(shard: usize, shared: &Arc<PoolShared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("rapd-shard-{shard}"))
        .spawn(move || worker_loop(shard, &shared))
        .expect("spawn shard worker")
}

/// Poll worker liveness and respawn any thread that died outside
/// shutdown. The dead worker's tenant pipelines and breaker state die
/// with it; the respawned worker rebuilds pipelines lazily, so the
/// shard's open-breaker gauge is reset alongside.
fn supervisor_loop(shared: &Arc<PoolShared>, workers: &Mutex<Vec<JoinHandle<()>>>) {
    while !shared.shutting_down.load(Ordering::Relaxed) {
        {
            let mut workers = lock_recover(workers);
            for shard in 0..workers.len() {
                if !workers[shard].is_finished() {
                    continue;
                }
                let dead = std::mem::replace(&mut workers[shard], spawn_worker(shard, shared));
                let _ = dead.join();
                shared
                    .metrics
                    .worker_restarts
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .shard(shard)
                    .breaker_open
                    .store(0, Ordering::Relaxed);
                obs::warn(
                    "rapd.shard",
                    "worker_respawned",
                    &[("shard", obs::Value::U64(shard as u64))],
                );
            }
        }
        std::thread::sleep(SUPERVISE_INTERVAL);
    }
}

type TenantPipeline = LocalizationPipeline<MovingAverage, Box<dyn Localizer>>;

/// One tenant's processing engine: classic (pre-labelled frames, external
/// alarm) or detecting (raw frames, self-triggered localization).
enum TenantEngine {
    /// History-replay forecasting over labelled frames.
    Classic(TenantPipeline),
    /// Streaming detector in front of the localizer (boxed: the detector
    /// state dwarfs the classic variant).
    Detecting(Box<DetectingPipeline<Box<dyn Localizer>>>),
}

impl TenantEngine {
    /// Build the engine the pool is configured for.
    fn build(shared: &PoolShared) -> TenantEngine {
        match shared.detector_config {
            Some(detector) => TenantEngine::Detecting(Box::new(
                DetectingPipeline::try_new(
                    shared.pipeline_config,
                    detector,
                    (shared.factory)(shared.pipeline_config.localize_threads),
                )
                .expect("service config validated at boot"),
            )),
            None => TenantEngine::Classic(
                LocalizationPipeline::try_new(
                    shared.pipeline_config,
                    MovingAverage::new(shared.window),
                    (shared.factory)(shared.pipeline_config.localize_threads),
                )
                .expect("service config validated at boot"),
            ),
        }
    }

    fn observe(
        &mut self,
        frame: &mdkpi::LeafFrame,
    ) -> Result<Option<pipeline::IncidentReport>, pipeline::PipelineError> {
        match self {
            TenantEngine::Classic(p) => p.observe(frame),
            TenantEngine::Detecting(p) => p.observe(frame),
        }
    }

    /// Detector wall-clock of the most recent frame; `None` in classic
    /// mode (there is no streaming-detector stage to time).
    fn last_detector_seconds(&self) -> Option<f64> {
        match self {
            TenantEngine::Classic(_) => None,
            TenantEngine::Detecting(p) => Some(p.last_detector_seconds()),
        }
    }

    /// The engine kind name reported by the `debug` control verb.
    fn kind_str(&self) -> &'static str {
        match self {
            TenantEngine::Classic(_) => "classic",
            TenantEngine::Detecting(_) => "detecting",
        }
    }

    /// Streaming-detector phase name; `None` in classic mode.
    fn detector_phase(&self) -> Option<&'static str> {
        match self {
            TenantEngine::Classic(_) => None,
            TenantEngine::Detecting(p) => Some(p.detector().state().as_str()),
        }
    }
}

/// Render a caught panic payload for the event log.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The per-tenant state one shard worker owns.
#[derive(Default)]
struct WorkerState {
    engines: HashMap<Arc<str>, TenantEngine>,
    breakers: HashMap<Arc<str>, Breaker>,
    reorder: HashMap<Arc<str>, ReorderBuffer<(obs::FrameId, mdkpi::LeafFrame)>>,
    /// Highest frame sequence dequeued per tenant — the WAL
    /// acknowledgement candidate when the reorder buffer is empty.
    consumed: HashMap<Arc<str>, u64>,
    /// Tenants whose checkpoint (or lack of one) was already resolved by
    /// this worker; guards the lazy restore against repeated store reads.
    restored: HashSet<Arc<str>>,
    /// When each tenant was last checkpointed (or restored), unix ms.
    last_checkpoint: HashMap<Arc<str>, u64>,
}

impl WorkerState {
    /// Release every buffered frame of every tenant through the pipeline
    /// (flush barriers and shutdown).
    fn drain_reorder(&mut self, shard: usize, shared: &PoolShared) {
        let mut ready: Vec<(Arc<str>, obs::FrameId, mdkpi::LeafFrame)> = Vec::new();
        for (tenant, buffer) in &mut self.reorder {
            for (_, (id, frame)) in buffer.drain() {
                ready.push((Arc::clone(tenant), id, frame));
            }
        }
        for (tenant, id, frame) in ready {
            process_frame(shard, shared, self, &tenant, &id, &frame);
        }
    }
}

fn worker_loop(shard: usize, shared: &PoolShared) {
    let shard_metrics = shared.metrics.shard(shard);
    let queue = &shared.queues[shard];
    let mut state = WorkerState::default();
    // Each worker keeps a bounded ring of its recent spans and events;
    // blackbox dumps snapshot every live ring post mortem. The guard
    // deregisters the ring when the worker dies, so a respawned worker
    // re-registers under the same name with a fresh ring.
    let _recorder = (shared.flight_capacity > 0)
        .then(|| obs::recorder::register(&format!("shard-{shard}"), shared.flight_capacity));
    loop {
        // fault injection: a shard thread dying between jobs (before the
        // pop, so the crash never takes a dequeued frame with it)
        obs::fail::apply("shard-worker-panic");
        match queue.pop() {
            Job::Shutdown => {
                state.drain_reorder(shard, shared);
                return;
            }
            Job::Barrier(gate) => {
                // the barrier is an everything-before-it fence, so frames
                // still parked in reorder buffers must go through first
                state.drain_reorder(shard, shared);
                gate.done();
            }
            Job::Checkpoint(gate) => {
                checkpoint_shard(shared, &mut state);
                gate.done();
            }
            Job::Adopt { tenant, gate } => {
                adopt_tenant(shard, shared, &mut state, &tenant);
                gate.done();
            }
            Job::Frame {
                id,
                tenant,
                frame,
                ts,
            } => {
                shard_metrics.depth.fetch_sub(1, Ordering::Relaxed);
                restore_tenant(shard, shared, &mut state, &tenant);
                let seen = state.consumed.entry(Arc::clone(&tenant)).or_insert(0);
                *seen = (*seen).max(id.seq());
                let Some(ts) = ts else {
                    process_frame(shard, shared, &mut state, &tenant, &id, &frame);
                    continue;
                };
                let buffer = state.reorder.entry(Arc::clone(&tenant)).or_default();
                match buffer.offer(
                    ts,
                    (id.clone(), frame),
                    shared.reorder_window,
                    shared.max_lateness_ms,
                ) {
                    Ok(ready) => {
                        for (_, (id, frame)) in ready {
                            process_frame(shard, shared, &mut state, &tenant, &id, &frame);
                        }
                    }
                    Err(rejected) => {
                        let (reason, detail) = match rejected {
                            Rejected::Late { last_emitted } => (
                                "late",
                                format!("ts {ts} behind last emitted ts {last_emitted}"),
                            ),
                            Rejected::Replay => ("replay", format!("ts {ts} was already accepted")),
                        };
                        shared.quarantine.record(QuarantineRecord {
                            tenant: tenant.to_string(),
                            frame_id: Some(id.as_str().to_string()),
                            ts: Some(ts),
                            reason,
                            detail,
                            rows: Vec::new(),
                        });
                    }
                }
            }
        }
    }
}

/// Snapshot every tenant engine this worker owns to the checkpoint store
/// and compact each tenant's WAL segment up to the acknowledged sequence.
/// The acknowledgement is conservative: with frames parked in the reorder
/// buffer it stops just short of the oldest parked one, so a crash after
/// the compaction still replays everything not yet through the pipeline.
fn checkpoint_shard(shared: &PoolShared, state: &mut WorkerState) {
    if shared.checkpoints.is_none() {
        return;
    }
    let guard = config_guard(shared);
    let tenants: Vec<Arc<str>> = state.engines.keys().cloned().collect();
    for tenant in tenants {
        checkpoint_tenant(shared, state, &tenant, &guard);
    }
}

/// Snapshot one tenant to the checkpoint store and compact its WAL
/// segment up to the acknowledged sequence. No-op without a store or a
/// live engine for the tenant.
fn checkpoint_tenant(
    shared: &PoolShared,
    state: &mut WorkerState,
    tenant: &Arc<str>,
    guard: &ConfigGuard,
) {
    let Some(store) = &shared.checkpoints else {
        return;
    };
    let Some(engine) = state.engines.get(tenant) else {
        return;
    };
    let now_ms = unix_millis_now();
    let now = Instant::now();
    let engine_snapshot = match engine {
        TenantEngine::Classic(p) => EngineCheckpoint::Classic(p.state_snapshot()),
        TenantEngine::Detecting(p) => EngineCheckpoint::Detecting(p.detector_snapshot()),
    };
    let consumed = state.consumed.get(tenant).copied().unwrap_or(0);
    let reorder = state.reorder.get(tenant);
    let wal_ack = reorder
        .and_then(|b| b.buf.values().map(|(id, _)| id.seq()).min())
        .map_or(consumed, |oldest_parked| oldest_parked.saturating_sub(1));
    let breaker = state.breakers.get(tenant);
    let checkpoint = TenantCheckpoint {
        tenant: tenant.to_string(),
        ts_unix_ms: now_ms,
        wal_ack,
        frame_seq: consumed,
        reorder_last_emitted: reorder.and_then(|b| b.last_emitted),
        reorder_max_seen: reorder.map_or(0, |b| b.max_seen),
        breaker_failures: breaker.map_or(0, |b| b.failures),
        breaker_state: breaker.map_or("closed", Breaker::state_str).to_string(),
        breaker_remaining_ms: breaker.map_or(0, |b| match b.state {
            BreakerState::Open { until } => until.saturating_duration_since(now).as_millis() as u64,
            _ => 0,
        }),
        guard: guard.clone(),
        engine: engine_snapshot,
    };
    store.write(&checkpoint);
    if let Some(wal) = &shared.wal {
        wal.compact(tenant, wal_ack);
    }
    state.last_checkpoint.insert(Arc::clone(tenant), now_ms);
    if let Some(d) = lock_recover(&shared.debug).get_mut(tenant.as_ref()) {
        d.last_checkpoint_unix_ms = Some(now_ms);
    }
}

/// Drop one tenant's live state so its next frame lazily restores from
/// the checkpoint store ([`Job::Adopt`]). Frames still parked in the
/// tenant's reorder buffer go through the pipeline first — an adopt must
/// never lose an admitted frame — and the drained state is snapshotted
/// to the checkpoint store as a *final* checkpoint before being
/// forgotten. With the reorder buffer empty, that snapshot's `wal_ack`
/// equals the consumed watermark and its WAL compaction leaves exactly
/// the never-processed suffix behind — the invariant the fleet handoff
/// protocol relies on when it lifts a tenant's checkpoint + WAL suffix
/// out of this worker's spool.
fn adopt_tenant(shard: usize, shared: &PoolShared, state: &mut WorkerState, tenant: &Arc<str>) {
    if let Some(mut buffer) = state.reorder.remove(tenant) {
        for (_, (id, frame)) in buffer.drain() {
            process_frame(shard, shared, state, tenant, &id, &frame);
        }
    }
    checkpoint_tenant(shared, state, tenant, &config_guard(shared));
    state.engines.remove(tenant);
    if let Some(breaker) = state.breakers.remove(tenant) {
        if breaker.state != BreakerState::Closed {
            // the open-breaker gauge counts live breakers; this one is
            // being dropped, not closed by a successful probe
            shared
                .metrics
                .shard(shard)
                .breaker_open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
    state.reorder.remove(tenant);
    state.consumed.remove(tenant);
    state.restored.remove(tenant);
    state.last_checkpoint.remove(tenant);
    lock_recover(&shared.debug).remove(tenant.as_ref());
    obs::info(
        "rapd.shard",
        "tenant_adopted",
        &[
            ("tenant", obs::Value::Str(tenant.to_string())),
            ("shard", obs::Value::U64(shard as u64)),
        ],
    );
}

/// Lazily resolve an unseen tenant's checkpoint before its first frame:
/// restore the engine, breaker, reorder watermark, and sequence state
/// from the latest valid snapshot — or fall through to a counted,
/// warned-about cold start. A tenant whose engine is already live (a
/// post-panic worker respawn) keeps its live state untouched.
fn restore_tenant(shard: usize, shared: &PoolShared, state: &mut WorkerState, tenant: &Arc<str>) {
    if !state.restored.insert(Arc::clone(tenant)) {
        return;
    }
    let Some(store) = &shared.checkpoints else {
        return;
    };
    if state.engines.contains_key(tenant) {
        return;
    }
    let Some(checkpoint) = store.load(tenant) else {
        rewarm(shared, tenant, "no usable checkpoint");
        return;
    };
    if checkpoint.tenant != tenant.as_ref() {
        // The snapshot at this tenant's path embeds a different tenant
        // id (a hand-moved spool file, or a stem collision from an older
        // lossy sanitizer): adopting it would silently resume from
        // foreign detector state.
        obs::warn(
            "rapd.shard",
            "checkpoint_tenant_mismatch",
            &[
                ("tenant", obs::Value::Str(tenant.to_string())),
                ("snapshot_tenant", obs::Value::Str(checkpoint.tenant)),
            ],
        );
        rewarm(shared, tenant, "checkpoint belongs to a different tenant");
        return;
    }
    if checkpoint.guard != config_guard(shared) {
        obs::warn(
            "rapd.shard",
            "checkpoint_config_mismatch",
            &[("tenant", obs::Value::Str(tenant.to_string()))],
        );
        rewarm(shared, tenant, "daemon reconfigured since snapshot");
        return;
    }
    let engine = match &checkpoint.engine {
        EngineCheckpoint::Detecting(snapshot) => {
            shared.detector_config.as_ref().and_then(|detector| {
                DetectingPipeline::try_restore(
                    shared.pipeline_config,
                    *detector,
                    snapshot,
                    (shared.factory)(shared.pipeline_config.localize_threads),
                )
                .map(|p| TenantEngine::Detecting(Box::new(p)))
            })
        }
        EngineCheckpoint::Classic(snapshot) => LocalizationPipeline::try_restore(
            shared.pipeline_config,
            MovingAverage::new(shared.window),
            (shared.factory)(shared.pipeline_config.localize_threads),
            snapshot,
        )
        .map(TenantEngine::Classic),
    };
    let Some(engine) = engine else {
        rewarm(shared, tenant, "snapshot rejected by the pipeline");
        return;
    };
    state.engines.insert(Arc::clone(tenant), engine);
    let mut breaker = Breaker {
        failures: checkpoint.breaker_failures,
        state: match checkpoint.breaker_state.as_str() {
            "open" => BreakerState::Open {
                until: Instant::now() + Duration::from_millis(checkpoint.breaker_remaining_ms),
            },
            "half_open" => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        },
    };
    if shared.breaker_threshold == 0 {
        // the breaker was disabled since the snapshot: never resume open
        breaker = Breaker::default();
    } else if breaker.state != BreakerState::Closed {
        // mirror a live opening so the close path balances the gauge
        shared
            .metrics
            .shard(shard)
            .breaker_open
            .fetch_add(1, Ordering::Relaxed);
    }
    state.breakers.insert(Arc::clone(tenant), breaker);
    if checkpoint.reorder_last_emitted.is_some() || checkpoint.reorder_max_seen > 0 {
        let buffer = state.reorder.entry(Arc::clone(tenant)).or_default();
        buffer.last_emitted = checkpoint.reorder_last_emitted;
        buffer.max_seen = checkpoint.reorder_max_seen;
    }
    state
        .consumed
        .insert(Arc::clone(tenant), checkpoint.frame_seq);
    state
        .last_checkpoint
        .insert(Arc::clone(tenant), checkpoint.ts_unix_ms);
    shared
        .metrics
        .checkpoint_restores
        .fetch_add(1, Ordering::Relaxed);
    obs::info(
        "rapd.shard",
        "checkpoint_restored",
        &[
            ("tenant", obs::Value::Str(tenant.to_string())),
            ("wal_ack", obs::Value::U64(checkpoint.wal_ack)),
            ("snapshot_unix_ms", obs::Value::U64(checkpoint.ts_unix_ms)),
        ],
    );
}

/// Account and announce a detector cold start: recovery found no usable
/// checkpoint, so the tenant re-warms blind for `min_samples` (detect
/// mode) or `warmup` (classic) frames before it can alarm again.
fn rewarm(shared: &PoolShared, tenant: &Arc<str>, reason: &str) {
    shared
        .metrics
        .detector_rewarms
        .fetch_add(1, Ordering::Relaxed);
    let blindness_frames = match &shared.detector_config {
        Some(detector) => detector.min_samples,
        None => shared.pipeline_config.warmup,
    };
    obs::warn(
        "rapd.shard",
        "detector_rewarm",
        &[
            ("tenant", obs::Value::Str(tenant.to_string())),
            ("reason", obs::Value::Str(reason.to_string())),
            (
                "estimated_blindness_frames",
                obs::Value::U64(blindness_frames as u64),
            ),
        ],
    );
}

/// Freeze every live flight ring into a blackbox dump for a failure of
/// `tenant`'s frame `id`.
fn dump_blackbox(shared: &PoolShared, trigger: &str, tenant: &str, id: &obs::FrameId) {
    let rings = obs::recorder::snapshot();
    shared
        .blackbox
        .dump(trigger, tenant, Some(id.as_str()), &rings);
}

/// Run one frame through the tenant's breaker and pipeline, with panic
/// containment, incident recording, and breaker bookkeeping.
fn process_frame(
    shard: usize,
    shared: &PoolShared,
    state: &mut WorkerState,
    tenant: &Arc<str>,
    id: &obs::FrameId,
    frame: &mdkpi::LeafFrame,
) {
    let metrics = &shared.metrics;
    let shard_metrics = metrics.shard(shard);
    // Every span and event emitted while this frame is in flight carries
    // its correlation token, including breaker and panic events.
    let _frame = obs::frame::frame_scope(id);
    let admission = state
        .breakers
        .entry(Arc::clone(tenant))
        .or_default()
        .admit(Instant::now());
    if admission == Admission::Shed {
        shard_metrics.shed.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let frame_span = obs::span("rapd.frame");
    frame_span.record("shard", shard as u64);
    frame_span.record("tenant", tenant.as_ref());
    let start = Instant::now();
    // One bad frame (or one buggy localizer) must not kill the
    // worker and its other tenants: panics are contained here
    // and handled as pipeline failures.
    let engines = &mut state.engines;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // fault injection: a pipeline panicking mid-frame,
        // scoped to one tenant via the tag
        obs::fail::apply_tagged("pipeline-panic", tenant.as_ref());
        let engine = engines
            .entry(Arc::clone(tenant))
            .or_insert_with(|| TenantEngine::build(shared));
        engine.observe(frame)
    }));
    let failed = match outcome {
        Err(payload) => {
            // The pipeline may be torn mid-update: quarantine
            // it. The tenant's next frame builds a fresh one.
            state.engines.remove(tenant);
            metrics
                .pipeline_restarts_panic
                .fetch_add(1, Ordering::Relaxed);
            obs::error(
                "rapd.shard",
                "pipeline_panic_quarantined",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("reason", obs::Value::Str(panic_message(payload.as_ref()))),
                ],
            );
            dump_blackbox(shared, "panic", tenant, id);
            true
        }
        Ok(Err(e)) => {
            metrics.pipeline_errors.fetch_add(1, Ordering::Relaxed);
            obs::error(
                "rapd.shard",
                "pipeline_error",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("reason", obs::Value::Str(e.to_string())),
                ],
            );
            true
        }
        Ok(Ok(Some(mut report))) => {
            metrics.localization.observe(start.elapsed().as_secs_f64());
            metrics.alarms.fetch_add(1, Ordering::Relaxed);
            // one observation per stage per incident, so every
            // stage count in /metrics equals rapd_alarms_total
            metrics.stages.cp.observe(report.timings.cp_seconds);
            metrics.stages.search.observe(report.timings.search_seconds);
            metrics.stages.detect.observe(report.timings.detect_seconds);
            if let Some(counter) = report
                .severity
                .and_then(|s| metrics.detections.for_label(s.as_str()))
            {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            frame_span.record("alarm", true);
            obs::info(
                "rapd.shard",
                "incident",
                &[
                    ("tenant", obs::Value::Str(tenant.to_string())),
                    ("step", obs::Value::U64(report.step as u64)),
                    ("raps", obs::Value::U64(report.raps.len() as u64)),
                    ("total_deviation", obs::Value::F64(report.total_deviation)),
                    (
                        "deadline_exceeded",
                        obs::Value::Bool(report.deadline_exceeded),
                    ),
                ],
            );
            let deadline_exceeded = report.deadline_exceeded;
            report.frame_id = Some(id.as_str().to_string());
            shared
                .sink
                .record(IncidentRecord::from_report(tenant, &report));
            // ingest→incident latency, measured from the correlation id's
            // mint instant at the observe verb
            metrics.e2e.observe(id.elapsed_seconds());
            if deadline_exceeded {
                metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                dump_blackbox(shared, "deadline", tenant, id);
            }
            // a deadline overrun is a breaker failure: a tenant
            // whose every localization times out should be shed
            deadline_exceeded
        }
        Ok(Ok(None)) => false,
    };
    // Detect mode times the streaming detector on *every* frame (its
    // histogram tracks frames processed, not alarms). A panicked engine
    // was just removed, so nothing is observed for that frame.
    if let Some(seconds) = state
        .engines
        .get(tenant)
        .and_then(TenantEngine::last_detector_seconds)
    {
        metrics.stages.detector.observe(seconds);
    }
    let breaker = state.breakers.entry(Arc::clone(tenant)).or_default();
    if failed {
        if breaker.on_failure(
            shared.breaker_threshold,
            shared.breaker_cooldown,
            Instant::now(),
        ) {
            shard_metrics.breaker_open.fetch_add(1, Ordering::Relaxed);
            obs::warn(
                "rapd.shard",
                "breaker_opened",
                &[("tenant", obs::Value::Str(tenant.to_string()))],
            );
            dump_blackbox(shared, "breaker_open", tenant, id);
        }
    } else if breaker.on_success() {
        shard_metrics.breaker_open.fetch_sub(1, Ordering::Relaxed);
        obs::info(
            "rapd.shard",
            "breaker_closed",
            &[("tenant", obs::Value::Str(tenant.to_string()))],
        );
    }
    shard_metrics.processed.fetch_add(1, Ordering::Relaxed);
    // Refresh the tenant's live-internals snapshot for the `debug` verb
    // (after breaker bookkeeping, so an opening breaker shows as open).
    let reorder = state.reorder.get(tenant);
    let snapshot = TenantDebug {
        shard,
        engine: state
            .engines
            .get(tenant)
            .map_or("quarantined", TenantEngine::kind_str),
        detector_phase: state
            .engines
            .get(tenant)
            .and_then(TenantEngine::detector_phase),
        breaker: state
            .breakers
            .get(tenant)
            .map_or("closed", Breaker::state_str),
        reorder_buffered: reorder.map_or(0, |b| b.buf.len()),
        reorder_last_emitted: reorder.and_then(|b| b.last_emitted),
        reorder_max_seen: reorder.map_or(0, |b| b.max_seen),
        reorder_lag: reorder.map_or(0, |b| {
            b.max_seen
                .saturating_sub(b.last_emitted.unwrap_or(b.max_seen))
        }),
        last_frame: id.as_str().to_string(),
        last_checkpoint_unix_ms: state.last_checkpoint.get(tenant).copied(),
    };
    lock_recover(&shared.debug).insert(tenant.to_string(), snapshot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{RapMinerLocalizer, ScoredCombination};
    use mdkpi::{LeafFrame, Schema};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", ["a1", "a2"])
            .build()
            .unwrap()
    }

    fn frame(schema: &Schema, v1: f64, v2: f64) -> LeafFrame {
        let mut b = LeafFrame::builder(schema);
        b.push(&[mdkpi::ElementId(0)], v1, 0.0);
        b.push(&[mdkpi::ElementId(1)], v2, 0.0);
        b.build()
    }

    fn small_config(queue_capacity: usize) -> ServiceConfig {
        ServiceConfig {
            shards: 2,
            queue_capacity,
            forecast_window: 3,
            pipeline: pipeline::PipelineConfig {
                history_len: 32,
                warmup: 3,
                alarm_threshold: 0.2,
                leaf_threshold: 0.3,
                k: 2,
                ..pipeline::PipelineConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    fn default_factory() -> LocalizerFactory {
        Arc::new(|_threads| Box::new(RapMinerLocalizer::default()) as Box<dyn Localizer>)
    }

    fn sink(metrics: &Arc<Metrics>) -> Arc<IncidentSink> {
        Arc::new(IncidentSink::open(None, 8, 0, Arc::clone(metrics)).unwrap())
    }

    fn quarantine(metrics: &Arc<Metrics>) -> Arc<QuarantineSink> {
        Arc::new(QuarantineSink::open(None, 8, 0, Arc::clone(metrics)).unwrap())
    }

    fn blackbox_writer(metrics: &Arc<Metrics>) -> Arc<BlackboxWriter> {
        Arc::new(BlackboxWriter::open(None, Arc::clone(metrics)).unwrap())
    }

    /// Mint a correlation id and ingest — these tests don't inspect the
    /// token, they exercise queueing and processing.
    fn ingest(pool: &ShardPool, tenant: &str, frame: LeafFrame, ts: Option<u64>) {
        pool.ingest(obs::FrameId::mint(tenant), tenant, frame, ts);
    }

    #[test]
    fn tenants_hash_deterministically_within_range() {
        let cfg = small_config(16);
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let quarantine = quarantine(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            sink,
            quarantine,
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        for tenant in ["a", "b", "edge-7", ""] {
            let s = pool.shard_for(tenant);
            assert!(s < 2);
            assert_eq!(s, pool.shard_for(tenant));
        }
        pool.shutdown();
    }

    #[test]
    fn steady_traffic_processes_without_alarms() {
        let cfg = small_config(64);
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        for _ in 0..10 {
            ingest(&pool, "tenant", frame(&s, 50.0, 50.0), None);
        }
        assert!(pool.flush(Duration::from_secs(10)));
        assert_eq!(metrics.total_processed(), 10);
        assert_eq!(metrics.total_dropped(), 0);
        assert_eq!(metrics.alarms.load(Ordering::Relaxed), 0);
        pool.shutdown();
    }

    #[test]
    fn collapse_fires_alarm_into_sink() {
        let cfg = small_config(64);
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        for _ in 0..8 {
            ingest(&pool, "edge", frame(&s, 100.0, 100.0), None);
        }
        ingest(&pool, "edge", frame(&s, 0.0, 100.0), None);
        assert!(pool.flush(Duration::from_secs(10)));
        assert_eq!(metrics.alarms.load(Ordering::Relaxed), 1);
        let incidents = sink.recent(10);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].tenant, "edge");
        assert_eq!(incidents[0].raps[0].0, "(a1)");
        assert_eq!(metrics.localization.count(), 1);
        // each stage observes exactly once per incident, so the stage
        // counts track the alarm counter
        assert_eq!(metrics.stages.cp.count(), 1);
        assert_eq!(metrics.stages.search.count(), 1);
        assert_eq!(metrics.stages.detect.count(), 1);
        // the RAPMiner localizer attaches a consistent localization trace
        let trace = incidents[0].trace.as_ref().expect("trace attached");
        assert!(trace.is_consistent());
        pool.shutdown();
    }

    #[test]
    fn overflow_drops_oldest_and_accounts_exactly() {
        // a localizer that sleeps long enough for the queue to overflow
        struct Slow(RapMinerLocalizer);
        impl Localizer for Slow {
            fn name(&self) -> &'static str {
                "slow"
            }
            fn localize(
                &self,
                frame: &LeafFrame,
                k: usize,
            ) -> baselines::Result<Vec<ScoredCombination>> {
                std::thread::sleep(Duration::from_millis(5));
                self.0.localize(frame, k)
            }
        }
        let cfg = ServiceConfig {
            shards: 1,
            queue_capacity: 4,
            forecast_window: 2,
            pipeline: pipeline::PipelineConfig {
                history_len: 8,
                warmup: 1,
                // alarm on every post-warmup frame: values alternate wildly
                alarm_threshold: 0.01,
                leaf_threshold: 0.01,
                k: 1,
                ..pipeline::PipelineConfig::default()
            },
            ..ServiceConfig::default()
        };
        let metrics = Arc::new(Metrics::new(1));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            Arc::new(|_threads| Box::new(Slow(RapMinerLocalizer::default())) as Box<dyn Localizer>),
            None,
            None,
        );
        let s = schema();
        let total = 200;
        for i in 0..total {
            let v = if i % 2 == 0 { 10.0 } else { 200.0 };
            ingest(&pool, "t", frame(&s, v, v), None);
        }
        assert!(
            pool.flush(Duration::from_secs(30)),
            "flush must not deadlock"
        );
        let processed = metrics.total_processed();
        let dropped = metrics.total_dropped();
        assert_eq!(
            processed + dropped,
            total,
            "every frame processed or accounted dropped"
        );
        assert!(dropped > 0, "slow localizer must overflow a 4-deep queue");
        // after the flush barrier the queue is empty again
        assert_eq!(metrics.shard(0).depth.load(Ordering::Relaxed), 0);
        pool.shutdown();
    }

    #[test]
    fn flush_on_idle_pool_returns_immediately() {
        let cfg = small_config(4);
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let quarantine = quarantine(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            sink,
            quarantine,
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        assert!(pool.flush(Duration::from_secs(5)));
        pool.shutdown();
    }

    /// A localizer that panics while its switch is on — a stand-in for a
    /// pipeline bug triggered by specific tenant data.
    struct Panicky {
        armed: Arc<AtomicBool>,
        inner: RapMinerLocalizer,
    }

    impl Localizer for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn localize(
            &self,
            frame: &LeafFrame,
            k: usize,
        ) -> baselines::Result<Vec<ScoredCombination>> {
            assert!(!self.armed.load(Ordering::Relaxed), "injected pipeline bug");
            self.inner.localize(frame, k)
        }
    }

    fn panicky_factory(armed: &Arc<AtomicBool>) -> LocalizerFactory {
        let armed = Arc::clone(armed);
        Arc::new(move |_threads| {
            Box::new(Panicky {
                armed: Arc::clone(&armed),
                inner: RapMinerLocalizer::default(),
            }) as Box<dyn Localizer>
        })
    }

    /// A localizer that *errors* (not panics) while its switch is on. The
    /// pipeline survives an error, so consecutive failures accumulate on
    /// the same pipeline — exactly the pattern the breaker watches for.
    struct Faily {
        armed: Arc<AtomicBool>,
        inner: RapMinerLocalizer,
    }

    impl Localizer for Faily {
        fn name(&self) -> &'static str {
            "faily"
        }
        fn localize(
            &self,
            frame: &LeafFrame,
            k: usize,
        ) -> baselines::Result<Vec<ScoredCombination>> {
            if self.armed.load(Ordering::Relaxed) {
                return Err(baselines::Error::UnlabelledFrame { method: "faily" });
            }
            self.inner.localize(frame, k)
        }
    }

    fn faily_factory(armed: &Arc<AtomicBool>) -> LocalizerFactory {
        let armed = Arc::clone(armed);
        Arc::new(move |_threads| {
            Box::new(Faily {
                armed: Arc::clone(&armed),
                inner: RapMinerLocalizer::default(),
            }) as Box<dyn Localizer>
        })
    }

    /// An alarm-on-every-frame single-shard config for fault tests.
    fn touchy_config(breaker_threshold: u32, cooldown: Duration) -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            queue_capacity: 1024,
            forecast_window: 2,
            breaker_threshold,
            breaker_cooldown: cooldown,
            pipeline: pipeline::PipelineConfig {
                history_len: 8,
                warmup: 1,
                alarm_threshold: 0.01,
                leaf_threshold: 0.01,
                k: 1,
                ..pipeline::PipelineConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    /// A geometric collapse: every post-warmup frame deviates hugely from
    /// the forecast, and because anomalous frames are excluded from the
    /// history, the alarms are *consecutive* — the breaker's trigger shape.
    fn collapsing_value(i: usize) -> f64 {
        1000.0 * 0.5f64.powi(i as i32)
    }

    #[test]
    fn panicking_pipeline_is_quarantined_and_worker_survives() {
        let cfg = touchy_config(0, Duration::from_secs(1)); // breaker off
        let armed = Arc::new(AtomicBool::new(true));
        let metrics = Arc::new(Metrics::new(1));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            panicky_factory(&armed),
            None,
            None,
        );
        let s = schema();
        let mut ingested = 0u64;
        for i in 0..6 {
            let v = collapsing_value(i);
            ingest(&pool, "victim", frame(&s, v, v), None);
            ingested += 1;
        }
        assert!(pool.flush(Duration::from_secs(10)));
        let restarts = metrics.pipeline_restarts_panic.load(Ordering::Relaxed);
        assert!(restarts >= 1, "alarming frames must hit the injected panic");
        // every frame is accounted even though localization panicked
        assert_eq!(metrics.total_processed(), ingested);
        assert_eq!(metrics.total_dropped(), 0);
        assert_eq!(metrics.total_shed(), 0);
        // disarm the bug: the tenant recovers on a fresh pipeline
        armed.store(false, Ordering::Relaxed);
        for i in 0..6 {
            let v = collapsing_value(i);
            ingest(&pool, "victim", frame(&s, v, v), None);
            ingested += 1;
        }
        assert!(pool.flush(Duration::from_secs(10)));
        assert_eq!(metrics.total_processed(), ingested);
        assert!(
            metrics.alarms.load(Ordering::Relaxed) >= 1,
            "recovered pipeline must localize again"
        );
        assert!(!sink.recent(10).is_empty());
        pool.shutdown();
    }

    #[test]
    fn breaker_opens_sheds_and_recovers_after_cooldown() {
        let cooldown = Duration::from_millis(100);
        let cfg = touchy_config(2, cooldown);
        let armed = Arc::new(AtomicBool::new(true));
        let metrics = Arc::new(Metrics::new(1));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            faily_factory(&armed),
            None,
            None,
        );
        let s = schema();
        let mut ingested = 0u64;
        // enough alarming frames to trip the 2-failure threshold, then
        // keep pushing into the open breaker
        for i in 0..10 {
            let v = collapsing_value(i);
            ingest(&pool, "flappy", frame(&s, v, v), None);
            ingested += 1;
            // serialize frames so "consecutive failures" is deterministic
            assert!(pool.flush(Duration::from_secs(10)));
        }
        assert!(
            metrics.total_shed() > 0,
            "open breaker must shed frames, got {} pipeline errors",
            metrics.pipeline_errors.load(Ordering::Relaxed)
        );
        assert_eq!(metrics.total_breaker_open(), 1, "breaker gauge up");
        assert_eq!(
            metrics.total_processed() + metrics.total_dropped() + metrics.total_shed(),
            ingested,
            "accounting invariant"
        );
        // heal the tenant and wait out the cooldown: the half-open probe
        // must close the breaker and frames must flow again
        armed.store(false, Ordering::Relaxed);
        std::thread::sleep(cooldown + Duration::from_millis(50));
        let processed_before = metrics.total_processed();
        for i in 0..4 {
            let v = collapsing_value(i);
            ingest(&pool, "flappy", frame(&s, v, v), None);
            ingested += 1;
            assert!(pool.flush(Duration::from_secs(10)));
        }
        assert_eq!(metrics.total_breaker_open(), 0, "breaker closed again");
        assert!(
            metrics.total_processed() >= processed_before + 4,
            "post-recovery frames must be processed, not shed"
        );
        assert_eq!(
            metrics.total_processed() + metrics.total_dropped() + metrics.total_shed(),
            ingested,
            "accounting invariant after recovery"
        );
        pool.shutdown();
    }

    #[test]
    fn breaker_state_machine_transitions() {
        let t0 = Instant::now();
        let cooldown = Duration::from_secs(5);
        let mut b = Breaker::default();
        assert_eq!(b.admit(t0), Admission::Process);
        // below threshold: stays closed
        assert!(!b.on_failure(3, cooldown, t0));
        assert!(!b.on_failure(3, cooldown, t0));
        assert_eq!(b.admit(t0), Admission::Process);
        // success resets the consecutive count
        assert!(!b.on_success());
        assert!(!b.on_failure(3, cooldown, t0));
        assert!(!b.on_failure(3, cooldown, t0));
        // third consecutive failure opens it
        assert!(b.on_failure(3, cooldown, t0));
        assert_eq!(b.admit(t0), Admission::Shed);
        assert_eq!(b.admit(t0 + Duration::from_secs(1)), Admission::Shed);
        // cooldown elapsed: half-open probe
        assert_eq!(b.admit(t0 + cooldown), Admission::Probe);
        // failed probe re-opens without a gauge change
        assert!(!b.on_failure(3, cooldown, t0 + cooldown));
        assert_eq!(b.admit(t0 + cooldown), Admission::Shed);
        // next probe succeeds: closed, gauge drops
        assert_eq!(b.admit(t0 + cooldown + cooldown), Admission::Probe);
        assert!(b.on_success());
        assert_eq!(b.admit(t0), Admission::Process);
        // threshold 0 disables the breaker entirely
        let mut off = Breaker::default();
        for _ in 0..100 {
            assert!(!off.on_failure(0, cooldown, t0));
        }
        assert_eq!(off.admit(t0), Admission::Process);
    }

    /// Offer a frame stamped with `ts` and return the released timestamps.
    fn offer(
        b: &mut ReorderBuffer<LeafFrame>,
        s: &Schema,
        ts: u64,
        window: usize,
        lateness: u64,
    ) -> Vec<u64> {
        b.offer(ts, frame(s, 1.0, 1.0), window, lateness)
            .unwrap_or_else(|r| panic!("ts {ts} rejected: {r:?}"))
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn reorder_buffer_emits_in_timestamp_order_behind_the_watermark() {
        let s = schema();
        let mut b = ReorderBuffer::default();
        // lateness 10: nothing is released until the watermark passes it
        assert_eq!(offer(&mut b, &s, 100, 32, 10), Vec::<u64>::new());
        assert_eq!(offer(&mut b, &s, 105, 32, 10), Vec::<u64>::new());
        // 102 arrives out of order but is still ahead of the watermark
        assert_eq!(offer(&mut b, &s, 102, 32, 10), Vec::<u64>::new());
        // 115 pushes the watermark to 105: releases 100, 102, 105 in order
        assert_eq!(offer(&mut b, &s, 115, 32, 10), vec![100, 102, 105]);
        assert_eq!(b.last_emitted, Some(105));
        // now 101 is behind the last emitted frame → late
        assert_eq!(
            b.offer(101, frame(&s, 1.0, 1.0), 32, 10),
            Err(Rejected::Late { last_emitted: 105 })
        );
    }

    #[test]
    fn reorder_buffer_rejects_replays() {
        let s = schema();
        let mut b = ReorderBuffer::default();
        assert_eq!(offer(&mut b, &s, 50, 32, 100), Vec::<u64>::new());
        // same ts while still buffered → replay
        assert_eq!(
            b.offer(50, frame(&s, 1.0, 1.0), 32, 100),
            Err(Rejected::Replay)
        );
        // emit it, then the same ts again → still replay, not late
        assert_eq!(offer(&mut b, &s, 200, 32, 100), vec![50]);
        assert_eq!(
            b.offer(50, frame(&s, 1.0, 1.0), 32, 100),
            Err(Rejected::Replay)
        );
        assert_eq!(
            b.offer(200, frame(&s, 1.0, 1.0), 32, 100),
            Err(Rejected::Replay),
            "the buffered watermark-driver ts is a replay too"
        );
    }

    #[test]
    fn reorder_buffer_overflow_releases_oldest_and_drain_empties() {
        let s = schema();
        let mut b = ReorderBuffer::default();
        // a huge lateness keeps the watermark at 0, so only the window
        // bound forces emission
        for ts in [10, 20, 30] {
            assert_eq!(offer(&mut b, &s, ts, 3, 1_000_000), Vec::<u64>::new());
        }
        assert_eq!(offer(&mut b, &s, 40, 3, 1_000_000), vec![10]);
        assert_eq!(b.buf.len(), 3);
        let drained: Vec<u64> = b.drain().into_iter().map(|(t, _)| t).collect();
        assert_eq!(drained, vec![20, 30, 40]);
        assert_eq!(b.last_emitted, Some(40));
        assert!(b.buf.is_empty());
    }

    #[test]
    fn timestamped_frames_reorder_and_flush_drains_the_buffer() {
        let cfg = ServiceConfig {
            max_lateness: Duration::from_millis(1_000_000),
            ..small_config(64)
        };
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let quarantine = quarantine(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Arc::clone(&quarantine),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        // steady history, then a collapse frame — sent FIRST but stamped
        // LAST, so only reordering can place it after the history
        ingest(&pool, "edge", frame(&s, 0.0, 100.0), Some(9_000));
        for ts in 1..=8u64 {
            ingest(&pool, "edge", frame(&s, 100.0, 100.0), Some(ts * 1_000));
        }
        // the huge lateness parks everything until the flush barrier
        assert!(pool.flush(Duration::from_secs(10)));
        assert_eq!(metrics.total_processed(), 9, "flush drains the buffer");
        assert_eq!(
            metrics.alarms.load(Ordering::Relaxed),
            1,
            "the collapse frame must be processed last, after warmup"
        );
        assert_eq!(sink.recent(10)[0].raps[0].0, "(a1)");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_reorder_buffers_in_watermark_order() {
        // Regression: frames still parked in reorder buffers when the pool
        // shuts down must be flushed through the pipeline in timestamp
        // order — not dropped on the floor — and the accounting invariant
        // must hold at the quiescent point after shutdown.
        let cfg = ServiceConfig {
            // a huge lateness keeps every frame parked until drain
            max_lateness: Duration::from_millis(1_000_000),
            ..small_config(64)
        };
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let quarantine = quarantine(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Arc::clone(&quarantine),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        // the collapse frame is SENT first but STAMPED last: only a
        // watermark-ordered drain processes it after the steady history
        ingest(&pool, "edge", frame(&s, 0.0, 100.0), Some(9_000));
        for ts in 1..=8u64 {
            ingest(&pool, "edge", frame(&s, 100.0, 100.0), Some(ts * 1_000));
        }
        let ingested = 9u64;
        // no flush — shutdown itself must drain the buffers
        pool.shutdown();
        assert_eq!(
            metrics.total_processed(),
            ingested,
            "buffered frames must be flushed at shutdown, not dropped"
        );
        assert_eq!(
            metrics.total_processed()
                + metrics.total_dropped()
                + metrics.total_shed()
                + metrics.total_quarantined(),
            ingested,
            "accounting invariant across the shutdown drain"
        );
        assert_eq!(
            metrics.alarms.load(Ordering::Relaxed),
            1,
            "watermark order: the collapse frame lands after the warmup history"
        );
        assert_eq!(sink.recent(10)[0].raps[0].0, "(a1)");
    }

    #[test]
    fn detect_mode_self_triggers_and_accounts_severity() {
        let cfg = ServiceConfig {
            shards: 1,
            detect: true,
            detect_threshold: 4.0,
            pipeline: pipeline::PipelineConfig {
                k: 2,
                ..pipeline::PipelineConfig::default()
            },
            ..ServiceConfig::default()
        };
        cfg.validate().expect("valid detect config");
        let metrics = Arc::new(Metrics::new(1));
        let sink = sink(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            quarantine(&metrics),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        // raw frames only (no labels, no forecast): warm past the
        // detector's min_samples, then collapse one leaf
        let warm = 40u64;
        for _ in 0..warm {
            ingest(&pool, "edge", frame(&s, 100.0, 100.0), None);
        }
        ingest(&pool, "edge", frame(&s, 0.0, 100.0), None);
        assert!(pool.flush(Duration::from_secs(30)));
        assert_eq!(
            metrics.alarms.load(Ordering::Relaxed),
            1,
            "detect mode must self-trigger exactly once"
        );
        assert_eq!(metrics.detections.critical.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.detections.total(), 1);
        // the streaming detector stage observes once per processed frame
        assert_eq!(metrics.stages.detector.count(), warm + 1);
        assert_eq!(metrics.total_processed(), warm + 1);
        let incidents = sink.recent(10);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].severity.as_deref(), Some("critical"));
        let detection = incidents[0].detection.as_ref().expect("evidence");
        assert!(detection.score >= 4.0);
        assert_eq!(incidents[0].raps[0].0, "(a1)");
        pool.shutdown();
    }

    #[test]
    fn late_and_replayed_frames_are_quarantined_and_accounted() {
        let cfg = ServiceConfig {
            max_lateness: Duration::from_millis(2),
            ..small_config(64)
        };
        let metrics = Arc::new(Metrics::new(cfg.shards));
        let sink = sink(&metrics);
        let quarantine = quarantine(&metrics);
        let pool = ShardPool::start(
            &cfg,
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Arc::clone(&quarantine),
            blackbox_writer(&metrics),
            default_factory(),
            None,
            None,
        );
        let s = schema();
        let mut ingested = 0u64;
        for ts in [100u64, 200, 300, 400] {
            ingest(&pool, "t", frame(&s, 50.0, 50.0), Some(ts));
            ingested += 1;
        }
        // at ts=400 the watermark is 398, so 100..=300 were emitted and
        // 400 is still buffered: re-sending 400 is a replay, and anything
        // behind the last emitted ts (300) is late
        ingest(&pool, "t", frame(&s, 50.0, 50.0), Some(400));
        ingest(&pool, "t", frame(&s, 50.0, 50.0), Some(150));
        ingested += 2;
        assert!(pool.flush(Duration::from_secs(10)));
        assert_eq!(metrics.frames_quarantined.replay.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.frames_quarantined.late.load(Ordering::Relaxed), 1);
        let records = quarantine.recent(10);
        assert_eq!(records.len(), 2);
        assert!(records
            .iter()
            .any(|r| r.reason == "late" && r.ts == Some(150)));
        assert!(records
            .iter()
            .any(|r| r.reason == "replay" && r.ts == Some(400)));
        assert_eq!(
            metrics.total_processed()
                + metrics.total_dropped()
                + metrics.total_shed()
                + metrics.total_quarantined(),
            ingested,
            "accounting invariant with quarantines"
        );
        pool.shutdown();
    }
}
