//! The rapd daemon: NDJSON ingest/control listener, shard pool, incident
//! sink, and metrics HTTP listener, wired together.
//!
//! Thread model (see DESIGN.md for the full diagram):
//!
//! ```text
//! clients ──TCP──▶ accept loop ──▶ reader thread per connection
//!                                     │  parse NDJSON, resolve schema
//!                                     ▼
//!                        bounded shard queues (drop-oldest)
//!                                     │
//!                                     ▼
//!                  shard workers (per-tenant pipelines) ──▶ incident sink
//!                                     │                       (spool+ring)
//!                                     ▼
//!                         atomic metrics ◀── /metrics HTTP listener
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use mdkpi::Schema;

use crate::admission::{AdmissionControl, Verdict};
use crate::blackbox::BlackboxWriter;
use crate::checkpoint::CheckpointStore;
use crate::config::{ServiceConfig, ServiceConfigError};
use crate::http::MetricsServer;
use crate::json::Json;
use crate::metrics::{build_version, Metrics};
use crate::proto::{build_frame, parse_request, write_reply_line, ProtoError, Request};
use crate::quarantine::{QuarantineRecord, QuarantineSink};
use crate::shard::{LocalizerFactory, ShardPool, TenantDebug};
use crate::sink::IncidentSink;
use crate::sync::{lock_recover, wait_recover};
use crate::wal::{FrameWal, WalEntry};

/// How long a `flush` request waits for the shards before giving up.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// Socket read-timeout granularity: how often blocked reads poll the
/// shutdown flag and request deadlines.
const READ_POLL: Duration = Duration::from_millis(100);

/// Set up one rapd TCP stream, accepted or dialed: reads time out every
/// [`READ_POLL`], and `TCP_NODELAY` is on. Every reply and wire frame
/// leaves in a single `write`, so Nagle's algorithm has nothing to
/// coalesce; left on, it holds a reply until the peer ACKs the previous
/// segment, and a peer that delays that ACK (40 ms on Linux) stalls the
/// reply with it.
pub(crate) fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)
}

/// Why the daemon failed to boot.
#[derive(Debug)]
#[non_exhaustive]
pub enum StartError {
    /// The configuration is invalid.
    Config(ServiceConfigError),
    /// A listener or the spool could not be set up.
    Io(io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid service config: {e}"),
            StartError::Io(e) => write!(f, "daemon startup failed: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) sink: Arc<IncidentSink>,
    pub(crate) quarantine: Arc<QuarantineSink>,
    pub(crate) blackbox: Arc<BlackboxWriter>,
    pub(crate) admission: AdmissionControl,
    pub(crate) pool: ShardPool,
    pub(crate) schemas: Mutex<HashMap<String, Schema>>,
    /// The frame write-ahead log: admitted frames are journaled here
    /// before they reach the shard queues, and replayed from it at boot.
    /// `None` when the WAL is disabled or there is no spool directory.
    pub(crate) wal: Option<Arc<FrameWal>>,
    /// The per-tenant checkpoint store; `None` without a spool directory.
    pub(crate) checkpoints: Option<Arc<CheckpointStore>>,
    /// Highest acknowledged frame sequence per tenant — the redelivery
    /// dedup watermark for router-forwarded (token-adopting) observes.
    /// Seeded at boot from checkpoints and the WAL so a redelivery after
    /// a crash is recognized too. Single-process mints never consult it.
    pub(crate) admitted: Mutex<HashMap<String, u64>>,
    /// Highest frame sequence boot recovery saw (checkpoints + WAL); a
    /// worker announces it so the router can advance its mint counter
    /// past every token this spool ever issued.
    pub(crate) recovered_max_seq: u64,
    /// Signalled by the `shutdown` control verb once the drain completed;
    /// [`ServerHandle::wait_for_drain`] blocks on it.
    pub(crate) drain: DrainGate,
    /// Boot instant, for the uptime reported by `stats` and `debug`.
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
}

/// A one-shot latch the serve loop parks on until a `shutdown` control
/// verb drains the daemon. Carries whether the drain beat its deadline so
/// the serve loop can exit nonzero on an unclean (timed-out) drain.
#[derive(Default)]
pub(crate) struct DrainGate {
    drained: Mutex<Option<bool>>,
    cv: Condvar,
}

impl DrainGate {
    /// Latch the drain outcome; the first signal wins.
    pub(crate) fn signal(&self, clean: bool) {
        let mut drained = lock_recover(&self.drained);
        if drained.is_none() {
            *drained = Some(clean);
        }
        self.cv.notify_all();
    }

    /// Park until the drain is signalled; returns whether it was clean.
    pub(crate) fn wait(&self) -> bool {
        let mut drained = lock_recover(&self.drained);
        loop {
            if let Some(clean) = *drained {
                return clean;
            }
            drained = wait_recover(&self.cv, drained);
        }
    }
}

/// A running rapd daemon. Dropping (or calling [`ServerHandle::shutdown`])
/// stops the listeners, drains the shards, and joins every thread.
pub struct ServerHandle {
    ingest_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_server: Option<MetricsServer>,
}

impl ServerHandle {
    /// The bound NDJSON ingest/control address (useful with port 0).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound Prometheus `/metrics` address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_server
            .as_ref()
            .expect("metrics server runs until shutdown")
            .addr()
    }

    /// The daemon's counters (shared with the workers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The incident sink (ring + spool).
    pub fn sink(&self) -> Arc<IncidentSink> {
        Arc::clone(&self.shared.sink)
    }

    /// The most recent quarantined frames, newest first, at most `limit`.
    pub fn quarantined(&self, limit: usize) -> Vec<QuarantineRecord> {
        self.shared.quarantine.recent(limit)
    }

    /// Stop listeners, drain shard queues, and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until a `shutdown` control verb has flushed and checkpointed
    /// the daemon — the serve loop's park point. A SIGTERM wrapper sends
    /// the verb (e.g. `rapminer shutdown`); the daemon itself installs no
    /// signal handlers. Returns whether the drain was clean (`false` when
    /// the `--shutdown-deadline-ms` budget ran out with frames still
    /// queued — the serve loop should exit nonzero).
    pub fn wait_for_drain(&self) -> bool {
        self.shared.drain.wait()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // unblock accept() with one throwaway connection
        let _ = TcpStream::connect(self.ingest_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_recover(&self.readers));
        for reader in readers {
            let _ = reader.join();
        }
        // Graceful exits checkpoint after the last frame: the jobs queue
        // behind anything still in flight, so the snapshots cover it.
        if self.shared.checkpoints.is_some() {
            self.shared.pool.checkpoint_all(FLUSH_TIMEOUT);
        }
        self.shared.pool.shutdown();
        if let Some(metrics_server) = self.metrics_server.take() {
            metrics_server.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Boot the daemon core shared by every serving mode: validate the
/// config, open the spools/WAL/checkpoint store, start the shard pool,
/// run crash recovery, and start the metrics listener. The ingest
/// listener is the caller's job — [`start`] binds the public NDJSON
/// listener, [`crate::worker::start_worker`] a framed fleet listener.
pub(crate) fn boot(
    config: ServiceConfig,
    factory: LocalizerFactory,
) -> Result<(Arc<Shared>, MetricsServer), StartError> {
    config.validate().map_err(StartError::Config)?;
    if config.log_json && !obs::sink_installed() {
        // an embedding harness may have installed its own sink first; never
        // replace it
        obs::install_sink(Box::new(io::stderr()));
    }
    let metrics = Arc::new(Metrics::new(config.shards));
    let sink = Arc::new(IncidentSink::open(
        config.spool_dir.as_deref(),
        config.ring_capacity,
        config.spool_max_bytes,
        Arc::clone(&metrics),
    )?);
    let quarantine = Arc::new(QuarantineSink::open(
        config.spool_dir.as_deref(),
        config.ring_capacity,
        config.spool_max_bytes,
        Arc::clone(&metrics),
    )?);
    let blackbox = Arc::new(BlackboxWriter::open(
        config.spool_dir.as_deref(),
        Arc::clone(&metrics),
    )?);
    let wal = match &config.spool_dir {
        Some(dir) if config.wal => Some(Arc::new(FrameWal::open(
            dir,
            Arc::clone(&metrics),
            config.wal_fsync,
        )?)),
        _ => None,
    };
    let checkpoints = match &config.spool_dir {
        Some(dir) => Some(Arc::new(CheckpointStore::open(dir, Arc::clone(&metrics))?)),
        None => None,
    };
    let pool = ShardPool::start(
        &config,
        Arc::clone(&metrics),
        Arc::clone(&sink),
        Arc::clone(&quarantine),
        Arc::clone(&blackbox),
        factory,
        wal.clone(),
        checkpoints.clone(),
    );
    let recovery = recover_state(&metrics, &pool, wal.as_deref(), checkpoints.as_deref());
    let metrics_server = MetricsServer::start(&config.metrics_listen, Arc::clone(&metrics))?;
    let admission = AdmissionControl::new(config.schema_drift_limit);
    let shared = Arc::new(Shared {
        config,
        metrics,
        sink,
        quarantine,
        blackbox,
        admission,
        pool,
        schemas: Mutex::new(recovery.schemas),
        wal,
        checkpoints,
        admitted: Mutex::new(recovery.admitted),
        recovered_max_seq: recovery.max_seq,
        drain: DrainGate::default(),
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
    });
    Ok((shared, metrics_server))
}

/// Boot the daemon: validate the config, open the spool, start the shard
/// workers and both listeners.
///
/// # Errors
///
/// [`StartError::Config`] for an invalid [`ServiceConfig`],
/// [`StartError::Io`] when a listener or the spool cannot be created.
pub fn start(config: ServiceConfig, factory: LocalizerFactory) -> Result<ServerHandle, StartError> {
    let (shared, metrics_server) = boot(config, factory)?;
    let listener = TcpListener::bind(&shared.config.listen)?;
    let ingest_addr = listener.local_addr()?;
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_readers = Arc::clone(&readers);
    let accept = std::thread::Builder::new()
        .name("rapd-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                let reader = std::thread::Builder::new()
                    .name("rapd-reader".to_string())
                    .spawn(move || handle_connection(stream, &conn_shared));
                if let Ok(handle) = reader {
                    lock_recover(&accept_readers).push(handle);
                }
            }
        })?;

    Ok(ServerHandle {
        ingest_addr,
        shared,
        accept: Some(accept),
        readers,
        metrics_server: Some(metrics_server),
    })
}

/// Everything boot-time crash recovery reconstructs for the daemon core.
struct Recovery {
    /// Tenant schemas reloaded from the WAL's schema journal.
    schemas: HashMap<String, Schema>,
    /// Highest acknowledged frame sequence per tenant (checkpoints + WAL)
    /// — the seed for the redelivery-dedup watermark.
    admitted: HashMap<String, u64>,
    /// Highest frame sequence seen anywhere in the spool.
    max_seq: u64,
}

/// Boot-time crash recovery: reload journaled schemas, advance the frame
/// sequence past everything any prior run minted, and replay the WAL
/// suffix past each tenant's checkpoint acknowledgment into the shard
/// pool. Replayed frames re-adopt their original correlation tokens, so
/// the incident sink's frame-token dedup keeps incidents exactly-once
/// while ingestion stays at-least-once.
fn recover_state(
    metrics: &Arc<Metrics>,
    pool: &ShardPool,
    wal: Option<&FrameWal>,
    checkpoints: Option<&CheckpointStore>,
) -> Recovery {
    let mut schemas: HashMap<String, Schema> = HashMap::new();
    let mut acks: HashMap<String, u64> = HashMap::new();
    let mut admitted: HashMap<String, u64> = HashMap::new();
    let mut max_seq = 0u64;
    if let Some(store) = checkpoints {
        for checkpoint in store.load_all() {
            max_seq = max_seq.max(checkpoint.frame_seq);
            let seen = admitted.entry(checkpoint.tenant.clone()).or_insert(0);
            *seen = (*seen).max(checkpoint.frame_seq);
            acks.insert(checkpoint.tenant, checkpoint.wal_ack);
        }
    }
    let Some(wal) = wal else {
        obs::FrameId::advance_past(max_seq);
        return Recovery {
            schemas,
            admitted,
            max_seq,
        };
    };
    for (tenant, parts) in wal.recover_schemas() {
        match Schema::from_parts(parts) {
            Ok(schema) => {
                schemas.insert(tenant, schema);
            }
            Err(e) => obs::warn(
                "rapd.server",
                "schema_journal_invalid",
                &[
                    ("tenant", obs::Value::Str(tenant)),
                    ("error", obs::Value::Str(e.to_string())),
                ],
            ),
        }
    }
    let entries = wal.recover();
    // Entries a checkpoint already covers can share a segment with newer
    // ones; re-applying each ack settles the depth gauge and deletes the
    // fully covered segments now rather than at the first checkpoint.
    for (tenant, ack) in &acks {
        wal.compact(tenant, *ack);
    }
    for entry in &entries {
        max_seq = max_seq.max(entry.seq);
        let seen = admitted.entry(entry.tenant.clone()).or_insert(0);
        *seen = (*seen).max(entry.seq);
    }
    // New tokens must never collide with replayed (or checkpointed) ones.
    obs::FrameId::advance_past(max_seq);
    let mut replayed = 0u64;
    for entry in entries {
        if entry.seq <= acks.get(&entry.tenant).copied().unwrap_or(0) {
            continue;
        }
        let Some(schema) = schemas.get(&entry.tenant) else {
            obs::warn(
                "rapd.server",
                "replay_missing_schema",
                &[
                    ("tenant", obs::Value::Str(entry.tenant.clone())),
                    ("frame", obs::Value::Str(entry.frame.clone())),
                ],
            );
            continue;
        };
        // journaled rows were already admitted once; a frame the current
        // schema can no longer resolve is skipped, never fatal
        let Ok(frame) = build_frame(schema, &entry.rows) else {
            obs::warn(
                "rapd.server",
                "replay_frame_unresolvable",
                &[
                    ("tenant", obs::Value::Str(entry.tenant.clone())),
                    ("frame", obs::Value::Str(entry.frame.clone())),
                ],
            );
            continue;
        };
        metrics.frames_ingested.fetch_add(1, Ordering::Relaxed);
        metrics.wal_replayed_frames.fetch_add(1, Ordering::Relaxed);
        let id = obs::FrameId::adopt(&entry.frame, entry.seq);
        pool.ingest(id, &entry.tenant, frame, entry.ts);
        replayed += 1;
    }
    if replayed > 0 {
        obs::info(
            "rapd.server",
            "wal_replayed",
            &[("frames", obs::Value::U64(replayed))],
        );
    }
    Recovery {
        schemas,
        admitted,
        max_seq,
    }
}

pub(crate) enum LineRead {
    /// Connection closed (any final unterminated partial line is in `line`).
    Eof,
    /// One complete line is in `line`.
    Line,
    /// The line exceeded `max` bytes; the rest of it was discarded.
    Oversized(usize),
}

/// Read one `\n`-terminated line with a hard size cap, tolerating read
/// timeouts (the caller polls the shutdown flag between attempts).
pub(crate) fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(LineRead::Eof);
        }
        if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.len() > max {
                return Ok(LineRead::Oversized(line.len()));
            }
            return Ok(LineRead::Line);
        }
        let n = buf.len();
        line.extend_from_slice(buf);
        reader.consume(n);
        if line.len() > max {
            let total = discard_to_newline(reader, line.len())?;
            return Ok(LineRead::Oversized(total));
        }
    }
}

/// Discard bytes until (and including) the next newline; returns the total
/// size of the oversized line.
fn discard_to_newline(reader: &mut BufReader<TcpStream>, mut seen: usize) -> io::Result<usize> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(seen);
        }
        if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            seen += pos;
            reader.consume(pos + 1);
            return Ok(seen);
        }
        seen += buf.len();
        let n = buf.len();
        reader.consume(n);
    }
}

pub(crate) fn handle_connection(stream: TcpStream, shared: &Shared) {
    if configure_stream(&stream).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let max = shared.config.max_frame_bytes;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_line_limited(&mut reader, &mut line, max) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // poll tick: partial data stays in `line`, keep reading
                continue;
            }
            Err(_) => return,
            Ok(LineRead::Eof) => {
                // process a final unterminated line, then close
                if !line.is_empty() {
                    let _ = respond(&mut writer, &line, shared);
                }
                return;
            }
            Ok(LineRead::Oversized(len)) => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let reply = ProtoError::Oversized { len, max }.to_reply();
                if write_reply_line(&mut writer, reply).is_err() {
                    return;
                }
                line.clear();
            }
            Ok(LineRead::Line) => {
                if respond(&mut writer, &line, shared).is_err() {
                    return;
                }
                line.clear();
            }
        }
    }
}

/// Dispatch one request line and write the one-line reply.
fn respond(writer: &mut TcpStream, raw: &[u8], shared: &Shared) -> io::Result<()> {
    let text = String::from_utf8_lossy(raw);
    let text = text.trim();
    if text.is_empty() {
        return Ok(());
    }
    let reply = match dispatch(text, shared, None) {
        Ok(reply) => reply,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            obs::warn(
                "rapd.server",
                "protocol_error",
                &[("reason", obs::Value::Str(e.to_string()))],
            );
            e.to_reply()
        }
    };
    write_reply_line(writer, reply)
}

/// The observe verb's ingest hot path: admission, accounting, the WAL
/// append, and the queue push. Returns the reply's payload pairs (sans
/// the `type` and ack-latency stamp the caller adds).
fn observe_pairs(
    tenant: String,
    rows: Vec<(Vec<String>, f64)>,
    ts: Option<u64>,
    shared: &Shared,
    adopt: Option<&(String, u64)>,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let schema = {
        let schemas = lock_recover(&shared.schemas);
        schemas
            .get(&tenant)
            .cloned()
            .ok_or_else(|| ProtoError::NoSchema {
                tenant: tenant.clone(),
            })?
    };
    if let Some((token, seq)) = adopt {
        // Redelivery dedup: a frame at or below the acknowledged
        // watermark was already ingested (and journaled) by this
        // process or a predecessor on the same spool. Acknowledge
        // it again without re-counting — the router redelivers
        // at-least-once after a worker death.
        let admitted = lock_recover(&shared.admitted);
        if admitted.get(&tenant).copied().unwrap_or(0) >= *seq {
            return Ok(vec![
                ("queued", Json::Bool(true)),
                ("frame", Json::str(token)),
                ("duplicate", Json::Bool(true)),
            ]);
        }
    }
    // The correlation id is minted before admission so a rejected
    // frame's quarantine record carries the same token the client
    // sees in its reply; the scope stamps admission events too.
    // A router-forwarded frame adopts the router's token instead.
    let id = match adopt {
        Some((token, seq)) => obs::FrameId::adopt(token, *seq),
        None => obs::FrameId::mint(&tenant),
    };
    let _frame = obs::frame::frame_scope(&id);
    // Admission judges the frame *after* protocol-level checks
    // (arity is an error and does not count as ingested) but
    // *before* the ingested counter, so `processed + dropped +
    // shed + quarantined == ingested` holds at every fence.
    let verdict = shared.admission.admit(&tenant, &schema, &rows)?;
    shared
        .metrics
        .frames_ingested
        .fetch_add(1, Ordering::Relaxed);
    if adopt.is_some() {
        let mut admitted = lock_recover(&shared.admitted);
        let seen = admitted.entry(tenant.clone()).or_insert(0);
        *seen = (*seen).max(id.seq());
    }
    match verdict {
        Verdict::Quarantine { reason, detail } => {
            shared.quarantine.record(QuarantineRecord {
                tenant,
                frame_id: Some(id.as_str().to_string()),
                ts,
                reason,
                detail: detail.clone(),
                rows,
            });
            Ok(vec![
                ("queued", Json::Bool(false)),
                ("frame", Json::str(id.as_str())),
                ("quarantined", Json::Bool(true)),
                ("reason", Json::str(reason)),
                ("detail", Json::str(detail)),
            ])
        }
        Verdict::Admit(admitted) => {
            let m = &shared.metrics.leaves_repaired;
            m.duplicate
                .fetch_add(admitted.repaired_duplicate, Ordering::Relaxed);
            m.negative
                .fetch_add(admitted.repaired_negative, Ordering::Relaxed);
            m.schema_drift
                .fetch_add(admitted.repaired_drift, Ordering::Relaxed);
            // admission already resolved every element, so this
            // cannot fail on data; it stays fallible for safety
            let frame = build_frame(&schema, &admitted.rows)?;
            let repaired = admitted.repaired();
            let token = id.as_str().to_string();
            // journal before queueing: once the reply acknowledges
            // the frame, a kill -9 must not be able to lose it
            if let Some(wal) = &shared.wal {
                wal.append(&WalEntry {
                    tenant: tenant.clone(),
                    frame: token.clone(),
                    seq: id.seq(),
                    ts,
                    rows: admitted.rows.clone(),
                });
            }
            shared.pool.ingest(id, &tenant, frame, ts);
            Ok(vec![
                ("queued", Json::Bool(true)),
                ("frame", Json::str(token)),
                ("repaired", Json::Bool(repaired)),
            ])
        }
    }
}

/// Dispatch one request line to its reply. `adopt` carries a
/// router-minted correlation token and sequence for forwarded observes:
/// the worker adopts the token instead of minting one, and a sequence at
/// or below the tenant's acknowledged watermark is answered as a
/// duplicate without re-ingesting — the at-least-once redelivery the
/// router performs after a worker death stays exactly-once end to end.
pub(crate) fn dispatch(
    line: &str,
    shared: &Shared,
    adopt: Option<&(String, u64)>,
) -> Result<String, ProtoError> {
    match parse_request(line, shared.config.max_frame_bytes)? {
        Request::Schema { tenant, attributes } => {
            let schema = Schema::from_parts(attributes.clone())
                .map_err(|e| ProtoError::BadSchema(e.to_string()))?;
            let mut schemas = lock_recover(&shared.schemas);
            match schemas.get(&tenant) {
                Some(existing) if *existing != schema => {
                    return Err(ProtoError::SchemaConflict { tenant });
                }
                _ => {
                    // journal before acknowledging: replay after a crash
                    // must be able to re-resolve this tenant's frames
                    if let Some(wal) = &shared.wal {
                        wal.append_schema(&tenant, &attributes);
                    }
                    schemas.insert(tenant.clone(), schema);
                }
            }
            Ok(ok_reply(vec![("tenant", Json::str(tenant))]))
        }
        Request::Observe { tenant, rows, ts } => {
            // Stamp the reply with how long the ingest hot path held the
            // connection. The parse already happened, so this covers
            // admission, the WAL append, and the queue push — the
            // daemon-side half of the ack latency a load generator
            // measures from outside.
            let ack_started = Instant::now();
            let mut pairs = observe_pairs(tenant, rows, ts, shared, adopt)?;
            let ack_seconds = ack_started.elapsed().as_secs_f64();
            shared.metrics.ingest_ack.observe(ack_seconds);
            pairs.push(("ack_us", Json::Num((ack_seconds * 1e6).round())));
            Ok(ok_reply(pairs))
        }
        Request::Flush => {
            let flushed = shared.pool.flush(FLUSH_TIMEOUT);
            Ok(ok_reply(vec![("flushed", Json::Bool(flushed))]))
        }
        Request::Stats => Ok(stats_reply(shared)),
        Request::Incidents { limit } => {
            let incidents = shared
                .sink
                .recent(limit)
                .iter()
                .map(|r| r.to_json())
                .collect();
            Ok(Json::obj([
                ("type", Json::str("incidents")),
                ("incidents", Json::Arr(incidents)),
            ])
            .render())
        }
        Request::Trace { limit } => {
            let spans = obs::recent_spans(limit).iter().map(span_to_json).collect();
            Ok(Json::obj([("type", Json::str("trace")), ("spans", Json::Arr(spans))]).render())
        }
        Request::Quarantine { limit } => {
            let records = shared
                .quarantine
                .recent(limit)
                .iter()
                .map(QuarantineRecord::to_json)
                .collect();
            Ok(Json::obj([
                ("type", Json::str("quarantine")),
                ("records", Json::Arr(records)),
            ])
            .render())
        }
        Request::Health => Ok(health_reply(shared)),
        Request::Debug { tenant } => Ok(debug_reply(shared, tenant.as_deref())),
        Request::Shutdown => {
            obs::info("rapd.server", "drain_requested", &[]);
            // Drain order matters: the flush barrier empties the reorder
            // buffers through the pipelines, then the checkpoint snapshots
            // the post-drain state (fsynced by the store), so a restart
            // resumes exactly where this run stopped. Both steps are
            // bounded by the shutdown deadline: a wedged shard must not
            // hang the drain forever — on overrun, checkpoint whatever
            // drained, log the stragglers, and report the drain unclean.
            let deadline = shared.config.shutdown_deadline;
            let flushed = shared.pool.flush(deadline);
            if !flushed {
                let depths = shared.pool.queue_depths();
                obs::warn(
                    "rapd.server",
                    "drain_deadline_exceeded",
                    &[
                        ("deadline_ms", obs::Value::U64(deadline.as_millis() as u64)),
                        ("queue_depths", obs::Value::Str(format!("{depths:?}"))),
                    ],
                );
            }
            let checkpointed = shared.pool.checkpoint_all(deadline);
            shared.drain.signal(flushed && checkpointed);
            Ok(ok_reply(vec![
                ("draining", Json::Bool(true)),
                ("flushed", Json::Bool(flushed)),
                ("checkpointed", Json::Bool(checkpointed)),
            ]))
        }
        Request::Checkpoint => {
            let checkpointed = shared.pool.checkpoint_all(FLUSH_TIMEOUT);
            Ok(ok_reply(vec![("checkpointed", Json::Bool(checkpointed))]))
        }
        Request::Adopt { tenant } => {
            let adopted = shared.pool.adopt(&tenant, FLUSH_TIMEOUT);
            Ok(ok_reply(vec![
                ("tenant", Json::str(tenant)),
                ("adopted", Json::Bool(adopted)),
            ]))
        }
        Request::Handoff { .. } => Ok(Json::obj([
            ("type", Json::str("error")),
            (
                "reason",
                Json::str("handoff requires a worker fleet (serve --workers N)"),
            ),
        ])
        .render()),
    }
}

/// Checkpoint staleness in seconds, from the newest snapshot write across
/// all tenants; `None` before the first checkpoint.
fn checkpoint_age_seconds(metrics: &Metrics) -> Option<f64> {
    let last = metrics.checkpoint_last_unix_ms.load(Ordering::Relaxed);
    if last == 0 {
        return None;
    }
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    Some(now.saturating_sub(last) as f64 / 1000.0)
}

/// Live internals for the `debug` control verb: daemon-wide state plus a
/// per-tenant breakdown, optionally filtered to one tenant.
fn debug_reply(shared: &Shared, tenant: Option<&str>) -> String {
    let m = &shared.metrics;
    let depths: Vec<Json> = shared
        .pool
        .queue_depths()
        .into_iter()
        .map(|d| Json::Num(d as f64))
        .collect();
    let tenants: Vec<Json> = shared
        .pool
        .tenant_debug()
        .into_iter()
        .filter(|(name, _)| tenant.is_none_or(|t| t == name))
        .map(|(name, d)| tenant_debug_json(&name, &d))
        .collect();
    let recorders: Vec<Json> = obs::recorder::stats()
        .into_iter()
        .map(|(name, lines, recorded, dropped)| {
            Json::obj([
                ("name", Json::str(name)),
                ("lines", Json::Num(lines as f64)),
                ("recorded", Json::Num(recorded as f64)),
                ("dropped", Json::Num(dropped as f64)),
            ])
        })
        .collect();
    let memo = rapminer::memo_stats();
    let pool = par::pool_stats();
    Json::obj([
        ("type", Json::str("debug")),
        (
            "uptime_seconds",
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("version", Json::str(build_version())),
        ("queue_depths", Json::Arr(depths)),
        ("tenants", Json::Arr(tenants)),
        ("flight_recorders", Json::Arr(recorders)),
        (
            "memo",
            Json::obj([
                ("served", Json::Num(memo.served as f64)),
                ("scratch", Json::Num(memo.scratch as f64)),
                ("hit_rate", Json::Num(memo.hit_rate())),
            ]),
        ),
        (
            "pool",
            Json::obj([
                ("maps", Json::Num(pool.maps as f64)),
                ("parallel_maps", Json::Num(pool.parallel_maps as f64)),
                ("items", Json::Num(pool.items as f64)),
                ("steals", Json::Num(pool.steals as f64)),
                ("parallel_fraction", Json::Num(pool.parallel_fraction())),
            ]),
        ),
        (
            "e2e",
            Json::obj([
                ("count", Json::Num(m.e2e.count() as f64)),
                ("sum_seconds", Json::Num(m.e2e.sum_seconds())),
            ]),
        ),
        (
            "blackbox_dumps",
            Json::obj(m.blackbox_dumps.named().map(|(t, c)| (t, load(c)))),
        ),
        (
            "blackbox_dir",
            shared
                .blackbox
                .dir()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        (
            "durability",
            Json::obj([
                ("wal_enabled", Json::Bool(shared.wal.is_some())),
                (
                    "wal_degraded",
                    Json::Bool(shared.wal.as_ref().is_some_and(|w| w.is_degraded())),
                ),
                ("wal_depth", load(&m.wal_depth)),
                ("replayed_frames", load(&m.wal_replayed_frames)),
                (
                    "checkpoints_enabled",
                    Json::Bool(shared.checkpoints.is_some()),
                ),
                ("checkpoint_writes", load(&m.checkpoint_writes)),
                ("checkpoint_restores", load(&m.checkpoint_restores)),
                (
                    "checkpoint_age_seconds",
                    checkpoint_age_seconds(m).map_or(Json::Null, Json::Num),
                ),
                ("detector_rewarms", load(&m.detector_rewarms)),
            ]),
        ),
    ])
    .render()
}

/// One tenant's live internals in the `debug` reply.
fn tenant_debug_json(name: &str, d: &TenantDebug) -> Json {
    Json::obj([
        ("tenant", Json::str(name)),
        ("shard", Json::Num(d.shard as f64)),
        ("engine", Json::str(d.engine)),
        (
            "detector_phase",
            d.detector_phase.map_or(Json::Null, Json::str),
        ),
        ("breaker", Json::str(d.breaker)),
        (
            "reorder",
            Json::obj([
                ("buffered", Json::Num(d.reorder_buffered as f64)),
                (
                    "last_emitted",
                    d.reorder_last_emitted
                        .map_or(Json::Null, |t| Json::Num(t as f64)),
                ),
                ("max_seen", Json::Num(d.reorder_max_seen as f64)),
                ("lag", Json::Num(d.reorder_lag as f64)),
            ]),
        ),
        ("last_frame", Json::str(d.last_frame.as_str())),
        (
            "last_checkpoint_ts",
            d.last_checkpoint_unix_ms
                .map_or(Json::Null, |ms| Json::Num(ms as f64)),
        ),
    ])
}

/// Fault-tolerance health summary: `"degraded"` whenever the incident or
/// quarantine spool fell back to ring-only mode or any tenant breaker is
/// currently open.
fn health_reply(shared: &Shared) -> String {
    let m = &shared.metrics;
    let spool_degraded = shared.sink.is_degraded();
    let quarantine_degraded = shared.quarantine.is_degraded();
    let wal_degraded = shared.wal.as_ref().is_some_and(|w| w.is_degraded());
    let open_breakers = m.total_breaker_open();
    let status = if spool_degraded || quarantine_degraded || wal_degraded || open_breakers > 0 {
        "degraded"
    } else {
        "ok"
    };
    // the latched lossy-fallback subsystems by name, mirroring the
    // rapd_degraded{subsystem=...} gauge family
    let degraded: Vec<Json> = [
        ("incident_spool", spool_degraded),
        ("quarantine_spool", quarantine_degraded),
        ("wal", wal_degraded),
    ]
    .into_iter()
    .filter(|(_, latched)| *latched)
    .map(|(name, _)| Json::str(name))
    .collect();
    Json::obj([
        ("type", Json::str("health")),
        ("status", Json::str(status)),
        ("degraded_subsystems", Json::Arr(degraded)),
        ("spool_degraded", Json::Bool(spool_degraded)),
        ("quarantine_degraded", Json::Bool(quarantine_degraded)),
        ("wal_degraded", Json::Bool(wal_degraded)),
        ("open_breakers", Json::Num(open_breakers as f64)),
        ("worker_restarts", load(&m.worker_restarts)),
        ("pipeline_restarts", load(&m.pipeline_restarts_panic)),
        ("deadline_exceeded", load(&m.deadline_exceeded)),
    ])
    .render()
}

/// One completed span in the `trace` reply.
fn span_to_json(span: &obs::SpanRecord) -> Json {
    let fields = span
        .fields
        .iter()
        .map(|(k, v)| {
            let value = match v {
                obs::Value::Bool(b) => Json::Bool(*b),
                obs::Value::U64(n) => Json::Num(*n as f64),
                obs::Value::F64(x) if x.is_finite() => Json::Num(*x),
                obs::Value::F64(_) => Json::Null,
                obs::Value::Str(s) => Json::str(s.as_str()),
            };
            ((*k).to_string(), value)
        })
        .collect();
    Json::obj([
        ("id", Json::Num(span.id as f64)),
        (
            "parent",
            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("trace", Json::Num(span.trace as f64)),
        ("name", Json::str(span.name)),
        (
            "frame",
            span.frame
                .as_ref()
                .map_or(Json::Null, |token| Json::str(token.as_ref())),
        ),
        ("start_micros", Json::Num(span.start_micros as f64)),
        ("elapsed_micros", Json::Num(span.elapsed_micros as f64)),
        ("fields", Json::Obj(fields)),
    ])
}

/// A counter or gauge's current value as a JSON number.
pub(crate) fn load(counter: &AtomicU64) -> Json {
    Json::Num(counter.load(Ordering::Relaxed) as f64)
}

pub(crate) fn ok_reply(mut extra: Vec<(&'static str, Json)>) -> String {
    let mut pairs = vec![("type", Json::str("ok"))];
    pairs.append(&mut extra);
    Json::obj(pairs).render()
}

fn stats_reply(shared: &Shared) -> String {
    let m = &shared.metrics;
    let shards: Vec<Json> = (0..m.num_shards())
        .map(|i| {
            let s = m.shard(i);
            Json::obj([
                ("dropped", load(&s.dropped)),
                ("processed", load(&s.processed)),
                ("depth", load(&s.depth)),
                ("shed", load(&s.shed)),
                ("breaker_open", load(&s.breaker_open)),
            ])
        })
        .collect();
    Json::obj([
        ("type", Json::str("stats")),
        (
            "uptime_seconds",
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("version", Json::str(build_version())),
        ("frames_ingested", load(&m.frames_ingested)),
        ("frames_processed", Json::Num(m.total_processed() as f64)),
        ("frames_dropped", Json::Num(m.total_dropped() as f64)),
        ("frames_shed", Json::Num(m.total_shed() as f64)),
        (
            "frames_quarantined",
            Json::Num(m.total_quarantined() as f64),
        ),
        (
            "leaves_repaired",
            Json::Num(m.leaves_repaired.total() as f64),
        ),
        ("deadline_exceeded", load(&m.deadline_exceeded)),
        ("alarms", load(&m.alarms)),
        (
            "detections",
            Json::obj(m.detections.named().map(|(s, c)| (s, load(c)))),
        ),
        ("protocol_errors", load(&m.protocol_errors)),
        (
            "incidents_in_ring",
            Json::Num(shared.sink.ring_len() as f64),
        ),
        ("wal_depth", load(&m.wal_depth)),
        ("replayed_frames", load(&m.wal_replayed_frames)),
        (
            "checkpoint_age_seconds",
            checkpoint_age_seconds(m).map_or(Json::Null, Json::Num),
        ),
        ("shards", Json::Arr(shards)),
    ])
    .render()
}
