//! Lock-free daemon counters and their Prometheus text rendering.
//!
//! Everything here is atomics so the hot ingest path never takes a lock to
//! account for a frame. Rendering follows the Prometheus text exposition
//! format 0.0.4 (the format every Prometheus scraper accepts).

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds for localization latency, in seconds.
const LATENCY_BOUNDS: [f64; 9] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Histogram bucket upper bounds for ingest-ack latency, in seconds.
/// Acking an observe is microseconds of work (parse, admission, WAL
/// append, queue push), so the grid starts three decades below the
/// localization bounds — a load generator reads p99s off these buckets.
const ACK_BOUNDS: [f64; 11] = [
    0.00001, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25,
];

/// Per-shard counters.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Frames dropped by the drop-oldest backpressure policy.
    pub dropped: AtomicU64,
    /// Frames fully processed by the shard worker.
    pub processed: AtomicU64,
    /// Current queue depth (gauge, maintained by push/pop).
    pub depth: AtomicU64,
    /// Frames shed by an open per-tenant circuit breaker (skipped without
    /// touching the pipeline; disjoint from `processed` and `dropped`).
    pub shed: AtomicU64,
    /// Tenants currently behind an open breaker on this shard (gauge).
    pub breaker_open: AtomicU64,
}

/// A fixed-bucket latency histogram (seconds).
///
/// Storage is *non-cumulative*: each observation lands in exactly the
/// first bucket whose bound contains it (one `fetch_add`), and the
/// Prometheus-mandated cumulative counts are computed at render time.
/// This keeps `observe` O(1) atomics instead of O(buckets) and removes the
/// torn-read window where a concurrent scrape could see non-monotonic
/// cumulative buckets.
#[derive(Debug)]
pub struct Histogram {
    /// Bucket upper bounds in seconds, ascending.
    bounds: &'static [f64],
    /// `buckets[i]` counts observations in `(bound[i-1], bound[i]]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in microseconds so an atomic integer suffices.
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&LATENCY_BOUNDS)
    }
}

impl Histogram {
    /// A histogram over a custom ascending bound grid (seconds).
    pub fn with_bounds(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one observation. NaN, negative, and infinite values are the
    /// caller measuring wrong — they are rejected outright rather than
    /// silently clamped into the sum, so every count in the export is a
    /// real measurement.
    pub fn observe(&self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        // `count` (the +Inf bucket) first, released by the bucket add: a
        // scrape that sees the bucket sees the count, so +Inf never reads
        // below the last finite bucket. Beyond the last bound: `count` only.
        self.count.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = self.bounds.iter().position(|bound| seconds <= *bound) {
            self.buckets[i].fetch_add(1, Ordering::Release);
        }
        self.sum_micros
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Cumulative per-bound counts (`le="bound[i]"` values), computed from
    /// the non-cumulative storage.
    fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Acquire);
                total
            })
            .collect()
    }
}

/// Per-stage localization timing histograms, exported as one
/// `rapd_stage_seconds` family with a `stage` label. The localization
/// stages (`cp`, `search`, `detect`) observe exactly once per incident, so
/// their counts equal `rapd_alarms_total` — a scrape-time consistency
/// invariant dashboards can assert on. The `detector` stage is the
/// *streaming* detector and observes once per frame in detect mode, so its
/// count tracks `rapd_frames_processed_total` instead.
///
/// The label set is fixed at these four values — labels never grow with
/// traffic, tenants, or severity.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Algorithm 1: CP computation + redundant attribute deletion.
    pub cp: Histogram,
    /// Algorithm 2: top-down lattice search.
    pub search: Histogram,
    /// Per-leaf forecasting and anomaly labelling (inside localization).
    pub detect: Histogram,
    /// Streaming detector update + scoring, per frame (detect mode only).
    pub detector: Histogram,
}

impl StageHistograms {
    /// `(stage-label, histogram)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("cp", &self.cp),
            ("search", &self.search),
            ("detect", &self.detect),
            ("detector", &self.detector),
        ]
    }
}

/// Self-triggered detections by severity tier — exported as one
/// `rapd_detections_total` family with a fixed `severity` label set
/// (`warn`/`high`/`critical`; cardinality never grows).
#[derive(Debug, Default)]
pub struct DetectionCounters {
    /// Detections in the 3–4σ tier.
    pub warn: AtomicU64,
    /// Detections in the 4–5σ tier.
    pub high: AtomicU64,
    /// Detections beyond 5σ.
    pub critical: AtomicU64,
}

impl DetectionCounters {
    /// `(severity-label, counter)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &AtomicU64); 3] {
        [
            ("warn", &self.warn),
            ("high", &self.high),
            ("critical", &self.critical),
        ]
    }

    /// The counter for one severity label as produced by
    /// `detect::Severity::as_str`; `None` for unknown labels (callers must
    /// not mint new label values).
    pub fn for_label(&self, severity: &str) -> Option<&AtomicU64> {
        self.named()
            .into_iter()
            .find(|(label, _)| *label == severity)
            .map(|(_, c)| c)
    }

    /// Sum across all severities.
    pub fn total(&self) -> u64 {
        self.named()
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Frames diverted to the quarantine spool, by reason — exported as one
/// `rapd_frames_quarantined_total` family with a `reason` label.
#[derive(Debug, Default)]
pub struct QuarantineCounters {
    /// A row value was NaN or ±infinity (the whole frame is quarantined —
    /// partial admission would skew the tenant's history).
    pub non_finite: AtomicU64,
    /// Unknown attribute values exceeded the tenant's drift allowance.
    pub schema_drift: AtomicU64,
    /// The frame's timestamp was behind the reorder watermark.
    pub late: AtomicU64,
    /// A frame with the same (tenant, timestamp) was already accepted.
    pub replay: AtomicU64,
}

impl QuarantineCounters {
    /// `(reason-label, counter)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &AtomicU64); 4] {
        [
            ("non_finite", &self.non_finite),
            ("schema_drift", &self.schema_drift),
            ("late", &self.late),
            ("replay", &self.replay),
        ]
    }

    /// Sum across all reasons.
    pub fn total(&self) -> u64 {
        self.named()
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Flight-recorder blackbox dumps written, by trigger — exported as one
/// `rapd_blackbox_dumps_total` family with a fixed `trigger` label set
/// (`panic`/`deadline`/`breaker_open`; cardinality never grows).
#[derive(Debug, Default)]
pub struct BlackboxCounters {
    /// A tenant pipeline panicked inside a shard worker.
    pub panic: AtomicU64,
    /// A localization hit the configured deadline.
    pub deadline: AtomicU64,
    /// A tenant circuit breaker opened.
    pub breaker_open: AtomicU64,
}

impl BlackboxCounters {
    /// `(trigger-label, counter)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &AtomicU64); 3] {
        [
            ("panic", &self.panic),
            ("deadline", &self.deadline),
            ("breaker_open", &self.breaker_open),
        ]
    }

    /// The counter for one trigger label; `None` for unknown labels
    /// (callers must not mint new label values).
    pub fn for_label(&self, trigger: &str) -> Option<&AtomicU64> {
        self.named()
            .into_iter()
            .find(|(label, _)| *label == trigger)
            .map(|(_, c)| c)
    }

    /// Sum across all triggers.
    pub fn total(&self) -> u64 {
        self.named()
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Leaf rows repaired in place during admission, by reason — exported as
/// one `rapd_leaves_repaired_total` family with a `reason` label.
#[derive(Debug, Default)]
pub struct RepairCounters {
    /// Extra occurrences of a duplicated leaf collapsed keep-last.
    pub duplicate: AtomicU64,
    /// Negative values clamped to zero.
    pub negative: AtomicU64,
    /// Rows with an already-registered drifted attribute value stripped.
    pub schema_drift: AtomicU64,
}

impl RepairCounters {
    /// `(reason-label, counter)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &AtomicU64); 3] {
        [
            ("duplicate", &self.duplicate),
            ("negative", &self.negative),
            ("schema_drift", &self.schema_drift),
        ]
    }

    /// Sum across all reasons.
    pub fn total(&self) -> u64 {
        self.named()
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Spool segments rotated out by the size cap, by spool — exported as one
/// `rapd_spool_rotations_total` family with a fixed `spool` label set
/// (`incidents`/`quarantine`; cardinality never grows).
#[derive(Debug, Default)]
pub struct SpoolRotationCounters {
    /// Incident spool rotations (`incidents.jsonl` → `.jsonl.1`).
    pub incidents: AtomicU64,
    /// Per-tenant quarantine spool rotations.
    pub quarantine: AtomicU64,
}

impl SpoolRotationCounters {
    /// `(spool-label, counter)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &AtomicU64); 2] {
        [
            ("incidents", &self.incidents),
            ("quarantine", &self.quarantine),
        ]
    }

    /// Sum across both spools.
    pub fn total(&self) -> u64 {
        self.named()
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// All counters the daemon exports.
#[derive(Debug)]
pub struct Metrics {
    /// Frames accepted off the wire (before queueing).
    pub frames_ingested: AtomicU64,
    /// Alarms fired (incidents produced) across all tenants.
    pub alarms: AtomicU64,
    /// Request lines rejected by the protocol parser.
    pub protocol_errors: AtomicU64,
    /// Pipeline-level failures inside shard workers (localizer errors…).
    pub pipeline_errors: AtomicU64,
    /// Tenant pipelines quarantined (dropped and rebuilt) after a panic.
    pub pipeline_restarts_panic: AtomicU64,
    /// Shard worker threads respawned by the supervisor after dying.
    pub worker_restarts: AtomicU64,
    /// Incidents whose localization hit the configured deadline.
    pub deadline_exceeded: AtomicU64,
    /// Intact spool lines carried over at startup (CRC verified).
    pub spool_recovered_lines: AtomicU64,
    /// Pre-CRC spool lines accepted read-only at startup.
    pub spool_legacy_lines: AtomicU64,
    /// Torn/corrupt spool bytes truncated at startup.
    pub spool_truncated_bytes: AtomicU64,
    /// 1 while the sink runs ring-only after a spool write error (gauge).
    pub spool_degraded: AtomicU64,
    /// Spool write failures absorbed by degrading to ring-only mode.
    pub spool_write_errors: AtomicU64,
    /// Frames diverted to quarantine, by reason.
    pub frames_quarantined: QuarantineCounters,
    /// Leaf rows repaired in place at admission, by reason.
    pub leaves_repaired: RepairCounters,
    /// Quarantine spool write failures absorbed by degrading to ring-only.
    pub quarantine_write_errors: AtomicU64,
    /// 1 while the quarantine spool runs ring-only after a write error
    /// (gauge).
    pub quarantine_degraded: AtomicU64,
    /// Latency of observe calls that triggered localization.
    pub localization: Histogram,
    /// Wire-ack latency of every observe: request dispatch to reply
    /// construction (parse-to-ack, the ingest hot path a load generator
    /// measures from outside).
    pub ingest_ack: Histogram,
    /// Ingest→incident latency: from the frame's correlation-ID mint at
    /// the observe verb to its incident record hitting the sink, computed
    /// from the [`obs::FrameId`] ingest timestamp.
    pub e2e: Histogram,
    /// Flight-recorder blackbox dumps written, by trigger.
    pub blackbox_dumps: BlackboxCounters,
    /// Per-stage timings of each triggered localization.
    pub stages: StageHistograms,
    /// Self-triggered detections, by severity tier (detect mode).
    pub detections: DetectionCounters,
    /// Admitted frames journaled to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// WAL append failures absorbed by degrading to journal-less mode.
    pub wal_append_errors: AtomicU64,
    /// WAL segments deleted after checkpoint acknowledgment.
    pub wal_compactions: AtomicU64,
    /// Frames replayed from the WAL at startup (`rapd_replayed_frames_total`).
    pub wal_replayed_frames: AtomicU64,
    /// Journaled frames not yet acknowledged by a checkpoint (gauge).
    pub wal_depth: AtomicU64,
    /// Tenant checkpoints written (periodic or drain).
    pub checkpoint_writes: AtomicU64,
    /// Checkpoint write failures (the previous snapshot stays in place).
    pub checkpoint_errors: AtomicU64,
    /// Tenant states restored from a checkpoint at startup or respawn.
    pub checkpoint_restores: AtomicU64,
    /// Checkpoint snapshots rejected as corrupt or incompatible at load.
    pub checkpoint_corrupt: AtomicU64,
    /// Unix millis of the most recent successful checkpoint write (gauge).
    pub checkpoint_last_unix_ms: AtomicU64,
    /// Detectors cold-started because recovery found no usable checkpoint
    /// (`rapd_detector_rewarms_total`).
    pub detector_rewarms: AtomicU64,
    /// Replayed incidents suppressed because the frame token was already
    /// in the incident spool (exactly-once incident delivery).
    pub incidents_deduped: AtomicU64,
    /// Spool segments rotated out by the size cap, by spool.
    pub spool_rotations: SpoolRotationCounters,
    /// 1 while the WAL runs journal-less after an append error (gauge).
    pub wal_degraded: AtomicU64,
    shards: Vec<ShardMetrics>,
}

impl Metrics {
    /// Create the counter set for `shards` shard workers.
    pub fn new(shards: usize) -> Self {
        Metrics {
            frames_ingested: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            pipeline_errors: AtomicU64::new(0),
            pipeline_restarts_panic: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            spool_recovered_lines: AtomicU64::new(0),
            spool_legacy_lines: AtomicU64::new(0),
            spool_truncated_bytes: AtomicU64::new(0),
            spool_degraded: AtomicU64::new(0),
            spool_write_errors: AtomicU64::new(0),
            frames_quarantined: QuarantineCounters::default(),
            leaves_repaired: RepairCounters::default(),
            quarantine_write_errors: AtomicU64::new(0),
            quarantine_degraded: AtomicU64::new(0),
            localization: Histogram::default(),
            ingest_ack: Histogram::with_bounds(&ACK_BOUNDS),
            e2e: Histogram::default(),
            blackbox_dumps: BlackboxCounters::default(),
            stages: StageHistograms::default(),
            detections: DetectionCounters::default(),
            wal_appends: AtomicU64::new(0),
            wal_append_errors: AtomicU64::new(0),
            wal_compactions: AtomicU64::new(0),
            wal_replayed_frames: AtomicU64::new(0),
            wal_depth: AtomicU64::new(0),
            checkpoint_writes: AtomicU64::new(0),
            checkpoint_errors: AtomicU64::new(0),
            checkpoint_restores: AtomicU64::new(0),
            checkpoint_corrupt: AtomicU64::new(0),
            checkpoint_last_unix_ms: AtomicU64::new(0),
            detector_rewarms: AtomicU64::new(0),
            incidents_deduped: AtomicU64::new(0),
            spool_rotations: SpoolRotationCounters::default(),
            wal_degraded: AtomicU64::new(0),
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// The counters of one shard.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total frames dropped across all shards.
    pub fn total_dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames processed across all shards.
    pub fn total_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.processed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames shed by open circuit breakers across all shards.
    pub fn total_shed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.shed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total frames quarantined across all reasons.
    pub fn total_quarantined(&self) -> u64 {
        self.frames_quarantined.total()
    }

    /// The degraded-latch gauges by subsystem, in export order — the
    /// single source for the `rapd_degraded{subsystem=...}` family and
    /// the `health` verb's degraded listing. A value of 1 means the
    /// subsystem latched into its lossy fallback mode (ring-only spool,
    /// journal-less WAL) after a write error.
    pub fn degraded_subsystems(&self) -> [(&'static str, u64); 3] {
        [
            (
                "incident_spool",
                self.spool_degraded.load(Ordering::Relaxed),
            ),
            (
                "quarantine_spool",
                self.quarantine_degraded.load(Ordering::Relaxed),
            ),
            ("wal", self.wal_degraded.load(Ordering::Relaxed)),
        ]
    }

    /// Tenants currently behind an open breaker, across all shards.
    pub fn total_breaker_open(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.breaker_open.load(Ordering::Relaxed))
            .sum()
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        out.push_str(
            "# HELP rapd_build_info Build metadata; the value is always 1.\n\
             # TYPE rapd_build_info gauge\n",
        );
        out.push_str(&format!(
            "rapd_build_info{} 1\n",
            label_set(
                &[("version", build_version()), ("commit", build_commit())],
                None
            )
        ));
        counter(
            &mut out,
            "rapd_frames_ingested_total",
            "Frames accepted off the wire.",
            self.frames_ingested.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_alarms_total",
            "Anomaly alarms fired (incidents produced).",
            self.alarms.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_protocol_errors_total",
            "Request lines rejected by the protocol parser.",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_pipeline_errors_total",
            "Localization failures inside shard workers.",
            self.pipeline_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_worker_restarts_total",
            "Shard worker threads respawned by the supervisor.",
            self.worker_restarts.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_deadline_exceeded_total",
            "Incidents whose localization hit the configured deadline.",
            self.deadline_exceeded.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_spool_recovered_lines",
            "Intact spool lines carried over at startup.",
            self.spool_recovered_lines.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_spool_legacy_lines",
            "Pre-CRC spool lines accepted read-only at startup.",
            self.spool_legacy_lines.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_spool_truncated_bytes",
            "Torn or corrupt spool bytes truncated at startup.",
            self.spool_truncated_bytes.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_spool_write_errors_total",
            "Spool write failures absorbed by degrading to ring-only mode.",
            self.spool_write_errors.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_spool_degraded 1 while the incident sink runs ring-only after a spool write error.\n",
        );
        out.push_str("# TYPE rapd_spool_degraded gauge\n");
        out.push_str(&format!(
            "rapd_spool_degraded {}\n",
            self.spool_degraded.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP rapd_pipeline_restarts_total Tenant pipelines quarantined and rebuilt, by reason.\n",
        );
        out.push_str("# TYPE rapd_pipeline_restarts_total counter\n");
        out.push_str(&format!(
            "rapd_pipeline_restarts_total{{reason=\"panic\"}} {}\n",
            self.pipeline_restarts_panic.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP rapd_frames_quarantined_total Frames diverted to the quarantine spool, by reason.\n",
        );
        out.push_str("# TYPE rapd_frames_quarantined_total counter\n");
        for (reason, c) in self.frames_quarantined.named() {
            out.push_str(&format!(
                "rapd_frames_quarantined_total{{reason=\"{reason}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP rapd_leaves_repaired_total Leaf rows repaired in place at admission, by reason.\n",
        );
        out.push_str("# TYPE rapd_leaves_repaired_total counter\n");
        for (reason, c) in self.leaves_repaired.named() {
            out.push_str(&format!(
                "rapd_leaves_repaired_total{{reason=\"{reason}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        counter(
            &mut out,
            "rapd_quarantine_write_errors_total",
            "Quarantine spool write failures absorbed by degrading to ring-only mode.",
            self.quarantine_write_errors.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_quarantine_degraded 1 while the quarantine spool runs ring-only after a write error.\n",
        );
        out.push_str("# TYPE rapd_quarantine_degraded gauge\n");
        out.push_str(&format!(
            "rapd_quarantine_degraded {}\n",
            self.quarantine_degraded.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP rapd_breaker_open_tenants Tenants currently behind an open circuit breaker.\n",
        );
        out.push_str("# TYPE rapd_breaker_open_tenants gauge\n");
        out.push_str(&format!(
            "rapd_breaker_open_tenants {}\n",
            self.total_breaker_open()
        ));

        out.push_str(
            "# HELP rapd_frames_dropped_total Frames dropped by backpressure, per shard.\n",
        );
        out.push_str("# TYPE rapd_frames_dropped_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "rapd_frames_dropped_total{{shard=\"{i}\"}} {}\n",
                s.dropped.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP rapd_frames_processed_total Frames fully processed, per shard.\n");
        out.push_str("# TYPE rapd_frames_processed_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "rapd_frames_processed_total{{shard=\"{i}\"}} {}\n",
                s.processed.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP rapd_frames_shed_total Frames shed by open circuit breakers, per shard.\n",
        );
        out.push_str("# TYPE rapd_frames_shed_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "rapd_frames_shed_total{{shard=\"{i}\"}} {}\n",
                s.shed.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP rapd_queue_depth Frames currently queued, per shard.\n");
        out.push_str("# TYPE rapd_queue_depth gauge\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "rapd_queue_depth{{shard=\"{i}\"}} {}\n",
                s.depth.load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP rapd_localization_seconds Latency of observe calls that localized an incident.\n",
        );
        out.push_str("# TYPE rapd_localization_seconds histogram\n");
        render_histogram(
            &mut out,
            "rapd_localization_seconds",
            &[],
            &self.localization,
        );

        out.push_str(
            "# HELP rapd_ingest_ack_seconds Observe dispatch-to-ack latency (admission, WAL append, queue push).\n",
        );
        out.push_str("# TYPE rapd_ingest_ack_seconds histogram\n");
        render_histogram(&mut out, "rapd_ingest_ack_seconds", &[], &self.ingest_ack);

        out.push_str(
            "# HELP rapd_e2e_seconds Ingest-to-incident latency measured from the frame's correlation ID.\n",
        );
        out.push_str("# TYPE rapd_e2e_seconds histogram\n");
        render_histogram(&mut out, "rapd_e2e_seconds", &[], &self.e2e);

        out.push_str(
            "# HELP rapd_stage_seconds Per-stage timing of each triggered localization.\n",
        );
        out.push_str("# TYPE rapd_stage_seconds histogram\n");
        for (stage, histogram) in self.stages.named() {
            render_histogram(
                &mut out,
                "rapd_stage_seconds",
                &[("stage", stage)],
                histogram,
            );
        }

        out.push_str("# HELP rapd_detections_total Self-triggered detections, by severity tier.\n");
        out.push_str("# TYPE rapd_detections_total counter\n");
        for (severity, c) in self.detections.named() {
            out.push_str(&format!(
                "rapd_detections_total{{severity=\"{severity}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP rapd_blackbox_dumps_total Flight-recorder blackbox dumps written, by trigger.\n",
        );
        out.push_str("# TYPE rapd_blackbox_dumps_total counter\n");
        for (trigger, c) in self.blackbox_dumps.named() {
            out.push_str(&format!(
                "rapd_blackbox_dumps_total{{trigger=\"{trigger}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        counter(
            &mut out,
            "rapd_wal_appends_total",
            "Admitted frames journaled to the write-ahead log.",
            self.wal_appends.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_wal_append_errors_total",
            "WAL append failures absorbed by degrading to journal-less mode.",
            self.wal_append_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_wal_compactions_total",
            "WAL segments deleted after checkpoint acknowledgment.",
            self.wal_compactions.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_replayed_frames_total",
            "Frames replayed from the write-ahead log at startup.",
            self.wal_replayed_frames.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_wal_depth Journaled frames not yet acknowledged by a checkpoint.\n",
        );
        out.push_str("# TYPE rapd_wal_depth gauge\n");
        out.push_str(&format!(
            "rapd_wal_depth {}\n",
            self.wal_depth.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "rapd_checkpoint_writes_total",
            "Tenant checkpoints written (periodic or drain).",
            self.checkpoint_writes.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_checkpoint_errors_total",
            "Checkpoint write failures; the previous snapshot stays in place.",
            self.checkpoint_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_checkpoint_restores_total",
            "Tenant states restored from a checkpoint.",
            self.checkpoint_restores.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_checkpoint_corrupt_total",
            "Checkpoint snapshots rejected as corrupt or incompatible.",
            self.checkpoint_corrupt.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_checkpoint_last_unix_ms Unix millis of the most recent successful checkpoint write.\n",
        );
        out.push_str("# TYPE rapd_checkpoint_last_unix_ms gauge\n");
        out.push_str(&format!(
            "rapd_checkpoint_last_unix_ms {}\n",
            self.checkpoint_last_unix_ms.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "rapd_detector_rewarms_total",
            "Detectors cold-started because recovery found no usable checkpoint.",
            self.detector_rewarms.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_incidents_deduped_total",
            "Replayed incidents suppressed by frame-token dedup.",
            self.incidents_deduped.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_spool_rotations_total Spool segments rotated out by the size cap, by spool.\n",
        );
        out.push_str("# TYPE rapd_spool_rotations_total counter\n");
        for (spool, c) in self.spool_rotations.named() {
            out.push_str(&format!(
                "rapd_spool_rotations_total{{spool=\"{spool}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP rapd_degraded 1 while a subsystem runs in its lossy fallback mode after a write error.\n",
        );
        out.push_str("# TYPE rapd_degraded gauge\n");
        for (subsystem, v) in self.degraded_subsystems() {
            out.push_str(&format!("rapd_degraded{{subsystem=\"{subsystem}\"}} {v}\n"));
        }
        out
    }
}

/// Counters the fleet router exports on its own `/metrics` endpoint.
/// Separate from [`Metrics`]: the router process runs no shard pool, no
/// sinks, and no WAL — its vocabulary is forwarding, parking, shedding,
/// worker liveness, and handoffs.
#[derive(Debug)]
pub struct RouterMetrics {
    /// Observe/schema lines forwarded to a worker and acknowledged.
    pub frames_forwarded: AtomicU64,
    /// Frames currently parked waiting for a worker (gauge).
    pub parked_frames: AtomicU64,
    /// Frames ever parked while their worker was down or unreachable.
    pub parked_total: AtomicU64,
    /// Frames shed because a down worker's park buffer was full. Each one
    /// was refused on the wire (an error reply, never a false ack).
    pub shed_total: AtomicU64,
    /// Completed live shard handoffs.
    pub handoffs: AtomicU64,
    /// WAL-suffix frames replayed onto the target during handoffs.
    pub handoff_replayed: AtomicU64,
    /// Request lines the router itself rejected.
    pub protocol_errors: AtomicU64,
    /// Per-worker liveness (1 = connected and announced) and respawn
    /// counts, indexed by worker slot.
    workers: Vec<RouterWorkerMetrics>,
}

/// Per-worker-slot router counters.
#[derive(Debug, Default)]
pub struct RouterWorkerMetrics {
    /// 1 while the worker is up and announced (gauge).
    pub up: AtomicU64,
    /// Times the supervisor respawned this slot.
    pub respawns: AtomicU64,
}

impl RouterMetrics {
    /// Create the counter set for `workers` supervised worker slots.
    pub fn new(workers: usize) -> Self {
        RouterMetrics {
            frames_forwarded: AtomicU64::new(0),
            parked_frames: AtomicU64::new(0),
            parked_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            handoff_replayed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            workers: (0..workers)
                .map(|_| RouterWorkerMetrics::default())
                .collect(),
        }
    }

    /// The counters of one worker slot.
    pub fn worker(&self, i: usize) -> &RouterWorkerMetrics {
        &self.workers[i]
    }

    /// Render the router's exposition (Prometheus text format 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "rapd_router_frames_forwarded_total",
            "Lines forwarded to a worker and acknowledged.",
            self.frames_forwarded.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP rapd_router_parked_frames Frames currently parked waiting for a worker.\n",
        );
        out.push_str("# TYPE rapd_router_parked_frames gauge\n");
        out.push_str(&format!(
            "rapd_router_parked_frames {}\n",
            self.parked_frames.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "rapd_router_parked_total",
            "Frames ever parked while their worker was down.",
            self.parked_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_router_shed_total",
            "Frames refused because a down worker's park buffer was full.",
            self.shed_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_router_handoffs_total",
            "Completed live shard handoffs.",
            self.handoffs.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_router_handoff_replayed_total",
            "WAL-suffix frames replayed onto the target during handoffs.",
            self.handoff_replayed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rapd_router_protocol_errors_total",
            "Request lines the router rejected.",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        out.push_str("# HELP rapd_router_worker_up 1 while the worker is up and announced.\n");
        out.push_str("# TYPE rapd_router_worker_up gauge\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "rapd_router_worker_up{{worker=\"{i}\"}} {}\n",
                w.up.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP rapd_router_worker_respawns_total Times the supervisor respawned the worker slot.\n",
        );
        out.push_str("# TYPE rapd_router_worker_respawns_total counter\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "rapd_router_worker_respawns_total{{worker=\"{i}\"}} {}\n",
                w.respawns.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

/// The crate version exported in `rapd_build_info` and the `stats` and
/// `debug` control replies.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The source commit baked in at compile time via the `RAPD_BUILD_COMMIT`
/// environment variable; `"unknown"` for builds outside CI.
pub fn build_commit() -> &'static str {
    option_env!("RAPD_BUILD_COMMIT").unwrap_or("unknown")
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{a="x",b="y",le="bound"}` with escaped values.
fn label_set(labels: &[(&str, &str)], le: Option<&str>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render one histogram's `_bucket`/`_sum`/`_count` lines (cumulative
/// buckets computed here, per the exposition format).
fn render_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let cumulative = h.cumulative();
    for (bound, cum) in h.bounds.iter().zip(&cumulative) {
        let bound = bound.to_string();
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_set(labels, Some(&bound))
        ));
    }
    let count = h.count();
    out.push_str(&format!(
        "{name}_bucket{} {count}\n",
        label_set(labels, Some("+Inf"))
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        label_set(labels, None),
        h.sum_seconds()
    ));
    out.push_str(&format!(
        "{name}_count{} {count}\n",
        label_set(labels, None)
    ));
}

/// A minimal Prometheus text-format 0.0.4 linter, shared by this crate's
/// unit tests, the integration tests, and CI's live-scrape gate, so every
/// rendered exposition goes through the same line validator.
pub mod lint {
    /// Validate a full exposition: every non-comment line must be
    /// `name[{label="value",...}] value` with a parseable numeric value,
    /// properly quoted label values, and legal metric/label names.
    ///
    /// # Errors
    ///
    /// The first malformed line, with what is wrong with it.
    pub fn validate_exposition(text: &str) -> Result<(), String> {
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            if line.starts_with('#') {
                return Err(format!("unknown comment form: {line}"));
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line needs a value: {line}"))?;
            if value.parse::<f64>().is_err() {
                return Err(format!("unparseable value in: {line}"));
            }
            let name = match series.split_once('{') {
                None => series,
                Some((name, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("unterminated label set: {line}"))?;
                    for pair in split_label_pairs(body) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("label needs = in: {line}"))?;
                        if !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                            return Err(format!("bad label name {k} in: {line}"));
                        }
                        if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                            return Err(format!("unquoted label value {v} in: {line}"));
                        }
                    }
                    name
                }
            };
            if !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            {
                return Err(format!("bad metric name in: {line}"));
            }
        }
        Ok(())
    }

    /// Split `a="x",b="y"` on commas outside quotes (escaped quotes count
    /// as inside).
    pub fn split_label_pairs(body: &str) -> Vec<String> {
        let mut pairs = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                cur.push(c);
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => {
                    cur.push(c);
                    escaped = true;
                }
                '"' => {
                    cur.push(c);
                    in_quotes = !in_quotes;
                }
                ',' if !in_quotes => pairs.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            pairs.push(cur);
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn validate_exposition(text: &str) {
        lint::validate_exposition(text).expect("exposition must lint clean");
    }

    #[test]
    fn observe_touches_exactly_one_bucket() {
        let h = Histogram::default();
        h.observe(0.0001); // -> bucket[0] (le 0.0005)
        h.observe(0.01); // -> bucket[3] (le 0.01, boundary is inclusive)
        h.observe(10.0); // beyond the last bound: only count/+Inf
        assert_eq!(h.count(), 3);
        let raw: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(raw.iter().sum::<u64>(), 2, "one fetch_add per observation");
        assert_eq!(raw[0], 1);
        assert_eq!(raw[3], 1);
        // cumulative view is what the scraper sees
        let cum = h.cumulative();
        assert_eq!(cum[0], 1);
        assert_eq!(cum[3], 2);
        assert_eq!(*cum.last().unwrap(), 2, "+Inf adds the out-of-range one");
    }

    #[test]
    fn non_finite_and_negative_observations_are_rejected() {
        let h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(-1.0);
        assert_eq!(h.count(), 0, "junk must not inflate the count");
        assert_eq!(h.sum_seconds(), 0.0, "junk must not pollute the sum");
        h.observe(0.25);
        assert_eq!(h.count(), 1);
        assert!((h.sum_seconds() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn buckets_stay_monotonic_under_concurrent_observe() {
        let h = Arc::new(Histogram::default());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        // spread across all buckets and past the last bound
                        let v = (f64::from(i % 11)) * 0.6e-3 + f64::from(t) * 1e-5;
                        h.observe(v);
                    }
                })
            })
            .collect();
        // scrape concurrently with the writers
        for _ in 0..200 {
            let cum = h.cumulative();
            for w in cum.windows(2) {
                assert!(w[0] <= w[1], "non-monotonic cumulative buckets: {cum:?}");
            }
            assert!(
                *cum.last().unwrap() <= h.count(),
                "+Inf below the last finite bound"
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        // every value is <= ~6ms, well under the last bound, so the final
        // cumulative bucket must account for all of them
        assert_eq!(*h.cumulative().last().unwrap(), 8000);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(
            escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd",
            "quote, backslash, and newline must be escaped"
        );
        let rendered = label_set(&[("tenant", "we\"ird\\\n")], Some("0.5"));
        assert_eq!(rendered, "{tenant=\"we\\\"ird\\\\\\n\",le=\"0.5\"}");
        assert!(!rendered.contains('\n'), "newlines would break the format");
    }

    #[test]
    fn every_family_round_trips_through_the_line_validator() {
        let m = Metrics::new(2);
        m.frames_ingested.fetch_add(5, Ordering::Relaxed);
        m.shard(1).dropped.fetch_add(3, Ordering::Relaxed);
        m.localization.observe(0.002);
        m.stages.cp.observe(0.0001);
        m.stages.search.observe(0.003);
        m.stages.detect.observe(0.7);
        m.stages.detector.observe(0.00002);
        m.detections.high.fetch_add(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_frames_ingested_total 5"));
        assert!(text.contains("rapd_frames_dropped_total{shard=\"1\"} 3"));
        assert!(text.contains("rapd_frames_dropped_total{shard=\"0\"} 0"));
        assert!(text.contains("rapd_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("rapd_localization_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("rapd_localization_seconds_count 1"));
        // stage family: one histogram per stage label, counts independent
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"cp\",le=\"0.0005\"} 1"));
        assert!(text.contains("rapd_stage_seconds_count{stage=\"search\"} 1"));
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"detect\",le=\"0.5\"} 0"));
        assert!(text.contains("rapd_stage_seconds_bucket{stage=\"detect\",le=\"1\"} 1"));
        assert!(text.contains("rapd_stage_seconds_count{stage=\"detector\"} 1"));
        assert!(text.contains("rapd_detections_total{severity=\"warn\"} 0"));
        assert!(text.contains("rapd_detections_total{severity=\"high\"} 2"));
        assert!(text.contains("rapd_detections_total{severity=\"critical\"} 0"));
        // each TYPE comment appears exactly once per family
        assert_eq!(
            text.matches("# TYPE rapd_stage_seconds histogram").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE rapd_detections_total counter").count(),
            1
        );
    }

    #[test]
    fn stage_and_severity_label_sets_are_fixed() {
        // Cardinality gate: the rendered label sets must be exactly the
        // documented values, regardless of what was observed — labels must
        // never grow with traffic, tenants, or new severities.
        let m = Metrics::new(1);
        m.stages.detector.observe(0.001);
        m.detections.critical.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        let stages: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_stage_seconds_count{stage=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            stages.into_iter().collect::<Vec<_>>(),
            ["cp", "detect", "detector", "search"],
            "stage label set must stay fixed"
        );
        let severities: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_detections_total{severity=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            severities.into_iter().collect::<Vec<_>>(),
            ["critical", "high", "warn"],
            "severity label set must stay fixed"
        );
        // every detect::Severity maps onto an exported counter
        for severity in detect::Severity::all() {
            assert!(
                m.detections.for_label(severity.as_str()).is_some(),
                "severity {severity} has no counter"
            );
        }
        assert!(m.detections.for_label("page-me-harder").is_none());
        assert_eq!(m.detections.total(), 1);
    }

    #[test]
    fn rendered_cumulative_buckets_are_monotonic() {
        let m = Metrics::new(1);
        for v in [0.0001, 0.0008, 0.02, 0.2, 3.0, 100.0] {
            m.localization.observe(v);
        }
        let text = m.render_prometheus();
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("rapd_localization_seconds_bucket"))
        {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "bucket decreased: {line}");
            last = v;
        }
        assert_eq!(last, 6, "+Inf bucket must equal the count");
    }

    #[test]
    fn observability_families_render_and_validate() {
        let m = Metrics::new(1);
        m.e2e.observe(0.003);
        m.blackbox_dumps.panic.fetch_add(2, Ordering::Relaxed);
        m.blackbox_dumps.deadline.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains(&format!(
            "rapd_build_info{{version=\"{}\",commit=\"{}\"}} 1",
            build_version(),
            build_commit()
        )));
        assert!(text.contains("rapd_e2e_seconds_count 1"));
        assert!(text.contains("rapd_e2e_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"panic\"} 2"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"deadline\"} 1"));
        assert!(text.contains("rapd_blackbox_dumps_total{trigger=\"breaker_open\"} 0"));
        // trigger label set is fixed at the three documented values
        let triggers: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_blackbox_dumps_total{trigger=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            triggers.into_iter().collect::<Vec<_>>(),
            ["breaker_open", "deadline", "panic"],
        );
        assert!(m.blackbox_dumps.for_label("panic").is_some());
        assert!(m.blackbox_dumps.for_label("oom").is_none());
        assert_eq!(m.blackbox_dumps.total(), 3);
    }

    #[test]
    fn durability_families_render_and_validate() {
        let m = Metrics::new(1);
        m.wal_appends.fetch_add(12, Ordering::Relaxed);
        m.wal_append_errors.fetch_add(1, Ordering::Relaxed);
        m.wal_compactions.fetch_add(2, Ordering::Relaxed);
        m.wal_replayed_frames.fetch_add(7, Ordering::Relaxed);
        m.wal_depth.store(5, Ordering::Relaxed);
        m.checkpoint_writes.fetch_add(3, Ordering::Relaxed);
        m.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
        m.checkpoint_restores.fetch_add(2, Ordering::Relaxed);
        m.checkpoint_corrupt.fetch_add(1, Ordering::Relaxed);
        m.checkpoint_last_unix_ms
            .store(1754700000123, Ordering::Relaxed);
        m.detector_rewarms.fetch_add(1, Ordering::Relaxed);
        m.incidents_deduped.fetch_add(4, Ordering::Relaxed);
        m.spool_rotations.incidents.fetch_add(2, Ordering::Relaxed);
        m.spool_rotations.quarantine.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_wal_appends_total 12"));
        assert!(text.contains("rapd_wal_append_errors_total 1"));
        assert!(text.contains("rapd_wal_compactions_total 2"));
        assert!(text.contains("rapd_replayed_frames_total 7"));
        assert!(text.contains("rapd_wal_depth 5"));
        assert!(text.contains("rapd_checkpoint_writes_total 3"));
        assert!(text.contains("rapd_checkpoint_errors_total 1"));
        assert!(text.contains("rapd_checkpoint_restores_total 2"));
        assert!(text.contains("rapd_checkpoint_corrupt_total 1"));
        assert!(text.contains("rapd_checkpoint_last_unix_ms 1754700000123"));
        assert!(text.contains("rapd_detector_rewarms_total 1"));
        assert!(text.contains("rapd_incidents_deduped_total 4"));
        assert!(text.contains("rapd_spool_rotations_total{spool=\"incidents\"} 2"));
        assert!(text.contains("rapd_spool_rotations_total{spool=\"quarantine\"} 1"));
        assert_eq!(m.spool_rotations.total(), 3);
        // the spool label set is fixed at the two documented values
        let spools: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("rapd_spool_rotations_total{spool=\""))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            spools.into_iter().collect::<Vec<_>>(),
            ["incidents", "quarantine"],
        );
    }

    #[test]
    fn degraded_family_tracks_every_latch() {
        let m = Metrics::new(1);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_degraded{subsystem=\"incident_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"quarantine_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"wal\"} 0"));
        m.spool_degraded.store(1, Ordering::Relaxed);
        m.wal_degraded.store(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        assert!(text.contains("rapd_degraded{subsystem=\"incident_spool\"} 1"));
        assert!(text.contains("rapd_degraded{subsystem=\"quarantine_spool\"} 0"));
        assert!(text.contains("rapd_degraded{subsystem=\"wal\"} 1"));
        assert_eq!(
            m.degraded_subsystems()
                .iter()
                .filter(|(_, v)| *v == 1)
                .count(),
            2
        );
    }

    #[test]
    fn router_families_render_and_validate() {
        let m = RouterMetrics::new(3);
        m.frames_forwarded.fetch_add(42, Ordering::Relaxed);
        m.parked_frames.store(2, Ordering::Relaxed);
        m.parked_total.fetch_add(5, Ordering::Relaxed);
        m.shed_total.fetch_add(1, Ordering::Relaxed);
        m.handoffs.fetch_add(1, Ordering::Relaxed);
        m.handoff_replayed.fetch_add(3, Ordering::Relaxed);
        m.worker(0).up.store(1, Ordering::Relaxed);
        m.worker(2).respawns.fetch_add(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_router_frames_forwarded_total 42"));
        assert!(text.contains("rapd_router_parked_frames 2"));
        assert!(text.contains("rapd_router_parked_total 5"));
        assert!(text.contains("rapd_router_shed_total 1"));
        assert!(text.contains("rapd_router_handoffs_total 1"));
        assert!(text.contains("rapd_router_handoff_replayed_total 3"));
        assert!(text.contains("rapd_router_worker_up{worker=\"0\"} 1"));
        assert!(text.contains("rapd_router_worker_up{worker=\"1\"} 0"));
        assert!(text.contains("rapd_router_worker_respawns_total{worker=\"2\"} 2"));
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        for bad in [
            "# COMMENT nope",
            "no_value_here",
            "name{unterminated=\"x\" 1",
            "name{k=unquoted} 1",
            "name{bad-label=\"x\"} 1",
            "name value_not_numeric",
            "bad name{k=\"v\"} x 1",
        ] {
            assert!(lint::validate_exposition(bad).is_err(), "accepted: {bad}");
        }
        assert!(lint::validate_exposition("ok_metric{a=\"b\",c=\"d\"} 4.5").is_ok());
    }

    #[test]
    fn totals_aggregate_across_shards() {
        let m = Metrics::new(3);
        m.shard(0).dropped.fetch_add(1, Ordering::Relaxed);
        m.shard(2).dropped.fetch_add(2, Ordering::Relaxed);
        m.shard(1).processed.fetch_add(7, Ordering::Relaxed);
        m.shard(0).shed.fetch_add(4, Ordering::Relaxed);
        m.shard(1).breaker_open.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.total_dropped(), 3);
        assert_eq!(m.total_processed(), 7);
        assert_eq!(m.total_shed(), 4);
        assert_eq!(m.total_breaker_open(), 1);
    }

    #[test]
    fn fault_tolerance_families_render_and_validate() {
        let m = Metrics::new(2);
        m.pipeline_restarts_panic.fetch_add(2, Ordering::Relaxed);
        m.worker_restarts.fetch_add(1, Ordering::Relaxed);
        m.deadline_exceeded.fetch_add(3, Ordering::Relaxed);
        m.spool_recovered_lines.store(40, Ordering::Relaxed);
        m.spool_legacy_lines.store(4, Ordering::Relaxed);
        m.spool_truncated_bytes.store(17, Ordering::Relaxed);
        m.spool_degraded.store(1, Ordering::Relaxed);
        m.spool_write_errors.fetch_add(1, Ordering::Relaxed);
        m.shard(1).shed.fetch_add(9, Ordering::Relaxed);
        m.shard(0).breaker_open.store(2, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_pipeline_restarts_total{reason=\"panic\"} 2"));
        assert!(text.contains("rapd_worker_restarts_total 1"));
        assert!(text.contains("rapd_deadline_exceeded_total 3"));
        assert!(text.contains("rapd_spool_recovered_lines 40"));
        assert!(text.contains("rapd_spool_legacy_lines 4"));
        assert!(text.contains("rapd_spool_truncated_bytes 17"));
        assert!(text.contains("rapd_spool_degraded 1"));
        assert!(text.contains("rapd_spool_write_errors_total 1"));
        assert!(text.contains("rapd_frames_shed_total{shard=\"1\"} 9"));
        assert!(text.contains("rapd_frames_shed_total{shard=\"0\"} 0"));
        assert!(text.contains("rapd_breaker_open_tenants 2"));
    }

    #[test]
    fn quarantine_and_repair_families_render_and_validate() {
        let m = Metrics::new(2);
        m.frames_quarantined
            .non_finite
            .fetch_add(3, Ordering::Relaxed);
        m.frames_quarantined
            .schema_drift
            .fetch_add(1, Ordering::Relaxed);
        m.frames_quarantined.late.fetch_add(4, Ordering::Relaxed);
        m.frames_quarantined.replay.fetch_add(2, Ordering::Relaxed);
        m.leaves_repaired.duplicate.fetch_add(7, Ordering::Relaxed);
        m.leaves_repaired.negative.fetch_add(5, Ordering::Relaxed);
        m.leaves_repaired
            .schema_drift
            .fetch_add(6, Ordering::Relaxed);
        m.quarantine_write_errors.fetch_add(1, Ordering::Relaxed);
        m.quarantine_degraded.store(1, Ordering::Relaxed);
        let text = m.render_prometheus();
        validate_exposition(&text);
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"non_finite\"} 3"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"schema_drift\"} 1"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"late\"} 4"));
        assert!(text.contains("rapd_frames_quarantined_total{reason=\"replay\"} 2"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"duplicate\"} 7"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"negative\"} 5"));
        assert!(text.contains("rapd_leaves_repaired_total{reason=\"schema_drift\"} 6"));
        assert!(text.contains("rapd_quarantine_write_errors_total 1"));
        assert!(text.contains("rapd_quarantine_degraded 1"));
        // each TYPE comment appears exactly once per labelled family
        assert_eq!(
            text.matches("# TYPE rapd_frames_quarantined_total counter")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE rapd_leaves_repaired_total counter")
                .count(),
            1
        );
        assert_eq!(m.total_quarantined(), 10);
        assert_eq!(m.leaves_repaired.total(), 18);
    }
}
