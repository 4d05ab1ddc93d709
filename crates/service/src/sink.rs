//! The incident sink: a crash-safe JSONL spool on disk plus an in-memory
//! ring.
//!
//! Shard workers hand every [`pipeline::IncidentReport`] here. The sink
//! appends one line per incident to `incidents.jsonl` in the spool
//! directory (when configured) and keeps the most recent incidents in a
//! bounded ring so the control socket can answer `incidents` queries
//! without touching disk.
//!
//! The spool is a [`SegmentLog`]: `{json}\t{crc32:08x}` lines, rotated
//! to `incidents.jsonl.1` on the size cap. On startup
//! [`IncidentSink::open`] repairs the existing spool — verified lines are
//! kept, pre-CRC lines that still parse as JSON are kept read-only
//! (legacy), torn/corrupt bytes are truncated — and counts every outcome
//! in [`crate::Metrics`].
//!
//! [`IncidentSink::record`] is infallible from the worker's perspective:
//! if a spool write fails (disk full, volume gone), the sink latches into
//! ring-only mode — one warning event, `rapd_spool_degraded` set to 1 —
//! and keeps serving from memory instead of failing frames.

use std::collections::{HashSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use pipeline::{IncidentReport, StageTimings};
use rapminer::LocalizationTrace;

use crate::json::Json;
use crate::log::{read_docs, sealed_path, SegmentLog, SpoolRecovery, Store};
use crate::metrics::Metrics;
use crate::sync::lock_recover;

/// One incident, flattened to the interchange form the spool and the
/// control socket share.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// The tenant whose pipeline alarmed.
    pub tenant: String,
    /// Correlation token of the frame that triggered this incident; the
    /// same token appears on the frame's spans, quarantine records, and
    /// blackbox dumps, so one grep reconstructs its whole life. `None` for
    /// incidents produced outside the observe path.
    pub frame_id: Option<String>,
    /// The tenant-local observation step that alarmed.
    pub step: usize,
    /// Relative deviation of the overall KPI (Eq. 4 over the totals).
    pub total_deviation: f64,
    /// Leaves flagged anomalous by per-leaf detection.
    pub anomalous_leaves: usize,
    /// Total leaves in the triggering snapshot.
    pub total_leaves: usize,
    /// Ranked root anomaly patterns as `(pattern, score)`, best first.
    pub raps: Vec<(String, f64)>,
    /// Wall-clock seconds spent in each pipeline stage.
    pub timings: StageTimings,
    /// The full localization trace (per-attribute CP, per-layer search
    /// counts, candidate confidences), when the localizer produced one.
    pub trace: Option<LocalizationTrace>,
    /// Whether the localization deadline expired; `raps` is then the
    /// partial answer from the layers completed in budget.
    pub deadline_exceeded: bool,
    /// Whether any forecast feeding this incident came from the pipeline's
    /// degradation fallback (primary forecaster returned a non-finite
    /// value).
    pub degraded_forecast: bool,
    /// σ-tier of the detection that triggered this incident
    /// (`"warn"`/`"high"`/`"critical"`); `None` in classic mode.
    pub severity: Option<String>,
    /// Detection evidence from the streaming detector; `None` in classic
    /// mode.
    pub detection: Option<DetectionRecord>,
}

/// Detection evidence attached to an incident in detect mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Aggregate σ-score of the triggering frame.
    pub score: f64,
    /// Top per-leaf σ-scores as `(leaf combination, score)`, worst first.
    pub leaf_scores: Vec<(String, f64)>,
}

impl IncidentRecord {
    /// Flatten a pipeline report, stamping the tenant it belongs to.
    pub fn from_report(tenant: &str, report: &IncidentReport) -> Self {
        IncidentRecord {
            tenant: tenant.to_string(),
            frame_id: report.frame_id.clone(),
            step: report.step,
            total_deviation: report.total_deviation,
            anomalous_leaves: report.anomalous_leaves,
            total_leaves: report.total_leaves,
            raps: report
                .raps
                .iter()
                .map(|r| (r.combination.to_string(), r.score))
                .collect(),
            timings: report.timings,
            trace: report.trace.clone(),
            deadline_exceeded: report.deadline_exceeded,
            degraded_forecast: report.degraded_forecast,
            severity: report.severity.map(|s| s.as_str().to_string()),
            detection: report.detection.as_ref().map(|d| DetectionRecord {
                score: d.score,
                leaf_scores: d.leaf_scores.clone(),
            }),
        }
    }

    /// The JSON form used both for spool lines and control-socket replies.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::str(&self.tenant)),
            (
                "frame",
                self.frame_id.as_deref().map_or(Json::Null, Json::str),
            ),
            ("step", Json::Num(self.step as f64)),
            ("total_deviation", Json::Num(self.total_deviation)),
            ("anomalous_leaves", Json::Num(self.anomalous_leaves as f64)),
            ("total_leaves", Json::Num(self.total_leaves as f64)),
            ("raps", scored_to_json(&self.raps)),
            ("timings", timings_to_json(&self.timings)),
            (
                "trace",
                self.trace.as_ref().map_or(Json::Null, trace_to_json),
            ),
            ("deadline_exceeded", Json::Bool(self.deadline_exceeded)),
            ("degraded_forecast", Json::Bool(self.degraded_forecast)),
            (
                "severity",
                self.severity.as_deref().map_or(Json::Null, Json::str),
            ),
            (
                "detection",
                self.detection.as_ref().map_or(Json::Null, |d| {
                    Json::obj([
                        ("score", Json::Num(d.score)),
                        ("leaf_scores", scored_to_json(&d.leaf_scores)),
                    ])
                }),
            ),
        ])
    }
}

/// `(name, score)` pairs as `[name, score]` arrays.
fn scored_to_json(pairs: &[(String, f64)]) -> Json {
    let pair = |(name, score): &(String, f64)| Json::Arr(vec![Json::str(name), Json::Num(*score)]);
    Json::Arr(pairs.iter().map(pair).collect())
}

fn timings_to_json(t: &StageTimings) -> Json {
    Json::obj([
        ("detect_seconds", Json::Num(t.detect_seconds)),
        ("detector_seconds", Json::Num(t.detector_seconds)),
        ("cp_seconds", Json::Num(t.cp_seconds)),
        ("search_seconds", Json::Num(t.search_seconds)),
        ("localize_seconds", Json::Num(t.localize_seconds)),
    ])
}

/// Serialize a [`LocalizationTrace`] to the interchange form shared by the
/// spool and the control socket.
fn trace_to_json(trace: &LocalizationTrace) -> Json {
    let attrs = trace
        .attrs
        .iter()
        .map(|a| {
            Json::obj([
                ("attribute", Json::str(&a.attribute)),
                ("cp", Json::Num(a.cp)),
                ("deleted", Json::Bool(a.deleted)),
            ])
        })
        .collect();
    let layers = trace
        .layers
        .iter()
        .map(|l| {
            Json::obj([
                ("layer", Json::Num(l.layer as f64)),
                ("cuboids", Json::Num(l.cuboids as f64)),
                ("combos", Json::Num(l.combos as f64)),
                ("candidates", Json::Num(l.candidates as f64)),
            ])
        })
        .collect();
    let candidates = trace
        .candidates
        .iter()
        .map(|c| {
            Json::obj([
                ("combination", Json::str(&c.combination)),
                ("confidence", Json::Num(c.confidence)),
                ("layer", Json::Num(c.layer as f64)),
                ("score", Json::Num(c.score)),
                ("kept", Json::Bool(c.kept)),
            ])
        })
        .collect();
    let s = &trace.stats;
    let stats = Json::obj([
        ("attrs_deleted", Json::Num(s.attrs_deleted as f64)),
        ("cuboids_visited", Json::Num(s.cuboids_visited as f64)),
        ("combos_visited", Json::Num(s.combos_visited as f64)),
        ("candidates_found", Json::Num(s.candidates_found as f64)),
        ("early_stopped", Json::Bool(s.early_stopped)),
        ("cancelled", Json::Bool(s.cancelled)),
    ]);
    let detection = trace.detection.as_ref().map_or(Json::Null, |d| {
        Json::obj([
            ("severity", Json::str(&d.severity)),
            ("score", Json::Num(d.score)),
            ("leaf_scores", scored_to_json(&d.leaf_scores)),
        ])
    });
    Json::obj([
        ("attrs", Json::Arr(attrs)),
        ("layers", Json::Arr(layers)),
        ("candidates", Json::Arr(candidates)),
        ("stats", stats),
        ("cp_seconds", Json::Num(trace.cp_seconds)),
        ("search_seconds", Json::Num(trace.search_seconds)),
        ("detection", detection),
    ])
}

/// Where incidents go: crash-safe JSONL spool (optional) + bounded ring.
#[derive(Debug)]
pub struct IncidentSink {
    spool: Option<(PathBuf, Mutex<SegmentLog>)>,
    ring: Mutex<VecDeque<IncidentRecord>>,
    ring_capacity: usize,
    /// Frame tokens already present in the spool at open time plus every
    /// token recorded since — the exactly-once guard for WAL replay: a
    /// replayed frame that alarmed before the crash re-produces its
    /// incident, and this set suppresses the duplicate.
    seen_frames: Mutex<HashSet<String>>,
    metrics: Arc<Metrics>,
}

impl IncidentSink {
    /// Open the sink. When `spool_dir` is given the directory is created,
    /// any existing `incidents.jsonl` is scanned and repaired (see the
    /// module docs), and the file is opened for append. Recovery tallies
    /// land in `metrics` (`rapd_spool_recovered_lines`,
    /// `rapd_spool_legacy_lines`, `rapd_spool_truncated_bytes`). Frame
    /// tokens found in the spool (and its rotated `.jsonl.1` segment)
    /// seed the replay-dedup set. `max_bytes > 0` enables size-based
    /// rotation: when the spool exceeds the cap, the current file
    /// becomes `incidents.jsonl.1`, evicting the previous segment.
    ///
    /// # Errors
    ///
    /// Fails when the spool directory or file cannot be created, or an
    /// existing spool cannot be read for repair.
    pub fn open(
        spool_dir: Option<&Path>,
        ring_capacity: usize,
        max_bytes: u64,
        metrics: Arc<Metrics>,
    ) -> io::Result<Self> {
        let mut seen_frames = HashSet::new();
        let mut spool = None;
        if let Some(dir) = spool_dir {
            fs::create_dir_all(dir)?;
            let path = dir.join("incidents.jsonl");
            let (log, recovery) = SegmentLog::open(
                path.clone(),
                max_bytes,
                false,
                Store::Incidents,
                Arc::clone(&metrics),
            )?;
            for doc in [sealed_path(&path), path.clone()]
                .iter()
                .flat_map(|segment| read_docs(segment))
            {
                if let Some(frame) = doc.get("frame").and_then(Json::as_str) {
                    seen_frames.insert(frame.to_string());
                }
            }
            metrics
                .spool_recovered_lines
                .store(recovery.recovered, Ordering::Relaxed);
            metrics
                .spool_legacy_lines
                .store(recovery.legacy, Ordering::Relaxed);
            metrics
                .spool_truncated_bytes
                .store(recovery.truncated_bytes, Ordering::Relaxed);
            if recovery != SpoolRecovery::default() {
                obs::info(
                    "sink",
                    "spool_recovered",
                    &[
                        ("recovered", recovery.recovered.into()),
                        ("legacy", recovery.legacy.into()),
                        ("truncated_bytes", recovery.truncated_bytes.into()),
                    ],
                );
            }
            spool = Some((path, Mutex::new(log)));
        }
        Ok(IncidentSink {
            spool,
            ring: Mutex::new(VecDeque::new()),
            ring_capacity: ring_capacity.max(1),
            seen_frames: Mutex::new(seen_frames),
            metrics,
        })
    }

    /// The spool file path, when spooling is enabled.
    pub fn spool_path(&self) -> Option<&Path> {
        self.spool.as_ref().map(|(path, _)| path.as_path())
    }

    /// Whether a spool write error has degraded the sink to ring-only.
    pub fn is_degraded(&self) -> bool {
        self.spool.is_some() && Store::Incidents.is_degraded(&self.metrics)
    }

    /// Record one incident: push to the ring (evicting the oldest entry
    /// when full) and append the checksummed spool line, flushed
    /// immediately — incidents are rare and must survive a crash.
    ///
    /// Exactly-once across restarts: a record whose frame token is
    /// already in the spool (a WAL-replayed frame that alarmed before
    /// the crash) is suppressed and counted in
    /// `rapd_incidents_deduped_total` instead of appearing twice.
    ///
    /// Infallible from the caller's perspective: a spool write failure
    /// degrades the sink to ring-only mode (one warning event,
    /// `rapd_spool_degraded` gauge set) instead of surfacing an error the
    /// worker could do nothing useful with.
    pub fn record(&self, record: IncidentRecord) {
        if let Some(frame) = &record.frame_id {
            let mut seen = lock_recover(&self.seen_frames);
            if !seen.insert(frame.clone()) {
                self.metrics
                    .incidents_deduped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let json = record.to_json().render();
        {
            let mut ring = lock_recover(&self.ring);
            if ring.len() == self.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        if let Some((_, log)) = &self.spool {
            lock_recover(log).append(&json);
        }
    }

    /// The most recent incidents, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<IncidentRecord> {
        let ring = lock_recover(&self.ring);
        ring.iter().rev().take(limit).cloned().collect()
    }

    /// Incidents currently held in the ring.
    pub fn ring_len(&self) -> usize {
        lock_recover(&self.ring).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{frame_spool_line, judge_line, LineVerdict};

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    fn record(tenant: &str, step: usize) -> IncidentRecord {
        IncidentRecord {
            tenant: tenant.to_string(),
            frame_id: None,
            step,
            total_deviation: -0.4,
            anomalous_leaves: 2,
            total_leaves: 8,
            raps: vec![("(L1, *)".to_string(), 0.93)],
            timings: StageTimings {
                detect_seconds: 0.001,
                detector_seconds: 0.0005,
                cp_seconds: 0.002,
                search_seconds: 0.003,
                localize_seconds: 0.006,
            },
            trace: None,
            deadline_exceeded: false,
            degraded_forecast: false,
            severity: None,
            detection: None,
        }
    }

    /// A scratch directory unique to the calling test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-sink-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_keeps_newest_and_bounds_memory() {
        let sink = IncidentSink::open(None, 3, 0, metrics()).unwrap();
        for step in 0..10 {
            sink.record(record("t", step));
        }
        assert_eq!(sink.ring_len(), 3);
        let recent = sink.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].step, 9);
        assert_eq!(recent[1].step, 8);
    }

    #[test]
    fn spool_appends_checksummed_json_lines() {
        let dir = scratch("append");
        let sink = IncidentSink::open(Some(&dir), 8, 0, metrics()).unwrap();
        sink.record(record("edge", 5));
        sink.record(record("edge", 6));
        let text = fs::read_to_string(sink.spool_path().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(
                matches!(judge_line(line), LineVerdict::Verified),
                "bad frame: {line}"
            );
        }
        let (json, _crc) = lines[1].rsplit_once('\t').unwrap();
        let doc = crate::json::parse(json).unwrap();
        assert_eq!(doc.get("tenant").unwrap().as_str(), Some("edge"));
        assert_eq!(doc.get("step").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("deadline_exceeded").unwrap().as_bool(), Some(false));
        let raps = doc.get("raps").unwrap().as_arr().unwrap();
        assert_eq!(raps[0].as_arr().unwrap()[0].as_str(), Some("(L1, *)"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_appends_continue() {
        let dir = scratch("torn");
        let m = metrics();
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
            sink.record(record("t", 1));
            sink.record(record("t", 2));
        }
        let path = dir.join("incidents.jsonl");
        let intact = fs::read_to_string(&path).unwrap();
        // simulate a crash mid-write: half a JSON line, no newline
        let torn = r#"{"tenant":"t","step":3,"total_dev"#;
        fs::write(&path, format!("{intact}{torn}")).unwrap();

        let m2 = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m2)).unwrap();
        assert_eq!(m2.spool_recovered_lines.load(Ordering::Relaxed), 2);
        assert_eq!(m2.spool_legacy_lines.load(Ordering::Relaxed), 0);
        assert_eq!(
            m2.spool_truncated_bytes.load(Ordering::Relaxed),
            torn.len() as u64
        );
        let repaired = fs::read_to_string(&path).unwrap();
        assert_eq!(repaired, intact, "intact prefix must survive untouched");
        // and the repaired spool accepts new incidents
        sink.record(record("t", 4));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .all(|l| matches!(judge_line(l), LineVerdict::Verified)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corrupt_crc_is_dropped_and_counted() {
        let dir = scratch("corrupt");
        let m = metrics();
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, m).unwrap();
            for step in 1..=3 {
                sink.record(record("t", step));
            }
        }
        let path = dir.join("incidents.jsonl");
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // flip a payload byte of the middle line; its CRC no longer matches
        lines[1] = lines[1].replacen("\"step\":2", "\"step\":9", 1);
        let corrupted_len = lines[1].len() as u64 + 1; // + newline
        fs::write(&path, lines.join("\n") + "\n").unwrap();

        let m2 = metrics();
        let _sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m2)).unwrap();
        assert_eq!(m2.spool_recovered_lines.load(Ordering::Relaxed), 2);
        assert_eq!(
            m2.spool_truncated_bytes.load(Ordering::Relaxed),
            corrupted_len
        );
        let repaired = fs::read_to_string(&path).unwrap();
        assert_eq!(repaired.lines().count(), 2);
        assert!(!repaired.contains("\"step\":9"), "tampered line must go");
        assert!(repaired.contains("\"step\":1") && repaired.contains("\"step\":3"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_pre_crc_lines_are_accepted_read_only() {
        let dir = scratch("legacy");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incidents.jsonl");
        // a spool written before checksumming: bare JSON lines
        let legacy1 = record("old", 1).to_json().render();
        let legacy2 = record("old", 2).to_json().render();
        fs::write(&path, format!("{legacy1}\n{legacy2}\n")).unwrap();

        let m = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(m.spool_recovered_lines.load(Ordering::Relaxed), 0);
        assert_eq!(m.spool_legacy_lines.load(Ordering::Relaxed), 2);
        assert_eq!(m.spool_truncated_bytes.load(Ordering::Relaxed), 0);
        // legacy lines stay byte-identical; new lines get checksums
        sink.record(record("new", 3));
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], legacy1);
        assert!(matches!(judge_line(lines[0]), LineVerdict::Legacy));
        assert!(matches!(judge_line(lines[2]), LineVerdict::Verified));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_but_intact_final_line_is_kept() {
        let dir = scratch("unterminated");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incidents.jsonl");
        // the write completed but the trailing newline was lost
        let framed = frame_spool_line(&record("t", 7).to_json().render());
        let framed = framed.trim_end();
        fs::write(&path, framed).unwrap();
        let m = metrics();
        let _sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        assert_eq!(m.spool_recovered_lines.load(Ordering::Relaxed), 1);
        assert_eq!(m.spool_truncated_bytes.load(Ordering::Relaxed), 0);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{framed}\n"), "re-terminated in place");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ring_only_sink_never_degrades() {
        let sink = IncidentSink::open(None, 4, 0, metrics()).unwrap();
        sink.record(record("t", 1));
        assert!(!sink.is_degraded());
        assert!(sink.spool_path().is_none());
    }

    #[test]
    fn duplicate_frame_tokens_are_suppressed_within_a_run() {
        let m = metrics();
        let sink = IncidentSink::open(None, 8, 0, Arc::clone(&m)).unwrap();
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-00000001-1700000000000".to_string());
        sink.record(rec.clone());
        sink.record(rec); // a replayed twin
        assert_eq!(sink.ring_len(), 1);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
        // tokenless records (outside the observe path) never dedup
        sink.record(record("t", 2));
        sink.record(record("t", 2));
        assert_eq!(sink.ring_len(), 3);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn spooled_frame_tokens_dedup_across_reopen() {
        let dir = scratch("dedup");
        let m = metrics();
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-0000002a-1700000000000".to_string());
        {
            let sink = IncidentSink::open(Some(&dir), 8, 0, metrics()).unwrap();
            sink.record(rec.clone());
        }
        // a fresh process (post-crash restart) replays the same frame
        let sink = IncidentSink::open(Some(&dir), 8, 0, Arc::clone(&m)).unwrap();
        sink.record(rec);
        assert_eq!(m.incidents_deduped.load(Ordering::Relaxed), 1);
        assert_eq!(sink.ring_len(), 0, "the duplicate never reaches the ring");
        let text = fs::read_to_string(sink.spool_path().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 1, "spooled exactly once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_spool_rotates_and_evicts_the_oldest_segment() {
        let dir = scratch("rotate");
        let m = metrics();
        // a cap small enough that every record overflows it
        let sink = IncidentSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(record("t", 1));
        let rotated = dir.join("incidents.jsonl.1");
        assert!(rotated.is_file(), "first overflow rotates");
        assert!(fs::read_to_string(&rotated).unwrap().contains("\"step\":1"));
        assert_eq!(m.spool_rotations.incidents.load(Ordering::Relaxed), 1);
        sink.record(record("t", 2));
        // step 1's segment is evicted; step 2 now holds the .1 slot
        assert!(fs::read_to_string(&rotated).unwrap().contains("\"step\":2"));
        assert!(!fs::read_to_string(&rotated).unwrap().contains("\"step\":1"));
        assert_eq!(m.spool_rotations.incidents.load(Ordering::Relaxed), 2);
        // the live spool is empty again and still accepts appends
        assert_eq!(fs::read_to_string(sink.spool_path().unwrap()).unwrap(), "");
        assert!(!sink.is_degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotated_segment_still_seeds_the_dedup_set() {
        let dir = scratch("rotate-dedup");
        let mut rec = record("t", 1);
        rec.frame_id = Some("t-00000007-1700000000000".to_string());
        {
            let sink = IncidentSink::open(Some(&dir), 8, 64, metrics()).unwrap();
            sink.record(rec.clone()); // rotates into .jsonl.1
        }
        let m = metrics();
        let sink = IncidentSink::open(Some(&dir), 8, 64, Arc::clone(&m)).unwrap();
        sink.record(rec);
        assert_eq!(
            m.incidents_deduped.load(Ordering::Relaxed),
            1,
            "tokens in the rotated segment must still suppress replays"
        );
        assert_eq!(sink.ring_len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = record("t", 3);
        let doc = rec.to_json();
        assert_eq!(doc.get("frame"), Some(&Json::Null));
        rec.frame_id = Some("t-0000002a-1700000000000".to_string());
        let doc = rec.to_json();
        assert_eq!(
            doc.get("frame").unwrap().as_str(),
            Some("t-0000002a-1700000000000")
        );
        assert_eq!(doc.get("total_deviation").unwrap().as_f64(), Some(-0.4));
        assert_eq!(doc.get("total_leaves").unwrap().as_u64(), Some(8));
        let timings = doc.get("timings").unwrap();
        assert_eq!(timings.get("cp_seconds").unwrap().as_f64(), Some(0.002));
        assert_eq!(doc.get("trace"), Some(&Json::Null));
        assert_eq!(doc.get("degraded_forecast").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn localization_trace_serializes_fully() {
        use rapminer::{AttrPower, CandidateTrace, LayerTrace, SearchStats};
        let mut rec = record("t", 1);
        rec.trace = Some(LocalizationTrace {
            attrs: vec![
                AttrPower {
                    attribute: "isp".to_string(),
                    cp: 0.9,
                    deleted: false,
                },
                AttrPower {
                    attribute: "province".to_string(),
                    cp: 0.1,
                    deleted: true,
                },
            ],
            layers: vec![LayerTrace {
                layer: 1,
                cuboids: 1,
                combos: 2,
                candidates: 1,
            }],
            candidates: vec![CandidateTrace {
                combination: "(I1)".to_string(),
                confidence: 0.95,
                layer: 1,
                score: 0.95,
                kept: true,
            }],
            stats: SearchStats {
                attrs_deleted: 1,
                cuboids_visited: 1,
                combos_visited: 2,
                candidates_found: 1,
                early_stopped: true,
                cancelled: false,
            },
            cp_seconds: 0.004,
            search_seconds: 0.005,
            detection: Some(rapminer::TraceDetection {
                severity: "high".to_string(),
                score: 4.4,
                leaf_scores: vec![("(I1)".to_string(), 4.4)],
            }),
        });
        // the spool line (and hence the control-socket reply) must carry
        // the whole trace and survive a parse round-trip
        let line = rec.to_json().render();
        let doc = crate::json::parse(&line).unwrap();
        let trace = doc.get("trace").unwrap();
        let attrs = trace.get("attrs").unwrap().as_arr().unwrap();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[1].get("deleted").unwrap().as_bool(), Some(true));
        assert_eq!(
            attrs[1].get("attribute").unwrap().as_str(),
            Some("province")
        );
        let layers = trace.get("layers").unwrap().as_arr().unwrap();
        assert_eq!(layers[0].get("combos").unwrap().as_u64(), Some(2));
        let stats = trace.get("stats").unwrap();
        assert_eq!(stats.get("early_stopped").unwrap().as_bool(), Some(true));
        assert_eq!(stats.get("cancelled").unwrap().as_bool(), Some(false));
        assert_eq!(stats.get("attrs_deleted").unwrap().as_u64(), Some(1));
        let cands = trace.get("candidates").unwrap().as_arr().unwrap();
        assert_eq!(cands[0].get("combination").unwrap().as_str(), Some("(I1)"));
        assert_eq!(cands[0].get("kept").unwrap().as_bool(), Some(true));
        let detection = trace.get("detection").unwrap();
        assert_eq!(detection.get("severity").unwrap().as_str(), Some("high"));
        assert_eq!(detection.get("score").unwrap().as_f64(), Some(4.4));
    }

    #[test]
    fn severity_and_detection_serialize_when_present() {
        let mut rec = record("t", 2);
        // classic mode: both fields render as null
        let doc = rec.to_json();
        assert_eq!(doc.get("severity"), Some(&Json::Null));
        assert_eq!(doc.get("detection"), Some(&Json::Null));
        // detect mode: evidence round-trips through the spool line
        rec.severity = Some("critical".to_string());
        rec.detection = Some(DetectionRecord {
            score: 7.25,
            leaf_scores: vec![("(L1, *)".to_string(), 6.5), ("(L2, *)".to_string(), 3.1)],
        });
        let line = rec.to_json().render();
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("severity").unwrap().as_str(), Some("critical"));
        let detection = doc.get("detection").unwrap();
        assert_eq!(detection.get("score").unwrap().as_f64(), Some(7.25));
        let leaves = detection.get("leaf_scores").unwrap().as_arr().unwrap();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].as_arr().unwrap()[0].as_str(), Some("(L1, *)"));
        assert_eq!(leaves[0].as_arr().unwrap()[1].as_f64(), Some(6.5));
        // the new timing lands in the timings object too
        let timings = doc.get("timings").unwrap();
        assert_eq!(
            timings.get("detector_seconds").unwrap().as_f64(),
            Some(0.0005)
        );
    }
}
