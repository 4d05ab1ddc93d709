//! The daemon's per-frame work, replayed in process through the public
//! functions of each layer, in the daemon's order. Untraced, it is the
//! oracle the daemon's incidents are checked against; traced, every call
//! is a span.
//!
//! `FrameWal` and `CheckpointStore` are crate-private, so their appends,
//! compactions and writes are replayed from the public pieces they are
//! made of: `WalEntry`/`TenantCheckpoint` rendering, the `{json}\t{crc32}`
//! line framing, the same file calls, and `wal::read_tenant_suffix` for
//! compaction's parse of every journal line.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipeline::{LocalizationPipeline, PipelineConfig};
use service::checkpoint::{ConfigGuard, EngineCheckpoint, TenantCheckpoint};
use service::json::Json;
use service::proto::{self, Request, WireEnvelope, WireRead};
use service::{IncidentRecord, IncidentSink, Metrics, WalEntry};
use timeseries::MovingAverage;

use crate::book::{TenantBook, TS_STRIDE_MS};
use crate::stats::Tracer;

/// Nanoseconds per `obs` span with a flight recorder registered, as a
/// shard thread runs them.
pub fn obs_span_ns() -> f64 {
    let _recorder = obs::recorder::register("bench", obs::recorder::DEFAULT_FLIGHT_CAPACITY);
    let n = 20_000;
    let started = Instant::now();
    for _ in 0..n {
        let span = obs::span("bench.span");
        std::hint::black_box(&span);
    }
    started.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Bitwise CRC-32 (IEEE), as the daemon frames its journal lines.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn framed(json: &str) -> String {
    format!("{json}\t{:08x}", crc32(json.as_bytes()))
}

/// The traced replay's extra work and its measurements.
pub struct Traced {
    pub tracer: Tracer,
    pub dir: PathBuf,
    /// Frames whose wire line is parsed (parsing is the slow layer).
    pub parse_frames: usize,
    /// Frames per checkpoint interval: a checkpoint + compaction of every
    /// tenant runs after each such run of frames.
    pub checkpoint_every: usize,
    /// Frames sent over the loopback wire pair.
    pub wire_frames: usize,
    pub parsed_bytes: u64,
    pub wal_bytes: u64,
    pub wal_leaves: u64,
    pub checkpoint_bytes: Vec<f64>,
    pub checkpoint_leaves: Vec<f64>,
    pub wire_roundtrip_us: Vec<f64>,
    pub cp_ms: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub combos: Vec<f64>,
    pub observed: usize,
    pub alarms: usize,
}

impl Traced {
    pub fn new(
        dir: PathBuf,
        parse_frames: usize,
        checkpoint_every: usize,
        wire_frames: usize,
    ) -> Traced {
        Traced {
            tracer: Tracer::new(),
            dir,
            parse_frames,
            checkpoint_every: checkpoint_every.max(1),
            wire_frames,
            parsed_bytes: 0,
            wal_bytes: 0,
            wal_leaves: 0,
            checkpoint_bytes: Vec::new(),
            checkpoint_leaves: Vec::new(),
            wire_roundtrip_us: Vec::new(),
            cp_ms: Vec::new(),
            search_ms: Vec::new(),
            combos: Vec::new(),
            observed: 0,
            alarms: 0,
        }
    }
}

type Pipe = LocalizationPipeline<MovingAverage, Box<dyn baselines::Localizer>>;

/// The worker end of the loopback wire pair: answers every envelope with
/// a short ack frame until the router end closes.
fn wire_echo(listener: TcpListener) {
    let Ok((stream, _)) = listener.accept() else {
        return;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let ack = br#"{"type":"ok","queued":true}"#;
    while let Ok(WireRead::Frame(_)) = proto::read_wire_frame(&mut reader, 64 << 20, || true) {
        if proto::write_wire_frame(&mut writer, ack).is_err() {
            return;
        }
    }
}

fn compact(dir: &Path, tenant: &str, ack: u64) -> std::io::Result<()> {
    let kept = service::wal::read_tenant_suffix(dir, tenant, ack);
    let path = dir.join("wal").join(format!("{tenant}.jsonl"));
    let tmp = path.with_extension("jsonl.compact");
    {
        let mut f = File::create(&tmp)?;
        for e in &kept {
            writeln!(f, "{}", framed(&e.to_json().render()))?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)
}

fn write_checkpoint(dir: &Path, cp: &TenantCheckpoint) -> std::io::Result<u64> {
    let path = dir.join("checkpoints").join(format!("{}.json", cp.tenant));
    let line = framed(&cp.to_json().render());
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        writeln!(f, "{line}")?;
        f.sync_all()?;
    }
    if path.exists() {
        fs::rename(&path, path.with_extension("json.prev"))?;
    }
    fs::rename(&tmp, &path)?;
    Ok(line.len() as u64 + 1)
}

/// Replay `order` — `(tenant, step)` in send order — through fresh
/// per-tenant pipelines built as the shard builds them, and return the
/// rendered `raps` of every frame that alarmed. `tokens` maps a frame to
/// the daemon's correlation token, reused so records match.
pub fn replay(
    books: &[TenantBook],
    order: &[(usize, usize)],
    tokens: &HashMap<(usize, usize), String>,
    config: PipelineConfig,
    window: usize,
    mut traced: Option<&mut Traced>,
) -> Result<HashMap<(usize, usize), String>, String> {
    let factory = service::default_factory();
    let mut pipes: Vec<Pipe> = books
        .iter()
        .map(|_| {
            LocalizationPipeline::try_new(
                config,
                MovingAverage::new(window),
                factory(config.localize_threads),
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut out = HashMap::new();

    // traced-only state: journal files, sink, wire pair
    let metrics = Arc::new(Metrics::new(1));
    let mut journals: Vec<Option<File>> = books.iter().map(|_| None).collect();
    let mut sink = None;
    let mut wire = None;
    let mut echo = None;
    if let Some(t) = traced.as_deref_mut() {
        fs::create_dir_all(t.dir.join("wal")).map_err(|e| e.to_string())?;
        fs::create_dir_all(t.dir.join("checkpoints")).map_err(|e| e.to_string())?;
        sink = Some(
            IncidentSink::open(Some(&t.dir), 256, 64 << 20, Arc::clone(&metrics))
                .map_err(|e| e.to_string())?,
        );
        if t.wire_frames > 0 {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            echo = Some(std::thread::spawn(move || wire_echo(listener)));
            let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_millis(100))).ok();
            wire = Some(s);
        }
    }
    let mut last_seq: Vec<u64> = vec![0; books.len()];
    let mut last_leaves: Vec<usize> = vec![0; books.len()];

    for (i, &(tenant, step)) in order.iter().enumerate() {
        let book = &books[tenant];
        let seq = i as u64 + 1;
        let token = tokens
            .get(&(tenant, step))
            .cloned()
            .unwrap_or_else(|| format!("{}-{seq:08x}-0", book.name));
        let fid = seq;
        let frame_span = traced.as_deref_mut().map(|t| t.tracer.begin("frame", fid));

        let rows = book.rows(step);
        if let Some(t) = traced.as_deref_mut() {
            if i < t.parse_frames {
                let line = book.line(step);
                let parsed = t.tracer.time("proto.parse", fid, || {
                    proto::parse_request(line.trim_end(), 64 << 20)
                });
                match parsed {
                    Ok(Request::Observe { rows: got, .. }) if got.len() == rows.len() => {}
                    other => return Err(format!("replay parse of frame {i}: {other:?}")),
                }
                t.parsed_bytes += line.len() as u64;
            }
        }
        let frame = match traced.as_deref_mut() {
            Some(t) => t.tracer.time("proto.build_frame", fid, || {
                proto::build_frame(&book.schema, rows)
            }),
            None => proto::build_frame(&book.schema, rows),
        }
        .map_err(|e| format!("build frame: {e:?}"))?;

        if let Some(t) = traced.as_deref_mut() {
            let entry = WalEntry {
                tenant: book.name.clone(),
                frame: token.clone(),
                seq,
                ts: Some(step as u64 * TS_STRIDE_MS),
                rows: rows.to_vec(),
            };
            let dir = t.dir.join("wal");
            let journal = &mut journals[tenant];
            let bytes = t
                .tracer
                .time("wal.append", fid, || -> std::io::Result<u64> {
                    let line = framed(&entry.to_json().render());
                    if journal.is_none() {
                        *journal = Some(
                            OpenOptions::new()
                                .create(true)
                                .append(true)
                                .open(dir.join(format!("{}.jsonl", entry.tenant)))?,
                        );
                    }
                    let f = journal.as_mut().expect("journal opened above");
                    writeln!(f, "{line}")?;
                    f.flush()?;
                    Ok(line.len() as u64 + 1)
                });
            t.wal_bytes += bytes.map_err(|e| e.to_string())?;
            t.wal_leaves += rows.len() as u64;

            if let Some(stream) = wire.as_mut().filter(|_| i < t.wire_frames) {
                let line = book.line(step);
                let envelope = WireEnvelope {
                    line: line.trim_end().to_string(),
                    frame: Some((token.clone(), seq)),
                };
                let payload = t.tracer.time("wire.envelope", fid, || {
                    let payload = envelope.render();
                    WireEnvelope::parse(&payload).map(|_| payload)
                })?;
                let started = Instant::now();
                proto::write_wire_frame(stream, payload.as_bytes()).map_err(|e| e.to_string())?;
                match proto::read_wire_frame(stream, 1 << 20, || true) {
                    Ok(WireRead::Frame(_)) => {}
                    other => return Err(format!("wire echo: {other:?}")),
                }
                t.wire_roundtrip_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
            }
        }

        let observed = match traced.as_deref_mut() {
            Some(t) => {
                let id = t.tracer.begin("pipeline.observe", fid);
                let r = pipes[tenant].observe(&frame);
                t.tracer.end(id);
                t.observed += 1;
                if matches!(r, Ok(Some(_))) {
                    t.tracer.rename(id, "pipeline.alarm");
                    t.alarms += 1;
                }
                r
            }
            None => pipes[tenant].observe(&frame),
        }
        .map_err(|e| format!("pipeline: {e}"))?;

        if let Some(mut report) = observed {
            report.frame_id = Some(token.clone());
            let record = IncidentRecord::from_report(&book.name, &report);
            let raps = record
                .to_json()
                .get("raps")
                .map(Json::render)
                .unwrap_or_default();
            out.insert((tenant, step), raps);
            if let Some(t) = traced.as_deref_mut() {
                t.cp_ms.push(report.timings.cp_seconds * 1e3);
                t.search_ms.push(report.timings.search_seconds * 1e3);
                if let Some(trace) = &report.trace {
                    t.combos.push(trace.stats.combos_visited as f64);
                }
                let sink = sink.as_ref().expect("traced replay opens a sink");
                t.tracer.time("sink.record", fid, || sink.record(record));
            }
        }
        last_seq[tenant] = seq;
        last_leaves[tenant] = rows.len();

        if let Some(t) = traced.as_deref_mut() {
            if (i + 1) % t.checkpoint_every == 0 {
                for (tn, b) in books.iter().enumerate() {
                    if last_seq[tn] == 0 {
                        continue;
                    }
                    let cp = TenantCheckpoint {
                        tenant: b.name.clone(),
                        ts_unix_ms: 0,
                        wal_ack: last_seq[tn],
                        frame_seq: last_seq[tn],
                        reorder_last_emitted: None,
                        reorder_max_seen: 0,
                        breaker_failures: 0,
                        breaker_state: "closed".to_string(),
                        breaker_remaining_ms: 0,
                        guard: ConfigGuard {
                            detect: false,
                            seasonal_period: 0,
                            residual_window: 0,
                            window,
                        },
                        engine: EngineCheckpoint::Classic(pipes[tn].state_snapshot()),
                    };
                    let dir = t.dir.clone();
                    let bytes = t
                        .tracer
                        .time("checkpoint.write", fid, || write_checkpoint(&dir, &cp))
                        .map_err(|e| e.to_string())?;
                    t.checkpoint_bytes.push(bytes as f64);
                    t.checkpoint_leaves.push(last_leaves[tn] as f64);
                    // the daemon drops its cached append handle on compaction
                    journals[tn] = None;
                    t.tracer
                        .time("wal.compact", fid, || compact(&dir, &b.name, last_seq[tn]))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        if let (Some(t), Some(id)) = (traced.as_deref_mut(), frame_span) {
            t.tracer.end(id);
        }
    }
    drop(wire);
    if let Some(h) = echo {
        h.join().map_err(|_| "wire echo panicked".to_string())?;
    }
    Ok(out)
}
