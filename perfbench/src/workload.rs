//! The daemon workloads: `steady`, `fleet` and `wide`.
//!
//! One run: set the daemon up five times (the last one stays), send the
//! warm-up frames, replay the book open-loop at the fixed rate, flush,
//! send unpaced for the saturation phase, flush again, tear the tree
//! down, and check every incident against the in-process replay of the
//! same frames.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

use pipeline::PipelineConfig;
use service::json::Json;

use crate::book::{self, Shape, TenantBook};
use crate::daemon::{self, Daemon, Tail};
use crate::drive::{self, Conn, Phase, Sent, Verdict};
use crate::replay::{self, Traced};
use crate::stats::{median_or_zero, quantile, Report};
use crate::{Args, Outcome};

/// One daemon workload.
pub struct Spec {
    pub shape: Shape,
    /// Fleet workers; 0 runs rapd single-process.
    pub workers: usize,
    /// The `serve` flags the workload sets; everything else is default.
    pub flags: &'static [&'static str],
    /// Frames per tenant sent unpaced before the fixed-rate phase, so the
    /// daemon's warm-up is over when injections start.
    pub prefill_steps: usize,
    /// Fixed offered rate, frames per second over all tenants.
    pub rate: f64,
    /// The fixed-rate phase starts this long after the daemon was spawned,
    /// so its frames meet the daemon's checkpoint ticker at the same
    /// points in every run.
    pub fixed_start_s: f64,
    /// Share of `--seconds` spent at the fixed rate.
    pub fixed_share: f64,
    /// Share of `--seconds` spent unpaced (the saturation phase).
    pub saturation_share: f64,
    /// Frames in flight during saturation: enough that the daemon always
    /// has the next frame buffered, so only its own speed limits the rate.
    pub window: usize,
    /// Traced replay: frames parsed, frames sent over the wire pair.
    pub parse_frames: usize,
    pub wire_frames: usize,
}

/// Book frames per tenant past the fixed phase; saturation cycles them.
const BOOK_EXTRA_STEPS: usize = 16;

pub fn spec(name: &str) -> Option<Spec> {
    // 8×3×3×8 (~400 active leaves, ~21.6 KB per line), 4 tenants, 30
    // frames/s ≈ 12k leaves/s (about half the parent's ceiling once the
    // per-leaf history has grown), a checkpoint + compaction every 3 s
    let steady = Spec {
        shape: Shape {
            tenants: 4,
            dims: [8, 3, 3, 8],
            root_attr: 0,
            warmup: 12,
            inject_every: 8,
            inject_len: 2,
        },
        workers: 0,
        flags: &["--checkpoint-interval-ms", "3000"],
        prefill_steps: 12,
        rate: 30.0,
        fixed_start_s: 1.5,
        fixed_share: 0.6,
        // one to two checkpoint cycles: the rate is printed but carries no
        // bound (METRICS.md)
        saturation_share: 0.3,
        window: 64,
        parse_frames: 200,
        wire_frames: 20,
    };
    match name {
        "steady" => Some(steady),
        // the same frames through two workers, at 5 frames/s ≈ 2k leaves/s:
        // the parent's fleet saturates near 4.4k leaves/s
        "fleet" => Some(Spec {
            workers: 2,
            rate: 5.0,
            fixed_start_s: 7.0,
            saturation_share: 0.2,
            ..steady
        }),
        // the paper's 33×4×4×20 (~7.4k active leaves, ~414 KB per line),
        // one tenant at 0.25 frames/s ≈ 1.9k leaves/s, rooted on the
        // heaviest access type so every injected frame alarms; one
        // checkpoint falls in the fixed-rate phase
        "wide" => Some(Spec {
            shape: Shape {
                tenants: 1,
                dims: [33, 4, 4, 20],
                root_attr: 1,
                warmup: 2,
                inject_every: 2,
                inject_len: 1,
            },
            workers: 0,
            flags: &["--warmup", "2", "--checkpoint-interval-ms", "20000"],
            prefill_steps: 2,
            rate: 0.25,
            fixed_start_s: 8.0,
            fixed_share: 0.8,
            saturation_share: 0.2,
            window: 2,
            parse_frames: 2,
            wire_frames: 1,
        }),
        _ => None,
    }
}

/// The pipeline config and forecast window rapd derives from `flags`.
fn daemon_pipeline(flags: &[&str]) -> Result<(PipelineConfig, usize, u64), String> {
    let argv = std::iter::once("serve").chain(flags.iter().copied());
    let args = rapminer_cli::Args::parse(argv).map_err(|e| e.to_string())?;
    let rapminer_cli::Command::Serve {
        history,
        warmup,
        alarm_threshold,
        leaf_threshold,
        k,
        window,
        localize_deadline_ms,
        intra_frame_threads,
        checkpoint_interval_ms,
        ..
    } = args.command
    else {
        return Err("serve flags did not parse as serve".to_string());
    };
    let config = PipelineConfig {
        history_len: history,
        warmup,
        alarm_threshold,
        leaf_threshold,
        k,
        localize_deadline: (localize_deadline_ms > 0)
            .then(|| Duration::from_millis(localize_deadline_ms)),
        localize_threads: intra_frame_threads,
    };
    Ok((config, window, checkpoint_interval_ms))
}

/// Thread classes for `threads.*.busy_frac`, by `/proc` thread name
/// (names are cut to 15 bytes).
fn thread_class(name: &str) -> Option<&'static str> {
    if name.starts_with("rapd-reader") {
        Some("reader")
    } else if name.starts_with("rapd-shard") {
        Some("shard")
    } else if name.starts_with("rapd-checkpoint") {
        Some("checkpointer")
    } else if name.starts_with("rapd-router") {
        Some("router")
    } else if name.starts_with("rapd-worker") {
        Some("worker")
    } else {
        None
    }
}

type ThreadTicks = HashMap<(u32, String), u64>;

fn thread_ticks(pids: &[u32]) -> ThreadTicks {
    let mut out = HashMap::new();
    for &pid in pids {
        for (i, (name, ticks)) in daemon::threads(pid).into_iter().enumerate() {
            // several threads share a name; key them apart by position
            out.insert((pid, format!("{name}#{i}")), ticks);
        }
    }
    out
}

/// Busiest thread of each class between two snapshots, as a share of
/// one core.
fn busy_fracs(
    before: &ThreadTicks,
    after: &ThreadTicks,
    wall_s: f64,
) -> HashMap<&'static str, f64> {
    let hz = daemon::clock_ticks();
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for (key, &t1) in after {
        let name = key.1.split('#').next().unwrap_or_default();
        let Some(class) = thread_class(name) else {
            continue;
        };
        let t0 = before.get(key).copied().unwrap_or(0);
        let frac = t1.saturating_sub(t0) as f64 / hz / wall_s;
        let e = out.entry(class).or_insert(0.0);
        *e = e.max(frac);
    }
    out
}

fn setup(spec: &Spec, exe: &Path, dir: &Path, books: &[TenantBook]) -> Result<Daemon, String> {
    let flags: Vec<String> = spec.flags.iter().map(|s| (*s).to_string()).collect();
    let d = Daemon::spawn(exe, dir, spec.workers, &flags)?;
    let mut control = d.control()?;
    for b in books {
        let reply = control.request(&b.schema_line)?;
        if !reply.contains(r#""type":"ok""#) {
            return Err(format!("schema for {} refused: {}", b.name, reply.trim()));
        }
    }
    Ok(d)
}

/// Observation state the generator keeps while frames are due.
struct Watch {
    tail: Tail,
    endpoints: Vec<String>,
    sample: bool,
    last_sample: Instant,
    queue_max: f64,
}

impl Watch {
    fn idle(&mut self, epoch: Instant) {
        self.tail.poll(epoch);
        if self.sample && self.last_sample.elapsed() >= Duration::from_millis(50) {
            self.last_sample = Instant::now();
            if let Some(q) = daemon::queue_depth_max(&self.endpoints) {
                self.queue_max = self.queue_max.max(q);
            }
        }
    }
}

/// A flush barrier on a control connection opened for it alone, so the
/// generator never holds more than two connections.
fn barrier(d: &Daemon, watch: &mut Watch, epoch: Instant) -> Result<(), String> {
    let reply = d
        .control()?
        .request_with(r#"{"type":"flush"}"#, || watch.idle(epoch))?;
    if reply.contains(r#""flushed":true"#) {
        Ok(())
    } else {
        Err(format!("flush barrier refused: {}", reply.trim()))
    }
}

pub fn run(spec: &Spec, args: &Args, dir: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = std::fs::canonicalize(exe).map_err(|e| e.to_string())?;
    let (pipeline_config, window, checkpoint_ms) = daemon_pipeline(spec.flags)?;
    let tenants = spec.shape.tenants;
    let fixed_steps = ((args.seconds * spec.fixed_share * spec.rate) as usize / tenants).max(2);
    let fixed_frames = fixed_steps * tenants;
    let prefill = spec.prefill_steps;
    let books = book::build(
        &spec.shape,
        args.seed,
        prefill + fixed_steps + BOOK_EXTRA_STEPS,
        prefill + fixed_steps - 1,
    );

    // set-up: spawn → listener (and every worker) up → schemas registered
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..crate::SETUPS {
        let started = Instant::now();
        let d = setup(spec, &exe, &dir.join(format!("daemon-{i}")), &books)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < crate::SETUPS {
            d.reap()?;
        } else {
            kept = Some(d);
        }
    }
    let d = kept.expect("last set-up kept");
    let before = d.totals()?;
    let epoch = Instant::now();
    let mut watch = Watch {
        tail: Tail::new(&d.spool),
        endpoints: if args.trace {
            d.metrics_endpoints()
        } else {
            Vec::new()
        },
        sample: args.trace,
        last_sample: Instant::now(),
        queue_max: 0.0,
    };
    let mut conn = Conn::open(&d.ingest, epoch)?;
    let sent = |tenant: usize, step: usize, due_ns: u64, phase: Phase| Sent {
        tenant,
        step,
        leaves: books[tenant].rows(step).len() as u32,
        due_ns,
        phase,
    };

    // prefill: the daemon's warm-up frames, unpaced, then a barrier
    for k in 0..prefill * tenants {
        let (tenant, step) = (k % tenants, k / tenants);
        let now = epoch.elapsed().as_nanos() as u64;
        conn.send(
            sent(tenant, step, now, Phase::Prefill),
            &books[tenant].line(step),
            false,
        );
    }
    conn.wait_replies(|| watch.idle(epoch))?;
    barrier(&d, &mut watch, epoch)?;

    // fixed-rate phase, open loop: frame k is due at start + k/rate
    let compactions0 = daemon::metric_sum(&watch.endpoints, "rapd_wal_compactions_total");
    let cpu0 = d.cpu_ticks();
    let aligned = d.spawned + Duration::from_secs_f64(spec.fixed_start_s);
    let start_ns = (aligned.max(Instant::now()) - epoch).as_nanos() as u64 + 1_000_000;
    if Instant::now() > aligned {
        eprintln!("perfbench: prefill ended after the aligned fixed-phase start");
    }
    let interval_ns = 1e9 / spec.rate;
    let mut late_max_ns = 0u64;
    let mut fixed_bytes = 0usize;
    for k in 0..fixed_frames {
        let (tenant, step) = (k % tenants, prefill + k / tenants);
        let line = books[tenant].line(step);
        let due_ns = start_ns + (k as f64 * interval_ns) as u64;
        let late = drive::wait_until(epoch, due_ns, || watch.idle(epoch));
        late_max_ns = late_max_ns.max(late);
        fixed_bytes += line.len();
        conn.send(sent(tenant, step, due_ns, Phase::Fixed), &line, true);
    }
    conn.wait_replies(|| watch.idle(epoch))?;
    barrier(&d, &mut watch, epoch)?;
    let cpu1 = d.cpu_ticks();
    let compactions =
        daemon::metric_sum(&watch.endpoints, "rapd_wal_compactions_total") - compactions0;
    watch.tail.poll(epoch);

    // the peak resident set grows with every checkpoint, whose rendering
    // holds the tenant's whole state, so it is read once a checkpoint
    // begun after the barrier has written every tenant, not at a point
    // that depends on where the last checkpoint fell
    let since = SystemTime::now();
    let give_up = Instant::now() + Duration::from_millis(3 * checkpoint_ms + 30_000);
    let mut checkpointed = true;
    while daemon::checkpoints_since(&d.spool, since) < tenants {
        if Instant::now() > give_up {
            checkpointed = false;
            break;
        }
        watch.idle(epoch);
        std::thread::sleep(Duration::from_millis(5));
    }
    let rss_kib = d.hwm_kib();

    // saturation phase: unpaced for a fixed time, limited only by TCP
    // backpressure and the in-flight window, then timed up to a flush
    // barrier
    let threads0 = thread_ticks(&d.pids());
    let sat_start = Instant::now();
    let sat_for = Duration::from_secs_f64(args.seconds * spec.saturation_share);
    let mut k = 0usize;
    while sat_start.elapsed() < sat_for {
        if conn.sent - conn.replies() >= spec.window as u64 {
            conn.flush();
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let (tenant, step) = (k % tenants, prefill + fixed_steps + k / tenants);
        let now = epoch.elapsed().as_nanos() as u64;
        conn.send(
            sent(tenant, step, now, Phase::Saturation),
            &books[tenant].line(step),
            false,
        );
        k += 1;
        if args.trace && watch.last_sample.elapsed() >= Duration::from_millis(50) {
            watch.idle(epoch);
        }
    }
    conn.wait_replies(|| watch.idle(epoch))?;
    barrier(&d, &mut watch, epoch)?;
    let sat_secs = sat_start.elapsed().as_secs_f64();
    let threads1 = thread_ticks(&d.pids());
    watch.tail.poll(epoch);
    let frames = conn.finish();
    let after = d.totals()?;
    let orphans = d.reap()?;

    // ---- ledger: every frame sent ends processed, on both sides
    let mut problems = Vec::new();
    if !checkpointed {
        problems.push("no checkpoint of every tenant after the fixed-rate phase".to_string());
    }
    let daemon_delta = after.minus(&before);
    let acked = frames
        .iter()
        .filter(|(_, r)| r.verdict == Verdict::Acked)
        .count() as u64;
    let attempted = frames.len() as u64;
    let ledger_ok = daemon_delta.balanced()
        && daemon_delta.ingested == acked
        && daemon_delta.router_shed == 0
        && daemon_delta.processed == daemon_delta.ingested;
    if !ledger_ok {
        problems.push(format!(
            "ledger: client acked {acked} of {attempted}, daemon {daemon_delta:?}"
        ));
    }
    let mut failed = attempted - acked.min(daemon_delta.processed);

    // ---- correctness: incidents against the in-process replay
    let mut tokens: HashMap<(usize, usize), String> = HashMap::new();
    let mut by_token: HashMap<String, usize> = HashMap::new();
    for (i, (s, r)) in frames.iter().enumerate() {
        if let Some(t) = &r.token {
            tokens.insert((s.tenant, s.step), t.clone());
            by_token.insert(t.clone(), i);
        }
    }
    let order: Vec<(usize, usize)> = frames
        .iter()
        .filter(|(_, r)| r.verdict == Verdict::Acked)
        .map(|(s, _)| (s.tenant, s.step))
        .collect();
    let checkpoint_every = ((checkpoint_ms as f64 / 1e3) * spec.rate).round() as usize;
    let mut traced = args.trace.then(|| {
        Traced::new(
            dir.join("replay"),
            spec.parse_frames,
            checkpoint_every,
            spec.wire_frames,
        )
    });
    let replayed = replay::replay(
        &books,
        &order,
        &tokens,
        pipeline_config,
        window,
        traced.as_mut(),
    )?;
    let mut mismatches = 0u64;
    for (token, seen) in &watch.tail.seen {
        let Some(&i) = by_token.get(token) else {
            mismatches += 1;
            problems.push(format!("incident for unknown frame {token}"));
            continue;
        };
        let s = frames[i].0;
        let got = seen
            .record
            .get("raps")
            .map(Json::render)
            .unwrap_or_default();
        match replayed.get(&(s.tenant, s.step)) {
            Some(want) if *want == got => {}
            Some(want) => {
                mismatches += 1;
                problems.push(format!("frame {token}: daemon raps {got} != replay {want}"));
            }
            None => {
                mismatches += 1;
                problems.push(format!("frame {token}: daemon alarmed, replay did not"));
            }
        }
    }
    for key in replayed.keys() {
        let seen = tokens
            .get(key)
            .is_some_and(|t| watch.tail.seen.contains_key(t));
        if !seen {
            mismatches += 1;
            problems.push(format!("replay alarmed on {key:?}, daemon did not"));
        }
    }
    if watch.tail.unreadable > 0 {
        problems.push(format!("{} unreadable spool lines", watch.tail.unreadable));
    }
    let duplicates: HashSet<&String> = watch.tail.duplicates.iter().collect();
    if !duplicates.is_empty() {
        problems.push(format!("{} duplicate incident tokens", duplicates.len()));
    }
    failed += mismatches + duplicates.len() as u64;
    if problems.len() > 20 {
        let n = problems.len();
        problems.truncate(20);
        problems.push(format!("... {} more", n - 20));
    }

    // ---- end-to-end metrics (fixed-rate phase unless stated)
    let mut report = Report::default();
    let setup_s = quantile(&setups, 0.5).unwrap_or(f64::NAN);
    report.add("setup_s", setup_s, "s", setups.len());
    // every saturation frame was processed (or the ledger failed the run)
    let saturation: Vec<_> = frames
        .iter()
        .filter(|(s, _)| s.phase == Phase::Saturation)
        .collect();
    let sat_leaves: u64 = saturation.iter().map(|(s, _)| u64::from(s.leaves)).sum();
    report.add(
        "max_leaves_per_s",
        sat_leaves as f64 / sat_secs,
        "leaves/s",
        saturation.len(),
    );
    let fixed: Vec<_> = frames
        .iter()
        .filter(|(s, _)| s.phase == Phase::Fixed)
        .collect();
    let ack_ms: Vec<f64> = fixed
        .iter()
        .map(|(s, r)| {
            if r.verdict == Verdict::Acked {
                (r.at_ns.saturating_sub(s.due_ns)) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    report.add_timing("ack_ms", &ack_ms, "ms", &[0.9, 0.99]);
    let mut incident_ms = Vec::new();
    let (mut injected, mut found) = (0usize, 0usize);
    for (s, r) in &fixed {
        if !books[s.tenant].anomalous(s.step) {
            continue;
        }
        injected += 1;
        let incident = r.token.as_ref().and_then(|t| watch.tail.seen.get(t));
        match (r.verdict == Verdict::Acked, incident) {
            (false, _) => incident_ms.push(f64::INFINITY),
            (true, Some(seen)) => {
                incident_ms.push(seen.at_ns.saturating_sub(s.due_ns) as f64 / 1e6);
                let root = &books[s.tenant].root;
                let hit = seen
                    .record
                    .get("raps")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .any(|rap| rap.as_arr().and_then(|p| p.first()?.as_str()) == Some(root));
                found += usize::from(hit);
            }
            (true, None) => {}
        }
    }
    // the daemon's own localization time, over every incident of the run
    let localize_ms: Vec<f64> = watch
        .tail
        .seen
        .values()
        .filter_map(|seen| {
            let timings = seen.record.get("timings")?;
            Some(timings.get("localize_seconds")?.as_f64()? * 1e3)
        })
        .collect();
    report.add_timing("incident_ms", &incident_ms, "ms", &[0.9]);
    report.add_timing("localize_ms", &localize_ms, "ms", &[0.9]);
    let fixed_leaves: u64 = fixed
        .iter()
        .filter(|(_, r)| r.verdict == Verdict::Acked)
        .map(|(s, _)| u64::from(s.leaves))
        .sum();
    let cpu_ms = (cpu1 - cpu0) as f64 / daemon::clock_ticks() * 1e3;
    report.add(
        "cpu_ms_per_kleaf",
        cpu_ms / (fixed_leaves as f64 / 1e3),
        "ms",
        fixed.len(),
    );
    report.add("rss_mb", rss_kib as f64 / 1024.0, "MiB", 1);
    report.add(
        "rap_recall",
        found as f64 / injected.max(1) as f64,
        "ratio",
        injected,
    );
    report.add(
        "offered_leaves_per_s",
        fixed_leaves as f64 / (fixed_frames as f64 / spec.rate),
        "leaves/s",
        fixed.len(),
    );
    report.add(
        "offered_bytes_per_frame",
        fixed_bytes as f64 / fixed_frames as f64,
        "B",
        fixed.len(),
    );
    report.add(
        "loadgen.late_ms.max",
        late_max_ns as f64 / 1e6,
        "ms",
        fixed.len(),
    );

    // ---- per-layer metrics (traced run)
    if let Some(t) = traced {
        let us = |name: &str| median_or_zero(&t.tracer.self_times(name)) / 1e3;
        let parse_ns: f64 = t.tracer.self_times("proto.parse").iter().sum();
        let n = |name: &str| t.tracer.self_times(name).len();
        report.add("proto.parse.us", us("proto.parse"), "us", n("proto.parse"));
        report.add(
            "proto.parse.ns_per_byte",
            parse_ns / t.parsed_bytes.max(1) as f64,
            "ns/B",
            n("proto.parse"),
        );
        report.add(
            "proto.build_frame.us",
            us("proto.build_frame"),
            "us",
            n("proto.build_frame"),
        );
        let holds: Vec<f64> = fixed.iter().filter_map(|(_, r)| r.ack_us).collect();
        report.add(
            "server.ack_hold_us.p50",
            median_or_zero(&holds),
            "us",
            holds.len(),
        );
        report.add(
            "server.ack_hold_us.p99",
            quantile(&holds, 0.99).unwrap_or(0.0),
            "us",
            holds.len(),
        );
        report.add("wal.append.us", us("wal.append"), "us", n("wal.append"));
        report.add(
            "wal.bytes_per_leaf",
            t.wal_bytes as f64 / t.wal_leaves.max(1) as f64,
            "B",
            n("wal.append"),
        );
        report.add(
            "wal.compact.ms",
            us("wal.compact") / 1e3,
            "ms",
            n("wal.compact"),
        );
        report.add(
            "checkpoint.write.ms",
            us("checkpoint.write") / 1e3,
            "ms",
            n("checkpoint.write"),
        );
        let per_leaf: Vec<f64> = t
            .checkpoint_bytes
            .iter()
            .zip(&t.checkpoint_leaves)
            .map(|(b, l)| b / l.max(1.0))
            .collect();
        report.add(
            "checkpoint.bytes_per_leaf",
            median_or_zero(&per_leaf),
            "B",
            per_leaf.len(),
        );
        report.add("shard.queue_depth.max", watch.queue_max, "frames", 1);
        report.add("daemon.wal_compactions.fixed", compactions, "count", 1);
        let busy = busy_fracs(&threads0, &threads1, sat_secs);
        for class in ["reader", "shard", "checkpointer", "router", "worker"] {
            report.add(
                &format!("threads.{class}.busy_frac"),
                busy.get(class).copied().unwrap_or(0.0),
                "ratio",
                1,
            );
        }
        report.add(
            "pipeline.observe.us",
            us("pipeline.observe"),
            "us",
            n("pipeline.observe"),
        );
        report.add(
            "pipeline.alarm.ms",
            us("pipeline.alarm") / 1e3,
            "ms",
            n("pipeline.alarm"),
        );
        report.add(
            "pipeline.alarm_frac",
            t.alarms as f64 / t.observed.max(1) as f64,
            "ratio",
            t.observed,
        );
        report.add(
            "rapminer.cp.ms",
            median_or_zero(&t.cp_ms),
            "ms",
            t.cp_ms.len(),
        );
        report.add(
            "rapminer.search.ms",
            median_or_zero(&t.search_ms),
            "ms",
            t.search_ms.len(),
        );
        report.add(
            "rapminer.combos_visited",
            median_or_zero(&t.combos),
            "count",
            t.combos.len(),
        );
        report.add("sink.record.us", us("sink.record"), "us", n("sink.record"));
        report.add(
            "wire.envelope.us",
            us("wire.envelope"),
            "us",
            n("wire.envelope"),
        );
        report.add(
            "wire.roundtrip_us.p50",
            median_or_zero(&t.wire_roundtrip_us),
            "us",
            t.wire_roundtrip_us.len(),
        );
        report.add("obs.span.ns", replay::obs_span_ns(), "ns", 1);
        let out = crate::out_dir();
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        t.tracer.write(&path).map_err(|e| e.to_string())?;
        println!("spans written to {}", path.display());
    }
    if !daemon::wait_gone(&orphans, Duration::from_secs(10)) {
        eprintln!("perfbench: killed workers {orphans:?} not yet reaped by init");
    }
    Ok(Outcome {
        report,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
    })
}
