//! The ingest-throughput benchmark and regression gate behind
//! `BENCH_throughput.json`.
//!
//! Spawns real `rapminer serve` daemons (single-process and `--workers
//! 2/4` fleets), drives each over TCP with the open-loop `loadgen`
//! runner, and:
//!
//! 1. measures **sustained leaves/second** in saturation mode (rate 0:
//!    the sender is closed only by TCP backpressure), interleaved with a
//!    calibration kernel so the gate number is host-independent;
//! 2. re-runs each daemon config **paced** at half its measured ceiling
//!    to record honest ack-latency quantiles (p50/p90/p99/p999, measured
//!    from the open-loop schedule, coordination-omission corrected) and
//!    full accounting reconciliation;
//! 3. writes a machine-readable `BENCH_throughput.json` record (commit,
//!    date, cores, per-config sustained rates, quantiles, accounting);
//! 4. compares the calibration-normalized single-process throughput
//!    against `results/BENCH_throughput.baseline.json` and exits
//!    non-zero on a >20 % regression — exactly how `bench_localize`
//!    gates the search path.
//!
//! The calibration kernel scans the frame book's own observe lines — the
//! bytes the daemon ingests — but runs none of the daemon's code: it
//! splits each line at JSON punctuation and FNV-1a hashes the tokens into
//! a fixed counting table. `sustained / calibrate` thus cancels host
//! speed while any ingest-path change, faster or slower, moves only the
//! numerator. Saturation and calibration trials are interleaved and the
//! gate uses the **median of per-pair ratios**, so sustained host drift
//! cancels pairwise.
//!
//! Usage: `bench_throughput [--write-baseline] [--quick]`
//!   --write-baseline  rewrite `results/BENCH_throughput.baseline.json`
//!   --quick           gate config only (skip the fleet sweeps)

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use loadgen::{run, FrameBook, LoadConfig};
use service::json::{parse, Json};

const BASELINE_PATH: &str = "results/BENCH_throughput.baseline.json";
const OUTPUT_PATH: &str = "BENCH_throughput.json";
/// Normalized sustained-throughput regression budget (fractional drop).
const REGRESSION_BUDGET: f64 = 0.20;
/// Interleaved (calibrate, saturate) pairs for the gate config: the
/// single-thread kernel's speed on a shared VM moves by up to a quarter
/// between runs, and the median of five ratios stays put unless three move.
const TRIALS: usize = 5;
/// Saturation run length per trial, seconds.
const SAT_SECS: f64 = 2.0;
/// Paced-run length, seconds, at `PACED_FRACTION` of the ceiling.
const PACED_SECS: f64 = 2.5;
const PACED_FRACTION: f64 = 0.5;
/// Worker counts to sweep; 0 is the single-process daemon and the gate.
const WORKER_CONFIGS: &[usize] = &[0, 2, 4];
const GATE_WORKERS: usize = 0;
/// How long a dropped daemon gets to drain before it is killed.
const DRAIN_WAIT: Duration = Duration::from_secs(10);
/// The ROADMAP's north-star rate; configs below it record their ceiling.
const MILLION: f64 = 1_000_000.0;

/// Locate `rapminer` next to this binary (`target/<profile>/`), falling
/// back one level up for test layouts (`target/<profile>/deps/`).
fn rapminer_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("bench exe path");
    path.pop();
    let sibling = path.join("rapminer");
    if sibling.exists() {
        return sibling;
    }
    path.pop();
    path.join("rapminer")
}

/// One spawned daemon (single or fleet) plus its ingest address; drained
/// (killed if the drain stalls) on drop, spool removed.
struct Daemon {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl Daemon {
    fn spawn(workers: usize, tag: &str) -> Daemon {
        let spool = std::env::temp_dir().join(format!(
            "rapd-bench-{}-{tag}-w{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).expect("create spool dir");
        let mut child = Command::new(rapminer_bin())
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--metrics-listen", "127.0.0.1:0"])
            .args(["--shards", "1", "--queue", "4096"])
            .args(["--history", "60", "--warmup", "15"])
            .args([
                "--alarm-threshold",
                "0.08",
                "--leaf-threshold",
                "0.3",
                "--k",
                "3",
            ])
            .args(["--workers", &workers.to_string()])
            .args(["--request-deadline-ms", "15000"])
            .args(["--spool", spool.to_str().expect("utf8 spool path")])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("rapd spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read rapd stdout");
            assert!(n > 0, "rapd exited before announcing its listener");
            if let Some(rest) = line.strip_prefix("rapd listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("listener address")
                    .to_string();
            }
        };
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| {
                sink.clear();
                n > 0
            }) {}
        });
        Daemon { child, addr, spool }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A fleet's workers are processes of their own that outlive a
        // killed router, so ask for the drain that stops them all first.
        if let Ok(mut conn) = TcpStream::connect(&self.addr) {
            let _ = conn.set_read_timeout(Some(DRAIN_WAIT));
            let _ = conn.write_all(b"{\"type\":\"shutdown\"}\n");
            let _ = BufReader::new(conn).read_line(&mut String::new());
        }
        let until = Instant::now() + DRAIN_WAIT;
        while Instant::now() < until && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// Passes over the book per calibration run, so one run lasts long
/// enough (a quarter second on a 2-vCPU VM) to time steadily.
const CALIBRATE_PASSES: u64 = 20;

/// One calibration run: tokenize every observe line of the book at JSON
/// punctuation and count FNV-1a token hashes in a fixed table, using no
/// daemon code. Returns book leaves scanned per second.
fn calibrate_once(book: &FrameBook) -> f64 {
    let mut counts = vec![0u32; 4096];
    let start = Instant::now();
    for _ in 0..CALIBRATE_PASSES {
        for tenant in &book.tenants {
            for line in &tenant.lines {
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for &b in std::hint::black_box(line.as_bytes()) {
                    if matches!(b, b'"' | b',' | b':' | b'[' | b']' | b'{' | b'}') {
                        counts[(hash % 4096) as usize] += 1;
                        hash = 0xcbf2_9ce4_8422_2325;
                    } else {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
    }
    std::hint::black_box(&counts);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (CALIBRATE_PASSES * book.leaves_per_cycle()) as f64 / secs
}

/// The shared load shape: bench defaults, pointed at `addr`.
fn load_config(addr: &str) -> LoadConfig {
    LoadConfig {
        addr: addr.to_string(),
        connections: 2,
        ..LoadConfig::default()
    }
}

/// One saturation run; returns sustained acked leaves/second.
fn saturate_once(book: &FrameBook, workers: usize, tag: &str) -> (f64, Json) {
    let daemon = Daemon::spawn(workers, tag);
    let config = LoadConfig {
        rate: 0.0,
        total_frames: 0,
        duration_secs: SAT_SECS,
        ..load_config(&daemon.addr)
    };
    let summary = run(&config, book).expect("saturation run completes");
    let sustained = summary
        .get("timing")
        .and_then(|t| t.get("sustained_leaves_per_sec"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    (sustained, summary)
}

/// One paced run at `fraction` of the measured ceiling; returns the
/// full summary (quantiles + accounting).
fn paced_once(book: &FrameBook, workers: usize, ceiling_leaves: f64, tag: &str) -> Json {
    let daemon = Daemon::spawn(workers, tag);
    let lpf = book.avg_leaves_per_frame().max(1.0);
    let rate = (ceiling_leaves * PACED_FRACTION / lpf).max(20.0);
    let config = LoadConfig {
        rate,
        total_frames: (rate * PACED_SECS) as u64,
        ..load_config(&daemon.addr)
    };
    run(&config, book).expect("paced run completes")
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

fn reconciled(summary: &Json) -> bool {
    summary
        .get("accounting")
        .and_then(|a| a.get("client_reconciled"))
        .and_then(Json::as_bool)
        == Some(true)
        && summary
            .get("daemon")
            .and_then(|d| d.get("reconciled"))
            .and_then(Json::as_bool)
            == Some(true)
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Days since the Unix epoch rendered as an ISO date (proleptic civil
/// calendar; no external time crate).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days
    days += 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() {
    let mut write_baseline = false;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--quick" => quick = true,
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(
        rapminer_bin().exists(),
        "rapminer binary not found next to bench_throughput — build the workspace first"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let book = FrameBook::build(&LoadConfig::default().synth);
    println!(
        "frame book: {} tenants x {} steps, {:.0} leaves/frame avg, host cores: {cores}",
        book.tenants.len(),
        book.tenants[0].lines.len(),
        book.avg_leaves_per_frame()
    );

    // gate config: interleaved (calibrate, saturate) pairs
    let mut cal_rates = Vec::with_capacity(TRIALS);
    let mut gate_rates = Vec::with_capacity(TRIALS);
    let mut ratios = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let cal = calibrate_once(&book).max(1.0);
        let (sat, _) = saturate_once(&book, GATE_WORKERS, &format!("gate{trial}"));
        println!(
            "trial {trial}: calibrate {:.0} leaves/s, saturate {:.0} leaves/s, ratio {:.4}",
            cal,
            sat,
            sat / cal
        );
        cal_rates.push(cal);
        gate_rates.push(sat);
        ratios.push(sat / cal);
    }
    let calibrate = median_f64(cal_rates);
    let normalized = median_f64(ratios);

    // per-config sweep: ceiling + paced quantiles
    let sweep: Vec<usize> = if quick {
        vec![GATE_WORKERS]
    } else {
        WORKER_CONFIGS.to_vec()
    };
    let mut all_reconciled = true;
    let mut configs = Vec::new();
    for &workers in &sweep {
        let sustained = if workers == GATE_WORKERS {
            median_f64(gate_rates.clone())
        } else {
            let (sat, _) = saturate_once(&book, workers, "sweep");
            sat
        };
        let paced = paced_once(&book, workers, sustained, "paced");
        let ok = reconciled(&paced);
        all_reconciled &= ok;
        let label = if workers == 0 {
            "single".to_string()
        } else {
            format!("fleet-{workers}")
        };
        println!(
            "{label}: sustained {:.0} leaves/s ({}), paced accounting {}",
            sustained,
            if sustained >= MILLION {
                "meets 1M/s".to_string()
            } else {
                format!(
                    "ceiling documented, {:.1} % of 1M/s",
                    100.0 * sustained / MILLION
                )
            },
            if ok { "reconciled" } else { "MISMATCH" },
        );
        let mut entry = vec![
            ("workers".to_string(), Json::Num(workers as f64)),
            (
                "sustained_leaves_per_sec".to_string(),
                Json::Num(sustained.round()),
            ),
            (
                "meets_million_per_sec".to_string(),
                Json::Bool(sustained >= MILLION),
            ),
            ("reconciled".to_string(), Json::Bool(ok)),
        ];
        for key in ["config", "accounting", "daemon", "timing"] {
            if let Some(v) = paced.get(key) {
                entry.push((format!("paced_{key}"), v.clone()));
            }
        }
        configs.push(Json::Obj(entry));
    }

    let record = Json::Obj(vec![
        ("bench".to_string(), Json::str("throughput")),
        ("commit".to_string(), Json::str(commit())),
        ("date".to_string(), Json::str(today_utc())),
        ("cores".to_string(), Json::Num(cores as f64)),
        ("trials".to_string(), Json::Num(TRIALS as f64)),
        (
            "calibrate_leaves_per_sec".to_string(),
            Json::Num(calibrate.round()),
        ),
        ("gate_workers".to_string(), Json::Num(GATE_WORKERS as f64)),
        ("normalized".to_string(), Json::Num(normalized)),
        ("configs".to_string(), Json::Arr(configs)),
    ]);
    let text = format!("{}\n", record.render());
    std::fs::write(OUTPUT_PATH, &text).expect("write BENCH_throughput.json");
    println!("wrote {OUTPUT_PATH} (normalized {normalized:.4})");
    if write_baseline {
        std::fs::write(BASELINE_PATH, &text).expect("write baseline");
        println!("wrote {BASELINE_PATH}");
        return;
    }

    let mut failed = false;
    if !all_reconciled {
        eprintln!("FAIL: a paced run's accounting did not reconcile (see {OUTPUT_PATH})");
        failed = true;
    }
    match std::fs::read_to_string(BASELINE_PATH) {
        Ok(base) => {
            let there = parse(base.trim())
                .ok()
                .and_then(|doc| doc.get("normalized").and_then(Json::as_f64));
            match there {
                Some(there) if there > 0.0 => {
                    let drop = 1.0 - normalized / there;
                    println!(
                        "throughput regression check: normalized {normalized:.4} vs baseline {there:.4} ({:+.1} %)",
                        -drop * 100.0
                    );
                    if drop > REGRESSION_BUDGET {
                        eprintln!(
                            "FAIL: sustained throughput dropped {:.1} % > {:.0} % budget",
                            drop * 100.0,
                            REGRESSION_BUDGET * 100.0
                        );
                        failed = true;
                    }
                }
                _ => {
                    eprintln!("FAIL: baseline {BASELINE_PATH} is malformed");
                    failed = true;
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: no baseline at {BASELINE_PATH} ({e}); run with --write-baseline");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench_throughput: all gates passed");
}
