//! perfbench: the end-to-end and per-layer benchmark of rapd and the
//! RAPMiner localization core.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads, metric definitions and the per-layer → end-to-end map are in
//! `perfbench/METRICS.md`. The last stdout line is the result object;
//! every metric is printed above it with its unit and sample count. The
//! process exits non-zero when a correctness check fails.
//!
//! The same binary is the daemon under test: `perfbench serve ...` runs
//! the repository's `rapminer serve` code, so fleet workers (spawned from
//! the current executable) are rapd too.

mod book;
mod daemon;
mod drive;
mod localize;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use service::json::Json;

/// The end-to-end metrics of the result line, in `BENCHMARK.json` order.
/// Every run also prints `max_leaves_per_s` and `cpu_ms_per_kleaf`; they
/// are left out of the result line because on `steady` they follow the
/// JSON parser's speed, which moves by half between host load levels
/// (`METRICS.md`).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "ack_ms.p50",
    "incident_ms.p50",
    "localize_ms.p50",
    "rss_mb",
    "rap_recall",
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_ms.max", "ms"),
    ("proto.parse.us", "us"),
    ("proto.parse.ns_per_byte", "ns/B"),
    ("proto.build_frame.us", "us"),
    ("server.ack_hold_us.p50", "us"),
    ("server.ack_hold_us.p99", "us"),
    ("wal.append.us", "us"),
    ("wal.bytes_per_leaf", "B"),
    ("wal.compact.ms", "ms"),
    ("checkpoint.write.ms", "ms"),
    ("checkpoint.bytes_per_leaf", "B"),
    ("shard.queue_depth.max", "frames"),
    ("threads.reader.busy_frac", "ratio"),
    ("threads.shard.busy_frac", "ratio"),
    ("threads.checkpointer.busy_frac", "ratio"),
    ("threads.router.busy_frac", "ratio"),
    ("threads.worker.busy_frac", "ratio"),
    ("pipeline.observe.us", "us"),
    ("pipeline.alarm.ms", "ms"),
    ("pipeline.alarm_frac", "ratio"),
    ("rapminer.cp.ms", "ms"),
    ("rapminer.search.ms", "ms"),
    ("rapminer.combos_visited", "count"),
    ("sink.record.us", "us"),
    ("wire.envelope.us", "us"),
    ("wire.roundtrip_us.p50", "us"),
    ("obs.span.ns", "ns"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one run concluded.
pub struct Outcome {
    pub report: stats::Report,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

/// The benchmark's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Where traced runs leave their span logs, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench").join("out")
}

/// Working files of one run, inside the checkout.
pub fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench").join("work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// Untraced runs keep their end-to-end values; a traced run of the same
/// workload and seed prints its own minus those: the tracing overhead.
fn report_overhead(args: &Args, report: &stats::Report) {
    let path = out_dir().join(format!("e2e-{}-{}.json", args.workload, args.seed));
    if !args.trace {
        let _ = std::fs::create_dir_all(out_dir());
        let _ = std::fs::write(&path, report.json(END_TO_END).render());
        return;
    }
    let Some(untraced) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| service::json::parse(&t).ok())
    else {
        println!("  trace_overhead: no untraced run of this workload and seed to compare");
        return;
    };
    for name in END_TO_END {
        let before = untraced
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        if let (Some(before), Some(now)) = (before, report.get(name)) {
            println!(
                "  trace_overhead.{name:<22} {:>+14.4} {}",
                now.value - before,
                now.unit
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        // the daemon under test: exactly `rapminer serve`
        let args = match rapminer_cli::Args::parse(argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let mut stdout = std::io::stdout().lock();
        return match rapminer_cli::run(&args, &mut stdout) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir(&args);
    let result = match args.workload.as_str() {
        "localize" => localize::run(&args, &dir),
        name => match workload::spec(name) {
            Some(spec) => workload::run(&spec, &args, &dir),
            None => Err(format!(
                "unknown workload {name:?} (steady, fleet, wide, localize)"
            )),
        },
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        // a layer the workload bypasses did no work
        for &(name, unit) in PER_LAYER {
            if outcome.report.get(name).is_none() {
                outcome.report.add(name, 0.0, unit, 0);
            }
        }
    }
    outcome.report.print(&format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    println!(
        "  failed_frac = {}/{} = {:.6}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for p in &outcome.problems {
        println!("  correctness: {p}");
    }
    report_overhead(&args, &outcome.report);
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), outcome.report.json(&names)),
    ]);
    println!("{}", line.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
