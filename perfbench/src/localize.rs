//! The `localize` workload: a seeded batch of labelled 33×4×4×80 cases,
//! written to disk as CSV, read back at set-up, and localized one after
//! another through the public `rapminer` API at its default thread count.

use std::path::Path;
use std::time::Instant;

use rapminer::RapMiner;

use crate::book;
use crate::daemon;
use crate::stats::{median_or_zero, quantile, Report, Tracer};
use crate::{Args, Outcome};

/// Distinct cases per seed; the batch cycles over them.
const CASES: usize = 6;
/// Websites per case, in units of the paper's 20.
const SCALE: usize = 4;
/// Root anomaly patterns asked for per case.
const K: usize = 3;

fn self_ticks() -> u64 {
    daemon::cpu_ticks(std::process::id())
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let cases_dir = dir.join("cases");
    std::fs::create_dir_all(&cases_dir).map_err(|e| e.to_string())?;
    let mut planted = Vec::new();
    for i in 0..CASES {
        let c = book::case(args.seed.wrapping_mul(0x100) + i as u64, SCALE);
        let f = std::fs::File::create(cases_dir.join(format!("case-{i}.csv")))
            .map_err(|e| e.to_string())?;
        mdkpi::write_frame_csv(&c.frame, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
        planted.push(c.planted);
    }

    // set-up: build the localizer and load the case set from its on-disk
    // form (read and decode every case); the first one runs here, the
    // others at even points through the batch, so their median covers the
    // whole run rather than its first seconds
    let set_up = || -> Result<(RapMiner, Vec<mdkpi::LeafFrame>, f64), String> {
        let started = Instant::now();
        let m = RapMiner::new();
        let frames: Vec<mdkpi::LeafFrame> = (0..CASES)
            .map(|i| {
                let f = std::fs::File::open(cases_dir.join(format!("case-{i}.csv")))
                    .map_err(|e| e.to_string())?;
                mdkpi::read_frame_csv(std::io::BufReader::new(f)).map_err(|e| e.to_string())
            })
            .collect::<Result<_, String>>()?;
        Ok((m, frames, started.elapsed().as_secs_f64()))
    };
    let (mut miner, mut loaded, first) = set_up()?;
    let mut setups = vec![first];

    // the batch, one case after another: the attribute-deletion outcome
    // (`analyze`) is the localizer's first answer, then the full
    // localization ranks the RAPs
    let mut tracer = args.trace.then(Tracer::new);
    let mut ack_ms = Vec::new();
    let mut localize_ms = Vec::new();
    let mut total_ms = Vec::new();
    let (mut search_ms, mut combos) = (Vec::new(), Vec::new());
    let mut results: Vec<Option<Vec<String>>> = vec![None; CASES];
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    let (mut planted_total, mut found) = (0usize, 0usize);
    let mut leaves = 0u64;
    let cpu0 = self_ticks();
    let batch = Instant::now();
    // set-up time and CPU inside the batch, taken out of its rates
    let (mut setup_s, mut setup_ticks) = (0.0, 0u64);
    let mut n = 0usize;
    while batch.elapsed().as_secs_f64() < args.seconds {
        let due = setups.len() as f64 * args.seconds / crate::SETUPS as f64;
        if setups.len() < crate::SETUPS && batch.elapsed().as_secs_f64() >= due {
            // one case set resident at a time, so the peak is one set's
            drop(std::mem::take(&mut loaded));
            let ticks = self_ticks();
            let (m, frames, took) = set_up()?;
            setup_ticks += self_ticks() - ticks;
            setup_s += took;
            setups.push(took);
            (miner, loaded) = (m, frames);
        }
        let i = n % CASES;
        n += 1;
        attempted += 1;
        let frame = &loaded[i];
        let fid = n as u64;
        let started = Instant::now();
        let analyzed = match tracer.as_mut() {
            Some(t) => t.time("rapminer.analyze", fid, || miner.analyze(frame)),
            None => miner.analyze(frame),
        };
        let acked = started.elapsed();
        let raps = match tracer.as_mut() {
            Some(t) => t
                .time("rapminer.localize", fid, || miner.localize_traced(frame, K))
                .map(|(raps, trace)| {
                    search_ms.push(trace.search_seconds * 1e3);
                    combos.push(trace.stats.combos_visited as f64);
                    raps
                }),
            None => miner.localize(frame, K),
        };
        let done = started.elapsed();
        let (Ok(_), Ok(raps)) = (analyzed, raps) else {
            failed += 1;
            for v in [&mut ack_ms, &mut localize_ms, &mut total_ms] {
                v.push(f64::INFINITY);
            }
            continue;
        };
        leaves += frame.num_rows() as u64;
        ack_ms.push(acked.as_secs_f64() * 1e3);
        localize_ms.push((done - acked).as_secs_f64() * 1e3);
        total_ms.push(done.as_secs_f64() * 1e3);
        let names: Vec<String> = raps.iter().map(|r| r.combination.to_string()).collect();
        planted_total += planted[i].len();
        found += planted[i].iter().filter(|p| names.contains(p)).count();
        // a case localizes to the same ranking every time
        match &results[i] {
            Some(first) if *first != names => {
                mismatched += 1;
                failed += 1;
            }
            Some(_) => {}
            None => results[i] = Some(names),
        }
    }
    let batch_s = batch.elapsed().as_secs_f64() - setup_s;
    let cpu_ms = (self_ticks() - cpu0 - setup_ticks) as f64 / daemon::clock_ticks() * 1e3;

    let mut report = Report::default();
    report.add(
        "setup_s",
        quantile(&setups, 0.5).unwrap_or(f64::NAN),
        "s",
        setups.len(),
    );
    report.add("max_leaves_per_s", leaves as f64 / batch_s, "leaves/s", n);
    report.add_timing("ack_ms", &ack_ms, "ms", &[0.9, 0.99]);
    report.add_timing("incident_ms", &total_ms, "ms", &[0.9]);
    report.add_timing("localize_ms", &localize_ms, "ms", &[0.9]);
    report.add("cpu_ms_per_kleaf", cpu_ms / (leaves as f64 / 1e3), "ms", n);
    report.add(
        "rss_mb",
        daemon::hwm_kib(std::process::id()) as f64 / 1024.0,
        "MiB",
        1,
    );
    report.add(
        "rap_recall",
        found as f64 / planted_total.max(1) as f64,
        "ratio",
        planted_total,
    );
    report.add("loadgen.late_ms.max", 0.0, "ms", n);
    if let Some(t) = tracer {
        let analyze = t.self_times("rapminer.analyze");
        report.add(
            "rapminer.cp.ms",
            median_or_zero(&analyze) / 1e6,
            "ms",
            analyze.len(),
        );
        report.add(
            "rapminer.search.ms",
            median_or_zero(&search_ms),
            "ms",
            search_ms.len(),
        );
        report.add(
            "rapminer.combos_visited",
            median_or_zero(&combos),
            "count",
            combos.len(),
        );
        report.add("obs.span.ns", crate::replay::obs_span_ns(), "ns", 1);
        let out = crate::out_dir();
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        t.write(&path).map_err(|e| e.to_string())?;
        println!("spans written to {}", path.display());
    }
    let mut problems = Vec::new();
    if mismatched > 0 {
        problems.push(format!("{mismatched} repeated cases ranked differently"));
    }
    if failed > mismatched {
        problems.push(format!(
            "{} cases failed to load or localize",
            failed - mismatched
        ));
    }
    Ok(Outcome {
        report,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
    })
}
