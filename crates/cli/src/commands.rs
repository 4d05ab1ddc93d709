use std::fmt;
use std::path::Path;

use baselines::{all_localizers, Localizer, RapMinerLocalizer};
use datasets::{
    load_dataset, save_dataset, RapmdConfig, RapmdGenerator, SqueezeGenConfig, SqueezeGenerator,
};
use eval::{evaluate_f1, evaluate_rc, Table};
use mdkpi::read_frame_csv;
use rapminer::Config;

use crate::args::{Args, Command, USAGE};

/// CLI-level error: every failure path maps to a user-facing message plus
/// a process exit code.
#[derive(Debug)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<mdkpi::Error> for CliError {
    fn from(e: mdkpi::Error) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<baselines::Error> for CliError {
    fn from(e: baselines::Error) -> Self {
        CliError::new(e.to_string())
    }
}

/// Execute a parsed command, writing human-readable output into `out`.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure
/// (unknown method, unreadable file, …).
pub fn run(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    match &args.command {
        Command::Help => {
            write!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        Command::Methods => {
            for m in all_localizers() {
                writeln!(out, "{}", m.name()).map_err(io_err)?;
            }
            Ok(())
        }
        Command::Generate {
            dataset,
            out: dir,
            failures,
            cases_per_group,
            seed,
        } => generate(dataset, dir, *failures, *cases_per_group, *seed, out),
        Command::Localize {
            input,
            method,
            k,
            t_cp,
            t_conf,
            detect_threshold,
            explain,
            stats,
            threads,
        } => localize(
            input,
            method,
            *k,
            *t_cp,
            *t_conf,
            *detect_threshold,
            *explain,
            *stats,
            *threads,
            out,
        ),
        Command::Evaluate {
            dir,
            protocol,
            ks,
            method,
        } => evaluate(dir, protocol, ks, method.as_deref(), out),
        Command::Simulate {
            steps,
            failure_at,
            seed,
            rap,
        } => simulate(*steps, *failure_at, *seed, rap.as_deref(), out),
        Command::Detect {
            steps,
            warmup,
            injections,
            duration,
            seed,
            threshold,
            seasonal_period,
            min_recall,
            max_false_triggers,
        } => detect(
            DetectArgs {
                steps: *steps,
                warmup: *warmup,
                injections: *injections,
                duration: *duration,
                seed: *seed,
                threshold: *threshold,
                seasonal_period: *seasonal_period,
                min_recall: *min_recall,
                max_false_triggers: *max_false_triggers,
            },
            out,
        ),
        Command::Serve {
            workers,
            worker_index,
            ..
        } => {
            if let Some(index) = worker_index {
                // fleet worker: spawned by the router's supervisor, speaks
                // the versioned wire protocol on its own port
                serve_worker(&args.command, *index)
            } else if *workers > 0 {
                // fleet router: front door + supervised worker processes
                serve_router(&args.command, out)
            } else {
                // single-process daemon: serve until a `shutdown` control
                // verb drains us (or the process is killed), then flush,
                // checkpoint, and exit
                let handle = serve_start(&args.command, out)?;
                let clean = handle.wait_for_drain();
                handle.shutdown();
                writeln!(out, "rapd drained; exiting").map_err(io_err)?;
                if clean {
                    Ok(())
                } else {
                    Err(CliError::new(
                        "drain exceeded the shutdown deadline; drained tenants were \
                         checkpointed but some frames were still queued",
                    ))
                }
            }
        }
        Command::Loadgen(config) => loadgen_cmd(config, out),
        Command::Debug { addr, tenant } => debug(addr, tenant.as_deref(), out),
        Command::Stats { addr } => stats(addr, out),
        Command::Shutdown { addr } => shutdown(addr, out),
    }
}

/// The `loadgen` subcommand: synthesize the seeded frame book, drive the
/// daemon at `--addr` open-loop, and print the one-line summary JSON
/// (accounting, daemon deltas, latency quantiles). Fails when the run
/// errors or either accounting ledger does not reconcile, so scripted
/// invocations can gate on the exit status just like the standalone
/// `loadgen` binary.
fn loadgen_cmd(config: &loadgen::LoadConfig, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let book = loadgen::FrameBook::build(&config.synth);
    let summary = loadgen::run(config, &book).map_err(CliError::new)?;
    writeln!(out, "{}", summary.render()).map_err(io_err)?;
    let reconciled = |path: &[&str]| {
        let mut node = &summary;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return false,
            }
        }
        matches!(node, service::json::Json::Bool(true))
    };
    if reconciled(&["accounting", "client_reconciled"]) && reconciled(&["daemon", "reconciled"]) {
        Ok(())
    } else {
        Err(CliError::new(
            "load run completed but the accounting did not reconcile (see summary above)",
        ))
    }
}

/// The `debug` subcommand: ask a running rapd for its live internals.
///
/// Connects to the daemon's NDJSON control port, sends a single
/// `{"type":"debug"}` request (optionally scoped to one tenant), and
/// prints the one-line JSON reply verbatim so it can be piped into `jq`.
fn debug(addr: &str, tenant: Option<&str>, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use service::json::Json;
    let mut fields = vec![("type".to_string(), Json::str("debug"))];
    if let Some(t) = tenant {
        fields.push(("tenant".to_string(), Json::str(t)));
    }
    control_request(addr, &Json::Obj(fields).render(), out)
}

/// The `stats` subcommand: print a running rapd's counters (ingested,
/// processed, incidents, WAL depth, checkpoint age) as one JSON line.
fn stats(addr: &str, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use service::json::Json;
    let request = Json::Obj(vec![("type".to_string(), Json::str("stats"))]).render();
    control_request(addr, &request, out)
}

/// The `shutdown` subcommand: ask a running rapd to drain gracefully.
/// The daemon flushes its reorder buffers, checkpoints every tenant,
/// fsyncs the spools, replies, and exits 0.
fn shutdown(addr: &str, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use service::json::Json;
    let request = Json::Obj(vec![("type".to_string(), Json::str("shutdown"))]).render();
    control_request(addr, &request, out)
}

/// Send one NDJSON control request and print the one-line JSON reply
/// verbatim so it can be piped into `jq`.
fn control_request(
    addr: &str,
    request: &str,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    use std::io::{BufRead, BufReader, Write};

    let mut stream = connect_with_retry(addr)?;
    // one write for the request and its newline
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(io_err)?;

    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(io_err)?;
    if reply.trim().is_empty() {
        return Err(CliError::new(format!(
            "rapd at {addr} closed the connection without replying"
        )));
    }
    writeln!(out, "{}", reply.trim_end()).map_err(io_err)?;
    Ok(())
}

/// Connect to the daemon's control port, retrying transient refusals
/// (daemon still booting, or restarting after a crash) on the shared
/// capped-exponential-backoff schedule: five attempts starting at 50 ms.
/// The final failure surfaces as the usual user-facing connect error.
fn connect_with_retry(addr: &str) -> Result<std::net::TcpStream, CliError> {
    let mut backoff = service::Backoff::for_client(0xc11e);
    service::with_retry(5, &mut backoff, || std::net::TcpStream::connect(addr))
        .map_err(|e| CliError::new(format!("cannot connect to rapd at {addr}: {e}")))
}

/// Build the daemon's [`service::ServiceConfig`] from the `serve` flags.
/// Shared by the single-process path ([`serve_start`]) and the fleet
/// worker path ([`serve_worker`]), so both modes interpret the flags
/// identically.
fn build_service_config(command: &Command) -> Result<service::ServiceConfig, CliError> {
    let Command::Serve {
        listen,
        metrics_listen,
        shards,
        queue,
        spool,
        ring,
        history,
        warmup,
        alarm_threshold,
        leaf_threshold,
        k,
        window,
        log_json,
        localize_deadline_ms,
        breaker_threshold,
        breaker_cooldown_ms,
        schema_drift_limit,
        reorder_window,
        max_lateness_ms,
        intra_frame_threads,
        detect,
        detect_threshold,
        seasonal_period,
        flight_recorder,
        wal,
        wal_fsync,
        checkpoint_interval_ms,
        spool_max_bytes,
        shutdown_deadline_ms,
        ..
    } = command
    else {
        return Err(CliError::new("serve requires the serve command"));
    };
    Ok(service::ServiceConfig {
        listen: listen.clone(),
        metrics_listen: metrics_listen.clone(),
        shards: *shards,
        queue_capacity: *queue,
        spool_dir: spool.as_ref().map(std::path::PathBuf::from),
        ring_capacity: *ring,
        forecast_window: *window,
        log_json: *log_json,
        breaker_threshold: *breaker_threshold,
        breaker_cooldown: std::time::Duration::from_millis(*breaker_cooldown_ms),
        schema_drift_limit: *schema_drift_limit,
        reorder_window: *reorder_window,
        max_lateness: std::time::Duration::from_millis(*max_lateness_ms),
        detect: *detect,
        detect_threshold: *detect_threshold,
        seasonal_period: *seasonal_period,
        flight_recorder_capacity: *flight_recorder,
        wal: *wal,
        wal_fsync: *wal_fsync,
        checkpoint_interval: std::time::Duration::from_millis(*checkpoint_interval_ms),
        spool_max_bytes: *spool_max_bytes,
        shutdown_deadline: std::time::Duration::from_millis(*shutdown_deadline_ms),
        pipeline: pipeline::PipelineConfig {
            history_len: *history,
            warmup: *warmup,
            alarm_threshold: *alarm_threshold,
            leaf_threshold: *leaf_threshold,
            k: *k,
            // 0 on the command line means "no deadline"
            localize_deadline: match *localize_deadline_ms {
                0 => None,
                ms => Some(std::time::Duration::from_millis(ms)),
            },
            localize_threads: *intra_frame_threads,
        },
        ..service::ServiceConfig::default()
    })
}

/// Boot the rapd daemon from the `serve` flags and report its listeners.
/// Split from [`run`] so tests can boot and then shut the daemon down.
pub(crate) fn serve_start(
    command: &Command,
    out: &mut dyn std::io::Write,
) -> Result<service::ServerHandle, CliError> {
    let Command::Serve {
        spool,
        detect,
        detect_threshold,
        wal,
        ..
    } = command
    else {
        return Err(CliError::new("serve_start requires the serve command"));
    };
    let config = build_service_config(command)?;
    let handle = service::start(config, service::default_factory())
        .map_err(|e| CliError::new(e.to_string()))?;
    writeln!(
        out,
        "rapd listening on {} (NDJSON ingest/control)",
        handle.ingest_addr()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "rapd metrics on http://{}/metrics",
        handle.metrics_addr()
    )
    .map_err(io_err)?;
    if let Some(dir) = spool {
        writeln!(out, "rapd spooling incidents under {dir}").map_err(io_err)?;
        if *wal {
            writeln!(
                out,
                "rapd journaling admitted frames and checkpoints under {dir}"
            )
            .map_err(io_err)?;
        }
    }
    if *detect {
        writeln!(
            out,
            "rapd detect mode: self-triggering localization at {detect_threshold}σ"
        )
        .map_err(io_err)?;
    }
    Ok(handle)
}

/// Run one supervised fleet worker (`serve --worker-index N`). The
/// supervisor spawns this, reads the announce line from stdout, and
/// speaks the versioned wire protocol on the announced port. Exits
/// nonzero when the graceful drain overruns `--shutdown-deadline-ms`.
fn serve_worker(command: &Command, index: usize) -> Result<(), CliError> {
    let config = build_service_config(command)?;
    let clean = service::worker::run_worker(config, service::default_factory(), index)
        .map_err(|e| CliError::new(e.to_string()))?;
    if clean {
        Ok(())
    } else {
        Err(CliError::new(format!(
            "worker {index} drain exceeded the shutdown deadline; drained tenants \
             were checkpointed but some frames were still queued"
        )))
    }
}

/// Run the fleet router (`serve --workers N`): bind the client-facing
/// NDJSON port, spawn and babysit N worker processes, and route tenants
/// onto them by consistent hash. Blocks until a `shutdown` verb drains
/// the fleet; exits nonzero when the drain was not clean.
fn serve_router(command: &Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Command::Serve {
        listen,
        metrics_listen,
        spool,
        workers,
        shutdown_deadline_ms,
        park_capacity,
        request_deadline_ms,
        ..
    } = command
    else {
        return Err(CliError::new("serve_router requires the serve command"));
    };
    let Some(spool) = spool else {
        return Err(CliError::new(
            "--workers needs --spool DIR: each worker keeps its WAL and checkpoints \
             under <spool>/worker-<i> so acknowledged frames survive a kill",
        ));
    };
    let worker_exe = std::env::current_exe().map_err(|e| {
        CliError::new(format!(
            "cannot locate the rapd binary to spawn workers: {e}"
        ))
    })?;
    let config = service::RouterConfig {
        listen: listen.clone(),
        metrics_listen: metrics_listen.clone(),
        workers: *workers,
        spool_dir: std::path::PathBuf::from(spool),
        max_frame_bytes: service::ServiceConfig::default().max_frame_bytes,
        park_capacity: *park_capacity,
        request_deadline: std::time::Duration::from_millis(*request_deadline_ms),
        shutdown_deadline: std::time::Duration::from_millis(*shutdown_deadline_ms),
        worker_exe,
        worker_args: worker_argv(command),
    };
    let handle = service::start_router(config).map_err(|e| CliError::new(e.to_string()))?;
    writeln!(
        out,
        "rapd listening on {} (NDJSON ingest/control; routing {} workers)",
        handle.ingest_addr(),
        workers
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "rapd metrics on http://{}/metrics",
        handle.metrics_addr()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "rapd fleet spooling under {spool} (one WAL per worker)"
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;
    let clean = handle.wait_for_drain();
    handle.shutdown();
    writeln!(out, "rapd fleet drained; exiting").map_err(io_err)?;
    if clean {
        Ok(())
    } else {
        Err(CliError::new(
            "fleet drain was not clean: a worker missed the shutdown deadline or \
             parked frames were abandoned",
        ))
    }
}

/// The argv the router hands every worker it spawns: the `serve` flags
/// that shape the pipeline, minus everything per-process (listeners,
/// spool directory, fleet topology) — the supervisor appends those per
/// slot. Kept as a pure function so tests can assert nothing per-process
/// leaks through.
fn worker_argv(command: &Command) -> Vec<String> {
    let Command::Serve {
        shards,
        queue,
        ring,
        history,
        warmup,
        alarm_threshold,
        leaf_threshold,
        k,
        window,
        log_json,
        localize_deadline_ms,
        breaker_threshold,
        breaker_cooldown_ms,
        schema_drift_limit,
        reorder_window,
        max_lateness_ms,
        intra_frame_threads,
        detect,
        detect_threshold,
        seasonal_period,
        flight_recorder,
        wal,
        wal_fsync,
        checkpoint_interval_ms,
        spool_max_bytes,
        shutdown_deadline_ms,
        ..
    } = command
    else {
        return Vec::new();
    };
    let flags: [(&str, String); 26] = [
        ("--shards", shards.to_string()),
        ("--queue", queue.to_string()),
        ("--ring", ring.to_string()),
        ("--history", history.to_string()),
        ("--warmup", warmup.to_string()),
        ("--alarm-threshold", alarm_threshold.to_string()),
        ("--leaf-threshold", leaf_threshold.to_string()),
        ("--k", k.to_string()),
        ("--window", window.to_string()),
        ("--log-json", log_json.to_string()),
        ("--localize-deadline-ms", localize_deadline_ms.to_string()),
        ("--breaker-threshold", breaker_threshold.to_string()),
        ("--breaker-cooldown-ms", breaker_cooldown_ms.to_string()),
        ("--schema-drift-limit", schema_drift_limit.to_string()),
        ("--reorder-window", reorder_window.to_string()),
        ("--max-lateness-ms", max_lateness_ms.to_string()),
        ("--intra-frame-threads", intra_frame_threads.to_string()),
        ("--detect", detect.to_string()),
        ("--detect-threshold", detect_threshold.to_string()),
        ("--seasonal-period", seasonal_period.to_string()),
        ("--flight-recorder", flight_recorder.to_string()),
        ("--wal", wal.to_string()),
        ("--wal-fsync", wal_fsync.to_string()),
        (
            "--checkpoint-interval-ms",
            checkpoint_interval_ms.to_string(),
        ),
        ("--spool-max-bytes", spool_max_bytes.to_string()),
        ("--shutdown-deadline-ms", shutdown_deadline_ms.to_string()),
    ];
    let mut argv = vec!["serve".to_string()];
    for (flag, value) in flags {
        argv.push(flag.to_string());
        argv.push(value);
    }
    argv
}

/// The `detect` subcommand's knobs, bundled so the replay stays one call.
struct DetectArgs {
    steps: usize,
    warmup: usize,
    injections: usize,
    duration: usize,
    seed: u64,
    threshold: f64,
    seasonal_period: usize,
    min_recall: f64,
    max_false_triggers: usize,
}

/// Offline detection replay: play a seeded anomalous stream through the
/// streaming detect-then-localize pipeline and score recall, false
/// triggers, and trigger latency against the stream's ground truth.
/// Fails (non-zero exit) when the `--min-recall` / `--max-false-triggers`
/// gates are violated. Output is deterministic in the flags — no
/// wall-clock columns — so CI can diff two runs byte-for-byte.
fn detect(args: DetectArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use cdnsim::{AnomalyStream, AnomalyStreamConfig};
    use eval::evaluate_detection;
    use pipeline::{DetectingPipeline, DetectorConfig, PipelineConfig};

    let stream = AnomalyStream::new(
        AnomalyStreamConfig {
            steps: args.steps,
            warmup: args.warmup,
            injections: args.injections,
            duration: args.duration,
            ..AnomalyStreamConfig::default()
        },
        args.seed,
    );
    let detector_config = DetectorConfig {
        sigma_threshold: args.threshold,
        seasonal_period: args.seasonal_period,
        ..DetectorConfig::default()
    };
    let mut pipe = DetectingPipeline::try_new(
        PipelineConfig::default(),
        detector_config,
        RapMinerLocalizer::default(),
    )
    .map_err(|e| CliError::new(format!("invalid detector config: {e}")))?;

    writeln!(
        out,
        "replaying {} steps, {} injected failures (seed {}, threshold {}σ)",
        args.steps, args.injections, args.seed, args.threshold
    )
    .map_err(io_err)?;

    let mut triggers = Vec::new();
    for step in 0..stream.steps() {
        let report = pipe
            .observe(&stream.frame(step))
            .map_err(|e| CliError::new(e.to_string()))?;
        if let Some(report) = report {
            triggers.push(step);
            let severity = report
                .severity
                .map(|s| s.as_str())
                .unwrap_or("uncategorized");
            let rap = report
                .raps
                .first()
                .map(|r| r.combination.to_string())
                .unwrap_or_else(|| "(none)".to_string());
            writeln!(
                out,
                "step {step}: {severity} detection, score {:.1}σ, top RAP {rap}",
                report.detection.as_ref().map(|d| d.score).unwrap_or(0.0)
            )
            .map_err(io_err)?;
        }
    }

    let windows: Vec<(usize, usize)> = stream
        .injections()
        .iter()
        .map(|inj| (inj.step, inj.duration))
        .collect();
    let outcome = evaluate_detection(&windows, &triggers);
    write!(out, "{}", outcome.table()).map_err(io_err)?;
    writeln!(
        out,
        "recall {:.3}, precision {:.3}, false triggers {}, mean latency {:.1} steps",
        outcome.recall(),
        outcome.precision(),
        outcome.false_triggers.len(),
        outcome.mean_latency()
    )
    .map_err(io_err)?;

    if outcome.recall() < args.min_recall {
        return Err(CliError::new(format!(
            "detection gate failed: recall {:.3} < required {}",
            outcome.recall(),
            args.min_recall
        )));
    }
    if outcome.false_triggers.len() > args.max_false_triggers {
        return Err(CliError::new(format!(
            "detection gate failed: {} false triggers > allowed {}",
            outcome.false_triggers.len(),
            args.max_false_triggers
        )));
    }
    Ok(())
}

/// The streaming operations demo: play the simulator, inject a failure,
/// and report every alarm the pipeline raises.
fn simulate(
    steps: usize,
    failure_at: usize,
    seed: u64,
    rap: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    use cdnsim::{CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
    use pipeline::{LocalizationPipeline, PipelineConfig};
    use timeseries::MovingAverage;

    let topology = CdnTopology::small(seed);
    let schema = topology.schema().clone();
    let model = TrafficModel::new(topology, TrafficConfig::default(), seed);
    let truth = match rap {
        Some(spec) => schema.parse_combination(spec)?,
        None => schema.parse_combination("location=L4")?,
    };
    writeln!(
        out,
        "simulating {steps} steps; failure {truth} injected at step {failure_at} (seed {seed})"
    )
    .map_err(io_err)?;

    let mut pipe = LocalizationPipeline::new(
        PipelineConfig {
            history_len: 60,
            warmup: 15,
            alarm_threshold: 0.08,
            leaf_threshold: 0.3,
            k: 3,
            ..PipelineConfig::default()
        },
        MovingAverage::new(10),
        RapMinerLocalizer::default(),
    );
    let injector = FailureInjector::new(0.5, 0.9);
    let mut alarms = 0usize;
    for step in 0..steps {
        let minute = 2 * 24 * 60 + step;
        let mut snapshot = model.snapshot(minute);
        if step >= failure_at {
            injector.inject(&mut snapshot, std::slice::from_ref(&truth), minute as u64);
        }
        let report = pipe
            .observe(&snapshot)
            .map_err(|e| CliError::new(e.to_string()))?;
        if let Some(report) = report {
            writeln!(out, "{}", report.summary()).map_err(io_err)?;
            alarms += 1;
            if alarms >= 3 {
                writeln!(out, "(stopping after three alarms)").map_err(io_err)?;
                break;
            }
        }
    }
    if alarms == 0 {
        writeln!(out, "no alarm fired in {steps} steps").map_err(io_err)?;
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::new(format!("i/o error: {e}"))
}

fn generate(
    dataset: &str,
    dir: &str,
    failures: usize,
    cases_per_group: usize,
    seed: u64,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let ds = match dataset {
        "rapmd" => RapmdGenerator::new(RapmdConfig {
            num_failures: failures,
            ..RapmdConfig::default()
        })
        .generate(seed),
        "squeeze" => SqueezeGenerator::new(SqueezeGenConfig {
            cases_per_group,
            ..SqueezeGenConfig::default()
        })
        .generate(seed),
        other => {
            return Err(CliError::new(format!(
                "unknown dataset `{other}` (expected `squeeze` or `rapmd`)"
            )))
        }
    };
    save_dataset(&ds, Path::new(dir))?;
    writeln!(
        out,
        "wrote {} cases of `{}` (seed {seed}) to {dir}",
        ds.cases.len(),
        ds.name
    )
    .map_err(io_err)?;
    Ok(())
}

/// Resolve a method by name, applying RAPMiner threshold overrides and
/// the intra-frame thread count (`0` = machine width, `1` = serial).
fn resolve_method(
    name: &str,
    t_cp: Option<f64>,
    t_conf: Option<f64>,
    threads: usize,
) -> Result<Box<dyn Localizer>, CliError> {
    if name == "rapminer" {
        let mut config = Config::new().with_threads(threads);
        if let Some(v) = t_cp {
            config = config
                .with_t_cp(v)
                .map_err(|e| CliError::new(e.to_string()))?;
        }
        if let Some(v) = t_conf {
            config = config
                .with_t_conf(v)
                .map_err(|e| CliError::new(e.to_string()))?;
        }
        return Ok(Box::new(RapMinerLocalizer::with_config(config)));
    }
    if t_cp.is_some() || t_conf.is_some() {
        return Err(CliError::new(
            "--t-cp/--t-conf only apply to --method rapminer",
        ));
    }
    all_localizers()
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            CliError::new(format!(
                "unknown method `{name}`; run `rapminer methods` for the list"
            ))
        })
}

#[allow(clippy::too_many_arguments)]
fn localize(
    input: &str,
    method: &str,
    k: usize,
    t_cp: Option<f64>,
    t_conf: Option<f64>,
    detect_threshold: f64,
    explain: bool,
    stats: bool,
    threads: usize,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let file = std::fs::File::open(input)
        .map_err(|e| CliError::new(format!("cannot open {input}: {e}")))?;
    let mut frame = read_frame_csv(std::io::BufReader::new(file))?;
    if frame.labels().is_none() {
        // no label column: detect with the Eq. 4 deviation threshold
        let eps = 1e-9;
        frame.label_with(|v, f| ((f - v) / (f + eps)).abs() > detect_threshold);
        writeln!(
            out,
            "(no label column; detected {} anomalous of {} leaves at |Dev| > {detect_threshold})",
            frame.num_anomalous(),
            frame.num_rows()
        )
        .map_err(io_err)?;
    }
    if explain {
        if method != "rapminer" {
            return Err(CliError::new("--explain only applies to --method rapminer"));
        }
        let mut config = Config::new();
        if let Some(v) = t_cp {
            config = config
                .with_t_cp(v)
                .map_err(|e| CliError::new(e.to_string()))?;
        }
        let outcome = rapminer::RapMiner::with_config(config)
            .analyze(&frame)
            .map_err(|e| CliError::new(e.to_string()))?;
        let mut table = Table::new(["attribute", "classification power", "verdict"]);
        for (attr, cp) in &outcome.kept {
            table.row([
                frame.schema().attribute(*attr).name().to_string(),
                format!("{cp:.6}"),
                "kept".to_string(),
            ]);
        }
        for (attr, cp) in &outcome.deleted {
            table.row([
                frame.schema().attribute(*attr).name().to_string(),
                format!("{cp:.6}"),
                "redundant".to_string(),
            ]);
        }
        write!(out, "{table}").map_err(io_err)?;
    }
    let localizer = resolve_method(method, t_cp, t_conf, threads)?;
    let explained = localizer.localize_explained(&frame, k)?;
    if stats {
        match &explained.trace {
            Some(trace) => {
                let s = &trace.stats;
                writeln!(
                    out,
                    "search stats: {} attrs deleted, {} cuboids visited, \
                     {} combinations visited, {} candidates found, early stop: {}",
                    s.attrs_deleted,
                    s.cuboids_visited,
                    s.combos_visited,
                    s.candidates_found,
                    s.early_stopped
                )
                .map_err(io_err)?;
            }
            None => {
                writeln!(
                    out,
                    "(--stats: method `{method}` reports no search statistics)"
                )
                .map_err(io_err)?;
            }
        }
    }
    let results = explained.results;
    if results.is_empty() {
        writeln!(out, "no root anomaly patterns found").map_err(io_err)?;
        return Ok(());
    }
    let mut table = Table::new(["rank", "root anomaly pattern", "score"]);
    for (i, r) in results.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            r.combination.to_string(),
            format!("{:.4}", r.score),
        ]);
    }
    write!(out, "{table}").map_err(io_err)?;
    Ok(())
}

fn evaluate(
    dir: &str,
    protocol: &str,
    ks: &[usize],
    method: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let dataset = load_dataset(Path::new(dir))?;
    let methods: Vec<Box<dyn Localizer>> = match method {
        None => all_localizers(),
        Some(name) => vec![resolve_method(name, None, None, 0)?],
    };
    writeln!(
        out,
        "dataset `{}`: {} cases",
        dataset.name,
        dataset.cases.len()
    )
    .map_err(io_err)?;
    match protocol {
        "rc" => {
            let mut headers = vec!["method".to_string()];
            headers.extend(ks.iter().map(|k| format!("RC@{k}")));
            headers.push("mean seconds".to_string());
            let mut table = Table::new(headers);
            for m in &methods {
                let outcome = evaluate_rc(m.as_ref(), &dataset.cases, ks);
                let mut row = vec![m.name().to_string()];
                row.extend(outcome.rc.iter().map(|(_, rc)| format!("{rc:.3}")));
                row.push(format!("{:.4}", outcome.mean_seconds));
                table.row(row);
            }
            write!(out, "{table}").map_err(io_err)?;
        }
        "f1" => {
            let mut table = Table::new(["method", "precision", "recall", "F1", "mean seconds"]);
            for m in &methods {
                let outcome = evaluate_f1(m.as_ref(), &dataset.cases);
                table.row([
                    m.name().to_string(),
                    format!("{:.3}", outcome.precision),
                    format!("{:.3}", outcome.recall),
                    format!("{:.3}", outcome.f1),
                    format!("{:.4}", outcome.mean_seconds),
                ]);
            }
            write!(out, "{table}").map_err(io_err)?;
        }
        other => {
            return Err(CliError::new(format!(
                "unknown protocol `{other}` (expected `rc` or `f1`)"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;

    fn run_to_string(argv: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(argv.iter().copied()).expect("parse");
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn help_and_methods() {
        let help = run_to_string(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
        let methods = run_to_string(&["methods"]).unwrap();
        assert!(methods.contains("rapminer"));
        assert!(methods.contains("squeeze"));
        assert!(methods.contains("hotspot"));
    }

    #[test]
    fn generate_localize_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rapminer_cli_{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let msg = run_to_string(&[
            "generate",
            "--dataset",
            "squeeze",
            "--out",
            &dir_s,
            "--cases-per-group",
            "1",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(msg.contains("9 cases"));

        // localize one generated case
        let case_csv = dir.join("squeeze_d1_r1_000.csv");
        let out = run_to_string(&[
            "localize",
            "--input",
            case_csv.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        assert!(out.contains("root anomaly pattern"), "got: {out}");

        // evaluate the directory with one method
        let eval_out = run_to_string(&[
            "evaluate",
            "--dir",
            &dir_s,
            "--protocol",
            "f1",
            "--method",
            "rapminer",
        ])
        .unwrap();
        assert!(eval_out.contains("| rapminer |"), "got: {eval_out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_reports_alarms() {
        let out = run_to_string(&[
            "simulate",
            "--steps",
            "40",
            "--failure-at",
            "25",
            "--seed",
            "404",
        ])
        .unwrap();
        assert!(out.contains("injected at step 25"), "got: {out}");
        assert!(out.contains("top RAP (L4"), "got: {out}");
    }

    #[test]
    fn simulate_accepts_custom_rap() {
        let out = run_to_string(&[
            "simulate",
            "--steps",
            "40",
            "--failure-at",
            "25",
            "--rap",
            "website=Site2",
        ])
        .unwrap();
        assert!(out.contains("(*, *, *, Site2)"), "got: {out}");
    }

    #[test]
    fn unknown_method_is_reported() {
        let err = run_to_string(&["localize", "--input", "x.csv", "--method", "zzz"]);
        // file open happens first; use an existing file to reach method
        // resolution — simpler: the error message either mentions the file
        // or the method, both are user-facing failures
        assert!(err.is_err());
    }

    #[test]
    fn threshold_overrides_rejected_for_other_methods() {
        assert!(resolve_method("squeeze", Some(0.1), None, 0).is_err());
        assert!(resolve_method("rapminer", Some(0.1), Some(0.9), 8).is_ok());
        assert!(resolve_method("nope", None, None, 0).is_err());
    }

    #[test]
    fn localize_explain_prints_cp_breakdown() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rapminer_cli_explain_{}.csv", std::process::id()));
        std::fs::write(
            &path,
            "a,b,real,predict,label\n\
             a1,b1,1.0,10.0,1\n\
             a1,b2,2.0,11.0,1\n\
             a2,b1,10.0,10.0,0\n\
             a2,b2,11.0,11.0,0\n",
        )
        .unwrap();
        let out = run_to_string(&[
            "localize",
            "--input",
            path.to_str().unwrap(),
            "--explain",
            "true",
        ])
        .unwrap();
        assert!(out.contains("classification power"), "got: {out}");
        assert!(out.contains("redundant"), "got: {out}");
        assert!(out.contains("kept"), "got: {out}");
        // explain on a non-rapminer method is refused
        let err = run_to_string(&[
            "localize",
            "--input",
            path.to_str().unwrap(),
            "--method",
            "squeeze",
            "--explain",
            "true",
        ]);
        assert!(err.is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn localize_stats_prints_search_counters() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rapminer_cli_stats_{}.csv", std::process::id()));
        std::fs::write(
            &path,
            "a,b,real,predict,label\n\
             a1,b1,1.0,10.0,1\n\
             a1,b2,2.0,11.0,1\n\
             a2,b1,10.0,10.0,0\n\
             a2,b2,11.0,11.0,0\n",
        )
        .unwrap();
        let out = run_to_string(&[
            "localize",
            "--input",
            path.to_str().unwrap(),
            "--stats",
            "true",
        ])
        .unwrap();
        assert!(out.contains("search stats:"), "got: {out}");
        assert!(out.contains("cuboids visited"), "got: {out}");
        assert!(out.contains("early stop:"), "got: {out}");
        // methods without search statistics degrade gracefully
        let out = run_to_string(&[
            "localize",
            "--input",
            path.to_str().unwrap(),
            "--method",
            "squeeze",
            "--stats",
            "true",
        ])
        .unwrap();
        assert!(out.contains("no search statistics"), "got: {out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn localize_detects_when_unlabelled() {
        // write an unlabelled CSV with an obvious anomaly
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rapminer_cli_case_{}.csv", std::process::id()));
        std::fs::write(
            &path,
            "a,b,real,predict\n\
             a1,b1,1.0,10.0\n\
             a1,b2,2.0,11.0\n\
             a2,b1,10.0,10.0\n\
             a2,b2,11.0,11.0\n",
        )
        .unwrap();
        let out = run_to_string(&["localize", "--input", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("detected 2 anomalous"), "got: {out}");
        assert!(out.contains("(a1, *)"), "got: {out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_boots_and_reports_listeners() {
        let args = Args::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--shards",
            "2",
        ])
        .unwrap();
        let mut out = Vec::new();
        let handle = serve_start(&args.command, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("rapd listening on 127.0.0.1:"), "got: {text}");
        assert!(text.contains("/metrics"), "got: {text}");
        handle.shutdown();
    }

    #[test]
    fn detect_replays_deterministically_and_gates() {
        let argv = [
            "detect",
            "--steps",
            "240",
            "--warmup",
            "40",
            "--injections",
            "3",
            "--seed",
            "7",
        ];
        let first = run_to_string(&argv).unwrap();
        assert!(first.contains("replaying 240 steps"), "got: {first}");
        assert!(first.contains("injection_step"), "got: {first}");
        assert!(first.contains("recall "), "got: {first}");
        // Deterministic: a second identical replay is byte-identical.
        let second = run_to_string(&argv).unwrap();
        assert_eq!(first, second);
        // An impossible recall gate deterministically fails the run.
        let mut gated = argv.to_vec();
        gated.extend(["--min-recall", "1.1"]);
        let err = run_to_string(&gated).expect_err("gate must fail");
        assert!(err.to_string().contains("detection gate failed"), "{err}");
    }

    #[test]
    fn serve_boots_in_detect_mode() {
        let args = Args::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--detect",
            "true",
            "--detect-threshold",
            "4.5",
        ])
        .unwrap();
        let mut out = Vec::new();
        let handle = serve_start(&args.command, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("detect mode"), "got: {text}");
        assert!(text.contains("4.5σ"), "got: {text}");
        handle.shutdown();
    }

    #[test]
    fn debug_client_round_trips_against_live_daemon() {
        let args = Args::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--shards",
            "1",
        ])
        .unwrap();
        let mut out = Vec::new();
        let handle = serve_start(&args.command, &mut out).unwrap();
        let addr = handle.ingest_addr().to_string();

        let reply = run_to_string(&["debug", "--addr", &addr]).unwrap();
        assert!(reply.contains("\"type\":\"debug\""), "got: {reply}");
        assert!(reply.contains("\"version\""), "got: {reply}");
        assert!(reply.contains("\"queue_depths\""), "got: {reply}");

        // tenant filter is accepted (no such tenant -> empty tenants array)
        let scoped = run_to_string(&["debug", "--addr", &addr, "--tenant", "nope"]).unwrap();
        assert!(scoped.contains("\"tenants\":[]"), "got: {scoped}");
        handle.shutdown();

        // a dead endpoint is a user-facing error, not a panic
        let err = run_to_string(&["debug", "--addr", &addr]).expect_err("must fail");
        assert!(err.to_string().contains("cannot connect"), "{err}");
    }

    #[test]
    fn stats_and_shutdown_clients_round_trip() {
        let args = Args::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--shards",
            "1",
        ])
        .unwrap();
        let mut out = Vec::new();
        let handle = serve_start(&args.command, &mut out).unwrap();
        let addr = handle.ingest_addr().to_string();

        let reply = run_to_string(&["stats", "--addr", &addr]).unwrap();
        assert!(reply.contains("\"type\":\"stats\""), "got: {reply}");
        assert!(reply.contains("\"wal_depth\""), "got: {reply}");

        // the shutdown verb drains the daemon and unblocks the serve loop
        let reply = run_to_string(&["shutdown", "--addr", &addr]).unwrap();
        assert!(reply.contains("\"draining\":true"), "got: {reply}");
        handle.wait_for_drain();
        handle.shutdown();
    }

    #[test]
    fn serve_rejects_bad_config() {
        let args = Args::parse(["serve", "--shards", "0"]).unwrap();
        let mut out = Vec::new();
        let err = match serve_start(&args.command, &mut out) {
            Err(e) => e,
            Ok(_) => panic!("zero shards must be rejected"),
        };
        assert!(err.to_string().contains("shards"), "got: {err}");
    }

    #[test]
    fn worker_argv_round_trips_and_omits_per_process_flags() {
        let args = Args::parse([
            "serve",
            "--workers",
            "3",
            "--shards",
            "2",
            "--wal-fsync",
            "true",
            "--spool",
            "/tmp/fleet",
            "--park-capacity",
            "9",
            "--listen",
            "127.0.0.1:4817",
        ])
        .unwrap();
        let argv = worker_argv(&args.command);
        assert_eq!(argv[0], "serve");
        // the supervisor owns these per slot; the shared argv must not
        // carry them or every worker would fight over one port and spool
        for banned in [
            "--listen",
            "--metrics-listen",
            "--spool",
            "--workers",
            "--worker-index",
            "--park-capacity",
            "--request-deadline-ms",
        ] {
            assert!(
                !argv.contains(&banned.to_string()),
                "{banned} leaked into the worker argv: {argv:?}"
            );
        }
        // and what it does carry parses back to the same pipeline shape
        let reparsed = Args::parse(argv).unwrap();
        match reparsed.command {
            Command::Serve {
                shards,
                wal_fsync,
                workers,
                worker_index,
                ..
            } => {
                assert_eq!(shards, 2);
                assert!(wal_fsync);
                assert_eq!(workers, 0, "a spawned worker must not recurse into a fleet");
                assert_eq!(worker_index, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn router_mode_requires_a_spool() {
        let err = match run_to_string(&["serve", "--workers", "2", "--listen", "127.0.0.1:0"]) {
            Err(e) => e,
            Ok(out) => panic!("spool-less fleet must be rejected, got: {out}"),
        };
        assert!(err.to_string().contains("--spool"), "got: {err}");
    }
}
