//! rapd as a child process: spawn, readiness, control requests, `/proc`
//! accounting, incident spool tailing, and teardown of the whole tree.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use service::json::{parse, Json};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` times.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads a process-wide constant.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

fn sigkill(pid: u32) {
    // SAFETY: kill has no memory-safety preconditions; a stale pid only
    // makes it fail with ESRCH, which is ignored.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Fields of `/proc/<path>/stat` after the parenthesised command name.
fn stat_fields(path: &Path) -> Option<Vec<String>> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// user + system CPU ticks of a process or thread stat file.
fn ticks_of(path: &Path) -> Option<u64> {
    let f = stat_fields(path)?;
    // after ")": state(0) ppid(1) ... utime(11) stime(12)
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// user + system CPU ticks of `pid`.
pub fn cpu_ticks(pid: u32) -> u64 {
    ticks_of(&PathBuf::from(format!("/proc/{pid}/stat"))).unwrap_or(0)
}

/// Peak resident set of `pid` in KiB (`VmHWM`).
pub fn hwm_kib(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Whether `pid` exists and is not a zombie.
pub fn alive(pid: u32) -> bool {
    match stat_fields(&PathBuf::from(format!("/proc/{pid}/stat"))) {
        Some(f) => f.first().map(String::as_str) != Some("Z"),
        None => false,
    }
}

fn all_pids() -> Vec<u32> {
    fs::read_dir("/proc")
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Live processes whose command line contains `needle`.
fn pids_with_arg(needle: &str) -> Vec<u32> {
    all_pids()
        .into_iter()
        .filter(|pid| {
            fs::read(format!("/proc/{pid}/cmdline"))
                .map(|c| String::from_utf8_lossy(&c).contains(needle))
                .unwrap_or(false)
                && alive(*pid)
        })
        .collect()
}

/// `(thread name, cpu ticks)` for every thread of `pid`.
pub fn threads(pid: u32) -> Vec<(String, u64)> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let comm = fs::read_to_string(e.path().join("comm")).ok()?;
            Some((comm.trim().to_string(), ticks_of(&e.path().join("stat"))?))
        })
        .collect()
}

/// One request/reply NDJSON connection to the daemon.
pub struct Control {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    pub fn connect(addr: &str) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Control { stream, reader })
    }

    /// Send one line and wait for its reply, calling `idle` every
    /// millisecond while the reply is outstanding.
    pub fn request_with(&mut self, line: &str, mut idle: impl FnMut()) -> Result<String, String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("write {line}: {e}"))?;
        self.stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .ok();
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut buf = Vec::new();
        loop {
            match self.reader.read_until(b'\n', &mut buf) {
                Ok(0) => return Err(format!("daemon closed the connection on {line}")),
                Ok(_) if buf.ends_with(b"\n") => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() > deadline {
                        return Err(format!("no reply to {line}"));
                    }
                    idle();
                }
                Err(e) => return Err(format!("read reply to {line}: {e}")),
            }
        }
        String::from_utf8(buf).map_err(|e| e.to_string())
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.request_with(line, || {})
    }

    pub fn json(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.request(line)?;
        parse(reply.trim()).map_err(|e| format!("reply to {line}: {e}"))
    }
}

/// The daemon's frame counters, summed over workers in a fleet.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub ingested: u64,
    pub processed: u64,
    pub dropped: u64,
    pub shed: u64,
    pub quarantined: u64,
    pub router_shed: u64,
}

impl Totals {
    fn from_stats(doc: &Json) -> Totals {
        let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
        let one = |d: &Json| Totals {
            ingested: num(d, "frames_ingested"),
            processed: num(d, "frames_processed"),
            dropped: num(d, "frames_dropped"),
            shed: num(d, "frames_shed"),
            quarantined: num(d, "frames_quarantined"),
            router_shed: 0,
        };
        if doc.get("role").and_then(Json::as_str) != Some("router") {
            return one(doc);
        }
        let mut t = Totals::default();
        for w in doc.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(s) = w.get("stats") {
                let o = one(s);
                t.ingested += o.ingested;
                t.processed += o.processed;
                t.dropped += o.dropped;
                t.shed += o.shed;
                t.quarantined += o.quarantined;
            }
        }
        t.router_shed = doc.get("router").map_or(0, |r| num(r, "shed"));
        t
    }

    pub fn minus(&self, before: &Totals) -> Totals {
        Totals {
            ingested: self.ingested - before.ingested,
            processed: self.processed - before.processed,
            dropped: self.dropped - before.dropped,
            shed: self.shed - before.shed,
            quarantined: self.quarantined - before.quarantined,
            router_shed: self.router_shed - before.router_shed,
        }
    }

    /// The daemon's own accounting invariant.
    pub fn balanced(&self) -> bool {
        self.processed + self.dropped + self.shed + self.quarantined == self.ingested
    }
}

/// A running rapd: the process tree and its listeners.
pub struct Daemon {
    child: Option<Child>,
    /// When the process was spawned; its periodic tickers count from here.
    pub spawned: Instant,
    pub pid: u32,
    pub ingest: String,
    pub metrics: String,
    pub spool: PathBuf,
    /// Worker pids (fleet only).
    pub workers: Vec<u32>,
}

impl Daemon {
    /// Spawn `exe serve` on ephemeral ports with its spool in `dir`, and
    /// wait until the listener is announced and, in a fleet, every
    /// worker reports up.
    pub fn spawn(
        exe: &Path,
        dir: &Path,
        workers: usize,
        flags: &[String],
    ) -> Result<Daemon, String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let spool = dir.join("spool");
        let out_path = dir.join("daemon.out");
        let out = fs::File::create(&out_path).map_err(|e| e.to_string())?;
        let err = fs::File::create(dir.join("daemon.err")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"])
            .arg("--spool")
            .arg(&spool);
        if workers > 0 {
            cmd.args(["--workers", &workers.to_string()]);
        }
        cmd.args(flags).stdin(Stdio::null()).stdout(out).stderr(err);
        let spawned = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawn rapd: {e}"))?;
        let mut daemon = Daemon {
            spawned,
            pid: child.id(),
            child: Some(child),
            ingest: String::new(),
            metrics: String::new(),
            spool,
            workers: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = fs::read_to_string(&out_path).unwrap_or_default();
            let word_after = |prefix: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(prefix))
                    .and_then(|r| r.split_whitespace().next())
                    .map(str::to_string)
            };
            if let (Some(ingest), Some(metrics)) = (
                word_after("rapd listening on "),
                word_after("rapd metrics on http://"),
            ) {
                daemon.ingest = ingest;
                daemon.metrics = metrics.trim_end_matches("/metrics").to_string();
                break;
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("rapd exited during start-up: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("rapd did not announce its listener".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if workers > 0 {
            let mut control = Control::connect(&daemon.ingest)?;
            loop {
                let stats = control.json(r#"{"type":"stats"}"#)?;
                let list = stats.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
                let up: Vec<u32> = list
                    .iter()
                    .filter(|w| w.get("up").and_then(Json::as_bool) == Some(true))
                    .filter_map(|w| w.get("pid").and_then(Json::as_u64).map(|p| p as u32))
                    .collect();
                if up.len() == workers {
                    daemon.workers = up;
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("{} of {workers} workers up", up.len()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(daemon)
    }

    /// Every process of the tree: the daemon and its workers.
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(self.pid)
            .chain(self.workers.iter().copied())
            .collect()
    }

    pub fn cpu_ticks(&self) -> u64 {
        self.pids().into_iter().map(cpu_ticks).sum()
    }

    pub fn hwm_kib(&self) -> u64 {
        self.pids().into_iter().map(hwm_kib).sum()
    }

    pub fn control(&self) -> Result<Control, String> {
        Control::connect(&self.ingest)
    }

    pub fn totals(&self) -> Result<Totals, String> {
        Ok(Totals::from_stats(
            &self.control()?.json(r#"{"type":"stats"}"#)?,
        ))
    }

    /// Kill the daemon and every worker, wait for each to end, and fail
    /// when any process of the tree survives. Returns the workers' pids:
    /// orphaned once the daemon dies, they stay zombies until init reaps
    /// them ([`wait_gone`]).
    pub fn reap(mut self) -> Result<Vec<u32>, String> {
        self.kill_tree()
    }

    fn kill_tree(&mut self) -> Result<Vec<u32>, String> {
        let Some(mut child) = self.child.take() else {
            return Ok(Vec::new());
        };
        let needle = self.spool.to_string_lossy().to_string();
        let mut tree: Vec<u32> = self.workers.clone();
        tree.extend(pids_with_arg(&needle));
        sigkill(self.pid);
        for &pid in &tree {
            sigkill(pid);
        }
        child.wait().map_err(|e| format!("wait for rapd: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // a supervisor may have respawned a worker before it died
            let survivors: Vec<u32> = tree
                .iter()
                .copied()
                .filter(|&p| alive(p))
                .chain(pids_with_arg(&needle))
                .collect();
            if survivors.is_empty() {
                return Ok(tree);
            }
            if Instant::now() > deadline {
                return Err(format!("rapd processes survived teardown: {survivors:?}"));
            }
            for &pid in &survivors {
                sigkill(pid);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Every `/metrics` endpoint of the tree: the daemon's, and in a fleet
    /// each worker's (found among the worker's listening sockets).
    pub fn metrics_endpoints(&self) -> Vec<String> {
        let mut out = vec![self.metrics.clone()];
        for &pid in &self.workers {
            for port in listening_ports(pid) {
                let addr = format!("127.0.0.1:{port}");
                if scrape(&addr).is_some_and(|b| b.contains("rapd_")) {
                    out.push(addr);
                }
            }
        }
        out
    }
}

/// GET `/metrics` from `addr`.
pub fn scrape(addr: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(s, "GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n").ok()?;
    let mut body = String::new();
    s.read_to_string(&mut body).ok()?;
    body.starts_with("HTTP/").then_some(body)
}

/// The sum of every sample of metric `name` across `endpoints`.
pub fn metric_sum(endpoints: &[String], name: &str) -> f64 {
    endpoints
        .iter()
        .filter_map(|a| scrape(a))
        .map(|body| {
            body.lines()
                .filter(|l| l.split([' ', '{']).next() == Some(name))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum::<f64>()
        })
        .sum()
}

/// The largest `rapd_queue_depth` gauge across `endpoints`.
pub fn queue_depth_max(endpoints: &[String]) -> Option<f64> {
    endpoints
        .iter()
        .filter_map(|a| scrape(a))
        .flat_map(|body| {
            body.lines()
                .filter(|l| l.starts_with("rapd_queue_depth"))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .collect::<Vec<_>>()
        })
        .reduce(f64::max)
}

/// TCP ports `pid` listens on, from its socket inodes and
/// `/proc/<pid>/net/tcp`.
fn listening_ports(pid: u32) -> Vec<u16> {
    let inodes: Vec<String> = fs::read_dir(format!("/proc/{pid}/fd"))
        .map(|d| {
            d.flatten()
                .filter_map(|e| {
                    let link = fs::read_link(e.path()).ok()?;
                    let link = link.to_str()?;
                    Some(
                        link.strip_prefix("socket:[")?
                            .trim_end_matches(']')
                            .to_string(),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let table = fs::read_to_string(format!("/proc/{pid}/net/tcp")).unwrap_or_default();
    table
        .lines()
        .skip(1)
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            // local_address(1) st(3) inode(9); 0A = LISTEN
            if f.get(3) != Some(&"0A") || !inodes.iter().any(|i| Some(&i.as_str()) == f.get(9)) {
                return None;
            }
            u16::from_str_radix(f.get(1)?.rsplit(':').next()?, 16).ok()
        })
        .collect()
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.kill_tree();
    }
}

/// Wait until none of `pids` is left in the process table, zombies
/// included; false when some are still there after `timeout`.
pub fn wait_gone(pids: &[u32], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while pids
        .iter()
        .any(|pid| Path::new(&format!("/proc/{pid}")).exists())
    {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// Checkpoint files under a spool directory (a fleet's workers keep theirs
/// one level down) last written at or after `since`.
pub fn checkpoints_since(spool: &Path, since: SystemTime) -> usize {
    let mut dirs = vec![spool.join("checkpoints")];
    if let Ok(entries) = fs::read_dir(spool) {
        dirs.extend(entries.flatten().map(|e| e.path().join("checkpoints")));
    }
    dirs.iter()
        .filter_map(|d| fs::read_dir(d).ok())
        .flat_map(|entries| entries.flatten())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter(|e| {
            e.metadata()
                .and_then(|m| m.modified())
                .is_ok_and(|t| t >= since)
        })
        .count()
}

/// One incident as the daemon spooled it.
#[derive(Debug, Clone)]
pub struct Seen {
    /// When the benchmark saw the spool line, ns since the run epoch.
    pub at_ns: u64,
    /// The whole record.
    pub record: Json,
}

/// Follows every `incidents.jsonl` under a spool directory, reading only
/// what was appended since the last poll.
pub struct Tail {
    root: PathBuf,
    files: Vec<(PathBuf, u64, Vec<u8>)>,
    last_scan: Option<Instant>,
    /// Incidents by frame token; a token seen again goes to `duplicates`.
    pub seen: HashMap<String, Seen>,
    pub duplicates: Vec<String>,
    pub unreadable: u64,
}

impl Tail {
    pub fn new(spool: &Path) -> Tail {
        Tail {
            root: spool.to_path_buf(),
            files: Vec::new(),
            last_scan: None,
            seen: HashMap::new(),
            duplicates: Vec::new(),
            unreadable: 0,
        }
    }

    fn scan(&mut self) {
        let mut found = vec![self.root.join("incidents.jsonl")];
        if let Ok(dir) = fs::read_dir(&self.root) {
            found.extend(dir.flatten().map(|e| e.path().join("incidents.jsonl")));
        }
        for path in found {
            if path.exists() && !self.files.iter().any(|(p, _, _)| *p == path) {
                self.files.push((path, 0, Vec::new()));
            }
        }
    }

    /// Read whatever the spools gained since the last poll.
    pub fn poll(&mut self, epoch: Instant) {
        if self
            .last_scan
            .is_none_or(|t| t.elapsed() > Duration::from_millis(250))
        {
            self.scan();
            self.last_scan = Some(Instant::now());
        }
        for (path, offset, partial) in &mut self.files {
            let Ok(mut f) = fs::File::open(&*path) else {
                continue;
            };
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len <= *offset {
                continue;
            }
            use std::io::Seek;
            if f.seek(std::io::SeekFrom::Start(*offset)).is_err() {
                continue;
            }
            let mut buf = Vec::new();
            if f.read_to_end(&mut buf).is_err() {
                continue;
            }
            *offset += buf.len() as u64;
            let at_ns = epoch.elapsed().as_nanos() as u64;
            partial.extend_from_slice(&buf);
            while let Some(nl) = partial.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = partial.drain(..=nl).collect();
                let line = String::from_utf8_lossy(&line);
                let json = line
                    .trim_end()
                    .rsplit_once('\t')
                    .map_or(line.trim_end(), |(j, _)| j);
                match parse(json) {
                    Ok(record) => {
                        let token = record
                            .get("frame")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string();
                        match self.seen.entry(token) {
                            Entry::Occupied(e) => self.duplicates.push(e.key().clone()),
                            Entry::Vacant(e) => {
                                e.insert(Seen { at_ns, record });
                            }
                        }
                    }
                    Err(_) => self.unreadable += 1,
                }
            }
        }
    }
}
