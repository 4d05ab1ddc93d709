//! The segment log: the one durable append primitive under the incident
//! spool, the quarantine spool and the frame write-ahead log.
//!
//! A [`SegmentLog`] owns a live `<name>.jsonl` and at most one sealed
//! `<name>.jsonl.1`. It appends `{json}\t{crc32:08x}` lines (one
//! `write_all` + `flush` each, plus `sync_data` with `fsync`), repairs a
//! torn tail when opened, rotates live → sealed (on a size cap, or when
//! WAL compaction asks), and stops appending once its [`Store`] is
//! degraded. The checkpoint store (atomic replace) and the blackbox
//! (one-shot dump) share the line framing but not the log.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::Json;
use crate::metrics::Metrics;

/// IEEE CRC-32 (polynomial `0xEDB88320`), one table lookup per byte:
/// every WAL append checksums a whole frame, so this runs over every
/// ingested byte.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC32_TABLE[i]`: the register after shifting byte `i` through the
/// polynomial's eight bitwise rounds.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            round += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// One framed line: the payload, its checksum suffix and the terminating
/// newline, ready to append with a single `write`.
pub(crate) fn frame_spool_line(json: &str) -> String {
    format!("{json}\t{:08x}\n", crc32(json.as_bytes()))
}

/// What opening a log found when it scanned the live segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolRecovery {
    /// Lines whose CRC-32 suffix verified.
    pub recovered: u64,
    /// Pre-CRC lines accepted read-only because they parse as JSON.
    pub legacy: u64,
    /// Torn or corrupt bytes dropped from the file.
    pub truncated_bytes: u64,
}

/// Verdict on one scanned line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineVerdict {
    /// CRC suffix present and correct.
    Verified,
    /// No CRC suffix, but the whole line parses as a JSON object
    /// (a spool written before checksumming existed).
    Legacy,
    /// Torn or corrupt: drop it.
    Corrupt,
}

/// The JSON payload of a line whose CRC suffix verifies.
pub(crate) fn verified_payload(line: &str) -> Option<&str> {
    let (json, suffix) = line.rsplit_once('\t')?;
    (suffix.len() == 8
        && suffix.chars().all(|c| c.is_ascii_hexdigit())
        && u32::from_str_radix(suffix, 16) == Ok(crc32(json.as_bytes())))
    .then_some(json)
}

pub(crate) fn judge_line(line: &str) -> LineVerdict {
    if verified_payload(line).is_some() {
        return LineVerdict::Verified;
    }
    match crate::json::parse(line) {
        Ok(Json::Obj(_)) => LineVerdict::Legacy,
        _ => LineVerdict::Corrupt,
    }
}

/// Parse one intact line — a verified payload, or a legacy bare object;
/// `None` for a torn or corrupt one.
pub(crate) fn parse_line(line: &str) -> Option<Json> {
    match crate::json::parse(verified_payload(line).unwrap_or(line)) {
        Ok(doc @ Json::Obj(_)) => Some(doc),
        _ => None,
    }
}

/// Every intact document in one segment file, read-only: torn lines are
/// skipped, never repaired, so this is safe on a log another process is
/// appending to. A missing or unreadable file yields nothing.
pub(crate) fn read_docs(path: &Path) -> Vec<Json> {
    fs::read_to_string(path)
        .map(|data| data.lines().filter_map(parse_line).collect())
        .unwrap_or_default()
}

/// The sealed segment that rotation moves a live `<name>.jsonl` to.
pub(crate) fn sealed_path(path: &Path) -> PathBuf {
    path.with_extension("jsonl.1")
}

/// Scan an existing segment, keep every intact line, and truncate the
/// rest.
///
/// The repaired content is written to a sibling temp file first and
/// renamed over the original, so a crash mid-repair leaves either the old
/// or the new segment — never a half-written one. A missing file is an
/// empty recovery, not an error.
pub(crate) fn repair_spool(path: &Path) -> io::Result<SpoolRecovery> {
    let data = match fs::read_to_string(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SpoolRecovery::default()),
        Err(e) => return Err(e),
    };
    let mut recovery = SpoolRecovery::default();
    let mut kept = String::with_capacity(data.len());
    let mut dropped_any = false;
    // `lines()` also yields a final unterminated fragment; if its checksum
    // verifies the write actually completed and only the newline was lost,
    // so it is kept (re-terminated). Anything else at the tail is torn.
    let unterminated_tail = !data.is_empty() && !data.ends_with('\n');
    for line in data.lines() {
        match judge_line(line) {
            LineVerdict::Verified => recovery.recovered += 1,
            LineVerdict::Legacy => recovery.legacy += 1,
            LineVerdict::Corrupt => {
                dropped_any = true;
                continue;
            }
        }
        kept.push_str(line);
        kept.push('\n');
    }
    recovery.truncated_bytes = (data.len() as u64).saturating_sub(kept.len() as u64);
    if dropped_any || unterminated_tail {
        let tmp = path.with_extension("jsonl.repair");
        fs::write(&tmp, &kept)?;
        fs::rename(&tmp, path)?;
    }
    Ok(recovery)
}

/// Map a tenant id onto a safe, collision-free file stem: anything
/// outside `[A-Za-z0-9_-]` becomes `_`, so a hostile tenant string
/// cannot escape its directory, and any name that needed replacement
/// carries a CRC32 suffix of its raw bytes so two distinct tenants
/// (`a.b`, `a:b`) can never collapse onto one stem — the WAL and
/// checkpoint store key files by stem, so a shared stem would
/// cross-corrupt their journals and snapshots. Already-safe names keep
/// their exact stem (and their existing on-disk files); sanitizing is
/// idempotent either way, since a hashed stem is itself all safe
/// characters.
pub(crate) fn sanitize_tenant(tenant: &str) -> String {
    let mut lossy = tenant.is_empty();
    let stem: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                lossy = true;
                '_'
            }
        })
        .collect();
    if !lossy {
        return stem;
    }
    let stem = if stem.is_empty() {
        "_".to_string()
    } else {
        stem
    };
    format!("{stem}-{:08x}", crc32(tenant.as_bytes()))
}

/// The store a log belongs to. It names the log's failpoint, events and
/// metrics; the store's degraded gauge is its latch, shared by all of its
/// logs: the first write error sets it (one warning event), and from then
/// on every append of the store is dropped. Durability degrades; service
/// does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Store {
    /// `incidents.jsonl`.
    Incidents,
    /// `quarantine/<stem>.jsonl`.
    Quarantine,
    /// `wal/<stem>.jsonl` and `wal/schemas.jsonl`.
    Wal,
}

impl Store {
    /// `[failpoint, event target, degraded event]`.
    fn names(self) -> [&'static str; 3] {
        match self {
            Store::Incidents => ["spool-write-error", "sink", "spool_degraded"],
            Store::Quarantine => [
                "quarantine-write-error",
                "rapd.quarantine",
                "quarantine_degraded",
            ],
            Store::Wal => ["wal-append-error", "rapd.wal", "wal_degraded"],
        }
    }

    /// `(write errors, degraded gauge, size-cap rotations)`; the WAL
    /// rotates only on compaction.
    fn counters(self, m: &Metrics) -> (&AtomicU64, &AtomicU64, Option<&AtomicU64>) {
        let rotations = &m.spool_rotations;
        match self {
            Store::Incidents => (
                &m.spool_write_errors,
                &m.spool_degraded,
                Some(&rotations.incidents),
            ),
            Store::Quarantine => (
                &m.quarantine_write_errors,
                &m.quarantine_degraded,
                Some(&rotations.quarantine),
            ),
            Store::Wal => (&m.wal_append_errors, &m.wal_degraded, None),
        }
    }

    /// Whether a write error has degraded the store.
    pub fn is_degraded(self, m: &Metrics) -> bool {
        self.counters(m).1.load(Ordering::Relaxed) != 0
    }

    /// Count a write error at `path`; the first one degrades the store.
    pub fn trip(self, m: &Metrics, path: &Path, error: &io::Error) {
        let (errors, degraded, _) = self.counters(m);
        errors.fetch_add(1, Ordering::Relaxed);
        if degraded.swap(1, Ordering::Relaxed) == 0 {
            let [_, target, event] = self.names();
            obs::warn(
                target,
                event,
                &[
                    ("error", error.to_string().into()),
                    ("path", obs::Value::Str(path.display().to_string())),
                ],
            );
        }
    }
}

/// One append-only log: the live `<name>.jsonl` and at most one sealed
/// `<name>.jsonl.1`.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    path: PathBuf,
    /// The live segment's append handle; `None` after a failed reopen,
    /// retried by the next append.
    file: Option<File>,
    /// Bytes in the live segment.
    bytes: u64,
    /// Rotate once the live segment exceeds this many bytes; `0` never.
    max_bytes: u64,
    fsync: bool,
    store: Store,
    metrics: Arc<Metrics>,
}

/// Open `path` for appending, creating it. With `fsync`, also sync its
/// directory: the file may be new (or just renamed away), and its
/// `sync_data`ed appends are only durable once its directory entry is.
fn open_append(path: &Path, fsync: bool) -> io::Result<File> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if fsync {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(file)
}

impl SegmentLog {
    /// Open (creating) the log whose live segment is `path`, first
    /// repairing whatever torn tail a crash left in it.
    ///
    /// # Errors
    ///
    /// Fails when the live segment cannot be read, repaired or opened.
    pub fn open(
        path: PathBuf,
        max_bytes: u64,
        fsync: bool,
        store: Store,
        metrics: Arc<Metrics>,
    ) -> io::Result<(SegmentLog, SpoolRecovery)> {
        let recovery = repair_spool(&path)?;
        let file = open_append(&path, fsync)?;
        let bytes = file.metadata()?.len();
        let log = SegmentLog {
            path,
            file: Some(file),
            bytes,
            max_bytes,
            fsync,
            store,
            metrics,
        };
        Ok((log, recovery))
    }

    /// Append one JSON document as a framed line, rotating if that
    /// crosses the size cap. Returns whether the line landed: `false`
    /// once the store is degraded, including when this write degrades it.
    pub fn append(&mut self, json: &str) -> bool {
        if self.store.is_degraded(&self.metrics) {
            return false;
        }
        let result = self.write(&frame_spool_line(json));
        if let Err(e) = &result {
            self.store.trip(&self.metrics, &self.path, e);
        }
        result.is_ok()
    }

    fn write(&mut self, line: &str) -> io::Result<()> {
        let [failpoint, target, _] = self.store.names();
        if obs::fail::should_error(failpoint) {
            return Err(io::Error::other("injected write error"));
        }
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(open_append(&self.path, self.fsync)?),
        };
        file.write_all(line.as_bytes())?;
        file.flush()?;
        if self.fsync {
            file.sync_data()?;
        }
        self.bytes += line.len() as u64;
        if self.max_bytes > 0 && self.bytes > self.max_bytes {
            self.rotate()?;
            if let (_, _, Some(rotations)) = self.store.counters(&self.metrics) {
                rotations.fetch_add(1, Ordering::Relaxed);
            }
            let path = obs::Value::from(self.path.display().to_string());
            obs::info(target, "spool_rotated", &[("path", path)]);
        }
        Ok(())
    }

    /// Whether the live segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Seal the live segment: it becomes `<name>.jsonl.1`, replacing any
    /// previous sealed segment, and appends continue in a fresh live
    /// file. Reads and rewrites nothing; syncs only the directory, and
    /// only with `fsync`.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, when the rename fails. A failed reopen
    /// is not an error here: the next append retries it, and reports it.
    pub fn rotate(&mut self) -> io::Result<()> {
        fs::rename(&self.path, sealed_path(&self.path))?;
        self.bytes = 0;
        self.file = open_append(&self.path, self.fsync).ok();
        Ok(())
    }

    /// Delete the sealed segment; a missing one is not an error.
    ///
    /// # Errors
    ///
    /// Fails when the file exists but cannot be removed.
    pub fn delete_sealed(&self) -> io::Result<()> {
        match fs::remove_file(sealed_path(&self.path)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC-32 check values
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 the table version replaced: eight shift/xor
    /// rounds per byte.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_reference() {
        // xorshift64 with a fixed seed: random lengths and bytes
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 1024) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "input {data:?}");
        }
    }

    #[test]
    fn judge_line_distinguishes_every_verdict() {
        // checksummed line → Verified
        let framed = frame_spool_line(r#"{"tenant":"t"}"#).trim_end().to_string();
        assert_eq!(judge_line(&framed), LineVerdict::Verified);
        // bare JSON object (pre-CRC spool) → Legacy
        assert_eq!(judge_line(r#"{"tenant":"t"}"#), LineVerdict::Legacy);
        // legacy JSON containing a literal tab in a string still judges
        // correctly: the suffix after the tab is not an 8-hex CRC
        assert_eq!(judge_line("{\"note\":\"a\tb\"}"), LineVerdict::Legacy);
        // wrong checksum → Corrupt (not legacy: the tab suffix breaks parse)
        let mut tampered = framed.clone();
        tampered.replace_range(..1, " ");
        assert_eq!(judge_line(&tampered), LineVerdict::Corrupt);
        // torn fragments and non-object JSON → Corrupt
        assert_eq!(judge_line(r#"{"tenant":"t"#), LineVerdict::Corrupt);
        assert_eq!(judge_line("[1,2,3]"), LineVerdict::Corrupt);
        assert_eq!(judge_line(""), LineVerdict::Corrupt);
        // an 8-hex suffix guarding different bytes → Corrupt
        let (json, crc) = framed.rsplit_once('\t').unwrap();
        let mismatched = format!("{json} \t{crc}");
        assert_eq!(judge_line(&mismatched), LineVerdict::Corrupt);
        // parse_line agrees: intact lines parse, corrupt ones do not
        assert!(parse_line(&framed).is_some());
        assert!(parse_line(r#"{"tenant":"t"}"#).is_some());
        assert!(parse_line(&tampered).is_none());
        assert!(parse_line("[1,2,3]").is_none());
    }

    #[test]
    fn empty_spool_recovers_to_nothing() {
        let dir = scratch("empty");
        let path = dir.join("incidents.jsonl");
        fs::write(&path, "").unwrap();
        assert_eq!(repair_spool(&path).unwrap(), SpoolRecovery::default());
        // missing file behaves the same
        assert_eq!(
            repair_spool(&dir.join("absent.jsonl")).unwrap(),
            SpoolRecovery::default()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_tenant_names_map_to_safe_stems() {
        assert_eq!(
            sanitize_tenant("../../etc/passwd"),
            "______etc_passwd-df406b03"
        );
        assert_eq!(sanitize_tenant("ok-Tenant_9"), "ok-Tenant_9");
        assert_eq!(sanitize_tenant(""), "_-00000000");
    }

    #[test]
    fn distinct_lossy_tenant_names_get_distinct_stems() {
        // Without the hash suffix both would collapse to "a_b" — one WAL
        // segment and one checkpoint path shared by two tenants.
        let a = sanitize_tenant("a.b");
        let b = sanitize_tenant("a:b");
        assert_ne!(a, b);
        assert!(a.starts_with("a_b-") && b.starts_with("a_b-"));
        // a lossy stem never shadows the identical already-safe name
        assert_ne!(a, sanitize_tenant("a_b"));
        // idempotent: feeding a stem back through is the identity
        for stem in [a, b, sanitize_tenant(""), sanitize_tenant("safe")] {
            assert_eq!(sanitize_tenant(&stem), stem);
        }
    }
}
