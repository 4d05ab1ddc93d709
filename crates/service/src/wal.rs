//! The frame write-ahead log: admitted frames journaled before queueing.
//!
//! Crash consistency for rapd rests on one rule: **a frame that was
//! acknowledged on the wire is never lost**. The observe verb appends
//! every admitted frame to a per-tenant journal under `<spool_dir>/wal/`
//! *before* handing it to the shard queues; on startup the daemon replays
//! the journaled entries past the last checkpoint's acknowledgment, so a
//! `kill -9` loses nothing past admission.
//!
//! Each journal is a [`SegmentLog`]: `{json}\t{crc32:08x}` lines, torn
//! tails repaired when it is opened — a crash mid-append costs at most
//! the line being written, which is exactly the frame that was never
//! acknowledged.
//!
//! By default an append is flushed (not fsynced) before the wire
//! acknowledgment: the line is in the kernel page cache, which survives
//! any *process* death (`kill -9`, OOM, panic) but not power loss or a
//! kernel panic. Opening the WAL with `fsync` (`--wal-fsync`) upgrades
//! the guarantee to machine-crash durability by `sync_data`ing every
//! append, at a per-frame fsync cost.
//!
//! Two kinds of journal live here:
//!
//! * `<stem>.jsonl` (+ `<stem>.jsonl.1`) — one [`WalEntry`] per admitted
//!   frame. Compaction after a checkpoint deletes whole segments: the
//!   sealed `.1` once every entry in it is acknowledged, then the live
//!   segment is sealed in its place (and deleted at once if it too is
//!   fully acknowledged). Compaction reads and rewrites nothing (with
//!   `fsync` it syncs only the directory of the re-created live segment)
//!   — the WAL keeps each segment's unacknowledged `(tenant, seq)` pairs
//!   in memory, so tenants whose names share a stem ack only their own
//!   entries. An acknowledged entry that shares a segment with an
//!   unacknowledged one stays on disk until a later checkpoint covers the
//!   whole segment; replay skips it by sequence.
//! * `schemas.jsonl` — an append-only journal of registered tenant
//!   schemas, loaded before replay so replayed frames can be re-resolved
//!   (the in-memory schema map dies with the process). A tenant named
//!   `schemas` journals its frames here too; this file is never sealed or
//!   deleted.
//!
//! Each stem's journal has its own lock, so one tenant's compaction
//! never waits for, or holds up, another tenant's append.
//!
//! Like every log in this crate, appends are infallible from the caller's
//! perspective: a write failure latches the WAL into degraded
//! (journal-less) mode — one warning event, `rapd_wal_append_errors_total`
//! counted — rather than failing ingestion. Durability degrades; service
//! does not.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

use crate::json::Json;
use crate::log::{read_docs, sanitize_tenant, sealed_path, SegmentLog, Store};
use crate::metrics::Metrics;
use crate::sync::{lock_recover, read_recover, write_recover};

/// A journaled schema: the attribute parts (`(name, element names)`) a
/// tenant registered, exactly as `Request::Schema` carries them.
pub type SchemaParts = Vec<(String, Vec<String>)>;

/// One journaled frame: everything needed to re-ingest it byte-identically
/// after a crash. The tenant rides inside the JSON (not just the file
/// stem) because stems are sanitized lossily.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The tenant that sent the frame.
    pub tenant: String,
    /// The frame's correlation token, re-adopted verbatim at replay so
    /// incident records match the pre-crash run byte for byte.
    pub frame: String,
    /// The token's process-wide sequence number — the dedup and
    /// compaction watermark.
    pub seq: u64,
    /// The frame's event timestamp (milliseconds), when it carried one.
    pub ts: Option<u64>,
    /// The admitted (post-repair) wire rows. Always finite: admission
    /// quarantines non-finite frames before the WAL sees them.
    pub rows: Vec<(Vec<String>, f64)>,
}

impl WalEntry {
    /// The JSON form journaled to disk.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::str(&self.tenant)),
            ("frame", Json::str(&self.frame)),
            ("seq", Json::Num(self.seq as f64)),
            ("ts", self.ts.map_or(Json::Null, |t| Json::Num(t as f64))),
            ("rows", rows_to_json(&self.rows)),
        ])
    }

    /// Parse one journaled entry; `None` when the shape is wrong (a
    /// foreign or future-format line — skipped, never fatal).
    pub fn from_json(doc: &Json) -> Option<WalEntry> {
        let rows = doc
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|row| {
                let row = row.as_arr()?;
                Some((strings(row.first()?)?, row.get(1)?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(WalEntry {
            tenant: doc.get("tenant")?.as_str()?.to_string(),
            frame: doc.get("frame")?.as_str()?.to_string(),
            seq: doc.get("seq")?.as_u64()?,
            ts: doc.get("ts").and_then(Json::as_u64),
            rows,
        })
    }
}

/// Rows as `[[name, ...], value]` arrays — their form in journal
/// entries, quarantine records and observe lines.
pub(crate) fn rows_to_json(rows: &[(Vec<String>, f64)]) -> Json {
    let row = |(names, value): &(Vec<String>, f64)| {
        Json::Arr(vec![
            Json::Arr(names.iter().map(Json::str).collect()),
            Json::Num(*value),
        ])
    };
    Json::Arr(rows.iter().map(row).collect())
}

/// Schema parts as `[name, [element, ...]]` arrays — their form in the
/// schema journal and in schema lines.
pub(crate) fn parts_to_json(parts: &[(String, Vec<String>)]) -> Json {
    let part = |(name, elements): &(String, Vec<String>)| {
        Json::Arr(vec![
            Json::str(name),
            Json::Arr(elements.iter().map(Json::str).collect()),
        ])
    };
    Json::Arr(parts.iter().map(part).collect())
}

/// An array of strings; `None` when any element is not one.
fn strings(doc: &Json) -> Option<Vec<String>> {
    doc.as_arr()?
        .iter()
        .map(|s| Some(s.as_str()?.to_string()))
        .collect()
}

/// The stem of the schema journal, `schemas.jsonl`.
const SCHEMAS: &str = "schemas";

/// The per-tenant frame journals under `<spool_dir>/wal/`.
#[derive(Debug)]
pub(crate) struct FrameWal {
    dir: PathBuf,
    /// One journal per stem, the schema journal's included, each behind
    /// its own lock. The registry lock is held only to look a journal up,
    /// or exclusively — once per stem — to open it.
    journals: RwLock<HashMap<String, Arc<Mutex<Journal>>>>,
    metrics: Arc<Metrics>,
    /// `sync_data` every append (machine-crash durability) instead of
    /// relying on the page cache (process-crash durability).
    fsync: bool,
}

/// The `(tenant, seq)` of each entry in a segment that no checkpoint has
/// acknowledged yet.
type Unacked = Vec<(String, u64)>;

/// One stem's journal, and per segment what compaction needs to know
/// without reading it: the entries still unacknowledged. They carry their
/// tenant, so tenants whose names share a stem ack only their own.
#[derive(Debug)]
struct Journal {
    log: SegmentLog,
    live: Unacked,
    /// `None` when there is no sealed `.1` segment.
    sealed: Option<Unacked>,
}

impl Journal {
    fn depth(&self) -> usize {
        self.live.len() + self.sealed.as_ref().map_or(0, Vec::len)
    }

    /// Forget `tenant`'s entries up to `ack`, then delete each segment left
    /// with none unacknowledged: the sealed one; then, with no sealed
    /// segment left, seal the live one (when `seal`) and delete that too if
    /// it is fully acknowledged. Returns the number of segments deleted.
    fn compact(&mut self, tenant: &str, ack: u64, seal: bool) -> std::io::Result<u64> {
        for segment in std::iter::once(&mut self.live).chain(&mut self.sealed) {
            segment.retain(|(t, seq)| t != tenant || *seq > ack);
        }
        let mut deleted = 0;
        loop {
            if self.sealed.as_ref().is_some_and(Vec::is_empty) {
                self.log.delete_sealed()?;
                self.sealed = None;
                deleted += 1;
            }
            if self.sealed.is_some() || self.log.is_empty() || !seal {
                return Ok(deleted);
            }
            self.log.rotate()?;
            self.sealed = Some(std::mem::take(&mut self.live));
        }
    }
}

impl FrameWal {
    /// Open (creating) the `<spool_dir>/wal/` journal directory and its
    /// schema journal. With `fsync`, every append is `sync_data`'d before
    /// the caller (and therefore the wire acknowledgment) proceeds —
    /// durability against power loss, at a per-frame fsync cost; without
    /// it, a flushed line survives `kill -9` but sits in the page cache
    /// until the kernel writes it back.
    ///
    /// # Errors
    ///
    /// Fails when the directory or the schema journal cannot be created.
    pub fn open(spool_dir: &Path, metrics: Arc<Metrics>, fsync: bool) -> std::io::Result<Self> {
        let dir = spool_dir.join("wal");
        fs::create_dir_all(&dir)?;
        let wal = FrameWal {
            dir,
            journals: RwLock::new(HashMap::new()),
            metrics,
            fsync,
        };
        // fail now, not at the first registration, when it cannot be created
        wal.open_journal(SCHEMAS)?;
        Ok(wal)
    }

    /// Whether an append error has latched the WAL into journal-less mode.
    pub fn is_degraded(&self) -> bool {
        Store::Wal.is_degraded(&self.metrics)
    }

    /// Open one stem's journal: repair the live segment's torn tail and
    /// scan both segments for their entries, which are returned too (the
    /// replay stream).
    fn open_journal(&self, stem: &str) -> std::io::Result<(Journal, Vec<WalEntry>)> {
        let path = self.dir.join(format!("{stem}.jsonl"));
        let sealed = sealed_path(&path);
        let metrics = Arc::clone(&self.metrics);
        let (log, _) = SegmentLog::open(path.clone(), 0, self.fsync, Store::Wal, metrics)?;
        let mut entries = Vec::new();
        let mut scan = |segment: &Path| -> Unacked {
            let start = entries.len();
            entries.extend(read_docs(segment).iter().filter_map(WalEntry::from_json));
            entries[start..]
                .iter()
                .map(|e| (e.tenant.clone(), e.seq))
                .collect()
        };
        let journal = Journal {
            sealed: sealed.exists().then(|| scan(&sealed)),
            live: scan(&path),
            log,
        };
        Ok((journal, entries))
    }

    /// The journal of `stem`, opened on first use. `None` when it cannot
    /// be opened — which degrades the WAL.
    fn journal(&self, stem: String) -> Option<Arc<Mutex<Journal>>> {
        if let Some(journal) = read_recover(&self.journals).get(&stem) {
            return Some(Arc::clone(journal));
        }
        let mut journals = write_recover(&self.journals);
        if let Some(journal) = journals.get(&stem) {
            return Some(Arc::clone(journal));
        }
        match self.open_journal(&stem) {
            Ok((journal, _)) => {
                let depth = journal.depth() as u64;
                self.metrics.wal_depth.fetch_add(depth, Ordering::Relaxed);
                let journal = Arc::new(Mutex::new(journal));
                journals.insert(stem, Arc::clone(&journal));
                Some(journal)
            }
            Err(e) => {
                let path = self.dir.join(format!("{stem}.jsonl"));
                Store::Wal.trip(&self.metrics, &path, &e);
                None
            }
        }
    }

    /// Append one admitted frame to its tenant's journal, flushed
    /// immediately so a `kill -9` right after the wire acknowledgment
    /// still finds the frame on disk. Infallible: a write failure latches
    /// degraded mode instead of failing the ingest path.
    pub fn append(&self, entry: &WalEntry) {
        if self.is_degraded() {
            return;
        }
        let json = entry.to_json().render();
        let Some(journal) = self.journal(sanitize_tenant(&entry.tenant)) else {
            return;
        };
        let mut journal = lock_recover(&journal);
        if journal.log.append(&json) {
            journal.live.push((entry.tenant.clone(), entry.seq));
            self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
            self.metrics.wal_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A checkpoint now covers every entry of `tenant` with
    /// `seq <= ack_seq`: forget them from the depth gauge and delete the
    /// segments they fill (see the module docs). Holds only this stem's
    /// lock, across a rename and at most two unlinks.
    pub fn compact(&self, tenant: &str, ack_seq: u64) {
        let stem = sanitize_tenant(tenant);
        let Some(journal) = read_recover(&self.journals).get(&stem).cloned() else {
            return;
        };
        let mut journal = lock_recover(&journal);
        let before = journal.depth();
        // the schema journal's registrations are never acknowledged, so
        // its file is never sealed or deleted
        let result = journal.compact(tenant, ack_seq, stem != SCHEMAS);
        let acked = (before - journal.depth()) as u64;
        self.metrics.wal_depth.fetch_sub(acked, Ordering::Relaxed);
        match result {
            Ok(deleted) => {
                self.metrics
                    .wal_compactions
                    .fetch_add(deleted, Ordering::Relaxed);
            }
            Err(e) => obs::warn(
                "rapd.wal",
                "wal_compact_failed",
                &[("tenant", tenant.into()), ("error", e.to_string().into())],
            ),
        }
    }

    /// Open every journal on disk, repairing torn tails, and return the
    /// journaled entries ordered by sequence number — the replay stream.
    /// Unparseable (foreign-format) lines are skipped, never fatal: a
    /// journal that cannot be fully read must still yield what it can.
    pub fn recover(&self) -> Vec<WalEntry> {
        let mut journals = write_recover(&self.journals);
        journals.clear();
        let mut entries = Vec::new();
        let mut depth = 0;
        let mut stems: Vec<String> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|dirent| {
                let name = dirent.file_name().into_string().ok()?;
                let stem = name
                    .strip_suffix(".jsonl")
                    .or_else(|| name.strip_suffix(".jsonl.1"))?;
                Some(stem.to_string())
            })
            .collect();
        stems.sort();
        stems.dedup();
        for stem in stems {
            match self.open_journal(&stem) {
                Ok((journal, found)) => {
                    depth += journal.depth() as u64;
                    entries.extend(found);
                    journals.insert(stem, Arc::new(Mutex::new(journal)));
                }
                Err(e) => obs::warn(
                    "rapd.wal",
                    "wal_segment_unreadable",
                    &[("stem", stem.into()), ("error", e.to_string().into())],
                ),
            }
        }
        self.metrics.wal_depth.store(depth, Ordering::Relaxed);
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Journal one tenant's registered schema so replay can re-resolve
    /// its frames after a restart. Append-only; duplicates are fine (the
    /// last entry for a tenant wins at recovery).
    pub fn append_schema(&self, tenant: &str, parts: &[(String, Vec<String>)]) {
        let doc = Json::obj([
            ("tenant", Json::str(tenant)),
            ("attrs", parts_to_json(parts)),
        ]);
        if let Some(journal) = self.journal(SCHEMAS.to_string()) {
            lock_recover(&journal).log.append(&doc.render());
        }
    }

    /// Load the schema journal: `(tenant, attribute parts)` with the last
    /// entry per tenant winning.
    pub fn recover_schemas(&self) -> Vec<(String, SchemaParts)> {
        read_schemas(&self.dir)
    }
}

/// Read one tenant's journaled entries with `seq > after_seq` from a
/// spool directory, **read-only** — no repair, no truncation, no handle
/// caching. The fleet handoff protocol uses this to lift a tenant's WAL
/// suffix out of a *live* worker's spool: the worker keeps appending for
/// other tenants, so the reader must not rewrite its files. A torn tail
/// (should the worker die mid-append during the copy) simply fails to
/// parse and is skipped — exactly what the worker's own recovery would
/// have discarded.
pub fn read_tenant_suffix(spool_dir: &Path, tenant: &str, after_seq: u64) -> Vec<WalEntry> {
    let path = spool_dir
        .join("wal")
        .join(format!("{}.jsonl", sanitize_tenant(tenant)));
    let mut entries: Vec<WalEntry> = [sealed_path(&path), path]
        .iter()
        .flat_map(|segment| read_docs(segment))
        .filter_map(|doc| WalEntry::from_json(&doc))
        .filter(|e| e.tenant == tenant && e.seq > after_seq)
        .collect();
    entries.sort_by_key(|e| e.seq);
    entries
}

/// Read one tenant's journaled schema parts from a spool directory,
/// read-only (last entry wins). The handoff fallback when the router has
/// not seen the tenant's schema line itself.
pub fn read_schema_parts(spool_dir: &Path, tenant: &str) -> Option<SchemaParts> {
    read_schemas(&spool_dir.join("wal"))
        .into_iter()
        .find(|(t, _)| t == tenant)
        .map(|(_, parts)| parts)
}

/// Every tenant's latest journaled schema under a WAL directory, in
/// order of first registration.
fn read_schemas(dir: &Path) -> Vec<(String, SchemaParts)> {
    let mut latest: Vec<(String, SchemaParts)> = Vec::new();
    for parsed in read_docs(&dir.join("schemas.jsonl"))
        .iter()
        .filter_map(parse_schema_entry)
    {
        match latest.iter_mut().find(|(t, _)| *t == parsed.0) {
            Some(slot) => slot.1 = parsed.1,
            None => latest.push(parsed),
        }
    }
    latest
}

fn parse_schema_entry(doc: &Json) -> Option<(String, SchemaParts)> {
    let tenant = doc.get("tenant")?.as_str()?.to_string();
    let parts = doc
        .get("attrs")?
        .as_arr()?
        .iter()
        .map(|attr| {
            let attr = attr.as_arr()?;
            Some((attr.first()?.as_str()?.to_string(), strings(attr.get(1)?)?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((tenant, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::frame_spool_line;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::new(1))
    }

    impl FrameWal {
        /// The `rapd_wal_depth` gauge: entries no checkpoint has
        /// acknowledged yet, across all tenants.
        fn depth(&self) -> u64 {
            self.metrics.wal_depth.load(Ordering::Relaxed)
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(tenant: &str, seq: u64, ts: Option<u64>) -> WalEntry {
        WalEntry {
            tenant: tenant.to_string(),
            frame: format!("{tenant}-{seq:08x}-1754700000123"),
            seq,
            ts,
            rows: vec![
                (vec!["L1".to_string(), "S1".to_string()], 100.5),
                (vec!["L2".to_string(), "S2".to_string()], 0.25),
            ],
        }
    }

    /// The replay stream boot feeds the shards: every recovered entry
    /// past its tenant's checkpoint acknowledgment, as `(tenant, seq)`.
    fn replay(wal: &FrameWal, acks: &[(&str, u64)]) -> Vec<(String, u64)> {
        wal.recover()
            .into_iter()
            .filter(|e| {
                let ack = acks.iter().find(|(t, _)| *t == e.tenant).map_or(0, |a| a.1);
                e.seq > ack
            })
            .map(|e| (e.tenant, e.seq))
            .collect()
    }

    /// The compaction invariant on disk: `tenant` has at most two segment
    /// files, and none of them holds only entries `ack` covers.
    fn assert_no_fully_acked_segment(dir: &Path, tenant: &str, ack: u64) {
        let live = dir
            .join("wal")
            .join(format!("{}.jsonl", sanitize_tenant(tenant)));
        let segments: Vec<Vec<u64>> = [sealed_path(&live), live]
            .iter()
            .filter(|p| p.exists())
            .map(|p| {
                read_docs(p)
                    .iter()
                    .filter_map(WalEntry::from_json)
                    .map(|e| e.seq)
                    .collect()
            })
            .collect();
        assert!(segments.len() <= 2, "{tenant}: {segments:?}");
        for seqs in &segments {
            assert!(
                seqs.is_empty() || seqs.iter().any(|&seq| seq > ack),
                "{tenant}: segment {seqs:?} holds only entries acked by {ack}"
            );
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let e = entry("edge", 42, Some(60_000));
        let doc = crate::json::parse(&e.to_json().render()).unwrap();
        assert_eq!(WalEntry::from_json(&doc), Some(e));
        let no_ts = entry("edge", 7, None);
        let doc = crate::json::parse(&no_ts.to_json().render()).unwrap();
        assert_eq!(WalEntry::from_json(&doc), Some(no_ts));
        // foreign shapes are skipped, not fatal
        let junk = crate::json::parse(r#"{"tenant":"t","seq":"not-a-number"}"#).unwrap();
        assert_eq!(WalEntry::from_json(&junk), None);
    }

    #[test]
    fn appended_entries_recover_in_seq_order_across_reopen() {
        let dir = scratch("recover");
        let m = metrics();
        {
            let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
            wal.append(&entry("b", 2, None));
            wal.append(&entry("a", 1, Some(5)));
            wal.append(&entry("a", 3, Some(6)));
            assert_eq!(wal.depth(), 3);
            assert_eq!(m.wal_appends.load(Ordering::Relaxed), 3);
        }
        // a fresh process opens the same directory
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let entries = wal.recover();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [1, 2, 3],
            "replay order is the global admission order"
        );
        assert_eq!(entries[0].tenant, "a");
        assert_eq!(entries[1].tenant, "b");
        assert_eq!(entries[0].rows.len(), 2);
        assert_eq!(wal.depth(), 3, "recovery rebuilds the depth gauge");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_acknowledged_prefix_and_keeps_appending() {
        let dir = scratch("compact");
        let m = metrics();
        let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
        for seq in 1..=4 {
            wal.append(&entry("t", seq, None));
        }
        wal.compact("t", 3);
        assert_eq!(wal.depth(), 1);
        assert_no_fully_acked_segment(&dir, "t", 3);
        // appends continue into a fresh live segment
        wal.append(&entry("t", 5, None));
        assert_eq!(
            replay(&wal, &[("t", 3)]),
            [("t".to_string(), 4), ("t".to_string(), 5)],
            "only the unacknowledged suffix survives"
        );
        // acking everything deletes both segments, leaving an empty live one
        wal.compact("t", 5);
        assert_eq!(m.wal_compactions.load(Ordering::Relaxed), 2);
        assert_eq!(wal.depth(), 0);
        assert!(!dir.join("wal/t.jsonl.1").exists());
        assert_eq!(fs::read_to_string(dir.join("wal/t.jsonl")).unwrap(), "");
        assert_eq!(wal.recover().len(), 0);
        // a tenant with no segment is a no-op, not an error
        wal.compact("ghost", 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_matches_a_model_under_random_appends_acks_and_reopens() {
        const TENANTS: [&str; 2] = ["edge", "core.eu"];
        for seed in 1..=16u64 {
            let dir = scratch(&format!("model-{seed}"));
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut wal = FrameWal::open(&dir, metrics(), false).unwrap();
            // the model: every appended (tenant, seq), and each tenant's ack
            let mut appended: Vec<(usize, u64)> = Vec::new();
            let mut acks = [0u64; 2];
            let mut seq = 0u64;
            for step in 0..150 {
                let t = (next() % 2) as usize;
                let op = next() % 10;
                match op {
                    0..=5 => {
                        seq += 1;
                        wal.append(&entry(TENANTS[t], seq, None));
                        appended.push((t, seq));
                    }
                    6..=8 => {
                        acks[t] += next() % (seq - acks[t] + 1);
                        wal.compact(TENANTS[t], acks[t]);
                    }
                    _ => {
                        // crash and reboot: boot replays past each
                        // checkpoint's ack and re-applies it
                        drop(wal);
                        wal = FrameWal::open(&dir, metrics(), false).unwrap();
                        let replayed =
                            replay(&wal, &[(TENANTS[0], acks[0]), (TENANTS[1], acks[1])]);
                        let expected: Vec<(String, u64)> = appended
                            .iter()
                            .filter(|(t, s)| *s > acks[*t])
                            .map(|(t, s)| (TENANTS[*t].to_string(), *s))
                            .collect();
                        assert_eq!(replayed, expected, "seed {seed} step {step}: replay");
                        for (t, tenant) in TENANTS.iter().enumerate() {
                            wal.compact(tenant, acks[t]);
                        }
                    }
                }
                let unacked = |t: usize| -> Vec<u64> {
                    appended
                        .iter()
                        .filter(|(u, s)| *u == t && *s > acks[t])
                        .map(|(_, s)| *s)
                        .collect()
                };
                for (t, tenant) in TENANTS.iter().enumerate() {
                    let suffix: Vec<u64> = read_tenant_suffix(&dir, tenant, acks[t])
                        .iter()
                        .map(|e| e.seq)
                        .collect();
                    assert_eq!(suffix, unacked(t), "seed {seed} step {step}: {tenant}");
                    assert_no_fully_acked_segment(&dir, tenant, acks[t]);
                }
                assert_eq!(
                    wal.depth(),
                    (unacked(0).len() + unacked(1).len()) as u64,
                    "seed {seed} step {step} op {op}: depth"
                );
            }
            drop(wal);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn single_file_journal_from_before_segments_replays_unchanged() {
        // the journal layout before segment rotation: one `<stem>.jsonl`
        // holding every unacknowledged entry, no `.1`
        let dir = scratch("parent-layout");
        fs::create_dir_all(dir.join("wal")).unwrap();
        let written: Vec<WalEntry> = (4..=7).map(|seq| entry("edge", seq, Some(seq))).collect();
        let journal: String = written
            .iter()
            .map(|e| frame_spool_line(&e.to_json().render()))
            .collect();
        fs::write(dir.join("wal/edge.jsonl"), &journal).unwrap();
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        assert_eq!(wal.recover(), written);
        assert_eq!(wal.depth(), 4);
        assert_eq!(read_tenant_suffix(&dir, "edge", 5), written[2..]);
        // and it compacts like any other journal
        wal.compact("edge", 5);
        assert_eq!(wal.depth(), 2);
        assert_no_fully_acked_segment(&dir, "edge", 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_recovery() {
        let dir = scratch("torn");
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append(&entry("t", 1, None));
            wal.append(&entry("t", 2, None));
        }
        // simulate kill -9 mid-append: half a line, no newline
        let path = dir.join("wal/t.jsonl");
        let mut data = fs::read_to_string(&path).unwrap();
        data.push_str("{\"tenant\":\"t\",\"frame\":\"t-00");
        fs::write(&path, &data).unwrap();
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let entries = wal.recover();
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
        // the repair also rewrote the file, so a second scan is clean
        let clean = fs::read_to_string(&path).unwrap();
        assert_eq!(clean.lines().count(), 2);
        assert!(clean.ends_with('\n'));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_failure_latches_degraded_mode() {
        let dir = scratch("degraded");
        let m = metrics();
        let wal = FrameWal::open(&dir, Arc::clone(&m), false).unwrap();
        // occupy the tenant's segment path with a directory so the lazy
        // open fails — a stand-in for a full or vanished volume
        fs::create_dir_all(dir.join("wal/t.jsonl")).unwrap();
        wal.append(&entry("t", 1, None));
        assert!(wal.is_degraded());
        assert_eq!(m.wal_append_errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.wal_appends.load(Ordering::Relaxed), 0);
        // further appends are silently skipped — service over durability
        wal.append(&entry("other", 2, None));
        assert_eq!(m.wal_append_errors.load(Ordering::Relaxed), 1);
        assert!(!dir.join("wal/other.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_tenant_names_cannot_escape_the_wal_directory() {
        let dir = scratch("hostile");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        wal.append(&entry("../escape", 1, None));
        assert!(dir.join("wal/___escape-ed1965a3.jsonl").is_file());
        assert!(!dir.parent().unwrap().join("escape.jsonl").exists());
        // the entry still recovers under its true tenant name
        let entries = wal.recover();
        assert_eq!(entries[0].tenant, "../escape");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_never_vanish_into_a_compaction() {
        // Compaction seals and deletes segments while the tenant's
        // appends stream in; the tenant lock orders each append wholly
        // before or after a rotation, so no line lands in a deleted file.
        let dir = scratch("race");
        let wal = Arc::new(FrameWal::open(&dir, metrics(), false).unwrap());
        const TOTAL: u64 = 300;
        const ACK: u64 = 100;
        let appender = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for seq in 1..=TOTAL {
                    wal.append(&entry("t", seq, None));
                }
            })
        };
        // hammer compaction with a fixed ack while appends stream in
        for _ in 0..200 {
            wal.compact("t", ACK);
        }
        appender.join().unwrap();
        wal.compact("t", ACK);
        assert_eq!(wal.depth(), TOTAL - ACK, "depth matches the survivors");
        assert_no_fully_acked_segment(&dir, "t", ACK);
        assert_eq!(
            replay(&wal, &[("t", ACK)]),
            (ACK + 1..=TOTAL)
                .map(|seq| ("t".to_string(), seq))
                .collect::<Vec<_>>(),
            "every unacknowledged append survives concurrent compaction"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_only_drops_the_acking_tenants_entries() {
        // Defense in depth: if two tenants ever did share a segment
        // (they cannot since stems are collision-free, but a hand-moved
        // spool might), one tenant's ack must not discard the other's
        // unacknowledged frames. Forge a shared segment by hand.
        let dir = scratch("shared");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let mut forged = String::new();
        for e in [
            entry("x", 1, None),
            entry("y", 2, None),
            entry("x", 3, None),
        ] {
            forged.push_str(&frame_spool_line(&e.to_json().render()));
        }
        fs::write(dir.join("wal/x.jsonl"), forged).unwrap();
        wal.recover();
        wal.compact("x", 10);
        assert_eq!(
            wal.depth(),
            1,
            "only the foreign entry stays unacknowledged"
        );
        assert_eq!(
            replay(&wal, &[("x", 10)]),
            [("y".to_string(), 2)],
            "the foreign tenant's entry survives x's blanket ack"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_mode_appends_and_recovers_like_the_default() {
        let dir = scratch("fsync");
        let wal = FrameWal::open(&dir, metrics(), true).unwrap();
        wal.append(&entry("t", 1, Some(9)));
        wal.append(&entry("t", 2, None));
        wal.compact("t", 1);
        assert_eq!(wal.depth(), 1);
        assert_no_fully_acked_segment(&dir, "t", 1);
        assert_eq!(replay(&wal, &[("t", 1)]), [("t".to_string(), 2)]);
        // acking the rest deletes both segments, leaving an empty live one
        wal.compact("t", 2);
        assert_eq!(wal.depth(), 0);
        assert!(!dir.join("wal/t.jsonl.1").exists());
        assert_eq!(fs::read_to_string(dir.join("wal/t.jsonl")).unwrap(), "");
        assert!(wal.recover().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenants_sharing_a_stem_only_ack_their_own_entries() {
        // `a.b` hashes to the stem `a_b-<crc32>`, which is itself a safe
        // name that another tenant may send verbatim: both share a journal
        let lossy = "a.b";
        let verbatim = sanitize_tenant(lossy);
        let dir = scratch("collide");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        for seq in 1..=4 {
            let tenant = if seq % 2 == 1 {
                lossy
            } else {
                verbatim.as_str()
            };
            wal.append(&entry(tenant, seq, None));
        }
        wal.compact(lossy, 10);
        assert_eq!(wal.depth(), 2);
        assert_no_fully_acked_segment(&dir, &verbatim, 0);
        let suffix = read_tenant_suffix(&dir, &verbatim, 0);
        assert_eq!(suffix.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 4]);
        assert_eq!(
            replay(&wal, &[(lossy, 10)]),
            [(verbatim.clone(), 2), (verbatim.clone(), 4)],
            "one tenant's ack keeps the other's unacknowledged entries"
        );
        // once the other tenant acks too (after boot's re-applied ack),
        // both segments go
        wal.compact(lossy, 10);
        wal.compact(&verbatim, 4);
        assert_eq!(wal.depth(), 0);
        assert!(!dir.join(format!("wal/{verbatim}.jsonl.1")).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tenant_named_schemas_never_costs_the_schema_journal() {
        let dir = scratch("schemas-tenant");
        let parts = vec![("loc".to_string(), vec!["L1".to_string()])];
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append_schema("edge", &parts);
            wal.append_schema("schemas", &parts);
            for seq in 1..=3 {
                wal.append(&entry("schemas", seq, None));
            }
            wal.compact("schemas", 2);
            wal.compact("schemas", 3);
            assert_eq!(wal.depth(), 0);
            // registrations after the compactions still land
            wal.append_schema("core", &parts);
            wal.append(&entry("schemas", 4, None));
        }
        assert!(!dir.join("wal/schemas.jsonl.1").exists());
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let tenants: Vec<String> = wal.recover_schemas().into_iter().map(|(t, _)| t).collect();
        assert_eq!(tenants, ["edge", "schemas", "core"]);
        // the tenant's frames replay like any other tenant's
        assert_eq!(
            replay(&wal, &[("schemas", 3)]),
            [("schemas".to_string(), 4)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_suffix_reader_filters_by_tenant_and_seq() {
        let dir = scratch("suffix");
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        wal.append(&entry("t", 1, None));
        wal.append(&entry("t", 2, Some(9)));
        wal.append(&entry("t", 5, None));
        wal.append(&entry("other", 3, None));
        wal.append_schema("t", &[("loc".to_string(), vec!["L1".to_string()])]);
        let suffix = read_tenant_suffix(&dir, "t", 1);
        assert_eq!(
            suffix.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [2, 5],
            "only this tenant's entries past the ack"
        );
        // a compaction seals the live segment; the reader spans both
        wal.compact("t", 1);
        wal.append(&entry("t", 6, None));
        assert!(dir.join("wal/t.jsonl.1").is_file());
        assert_eq!(
            read_tenant_suffix(&dir, "t", 1)
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            [2, 5, 6]
        );
        // a torn tail is skipped without touching the file
        let path = dir.join("wal/t.jsonl");
        let before = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{before}{{\"tenant\":\"t\",\"fra")).unwrap();
        assert_eq!(read_tenant_suffix(&dir, "t", 0).len(), 4);
        assert!(
            fs::read_to_string(&path).unwrap().ends_with("\"fra"),
            "the live segment is never rewritten by the read-only path"
        );
        assert_eq!(
            read_schema_parts(&dir, "t"),
            Some(vec![("loc".to_string(), vec!["L1".to_string()])])
        );
        assert_eq!(read_schema_parts(&dir, "ghost"), None);
        // a missing spool yields nothing, not an error
        assert!(read_tenant_suffix(Path::new("/nonexistent"), "t", 0).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_journal_round_trips_with_last_entry_winning() {
        let dir = scratch("schemas");
        let parts_v1 = vec![("loc".to_string(), vec!["L1".to_string()])];
        let parts_v2 = vec![
            ("loc".to_string(), vec!["L1".to_string(), "L2".to_string()]),
            ("isp".to_string(), vec!["I1".to_string()]),
        ];
        {
            let wal = FrameWal::open(&dir, metrics(), false).unwrap();
            wal.append_schema("edge", &parts_v1);
            wal.append_schema("core", &parts_v1);
            wal.append_schema("edge", &parts_v2);
        }
        let wal = FrameWal::open(&dir, metrics(), false).unwrap();
        let schemas = wal.recover_schemas();
        assert_eq!(schemas.len(), 2);
        assert_eq!(schemas[0], ("edge".to_string(), parts_v2));
        assert_eq!(schemas[1], ("core".to_string(), parts_v1));
        // frame recovery skips the schema journal
        assert!(wal.recover().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
