//! The generator side of a daemon workload: one NDJSON connection written
//! by the calling thread and read by one reader thread, so the generator
//! holds two threads and, with the control connection it opens between
//! phases, at most two connections.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The phase a frame was sent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Unpaced warm-up before the measured phases.
    Prefill,
    /// Open loop at the workload's fixed rate.
    Fixed,
    /// Unpaced, limited only by TCP backpressure.
    Saturation,
}

/// One frame the generator sent.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub tenant: usize,
    pub step: usize,
    pub leaves: u32,
    /// When the frame was due (open loop) or written (unpaced), ns since
    /// the run epoch.
    pub due_ns: u64,
    pub phase: Phase,
}

/// What the daemon replied to one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Acked,
    Parked,
    Quarantined,
    Shed,
    Duplicate,
    Error,
}

/// Classify an observe reply; the daemon renders compact JSON, so the
/// probes are exact.
fn classify(reply: &str) -> Verdict {
    if reply.contains(r#""type":"error""#) {
        Verdict::Error
    } else if reply.contains(r#""shed":true"#) {
        Verdict::Shed
    } else if reply.contains(r#""parked":true"#) {
        Verdict::Parked
    } else if reply.contains(r#""quarantined":true"#) {
        Verdict::Quarantined
    } else if reply.contains(r#""duplicate":true"#) {
        Verdict::Duplicate
    } else if reply.contains(r#""queued":true"#) {
        Verdict::Acked
    } else {
        Verdict::Error
    }
}

fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = reply.find(&pat)? + pat.len();
    let rest = reply[start..].trim_start_matches('"');
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// One reply, matched to its frame.
#[derive(Debug, Clone)]
pub struct Reply {
    pub at_ns: u64,
    pub verdict: Verdict,
    pub token: Option<String>,
    /// The daemon's `ack_us` stamp: admission + build + WAL + queue push.
    pub ack_us: Option<f64>,
}

/// The data connection.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    tx: Option<SyncSender<Sent>>,
    reader: Option<JoinHandle<Vec<(Sent, Reply)>>>,
    replies: Arc<AtomicU64>,
    pub sent: u64,
    pub write_error: Option<String>,
}

impl Conn {
    pub fn open(addr: &str, epoch: Instant) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        read_half
            .set_read_timeout(Some(Duration::from_secs(150)))
            .ok();
        let (tx, rx) = sync_channel::<Sent>(1 << 16);
        let replies = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&replies);
        let reader = std::thread::Builder::new()
            .name("bench-acks".to_string())
            .spawn(move || {
                let mut r = BufReader::with_capacity(1 << 16, read_half);
                let mut out = Vec::new();
                let mut line = String::new();
                for sent in rx.iter() {
                    line.clear();
                    let ok = matches!(r.read_line(&mut line), Ok(n) if n > 0);
                    let at_ns = epoch.elapsed().as_nanos() as u64;
                    let reply = if ok {
                        Reply {
                            at_ns,
                            verdict: classify(&line),
                            token: field(&line, "frame").map(str::to_string),
                            ack_us: field(&line, "ack_us").and_then(|v| v.parse().ok()),
                        }
                    } else {
                        Reply {
                            at_ns,
                            verdict: Verdict::Error,
                            token: None,
                            ack_us: None,
                        }
                    };
                    out.push((sent, reply));
                    counter.fetch_add(1, Ordering::Release);
                }
                out
            })
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: BufWriter::with_capacity(1 << 16, stream),
            tx: Some(tx),
            reader: Some(reader),
            replies,
            sent: 0,
            write_error: None,
        })
    }

    /// Write one frame; `flush` sends it now (open loop), otherwise it
    /// leaves with the buffer (saturation).
    pub fn send(&mut self, sent: Sent, line: &str, flush: bool) {
        if self.write_error.is_some() {
            return;
        }
        let tx = self.tx.as_ref().expect("connection open");
        if let Err(TrySendError::Full(sent)) = tx.try_send(sent) {
            // the reader waits on bytes still in our buffer
            if let Err(e) = self.writer.flush() {
                self.write_error = Some(e.to_string());
                return;
            }
            if tx.send(sent).is_err() {
                self.write_error = Some("ack reader ended".to_string());
                return;
            }
        }
        self.sent += 1;
        let wrote = self.writer.write_all(line.as_bytes()).and_then(|()| {
            if flush {
                self.writer.flush()
            } else {
                Ok(())
            }
        });
        if let Err(e) = wrote {
            self.write_error = Some(e.to_string());
        }
    }

    pub fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.write_error.get_or_insert(e.to_string());
        }
    }

    /// Replies received so far.
    pub fn replies(&self) -> u64 {
        self.replies.load(Ordering::Acquire)
    }

    /// Wait, calling `idle` every millisecond, until every frame sent so
    /// far has its reply.
    pub fn wait_replies(&mut self, mut idle: impl FnMut()) -> Result<(), String> {
        self.flush();
        let deadline = Instant::now() + Duration::from_secs(150);
        while self.replies() < self.sent {
            if self.write_error.is_some() || Instant::now() > deadline {
                return Err(format!(
                    "{} of {} frames answered ({})",
                    self.replies(),
                    self.sent,
                    self.write_error
                        .clone()
                        .unwrap_or_else(|| "timeout".to_string())
                ));
            }
            idle();
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Close the connection and collect every frame with its reply.
    pub fn finish(mut self) -> Vec<(Sent, Reply)> {
        self.flush();
        drop(self.tx.take());
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Write);
        self.reader
            .take()
            .expect("reader joined once")
            .join()
            .expect("ack reader panicked")
    }
}

/// Sleep until `due_ns` after `epoch`, calling `idle` about every
/// millisecond; returns how late the wake-up was, in ns.
pub fn wait_until(epoch: Instant, due_ns: u64, mut idle: impl FnMut()) -> u64 {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now - due_ns;
        }
        let left = due_ns - now;
        if left > 1_500_000 {
            idle();
            let left = due_ns.saturating_sub(epoch.elapsed().as_nanos() as u64);
            std::thread::sleep(Duration::from_nanos(
                left.saturating_sub(500_000).min(1_000_000),
            ));
        } else if left > 200_000 {
            std::thread::sleep(Duration::from_nanos(left - 150_000));
        } else {
            std::thread::yield_now();
        }
    }
}
