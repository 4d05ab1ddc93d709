//! The fleet worker: a full rapd core behind a framed wire listener.
//!
//! A worker is rapd minus the public NDJSON front door: the same boot
//! (spools, WAL, checkpoint store, shard pool, crash recovery, metrics
//! listener) on its own per-worker spool directory, serving the
//! length-prefixed wire protocol of [`crate::proto`] instead of raw
//! NDJSON. The router is its only client; every connection starts with a
//! version handshake and then carries one envelope per request.
//!
//! Workers are spawned and babysat by the router process (see
//! [`crate::supervisor`]). On boot a worker prints one announce line to
//! stdout — `rapd-worker <i> listening on <addr> wire <v> seq <max>` —
//! which the supervisor parses for the bound address (workers bind port
//! 0) and the recovered sequence watermark. Everything a worker admits is
//! journaled in its own WAL before the acknowledgment crosses the wire,
//! so a `kill -9` of the worker loses nothing the router saw acked: the
//! respawned worker replays its spool, re-announces, and the router
//! redelivers anything that was in flight (deduplicated by the worker's
//! per-tenant sequence watermark).

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::ServiceConfig;
use crate::http::MetricsServer;
use crate::proto::{
    hello_ack_frame, negotiate_hello, read_wire_frame, write_wire_frame, WireEnvelope, WireRead,
    WIRE_VERSION,
};
use crate::server::{boot, configure_stream, dispatch, Shared, StartError};
use crate::shard::LocalizerFactory;
use crate::sync::lock_recover;

/// A running fleet worker. Dropping (or calling [`WorkerHandle::shutdown`])
/// stops the listener, drains the shards, and joins every thread.
pub struct WorkerHandle {
    index: usize,
    listen_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_server: Option<MetricsServer>,
}

impl WorkerHandle {
    /// The bound framed-wire listener address (workers bind port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// The bound Prometheus `/metrics` address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_server
            .as_ref()
            .expect("metrics server runs until shutdown")
            .addr()
    }

    /// The one-line stdout announce the supervisor parses: the worker
    /// index, bound address, wire version, and the highest frame sequence
    /// this worker's crash recovery saw.
    pub fn announce_line(&self) -> String {
        format!(
            "rapd-worker {} listening on {} wire {} seq {}",
            self.index, self.listen_addr, WIRE_VERSION, self.shared.recovered_max_seq
        )
    }

    /// Block until a `shutdown` verb (fanned out by the router) drains
    /// this worker. Returns whether the drain was clean.
    pub fn wait_for_drain(&self) -> bool {
        self.shared.drain.wait()
    }

    /// Stop the listener, drain shard queues, and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_recover(&self.readers));
        for reader in readers {
            let _ = reader.join();
        }
        if self.shared.checkpoints.is_some() {
            self.shared.pool.checkpoint_all(Duration::from_secs(60));
        }
        self.shared.pool.shutdown();
        if let Some(metrics_server) = self.metrics_server.take() {
            metrics_server.shutdown();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Boot one fleet worker: the full rapd core on `config` (spool, WAL,
/// checkpoints, recovery) behind a framed wire listener on
/// `config.listen`.
///
/// # Errors
///
/// [`StartError::Config`] for an invalid [`ServiceConfig`],
/// [`StartError::Io`] when a listener or the spool cannot be created.
pub fn start_worker(
    config: ServiceConfig,
    factory: LocalizerFactory,
    index: usize,
) -> Result<WorkerHandle, StartError> {
    let (shared, metrics_server) = boot(config, factory)?;
    let listener = TcpListener::bind(&shared.config.listen)?;
    let listen_addr = listener.local_addr()?;
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_readers = Arc::clone(&readers);
    let accept = std::thread::Builder::new()
        .name(format!("rapd-worker-{index}-accept"))
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                let reader = std::thread::Builder::new()
                    .name(format!("rapd-worker-{index}-conn"))
                    .spawn(move || serve_connection(stream, &conn_shared, index));
                if let Ok(handle) = reader {
                    lock_recover(&accept_readers).push(handle);
                }
            }
        })?;

    Ok(WorkerHandle {
        index,
        listen_addr,
        shared,
        accept: Some(accept),
        readers,
        metrics_server: Some(metrics_server),
    })
}

/// Serve one router connection: handshake, then one envelope per frame.
fn serve_connection(stream: TcpStream, shared: &Shared, index: usize) {
    if configure_stream(&stream).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let max = shared.config.max_frame_bytes.saturating_add(4096);
    let keep_waiting = || !shared.shutdown.load(Ordering::SeqCst);

    // The first frame must be a hello; anything else gets an error frame
    // and a close, so a misdirected NDJSON client fails fast and loudly.
    let hello = match read_wire_frame(&mut reader, max, keep_waiting) {
        Ok(WireRead::Frame(payload)) => payload,
        _ => return,
    };
    let wire = match negotiate_hello(&String::from_utf8_lossy(&hello)) {
        Ok(wire) => wire,
        Err(error_reply) => {
            let _ = write_wire_frame(&mut writer, error_reply.as_bytes());
            return;
        }
    };
    let ack = hello_ack_frame(wire, index, shared.recovered_max_seq);
    if write_wire_frame(&mut writer, ack.as_bytes()).is_err() {
        return;
    }

    loop {
        let payload = match read_wire_frame(&mut reader, max, keep_waiting) {
            Ok(WireRead::Frame(payload)) => payload,
            Ok(WireRead::Eof | WireRead::Idle) | Err(_) => return,
        };
        let reply = envelope_reply(&String::from_utf8_lossy(&payload), shared);
        if write_wire_frame(&mut writer, reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Dispatch one envelope payload to its raw NDJSON reply line.
fn envelope_reply(payload: &str, shared: &Shared) -> String {
    let envelope = match WireEnvelope::parse(payload) {
        Ok(envelope) => envelope,
        Err(reason) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return crate::json::Json::obj([
                ("type", crate::json::Json::str("error")),
                ("reason", crate::json::Json::str(reason)),
            ])
            .render();
        }
    };
    match dispatch(&envelope.line, shared, envelope.frame.as_ref()) {
        Ok(reply) => reply,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            e.to_reply()
        }
    }
}

/// Entry point for the hidden `serve --worker-index` mode: boot the
/// worker, print the announce line the supervisor parses, and park until
/// the drain. Returns whether the drain was clean (the process should
/// exit nonzero otherwise).
///
/// # Errors
///
/// Any [`StartError`] from [`start_worker`].
pub fn run_worker(
    config: ServiceConfig,
    factory: LocalizerFactory,
    index: usize,
) -> Result<bool, StartError> {
    let worker = start_worker(config, factory, index)?;
    // the supervisor blocks on this exact line; flush so it never sits in
    // a stdio buffer while the supervisor times out
    println!("{}", worker.announce_line());
    let _ = io::stdout().flush();
    let clean = worker.wait_for_drain();
    worker.shutdown();
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_factory;
    use crate::proto::hello_frame;

    fn worker_config(spool: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            listen: "127.0.0.1:0".to_string(),
            metrics_listen: "127.0.0.1:0".to_string(),
            spool_dir: Some(spool.to_path_buf()),
            shards: 1,
            ..ServiceConfig::default()
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rapd-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        write_wire_frame(stream, payload.as_bytes()).unwrap();
        match read_wire_frame(stream, 1 << 20, || true).unwrap() {
            WireRead::Frame(reply) => String::from_utf8(reply).unwrap(),
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }

    #[test]
    fn worker_speaks_the_framed_protocol_end_to_end() {
        let dir = scratch("e2e");
        let worker = start_worker(worker_config(&dir), default_factory(), 3).unwrap();
        assert!(worker
            .announce_line()
            .starts_with("rapd-worker 3 listening on "));

        let mut conn = TcpStream::connect(worker.listen_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let ack = roundtrip(&mut conn, &hello_frame());
        assert!(ack.contains("\"worker\":3"), "ack: {ack}");
        assert!(ack.contains("\"max_seq\":0"), "ack: {ack}");

        let schema = WireEnvelope {
            line: r#"{"type":"schema","tenant":"edge","attributes":[["loc",["L1","L2"]]]}"#
                .to_string(),
            frame: None,
        };
        let reply = roundtrip(&mut conn, &schema.render());
        assert!(reply.contains("\"ok\""), "schema reply: {reply}");

        // a forwarded observe adopts the router's token…
        let observe = WireEnvelope {
            line: r#"{"type":"observe","tenant":"edge","rows":[[["L1"],5.0],[["L2"],5.0]]}"#
                .to_string(),
            frame: Some(("edge-00000007-123".to_string(), 7)),
        };
        let reply = roundtrip(&mut conn, &observe.render());
        assert!(
            reply.contains("\"frame\":\"edge-00000007-123\""),
            "observe reply: {reply}"
        );
        assert!(!reply.contains("duplicate"), "first delivery: {reply}");

        // …and a redelivery of the same sequence is acked as a duplicate
        let reply = roundtrip(&mut conn, &observe.render());
        assert!(reply.contains("\"duplicate\":true"), "redelivery: {reply}");

        // garbage envelopes get an error frame, not a dead connection
        let reply = roundtrip(&mut conn, "{\"nope\":1}");
        assert!(reply.contains("\"error\""), "garbage: {reply}");

        worker.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_rejects_future_wire_versions() {
        let dir = scratch("ver");
        let worker = start_worker(worker_config(&dir), default_factory(), 0).unwrap();
        let mut conn = TcpStream::connect(worker.listen_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let reply = roundtrip(&mut conn, "{\"type\":\"hello\",\"wire\":99}");
        assert!(reply.contains("unsupported wire version"), "got: {reply}");
        // the worker closed the connection after the error frame
        write_wire_frame(&mut conn, b"{\"type\":\"hello\",\"wire\":1}").ok();
        let dead = matches!(
            read_wire_frame(&mut conn, 1 << 20, || false),
            Ok(WireRead::Eof | WireRead::Idle) | Err(_)
        );
        assert!(dead, "connection must be closed after a version error");
        worker.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
