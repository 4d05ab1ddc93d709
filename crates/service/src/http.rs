//! A minimal embedded HTTP listener serving Prometheus `/metrics`.
//!
//! One accept-loop thread; each request is answered inline (scrapes are
//! rare and tiny, so no per-connection threads). Only `GET /metrics` is
//! meaningful; everything else is 404. The response always closes the
//! connection, so HTTP/1.0 and HTTP/1.1 scrapers both work.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::Metrics;

/// Produces the exposition body served on each scrape.
pub type RenderFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Handle on the running metrics listener.
pub struct MetricsServer {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks a free port) and start serving.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start(addr: &str, metrics: Arc<Metrics>) -> io::Result<MetricsServer> {
        MetricsServer::start_rendered(addr, Arc::new(move || metrics.render_prometheus()))
    }

    /// Bind `addr` and serve whatever `render` produces on each scrape —
    /// the variant for processes whose exposition is not a [`Metrics`]
    /// (the fleet router renders [`crate::metrics::RouterMetrics`]).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start_rendered(addr: &str, render: RenderFn) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("rapd-metrics-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        // a broken scraper must not take the listener down
                        let _ = serve_one(stream, render.as_ref());
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            handle: Some(handle),
            shutdown,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // unblock accept() with one throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

fn serve_one(stream: TcpStream, render: &(dyn Fn() -> String + Send + Sync)) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // drain headers so well-behaved clients see a clean close
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        header.clear();
    }
    let mut stream = reader.into_inner();
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        )
    };
    // one write for head and body (`write!` makes one per format piece)
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Test helper: fetch a path from a local HTTP server, returning
/// `(status_line, body)`.
#[cfg(test)]
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let metrics = Arc::new(Metrics::new(2));
        metrics.frames_ingested.fetch_add(9, Ordering::Relaxed);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "got {status}");
        assert!(body.contains("rapd_frames_ingested_total 9"));
        assert!(body.contains("rapd_queue_depth{shard=\"1\"} 0"));

        let (status, _) = get(addr, "/other").unwrap();
        assert!(status.contains("404"), "got {status}");

        // counters move between scrapes
        metrics.frames_ingested.fetch_add(1, Ordering::Relaxed);
        let (_, body) = get(addr, "/metrics").unwrap();
        assert!(body.contains("rapd_frames_ingested_total 10"));

        server.shutdown();
    }

    #[test]
    fn rendered_variant_serves_a_custom_exposition() {
        let m = Arc::new(crate::metrics::RouterMetrics::new(2));
        let render = {
            let m = Arc::clone(&m);
            Arc::new(move || m.render_prometheus()) as RenderFn
        };
        let server = MetricsServer::start_rendered("127.0.0.1:0", render).unwrap();
        m.handoffs.fetch_add(1, Ordering::Relaxed);
        let (status, body) = get(server.addr(), "/metrics").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("rapd_router_handoffs_total 1"));
        assert!(body.contains("rapd_router_worker_up{worker=\"1\"} 0"));
        server.shutdown();
    }

    #[test]
    fn survives_garbage_requests() {
        let metrics = Arc::new(Metrics::new(1));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = server.addr();
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
        }
        // the listener still answers after the garbage connection
        let (status, _) = get(addr, "/metrics").unwrap();
        assert!(status.contains("200"));
        server.shutdown();
    }
}
