//! Reply latency on an idle connection: a client that sends one small
//! observe, waits for its reply and then pauses must get that reply in
//! about the daemon's own processing time.
//!
//! A reply split across two `write`s on a socket with Nagle's algorithm
//! on holds its second piece until the client ACKs the first, and a
//! client with nothing to send delays that ACK (40 ms minimum on Linux),
//! so each reply would take at least the delayed-ACK timer.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use service::json::{parse, Json};
use service::ServiceConfig;

const OBSERVES: usize = 21;
const IDLE_PAUSE: Duration = Duration::from_millis(25);
const MEDIAN_BUDGET: Duration = Duration::from_millis(20);

#[test]
fn idle_connection_replies_are_not_held_for_the_delayed_ack() {
    let config = ServiceConfig {
        listen: "127.0.0.1:0".to_string(),
        metrics_listen: "127.0.0.1:0".to_string(),
        shards: 1,
        ..ServiceConfig::default()
    };
    let server = service::start(config, service::default_factory()).unwrap();
    // a default client: Nagle on, one write per request line
    let mut writer = TcpStream::connect(server.ingest_addr()).expect("connect to rapd");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let mut request = |line: &str| -> (Json, Duration) {
        let start = Instant::now();
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let elapsed = start.elapsed();
        let doc = parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"));
        (doc, elapsed)
    };

    let (reply, _) = request(
        r#"{"type":"schema","tenant":"edge","attributes":[["location",["L1","L2"]],["website",["S1","S2"]]]}"#,
    );
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("ok"),
        "{reply}"
    );

    let observe = r#"{"type":"observe","tenant":"edge","rows":[[["L1","S1"],100],[["L1","S2"],100],[["L2","S1"],100],[["L2","S2"],100]]}"#;
    let mut latencies = Vec::with_capacity(OBSERVES);
    for _ in 0..OBSERVES {
        let (reply, elapsed) = request(observe);
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("ok"),
            "{reply}"
        );
        latencies.push(elapsed);
        std::thread::sleep(IDLE_PAUSE);
    }
    latencies.sort();
    let median = latencies[OBSERVES / 2];
    assert!(
        median < MEDIAN_BUDGET,
        "median reply latency {median:?} is not under {MEDIAN_BUDGET:?} (all: {latencies:?})"
    );
    server.shutdown();
}
