//! The NDJSON wire protocol: one JSON object per line, both directions.
//!
//! Requests (client → rapd):
//!
//! ```json
//! {"type":"schema","tenant":"cdn-edge","attributes":[["location",["L1","L2"]],["isp",["I1","I2"]]]}
//! {"type":"observe","tenant":"cdn-edge","ts":1700000000000,"rows":[[["L1","I1"],42.5],[["L2","I2"],17.0]]}
//! {"type":"flush"}
//! {"type":"stats"}
//! {"type":"incidents","limit":10}
//! {"type":"trace","limit":50}
//! {"type":"quarantine","limit":20}
//! {"type":"health"}
//! {"type":"debug","tenant":"cdn-edge"}
//! {"type":"shutdown"}
//! ```
//!
//! Every request gets exactly one reply line: `{"type":"ok",...}`, a typed
//! payload (`stats`, `incidents`), or `{"type":"error","reason":...}`.
//! Malformed input of any kind is a [`ProtoError`] — reader threads reply
//! and keep serving; they never panic or die on bad input.
//!
//! `observe` extras: `ts` (optional, milliseconds) routes the frame through
//! the per-tenant watermark reorder buffer; omitting it bypasses
//! reordering. A row *value* of JSON `null` is the wire encoding of a
//! missing/NaN measurement (JSON itself cannot carry NaN) — such frames
//! are accepted at the protocol layer and diverted by admission control,
//! never parsed as errors.

use std::fmt;

use mdkpi::{ElementId, LeafFrame, Schema};

use crate::json::{parse, Json};

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or idempotently re-register) a tenant's schema.
    Schema {
        /// The tenant id.
        tenant: String,
        /// `(attribute, elements)` pairs, the [`Schema::from_parts`] form.
        attributes: Vec<(String, Vec<String>)>,
    },
    /// Ingest one snapshot of per-leaf actual values.
    Observe {
        /// The tenant id.
        tenant: String,
        /// `(elements, value)` rows; elements are positional per the
        /// registered schema's attribute order. A value may be NaN (wire
        /// form: JSON `null`) — admission control quarantines such frames.
        rows: Vec<(Vec<String>, f64)>,
        /// Optional event timestamp in milliseconds. Present → the frame
        /// goes through the watermark reorder buffer; absent → it is
        /// processed in arrival order.
        ts: Option<u64>,
    },
    /// Barrier: drain every shard queue before replying.
    Flush,
    /// Snapshot of the daemon counters.
    Stats,
    /// The most recent incidents from the in-memory ring.
    Incidents {
        /// Maximum number of incidents to return (newest first).
        limit: usize,
    },
    /// The most recently completed tracing spans from the in-process ring.
    Trace {
        /// Maximum number of spans to return (newest first).
        limit: usize,
    },
    /// The most recent quarantined frames from the in-memory ring.
    Quarantine {
        /// Maximum number of records to return (newest first).
        limit: usize,
    },
    /// Fault-tolerance health summary: spool degradation, open breakers,
    /// restart counters. `status` is `"degraded"` whenever any of those
    /// indicate reduced service, `"ok"` otherwise.
    Health,
    /// Live introspection of the daemon's internals: queue depths,
    /// per-tenant engine/breaker/reorder state, flight-recorder stats,
    /// memo and pool counters, end-to-end latency totals.
    Debug {
        /// Restrict the per-tenant breakdown to this tenant; `None`
        /// returns every tenant.
        tenant: Option<String>,
    },
    /// Graceful drain: flush every shard queue, checkpoint every tenant,
    /// fsync the spools, then exit 0. The reply
    /// (`{"type":"ok","draining":true}`) is sent before the process
    /// exits. This is the verb a SIGTERM wrapper should call — the
    /// daemon installs no signal handlers (the workspace forbids the
    /// unsafe code they require). The drain is bounded by
    /// `--shutdown-deadline-ms`; on overrun the daemon checkpoints what
    /// drained, logs the stragglers, and exits nonzero.
    Shutdown,
    /// Snapshot every tenant engine to the checkpoint store now, without
    /// draining reorder buffers. The handoff protocol uses this to pin a
    /// source worker's state before transferring a tenant; operators can
    /// use it to force a checkpoint ahead of planned maintenance.
    Checkpoint,
    /// Forget one tenant's in-memory state (engine, breaker, reorder
    /// buffer, restore latch) so its next frame restores from whatever
    /// snapshot is in the checkpoint store. The fleet handoff protocol
    /// sends this to both sides of a transfer; durable state (WAL,
    /// checkpoints, spooled incidents) is untouched.
    Adopt {
        /// The tenant whose live state is dropped.
        tenant: String,
    },
    /// Move one tenant to another worker (router-only verb): drain the
    /// source, checkpoint, transfer the snapshot + WAL suffix, and
    /// reroute. A single-process daemon answers this with an error.
    Handoff {
        /// The tenant to move.
        tenant: String,
        /// Target worker index; `None` lets the router pick the next
        /// worker on the ring.
        worker: Option<usize>,
    },
}

/// Why a request line was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The line exceeds the configured frame-size cap.
    Oversized {
        /// Bytes received.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The line is not valid JSON.
    BadJson(String),
    /// The document is not a JSON object.
    NotAnObject,
    /// The object has no string `type` field.
    MissingType,
    /// The `type` is not one of the protocol's messages.
    UnknownType(String),
    /// A required field is absent.
    MissingField {
        /// The message type.
        msg: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// A field has the wrong shape.
    BadField {
        /// The message type.
        msg: &'static str,
        /// The offending field.
        field: &'static str,
        /// What was expected there.
        expected: &'static str,
    },
    /// An observe row names a different number of elements than the
    /// tenant's schema has attributes.
    Arity {
        /// Attributes in the registered schema.
        expected: usize,
        /// Elements in the offending row.
        got: usize,
    },
    /// An observe row names an element absent from the schema attribute at
    /// that position.
    UnknownElement {
        /// The schema attribute name.
        attribute: String,
        /// The unknown element name.
        element: String,
    },
    /// `observe` arrived before any `schema` for that tenant.
    NoSchema {
        /// The tenant id.
        tenant: String,
    },
    /// The tenant re-registered with different attributes.
    SchemaConflict {
        /// The tenant id.
        tenant: String,
    },
    /// `schema` attributes failed schema validation (duplicates, empty…).
    BadSchema(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::BadJson(e) => write!(f, "malformed JSON: {e}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::MissingType => write!(f, "request object needs a string 'type' field"),
            ProtoError::UnknownType(t) => write!(f, "unknown message type '{t}'"),
            ProtoError::MissingField { msg, field } => {
                write!(f, "'{msg}' message is missing field '{field}'")
            }
            ProtoError::BadField {
                msg,
                field,
                expected,
            } => {
                write!(f, "'{msg}' field '{field}' must be {expected}")
            }
            ProtoError::Arity { expected, got } => write!(
                f,
                "observe row has {got} elements but the schema has {expected} attributes"
            ),
            ProtoError::UnknownElement { attribute, element } => {
                write!(f, "attribute '{attribute}' has no element '{element}'")
            }
            ProtoError::NoSchema { tenant } => {
                write!(f, "tenant '{tenant}' has no registered schema")
            }
            ProtoError::SchemaConflict { tenant } => write!(
                f,
                "tenant '{tenant}' is already registered with different attributes"
            ),
            ProtoError::BadSchema(e) => write!(f, "invalid schema: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The one-line `{"type":"error",...}` reply for this error.
    pub fn to_reply(&self) -> String {
        Json::obj([
            ("type", Json::str("error")),
            ("reason", Json::str(self.to_string())),
        ])
        .render()
    }
}

/// Parse one request line, enforcing the frame-size cap.
///
/// # Errors
///
/// Any malformed input is a typed [`ProtoError`]; this function never
/// panics on untrusted bytes.
pub fn parse_request(line: &str, max_bytes: usize) -> Result<Request, ProtoError> {
    if line.len() > max_bytes {
        return Err(ProtoError::Oversized {
            len: line.len(),
            max: max_bytes,
        });
    }
    let doc = parse(line).map_err(ProtoError::BadJson)?;
    let Json::Obj(_) = doc else {
        return Err(ProtoError::NotAnObject);
    };
    let msg_type = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or(ProtoError::MissingType)?;
    match msg_type {
        "schema" => parse_schema(&doc),
        "observe" => parse_observe(&doc),
        "flush" => Ok(Request::Flush),
        "stats" => Ok(Request::Stats),
        "incidents" => {
            let limit = match doc.get("limit") {
                None => 20,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "incidents",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Incidents { limit })
        }
        "trace" => {
            let limit = match doc.get("limit") {
                None => 50,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "trace",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Trace { limit })
        }
        "quarantine" => {
            let limit = match doc.get("limit") {
                None => 20,
                Some(v) => v.as_u64().ok_or(ProtoError::BadField {
                    msg: "quarantine",
                    field: "limit",
                    expected: "a non-negative integer",
                })? as usize,
            };
            Ok(Request::Quarantine { limit })
        }
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        "checkpoint" => Ok(Request::Checkpoint),
        "adopt" => Ok(Request::Adopt {
            tenant: required_str(&doc, "adopt", "tenant")?,
        }),
        "handoff" => {
            let worker = match doc.get("worker") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or(ProtoError::BadField {
                    msg: "handoff",
                    field: "worker",
                    expected: "a non-negative integer",
                })? as usize),
            };
            Ok(Request::Handoff {
                tenant: required_str(&doc, "handoff", "tenant")?,
                worker,
            })
        }
        "debug" => {
            let tenant = match doc.get("tenant") {
                None => None,
                Some(v) => Some(v.as_str().map(str::to_string).ok_or(ProtoError::BadField {
                    msg: "debug",
                    field: "tenant",
                    expected: "a string",
                })?),
            };
            Ok(Request::Debug { tenant })
        }
        other => Err(ProtoError::UnknownType(other.to_string())),
    }
}

fn required_str(doc: &Json, msg: &'static str, field: &'static str) -> Result<String, ProtoError> {
    match doc.get(field) {
        None => Err(ProtoError::MissingField { msg, field }),
        Some(v) => v.as_str().map(str::to_string).ok_or(ProtoError::BadField {
            msg,
            field,
            expected: "a string",
        }),
    }
}

fn parse_schema(doc: &Json) -> Result<Request, ProtoError> {
    let tenant = required_str(doc, "schema", "tenant")?;
    let attrs = doc
        .get("attributes")
        .ok_or(ProtoError::MissingField {
            msg: "schema",
            field: "attributes",
        })?
        .as_arr()
        .ok_or(ProtoError::BadField {
            msg: "schema",
            field: "attributes",
            expected: "an array of [name, [elements]] pairs",
        })?;
    let mut attributes = Vec::with_capacity(attrs.len());
    for pair in attrs {
        let bad = ProtoError::BadField {
            msg: "schema",
            field: "attributes",
            expected: "an array of [name, [elements]] pairs",
        };
        let items = pair.as_arr().ok_or_else(|| bad.clone())?;
        let [name, elements] = items else {
            return Err(bad);
        };
        let name = name.as_str().ok_or_else(|| bad.clone())?;
        let elements = elements
            .as_arr()
            .ok_or_else(|| bad.clone())?
            .iter()
            .map(|e| e.as_str().map(str::to_string).ok_or_else(|| bad.clone()))
            .collect::<Result<Vec<String>, ProtoError>>()?;
        attributes.push((name.to_string(), elements));
    }
    Ok(Request::Schema { tenant, attributes })
}

fn parse_observe(doc: &Json) -> Result<Request, ProtoError> {
    let tenant = required_str(doc, "observe", "tenant")?;
    let raw_rows = doc
        .get("rows")
        .ok_or(ProtoError::MissingField {
            msg: "observe",
            field: "rows",
        })?
        .as_arr()
        .ok_or(ProtoError::BadField {
            msg: "observe",
            field: "rows",
            expected: "an array of [[elements...], value] pairs",
        })?;
    let bad = ProtoError::BadField {
        msg: "observe",
        field: "rows",
        expected: "an array of [[elements...], value] pairs",
    };
    let mut rows = Vec::with_capacity(raw_rows.len());
    for row in raw_rows {
        let items = row.as_arr().ok_or_else(|| bad.clone())?;
        let [elements, value] = items else {
            return Err(bad);
        };
        let elements = elements
            .as_arr()
            .ok_or_else(|| bad.clone())?
            .iter()
            .map(|e| e.as_str().map(str::to_string).ok_or_else(|| bad.clone()))
            .collect::<Result<Vec<String>, ProtoError>>()?;
        // JSON cannot carry NaN, so `null` is the wire form of a missing
        // or NaN measurement; the parser itself guarantees `Json::Num` is
        // finite. The NaN survives to admission control, which quarantines
        // the frame with a reason instead of dropping it as a parse error.
        let value = match value {
            Json::Null => f64::NAN,
            v => v.as_f64().ok_or_else(|| bad.clone())?,
        };
        rows.push((elements, value));
    }
    let ts = match doc.get("ts") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or(ProtoError::BadField {
            msg: "observe",
            field: "ts",
            expected: "a non-negative integer (milliseconds)",
        })?),
    };
    Ok(Request::Observe { tenant, rows, ts })
}

/// Resolve an observe message's rows against the tenant's schema into a
/// [`LeafFrame`], enforcing row arity and element names.
///
/// # Errors
///
/// [`ProtoError::Arity`] when a row's element count differs from the
/// schema's attribute count, [`ProtoError::UnknownElement`] for element
/// names the schema does not contain.
pub fn build_frame(schema: &Schema, rows: &[(Vec<String>, f64)]) -> Result<LeafFrame, ProtoError> {
    let num_attrs = schema.num_attributes();
    let mut builder = LeafFrame::builder(schema);
    let mut elements: Vec<ElementId> = Vec::with_capacity(num_attrs);
    for (names, value) in rows {
        if names.len() != num_attrs {
            return Err(ProtoError::Arity {
                expected: num_attrs,
                got: names.len(),
            });
        }
        elements.clear();
        for (attr_id, name) in schema.attr_ids().zip(names) {
            let attr = schema.attribute(attr_id);
            let id = attr
                .element(name)
                .ok_or_else(|| ProtoError::UnknownElement {
                    attribute: attr.name().to_string(),
                    element: name.clone(),
                })?;
            elements.push(id);
        }
        builder.push(&elements, *value, 0.0);
    }
    Ok(builder.build())
}

// ---------------------------------------------------------------------------
// Fleet wire protocol: length-prefixed frames between the router and its
// workers.
//
// The public NDJSON protocol stays line-oriented; the router↔worker hop
// instead uses `u32` big-endian length-prefixed JSON frames so a frame
// boundary survives any payload bytes and a torn connection is detected
// as a short read, never a silently merged line. Every connection opens
// with a version handshake:
//
//   router → worker   {"type":"hello","wire":1}
//   worker → router   {"type":"hello","wire":1,"worker":0,"max_seq":417}
//
// A worker that does not speak the requested version replies with a
// `{"type":"error",...}` frame and closes. After the handshake, each
// request frame is an envelope around one NDJSON request line:
//
//   {"line":"{\"type\":\"observe\",...}","frame":"edge-0000002a-...","seq":42}
//
// `frame`/`seq` ride only on observes: the router mints the correlation
// token, the worker adopts it, and the (tenant, seq) pair is the worker's
// redelivery-dedup key. The reply frame is the raw NDJSON reply line.
// ---------------------------------------------------------------------------

/// The wire-protocol version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// The oldest wire-protocol version this build still accepts.
pub const WIRE_MIN_VERSION: u64 = 1;

/// Write one length-prefixed frame (`u32` big-endian length + payload)
/// with a single `write`: a frame split across two writes leaves its tail
/// for Nagle's algorithm to hold until the peer ACKs the head.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_wire_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "wire frame over 4 GiB")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Write one NDJSON reply line (`reply` plus its `\n`) with a single
/// `write`, for the same reason as [`write_wire_frame`].
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub(crate) fn write_reply_line(
    w: &mut impl std::io::Write,
    mut reply: String,
) -> std::io::Result<()> {
    reply.push('\n');
    w.write_all(reply.as_bytes())?;
    w.flush()
}

/// The outcome of one framed read.
#[derive(Debug)]
pub enum WireRead {
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// No bytes arrived and `keep_waiting` said to stop.
    Idle,
}

/// Read one length-prefixed frame, tolerating read timeouts: on
/// `WouldBlock`/`TimedOut` the `keep_waiting` callback decides whether to
/// keep polling (a worker waiting for its next request checks the
/// shutdown flag here). A timeout mid-frame keeps reading as long as
/// `keep_waiting` allows; EOF mid-frame is an `UnexpectedEof` error.
///
/// # Errors
///
/// `InvalidData` when the frame exceeds `max` bytes, `UnexpectedEof` on a
/// mid-frame close, or any other I/O error from the reader.
pub fn read_wire_frame(
    r: &mut impl std::io::Read,
    max: usize,
    keep_waiting: impl Fn() -> bool,
) -> std::io::Result<WireRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(WireRead::Eof);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting() {
                    return Ok(WireRead::Idle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("wire frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "gave up mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(WireRead::Frame(payload))
}

/// The router's opening handshake frame.
pub fn hello_frame() -> String {
    Json::obj([
        ("type", Json::str("hello")),
        ("wire", Json::Num(WIRE_VERSION as f64)),
    ])
    .render()
}

/// A worker's handshake reply: the negotiated version, its index, and the
/// highest frame sequence its recovery saw (the router advances its mint
/// counter past it so new tokens never collide with replayed ones).
pub fn hello_ack_frame(wire: u64, worker: usize, max_seq: u64) -> String {
    Json::obj([
        ("type", Json::str("hello")),
        ("wire", Json::Num(wire as f64)),
        ("worker", Json::Num(worker as f64)),
        ("max_seq", Json::Num(max_seq as f64)),
    ])
    .render()
}

/// Validate a peer's hello and negotiate the version to speak.
///
/// # Errors
///
/// A rendered `{"type":"error",...}` reply line when the frame is not a
/// hello or the version is outside `[WIRE_MIN_VERSION, WIRE_VERSION]`.
pub fn negotiate_hello(payload: &str) -> Result<u64, String> {
    let error = |reason: String| {
        Json::obj([("type", Json::str("error")), ("reason", Json::str(reason))]).render()
    };
    let doc = parse(payload).map_err(|e| error(format!("malformed hello: {e}")))?;
    if doc.get("type").and_then(Json::as_str) != Some("hello") {
        return Err(error("expected a hello frame".to_string()));
    }
    let Some(wire) = doc.get("wire").and_then(Json::as_u64) else {
        return Err(error(
            "hello frame needs a numeric 'wire' field".to_string(),
        ));
    };
    if !(WIRE_MIN_VERSION..=WIRE_VERSION).contains(&wire) {
        return Err(error(format!(
            "unsupported wire version {wire} (this build speaks {WIRE_MIN_VERSION}..={WIRE_VERSION})"
        )));
    }
    Ok(wire)
}

/// One request envelope on the router→worker hop.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// The raw NDJSON request line to dispatch.
    pub line: String,
    /// For observes: the router-minted correlation token and its sequence
    /// number, adopted (and deduplicated) by the worker.
    pub frame: Option<(String, u64)>,
}

impl WireEnvelope {
    /// Render the envelope to its wire JSON.
    pub fn render(&self) -> String {
        let mut pairs = vec![("line", Json::str(&self.line))];
        if let Some((token, seq)) = &self.frame {
            pairs.push(("frame", Json::str(token)));
            pairs.push(("seq", Json::Num(*seq as f64)));
        }
        Json::obj(pairs).render()
    }

    /// Parse one envelope payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the payload is not an envelope.
    pub fn parse(payload: &str) -> Result<WireEnvelope, String> {
        let doc = parse(payload).map_err(|e| format!("malformed envelope: {e}"))?;
        let line = doc
            .get("line")
            .and_then(Json::as_str)
            .ok_or("envelope needs a string 'line' field")?
            .to_string();
        let frame = match (doc.get("frame"), doc.get("seq")) {
            (Some(token), Some(seq)) => {
                let token = token.as_str().ok_or("envelope 'frame' must be a string")?;
                let seq = seq.as_u64().ok_or("envelope 'seq' must be an integer")?;
                Some((token.to_string(), seq))
            }
            (None, None) => None,
            _ => return Err("envelope 'frame' and 'seq' must travel together".to_string()),
        };
        Ok(WireEnvelope { line, frame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 1 << 16;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("location", ["L1", "L2"])
            .attribute("isp", ["I1", "I2"])
            .build()
            .unwrap()
    }

    #[test]
    fn parses_every_message_type() {
        let req = parse_request(
            r#"{"type":"schema","tenant":"t","attributes":[["a",["a1","a2"]]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Schema {
                tenant: "t".to_string(),
                attributes: vec![("a".to_string(), vec!["a1".to_string(), "a2".to_string()])],
            }
        );
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","rows":[[["L1","I1"],42.5]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Observe {
                tenant: "t".to_string(),
                rows: vec![(vec!["L1".to_string(), "I1".to_string()], 42.5)],
                ts: None,
            }
        );
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","ts":1700000000000,"rows":[[["L1","I1"],1.0]]}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Observe {
                tenant: "t".to_string(),
                rows: vec![(vec!["L1".to_string(), "I1".to_string()], 1.0)],
                ts: Some(1_700_000_000_000),
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"flush"}"#, MAX).unwrap(),
            Request::Flush
        );
        assert_eq!(
            parse_request(r#"{"type":"stats"}"#, MAX).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"type":"incidents","limit":5}"#, MAX).unwrap(),
            Request::Incidents { limit: 5 }
        );
        assert_eq!(
            parse_request(r#"{"type":"incidents"}"#, MAX).unwrap(),
            Request::Incidents { limit: 20 }
        );
        assert_eq!(
            parse_request(r#"{"type":"trace","limit":7}"#, MAX).unwrap(),
            Request::Trace { limit: 7 }
        );
        assert_eq!(
            parse_request(r#"{"type":"trace"}"#, MAX).unwrap(),
            Request::Trace { limit: 50 }
        );
        assert_eq!(
            parse_request(r#"{"type":"quarantine","limit":3}"#, MAX).unwrap(),
            Request::Quarantine { limit: 3 }
        );
        assert_eq!(
            parse_request(r#"{"type":"quarantine"}"#, MAX).unwrap(),
            Request::Quarantine { limit: 20 }
        );
        assert_eq!(
            parse_request(r#"{"type":"health"}"#, MAX).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"type":"debug"}"#, MAX).unwrap(),
            Request::Debug { tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"type":"debug","tenant":"edge"}"#, MAX).unwrap(),
            Request::Debug {
                tenant: Some("edge".to_string())
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"shutdown"}"#, MAX).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "not json at all",
            "{\"type\":",
            "[1,2,3]",
            "42",
            "{}",
            r#"{"type":17}"#,
            r#"{"type":"observe"}"#,
            r#"{"type":"observe","tenant":"t"}"#,
            r#"{"type":"observe","tenant":"t","rows":"nope"}"#,
            r#"{"type":"observe","tenant":"t","rows":[["missing-value"]]}"#,
            r#"{"type":"observe","tenant":"t","rows":[[["L1"],"NaN"]]}"#,
            r#"{"type":"observe","tenant":17,"rows":[]}"#,
            r#"{"type":"schema","tenant":"t"}"#,
            r#"{"type":"schema","tenant":"t","attributes":[["a"]]}"#,
            r#"{"type":"schema","tenant":"t","attributes":[["a","b"]]}"#,
            r#"{"type":"incidents","limit":-3}"#,
            r#"{"type":"incidents","limit":1.5}"#,
            r#"{"type":"trace","limit":-1}"#,
            r#"{"type":"trace","limit":"all"}"#,
            r#"{"type":"quarantine","limit":-1}"#,
            r#"{"type":"debug","tenant":17}"#,
            r#"{"type":"observe","tenant":"t","ts":-5,"rows":[]}"#,
            r#"{"type":"observe","tenant":"t","ts":1.5,"rows":[]}"#,
            r#"{"type":"observe","tenant":"t","ts":"now","rows":[]}"#,
        ] {
            let err = parse_request(line, MAX).expect_err(line);
            // every error renders a reply line that is itself valid JSON
            let reply = crate::json::parse(&err.to_reply()).unwrap();
            assert_eq!(reply.get("type").unwrap().as_str(), Some("error"));
        }
    }

    #[test]
    fn null_row_value_parses_to_nan() {
        // JSON cannot encode NaN; `null` is its wire form. The frame must
        // survive parsing so admission control can quarantine it with a
        // reason instead of the reader bouncing it as malformed.
        let req = parse_request(
            r#"{"type":"observe","tenant":"t","rows":[[["L1","I1"],null],[["L2","I2"],7.0]]}"#,
            MAX,
        )
        .unwrap();
        let Request::Observe { rows, .. } = req else {
            panic!("expected observe");
        };
        assert!(rows[0].1.is_nan());
        assert_eq!(rows[1].1, 7.0);
    }

    #[test]
    fn unknown_type_is_named_in_the_error() {
        let err = parse_request(r#"{"type":"observe2"}"#, MAX).unwrap_err();
        assert_eq!(err, ProtoError::UnknownType("observe2".to_string()));
        assert!(err.to_string().contains("observe2"));
    }

    #[test]
    fn oversized_frames_are_rejected_before_parsing() {
        let huge = format!(
            r#"{{"type":"observe","tenant":"t","rows":[{}]}}"#,
            "1,".repeat(500)
        );
        let err = parse_request(&huge, 64).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { max: 64, .. }));
    }

    #[test]
    fn build_frame_enforces_arity() {
        let s = schema();
        let err = build_frame(&s, &[(vec!["L1".to_string()], 1.0)]).unwrap_err();
        assert_eq!(
            err,
            ProtoError::Arity {
                expected: 2,
                got: 1
            }
        );
        let err = build_frame(
            &s,
            &[(
                vec!["L1".to_string(), "I1".to_string(), "X".to_string()],
                1.0,
            )],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProtoError::Arity {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn build_frame_rejects_unknown_elements() {
        let s = schema();
        let err = build_frame(&s, &[(vec!["L1".to_string(), "I9".to_string()], 1.0)]).unwrap_err();
        assert_eq!(
            err,
            ProtoError::UnknownElement {
                attribute: "isp".to_string(),
                element: "I9".to_string(),
            }
        );
    }

    #[test]
    fn build_frame_produces_a_leaf_frame() {
        let s = schema();
        let frame = build_frame(
            &s,
            &[
                (vec!["L1".to_string(), "I1".to_string()], 10.0),
                (vec!["L2".to_string(), "I2".to_string()], 20.0),
            ],
        )
        .unwrap();
        assert_eq!(frame.num_rows(), 2);
        assert_eq!(frame.total_v(), 30.0);
    }

    #[test]
    fn fleet_verbs_parse() {
        assert_eq!(
            parse_request(r#"{"type":"checkpoint"}"#, MAX).unwrap(),
            Request::Checkpoint
        );
        assert_eq!(
            parse_request(r#"{"type":"adopt","tenant":"t"}"#, MAX).unwrap(),
            Request::Adopt {
                tenant: "t".to_string()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"handoff","tenant":"t","worker":2}"#, MAX).unwrap(),
            Request::Handoff {
                tenant: "t".to_string(),
                worker: Some(2)
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"handoff","tenant":"t"}"#, MAX).unwrap(),
            Request::Handoff {
                tenant: "t".to_string(),
                worker: None
            }
        );
        assert!(parse_request(r#"{"type":"adopt"}"#, MAX).is_err());
        assert!(parse_request(r#"{"type":"handoff","tenant":"t","worker":"x"}"#, MAX).is_err());
    }

    #[test]
    fn wire_frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_wire_frame(&mut buf, b"hello").unwrap();
        write_wire_frame(&mut buf, b"").unwrap();
        write_wire_frame(&mut buf, b"world!").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let read = |c: &mut std::io::Cursor<Vec<u8>>| read_wire_frame(c, 1 << 20, || true);
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p == b"hello"));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p.is_empty()));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Frame(p) if p == b"world!"));
        assert!(matches!(read(&mut cursor).unwrap(), WireRead::Eof));
    }

    /// A writer that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn wire_frames_and_reply_lines_leave_in_one_write() {
        let mut w = CountingWriter::default();
        write_wire_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"\0\0\0\x07payload");

        let mut w = CountingWriter::default();
        write_reply_line(&mut w, r#"{"type":"ok"}"#.to_string()).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"type\":\"ok\"}\n");
    }

    #[test]
    fn paper_scale_observe_line_parses_to_its_source_rows() {
        // the paper's largest deployment: 33 x 4 x 4 x 20 = 10,560 leaves
        let mut rows = Vec::with_capacity(33 * 4 * 4 * 20);
        for l in 0..33 {
            for i in 0..4 {
                for p in 0..4 {
                    for w in 0..20 {
                        let names = vec![
                            format!("location-{l:02}"),
                            format!("isp-{i}"),
                            format!("province-{p}"),
                            format!("website-é{w:02}"),
                        ];
                        let value = (rows.len() as f64) * 1.37 + 0.25;
                        rows.push((names, value));
                    }
                }
            }
        }
        let row_json = |(names, value): &(Vec<String>, f64)| {
            Json::Arr(vec![
                Json::Arr(names.iter().map(Json::str).collect()),
                Json::Num(*value),
            ])
        };
        let line = Json::obj([
            ("type", Json::str("observe")),
            ("tenant", Json::str("cdn")),
            ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        ])
        .render();
        assert!(line.len() >= 400_000, "line is only {} bytes", line.len());
        let expected = Request::Observe {
            tenant: "cdn".to_string(),
            rows,
            ts: None,
        };
        // linear parsing takes well under a second even unoptimized; a scan
        // that is quadratic in the line length takes minutes
        let start = std::time::Instant::now();
        assert_eq!(parse_request(&line, line.len()).unwrap(), expected);
        // the router's envelope carries the same line as one escaped string
        let envelope = WireEnvelope {
            line,
            frame: Some(("cdn-1".to_string(), 1)),
        };
        let back = WireEnvelope::parse(&envelope.render()).unwrap();
        assert_eq!(back, envelope);
        assert_eq!(
            parse_request(&back.line, back.line.len()).unwrap(),
            expected
        );
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 10, "three parses took {elapsed:?}");
    }

    #[test]
    fn wire_reads_reject_oversized_and_torn_frames() {
        let mut buf: Vec<u8> = Vec::new();
        write_wire_frame(&mut buf, b"0123456789").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let err = read_wire_frame(&mut cursor, 4, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // torn mid-frame: cut the payload short
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_wire_frame(&mut cursor, 1 << 20, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // torn mid-header
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        let err = read_wire_frame(&mut cursor, 1 << 20, || true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hello_negotiation_accepts_current_and_rejects_future_versions() {
        let wire = negotiate_hello(&hello_frame()).unwrap();
        assert_eq!(wire, WIRE_VERSION);
        let future = r#"{"type":"hello","wire":99}"#;
        let reply = negotiate_hello(future).unwrap_err();
        assert!(reply.contains("unsupported wire version 99"), "{reply}");
        assert!(reply.contains(r#""type":"error""#), "{reply}");
        assert!(negotiate_hello(r#"{"type":"stats"}"#).is_err());
        assert!(negotiate_hello("not json").is_err());
    }

    #[test]
    fn wire_envelopes_round_trip() {
        let bare = WireEnvelope {
            line: r#"{"type":"stats"}"#.to_string(),
            frame: None,
        };
        assert_eq!(WireEnvelope::parse(&bare.render()).unwrap(), bare);
        let tagged = WireEnvelope {
            line: r#"{"type":"observe","tenant":"t","rows":[]}"#.to_string(),
            frame: Some(("t-0000002a-123".to_string(), 42)),
        };
        assert_eq!(WireEnvelope::parse(&tagged.render()).unwrap(), tagged);
        assert!(WireEnvelope::parse(r#"{"frame":"x","seq":1}"#).is_err());
        assert!(WireEnvelope::parse(r#"{"line":"{}","frame":"x"}"#).is_err());
    }
}
