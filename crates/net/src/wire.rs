//! The AccTEE wire protocol: length-prefixed binary frames with a
//! versioned header and canonical encodings for every attested
//! artifact.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic    [4]   b"ACNT"
//! version  u16   WIRE_VERSION
//! kind     u8    frame discriminant (requests 0x01.., responses 0x81..)
//! length   u32   payload length, capped at MAX_PAYLOAD
//! payload  [length]
//! ```
//!
//! The encodings of [`Quote`], [`InstrumentationEvidence`],
//! [`ResourceUsageLog`] and [`SignedLog`] are **canonical**: decoding
//! and re-encoding is the identity, and the decoded structs are
//! field-for-field identical to the server's originals. That is what
//! makes remote verification work — the client recomputes
//! [`ResourceUsageLog::binding`] and the evidence binding over the
//! *received* bytes and checks them against the quote's report data,
//! so any in-flight tampering breaks the MAC check exactly as it would
//! in-process. Floats travel as IEEE-754 bit patterns (`to_bits`), so
//! NaN payloads and signed zeros survive the trip bit-exactly.
//!
//! Decoding is total: truncated, oversized or garbage frames produce a
//! [`WireError`], never a panic, and a frame must consume its payload
//! exactly (trailing bytes are an error).

use std::io::{Read, Write};
use std::time::Instant;

use acctee::{InstrumentationEvidence, Level, ResourceUsageLog, SignedLog};
use acctee_interp::Value;
use acctee_sgx::{Measurement, Quote};

use crate::stats::{
    CacheStats, HealthReport, LatencySummary, RequestOutcome, RequestRecord, StatsSnapshot,
    TenantStats,
};

/// Protocol magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"ACNT";
/// Current protocol version. Version 2 added client trace ids on
/// `Deploy`/`Invoke` and the `Stats`/`Health`/`Recent` telemetry
/// frames. Version 3 added the fleet coordination frames
/// (`FleetHello` .. `FleetStatus`) for distributed volunteer
/// campaigns. Version 4 added the server's SHA-256 kernel to the
/// `StatsOk` snapshot.
pub const WIRE_VERSION: u16 = 4;
/// Upper bound on a frame payload (modules included).
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

const REQ_ATTEST: u8 = 0x01;
const REQ_DEPLOY: u8 = 0x02;
const REQ_INVOKE: u8 = 0x03;
const REQ_FETCH_LOG: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_STATS: u8 = 0x06;
const REQ_HEALTH: u8 = 0x07;
const REQ_RECENT: u8 = 0x08;
const REQ_FLEET_HELLO: u8 = 0x09;
const REQ_FLEET_JOIN: u8 = 0x0a;
const REQ_FLEET_PULL: u8 = 0x0b;
const REQ_FLEET_SUBMIT: u8 = 0x0c;
const REQ_FLEET_STATUS: u8 = 0x0d;

const RESP_ATTEST_OK: u8 = 0x81;
const RESP_DEPLOY_OK: u8 = 0x82;
const RESP_INVOKE_OK: u8 = 0x83;
const RESP_LOG_OK: u8 = 0x84;
const RESP_SHUTDOWN_OK: u8 = 0x85;
const RESP_BUSY: u8 = 0x86;
const RESP_ERROR: u8 = 0x87;
const RESP_STATS_OK: u8 = 0x88;
const RESP_STATS_TEXT_OK: u8 = 0x89;
const RESP_HEALTH_OK: u8 = 0x8a;
const RESP_RECENT_OK: u8 = 0x8b;
const RESP_FLEET_CHALLENGE: u8 = 0x8c;
const RESP_FLEET_WELCOME: u8 = 0x8d;
const RESP_FLEET_ASSIGN: u8 = 0x8e;
const RESP_FLEET_ACK: u8 = 0x8f;
const RESP_FLEET_STATUS_OK: u8 = 0x90;

/// One dispatched work unit: the coordinator's instrumented module
/// plus the evidence the worker's accounting enclave verifies before
/// executing (the two-way sandbox, now over the network). The session
/// id is coordinator-assigned and unique per dispatch attempt, so the
/// signed log that comes back is bound to exactly this assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetUnit {
    /// Campaign-unique unit id.
    pub unit_id: u64,
    /// Session id the worker must execute under (anti-replay key for
    /// both the coordinator's journal and the escrow).
    pub session_id: u64,
    /// Exported function to invoke.
    pub func: String,
    /// Instrumented module binary.
    pub module: Vec<u8>,
    /// Instrumentation-enclave evidence over `module`.
    pub evidence: InstrumentationEvidence,
    /// Worker-side execution budget in milliseconds: the worker's AE
    /// runs the unit under `Config::time_budget`, so an over-budget
    /// unit traps with `DeadlineExceeded` instead of hanging the node.
    pub deadline_ms: u64,
}

/// What a worker reports back for a dispatched unit.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetSubmission {
    /// The unit executed inside the worker's accounting enclave.
    Completed {
        /// Returned values.
        results: Vec<Value>,
        /// The worker AE's signed resource-usage log (boxed: a signed
        /// log dwarfs the other variants).
        log: Box<SignedLog>,
    },
    /// Execution trapped (deadline exceeded, fuel, …); the coordinator
    /// re-dispatches.
    Trapped {
        /// Trap description.
        reason: String,
    },
}

/// The coordinator's verdict on a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetAck {
    /// Verified and recorded.
    Accepted,
    /// The assignment is no longer live (unit already completed
    /// elsewhere after a steal or re-dispatch); nothing was credited.
    Stale,
    /// The submission failed verification or referenced no live
    /// assignment.
    Rejected {
        /// Why.
        reason: String,
    },
    /// The submitting node is quarantined; it should stop pulling.
    Quarantined {
        /// Why.
        reason: String,
    },
}

/// Per-node row in a fleet status report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkerRow {
    /// Node name (from its join).
    pub name: String,
    /// Verified completions credited to this node.
    pub completed: u64,
    /// Assignments currently outstanding on this node.
    pub inflight: u32,
    /// Whether the node is quarantined.
    pub quarantined: bool,
}

/// A point-in-time campaign snapshot (the `acctee fleet status` view).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Work units in the campaign.
    pub units_total: u64,
    /// Units whose required executions are all verified.
    pub completed: u64,
    /// Dispatch tickets waiting for a worker.
    pub pending: u64,
    /// Assignments currently outstanding.
    pub inflight: u64,
    /// Units selected for redundant spot-check execution.
    pub checks_scheduled: u64,
    /// Spot-check pairs whose signed counters or results disagreed.
    pub checks_mismatched: u64,
    /// Assignments re-dispatched after a deadline trap or straggler
    /// timeout.
    pub redispatched: u64,
    /// Submissions rejected by log verification.
    pub rejected: u64,
    /// Whether every unit is complete.
    pub done: bool,
    /// Per-node rows.
    pub workers: Vec<FleetWorkerRow>,
}

/// Why a frame failed to decode (or the transport failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Transport-level I/O failure (includes mid-frame EOF).
    Io(std::io::ErrorKind, String),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Unknown frame kind for the expected direction.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before the structure was complete.
    Truncated,
    /// The payload had bytes left over after the structure.
    TrailingBytes(usize),
    /// An enum tag (value type, level) was out of range.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadTag(t) => write!(f, "bad enum tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind(), e.to_string())
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Attestation handshake: quote the accounting enclave over a
    /// fresh channel nonce.
    Attest {
        /// Client-chosen freshness nonce, bound into the quote.
        nonce: [u8; 32],
    },
    /// Instrument and load a module for later invocation.
    Deploy {
        /// Instrumentation level.
        level: Level,
        /// The original (un-instrumented) module binary.
        module: Vec<u8>,
        /// Client-generated trace id, stamped on the server's spans
        /// and flight-recorder record for this request (0 = untraced).
        trace_id: u64,
    },
    /// Execute a deployed function under accounting.
    Invoke {
        /// Handle returned by a prior deploy.
        deploy_id: u64,
        /// Exported function to call.
        func: String,
        /// Typed arguments.
        args: Vec<Value>,
        /// Bytes available to the workload's input import.
        input: Vec<u8>,
        /// Tenant name, for per-tenant admission control.
        tenant: String,
        /// Client-generated trace id, stamped on the server's spans
        /// and flight-recorder record for this request (0 = untraced).
        trace_id: u64,
    },
    /// Re-fetch the signed log of an earlier session.
    FetchLog {
        /// Session whose log to return.
        session_id: u64,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// A point-in-time operational snapshot of the server.
    Stats {
        /// `false` → structured [`StatsSnapshot`] (`StatsOk`);
        /// `true` → Prometheus text exposition (`StatsTextOk`).
        prometheus: bool,
    },
    /// A cheap liveness/readiness probe.
    Health,
    /// Up to `limit` recent request records from the flight recorder,
    /// newest first.
    Recent {
        /// Maximum records to return.
        limit: u32,
    },
    /// A worker announces itself to a fleet coordinator and asks for
    /// an attestation challenge.
    FleetHello {
        /// Node name (also its platform name for attestation).
        worker: String,
    },
    /// The worker answers the challenge: a quote from its accounting
    /// enclave binding the coordinator's nonce.
    FleetJoin {
        /// Node name (must match the hello on this connection).
        worker: String,
        /// AE quote over `channel_binding(nonce)`.
        quote: Quote,
    },
    /// An attested worker asks for up to `capacity` work units.
    FleetPull {
        /// Membership id from the welcome.
        worker_id: u64,
        /// How many units the node is willing to queue locally.
        capacity: u32,
    },
    /// A worker reports the outcome of one assignment.
    FleetSubmit {
        /// Membership id from the welcome.
        worker_id: u64,
        /// The assignment's unit id.
        unit_id: u64,
        /// The assignment's session id (binds the submission to one
        /// dispatch attempt).
        session_id: u64,
        /// The outcome.
        submission: FleetSubmission,
    },
    /// Campaign progress snapshot (unauthenticated read-only view).
    FleetStatus,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Quote over the channel nonce.
    AttestOk {
        /// Accounting-enclave quote binding the nonce.
        quote: Quote,
    },
    /// Module instrumented, verified and loaded.
    DeployOk {
        /// Handle for invokes.
        deploy_id: u64,
        /// The instrumented module binary (the client verifies the
        /// evidence against these exact bytes).
        module: Vec<u8>,
        /// Instrumentation-enclave evidence.
        evidence: InstrumentationEvidence,
    },
    /// Execution finished; the signed log travels with the result.
    InvokeOk {
        /// Server-assigned, monotonically unique session id.
        session_id: u64,
        /// Returned values.
        results: Vec<Value>,
        /// Workload output bytes.
        output: Vec<u8>,
        /// The accounting enclave's signed resource usage log.
        log: SignedLog,
        /// Invoice total under the server's pricing, in nano-credits.
        invoice_total: u128,
    },
    /// The requested session's signed log.
    LogOk {
        /// Stored signed log.
        log: SignedLog,
    },
    /// The server is draining and will exit.
    ShutdownOk,
    /// Load shed: admission queue or tenant in-flight limit is full.
    /// Retry later; nothing was executed or billed.
    Busy,
    /// The request failed; human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The structured stats snapshot.
    StatsOk {
        /// Point-in-time operational state.
        snapshot: StatsSnapshot,
    },
    /// The stats snapshot rendered as Prometheus text exposition.
    StatsTextOk {
        /// Strictly parseable exposition text.
        text: String,
    },
    /// The liveness report.
    HealthOk {
        /// Current health.
        report: HealthReport,
    },
    /// Recent request records, newest first.
    RecentOk {
        /// Flight-recorder records.
        records: Vec<RequestRecord>,
    },
    /// The coordinator's attestation challenge for a joining worker.
    FleetChallenge {
        /// Fresh nonce the worker's AE must bind.
        nonce: [u8; 32],
    },
    /// The worker's quote verified; it is now a fleet member.
    FleetWelcome {
        /// Membership id for pulls and submits on any connection.
        worker_id: u64,
    },
    /// Work units granted to a pull (possibly none).
    FleetAssign {
        /// Granted assignments, to execute in order.
        units: Vec<FleetUnit>,
        /// `true` once the campaign is complete — the worker should
        /// exit instead of polling again.
        done: bool,
    },
    /// Verdict on a submission.
    FleetAckOk {
        /// The coordinator's decision.
        ack: FleetAck,
    },
    /// The campaign snapshot.
    FleetStatusOk {
        /// Point-in-time campaign state.
        fleet: FleetReport,
    },
}

// ---------------------------------------------------------------- encode

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I32(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F32(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::F64(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

fn put_values(out: &mut Vec<u8>, vs: &[Value]) {
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for v in vs {
        put_value(out, v);
    }
}

fn level_byte(level: Level) -> u8 {
    match level {
        Level::Naive => 0,
        Level::FlowBased => 1,
        Level::LoopBased => 2,
    }
}

fn put_quote(out: &mut Vec<u8>, q: &Quote) {
    out.extend_from_slice(&q.mrenclave.0);
    out.extend_from_slice(&q.report_data);
    put_bytes(out, q.platform.as_bytes());
    out.extend_from_slice(&q.signature);
}

fn put_log(out: &mut Vec<u8>, log: &ResourceUsageLog) {
    out.extend_from_slice(&log.weighted_instructions.to_le_bytes());
    out.extend_from_slice(&log.peak_memory_bytes.to_le_bytes());
    out.extend_from_slice(&log.memory_integral.to_le_bytes());
    out.extend_from_slice(&log.io_bytes_in.to_le_bytes());
    out.extend_from_slice(&log.io_bytes_out.to_le_bytes());
    out.extend_from_slice(&log.module_hash);
    out.extend_from_slice(&log.session_id.to_le_bytes());
}

fn put_signed_log(out: &mut Vec<u8>, s: &SignedLog) {
    put_log(out, &s.log);
    put_quote(out, &s.quote);
}

fn put_evidence(out: &mut Vec<u8>, e: &InstrumentationEvidence) {
    out.extend_from_slice(&e.original_hash);
    out.extend_from_slice(&e.instrumented_hash);
    out.push(level_byte(e.level));
    out.extend_from_slice(&e.weight_hash);
    out.extend_from_slice(&e.counter_global.to_le_bytes());
    put_quote(out, &e.quote);
}

fn outcome_byte(o: RequestOutcome) -> u8 {
    match o {
        RequestOutcome::Ok => 0,
        RequestOutcome::Shed => 1,
        RequestOutcome::Error => 2,
        RequestOutcome::Timeout => 3,
    }
}

fn put_record(out: &mut Vec<u8>, r: &RequestRecord) {
    out.extend_from_slice(&r.trace_id.to_le_bytes());
    put_bytes(out, r.kind.as_bytes());
    put_bytes(out, r.tenant.as_bytes());
    put_bytes(out, r.func.as_bytes());
    out.extend_from_slice(&r.session_id.to_le_bytes());
    out.push(outcome_byte(r.outcome));
    put_bytes(out, r.error.as_bytes());
    out.extend_from_slice(&r.start_ns.to_le_bytes());
    out.extend_from_slice(&r.total_ns.to_le_bytes());
    out.extend_from_slice(&(r.stages.len() as u32).to_le_bytes());
    for (stage, ns) in &r.stages {
        put_bytes(out, stage.as_bytes());
        out.extend_from_slice(&ns.to_le_bytes());
    }
}

fn put_latency(out: &mut Vec<u8>, l: &LatencySummary) {
    out.extend_from_slice(&l.count.to_le_bytes());
    out.extend_from_slice(&l.sum_ns.to_le_bytes());
    out.extend_from_slice(&l.p50_ns.to_le_bytes());
    out.extend_from_slice(&l.p90_ns.to_le_bytes());
    out.extend_from_slice(&l.p99_ns.to_le_bytes());
}

fn put_snapshot(out: &mut Vec<u8>, s: &StatsSnapshot) {
    out.extend_from_slice(&s.uptime_ns.to_le_bytes());
    out.extend_from_slice(&s.workers.to_le_bytes());
    out.extend_from_slice(&s.workers_busy.to_le_bytes());
    out.extend_from_slice(&s.queue_capacity.to_le_bytes());
    out.extend_from_slice(&s.queue_depth.to_le_bytes());
    out.extend_from_slice(&s.connections_total.to_le_bytes());
    out.extend_from_slice(&s.connections_active.to_le_bytes());
    out.extend_from_slice(&(s.requests_by_kind.len() as u32).to_le_bytes());
    for (kind, n) in &s.requests_by_kind {
        put_bytes(out, kind.as_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&s.shed_queue_total.to_le_bytes());
    out.extend_from_slice(&s.shed_tenant_total.to_le_bytes());
    out.extend_from_slice(&s.errors_total.to_le_bytes());
    out.extend_from_slice(&s.timeouts_total.to_le_bytes());
    out.extend_from_slice(&s.instr_cache.hits.to_le_bytes());
    out.extend_from_slice(&s.instr_cache.misses.to_le_bytes());
    out.extend_from_slice(&s.instr_cache.evictions.to_le_bytes());
    out.extend_from_slice(&s.instr_cache.singleflight_waits.to_le_bytes());
    out.extend_from_slice(&(s.tenants.len() as u32).to_le_bytes());
    for t in &s.tenants {
        put_bytes(out, t.tenant.as_bytes());
        out.extend_from_slice(&t.inflight.to_le_bytes());
        out.extend_from_slice(&t.requests_total.to_le_bytes());
        out.extend_from_slice(&t.shed_total.to_le_bytes());
        out.extend_from_slice(&t.weighted_instructions_total.to_le_bytes());
        out.extend_from_slice(&t.invoice_nanocredits_total.to_le_bytes());
    }
    put_latency(out, &s.latency);
    out.extend_from_slice(&(s.stages.len() as u32).to_le_bytes());
    for (stage, l) in &s.stages {
        put_bytes(out, stage.as_bytes());
        put_latency(out, l);
    }
    put_bytes(out, s.sha256_kernel.as_bytes());
}

fn put_fleet_unit(out: &mut Vec<u8>, u: &FleetUnit) {
    out.extend_from_slice(&u.unit_id.to_le_bytes());
    out.extend_from_slice(&u.session_id.to_le_bytes());
    put_bytes(out, u.func.as_bytes());
    put_bytes(out, &u.module);
    put_evidence(out, &u.evidence);
    out.extend_from_slice(&u.deadline_ms.to_le_bytes());
}

fn put_fleet_submission(out: &mut Vec<u8>, s: &FleetSubmission) {
    match s {
        FleetSubmission::Completed { results, log } => {
            out.push(0);
            put_values(out, results);
            put_signed_log(out, log);
        }
        FleetSubmission::Trapped { reason } => {
            out.push(1);
            put_bytes(out, reason.as_bytes());
        }
    }
}

fn put_fleet_ack(out: &mut Vec<u8>, a: &FleetAck) {
    match a {
        FleetAck::Accepted => out.push(0),
        FleetAck::Stale => out.push(1),
        FleetAck::Rejected { reason } => {
            out.push(2);
            put_bytes(out, reason.as_bytes());
        }
        FleetAck::Quarantined { reason } => {
            out.push(3);
            put_bytes(out, reason.as_bytes());
        }
    }
}

fn put_fleet_report(out: &mut Vec<u8>, r: &FleetReport) {
    out.extend_from_slice(&r.units_total.to_le_bytes());
    out.extend_from_slice(&r.completed.to_le_bytes());
    out.extend_from_slice(&r.pending.to_le_bytes());
    out.extend_from_slice(&r.inflight.to_le_bytes());
    out.extend_from_slice(&r.checks_scheduled.to_le_bytes());
    out.extend_from_slice(&r.checks_mismatched.to_le_bytes());
    out.extend_from_slice(&r.redispatched.to_le_bytes());
    out.extend_from_slice(&r.rejected.to_le_bytes());
    out.push(u8::from(r.done));
    out.extend_from_slice(&(r.workers.len() as u32).to_le_bytes());
    for w in &r.workers {
        put_bytes(out, w.name.as_bytes());
        out.extend_from_slice(&w.completed.to_le_bytes());
        out.extend_from_slice(&w.inflight.to_le_bytes());
        out.push(u8::from(w.quarantined));
    }
}

fn put_health(out: &mut Vec<u8>, h: &HealthReport) {
    out.push(u8::from(h.healthy));
    out.push(u8::from(h.draining));
    out.extend_from_slice(&h.uptime_ns.to_le_bytes());
    out.extend_from_slice(&h.wire_version.to_le_bytes());
    out.extend_from_slice(&h.workers.to_le_bytes());
    out.extend_from_slice(&h.queue_capacity.to_le_bytes());
    out.extend_from_slice(&h.deployments.to_le_bytes());
    out.extend_from_slice(&h.sessions_served.to_le_bytes());
}

/// Frame header size: magic + version + kind + length.
pub const HEADER_LEN: usize = 11;

/// Appends a frame header with a placeholder kind/length, returning
/// the offset to patch once the payload has been written in place.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(0); // kind, patched by end_frame
    out.extend_from_slice(&[0u8; 4]); // length, patched by end_frame
    start
}

/// Patches the kind and payload length of a frame begun at `start`.
fn end_frame(out: &mut [u8], start: usize, kind: u8) {
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 6] = kind;
    out[start + 7..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, req);
    out
}

/// Appends a request frame to `out` without intermediate allocations —
/// the write-coalescing path: a pipelining client encodes a whole batch
/// into one buffer and issues a single write.
pub fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    let start = begin_frame(out);
    let p = out;
    let kind = match req {
        Request::Attest { nonce } => {
            p.extend_from_slice(nonce);
            REQ_ATTEST
        }
        Request::Deploy {
            level,
            module,
            trace_id,
        } => {
            p.push(level_byte(*level));
            put_bytes(p, module);
            p.extend_from_slice(&trace_id.to_le_bytes());
            REQ_DEPLOY
        }
        Request::Invoke {
            deploy_id,
            func,
            args,
            input,
            tenant,
            trace_id,
        } => {
            p.extend_from_slice(&deploy_id.to_le_bytes());
            put_bytes(p, func.as_bytes());
            put_values(p, args);
            put_bytes(p, input);
            put_bytes(p, tenant.as_bytes());
            p.extend_from_slice(&trace_id.to_le_bytes());
            REQ_INVOKE
        }
        Request::FetchLog { session_id } => {
            p.extend_from_slice(&session_id.to_le_bytes());
            REQ_FETCH_LOG
        }
        Request::Shutdown => REQ_SHUTDOWN,
        Request::Stats { prometheus } => {
            p.push(u8::from(*prometheus));
            REQ_STATS
        }
        Request::Health => REQ_HEALTH,
        Request::Recent { limit } => {
            p.extend_from_slice(&limit.to_le_bytes());
            REQ_RECENT
        }
        Request::FleetHello { worker } => {
            put_bytes(p, worker.as_bytes());
            REQ_FLEET_HELLO
        }
        Request::FleetJoin { worker, quote } => {
            put_bytes(p, worker.as_bytes());
            put_quote(p, quote);
            REQ_FLEET_JOIN
        }
        Request::FleetPull {
            worker_id,
            capacity,
        } => {
            p.extend_from_slice(&worker_id.to_le_bytes());
            p.extend_from_slice(&capacity.to_le_bytes());
            REQ_FLEET_PULL
        }
        Request::FleetSubmit {
            worker_id,
            unit_id,
            session_id,
            submission,
        } => {
            p.extend_from_slice(&worker_id.to_le_bytes());
            p.extend_from_slice(&unit_id.to_le_bytes());
            p.extend_from_slice(&session_id.to_le_bytes());
            put_fleet_submission(p, submission);
            REQ_FLEET_SUBMIT
        }
        Request::FleetStatus => REQ_FLEET_STATUS,
    };
    end_frame(p, start, kind);
}

/// Encodes a response as a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, resp);
    out
}

/// Appends a response frame to `out` without intermediate allocations —
/// the server's write-coalescing path: all responses to a pipelined
/// batch are encoded into one buffer and flushed together.
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    let start = begin_frame(out);
    let p = out;
    let kind = match resp {
        Response::AttestOk { quote } => {
            put_quote(p, quote);
            RESP_ATTEST_OK
        }
        Response::DeployOk {
            deploy_id,
            module,
            evidence,
        } => {
            p.extend_from_slice(&deploy_id.to_le_bytes());
            put_bytes(p, module);
            put_evidence(p, evidence);
            RESP_DEPLOY_OK
        }
        Response::InvokeOk {
            session_id,
            results,
            output,
            log,
            invoice_total,
        } => {
            p.extend_from_slice(&session_id.to_le_bytes());
            put_values(p, results);
            put_bytes(p, output);
            put_signed_log(p, log);
            p.extend_from_slice(&invoice_total.to_le_bytes());
            RESP_INVOKE_OK
        }
        Response::LogOk { log } => {
            put_signed_log(p, log);
            RESP_LOG_OK
        }
        Response::ShutdownOk => RESP_SHUTDOWN_OK,
        Response::Busy => RESP_BUSY,
        Response::Error { message } => {
            put_bytes(p, message.as_bytes());
            RESP_ERROR
        }
        Response::StatsOk { snapshot } => {
            put_snapshot(p, snapshot);
            RESP_STATS_OK
        }
        Response::StatsTextOk { text } => {
            put_bytes(p, text.as_bytes());
            RESP_STATS_TEXT_OK
        }
        Response::HealthOk { report } => {
            put_health(p, report);
            RESP_HEALTH_OK
        }
        Response::RecentOk { records } => {
            p.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for r in records {
                put_record(p, r);
            }
            RESP_RECENT_OK
        }
        Response::FleetChallenge { nonce } => {
            p.extend_from_slice(nonce);
            RESP_FLEET_CHALLENGE
        }
        Response::FleetWelcome { worker_id } => {
            p.extend_from_slice(&worker_id.to_le_bytes());
            RESP_FLEET_WELCOME
        }
        Response::FleetAssign { units, done } => {
            p.extend_from_slice(&(units.len() as u32).to_le_bytes());
            for u in units {
                put_fleet_unit(p, u);
            }
            p.push(u8::from(*done));
            RESP_FLEET_ASSIGN
        }
        Response::FleetAckOk { ack } => {
            put_fleet_ack(p, ack);
            RESP_FLEET_ACK
        }
        Response::FleetStatusOk { fleet } => {
            put_fleet_report(p, fleet);
            RESP_FLEET_STATUS_OK
        }
    };
    end_frame(p, start, kind);
}

/// Writes a request frame to `w`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    w.write_all(&encode_request(req))?;
    w.flush()
}

/// Writes a response frame to `w`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    w.write_all(&encode_response(resp))?;
    w.flush()
}

// ---------------------------------------------------------------- decode

/// Bounds-checked payload cursor.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    fn digest(&mut self) -> Result<[u8; 32], WireError> {
        Ok(self.take(32)?.try_into().expect("32"))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::I32(self.u32()? as i32)),
            1 => Ok(Value::I64(self.u64()? as i64)),
            2 => Ok(Value::F32(f32::from_bits(self.u32()?))),
            3 => Ok(Value::F64(f64::from_bits(self.u64()?))),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn values(&mut self) -> Result<Vec<Value>, WireError> {
        let n = self.u32()?;
        // Do not trust `n` for the allocation: a value is ≥5 bytes, so
        // a count the payload cannot hold is Truncated, not an OOM.
        let mut vs = Vec::with_capacity((n as usize).min(self.rest.len() / 5));
        for _ in 0..n {
            vs.push(self.value()?);
        }
        Ok(vs)
    }

    fn level(&mut self) -> Result<Level, WireError> {
        match self.u8()? {
            0 => Ok(Level::Naive),
            1 => Ok(Level::FlowBased),
            2 => Ok(Level::LoopBased),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn quote(&mut self) -> Result<Quote, WireError> {
        Ok(Quote {
            mrenclave: Measurement(self.digest()?),
            report_data: self.take(64)?.try_into().expect("64"),
            platform: self.string()?,
            signature: self.digest()?,
        })
    }

    fn log(&mut self) -> Result<ResourceUsageLog, WireError> {
        Ok(ResourceUsageLog {
            weighted_instructions: self.u64()?,
            peak_memory_bytes: self.u64()?,
            memory_integral: self.u128()?,
            io_bytes_in: self.u64()?,
            io_bytes_out: self.u64()?,
            module_hash: self.digest()?,
            session_id: self.u64()?,
        })
    }

    fn signed_log(&mut self) -> Result<SignedLog, WireError> {
        Ok(SignedLog {
            log: self.log()?,
            quote: self.quote()?,
        })
    }

    fn evidence(&mut self) -> Result<InstrumentationEvidence, WireError> {
        Ok(InstrumentationEvidence {
            original_hash: self.digest()?,
            instrumented_hash: self.digest()?,
            level: self.level()?,
            weight_hash: self.digest()?,
            counter_global: self.u32()?,
            quote: self.quote()?,
        })
    }

    fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Element count for a repeated structure whose elements occupy at
    /// least `min_size` bytes each. A count the payload cannot hold is
    /// `Truncated` before any allocation, so hostile counts never OOM.
    fn count(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_size.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn outcome(&mut self) -> Result<RequestOutcome, WireError> {
        match self.u8()? {
            0 => Ok(RequestOutcome::Ok),
            1 => Ok(RequestOutcome::Shed),
            2 => Ok(RequestOutcome::Error),
            3 => Ok(RequestOutcome::Timeout),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn latency(&mut self) -> Result<LatencySummary, WireError> {
        Ok(LatencySummary {
            count: self.u64()?,
            sum_ns: self.u64()?,
            p50_ns: self.u64()?,
            p90_ns: self.u64()?,
            p99_ns: self.u64()?,
        })
    }

    fn record(&mut self) -> Result<RequestRecord, WireError> {
        let trace_id = self.u64()?;
        let kind = self.string()?;
        let tenant = self.string()?;
        let func = self.string()?;
        let session_id = self.u64()?;
        let outcome = self.outcome()?;
        let error = self.string()?;
        let start_ns = self.u64()?;
        let total_ns = self.u64()?;
        let n = self.count(12)?; // stage: 4-byte name length + 8-byte ns
        let mut stages = Vec::with_capacity(n);
        for _ in 0..n {
            stages.push((self.string()?, self.u64()?));
        }
        Ok(RequestRecord {
            trace_id,
            kind,
            tenant,
            func,
            session_id,
            outcome,
            error,
            start_ns,
            total_ns,
            stages,
        })
    }

    fn snapshot(&mut self) -> Result<StatsSnapshot, WireError> {
        let uptime_ns = self.u64()?;
        let workers = self.u32()?;
        let workers_busy = self.u32()?;
        let queue_capacity = self.u32()?;
        let queue_depth = self.u32()?;
        let connections_total = self.u64()?;
        let connections_active = self.u32()?;
        let n = self.count(12)?; // kind: 4-byte name length + 8-byte count
        let mut requests_by_kind = Vec::with_capacity(n);
        for _ in 0..n {
            requests_by_kind.push((self.string()?, self.u64()?));
        }
        let shed_queue_total = self.u64()?;
        let shed_tenant_total = self.u64()?;
        let errors_total = self.u64()?;
        let timeouts_total = self.u64()?;
        let instr_cache = CacheStats {
            hits: self.u64()?,
            misses: self.u64()?,
            evictions: self.u64()?,
            singleflight_waits: self.u64()?,
        };
        let n = self.count(48)?; // tenant: name length + 4 + 3×8 + 16
        let mut tenants = Vec::with_capacity(n);
        for _ in 0..n {
            tenants.push(TenantStats {
                tenant: self.string()?,
                inflight: self.u32()?,
                requests_total: self.u64()?,
                shed_total: self.u64()?,
                weighted_instructions_total: self.u64()?,
                invoice_nanocredits_total: self.u128()?,
            });
        }
        let latency = self.latency()?;
        let n = self.count(44)?; // stage: name length + 5×8
        let mut stages = Vec::with_capacity(n);
        for _ in 0..n {
            stages.push((self.string()?, self.latency()?));
        }
        let sha256_kernel = self.string()?;
        Ok(StatsSnapshot {
            uptime_ns,
            workers,
            workers_busy,
            queue_capacity,
            queue_depth,
            connections_total,
            connections_active,
            requests_by_kind,
            shed_queue_total,
            shed_tenant_total,
            errors_total,
            timeouts_total,
            instr_cache,
            tenants,
            latency,
            stages,
            sha256_kernel,
        })
    }

    fn health(&mut self) -> Result<HealthReport, WireError> {
        Ok(HealthReport {
            healthy: self.boolean()?,
            draining: self.boolean()?,
            uptime_ns: self.u64()?,
            wire_version: self.u16()?,
            workers: self.u32()?,
            queue_capacity: self.u32()?,
            deployments: self.u32()?,
            sessions_served: self.u64()?,
        })
    }

    fn fleet_unit(&mut self) -> Result<FleetUnit, WireError> {
        Ok(FleetUnit {
            unit_id: self.u64()?,
            session_id: self.u64()?,
            func: self.string()?,
            module: self.bytes()?,
            evidence: self.evidence()?,
            deadline_ms: self.u64()?,
        })
    }

    fn fleet_submission(&mut self) -> Result<FleetSubmission, WireError> {
        match self.u8()? {
            0 => Ok(FleetSubmission::Completed {
                results: self.values()?,
                log: Box::new(self.signed_log()?),
            }),
            1 => Ok(FleetSubmission::Trapped {
                reason: self.string()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn fleet_ack(&mut self) -> Result<FleetAck, WireError> {
        match self.u8()? {
            0 => Ok(FleetAck::Accepted),
            1 => Ok(FleetAck::Stale),
            2 => Ok(FleetAck::Rejected {
                reason: self.string()?,
            }),
            3 => Ok(FleetAck::Quarantined {
                reason: self.string()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn fleet_report(&mut self) -> Result<FleetReport, WireError> {
        let units_total = self.u64()?;
        let completed = self.u64()?;
        let pending = self.u64()?;
        let inflight = self.u64()?;
        let checks_scheduled = self.u64()?;
        let checks_mismatched = self.u64()?;
        let redispatched = self.u64()?;
        let rejected = self.u64()?;
        let done = self.boolean()?;
        let n = self.count(17)?; // row: name length + 8 + 4 + 1
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            workers.push(FleetWorkerRow {
                name: self.string()?,
                completed: self.u64()?,
                inflight: self.u32()?,
                quarantined: self.boolean()?,
            });
        }
        Ok(FleetReport {
            units_total,
            completed,
            pending,
            inflight,
            checks_scheduled,
            checks_mismatched,
            redispatched,
            rejected,
            done,
            workers,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.rest.len()))
        }
    }
}

/// Reads one frame header + payload. `Ok(None)` means the peer closed
/// the connection cleanly before the first byte of a frame. The
/// returned [`Instant`] is taken when the first byte of the frame
/// arrives, so `started.elapsed()` after decoding measures the parse
/// stage (frame read + structural decode) without counting the idle
/// wait for the peer to speak.
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>, Instant)>, WireError> {
    let mut magic = [0u8; 4];
    // Distinguish clean close (no bytes at all) from mid-frame EOF.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut magic[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let started = Instant::now();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut head = [0u8; 7];
    r.read_exact(&mut head)?;
    let version = u16::from_le_bytes([head[0], head[1]]);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = head[2];
    let len = u32::from_le_bytes([head[3], head[4], head[5], head[6]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, payload, started)))
}

/// Reads one request frame. `Ok(None)` on clean connection close.
///
/// # Errors
///
/// Any [`WireError`]; response kinds are [`WireError::UnknownKind`].
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    Ok(read_request_timed(r)?.map(|(req, _, _)| req))
}

/// [`read_request`], plus timing for the stats plane: the [`Instant`]
/// the frame's first byte arrived (the request's start on the server)
/// and the nanoseconds spent reading + decoding it (the `parse`
/// stage). The idle wait before the first byte — client think time on
/// a keep-alive connection — is excluded from both.
///
/// # Errors
///
/// Any [`WireError`]; response kinds are [`WireError::UnknownKind`].
pub fn read_request_timed(r: &mut impl Read) -> Result<Option<(Request, Instant, u64)>, WireError> {
    let Some((kind, payload, started)) = read_frame(r)? else {
        return Ok(None);
    };
    let req = decode_request_payload(kind, &payload)?;
    let parse_ns = started.elapsed().as_nanos() as u64;
    Ok(Some((req, started, parse_ns)))
}

/// Decodes a request structure from an already-extracted payload.
fn decode_request_payload(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor { rest: payload };
    let req = match kind {
        REQ_ATTEST => Request::Attest { nonce: c.digest()? },
        REQ_DEPLOY => Request::Deploy {
            level: c.level()?,
            module: c.bytes()?,
            trace_id: c.u64()?,
        },
        REQ_INVOKE => Request::Invoke {
            deploy_id: c.u64()?,
            func: c.string()?,
            args: c.values()?,
            input: c.bytes()?,
            tenant: c.string()?,
            trace_id: c.u64()?,
        },
        REQ_FETCH_LOG => Request::FetchLog {
            session_id: c.u64()?,
        },
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_STATS => Request::Stats {
            prometheus: c.boolean()?,
        },
        REQ_HEALTH => Request::Health,
        REQ_RECENT => Request::Recent { limit: c.u32()? },
        REQ_FLEET_HELLO => Request::FleetHello {
            worker: c.string()?,
        },
        REQ_FLEET_JOIN => Request::FleetJoin {
            worker: c.string()?,
            quote: c.quote()?,
        },
        REQ_FLEET_PULL => Request::FleetPull {
            worker_id: c.u64()?,
            capacity: c.u32()?,
        },
        REQ_FLEET_SUBMIT => Request::FleetSubmit {
            worker_id: c.u64()?,
            unit_id: c.u64()?,
            session_id: c.u64()?,
            submission: c.fleet_submission()?,
        },
        REQ_FLEET_STATUS => Request::FleetStatus,
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Incrementally decodes one request frame from the front of `buf`
/// (the event-driven server's multi-frame read buffer).
///
/// `Ok(None)` means the buffer holds only a frame prefix — read more
/// bytes and try again. `Ok(Some((req, consumed)))` means a complete
/// frame occupied `buf[..consumed]`. Header fields are validated as
/// soon as the bytes that carry them are present, so garbage fails
/// fast even before a full header arrives.
///
/// # Errors
///
/// Any [`WireError`]; response kinds are [`WireError::UnknownKind`].
pub fn decode_request_frame(buf: &[u8]) -> Result<Option<(Request, usize)>, WireError> {
    // Validate the prefix we do have: a desynchronised or hostile peer
    // should be rejected without waiting for more bytes that will
    // never make the frame valid.
    let have = buf.len().min(4);
    if buf[..have] != MAGIC[..have] {
        let mut m = [0u8; 4];
        m[..have].copy_from_slice(&buf[..have]);
        return Err(WireError::BadMagic(m));
    }
    if buf.len() >= 6 {
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let kind = buf[6];
    let len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let req = decode_request_payload(kind, &buf[HEADER_LEN..total])?;
    Ok(Some((req, total)))
}

/// Reads one response frame (a missing frame is an error: the client
/// always expects an answer).
///
/// # Errors
///
/// Any [`WireError`]; request kinds are [`WireError::UnknownKind`].
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    let Some((kind, payload, _)) = read_frame(r)? else {
        return Err(WireError::Io(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed awaiting response".into(),
        ));
    };
    let mut c = Cursor { rest: &payload };
    let resp = match kind {
        RESP_ATTEST_OK => Response::AttestOk { quote: c.quote()? },
        RESP_DEPLOY_OK => Response::DeployOk {
            deploy_id: c.u64()?,
            module: c.bytes()?,
            evidence: c.evidence()?,
        },
        RESP_INVOKE_OK => Response::InvokeOk {
            session_id: c.u64()?,
            results: c.values()?,
            output: c.bytes()?,
            log: c.signed_log()?,
            invoice_total: c.u128()?,
        },
        RESP_LOG_OK => Response::LogOk {
            log: c.signed_log()?,
        },
        RESP_SHUTDOWN_OK => Response::ShutdownOk,
        RESP_BUSY => Response::Busy,
        RESP_ERROR => Response::Error {
            message: c.string()?,
        },
        RESP_STATS_OK => Response::StatsOk {
            snapshot: c.snapshot()?,
        },
        RESP_STATS_TEXT_OK => Response::StatsTextOk { text: c.string()? },
        RESP_HEALTH_OK => Response::HealthOk {
            report: c.health()?,
        },
        RESP_RECENT_OK => {
            let n = c.count(47)?; // record: 8 + 3×4 + 8 + 1 + 4 + 2×8 + 4 floor
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(c.record()?);
            }
            Response::RecentOk { records }
        }
        RESP_FLEET_CHALLENGE => Response::FleetChallenge { nonce: c.digest()? },
        RESP_FLEET_WELCOME => Response::FleetWelcome {
            worker_id: c.u64()?,
        },
        RESP_FLEET_ASSIGN => {
            let n = c.count(89)?; // unit: 3×u64 + 2×length + evidence floor
            let mut units = Vec::with_capacity(n);
            for _ in 0..n {
                units.push(c.fleet_unit()?);
            }
            let done = c.boolean()?;
            Response::FleetAssign { units, done }
        }
        RESP_FLEET_ACK => Response::FleetAckOk {
            ack: c.fleet_ack()?,
        },
        RESP_FLEET_STATUS_OK => Response::FleetStatusOk {
            fleet: c.fleet_report()?,
        },
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote() -> Quote {
        Quote {
            mrenclave: Measurement::of(b"enclave"),
            report_data: [7u8; 64],
            platform: "ae-host".into(),
            signature: [9u8; 32],
        }
    }

    fn signed_log() -> SignedLog {
        SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: u64::MAX - 3,
                peak_memory_bytes: 65536,
                memory_integral: u128::MAX / 7,
                io_bytes_in: 12,
                io_bytes_out: 34,
                module_hash: [0xab; 32],
                session_id: 99,
            },
            quote: quote(),
        }
    }

    fn evidence() -> InstrumentationEvidence {
        InstrumentationEvidence {
            original_hash: [1; 32],
            instrumented_hash: [2; 32],
            level: Level::FlowBased,
            weight_hash: [3; 32],
            counter_global: 17,
            quote: quote(),
        }
    }

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot {
            uptime_ns: 1_000_000_007,
            workers: 4,
            workers_busy: 2,
            queue_capacity: 16,
            queue_depth: 3,
            connections_total: 321,
            connections_active: 5,
            requests_by_kind: vec![("invoke".into(), 100), ("deploy".into(), 2)],
            shed_queue_total: 7,
            shed_tenant_total: 11,
            errors_total: 1,
            timeouts_total: 2,
            instr_cache: CacheStats {
                hits: 90,
                misses: 10,
                evictions: 3,
                singleflight_waits: 4,
            },
            tenants: vec![TenantStats {
                tenant: "alice".into(),
                inflight: 1,
                requests_total: 60,
                shed_total: 5,
                weighted_instructions_total: 1_234_567,
                invoice_nanocredits_total: u128::MAX / 5,
            }],
            latency: LatencySummary {
                count: 100,
                sum_ns: 5_000_000,
                p50_ns: 40_000,
                p90_ns: 90_000,
                p99_ns: 250_000,
            },
            stages: vec![(
                "execute".into(),
                LatencySummary {
                    count: 100,
                    sum_ns: 4_000_000,
                    p50_ns: 30_000,
                    p90_ns: 80_000,
                    p99_ns: 200_000,
                },
            )],
            sha256_kernel: "sha-ni".into(),
        }
    }

    fn record() -> RequestRecord {
        RequestRecord {
            trace_id: 0xfeed_f00d,
            kind: "invoke".into(),
            tenant: "alice".into(),
            func: "main".into(),
            session_id: 9,
            outcome: RequestOutcome::Timeout,
            error: "deadline exceeded".into(),
            start_ns: 123,
            total_ns: 456_789,
            stages: vec![("parse".into(), 100), ("execute".into(), 456_000)],
        }
    }

    fn rt_request(req: &Request) {
        let bytes = encode_request(req);
        let got = read_request(&mut bytes.as_slice())
            .expect("decodes")
            .expect("not eof");
        assert_eq!(&got, req);
    }

    fn rt_response(resp: &Response) {
        let bytes = encode_response(resp);
        let got = read_response(&mut bytes.as_slice()).expect("decodes");
        assert_eq!(&got, resp);
    }

    #[test]
    fn every_request_round_trips() {
        rt_request(&Request::Attest { nonce: [5; 32] });
        rt_request(&Request::Deploy {
            level: Level::LoopBased,
            module: vec![0, 1, 2, 255],
            trace_id: 0xdead_beef_cafe_f00d,
        });
        rt_request(&Request::Invoke {
            deploy_id: 3,
            func: "mäin".into(),
            args: vec![
                Value::I32(-1),
                Value::I64(i64::MIN),
                Value::F32(1.5),
                Value::F64(-2.25),
            ],
            input: b"payload".to_vec(),
            tenant: "tenant-a".into(),
            trace_id: u64::MAX,
        });
        rt_request(&Request::FetchLog { session_id: 77 });
        rt_request(&Request::Shutdown);
        rt_request(&Request::Stats { prometheus: false });
        rt_request(&Request::Stats { prometheus: true });
        rt_request(&Request::Health);
        rt_request(&Request::Recent { limit: 128 });
    }

    #[test]
    fn float_values_survive_bit_exactly() {
        // PartialEq on Value treats NaN != NaN, so check bits directly.
        let req = Request::Invoke {
            deploy_id: 0,
            func: "f".into(),
            args: vec![
                Value::F32(f32::NAN),
                Value::F64(f64::from_bits(0x7ff8_dead_beef_0001)),
            ],
            input: Vec::new(),
            tenant: String::new(),
            trace_id: 0,
        };
        let bytes = encode_request(&req);
        let Some(Request::Invoke { args, .. }) = read_request(&mut bytes.as_slice()).unwrap()
        else {
            panic!("wrong variant");
        };
        let (Value::F32(a), Value::F64(b)) = (args[0], args[1]) else {
            panic!("wrong types");
        };
        assert_eq!(a.to_bits(), f32::NAN.to_bits());
        assert_eq!(b.to_bits(), 0x7ff8_dead_beef_0001);
    }

    #[test]
    fn every_response_round_trips() {
        rt_response(&Response::AttestOk { quote: quote() });
        rt_response(&Response::DeployOk {
            deploy_id: 8,
            module: vec![1; 300],
            evidence: evidence(),
        });
        rt_response(&Response::InvokeOk {
            session_id: 4,
            results: vec![Value::I32(42)],
            output: b"out".to_vec(),
            log: signed_log(),
            invoice_total: u128::MAX / 3,
        });
        rt_response(&Response::LogOk { log: signed_log() });
        rt_response(&Response::ShutdownOk);
        rt_response(&Response::Busy);
        rt_response(&Response::Error {
            message: "nø".into(),
        });
        rt_response(&Response::StatsOk {
            snapshot: snapshot(),
        });
        rt_response(&Response::StatsTextOk {
            text: "# TYPE x counter\nx 1\n".into(),
        });
        rt_response(&Response::HealthOk {
            report: HealthReport {
                healthy: true,
                draining: false,
                uptime_ns: 42,
                wire_version: WIRE_VERSION,
                workers: 4,
                queue_capacity: 16,
                deployments: 2,
                sessions_served: 99,
            },
        });
        rt_response(&Response::RecentOk {
            records: vec![record(), record()],
        });
        rt_response(&Response::RecentOk { records: vec![] });
    }

    fn fleet_unit() -> FleetUnit {
        FleetUnit {
            unit_id: 42,
            session_id: 1077,
            func: "run".into(),
            module: vec![0, 97, 115, 109, 7],
            evidence: evidence(),
            deadline_ms: 2500,
        }
    }

    #[test]
    fn every_fleet_request_round_trips() {
        rt_request(&Request::FleetHello {
            worker: "node-07".into(),
        });
        rt_request(&Request::FleetJoin {
            worker: "node-07".into(),
            quote: quote(),
        });
        rt_request(&Request::FleetPull {
            worker_id: 9,
            capacity: 4,
        });
        rt_request(&Request::FleetSubmit {
            worker_id: 9,
            unit_id: 42,
            session_id: 1077,
            submission: FleetSubmission::Completed {
                results: vec![Value::I64(-7)],
                log: Box::new(signed_log()),
            },
        });
        rt_request(&Request::FleetSubmit {
            worker_id: 9,
            unit_id: 43,
            session_id: 1078,
            submission: FleetSubmission::Trapped {
                reason: "deadline exceeded".into(),
            },
        });
        rt_request(&Request::FleetStatus);
    }

    #[test]
    fn every_fleet_response_round_trips() {
        rt_response(&Response::FleetChallenge { nonce: [3; 32] });
        rt_response(&Response::FleetWelcome { worker_id: 12 });
        rt_response(&Response::FleetAssign {
            units: vec![fleet_unit(), fleet_unit()],
            done: false,
        });
        rt_response(&Response::FleetAssign {
            units: vec![],
            done: true,
        });
        for ack in [
            FleetAck::Accepted,
            FleetAck::Stale,
            FleetAck::Rejected {
                reason: "log failed verification".into(),
            },
            FleetAck::Quarantined {
                reason: "spot-check mismatch".into(),
            },
        ] {
            rt_response(&Response::FleetAckOk { ack });
        }
        rt_response(&Response::FleetStatusOk {
            fleet: FleetReport {
                units_total: 200,
                completed: 150,
                pending: 30,
                inflight: 20,
                checks_scheduled: 11,
                checks_mismatched: 1,
                redispatched: 2,
                rejected: 3,
                done: false,
                workers: vec![FleetWorkerRow {
                    name: "node-01".into(),
                    completed: 75,
                    inflight: 2,
                    quarantined: true,
                }],
            },
        });
    }

    #[test]
    fn fleet_truncations_error_never_panic() {
        let frames = [
            encode_request(&Request::FleetSubmit {
                worker_id: 1,
                unit_id: 2,
                session_id: 3,
                submission: FleetSubmission::Completed {
                    results: vec![Value::I64(5)],
                    log: Box::new(signed_log()),
                },
            }),
            encode_response(&Response::FleetAssign {
                units: vec![fleet_unit()],
                done: false,
            }),
        ];
        for cut in 1..frames[0].len() {
            assert!(read_request(&mut &frames[0][..cut]).is_err());
        }
        for cut in 1..frames[1].len() {
            assert!(read_response(&mut &frames[1][..cut]).is_err());
        }
        // Hostile unit count in an assign payload: truncation, not OOM.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x8e); // RESP_FLEET_ASSIGN
        f.extend_from_slice(&4u32.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));
    }

    #[test]
    fn timed_request_read_reports_parse_duration() {
        let req = Request::Invoke {
            deploy_id: 1,
            func: "f".into(),
            args: vec![Value::I32(1)],
            input: vec![0; 4096],
            tenant: "t".into(),
            trace_id: 7,
        };
        let bytes = encode_request(&req);
        let (got, _started, parse_ns) = read_request_timed(&mut bytes.as_slice())
            .expect("decodes")
            .expect("not eof");
        assert_eq!(got, req);
        // The clock starts at the first frame byte; decoding an
        // in-memory frame is fast but never free.
        assert!(parse_ns < 1_000_000_000, "{parse_ns}");
    }

    #[test]
    fn canonical_log_encoding_preserves_binding() {
        // The property remote verification rests on: the decoded log
        // recomputes to the exact binding the enclave signed.
        let s = signed_log();
        let bytes = encode_response(&Response::LogOk { log: s.clone() });
        let Response::LogOk { log } = read_response(&mut bytes.as_slice()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(log.log.binding(), s.log.binding());
        assert_eq!(log.quote, s.quote);
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let request_frames = [encode_request(&Request::Invoke {
            deploy_id: 1,
            func: "f".into(),
            args: vec![Value::I64(7)],
            input: vec![1, 2, 3],
            tenant: "t".into(),
            trace_id: 5,
        })];
        let response_frames = [
            encode_response(&Response::InvokeOk {
                session_id: 1,
                results: vec![Value::F64(1.5)],
                output: vec![9],
                log: signed_log(),
                invoice_total: 10,
            }),
            encode_response(&Response::StatsOk {
                snapshot: snapshot(),
            }),
            encode_response(&Response::RecentOk {
                records: vec![record()],
            }),
        ];
        for frame in &request_frames {
            for cut in 1..frame.len() {
                assert!(
                    read_request(&mut &frame[..cut]).is_err(),
                    "request cut at {cut} must error"
                );
            }
        }
        for frame in &response_frames {
            for cut in 1..frame.len() {
                assert!(
                    read_response(&mut &frame[..cut]).is_err(),
                    "response cut at {cut} must error"
                );
            }
        }
    }

    #[test]
    fn empty_stream_is_clean_eof_for_requests() {
        assert_eq!(read_request(&mut &[][..]), Ok(None));
        // A response, by contrast, was promised: EOF is an error.
        assert!(read_response(&mut &[][..]).is_err());
    }

    #[test]
    fn garbage_frames_error_never_panic() {
        // Wrong magic.
        let r = read_request(&mut &b"NOPExxxxxxxxxxx"[..]);
        assert_eq!(r, Err(WireError::BadMagic(*b"NOPE")));
        // Wrong version.
        let mut f = encode_request(&Request::Shutdown);
        f[4] = 0xff;
        assert!(matches!(
            read_request(&mut f.as_slice()),
            Err(WireError::BadVersion(_))
        ));
        // Unknown kind.
        let mut f = encode_request(&Request::Shutdown);
        f[6] = 0x7f;
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::UnknownKind(0x7f))
        );
        // A response kind is not a request.
        let f = encode_response(&Response::Busy);
        assert!(matches!(
            read_request(&mut f.as_slice()),
            Err(WireError::UnknownKind(_))
        ));
        // Oversized declared payload.
        let mut f = encode_request(&Request::Shutdown);
        f[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
        // Trailing bytes inside a well-formed frame.
        let mut f = encode_request(&Request::FetchLog { session_id: 1 });
        f.push(0);
        let len = u32::from_le_bytes(f[7..11].try_into().unwrap());
        f[7..11].copy_from_slice(&(len + 1).to_le_bytes());
        assert_eq!(
            read_request(&mut f.as_slice()),
            Err(WireError::TrailingBytes(1))
        );
        // Bad enum tags.
        let mut f = encode_request(&Request::Deploy {
            level: Level::Naive,
            module: vec![],
            trace_id: 0,
        });
        f[11] = 9; // level byte
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadTag(9)));
        // A stats format byte outside {0, 1} is a bad tag too.
        let mut f = encode_request(&Request::Stats { prometheus: false });
        f[11] = 2;
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadTag(2)));
        // Bad UTF-8 in a string field.
        let mut f = encode_request(&Request::FetchLog { session_id: 0 });
        // Rebuild as an invoke with a 1-byte invalid-UTF-8 func name.
        f.clear();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x03); // REQ_INVOKE
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.push(0xff); // invalid UTF-8 func
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::BadUtf8));
    }

    #[test]
    fn incremental_decode_handles_split_and_batched_frames() {
        let reqs = [
            Request::Invoke {
                deploy_id: 3,
                func: "f".into(),
                args: vec![Value::I32(7)],
                input: b"in".to_vec(),
                tenant: "t".into(),
                trace_id: 9,
            },
            Request::Health,
            Request::FetchLog { session_id: 4 },
        ];
        // One buffer holding all three frames back-to-back: each
        // decode consumes exactly one frame, in order.
        let mut batch = Vec::new();
        for r in &reqs {
            encode_request_into(&mut batch, r);
        }
        let mut off = 0;
        for want in &reqs {
            let (got, used) = decode_request_frame(&batch[off..])
                .expect("decodes")
                .expect("complete");
            assert_eq!(&got, want);
            off += used;
        }
        assert_eq!(off, batch.len());

        // Feeding the same bytes one at a time: every proper prefix is
        // "incomplete", never an error, and the full frame decodes.
        let frame = encode_request(&reqs[0]);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_request_frame(&frame[..cut]),
                Ok(None),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (got, used) = decode_request_frame(&frame).unwrap().unwrap();
        assert_eq!(got, reqs[0]);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn incremental_decode_rejects_garbage_prefixes_early() {
        // Wrong magic is detected from the very first byte.
        assert!(matches!(
            decode_request_frame(b"N"),
            Err(WireError::BadMagic(_))
        ));
        // Wrong version is detected as soon as both bytes are in.
        let mut f = encode_request(&Request::Shutdown);
        f[4] = 0xff;
        assert!(matches!(
            decode_request_frame(&f[..6]),
            Err(WireError::BadVersion(_))
        ));
        // Oversized declared length fails without waiting for payload.
        let mut f = encode_request(&Request::Shutdown);
        f[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_request_frame(&f),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn append_encoders_match_the_allocating_encoders() {
        let req = Request::Deploy {
            level: Level::FlowBased,
            module: vec![1, 2, 3],
            trace_id: 5,
        };
        let resp = Response::InvokeOk {
            session_id: 1,
            results: vec![Value::I64(-2)],
            output: b"x".to_vec(),
            log: signed_log(),
            invoice_total: 12,
        };
        let mut buf = b"prefix".to_vec();
        encode_request_into(&mut buf, &req);
        encode_response_into(&mut buf, &resp);
        let mut expect = b"prefix".to_vec();
        expect.extend_from_slice(&encode_request(&req));
        expect.extend_from_slice(&encode_response(&resp));
        assert_eq!(buf, expect);
    }

    #[test]
    fn huge_value_count_is_truncation_not_oom() {
        // An Invoke whose declared arg count far exceeds the payload
        // must fail fast without attempting the allocation.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // deploy_id
        p.extend_from_slice(&1u32.to_le_bytes()); // func len
        p.push(b'f');
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // arg count
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x03);
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_request(&mut f.as_slice()), Err(WireError::Truncated));
    }

    #[test]
    fn huge_record_and_tenant_counts_are_truncation_not_oom() {
        // A RecentOk declaring u32::MAX records in an empty payload.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x8b); // RESP_RECENT_OK
        f.extend_from_slice(&4u32.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));

        // A StatsOk whose kind-count is hostile fails the same way:
        // fixed header (2×u64 + 5×u32 = 36 bytes) then the count.
        let mut p = vec![0u8; 36];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        f.push(0x88); // RESP_STATS_OK
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&p);
        assert_eq!(read_response(&mut f.as_slice()), Err(WireError::Truncated));
    }
}
