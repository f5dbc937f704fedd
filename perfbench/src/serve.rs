//! The serving workloads: an in-process `acctee_net::Server` on the
//! register engine, `nproc` keep-alive client connections driven from
//! one thread each in a closed loop, and the output checks.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acctee::Level;
use acctee_interp::Engine;
use acctee_net::{
    Client, DeployHandle, InvokeSpec, NetError, Server, ServerConfig, StatsSnapshot, TrustAnchor,
};

use crate::common::{
    host_cores, ns_since, peak_rss_mib, Report, SessionSet, ATTEST_SEED, IO_TIMEOUT, SETUPS,
};
use crate::inputs::{check_response, Bill, Inputs};
use crate::layers;
use crate::span::Recorder;
use crate::stats::Samples;

/// Pipeline depth of the batched workloads.
pub const DEPTH: u64 = 32;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TinyPipelined,
    ComputeBilled,
}

impl Kind {
    fn pipelined(self) -> bool {
        self == Kind::TinyPipelined
    }

    /// Verified invokes after which `peak_rss_mib` is read.
    fn rss_after(self) -> u64 {
        match self {
            Kind::TinyPipelined => 32_768,
            Kind::ComputeBilled => 512,
        }
    }
}

/// A running server with its attested, deployed client connections.
struct Live {
    addr: SocketAddr,
    server: JoinHandle<()>,
    conns: Vec<(Client, Vec<DeployHandle>)>,
}

/// Binds the server, attests one connection per core and deploys every
/// module on each. The first deploy of a module instruments it cold;
/// later connections hit the server's instrumentation cache.
fn setup(inputs: &Inputs, attest_ns: &mut Vec<f64>) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let cores = host_cores();
    let config = ServerConfig {
        seed: ATTEST_SEED,
        engine: Engine::Regs,
        workers: cores,
        queue_depth: cores * 4 + 8,
        tenant_inflight: 64,
        io_timeout: IO_TIMEOUT,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let (addr, server) = server.spawn();
    let mut conns = Vec::with_capacity(cores);
    for _ in 0..cores {
        let a0 = Instant::now();
        let mut client = Client::connect(addr, TrustAnchor::new(ATTEST_SEED), IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        attest_ns.push(ns_since(a0));
        let mut handles = Vec::new();
        for m in &inputs.modules {
            handles.push(
                client
                    .deploy(&m.bytes, Level::LoopBased)
                    .map_err(|e| format!("deploy {}: {e}", m.name))?,
            );
        }
        conns.push((client, handles));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            addr,
            server,
            conns,
        },
        secs,
    ))
}

/// Asks the server for its stats (optionally) and to drain, then joins
/// it.
fn teardown(live: Live, want_stats: bool) -> Option<StatsSnapshot> {
    drop(live.conns);
    let mut stats = None;
    if let Ok(mut ctl) = Client::connect(live.addr, TrustAnchor::new(ATTEST_SEED), IO_TIMEOUT) {
        if want_stats {
            stats = ctl.stats().ok();
        }
        let _ = ctl.shutdown();
    }
    let _ = live.server.join();
    stats
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Drive {
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    pub wall_s: f64,
    pub problems: Vec<String>,
    pub sessions: SessionSet,
    /// Round trip of every successful batch (pipelined) or request, ns.
    pub rtts: Vec<f64>,
    /// Peak RSS once `Kind::rss_after` invokes verified (or at the end
    /// of the load if fewer did), before any check allocates.
    pub peak_rss_mib: f64,
    pub rss_read_after: u64,
}

/// Runs every connection in a closed loop until `seconds` pass: a
/// connection sends its next batch (or request) only after the previous
/// one's logs came back and verified.
fn drive(live: &mut Live, kind: Kind, inputs: &Inputs, bills: &[Bill], seconds: f64) -> Drive {
    let total = Mutex::new(Drive::default());
    // Peak RSS is read once a fixed amount of work is done, so runs are
    // compared at equal work.
    let verified = AtomicU64::new(0);
    let rss = OnceLock::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (c, (client, handles)) in live.conns.iter_mut().enumerate() {
            let (total, verified, rss) = (&total, &verified, &rss);
            let trip = move |d: &mut Drive, n: u64, rtt_ns: f64| {
                d.rtts.push(rtt_ns);
                let done = verified.fetch_add(n, Ordering::Relaxed) + n;
                if done >= kind.rss_after() {
                    rss.get_or_init(|| (peak_rss_mib(), done));
                }
            };
            scope.spawn(move || {
                let mut d = Drive::default();
                let tenant = format!("tenant-{c}");
                let mut i = 0u64;
                while Instant::now() < deadline {
                    if kind.pipelined() {
                        let reqs: Vec<_> = (i..i + DEPTH)
                            .map(|k| inputs.request(c as u64, k))
                            .collect();
                        let specs: Vec<InvokeSpec> = reqs
                            .iter()
                            .map(|r| InvokeSpec {
                                func: inputs.modules[r.module].func.into(),
                                args: r.args.clone(),
                                input: r.input.clone(),
                                tenant: tenant.clone(),
                            })
                            .collect();
                        d.attempted += DEPTH;
                        let t0 = Instant::now();
                        // verify_every = 1: every signed log is verified.
                        let outs = client.invoke_pipelined(&handles[0], &specs, 1);
                        let rtt = ns_since(t0);
                        match outs {
                            Ok(items) => {
                                let before = d.verified;
                                for (r, item) in reqs.iter().zip(items) {
                                    record(&mut d, r, item, bills);
                                }
                                let n = d.verified - before;
                                trip(&mut d, n, rtt);
                            }
                            Err(e) => {
                                d.failed += DEPTH;
                                d.problems.push(format!("pipelined batch: {e}"));
                                break;
                            }
                        }
                        i += DEPTH;
                    } else {
                        let r = inputs.request(c as u64, i);
                        let m = &inputs.modules[r.module];
                        d.attempted += 1;
                        let t0 = Instant::now();
                        let out =
                            client.invoke(&handles[r.module], m.func, &r.args, &r.input, &tenant);
                        let rtt = ns_since(t0);
                        let fatal = matches!(out, Err(NetError::Io(_) | NetError::Wire(_)));
                        let ok = out.is_ok();
                        record(&mut d, &r, out, bills);
                        if ok {
                            trip(&mut d, 1, rtt);
                        }
                        if fatal {
                            break;
                        }
                        i += 1;
                    }
                }
                let mut t = total.lock().unwrap();
                t.rtts.extend(d.rtts);
                t.attempted += d.attempted;
                t.failed += d.failed;
                t.verified += d.verified;
                t.sessions.merge(&d.sessions);
                t.problems.extend(d.problems.into_iter().take(8));
            });
        }
    });
    let mut d = total.into_inner().unwrap();
    d.wall_s = start.elapsed().as_secs_f64();
    match rss.get() {
        Some(&(mib, n)) => (d.peak_rss_mib, d.rss_read_after) = (mib, n),
        None => (d.peak_rss_mib, d.rss_read_after) = (peak_rss_mib(), d.verified),
    }
    d
}

/// Folds one response into the loop's tallies.
fn record(
    d: &mut Drive,
    req: &crate::inputs::Req,
    item: Result<acctee_net::InvokeOutcome, NetError>,
    bills: &[Bill],
) {
    match item {
        Ok(out) => {
            d.verified += 1;
            d.sessions.insert(out.session_id);
            if let Err(e) = check_response(req, &out.results, &out.output, &out.log.log, bills) {
                d.problems.push(format!("session {}: {e}", out.session_id));
            }
        }
        Err(e) => {
            d.failed += 1;
            d.problems.push(format!("invoke failed: {e}"));
        }
    }
}

/// Times `n` set-ups, each torn down at once.
fn timed_setups(inputs: &Inputs, n: usize, attest_ns: &mut Vec<f64>) -> Result<Vec<f64>, String> {
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let (live, s) = setup(inputs, attest_ns)?;
        secs.push(s);
        teardown(live, false);
    }
    Ok(secs)
}

/// Runs one serving workload and reports its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, rep: &mut Report) -> Option<Recorder> {
    let inputs = match kind {
        Kind::TinyPipelined => Inputs::tiny(seed),
        Kind::ComputeBilled => Inputs::compute(seed),
    };
    let bills = match inputs.reference_bills() {
        Ok(b) => b,
        Err(e) => {
            rep.problem(format!("reference: {e}"));
            return None;
        }
    };

    // An untimed warm-up, then `SETUPS` timed set-ups before the load
    // and `SETUPS` after it, so `setup_s` samples two moments of the
    // run. One more set-up, untimed, serves the load.
    let mut attest_ns = Vec::new();
    let before = timed_setups(&inputs, 1, &mut attest_ns)
        .and_then(|_| timed_setups(&inputs, SETUPS, &mut attest_ns));
    let mut setups = match before {
        Ok(s) => s,
        Err(e) => {
            rep.problem(format!("set-up: {e}"));
            return None;
        }
    };
    let mut live = match setup(&inputs, &mut attest_ns) {
        Ok((l, _)) => l,
        Err(e) => {
            rep.problem(format!("set-up: {e}"));
            return None;
        }
    };

    // With tracing, the served phase shares the run with the replay.
    let served_s = if trace { seconds * 0.4 } else { seconds };
    let d = drive(&mut live, kind, &inputs, &bills, served_s);
    let stats = teardown(live, trace);
    match timed_setups(&inputs, SETUPS, &mut attest_ns) {
        Ok(after) => setups.extend(after),
        Err(e) => rep.problem(format!("set-up after the load: {e}")),
    }

    rep.attempted = d.attempted;
    rep.failed = d.failed;
    for p in d.problems.iter().take(8) {
        rep.problem(p.clone());
    }
    rep.check(
        d.sessions.repeats == 0 && d.sessions.len == d.verified,
        || format!("{} session ids were acknowledged twice", d.sessions.repeats),
    );

    let per_req = if kind.pipelined() { DEPTH as f64 } else { 1.0 };
    let client_observed_us =
        d.rtts.iter().sum::<f64>() / (d.rtts.len().max(1) as f64 * per_req) / 1e3;
    let rtt = Samples::new(d.rtts);
    let setup = Samples::new(setups);
    rep.note_samples("invoke_rtt", &rtt);
    rep.note("invoke_rtt.requests_per_sample", per_req);
    rep.note_samples("setup", &setup);
    rep.note("verified", d.verified);
    rep.note("wall_s", d.wall_s);
    rep.note("peak_rss_mib", d.peak_rss_mib);
    rep.note("peak_rss_mib.read_after_invokes", d.rss_read_after);
    rep.note("invoke_p99_ms", rtt.percentile(99.0).unwrap_or(0.0) / 1e6);

    if !trace {
        rep.e2e("setup_s", setup.median().unwrap_or(0.0), "s");
        // Every verified invoke over the whole load, and the median of
        // every round trip: no part of the run is left out.
        rep.e2e("invokes_per_s", d.verified as f64 / d.wall_s, "1/s");
        rep.e2e("invoke_p50_ms", rtt.median().unwrap_or(0.0) / 1e6, "ms");
        return None;
    }

    // Per-layer run: the client-observed time per request is the mean
    // time a request held its connection, the additive base the replay's
    // layer means are subtracted from.
    let served = Served {
        client_observed_us,
        stats,
        attest_ns,
        rtt,
        failed_frac: d.failed as f64 / d.attempted.max(1) as f64,
        peak_rss_mib: d.peak_rss_mib,
    };
    Some(layers::serving(
        kind,
        &inputs,
        &bills,
        &served,
        seconds - served_s,
        rep,
    ))
}

/// What the served phase of a traced run hands to the replay.
pub struct Served {
    pub client_observed_us: f64,
    pub stats: Option<StatsSnapshot>,
    pub attest_ns: Vec<f64>,
    pub rtt: Samples,
    pub failed_frac: f64,
    pub peak_rss_mib: f64,
}
