//! The traced replay: each request of a workload is pushed through the
//! public functions of every layer on its path, one after another, in
//! the order the server calls them, with a span around each call. Layer times are means over
//! requests of those spans; what the client observed beyond their sum
//! is reported as `net.unattributed_us`.
//!
//! Probes measure the parts a chain span hides (the quote inside an
//! execution, the quote check inside a log check) and the layers a
//! workload does not put on its request path, on the same inputs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acctee::{Deployment, IoMeter, Level, SignedLog};
use acctee_durable::UsageRecord;
use acctee_fleet::Journal;
use acctee_interp::{CompiledModule, Config, Engine, Imports, Instance, Value};
use acctee_net::wire::{
    decode_request_frame, encode_request_into, encode_response_into, read_response,
};
use acctee_net::{Durable, DurableOptions, FsyncPolicy, Request, Response};
use acctee_wasm::decode::decode_module;
use acctee_wasm::validate::validate_module;

use crate::common::{timed, Report, ScratchDir, ATTEST_SEED};
use crate::inputs::{check_response, tiny_module, Bill, Inputs, Req};
use crate::serve::{Kind, Served};
use crate::span::Recorder;

/// Chain span names and the layer each is charged to.
const CHAIN: [(&str, &str); 7] = [
    ("net.encode_request", "net.wire_codec"),
    ("net.decode_request", "net.wire_codec"),
    ("net.encode_response", "net.wire_codec"),
    ("net.decode_response", "net.wire_codec"),
    ("core.execute", "core.billed_exec"),
    ("core.price", "core.billed_exec"),
    ("core.verify_log", "core.verify_log"),
];

/// Replayed requests per run at most (half traced, half untraced), which
/// bounds the spans kept in memory.
const MAX_REPLAY: u64 = 8192;

/// Recorder that can be switched off for the untraced passes.
struct Tracer {
    rec: Recorder,
    on: bool,
    /// Per-request times of traced and untraced requests, ns, measured
    /// identically (from `open` to `close`).
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            rec: Recorder::new(),
            on: true,
            traced_ns: Vec::new(),
            untraced_ns: Vec::new(),
        }
    }

    /// Starts a request: its root span when tracing, and its clock.
    fn open(&mut self, rid: u64) -> (Option<usize>, Instant) {
        let root = self.on.then(|| self.rec.begin(rid, "request", None));
        (root, Instant::now())
    }

    /// Ends a request's root span and files its time.
    fn close(&mut self, root: Option<usize>, started: Instant) {
        let ns = crate::common::ns_since(started);
        if let Some(r) = root {
            self.rec.end(r);
            self.traced_ns.push(ns);
        } else {
            self.untraced_ns.push(ns);
        }
    }

    fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let id = self.rec.begin(req, name, parent);
        let out = f();
        self.rec.end(id);
        (out, Some(id))
    }
}

/// The replay's own AccTEE installation on both engines.
struct Env {
    regs: Deployment,
    tree: Deployment,
    /// Per module: instrumented bytes, evidence, loaded on regs, loaded
    /// on tree, decoded original and decoded instrumented module.
    modules: Vec<Mod>,
}

struct Mod {
    bytes: Vec<u8>,
    evidence: acctee::InstrumentationEvidence,
    on_regs: acctee::enclave::LoadedWorkload,
    on_tree: acctee::enclave::LoadedWorkload,
    original: acctee_wasm::Module,
    instrumented: acctee_wasm::Module,
    orig_artifact: Option<Arc<CompiledModule>>,
    instr_artifact: Option<Arc<CompiledModule>>,
}

impl Env {
    fn new(originals: &[&[u8]]) -> Result<Env, String> {
        let mut regs = Deployment::new(ATTEST_SEED);
        regs.set_engine(Engine::Regs);
        regs.set_time_budget(Some(Duration::from_secs(10)));
        let mut tree = Deployment::new(ATTEST_SEED);
        tree.set_engine(Engine::Tree);
        let mut modules = Vec::new();
        for orig in originals {
            let (bytes, evidence) = regs
                .instrument(orig, Level::LoopBased)
                .map_err(|e| e.to_string())?;
            let on_regs = regs
                .infrastructure()
                .load(&bytes, &evidence)
                .map_err(|e| e.to_string())?;
            let on_tree = tree
                .infrastructure()
                .load(&bytes, &evidence)
                .map_err(|e| e.to_string())?;
            let original = decode_module(orig).map_err(|e| e.to_string())?;
            let instrumented = decode_module(&bytes).map_err(|e| e.to_string())?;
            let orig_artifact = CompiledModule::compile(&original).ok();
            let instr_artifact = CompiledModule::compile(&instrumented).ok();
            modules.push(Mod {
                bytes,
                evidence,
                on_regs,
                on_tree,
                original,
                instrumented,
                orig_artifact,
                instr_artifact,
            });
        }
        Ok(Env {
            regs,
            tree,
            modules,
        })
    }
}

/// Per-request chain-layer times, ns.
#[derive(Default)]
struct Chain {
    by_layer: BTreeMap<&'static str, Vec<f64>>,
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
}

impl Chain {
    /// Folds the self times of traced spans into per-request layer
    /// samples: chain spans by their layer, probes by their own name.
    fn fold(&mut self, rec: &Recorder) {
        let mut per_request: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, own) in rec.spans().iter().zip(rec.self_times()) {
            let m = per_request.entry(s.request).or_default();
            if let Some((_, layer)) = CHAIN.iter().find(|(n, _)| *n == s.name) {
                *m.entry(layer).or_default() += own as f64;
            }
            if matches!(s.name, "sgx.quote" | "sgx.verify" | "core.price") {
                *m.entry(s.name).or_default() += own as f64;
            }
        }
        for m in per_request.into_values() {
            for (layer, ns) in m {
                self.by_layer.entry(layer).or_default().push(ns);
            }
        }
    }

    /// Mean per-request time of `layer`, ns (means add up across
    /// layers; medians would not).
    fn mean(&self, layer: &str) -> Option<f64> {
        self.by_layer.get(layer).map(|v| mean(v))
    }
}

/// One served request through every layer, in server order.
fn serve_chain(
    t: &mut Tracer,
    env: &Env,
    inputs: &Inputs,
    req: &Req,
    rid: u64,
    bills: &[Bill],
    rep: &mut Report,
) -> Option<SignedLog> {
    let m = &inputs.modules[req.module];
    let infra = env.regs.infrastructure();
    let ae = infra.accounting_enclave();
    let (root, started) = t.open(rid);
    let mut frame = Vec::new();
    t.span(rid, "net.encode_request", root, || {
        encode_request_into(
            &mut frame,
            &Request::Invoke {
                deploy_id: 1,
                func: m.func.into(),
                args: req.args.clone(),
                input: req.input.clone(),
                tenant: "replay".into(),
                trace_id: rid,
            },
        )
    });
    let (decoded, _) = t.span(rid, "net.decode_request", root, || {
        decode_request_frame(&frame)
    });
    let Ok(Some((
        Request::Invoke {
            func, args, input, ..
        },
        _,
    ))) = decoded
    else {
        rep.problem("replay: request frame did not decode");
        return None;
    };
    let (out, exec_span) = t.span(rid, "core.execute", root, || {
        ae.execute(&env.modules[req.module].on_regs, &func, &args, &input, rid)
    });
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            rep.problem(format!("replay execute: {e}"));
            return None;
        }
    };
    let (invoice, _) = t.span(rid, "core.price", root, || {
        infra.pricing.invoice(&out.log.log)
    });
    let mut resp = Vec::new();
    let log = out.log.clone();
    t.span(rid, "net.encode_response", root, || {
        encode_response_into(
            &mut resp,
            &Response::InvokeOk {
                session_id: rid,
                results: out.results,
                output: out.output,
                log: out.log,
                invoice_total: invoice.total(),
            },
        )
    });
    let (back, _) = t.span(rid, "net.decode_response", root, || {
        read_response(&mut &resp[..])
    });
    let Ok(Response::InvokeOk {
        results,
        output,
        log: back_log,
        ..
    }) = back
    else {
        rep.problem("replay: response frame did not decode");
        return None;
    };
    let (verified, verify_span) = t.span(rid, "core.verify_log", root, || {
        env.regs.workload_provider().verify_log(&back_log)
    });
    t.close(root, started);
    if let Err(e) = verified {
        rep.problem(format!("replay log did not verify: {e}"));
    }
    if let Err(e) = check_response(req, &results, &output, &back_log.log, bills) {
        rep.problem(format!("replay: {e}"));
    }
    // Probes of the parts inside two chain spans, recorded as their
    // children but timed after them.
    if t.on {
        let (q, _) = t.span(rid, "sgx.quote", exec_span, || {
            ae.sign_binding(&log.log.binding())
        });
        let (v, _) = t.span(rid, "sgx.verify", verify_span, || {
            env.regs.authority.verify(&log.quote)
        });
        rep.check(q.is_ok() && v.is_ok(), || {
            "replay: quote probe failed".into()
        });
    }
    Some(log)
}

/// Runs `body` for successive indices until `budget` passes (at least
/// `min` times, at most `max`).
fn repeat(budget: Duration, min: u64, max: u64, mut body: impl FnMut(u64)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < max && (i < min || t0.elapsed() < budget) {
        body(i);
        i += 1;
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn mean_us(v: Vec<f64>) -> f64 {
    mean(&v) / 1e3
}

/// Times the set-up layers on each module: decode+validate, a cold
/// instrumentation pass, a cache-hit deploy and an enclave load. Each
/// metric is the per-deploy-set total of per-module means.
fn setup_probes(env: &Env, originals: &[&[u8]], budget: Duration, rep: &mut Report) {
    let weights = acctee::WeightTable::calibrated();
    let each = budget / originals.len().max(1) as u32;
    let (mut dv, mut cold, mut hit, mut load) = (0.0, 0.0, 0.0, 0.0);
    for (k, orig) in originals.iter().enumerate() {
        let (mut a, mut b, mut c, mut d) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        repeat(each, 3, 200, |_| {
            let (m, ns) = timed(|| {
                let m = decode_module(orig).expect("decodes");
                validate_module(&m).expect("validates");
                m
            });
            a.push(ns);
            b.push(timed(|| acctee_instrument::instrument(&m, Level::LoopBased, &weights)).1);
            c.push(timed(|| env.regs.instrument(orig, Level::LoopBased)).1);
            let md = &env.modules[k];
            d.push(timed(|| env.regs.infrastructure().load(&md.bytes, &md.evidence)).1);
        });
        dv += mean_us(a);
        cold += mean_us(b);
        hit += mean_us(c);
        load += mean_us(d);
    }
    rep.layer("wasm.decode_validate_us", dv, "us");
    rep.layer("instrument.cold_us", cold, "us");
    rep.layer("core.cache_hit_us", hit, "us");
    rep.layer("core.load_us", load, "us");
}

/// Bare execution without the accounting enclave: `(ns, instructions)`.
fn bare(
    module: &acctee_wasm::Module,
    artifact: Option<&Arc<CompiledModule>>,
    engine: Engine,
    func: &str,
    args: &[Value],
    input: &[u8],
) -> (f64, u64) {
    let t0 = Instant::now();
    let meter = IoMeter::with_input(input);
    let imports = meter.register(Imports::new());
    let cfg = Config {
        engine,
        ..Config::default()
    };
    let inst = match (engine, artifact) {
        (Engine::Tree, _) | (_, None) => Instance::with_config(module, imports, cfg),
        (_, Some(a)) => Instance::with_artifact(module, imports, cfg, Arc::clone(a)),
    };
    let mut inst = inst.expect("instantiates");
    inst.invoke(func, args).expect("bare run");
    (crate::common::ns_since(t0), inst.stats().instructions)
}

/// One probe input: module index, function, arguments, input bytes.
type ProbeInput = (usize, &'static str, Vec<Value>, Vec<u8>);

/// Interpreter probes over a request stream: bare runs of the original
/// and the instrumented module and billed runs, on both engines.
fn interp_probes(
    env: &Env,
    min: u64,
    budget: Duration,
    next: impl Fn(u64) -> ProbeInput,
    rep: &mut Report,
) {
    // Sums indexed [tree, regs].
    let mut bare_instr = [0.0f64; 2];
    let mut bare_orig = [0.0f64; 2];
    let mut billed = [0.0f64; 2];
    let mut instrs = [0u64; 2];
    let mut wic = [0u64; 2];
    let engines = [Engine::Tree, Engine::Regs];
    repeat(budget, min, u64::MAX, |i| {
        let (k, func, args, input) = next(i);
        let m = &env.modules[k];
        for (e, engine) in engines.into_iter().enumerate() {
            let (ns, n) = bare(
                &m.instrumented,
                m.instr_artifact.as_ref(),
                engine,
                func,
                &args,
                &input,
            );
            bare_instr[e] += ns;
            instrs[e] += n;
            bare_orig[e] += bare(
                &m.original,
                m.orig_artifact.as_ref(),
                engine,
                func,
                &args,
                &input,
            )
            .0;
            let (dep, loaded) = match engine {
                Engine::Tree => (&env.tree, &m.on_tree),
                _ => (&env.regs, &m.on_regs),
            };
            let (out, ns) = timed(|| {
                dep.infrastructure()
                    .execute_billed(loaded, func, &args, &input, i + 1)
            });
            billed[e] += ns;
            wic[e] += out.map_or(0, |(o, _)| o.log.log.weighted_instructions);
        }
    });
    for (e, name) in ["tree", "regs"].into_iter().enumerate() {
        rep.layer(
            &format!("interp.ns_per_instr.{name}"),
            bare_instr[e] / instrs[e].max(1) as f64,
            "ns",
        );
        rep.layer(
            &format!("interp.billed_ns_per_winstr.{name}"),
            billed[e] / wic[e].max(1) as f64,
            "ns",
        );
        rep.layer(
            &format!("core.accounting_overhead_x.{name}"),
            billed[e] / bare_instr[e],
            "x",
        );
        rep.layer(
            &format!("instrument.runtime_overhead_x.{name}"),
            bare_instr[e] / bare_orig[e],
            "x",
        );
    }
}

/// Opens a durable plane in a fresh scratch dir under `fsync`; the dir
/// lives as long as the returned handle, so it can be reopened.
fn probe_durable(
    name: &str,
    fsync: FsyncPolicy,
    dep: &Deployment,
) -> Result<(Durable, ScratchDir), String> {
    let dir = ScratchDir::new(name).map_err(|e| e.to_string())?;
    let opts = DurableOptions {
        fsync,
        ..DurableOptions::default()
    };
    let (d, _) = Durable::open(
        dir.path(),
        opts,
        dep.infrastructure().accounting_enclave(),
        dep.infrastructure().pricing,
    )
    .map_err(|e| e.to_string())?;
    Ok((d, dir))
}

/// Durable and fleet-journal probes over `logs`: the durable plane's
/// lease and append under `Always` and `Never`, then its replay of the
/// `Always` directory, which must hold one record per append and no
/// duplicates.
fn log_probes(env: &Env, logs: &[SignedLog], budget: Duration, rep: &mut Report) {
    let ae = env.regs.infrastructure().accounting_enclave();
    let each = budget / 3;
    for (fsync, name) in [
        (FsyncPolicy::Always, "always"),
        (FsyncPolicy::Never, "never"),
    ] {
        let Ok((d, dir)) = probe_durable(name, fsync, &env.regs) else {
            rep.problem("durable probe: open failed");
            continue;
        };
        let (mut lease, mut append) = (Vec::new(), Vec::new());
        repeat(each, 1, logs.len() as u64, |i| {
            let log = &logs[i as usize];
            lease.push(timed(|| d.ensure_lease(log.log.session_id, ae)).1);
            let (r, ns) = timed(|| d.append_usage("probe", log, ae));
            if let Err(e) = r {
                rep.problem(format!("durable probe: append: {e}"));
            }
            append.push(ns);
        });
        if fsync == FsyncPolicy::Never {
            rep.layer("durable.append_never_us", mean_us(append), "us");
            continue;
        }
        let appended = append.len();
        rep.layer("durable.append_us", mean_us(append), "us");
        rep.layer("durable.lease_us", mean_us(lease), "us");
        drop(d);
        let (reopened, ns) = timed(|| {
            Durable::open(
                dir.path(),
                DurableOptions::default(),
                ae,
                env.regs.infrastructure().pricing,
            )
        });
        rep.layer("durable.replay_s", ns / 1e9, "s");
        match reopened {
            Ok((_, rec)) => {
                rep.check(rec.records_replayed == appended, || {
                    format!(
                        "durable probe: replayed {} records for {appended} appends",
                        rec.records_replayed
                    )
                });
                rep.check(rec.duplicates_dropped == 0, || {
                    format!(
                        "durable probe: replay dropped {} duplicates",
                        rec.duplicates_dropped
                    )
                });
            }
            Err(e) => rep.problem(format!("durable probe: reopen: {e}")),
        }
    }
    journal_probe(logs, each, rep);
}

fn journal_probe(logs: &[SignedLog], budget: Duration, rep: &mut Report) {
    let Ok(dir) = ScratchDir::new("journal") else {
        return rep.problem("journal probe: scratch dir");
    };
    let Ok((mut j, _)) = Journal::open(dir.path()) else {
        return rep.problem("journal probe: open failed");
    };
    let mut ns = Vec::new();
    repeat(budget, 1, logs.len() as u64, |i| {
        let rec = UsageRecord {
            tenant: "probe".into(),
            signed: logs[i as usize].clone(),
        };
        ns.push(timed(|| j.submission(i, "probe", 0, &rec)).1);
    });
    rep.layer("fleet.journal_append_us", mean_us(ns), "us");
}

/// Reports the chain layers, the probes inside them, the breakdown
/// identity and the tracing overhead.
fn report_chain(chain: &Chain, client_observed_us: f64, layers: &[&str], rep: &mut Report) {
    let mut sum = 0.0;
    let mut parts = Vec::new();
    for layer in layers {
        let us = chain.mean(layer).unwrap_or(0.0) / 1e3;
        sum += us;
        parts.push(format!("{layer}={us:.3}"));
    }
    let unattributed = client_observed_us - sum;
    parts.push(format!("net.unattributed={unattributed:.3}"));
    rep.note(
        "breakdown_us",
        format!(
            "client_observed={client_observed_us:.3} = {}",
            parts.join(" + ")
        ),
    );
    rep.layer("net.unattributed_us", unattributed, "us");
    rep.layer("client_observed_us", client_observed_us, "us");
    rep.layer(
        "net.wire_codec_us",
        chain.mean("net.wire_codec").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "core.verify_log_us",
        chain.mean("core.verify_log").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "core.price_ns",
        chain.mean("core.price").unwrap_or(0.0),
        "ns",
    );
    rep.layer(
        "sgx.quote_us",
        chain.mean("sgx.quote").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "sgx.verify_us",
        chain.mean("sgx.verify").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "trace.overhead_us",
        (mean(&chain.traced_ns) - mean(&chain.untraced_ns)) / 1e3,
        "us",
    );
    rep.note("replay.traced_requests", chain.traced_ns.len());
    rep.note("replay.untraced_requests", chain.untraced_ns.len());
}

/// Mean billed execution of the tiny function (the fixed cost of one
/// invoke), for workloads that do not serve it.
fn fixed_probe(budget: Duration, rep: &mut Report) {
    let tiny = tiny_module();
    let Ok(env) = Env::new(&[&tiny]) else {
        return rep.problem("fixed-cost probe: set-up failed");
    };
    let mut ns = Vec::new();
    repeat(budget, 10, 5_000, |i| {
        ns.push(
            timed(|| {
                env.regs.infrastructure().execute_billed(
                    &env.modules[0].on_regs,
                    "main",
                    &[Value::I32(i as i32)],
                    b"",
                    i + 1,
                )
            })
            .1,
        );
    });
    rep.layer("core.fixed_us", mean_us(ns), "us");
}

/// The traced replay of a serving workload. Returns the spans.
pub fn serving(
    kind: Kind,
    inputs: &Inputs,
    bills: &[Bill],
    served: &Served,
    budget_s: f64,
    rep: &mut Report,
) -> Recorder {
    let originals: Vec<&[u8]> = inputs.modules.iter().map(|m| m.bytes.as_slice()).collect();
    let env = match Env::new(&originals) {
        Ok(e) => e,
        Err(e) => {
            rep.problem(format!("replay set-up: {e}"));
            return Recorder::new();
        }
    };
    let budget = Duration::from_secs_f64(budget_s.max(0.5));

    let mut t = Tracer::new();
    let mut logs = Vec::new();
    let mut chain = Chain::default();
    let block = inputs.block_len();
    let t0 = Instant::now();
    let (mut b, mut rid) = (0u64, 0u64);
    while b == 0 || (t0.elapsed() < budget.mul_f64(0.45) && rid < MAX_REPLAY) {
        // Each request runs traced and untraced, back to back (order
        // alternating), under fresh session ids.
        for k in 0..block {
            let req = inputs.request(0, b * block + k);
            let order = if k % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for traced in order {
                t.on = traced;
                rid += 1;
                let log = serve_chain(&mut t, &env, inputs, &req, rid, bills, rep);
                if let Some(l) = log {
                    if logs.len() < 400 {
                        logs.push(l);
                    }
                }
            }
        }
        b += 1;
    }
    chain.fold(&t.rec);
    chain.traced_ns = std::mem::take(&mut t.traced_ns);
    chain.untraced_ns = std::mem::take(&mut t.untraced_ns);
    let on_path = ["net.wire_codec", "core.billed_exec", "core.verify_log"];
    report_chain(&chain, served.client_observed_us, &on_path, rep);
    let billed_us = chain.mean("core.billed_exec").unwrap_or(0.0) / 1e3;
    rep.layer("core.billed_exec_us", billed_us, "us");

    let rest = budget.saturating_sub(t0.elapsed());
    if kind == Kind::ComputeBilled {
        fixed_probe(rest / 10, rep);
    } else {
        rep.layer("core.fixed_us", billed_us, "us");
    }
    log_probes(&env, &logs, rest / 5, rep);
    setup_probes(&env, &originals, rest / 10, rep);
    let next = |i| {
        let r = inputs.request(1, i);
        (r.module, inputs.modules[r.module].func, r.args, r.input)
    };
    interp_probes(&env, inputs.block_len(), rest / 3, next, rep);
    unit_exec_probe(&env, inputs, rest / 10, rep);

    rep.layer("net.attest_us", mean_us(served.attest_ns.clone()), "us");
    stage_means(served.stats.as_ref(), rep);
    rep.layer(
        "invoke_p99_ms",
        served.rtt.percentile(99.0).unwrap_or(0.0) / 1e6,
        "ms",
    );
    rep.layer("invoke.samples", served.rtt.len() as f64, "count");
    rep.layer("failed_frac", served.failed_frac, "ratio");
    rep.layer("peak_rss_mib", served.peak_rss_mib, "MiB");
    t.rec
}

/// Worker-side execution of one unit (evidence check, load, billed
/// execute on the fleet worker's default engine), on this workload's
/// requests.
fn unit_exec_probe(env: &Env, inputs: &Inputs, budget: Duration, rep: &mut Report) {
    let mut ns = Vec::new();
    repeat(budget, inputs.block_len().min(6), 2_000, |i| {
        let r = inputs.request(2, i);
        let m = &env.modules[r.module];
        let func = inputs.modules[r.module].func;
        ns.push(
            timed(|| {
                env.tree
                    .workload_provider()
                    .verify_evidence(&m.bytes, &m.evidence)
                    .ok()?;
                let loaded = env.tree.infrastructure().load(&m.bytes, &m.evidence).ok()?;
                env.tree
                    .infrastructure()
                    .execute_billed(&loaded, func, &r.args, &r.input, i + 1)
                    .ok()
            })
            .1,
        );
    });
    rep.layer("fleet.unit_exec_us", mean_us(ns), "us");
}

/// The serving plane's own per-stage means (histogram sum ÷ count, so
/// exact rather than a bucket edge), kept as a cross-check of the
/// replay's layer times.
fn stage_means(stats: Option<&acctee_net::StatsSnapshot>, rep: &mut Report) {
    let stages = stats.map(|s| s.stages.clone()).unwrap_or_default();
    for stage in ["parse", "admission", "execute", "respond"] {
        let mean = stages
            .iter()
            .find(|(n, _)| n == stage)
            .map_or(0.0, |(_, l)| l.sum_ns as f64 / l.count.max(1) as f64 / 1e3);
        rep.layer(&format!("net.server_stage_mean_us.{stage}"), mean, "us");
    }
}
