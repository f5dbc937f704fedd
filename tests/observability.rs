//! Integration tests for the telemetry pipeline: spans emitted across
//! the FaaS worker threads, metrics fed by `serve_parallel`, and the
//! profiler agreeing with the instrumentation counter.
//!
//! The telemetry hub is process-global, so every test that installs
//! one serialises on [`telemetry_lock`] and resets the hub before
//! releasing it.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use acctee::Deployment;
use acctee_faas::{FaasPlatform, FunctionKind, Setup};
use acctee_instrument::{instrument, Level, WeightTable, COUNTER_EXPORT};
use acctee_interp::{
    Config, CountingObserver, Engine, Imports, Instance, ProfilingObserver, Value,
};
use acctee_telemetry::{
    parse_chrome_json, to_chrome_json, ArgValue, EventKind, Telemetry, TraceEvent,
};
use acctee_wasm::builder::{Bound, ModuleBuilder};
use acctee_wasm::types::ValType;

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn window(e: &TraceEvent) -> (u64, u64) {
    match e.kind {
        EventKind::Complete { dur_ns } => (e.ts_ns, e.ts_ns + dur_ns),
        EventKind::Instant => (e.ts_ns, e.ts_ns),
    }
}

#[test]
fn serve_parallel_spans_nest_across_worker_threads() {
    let _guard = telemetry_lock();
    let (tel, sink) = Telemetry::collecting();
    acctee_telemetry::install(Arc::new(tel));
    let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
    let payloads: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 64]).collect();
    let report = platform.serve_parallel(&payloads, 4);
    acctee_telemetry::reset();
    assert_eq!(report.stats.len(), 16, "failures: {:?}", report.failures);

    let events = sink.events();
    let serve: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "faas.serve_parallel")
        .collect();
    assert_eq!(serve.len(), 1);
    let (s0, s1) = window(serve[0]);
    let handles: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "faas.handle").collect();
    assert_eq!(handles.len(), 16);
    for h in &handles {
        // Every request span nests inside the batch span and runs on a
        // worker thread, not the coordinating thread.
        let (h0, h1) = window(h);
        assert!(
            s0 <= h0 && h1 <= s1,
            "handle [{h0},{h1}] outside serve [{s0},{s1}]"
        );
        assert_ne!(h.tid, serve[0].tid);
    }

    // The whole multi-thread trace survives a round trip through the
    // crate's own Chrome-JSON exporter and parser. The exporter emits
    // args alphabetically, so compare with both sides sorted.
    let parsed = parse_chrome_json(&to_chrome_json(&events)).expect("trace parses");
    let sorted = |mut evs: Vec<TraceEvent>| {
        for e in &mut evs {
            e.args.sort_by(|a, b| a.0.cmp(&b.0));
        }
        evs
    };
    assert_eq!(sorted(parsed), sorted(events));
}

#[test]
fn serve_parallel_feeds_latency_and_io_metrics() {
    let _guard = telemetry_lock();
    let (tel, _sink) = Telemetry::collecting();
    let tel = Arc::new(tel);
    acctee_telemetry::install(tel.clone());
    let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::WasmSgxHwIo);
    let payloads: Vec<Vec<u8>> = (0..8).map(|_| vec![7u8; 32]).collect();
    let report = platform.serve_parallel(&payloads, 2);
    acctee_telemetry::reset();
    assert!(
        report.failures.is_empty(),
        "failures: {:?}",
        report.failures
    );

    let latency = tel.metrics().histogram_with(
        "acctee_faas_request_latency_seconds",
        &[("function", "echo")],
        1e-9,
    );
    assert_eq!(latency.count(), 8);
    // The histogram's bucketed p99 upper-bounds every exact sample the
    // batch report computed from.
    assert!(latency.quantile_raw(0.99) >= report.p99_ns());
    // Echo with I/O accounting moves each 32-byte payload in and out.
    let bytes_in = tel.metrics().counter("acctee_faas_io_in_bytes_total").get();
    let bytes_out = tel
        .metrics()
        .counter("acctee_faas_io_out_bytes_total")
        .get();
    assert_eq!(bytes_in, 8 * 32);
    assert_eq!(bytes_out, 8 * 32);

    let text = tel.metrics().export_prometheus();
    assert!(text.contains("acctee_faas_request_latency_seconds_p99{function=\"echo\"}"));
    assert!(text.contains("acctee_faas_request_failures_total{function=\"echo\"} 0"));
}

#[test]
fn profiler_total_matches_injected_counter() {
    // The ProfilingObserver weighs the original module's execution with
    // the same table the instrumenter compiled into the counter, so the
    // two independent accountings must agree exactly.
    let mut b = ModuleBuilder::new();
    let f = b.func("run", &[ValType::I32], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I64);
        f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
            f.local_get(acc);
            f.local_get(i);
            f.num(acctee_wasm::op::NumOp::I64ExtendI32S);
            f.num(acctee_wasm::op::NumOp::I64Add);
            f.local_set(acc);
        });
        f.local_get(acc);
    });
    b.export_func("run", f);
    let m = b.build();
    let weights = WeightTable::calibrated();
    let r = instrument(&m, Level::LoopBased, &weights).unwrap();

    let mut prof = ProfilingObserver::with_weight(&m, |i| weights.weight(i));
    let mut inst = Instance::new(&m, Imports::new()).unwrap();
    let out = inst
        .invoke_observed("run", &[Value::I32(91)], &mut prof)
        .unwrap();
    let report = prof.report(5);

    let mut inst2 = Instance::new(&r.module, Imports::new()).unwrap();
    let out2 = inst2.invoke("run", &[Value::I32(91)]).unwrap();
    let counter = inst2.global(COUNTER_EXPORT).unwrap().as_i64() as u64;

    assert_eq!(out, out2);
    assert_eq!(report.total_weight, counter);
    assert!(report.hot_functions.iter().any(|f| f.name == "run"));
}

#[test]
fn billed_execute_records_its_tier_and_deopts_are_counted() {
    let _guard = telemetry_lock();
    let (tel, sink) = Telemetry::collecting();
    let tel = Arc::new(tel);
    acctee_telemetry::install(tel.clone());
    let deopts = |reason: &str| {
        tel.metrics()
            .counter_with("acctee_interp_deopts_total", &[("reason", reason)])
            .get()
    };

    // A billed execution on the register tier stays there: the AE's
    // span names the tier that ran it.
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let f = b.func("run", &[ValType::I32], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I64);
        f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
            f.local_get(acc);
            f.local_get(i);
            f.num(acctee_wasm::op::NumOp::I64ExtendI32S);
            f.num(acctee_wasm::op::NumOp::I64Add);
            f.local_set(acc);
        });
        f.local_get(acc);
    });
    b.export_func("run", f);
    let m = b.build();
    let mut dep = Deployment::new(5);
    let bytes = acctee_wasm::encode::encode_module(&m);
    let (bytes, evidence) = dep.instrument(&bytes, Level::LoopBased).unwrap();
    let tiers: Vec<String> = [Engine::Regs, Engine::Tree]
        .into_iter()
        .map(|engine| {
            dep.set_engine(engine);
            let infra = dep.infrastructure();
            let loaded = infra.load(&bytes, &evidence).unwrap();
            infra
                .execute_billed(&loaded, "run", &[Value::I32(50)], b"", 1)
                .unwrap();
            let span = sink
                .drain()
                .into_iter()
                .find(|e| e.name == "enclave.ae.execute")
                .expect("execute span");
            match span.args.iter().find(|(k, _)| k == "tier") {
                Some((_, ArgValue::Str(t))) => t.clone(),
                other => panic!("no tier arg: {other:?}"),
            }
        })
        .collect();
    assert_eq!(tiers, ["regs", "tree"]);

    // Every register-tier fallback is counted by reason and visible on
    // the instance.
    let regs = |fuel| Config {
        engine: Engine::Regs,
        fuel,
        ..Config::default()
    };
    let (fuel0, per_instr0) = (deopts("fuel"), deopts("per_instr"));
    let mut inst = Instance::with_config(&m, Imports::new(), regs(Some(1 << 20))).unwrap();
    inst.invoke("run", &[Value::I32(3)]).unwrap();
    assert_eq!(inst.ran_on(), Engine::Bytecode);
    let mut inst = Instance::with_config(&m, Imports::new(), regs(None)).unwrap();
    inst.invoke_observed("run", &[Value::I32(3)], &mut CountingObserver::unit())
        .unwrap();
    assert_eq!(inst.ran_on(), Engine::Bytecode);
    inst.invoke("run", &[Value::I32(3)]).unwrap();
    assert_eq!(inst.ran_on(), Engine::Regs);
    acctee_telemetry::reset();
    assert!(deopts("fuel") > fuel0);
    assert!(deopts("per_instr") > per_instr0);
    let text = tel.metrics().export_prometheus();
    assert!(text.contains("acctee_interp_deopts_total{reason=\"fuel\"}"));
}

/// The SHA-256 kernel behind every signature is visible from outside:
/// a portable fallback shows up in both the Prometheus scrape and the
/// structured snapshot instead of only as slower signing.
#[test]
fn serving_node_exports_its_sha256_kernel() {
    // The server feeds the global hub; keep it off other tests' spans.
    let _guard = telemetry_lock();
    let kernel = acctee_sgx::crypto::sha256_kernel();
    assert!(["sha-ni", "portable"].contains(&kernel), "{kernel}");
    let (addr, handle) =
        acctee_net::Server::bind("127.0.0.1:0", acctee_net::ServerConfig::default())
            .expect("bind ephemeral port")
            .spawn();
    let anchor = acctee_net::TrustAnchor::new(acctee_net::ServerConfig::default().seed);
    let mut client = acctee_net::Client::connect(addr, anchor, std::time::Duration::from_secs(10))
        .expect("connect + attest");
    let text = client.stats_prometheus().expect("scrape");
    let exp = acctee_telemetry::parse_prometheus(&text).expect("strictly parseable");
    assert_eq!(
        exp.value("acctee_sha256_kernel_info", &[("kernel", kernel)]),
        Some(1.0),
        "{text}"
    );
    assert_eq!(client.stats().expect("snapshot").sha256_kernel, kernel);
    client.shutdown().expect("shutdown accepted");
    handle.join().expect("server drains and exits");
}
