//! Interpreter-throughput smoke benchmark: ns/instr over the PolyBench
//! suite, per execution engine, emitted as `BENCH_interp.json` so the
//! perf trajectory of the execution tier is tracked PR-over-PR.
//!
//! Two blocks: `engines` runs each kernel bare, and `accounted` runs
//! it billed — instrumented at the loop-based level and executed
//! through `AccountingEnclave::execute` under the calibrated weight
//! table (memory integral, log signing and all), reported per
//! weighted instruction.
//!
//! Usage: `interp [n] [reps] [--out FILE]` (default n=12, reps=3,
//! out=BENCH_interp.json).

use std::fmt::Write as _;
use std::time::Instant;

use acctee::{Deployment, InstrumentationEvidence, Level};
use acctee_bench::geomean;
use acctee_interp::{Config, Engine, Imports, Instance, Value};
use acctee_workloads::polybench;

struct EngineRow {
    name: &'static str,
    total_ns: u64,
    total_instrs: u64,
    kernels: Vec<(String, u64, u64)>, // (kernel, ns, instrs)
}

impl EngineRow {
    fn ns_per_instr(&self) -> f64 {
        self.total_ns as f64 / self.total_instrs.max(1) as f64
    }
}

/// One timed execution: wall nanoseconds and instructions retired.
/// An untimed warm-up invoke precedes the measurement so one-time
/// costs (the bytecode engine's lazy compile, allocator and cache
/// warm-up) stay out of the throughput number — this measures
/// steady-state execution, the paper's methodology. The kernels
/// re-initialise their arrays on entry, so repeated invokes are
/// deterministic and bit-identical.
fn run_once(module: &acctee_wasm::Module, engine: Engine) -> (u64, u64) {
    let cfg = Config {
        engine,
        ..Config::default()
    };
    let mut inst = Instance::with_config(module, Imports::new(), cfg).expect("instantiate");
    inst.invoke("run", &[]).expect("warm-up run");
    let instrs = inst.stats().instructions;
    let t = Instant::now();
    let out = inst.invoke("run", &[]).expect("run");
    let ns = t.elapsed().as_nanos() as u64;
    assert!(matches!(out[0], Value::F64(_)));
    (ns, instrs)
}

/// One timed billed execution through the accounting enclave: wall
/// nanoseconds (instantiation and log signing included) and the
/// signed log's weighted instruction count. As in [`run_once`], an
/// untimed warm-up execution comes first; it also builds the loaded
/// workload's shared compiled artifact.
fn run_accounted(dep: &Deployment, bytes: &[u8], evidence: &InstrumentationEvidence) -> (u64, u64) {
    let infra = dep.infrastructure();
    let loaded = infra.load(bytes, evidence).expect("load");
    let ae = infra.accounting_enclave();
    ae.execute(&loaded, "run", &[], b"", 0)
        .expect("warm-up run");
    let t = Instant::now();
    let out = ae.execute(&loaded, "run", &[], b"", 1).expect("run");
    let ns = t.elapsed().as_nanos() as u64;
    assert!(matches!(out.results[0], Value::F64(_)));
    (ns, out.log.log.weighted_instructions)
}

/// Measures every engine over the suite with engines *interleaved*
/// per repetition: each rep times all engines back to back on the
/// same kernel, so machine-load noise lands on every engine alike and
/// cancels out of the speedup ratios. `prepare` turns a kernel's
/// module into what `run` times (once per kernel).
fn measure<T>(
    n: usize,
    reps: usize,
    mut prepare: impl FnMut(acctee_wasm::Module) -> T,
    mut run: impl FnMut(&T, Engine) -> (u64, u64),
) -> Vec<EngineRow> {
    let mut rows: Vec<EngineRow> = Engine::ALL
        .iter()
        .map(|e| EngineRow {
            name: e.name(),
            total_ns: 0,
            total_instrs: 0,
            kernels: Vec::new(),
        })
        .collect();
    for k in polybench::all() {
        let prepared = prepare((k.build)(n));
        let mut best = [u64::MAX; Engine::ALL.len()];
        let mut instrs = [0u64; Engine::ALL.len()];
        for _ in 0..reps {
            for (ei, engine) in Engine::ALL.into_iter().enumerate() {
                let (ns, ic) = run(&prepared, engine);
                best[ei] = best[ei].min(ns);
                instrs[ei] = ic;
            }
        }
        for (ei, row) in rows.iter_mut().enumerate() {
            row.total_ns += best[ei];
            row.total_instrs += instrs[ei];
            row.kernels.push((k.name.to_string(), best[ei], instrs[ei]));
        }
    }
    rows
}

/// The bare rows: each kernel as built, no accounting.
fn measure_all(n: usize, reps: usize) -> Vec<EngineRow> {
    measure(n, reps, |m| m, run_once)
}

/// The billed rows: one deployment per engine (same seed, so evidence
/// from the first verifies on all), each kernel instrumented once.
fn measure_accounted(n: usize, reps: usize) -> Vec<EngineRow> {
    let deps: Vec<Deployment> = Engine::ALL
        .into_iter()
        .map(|engine| {
            let mut d = Deployment::new(1);
            d.set_engine(engine);
            d
        })
        .collect();
    measure(
        n,
        reps,
        |m| {
            let bytes = acctee_wasm::encode::encode_module(&m);
            deps[0]
                .instrument(&bytes, Level::LoopBased)
                .expect("instrument")
        },
        |(bytes, evidence), engine| {
            let ei = Engine::ALL
                .iter()
                .position(|e| *e == engine)
                .expect("engine");
            run_accounted(&deps[ei], bytes, evidence)
        },
    )
}

/// Per-kernel geomean speedup of `num` over `den` (how many times
/// faster `num` runs the same kernel).
fn speedup_geomean(num: &EngineRow, den: &EngineRow) -> f64 {
    let per_kernel: Vec<f64> = den
        .kernels
        .iter()
        .zip(&num.kernels)
        .map(|((_, d_ns, _), (_, n_ns, _))| *d_ns as f64 / (*n_ns).max(1) as f64)
        .collect();
    geomean(&per_kernel)
}

/// Writes `rows` as a JSON object of per-engine blocks; `unit` names
/// the instruction count (`instrs` bare, `winstrs` accounted).
fn write_rows(s: &mut String, rows: &[EngineRow], indent: &str, unit: &str) {
    let tree = &rows[0];
    for (ei, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "{indent}\"{}\": {{", row.name);
        let _ = writeln!(s, "{indent}  \"total_ns\": {},", row.total_ns);
        let _ = writeln!(s, "{indent}  \"total_{unit}\": {},", row.total_instrs);
        let _ = writeln!(
            s,
            "{indent}  \"ns_per_{}\": {:.3},",
            unit.trim_end_matches('s'),
            row.ns_per_instr()
        );
        let _ = writeln!(
            s,
            "{indent}  \"speedup_geomean_vs_tree\": {:.3},",
            speedup_geomean(row, tree)
        );
        let _ = writeln!(s, "{indent}  \"kernels\": {{");
        for (ki, (name, ns, instrs)) in row.kernels.iter().enumerate() {
            let comma = if ki + 1 == row.kernels.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{indent}    \"{name}\": {{ \"ns\": {ns}, \"{unit}\": {instrs} }}{comma}"
            );
        }
        let _ = writeln!(s, "{indent}  }}");
        let comma = if ei + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "{indent}}}{comma}");
    }
}

fn json_for(rows: &[EngineRow], accounted: &[EngineRow], n: usize, reps: usize) -> String {
    let tree = &rows[0];
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"polybench\",");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"engines\": {{");
    write_rows(&mut s, rows, "    ", "instrs");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"accounted\": {{");
    let _ = writeln!(s, "    \"level\": \"loop\",");
    let _ = writeln!(s, "    \"weights\": \"calibrated\",");
    let _ = writeln!(s, "    \"engines\": {{");
    write_rows(&mut s, accounted, "      ", "winstrs");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "  }},");
    // Historical alias (bytecode over tree), kept so the PR-over-PR
    // trajectory in the committed file stays one unbroken series.
    let bytecode = rows.iter().find(|r| r.name == "bytecode").unwrap_or(tree);
    let _ = writeln!(
        s,
        "  \"speedup_geomean\": {:.3},",
        speedup_geomean(bytecode, tree)
    );
    let regs = rows.iter().find(|r| r.name == "regs").unwrap_or(bytecode);
    let _ = writeln!(
        s,
        "  \"regs_speedup_geomean_vs_bytecode\": {:.3},",
        speedup_geomean(regs, bytecode)
    );
    let _ = writeln!(
        s,
        "  \"accounted_regs_speedup_geomean_vs_tree\": {:.3}",
        speedup_geomean(&accounted[2], &accounted[0])
    );
    s.push_str("}\n");
    s
}

fn main() {
    let mut n = 12usize;
    let mut reps = 3usize;
    let mut out = String::from("BENCH_interp.json");
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next().expect("--out needs a value");
        } else {
            positional.push(a);
        }
    }
    if let Some(v) = positional.first().and_then(|a| a.parse().ok()) {
        n = v;
    }
    if let Some(v) = positional.get(1).and_then(|a| a.parse().ok()) {
        reps = v;
    }

    let rows = measure_all(n, reps);
    let accounted = measure_accounted(n, reps);
    println!("# interpreter throughput (polybench, n={n}, reps={reps})");
    for (label, rows, unit) in [
        ("bare", &rows, "instr"),
        ("accounted", &accounted, "winstr"),
    ] {
        for row in rows {
            println!(
                "{label:<9} {:<10} {:>14} ns  {:>14} {unit}s  {:>8.2} ns/{unit}  {:>6.2}x vs tree",
                row.name,
                row.total_ns,
                row.total_instrs,
                row.ns_per_instr(),
                speedup_geomean(row, &rows[0]),
            );
        }
    }
    let json = json_for(&rows, &accounted, n, reps);
    std::fs::write(&out, &json).expect("write BENCH_interp.json");
    println!("# -> {out}");
}
