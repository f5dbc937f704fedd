//! The benchmark of billed AccTEE invocations.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `tiny-pipelined` and `compute-billed`, served by an
//! in-process `acctee_net::Server` on the register engine. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` spends part of the run
//! serving (for the client-observed time per request) and the rest
//! replaying the same requests layer by layer, and reports the
//! per-layer metrics.
//!
//! Output: run facts and notes as `key=value` lines, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any failed output check makes `correct` false and the
//! exit code 1. Spans of a traced run are written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.

mod common;
mod inputs;
mod layers;
mod serve;
mod span;
mod stats;

use std::fmt::Write as _;

use common::{fs_type, host_cores, out_dir, Metric, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number that is always valid (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(rep: &Report, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            num(x.value),
            x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        rep.problems.is_empty(),
        rep.attempted.max(1),
        rep.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    rep.note("workload", &args.workload);
    rep.note("seed", args.seed);
    rep.note("seconds", args.seconds);
    rep.note("trace", u8::from(args.trace));
    rep.note("host_cores", host_cores());
    rep.note("engine", "regs (served); tree (oracle)");
    rep.note("toolchain", env!("PERFBENCH_RUSTC_VERSION"));
    let kind = match args.workload.as_str() {
        "tiny-pipelined" => serve::Kind::TinyPipelined,
        "compute-billed" => serve::Kind::ComputeBilled,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: {}: {e}", out_dir().display());
        std::process::exit(2);
    }
    // The durable probes of a traced run keep their state dirs here.
    rep.note("state_dir_fs", fs_type(&out_dir()));
    let spans = serve::run(kind, args.seed, args.seconds, args.trace, &mut rep);
    if let Some(rec) = spans {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, rec.to_json_lines()) {
            Ok(()) => rep.note("spans", path.display()),
            Err(e) => rep.note("spans", format!("not written: {e}")),
        }
    }

    for (k, v) in &rep.notes {
        println!("{k}={v}");
    }
    let metrics = if args.trace {
        &rep.per_layer
    } else {
        &rep.end_to_end
    };
    for m in metrics {
        println!("metric {} = {} {}", m.name, num(m.value), m.unit);
    }
    for p in &rep.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", result_line(&rep, metrics));
    if !rep.problems.is_empty() {
        std::process::exit(1);
    }
}
