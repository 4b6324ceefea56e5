//! End-to-end and per-layer benchmark of the stmaker stack.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload batch_city|batch_short --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the program in-process through its public APIs, checks every
//! output against an in-process reference, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The line
//! before it holds the workload's properties. A traced run also writes
//! its spans to `bench_e2e/out/`. See README.md for the metrics and why
//! each workload exists.

mod common;
mod layers;
mod loadgen;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;
use workloads::Opts;

const WORKLOADS: [&str; 2] = ["batch_city", "batch_short"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// A JSON number; non-finite values (a division by a zero count) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!("usage: --workload {} --seed N --seconds S --trace 0|1", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let steal0 = common::steal_ticks();
    let tracer = args.trace.then(Tracer::default);
    let opts = Opts { seed: args.seed, seconds: args.seconds, tracer: tracer.as_ref() };
    let mut r = match args.workload.as_str() {
        "batch_city" => workloads::batch_city(opts),
        _ => workloads::batch_short(opts),
    };
    let steal1 = common::steal_ticks();
    let total = steal1.1.saturating_sub(steal0.1).max(1);
    r.property("host_steal_share", steal1.0.saturating_sub(steal0.0) as f64 / total as f64);
    if let Some(t) = &tracer {
        let path = PathBuf::from("bench_e2e/out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => r.property("trace_file", format!("\"{}\"", path.display())),
            Err(e) => eprintln!("bench_e2e: cannot write {}: {e}", path.display()),
        }
    }
    if r.attempted == 0 {
        eprintln!("bench_e2e: no operation was checked");
        r.check(false);
    }
    let correct = r.failed == 0;

    let mut props = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"nproc\": {}", common::nproc()),
    ];
    props.extend(r.properties.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    println!("{{\"properties\": {{{}}}}}", props.join(", "));
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
