//! `mm-perfbench --workload NAME [--seed N] --seconds S --trace 0|1
//! [--trace-out PATH]`
//!
//! Runs one workload at one seed and prints human-readable metric lines
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics and, with
//! `--trace-out`, writes every recorded span there as JSON lines.

use mm_perfbench::trace::Tracer;
use mm_perfbench::{Size, Workload};
use std::process::ExitCode;

/// The seed when `--seed` is not given; any other seed is held out.
const DEFAULT_SEED: u64 = 1;

// Counts heap allocations for `core.allocs_per_kcycle`.
#[global_allocator]
static ALLOC: mm_bench::alloc_probe::CountingAlloc = mm_bench::alloc_probe::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        let mut tracer = Tracer::new();
        let report = mm_perfbench::per_layer(
            args.workload,
            args.seed,
            Size::Full,
            args.seconds,
            &mut tracer,
        );
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
                eprintln!("mm-perfbench: writing spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        report
    } else {
        mm_perfbench::end_to_end(args.workload, args.seed, Size::Full, args.seconds)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
