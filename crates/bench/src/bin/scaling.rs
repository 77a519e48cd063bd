//! Weak-scaling driver for the quiescence-aware cycle engine and its
//! parallel sharding.
//!
//! ```text
//! cargo run -p mm-bench --release --bin scaling              # 2×1×1 … 8×8×8
//! cargo run -p mm-bench --release --bin scaling -- --smoke   # CI: 2×2×1 only
//! cargo run -p mm-bench --release --bin scaling -- --gate    # CI: telemetry-driven soft gates
//! cargo run -p mm-bench --release --bin scaling -- --workers 2
//! cargo run -p mm-bench --release --bin scaling -- --smoke --telemetry --epoch 64
//! ```
//!
//! Each mesh runs under the serial engine and the parallel engine
//! (`--workers N` pins the pool; default is `max(2, host cores)`),
//! asserting the two produce identical stats. The busy-traffic section
//! is the parallel engine's headline: all nodes awake every cycle, so
//! the quiescence win is zero and any speedup is host parallelism.
//! Everything lands in `BENCH_scaling.json`.
//!
//! `--gate` is CI's perf soft gate: it re-measures the busy 8×8×8 row
//! with telemetry streaming (the fresh cycles/sec is summed off the
//! JSONL stream, not a separate stopwatch) plus the weak-scaling
//! endpoints, compares both against the committed `BENCH_scaling.json`
//! (override with `--baseline <path>`), writes `BENCH_gate.json`, and
//! exits non-zero only on a hard fail.
//!
//! `--telemetry` makes the busy leg also run with a streaming sampler,
//! writing one JSONL record per epoch to `--telemetry-out` (default
//! `telemetry.jsonl`) at `--epoch` cycles per epoch (default 4096).

use mm_bench::coherence::{run_coherence, CoherencePoint};
use mm_bench::faults::{run_crash_recovery, run_fault_campaign};
use mm_bench::gate;
use mm_bench::scaling::{
    build_busy_scenario_telemetry, busy_traffic_comparison, host_cores, idle_heavy_comparison,
    run_mesh, BusyTrafficResult, IdleHeavyResult, ScalingPoint, ROUNDS, RUN_LIMIT,
};
use mm_bench::traffic::{run_traffic, TrafficPoint, TRAFFIC_COUNT, TRAFFIC_SWEEP};
use mm_bench::workloads::{run_workload, WorkloadKind, WorkloadPoint};
use mm_telemetry::TelemetryConfig;
use std::fmt::Write as _;

/// Count heap allocations so the busy-traffic row can report
/// allocations-per-cycle (the zero-allocation kernel's tracking number).
#[global_allocator]
static ALLOC: mm_bench::alloc_probe::CountingAlloc = mm_bench::alloc_probe::CountingAlloc;

/// Full sweep: 2 → 512 nodes, doubling one dimension at a time.
const MESHES: &[(u8, u8, u8)] = &[
    (2, 1, 1),
    (2, 2, 1),
    (2, 2, 2),
    (4, 2, 2),
    (4, 4, 2),
    (4, 4, 4),
    (8, 4, 4),
    (8, 8, 4),
    (8, 8, 8),
];

/// The CI smoke subset (the 2×2×1 mesh the workflow checks).
const SMOKE_MESHES: &[(u8, u8, u8)] = &[(2, 2, 1)];

/// Coherence-stress meshes for the full sweep (§4.3 protocol over the
/// fabric; every pair ping-pongs one shared block).
const COHERENCE_MESHES: &[(u8, u8, u8)] = &[(2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 2)];

/// Interlocked smoothing iterations per node in the coherence scenario.
const COHERENCE_ITERS: u64 = 64;

fn json_points(points: &[ScalingPoint]) -> String {
    let mut out = String::from("  \"meshes\": [\n");
    for (k, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"dims\": \"{}x{}x{}\", \"nodes\": {}, \"cycles\": {}, \"wall_ms\": {:.3}, \
             \"cycles_per_sec\": {:.0}, \"parallel_workers\": {}, \"parallel_wall_ms\": {:.3}, \
             \"parallel_cycles_per_sec\": {:.0}, \"parallel_speedup\": {:.2}, \
             \"stats_match\": {}, \"instructions\": {}, \"messages\": {}}}{}",
            p.dims.0,
            p.dims.1,
            p.dims.2,
            p.nodes,
            p.cycles,
            p.wall_ms,
            p.cycles_per_sec,
            p.parallel_workers,
            p.parallel_wall_ms,
            p.parallel_cycles_per_sec,
            p.parallel_speedup,
            p.stats_match,
            p.instructions,
            p.messages,
            if k + 1 == points.len() { "" } else { "," }
        );
    }
    out.push_str("  ]");
    out
}

fn json_idle(r: &IdleHeavyResult) -> String {
    format!(
        "  \"idle_heavy\": {{\"horizon_cycles\": {}, \"naive_wall_ms\": {:.3}, \
         \"engine_wall_ms\": {:.3}, \"naive_cycles_per_sec\": {:.0}, \
         \"engine_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \"stats_match\": {}}}",
        r.horizon,
        r.naive_wall_ms,
        r.engine_wall_ms,
        r.naive_cps,
        r.engine_cps,
        r.speedup,
        r.stats_match
    )
}

fn json_busy(r: &BusyTrafficResult) -> String {
    format!(
        "  \"busy_traffic\": {{\"dims\": \"{}x{}x{}\", \"nodes\": {}, \"iters\": {}, \
         \"cycles\": {}, \"workers\": {}, \"serial_wall_ms\": {:.3}, \
         \"serial_cycles_per_sec\": {:.0}, \"parallel_wall_ms\": {:.3}, \
         \"parallel_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \"stats_match\": {}, \
         \"issue_hit_rate\": {:.3}, \"allocs_per_cycle\": {:.2}, \
         \"telemetry_wall_ms\": {:.3}, \"telemetry_cycles_per_sec\": {:.0}, \
         \"telemetry_overhead_pct\": {:.2}, \"telemetry_stats_match\": {}, \
         \"telemetry_epochs\": {}}}",
        r.dims.0,
        r.dims.1,
        r.dims.2,
        r.nodes,
        r.iters,
        r.cycles,
        r.workers,
        r.serial_wall_ms,
        r.serial_cycles_per_sec,
        r.parallel_wall_ms,
        r.parallel_cycles_per_sec,
        r.speedup,
        r.stats_match,
        r.issue_hit_rate,
        r.allocs_per_cycle,
        r.telemetry_wall_ms,
        r.telemetry_cycles_per_sec,
        r.telemetry_overhead_pct,
        r.telemetry_stats_match,
        r.telemetry_epochs
    )
}

fn json_coherence(points: &[CoherencePoint]) -> String {
    let mut out = String::from("  \"coherence\": [\n");
    for (k, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"dims\": \"{}x{}x{}\", \"nodes\": {}, \"iters\": {}, \"cycles\": {}, \
             \"serial_wall_ms\": {:.3}, \"serial_cycles_per_sec\": {:.0}, \
             \"parallel_workers\": {}, \"parallel_wall_ms\": {:.3}, \
             \"parallel_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"stats_match\": {}, \"coh_packets\": {}, \"block_fetches\": {}, \
             \"invalidations\": {}, \"writebacks\": {}, \"miss_latency_avg\": {:.1}, \
             \"invalidations_per_kcycle\": {:.2}}}{}",
            p.dims.0,
            p.dims.1,
            p.dims.2,
            p.nodes,
            p.iters,
            p.cycles,
            p.serial_wall_ms,
            p.serial_cycles_per_sec,
            p.parallel_workers,
            p.parallel_wall_ms,
            p.parallel_cycles_per_sec,
            p.speedup,
            p.stats_match,
            p.coh_packets,
            p.block_fetches,
            p.invalidations,
            p.writebacks,
            p.miss_latency_avg,
            p.invalidations_per_kcycle,
            if k + 1 == points.len() { "" } else { "," }
        );
    }
    out.push_str("  ]");
    out
}

fn json_workloads(points: &[WorkloadPoint]) -> String {
    let mut out = String::from("  \"workloads\": [\n");
    for (k, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"dims\": \"{}x{}x{}\", \"nodes\": {}, \"cycles\": {}, \
             \"serial_wall_ms\": {:.3}, \"serial_cycles_per_sec\": {:.0}, \
             \"parallel_workers\": {}, \"parallel_wall_ms\": {:.3}, \
             \"parallel_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"stats_match\": {}, \"messages\": {}, \"protected_calls\": {}, \
             \"sync_retries\": {}}}{}",
            p.kind.name(),
            p.dims.0,
            p.dims.1,
            p.dims.2,
            p.nodes,
            p.cycles,
            p.serial_wall_ms,
            p.serial_cycles_per_sec,
            p.parallel_workers,
            p.parallel_wall_ms,
            p.parallel_cycles_per_sec,
            p.speedup,
            p.stats_match,
            p.messages,
            p.protected_calls,
            p.sync_retries,
            if k + 1 == points.len() { "" } else { "," }
        );
    }
    out.push_str("  ]");
    out
}

fn json_traffic(points: &[TrafficPoint]) -> String {
    let mut out = String::from("  \"traffic\": [\n");
    for (k, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"pattern\": \"{}\", \"gap\": {}, \"nodes\": {}, \"count\": {}, \
             \"cycles\": {}, \"injected\": {}, \"delivered\": {}, \"returned\": {}, \
             \"credit_stalls\": {}, \"delivered_per_kcycle\": {:.2}, \"stats_match\": {}}}{}",
            p.pattern.name(),
            p.gap,
            p.nodes,
            p.count,
            p.cycles,
            p.injected,
            p.delivered,
            p.returned,
            p.credit_stalls,
            p.delivered_per_kcycle,
            p.stats_match,
            if k + 1 == points.len() { "" } else { "," }
        );
    }
    out.push_str("  ]");
    out
}

fn run_workload_suite(workers: usize) -> Vec<WorkloadPoint> {
    println!("\n== workload suite: four multicomputer kernels, serial vs parallel ==");
    println!(
        "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>10} {:>6}",
        "kernel", "nodes", "cycles", "messages", "prot", "syncrtr", "speedup", "match"
    );
    let mut points = Vec::new();
    for kind in WorkloadKind::ALL {
        let p = run_workload(kind, Some(workers));
        println!(
            "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9.2}x {:>6}",
            kind.name(),
            p.nodes,
            p.cycles,
            p.messages,
            p.protected_calls,
            p.sync_retries,
            p.speedup,
            p.stats_match
        );
        assert!(
            p.stats_match,
            "parallel engine diverged from serial on {}",
            kind.name()
        );
        points.push(p);
    }
    points
}

fn run_traffic_sweep(count: u64, workers: usize) -> Vec<TrafficPoint> {
    println!("\n== traffic generator: {count} messages/node, saturation + backoff ==");
    println!(
        "{:<10} {:>4} {:>9} {:>9} {:>10} {:>9} {:>8} {:>10} {:>6}",
        "pattern",
        "gap",
        "cycles",
        "injected",
        "delivered",
        "returned",
        "crstall",
        "del/kcyc",
        "match"
    );
    let mut points = Vec::new();
    for (pattern, gap) in TRAFFIC_SWEEP {
        let p = run_traffic(pattern, gap, count, Some(workers));
        println!(
            "{:<10} {:>4} {:>9} {:>9} {:>10} {:>9} {:>8} {:>10.2} {:>6}",
            pattern.name(),
            p.gap,
            p.cycles,
            p.injected,
            p.delivered,
            p.returned,
            p.credit_stalls,
            p.delivered_per_kcycle,
            p.stats_match
        );
        assert!(
            p.stats_match,
            "parallel engine diverged from serial on traffic {} gap {}",
            pattern.name(),
            gap
        );
        points.push(p);
    }
    points
}

fn run_coherence_meshes(
    meshes: &[(u8, u8, u8)],
    iters: u64,
    workers: usize,
) -> Vec<CoherencePoint> {
    println!("\n== coherence stress: interlocked block ping-pong, {iters} iterations/node ==");
    println!(
        "{:<8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9} {:>10} {:>6}",
        "mesh", "nodes", "cycles", "coh-pkts", "fetches", "invals", "misslat", "inv/kcyc", "match"
    );
    let mut points = Vec::new();
    for &dims in meshes {
        let p = run_coherence(dims, iters, Some(workers));
        println!(
            "{:<8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9.1} {:>10.2} {:>6}",
            format!("{}x{}x{}", dims.0, dims.1, dims.2),
            p.nodes,
            p.cycles,
            p.coh_packets,
            p.block_fetches,
            p.invalidations,
            p.miss_latency_avg,
            p.invalidations_per_kcycle,
            p.stats_match
        );
        assert!(
            p.stats_match,
            "parallel engine diverged from serial on coherence {dims:?}"
        );
        points.push(p);
    }
    points
}

/// The value following `--flag`, if the flag is present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|k| {
        args.get(k + 1)
            .cloned()
            .unwrap_or_else(|| panic!("{flag} takes a value"))
    })
}

/// Run the busy scenario serially with a streaming sampler, flush, and
/// return the epoch count written to `path`.
fn stream_busy_telemetry(dims: (u8, u8, u8), iters: u64, epoch_cycles: u64, path: &str) -> usize {
    let tel = TelemetryConfig {
        enabled: true,
        epoch_cycles,
        ring_epochs: 0,
        stream_path: Some(path.into()),
    };
    let mut m = build_busy_scenario_telemetry(dims, iters, Some(1), tel);
    m.run_until_halt(RUN_LIMIT)
        .expect("busy scenario completes with telemetry streaming");
    assert!(
        m.faulted_threads().is_empty(),
        "telemetry scenario faulted: {:?}",
        m.faulted_threads()
    );
    m.telemetry_flush();
    m.telemetry().map_or(0, |t| t.ring().len())
}

/// `scaling --gate`: CI's perf soft gate over the telemetry stream and
/// the committed baseline. Writes `BENCH_gate.json` and returns the
/// process exit code.
fn run_gate(workers: usize, epoch_cycles: u64, baseline_path: &str, stream_path: &str) -> i32 {
    let cores = host_cores();
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = gate::parse_baseline(&baseline_text).expect("committed baseline parses");

    // Busy leg: serial busy 8×8×8 with the sampler streaming JSONL; the
    // fresh cycles/sec is summed off the stream itself, so the gate
    // exercises exactly what it gates on.
    let epochs = stream_busy_telemetry((8, 8, 8), 128, epoch_cycles, stream_path);
    let stream = std::fs::read_to_string(stream_path).expect("read back telemetry stream");
    let totals = gate::stream_totals(&stream).expect("telemetry stream sums");
    println!(
        "busy 8x8x8 telemetry stream: {} epochs, {} cycles, {:.0} cycles/sec",
        totals.epochs,
        totals.cycles,
        totals.cycles_per_sec()
    );

    // Weak-scaling leg: the sweep's endpoints, measured the same way
    // the committed baseline was.
    let small = run_mesh((2, 1, 1), ROUNDS, Some(workers));
    let large = run_mesh((8, 8, 8), ROUNDS, Some(workers));
    assert!(
        small.stats_match && large.stats_match,
        "parallel engine diverged on a gate mesh"
    );
    let fresh_ratio = small.cycles_per_sec / large.cycles_per_sec;

    let checks = [
        gate::busy_gate(totals.cycles_per_sec(), baseline.busy_cycles_per_sec),
        gate::weak_scaling_gate(fresh_ratio, baseline.weak_scaling_ratio()),
    ];
    for c in &checks {
        println!(
            "{:<22} measured {:>12.1}  baseline {:>12.1}  ratio {:.2}x  [{}]",
            c.name,
            c.measured,
            c.baseline,
            c.ratio,
            c.status.label()
        );
        if let Some(a) = c.annotation() {
            println!("{a}");
        }
    }
    let json = gate::summary_json(&checks, epochs, cores);
    std::fs::write("BENCH_gate.json", &json).expect("write BENCH_gate.json");
    println!(
        "wrote BENCH_gate.json (status: {})",
        gate::overall(&checks).label()
    );
    gate::exit_code(&checks)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate_mode = args.iter().any(|a| a == "--gate");
    let coherence_smoke = args.iter().any(|a| a == "--coherence-smoke");
    let traffic_smoke = args.iter().any(|a| a == "--traffic-smoke");
    let fault_campaign = args.iter().any(|a| a == "--fault-campaign");
    let fault_seed: u64 = flag_value(&args, "--fault-seed")
        .map_or(7, |v| v.parse().expect("--fault-seed takes an integer"));
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let telemetry_out =
        flag_value(&args, "--telemetry-out").unwrap_or_else(|| "telemetry.jsonl".into());
    let epoch_cycles: u64 =
        flag_value(&args, "--epoch").map_or(0, |v| v.parse().expect("--epoch takes a cycle count"));
    let baseline_path =
        flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_scaling.json".into());
    // The parallel legs always run with an *explicit* worker count:
    // auto-detection resolves to 1 on single-core hosts (and on hosts
    // that cap `available_parallelism`), which used to record
    // `parallel_workers: 1` on every row and make the serial-vs-
    // parallel columns meaningless. Default: the host's parallelism,
    // but at least 2 so the parallel engine is actually exercised
    // (clamped per-mesh to the node count as always).
    let workers: Option<usize> = args.iter().position(|a| a == "--workers").map(|k| {
        args.get(k + 1)
            .and_then(|v| v.parse().ok())
            .expect("--workers takes a positive integer")
    });
    let cores = host_cores();
    let workers = workers.unwrap_or_else(|| cores.max(2));
    let meshes = if smoke { SMOKE_MESHES } else { MESHES };
    let horizon = if smoke { 10_000 } else { 60_000 };
    let (busy_dims, busy_iters) = if smoke {
        ((2, 2, 1), 32)
    } else {
        ((8, 8, 8), 128)
    };

    if coherence_smoke {
        // CI's coherence smoke: the 2×2×1 mesh, serial vs parallel, with
        // the result words verified and the stats diffed inside
        // `run_coherence`. Written to its own file so the workflow can
        // assert on it without touching the committed sweep.
        let points = run_coherence_meshes(&[(2, 2, 1), (4, 2, 2)], 32, workers);
        let json = format!(
            "{{\n{},\n  \"host_cores\": {cores}\n}}\n",
            json_coherence(&points)
        );
        std::fs::write("BENCH_coherence_smoke.json", &json)
            .expect("write BENCH_coherence_smoke.json");
        println!("wrote BENCH_coherence_smoke.json");
        return;
    }

    if traffic_smoke {
        // CI's traffic smoke: the full pattern sweep at a reduced
        // message count. `run_traffic` itself asserts every SEND
        // injected and zero unknown event records; the row assertions
        // here pin nonzero injection into its own file for the
        // workflow to grep.
        let points = run_traffic_sweep(16, workers);
        assert!(
            points.iter().all(|p| p.injected > 0),
            "a traffic row injected nothing"
        );
        let json = format!(
            "{{\n{},\n  \"host_cores\": {cores}\n}}\n",
            json_traffic(&points)
        );
        std::fs::write("BENCH_traffic_smoke.json", &json).expect("write BENCH_traffic_smoke.json");
        println!("wrote BENCH_traffic_smoke.json");
        return;
    }

    if fault_campaign {
        // CI's fault smoke and the robustness headline: a seeded
        // campaign (link corruption/drops/delays, DRAM upsets, a stall
        // window) over the busy-traffic scenario, serial vs parallel,
        // plus the crash-recovery round trip (watchdog trip →
        // checkpoint restore → completed run, bit-identical to a run
        // that never crashed).
        println!("== fault campaign: seeded injection over busy traffic (seed {fault_seed}) ==");
        let p = run_fault_campaign((2, 2, 1), 24, workers, fault_seed);
        println!(
            "2x2x1: {} cycles, corrupted {}, dropped {}, delayed {}, dram flips {}, \
             scheduled events {}",
            p.cycles,
            p.report.packets_corrupted,
            p.report.packets_dropped,
            p.report.packets_delayed,
            p.report.dram_flips,
            p.report.events_applied
        );
        println!(
            "recovery: {} crc-nacks, {} retransmits, {} dup-drops, {} ecc-corrected, \
             {} ecc-double",
            p.crc_nacks, p.report.retransmits, p.dup_drops, p.ecc_corrected, p.ecc_double_errors
        );
        println!(
            "deterministic across engines: {}   completed despite faults: {}",
            p.stats_match, p.completed
        );
        assert!(p.stats_match, "fault campaign diverged across engines");
        assert!(p.completed, "fault campaign left faulted threads");
        assert!(
            p.report.packets_corrupted + p.report.packets_dropped > 0 && p.report.retransmits > 0,
            "campaign must fault packets and recover them"
        );

        println!("\n== crash recovery: watchdog trip -> checkpoint restore -> completion ==");
        let r = run_crash_recovery((2, 1, 1), 1_000, workers);
        println!(
            "checkpoint at cycle {} ({} bytes); watchdog tripped at {}; diagnostic {}",
            r.checkpoint_at,
            r.checkpoint_bytes,
            r.tripped_at,
            if r.diagnostic_captured {
                "captured"
            } else {
                "MISSING"
            }
        );
        println!(
            "restored run completed: {}   bit-identical to uninterrupted run: {}",
            r.recovered, r.stats_match
        );
        assert!(
            r.diagnostic_captured && r.recovered && r.stats_match,
            "crash-recovery round trip failed"
        );

        let json = format!(
            "{{\n  \"fault_campaign\": {{\"dims\": \"2x2x1\", \"seed\": {}, \"cycles\": {}, \
             \"packets_corrupted\": {}, \"packets_dropped\": {}, \"packets_delayed\": {}, \
             \"dram_flips\": {}, \"events_applied\": {}, \"crc_nacks\": {}, \"retransmits\": {}, \
             \"dup_drops\": {}, \"ecc_corrected\": {}, \"ecc_double_errors\": {}, \
             \"stats_match\": {}, \"completed\": {}}},\n  \
             \"crash_recovery\": {{\"dims\": \"2x1x1\", \"checkpoint_at\": {}, \
             \"checkpoint_bytes\": {}, \"tripped_at\": {}, \"diagnostic_captured\": {}, \
             \"recovered\": {}, \"stats_match\": {}}}\n}}\n",
            p.seed,
            p.cycles,
            p.report.packets_corrupted,
            p.report.packets_dropped,
            p.report.packets_delayed,
            p.report.dram_flips,
            p.report.events_applied,
            p.crc_nacks,
            p.report.retransmits,
            p.dup_drops,
            p.ecc_corrected,
            p.ecc_double_errors,
            p.stats_match,
            p.completed,
            r.checkpoint_at,
            r.checkpoint_bytes,
            r.tripped_at,
            r.diagnostic_captured,
            r.recovered,
            r.stats_match
        );
        std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
        // The host's core count stays out of the record: CI diffs it
        // byte-for-byte against the committed copy on runners of any size.
        eprintln!("host_cores {cores}");
        println!("wrote BENCH_faults.json");
        return;
    }

    if gate_mode {
        // CI's perf soft gate, rebuilt on the metrics stream: both the
        // busy-row and the weak-scaling checks live in `mm_bench::gate`
        // (tested pass/warn/fail logic) instead of two copy-pasted
        // workflow scripts. The busy epoch defaults to 256 cycles so
        // the ~1k-cycle run produces a multi-epoch stream.
        let gate_epoch = if epoch_cycles == 0 { 256 } else { epoch_cycles };
        let stream_path = if telemetry_out == "telemetry.jsonl" {
            "BENCH_busy_telemetry.jsonl".to_owned()
        } else {
            telemetry_out
        };
        std::process::exit(run_gate(workers, gate_epoch, &baseline_path, &stream_path));
    }

    println!(
        "M-Machine weak scaling — remote-store + synchronizing ping-pong, {ROUNDS} rounds/pair"
    );
    println!("parallel engine: {workers} workers ({cores} host cores)\n");
    println!(
        "{:<8} {:>6} {:>9} {:>10} {:>14} {:>4} {:>12} {:>8} {:>6}",
        "mesh",
        "nodes",
        "cycles",
        "wall(ms)",
        "cycles/sec",
        "wrk",
        "par-wall(ms)",
        "par-spd",
        "match"
    );
    let mut points = Vec::new();
    for &dims in meshes {
        let p = run_mesh(dims, ROUNDS, Some(workers));
        println!(
            "{:<8} {:>6} {:>9} {:>10.2} {:>14.0} {:>4} {:>12.2} {:>7.2}x {:>6}",
            format!("{}x{}x{}", dims.0, dims.1, dims.2),
            p.nodes,
            p.cycles,
            p.wall_ms,
            p.cycles_per_sec,
            p.parallel_workers,
            p.parallel_wall_ms,
            p.parallel_speedup,
            p.stats_match
        );
        assert!(
            p.stats_match,
            "parallel engine diverged from serial on {dims:?}"
        );
        points.push(p);
    }

    println!("\n== idle-heavy 2x1x1, fixed {horizon}-cycle horizon: dense loop vs engine ==");
    let idle = idle_heavy_comparison(horizon, ROUNDS);
    println!(
        "naive : {:>10.2} ms  {:>14.0} cycles/sec",
        idle.naive_wall_ms, idle.naive_cps
    );
    println!(
        "engine: {:>10.2} ms  {:>14.0} cycles/sec",
        idle.engine_wall_ms, idle.engine_cps
    );
    println!(
        "speedup: {:.1}x  (identical MachineStats: {})",
        idle.speedup, idle.stats_match
    );
    assert!(idle.stats_match, "engine diverged from the dense loop");

    println!(
        "\n== busy-traffic {}x{}x{} ({} iters/node): serial engine vs parallel engine ==",
        busy_dims.0, busy_dims.1, busy_dims.2, busy_iters
    );
    let busy = busy_traffic_comparison(busy_dims, busy_iters, Some(workers));
    println!(
        "serial  : {:>10.2} ms   ({} cycles)",
        busy.serial_wall_ms, busy.cycles
    );
    println!(
        "parallel: {:>10.2} ms   ({} workers)",
        busy.parallel_wall_ms, busy.workers
    );
    println!(
        "speedup: {:.2}x  (identical MachineStats: {})",
        busy.speedup, busy.stats_match
    );
    assert!(busy.stats_match, "parallel engine diverged on busy traffic");
    println!(
        "telemetry: {:>9.2} ms   ({:.0} cycles/sec, {:+.2}% overhead, {} epochs, stats match {})",
        busy.telemetry_wall_ms,
        busy.telemetry_cycles_per_sec,
        busy.telemetry_overhead_pct,
        busy.telemetry_epochs,
        busy.telemetry_stats_match
    );
    assert!(
        busy.telemetry_stats_match,
        "telemetry sampling changed the simulation"
    );

    if telemetry {
        // Stream one more serial busy run as JSONL for consumers (CI's
        // telemetry smoke validates every line against the committed
        // schema via `mmctl check`).
        let eff = if epoch_cycles == 0 {
            mm_telemetry::DEFAULT_EPOCH_CYCLES
        } else {
            epoch_cycles
        };
        let epochs = stream_busy_telemetry(busy_dims, busy_iters, epoch_cycles, &telemetry_out);
        println!("wrote {telemetry_out} ({epochs} epochs at {eff} cycles/epoch)");
    }

    let coherence_meshes = if smoke {
        &[(2u8, 2u8, 1u8)][..]
    } else {
        COHERENCE_MESHES
    };
    let coherence_iters = if smoke { 32 } else { COHERENCE_ITERS };
    let coherence = run_coherence_meshes(coherence_meshes, coherence_iters, workers);

    let workloads = run_workload_suite(workers);
    let traffic_count = if smoke { 16 } else { TRAFFIC_COUNT };
    let traffic = run_traffic_sweep(traffic_count, workers);

    let json = format!(
        "{{\n  \"scenario\": \"weak-scaling remote-store + synchronizing ping-pong\",\n  \
         \"rounds_per_pair\": {ROUNDS},\n  \"host_cores\": {cores},\n{},\n{},\n{},\n{},\n{},\n{}\n}}\n",
        json_points(&points),
        json_idle(&idle),
        json_busy(&busy),
        json_coherence(&coherence),
        json_workloads(&workloads),
        json_traffic(&traffic)
    );
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("\nwrote BENCH_scaling.json");
}
