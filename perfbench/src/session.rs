//! The two kinds of benchmark process: the untraced one that reports
//! the end-to-end metrics, and the traced one that reports the
//! per-layer metrics. Each runs one workload at one seed.

use crate::harness::{self, Mode, Run, RunSpec};
use crate::host;
use crate::trace::Tracer;
use crate::workloads::{self, Size, Workload};
use mm_core::machine::{MMachine, MachineStats};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use mm_net::{Fabric, FabricConfig, Message, MsgBody, NodeCoord, Packet, WireMeta};
use mm_sim::StepScratch;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest measured runs an untraced process makes, whatever its time
/// budget.
const MIN_REPS: usize = 3;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What a benchmark process reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Every metric, in listing order.
    pub metrics: Vec<Metric>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose outputs or statistics failed a check.
    pub failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; every ratio below guards
            // its base, so this only fires on a benchmark bug.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Counts runs and failed checks. Every run of one (workload, seed),
/// whatever its worker count, must pass its output check and end with
/// the statistics of the process's first run.
#[derive(Debug, Default)]
struct Verifier {
    reference: Option<MachineStats>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Verifier {
    fn record(&mut self, what: &str, run: &Run) {
        self.attempted += 1;
        let reference = self.reference.get_or_insert_with(|| run.stats.clone());
        let err = match &run.check {
            Err(e) => Some(e.clone()),
            Ok(()) if run.stats != *reference => Some(format!(
                "stats digest {:016x} differs from the first run's {:016x}",
                workloads::digest(&run.stats),
                workloads::digest(reference)
            )),
            Ok(()) => None,
        };
        if let Some(e) = err {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn finish(self, report: &mut Report) {
        report.attempted = self.attempted;
        report.failed = self.failed;
        #[allow(clippy::cast_precision_loss)]
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        report.lines.push(format!(
            "verify_fail_frac {frac} ratio ({} of {} runs failed a check)",
            self.failed, self.attempted
        ));
        report.lines.extend(
            self.errors
                .into_iter()
                .map(|e| format!("check failed: {e}")),
        );
    }
}

/// Median and quartiles, by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` (a single value is its own
/// quartiles).
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m - j * 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The `p`-th percentile (nearest rank) of `values`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `a / b`, or 0 when `b` is 0.
#[allow(clippy::cast_precision_loss)]
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

fn spread_line(name: &str, unit: &str, values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!(
        "{name} median {q2} q1 {q1} q3 {q3} p10 {} {unit} (n={})",
        percentile(values, 10.0),
        values.len()
    )
}

/// Simulated cycles per host second inside the simulate calls.
#[allow(clippy::cast_precision_loss)]
fn cycles_per_s(r: &Run) -> f64 {
    r.sim_cycles as f64 / r.sim_s
}

/// Simulated cycles per CPU second of the calling thread inside the
/// simulate calls (a serial run simulates on that thread alone).
#[allow(clippy::cast_precision_loss)]
fn cycles_per_cpu_s(r: &Run) -> f64 {
    r.sim_cycles as f64 / r.sim_cpu_s
}

fn header(report: &mut Report, spec: &RunSpec, reference: &Run, default_workers: usize) {
    report.lines.push(format!(
        "workload {} seed {} nodes {} host_cores {} default_workers {default_workers} measured_workers 1 cycles {} digest {:016x}",
        spec.workload.name(),
        spec.seed,
        node_count(spec),
        mm_bench::scaling::host_cores(),
        reference.stats.cycles,
        workloads::digest(&reference.stats)
    ));
}

fn node_count(spec: &RunSpec) -> u64 {
    let (d, _) = spec.workload.shape(spec.size);
    u64::from(d.0) * u64::from(d.1) * u64::from(d.2)
}

/// The untraced process: one discovery run at the engine's default
/// worker count, whose statistics and settle cycle every later run must
/// match, then serial runs for `seconds`, reporting `sim_cycles_per_s`,
/// `setup_s` and `peak_rss_mb`.
///
/// `sim_cycles_per_s` and `setup_s` are medians over the runs of CPU
/// time (of the one thread that sets up and simulates) rescaled to the
/// reference host speed by the [`host::Probe`] timed around each run;
/// the unscaled CPU and wall-clock figures are printed beside them.
///
/// The timed runs use the serial engine: on a host whose cores are
/// shared, the parallel engine's per-cycle barrier stalls whenever
/// either core is taken away, and its speed swings several-fold from
/// run to run. The parallel engine is compared to the serial one in
/// the traced process (`shard.parallel_gain`).
#[must_use]
pub fn end_to_end(workload: Workload, seed: u64, size: Size, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut v = Verifier::default();
    let spec = RunSpec {
        workload,
        seed,
        size,
        workers: None,
        telemetry: false,
        mode: Mode::Discover,
    };
    let default = harness::run(&spec, None);
    v.record("default-workers run", &default);
    let spec = RunSpec {
        workers: Some(1),
        mode: Mode::Timed {
            settle_cycle: default.settle_cycle,
        },
        ..spec
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut probe = host::Probe::default();
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut probes = Vec::new();
    while runs.len() < MIN_REPS || t0.elapsed() < budget {
        let before = probe.sample_s();
        let r = harness::run(&spec, None);
        probes.push((before + probe.sample_s()) / 2.0);
        v.record("serial run", &r);
        runs.push(r);
    }
    header(&mut report, &spec, &default, default.workers);
    // Each run's times at the reference host speed: scaled by how much
    // faster or slower the host ran the probe around that run.
    let cps: Vec<f64> = runs
        .iter()
        .zip(&probes)
        .map(|(r, p)| cycles_per_cpu_s(r) * p / host::REFERENCE_S)
        .collect();
    let setup: Vec<f64> = runs
        .iter()
        .zip(&probes)
        .map(|(r, p)| r.setup.cpu_s * host::REFERENCE_S / p)
        .collect();
    let cpu_cps: Vec<f64> = runs.iter().map(cycles_per_cpu_s).collect();
    let cpu_setup: Vec<f64> = runs.iter().map(|r| r.setup.cpu_s).collect();
    let wall_cps: Vec<f64> = runs.iter().map(cycles_per_s).collect();
    let wall_setup: Vec<f64> = runs.iter().map(|r| r.setup.total_s()).collect();
    let rss = harness::proc_status_mb("VmHWM");
    for (name, unit, values) in [
        ("sim_cycles_per_s", "1/s", &cps),
        ("setup_s", "s", &setup),
        ("cpu_sim_cycles_per_s", "1/s", &cpu_cps),
        ("cpu_setup_s", "s", &cpu_setup),
        ("wall_sim_cycles_per_s", "1/s", &wall_cps),
        ("wall_setup_s", "s", &wall_setup),
        ("host_probe_s", "s", &probes),
    ] {
        report.lines.push(spread_line(name, unit, values));
    }
    report.lines.push(format!("peak_rss_mb {rss} MB"));
    report.metric("sim_cycles_per_s", "1/s", median(&cps));
    report.metric("setup_s", "s", median(&setup));
    report.metric("peak_rss_mb", "MB", rss);
    v.finish(&mut report);
    report
}

/// Epoch width of the traced run, in simulated cycles.
fn epoch_cycles(workload: Workload, size: Size) -> u64 {
    match (workload, size) {
        (_, Size::Tiny) => 16,
        (Workload::BusyMesh, Size::Full) => 32,
        (Workload::CoherencePairs, Size::Full) => 1024,
        (Workload::HotspotTraffic, Size::Full) => 128,
    }
}

/// Most cycles the isolated node probe steps one copy of a node.
const PROBE_CYCLES: u64 = 4096;

/// What the isolated node probe measured.
#[derive(Debug, Clone, Copy)]
struct StepProbe {
    /// Host nanoseconds per `Node::step_with` (median of several
    /// samples).
    ns: f64,
    /// Instructions the node issued per step over the probed window.
    instructions_per_step: f64,
    /// Steps in the probed window.
    window: u64,
}

/// Time `Node::step_with` on copies of node 0 of the workload's freshly
/// loaded machine, stepped alone. Alone, the node never gets the
/// credits, replies and grants its remote operations wait for, so it
/// stalls; the probe times only the window up to the last cycle at
/// which the node issued an instruction (at most [`PROBE_CYCLES`]), so
/// it measures the issue/execute kernel and not idle steps, and reports
/// how many instructions per step that window holds.
fn isolated_step(spec: &RunSpec) -> StepProbe {
    let inputs = workloads::generate(spec.workload, spec.seed, spec.size);
    let progs = workloads::programs(&inputs);
    let mut m = MMachine::build(workloads::config(&inputs, Some(1))).expect("valid config");
    workloads::load(&mut m, &inputs, &progs);
    let node = m.node(0).clone();
    drop(m);

    let mut n = node.clone();
    let mut scratch = StepScratch::new();
    let start = n.stats().instructions;
    let (mut window, mut issued) = (1, 0);
    for now in 0..PROBE_CYCLES {
        let before = n.stats().instructions;
        n.step_with(now, &mut scratch);
        if n.stats().instructions > before {
            (window, issued) = (now + 1, n.stats().instructions - start);
        }
    }
    // Enough copies per sample that a sample times about
    // `PROBE_CYCLES` steps however short the window.
    let copies = (PROBE_CYCLES / window).clamp(1, 64);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let mut elapsed = Duration::ZERO;
            for _ in 0..copies {
                let mut n = node.clone();
                let mut scratch = StepScratch::new();
                let t0 = Instant::now();
                for now in 0..window {
                    std::hint::black_box(n.step_with(now, &mut scratch));
                }
                elapsed += t0.elapsed();
            }
            #[allow(clippy::cast_precision_loss)]
            let ns = elapsed.as_nanos() as f64 / (copies * window) as f64;
            ns
        })
        .collect();
    StepProbe {
        ns: median(&samples),
        instructions_per_step: ratio(issued, window),
        window,
    }
}

/// Host nanoseconds per packet for `Fabric::inject` plus
/// `Fabric::deliveries_into`, replaying the workload's
/// source→destination pattern at one packet per node per cycle on a
/// bare fabric (median of several replays).
fn isolated_ns_per_packet(spec: &RunSpec) -> f64 {
    let inputs = workloads::generate(spec.workload, spec.seed, spec.size);
    let (x, y) = (usize::from(inputs.dims.0), usize::from(inputs.dims.1));
    let coord = |i: usize| {
        #[allow(clippy::cast_possible_truncation)]
        NodeCoord::new((i % x) as u8, (i / x % y) as u8, (i / (x * y)) as u8)
    };
    let cfg = workloads::config(&inputs, Some(1));
    let n = inputs.nodes();
    let rounds = (50_000 / n).max(4);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut fabric = Fabric::new(FabricConfig {
                dims: inputs.dims,
                hop_latency: cfg.hop_latency,
                loopback_latency: cfg.hop_latency,
            });
            let mut out = Vec::new();
            let mut delivered = 0usize;
            let t0 = Instant::now();
            for now in 0..rounds as u64 {
                for (i, &d) in inputs.dest.iter().enumerate() {
                    let msg = Message {
                        priority: Priority::P0,
                        src: coord(i),
                        dest: coord(d),
                        dip: Word::ZERO,
                        addr: Word::ZERO,
                        body: MsgBody::from_slice(&[Word::from_u64(now)]),
                        wire: WireMeta::default(),
                    };
                    fabric.inject(now, Packet::User(msg));
                }
                fabric.deliveries_into(now, &mut out);
                delivered += out.len();
                out.clear();
            }
            fabric.deliveries_into(u64::MAX, &mut out);
            delivered += out.len();
            let elapsed = t0.elapsed();
            assert_eq!(delivered, rounds * n, "fabric lost packets");
            #[allow(clippy::cast_precision_loss)]
            let ns = elapsed.as_nanos() as f64 / (rounds * n) as f64;
            ns
        })
        .collect();
    median(&samples)
}

/// The traced process: interleaved serial and default-worker runs,
/// traced runs, telemetry on/off pairs, a steady-state allocation
/// window and the isolated layer probes, reporting the per-layer
/// metrics. `seconds` is split between the run groups. Like the
/// untraced process it measures the serial engine; the default-worker
/// runs feed the `shard.*` metrics.
#[must_use]
pub fn per_layer(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    tracer: &mut Tracer,
) -> Report {
    let mut report = Report::default();
    let mut v = Verifier::default();
    let spec = RunSpec {
        workload,
        seed,
        size,
        workers: Some(1),
        telemetry: false,
        mode: Mode::Discover,
    };
    let reference = harness::run(&spec, None);
    v.record("discovery run", &reference);
    let (halt_cycle, settle_cycle) = (reference.halt_cycle, reference.settle_cycle);
    let spec = RunSpec {
        mode: Mode::Timed { settle_cycle },
        ..spec
    };
    let default_spec = RunSpec {
        workers: None,
        ..spec
    };
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    // Serial and default-worker runs, alternating, for the parallel
    // gain and the untraced reference the trace overhead compares to.
    let (mut serial, mut default) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while serial.len() < 2 || t0.elapsed() < budget(0.4) {
        let s = harness::run(&spec, None);
        v.record("serial run", &s);
        serial.push(s);
        let d = harness::run(&default_spec, None);
        v.record("default-workers run", &d);
        default.push(d);
    }
    let build_rss_mb = reference.setup.build_rss_mb;
    let parallel = default[0].clone();

    // Traced runs.
    let epoch = epoch_cycles(workload, size);
    let traced_spec = RunSpec {
        mode: Mode::Traced {
            epoch,
            halt_cycle,
            settle_cycle,
        },
        ..spec
    };
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed() < budget(0.25) {
        let r = harness::run(&traced_spec, Some(tracer));
        v.record("traced run", &r);
        traced.push(r);
    }

    // Telemetry off/on pairs.
    let tele_spec = RunSpec {
        telemetry: true,
        ..spec
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while on.len() < 2 || t0.elapsed() < budget(0.2) {
        let r = harness::run(&spec, None);
        v.record("telemetry-off run", &r);
        off.push(r.sim_s);
        let r = harness::run(&tele_spec, None);
        v.record("telemetry-on run", &r);
        on.push(r.sim_s);
    }

    // Steady-state heap allocations: the middle half of the run.
    let window = (halt_cycle / 2).max(1);
    let alloc = harness::run(
        &RunSpec {
            mode: Mode::AllocWindow {
                warm: halt_cycle / 4,
                window,
                settle_cycle,
            },
            ..spec
        },
        None,
    );
    v.record("allocation-window run", &alloc);

    let step = isolated_step(&spec);
    let packet_ns = isolated_ns_per_packet(&spec);

    header(&mut report, &spec, &reference, parallel.workers);
    let span_ms = |name: &str| -> f64 {
        let ms: Vec<f64> = tracer
            .named(name)
            .map(|i| tracer.spans()[i].ns() as f64 / 1e6)
            .collect();
        median(&ms)
    };
    let epochs: Vec<f64> = tracer
        .named("epoch")
        .map(|i| tracer.self_ns(i) as f64 / 1e6)
        .collect();
    // Summed over every traced epoch: ratios of these are measured
    // where the simulation works, without the post-halt drain.
    let epoch_total = |key: &str| -> u64 {
        tracer
            .named("epoch")
            .flat_map(|i| tracer.spans()[i].counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let walls = |runs: &[Run]| median(&runs.iter().map(|r| r.sim_s).collect::<Vec<_>>());
    let (serial_s, default_s, traced_s) = (walls(&serial), walls(&default), walls(&traced));
    let st = &reference.stats;
    let perf = reference.perf;
    let nc = reference.nodes;
    let snap = &reference.snapshot;
    let split = &parallel.snapshot;
    let shards = (split.shards as usize).clamp(1, split.shard_steps.len());
    let steps = &split.shard_steps[..shards];
    let max_steps = steps.iter().copied().max().unwrap_or(0);
    let total_steps: u64 = steps.iter().sum();
    let nodes = node_count(&spec);
    let coh = st.coherence;

    report.lines.push(format!(
        "runs: 1 discovery, {} serial, {} default-workers, {} traced, {} telemetry pairs, epoch {epoch} cycles, {} epoch samples, isolated node window {} cycles",
        serial.len(),
        default.len(),
        traced.len(),
        on.len(),
        epochs.len(),
        step.window
    ));
    #[allow(clippy::cast_precision_loss)]
    {
        report.metric("isa.assemble_ms", "ms", span_ms("assemble"));
        report.metric("core.build_ms", "ms", span_ms("build"));
        report.metric("core.load_ms", "ms", span_ms("load"));
        report.metric("core.build_rss_mb", "MB", build_rss_mb);
        report.metric("run.epoch_ms_p50", "ms", percentile(&epochs, 50.0));
        report.metric("run.epoch_ms_p99", "ms", percentile(&epochs, 99.0));
        report.metric("run.epoch_samples", "count", epochs.len() as f64);
        report.metric(
            "trace.overhead_pct",
            "%",
            (traced_s / serial_s - 1.0) * 100.0,
        );
        report.metric("sim.node_steps", "count", perf.node_steps as f64);
        report.metric("sim.instructions", "count", st.instructions as f64);
        report.metric(
            "sim.ns_per_node_step",
            "ns",
            serial_s * 1e9 / perf.node_steps.max(1) as f64,
        );
        report.metric("sim.issue_hit_rate", "ratio", perf.issue_hit_rate());
        report.metric("sim.isolated_step_ns", "ns", step.ns);
        report.metric(
            "sim.isolated_instr_per_step",
            "ratio",
            step.instructions_per_step,
        );
        report.metric(
            "sched.awake_frac",
            "ratio",
            ratio(epoch_total("node_steps"), epoch_total("cycles") * nodes),
        );
        report.metric("mem.requests", "count", nc.mem_requests as f64);
        report.metric(
            "mem.cache_hit_rate",
            "ratio",
            ratio(nc.cache_hits, nc.cache_accesses),
        );
        report.metric(
            "mem.ltlb_hit_rate",
            "ratio",
            ratio(nc.ltlb_hits, nc.ltlb_lookups),
        );
        report.metric(
            "mem.dram_row_hit_rate",
            "ratio",
            ratio(nc.row_hits, nc.row_accesses),
        );
        report.metric("mem.bank_stalls", "count", nc.bank_stalls as f64);
        report.metric(
            "mem.block_status_events",
            "count",
            nc.block_status_events as f64,
        );
        report.metric(
            "mem.sync_fault_events",
            "count",
            nc.sync_fault_events as f64,
        );
        report.metric("net.packets", "count", st.fabric.packets as f64);
        report.metric("net.flit_hops", "count", snap.flit_hops as f64);
        report.metric(
            "net.latency_avg_cycles",
            "cycles",
            ratio(st.fabric.total_latency, st.fabric.packets),
        );
        report.metric(
            "net.contention_per_packet",
            "cycles",
            ratio(st.fabric.contention_cycles, st.fabric.packets),
        );
        report.metric("net.bounce_ratio", "ratio", ratio(nc.returns, nc.sends));
        report.metric("net.credit_stalls", "count", nc.credit_stalls as f64);
        report.metric("net.isolated_ns_per_packet", "ns", packet_ns);
        report.metric("coh.packets", "count", st.fabric.coh_packets as f64);
        report.metric("coh.block_fetches", "count", coh.block_fetches as f64);
        report.metric("coh.invalidations", "count", coh.invalidations as f64);
        report.metric("coh.writebacks", "count", coh.writebacks as f64);
        report.metric(
            "coh.miss_latency_cycles",
            "cycles",
            ratio(coh.fetch_latency_cycles, coh.fetch_replays),
        );
        report.metric(
            "coh.packets_per_fetch",
            "ratio",
            ratio(st.fabric.coh_packets, coh.block_fetches),
        );
        report.metric("shard.workers", "count", parallel.workers as f64);
        report.metric("shard.parallel_gain", "ratio", serial_s / default_s);
        report.metric(
            "shard.step_imbalance",
            "ratio",
            ratio(max_steps * shards as u64, total_steps),
        );
        report.metric(
            "core.allocs_per_kcycle",
            "count",
            alloc.window_allocs as f64 * 1e3 / window as f64,
        );
        report.metric(
            "telemetry.overhead_pct",
            "%",
            (median(&on) / median(&off) - 1.0) * 100.0,
        );
        report.metric(
            "host.cores",
            "count",
            mm_bench::scaling::host_cores() as f64,
        );
    }
    for m in &report.metrics {
        report
            .lines
            .push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    v.finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
