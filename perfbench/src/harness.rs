//! One run of a workload: set up (generate, assemble, build, load),
//! simulate to halt, drain, check. Each phase is one call, or one group
//! of calls, into the simulator's public API, timed from outside.

use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Size, Workload, DRAIN_CYCLES, RUN_LIMIT};
use mm_core::machine::{MMachine, MachinePerf, MachineStats};
use mm_core::MachineError;
use mm_telemetry::{CounterSnapshot, TelemetryConfig};
use std::time::Instant;

/// Host seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Seeded input generation.
    pub generate_s: f64,
    /// Program generation and assembly.
    pub assemble_s: f64,
    /// `MMachine::build`: runtime image, boot of every node, SDRAM.
    pub build_s: f64,
    /// Loading programs, registers and pages.
    pub load_s: f64,
    /// Resident-memory growth across `MMachine::build`, in MB.
    pub build_rss_mb: f64,
    /// CPU seconds the calling thread spent in all four phases.
    pub cpu_s: f64,
}

impl Setup {
    /// The whole set-up time, `setup_s`.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.assemble_s + self.build_s + self.load_s
    }
}

/// Per-node `mem` and `net` counters summed over the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Memory requests accepted.
    pub mem_requests: u64,
    /// Cache hits (reads + writes).
    pub cache_hits: u64,
    /// Cache accesses (hits + misses).
    pub cache_accesses: u64,
    /// LTLB hits.
    pub ltlb_hits: u64,
    /// LTLB lookups.
    pub ltlb_lookups: u64,
    /// SDRAM open-row hits.
    pub row_hits: u64,
    /// SDRAM accesses.
    pub row_accesses: u64,
    /// Requests rejected on a full bank queue.
    pub bank_stalls: u64,
    /// Block-status fault events.
    pub block_status_events: u64,
    /// Synchronizing fault events.
    pub sync_fault_events: u64,
    /// User messages sent.
    pub sends: u64,
    /// Messages bounced back to their senders.
    pub returns: u64,
    /// SENDs stalled for lack of credit.
    pub credit_stalls: u64,
}

impl NodeCounts {
    /// Sum the counters of every node of `m`.
    #[must_use]
    pub fn read(m: &MMachine) -> NodeCounts {
        let mut c = NodeCounts::default();
        for i in 0..m.node_count() {
            let node = m.node(i);
            let ms = node.mem.stats();
            let cs = node.mem.cache_stats();
            let ls = node.mem.ltlb_stats();
            let ds = node.mem.sdram_stats();
            let ns = node.net.stats();
            c.mem_requests += ms.requests;
            c.cache_hits += cs.read_hits + cs.write_hits;
            c.cache_accesses += cs.read_hits + cs.write_hits + cs.read_misses + cs.write_misses;
            c.ltlb_hits += ls.hits;
            c.ltlb_lookups += ls.hits + ls.misses;
            c.row_hits += ds.row_hits;
            c.row_accesses += ds.row_hits + ds.row_misses;
            c.bank_stalls += ms.bank_stalls;
            c.block_status_events += ms.block_status_events;
            c.sync_fault_events += ms.sync_fault_events;
            c.sends += ns.sent;
            c.returns += ns.returned_here;
            c.credit_stalls += ns.credit_stalls;
        }
        c
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// Set-up phase times.
    pub setup: Setup,
    /// Host seconds spent simulating until every thread halted and
    /// every message was received.
    pub sim_s: f64,
    /// CPU seconds the calling thread spent in that simulation. Only a
    /// serial run simulates on the calling thread alone.
    pub sim_cpu_s: f64,
    /// Simulated cycles at the end of that simulation (before the
    /// drain).
    pub sim_cycles: u64,
    /// The cycle `run_until_halt` reported the halt at.
    pub halt_cycle: u64,
    /// The cycle every message had been received at.
    pub settle_cycle: u64,
    /// Final architectural statistics (after the drain).
    pub stats: MachineStats,
    /// Final host-side kernel counters.
    pub perf: MachinePerf,
    /// Final telemetry counter reading.
    pub snapshot: CounterSnapshot,
    /// Final per-node `mem`/`net` sums.
    pub nodes: NodeCounts,
    /// Worker threads the engine resolved to.
    pub workers: usize,
    /// Heap allocations counted in a [`Mode::AllocWindow`] window (0 in
    /// other modes).
    pub window_allocs: u64,
    /// Output check result.
    pub check: Result<(), String>,
}

/// How a run simulates to halt.
///
/// Threads halt with their last stores and SENDs still in flight, so a
/// run goes on past the halt until every message has been received: the
/// settle cycle. Only [`Mode::Discover`] finds that cycle by testing
/// [`workloads::settled`] (a scan of every node) after each simulated
/// cycle; the other modes take it from a discovery run of the same
/// (workload, seed), which simulates exactly the same thing, and run to
/// it with `run_cycles`, so the simulate time holds no benchmark work.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// One `run_until_halt` call, then one `run_until` every message
    /// has been received.
    Discover,
    /// One `run_until_halt` call, then `run_cycles` up to
    /// `settle_cycle`.
    Timed {
        /// The settle cycle a discovery run reported.
        settle_cycle: u64,
    },
    /// `run_cycles(warm)`, `run_cycles(window)` with the heap
    /// allocations of the window counted, then as [`Mode::Timed`].
    AllocWindow {
        /// Cycles before the window opens.
        warm: u64,
        /// Window width in cycles.
        window: u64,
        /// The settle cycle a discovery run reported.
        settle_cycle: u64,
    },
    /// Fixed-width `run_cycles(epoch)` spans up to the last whole epoch
    /// before `halt_cycle`, `run_until_halt`, epochs again up to the
    /// last whole epoch before `settle_cycle`, then the settle
    /// `run_cycles` up to `settle_cycle`, all traced.
    Traced {
        /// Epoch width in cycles.
        epoch: u64,
        /// The halt cycle a discovery run reported.
        halt_cycle: u64,
        /// The settle cycle a discovery run reported.
        settle_cycle: u64,
    },
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Workload size.
    pub size: Size,
    /// Host worker threads (`None` = the engine's default).
    pub workers: Option<usize>,
    /// Run with the telemetry sampler on.
    pub telemetry: bool,
    /// How to simulate.
    pub mode: Mode,
}

/// Resident set size (`VmRSS`) or its peak (`VmHWM`) in MB, read from
/// `/proc/self/status`; 0 where that file does not exist.
#[must_use]
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`),
/// user and system time both. On a guest whose host accounts stolen time
/// to it, time the thread waits for a core (stolen by the host, or given
/// to another process) is not counted, as wall time would count it.
///
/// # Panics
///
/// Panics if the clock cannot be read (it exists on every Linux).
#[must_use]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the
    // kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    #[allow(clippy::cast_precision_loss)]
    let secs = ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
    secs
}

/// Time `f`, recording it as span `name` under `parent` when tracing.
fn phase<T>(
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = tracer.as_deref_mut().map(|t| t.enter(name, parent));
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.exit(id);
    }
    (out, secs)
}

/// Record the counter deltas of one epoch on span `id`.
fn note_deltas(
    t: &mut Tracer,
    id: usize,
    a: &CounterSnapshot,
    b: &CounterSnapshot,
    na: &NodeCounts,
    nb: &NodeCounts,
) {
    for (key, x, y) in [
        ("cycles", a.cycles, b.cycles),
        ("instructions", a.instructions, b.instructions),
        ("node_steps", a.node_steps, b.node_steps),
        ("messages", a.messages, b.messages),
        ("fabric_packets", a.fabric_packets, b.fabric_packets),
        ("flit_hops", a.flit_hops, b.flit_hops),
        ("coh_packets", a.coh_packets, b.coh_packets),
        ("bounces", a.bounces, b.bounces),
        ("mem_requests", na.mem_requests, nb.mem_requests),
        ("bank_stalls", na.bank_stalls, nb.bank_stalls),
        (
            "block_status_events",
            na.block_status_events,
            nb.block_status_events,
        ),
        (
            "sync_fault_events",
            na.sync_fault_events,
            nb.sync_fault_events,
        ),
        ("credit_stalls", na.credit_stalls, nb.credit_stalls),
    ] {
        t.count(id, key, y - x);
    }
}

/// Set up, simulate, drain and check one run. With a tracer, every
/// public call is wrapped in a span under one root span per run.
///
/// # Panics
///
/// Panics if the machine configuration is invalid (a benchmark bug).
#[must_use]
pub fn run(spec: &RunSpec, mut tracer: Option<&mut Tracer>) -> Run {
    let root = tracer.as_deref_mut().map(|t| {
        t.next_run();
        t.enter("run", None)
    });
    let mut setup = Setup::default();
    let cpu0 = thread_cpu_s();
    let (inputs, s): (Inputs, _) = phase(&mut tracer, root, "generate", || {
        workloads::generate(spec.workload, spec.seed, spec.size)
    });
    setup.generate_s = s;
    let (progs, s) = phase(&mut tracer, root, "assemble", || {
        workloads::programs(&inputs)
    });
    setup.assemble_s = s;
    let mut cfg = workloads::config(&inputs, spec.workers);
    if spec.telemetry {
        cfg.telemetry = TelemetryConfig::enabled();
    }
    let rss0 = proc_status_mb("VmRSS");
    let (m, s) = phase(&mut tracer, root, "build", || {
        MMachine::build(cfg).expect("benchmark machine config is valid")
    });
    setup.build_s = s;
    setup.build_rss_mb = proc_status_mb("VmRSS") - rss0;
    let mut m = m;
    let ((), s) = phase(&mut tracer, root, "load", || {
        workloads::load(&mut m, &inputs, &progs);
    });
    setup.load_s = s;
    setup.cpu_s = thread_cpu_s() - cpu0;

    let mut window_allocs = 0;
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let sim = tracer.as_deref_mut().map(|t| t.enter("simulate", root));
    let done = match spec.mode {
        Mode::Discover => m.run_until_halt(RUN_LIMIT).and_then(|h| {
            let settled = |m: &MMachine| workloads::settled(m, &inputs);
            Ok((h, m.run_until(RUN_LIMIT, settled)?))
        }),
        Mode::Timed { settle_cycle } => to_settle(&mut m, settle_cycle),
        Mode::AllocWindow {
            warm,
            window,
            settle_cycle,
        } => {
            m.run_cycles(warm);
            let before = mm_bench::alloc_probe::allocations();
            m.run_cycles(window);
            window_allocs = mm_bench::alloc_probe::allocations() - before;
            to_settle(&mut m, settle_cycle)
        }
        Mode::Traced {
            epoch,
            halt_cycle,
            settle_cycle,
        } => {
            let t = tracer.as_deref_mut().expect("traced mode needs a tracer");
            let sim = sim.expect("traced mode has a simulate span");
            epochs(&mut m, t, sim, epoch, halt_cycle);
            let (r, _) = phase(&mut Some(&mut *t), Some(sim), "run_until_halt", || {
                m.run_until_halt(RUN_LIMIT)
            });
            r.map(|h| {
                epochs(&mut m, t, sim, epoch, settle_cycle);
                let ((), _) = phase(&mut Some(&mut *t), Some(sim), "settle", || {
                    m.run_cycles(settle_cycle.saturating_sub(m.cycle()));
                });
                (h, m.cycle())
            })
        }
    };
    if let (Some(t), Some(sim)) = (tracer.as_deref_mut(), sim) {
        t.exit(sim);
    }
    let sim_s = t0.elapsed().as_secs_f64();
    let sim_cpu_s = thread_cpu_s() - cpu0;
    let sim_cycles = m.cycle();
    let check = match &done {
        Ok(_) if !workloads::settled(&m, &inputs) => Err(format!(
            "messages still in flight at the settle cycle {sim_cycles}"
        )),
        Ok(_) => {
            let ((), _) = phase(&mut tracer, root, "drain", || m.run_cycles(DRAIN_CYCLES));
            workloads::check(&m, &inputs)
        }
        Err(e) => Err(format!("simulation did not complete: {e}")),
    };
    if spec.telemetry {
        m.telemetry_flush();
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    Run {
        setup,
        sim_s,
        sim_cpu_s,
        sim_cycles,
        halt_cycle: done.as_ref().map_or(0, |d| d.0),
        settle_cycle: done.as_ref().map_or(0, |d| d.1),
        stats: m.stats(),
        perf: m.perf(),
        snapshot: m.counter_snapshot(),
        nodes: NodeCounts::read(&m),
        workers: m.workers(),
        window_allocs,
        check,
    }
}

/// `run_until_halt`, then `run_cycles` up to `settle_cycle` (or not at
/// all if the halt drain already passed it, as a `run_until` would
/// have stopped there too): the halt cycle and the cycle reached.
fn to_settle(m: &mut MMachine, settle_cycle: u64) -> Result<(u64, u64), MachineError> {
    let halt = m.run_until_halt(RUN_LIMIT)?;
    m.run_cycles(settle_cycle.saturating_sub(m.cycle()));
    Ok((halt, m.cycle()))
}

/// Fixed-width `run_cycles(epoch)` spans under `sim`, each with the
/// counter deltas it produced, up to the last whole epoch before
/// `until`.
fn epochs(m: &mut MMachine, t: &mut Tracer, sim: usize, epoch: u64, until: u64) {
    let last_whole = until.saturating_sub(1) / epoch * epoch;
    let mut snap = m.counter_snapshot();
    let mut nodes = NodeCounts::read(m);
    while m.cycle() + epoch <= last_whole {
        let e = t.enter("epoch", Some(sim));
        m.run_cycles(epoch);
        t.exit(e);
        let sample = t.enter("sample", Some(sim));
        let (snap2, nodes2) = (m.counter_snapshot(), NodeCounts::read(m));
        t.exit(sample);
        note_deltas(t, e, &snap, &snap2, &nodes, &nodes2);
        (snap, nodes) = (snap2, nodes2);
    }
}
