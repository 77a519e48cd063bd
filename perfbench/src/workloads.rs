//! The benchmark's three workloads: seeded input generation, program
//! generation, machine configuration, loading, and the output checks
//! that feed `verify_fail_frac`.
//!
//! Every input a workload uses (pairings, hot set, data values) is a
//! pure function of `(workload, seed, size)`, so two runs with one seed
//! simulate exactly the same thing and their `MachineStats` must match
//! bit for bit.

use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_isa::instr::Program;
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::MemWord;
use mm_runtime::kernels::coherent_smooth;
use mm_runtime::workloads::{traffic_node, traffic_sink_off, TrafficDest};
use std::sync::Arc;

/// Cycle budget of each simulate call. Every workload completes in at
/// most ~40 000 cycles at the full size, so a broken simulator fails a
/// run within seconds instead of hanging the benchmark.
pub const RUN_LIMIT: u64 = 200_000;

/// Cycles run after halt so in-flight protocol messages, bounces and
/// credits land before the outputs are checked.
pub const DRAIN_CYCLES: u64 = 256;

/// `busy_mesh` chain links (pairs of dependent adds) per remote store.
/// The sender's LTLB-miss handler turns each remote store into a SEND
/// in software; with fewer links per store it falls behind, its event
/// queue overflows and the machine drops event records (remote stores).
const CHAIN: usize = 16;

/// What `hotspot_traffic` sink words hold before any message lands.
const SINK_SENTINEL: u64 = u64::MAX;

/// Hot destinations in `hotspot_traffic`, one per (x-half, y-half)
/// quadrant of the mesh.
const HOT_NODES: usize = 4;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8×8 mesh, every node awake every cycle: a dependent integer
    /// chain plus one remote store per iteration to a one-hop partner.
    BusyMesh,
    /// 4×4×2 mesh, seeded pairs ping-ponging one shared block through
    /// the §4.3 coherence protocol.
    CoherencePairs,
    /// 8×8×4 mesh, every node SENDing at full rate to one of a few
    /// seeded hot nodes.
    HotspotTraffic,
}

/// How much work a run does: `Full` is what the benchmark measures,
/// `Tiny` is the smoke test's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few-node, few-iteration size for the smoke test.
    Tiny,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BusyMesh,
        Workload::CoherencePairs,
        Workload::HotspotTraffic,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BusyMesh => "busy_mesh",
            Workload::CoherencePairs => "coherence_pairs",
            Workload::HotspotTraffic => "hotspot_traffic",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mesh dimensions and run length (iterations per node, or
    /// messages per node for `hotspot_traffic`) at `size`.
    #[must_use]
    pub fn shape(self, size: Size) -> ((u8, u8, u8), u64) {
        match (self, size) {
            (Workload::BusyMesh, Size::Full) => ((8, 8, 8), 50),
            (Workload::CoherencePairs, Size::Full) => ((4, 4, 2), 500),
            (Workload::HotspotTraffic, Size::Full) => ((8, 8, 4), 48),
            (Workload::BusyMesh, Size::Tiny) => ((2, 2, 2), 16),
            (Workload::CoherencePairs, Size::Tiny) => ((2, 2, 2), 8),
            (Workload::HotspotTraffic, Size::Tiny) => ((2, 2, 2), 4),
        }
    }
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Per-node seeded data of `busy_mesh`: the chain's starting registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// Initial `r5`, the iteration counter the node stores remotely.
    pub start: u64,
    /// Initial `r6`.
    pub r6: u64,
    /// Initial `r7`.
    pub r7: u64,
}

/// Per-node seeded data of `coherence_pairs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Does this node home the pair's shared block?
    pub home: bool,
    /// The word of the shared block this node publishes.
    pub own_off: usize,
    /// Smoothing coefficient in eighths (`f15 = eighths / 8`).
    pub eighths: u64,
    /// Rounds the pair runs.
    pub rounds: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Mesh dimensions.
    pub dims: (u8, u8, u8),
    /// Iterations per node, messages per node for `hotspot_traffic`,
    /// or the middle of the seeded per-pair round counts for
    /// `coherence_pairs`.
    pub len: u64,
    /// Per node, where its remote traffic goes: the store partner
    /// (`busy_mesh`), the pair partner (`coherence_pairs`) or the hot
    /// destination (`hotspot_traffic`).
    pub dest: Vec<usize>,
    /// `busy_mesh` per-node chain data (empty otherwise).
    pub chains: Vec<Chain>,
    /// `coherence_pairs` per-node share data (empty otherwise).
    pub shares: Vec<Share>,
}

impl Inputs {
    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.dest.len()
    }
}

/// Pair every node with a one-hop neighbour: the mesh splits into
/// 2×2×2 cubes and the seed picks, per cube, the axis along which its
/// eight nodes pair up. Linear node index is x-fastest.
fn cube_pairs(dims: (u8, u8, u8), rng: &mut Rng) -> Vec<usize> {
    let (x, y, z) = (
        usize::from(dims.0),
        usize::from(dims.1),
        usize::from(dims.2),
    );
    let cubes = (x / 2) * (y / 2) * (z / 2);
    let axes: Vec<usize> = (0..cubes)
        .map(|_| [1, x, x * y][rng.below(3) as usize])
        .collect();
    (0..x * y * z)
        .map(|i| {
            let (cx, cy, cz) = (i % x / 2, i / x % y / 2, i / (x * y) / 2);
            let stride = axes[cx + (x / 2) * (cy + (y / 2) * cz)];
            // Flip the low bit of the chosen coordinate.
            if (i / stride).is_multiple_of(2) {
                i + stride
            } else {
                i - stride
            }
        })
        .collect()
}

/// Generate `workload`'s inputs at `size` from `seed`.
#[must_use]
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    let (dims, len) = workload.shape(size);
    let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let n = usize::from(dims.0) * usize::from(dims.1) * usize::from(dims.2);
    let mut inputs = Inputs {
        workload,
        dims,
        len,
        dest: Vec::new(),
        chains: Vec::new(),
        shares: Vec::new(),
    };
    match workload {
        Workload::BusyMesh => {
            inputs.dest = cube_pairs(dims, &mut rng);
            inputs.chains = (0..n)
                .map(|_| Chain {
                    start: rng.below(1 << 20),
                    r6: rng.below(1 << 32),
                    r7: rng.below(1 << 32),
                })
                .collect();
        }
        Workload::CoherencePairs => {
            inputs.dest = cube_pairs(dims, &mut rng);
            inputs.shares = vec![
                Share {
                    home: false,
                    own_off: 0,
                    eighths: 0,
                    rounds: 0,
                };
                n
            ];
            for a in 0..n {
                let b = inputs.dest[a];
                if b < a {
                    continue;
                }
                let home_is_a = rng.below(2) == 0;
                let own_a = rng.below(8) as usize;
                let own_b = (own_a + 1 + rng.below(7) as usize) % 8;
                let eighths = 1 + rng.below(7);
                // Every other input above is symmetric under the one-hop
                // mesh and leaves the simulated statistics unchanged;
                // round counts within ±5% of `len` make each seed
                // simulate different work.
                let rounds = len - len / 20 + rng.below(len / 10 + 1);
                inputs.shares[a] = Share {
                    home: home_is_a,
                    own_off: own_a,
                    eighths,
                    rounds,
                };
                inputs.shares[b] = Share {
                    home: !home_is_a,
                    own_off: own_b,
                    eighths,
                    rounds,
                };
            }
        }
        Workload::HotspotTraffic => {
            // One hot node per (x-half, y-half) quadrant, seeded within
            // the quadrant's central region so every seed gives hot
            // spots of like placement; every node sends to its own
            // quadrant's hot node, and a hot node to the next one.
            let (x, y, z) = (
                usize::from(dims.0),
                usize::from(dims.1),
                usize::from(dims.2),
            );
            let mut central = |extent: usize| {
                let lo = extent / 4;
                lo + rng.below((extent - 2 * lo) as u64) as usize
            };
            let (bx, by) = (x / 2, y / 2);
            let hot: Vec<usize> = (0..HOT_NODES)
                .map(|q| {
                    let (hx, hy, hz) = (central(bx), central(by), central(z));
                    (q % 2 * bx + hx) + x * ((q / 2 * by + hy) + y * hz)
                })
                .collect();
            inputs.dest = (0..n)
                .map(|i| {
                    let q = (i % x) / bx + 2 * ((i / x % y) / by);
                    if hot[q] == i {
                        hot[(q + 1) % HOT_NODES]
                    } else {
                        hot[q]
                    }
                })
                .collect();
        }
    }
    inputs
}

/// Generate and assemble every node's user program (shared `Arc`s where
/// nodes run the same code).
///
/// # Panics
///
/// Panics if generated code fails to assemble (a benchmark bug).
#[must_use]
pub fn programs(inputs: &Inputs) -> Vec<Arc<Program>> {
    let n = inputs.nodes();
    match inputs.workload {
        Workload::BusyMesh => {
            let mut src = String::from("loop:\n\tadd r5, #1, r5\n");
            for _ in 0..CHAIN {
                src.push_str("\tadd r6, r5, r6\n\tadd r7, r6, r7\n");
            }
            src.push_str("\tst r5, [r8]\n\teq r5, r9, gcc1\n\tbrf gcc1, loop\n\thalt\n");
            let busy = Arc::new(mm_isa::assemble(&src).expect("busy chain assembles"));
            (0..n).map(|_| Arc::clone(&busy)).collect()
        }
        Workload::CoherencePairs => (0..n)
            .map(|i| {
                let other = inputs.shares[inputs.dest[i]].own_off;
                coherent_smooth(inputs.shares[i].own_off, other, inputs.shares[i].rounds)
            })
            .collect(),
        Workload::HotspotTraffic => (0..n)
            .map(|i| traffic_node(TrafficDest::Fixed(inputs.dest[i]), n, 0, inputs.len))
            .collect(),
    }
}

/// The machine configuration every workload runs on: the weak-scaling
/// scenario's small per-node memory, so the 512-node mesh fits in host
/// memory, with `workers` host threads (`None` = auto-detect).
#[must_use]
pub fn config(inputs: &Inputs, workers: Option<usize>) -> MachineConfig {
    let mut cfg = mm_bench::scaling::scenario_config(inputs.dims);
    cfg.engine.workers = workers;
    cfg
}

/// Load programs, registers and pages onto a freshly built machine.
///
/// # Panics
///
/// Panics if a program or pointer does not fit the machine (a benchmark
/// bug).
pub fn load(m: &mut MMachine, inputs: &Inputs, progs: &[Arc<Program>]) {
    for (i, p) in progs.iter().enumerate() {
        m.load_user_program(i, 0, p).expect("slot 0 loads");
    }
    match inputs.workload {
        Workload::BusyMesh => {
            for (i, c) in inputs.chains.iter().enumerate() {
                let partner_home = m.home_ptr(inputs.dest[i], 0);
                m.set_user_reg(i, 0, 0, Reg::Int(8), partner_home);
                m.set_user_reg(i, 0, 0, Reg::Int(5), Word::from_u64(c.start));
                m.set_user_reg(i, 0, 0, Reg::Int(6), Word::from_u64(c.r6));
                m.set_user_reg(i, 0, 0, Reg::Int(7), Word::from_u64(c.r7));
                let end = Word::from_u64(c.start + inputs.len);
                m.set_user_reg(i, 0, 0, Reg::Int(9), end);
            }
        }
        Workload::CoherencePairs => {
            for (i, s) in inputs.shares.iter().enumerate() {
                let home = if s.home { i } else { inputs.dest[i] };
                if !s.home {
                    // §4.3 boot state of a locally cached remote page:
                    // every block INVALID, so first touches take the
                    // coherent block-fetch path.
                    m.map_coherent_page(i, m.home_va(home, 0));
                }
                let block = m.home_ptr(home, 0);
                m.set_user_reg(i, 0, 0, Reg::Int(1), block);
                #[allow(clippy::cast_precision_loss)]
                let b = s.eighths as f64 / 8.0;
                m.set_user_reg(i, 0, 0, Reg::Fp(15), Word::from_f64(b));
            }
        }
        Workload::HotspotTraffic => {
            for (me, &d) in inputs.dest.iter().enumerate() {
                // The program reads its destination capability from
                // entry `d` of its table on home page 1.
                let sink = m.home_va(d, 0) + traffic_sink_off(me);
                let cap = m.make_ptr(Perm::ReadWrite, 0, sink).expect("sink cap");
                let slot = m.home_va(me, 1) + d as u64;
                assert!(
                    m.node_mut(me).mem.poke_va(slot, MemWord::new(cap)),
                    "capability table unmapped on node {me}"
                );
                // No payload equals the sentinel, so a sink that no
                // message reached fails the check.
                assert!(
                    m.node_mut(d)
                        .mem
                        .poke_va(sink, MemWord::new(Word::from_u64(SINK_SENTINEL))),
                    "sink unmapped on node {d}"
                );
                let table = m.home_ptr(me, 1);
                m.set_user_reg(me, 0, 0, Reg::Int(1), table);
                let dip = m.image().write_dip;
                m.set_user_reg(me, 0, 0, Reg::Int(11), dip);
            }
        }
    }
}

/// Has every message the workload sends been received? Threads halt
/// once their last store or SEND has left, so the run continues until
/// this holds (always true for `coherence_pairs`, whose protocol
/// traffic the threads wait on).
#[must_use]
pub fn settled(m: &MMachine, inputs: &Inputs) -> bool {
    match inputs.workload {
        Workload::CoherencePairs => true,
        Workload::BusyMesh | Workload::HotspotTraffic => {
            let n = inputs.nodes();
            (0..n).map(|i| m.node(i).net.stats().received).sum::<u64>() == n as u64 * inputs.len
        }
    }
}

fn word_at(m: &MMachine, node: usize, va: u64) -> Result<u64, String> {
    m.node(node)
        .mem
        .peek_va(va)
        .map(|w| w.word.bits())
        .ok_or_else(|| format!("node {node}: va {va:#x} unmapped"))
}

/// Check a halted (and drained) machine's outputs against what the
/// inputs say it must have computed.
///
/// # Errors
///
/// The first check that failed, as a message.
pub fn check(m: &MMachine, inputs: &Inputs) -> Result<(), String> {
    let faulted = m.faulted_threads();
    if !faulted.is_empty() {
        return Err(format!("faulted threads: {faulted:?}"));
    }
    let unknown = m.stats().coherence.unknown_events;
    if unknown != 0 {
        return Err(format!("{unknown} unknown event records"));
    }
    let n = inputs.nodes();
    let dropped: u64 = (0..n).map(|i| m.node(i).stats().events_dropped).sum();
    if dropped != 0 {
        return Err(format!("{dropped} event records dropped"));
    }
    match inputs.workload {
        Workload::BusyMesh => {
            for (i, c) in inputs.chains.iter().enumerate() {
                let p = inputs.dest[i];
                let end = c.start + inputs.len;
                let received = m.node(p).net.stats().received;
                if received != inputs.len {
                    return Err(format!(
                        "node {p} received {received} remote stores, want {}",
                        inputs.len
                    ));
                }
                // A remote store that misses the home node's LTLB is
                // replayed after the miss handler runs, so a later store
                // may land first: the home word holds one of the values
                // its partner stored, not necessarily the last.
                let got = word_at(m, p, m.home_va(p, 0))?;
                if !(c.start + 1..=end).contains(&got) {
                    return Err(format!(
                        "node {p} home word {got} was never stored by node {i}"
                    ));
                }
                let (mut r6, mut r7) = (c.r6, c.r7);
                for k in c.start + 1..=end {
                    for _ in 0..CHAIN {
                        r6 = r6.wrapping_add(k);
                        r7 = r7.wrapping_add(r6);
                    }
                }
                for (reg, want) in [(6u8, r6), (7, r7)] {
                    let got = m
                        .user_reg(i, 0, 0, reg)
                        .map_err(|e| format!("node {i} r{reg}: {e}"))?
                        .bits();
                    if got != want {
                        return Err(format!("node {i} r{reg} = {got}, want {want}"));
                    }
                }
            }
        }
        Workload::CoherencePairs => {
            for a in 0..n {
                let b = inputs.dest[a];
                if b < a {
                    continue;
                }
                let home = if inputs.shares[a].home { a } else { b };
                let base = m.home_va(home, 0);
                let rounds = inputs.shares[a].rounds;
                // The kernel loads the partner's integer word straight
                // into `f1`, so `f9` sums coefficient × (that word's bits
                // read as a double), computed here with the same float
                // operations. A partner runs at most one round ahead, so
                // the word read in round k is k or k + 1.
                for node in [a, b] {
                    #[allow(clippy::cast_precision_loss)]
                    let coeff = inputs.shares[node].eighths as f64 / 8.0;
                    let (mut least, mut most) = (0.0f64, 0.0f64);
                    for k in 1..=rounds {
                        least += coeff * f64::from_bits(k);
                        most += coeff * f64::from_bits(k + 1);
                    }
                    let f9 = m.node(node).read_reg(0, 0, Reg::Fp(9)).as_f64();
                    if !(least..=most).contains(&f9) {
                        return Err(format!(
                            "node {node}: smoothed sum bits {:#x} outside {:#x}..={:#x}",
                            f9.to_bits(),
                            least.to_bits(),
                            most.to_bits()
                        ));
                    }
                }
                for off in [inputs.shares[a].own_off, inputs.shares[b].own_off] {
                    // The last writer's copy is authoritative; the other
                    // side may hold a stale invalidated frame.
                    let va = base + off as u64;
                    let freshest = word_at(m, a, va)?.max(word_at(m, b, va)?);
                    if freshest != rounds {
                        return Err(format!(
                            "pair ({a},{b}) word {off}: freshest {freshest} != {rounds}"
                        ));
                    }
                }
            }
        }
        Workload::HotspotTraffic => {
            let sent: u64 = (0..n).map(|i| m.node(i).net.stats().sent).sum();
            let received: u64 = (0..n).map(|i| m.node(i).net.stats().received).sum();
            let want = n as u64 * inputs.len;
            if sent != want || received != want {
                return Err(format!("{sent} sent, {received} received, want {want}"));
            }
            // A bounced message is resent after a backoff (§4.2), so a
            // flow's messages may land out of order: the sink holds one
            // of its sender's payloads, not necessarily the last.
            for me in 0..n {
                let d = inputs.dest[me];
                let got = word_at(m, d, m.home_va(d, 0) + traffic_sink_off(me))?;
                if got >= inputs.len {
                    return Err(format!("sink of {me} on {d} holds {got}, not a payload"));
                }
            }
        }
    }
    Ok(())
}

/// FNV-1a over the `Debug` rendering of `stats`: one number that two
/// commits can compare. A change that only makes the simulator faster
/// must leave it identical.
#[must_use]
pub fn digest(stats: &MachineStats) -> u64 {
    format!("{stats:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairings_are_one_hop_involutions() {
        for w in [Workload::BusyMesh, Workload::CoherencePairs] {
            let inputs = generate(w, 7, Size::Full);
            let (x, y, _) = (
                usize::from(inputs.dims.0),
                usize::from(inputs.dims.1),
                inputs.dims.2,
            );
            for (i, &p) in inputs.dest.iter().enumerate() {
                assert_eq!(inputs.dest[p], i, "{}: not an involution", w.name());
                assert!([1, x, x * y].contains(&i.abs_diff(p)), "not one hop");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 1, Size::Full), generate(w, 1, Size::Full));
            assert_ne!(generate(w, 1, Size::Full), generate(w, 2, Size::Full));
        }
    }
}
