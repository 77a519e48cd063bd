//! Building a machine touches only the memory it initialises: node SDRAM
//! and caches are zeroed allocations whose pages fault in on first use.
//! This binary holds a single test so the process's resident set is the
//! build's alone.

use mm_bench::scaling::scenario_config;
use mm_core::MMachine;

/// Resident set size in MB from `/proc/self/status`.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb / 1024.0
}

#[test]
fn building_an_8x8x8_machine_stays_small() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: VmRSS needs Linux /proc");
        return;
    }
    let before = rss_mb();
    let m = MMachine::build(scenario_config((8, 8, 8))).expect("8x8x8 scenario builds");
    let grown = rss_mb() - before;
    assert_eq!(m.node_count(), 512);
    assert!(
        grown < 64.0,
        "MMachine::build(8x8x8) raised VmRSS by {grown:.1} MB"
    );
}
