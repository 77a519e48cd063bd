//! Seeded end-to-end and per-layer benchmark for the M-Machine
//! simulator.
//!
//! Three workloads ([`workloads::Workload`]) each load different layers
//! of the simulator. An untraced process ([`session::end_to_end`])
//! reports what a user of the simulator sees: simulated cycles per host
//! second and set-up time, both in CPU time rescaled to a reference
//! host speed ([`host::Probe`]), and peak memory. A traced process
//! ([`session::per_layer`]) wraps every public call the benchmark makes
//! in spans ([`trace::Tracer`]) and reads the public statistics structs
//! to split that time and work across `isa`, `runtime`, `sched`, `mem`,
//! `net`, `sim`, `core` and `telemetry`. Nothing is measured from inside
//! the simulator.
#![warn(missing_docs)]

pub mod harness;
pub mod host;
pub mod session;
pub mod trace;
pub mod workloads;

pub use session::{end_to_end, per_layer, Metric, Report};
pub use workloads::{Size, Workload};
