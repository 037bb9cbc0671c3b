//! # OffloaDNN — facade crate
//!
//! Re-exports the whole workspace of the ICDCS 2024 "OffloaDNN"
//! reproduction under one roof:
//!
//! * [`dnn`] — DNN structures, blocks, pruning, repositories.
//! * [`profiler`] — analytic latency/memory/accuracy/training models.
//! * [`radio`] — SNR-to-rate models, slices, traffic.
//! * [`core`] — the DOT problem, the OffloaDNN heuristic, the exact
//!   solver, scenarios and the admission controller.
//! * [`semoran`] — the SEM-O-RAN baseline.
//! * [`emu`] — the discrete-event edge/radio emulator.
//! * [`serve`] — the sharded admission-control service runtime
//!   (batching, backpressure, metrics, load generation).
//! * [`gateway`] — the multi-node offloading tier: health-checked
//!   weighted-rendezvous routing over a pool of serve nodes, with
//!   automatic failover and deadline-aware hedged requests.
//! * [`plancache`] — the shared admission plan cache: canonical
//!   task-shape fingerprints, sharded CLOCK eviction and per-entry
//!   TTL; wired into the serve shards, which re-validate every hit and
//!   keep their own rejection memos.
//! * [`telemetry`] — zero-dependency instrumentation: lock-free
//!   counters/gauges, phase span histograms, ring-buffer event log and
//!   JSONL/table exporters (compile out with the `telemetry-disabled`
//!   feature).
//!
//! ```
//! use offloadnn::core::{scenario::small_scenario, OffloadnnSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let s = small_scenario(3);
//! let solution = OffloadnnSolver::new().solve(&s.instance)?;
//! assert_eq!(solution.admitted_tasks(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use offloadnn_core as core;
pub use offloadnn_dnn as dnn;
pub use offloadnn_emu as emu;
pub use offloadnn_gateway as gateway;
pub use offloadnn_net as net;
pub use offloadnn_plancache as plancache;
pub use offloadnn_profiler as profiler;
pub use offloadnn_radio as radio;
pub use offloadnn_semoran as semoran;
pub use offloadnn_serve as serve;
pub use offloadnn_telemetry as telemetry;
