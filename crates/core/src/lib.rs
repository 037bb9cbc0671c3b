//! The DOT problem and the OffloaDNN solution strategy — the primary
//! contribution of *"OffloaDNN: Shaping DNNs for Scalable Offloading of
//! Computer Vision Tasks at the Edge"* (ICDCS 2024), reproduced in Rust.
//!
//! Given a set of CV inference tasks with accuracy/latency requirements
//! and an edge platform with limited memory, compute and radio resource
//! blocks, the DOT problem jointly decides:
//!
//! 1. which tasks to admit, and at what fractional rate (`z`);
//! 2. which dynamic-DNN *path* — a composition of shared / fine-tuned /
//!    pruned layer-blocks — serves each admitted task;
//! 3. how many RBs each task's radio slice receives (`r`).
//!
//! DOT is NP-hard (reduction from the knapsack family, see [`reduction`]);
//! [`heuristic::OffloadnnSolver`] is the paper's weighted-tree heuristic,
//! [`exact::ExactSolver`] the exhaustive optimum used as the small-scale
//! baseline.
//!
//! # Example
//!
//! ```
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_core::heuristic::OffloadnnSolver;
//! use offloadnn_core::objective::verify;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let s = small_scenario(3);
//! let solution = OffloadnnSolver::new().solve(&s.instance)?;
//! assert!(verify(&s.instance, &solution).is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablate;
pub mod alloc;
pub mod controller;
pub mod dual;
pub mod error;
pub mod exact;
pub mod heuristic;
pub mod incremental;
pub mod instance;
pub mod metrics;
pub mod multi;
pub mod notation;
pub mod objective;
pub mod reduction;
pub mod report;
pub mod scenario;
pub mod task;
pub mod tree;

pub use controller::{AdmissionOutcome, AdmissionRequest, Controller};
pub use error::{DotError, Violation};
pub use exact::ExactSolver;
pub use heuristic::OffloadnnSolver;
pub use instance::{Budgets, DotInstance, PathOption};
pub use metrics::SolutionSummary;
pub use objective::{evaluate, verify, CostBreakdown, DotSolution};
pub use scenario::{
    heterogeneous_snr_scenario, large_scenario, quantized_small_scenario, small_scenario, LoadLevel, Scenario,
};
pub use task::{QualityLevel, Task, TaskId};
