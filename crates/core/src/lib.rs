//! E-BLOW: overlapping-aware stencil planning for MCC e-beam lithography.
//!
//! This crate implements the paper's primary contribution — the E-BLOW
//! planning flows — plus the baselines it is evaluated against:
//!
//! * [`oned`] — the 1DOSP pipeline (paper §3): simplified ILP formulation
//!   (4) solved by a structure-exploiting LP oracle, successive rounding
//!   (Algorithm 1), fast ILP convergence (Algorithm 2), dynamic-programming
//!   row refinement (Algorithm 3), post-swap and matching-based
//!   post-insertion (§3.5).
//! * [`twod`] — the 2DOSP pipeline (paper §4): profit pre-filter, KD-tree
//!   clustering (Algorithm 4), and simulated-annealing packing over a
//!   sequence-pair (with a scalable skyline engine for the largest cases).
//! * [`ilp`] — the *exact* ILP formulations (3) and (7), solved by
//!   branch-and-bound for the Table 5 comparison.
//! * [`baselines`] — Greedy \[24\], the heuristic framework of \[24\], and a
//!   row-structure heuristic in the spirit of \[25\].
//! * [`profit`] — Eqn. (6) dynamic profits and incremental region-time
//!   tracking shared by all planners.
//!
//! # Quickstart
//!
//! ```
//! use eblow_core::oned::{Eblow1d, Eblow1dConfig};
//! use eblow_gen::GenConfig;
//!
//! let instance = eblow_gen::generate(&GenConfig::tiny_1d(7));
//! let plan = Eblow1d::new(Eblow1dConfig::default()).plan(&instance).unwrap();
//! assert!(plan.placement.validate(&instance).is_ok());
//! assert!(plan.total_time <= instance.total_writing_time(
//!     &eblow_model::Selection::none(instance.num_chars())));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cancel;
pub mod ilp;
pub mod oned;
pub mod profit;
pub mod twod;

pub use cancel::StopFlag;

use std::time::Duration;

/// Outcome of a 1D planning run.
#[derive(Debug, Clone)]
pub struct Plan1d {
    /// The physical placement (row assignment + in-row order).
    pub placement: eblow_model::Placement1d,
    /// The induced selection.
    pub selection: eblow_model::Selection,
    /// Final per-region writing times `T_c`.
    pub region_times: Vec<u64>,
    /// Final system writing time `T_total = max_c T_c`.
    pub total_time: u64,
    /// Wall-clock time of the planning run.
    pub elapsed: Duration,
    /// Successive-rounding trace (present for E-BLOW, absent for baselines).
    pub trace: Option<oned::RoundingTrace>,
}

/// Outcome of a 2D planning run.
#[derive(Debug, Clone)]
pub struct Plan2d {
    /// The physical placement with absolute coordinates.
    pub placement: eblow_model::Placement2d,
    /// The induced selection.
    pub selection: eblow_model::Selection,
    /// Final per-region writing times `T_c`.
    pub region_times: Vec<u64>,
    /// Final system writing time.
    pub total_time: u64,
    /// Wall-clock time of the planning run.
    pub elapsed: Duration,
}
