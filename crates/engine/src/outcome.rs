//! The unified result type every strategy returns.

use eblow_core::{Plan1d, Plan2d};
use eblow_model::{Instance, ModelError, Selection};
use std::fmt;
use std::time::Duration;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying planner rejected the instance.
    Model(ModelError),
    /// The strategy cannot plan this instance shape (e.g. a 1D strategy on
    /// a free-form 2D stencil, or an exact ILP beyond its size cap).
    Unsupported {
        /// Strategy name.
        strategy: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The strategy ran but produced no usable plan (e.g. the exact ILP hit
    /// its time limit with no incumbent — the paper's "NA" protocol).
    NoPlan {
        /// Strategy name.
        strategy: &'static str,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "model error: {e}"),
            EngineError::Unsupported { strategy, reason } => {
                write!(f, "{strategy}: unsupported instance: {reason}")
            }
            EngineError::NoPlan { strategy, reason } => {
                write!(f, "{strategy}: no plan: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

/// The dimension-specific payload of a [`PlanOutcome`].
#[derive(Debug, Clone)]
pub enum PlanDetail {
    /// A row-structured (1D) plan.
    OneD(Plan1d),
    /// A free-form (2D) plan.
    TwoD(Plan2d),
}

/// What a strategy produced: the unified, dimension-agnostic view of a
/// plan, plus the dimension-specific payload for callers that need the
/// physical placement.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Name of the strategy that produced this plan.
    pub strategy: &'static str,
    /// The induced character selection.
    pub selection: Selection,
    /// Final per-region writing times `T_c`.
    pub region_times: Vec<u64>,
    /// Final system writing time `T_total = max_c T_c` — the quantity the
    /// portfolio minimizes.
    pub total_time: u64,
    /// Wall-clock time of the planning run.
    pub elapsed: Duration,
    /// Whether this plan was degraded by an *internal* deadline even
    /// though the caller's budget never fired — a composite strategy (the
    /// shard fan-out) slices its own sub-deadlines, and a sub-race torn
    /// down mid-run yields a weaker stitch; an exact ILP whose time limit
    /// (clamped to the deadline) stops the search before it proves
    /// optimality returns an unproven incumbent. The portfolio folds this
    /// into its cancelled accounting, so
    /// [`PortfolioOutcome::complete`](crate::PortfolioOutcome::complete)
    /// sees through both.
    pub degraded: bool,
    /// Whether the producing strategy *proved* this plan optimal (an exact
    /// ILP that ran to `MilpStatus::Optimal` rather than timing out with an
    /// incumbent). A proven-optimal plan cannot be beaten by any other
    /// strategy, so the portfolio ends the race as soon as one arrives
    /// instead of burning the rest of the deadline (optimality-aware early
    /// exit).
    pub proven_optimal: bool,
    /// The physical placement.
    pub detail: PlanDetail,
}

impl PlanOutcome {
    /// Wraps a finished 1D plan.
    pub fn from_1d(strategy: &'static str, plan: Plan1d) -> Self {
        PlanOutcome {
            strategy,
            selection: plan.selection.clone(),
            region_times: plan.region_times.clone(),
            total_time: plan.total_time,
            elapsed: plan.elapsed,
            degraded: false,
            proven_optimal: false,
            detail: PlanDetail::OneD(plan),
        }
    }

    /// Wraps a finished 2D plan.
    pub fn from_2d(strategy: &'static str, plan: Plan2d) -> Self {
        PlanOutcome {
            strategy,
            selection: plan.selection.clone(),
            region_times: plan.region_times.clone(),
            total_time: plan.total_time,
            elapsed: plan.elapsed,
            degraded: false,
            proven_optimal: false,
            detail: PlanDetail::TwoD(plan),
        }
    }

    /// Marks this plan as (possibly) degraded by an internal deadline —
    /// see [`PlanOutcome::degraded`].
    pub fn with_degraded(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }

    /// Marks this plan as proven optimal by its producer — see
    /// [`PlanOutcome::proven_optimal`].
    pub fn with_proven_optimal(mut self, proven: bool) -> Self {
        self.proven_optimal = proven;
        self
    }

    /// Re-validates this plan against `instance`: the placement must pass
    /// the model validator and the reported writing time must match the
    /// model's own accounting. The portfolio runs this on every candidate
    /// before it may win, so a buggy or cancelled-mid-write strategy can
    /// never serve an illegal stencil.
    pub fn validate(&self, instance: &Instance) -> Result<(), EngineError> {
        match &self.detail {
            PlanDetail::OneD(p) => p.placement.validate(instance)?,
            PlanDetail::TwoD(p) => p.placement.validate(instance)?,
        }
        let expected = instance.total_writing_time(&self.selection);
        if expected != self.total_time {
            return Err(EngineError::NoPlan {
                strategy: self.strategy,
                reason: format!(
                    "reported T_total {} disagrees with model accounting {}",
                    self.total_time, expected
                ),
            });
        }
        Ok(())
    }
}
