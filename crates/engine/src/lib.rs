//! **eblow-engine** — the parallel portfolio-planning subsystem of the
//! E-BLOW workspace.
//!
//! The paper evaluates five-plus planners (exact ILP, the E-BLOW
//! LP-rounding flows, and greedy/heuristic baselines); this crate turns
//! that planner zoo into one production front door:
//!
//! * [`Strategy`] — an object-safe trait wrapping every 1D/2D planner
//!   behind a single `plan(&Instance, &Budget) -> PlanOutcome` call, plus a
//!   [`registry`](crate::strategy) of all built-in strategies by name.
//! * [`Budget`] — a wall-clock deadline plus a shared cooperative stop
//!   flag. Every planner in `eblow-core` polls the flag at loop boundaries
//!   and finishes a *valid* plan early when it is raised, so cancellation
//!   is anytime, not best-effort.
//! * [`Portfolio`] — races a set of strategies across OS threads under the
//!   deadline, validates every returned plan against the model, and picks
//!   the minimum-writing-time valid plan. Per-strategy reports record who
//!   finished, who was cancelled, and who won.
//! * [`shard`] — the composite `shard1d`/`shard2d` strategies for huge
//!   instances: split into per-region / per-row-band sub-instances, race
//!   each shard on the portfolio machinery in parallel, stitch the
//!   sub-plans back into one validated placement. Each split targets a
//!   fixed number of candidates per shard
//!   ([`ShardConfig::target_shard_chars`]).
//!
//! # Quickstart
//!
//! ```
//! use eblow_engine::{Portfolio, PortfolioConfig};
//! use std::time::Duration;
//!
//! let instance = eblow_gen::generate(&eblow_gen::GenConfig::tiny_1d(7));
//! let config = PortfolioConfig {
//!     deadline: Some(Duration::from_secs(5)),
//! };
//! let outcome = Portfolio::all_builtin().run(&instance, &config);
//! let best = outcome.best.expect("some strategy produced a valid plan");
//! println!("winner: {} at T_total = {}", best.strategy, best.total_time);
//! for report in &outcome.reports {
//!     println!("  {report}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod outcome;
mod portfolio;
pub mod shard;
pub mod strategy;

pub use budget::Budget;
pub use outcome::{EngineError, PlanDetail, PlanOutcome};
pub use portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome, StrategyReport, StrategyStatus};
pub use shard::{Shard1dStrategy, Shard2dStrategy, ShardConfig};
pub use strategy::{builtin_strategies, strategies_for, strategy_by_name, Strategy};
