//! **E-BLOW** — overlapping-aware stencil planning for MCC e-beam
//! lithography systems (facade crate).
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`model`] | characters, instances, placements, writing-time accounting |
//! | [`planner`] | the E-BLOW 1D/2D pipelines (with pluggable `LpOracle` backends), exact ILPs, baselines |
//! | [`engine`] | the portfolio engine: Strategy registry (incl. `eblow1d@combinatorial` / `eblow1d@simplex` backend variants), deadline racing, sharded composites |
//! | [`gen`] | the synthetic benchmark families of the paper's evaluation |
//! | [`lp`] | simplex + branch-and-bound MILP substrate |
//! | [`kdtree`], [`matching`], [`seqpair`], [`anneal`] | algorithmic substrates |
//! | [`hardness`] | executable NP-hardness reductions (3SAT → BSS → 1DOSP) |
//! | [`trace`] | flight-recorder tracing/metrics (off by default; zero-overhead off) |
//!
//! # Quickstart
//!
//! ```
//! use eblow::planner::oned::Eblow1d;
//! use eblow::gen::GenConfig;
//!
//! let instance = eblow::gen::generate(&GenConfig::tiny_1d(42));
//! let plan = Eblow1d::default().plan(&instance).unwrap();
//! plan.placement.validate(&instance).unwrap();
//! println!("writing time {}", plan.total_time);
//! ```
//!
//! Production callers should prefer the portfolio engine, which races every
//! applicable planner under a deadline and keeps the best valid plan:
//!
//! ```
//! use eblow::engine::{Portfolio, PortfolioConfig};
//! use eblow::gen::GenConfig;
//!
//! let instance = eblow::gen::generate(&GenConfig::tiny_1d(42));
//! let outcome = Portfolio::all_builtin().run(&instance, &PortfolioConfig::default());
//! let best = outcome.best.expect("some strategy produced a valid plan");
//! println!("{} found writing time {}", best.strategy, best.total_time);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios (in particular
//! `examples/portfolio.rs`) and the `eblow-eval` binary for the full
//! paper-table reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eblow_anneal as anneal;
pub use eblow_core as planner;
pub use eblow_engine as engine;
pub use eblow_gen as gen;
pub use eblow_hardness as hardness;
pub use eblow_kdtree as kdtree;
pub use eblow_lp as lp;
pub use eblow_matching as matching;
pub use eblow_model as model;
pub use eblow_seqpair as seqpair;
pub use eblow_trace as trace;
