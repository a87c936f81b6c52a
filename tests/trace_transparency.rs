//! The flight recorder's transparency guarantee: tracing is observation
//! only, so plans, digests, and placements are bit-identical whether the
//! recorder is off or fully on. This is what makes `Level::Counters` safe
//! to leave enabled under benchmarking and `eblow-eval trace` safe to
//! point at any case.

use eblow::gen::{generate, GenConfig};
use eblow::model::Fnv64;
use eblow::planner::oned::Eblow1d;
use eblow::planner::twod::Eblow2d;
use eblow::trace::{set_level, Level};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The recorder level is process-global; every test that flips it holds
/// this lock so `cargo test`'s default parallelism cannot interleave an
/// `Off` run of one test with a `Full` run of another.
fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Stable fingerprint of a 1D plan: row orders, region times, total time
/// (same construction as the golden-stability suite).
fn plan_fingerprint_1d(plan: &eblow::planner::Plan1d) -> u64 {
    let mut h = Fnv64::new();
    for row in plan.placement.rows() {
        h.write((row.order().len() as u64).to_le_bytes());
        for id in row.order() {
            h.write((id.index() as u64).to_le_bytes());
        }
    }
    for &t in &plan.region_times {
        h.write(t.to_le_bytes());
    }
    h.write(plan.total_time.to_le_bytes());
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 1D pipeline: plan + instance digest are bit-identical with the
    /// recorder fully on vs off.
    #[test]
    fn tracing_never_changes_1d_plans(seed in 0u64..5000) {
        let _serial = level_lock();
        set_level(Level::Off);
        let inst_off = generate(&GenConfig::tiny_1d(seed));
        let plan_off = Eblow1d::default().plan(&inst_off).unwrap();

        set_level(Level::Full);
        let inst_on = generate(&GenConfig::tiny_1d(seed));
        let plan_on = Eblow1d::default().plan(&inst_on).unwrap();
        set_level(Level::Off);

        prop_assert_eq!(inst_off.digest().to_hex(), inst_on.digest().to_hex());
        prop_assert_eq!(plan_off.total_time, plan_on.total_time);
        prop_assert_eq!(&plan_off.selection, &plan_on.selection);
        prop_assert_eq!(&plan_off.region_times, &plan_on.region_times);
        prop_assert_eq!(plan_fingerprint_1d(&plan_off), plan_fingerprint_1d(&plan_on));
    }

    /// 2D pipeline: same guarantee.
    #[test]
    fn tracing_never_changes_2d_plans(seed in 0u64..5000) {
        let _serial = level_lock();
        set_level(Level::Off);
        let inst = generate(&GenConfig::tiny_2d(seed));
        let plan_off = Eblow2d::default().plan(&inst).unwrap();

        set_level(Level::Full);
        let plan_on = Eblow2d::default().plan(&inst).unwrap();
        set_level(Level::Off);

        prop_assert_eq!(plan_off.total_time, plan_on.total_time);
        prop_assert_eq!(&plan_off.selection, &plan_on.selection);
    }
}

/// The engine path (the portfolio race) is equally transparent:
/// a single-strategy deterministic race returns the same plan at every
/// recorder level.
#[test]
fn tracing_never_changes_single_strategy_races() {
    use eblow::engine::{Portfolio, PortfolioConfig};
    let _serial = level_lock();
    let inst = generate(&GenConfig::tiny_1d(4242));
    let portfolio = Portfolio::of_names(["eblow1d"]).unwrap();

    set_level(Level::Off);
    let off = portfolio.run(&inst, &PortfolioConfig::default());
    set_level(Level::Counters);
    let counters = portfolio.run(&inst, &PortfolioConfig::default());
    set_level(Level::Full);
    let full = portfolio.run(&inst, &PortfolioConfig::default());
    set_level(Level::Off);

    let t_off = off.best.as_ref().unwrap();
    for (level, outcome) in [("counters", &counters), ("full", &full)] {
        let t_on = outcome.best.as_ref().unwrap();
        assert_eq!(t_off.total_time, t_on.total_time, "level {level}");
        assert_eq!(t_off.selection, t_on.selection, "level {level}");
        assert_eq!(t_off.region_times, t_on.region_times, "level {level}");
    }
}
