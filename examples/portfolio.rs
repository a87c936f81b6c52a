//! Portfolio planning end-to-end: race the whole planner zoo on generated
//! 1D and 2D instances under a wall-clock deadline, then race the two LP
//! backends of the 1D pipeline against each other.
//!
//! ```sh
//! cargo run --release --example portfolio
//! ```

use eblow::engine::{Portfolio, PortfolioConfig};
use eblow::gen::GenConfig;
use std::time::Duration;

fn main() {
    let deadline = Duration::from_secs(10);
    let config = PortfolioConfig {
        deadline: Some(deadline),
    };

    // ---- a 1D (row-structured) and a 2D (free-form) instance ------------
    let inst_1d = eblow::gen::generate(&GenConfig::tiny_1d(2024));
    let inst_2d = eblow::gen::generate(&GenConfig::tiny_2d(2024));

    let portfolio = Portfolio::all_builtin();
    println!(
        "racing {} registered strategies, deadline {:.0}s per instance",
        portfolio.strategies().len(),
        deadline.as_secs_f64()
    );

    for (label, inst) in [("1D", &inst_1d), ("2D", &inst_2d)] {
        println!();
        println!(
            "== {label} instance: {} candidates, {} regions, stencil {}x{} ==",
            inst.num_chars(),
            inst.num_regions(),
            inst.stencil().width(),
            inst.stencil().height()
        );
        let outcome = portfolio.run(inst, &config);
        let best = outcome.best.as_ref().expect("a valid plan");
        best.validate(inst)
            .expect("portfolio plans always validate");
        println!(
            "winner: {} with T_total = {} ({} characters on stencil, race took {:.3}s)",
            best.strategy,
            best.total_time,
            best.selection.count(),
            outcome.elapsed.as_secs_f64()
        );
        println!("per-strategy report:");
        for report in &outcome.reports {
            println!("  {report}");
        }
    }

    // ---- racing LP oracle backends of the same pipeline -----------------
    // The 1D pipeline's LP relaxation is a pluggable backend
    // (`eblow::planner::oned::LpOracle`); each backend registers as its own
    // strategy, so the portfolio cross-checks them in one race.
    println!();
    println!("== LP backend race: eblow1d@combinatorial vs eblow1d@simplex ==");
    let backends =
        Portfolio::of_names(["eblow1d@combinatorial", "eblow1d@simplex"]).expect("registry names");
    let outcome = backends.run(&inst_1d, &config);
    for report in &outcome.reports {
        println!("  {report}");
    }
    println!(
        "winner: {} (both backends must produce valid plans; their LP \
         objectives agree within tolerance — see `eblow-eval agree`)",
        outcome.winner().expect("a winner")
    );
}
