//! Sharded planning: the composite `shard1d` / `shard2d` strategies.
//!
//! E-BLOW's MCC formulation decomposes naturally — each CP region carries
//! its own repeat column and candidate affinity, and the stencil splits
//! into disjoint row bands. The shard strategies exploit this: a huge
//! instance (tens of thousands of candidates) is split into per-region /
//! per-row-band [`SubInstance`]s, each shard races the *existing*
//! portfolio machinery in parallel under the full remaining deadline
//! window, and the sub-plans stitch back into one placement on the
//! original instance (`eblow_model::shard`), followed by a reconciliation
//! pass:
//!
//! 1. characters selected by more than one shard keep a single stencil
//!    slot (one slot serves every region), and
//! 2. the freed row space is refilled greedily with the most profitable
//!    unplaced candidates (1D).
//!
//! The composites register like any other strategy (`shard1d`, `shard2d`),
//! each over a fixed inner portfolio. `supports()` is re-evaluated per
//! sub-instance, so an inner member may refuse the monolithic instance yet
//! race on every shard.

use crate::budget::Budget;
use crate::outcome::{EngineError, PlanDetail, PlanOutcome};
use crate::portfolio::Portfolio;
use crate::strategy::Strategy;
use eblow_core::{Plan1d, Plan2d};
use eblow_model::shard::{stitch_1d, stitch_2d, SubInstance};
use eblow_model::{CharId, Instance, Placement1d, Placement2d, Selection};
use eblow_trace as trace;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Characters recovered by the post-stitch top-up (counter
/// `shard.top_up_added`).
static TOPUP_ADDED: trace::Counter = trace::Counter::new("shard.top_up_added");
/// Duplicate placements reconciled away during stitching (counter
/// `shard.duplicates_dropped`).
static DUPLICATES_DROPPED: trace::Counter = trace::Counter::new("shard.duplicates_dropped");
/// Monolithic refinement passes that beat the stitched plan (counter
/// `shard.mono_refine_won`).
static MONO_REFINE_WON: trace::Counter = trace::Counter::new("shard.mono_refine_won");

/// Minimum leftover deadline window worth spending on the monolithic
/// refinement lane; below this the quality member cannot do better than
/// its cheapest valid completion and the stitched plan stands as-is.
const MONO_REFINE_MIN_WINDOW: Duration = Duration::from_millis(100);

/// Tunables of the shard composite strategies.
///
/// The split is a deterministic function of the instance and this
/// configuration, so deadline-free shard plans are reproducible run over
/// run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// `supports()` gate: instances with fewer candidates are left to the
    /// monolithic strategies (sharding overhead dominates below this).
    pub min_chars: usize,
    /// Preferred candidate count per shard; the shard count is
    /// `ceil(n / target_shard_chars)` clamped to `2..=max_shards` (and to
    /// the available rows / region count).
    pub target_shard_chars: usize,
    /// Hard cap on the number of shards (each shard races the inner
    /// portfolio on its own OS threads). Sharding needs at least two
    /// shards to mean anything, so values below 2 disable the strategy
    /// (`supports()` refuses every instance).
    pub max_shards: usize,
    /// A candidate becomes a shard's candidate whenever that shard's region
    /// group holds at least this fraction of the candidate's total
    /// writing-time reduction (its best group always qualifies). Values
    /// below 1.0 duplicate border candidates into several shards; the
    /// stitch reconciliation keeps one slot per character.
    pub duplicate_share: f64,
    /// Wall-clock reserved out of the budget for stitching + reconciliation
    /// (the shard races see the deadline minus this reserve).
    pub stitch_reserve: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            min_chars: 5000,
            target_shard_chars: 2000,
            max_shards: 8,
            duplicate_share: 0.25,
            stitch_reserve: Duration::from_millis(150),
        }
    }
}

/// Sorts candidate indices by descending profit density
/// (`total_reduction / size`, where `size` is the width for 1D and the
/// area for 2D), index-ascending on ties. The one density definition the
/// splits and the stitch top-up all share — a change to the density rule
/// or the determinism tie-break lands everywhere at once.
fn sort_by_density_desc(order: &mut [usize], instance: &Instance, size: impl Fn(usize) -> u64) {
    order.sort_by(|&a, &b| {
        let da = instance.total_reduction(a) as f64 / size(a).max(1) as f64;
        let db = instance.total_reduction(b) as f64 / size(b).max(1) as f64;
        db.total_cmp(&da).then(a.cmp(&b))
    });
}

/// One shard of a 1D split: a candidate subset and a stencil row band.
#[derive(Debug, Clone)]
struct ShardSpec1d {
    chars: Vec<usize>,
    start_row: usize,
    rows: usize,
}

/// Splits a 1D instance into balanced shards.
///
/// Multi-region instances group regions by workload (LPT over `T_VSB_c`)
/// and assign every candidate to each group holding a meaningful share of
/// its total reduction (its best group always, plus any group above
/// `duplicate_share`). Single-region instances deal candidates round-robin
/// in profit-density order. Stencil rows are then allocated to shards in
/// proportion to their summed candidate width (d'Hondt largest-quotient,
/// ≥ 1 row each).
/// The cheap `supports()` gate for 1D sharding. Whenever this holds,
/// [`split_1d`] is guaranteed to produce a split, so the expensive split
/// computation runs once, inside `plan()`, not on every registry filter.
fn gates_1d(instance: &Instance, config: &ShardConfig) -> bool {
    config.max_shards >= 2
        && instance.num_chars() >= config.min_chars.max(2)
        && instance.num_rows().is_ok_and(|r| r >= 2)
}

// audit:allow(stop-flag-reachability): one pass over candidates and rows, runs once at plan start before the planning loops
fn split_1d(instance: &Instance, config: &ShardConfig) -> Option<Vec<ShardSpec1d>> {
    if !gates_1d(instance, config) {
        return None;
    }
    let total_rows = instance.num_rows().ok()?;
    let n = instance.num_chars();
    let k = n
        .div_ceil(config.target_shard_chars.max(1))
        .clamp(2, config.max_shards.min(total_rows));
    let regions = instance.num_regions();

    let mut shard_chars: Vec<Vec<usize>> = if regions >= 2 {
        let k = k.min(regions);
        // Group regions by workload: longest-processing-time over T_VSB_c.
        let mut order: Vec<usize> = (0..regions).collect();
        order.sort_by_key(|&c| std::cmp::Reverse((instance.vsb_time(c), c)));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut load = vec![0u64; k];
        for c in order {
            let g = (0..k).min_by_key(|&g| (load[g], g)).expect("k >= 2");
            groups[g].push(c);
            load[g] += instance.vsb_time(c);
        }
        let mut shard_chars: Vec<Vec<usize>> = vec![Vec::new(); k];
        // Region → group map once, then one pass over each candidate's
        // sparse row: the per-candidate group sums cost O(nnz_i) instead of
        // a dense O(P) multiply sweep per group.
        let mut group_of = vec![0usize; regions];
        for (g, grp) in groups.iter().enumerate() {
            for &c in grp {
                group_of[c] = g;
            }
        }
        let mut by_group = vec![0u64; k];
        for i in 0..n {
            by_group.iter_mut().for_each(|v| *v = 0);
            for e in instance.sparse_row(i) {
                by_group[group_of[e.region as usize]] += e.reduction;
            }
            let total: u64 = by_group.iter().sum();
            if total == 0 {
                shard_chars[i % k].push(i);
                continue;
            }
            let primary = (0..k)
                .max_by_key(|&g| (by_group[g], std::cmp::Reverse(g)))
                .expect("k >= 2");
            for (g, &red) in by_group.iter().enumerate() {
                if g == primary || red as f64 >= config.duplicate_share * total as f64 {
                    shard_chars[g].push(i);
                }
            }
        }
        shard_chars
    } else {
        // Single region: deal candidates round-robin in density order so
        // every shard gets a similar profit mix.
        let mut order: Vec<usize> = (0..n).collect();
        sort_by_density_desc(&mut order, instance, |i| instance.char(i).width());
        let mut shard_chars: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (pos, i) in order.into_iter().enumerate() {
            shard_chars[pos % k].push(i);
        }
        shard_chars
    };
    shard_chars.retain(|cs| !cs.is_empty());
    let k = shard_chars.len();
    if k == 0 || total_rows < k {
        return None;
    }

    // Row bands proportional to each shard's width demand, ≥ 1 row each
    // (d'Hondt: repeatedly grant a row to the shard with the largest
    // demand-per-row quotient).
    let demand: Vec<u64> = shard_chars
        .iter()
        .map(|cs| {
            cs.iter()
                .map(|&i| instance.char(i).width())
                .sum::<u64>()
                .max(1)
        })
        .collect();
    let mut rows = vec![1usize; k];
    for _ in 0..total_rows - k {
        let g = (0..k)
            .max_by(|&a, &b| {
                let qa = demand[a] as f64 / rows[a] as f64;
                let qb = demand[b] as f64 / rows[b] as f64;
                qa.total_cmp(&qb).then(b.cmp(&a))
            })
            .expect("k >= 1");
        rows[g] += 1;
    }
    let mut specs = Vec::with_capacity(k);
    let mut start_row = 0usize;
    for (chars, band) in shard_chars.into_iter().zip(rows) {
        specs.push(ShardSpec1d {
            chars,
            start_row,
            rows: band,
        });
        start_row += band;
    }
    Some(specs)
}

/// One shard of a 2D split: a candidate subset and a horizontal slice.
#[derive(Debug, Clone)]
struct ShardSpec2d {
    chars: Vec<usize>,
    y_offset: u64,
    height: u64,
}

/// Splits a 2D instance into horizontal bands tall enough for every
/// candidate, dealing candidates round-robin in profit-density order.
/// The cheap `supports()` gate for 2D sharding (one `O(n)` height scan);
/// whenever this holds, [`split_2d`] is guaranteed to produce a split.
fn gates_2d(instance: &Instance, config: &ShardConfig) -> bool {
    config.max_shards >= 2
        && instance.stencil().row_height().is_none()
        && instance.num_chars() >= config.min_chars.max(2)
        && band_cap_2d(instance).is_some_and(|cap| cap >= 2)
}

/// How many bands at least as tall as the tallest candidate fit the
/// stencil (`None` for an instance with no candidates).
fn band_cap_2d(instance: &Instance) -> Option<usize> {
    let max_char_h = instance.chars().iter().map(|c| c.height()).max()?;
    Some((instance.stencil().height() / max_char_h.max(1)) as usize)
}

fn split_2d(instance: &Instance, config: &ShardConfig) -> Option<Vec<ShardSpec2d>> {
    if !gates_2d(instance, config) {
        return None;
    }
    let n = instance.num_chars();
    let height = instance.stencil().height();
    let band_cap = band_cap_2d(instance)?;
    let k = n
        .div_ceil(config.target_shard_chars.max(1))
        .clamp(2, config.max_shards.min(band_cap));
    let mut order: Vec<usize> = (0..n).collect();
    sort_by_density_desc(&mut order, instance, |i| instance.char(i).area());
    let mut shard_chars: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (pos, i) in order.into_iter().enumerate() {
        shard_chars[pos % k].push(i);
    }
    let base = height / k as u64;
    let mut specs = Vec::with_capacity(k);
    for (g, chars) in shard_chars.into_iter().enumerate() {
        let y_offset = g as u64 * base;
        let band = if g == k - 1 { height - y_offset } else { base };
        specs.push(ShardSpec2d {
            chars,
            y_offset,
            height: band,
        });
    }
    Some(specs)
}

/// The quality member whose converged plan a stitched result has to
/// beat: the first inner strategy that supports the full (unsharded)
/// instance. Every composite lists its quality pipeline first.
fn quality_member<'p>(inner: &'p Portfolio, instance: &Instance) -> Option<&'p Arc<dyn Strategy>> {
    inner.strategies().iter().find(|s| s.supports(instance))
}

/// Whether a `plan()` call that has already stitched should spend the
/// rest of its deadline window on a monolithic pass over the full
/// instance. Unlimited budgets say no — the lane would double the work
/// and change the deterministic deadline-free shard plans for nothing —
/// as do windows too short for the quality member to improve anything.
fn mono_refine_window_open(budget: &Budget) -> bool {
    budget
        .remaining()
        .is_some_and(|r| r > MONO_REFINE_MIN_WINDOW)
        && !budget.is_cancelled()
}

/// Races the inner portfolio on every shard in parallel.
///
/// Each shard gets its own [`Budget`] over the *full* remaining window
/// minus the stitch reserve: shards race concurrently from t = 0, so
/// slicing the window per shard would cancel small shards early while
/// cores sit idle — and since a fired shard deadline marks the stitched
/// plan degraded (the race then fails
/// [`PortfolioOutcome::complete`](crate::PortfolioOutcome::complete)),
/// every shard deserves the whole window and
/// degradation only means a shard genuinely ran out of time. The outer
/// budget's stop flag is propagated to every shard budget by a 10 ms
/// watchdog, so an engine-level cancellation tears the whole fan-out down
/// cooperatively. Returns each shard's best outcome plus whether *any*
/// shard budget was cancelled (its deadline fired or the outer stop
/// propagated) — the composite's plan is then possibly degraded even when
/// the caller's own budget never fired, and the caller must say so.
fn race_shards(
    inner: &Portfolio,
    subs: &[SubInstance],
    budget: &Budget,
    reserve: Duration,
) -> (Vec<Option<PlanOutcome>>, bool) {
    let window = budget.remaining().map(|r| r.saturating_sub(reserve));
    let budgets: Vec<Budget> = subs
        .iter()
        .map(|_| match window {
            Some(w) => Budget::with_deadline(w),
            None => Budget::unlimited(),
        })
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, Option<PlanOutcome>)>();
    std::thread::scope(|scope| {
        for (idx, (sub, shard_budget)) in subs.iter().zip(&budgets).enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                // One swim-lane per shard; the inner race's own spans nest
                // under this one.
                trace::set_thread_label("shard");
                let _span = trace::span_with("shard.race", || {
                    format!("shard={idx} chars={}", sub.instance().num_chars())
                });
                let outcome = inner.run_with_budget(sub.instance(), shard_budget);
                // A closed channel means the collector gave up; nothing
                // useful to do from a shard thread.
                let _ = tx.send((idx, outcome.best));
            });
        }
        drop(tx);
        let mut outs: Vec<Option<PlanOutcome>> = (0..subs.len()).map(|_| None).collect();
        let mut pending = subs.len();
        while pending > 0 {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok((i, best)) => {
                    outs[i] = best;
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if budget.is_cancelled() {
                        for b in &budgets {
                            b.cancel();
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let any_cancelled = budgets.iter().any(Budget::is_cancelled);
        (outs, any_cancelled)
    })
}

/// Greedy refill of row space freed by duplicate reconciliation: unplaced
/// candidates, most profitable per micrometer first, go into the first row
/// with enough spare width. Returns the number of characters added.
fn top_up_1d(
    instance: &Instance,
    placement: &mut Placement1d,
    selection: &mut Selection,
    budget: &Budget,
) -> usize {
    let stencil_w = instance.stencil().width();
    let Some(row_height) = instance.stencil().row_height() else {
        return 0;
    };
    let mut spare: Vec<u64> = placement
        .rows()
        .iter()
        .map(|r| stencil_w.saturating_sub(r.min_width(instance)))
        .collect();
    let mut order: Vec<usize> = selection
        .iter_unselected()
        .filter(|&i| instance.total_reduction(i) > 0 && instance.char(i).height() <= row_height)
        .collect();
    sort_by_density_desc(&mut order, instance, |i| instance.char(i).width());
    let mut added = 0usize;
    for i in order {
        if budget.is_cancelled() {
            break;
        }
        for r in 0..placement.num_rows() {
            let row = &placement.rows()[r];
            let delta = row.insertion_delta(instance, row.len(), CharId::from(i));
            if delta <= spare[r] {
                placement.row_mut(r).push_right(CharId::from(i));
                spare[r] -= delta;
                selection.insert(i);
                added += 1;
                break;
            }
        }
    }
    added
}

fn extract_all_1d(
    instance: &Instance,
    specs: &[ShardSpec1d],
) -> Result<Vec<SubInstance>, EngineError> {
    specs
        .iter()
        .map(|s| {
            SubInstance::extract_rows(instance, &s.chars, s.start_row, s.rows)
                .map_err(EngineError::Model)
        })
        .collect()
}

/// The sharded 1D composite strategy.
///
/// Splits a huge row-structured instance into per-region / per-row-band
/// shards, races the inner portfolio on each shard in parallel, and
/// stitches the sub-plans into one validated [`Plan1d`] with duplicate
/// reconciliation and a greedy top-up of freed space.
pub struct Shard1dStrategy {
    inner: Portfolio,
    config: ShardConfig,
}

impl Default for Shard1dStrategy {
    fn default() -> Self {
        Shard1dStrategy::new()
    }
}

impl Shard1dStrategy {
    /// The default composite: each shard races the fast 1D trio
    /// (`eblow1d@combinatorial`, `rowheur1d`, `greedy1d`).
    ///
    /// Inner strategies are constructed directly (not via the registry) so
    /// the registry can in turn contain `shard1d` without recursion.
    pub fn new() -> Self {
        Shard1dStrategy::over(Portfolio::new(vec![
            Arc::new(crate::strategy::Eblow1dStrategy::default()),
            Arc::new(crate::strategy::RowHeuristic1dStrategy),
            Arc::new(crate::strategy::Greedy1dStrategy),
        ]))
    }

    /// A composite whose shards race `inner` instead of the default trio.
    /// The quality member of the monolithic refinement lane is the first
    /// `inner` member that supports the full instance.
    pub(crate) fn over(inner: Portfolio) -> Self {
        Shard1dStrategy {
            inner,
            config: ShardConfig::default(),
        }
    }

    /// Overrides the shard configuration.
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }
}

impl Strategy for Shard1dStrategy {
    fn name(&self) -> &'static str {
        "shard1d"
    }

    fn supports(&self, instance: &Instance) -> bool {
        gates_1d(instance, &self.config)
    }

    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let started = Instant::now();
        let specs = split_1d(instance, &self.config).ok_or_else(|| EngineError::Unsupported {
            strategy: self.name(),
            reason: format!(
                "instance not shardable (needs a row-structured stencil with ≥ 2 rows and ≥ {} candidates)",
                self.config.min_chars
            ),
        })?;
        let subs = extract_all_1d(instance, &specs)?;
        let _span = trace::span(self.name());
        trace::instant_with(
            "shard.split",
            subs.len() as i64,
            self.config.target_shard_chars as i64,
            || {
                let sizes: Vec<String> = subs
                    .iter()
                    .map(|s| s.instance().num_chars().to_string())
                    .collect();
                format!("sizes=[{}]", sizes.join(","))
            },
        );
        let (results, degraded) =
            race_shards(&self.inner, &subs, budget, self.config.stitch_reserve);
        let parts: Vec<(&SubInstance, &Placement1d)> = subs
            .iter()
            .zip(&results)
            .filter_map(|(sub, outcome)| match outcome {
                Some(PlanOutcome {
                    detail: PlanDetail::OneD(plan),
                    ..
                }) => Some((sub, &plan.placement)),
                _ => None,
            })
            .collect();
        // No shard produced anything (every inner race unsupported or
        // torn down before finishing): report failure instead of passing
        // off an empty stitch (or a pure top-up fill) as a sharded plan —
        // a do-nothing "success" would count as a completed member, and
        // `PortfolioOutcome::complete()` would vouch for it.
        if parts.is_empty() {
            return Err(EngineError::NoPlan {
                strategy: self.name(),
                reason: format!("no shard produced a plan ({} shards raced)", subs.len()),
            });
        }
        let stitched = stitch_1d(instance, &parts).map_err(|e| EngineError::NoPlan {
            strategy: self.name(),
            reason: format!("stitching failed: {e}"),
        })?;
        DUPLICATES_DROPPED.add(stitched.duplicates_dropped as u64);
        trace::instant(
            "shard.stitch",
            parts.len() as i64,
            stitched.duplicates_dropped as i64,
        );
        let mut placement = stitched.placement;
        let mut selection = stitched.selection;
        let added = top_up_1d(instance, &mut placement, &mut selection, budget);
        TOPUP_ADDED.add(added as u64);
        trace::instant("shard.top_up", added as i64, 0);
        let region_times = instance.writing_times(&selection);
        let total_time = region_times.iter().copied().max().unwrap_or(0);
        let mut plan = Plan1d {
            placement,
            selection,
            region_times,
            total_time,
            elapsed: started.elapsed(),
            trace: None,
        };
        // The core has grown fast enough that an instance past the shard
        // gate can still converge monolithically inside a deadline window
        // the fan-out no longer needs. Spend whatever is left of the
        // budget on the quality member over the unsharded instance and
        // keep the better plan: the composite is then no worse than its
        // own inner on any deadline, instead of paying the stitch quality
        // loss exactly when sharding stopped being necessary.
        if mono_refine_window_open(budget) {
            if let Some(member) = quality_member(&self.inner, instance) {
                if let Ok(PlanOutcome {
                    detail: PlanDetail::OneD(mono),
                    ..
                }) = member.plan(instance, budget)
                {
                    trace::instant(
                        "shard.mono_refine",
                        mono.total_time as i64,
                        plan.total_time as i64,
                    );
                    if mono.total_time < plan.total_time {
                        MONO_REFINE_WON.add(1);
                        plan = Plan1d {
                            elapsed: started.elapsed(),
                            ..mono
                        };
                    }
                }
            }
        }
        Ok(PlanOutcome::from_1d(self.name(), plan).with_degraded(degraded))
    }
}

/// The sharded 2D composite strategy: horizontal stencil slices, candidate
/// round-robin by profit density, parallel inner races, stitch + validate.
pub struct Shard2dStrategy {
    inner: Portfolio,
    config: ShardConfig,
}

impl Default for Shard2dStrategy {
    fn default() -> Self {
        Shard2dStrategy::new()
    }
}

impl Shard2dStrategy {
    /// The default composite: each shard races `eblow2d` and `greedy2d`.
    pub fn new() -> Self {
        Shard2dStrategy {
            inner: Portfolio::new(vec![
                Arc::new(crate::strategy::Eblow2dStrategy::default()),
                Arc::new(crate::strategy::Greedy2dStrategy),
            ]),
            config: ShardConfig::default(),
        }
    }

    /// Overrides the shard configuration.
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }
}

impl Strategy for Shard2dStrategy {
    fn name(&self) -> &'static str {
        "shard2d"
    }

    fn supports(&self, instance: &Instance) -> bool {
        gates_2d(instance, &self.config)
    }

    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let started = Instant::now();
        let specs = split_2d(instance, &self.config).ok_or_else(|| EngineError::Unsupported {
            strategy: self.name(),
            reason: format!(
                "instance not shardable (needs a free-form stencil ≥ 2 bands tall and ≥ {} candidates)",
                self.config.min_chars
            ),
        })?;
        let subs: Vec<SubInstance> = specs
            .iter()
            .map(|s| {
                SubInstance::extract_band(instance, &s.chars, s.y_offset, s.height)
                    .map_err(EngineError::Model)
            })
            .collect::<Result<_, _>>()?;
        let _span = trace::span(self.name());
        trace::instant_with(
            "shard.split",
            subs.len() as i64,
            self.config.target_shard_chars as i64,
            || {
                let sizes: Vec<String> = subs
                    .iter()
                    .map(|s| s.instance().num_chars().to_string())
                    .collect();
                format!("sizes=[{}]", sizes.join(","))
            },
        );
        let (results, degraded) =
            race_shards(&self.inner, &subs, budget, self.config.stitch_reserve);
        let parts: Vec<(&SubInstance, &Placement2d)> = subs
            .iter()
            .zip(&results)
            .filter_map(|(sub, outcome)| match outcome {
                Some(PlanOutcome {
                    detail: PlanDetail::TwoD(plan),
                    ..
                }) => Some((sub, &plan.placement)),
                _ => None,
            })
            .collect();
        // Same rule as the 1D composite: an all-empty fan-out is a
        // failure, not an empty "plan" that `PortfolioOutcome::complete()`
        // would vouch for.
        if parts.is_empty() {
            return Err(EngineError::NoPlan {
                strategy: self.name(),
                reason: format!("no shard produced a plan ({} shards raced)", subs.len()),
            });
        }
        let stitched = stitch_2d(instance, &parts).map_err(|e| EngineError::NoPlan {
            strategy: self.name(),
            reason: format!("stitching failed: {e}"),
        })?;
        DUPLICATES_DROPPED.add(stitched.duplicates_dropped as u64);
        trace::instant(
            "shard.stitch",
            parts.len() as i64,
            stitched.duplicates_dropped as i64,
        );
        let region_times = instance.writing_times(&stitched.selection);
        let total_time = region_times.iter().copied().max().unwrap_or(0);
        let mut plan = Plan2d {
            placement: stitched.placement,
            selection: stitched.selection,
            region_times,
            total_time,
            elapsed: started.elapsed(),
        };
        // Same leftover-window monolithic refinement lane as the 1D
        // composite (see `Shard1dStrategy::plan`).
        if mono_refine_window_open(budget) {
            if let Some(member) = quality_member(&self.inner, instance) {
                if let Ok(PlanOutcome {
                    detail: PlanDetail::TwoD(mono),
                    ..
                }) = member.plan(instance, budget)
                {
                    trace::instant(
                        "shard.mono_refine",
                        mono.total_time as i64,
                        plan.total_time as i64,
                    );
                    if mono.total_time < plan.total_time {
                        MONO_REFINE_WON.add(1);
                        plan = Plan2d {
                            elapsed: started.elapsed(),
                            ..mono
                        };
                    }
                }
            }
        }
        Ok(PlanOutcome::from_2d(self.name(), plan).with_degraded(degraded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    /// A 1D composite whose shards each race the single strategy `inner`.
    fn shard1d_over(inner: impl Strategy + 'static) -> Shard1dStrategy {
        Shard1dStrategy::over(Portfolio::new(vec![Arc::new(inner)]))
    }

    fn test_config() -> ShardConfig {
        ShardConfig {
            min_chars: 32,
            target_shard_chars: 24,
            max_shards: 4,
            ..ShardConfig::default()
        }
    }

    fn small_1d() -> Instance {
        eblow_gen::generate(&GenConfig {
            n_chars: 96,
            n_regions: 4,
            stencil_w: 300,
            stencil_h: 200,
            row_height: Some(40),
            ..GenConfig::tiny_1d(5)
        })
    }

    #[test]
    fn split_1d_partitions_rows_and_covers_primaries() {
        let inst = small_1d();
        let config = test_config();
        let specs = split_1d(&inst, &config).expect("shardable");
        assert!(specs.len() >= 2);
        let total_rows: usize = specs.iter().map(|s| s.rows).sum();
        assert_eq!(total_rows, inst.num_rows().unwrap());
        let mut next = 0usize;
        for s in &specs {
            assert_eq!(s.start_row, next, "bands must be contiguous");
            assert!(s.rows >= 1);
            next += s.rows;
        }
        // Every candidate appears in at least one shard.
        let mut covered = vec![false; inst.num_chars()];
        for s in &specs {
            for &i in &s.chars {
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "no candidate may be lost");
    }

    #[test]
    fn split_is_deterministic() {
        let inst = small_1d();
        let config = test_config();
        let a = split_1d(&inst, &config).unwrap();
        let b = split_1d(&inst, &config).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.chars, y.chars);
            assert_eq!((x.start_row, x.rows), (y.start_row, y.rows));
        }
    }

    #[test]
    fn shard1d_plans_validate_and_beat_the_empty_plan() {
        let inst = small_1d();
        let strategy = Shard1dStrategy::new().with_config(test_config());
        assert!(strategy.supports(&inst));
        let outcome = strategy.plan(&inst, &Budget::unlimited()).unwrap();
        outcome.validate(&inst).unwrap();
        let empty = inst.total_writing_time(&Selection::none(inst.num_chars()));
        assert!(
            outcome.total_time < empty,
            "sharded plan must improve on the empty stencil"
        );
        assert!(outcome.selection.count() > 0);
    }

    #[test]
    fn shard1d_is_deterministic_without_deadline() {
        let inst = small_1d();
        let strategy = shard1d_over(crate::strategy::Greedy1dStrategy).with_config(test_config());
        let a = strategy.plan(&inst, &Budget::unlimited()).unwrap();
        let b = strategy.plan(&inst, &Budget::unlimited()).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.selection, b.selection);
    }

    /// Regression for the monolithic refinement lane: under a deadline
    /// with a leftover window, the composite must end up no worse than
    /// its quality member run monolithically — the lane races that
    /// member on the unsharded instance and keeps the better plan. (The
    /// window here is generous enough that the member converges, so the
    /// comparison against its unlimited-budget plan is deterministic.)
    #[test]
    fn leftover_deadline_window_refines_monolithically() {
        let inst = small_1d();
        let strategy = Shard1dStrategy::new().with_config(test_config());
        let sharded = strategy
            .plan(&inst, &Budget::with_deadline(Duration::from_secs(30)))
            .expect("sharded plan");
        sharded.validate(&inst).expect("valid refined plan");
        let solo = crate::strategy::Eblow1dStrategy::default()
            .plan(&inst, &Budget::unlimited())
            .expect("monolithic plan");
        assert!(
            sharded.total_time <= solo.total_time,
            "stitched+refined T {} worse than the quality member's monolithic T {}",
            sharded.total_time,
            solo.total_time
        );
    }

    #[test]
    fn shard1d_respects_the_supports_gate() {
        let tiny = eblow_gen::generate(&GenConfig::tiny_1d(1));
        assert!(!Shard1dStrategy::new().supports(&tiny), "60 chars < gate");
        let twod = eblow_gen::generate(&GenConfig::tiny_2d(1));
        assert!(!Shard1dStrategy::new().supports(&twod));
        assert!(!Shard2dStrategy::new().supports(&twod), "60 chars < gate");
    }

    #[test]
    fn shard2d_plans_validate() {
        let inst = eblow_gen::generate(&GenConfig {
            n_chars: 80,
            n_regions: 3,
            stencil_w: 300,
            stencil_h: 300,
            ..GenConfig::tiny_2d(6)
        });
        let strategy = Shard2dStrategy::new().with_config(test_config());
        assert!(strategy.supports(&inst));
        let outcome = strategy.plan(&inst, &Budget::unlimited()).unwrap();
        outcome.validate(&inst).unwrap();
        assert!(outcome.selection.count() > 0);
    }

    /// Regression: when every shard race comes back empty (here: the
    /// simplex inner backend refuses every shard via its cell cutoff),
    /// the composite must fail loudly instead of returning an empty
    /// "plan" that `PortfolioOutcome::complete()` would vouch for.
    #[test]
    fn all_empty_shards_are_an_error_not_an_empty_plan() {
        // 600 chars over 26 rows: each of the 2 shards holds ~300 chars
        // on ~13 rows ≈ 3900 cells, over the simplex 2500-cell cutoff.
        let inst = eblow_gen::generate(&GenConfig {
            n_chars: 600,
            n_regions: 4,
            stencil_w: 400,
            stencil_h: 1040,
            row_height: Some(40),
            ..GenConfig::tiny_1d(8)
        });
        let strategy =
            shard1d_over(crate::strategy::Eblow1dStrategy::simplex()).with_config(ShardConfig {
                min_chars: 64,
                target_shard_chars: 300,
                max_shards: 2,
                ..ShardConfig::default()
            });
        assert!(strategy.supports(&inst));
        let err = strategy.plan(&inst, &Budget::unlimited()).unwrap_err();
        assert!(
            matches!(err, EngineError::NoPlan { .. }),
            "expected NoPlan, got {err}"
        );
    }

    /// The sharded composite must beat (or match) its own weakest inner
    /// strategy run monolithically — the split + per-shard race + top-up may
    /// not destroy quality relative to a single greedy pass.
    #[test]
    fn shard1d_matches_or_beats_monolithic_greedy() {
        let config = ShardConfig {
            min_chars: 64,
            target_shard_chars: 32,
            max_shards: 4,
            ..ShardConfig::default()
        };
        for seed in [11u64, 12, 13] {
            let inst = eblow_gen::generate(&GenConfig {
                n_chars: 120,
                n_regions: 4,
                stencil_w: 400,
                stencil_h: 240,
                row_height: Some(40),
                ..GenConfig::tiny_1d(seed)
            });
            let sharded = shard1d_over(crate::strategy::Greedy1dStrategy)
                .with_config(config.clone())
                .plan(&inst, &Budget::unlimited())
                .unwrap();
            sharded.validate(&inst).unwrap();
            let mono = eblow_core::baselines::greedy_1d(&inst).unwrap();
            // Not a strict dominance theorem — but on these balanced
            // instances the shard split plus top-up reconciliation should
            // never lose more than a few percent to the monolithic greedy.
            assert!(
                (sharded.total_time as f64) <= mono.total_time as f64 * 1.05,
                "seed {seed}: sharded {} ≫ monolithic {}",
                sharded.total_time,
                mono.total_time
            );
        }
    }

    #[test]
    fn cancelled_budget_still_returns_a_valid_plan() {
        let inst = small_1d();
        let strategy = Shard1dStrategy::new().with_config(test_config());
        let budget = Budget::with_deadline(Duration::from_millis(40));
        let outcome = strategy.plan(&inst, &budget).unwrap();
        outcome.validate(&inst).unwrap();
    }
}
