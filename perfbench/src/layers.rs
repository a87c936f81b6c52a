//! Per-layer measurement from outside the program: timed calls into the
//! public functions of each layer, in the order the shipped planners call
//! them.
//!
//! Nothing here adds tracing inside the planners. The 1D pipeline is
//! re-composed from its public stages ([`compose_eblow1d`]) and must
//! reproduce `Eblow1d::plan` exactly ([`check_composition`]), so stage
//! timings always describe the shipped program.

use eblow_core::oned::{
    fast_ilp_convergence, post_insert, post_swap, refine_row_with_stop, successive_rounding,
    CombinatorialOracle, Eblow1dConfig, LpHint, LpOracle, MkpItem, MkpLpSolution, OracleError,
    RowBase,
};
use eblow_core::profit::RegionTimes;
use eblow_core::twod::Eblow2d;
use eblow_core::twod::{cluster_with_stop, prefilter, Eblow2dConfig, PackEngine};
use eblow_core::{Plan1d, Plan2d, StopFlag};
use eblow_model::{Instance, ModelError, Placement1d, Row, Selection};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An [`LpOracle`] that times every solve of the default combinatorial
/// backend. Results are the inner backend's, bit for bit.
#[derive(Debug, Default)]
pub struct TimedOracle {
    inner: CombinatorialOracle,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl TimedOracle {
    /// Total solve time and call count so far.
    pub fn totals(&self) -> (Duration, u64) {
        (
            Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
            self.calls.load(Ordering::Relaxed),
        )
    }

    fn timed<R>(&self, solve: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = solve();
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl LpOracle for TimedOracle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_cells(&self) -> Option<usize> {
        self.inner.max_cells()
    }

    fn solve_lp(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
    ) -> Result<MkpLpSolution, OracleError> {
        self.timed(|| self.inner.solve_lp(items, base, stencil_w))
    }

    fn solve_lp_warm(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
        hint: &mut LpHint,
    ) -> Result<MkpLpSolution, OracleError> {
        self.timed(|| self.inner.solve_lp_warm(items, base, stencil_w, hint))
    }
}

/// The stages of the 1D pipeline, in `Eblow1d::plan_with_stop` order.
pub const ONED_STAGES: [&str; 5] = [
    "rounding",
    "convergence",
    "refine",
    "post_swap",
    "post_insert",
];

/// What one composed 1D run measured.
#[derive(Debug, Clone, Default)]
pub struct Oned {
    /// The composed plan's system writing time.
    pub total_time: u64,
    /// Wall-clock time of the whole composed run.
    pub wall: Duration,
    /// LP solve time and calls (all stages).
    pub lp: Duration,
    /// LP solve calls (all stages).
    pub lp_calls: u64,
    /// Rounding time minus the LP time spent inside it.
    pub rounding_self: Duration,
    /// LP iterations of successive rounding.
    pub rounding_iters: usize,
    /// Algorithm 2 time (LP solves included).
    pub convergence: Duration,
    /// Binary variables of the residual ILP.
    pub ilp_vars: usize,
    /// Characters the residual ILP committed.
    pub committed_by_ilp: usize,
    /// Refinement time, including the drop-repair loop.
    pub refine: Duration,
    /// Members the drop-repair loop evicted.
    pub refine_drops: usize,
    /// Post-swap time.
    pub post_swap: Duration,
    /// Post-insert time.
    pub post_insert: Duration,
    /// The change of T each stage made, in [`ONED_STAGES`] order.
    pub dt: [i64; 5],
}

/// Runs the E-BLOW 1D pipeline stage by stage with `config` (whose oracle
/// must be `oracle`), timing each stage: `successive_rounding` →
/// `fast_ilp_convergence` → `refine_row_with_stop` with its drop-repair
/// loop → `post_swap` → `post_insert`, honouring the config's stage
/// switches exactly as `Eblow1d::plan_with_stop` does with no stop flag.
///
/// Returns the measurements and the composed plan's selection.
///
/// # Errors
///
/// A 2D instance, or a composed placement that fails validation.
pub fn compose_eblow1d(
    instance: &Instance,
    config: &Eblow1dConfig,
    oracle: &TimedOracle,
) -> Result<(Oned, Selection), String> {
    let stop = StopFlag::NEVER;
    let started = Instant::now();
    let (lp0, calls0) = oracle.totals();
    let num_rows = instance.num_rows().map_err(|e| e.to_string())?;
    let row_height = instance
        .stencil()
        .row_height()
        .ok_or_else(|| ModelError::NotRowStructured.to_string())?;
    let w = instance.stencil().width();
    let eligible: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.height() <= row_height && c.width() <= w
        })
        .collect();
    let mut m = Oned::default();
    let mut t_prev = instance.total_writing_time(&Selection::none(instance.num_chars())) as i64;
    let mut mark = |stage: usize, t: u64, m: &mut Oned| {
        m.dt[stage] = t as i64 - t_prev;
        t_prev = t as i64;
    };

    let t0 = Instant::now();
    let mut outcome = successive_rounding(
        instance,
        &eligible,
        num_rows,
        &config.rounding,
        config.oracle.as_ref(),
        stop,
    );
    let (lp_rounding, _) = oracle.totals();
    m.rounding_self = t0.elapsed().saturating_sub(lp_rounding - lp0);
    m.rounding_iters = outcome.trace.unsolved_per_iter.len();
    mark(0, outcome.region_times.total(), &mut m);

    let t0 = Instant::now();
    if config.fast_ilp {
        let lp = outcome.last_lp.take();
        let items: Vec<MkpItem> = if lp.is_some() {
            std::mem::take(&mut outcome.last_items)
        } else {
            outcome
                .unsolved
                .iter()
                .map(|&i| MkpItem::of_char(instance, &outcome.region_times, i))
                .collect()
        };
        if !items.is_empty() {
            let (_leftover, stats) = fast_ilp_convergence(
                instance,
                &mut outcome.rows,
                &mut outcome.region_times,
                &items,
                lp.as_ref(),
                &config.convergence,
                config.oracle.as_ref(),
                stop,
            );
            m.ilp_vars = stats.ilp_vars;
            m.committed_by_ilp = stats.committed_by_ilp;
        }
    }
    m.convergence = t0.elapsed();
    mark(1, outcome.region_times.total(), &mut m);

    let t0 = Instant::now();
    let mut region_times = outcome.region_times;
    let mut rows: Vec<Row> = Vec::with_capacity(num_rows);
    for rs in &outcome.rows {
        let (mut order, mut width) =
            refine_row_with_stop(instance, &rs.members, config.refine_threshold, stop);
        while width > w && !order.is_empty() {
            let (drop_pos, _) = order
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    region_times
                        .profit(instance, a.index())
                        .total_cmp(&region_times.profit(instance, b.index()))
                })
                .expect("non-empty order");
            let dropped = order.remove(drop_pos);
            region_times.deselect(instance, dropped.index());
            m.refine_drops += 1;
            (order, width) = refine_row_with_stop(instance, &order, config.refine_threshold, stop);
        }
        rows.push(Row::from_order(order));
    }
    let mut placement = Placement1d::from_rows(rows);
    let mut selection = placement.selection(instance.num_chars());
    m.refine = t0.elapsed();
    mark(2, region_times.total(), &mut m);

    let t0 = Instant::now();
    if config.post_swap {
        post_swap(
            instance,
            &mut placement,
            &mut selection,
            &mut region_times,
            &config.post,
            stop,
        );
    }
    m.post_swap = t0.elapsed();
    mark(3, region_times.total(), &mut m);

    let t0 = Instant::now();
    if config.post_insertion {
        post_insert(
            instance,
            &mut placement,
            &mut selection,
            &mut region_times,
            &config.post,
            stop,
        );
    }
    m.post_insert = t0.elapsed();
    mark(4, region_times.total(), &mut m);

    let (lp1, calls1) = oracle.totals();
    m.lp = lp1 - lp0;
    m.lp_calls = calls1 - calls0;
    m.wall = started.elapsed();
    placement
        .validate(instance)
        .map_err(|e| format!("composed placement: {e}"))?;
    m.total_time = region_times.total();
    Ok((m, selection))
}

/// A fresh default E-BLOW-1 configuration whose LP backend is a
/// [`TimedOracle`] (the default combinatorial backend, timed).
pub fn timed_eblow1d_config() -> (Eblow1dConfig, Arc<TimedOracle>) {
    let oracle = Arc::new(TimedOracle::default());
    let config = Eblow1dConfig::default().with_oracle(oracle.clone());
    (config, oracle)
}

/// The composition check: the composed run must reproduce the shipped
/// planner's system writing time and selection exactly.
///
/// # Errors
///
/// A description of the first difference.
pub fn check_composition(
    shipped: &Plan1d,
    total_time: u64,
    selection: &Selection,
) -> Result<(), String> {
    if shipped.total_time != total_time {
        return Err(format!(
            "composed T {total_time} != Eblow1d::plan T {}",
            shipped.total_time
        ));
    }
    if selection != &shipped.selection {
        return Err(format!(
            "composed selection ({} chars) != Eblow1d::plan selection ({} chars)",
            selection.count(),
            shipped.selection.count()
        ));
    }
    Ok(())
}

/// What one timed 2D run measured.
#[derive(Debug, Clone)]
pub struct Twod {
    /// The plan of the timed `Eblow2d::plan` call.
    pub plan: Plan2d,
    /// Wall-clock time of `Eblow2d::plan`.
    pub wall: Duration,
    /// `RegionTimes::new` + `profits`.
    pub profits: Duration,
    /// `prefilter`.
    pub prefilter: Duration,
    /// Candidates the pre-filter kept.
    pub kept: usize,
    /// `cluster_with_stop`.
    pub cluster: Duration,
    /// Packing nodes after clustering.
    pub nodes: usize,
    /// Whether the SA stage packs with the sequence-pair engine.
    pub seqpair: bool,
}

/// Times the 2D pre-stages through their public functions, then the whole
/// `Eblow2d::plan`; annealing time is the plan time minus the pre-stages.
pub fn measure_eblow2d(instance: &Instance) -> Result<Twod, ModelError> {
    let config = Eblow2dConfig::default();
    let t0 = Instant::now();
    let profits = RegionTimes::new(instance).profits(instance);
    let profits_s = t0.elapsed();
    let t0 = Instant::now();
    let kept = prefilter(instance, &profits, config.prefilter_factor);
    let prefilter_s = t0.elapsed();
    let t0 = Instant::now();
    let nodes = cluster_with_stop(
        instance,
        &kept,
        &profits,
        config.cluster_bound,
        StopFlag::NEVER,
    );
    let cluster_s = t0.elapsed();
    let seqpair = match config.engine {
        PackEngine::SeqPair => true,
        PackEngine::Skyline => false,
        PackEngine::Auto => nodes.len() <= config.seqpair_threshold,
    };
    let t0 = Instant::now();
    let plan = Eblow2d::new(config).plan(instance)?;
    Ok(Twod {
        plan,
        wall: t0.elapsed(),
        profits: profits_s,
        prefilter: prefilter_s,
        kept: kept.len(),
        cluster: cluster_s,
        nodes: nodes.len(),
        seqpair,
    })
}
