//! The batch front-end: the unified [`Planner`] API.

use crate::cache::{CacheStats, LruCache, PlanCacheKey};
use crate::outcome::PlanOutcome;
use crate::portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome};
use eblow_model::Instance;
use eblow_trace as trace;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Plan-cache hits (counter `planner.cache.hit`).
static CACHE_HITS: trace::Counter = trace::Counter::new("planner.cache.hit");
/// Plan-cache misses (counter `planner.cache.miss`).
static CACHE_MISSES: trace::Counter = trace::Counter::new("planner.cache.miss");
/// Races whose result was *not* cached because the race was degraded by a
/// deadline (counter `planner.cache.degraded_skip`).
static CACHE_DEGRADED_SKIPS: trace::Counter = trace::Counter::new("planner.cache.degraded_skip");

/// Result of planning one instance of a batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Index of the instance in the submitted batch.
    pub index: usize,
    /// The best valid plan found (or cached), if any strategy produced one.
    pub outcome: Option<PlanOutcome>,
    /// Whether this result was served from the plan cache.
    pub from_cache: bool,
}

/// The unified planning front door.
///
/// A `Planner` bundles a strategy [`Portfolio`], a [`PortfolioConfig`]
/// (deadline + ILP cap), and a digest-keyed LRU plan cache. It serves
/// single instances ([`Planner::plan`]) and queues
/// ([`Planner::plan_batch`], sharded over a worker pool).
///
/// The cache key is the instance's content digest *plus* a fingerprint of
/// the strategy set, so planners configured with different portfolios never
/// serve each other's plans.
pub struct Planner {
    portfolio: Portfolio,
    config: PortfolioConfig,
    cache: Mutex<LruCache<PlanCacheKey, PlanOutcome>>,
    workers: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Planner {
    /// A planner racing every built-in strategy, with an unbounded deadline
    /// and a 1024-entry plan cache.
    pub fn portfolio() -> Self {
        Planner::with_portfolio(Portfolio::all_builtin())
    }

    /// A planner over an explicit portfolio.
    pub fn with_portfolio(portfolio: Portfolio) -> Self {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(4)
            .clamp(1, 16);
        Planner {
            portfolio,
            config: PortfolioConfig::default(),
            cache: Mutex::new(LruCache::new(1024)),
            workers,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Sets the race configuration (deadline, ILP cap).
    pub fn with_config(mut self, config: PortfolioConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the plan-cache capacity (entries).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        *self.cache.lock().expect("cache lock") = LruCache::new(capacity);
        self
    }

    /// Sets the batch worker-pool size (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The portfolio this planner races.
    pub fn strategies(&self) -> &Portfolio {
        &self.portfolio
    }

    /// Cumulative cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn cache_key(&self, instance: &Instance) -> PlanCacheKey {
        PlanCacheKey::new(instance, self.portfolio.names())
    }

    /// Races the portfolio on one instance, bypassing the cache, and
    /// returns the full race report.
    pub fn plan_uncached(&self, instance: &Instance) -> PortfolioOutcome {
        self.portfolio.run(instance, &self.config)
    }

    /// Races the portfolio on one instance, serving and populating the
    /// plan cache.
    pub fn plan(&self, instance: &Instance) -> PortfolioOutcome {
        let key = self.cache_key(instance);
        if let Some(cached) = self.cache.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.incr();
            trace::instant("planner.cache.hit", 0, 0);
            return PortfolioOutcome {
                best: Some(cached.clone()),
                reports: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                // The cached plan proves at least one strategy supported
                // the instance when it was first raced.
                supported: 1,
                early_exit: false,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.incr();
        trace::instant("planner.cache.miss", 0, 0);
        let outcome = self.portfolio.run(instance, &self.config);
        // Deadline-degraded races are not cached: a later request under
        // less load deserves a fresh, full-quality race, not a permanently
        // pinned partial answer.
        if outcome.complete() {
            if let Some(best) = &outcome.best {
                self.cache
                    .lock()
                    .expect("cache lock")
                    .insert(key, best.clone());
            }
        } else {
            CACHE_DEGRADED_SKIPS.incr();
            trace::instant("planner.cache.degraded_skip", 0, 0);
        }
        outcome
    }

    /// Plans a queue of instances, sharding across the worker pool.
    ///
    /// Workers claim instances from a shared atomic cursor, so a queue
    /// mixing heavy and light instances load-balances naturally. Each claim
    /// first consults the plan cache; repeated instances (equal digests)
    /// are served without re-solving, including repeats *within* the same
    /// batch once the first occurrence finishes. Results come back in
    /// submission order.
    pub fn plan_batch(&self, instances: &[Instance]) -> Vec<BatchResult> {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<BatchResult>>> =
            Mutex::new((0..instances.len()).map(|_| None).collect());
        let workers = self.workers.min(instances.len()).max(1);

        std::thread::scope(|scope| {
            // audit:allow(stop-flag-coverage): spawns one claim loop per worker; each portfolio run carries its own deadline budget
            for _ in 0..workers {
                // audit:allow(stop-flag-coverage): batch claim loop must drain the queue; per-instance cancellation lives inside the portfolio run
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= instances.len() {
                        break;
                    }
                    let instance = &instances[index];
                    trace::instant("planner.batch.claim", index as i64, 0);
                    let key = self.cache_key(instance);
                    let cached = self.cache.lock().expect("cache lock").get(&key).cloned();
                    let result = match cached {
                        Some(outcome) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            CACHE_HITS.incr();
                            BatchResult {
                                index,
                                outcome: Some(outcome),
                                from_cache: true,
                            }
                        }
                        None => {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            CACHE_MISSES.incr();
                            let raced = self.portfolio.run(instance, &self.config);
                            // Same rule as plan(): never cache a
                            // deadline-degraded race.
                            if raced.complete() {
                                if let Some(best) = &raced.best {
                                    self.cache
                                        .lock()
                                        .expect("cache lock")
                                        .insert(key, best.clone());
                                }
                            } else {
                                CACHE_DEGRADED_SKIPS.incr();
                            }
                            BatchResult {
                                index,
                                outcome: raced.best,
                                from_cache: false,
                            }
                        }
                    };
                    results.lock().expect("results lock")[index] = Some(result);
                });
            }
        });

        results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every index claimed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    fn quick_planner() -> Planner {
        Planner::with_portfolio(Portfolio::of_names(["greedy1d", "rowheur1d"]).unwrap())
    }

    #[test]
    fn second_plan_of_same_instance_hits_the_cache() {
        let planner = quick_planner();
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(30));
        let first = planner.plan(&inst);
        let second = planner.plan(&inst);
        assert_eq!(planner.cache_stats().hits, 1);
        assert_eq!(planner.cache_stats().misses, 1);
        assert_eq!(
            first.best.unwrap().total_time,
            second.best.unwrap().total_time
        );
        assert!(second.reports.is_empty(), "cache hits skip the race");
    }

    #[test]
    fn batch_dedupes_repeated_instances() {
        let planner = quick_planner().with_workers(1);
        let a = eblow_gen::generate(&GenConfig::tiny_1d(31));
        let b = eblow_gen::generate(&GenConfig::tiny_1d(32));
        let batch = vec![a.clone(), b, a];
        let results = planner.plan_batch(&batch);
        assert_eq!(results.len(), 3);
        assert!(!results[0].from_cache);
        assert!(!results[1].from_cache);
        assert!(results[2].from_cache, "same digest must be served cached");
        assert_eq!(
            results[0].outcome.as_ref().unwrap().total_time,
            results[2].outcome.as_ref().unwrap().total_time
        );
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            r.outcome.as_ref().unwrap().validate(&batch[i]).unwrap();
        }
    }

    #[test]
    fn batch_handles_mixed_dimensions_in_parallel() {
        let planner = Planner::with_portfolio(
            Portfolio::of_names(["greedy1d", "rowheur1d", "greedy2d"]).unwrap(),
        )
        .with_workers(4);
        let batch: Vec<Instance> = (0..4)
            .map(|s| eblow_gen::generate(&GenConfig::tiny_1d(40 + s)))
            .chain((0..4).map(|s| eblow_gen::generate(&GenConfig::tiny_2d(40 + s))))
            .collect();
        let results = planner.plan_batch(&batch);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            let outcome = r.outcome.as_ref().expect("plan produced");
            outcome.validate(&batch[i]).unwrap();
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let planner = quick_planner();
        assert!(planner.plan_batch(&[]).is_empty());
        assert_eq!(planner.cache_stats(), CacheStats::default());
    }

    /// A strategy that spins until the deadline cancels it, then returns a
    /// valid (greedy) plan — guaranteeing the race ends with a `Cancelled`
    /// report.
    struct SleepUntilCancelled;

    impl crate::Strategy for SleepUntilCancelled {
        fn name(&self) -> &'static str {
            "sleepy"
        }
        fn supports(&self, _instance: &Instance) -> bool {
            true
        }
        fn plan(
            &self,
            instance: &Instance,
            budget: &crate::Budget,
        ) -> Result<PlanOutcome, crate::EngineError> {
            while !budget.is_cancelled() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let plan = eblow_core::baselines::greedy_1d(instance)?;
            Ok(PlanOutcome::from_1d(self.name(), plan))
        }
    }

    #[test]
    fn deadline_degraded_races_are_not_cached() {
        let planner = Planner::with_portfolio(crate::Portfolio::new(vec![std::sync::Arc::new(
            SleepUntilCancelled,
        )]))
        .with_config(crate::PortfolioConfig {
            deadline: Some(std::time::Duration::from_millis(20)),
            ..Default::default()
        });
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(33));
        let first = planner.plan(&inst);
        assert!(!first.complete(), "sleepy must be reported Cancelled");
        assert!(first.best.is_some(), "it still returns a valid plan");
        let second = planner.plan(&inst);
        assert!(
            !second.reports.is_empty(),
            "degraded result must not be served from the cache"
        );
        assert_eq!(planner.cache_stats().hits, 0);
        assert_eq!(planner.cache_stats().misses, 2);
    }
}
