//! The E-BLOW benchmark: three seeded workloads, each driven by one
//! closed-loop client (one plan request in flight at a time) in this
//! process. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

#![forbid(unsafe_code)]

pub mod layers;
pub mod report;
pub mod workload;

use eblow_core::oned::Eblow1d;
use eblow_core::twod::Eblow2d;
use eblow_engine::{Portfolio, PortfolioConfig, PortfolioOutcome};
use eblow_model::{Instance, Selection};
use report::{Json, Layers, Metric};
use std::time::{Duration, Instant};
use workload::{Case, Workload};

/// The race deadline of `race-deadline` (the one CI gates on).
pub const RACE_DEADLINE: Duration = Duration::from_secs(3);

/// How many times set-up (generation plus one warm-up plan) runs; the
/// median is reported.
const SETUP_REPS: usize = 3;

/// Command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured closed loop.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one plan request produced, after validation.
#[derive(Debug, Clone)]
struct Planned {
    total_time: u64,
    elapsed: Duration,
    race: Option<PortfolioOutcome>,
    plan1d: Option<eblow_core::Plan1d>,
}

/// Checks a finished plan the way the model defines it: the placement
/// validates and T is the model's own accounting of the selection.
fn check_plan(
    instance: &Instance,
    placement: Result<(), eblow_model::ModelError>,
    total_time: u64,
    selection: &Selection,
) -> Result<(), String> {
    placement.map_err(|e| format!("placement invalid: {e}"))?;
    let expected = instance.total_writing_time(selection);
    if expected != total_time {
        return Err(format!(
            "reported T {total_time} != Instance::total_writing_time {expected}"
        ));
    }
    Ok(())
}

/// One untraced plan request through the workload's public entry point,
/// timed around the call only; the output checks run after the clock
/// stops.
fn plan(workload: Workload, instance: &Instance) -> Result<Planned, String> {
    let started = Instant::now();
    match workload {
        Workload::OnedMcc => {
            let plan = Eblow1d::default().plan(instance);
            let elapsed = started.elapsed();
            let plan = plan.map_err(|e| format!("Eblow1d::plan: {e}"))?;
            check_plan(
                instance,
                plan.placement.validate(instance),
                plan.total_time,
                &plan.selection,
            )?;
            Ok(Planned {
                total_time: plan.total_time,
                elapsed,
                race: None,
                plan1d: Some(plan),
            })
        }
        Workload::TwodMcc => {
            let plan = Eblow2d::default().plan(instance);
            let elapsed = started.elapsed();
            let plan = plan.map_err(|e| format!("Eblow2d::plan: {e}"))?;
            check_plan(
                instance,
                plan.placement.validate(instance),
                plan.total_time,
                &plan.selection,
            )?;
            Ok(Planned {
                total_time: plan.total_time,
                elapsed,
                race: None,
                plan1d: None,
            })
        }
        Workload::RaceDeadline => {
            let config = PortfolioConfig {
                deadline: Some(RACE_DEADLINE),
                ..PortfolioConfig::default()
            };
            let outcome = Portfolio::all_builtin().run(instance, &config);
            let elapsed = started.elapsed();
            let best = outcome.best.as_ref().ok_or("race produced no plan")?;
            best.validate(instance)
                .map_err(|e| format!("PlanOutcome::validate: {e}"))?;
            check_plan(instance, Ok(()), best.total_time, &best.selection)?;
            Ok(Planned {
                total_time: best.total_time,
                elapsed,
                race: Some(outcome),
                plan1d: None,
            })
        }
    }
}

/// The traced counterpart of [`plan`]: counters on, each layer timed
/// through its public functions. Returns the traced request's wall time.
fn plan_traced(
    workload: Workload,
    instance: &Instance,
    untraced: &Planned,
    layers: &mut Layers,
) -> Result<Duration, String> {
    let before = report::counter_snapshot();
    let wall = match workload {
        Workload::OnedMcc => {
            let (config, oracle) = layers::timed_eblow1d_config();
            let (composed, selection) = layers::compose_eblow1d(instance, &config, &oracle)?;
            check_plan(instance, Ok(()), composed.total_time, &selection)?;
            let shipped = untraced.plan1d.as_ref().ok_or("no untraced 1D plan")?;
            layers::check_composition(shipped, composed.total_time, &selection)
                .map_err(|e| format!("composition check: {e}"))?;
            layers.add_oned(&composed, vsb_total(instance));
            composed.wall
        }
        Workload::TwodMcc => {
            let measured = layers::measure_eblow2d(instance).map_err(|e| e.to_string())?;
            let plan = &measured.plan;
            check_plan(
                instance,
                plan.placement.validate(instance),
                plan.total_time,
                &plan.selection,
            )?;
            layers.add_twod(&measured);
            measured.wall
        }
        Workload::RaceDeadline => {
            let traced = plan(workload, instance)?;
            let outcome = traced.race.as_ref().ok_or("no race outcome")?;
            layers.add_race(outcome, RACE_DEADLINE);
            traced.elapsed
        }
    };
    layers.add_counters(&before, &report::counter_snapshot());
    Ok(wall)
}

/// Per-case results of the measured loop.
#[derive(Debug, Clone, Default)]
pub struct CaseResult {
    /// Untraced request times in seconds, in order.
    pub times: Vec<f64>,
    /// Traced request times in seconds (traced run only).
    pub traced: Vec<f64>,
    /// T of the first successful untraced plan.
    pub total_time: Option<u64>,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// The options the run was started with.
    pub options: Options,
    /// The cases of one pass.
    pub cases: Vec<Case>,
    /// Per-case results, aligned with `cases`.
    pub results: Vec<CaseResult>,
    /// Median set-up time in seconds (generation plus one warm-up plan).
    pub setup: f64,
    /// Median generation time within set-up, in seconds.
    pub gen: f64,
    /// Plan requests attempted (traced ones included).
    pub attempted: u64,
    /// Failures, each as `case: reason`.
    pub failures: Vec<String>,
    /// Per-layer accumulators (traced run only).
    pub layers: Layers,
}

/// Runs the benchmark: set-up (repeated, median kept), then the closed
/// loop over the case list until `seconds` have passed and every case has
/// been planned at least once.
pub fn run(options: Options) -> Run {
    // Lazy state first: the pool sizes itself once per process.
    rayon::pool::configured_threads();
    eblow_trace::set_level(eblow_trace::Level::Off);
    let workload = options.workload;

    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        cases = workload::cases(workload, options.seed);
        gens.push(started.elapsed().as_secs_f64());
        if let Err(e) = plan(workload, &cases[0].instance) {
            failures.push(format!("{} (warm-up): {e}", cases[0].label));
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut results = vec![CaseResult::default(); cases.len()];
    let mut layers = Layers::default();
    let mut attempted = 0u64;
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    let mut i = 0usize;
    while i < cases.len() || started.elapsed() < budget {
        let k = i % cases.len();
        i += 1;
        let case = &cases[k];
        attempted += 1;
        let untraced = match plan(workload, &case.instance) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("{}: {e}", case.label));
                continue;
            }
        };
        let result = &mut results[k];
        result.times.push(untraced.elapsed.as_secs_f64());
        match result.total_time {
            None => result.total_time = Some(untraced.total_time),
            Some(t) if workload != Workload::RaceDeadline && t != untraced.total_time => {
                failures.push(format!(
                    "{}: repeat plan T {} != first plan T {t}",
                    case.label, untraced.total_time
                ));
            }
            Some(_) => {}
        }
        if options.trace {
            attempted += 1;
            eblow_trace::set_level(eblow_trace::Level::Counters);
            let traced = plan_traced(workload, &case.instance, &untraced, &mut layers);
            eblow_trace::set_level(eblow_trace::Level::Off);
            match traced {
                Ok(wall) => results[k].traced.push(wall.as_secs_f64()),
                Err(e) => failures.push(format!("{} (traced): {e}", case.label)),
            }
        }
    }

    Run {
        options,
        cases,
        results,
        setup: median(&setups),
        gen: median(&gens),
        attempted,
        failures,
        layers,
    }
}

/// Median (interpolated for even counts; 0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail statistic: the highest percentile with at least ten samples
/// beyond it. Returns `(value, percentile, samples)`; with ten samples or
/// fewer no percentile qualifies and the maximum is reported as the
/// 100th percentile.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let at_or_below = n - 10;
    (v[at_or_below - 1], 100.0 * at_or_below as f64 / n as f64, n)
}

impl Run {
    /// Each planned case's request latency: the median of its untraced
    /// repeats.
    fn case_latencies(&self) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| !r.times.is_empty())
            .map(|r| median(&r.times))
            .collect()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let latencies = self.case_latencies();
        let (tail_s, _, _) = tail(&latencies);
        let mut log_sum = 0.0;
        let mut counted = 0usize;
        for (case, r) in self.cases.iter().zip(&self.results) {
            if let Some(t) = r.total_time {
                log_sum += (t as f64 / vsb_total(&case.instance).max(1) as f64).ln();
                counted += 1;
            }
        }
        let t_vs_vsb = if counted == 0 {
            0.0
        } else {
            (log_sum / counted as f64).exp()
        };
        vec![
            Metric::new("setup_s", self.setup, "s"),
            Metric::new("plan_s_p50", median(&latencies), "s"),
            Metric::new("plan_s_tail", tail_s, "s"),
            Metric::new("t_vs_vsb", t_vs_vsb, "ratio"),
            Metric::new("peak_rss_mb", report::peak_rss_mib(), "MiB"),
        ]
    }

    /// Plans completed per second of untraced planning.
    pub fn plans_per_s(&self) -> f64 {
        let times = self.results.iter().flat_map(|r| &r.times);
        let total: f64 = times.clone().sum();
        if total > 0.0 {
            times.count() as f64 / total
        } else {
            0.0
        }
    }

    /// Failures over attempts.
    pub fn fail_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Vec<Metric> {
        // Over the cases with both a traced and an untraced sample.
        let (traced, untraced): (Vec<f64>, Vec<f64>) = self
            .results
            .iter()
            .filter(|r| !r.traced.is_empty() && !r.times.is_empty())
            .map(|r| (median(&r.traced), median(&r.times)))
            .unzip();
        let overhead = median(&traced) - median(&untraced);
        let mut out = vec![
            Metric::new("gen.s", self.gen, "s"),
            Metric::new("plans_per_s", self.plans_per_s(), "1/s"),
            Metric::new("fail_ratio", self.fail_ratio(), "ratio"),
        ];
        out.extend(self.layers.metrics());
        out.push(Metric::new("trace.overhead_s", overhead, "s"));
        out
    }

    /// Run metadata, as the line `{"meta": {...}}`: what produced the
    /// numbers.
    pub fn meta(&self) -> Json {
        let num = |x: f64| Json::Num(x);
        let (_, pct, samples) = tail(&self.case_latencies());
        let cases = self.cases.iter().zip(&self.results).map(|(c, r)| {
            Json::obj([
                ("label", Json::Str(c.label.clone())),
                ("candidates", num(c.candidates as f64)),
                ("regions", num(c.regions as f64)),
                ("tier", c.tier.map_or(Json::Null, |t| num(t.into()))),
                ("digest", Json::Str(c.instance.digest().to_hex())),
                (
                    "total_time",
                    r.total_time.map_or(Json::Null, |t| num(t as f64)),
                ),
                ("repeats", num(r.times.len() as f64)),
                ("plan_s", num(median(&r.times))),
            ])
        });
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([(
            "meta",
            Json::obj([
                ("rev", Json::Str(report::source_rev())),
                ("nproc", num(nproc as f64)),
                (
                    "pool_threads",
                    num(rayon::pool::configured_threads() as f64),
                ),
                ("workload", Json::Str(self.options.workload.name().into())),
                ("seed", num(self.options.seed as f64)),
                ("seconds", num(self.options.seconds as f64)),
                ("trace", Json::Bool(self.options.trace)),
                ("tail_percentile", num(pct)),
                ("tail_samples", num(samples as f64)),
                ("cases", Json::Array(cases.collect())),
                (
                    "failures",
                    Json::Array(self.failures.iter().cloned().map(Json::Str).collect()),
                ),
            ]),
        )])
    }
}

/// The all-VSB writing time of `instance`: T with an empty stencil.
pub fn vsb_total(instance: &Instance) -> u64 {
    instance.total_writing_time(&Selection::none(instance.num_chars()))
}
