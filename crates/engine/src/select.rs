//! Feature-driven strategy selection: predict which strategies are worth
//! spawning instead of racing the full zoo.
//!
//! The portfolio executor treats every registered strategy alike, which is
//! robust but wasteful: on a 4000-candidate 1D instance the exact ILPs and
//! the dense-simplex backend can never contribute, and each spawned loser
//! still costs an OS thread that competes with the winners for cores. This
//! module adds the missing prediction layer:
//!
//! * [`SelectionModel`] — a lightweight per-strategy throughput/quality
//!   model. It starts from static priors (seeded from the paper's relative
//!   method rankings and the registered size gates) and updates online from
//!   the [`StrategyReport`]s of every observed race. The learned state
//!   persists as JSON alongside the plan cache
//!   ([`SelectionModel::save`]/[`SelectionModel::load`]) so warm starts
//!   survive process restarts.
//! * [`Selector`] — the racing front-end: extract
//!   [`InstanceFeatures`], score every
//!   strategy of the full portfolio, race only the top-k shortlist, and
//!   fall back to the full registry when `supports()` filtering leaves the
//!   shortlist empty ([`race_with_fallback`]).
//!
//! The same measured throughput drives the shard composites' adaptive
//! shard counts (`eblow_engine::shard`): one model, two consumers.

use crate::portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome, StrategyReport};
use crate::strategy::{Strategy, StrategyId};
use eblow_model::{Instance, InstanceFeatures};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Full-registry fallback races after an emptied shortlist (counter
/// `select.fallback`).
static SELECT_FALLBACKS: eblow_trace::Counter = eblow_trace::Counter::new("select.fallback");

/// Pseudo-count weight of the static prior against observed races: after
/// this many observations the learned statistics carry as much weight as
/// the prior.
const PRIOR_WEIGHT: f64 = 3.0;

/// EWMA retention for throughput updates (new sample weight `1 - RETAIN`).
const EWMA_RETAIN: f64 = 0.7;

/// Learned per-strategy statistics, updated from race reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyStats {
    /// Races in which this strategy produced a valid plan.
    pub races: u64,
    /// Races this strategy won.
    pub wins: u64,
    /// Races in which the deadline fired while it was running.
    pub cancelled: u64,
    /// Races in which it errored or produced an invalid plan.
    pub failed: u64,
    /// Sum over races of `best T_total / this T_total` ∈ (0, 1] — the
    /// per-race quality ratio against the race winner.
    pub quality_sum: f64,
    /// EWMA of measured throughput in candidates/second (0 = unmeasured;
    /// only uncancelled runs contribute, a cancelled run's elapsed time
    /// measures the deadline, not the strategy).
    pub chars_per_sec: f64,
}

/// Static prior for one strategy: expected quality, throughput, and the
/// feature ranges outside which the strategy is predicted unsupported.
#[derive(Debug, Clone, Copy)]
struct Prior {
    is_1d: bool,
    quality: f64,
    chars_per_sec: f64,
    min_chars: usize,
    max_chars: usize,
    max_cells: Option<u64>,
}

impl Prior {
    const fn new(is_1d: bool, quality: f64, chars_per_sec: f64) -> Self {
        Prior {
            is_1d,
            quality,
            chars_per_sec,
            min_chars: 0,
            max_chars: usize::MAX,
            max_cells: None,
        }
    }
}

/// The prior for a registry name, keyed on the [`StrategyId`] base so
/// backend-parameterized variants (`shard1d@greedy1d`, `eblow1d@simplex`)
/// inherit sensible defaults. Unknown strategies get `None` (scored with a
/// neutral prior, no predicted-support gates).
///
/// The support ranges mirror the *default* configurations of the built-in
/// strategies. A strategy reconfigured under its default registry name
/// (e.g. `Shard1dStrategy::with_config` lowering `min_chars`) keeps the
/// default-config prior and may be gated out of shortlists on instances
/// its custom gate would accept — selection is name-driven, so custom
/// configurations belong with a non-selecting planner (or their own
/// strategy wrapper/name).
fn prior_for(name: &str) -> Option<Prior> {
    let id = StrategyId::parse(name);
    let p = match (id.base(), id.backend()) {
        ("eblow1d", None | Some("combinatorial")) => Prior::new(true, 1.0, 800.0),
        ("eblow1d", Some("simplex")) => Prior {
            // The dense simplex refuses instances above its cell cutoff;
            // mirror that gate in feature space so the selector never
            // spends a shortlist slot on a predicted refusal.
            max_cells: Some(eblow_core::oned::SimplexOracle::default().max_cells as u64),
            ..Prior::new(true, 0.98, 500.0)
        },
        ("eblow1d", Some("scaled")) => Prior::new(true, 0.90, 300.0),
        ("eblow1d-0", _) => Prior::new(true, 0.93, 1000.0),
        ("heuristic1d", _) => Prior::new(true, 0.97, 2500.0),
        ("rowheur1d", _) => Prior::new(true, 0.80, 1200.0),
        ("greedy1d", _) => Prior::new(true, 0.88, 2.0e6),
        ("ilp1d", _) => Prior {
            max_chars: crate::strategy::ILP1D_DEFAULT_MAX_CHARS,
            ..Prior::new(true, 1.0, 10.0)
        },
        ("shard1d", _) => Prior {
            min_chars: crate::shard::SHARD_DEFAULT_MIN_CHARS,
            ..Prior::new(true, 0.96, 4000.0)
        },
        ("eblow2d", _) => Prior::new(false, 1.0, 1000.0),
        ("sa2d", _) => Prior::new(false, 0.85, 700.0),
        ("greedy2d", _) => Prior::new(false, 0.80, 1.0e6),
        ("ilp2d", _) => Prior {
            max_chars: crate::strategy::ILP2D_DEFAULT_MAX_CHARS,
            ..Prior::new(false, 1.0, 8.0)
        },
        ("shard2d", _) => Prior {
            min_chars: crate::shard::SHARD_DEFAULT_MIN_CHARS,
            ..Prior::new(false, 0.95, 3000.0)
        },
        _ => return None,
    };
    Some(p)
}

/// Neutral fallbacks for strategies without a static prior.
const NEUTRAL_QUALITY: f64 = 0.6;
const NEUTRAL_THROUGHPUT: f64 = 1000.0;

/// A per-strategy throughput/quality model for portfolio selection.
///
/// Scores blend a static prior with online observations; with no
/// observations the model reproduces the prior ranking, and each observed
/// race shifts the blend toward measured behaviour (`PRIOR_WEIGHT`
/// pseudo-counts). The state serializes to JSON ([`SelectionModel::to_json`])
/// and is stable to round-trip, so it can persist across processes.
#[derive(Debug, Clone, Default)]
pub struct SelectionModel {
    stats: BTreeMap<String, StrategyStats>,
}

impl SelectionModel {
    /// An empty model: scoring falls back to the static priors.
    pub fn new() -> Self {
        SelectionModel::default()
    }

    /// The learned statistics for `name`, if any race has been observed.
    pub fn stats(&self, name: &str) -> Option<&StrategyStats> {
        self.stats.get(name)
    }

    /// Number of strategies with observed statistics.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether no race has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Expected quality ratio (this strategy's `T_total` vs the race best,
    /// inverted so 1.0 is "as good as the winner"): prior blended with the
    /// observed per-race ratios.
    pub fn expected_quality(&self, name: &str) -> f64 {
        let prior = prior_for(name).map_or(NEUTRAL_QUALITY, |p| p.quality);
        match self.stats.get(name) {
            Some(s) if s.races > 0 => {
                (prior * PRIOR_WEIGHT + s.quality_sum) / (PRIOR_WEIGHT + s.races as f64)
            }
            _ => prior,
        }
    }

    /// Predicted throughput in candidates/second: prior blended with the
    /// measured EWMA, weighted by the number of uncancelled observations.
    pub fn throughput(&self, name: &str) -> f64 {
        let prior = prior_for(name).map_or(NEUTRAL_THROUGHPUT, |p| p.chars_per_sec);
        match self.stats.get(name) {
            Some(s) if s.chars_per_sec > 0.0 => {
                // Only uncancelled runs fed the EWMA, so only they may
                // weigh it against the prior — 39 cancelled races must not
                // let a single measured sample outvote the prior 40:3.
                let n = s.races.saturating_sub(s.cancelled) as f64;
                (prior * PRIOR_WEIGHT + s.chars_per_sec * n) / (PRIOR_WEIGHT + n)
            }
            _ => prior,
        }
    }

    /// Scores `name` for an instance with `features` under `deadline`.
    ///
    /// 0.0 means "predicted not worth spawning": wrong dimension, or
    /// outside the strategy's feature-predicted support range (size caps of
    /// the exact ILPs / the simplex backend, the shard composites' minimum
    /// candidate count). Positive scores combine expected quality, a
    /// deadline-feasibility factor (a strategy predicted to be cancelled
    /// mid-run returns a degraded plan, not none at all, so slowness
    /// discounts rather than disqualifies), and a learned failure discount.
    pub fn score(
        &self,
        name: &str,
        features: &InstanceFeatures,
        deadline: Option<Duration>,
    ) -> f64 {
        if let Some(p) = prior_for(name) {
            if p.is_1d != features.is_1d {
                return 0.0;
            }
            if features.num_chars < p.min_chars || features.num_chars > p.max_chars {
                return 0.0;
            }
            if p.max_cells.is_some_and(|mc| features.cells > mc) {
                return 0.0;
            }
        }
        let quality = self.expected_quality(name);
        let speed = match deadline {
            None => 1.0,
            Some(d) => {
                let predicted = features.num_chars.max(1) as f64 / self.throughput(name).max(1e-9);
                (d.as_secs_f64() / predicted.max(1e-9)).min(1.0)
            }
        };
        let fail_discount = match self.stats.get(name) {
            Some(s) => {
                (s.races as f64 + PRIOR_WEIGHT) / ((s.races + s.failed) as f64 + PRIOR_WEIGHT)
            }
            None => 1.0,
        };
        quality * (0.4 + 0.6 * speed) * fail_discount
    }

    /// The top-`k` strategies of `strategies` by [`SelectionModel::score`],
    /// best first; zero-scored strategies never make the list. Ties break
    /// by position in `strategies` (registry order), so the shortlist is
    /// deterministic for a fixed model state.
    pub fn shortlist(
        &self,
        strategies: &[Arc<dyn Strategy>],
        features: &InstanceFeatures,
        deadline: Option<Duration>,
        k: usize,
    ) -> Vec<Arc<dyn Strategy>> {
        let mut scored: Vec<(f64, usize)> = strategies
            .iter()
            .enumerate()
            .map(|(i, s)| (self.score(s.name(), features, deadline), i))
            .filter(|(score, _)| *score > 0.0)
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(k.max(1))
            .map(|(_, i)| Arc::clone(&strategies[i]))
            .collect()
    }

    /// Folds one race's per-strategy reports into the model.
    ///
    /// `Unsupported` reports are skipped (nothing ran); `Failed` reports
    /// count toward the failure discount unless the deadline tore the run
    /// down (`cancelled`); every report with a plan updates
    /// the quality ratio against the race best, and uncancelled runs update
    /// the throughput EWMA (`features.num_chars / elapsed`).
    pub fn observe(&mut self, features: &InstanceFeatures, reports: &[StrategyReport]) {
        let best = reports
            .iter()
            .filter(|r| r.status.has_plan())
            .filter_map(|r| r.total_time)
            .min();
        for report in reports {
            use crate::portfolio::StrategyStatus;
            match &report.status {
                StrategyStatus::Unsupported => continue,
                StrategyStatus::Failed(_) => {
                    // A run torn down by the deadline before it could
                    // produce anything is not evidence the strategy is
                    // broken — only uncancelled failures feed the fail
                    // discount.
                    if !report.cancelled {
                        self.stats
                            .entry(report.name.to_string())
                            .or_default()
                            .failed += 1;
                    }
                }
                StrategyStatus::Won | StrategyStatus::Completed | StrategyStatus::Cancelled => {
                    let entry = self.stats.entry(report.name.to_string()).or_default();
                    entry.races += 1;
                    if report.status == StrategyStatus::Won {
                        entry.wins += 1;
                    }
                    if report.cancelled {
                        entry.cancelled += 1;
                    }
                    if let (Some(t), Some(b)) = (report.total_time, best) {
                        entry.quality_sum += b as f64 / t.max(1) as f64;
                    }
                    if !report.cancelled {
                        let secs = report.elapsed.as_secs_f64();
                        if secs > 1e-9 {
                            let sample = features.num_chars.max(1) as f64 / secs;
                            entry.chars_per_sec = if entry.chars_per_sec > 0.0 {
                                EWMA_RETAIN * entry.chars_per_sec + (1.0 - EWMA_RETAIN) * sample
                            } else {
                                sample
                            };
                        }
                    }
                }
            }
        }
    }

    /// Serializes the model to JSON (deterministic: strategies in name
    /// order, non-finite numbers clamped to 0).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"strategies\": {");
        let mut first = true;
        for (name, s) in &self.stats {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"races\": {}, \"wins\": {}, \"cancelled\": {}, \"failed\": {}, \
                 \"quality_sum\": {}, \"chars_per_sec\": {}}}",
                eblow_trace::export::json_escape(name),
                s.races,
                s.wins,
                s.cancelled,
                s.failed,
                json::num(s.quality_sum),
                json::num(s.chars_per_sec),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a model previously written by [`SelectionModel::to_json`].
    ///
    /// Unknown keys are ignored so the format can grow; a malformed
    /// document is an error (a corrupt stats file must not silently reset
    /// learned state without the caller noticing).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let obj = root.as_obj().ok_or("top level must be an object")?;
        let strategies = obj
            .iter()
            .find(|(k, _)| k == "strategies")
            .ok_or("missing \"strategies\" key")?
            .1
            .as_obj()
            .ok_or("\"strategies\" must be an object")?;
        let mut model = SelectionModel::new();
        for (name, entry) in strategies {
            let fields = entry
                .as_obj()
                .ok_or_else(|| format!("strategy {name:?} must map to an object"))?;
            let get = |key: &str| -> f64 {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_num())
                    .unwrap_or(0.0)
            };
            model.stats.insert(
                name.clone(),
                StrategyStats {
                    races: get("races") as u64,
                    wins: get("wins") as u64,
                    cancelled: get("cancelled") as u64,
                    failed: get("failed") as u64,
                    quality_sum: get("quality_sum"),
                    chars_per_sec: get("chars_per_sec"),
                },
            );
        }
        Ok(model)
    }

    /// Folds `other`'s statistics into this model, keeping the existing
    /// entry wherever both models know a strategy — in-process
    /// observations are fresher than anything loaded from disk, and a
    /// merge must never erase learning that other consumers (a selecting
    /// planner, the shard composites) already depend on.
    pub fn merge_missing(&mut self, other: SelectionModel) {
        for (name, stats) in other.stats {
            self.stats.entry(name).or_insert(stats);
        }
    }

    /// Writes the model atomically to `path` (see
    /// [`write_text_atomic`](crate::cache::write_text_atomic)).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        crate::cache::write_text_atomic(path, &self.to_json())
    }

    /// Loads a model from `path`. A missing file yields the empty model
    /// (cold start); an unreadable or malformed file is an error.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => SelectionModel::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SelectionModel::new()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

/// Parses JSON text with the same hand-rolled parser the selection-model
/// stats use — the engine's other artifact readers (`eblow-eval
/// bench-diff` consuming `eblow-bench/1` files) share one grammar
/// implementation instead of growing a second one.
pub fn json_parse(text: &str) -> Result<JsonValue, String> {
    json::parse(text)
}

/// A parsed JSON value (see [`json_parse`]).
pub use json::Value as JsonValue;

/// The process-wide shared model: the default [`Selector`] observes races
/// into it, and the shard composites read its measured throughput to pick
/// adaptive shard counts — one model, shared learning.
pub fn shared_model() -> Arc<Mutex<SelectionModel>> {
    static MODEL: OnceLock<Arc<Mutex<SelectionModel>>> = OnceLock::new();
    MODEL
        .get_or_init(|| Arc::new(Mutex::new(SelectionModel::new())))
        .clone()
}

/// Races `shortlist`, falling back to the full `registry` portfolio when
/// `supports()` filtering leaves the shortlist with nothing to run.
///
/// The selector predicts support from features, but `supports()` is the
/// authority — a shortlist can lose every member to it (e.g. only
/// huge-gated composites predicted for an instance that shrank below their
/// gate). Ending the race there would return the distinct
/// `no_strategy_supports` outcome even though the registry holds willing
/// strategies; instead the full portfolio races and its outcome is
/// returned. The second tuple element reports whether the fallback fired.
pub fn race_with_fallback(
    shortlist: &Portfolio,
    registry: &Portfolio,
    instance: &Instance,
    config: &PortfolioConfig,
) -> (PortfolioOutcome, bool) {
    if shortlist.strategies().is_empty() {
        return (registry.run(instance, config), true);
    }
    let outcome = shortlist.run(instance, config);
    if outcome.no_strategy_supports() {
        (registry.run(instance, config), true)
    } else {
        (outcome, false)
    }
}

/// What a selected race produced, plus the selection telemetry.
#[derive(Debug)]
pub struct SelectedRace {
    /// The race outcome (of the shortlist, or of the full registry when
    /// the fallback fired).
    pub outcome: PortfolioOutcome,
    /// Registry names of the shortlisted strategies, best-scored first.
    pub shortlist: Vec<&'static str>,
    /// Whether the full-registry fallback raced instead of the shortlist.
    pub fell_back: bool,
}

/// The strategy-selection front-end: shortlist, race, observe, persist.
///
/// A `Selector` wraps a [`SelectionModel`] (by default the process-wide
/// [`shared_model`], so planners and shard composites learn from the same
/// observations) and a shortlist size `k`. [`Selector::race`] is the one
/// entry point: it extracts features, races the top-k shortlist with the
/// full-registry fallback, feeds the reports back into the model, and —
/// when a stats path is configured — persists the updated model as JSON.
pub struct Selector {
    model: Arc<Mutex<SelectionModel>>,
    k: usize,
    stats_path: Option<PathBuf>,
}

impl Selector {
    /// A selector over the process-wide shared model, spawning at most `k`
    /// strategies per race.
    pub fn new(k: usize) -> Self {
        Selector {
            model: shared_model(),
            k: k.max(1),
            stats_path: None,
        }
    }

    /// A selector over a private model (isolated learning; used by tests
    /// and by callers that manage persistence themselves).
    pub fn with_model(model: SelectionModel, k: usize) -> Self {
        Selector {
            model: Arc::new(Mutex::new(model)),
            k: k.max(1),
            stats_path: None,
        }
    }

    /// Loads the model from `path` (if present) and persists every update
    /// back to it. A malformed file is reported to stderr and treated as a
    /// cold start — learned stats are an accelerant, never a correctness
    /// dependency.
    ///
    /// Loaded statistics are [merged](SelectionModel::merge_missing) into
    /// the selector's model rather than replacing it: a selector over the
    /// process-wide [`shared_model`] must not wipe learning that other
    /// consumers (shard composites, sibling selectors) already accumulated
    /// — and a missing file must not reset anything at all.
    pub fn with_stats_path(self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        match SelectionModel::load(&path) {
            Ok(loaded) => self
                .model
                .lock()
                .expect("selection model lock")
                .merge_missing(loaded),
            Err(e) => eprintln!("eblow-engine: ignoring stats file: {e}"),
        }
        Selector {
            stats_path: Some(path),
            ..self
        }
    }

    /// The shortlist size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The model this selector scores with and observes into.
    pub fn model(&self) -> Arc<Mutex<SelectionModel>> {
        Arc::clone(&self.model)
    }

    /// Shortlists, races (with the full-registry fallback), observes the
    /// reports into the model, and persists when configured.
    pub fn race(
        &self,
        registry: &Portfolio,
        instance: &Instance,
        config: &PortfolioConfig,
    ) -> SelectedRace {
        let features = InstanceFeatures::of(instance);
        let shortlisted = self.model.lock().expect("selection model lock").shortlist(
            registry.strategies(),
            &features,
            config.deadline,
            self.k,
        );
        let names: Vec<&'static str> = shortlisted.iter().map(|s| s.name()).collect();
        // The decision record: which strategies were shortlisted, and the
        // feature snapshot that drove the scoring.
        eblow_trace::instant_with(
            "select.shortlist",
            names.len() as i64,
            registry.strategies().len() as i64,
            || format!("[{}] {}", names.join(","), features.summary()),
        );
        let (outcome, fell_back) =
            race_with_fallback(&Portfolio::new(shortlisted), registry, instance, config);
        if fell_back {
            SELECT_FALLBACKS.incr();
            eblow_trace::instant("select.fallback", 0, 0);
        }
        // Serialize under the lock, write outside it: the shared model is
        // also on the shard composites' deadline-sensitive path
        // (`resolve_target_chars`), which must never block on disk I/O.
        let serialized = {
            let mut model = self.model.lock().expect("selection model lock");
            model.observe(&features, &outcome.reports);
            self.stats_path.as_ref().map(|_| model.to_json())
        };
        if let (Some(path), Some(json)) = (&self.stats_path, serialized) {
            if let Err(e) = crate::cache::write_text_atomic(path, &json) {
                eprintln!("eblow-engine: failed to persist stats: {e}");
            }
        }
        SelectedRace {
            outcome,
            shortlist: names,
            fell_back,
        }
    }
}

/// A minimal JSON subset (objects, arrays, strings, numbers, booleans,
/// null) — enough to round-trip the stats file with no external crates.
mod json {
    /// A parsed JSON value.
    ///
    /// The stats format only *reads* objects, strings, and numbers today,
    /// but the parser accepts the full value grammar so future fields
    /// (arrays, flags) don't break old binaries — hence the allow.
    #[allow(dead_code)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, held as `f64`.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The fields of an object value, in insertion order.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }
        /// The numeric payload, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        /// Object field lookup (first match, insertion order).
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_obj()?
                .iter()
                .find_map(|(k, v)| (k == key).then_some(v))
        }
    }

    /// Formats a finite number (non-finite values clamp to 0 — JSON has no
    /// NaN/Infinity).
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    // audit:allow(stop-flag-reachability): input-length-bounded JSON recursion; config parsing happens before any planning loop starts
    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = match parse_value(bytes, pos)? {
                        Value::Str(s) => s,
                        _ => return Err(format!("object key at byte {pos} must be a string")),
                    };
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    fields.push((key, parse_value(bytes, pos)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut out = String::new();
                // audit:allow(stop-flag-coverage): string-literal scan in the JSON parser, bounded by document length — not a planning loop
                loop {
                    match bytes.get(*pos) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match bytes.get(*pos) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(b'r') => out.push('\r'),
                                Some(b'u') => {
                                    let hex = bytes
                                        .get(*pos + 1..*pos + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex)
                                            .map_err(|_| "non-ascii \\u escape")?,
                                        16,
                                    )
                                    .map_err(|_| "bad \\u escape")?;
                                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                    *pos += 4;
                                }
                                other => return Err(format!("bad escape {other:?}")),
                            }
                            *pos += 1;
                        }
                        Some(&b) => {
                            // Multi-byte UTF-8 sequences pass through intact.
                            let ch_len = match b {
                                0..=0x7F => 1,
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            let chunk = bytes
                                .get(*pos..*pos + ch_len)
                                .ok_or("truncated utf-8 sequence")?;
                            out.push_str(
                                std::str::from_utf8(chunk)
                                    .map_err(|e| format!("bad utf-8: {e}"))?,
                            );
                            *pos += ch_len;
                        }
                    }
                }
            }
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                if *pos == start {
                    return Err(format!("unexpected character at byte {start}"));
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number at byte {start}: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::StrategyStatus;
    use crate::strategy::builtin_strategies;
    use eblow_gen::GenConfig;

    fn features_1d(num_chars: usize) -> InstanceFeatures {
        InstanceFeatures {
            num_chars,
            num_regions: 10,
            num_rows: 25,
            is_1d: true,
            cells: (num_chars * 25) as u64,
            mean_width: 36.0,
            mean_h_blank: 6.0,
            max_h_blank: 10,
            blank_fraction: 0.3,
            profit_mean: 500.0,
            profit_cv: 1.5,
        }
    }

    #[test]
    fn cold_model_predicts_the_prior_ranking() {
        let model = SelectionModel::new();
        let f = features_1d(4000);
        let deadline = Some(Duration::from_secs(3));
        // Wrong dimension and gated strategies score zero.
        assert_eq!(model.score("eblow2d", &f, deadline), 0.0);
        assert_eq!(model.score("ilp1d", &f, deadline), 0.0, "4000 > ILP cap");
        assert_eq!(model.score("eblow1d@simplex", &f, deadline), 0.0);
        assert_eq!(model.score("shard1d", &f, deadline), 0.0, "< shard gate");
        // The quality pipeline outranks the weak baselines.
        let eblow = model.score("eblow1d@combinatorial", &f, deadline);
        let rowheur = model.score("rowheur1d", &f, deadline);
        assert!(eblow > 0.0 && rowheur > 0.0);
        assert!(
            model.score("heuristic1d", &f, deadline) > rowheur,
            "prior ranking"
        );
    }

    #[test]
    fn shortlist_is_capped_ordered_and_deterministic() {
        let model = SelectionModel::new();
        let all = builtin_strategies();
        let f = features_1d(4000);
        let deadline = Some(Duration::from_secs(3));
        let list = model.shortlist(&all, &f, deadline, 4);
        assert!(list.len() <= 4 && !list.is_empty());
        let names: Vec<&str> = list.iter().map(|s| s.name()).collect();
        // Every 2D strategy is excluded by the dimension gate.
        assert!(names.iter().all(|n| !n.contains("2d")));
        // Scores are descending.
        let scores: Vec<f64> = names.iter().map(|n| model.score(n, &f, deadline)).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        let again: Vec<&str> = model
            .shortlist(&all, &f, deadline, 4)
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, again);
    }

    #[test]
    fn observations_shift_quality_and_throughput() {
        let mut model = SelectionModel::new();
        let f = features_1d(1000);
        let q0 = model.expected_quality("rowheur1d");
        let t0 = model.throughput("rowheur1d");
        // rowheur1d repeatedly loses badly and runs slowly.
        for _ in 0..20 {
            model.observe(
                &f,
                &[
                    StrategyReport {
                        name: "greedy1d",
                        status: StrategyStatus::Won,
                        cancelled: false,
                        total_time: Some(1000),
                        elapsed: Duration::from_millis(1),
                    },
                    StrategyReport {
                        name: "rowheur1d",
                        status: StrategyStatus::Completed,
                        cancelled: false,
                        total_time: Some(4000),
                        elapsed: Duration::from_secs(2),
                    },
                ],
            );
        }
        assert!(model.expected_quality("rowheur1d") < q0);
        assert!(model.throughput("rowheur1d") < t0);
        assert!(model.expected_quality("greedy1d") > 0.95, "serial winner");
        let s = model.stats("rowheur1d").unwrap();
        assert_eq!(s.races, 20);
        assert_eq!(s.wins, 0);
    }

    #[test]
    fn failures_discount_the_score() {
        let mut model = SelectionModel::new();
        let f = features_1d(1000);
        let before = model.score("heuristic1d", &f, None);
        for _ in 0..10 {
            model.observe(
                &f,
                &[StrategyReport {
                    name: "heuristic1d",
                    status: StrategyStatus::Failed("boom".into()),
                    cancelled: false,
                    total_time: None,
                    elapsed: Duration::from_millis(5),
                }],
            );
        }
        assert!(model.score("heuristic1d", &f, None) < before * 0.5);
    }

    /// Regression: an error produced because the deadline tore the run
    /// down is not an intrinsic failure — it must not feed the fail
    /// discount and sour the strategy for future, roomier races.
    #[test]
    fn deadline_teardown_failures_are_not_intrinsic_failures() {
        let mut model = SelectionModel::new();
        let f = features_1d(8000);
        let before = model.score("shard1d", &f, None);
        for _ in 0..10 {
            model.observe(
                &f,
                &[StrategyReport {
                    name: "shard1d",
                    status: StrategyStatus::Failed("no shard produced a plan".into()),
                    cancelled: true,
                    total_time: None,
                    elapsed: Duration::from_secs(3),
                }],
            );
        }
        assert_eq!(model.stats("shard1d").map_or(0, |s| s.failed), 0);
        assert_eq!(model.score("shard1d", &f, None), before);
    }

    #[test]
    fn cancelled_runs_do_not_pollute_throughput() {
        let mut model = SelectionModel::new();
        let f = features_1d(1000);
        model.observe(
            &f,
            &[StrategyReport {
                name: "eblow1d@combinatorial",
                status: StrategyStatus::Cancelled,
                cancelled: true,
                total_time: Some(5000),
                elapsed: Duration::from_secs(3),
            }],
        );
        let s = model.stats("eblow1d@combinatorial").unwrap();
        assert_eq!(s.chars_per_sec, 0.0, "deadline time is not throughput");
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.races, 1);
    }

    /// Regression: loading a stats file must merge, not clobber — an
    /// in-process entry always beats the disk copy, and strategies only
    /// the disk knows are adopted.
    #[test]
    fn merge_missing_prefers_in_process_entries() {
        let mut live = SelectionModel::new();
        let f = features_1d(1000);
        live.observe(
            &f,
            &[StrategyReport {
                name: "greedy1d",
                status: StrategyStatus::Won,
                cancelled: false,
                total_time: Some(1000),
                elapsed: Duration::from_millis(1),
            }],
        );
        let live_greedy = *live.stats("greedy1d").unwrap();
        let mut disk = SelectionModel::new();
        disk.stats.insert(
            "greedy1d".into(),
            StrategyStats {
                races: 99,
                ..Default::default()
            },
        );
        disk.stats.insert(
            "rowheur1d".into(),
            StrategyStats {
                races: 7,
                ..Default::default()
            },
        );
        live.merge_missing(disk);
        assert_eq!(live.stats("greedy1d"), Some(&live_greedy), "kept live");
        assert_eq!(live.stats("rowheur1d").unwrap().races, 7, "adopted");
        // An empty disk model (missing file) changes nothing.
        let before = live.clone();
        live.merge_missing(SelectionModel::new());
        assert_eq!(live.stats("greedy1d"), before.stats("greedy1d"));
        assert_eq!(live.len(), before.len());
    }

    /// Regression: the throughput blend weighs the EWMA by *uncancelled*
    /// observations only — many cancelled races must not let a single
    /// measured sample dominate the prior.
    #[test]
    fn cancelled_races_do_not_inflate_throughput_confidence() {
        let f = features_1d(1000);
        let mk = |cancelled: bool| StrategyReport {
            name: "heuristic1d",
            status: if cancelled {
                StrategyStatus::Cancelled
            } else {
                StrategyStatus::Completed
            },
            cancelled,
            total_time: Some(2000),
            elapsed: Duration::from_secs(2),
        };
        // Model A: 1 measured run. Model B: the same run plus 39
        // cancellations. Both hold one EWMA sample, so both must blend it
        // with the same (single-observation) confidence.
        let mut a = SelectionModel::new();
        a.observe(&f, &[mk(false)]);
        let mut b = SelectionModel::new();
        b.observe(&f, &[mk(false)]);
        for _ in 0..39 {
            b.observe(&f, &[mk(true)]);
        }
        assert_eq!(
            a.stats("heuristic1d").unwrap().chars_per_sec,
            b.stats("heuristic1d").unwrap().chars_per_sec
        );
        assert!((a.throughput("heuristic1d") - b.throughput("heuristic1d")).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip_preserves_the_model() {
        let mut model = SelectionModel::new();
        let f = features_1d(1000);
        model.observe(
            &f,
            &[
                StrategyReport {
                    name: "greedy1d",
                    status: StrategyStatus::Won,
                    cancelled: false,
                    total_time: Some(1200),
                    elapsed: Duration::from_millis(2),
                },
                StrategyReport {
                    name: "eblow1d@combinatorial",
                    status: StrategyStatus::Failed("x".into()),
                    cancelled: false,
                    total_time: None,
                    elapsed: Duration::from_millis(2),
                },
            ],
        );
        let text = model.to_json();
        let back = SelectionModel::from_json(&text).unwrap();
        assert_eq!(back.stats("greedy1d"), model.stats("greedy1d"));
        assert_eq!(
            back.stats("eblow1d@combinatorial"),
            model.stats("eblow1d@combinatorial")
        );
        assert_eq!(back.len(), model.len());
    }

    #[test]
    fn malformed_json_is_an_error_not_a_reset() {
        assert!(SelectionModel::from_json("{").is_err());
        assert!(SelectionModel::from_json("[]").is_err());
        assert!(SelectionModel::from_json("{\"version\": 1}").is_err());
        // Unknown keys are tolerated.
        let ok = SelectionModel::from_json(
            "{\"version\": 9, \"future\": [1, 2], \"strategies\": {\"x\": {\"races\": 3, \"new_field\": true}}}",
        )
        .unwrap();
        assert_eq!(ok.stats("x").unwrap().races, 3);
    }

    #[test]
    fn save_and_load_roundtrip_through_disk() {
        let mut model = SelectionModel::new();
        model.observe(
            &features_1d(500),
            &[StrategyReport {
                name: "greedy1d",
                status: StrategyStatus::Won,
                cancelled: false,
                total_time: Some(700),
                elapsed: Duration::from_millis(1),
            }],
        );
        let dir = std::env::temp_dir().join("eblow-select-test");
        let path = dir.join(format!("stats-{}.json", std::process::id()));
        model.save(&path).unwrap();
        let back = SelectionModel::load(&path).unwrap();
        assert_eq!(back.stats("greedy1d"), model.stats("greedy1d"));
        std::fs::remove_file(&path).ok();
        // A missing file is a cold start, not an error.
        assert!(SelectionModel::load(&path).unwrap().is_empty());
    }

    #[test]
    fn selector_race_observes_and_returns_valid_plans() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(61));
        let selector = Selector::with_model(SelectionModel::new(), 3);
        let registry = Portfolio::all_builtin();
        let race = selector.race(&registry, &inst, &PortfolioConfig::default());
        assert!(!race.fell_back, "tiny 1D has plenty of supported members");
        assert!(race.shortlist.len() <= 3);
        let best = race.outcome.best.as_ref().expect("a valid plan");
        best.validate(&inst).unwrap();
        let model = selector.model();
        let guard = model.lock().unwrap();
        assert!(!guard.is_empty(), "race must be observed into the model");
    }

    /// Regression (the shortlisting fix): a shortlist whose every member is
    /// huge-gated must fall back to the full registry on a tiny instance
    /// instead of surfacing `no_strategy_supports`.
    #[test]
    fn all_unsupported_shortlist_falls_back_to_the_registry() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(62));
        let shortlist = Portfolio::of_names(["shard1d", "shard2d"]).unwrap();
        let registry = Portfolio::all_builtin();
        let config = PortfolioConfig::default();
        // Without the fallback the shortlist race is the dead end the fix
        // targets.
        assert!(shortlist.run(&inst, &config).no_strategy_supports());
        let (outcome, fell_back) = race_with_fallback(&shortlist, &registry, &inst, &config);
        assert!(fell_back);
        assert!(!outcome.no_strategy_supports());
        outcome
            .best
            .as_ref()
            .expect("registry fallback plans the instance")
            .validate(&inst)
            .unwrap();
    }

    #[test]
    fn empty_shortlist_also_falls_back() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(63));
        let empty = Portfolio::new(Vec::new());
        let (outcome, fell_back) = race_with_fallback(
            &empty,
            &Portfolio::all_builtin(),
            &inst,
            &PortfolioConfig::default(),
        );
        assert!(fell_back);
        assert!(outcome.best.is_some());
    }
}
