//! Metric names and values, the per-layer accumulators, and the JSON the
//! benchmark prints.

use crate::layers::{Oned, Twod, ONED_STAGES};
use eblow_engine::{Portfolio, PortfolioOutcome, StrategyStatus};
use std::collections::BTreeMap;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values are reported as 0 so the JSON stays
    /// valid.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// A minimal JSON value (the workspace builds offline, without serde).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with keys in the given order.
    Object(Vec<(String, Json)>),
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serializes to one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        let value = Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.into())),
        ]);
        (m.name.clone(), value)
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Object(metrics.collect())),
    ])
    .render()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A content hash of the program's sources (`Cargo.toml`, `Cargo.lock`,
/// and every `.rs`/`.toml` under `src/` and `crates/`), so a result names
/// the code it measured even where no VCS metadata exists.
pub fn source_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = eblow_model::Fnv64::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(f.strip_prefix(&root).unwrap_or(f).to_string_lossy().bytes());
            h.write(bytes);
        }
    }
    format!("src-{:016x}", h.finish())
}

fn collect(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// The `eblow_trace` counters the per-layer metrics read.
const COUNTERS: [&str; 6] = [
    "admits.estimate_reject",
    "admits.estimate_exact",
    "admits.beam",
    "admits.dp",
    "pool.par_regions",
    "pool.seq_regions",
];

/// Current values of [`COUNTERS`] (a counter not yet touched reads 0).
pub fn counter_snapshot() -> [u64; 6] {
    let values = eblow_trace::counter_values();
    COUNTERS.map(|name| {
        values
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    })
}

/// Per-strategy race tallies.
#[derive(Debug, Clone, Default)]
struct StrategyAcc {
    secs: f64,
    raced: usize,
    wins: usize,
    gap_sum: f64,
    gaps: usize,
}

/// Per-layer accumulators, filled by the traced requests. A layer the
/// workload does not call reports 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    oned: usize,
    lp_s: f64,
    lp_calls: f64,
    rounding_s: f64,
    rounding_iters: f64,
    convergence_s: f64,
    ilp_vars: f64,
    committed_by_ilp: f64,
    refine_s: f64,
    refine_drops: f64,
    post_swap_s: f64,
    post_insert_s: f64,
    dt: [f64; 5],
    counters: [u64; 6],
    requests: usize,
    twod: usize,
    profits_s: f64,
    prefilter_s: f64,
    kept: f64,
    cluster_s: f64,
    nodes: f64,
    anneal_s: f64,
    seqpair: usize,
    races: usize,
    winner_s: f64,
    wait_s: f64,
    deadline_bound: usize,
    overshoot_ms: f64,
    lanes: usize,
    cancelled: usize,
    proven: usize,
    failed: usize,
    strategies: BTreeMap<&'static str, StrategyAcc>,
}

fn per(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Layers {
    /// Adds one composed 1D run; `vsb` is the instance's all-VSB T, the
    /// base of the per-stage T changes.
    pub fn add_oned(&mut self, m: &Oned, vsb: u64) {
        self.oned += 1;
        self.lp_s += m.lp.as_secs_f64();
        self.lp_calls += m.lp_calls as f64;
        self.rounding_s += m.rounding_self.as_secs_f64();
        self.rounding_iters += m.rounding_iters as f64;
        self.convergence_s += m.convergence.as_secs_f64();
        self.ilp_vars += m.ilp_vars as f64;
        self.committed_by_ilp += m.committed_by_ilp as f64;
        self.refine_s += m.refine.as_secs_f64();
        self.refine_drops += m.refine_drops as f64;
        self.post_swap_s += m.post_swap.as_secs_f64();
        self.post_insert_s += m.post_insert.as_secs_f64();
        for (acc, dt) in self.dt.iter_mut().zip(m.dt) {
            *acc += dt as f64 / vsb.max(1) as f64;
        }
    }

    /// Adds one timed 2D run.
    pub fn add_twod(&mut self, m: &Twod) {
        self.twod += 1;
        let pre = m.profits + m.prefilter + m.cluster;
        self.profits_s += m.profits.as_secs_f64();
        self.prefilter_s += m.prefilter.as_secs_f64();
        self.kept += m.kept as f64;
        self.cluster_s += m.cluster.as_secs_f64();
        self.nodes += m.nodes as f64;
        self.anneal_s += m.wall.saturating_sub(pre).as_secs_f64();
        self.seqpair += usize::from(m.seqpair);
    }

    /// Adds one race outcome under `deadline`.
    pub fn add_race(&mut self, outcome: &PortfolioOutcome, deadline: Duration) {
        self.races += 1;
        let race_s = outcome.elapsed.as_secs_f64();
        let best = outcome.best.as_ref();
        let winner = best.and_then(|b| outcome.reports.iter().find(|r| r.name == b.strategy));
        if let Some(w) = winner {
            self.winner_s += w.elapsed.as_secs_f64();
            self.wait_s += race_s - w.elapsed.as_secs_f64();
        }
        if !outcome.complete() {
            self.deadline_bound += 1;
            self.overshoot_ms += (race_s - deadline.as_secs_f64()) * 1e3;
        }
        self.proven += usize::from(best.is_some_and(|b| b.proven_optimal));
        let best_t = best.map(|b| b.total_time);
        for r in &outcome.reports {
            if r.status == StrategyStatus::Unsupported {
                continue;
            }
            self.lanes += 1;
            self.cancelled += usize::from(r.cancelled);
            self.failed += usize::from(matches!(r.status, StrategyStatus::Failed(_)));
            let acc = self.strategies.entry(r.name).or_default();
            acc.raced += 1;
            acc.secs += r.elapsed.as_secs_f64();
            acc.wins += usize::from(r.status == StrategyStatus::Won);
            if let (Some(t), Some(b)) = (r.total_time, best_t) {
                acc.gap_sum += t as f64 / b.max(1) as f64;
                acc.gaps += 1;
            }
        }
    }

    /// Adds the counter deltas of one traced request.
    pub fn add_counters(&mut self, before: &[u64; 6], after: &[u64; 6]) {
        self.requests += 1;
        for (acc, (b, a)) in self.counters.iter_mut().zip(before.iter().zip(after)) {
            *acc += a.saturating_sub(*b);
        }
    }

    /// The per-layer metrics: per-request means unless named otherwise.
    pub fn metrics(&self) -> Vec<Metric> {
        let n1 = self.oned;
        let [est_reject, est_exact, beam, dp, par, seq] = self.counters;
        let probes = est_reject + est_exact + beam + dp;
        let mut out = vec![
            Metric::new("oned.lp.s", per(self.lp_s, n1), "s"),
            Metric::new("oned.lp.calls", per(self.lp_calls, n1), "count"),
            Metric::new("oned.rounding.s", per(self.rounding_s, n1), "s"),
            Metric::new("oned.rounding.iters", per(self.rounding_iters, n1), "count"),
            Metric::new(
                "oned.admits.reject_ratio",
                per(est_reject as f64, probes as usize),
                "ratio",
            ),
            Metric::new("oned.convergence.s", per(self.convergence_s, n1), "s"),
            Metric::new("oned.convergence.ilp_vars", per(self.ilp_vars, n1), "count"),
            Metric::new(
                "oned.convergence.yield",
                if self.ilp_vars > 0.0 {
                    self.committed_by_ilp / self.ilp_vars
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new("oned.refine.s", per(self.refine_s, n1), "s"),
            Metric::new("oned.refine.drops", per(self.refine_drops, n1), "count"),
            Metric::new("oned.post_swap.s", per(self.post_swap_s, n1), "s"),
            Metric::new("oned.post_insert.s", per(self.post_insert_s, n1), "s"),
        ];
        for (stage, dt) in ONED_STAGES.iter().zip(self.dt) {
            out.push(Metric::new(
                format!("oned.{stage}.dt"),
                per(dt, n1),
                "ratio",
            ));
        }
        let nr = self.requests;
        out.extend([
            Metric::new("pool.par_regions", per(par as f64, nr), "count"),
            Metric::new("pool.seq_regions", per(seq as f64, nr), "count"),
        ]);
        let n2 = self.twod;
        out.extend([
            Metric::new("twod.profits.s", per(self.profits_s, n2), "s"),
            Metric::new("twod.prefilter.s", per(self.prefilter_s, n2), "s"),
            Metric::new("twod.prefilter.kept", per(self.kept, n2), "count"),
            Metric::new("twod.cluster.s", per(self.cluster_s, n2), "s"),
            Metric::new("twod.cluster.nodes", per(self.nodes, n2), "count"),
            Metric::new("twod.anneal.s", per(self.anneal_s, n2), "s"),
            Metric::new("twod.seqpair_share", per(self.seqpair as f64, n2), "ratio"),
        ]);
        let nr = self.races;
        out.extend([
            Metric::new("portfolio.winner_s", per(self.winner_s, nr), "s"),
            Metric::new("portfolio.wait_s", per(self.wait_s, nr), "s"),
            Metric::new(
                "portfolio.overshoot_ms",
                per(self.overshoot_ms, self.deadline_bound),
                "ms",
            ),
            Metric::new(
                "portfolio.deadline_bound_ratio",
                per(self.deadline_bound as f64, nr),
                "ratio",
            ),
            Metric::new(
                "portfolio.cancelled_ratio",
                per(self.cancelled as f64, self.lanes),
                "ratio",
            ),
            Metric::new(
                "portfolio.proven_ratio",
                per(self.proven as f64, nr),
                "ratio",
            ),
            Metric::new("portfolio.failed", self.failed as f64, "count"),
        ]);
        // Every registry name, raced or not, so the metric set is fixed.
        for name in Portfolio::all_builtin().names() {
            let acc = self.strategies.get(name).cloned().unwrap_or_default();
            let key = name.replace('@', "-");
            out.extend([
                Metric::new(format!("strategy.{key}.s"), per(acc.secs, acc.raced), "s"),
                Metric::new(format!("strategy.{key}.wins"), acc.wins as f64, "count"),
                Metric::new(
                    format!("strategy.{key}.t_gap"),
                    per(acc.gap_sum, acc.gaps),
                    "ratio",
                ),
            ]);
        }
        out
    }
}
