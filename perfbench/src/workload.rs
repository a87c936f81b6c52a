//! The three workloads: which instance shapes each plans, in what mix, and
//! how a workload seed turns into concrete instances.
//!
//! Every shape copies the generator parameters of a named family of
//! `eblow_gen` (`1M-k`, `1H-k`, `2M-k`, `1T-k`, `2H-k`); only the generator
//! seed changes, and it is derived from the workload seed and the case's
//! position in the list. The planners see nothing but the generated
//! instances.

use eblow_gen::GenConfig;
use eblow_model::Instance;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo E-BLOW-1 (`Eblow1d::default()`) on 1D MCC instances.
    OnedMcc,
    /// Solo `Eblow2d::default()` on 2D MCC instances.
    TwodMcc,
    /// `Portfolio::all_builtin()` races under a 3 s deadline.
    RaceDeadline,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::OnedMcc, Workload::TwodMcc, Workload::RaceDeadline];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnedMcc => "oned-mcc",
            Workload::TwodMcc => "twod-mcc",
            Workload::RaceDeadline => "race-deadline",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The case list of one pass: `(shape, copies)` groups, interleaved
    /// round-robin by [`cases`].
    ///
    /// Weights are chosen so the reported percentiles (median and the
    /// 10-from-the-top tail over the pass) fall on shapes whose planning
    /// time is a property of the shape, not of the particular draw; the
    /// shapes whose time depends on the draw (4000-candidate 1D tiers 3
    /// and 4, with their 10 s residual-ILP plans) stay in every pass and
    /// carry `plans_per_s` and the per-layer convergence time. In the race
    /// the median lands on the 1T races and the tail (the maximum of ten
    /// cases) on the 2H races.
    fn mix(self) -> Vec<(Shape, usize)> {
        use Shape::{H1, H2};
        let m1 = |n, tier| Shape::M1 { n, tier };
        let m2 = |n, tier| Shape::M2 { n, tier };
        let t1 = |n| Shape::T1 { n };
        match self {
            Workload::OnedMcc => vec![
                (m1(1000, 1), 2),
                (m1(1000, 2), 2),
                (m1(1000, 3), 2),
                (m1(1000, 4), 2),
                (m1(4000, 1), 12),
                (m1(4000, 2), 2),
                (m1(4000, 3), 1),
                (m1(4000, 4), 1),
                (H1, 12),
            ],
            Workload::TwodMcc => vec![
                (m2(1000, 4), 1),
                (m2(4000, 1), 1),
                (m2(1000, 3), 1),
                (m2(4000, 2), 1),
                (m2(1000, 2), 1),
                (m2(4000, 3), 1),
                (m2(1000, 1), 1),
                (m2(4000, 4), 1),
            ],
            Workload::RaceDeadline => vec![
                (m1(4000, 1), 1),
                (t1(8), 1),
                (H2, 2),
                (t1(10), 1),
                (H1, 1),
                (t1(11), 1),
                (m1(4000, 4), 1),
                (t1(12), 1),
                (t1(14), 1),
            ],
        }
    }
}

/// A family shape: the generator parameters of a named family, minus the
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `1M-k`: `n` = 1000 candidates on 1000×1000 or 4000 on 2000×2000,
    /// width tier 1..=4.
    M1 { n: usize, tier: u8 },
    /// `1H-k`: 12 000 candidates.
    H1,
    /// `2M-k`, same sizes and tiers as `M1`.
    M2 { n: usize, tier: u8 },
    /// `1T-k`: `n` candidates (8, 10, 11, 12 or 14) on one row.
    T1 { n: usize },
    /// `2H-k`: 10 000 candidates.
    H2,
}

/// `width_tier` of `eblow_gen`: wider characters pack fewer per row.
fn width_tier(tier: u8) -> (u64, u64) {
    match tier {
        1 => (24, 48),
        2 => (27, 54),
        3 => (30, 60),
        _ => (34, 68),
    }
}

impl Shape {
    /// The generator configuration of this shape for `seed`, and its tier.
    fn config(self, seed: u64) -> (GenConfig, Option<u8>) {
        let mcc = |n: usize, tier: u8, oned: bool| {
            let side = if n > 1000 { 2000 } else { 1000 };
            GenConfig {
                n_chars: n,
                n_regions: 10,
                stencil_w: side,
                stencil_h: side,
                row_height: oned.then_some(40),
                width: width_tier(tier),
                height: if oned { (40, 40) } else { (25, 55) },
                blank: (2, 10),
                symmetric_blanks: false,
                shots: (2, 60),
                repeats: (0, 50),
                seed,
            }
        };
        match self {
            Shape::M1 { n, tier } => (mcc(n, tier, true), Some(tier)),
            Shape::M2 { n, tier } => (mcc(n, tier, false), Some(tier)),
            Shape::H1 => (GenConfig::huge_1d(seed), None),
            Shape::H2 => (GenConfig::huge_2d(seed), None),
            Shape::T1 { n } => {
                let cfg = GenConfig {
                    n_chars: n,
                    n_regions: 1,
                    stencil_w: 200,
                    stencil_h: 40,
                    row_height: Some(40),
                    width: (40, 40),
                    height: (40, 40),
                    blank: (8, 14),
                    symmetric_blanks: true,
                    shots: (5, 30),
                    repeats: (1, 1),
                    seed,
                };
                (cfg, None)
            }
        }
    }

    fn family(self) -> &'static str {
        match self {
            Shape::M1 { .. } => "1M",
            Shape::H1 => "1H",
            Shape::M2 { .. } => "2M",
            Shape::T1 { .. } => "1T",
            Shape::H2 => "2H",
        }
    }
}

/// One generated instance of a workload, with the shape it was drawn from.
#[derive(Debug, Clone)]
pub struct Case {
    /// Position-unique label, e.g. `1M-4000-t1#5`.
    pub label: String,
    /// Candidate count.
    pub candidates: usize,
    /// Region (CP) count.
    pub regions: usize,
    /// Width tier 1..=4, where the family has tiers.
    pub tier: Option<u8>,
    /// The instance.
    pub instance: Instance,
}

/// SplitMix64 finalizer: decorrelates neighbouring seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the case list of one pass of `workload` for `seed`: the
/// shape groups of the workload's mix interleaved round-robin, each case
/// with its own derived generator seed.
pub fn cases(workload: Workload, seed: u64) -> Vec<Case> {
    let mix = workload.mix();
    let rounds = mix.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        for &(shape, copies) in &mix {
            if round >= copies {
                continue;
            }
            let index = out.len() as u64;
            let derived = mix64(mix64(seed ^ ((workload as u64) << 56)) ^ index);
            let (cfg, tier) = shape.config(derived);
            let tier_label = tier.map(|t| format!("-t{t}")).unwrap_or_default();
            out.push(Case {
                label: format!("{}-{}{}#{}", shape.family(), cfg.n_chars, tier_label, index),
                candidates: cfg.n_chars,
                regions: cfg.n_regions,
                tier,
                instance: eblow_gen::generate(&cfg),
            });
        }
    }
    out
}
