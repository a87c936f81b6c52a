//! Golden plan-stability gates for the columnar instance layout and the
//! warm-started rounding loop.
//!
//! The constants below were captured from the repository *before* the
//! slab+CSR layout swap and the hot-path rewrite. They pin two
//! guarantees that production callers rely on:
//!
//! * **Digests** — `InstanceDigest` fingerprints persisted instances and
//!   artifacts; a layout change must not move a single bit.
//! * **Planner outputs** — the full `Eblow1d` pipeline (rounding, fast ILP
//!   convergence, refinement, post stages) must produce byte-identical
//!   placements on the 1T reference cases, so the Tables 3/4 reproduction
//!   and the benchmark writing times are unaffected.

use eblow::gen::Family;
use eblow::model::Fnv64;
use eblow::planner::oned::Eblow1d;

/// `(digest hex, total writing time, chars on stencil, plan fingerprint)`
/// captured pre-refactor for 1T-1..5.
const GOLDEN_1T: [(&str, u64, usize, u64); 5] = [
    (
        "6169796e6d1cf2c25bd7a63352dc34a2",
        18,
        6,
        0x588fd9adf47457a2,
    ),
    (
        "47f1c9337b4976c26644dbb0fb1bfb3d",
        31,
        6,
        0x49757879a7b8dbc8,
    ),
    (
        "b20d520eff53b8c246ed3876af950a5a",
        38,
        6,
        0x00ba38744378d88b,
    ),
    (
        "9628cb04aa15fac27eee1e755c696932",
        42,
        6,
        0xb02d20f162aeae68,
    ),
    (
        "6ac0a6d214367ec21b4bed33ed66e48f",
        60,
        6,
        0x80821ae837397568,
    ),
];

/// Stable fingerprint of a 1D plan: row orders, region times, total time.
fn plan_fingerprint(plan: &eblow::planner::Plan1d) -> u64 {
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

#[test]
fn reference_digests_and_planner_outputs_are_byte_stable() {
    for (k, &(digest, total, chars, fp)) in GOLDEN_1T.iter().enumerate() {
        let inst = eblow::gen::benchmark(Family::T1(k as u8 + 1));
        assert_eq!(
            inst.digest().to_hex(),
            digest,
            "1T-{} digest moved — persisted fingerprints are broken",
            k + 1
        );
        let plan = Eblow1d::default().plan(&inst).unwrap();
        assert_eq!(plan.total_time, total, "1T-{} writing time moved", k + 1);
        assert_eq!(
            plan.selection.count(),
            chars,
            "1T-{} char count moved",
            k + 1
        );
        assert_eq!(
            plan_fingerprint(&plan),
            fp,
            "1T-{} placement changed byte-for-byte",
            k + 1
        );
    }
}

#[test]
fn generated_instance_digest_is_bit_stable() {
    // Pre-refactor digest of GenConfig::tiny_1d(1): the generator and the
    // columnar layout must not move a bit of it.
    let inst = eblow::gen::generate(&eblow::gen::GenConfig::tiny_1d(1));
    assert_eq!(inst.digest().to_hex(), "09fab18e37dc38c28fd4082a14d3a1fe");
}
