//! Acceptance scenarios for the interprocedural rules: each test builds a
//! small "shipped" workspace that scans clean (its baseline is empty, like
//! the committed one), applies the regression the rule exists to catch,
//! and asserts the `--deny-new` ratchet would trip — i.e.
//! `Baseline::regressions` vs the empty baseline names the new bucket.

use eblow_audit::{scan_sources, AuditContext, Baseline};

fn scan(files: &[(&str, &str)], ctx: &AuditContext) -> Baseline {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    Baseline::from_findings(&scan_sources(&sources, ctx).findings)
}

fn empty_baseline() -> Baseline {
    Baseline::from_json(r#"{"schema": "eblow-audit/2", "counts": []}"#).unwrap()
}

const SWEEP_LOOP: &str = "        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(i);
            acc = acc.wrapping_mul(3);
            acc ^= acc >> 7;
            acc = acc.wrapping_add(1);
            acc = acc.wrapping_mul(5);
            acc ^= acc >> 3;
            acc = acc.wrapping_add(2);
            acc = acc.wrapping_mul(7);
            acc ^= acc >> 5;
            acc = acc.wrapping_add(3);
            acc = acc.wrapping_mul(11);
            acc ^= acc >> 11;
            acc = acc.wrapping_add(4);
            acc = acc.wrapping_mul(13);
        }
        acc";

#[test]
fn deleting_a_stop_flag_param_trips_deny_new() {
    let ctx = AuditContext::default();
    let entry_before = "pub fn plan_with_stop(stop: StopFlag, n: u64) -> u64 {
    deep_sweep(stop, n)
}
";
    let sweep_before = format!(
        "pub fn deep_sweep(stop: StopFlag, n: u64) -> u64 {{
    let _ = stop;
{SWEEP_LOOP}
}}
"
    );
    let before = scan(
        &[
            ("crates/core/src/entry.rs", entry_before),
            ("crates/core/src/sweep.rs", &sweep_before),
        ],
        &ctx,
    );
    assert!(
        before.counts.is_empty(),
        "shipped tree must scan clean: {:?}",
        before.counts
    );

    // Regression: someone "simplifies" the callee by dropping the StopFlag
    // param — the loop is now unreachable by cancellation.
    let entry_after = "pub fn plan_with_stop(stop: StopFlag, n: u64) -> u64 {
    let _ = stop;
    deep_sweep(n)
}
";
    let sweep_after = format!(
        "pub fn deep_sweep(n: u64) -> u64 {{
{SWEEP_LOOP}
}}
"
    );
    let after = scan(
        &[
            ("crates/core/src/entry.rs", entry_after),
            ("crates/core/src/sweep.rs", &sweep_after),
        ],
        &ctx,
    );
    let regs = empty_baseline().regressions(&after);
    assert!(
        regs.iter()
            .any(|r| r.rule == "stop-flag-reachability" && r.file == "crates/core/src/sweep.rs"),
        "expected a stop-flag-reachability regression, got {regs:?}"
    );
}

#[test]
fn renaming_a_trace_counter_trips_deny_new() {
    let ctx = AuditContext {
        readme: Some("Counters: `shard.mono_refine_won` tracks refinement-lane wins.".to_string()),
        ..AuditContext::default()
    };
    let before_src = "static MONO_REFINE_WON: eblow_trace::Counter =
    eblow_trace::Counter::new(\"shard.mono_refine_won\");
";
    let before = scan(&[("crates/engine/src/shard.rs", before_src)], &ctx);
    assert!(
        before.counts.is_empty(),
        "shipped tree must scan clean: {:?}",
        before.counts
    );

    // Regression: the counter is renamed but the README table is not —
    // the registry rule flags the drift.
    let after_src = "static MONO_REFINE_WON: eblow_trace::Counter =
    eblow_trace::Counter::new(\"shard.mono_refine_won_total\");
";
    let after = scan(&[("crates/engine/src/shard.rs", after_src)], &ctx);
    let regs = empty_baseline().regressions(&after);
    assert!(
        regs.iter()
            .any(|r| r.rule == "trace-name-registry" && r.file == "crates/engine/src/shard.rs"),
        "expected a trace-name-registry regression, got {regs:?}"
    );
}

#[test]
fn allocating_in_a_manifest_hot_loop_trips_deny_new() {
    let ctx = AuditContext {
        hotpaths: vec!["hot_kernel".to_string()],
        ..AuditContext::default()
    };
    let before_src = "pub fn hot_kernel(data: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        acc = acc.wrapping_add(v);
    }
    acc
}
";
    let before = scan(&[("crates/core/src/kernel.rs", before_src)], &ctx);
    assert!(
        before.counts.is_empty(),
        "shipped tree must scan clean: {:?}",
        before.counts
    );

    // Regression: a per-iteration clone sneaks into the manifest hot path.
    let after_src = "pub fn hot_kernel(data: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        let copy = data.to_vec();
        acc = acc.wrapping_add(v + copy.len() as u64);
    }
    acc
}
";
    let after = scan(&[("crates/core/src/kernel.rs", after_src)], &ctx);
    let regs = empty_baseline().regressions(&after);
    assert!(
        regs.iter()
            .any(|r| r.rule == "hot-loop-allocation" && r.file == "crates/core/src/kernel.rs"),
        "expected a hot-loop-allocation regression, got {regs:?}"
    );
}
