//! The benchmark's own tests: seeded inputs, metric names, and the 1D
//! composition check.

use eblow_core::oned::{Eblow1d, Eblow1dConfig};
use eblow_gen::GenConfig;
use eblow_perfbench::layers::{check_composition, compose_eblow1d, timed_eblow1d_config};
use eblow_perfbench::report::Layers;
use eblow_perfbench::workload::{cases, Workload};
use eblow_perfbench::{tail, Options, Run};

fn digests(workload: Workload, seed: u64) -> Vec<String> {
    cases(workload, seed)
        .iter()
        .map(|c| c.instance.digest().to_hex())
        .collect()
}

#[test]
fn same_seed_same_instances_other_seed_other_instances() {
    for workload in Workload::ALL {
        let a = digests(workload, 7);
        assert_eq!(a, digests(workload, 7), "{}", workload.name());
        let b = digests(workload, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "{}: a case repeated across seeds", workload.name());
        }
    }
}

fn empty_run() -> Run {
    Run {
        options: Options {
            workload: Workload::OnedMcc,
            seed: 0,
            seconds: 1,
            trace: false,
        },
        cases: Vec::new(),
        results: Vec::new(),
        setup: 0.0,
        gen: 0.0,
        attempted: 0,
        failures: Vec::new(),
        layers: Layers::default(),
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name end")].to_string()
        })
        .collect()
}

/// `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn emitted_metric_names_are_well_formed_and_declared() {
    let run = empty_run();
    let e2e: Vec<String> = run.end_to_end().into_iter().map(|m| m.name).collect();
    let layer: Vec<String> = run.per_layer().into_iter().map(|m| m.name).collect();
    for name in e2e.iter().chain(&layer) {
        assert!(valid_name(name), "metric name {name:?}");
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    assert_eq!(e2e, declared(&json, "end_to_end"));
    assert_eq!(layer, declared(&json, "per_layer"));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(tail(&v), (30.0, 75.0, 40));
    assert_eq!(tail(&v[..10]), (10.0, 100.0, 10));
    assert_eq!(tail(&v[..11]), (1.0, 100.0 / 11.0, 11));
}

fn oned_instances() -> Vec<eblow_model::Instance> {
    (0..6)
        .map(|seed| eblow_gen::generate(&GenConfig::tiny_1d(seed)))
        .chain(
            cases(Workload::OnedMcc, 3)
                .into_iter()
                .filter(|c| c.candidates == 1000)
                .map(|c| c.instance),
        )
        .collect()
}

#[test]
fn composed_pipeline_reproduces_eblow1d_plan() {
    for inst in oned_instances() {
        let shipped = Eblow1d::default().plan(&inst).unwrap();
        let (config, oracle) = timed_eblow1d_config();
        let (composed, selection) = compose_eblow1d(&inst, &config, &oracle).unwrap();
        check_composition(&shipped, composed.total_time, &selection).unwrap();
        assert!(composed.lp_calls > 0, "the timed oracle saw no LP solve");
    }
}

#[test]
fn composition_check_fires_when_a_stage_is_left_out() {
    let instances = oned_instances();
    type SwitchOff = fn(&mut Eblow1dConfig);
    let omit: [(&str, SwitchOff); 3] = [
        ("convergence", |c| c.fast_ilp = false),
        ("post_swap", |c| c.post_swap = false),
        ("post_insert", |c| c.post_insertion = false),
    ];
    for (stage, switch_off) in omit {
        let fired = instances.iter().any(|inst| {
            let shipped = Eblow1d::default().plan(inst).unwrap();
            let (mut config, oracle) = timed_eblow1d_config();
            switch_off(&mut config);
            let (composed, selection) = compose_eblow1d(inst, &config, &oracle).unwrap();
            check_composition(&shipped, composed.total_time, &selection).is_err()
        });
        assert!(fired, "leaving out {stage} went unnoticed");
    }
}

#[test]
fn options_parse_the_command_line() {
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let o = Options::parse(args("--workload twod-mcc --seed 5 --seconds 10 --trace 1")).unwrap();
    assert_eq!(o.workload, Workload::TwodMcc);
    assert_eq!((o.seed, o.seconds, o.trace), (5, 10, true));
    assert!(Options::parse(args("--workload nope --seed 1")).is_err());
    assert!(Options::parse(args("--seed 1 --trace 2 --workload oned-mcc")).is_err());
    assert!(Options::parse(args("--seed 1")).is_err());
}
