//! Regime guards: each workload is only worth keeping while it still puts
//! the stack in the regime it was chosen for. If a later change to the
//! program moves a workload out of its regime, these fail before anyone
//! reads a number off it.
//!
//! Every workload runs once, at full size, and the tests share the outcome.

use askbench::contract::END_TO_END;
use askbench::e2e::{run_iteration, Counters, Reference};
use askbench::json::{self, Json};
use askbench::metrics::valid_name;
use askbench::run::{run, RunArgs};
use askbench::trace::Tracer;
use askbench::workloads::{Workload, NAMES, TASKS};
use std::collections::HashMap;
use std::sync::OnceLock;

const SEED: u64 = 1;

struct Outcome {
    tuples: f64,
    counters: Counters,
    failed_ops: u64,
    sim_digest: u64,
}

fn iterate(name: &str) -> Outcome {
    let workload = Workload::by_name(name).expect("known workload");
    let inputs = workload.generate(SEED);
    let reference = Reference::of(&inputs);
    let iteration = run_iteration(&workload, inputs, SEED, false, &mut Tracer::disabled());
    let verdict = iteration.check(&reference);
    Outcome {
        tuples: workload.tuples() as f64,
        counters: iteration.counters,
        failed_ops: verdict.failed_ops,
        sim_digest: verdict.sim_digest,
    }
}

fn outcome(name: &str) -> &'static Outcome {
    static ALL: OnceLock<HashMap<&'static str, Outcome>> = OnceLock::new();
    &ALL.get_or_init(|| NAMES.iter().map(|&name| (name, iterate(name))).collect())[name]
}

const CLEAN: [&str; 3] = ["absorb_zipf", "spill_uniform", "tiny_pkt"];

#[test]
fn same_seed_same_streams_other_seed_other_streams() {
    for name in NAMES {
        let workload = Workload::by_name(name).unwrap();
        let (a, b, c) = (
            workload.generate(7),
            workload.generate(7),
            workload.generate(8),
        );
        assert_eq!(a.chunks, b.chunks, "{name}: same seed");
        assert_ne!(a.chunks, c.chunks, "{name}: different seed");
        assert_ne!(
            a.chunks[0][0], a.chunks[0][1],
            "{name}: tasks get different chunks"
        );
        let total: usize = a.chunks.iter().flatten().map(Vec::len).sum();
        assert_eq!(total as u64, workload.tuples(), "{name}");
    }
}

#[test]
fn every_result_is_correct_and_every_task_holds_switch_memory() {
    for name in NAMES {
        let o = outcome(name);
        assert_eq!(o.failed_ops, 0, "{name}");
        assert_eq!(o.counters.violations, 0, "{name}");
        assert_eq!(
            o.counters.tasks_with_region, TASKS,
            "{name}: a task was denied a region"
        );
    }
}

#[test]
fn absorb_zipf_dies_in_the_switch() {
    let o = outcome("absorb_zipf");
    assert!(o.counters.switch.tuple_aggregation_ratio() > 0.9);
    assert!((o.counters.receiver.tuples_host_aggregated as f64) < 0.15 * o.tuples);
}

#[test]
fn spill_uniform_is_merged_by_the_host_and_light_on_simnet() {
    let o = outcome("spill_uniform");
    assert!(o.counters.switch.tuple_aggregation_ratio() < 0.05);
    assert!(o.counters.receiver.tuples_host_aggregated as f64 > 0.9 * o.tuples);
    assert!((o.counters.events as f64) < 0.5 * o.tuples);
}

#[test]
fn tiny_pkt_is_one_frame_per_tuple_and_heavy_on_simnet() {
    let o = outcome("tiny_pkt");
    assert!(o.counters.switch.data_packets as f64 >= o.tuples);
    assert!(o.counters.events as f64 > 4.0 * o.tuples);
}

#[test]
fn lossy_text_takes_the_recovery_paths_and_the_others_never_do() {
    let c = &outcome("lossy_text").counters;
    assert!(c.senders.retransmissions > 0);
    assert!(c.switch.duplicates_detected > 0);
    assert!(c.switch.longkv_packets_forwarded > 0);
    assert!(c.receiver.host_view_fallbacks > 0);
    assert!(c.links.frames_dropped > 0);
    for name in CLEAN {
        let c = &outcome(name).counters;
        assert_eq!(c.senders.retransmissions, 0, "{name}");
        assert_eq!(c.switch.duplicates_detected, 0, "{name}");
        assert_eq!(c.switch.stale_dropped, 0, "{name}");
        assert_eq!(c.receiver.duplicates_dropped, 0, "{name}");
        assert_eq!(c.switch.longkv_packets_forwarded, 0, "{name}");
    }
}

#[test]
fn an_iteration_repeats_exactly_even_under_faults() {
    assert_eq!(
        iterate("lossy_text").sim_digest,
        outcome("lossy_text").sim_digest
    );
    assert_ne!(
        outcome("lossy_text").sim_digest,
        outcome("absorb_zipf").sim_digest
    );
}

/// `BENCHMARK.json`, the contract table in `contract.rs` and what a run
/// actually reports must name the same metrics with the same units.
#[test]
fn benchmark_json_matches_what_runs_report() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let contract = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |section: &str| -> Vec<(String, String)> {
        contract
            .get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{section} is a list"))
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };

    let names: Vec<String> = contract
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, NAMES);

    for (listed, ours) in contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(ours.name));
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        let better = if ours.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(listed.get("better").and_then(Json::as_str), Some(better));
    }

    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let record = run(&RunArgs {
            workload: "tiny_pkt".into(),
            seed: SEED,
            seconds: 0.0,
            trace,
            out_dir: None,
        })
        .expect("tiny_pkt runs");
        assert_eq!(record.ops_failed, 0);
        let reported: Vec<(String, String)> = record
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(reported, listed(section), "{section}");
        for (name, unit) in &reported {
            assert!(valid_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
        }
        // The contract line parses and has exactly the four keys.
        let line = json::parse(&record.contract_line()).expect("contract line parses");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
    for name in NAMES {
        assert!(valid_name(name));
    }
}
