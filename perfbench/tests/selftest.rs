//! Self-tests of the benchmark: input determinism, short runs of every
//! workload, metric names against `BENCHMARK.json`, and no end-to-end
//! metric that is a constant multiple of another.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds of the simulator work too, only slower).

use std::path::Path;
use std::process::Command;

use perfbench::inputs::{Inputs, Workload};
use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use trader::telemetry::json::Json;

/// Runs the benchmark binary in short mode and parses its result line.
fn short_run(workload: Workload, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload:?} exited {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

/// The metric names and values of a result line, in printed order.
fn metrics(result: &Json) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .expect("metrics")
        .entries()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            (
                name.clone(),
                value.unwrap_or_else(|| panic!("{name} has no numeric value")),
            )
        })
        .collect()
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|d| d.name.to_owned()).collect()
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn inputs_are_identical_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let a = format!("{:?}", Inputs::generate(workload, 7));
        let b = format!("{:?}", Inputs::generate(workload, 7));
        let c = format!("{:?}", Inputs::generate(workload, 8));
        assert_eq!(a, b, "{workload:?}: same seed, different inputs");
        assert_ne!(a, c, "{workload:?}: different seeds, same inputs");
    }
}

#[test]
fn benchmark_json_declares_the_metrics_the_binary_prints() {
    let spec = benchmark_json();
    let declared = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(&END_TO_END));
    assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    // Every declared workload is one the binary runs (it runs
    // `session-closed` too, which `BENCHMARK.json` leaves out).
    for w in spec.get("workloads").expect("workloads").items() {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

/// Runs every workload in short mode on three seeds: no unit fails, the
/// printed names are exactly `BENCHMARK.json`'s, and no end-to-end
/// metric is a constant multiple of another.
#[test]
fn short_runs_pass_and_print_the_declared_metrics() {
    for workload in Workload::ALL {
        let runs: Vec<Vec<(String, f64)>> = [11, 12, 13]
            .into_iter()
            .map(|seed| {
                let result = short_run(workload, seed, false);
                assert_clean(&result, workload.name());
                metrics(&result)
            })
            .collect();
        for run in &runs {
            let printed: Vec<String> = run.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(printed, names(&END_TO_END), "{workload:?}");
            assert!(run.iter().all(|(_, v)| *v > 0.0), "{workload:?}: {run:?}");
        }
        for i in 0..END_TO_END.len() {
            for j in i + 1..END_TO_END.len() {
                let ratios: Vec<f64> = runs.iter().map(|r| r[i].1 / r[j].1).collect();
                let constant = ratios
                    .iter()
                    .all(|q| ((q - ratios[0]) / ratios[0]).abs() < 1e-9);
                assert!(
                    !constant,
                    "{workload:?}: {} is a constant multiple of {} ({ratios:?})",
                    END_TO_END[i].name, END_TO_END[j].name
                );
            }
        }

        let traced = short_run(workload, 11, true);
        assert_clean(&traced, workload.name());
        let printed: Vec<String> = metrics(&traced).into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, names(&PER_LAYER), "{workload:?}");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
