//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads the binary runs and the metrics every run prints, with the
//! units it prints them in.

use bsld_metrics::Json;
use perfbench::out::{EndToEnd, Layers};
use perfbench::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `(name, unit)` pairs of manifest list `key`.
fn listed(m: &Json, key: &str) -> Vec<(String, String)> {
    m.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_every_workload() {
    let names: Vec<String> = listed(&manifest(), "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn manifest_lists_the_printed_metrics() {
    let m = manifest();
    assert_eq!(
        listed(&m, "end_to_end"),
        printed(&EndToEnd::default().metrics())
    );
    assert_eq!(
        listed(&m, "per_layer"),
        printed(&Layers::default().metrics())
    );
}
