//! `BENCHMARK.json` at the repository root must describe this package:
//! the same workloads, the same metrics with the same units, directions
//! and bounds.

use sionbench::json::{self, Value};
use sionbench::{metrics, workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string member {key}"))
}

#[test]
fn lists_exactly_the_contract_keys() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<_> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<_> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn workloads_match_the_specs() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let specs = workload::specs();
    let expect: Vec<(&str, &str)> = specs.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, expect);
    assert!(listed
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

#[test]
fn metrics_match_the_tables() {
    let doc = benchmark_json();
    for (key, table) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let listed = doc.get(key).unwrap().items();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(
                entry.members().len(),
                if def.bound.is_some() { 4 } else { 3 },
                "{}",
                def.name
            );
        }
    }
    assert!(metrics::END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}
