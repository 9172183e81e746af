//! `BENCHMARK.json` says what the harness does, within the driver's limits.

use std::collections::BTreeSet;

use ldc_benchmark::json::Json;
use ldc_benchmark::spec::{contract, METRICS, WORKLOADS};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(json: &Json) -> Vec<&str> {
    json.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .expect("a string member")
}

#[test]
fn the_committed_file_is_the_harness_contract() {
    let file = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
    assert_eq!(
        file,
        contract(),
        "regenerate with `ldc-benchmark contract > BENCHMARK.json`"
    );
}

#[test]
fn the_contract_is_within_the_driver_limits() {
    assert!(CONTRACT.len() <= 64 << 10);
    let file = contract();
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| file.get(key).and_then(Json::as_arr).expect("an array");

    let command: Vec<&str> = list("command").iter().filter_map(Json::as_str).collect();
    assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
    assert!(command
        .iter()
        .all(|s| !s.starts_with('/') && !s.contains("..")));
    assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    let seconds = file
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("a number");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(text(w, "name")), "{w:?}");
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(names.insert(text(w, "name")), "{w:?} is used twice");
    }
    assert_eq!(
        workloads
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Vec<_>>(),
        WORKLOADS.map(|w| w.name)
    );

    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));

    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(
            is_name(text(m, "name")) && is_unit(text(m, "unit")),
            "{m:?}"
        );
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
        assert!(names.insert(text(m, "name")), "{m:?} is used twice");
    }
    assert_eq!(end_to_end.len() + per_layer.len(), METRICS.len());
}
