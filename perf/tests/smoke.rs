//! Drives the built binary at `--smoke` size (every workload at a hundredth,
//! two timed rounds): the metric names and units it prints are exactly those
//! `BENCHMARK.json` lists, allocation counts repeat across processes, and the
//! traced run's spans nest.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use plexus_trace::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 5] = [
    "udp_echo_1ep",
    "udp_demux_256ep",
    "udp_churn_64ep",
    "tcp_bulk_4mb",
    "traced_export",
];

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `plexus-perf` with `args`; returns its exit code and the last line of
/// its standard output, parsed.
fn perf(args: &[&str]) -> (i32, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_plexus-perf"))
        .args(args)
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout
        .lines()
        .last()
        .map(|l| json::parse(l).expect("the last line is JSON"));
    (out.status.code().expect("an exit code"), last)
}

fn members(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(members) => members,
        other => panic!("not an object: {other:?}"),
    }
}

/// (name, unit) of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> BTreeSet<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();
    doc.get(key)
        .and_then(Value::as_arr)
        .expect(key)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn emitted(result: &Value) -> BTreeSet<(String, String)> {
    members(result.get("metrics").expect("metrics"))
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name}: no value"
            );
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("every metric has a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_emits_exactly_the_listed_metrics_and_nests_its_spans() {
    for (trace, key, dir) in [
        ("0", "end_to_end", "smoke-e2e"),
        ("1", "per_layer", "smoke-layers"),
    ] {
        let out = out_dir(dir);
        let (code, set) = perf(&["--smoke", "--trace", trace, "--out", out.to_str().unwrap()]);
        assert_eq!(code, 0, "--trace {trace}");
        let set = set.expect("a result set");
        let workloads = set.get("workloads").expect("workloads");
        let names: Vec<&str> = members(workloads).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        for (name, result) in members(workloads) {
            assert_eq!(emitted(result), listed(key), "{name} --trace {trace}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{name}"
            );
        }
        let saved = std::fs::read_to_string(out.join("results.json")).expect("results.json");
        assert_eq!(json::parse(saved.trim()).expect("valid JSON"), set);
    }

    // The traced run left one span file per workload; every child lies inside its parent.
    for name in WORKLOADS {
        let path = out_dir("smoke-layers").join(format!("{name}.spans.json"));
        let doc =
            json::parse(&std::fs::read_to_string(&path).expect("a span file")).expect("valid JSON");
        assert_eq!(
            doc.get("dropped").and_then(Value::as_u64),
            Some(0),
            "{name}"
        );
        let spans: Vec<Vec<f64>> = doc
            .get("spans")
            .and_then(Value::as_arr)
            .expect("spans")
            .iter()
            .map(|s| {
                s.as_arr()
                    .expect("a row")
                    .iter()
                    .map(|v| v.as_f64().expect("a number"))
                    .collect()
            })
            .collect();
        assert!(spans.len() > 4, "{name}: {} spans", spans.len());
        for s in &spans {
            let (start, end, parent) = (s[1], s[2], s[3]);
            assert!(start <= end, "{name}");
            if parent >= 0.0 {
                let p = &spans[parent as usize];
                assert!(p[1] <= start && end <= p[2], "{name}: {s:?} outside {p:?}");
            }
        }
    }
}

#[test]
fn one_workload_prints_the_four_contract_keys() {
    let out = out_dir("smoke-one");
    let (code, line) = perf(&[
        "--workload",
        "udp_demux_256ep",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let line = line.expect("a result");
    let keys: Vec<&str> = members(&line).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(emitted(&line), listed("end_to_end"));

    let (code, line) = perf(&["--workload", "no_such_workload", "--smoke"]);
    assert_eq!(
        (code, line),
        (2, None),
        "an unknown workload prints no result"
    );
}

#[test]
fn allocation_counts_repeat_across_processes() {
    // Not `udp_churn_64ep`: there `HashMap`'s per-process random keys decide
    // when tables rehash, so its counts move by a few calls in ten thousand.
    for name in [
        "udp_echo_1ep",
        "udp_demux_256ep",
        "tcp_bulk_4mb",
        "traced_export",
    ] {
        let run = |dir: &str| {
            let out = out_dir(dir);
            let (code, line) = perf(&[
                "--workload",
                name,
                "--smoke",
                "--out",
                out.to_str().unwrap(),
            ]);
            assert_eq!(code, 0, "{name}");
            let metrics = line
                .expect("a result")
                .get("metrics")
                .expect("metrics")
                .clone();
            ["allocs_per_pkt", "alloc_bytes_per_pkt", "peak_heap_mb"].map(|m| {
                metrics
                    .get(m)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .expect(m)
            })
        };
        let (first, second) = (run("smoke-alloc-a"), run("smoke-alloc-b"));
        assert_eq!(first, second, "{name}");
        assert!(first.iter().all(|v| *v > 0.0), "{name}: {first:?}");
    }
}
