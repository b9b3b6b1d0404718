//! The regression gate can fail: `plexus-bench-diff` exits 0 on every
//! committed golden against itself and 1 once a copy drifts past a
//! tolerance, changes a count, or moves a worst window. The perturbations
//! are found in the parsed document, never by matching golden digits, so
//! regenerating a golden cannot turn this test into a no-op.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use plexus_trace::json::{self, escape, Value};

fn render(v: &Value) -> String {
    match v {
        Value::Null => String::from("null"),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Obj(members) => {
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), render(v)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
    }
}

fn member<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn metrics(doc: &mut Value) -> &mut Vec<Value> {
    match member(doc, "metrics") {
        Some(Value::Arr(metrics)) => metrics,
        _ => panic!("golden has no metrics array"),
    }
}

/// Pushes the first non-zero tolerance-checked field twice its `tol_pct`
/// away.
fn drift_past_tolerance(doc: &mut Value) -> bool {
    for m in metrics(doc) {
        let tol = m.get("tol_pct").and_then(Value::as_f64).expect("tol_pct");
        for field in ["mean_us", "p50_us", "p99_us", "value"] {
            if let Some(Value::Num(n)) = member(m, field) {
                if *n != 0.0 {
                    *n *= 1.0 + 2.0 * tol.max(0.5) / 100.0;
                    return true;
                }
            }
        }
    }
    false
}

fn bump_a_count(doc: &mut Value) -> bool {
    match member(doc, "counts") {
        Some(Value::Obj(counts)) => match counts.first_mut() {
            Some((_, Value::Num(n))) => {
                *n += 1.0;
                true
            }
            _ => false,
        },
        _ => false,
    }
}

fn move_a_window(doc: &mut Value) -> bool {
    for m in metrics(doc) {
        if let Some(Value::Num(w)) = member(m, "window") {
            *w += 1.0;
            return true;
        }
    }
    false
}

/// Perturbs a parsed report; `false` when it has no field of that kind.
type Perturb = fn(&mut Value) -> bool;

fn gate_exit(golden: &Path, fresh: &Path) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_plexus-bench-diff"))
        .arg("--quiet")
        .args([golden, fresh])
        .output()
        .expect("plexus-bench-diff runs");
    out.status.code().expect("exit code")
}

#[test]
fn gate_passes_every_golden_and_fails_each_kind_of_regression() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let perturbations: [(&str, Perturb); 3] = [
        ("tolerance", drift_past_tolerance),
        ("count", bump_a_count),
        ("window", move_a_window),
    ];
    let mut exercised = [0usize; 3];
    let mut goldens = 0;
    for entry in fs::read_dir(&results).expect("results/ exists") {
        let golden = entry.expect("dir entry").path();
        let file = golden.file_name().unwrap().to_str().unwrap().to_owned();
        if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
            continue;
        }
        goldens += 1;
        assert_eq!(
            gate_exit(&golden, &golden),
            0,
            "{file} fails against itself"
        );
        let doc = json::parse(&fs::read_to_string(&golden).unwrap()).expect("golden parses");
        for (i, (kind, perturb)) in perturbations.iter().enumerate() {
            let mut fresh = doc.clone();
            if !perturb(&mut fresh) {
                continue; // this golden has no field of that kind
            }
            exercised[i] += 1;
            let path = tmp.join(format!("{kind}_{file}"));
            fs::write(&path, render(&fresh)).expect("write perturbed copy");
            assert_eq!(
                gate_exit(&golden, &path),
                1,
                "{file}: missed a {kind} regression"
            );
        }
    }
    assert!(
        goldens >= 19,
        "only {goldens} goldens found under {results:?}"
    );
    assert!(
        exercised.iter().all(|&n| n > 0),
        "kinds exercised: {exercised:?}"
    );
}
