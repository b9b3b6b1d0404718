//! Results as JSON, and `compare`: `BENCHMARK.json`'s bounds applied to two
//! result sets.
//!
//! `BENCHMARK.json` (compiled in) is the one list of metric names, units,
//! directions and bounds: a metric this program emits without an entry there
//! is a bug, which the smoke test catches.

use std::fmt::Write as _;

use plexus_trace::json::{self, Value};

use crate::kernels::Metrics;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's value an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}` list"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|v| MetricSpec {
                    name: text(v, "name"),
                    unit: text(v, "unit"),
                    lower_is_better: text(v, "better") == "lower",
                    bound: v.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: list("workloads").iter().map(|v| text(v, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
            .unwrap_or_else(|| panic!("metric `{name}` is not listed in BENCHMARK.json"))
    }
}

/// What one workload's run reports.
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Half-set spread of the timed metrics (exact metrics have none).
    pub spread: Metrics,
    pub digest: String,
}

impl WorkloadResult {
    /// The one-line object the benchmark contract asks for: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_json(&self, spec: &Spec) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "{}: {name} is {value}", self.name);
            let sep = if i == 0 { "" } else { ", " };
            let unit = spec.unit(name);
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// A result set: what one invocation measured, one entry per workload. This
/// is what `<out>/results.json` holds and what `compare` reads.
pub fn result_set_json(seed: u64, trace: bool, results: &[WorkloadResult], spec: &Spec) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"trace\": {trace}, \"workloads\": {{");
    for (i, r) in results.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let contract = r.contract_json(spec);
        let spread: Vec<String> = r
            .spread
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        write!(
            out,
            "{sep}\n\"{}\": {}, \"spread\": {{{}}}, \"digest\": \"{}\"}}",
            r.name,
            contract.strip_suffix('}').expect("an object"),
            spread.join(", "),
            json::escape(&r.digest)
        )
        .expect("writing to a String");
    }
    out.push_str("\n}}");
    out
}

/// One row of `compare`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// The sets' own spread exceeds the bound, so the pair decides nothing.
    Unresolved,
    Regression,
}

/// Holds `b` against `a` under `bound`. `worse` is the signed share by which
/// `b` is worse than `a`; `spread` the larger of the two sets' spreads.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// `v` to five significant digits, whatever its magnitude (`setup_s` is tens
/// of microseconds, `alloc_bytes_per_pkt` tens of thousands).
fn five_digits(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (4 - magnitude).max(0) as usize)
}

/// Prints one row per (workload, end-to-end metric) of result sets `a` and
/// `b`, plus a `failed_ratio` row per workload (absolute bound 0). Returns
/// whether any row is a regression.
pub fn compare(a: &str, b: &str, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (json::parse(a)?, json::parse(b)?);
    let workload =
        |doc: &Value, name: &str| doc.get("workloads").and_then(|w| w.get(name)).cloned();
    let value = |w: &Value, metric: &str| {
        w.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    };
    let spread = |w: &Value, metric: &str| {
        w.get("spread")
            .and_then(|s| s.get(metric))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let failed_ratio = |w: &Value| -> Option<f64> {
        Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
    };
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    let (mut regressed, mut rows) = (false, 0);
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            continue;
        };
        let mut row = |metric: &str, va: f64, vb: f64, worse: f64, spread: f64, bound: f64| {
            let v = verdict(worse, spread, bound);
            regressed |= v == Verdict::Regression;
            rows += 1;
            println!(
                "{name:<16} {metric:<20} {:>14} {:>14} {:>+7.2}% {:>6.2}% {:>5.1}%  {}",
                five_digits(va),
                five_digits(vb),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (value(&wa, &m.name), value(&wb, &m.name)) else {
                continue;
            };
            let sign = if m.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let spread = spread(&wa, &m.name).max(spread(&wb, &m.name));
            row(&m.name, va, vb, worse, spread, m.bound.unwrap_or(0.0));
        }
        if let (Some(fa), Some(fb)) = (failed_ratio(&wa), failed_ratio(&wb)) {
            row("failed_ratio", fa, fb, fb - fa, 0.0, 0.0);
        }
    }
    if rows == 0 {
        return Err("the two result sets share no workload with end-to-end metrics".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_print_to_five_significant_digits() {
        assert_eq!(five_digits(0.0000371918), "0.000037192");
        assert_eq!(five_digits(35119.2658), "35119");
        assert_eq!(five_digits(35.047075), "35.047");
        assert_eq!(five_digits(0.0), "0.0000");
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.05, 0.01, 0.08), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.01, 0.08), Verdict::Ok, "an improvement");
        assert_eq!(verdict(0.09, 0.01, 0.08), Verdict::Regression);
        assert_eq!(verdict(0.09, 0.10, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(0.0, 0.0, 0.0), Verdict::Ok, "exact metrics, equal");
        assert_eq!(verdict(1e-9, 0.0, 0.0), Verdict::Regression);
    }

    fn result(host_ns: f64, failed: u64) -> WorkloadResult {
        WorkloadResult {
            name: "udp_echo_1ep",
            attempted: 10,
            failed,
            metrics: vec![("host_ns_per_pkt", host_ns), ("allocs_per_pkt", 35.0)],
            spread: vec![("host_ns_per_pkt", 0.01)],
            digest: "sim_ns=1 \"quoted\"".into(),
        }
    }

    #[test]
    fn compare_reads_back_what_the_run_writes() {
        let spec = Spec::load();
        let set = |host_ns, failed| result_set_json(1, false, &[result(host_ns, failed)], &spec);
        let base = set(2000.0, 0);
        json::validate(&base).expect("a result set is valid JSON");
        let bound = spec.end_to_end[0]
            .bound
            .expect("host_ns_per_pkt is bounded");
        let worse_by = |share: f64| set(2000.0 * (1.0 + share), 0);
        assert_eq!(
            compare(&base, &worse_by(bound - 0.02), &spec),
            Ok(false),
            "inside the bound"
        );
        assert_eq!(
            compare(&base, &worse_by(bound + 0.02), &spec),
            Ok(true),
            "beyond it"
        );
        assert_eq!(compare(&base, &set(1500.0, 0), &spec), Ok(false));
        assert_eq!(
            compare(&base, &set(2000.0, 1), &spec),
            Ok(true),
            "a new failure"
        );
        assert!(compare(&base, "{\"workloads\": {}}", &spec).is_err());
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = result(2000.5, 0).contract_json(&Spec::load());
        let Value::Obj(members) = json::parse(&line).expect("valid JSON") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"host_ns_per_pkt\": {\"value\": 2000.5, \"unit\": \"ns\"}"));
    }
}
