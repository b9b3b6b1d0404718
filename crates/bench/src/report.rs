//! Machine-readable benchmark output.
//!
//! Every figure in [`crate::figures`] fills a [`BenchReport`] alongside
//! its human table; `plexus-bench` writes it to
//! `results/BENCH_<name>.json` — the canonical committed output (human
//! tables go to stdout at run time and are not committed). Values come
//! from the simulated clock, so the bytes are identical across runs and
//! `crates/bench/tests/goldens.rs` compares them to the committed files
//! byte for byte.

use plexus_trace::json;
use plexus_trace::timeline::percentile;

/// Quotes and escapes `s` as a JSON string literal.
fn q(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// One measured quantity. Sample-based metrics carry mean/p50/p99 in
/// simulated microseconds; scalar metrics carry a single value.
#[derive(Default)]
struct Metric {
    name: String,
    /// `(mean, p50, p99)` in µs for sample-based metrics.
    latency: Option<(f64, f64, f64)>,
    /// Sample count behind `latency` (0 for scalar metrics).
    samples: u64,
    /// Scalar value + unit, e.g. CPU utilization in percent.
    scalar: Option<(f64, &'static str)>,
    /// For worst-window metrics: the timeline window index the value came
    /// from — in a deterministic simulation a shifted worst window is a
    /// behaviour change.
    window: Option<u64>,
}

/// A machine-readable benchmark result.
pub struct BenchReport {
    name: String,
    metrics: Vec<Metric>,
    counts: Vec<(String, u64)>,
}

impl BenchReport {
    /// Starts a report for the figure (or worst-window fold) `name`.
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            metrics: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Adds a latency metric from per-event samples in simulated ns.
    pub fn latency_from_ns(&mut self, name: &str, samples_ns: &[u64]) {
        assert!(!samples_ns.is_empty(), "metric {name} has no samples");
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
        self.metrics.push(Metric {
            name: name.to_string(),
            latency: Some((
                mean / 1000.0,
                percentile(&sorted, 50.0) as f64 / 1000.0,
                percentile(&sorted, 99.0) as f64 / 1000.0,
            )),
            samples: sorted.len() as u64,
            ..Metric::default()
        });
    }

    /// Adds a single-valued latency (benches that only compute a mean).
    pub fn latency_us(&mut self, name: &str, mean_us: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            latency: Some((mean_us, mean_us, mean_us)),
            samples: 1,
            ..Metric::default()
        });
    }

    /// Adds a scalar metric with an explicit unit (e.g. `"percent"`,
    /// `"mbit_s"`).
    pub fn scalar(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            scalar: Some((value, unit)),
            ..Metric::default()
        });
    }

    /// Adds a worst-window metric: a scalar plus the timeline window
    /// index it was observed in, so a regression that merely *moves* the
    /// transient (without changing its magnitude) still changes the file.
    pub fn scalar_windowed(&mut self, name: &str, value: f64, unit: &'static str, window: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            scalar: Some((value, unit)),
            window: Some(window),
            ..Metric::default()
        });
    }

    /// Adds an event count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Renders the report as JSON (deterministic: fixed key order, fixed
    /// 3-decimal formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"bench\": {}", q(&self.name)));
        out.push_str(", \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"name\": {}", q(&m.name)));
            if let Some((mean, p50, p99)) = m.latency {
                out.push_str(&format!(
                    ", \"mean_us\": {mean:.3}, \"p50_us\": {p50:.3}, \"p99_us\": {p99:.3}, \"samples\": {}",
                    m.samples
                ));
            }
            if let Some((value, unit)) = m.scalar {
                out.push_str(&format!(", \"value\": {value:.3}, \"unit\": {}", q(unit)));
            }
            if let Some(w) = m.window {
                out.push_str(&format!(", \"window\": {w}"));
            }
            out.push('}');
        }
        out.push_str("], \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {value}", q(name)));
        }
        out.push_str("}}");
        debug_assert!(json::validate(&out).is_ok(), "report JSON malformed");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let mut r = BenchReport::new("unit_test");
        r.latency_from_ns("rtt", &[1_000, 2_000, 3_000, 400_000]);
        r.scalar("cpu", 42.5, "percent");
        r.count("rounds", 4);
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        json::validate(&a).expect("valid JSON");
        assert!(a.contains("\"bench\": \"unit_test\""));
        assert!(a.contains("\"p99_us\": 400.000"));
        assert!(a.contains("\"rounds\": 4"));
    }
}
