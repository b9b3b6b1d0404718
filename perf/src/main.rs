//! `plexus-perf`: the host-clock benchmark of the Plexus reproduction. Runs
//! whole simulated worlds under the host clock and a counting allocator
//! (end-to-end metrics), or with `--trace 1` replays the same inputs with
//! spans on, at increasing depth and through each layer alone (per-layer
//! metrics). See `perf/README.md`.
#![deny(unsafe_code)]

mod alloc;
mod harness;
mod inputs;
mod kernels;
mod layers;
mod report;
mod slices;
mod spans;
mod stats;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::path::PathBuf;
use std::process::ExitCode;

use plexus_trace::json::{self, Value};

use harness::{Budget, Series};
use kernels::Metrics;
use report::{Spec, WorkloadResult};
use stats::percentile;

/// The simulated digest of every workload at full size for `seed`, pinned.
const EXPECTED_JSON: &str = include_str!("../expected.json");
const DEFAULT_SEED: u64 = 1;
/// `--smoke`: every workload at a hundredth of its size, two timed rounds.
const SMOKE_SHRINK: usize = 100;
const SMOKE_ROUNDS: usize = 2;

const USAGE: &str = "usage: plexus-perf [--workload W] [--seed N] [--rounds N | --seconds S] \
[--trace [0|1]] [--out DIR] [--smoke]
       plexus-perf compare A.json B.json
       plexus-perf digests [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    rounds: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        rounds: None,
        seconds: None,
        trace: false,
        out: PathBuf::from("perf/out"),
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rounds" => parsed.rounds = Some(number(value()?)?.max(1.0) as usize),
            "--seconds" => parsed.seconds = Some(number(value()?)?.max(0.0)),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("digests") => parse_args(&args[1..]).map(|a| {
            println!("{}", digests(a.seed));
            true
        }),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("plexus-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two result sets".into());
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let regressed = report::compare(&read(a)?, &read(b)?, &Spec::load())?;
    Ok(!regressed)
}

/// `expected.json` for `seed`: one full-size round of every workload.
fn digests(seed: u64) -> String {
    let lines: Vec<String> = workloads::all(1)
        .iter()
        .map(|w| {
            let (round, _) = harness::run_round(w, &w.input(seed));
            format!(
                "    \"{}\": \"{}\"",
                w.name,
                json::escape(&round.outcome.digest)
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"digests\": {{\n{}\n  }}\n}}",
        lines.join(",\n")
    )
}

/// The pinned digest of `workload`, if `expected.json` pins this seed.
fn pinned(seed: u64, workload: &str) -> Option<String> {
    let doc = json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
    if doc.get("seed").and_then(Value::as_u64) != Some(seed) {
        return None;
    }
    let digest = doc.get("digests")?.get(workload)?.as_str()?;
    Some(digest.to_string())
}

fn run(args: Args) -> Result<bool, String> {
    let spec = Spec::load();
    let shrink = if args.smoke { SMOKE_SHRINK } else { 1 };
    let chosen: Vec<_> = workloads::all(shrink)
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if chosen.is_empty() {
        return Err(format!(
            "unknown workload {:?}; known: {}",
            args.workload.unwrap_or_default(),
            spec.workloads.join(", ")
        ));
    }
    // A traced run splits its time: two fifths for untraced rounds (the
    // reference for the reconciliation and the diagnostics), up to a fifth
    // each for the traced rounds (ten at most), as many untraced ones beside
    // them, and the ladder; the kernels' work is fixed.
    let (timed, layered) = match (args.rounds, args.seconds) {
        (Some(n), _) => (Budget::rounds(n), Budget::rounds(n.min(10))),
        (None, Some(s)) if args.trace => (Budget::seconds(0.4 * s), Budget::seconds(0.2 * s)),
        (None, Some(s)) => (Budget::seconds(s), Budget::seconds(0.0)),
        (None, None) if args.smoke => (Budget::rounds(SMOKE_ROUNDS), Budget::rounds(SMOKE_ROUNDS)),
        (None, None) => (Budget::rounds(harness::DEFAULT_ROUNDS), Budget::rounds(10)),
    };

    let mut series: Vec<Series> = chosen
        .iter()
        .map(|w| Series::new(*w, w.input(args.seed)))
        .collect();
    harness::warm_up(&series);
    let oncpu_share = harness::run_set(&mut series, timed, !args.trace);
    if oncpu_share > 0.0 && oncpu_share < 0.95 {
        eprintln!("noisy: the timed set was on a CPU for {oncpu_share:.3} of its wall time");
    }

    let mut results = Vec::new();
    for s in &series {
        let name = s.workload.name;
        let pin = if args.smoke {
            None
        } else {
            pinned(args.seed, name)
        };
        let digest = &s.rounds[0].outcome.digest;
        if let Some(want) = pin.as_deref().filter(|want| want != digest) {
            eprintln!(
                "{name}: simulated digest differs from perf/expected.json\n  want: {want}\n  got:  {digest}"
            );
        }
        let (attempted, failed) = s.ops(pin.as_deref());
        let (metrics, spread) = if args.trace {
            let ledger = layers::Run {
                smoke: args.smoke,
                budget: layered,
                out_dir: &args.out,
                oncpu_share,
            };
            let m =
                layers::measure(s, &ledger).map_err(|e| format!("{}: {e}", args.out.display()))?;
            (m, Vec::new())
        } else {
            end_to_end(s)
        };
        eprintln!(
            "{name}: {} rounds, {failed} of {attempted} ops failed, {:.1} ns/pkt (whole rounds: p10 {:.1})",
            s.rounds.len(),
            s.host_ns_per_pkt().0,
            stats::p10(&s.ns_per_pkt())
        );
        results.push(WorkloadResult {
            name,
            attempted,
            failed,
            metrics,
            spread,
            digest: digest.clone(),
        });
    }

    let set = report::result_set_json(args.seed, args.trace, &results, &spec);
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join("results.json"), format!("{set}\n")))
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    // One workload: the contract's one-line object. Several: the result set.
    match &results[..] {
        [one] if args.workload.is_some() => println!("{}", one.contract_json(&spec)),
        _ => println!("{}", set.replace('\n', " ")),
    }
    Ok(results.iter().all(|r| r.failed == 0))
}

/// The end-to-end metrics of one workload and the half-set spreads of the
/// timed ones. The allocation and heap metrics are counts; they repeat
/// exactly wherever the program's own hashing does not vary them (see the
/// README on `udp_churn_64ep`), and the median over rounds is reported.
fn end_to_end(s: &Series) -> (Metrics, Metrics) {
    let median = |f: &dyn Fn(&harness::Round) -> f64| {
        percentile(&s.rounds.iter().map(f).collect::<Vec<f64>>(), 50.0)
    };
    let ((host_ns, host_spread), (setup_s, setup_spread)) = (s.host_ns_per_pkt(), s.setup_s());
    let metrics = vec![
        ("host_ns_per_pkt", host_ns),
        ("allocs_per_pkt", median(&|r| r.per_pkt(r.allocs))),
        ("alloc_bytes_per_pkt", median(&|r| r.per_pkt(r.alloc_bytes))),
        ("peak_heap_mb", median(&|r| r.peak_bytes as f64 / 1e6)),
        ("setup_s", setup_s),
    ];
    let spread = vec![("host_ns_per_pkt", host_spread), ("setup_s", setup_spread)];
    (metrics, spread)
}
