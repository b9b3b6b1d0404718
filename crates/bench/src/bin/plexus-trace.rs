//! `plexus-trace` — the observability CLI: replay a scenario once with
//! the flight recorder and the live tier on, and emit whichever artifacts
//! `--emit` names, all folded from that one run.
//!
//! | kind       | file                              | what                                   |
//! |------------|-----------------------------------|----------------------------------------|
//! | `trace`    | `<scenario>.trace.json`           | Chrome `trace_event` JSON (Perfetto)   |
//! | `stats`    | `<scenario>.stats.json`           | counters and latency histograms        |
//! | `profile`  | `<scenario>.profile.json`         | cycle attribution, span trees, waterfall |
//! | `folded`   | `<scenario>.folded`               | folded stacks for `flamegraph.pl`      |
//! | `timeline` | `<scenario>.timeline.json`        | fixed simulated-time windows           |
//! | `journeys` | `<scenario>.journeys.json`        | cross-machine per-hop ledgers          |
//! | `bench`    | `BENCH_timeline_<scenario>.json`  | worst-window metrics                   |
//! | `health`   | `HEALTH_<scenario>.json`          | per-window SLO verdicts                |
//!
//! Every timestamp comes from the simulated clock, so every file is
//! byte-identical across runs. Scenarios come from the registry in
//! [`plexus_bench::scenarios`]; the `examples/` prefix is accepted and
//! stripped, so `plexus-trace examples/udp_rtt` works.
//!
//! Exit code: 2 on a usage or internal error, 1 when `health` was emitted
//! and any sealed window breached its SLO, 0 otherwise. The threshold
//! flags override the scenario's declared SLO field by field, which is how
//! CI proves the health gate can fail.
//!
//! ```text
//! plexus-trace [-o DIR] [--stdout] [--emit KIND,...] [--window NS]
//!              [--p99-ceiling-ns N] [--drop-ppm N] [--goodput-floor N]
//!              [--skip-head N] SCENARIO...
//! plexus-trace --list
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use plexus_bench::scenarios::{self, Scenario, KINDS};
use plexus_trace::live::{LiveReport, Slo};

fn usage() {
    eprintln!("usage: plexus-trace [-o DIR] [--stdout] [--emit KIND,...] [--window NS]");
    eprintln!("                    [--p99-ceiling-ns N] [--drop-ppm N] [--goodput-floor N]");
    eprintln!("                    [--skip-head N] SCENARIO...");
    eprintln!("       plexus-trace --list");
    eprintln!();
    eprintln!("  -o DIR              write artifacts under DIR (default: .)");
    eprintln!("  --stdout            print the artifacts instead of writing them");
    eprintln!(
        "  --emit KIND,...     default trace,stats; any of {}",
        KINDS.join(",")
    );
    eprintln!("  --window NS         timeline window width (default: the scenario's)");
    eprintln!("  --p99-ceiling-ns N  breach any window whose p99 exceeds N ns");
    eprintln!("  --drop-ppm N        breach any window dropping more than N per million arrivals");
    eprintln!("  --goodput-floor N   breach any online-sealed window completing fewer than N");
    eprintln!("  --skip-head N       exempt the first N windows from the goodput floor");
    eprintln!();
    eprintln!("exit code: 2 usage/internal error, 1 SLO breach (with --emit health), else 0");
    eprintln!();
    eprintln!("scenarios:");
    scenario_lines().for_each(|line| eprintln!("  {line}"));
}

fn scenario_lines() -> impl Iterator<Item = String> {
    let line = |s: &Scenario| format!("{:<18} {}", s.name, s.help);
    scenarios::SCENARIOS.iter().map(line)
}

struct Opts {
    out_dir: PathBuf,
    to_stdout: bool,
    emit: Vec<&'static str>,
    window_ns: Option<u64>,
    p99_ceiling_ns: Option<u64>,
    drop_ppm: Option<u64>,
    goodput_floor: Option<u64>,
    skip_head: Option<u64>,
    scenarios: Vec<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        out_dir: PathBuf::from("."),
        to_stdout: false,
        emit: vec!["trace", "stats"],
        window_ns: None,
        p99_ceiling_ns: None,
        drop_ppm: None,
        goodput_floor: None,
        skip_head: None,
        scenarios: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg} needs a non-negative integer, got {v:?}"))
        };
        match arg.as_str() {
            "--stdout" => opts.to_stdout = true,
            "-o" | "--out" => opts.out_dir = PathBuf::from(value()?),
            "--emit" => {
                opts.emit.clear();
                for kind in value()?.split(',') {
                    let known = KINDS.iter().find(|k| **k == kind);
                    opts.emit
                        .push(known.ok_or(format!("unknown --emit kind {kind:?}"))?);
                }
            }
            "--window" => match number(value()?)? {
                0 => return Err(String::from("--window needs a positive nanosecond count")),
                ns => opts.window_ns = Some(ns),
            },
            "--p99-ceiling-ns" => opts.p99_ceiling_ns = Some(number(value()?)?),
            "--drop-ppm" => opts.drop_ppm = Some(number(value()?)?),
            "--goodput-floor" => opts.goodput_floor = Some(number(value()?)?),
            "--skip-head" => opts.skip_head = Some(number(value()?)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => opts.scenarios.push(arg),
        }
    }
    if opts.scenarios.is_empty() {
        return Err(String::from("no scenario named"));
    }
    Ok(opts)
}

/// Replays `scenario` once with the CLI's overrides applied to its
/// declared SLO, reports what the recorder held, and returns the
/// `(file name, body)` pairs and whether a sealed window breached (known
/// only with `health`).
fn observe(scenario: &Scenario, opts: &Opts) -> Result<(Vec<(String, String)>, bool), String> {
    let name = scenario.name;
    let base = scenario.declared_slo();
    let slo = Slo {
        p99_ceiling_ns: opts.p99_ceiling_ns.or(base.p99_ceiling_ns),
        drop_ppm_ceiling: opts.drop_ppm.or(base.drop_ppm_ceiling),
        goodput_floor: opts.goodput_floor.or(base.goodput_floor),
        skip_head: opts.skip_head.unwrap_or(base.skip_head),
    };
    let seen = scenario.observe(&opts.emit, opts.window_ns, &slo)?;
    eprintln!("{name}: {} records", seen.recorded);
    if seen.overwritten > 0 {
        eprintln!(
            "{name}: WARNING: ring (capacity {}) wrapped — {} records overwritten: stats carry \
             trace.truncated.records, early timeline windows UNDER-REPORT, and orphan packets \
             are EXCLUDED from profile aggregates and journeys (rerun with a larger ring)",
            scenario.ring, seen.overwritten
        );
    }
    if let Some(rep) = &seen.health {
        verdict_table(name, rep);
    }
    let breached = seen.health.is_some_and(|rep| !rep.breaches.is_empty());
    Ok((seen.files, breached))
}

/// The per-window verdict table on stderr, then the one-line tally.
fn verdict_table(name: &str, rep: &LiveReport) {
    eprintln!(
        "{name}: {:>6} {:>10} {:>12} {:>12} {:>8}  verdict",
        "window", "arrivals", "completions", "p99_ns", "drops"
    );
    for w in &rep.windows {
        let kinds = rep.breach_kinds(w.index);
        let verdict = if kinds.is_empty() {
            String::from("pass")
        } else {
            format!("BREACH {}", kinds.join("+"))
        };
        eprintln!(
            "{name}: {:>6} {:>10} {:>12} {:>12} {:>8}  {verdict}",
            w.index,
            w.arrivals,
            w.completions,
            w.p99_ns,
            w.drop_count()
        );
    }
    let breached: BTreeSet<u64> = rep.breaches.iter().map(|b| b.window).collect();
    eprintln!(
        "{name}: {} windows ({} online), {} breached, {} breaches total",
        rep.windows.len(),
        rep.windows_sealed_online,
        breached.len(),
        rep.breaches.len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        scenario_lines().for_each(|line| println!("{line}"));
        return ExitCode::SUCCESS;
    }
    let opts = match parse(args.into_iter()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("plexus-trace: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    let mut breached = false;
    for raw in &opts.scenarios {
        let Some(scenario) = scenarios::find(raw) else {
            eprintln!("unknown scenario: {raw} (try --list)");
            failed = true;
            continue;
        };
        let files = match observe(scenario, &opts) {
            Ok((files, breach)) => {
                breached |= breach;
                files
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
                continue;
            }
        };
        if opts.to_stdout {
            files.iter().for_each(|(_, body)| print!("{body}"));
            continue;
        }
        let written = fs::create_dir_all(&opts.out_dir).and_then(|()| {
            files
                .iter()
                .try_for_each(|(file, body)| fs::write(opts.out_dir.join(file), body))
        });
        let names: Vec<&str> = files.iter().map(|(file, _)| file.as_str()).collect();
        let (name, dir) = (scenario.name, opts.out_dir.display());
        match written {
            Ok(()) => eprintln!("{name}: -> {dir}: {}", names.join(" ")),
            Err(e) => {
                eprintln!("{name}: write to {dir} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else if breached {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
