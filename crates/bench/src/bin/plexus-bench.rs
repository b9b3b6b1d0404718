//! `plexus-bench` — regenerate the paper's figures and tables, and replay
//! the traced worlds behind them.
//!
//! A name is a figure (`all`: every one, in registry order) or one of its
//! cells, `FIGURE/CELL`. A figure produces `report`: its human tables go
//! to stdout and its machine-readable report to `DIR/BENCH_<figure>.json`.
//! Its cells — or the one cell named — produce the other kinds: each cell
//! is replayed once with the flight recorder and the live tier on, and
//! every kind `--emit` names is folded from that one run. A target skips
//! the kinds it cannot produce.
//!
//! | kind       | file                          | what                                     |
//! |------------|-------------------------------|------------------------------------------|
//! | `report`   | `BENCH_<figure>.json`         | the figure's metrics (default)           |
//! | `trace`    | `<cell>.trace.json`           | Chrome `trace_event` JSON (Perfetto)     |
//! | `stats`    | `<cell>.stats.json`           | counters and latency histograms          |
//! | `profile`  | `<cell>.profile.json`         | cycle attribution, span trees, waterfall |
//! | `folded`   | `<cell>.folded`               | folded stacks for `flamegraph.pl`        |
//! | `timeline` | `<cell>.timeline.json`        | fixed simulated-time windows             |
//! | `journeys` | `<cell>.journeys.json`        | cross-machine per-hop ledgers            |
//! | `bench`    | `BENCH_timeline_<cell>.json`  | worst-window metrics                     |
//! | `health`   | `HEALTH_<cell>.json`          | per-window SLO verdicts                  |
//!
//! With `--stdout` the bodies are printed instead and nothing is written.
//! Every value comes off the simulated clock, so every file is
//! byte-identical across runs; the committed ones under `results/` are
//! held to that by `cargo test` (`crates/bench/tests/goldens.rs`).
//!
//! Exit code: 2 on a usage, write or internal error, 1 when `health` was
//! emitted and a sealed window of a cell breached its SLO, 0 otherwise.
//!
//! ```text
//! plexus-bench [--list] [--stdout] [-o DIR] [--emit KIND,...] NAME...|all
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::slice;

use plexus_bench::figures::{self, Cell, Figure, FIGURES, KINDS};

/// Every name the command line takes, with its help line.
fn names() -> impl Iterator<Item = (String, &'static str)> {
    FIGURES.iter().flat_map(|f| {
        let cells = f.cells.iter();
        let cells = cells.map(move |c| (format!("{}/{}", f.name, c.name), c.help));
        std::iter::once((f.name.to_string(), f.help)).chain(cells)
    })
}

fn usage() {
    eprintln!("usage: plexus-bench [--list] [--stdout] [-o DIR] [--emit KIND,...] NAME...|all");
    eprintln!();
    eprintln!("  NAME             a figure (its report and cells), or FIGURE/CELL");
    eprintln!("  -o DIR           write under DIR (default: results)");
    eprintln!("  --stdout         print the files' bodies instead; write nothing");
    eprintln!(
        "  --emit KIND,...  default report; any of report,{}",
        KINDS.join(",")
    );
    eprintln!("  --list           print every NAME");
    eprintln!();
    eprintln!("exit code: 2 usage/write/internal error, 1 SLO breach (with --emit health), else 0");
    eprintln!();
    for (name, help) in names() {
        eprintln!("  {name:<36} {help}");
    }
}

/// A figure (whose report may be asked for) and the cells a name selects.
type Target = (Option<&'static Figure>, &'static [Cell]);

struct Opts {
    out_dir: PathBuf,
    to_stdout: bool,
    report: bool,
    kinds: Vec<&'static str>,
    targets: Vec<Target>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        out_dir: PathBuf::from("results"),
        to_stdout: false,
        report: true,
        kinds: Vec::new(),
        targets: Vec::new(),
    };
    let figure = |f: &'static Figure| (Some(f), f.cells);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdout" => opts.to_stdout = true,
            "-o" => opts.out_dir = PathBuf::from(args.next().ok_or("-o needs a value")?),
            "--emit" => {
                (opts.report, opts.kinds) = (false, Vec::new());
                for kind in args.next().ok_or("--emit needs a value")?.split(',') {
                    if kind == "report" {
                        opts.report = true;
                        continue;
                    }
                    let known = KINDS.iter().find(|k| **k == kind);
                    opts.kinds
                        .push(known.ok_or(format!("unknown --emit kind {kind:?}"))?);
                }
            }
            "all" => opts.targets.extend(FIGURES.iter().map(figure)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => {
                let target = figures::find(name)
                    .map(figure)
                    .or_else(|| figures::cell(name).map(|c| (None, slice::from_ref(c))));
                opts.targets
                    .push(target.ok_or(format!("unknown name: {name} (try --list)"))?);
            }
        }
    }
    if opts.targets.is_empty() {
        return Err(String::from("no figure named"));
    }
    let produces = |(figure, cells): &Target| {
        figure.is_some() && opts.report || !cells.is_empty() && !opts.kinds.is_empty()
    };
    if !opts.targets.iter().any(produces) {
        return Err(String::from("no name given produces a kind asked for"));
    }
    Ok(opts)
}

/// Prints the bodies (`--stdout`) or writes the files; false on a failed
/// write.
fn emit(opts: &Opts, name: &str, files: &[(String, String)]) -> bool {
    for (file, body) in files {
        if opts.to_stdout {
            print!("{body}");
            continue;
        }
        let path = opts.out_dir.join(file);
        if let Err(e) = fs::write(&path, body) {
            eprintln!("{name}: write to {} failed: {e}", path.display());
            return false;
        }
        eprintln!("{name}: -> {}", path.display());
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        names().for_each(|(name, _)| println!("{name}"));
        return ExitCode::SUCCESS;
    }
    let opts = match parse(args.into_iter()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("plexus-bench: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    // Before anything runs: a bad `-o` should not cost a sweep.
    if !opts.to_stdout {
        if let Err(e) = fs::create_dir_all(&opts.out_dir) {
            eprintln!("plexus-bench: {}: {e}", opts.out_dir.display());
            return ExitCode::from(2);
        }
    }
    let mut breached = false;
    for (i, (figure, cells)) in opts.targets.iter().enumerate() {
        if let Some(figure) = figure.filter(|_| opts.report) {
            let (tables, report) = figure.run();
            if !opts.to_stdout {
                if i > 0 {
                    println!();
                }
                print!("{tables}");
            }
            let report = [(figure.golden_file(), report.to_json() + "\n")];
            if !emit(&opts, figure.name, &report) {
                return ExitCode::from(2);
            }
        }
        for cell in cells.iter().filter(|_| !opts.kinds.is_empty()) {
            let seen = match cell.observe(&opts.kinds) {
                Ok(seen) => seen,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let name = cell.name;
            eprintln!("{name}: {} records", seen.recorded);
            if seen.overwritten > 0 {
                eprintln!(
                    "{name}: WARNING: ring (capacity {}) wrapped — {} records overwritten: stats \
                     carry trace.truncated.records, early timeline windows UNDER-REPORT, and \
                     orphan packets are EXCLUDED from profile aggregates and journeys (rerun \
                     with a larger ring)",
                    cell.ring, seen.overwritten
                );
            }
            breached |= seen.breached;
            if !emit(&opts, name, &seen.files) {
                return ExitCode::from(2);
            }
        }
    }
    if breached {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
