//! `plexus-bench` — regenerate the paper's figures and tables.
//!
//! Each figure named on the command line (`all`: every one, in registry
//! order) is run once; its human tables go to stdout and its
//! machine-readable report to `DIR/BENCH_<figure>.json`. With `--json`
//! the report is the only thing printed, one line per figure, and nothing
//! is written. Every value comes off the simulated clock, so both outputs
//! are byte-identical across runs; the committed reports under `results/`
//! are held to that by `cargo test` (`crates/bench/tests/goldens.rs`).
//!
//! Exit code: 2 on a usage error or a failed write, 0 otherwise.
//!
//! ```text
//! plexus-bench [--json] [-o DIR] FIGURE...|all
//! plexus-bench --list
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use plexus_bench::figures::{self, Figure, FIGURES};

fn usage() {
    eprintln!("usage: plexus-bench [--json] [-o DIR] FIGURE...|all");
    eprintln!("       plexus-bench --list");
    eprintln!();
    eprintln!("  -o DIR   write BENCH_<figure>.json under DIR (default: results)");
    eprintln!("  --json   print each report as one stdout line instead; write nothing");
    eprintln!();
    eprintln!("figures:");
    for f in FIGURES {
        eprintln!("  {:<18} {}", f.name, f.help);
    }
}

struct Opts {
    out_dir: PathBuf,
    json: bool,
    figures: Vec<&'static Figure>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        out_dir: PathBuf::from("results"),
        json: false,
        figures: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "-o" | "--out" => {
                let dir = args.next().ok_or(format!("{arg} needs a value"))?;
                opts.out_dir = PathBuf::from(dir);
            }
            "all" => opts.figures.extend(FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => {
                let figure = figures::find(name);
                opts.figures
                    .push(figure.ok_or(format!("unknown figure: {name} (try --list)"))?);
            }
        }
    }
    if opts.figures.is_empty() {
        return Err(String::from("no figure named"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        FIGURES.iter().for_each(|f| println!("{}", f.name));
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
    // Before any figure runs: a bad `-o` should not cost a sweep.
    if !opts.json {
        if let Err(e) = fs::create_dir_all(&opts.out_dir) {
            eprintln!("plexus-bench: {}: {e}", opts.out_dir.display());
            return ExitCode::from(2);
        }
    }
    for (i, figure) in opts.figures.iter().enumerate() {
        let (tables, report) = figure.run();
        let body = report.to_json() + "\n";
        if opts.json {
            print!("{body}");
            continue;
        }
        if i > 0 {
            println!();
        }
        print!("{tables}");
        let path = opts.out_dir.join(figure.golden_file());
        if let Err(e) = fs::write(&path, body) {
            eprintln!("{}: write to {} failed: {e}", figure.name, path.display());
            return ExitCode::from(2);
        }
        eprintln!("{}: -> {}", figure.name, path.display());
    }
    ExitCode::SUCCESS
}
