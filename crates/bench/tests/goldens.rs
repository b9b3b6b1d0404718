//! The golden gate: every file under `results/` is regenerated in-process
//! and compared to the committed bytes.
//!
//! Each file must be claimed by exactly one generator — a figure of
//! [`FIGURES`] (`BENCH_<figure>.json`) or one artifact kind of one of its
//! cells — and a file nobody claims fails the walk, so an orphan cannot
//! sit in `results/` unchecked. Every value comes off the simulated
//! clock, so "equal" means equal bytes: there is no tolerance. One test
//! per figure and one per cell lets the harness run the independent
//! worlds concurrently and name the one that drifted.
//!
//! To move a golden on purpose: `plexus-bench all`, the `--emit` lines of
//! the README, then `git diff results/`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use plexus_bench::{artifact_file, Figure, FIGURES, KINDS};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Panics naming every `(file, fresh body)` that differs from its golden.
fn assert_goldens(fresh: &[(String, String)]) {
    let drifted: Vec<&str> = fresh
        .iter()
        .filter(|(file, body)| {
            let golden = fs::read(results().join(file));
            golden.unwrap_or_else(|e| panic!("results/{file}: {e}")) != body.as_bytes()
        })
        .map(|(file, _)| file.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "a fresh run no longer reproduces results/{}",
        drifted.join(", results/")
    );
}

fn figure(name: &str) {
    let figure = plexus_bench::figure(name).expect("a registered figure");
    let (_, report) = figure.run();
    assert_goldens(&[(figure.golden_file(), report.to_json() + "\n")]);
}

/// One replay, folded into every kind of it `results/` holds; and every
/// machine's books balance at the end of it, what reassembly still holds
/// counted as held.
fn cell(figure: &str, name: &str) {
    let cell = plexus_bench::cell(&format!("{figure}/{name}")).expect("a registered cell");
    let committed = |kind: &&str| results().join(artifact_file(name, kind)).is_file();
    let kinds: Vec<&str> = KINDS.iter().copied().filter(committed).collect();
    let seen = cell.observe(&kinds).expect("the cell folds");
    assert_eq!(seen.overwritten, 0, "{name}: the ring wrapped");
    assert_goldens(&seen.files);
    for (machine, books) in &seen.books {
        assert_eq!(books.balance(), 0, "{name}: {machine}: {books}");
    }
}

/// One test per figure in `mod figure`, one per cell in `mod scenario`,
/// and the nested list they were generated from.
macro_rules! one_test_per_entry {
    ($($figure:ident: [$($cell:ident),*],)*) => {
        mod figure {
            $(#[test]
            fn $figure() {
                super::figure(stringify!($figure));
            })*
        }
        mod scenario {
            $($(#[test]
            fn $cell() {
                super::cell(stringify!($figure), stringify!($cell));
            })*)*
        }
        const TESTED: &[(&str, &[&str])] = &[$((stringify!($figure), &[$(stringify!($cell)),*])),*];
    };
}

one_test_per_entry! {
    ablation: [],
    am_latency: [],
    client_video_cpu: [],
    fig5_udp_latency: [udp_rtt, udp_rtt_thread],
    fig6_video_cpu: [fig6_video],
    fig7_forwarding: [fig7_forwarding],
    guard_eval: [],
    guard_state: [],
    http_latency: [],
    sweeps: [],
    tab_tcp_throughput: [],
    txn_latency: [],
    overload: [overload, overload_coalesced],
    tx_overload: [tx_overload, tx_fanout],
}

#[test]
fn every_file_under_results_is_claimed_and_every_claimant_is_tested() {
    let registry: Vec<(&str, Vec<&str>)> = FIGURES
        .iter()
        .map(|f| (f.name, f.cells.iter().map(|c| c.name).collect()))
        .collect();
    let tested: Vec<(&str, Vec<&str>)> = TESTED.iter().map(|(f, c)| (*f, c.to_vec())).collect();
    assert_eq!(tested, registry, "a figure or cell without a golden test");

    let artifacts = FIGURES
        .iter()
        .flat_map(|f| f.cells)
        .flat_map(|c| KINDS.iter().map(|kind| artifact_file(c.name, kind)));
    let claimed: BTreeSet<String> = FIGURES
        .iter()
        .map(Figure::golden_file)
        .chain(artifacts)
        .collect();
    for entry in fs::read_dir(results()).expect("results/ exists") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_str().expect("utf-8 file name");
        assert!(
            claimed.contains(file),
            "results/{file} is written by no figure and no (cell, --emit kind): nothing \
             checks it, so delete it or register what generates it"
        );
    }
}
