//! The golden gate: every file under `results/` is regenerated in-process
//! and compared to the committed bytes.
//!
//! Each file must be claimed by exactly one generator — a figure of
//! [`FIGURES`] (`BENCH_<figure>.json`) or one artifact kind of one
//! scenario of [`SCENARIOS`] — and a file nobody claims fails the walk, so
//! an orphan cannot sit in `results/` unchecked. Every value comes off the
//! simulated clock, so "equal" means equal bytes: there is no tolerance.
//! One test per registry entry lets the harness run the independent
//! worlds concurrently and name the entry that drifted.
//!
//! To move a golden on purpose: `plexus-bench all`, the two
//! `plexus-trace -o results --emit ...` lines of the README, then
//! `git diff results/`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use plexus_bench::figures::{self, Figure, FIGURES};
use plexus_bench::scenarios::{self, artifact_file, KINDS, SCENARIOS};

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
    let figure = figures::find(name).expect("a registered figure");
    let (_, report) = figure.run();
    assert_goldens(&[(figure.golden_file(), report.to_json() + "\n")]);
}

/// One replay, folded into every kind of it `results/` holds.
fn scenario(name: &str) {
    let scenario = scenarios::find(name).expect("a registered scenario");
    let committed = |kind: &&str| results().join(artifact_file(name, kind)).is_file();
    let kinds: Vec<&str> = KINDS.iter().copied().filter(committed).collect();
    let seen = scenario
        .observe(&kinds, None, &scenario.declared_slo())
        .expect("the scenario folds");
    assert_eq!(seen.overwritten, 0, "{name}: the ring wrapped");
    assert_goldens(&seen.files);
}

macro_rules! one_test_per_entry {
    ($check:ident: $($name:ident,)*) => {
        $(#[test]
        fn $name() {
            super::$check(stringify!($name));
        })*
        pub const TESTED: &[&str] = &[$(stringify!($name)),*];
    };
}

mod figure {
    one_test_per_entry! { figure:
        ablation, am_latency, client_video_cpu, fig5_udp_latency, fig6_video_cpu,
        fig7_forwarding, guard_eval, guard_state, http_latency, sweeps, tab_tcp_throughput,
        txn_latency, overload, tx_overload,
    }
}

mod scenario {
    one_test_per_entry! { scenario:
        udp_rtt, udp_rtt_thread, fig6_video, fig7_forwarding, overload, overload_coalesced,
        tx_overload, tx_fanout,
    }
}

#[test]
fn every_file_under_results_is_claimed_and_every_claimant_is_tested() {
    let figures: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let scenarios: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(figure::TESTED, figures, "a figure without a golden test");
    assert_eq!(
        scenario::TESTED,
        scenarios,
        "a scenario without a golden test"
    );

    let artifacts = scenarios
        .iter()
        .flat_map(|s| KINDS.iter().map(move |kind| artifact_file(s, kind)));
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
            "results/{file} is written by no figure and no (scenario, --emit kind): nothing \
             checks it, so delete it or register what generates it"
        );
    }
}
