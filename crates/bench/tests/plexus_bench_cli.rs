//! Process-level contract of `plexus-bench`, the one experiment CLI:
//! `--list` is the registry, one replay per cell however many kinds are
//! emitted, committed goldens reproduced byte for byte, `--stdout` prints
//! them and writes nothing, and the exit codes CI gates on.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use plexus_bench::figures::{self, FIGURES};

fn plexus_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plexus-bench"))
        .args(args)
        .output()
        .expect("plexus-bench runs")
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The cells a run replayed, from the one `<cell>: N records` line each
/// replay prints.
fn replays(out: &Output) -> Vec<String> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines = stderr.lines().filter(|l| l.ends_with(" records"));
    lines.map(String::from).collect()
}

#[test]
fn list_prints_exactly_the_registry_names() {
    let out = plexus_bench(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut names = Vec::new();
    for f in FIGURES {
        names.push(f.name.to_string());
        names.extend(f.cells.iter().map(|c| format!("{}/{}", f.name, c.name)));
    }
    assert_eq!(stdout.lines().collect::<Vec<_>>(), names);
}

#[test]
fn all_kinds_come_from_one_replay_and_match_the_goldens() {
    let dir = out_dir("all_kinds");
    let all = "trace,stats,profile,folded,timeline,journeys,bench,health";
    let target = "fig5_udp_latency/udp_rtt";
    let out = plexus_bench(&["-o", dir.to_str().unwrap(), "--emit", all, target]);
    assert_eq!(out.status.code(), Some(0), "udp_rtt meets its declared SLO");

    // The CLI reports what its recorder holds once per replay: a second
    // replay would print a second line, one into the same recorder would
    // double the count.
    let one_run = figures::cell(target).unwrap().run().recorded();
    assert_eq!(replays(&out), [format!("udp_rtt: {one_run} records")]);

    for golden in [
        "udp_rtt.profile.json",
        "udp_rtt.folded",
        "udp_rtt.timeline.json",
        "udp_rtt.journeys.json",
        "BENCH_timeline_udp_rtt.json",
    ] {
        let want = fs::read(results().join(golden)).expect("committed golden");
        let got = fs::read(dir.join(golden)).expect("emitted artifact");
        assert!(got == want, "{golden} drifted from the committed golden");
    }
    for other in [
        "udp_rtt.trace.json",
        "udp_rtt.stats.json",
        "HEALTH_udp_rtt.json",
    ] {
        assert!(dir.join(other).is_file(), "{other} not written");
    }
}

#[test]
fn a_figure_replays_each_of_its_cells_once() {
    let out = plexus_bench(&["--stdout", "--emit", "profile", "fig5_udp_latency"]);
    assert_eq!(out.status.code(), Some(0));
    let cells: Vec<String> = replays(&out)
        .iter()
        .map(|l| l.split(':').next().unwrap().to_owned())
        .collect();
    assert_eq!(cells, ["udp_rtt", "udp_rtt_thread"]);
}

#[test]
fn a_kind_is_the_same_bytes_alone_or_among_the_others() {
    let target = "fig5_udp_latency/udp_rtt";
    let stats = plexus_bench(&["--stdout", "--emit", "stats", target]);
    let both = plexus_bench(&["--stdout", "--emit", "timeline,stats", target]);
    assert!(stats.status.success() && both.status.success());
    assert!(!stats.stdout.is_empty());
    assert!(
        both.stdout.starts_with(&stats.stdout),
        "stats come first, unchanged"
    );
}

#[test]
fn stdout_prints_one_golden_line_per_figure_and_writes_nothing() {
    let cwd = out_dir("stdout_writes_nothing");
    fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_plexus-bench"))
        .args(["--stdout", "guard_eval", "client_video_cpu"])
        .current_dir(&cwd)
        .output()
        .expect("plexus-bench runs");
    assert_eq!(out.status.code(), Some(0));

    let golden = |file| fs::read(results().join(file)).expect("committed golden");
    let mut want = golden("BENCH_guard_eval.json");
    want.extend(golden("BENCH_client_video_cpu.json"));
    assert!(
        out.stdout == want,
        "stdout is not the two committed reports"
    );
    assert_eq!(out.stdout.iter().filter(|b| **b == b'\n').count(), 2);
    assert_eq!(
        fs::read_dir(&cwd).unwrap().count(),
        0,
        "--stdout wrote a file"
    );
}

#[test]
fn exit_codes_separate_breaches_from_errors() {
    // The per-packet `overload` cell livelocks by design and breaches its
    // declared goodput floor; only `health` turns that into the exit code.
    let breach = plexus_bench(&["--stdout", "--emit", "health", "overload/overload"]);
    assert_eq!(breach.status.code(), Some(1));
    let unjudged = plexus_bench(&["--stdout", "--emit", "stats", "overload/overload"]);
    assert_eq!(unjudged.status.code(), Some(0));
    let pass = plexus_bench(&["--stdout", "--emit", "health", "fig5_udp_latency/udp_rtt"]);
    assert_eq!(pass.status.code(), Some(0));
}

#[test]
fn usage_errors_and_failed_writes_exit_2() {
    // A regular file where the output directory should be.
    let blocker = Path::new(env!("CARGO_TARGET_TMPDIR")).join("not_a_directory");
    fs::write(&blocker, "").unwrap();
    let unwritable = blocker.join("results");
    for args in [
        &["no_such_figure"][..],
        &["guard_eval", "no_such_figure"],
        &["udp_rtt"],
        &["fig5_udp_latency/no_such_cell"],
        &["--emit", "trace,nope", "fig5_udp_latency/udp_rtt"],
        // Nothing to produce: no cells, or no report for a lone cell.
        &["--emit", "profile", "guard_eval"],
        &["--emit", "report", "fig5_udp_latency/udp_rtt"],
        &["--frobnicate", "guard_eval"],
        &["-o"],
        &["-o", unwritable.to_str().unwrap(), "guard_eval"],
        &[],
    ] {
        let out = plexus_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
