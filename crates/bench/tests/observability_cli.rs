//! Process-level contract of `plexus-trace`, the one observability CLI:
//! one replay per scenario however many kinds are emitted, committed
//! goldens reproduced byte for byte, and the exit codes CI gates on.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use plexus_bench::scenarios;

fn plexus_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plexus-trace"))
        .args(args)
        .output()
        .expect("plexus-trace runs")
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn all_kinds_come_from_one_replay_and_match_the_goldens() {
    let dir = out_dir("all_kinds");
    let all = "trace,stats,profile,folded,timeline,journeys,bench,health";
    let out = plexus_trace(&["-o", dir.to_str().unwrap(), "--emit", all, "udp_rtt"]);
    assert_eq!(out.status.code(), Some(0), "udp_rtt meets its declared SLO");

    // The CLI reports what its recorder holds once per replay: a second
    // replay would print a second line, one into the same recorder would
    // double the count.
    let one_run = scenarios::find("udp_rtt").unwrap().run().recorded();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let replays: Vec<&str> = stderr.lines().filter(|l| l.ends_with(" records")).collect();
    assert_eq!(replays, [format!("udp_rtt: {one_run} records")]);

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for golden in [
        "udp_rtt.profile.json",
        "udp_rtt.folded",
        "udp_rtt.timeline.json",
        "udp_rtt.journeys.json",
        "BENCH_timeline_udp_rtt.json",
    ] {
        let want = fs::read(results.join(golden)).expect("committed golden");
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
fn a_kind_is_the_same_bytes_alone_or_among_the_others() {
    let stats = plexus_trace(&["--stdout", "--emit", "stats", "udp_rtt"]);
    let both = plexus_trace(&["--stdout", "--emit", "timeline,stats", "udp_rtt"]);
    assert!(stats.status.success() && both.status.success());
    assert!(!stats.stdout.is_empty());
    assert!(
        both.stdout.starts_with(&stats.stdout),
        "stats come first, unchanged"
    );
}

#[test]
fn exit_codes_separate_breaches_from_errors() {
    let dir = out_dir("exit_codes");
    let dir = dir.to_str().unwrap();
    // An impossible p99 ceiling breaches every window with a completion;
    // only `health` turns that into the exit code.
    let tight = ["--p99-ceiling-ns", "1", "udp_rtt"];
    let breach = plexus_trace(&[&["-o", dir, "--emit", "health"], &tight[..]].concat());
    assert_eq!(breach.status.code(), Some(1));
    let unjudged = plexus_trace(&[&["-o", dir, "--emit", "stats"], &tight[..]].concat());
    assert_eq!(unjudged.status.code(), Some(0));

    for usage_error in [
        &["--emit", "trace,nope", "udp_rtt"][..],
        &["--window", "0", "udp_rtt"],
        &["--skip-head", "minus-one", "udp_rtt"],
        &["--frobnicate", "udp_rtt"],
        &["-o"],
        &["-o", dir, "no_such_scenario"],
        &[],
    ] {
        let out = plexus_trace(usage_error);
        assert_eq!(out.status.code(), Some(2), "{usage_error:?}");
    }

    // A window width that would need a dense window per nanosecond of the
    // run is refused — it used to abort on a multi-gigabyte allocation —
    // and the message names the smallest width that is accepted.
    let narrow = plexus_trace(&["--stdout", "--emit", "timeline", "--window", "1", "udp_rtt"]);
    assert_eq!(narrow.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&narrow.stderr);
    let accepted: u64 = stderr
        .split("smallest accepted width is ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no width named in {stderr:?}"));
    let below = (accepted - 1).to_string();
    let refused = plexus_trace(&[
        "--stdout", "--emit", "timeline", "--window", &below, "udp_rtt",
    ]);
    assert_eq!(refused.status.code(), Some(2), "{below} ns must be refused");
}
