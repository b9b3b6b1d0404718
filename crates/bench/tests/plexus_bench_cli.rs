//! Process-level contract of `plexus-bench`, the one figure CLI: `--list`
//! is the registry, `--json` prints the committed report bytes and nothing
//! else, and usage errors and failed writes exit 2.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use plexus_bench::figures::FIGURES;

fn plexus_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plexus-bench"))
        .args(args)
        .output()
        .expect("plexus-bench runs")
}

#[test]
fn list_prints_exactly_the_registry_names() {
    let out = plexus_bench(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), names);
}

#[test]
fn json_prints_one_golden_line_per_figure_and_writes_nothing() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_writes_nothing");
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_plexus-bench"))
        .args(["--json", "guard_eval", "client_video_cpu"])
        .current_dir(&cwd)
        .output()
        .expect("plexus-bench runs");
    assert_eq!(out.status.code(), Some(0));

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let golden = |file| fs::read(results.join(file)).expect("committed golden");
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
        "--json wrote a file"
    );
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
