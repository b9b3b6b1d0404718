//! `plexus-verify`'s output, pinned: stdout and the exact exit code of
//! `--explain` on every example spec (the rejected ones under `bad/`
//! included) and of `--lint-all examples/specs`. The files under
//! `tests/expected/` were captured before the verifier's two dataflow
//! passes became one, so they hold the verifier to the verdicts, bounds
//! and diagnostics it printed then.

use std::path::Path;
use std::process::Command;

/// Runs `plexus-verify args` from the workspace root (so printed paths
/// are the relative ones in the expected files) and renders the exit
/// code and stdout as one text.
fn run(args: &[&str]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_plexus-verify"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("plexus-verify runs");
    let code = out
        .status
        .code()
        .map_or("signal".to_string(), |c| c.to_string());
    format!("exit: {code}\n{}", String::from_utf8_lossy(&out.stdout))
}

#[test]
fn explain_and_lint_all_print_the_pinned_output() {
    macro_rules! expected {
        ($file:literal) => {
            ($file, include_str!(concat!("expected/", $file)))
        };
    }
    for ((file, expected), args) in [
        (
            expected!("ratelimit.explain"),
            &["--explain", "examples/specs/ratelimit.spec"][..],
        ),
        (
            expected!("video.explain"),
            &["--explain", "examples/specs/video.spec"],
        ),
        (
            expected!("bad-overbudget.explain"),
            &["--explain", "examples/specs/bad/overbudget.spec"],
        ),
        (
            expected!("bad-overstate.explain"),
            &["--explain", "examples/specs/bad/overstate.spec"],
        ),
        (
            expected!("bad-snooper.explain"),
            &["--explain", "examples/specs/bad/snooper.spec"],
        ),
        (expected!("lint-all"), &["--lint-all", "examples/specs"]),
    ] {
        let got = run(args);
        assert!(got == expected, "{file} drifted; got:\n{got}");
    }
}

/// A spec is outside input: one whose guard lowers to more instructions
/// than a `u16` jump spans is an ordinary rejection, not a panic.
#[test]
fn a_guard_too_long_for_the_ir_is_rejected_not_a_panic() {
    let values: Vec<String> = (0..70_000).map(|v| v.to_string()).collect();
    let spec = Path::new(env!("CARGO_TARGET_TMPDIR")).join("huge.spec");
    std::fs::write(
        &spec,
        format!(
            "name Huge\nguard-kind UdpRecv\nguard-test field UdpDstPort in {}\n",
            values.join(" ")
        ),
    )
    .expect("spec written");
    let got = run(&[spec.to_str().expect("utf-8 path")]);
    assert!(got.starts_with("exit: 1\n"), "{got}");
    // Ld, 69 999 Jeq, Jne, Accept, Reject.
    assert!(
        got.contains("program has 70003 instructions (limit 64)"),
        "{got}"
    );
}
