//! Every figure binary honours the `--json` contract CI and
//! `plexus-bench-diff` rely on: whatever tables and prose it prints, the
//! *last* stdout line is the machine-readable report.

use std::process::Command;

use plexus_trace::json::{self, Value};

fn last_line_is_the_report(exe: &str) {
    let out = Command::new(exe)
        .arg("--json")
        .output()
        .expect("bench binary runs");
    assert!(out.status.success(), "{exe} failed: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("some output");
    let report = json::parse(last).unwrap_or_else(|e| panic!("{exe}: last line {last:?}: {e}"));
    assert!(report.get("bench").and_then(Value::as_str).is_some());
    assert!(report.get("metrics").and_then(Value::as_arr).is_some());
}

macro_rules! figure_bins {
    ($($(#[$attr:meta])* $test:ident => $bin:literal,)*) => {$(
        #[test]
        $(#[$attr])*
        fn $test() {
            last_line_is_the_report(env!(concat!("CARGO_BIN_EXE_", $bin)));
        }
    )*};
}

figure_bins! {
    ablation => "ablation",
    am_latency => "am_latency",
    client_video_cpu => "client_video_cpu",
    fig5_udp_latency => "fig5_udp_latency",
    fig6_video_cpu => "fig6_video_cpu",
    fig7_forwarding => "fig7_forwarding",
    // Asserts a host-clock speedup of the compiled guard tier before it
    // reports, which only an optimized build reaches.
    #[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
    guard_eval => "guard_eval",
    guard_state => "guard_state",
    http_latency => "http_latency",
    plexus_overload => "plexus-overload",
    sweeps => "sweeps",
    tab_tcp_throughput => "tab_tcp_throughput",
    txn_latency => "txn_latency",
}
