//! §5.1's client-side claim: the video viewer is framebuffer-bound, so
//! SPIN and DIGITAL UNIX client CPU utilizations are *similar* — unlike
//! the server, where the structure gap is ~2×.
//!
//! Run with `cargo run -p plexus-bench --bin client_video_cpu`.

use plexus_bench::client_video::{video_client_utilization, ClientSystem};
use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;

fn main() {
    const SECONDS: u64 = 1;
    println!("Section 5.1 (client): viewer CPU for one 30 fps stream over T3");
    println!();
    let spin = video_client_utilization(ClientSystem::Spin, SECONDS);
    let dunix = video_client_utilization(ClientSystem::Dunix, SECONDS);
    let rows = vec![
        vec![
            ClientSystem::Spin.label().to_string(),
            format!("{}", spin.frames),
            format!("{:.1}", spin.utilization * 100.0),
            format!("{:.0}", spin.display_share * 100.0),
        ],
        vec![
            ClientSystem::Dunix.label().to_string(),
            format!("{}", dunix.frames),
            format!("{:.1}", dunix.utilization * 100.0),
            format!("{:.0}", dunix.display_share * 100.0),
        ],
    ];
    println!(
        "{}",
        table::render(
            &["system", "frames", "client CPU (%)", "display share (%)"],
            &rows
        )
    );
    println!("Paper: \"the CPU utilization between the two operating systems was");
    println!("similar\" because the framebuffer (10x slower than RAM) dominates —");
    println!("the benefits of a customized protocol are masked when application");
    println!("processing dwarfs protocol processing.");

    let mut report = BenchReport::new("client_video_cpu");
    report.scalar("spin/client_cpu", spin.utilization * 100.0, "percent");
    report.scalar("dunix/client_cpu", dunix.utilization * 100.0, "percent");
    report.scalar("spin/display_share", spin.display_share * 100.0, "percent");
    report.scalar(
        "dunix/display_share",
        dunix.display_share * 100.0,
        "percent",
    );
    report.count("spin/frames", spin.frames);
    report.count("dunix/frames", dunix.frames);
    report::emit(&report);
}
