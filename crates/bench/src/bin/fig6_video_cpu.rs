//! Figure 6: video-server CPU utilization vs. number of client streams.
//!
//! 30 frame/s streams over the T3; both systems saturate the 45 Mb/s link
//! at 15 streams, and at that point SPIN consumes about half the processor
//! DIGITAL UNIX does.
//!
//! Run with `cargo run -p plexus-bench --bin fig6_video_cpu`.

use plexus_apps::video::VideoConfig;
use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;
use plexus_bench::video_cpu::{VideoCpu, VideoSystem};

fn main() {
    let cfg = VideoConfig::default();
    const SECONDS: u64 = 1;

    println!(
        "Figure 6: server CPU utilization vs. client streams ({} fps, {} B frames, DEC T3)",
        cfg.fps, cfg.frame_bytes
    );
    println!();

    let mut report = BenchReport::new("fig6_video_cpu");
    let mut rows = Vec::new();
    for streams in [1usize, 2, 4, 6, 8, 10, 12, 15, 18, 21, 24, 27, 30] {
        let spin = VideoCpu::new(VideoSystem::Spin, streams, SECONDS).run();
        let dunix = VideoCpu::new(VideoSystem::Dunix, streams, SECONDS).run();
        report.scalar(
            &format!("streams_{streams:02}/spin_cpu"),
            spin.utilization * 100.0,
            "percent",
        );
        report.scalar(
            &format!("streams_{streams:02}/dunix_cpu"),
            dunix.utilization * 100.0,
            "percent",
        );
        rows.push(vec![
            streams.to_string(),
            format!("{:.1}", spin.offered_load * 100.0),
            format!("{:.1}", spin.utilization * 100.0),
            format!("{:.1}", dunix.utilization * 100.0),
            format!("{:.2}", dunix.utilization / spin.utilization),
            format!("{:.0}", spin.delivered_fraction * 100.0),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "streams",
                "offered load (% of T3)",
                "SPIN CPU (%)",
                "DUNIX CPU (%)",
                "DUNIX/SPIN",
                "delivered (%)"
            ],
            &rows
        )
    );
    println!("Paper: both saturate the network at 15 streams; SPIN uses ~half the CPU.");
    println!("Beyond 15 streams the link is oversubscribed: the adapter sheds frames");
    println!("(delivered < 100%), i.e. the server can no longer meet every deadline.");

    report.count("seconds_simulated", SECONDS);
    report::emit(&report);
}
