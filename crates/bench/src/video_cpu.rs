//! Figure 6's experiment: video-server CPU utilization vs. client streams.
//!
//! The server streams 30 frame/s video over the T3 to N clients
//! (N = 1..30). 15 streams saturate the 45 Mb/s link; the claim is that at
//! saturation SPIN/Plexus "consumes only half as much of the processor" as
//! DIGITAL UNIX, because the in-kernel extension moves frames from disk to
//! network without user/kernel copies or per-send traps.

use std::rc::Rc;

use plexus_apps::{video_extension_spec, VideoConfig, VideoServer};
use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::Testbed;
use plexus_sim::nic::Link;
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Disk, Machine};
use plexus_trace::Recorder;

use crate::report::BenchReport;
use crate::table;

/// Which server implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VideoSystem {
    /// The in-kernel Plexus extension (SPIN).
    Spin,
    /// The user-level socket server (DIGITAL UNIX).
    Dunix,
}

/// One Figure 6 sample point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VideoSample {
    /// Server CPU utilization over the measurement window (0..=1).
    pub utilization: f64,
    /// Network offered load as a fraction of the T3 line rate.
    pub offered_load: f64,
    /// Fraction of frame-datagram fragments that actually made the wire
    /// (the rest were shed at the bounded transmit ring — the server
    /// "failing to meet its deadline" once the link saturates).
    pub delivered_fraction: f64,
}

/// One Figure 6 point: a video server streaming the default
/// [`VideoConfig`] to `streams` clients over the T3 for `seconds` of
/// simulated time.
pub(crate) struct VideoCpu<'a> {
    /// The server implementation.
    pub system: VideoSystem,
    /// Number of client streams.
    pub streams: usize,
    /// Simulated seconds to run.
    pub seconds: u64,
    /// Flight recorder attached to every CPU, NIC, and the engine, so
    /// the `fig6_video` cell can attribute the server's cycles per layer
    /// and domain.
    pub recorder: Option<&'a Rc<Recorder>>,
}

impl VideoCpu<'_> {
    /// The point, untraced.
    pub(crate) fn new(system: VideoSystem, streams: usize, seconds: u64) -> Self {
        VideoCpu {
            system,
            streams,
            seconds,
            recorder: None,
        }
    }

    /// Runs the server and returns its CPU utilization.
    pub(crate) fn run(&self) -> VideoSample {
        self.run_on().0
    }

    /// [`VideoCpu::run`], handing back the machines it ran on too.
    pub(crate) fn run_on(&self) -> (VideoSample, Vec<Rc<Machine>>) {
        let VideoCpu {
            streams, seconds, ..
        } = *self;
        let config = VideoConfig::default();
        let clients: Vec<String> = (0..streams).map(|i| format!("client-{i}")).collect();
        let mut names = vec!["video-server"];
        names.extend(clients.iter().map(String::as_str));
        let mut tb = Testbed::new(&Link::t3(), 1, &names).traced(self.recorder);
        let (server, clients) = tb.hosts.split_first().expect("the server is host 1");
        server.machine.set_disk(Disk::video_era());

        // Client sinks: the monolithic stack absorbs the frames. No socket
        // is bound, so each frame ends in the kernel as `udp_no_socket` —
        // we are measuring the *server's* CPU, as the paper does.
        let _sinks: Vec<_> = clients.iter().map(MonolithicStack::attach_host).collect();
        let addrs: Vec<_> = clients.iter().map(|c| c.ip).collect();

        let span = SimDuration::from_secs(seconds);
        let until = SimTime::ZERO + span;
        let cpu = server.machine.cpu().clone();
        let nic = server.nic.clone();
        let busy0 = cpu.busy();
        let engine = tb.world.engine_mut();
        let _server = match self.system {
            VideoSystem::Spin => {
                let stack = PlexusStack::attach_host(server, StackConfig::interrupt);
                let spec = video_extension_spec("video-server");
                let ext = stack.link_extension(&spec).expect("video extension links");
                VideoServer::plexus(&stack, &ext, engine, addrs, config, until).ok()
            }
            VideoSystem::Dunix => {
                let stack = MonolithicStack::attach_host(server);
                VideoServer::dunix(&stack, engine, addrs, config, until)
            }
        }
        .expect("server starts");
        tb.world.run_for(span);
        let stream_bps = config.frame_bytes as f64 * 8.0 * config.fps as f64;
        let nic_stats = nic.stats();
        let attempted = nic_stats.tx_frames + nic_stats.tx_ring_drops;
        let sample = VideoSample {
            utilization: cpu.utilization(busy0, span),
            offered_load: stream_bps * streams as f64 / nic.profile().bits_per_sec as f64,
            delivered_fraction: if attempted == 0 {
                1.0
            } else {
                nic_stats.tx_frames as f64 / attempted as f64
            },
        };
        (sample, tb.world.machines().to_vec())
    }
}

/// Figure 6: both systems at 1 to 30 client streams.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    let cfg = VideoConfig::default();
    const SECONDS: u64 = 1;

    outln!(
        out,
        "Figure 6: server CPU utilization vs. client streams ({} fps, {} B frames, DEC T3)",
        cfg.fps,
        cfg.frame_bytes
    );
    outln!(out);

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
    table::render(
        out,
        &[
            "streams",
            "offered load (% of T3)",
            "SPIN CPU (%)",
            "DUNIX CPU (%)",
            "DUNIX/SPIN",
            "delivered (%)",
        ],
        &rows,
    );
    out.push_str(
        "Paper: both saturate the network at 15 streams; SPIN uses ~half the CPU.\n\
         Beyond 15 streams the link is oversubscribed: the adapter sheds frames\n\
         (delivered < 100%), i.e. the server can no longer meet every deadline.\n",
    );

    report.count("seconds_simulated", SECONDS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_streams_saturate_the_t3() {
        let s = VideoCpu::new(VideoSystem::Spin, 15, 1).run();
        assert!(
            (0.9..1.15).contains(&s.offered_load),
            "15 streams should offer ~line rate: {}",
            s.offered_load
        );
    }

    #[test]
    fn spin_uses_about_half_the_cpu_of_dunix_at_saturation() {
        let spin = VideoCpu::new(VideoSystem::Spin, 15, 1).run();
        let dunix = VideoCpu::new(VideoSystem::Dunix, 15, 1).run();
        let ratio = dunix.utilization / spin.utilization;
        assert!(
            (1.6..3.0).contains(&ratio),
            "paper: DUNIX ~2x SPIN at 15 streams; got spin={:.3} dunix={:.3} ratio={ratio:.2}",
            spin.utilization,
            dunix.utilization
        );
    }

    #[test]
    fn utilization_grows_with_stream_count() {
        let five = VideoCpu::new(VideoSystem::Spin, 5, 1).run();
        let fifteen = VideoCpu::new(VideoSystem::Spin, 15, 1).run();
        assert!(fifteen.utilization > five.utilization * 2.0);
    }
}
