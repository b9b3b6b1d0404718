//! §5.1's *client-side* result: the video viewer is display-bound, so the
//! OS structure barely matters.
//!
//! "We expected that the overhead incurred for the data and control
//! transfer to be significantly higher for DIGITAL UNIX compared to SPIN.
//! However, the CPU utilization between the two operating systems was
//! similar... the performance of the video client is limited by the write
//! bandwidth of the framebuffer hardware" — with >90 % of client time in
//! the display path. This harness reproduces both halves of that claim.

use plexus_apps::video::{
    video_extension_spec, DunixVideoClient, PlexusVideoClient, PlexusVideoServer, VideoConfig,
};
use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::testbed::Testbed;
use plexus_sim::disk::Disk;
use plexus_sim::framebuffer::Framebuffer;
use plexus_sim::nic::Link;
use plexus_sim::time::{SimDuration, SimTime};

use crate::report::BenchReport;
use crate::table;

/// Which client implementation receives the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientSystem {
    /// The in-kernel Plexus viewer extension.
    Spin,
    /// The user-process viewer over sockets.
    Dunix,
}

impl ClientSystem {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ClientSystem::Spin => "SPIN",
            ClientSystem::Dunix => "DIGITAL UNIX",
        }
    }
}

/// Measurement of one client run.
#[derive(Clone, Copy, Debug)]
pub struct ClientSample {
    /// Client CPU utilization over the window.
    pub utilization: f64,
    /// Fraction of client CPU time spent in the display path (checksum +
    /// decompress + framebuffer blit), computed from the cost model.
    pub display_share: f64,
    /// Frames displayed.
    pub frames: u64,
}

/// Streams one video to a single client for `seconds` and measures the
/// client's CPU. A SPIN server feeds both client types (the server side is
/// Figure 6's experiment; here it is just the source).
pub fn video_client_utilization(system: ClientSystem, seconds: u64) -> ClientSample {
    let cfg = VideoConfig::default();
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 3, &["server", "client"]);
    let (server_host, client_host) = (&hosts[0], &hosts[1]);
    server_host.machine.set_disk(Disk::video_era());
    let client_m = &client_host.machine;
    client_m.set_framebuffer(Framebuffer::new());
    let client_ip = client_host.ip;

    let server = PlexusStack::attach_host(server_host, StackConfig::interrupt);
    let sext = server
        .link_extension(&video_extension_spec("server"))
        .unwrap();

    let busy0 = client_m.cpu().busy();
    let fb = client_m.framebuffer();
    let until = SimTime::ZERO + SimDuration::from_secs(seconds);
    let frames = match system {
        ClientSystem::Spin => {
            let stack = PlexusStack::attach_host(client_host, StackConfig::interrupt);
            let ext = stack
                .link_extension(&video_extension_spec("viewer"))
                .unwrap();
            let viewer = PlexusVideoClient::start(&stack, &ext, cfg).unwrap();
            let _srv = PlexusVideoServer::start(
                &server,
                &sext,
                world.engine_mut(),
                vec![client_ip],
                cfg,
                until,
            )
            .unwrap();
            world.run_for(SimDuration::from_secs(seconds));
            viewer.stats().frames
        }
        ClientSystem::Dunix => {
            let stack = MonolithicStack::attach_host(client_host);
            let viewer = DunixVideoClient::start(&stack, world.engine_mut(), cfg).unwrap();
            let _srv = PlexusVideoServer::start(
                &server,
                &sext,
                world.engine_mut(),
                vec![client_ip],
                cfg,
                until,
            )
            .unwrap();
            world.run_for(SimDuration::from_secs(seconds));
            viewer.stats().frames
        }
    };

    let window = SimDuration::from_secs(seconds);
    let utilization = client_m.cpu().utilization(busy0, window);
    // Display-path time per frame, straight from the cost model: the
    // application checksum pass, the decompress pass (read + expanded RAM
    // write), and the framebuffer blit.
    let model = client_m.cpu().model();
    let per_frame = model.checksum(cfg.frame_bytes)
        + model.decompress_per_byte.times(cfg.frame_bytes as u64)
        + model
            .ram_write_per_byte
            .times((cfg.frame_bytes * cfg.expansion) as u64)
        + model
            .framebuffer_write_per_byte
            .times((cfg.frame_bytes * cfg.expansion) as u64);
    let display_time = per_frame.times(frames).as_secs_f64();
    let busy = (client_m.cpu().busy() - busy0).as_secs_f64();
    let display_share = if busy > 0.0 { display_time / busy } else { 0.0 };
    let _ = fb;
    ClientSample {
        utilization,
        display_share,
        frames,
    }
}

/// §5.1's client-side claim as a figure: the video viewer is
/// framebuffer-bound, so SPIN and DIGITAL UNIX client CPU utilizations are
/// *similar* — unlike the server, where the structure gap is ~2×.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    const SECONDS: u64 = 1;
    out.push_str("Section 5.1 (client): viewer CPU for one 30 fps stream over T3\n\n");
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
    table::render(
        out,
        &["system", "frames", "client CPU (%)", "display share (%)"],
        &rows,
    );
    out.push_str(
        "Paper: \"the CPU utilization between the two operating systems was\n\
         similar\" because the framebuffer (10x slower than RAM) dominates —\n\
         the benefits of a customized protocol are masked when application\n\
         processing dwarfs protocol processing.\n",
    );

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_cpu_is_similar_across_systems_and_display_bound() {
        let spin = video_client_utilization(ClientSystem::Spin, 1);
        let dunix = video_client_utilization(ClientSystem::Dunix, 1);
        assert!(spin.frames >= 25 && dunix.frames >= 25, "streams flowed");
        // The paper: "the CPU utilization between the two operating systems
        // was similar" — within a modest margin, NOT the 2x of the server.
        let ratio = dunix.utilization / spin.utilization;
        assert!(
            (0.8..1.4).contains(&ratio),
            "client utilizations should be similar: spin={:.3} dunix={:.3}",
            spin.utilization,
            dunix.utilization
        );
        // And the reason: display dominates.
        assert!(
            spin.display_share > 0.75,
            "display path should dominate the client: {:.2}",
            spin.display_share
        );
    }
}
