//! §5.1's network video system: a server multicasting 30 frame/s video
//! streams over a T3 to a set of clients, both as a Plexus in-kernel
//! extension and as a DIGITAL UNIX-style user process, reporting the
//! server CPU utilization of each (Figure 6's experiment at one point).
//!
//! Run with `cargo run --example video_server`.

use plexus::apps::video::{
    video_extension_spec, DunixVideoServer, PlexusVideoClient, PlexusVideoServer, VideoConfig,
};
use plexus::baseline::MonolithicStack;
use plexus::core::{PlexusStack, StackConfig};
use plexus::net::Testbed;
use plexus::sim::disk::Disk;
use plexus::sim::framebuffer::Framebuffer;
use plexus::sim::nic::Link;
use plexus::sim::time::{SimDuration, SimTime};

const STREAMS: usize = 15; // The paper's saturation point on the T3.
const SECONDS: u64 = 1;

fn main() {
    let cfg = VideoConfig::default();
    println!(
        "network video: {STREAMS} streams x {} fps x {} B frames over DEC T3",
        cfg.fps, cfg.frame_bytes
    );
    println!(
        "offered load: {:.0}% of the 45 Mb/s link",
        cfg.frame_bytes as f64 * 8.0 * cfg.fps as f64 * STREAMS as f64 / 45e6 * 100.0
    );
    println!();

    // --- Plexus: the in-kernel multicast extension -----------------------
    {
        let mut tb = build_world();
        let (server_host, clients) = tb.hosts.split_first().unwrap();
        let stack = PlexusStack::attach_host(server_host, StackConfig::interrupt);
        // Plexus viewers on every client machine: checksum pass, decompress
        // pass, framebuffer blit — all in-kernel.
        let mut viewers = Vec::new();
        for host in clients {
            let cst = PlexusStack::attach_host(host, StackConfig::interrupt);
            let ext = cst.link_extension(&video_extension_spec("viewer")).unwrap();
            let viewer = PlexusVideoClient::start(&cst, &ext, cfg).unwrap();
            viewers.push((cst, viewer));
        }

        let ext = stack
            .link_extension(&video_extension_spec("video-server"))
            .unwrap();
        let cpu = server_host.machine.cpu().clone();
        let busy0 = cpu.busy();
        let server = PlexusVideoServer::start(
            &stack,
            &ext,
            tb.world.engine_mut(),
            clients.iter().map(|c| c.ip).collect(),
            cfg,
            SimTime::ZERO + SimDuration::from_secs(SECONDS),
        )
        .unwrap();
        tb.world.run_for(SimDuration::from_secs(SECONDS));
        let util = cpu.utilization(busy0, SimDuration::from_secs(SECONDS));
        println!(
            "Plexus (SPIN)  : {:5} frame-datagrams sent, server CPU {:.1}%",
            server.frames_sent(),
            util * 100.0
        );
        let displayed: u64 = viewers.iter().map(|(_, v)| v.stats().frames).sum();
        println!("                 {displayed} frames displayed across {STREAMS} viewers");
    }

    // --- DIGITAL UNIX: the user-level socket server ----------------------
    {
        let mut tb = build_world();
        let (server_host, clients) = tb.hosts.split_first().unwrap();
        let stack = MonolithicStack::attach_host(server_host);
        let _sinks: Vec<_> = clients.iter().map(MonolithicStack::attach_host).collect();
        let cpu = server_host.machine.cpu().clone();
        let busy0 = cpu.busy();
        let server = DunixVideoServer::start(
            &stack,
            tb.world.engine_mut(),
            clients.iter().map(|c| c.ip).collect(),
            cfg,
            SimTime::ZERO + SimDuration::from_secs(SECONDS),
        )
        .unwrap();
        tb.world.run_for(SimDuration::from_secs(SECONDS));
        let util = cpu.utilization(busy0, SimDuration::from_secs(SECONDS));
        println!(
            "DIGITAL UNIX   : {:5} frame-datagrams sent, server CPU {:.1}%",
            server.frames_sent(),
            util * 100.0
        );
    }

    println!();
    println!("Paper (Figure 6): at 15 streams both systems saturate the network,");
    println!("but SPIN consumes only half as much of the processor.");
}

/// The video server (host 0, with a disk) and `STREAMS` clients with
/// framebuffers, on the T3.
fn build_world() -> Testbed {
    let clients: Vec<String> = (0..STREAMS).map(|i| format!("client-{i}")).collect();
    let mut names = vec!["video-server"];
    names.extend(clients.iter().map(String::as_str));
    let tb = Testbed::new(&Link::t3(), 1, &names);
    tb.hosts[0].machine.set_disk(Disk::video_era());
    for client in &tb.hosts[1..] {
        client.machine.set_framebuffer(Framebuffer::new());
    }
    tb
}
