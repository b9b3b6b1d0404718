//! The network video system (§5.1).
//!
//! A server multicasts video clips to a set of clients at 30 frames/s.
//! Two implementations of the same application:
//!
//! * **Plexus** ([`PlexusVideoServer`]): an in-kernel extension reads each
//!   frame off the (simulated) disk and pushes it to every subscribed
//!   client through the UDP send path — *multicast semantics for UDP*,
//!   with no user/kernel copies, exactly the structure the paper credits
//!   for halving server CPU utilization.
//! * **DIGITAL UNIX** ([`DunixVideoServer`]): a user process `read(2)`s
//!   each frame (copyout) and issues one `sendto(2)` per client (trap +
//!   copyin each), over the same disk/NIC models.
//!
//! The video protocol itself follows §1.1's advice: UDP checksum disabled
//! (the application runs its own integrity pass on the client).
//!
//! Clients ([`PlexusVideoClient`], [`DunixVideoClient`]) do the paper's
//! two passes over each frame — checksum, then decompress — and blit the
//! decompressed image to the framebuffer, whose writes are 10× slower than
//! RAM; the experiment shows the client is display-bound either way.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusError, PlexusStack, UdpRecv};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::RaiseCtx;
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::UdpConfig;
use plexus_sim::framebuffer::Framebuffer;
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Engine, Machine};

use plexus_baseline::{MonolithicStack, UdpSocket};
use plexus_kernel::vm::AddressSpace;

/// Parameters of the video workload.
#[derive(Clone, Copy, Debug)]
pub struct VideoConfig {
    /// Frames per second per stream (the paper: 30).
    pub fps: u32,
    /// Compressed frame size in bytes. 12 500 B at 30 fps is a 3 Mb/s
    /// stream, so 15 streams saturate the 45 Mb/s T3 as in Figure 6.
    pub frame_bytes: usize,
    /// UDP port the clients listen on.
    pub port: u16,
    /// Decompression expansion factor (compressed → displayed bytes).
    pub expansion: usize,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            fps: 30,
            frame_bytes: 12_500,
            port: 6000,
            expansion: 4,
        }
    }
}

impl VideoConfig {
    /// The frame period.
    pub fn period(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.fps as u64)
    }

    /// UDP options for the video protocol: checksum disabled (§1.1).
    pub fn udp(&self) -> UdpConfig {
        UdpConfig { checksum: false }
    }
}

/// The linker spec a video extension uses.
pub fn video_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["UDP.Bind", "UDP.Send", "Mbuf.Alloc"])
}

/// The in-kernel Plexus video server extension.
pub struct PlexusVideoServer {
    frames_sent: Rc<Cell<u64>>,
}

impl PlexusVideoServer {
    /// Starts streaming to `clients` until `until`. The server machine
    /// must have a disk attached.
    pub fn start(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        engine: &mut Engine,
        clients: Vec<Ipv4Addr>,
        config: VideoConfig,
        until: SimTime,
    ) -> Result<PlexusVideoServer, PlexusError> {
        // A server-side endpoint to send from (port `config.port` on the
        // server side as well; it never receives).
        let ep = stack.udp().bind(
            ext,
            config.port,
            config.udp(),
            AppHandler::interrupt(|_, _: &UdpRecv| {}),
        )?;
        let frames_sent = Rc::new(Cell::new(0u64));
        let machine = stack.machine().clone();
        let counter = frames_sent.clone();
        schedule_plexus_frame(engine, machine, ep, clients, config, until, counter);
        Ok(PlexusVideoServer { frames_sent })
    }

    /// Frames pushed to the network (frame × client fan-out counted once
    /// per client).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }
}

fn schedule_plexus_frame(
    engine: &mut Engine,
    machine: Rc<Machine>,
    ep: Rc<plexus_core::UdpEndpoint>,
    clients: Vec<Ipv4Addr>,
    config: VideoConfig,
    until: SimTime,
    counter: Rc<Cell<u64>>,
) {
    if engine.now() >= until {
        return;
    }
    // This frame: read it off the disk (DMA: cheap in CPU, occupies the
    // spindle), then fan it out in-kernel.
    let disk = machine.disk();
    let cpu_cost = disk.cpu_cost;
    let ep2 = ep.clone();
    let clients2 = clients.clone();
    let m2 = machine.clone();
    let counter2 = counter.clone();
    disk.read(engine, engine.now(), config.frame_bytes, move |eng| {
        let mut lease = m2.cpu().begin(eng.now());
        lease.charge(cpu_cost);
        let frame = Mbuf::from_payload(64, &vec![0xA5u8; config.frame_bytes]);
        let mut ctx = RaiseCtx {
            engine: eng,
            lease: &mut lease,
        };
        for c in &clients2 {
            // Zero-copy fan-out: every client's datagram shares the
            // frame's clusters.
            let _ = ep2.send_mbuf_in(&mut ctx, *c, config.port, frame.share());
            counter2.set(counter2.get() + 1);
        }
    });
    // The next frame tick.
    let next = engine.now() + config.period();
    if next < until {
        engine.schedule_at(next, move |eng| {
            schedule_plexus_frame(eng, machine, ep, clients, config, until, counter);
        });
    }
}

/// The DIGITAL UNIX video server: a user process over sockets.
pub struct DunixVideoServer {
    frames_sent: Rc<Cell<u64>>,
}

impl DunixVideoServer {
    /// Starts streaming to `clients` until `until`.
    pub fn start(
        stack: &Rc<MonolithicStack>,
        engine: &mut Engine,
        clients: Vec<Ipv4Addr>,
        config: VideoConfig,
        until: SimTime,
    ) -> Option<DunixVideoServer> {
        let process = AddressSpace::new("video-server");
        let sock = Rc::new(stack.udp_socket(&process, config.port, false)?);
        let frames_sent = Rc::new(Cell::new(0u64));
        let machine = stack.machine().clone();
        schedule_dunix_frame(
            engine,
            machine,
            process,
            sock,
            clients,
            config,
            until,
            frames_sent.clone(),
        );
        Some(DunixVideoServer { frames_sent })
    }

    /// Frames pushed to the network.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule_dunix_frame(
    engine: &mut Engine,
    machine: Rc<Machine>,
    process: Rc<AddressSpace>,
    sock: Rc<UdpSocket>,
    clients: Vec<Ipv4Addr>,
    config: VideoConfig,
    until: SimTime,
    counter: Rc<Cell<u64>>,
) {
    if engine.now() >= until {
        return;
    }
    let disk = machine.disk();
    let cpu_cost = disk.cpu_cost;
    let m2 = machine.clone();
    let p2 = process.clone();
    let s2 = sock.clone();
    let clients2 = clients.clone();
    let counter2 = counter.clone();
    disk.read(engine, engine.now(), config.frame_bytes, move |eng| {
        let mut lease = m2.cpu().begin(eng.now());
        lease.charge(cpu_cost);
        // The user process returns from read(2): trap + copyout.
        p2.trap(&mut lease);
        p2.copyout(&mut lease, config.frame_bytes);
        let frame = vec![0xA5u8; config.frame_bytes];
        for c in &clients2 {
            // One sendto(2) per client: trap + copyin each.
            s2.sendto_in(eng, &mut lease, *c, config.port, &frame)
                .expect("the payload fits one datagram");
            counter2.set(counter2.get() + 1);
        }
    });
    let next = engine.now() + config.period();
    if next < until {
        engine.schedule_at(next, move |eng| {
            schedule_dunix_frame(eng, machine, process, sock, clients, config, until, counter);
        });
    }
}

/// Per-client receive-side statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Frames received and displayed.
    pub frames: u64,
    /// Bytes received.
    pub bytes: u64,
}

/// The Plexus video client extension: checksum pass + decompress pass +
/// framebuffer blit, all in-kernel.
pub struct PlexusVideoClient {
    stats: Rc<Cell<ClientStats>>,
}

impl PlexusVideoClient {
    /// Subscribes on the client stack. The machine must have a framebuffer.
    pub fn start(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        config: VideoConfig,
    ) -> Result<PlexusVideoClient, PlexusError> {
        let stats = Rc::new(Cell::new(ClientStats::default()));
        let st = stats.clone();
        let fb: Rc<Framebuffer> = stack.machine().framebuffer();
        stack.udp().bind(
            ext,
            config.port,
            config.udp(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                display_frame(ctx.lease, &fb, ev.payload.total_len(), config.expansion);
                let mut s = st.get();
                s.frames += 1;
                s.bytes += ev.payload.total_len() as u64;
                st.set(s);
            }),
        )?;
        Ok(PlexusVideoClient { stats })
    }

    /// Receive statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.get()
    }
}

/// The two §5.1 passes plus the blit, charged to the caller's lease.
fn display_frame(lease: &mut plexus_sim::CpuLease, fb: &Framebuffer, len: usize, expansion: usize) {
    // Pass 1: application-level checksum over the compressed frame.
    lease.charge(lease.model().checksum(len));
    // Pass 2: decompress (reads compressed, writes expanded to RAM).
    lease.charge(lease.model().decompress_per_byte.times(len as u64));
    lease.charge(
        lease
            .model()
            .ram_write_per_byte
            .times((len * expansion) as u64),
    );
    // Blit the decompressed image to the framebuffer.
    fb.blit(lease, len * expansion);
}

/// The DIGITAL UNIX video client: same display code, user-level socket.
pub struct DunixVideoClient {
    stats: Rc<Cell<ClientStats>>,
}

impl DunixVideoClient {
    /// Subscribes on the client stack. The machine must have a framebuffer.
    pub fn start(
        stack: &Rc<MonolithicStack>,
        engine: &mut Engine,
        config: VideoConfig,
    ) -> Option<DunixVideoClient> {
        let process = AddressSpace::new("video-client");
        let sock = stack.udp_socket(&process, config.port, false)?;
        let stats = Rc::new(Cell::new(ClientStats::default()));
        let st = stats.clone();
        let fb: Rc<Framebuffer> = stack.machine().framebuffer();
        sock.recv_loop(engine, move |_eng, user, msg| {
            display_frame(user, &fb, msg.data.len(), config.expansion);
            let mut s = st.get();
            s.frames += 1;
            s.bytes += msg.data.len() as u64;
            st.set(s);
        });
        // The socket registration lives in the stack; dropping the local
        // handle is fine (close() is explicit).
        drop(sock);
        Some(DunixVideoClient { stats })
    }

    /// Receive statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.get()
    }
}
