//! The network video system (§5.1).
//!
//! A server multicasts video clips to a set of clients at 30 frames/s.
//! The application is written once, over either stack's UDP endpoint; the
//! systems differ only in the structure around it:
//!
//! * **Plexus** ([`VideoServer::plexus`]): an in-kernel extension reads
//!   each frame off the (simulated) disk and pushes it to every subscribed
//!   client through the UDP send path — *multicast semantics for UDP*,
//!   with no user/kernel copies, exactly the structure the paper credits
//!   for halving server CPU utilization.
//! * **DIGITAL UNIX** ([`VideoServer::dunix`]): a user process `read(2)`s
//!   each frame (copyout) and issues one `sendto(2)` per client (trap +
//!   copyin each), over the same disk/NIC models.
//!
//! The video protocol itself follows §1.1's advice: UDP checksum disabled
//! (the application runs its own integrity pass on the client).
//!
//! A [`VideoClient`] does the paper's two passes over each frame —
//! checksum, then decompress — and blits the decompressed image to the
//! framebuffer, whose writes are 10× slower than RAM; the experiment shows
//! the client is display-bound either way.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_baseline::MonolithicStack;
use plexus_core::{AppHandler, PlexusError, PlexusStack};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::{AddressSpace, RaiseCtx};
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::{Endpoint, UdpConfig, UdpRecv};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{CpuLease, Engine, Framebuffer, Machine};

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
    pub(crate) fn period(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.fps as u64)
    }

    /// UDP options for the video protocol: checksum disabled (§1.1).
    pub(crate) fn udp(&self) -> UdpConfig {
        UdpConfig { checksum: false }
    }
}

/// The linker spec a video extension uses.
pub fn video_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["UDP.Bind", "UDP.Send", "Mbuf.Alloc"])
}

/// A video server streaming to its clients, on either stack.
pub struct VideoServer {
    frames_sent: Rc<Cell<u64>>,
}

impl VideoServer {
    /// The in-kernel Plexus extension: starts streaming to `clients` until
    /// `until`. The server machine must have a disk attached.
    pub fn plexus(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        engine: &mut Engine,
        clients: Vec<Ipv4Addr>,
        config: VideoConfig,
        until: SimTime,
    ) -> Result<VideoServer, PlexusError> {
        // A server-side endpoint to send from (port `config.port` on the
        // server side as well; it never receives).
        let ignore = AppHandler::interrupt(|_, _: &UdpRecv| {});
        let ep = stack.udp().bind(ext, config.port, config.udp(), ignore)?;
        Ok(stream(
            engine,
            stack.machine(),
            ep,
            clients,
            config,
            until,
            |_| {},
        ))
    }

    /// The DIGITAL UNIX server, a user process over a socket: it returns
    /// from `read(2)` with each frame, paying a trap and the copyout, before
    /// its sends. Starts streaming to `clients` until `until`.
    pub fn dunix(
        stack: &Rc<MonolithicStack>,
        engine: &mut Engine,
        clients: Vec<Ipv4Addr>,
        config: VideoConfig,
        until: SimTime,
    ) -> Option<VideoServer> {
        let process = AddressSpace::new();
        let sock = stack.udp_socket(&process, config.port, config.udp(), |_, _| {})?;
        let read = move |lease: &mut CpuLease| {
            process.trap(lease);
            process.copyout(lease, config.frame_bytes);
        };
        Some(stream(
            engine,
            stack.machine(),
            sock,
            clients,
            config,
            until,
            read,
        ))
    }

    /// Frames pushed to the network (frame × client fan-out counted once
    /// per client).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }
}

/// The server application, written once: each frame tick it reads the
/// frame off the disk and sends it to every client. `read` is what having
/// the frame in memory costs beyond the disk's DMA: the system's own
/// structure.
fn stream<E: Endpoint + 'static>(
    engine: &mut Engine,
    machine: &Rc<Machine>,
    ep: Rc<E>,
    clients: Vec<Ipv4Addr>,
    config: VideoConfig,
    until: SimTime,
    read: impl Fn(&mut CpuLease) + 'static,
) -> VideoServer {
    let frames_sent = Rc::new(Cell::new(0));
    let stream = Stream {
        machine: machine.clone(),
        ep,
        clients,
        config,
        until,
        read,
        sent: frames_sent.clone(),
    };
    Rc::new(stream).tick(engine);
    VideoServer { frames_sent }
}

struct Stream<E, R> {
    machine: Rc<Machine>,
    ep: Rc<E>,
    clients: Vec<Ipv4Addr>,
    config: VideoConfig,
    until: SimTime,
    read: R,
    sent: Rc<Cell<u64>>,
}

impl<E: Endpoint + 'static, R: Fn(&mut CpuLease) + 'static> Stream<E, R> {
    fn tick(self: Rc<Self>, engine: &mut Engine) {
        if engine.now() >= self.until {
            return;
        }
        // This frame: read it off the disk (DMA: cheap in CPU, occupies the
        // spindle), then fan it out.
        let (disk, len) = (self.machine.disk(), self.config.frame_bytes);
        let (cpu_cost, s) = (disk.cpu_cost, self.clone());
        disk.read(engine, engine.now(), len, move |engine| {
            let lease = &mut s.machine.cpu().begin(engine.now());
            lease.charge(cpu_cost);
            (s.read)(lease);
            let frame = Mbuf::from_payload(64, &vec![0xA5u8; len]);
            let ctx = &mut RaiseCtx { engine, lease };
            for &c in &s.clients {
                // Every client's datagram shares the frame's clusters.
                let sent = s.ep.send_mbuf_in(ctx, c, s.config.port, frame.share());
                s.sent.set(s.sent.get() + u64::from(sent.is_ok()));
            }
        });
        // The next frame tick.
        let next = engine.now() + self.config.period();
        if next < self.until {
            engine.schedule_at(next, move |engine| self.tick(engine));
        }
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

/// A video client: checksum pass + decompress pass + framebuffer blit per
/// frame, in-kernel on Plexus and in a user process on DIGITAL UNIX.
pub struct VideoClient {
    stats: Rc<Cell<ClientStats>>,
}

impl VideoClient {
    /// Subscribes in-kernel on a Plexus stack. The machine must have a
    /// framebuffer.
    pub fn plexus(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        config: VideoConfig,
    ) -> Result<VideoClient, PlexusError> {
        let (client, view) = VideoClient::viewer(stack.machine(), config);
        let handler = AppHandler::interrupt(view);
        stack.udp().bind(ext, config.port, config.udp(), handler)?;
        Ok(client)
    }

    /// Subscribes a user process on the monolithic stack: each frame
    /// reaches it after the socket's wakeup and copyout. The machine must
    /// have a framebuffer.
    pub fn dunix(stack: &Rc<MonolithicStack>, config: VideoConfig) -> Option<VideoClient> {
        let (client, view) = VideoClient::viewer(stack.machine(), config);
        let process = AddressSpace::new();
        stack.udp_socket(&process, config.port, config.udp(), view)?;
        Some(client)
    }

    /// The client application: displays each frame it receives.
    fn viewer(
        machine: &Machine,
        config: VideoConfig,
    ) -> (VideoClient, impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static) {
        let stats = Rc::new(Cell::new(ClientStats::default()));
        let st = stats.clone();
        let fb: Rc<Framebuffer> = machine.framebuffer();
        let view = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
            let len = ev.payload.total_len();
            display_frame(ctx.lease, &fb, len, config.expansion);
            let mut s = st.get();
            s.frames += 1;
            s.bytes += len as u64;
            st.set(s);
        };
        (VideoClient { stats }, view)
    }

    /// Receive statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.get()
    }
}

/// The two §5.1 passes plus the blit, charged to the caller's lease.
fn display_frame(lease: &mut CpuLease, fb: &Framebuffer, len: usize, expansion: usize) {
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
