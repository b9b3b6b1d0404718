//! One host's link and IP layers, whichever stack runs them, and the
//! [`Structure`] a stack puts around them.
//!
//! An [`Interface`] holds one attachment's NIC, addresses, [`ArpCache`],
//! [`ip::Ident`], [`Reassembler`] and routes. Its methods and
//! [`Structure`]'s provided ones are the one copy of each L2/L3 step: link
//! tx, ARP output and input, host IP input and output, the echo responder.
//! A stack's `Structure` says how a datagram reaches IP output and a frame
//! the wire — Plexus raises `Ip.PacketSend` and `Ethernet.PacketSend`; the
//! baseline and the router call straight through — and what an
//! application's send, close and delivery pay on the way.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_sim::nic::Nic;
use plexus_sim::time::SimDuration;
use plexus_sim::{Cpu, CpuLease, Engine, Loss};

use crate::arp::{ArpCache, Resolve};
use crate::ether::{self, EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use crate::icmp::{self, IcmpMessage};
use crate::ip::{self, Hop, IpHeader, Reassembler, RouteTable, Undelivered};
use crate::mbuf::Mbuf;
use crate::tcp::{ConnEvent, TcpConn};

/// What an [`Interface`] counts: the link and IP layers' share of a
/// stack's counters. What they lose is counted by reason on the CPU
/// ([`plexus_sim::Cpu::lost`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams delivered up from IP input.
    pub ip_rx: u64,
    /// Fragments IP input holds until their datagram completes.
    pub ip_held: u64,
    /// Datagrams through IP output.
    pub ip_tx: u64,
    /// ICMP echo requests answered.
    pub icmp_echoes: u64,
    /// ARP requests answered.
    pub arp_replies: u64,
    /// Datagrams parked waiting on ARP resolution.
    pub arp_queued: u64,
    /// ARP resolutions abandoned after their re-asks; what they parked was
    /// dropped.
    pub arp_failures: u64,
}

/// How long an unanswered who-has waits before it is asked again.
const ASK_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// How many times a who-has is sent before its resolution is abandoned.
const ASKS: u32 = 3;

/// One host attachment: its NIC and addresses, and the link and IP state
/// behind them.
pub struct Interface {
    /// The CPU every charge and re-ask runs on.
    pub cpu: Rc<Cpu>,
    /// The adapter frames leave by.
    pub nic: Rc<Nic>,
    ip: Ipv4Addr,
    mac: MacAddr,
    arp: RefCell<ArpCache>,
    ident: ip::Ident,
    reasm: RefCell<Reassembler>,
    routes: RefCell<RouteTable>,
    /// Further local addresses (a DSR redirection target's VIP, §5.2).
    aliases: RefCell<Vec<Ipv4Addr>>,
    stats: Cell<LinkStats>,
}

impl Interface {
    /// An attachment of `ip`/`mac` on `nic`, charging `cpu`, with a cold
    /// ARP cache and a route to the /24 it is on.
    pub fn new(cpu: &Rc<Cpu>, nic: &Rc<Nic>, ip: Ipv4Addr, mac: MacAddr) -> Interface {
        Interface {
            cpu: cpu.clone(),
            nic: nic.clone(),
            ip,
            mac,
            arp: RefCell::new(ArpCache::new(ip, mac)),
            ident: ip::Ident::starting_at(1),
            reasm: RefCell::new(Reassembler::new()),
            routes: RefCell::new(RouteTable::host(ip, 24)),
            aliases: RefCell::default(),
            stats: Cell::default(),
        }
    }

    /// This attachment's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// This attachment's MAC.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Counters.
    pub fn stats(&self) -> LinkStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut LinkStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Pre-seeds the ARP cache with `ip` at `mac` (what a testbed host's
    /// peers are, so steady-state runs resolve nothing).
    pub fn seed_arp(&self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.borrow_mut().learn(ip, mac, 0);
    }

    /// Counts the parked datagrams the ARP cache let expire since it was
    /// last asked.
    fn count_expired(&self, lease: &CpuLease) {
        for _ in 0..self.arp.borrow_mut().take_expired() {
            lease.lose(Loss::ArpExpired);
        }
    }

    /// Replaces where sends go.
    pub fn set_routes(&self, routes: RouteTable) {
        *self.routes.borrow_mut() = routes;
    }

    /// Accepts datagrams for `ip` as this host's own.
    pub fn add_alias(&self, ip: Ipv4Addr) {
        let mut aliases = self.aliases.borrow_mut();
        if !aliases.contains(&ip) {
            aliases.push(ip);
        }
    }

    /// Link tx: `eth_proc`, the link header prepended in place, the
    /// driver's submission charge (full per frame, or amortized under an
    /// open doorbell — [`Nic::tx_cpu_charge`] decides), and the mbuf chain
    /// handed to the adapter for the scatter-gather DMA. Inlined, as are
    /// `ip_input` and the generic provided methods: every frame runs them,
    /// from a stack compiled in another crate.
    #[inline]
    pub fn transmit(&self, ctx: &mut RaiseCtx<'_>, frame: &Frame) {
        ctx.lease.charge(ctx.lease.model().eth_proc);
        let mut wire = frame.packet.share();
        let hdr = wire.prepend(ETHER_HDR_LEN);
        ether::write_header(hdr, frame.dst, self.mac, frame.ethertype);
        let submit = self.nic.tx_cpu_charge(ctx.lease.now(), wire.total_len());
        ctx.lease.charge(submit);
        let ready = ctx.lease.now();
        self.nic.transmit(ctx.engine, ready, &wire);
    }

    /// Host IP input for `dgram` (the frame past its link header): `ip_proc`,
    /// reassembly, the local-address check. Returns a whole datagram for
    /// this host; names every loss ([`Loss::IpBadHeader`],
    /// [`Loss::NotLocal`], and one [`Loss::IpReassemblyTimeout`] or
    /// [`Loss::IpReassemblyFull`] per fragment group reassembly gives up
    /// on). A held fragment is no loss.
    #[inline]
    pub fn ip_input(&self, lease: &mut CpuLease, dgram: &Mbuf) -> Option<(IpHeader, Mbuf)> {
        lease.charge(lease.model().ip_proc);
        let now = lease.now().as_nanos();
        let mut reasm = self.reasm.borrow_mut();
        let (expired, evicted) = (reasm.expired(), reasm.evicted());
        let verdict = reasm.input(dgram, now, |dst| {
            dst == self.ip || dst == Ipv4Addr::BROADCAST || self.aliases.borrow().contains(&dst)
        });
        for _ in expired..reasm.expired() {
            lease.lose(Loss::IpReassemblyTimeout);
        }
        for _ in evicted..reasm.evicted() {
            lease.lose(Loss::IpReassemblyFull);
        }
        drop(reasm);
        match verdict {
            Ok(whole) => {
                self.bump(|s| s.ip_rx += 1);
                return Some(whole);
            }
            Err(Undelivered::Held) => self.bump(|s| s.ip_held += 1),
            Err(Undelivered::NotLocal) => lease.lose(Loss::NotLocal),
            Err(Undelivered::BadHeader) => lease.lose(Loss::IpBadHeader),
        }
        None
    }
}

/// A stack's structure: one hook for each point where the stacks really
/// differ, each defaulting to the direct call. Each stack implements it
/// once (Plexus on its graph's shared state, DIGITAL UNIX on its kernel
/// state, the router on each [`Interface`]); the provided methods are the
/// one L2/L3 path.
pub trait Structure: Sized + 'static {
    /// Whom a UDP port or a TCP connection runs for: `()` where applications
    /// run in the kernel, the socket where they run in a process.
    type Owner;

    /// The interface this stack sends and receives by, and through it the
    /// CPU every charge runs on.
    fn link(&self) -> &Interface;

    /// Transport checksums are left to the adapter: a segment goes down with
    /// an offload descriptor and no software checksum is charged. No by
    /// default.
    fn csum_offload(&self) -> bool {
        false
    }

    /// The one L4→L3 hand-down, `src` to `dst`: [`Structure::ip_output`]
    /// directly by default.
    fn send_ip(
        self: &Rc<Self>,
        ctx: &mut RaiseCtx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        payload: Mbuf,
    ) {
        self.ip_output(ctx, src, dst, protocol, &payload);
    }

    /// Puts `frame` on the wire: [`Interface::transmit`] directly by
    /// default.
    fn send_frame(&self, ctx: &mut RaiseCtx<'_>, frame: &Frame) {
        self.link().transmit(ctx, frame);
    }

    /// What `owner`'s send of `len` bytes pays on entry. Nothing by default.
    fn enter_send(&self, _owner: &Self::Owner, _lease: &mut CpuLease, _len: usize) {}

    /// What `owner`'s close pays on entry, `in_callback` when made from one
    /// of the connection's callbacks. Nothing by default.
    fn enter_close(&self, _owner: &Self::Owner, _lease: &mut CpuLease, _in_callback: bool) {}

    /// Brings a connection's in-order `data` to the application: directly
    /// by default.
    fn deliver(&self, ctx: &mut RaiseCtx<'_>, _: &Self::Owner, conn: &Rc<TcpConn>, data: &[u8]) {
        conn.upcall_data(ctx, data);
    }

    /// Brings a connection's `event` to the application: directly by
    /// default.
    fn notify(&self, ctx: &mut RaiseCtx<'_>, _: &Self::Owner, conn: &Rc<TcpConn>, ev: ConnEvent) {
        conn.upcall(ctx, ev);
    }

    /// Host IP output: `ip_proc`, the header, the next hop (or
    /// [`Loss::NoRoute`]), and the whole datagram or its fragments, each
    /// through [`Structure::output`].
    fn ip_output(
        self: &Rc<Self>,
        ctx: &mut RaiseCtx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        payload: &Mbuf,
    ) {
        let link = self.link();
        ctx.lease.charge(ctx.lease.model().ip_proc);
        link.bump(|s| s.ip_tx += 1);
        let hdr = IpHeader::simple(src, dst, protocol, link.ident.take());
        let Some(hop) = link.routes.borrow().hop(dst) else {
            return ctx.lease.lose(Loss::NoRoute);
        };
        for dgram in ip::datagrams(&hdr, payload, link.nic.profile().mtu) {
            self.output(ctx, hop, dgram);
        }
    }

    /// ARP output for one datagram: to everyone on the segment, or
    /// `arp_lookup` and whatever the cache puts on the wire now. A first
    /// miss parks the datagram behind a who-has, asked again at 1 s and
    /// 2 s and abandoned at 3 s; a full queue refuses it
    /// ([`Loss::ArpQueueFull`]). Parked datagrams whose resolution expired
    /// unanswered are [`Loss::ArpExpired`].
    fn output(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, hop: Hop, dgram: Mbuf) {
        let Hop::Via(hop) = hop else {
            let frame = Frame {
                dst: MacAddr::BROADCAST,
                ethertype: EtherType::IPV4,
                packet: dgram,
            };
            return self.send_frame(ctx, &frame);
        };
        let link = self.link();
        ctx.lease.charge(ctx.lease.model().arp_lookup);
        let now = ctx.lease.now().as_nanos();
        let resolved = link.arp.borrow_mut().resolve(hop, now, dgram);
        link.count_expired(ctx.lease);
        if let Some(frame) = resolved.frame() {
            self.send_frame(ctx, frame);
        }
        match resolved {
            Resolve::Send(_) => {}
            Resolve::ParkedAsk(_) => {
                link.bump(|s| s.arp_queued += 1);
                ask_again(self.clone(), ctx.engine, hop, now, 1);
            }
            Resolve::ParkedQuiet => link.bump(|s| s.arp_queued += 1),
            Resolve::Refused => ctx.lease.lose(Loss::ArpQueueFull),
        }
    }

    /// ARP input for `bytes` (past the link header): learn the sender,
    /// send what was parked on it, then the reply to a who-has for us.
    fn arp_input(&self, ctx: &mut RaiseCtx<'_>, bytes: &[u8]) {
        let link = self.link();
        let now = ctx.lease.now().as_nanos();
        let input = link.arp.borrow_mut().input(bytes, now);
        link.count_expired(ctx.lease);
        let Some(input) = input else {
            return;
        };
        if input.reply.is_some() {
            link.bump(|s| s.arp_replies += 1);
        }
        for frame in input.frames() {
            self.send_frame(ctx, &frame);
        }
    }

    /// The echo responder for an ICMP message `request` from `from`: a
    /// valid echo request is answered, `checksum(reply)` charged, through
    /// [`Structure::send_ip`].
    fn echo(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, from: Ipv4Addr, request: &[u8]) {
        let Some(reply) = icmp::echo_response(request) else {
            return;
        };
        let link = self.link();
        link.bump(|s| s.icmp_echoes += 1);
        let sum = ctx.lease.model().checksum(reply.total_len());
        ctx.lease.charge(sum);
        self.send_ip(ctx, link.ip(), from, ip::proto::ICMP, reply);
    }

    /// Sends an ICMP echo request to `dst` (diagnostics, examples, tests).
    fn ping(
        self: &Rc<Self>,
        engine: &mut Engine,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        data: &[u8],
    ) {
        let link = self.link();
        let msg = IcmpMessage::echo_request(ident, seq, data);
        let payload = Mbuf::from_payload(64, &msg.to_bytes());
        let mut lease = link.cpu.begin(engine.now());
        lease.charge(lease.model().checksum(payload.total_len()));
        let ctx = &mut RaiseCtx {
            engine,
            lease: &mut lease,
        };
        self.send_ip(ctx, link.ip(), dst, ip::proto::ICMP, payload);
    }
}

/// The router's structure: each port is its own, and everything goes
/// straight down.
impl Structure for Interface {
    type Owner = ();

    fn link(&self) -> &Interface {
        self
    }
}

/// After [`ASK_INTERVAL`], unless the who-has for `hop` first sent at `at`
/// (ns) has been answered, or abandoned and asked afresh: ask again, or,
/// `n` asks made, abandon the resolution, dropping what it parked — one
/// [`Loss::ResolutionFailed`] per datagram.
fn ask_again<S: Structure>(host: Rc<S>, engine: &mut Engine, hop: Ipv4Addr, at: u64, n: u32) {
    engine.schedule_in(ASK_INTERVAL, move |eng| {
        let link = host.link();
        if link.arp.borrow().asked_at(hop) != Some(at) {
            return;
        }
        if n >= ASKS {
            let dropped = link.arp.borrow_mut().abandon(hop);
            link.bump(|s| s.arp_failures += 1);
            for _ in 0..dropped {
                link.cpu.lose(eng.now(), Loss::ResolutionFailed);
            }
            return;
        }
        let ctx = &mut RaiseCtx {
            lease: &mut link.cpu.begin(eng.now()),
            engine: eng,
        };
        let request = link.arp.borrow().request(hop);
        host.send_frame(ctx, &request);
        ask_again(host.clone(), ctx.engine, hop, at, n + 1);
    });
}
