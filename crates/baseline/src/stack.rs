//! The monolithic ("DIGITAL UNIX"-like) protocol stack.
//!
//! Same device drivers, same protocol implementations (`plexus-net`), but
//! the conventional OS structure the paper compares against (§4):
//! applications live in *user processes* behind a socket API, so
//!
//! * every send pays a **trap** and a **copyin** as data crosses the
//!   user/kernel boundary, plus socket-layer bookkeeping;
//! * every receive pays the interrupt, a **softirq** queue hop into the
//!   kernel stack proper, socket-layer bookkeeping, a **process wakeup**,
//!   a **context switch**, and a **copyout** before the application sees a
//!   byte.
//!
//! The protocol processing itself (Ethernet/IP/UDP/TCP parsing, checksums)
//! charges exactly the same costs as the Plexus graph — the measured gap
//! between the systems is pure OS structure, as the paper argues.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_net::arp::ArpCache;
use plexus_net::ether::{self, EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use plexus_net::icmp::{self, IcmpMessage};
use plexus_net::ip::{self, Hop, IpHeader, Reassembler, RouteTable, Verdict};
use plexus_net::mbuf::Mbuf;
use plexus_net::testbed::Host;
use plexus_net::udp::{self, Endpoint, UdpConfig, UdpRecv};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{Cpu, CpuLease, Engine, Machine};

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::vm::AddressSpace;

use crate::tcp_socket::TcpLayer;

/// Counters for the monolithic stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Frames accepted by the MAC filter.
    pub eth_rx: u64,
    /// IP datagrams delivered up.
    pub ip_rx: u64,
    /// IP datagrams dropped.
    pub ip_dropped: u64,
    /// Datagrams sent.
    pub ip_tx: u64,
    /// ICMP echoes answered.
    pub icmp_echoes: u64,
    /// UDP datagrams delivered to sockets.
    pub udp_delivered: u64,
    /// UDP datagrams dropped (no socket bound).
    pub udp_no_socket: u64,
}

/// Shared monolithic-kernel state for one machine.
pub(crate) struct BaselineShared {
    pub(crate) cpu: Rc<Cpu>,
    pub(crate) nic: Rc<Nic>,
    pub(crate) ip: Ipv4Addr,
    pub(crate) mac: MacAddr,
    arp: RefCell<ArpCache>,
    reasm: RefCell<Reassembler>,
    ip_ident: ip::Ident,
    udp_socks: RefCell<HashMap<u16, Rc<UdpSocket>>>,
    pub(crate) stats: Cell<BaselineStats>,
    routes: RefCell<RouteTable>,
}

impl BaselineShared {
    pub(crate) fn bump<F: FnOnce(&mut BaselineStats)>(&self, f: F) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Kernel IP output path: header, next hop, fragments, ARP, driver TX.
    /// Direct procedure calls — no dispatcher — over the same protocol
    /// routines, charging the same protocol costs, as Plexus.
    pub(crate) fn ip_output(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        dst: Ipv4Addr,
        protocol: u8,
        payload: &Mbuf,
    ) {
        lease.charge(lease.model().ip_proc);
        self.bump(|s| s.ip_tx += 1);
        let hdr = IpHeader::simple(self.ip, dst, protocol, self.ip_ident.take());
        let Some(hop) = self.routes.borrow().hop(dst) else {
            // No route: dropped, as sendto would EHOSTUNREACH.
            lease.record_drop("ip", "no_route");
            return;
        };
        for dgram in ip::datagrams(&hdr, payload, self.nic.profile().mtu) {
            let Hop::Via(hop) = hop else {
                let frame = Frame {
                    dst: MacAddr::BROADCAST,
                    ethertype: EtherType::IPV4,
                    packet: dgram,
                };
                self.eth_output(engine, lease, &frame);
                continue;
            };
            lease.charge(lease.model().arp_lookup);
            let now = lease.now().as_nanos();
            let resolved = self.arp.borrow_mut().resolve(hop, now, dgram);
            if let Some(frame) = resolved.frame() {
                self.eth_output(engine, lease, frame);
            }
        }
    }

    pub(crate) fn eth_output(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        out: &Frame,
    ) {
        lease.charge(lease.model().eth_proc);
        let mut frame = out.packet.share();
        ether::write_header(
            frame.prepend(ETHER_HDR_LEN),
            out.dst,
            self.mac,
            out.ethertype,
        );
        lease.charge(self.nic.profile().tx_cpu_cost(frame.total_len()));
        let ready = lease.now();
        self.nic.transmit(engine, ready, &frame);
    }
}

/// The monolithic stack bound to one machine + NIC.
pub struct MonolithicStack {
    machine: Rc<Machine>,
    shared: Rc<BaselineShared>,
    tcp: Rc<TcpLayer>,
}

impl MonolithicStack {
    /// [`MonolithicStack::attach`] on a [`plexus_net::Testbed`] host, with
    /// the ARP cache seeded with every other host on the segment.
    pub fn attach_host(host: &Host) -> Rc<MonolithicStack> {
        let stack = MonolithicStack::attach(&host.machine, &host.nic, host.ip, host.mac);
        for &(ip, mac) in &host.peers {
            stack.seed_arp(ip, mac);
        }
        stack
    }

    /// Attaches the monolithic kernel stack to `machine`'s `nic`.
    pub fn attach(
        machine: &Rc<Machine>,
        nic: &Rc<Nic>,
        ip_addr: Ipv4Addr,
        mac: MacAddr,
    ) -> Rc<MonolithicStack> {
        let shared = Rc::new(BaselineShared {
            cpu: machine.cpu().clone(),
            nic: nic.clone(),
            ip: ip_addr,
            mac,
            arp: RefCell::new(ArpCache::new(ip_addr, mac)),
            reasm: RefCell::new(Reassembler::new()),
            ip_ident: ip::Ident::starting_at(1),
            udp_socks: RefCell::new(HashMap::new()),
            stats: Cell::new(BaselineStats::default()),
            routes: RefCell::new(RouteTable::host(ip_addr, 24)),
        });
        let tcp = TcpLayer::new(&shared);
        let stack = Rc::new(MonolithicStack {
            machine: machine.clone(),
            shared: shared.clone(),
            tcp: tcp.clone(),
        });

        let s = shared.clone();
        let tcp_layer = tcp;
        nic.attach(DriverConfig::per_frame(move |engine, frame| {
            let mut lease = s.cpu.begin(engine.now());
            lease.charge(lease.model().interrupt_entry);
            lease.charge(s.nic.profile().rx_cpu_cost(frame.len()));
            let Some(v) = ether::accept(frame, s.mac, false) else {
                lease.charge(lease.model().interrupt_exit);
                return;
            };
            s.bump(|st| st.eth_rx += 1);
            let ethertype = v.ethertype();
            lease.charge(lease.model().eth_proc);
            match ethertype {
                EtherType::ARP => {
                    let now = lease.now().as_nanos();
                    let input = s.arp.borrow_mut().input(&frame[ETHER_HDR_LEN..], now);
                    for out in input.into_iter().flat_map(|i| i.frames()) {
                        s.eth_output(engine, &mut lease, &out);
                    }
                }
                EtherType::IPV4 => {
                    // The netisr/softirq hop: the interrupt handler queues
                    // the packet and the kernel processes it "later" (we
                    // charge the hop; processing continues on this CPU).
                    lease.charge(lease.model().softirq);
                    let mut pkt = Mbuf::from_wire(frame);
                    pkt.trim_front(ETHER_HDR_LEN);
                    Self::ip_input(&s, &tcp_layer, engine, &mut lease, pkt);
                }
                _ => {}
            }
            lease.charge(lease.model().interrupt_exit);
        }));
        stack
    }

    fn ip_input(
        s: &Rc<BaselineShared>,
        tcp: &Rc<TcpLayer>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        pkt: Mbuf,
    ) {
        lease.charge(lease.model().ip_proc);
        let now = lease.now().as_nanos();
        let mut reasm = s.reasm.borrow_mut();
        let evicted = reasm.evicted();
        let verdict = reasm.input(&pkt, now, |dst| dst == s.ip || dst == Ipv4Addr::BROADCAST);
        for _ in evicted..reasm.evicted() {
            lease.record_drop("ip", "ip_reassembly_full");
        }
        drop(reasm);
        let (hdr, payload) = match verdict {
            Verdict::Deliver(hdr, payload) => (hdr, payload),
            Verdict::Runt => return,
            Verdict::NotLocal => {
                s.bump(|st| st.ip_dropped += 1);
                lease.record_drop("ip", "not_local");
                return;
            }
            // Counted, but not named: this verdict is also a fragment held
            // until its group completes, which is not a loss.
            Verdict::BadOrFragment => {
                s.bump(|st| st.ip_dropped += 1);
                return;
            }
        };
        s.bump(|st| st.ip_rx += 1);
        match hdr.protocol {
            ip::proto::ICMP => Self::icmp_input(s, engine, lease, &hdr, &payload),
            ip::proto::UDP => Self::udp_input(s, engine, lease, &hdr, &payload),
            ip::proto::TCP => tcp.input(engine, lease, &hdr, &payload),
            _ => {}
        }
    }

    fn icmp_input(
        s: &Rc<BaselineShared>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        hdr: &IpHeader,
        payload: &Mbuf,
    ) {
        let bytes = payload.to_vec();
        lease.charge(lease.model().checksum(bytes.len()));
        if let Some(reply) = icmp::echo_response(&bytes) {
            s.bump(|st| st.icmp_echoes += 1);
            lease.charge(lease.model().checksum(reply.total_len()));
            s.ip_output(engine, lease, hdr.src, ip::proto::ICMP, &reply);
        }
    }

    /// The receive path with the socket lookup as its claim; then the socket
    /// layer, a wakeup, and in the process a context switch, the return from
    /// `recvfrom(2)` and the copyout.
    fn udp_input(
        s: &Rc<BaselineShared>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        hdr: &IpHeader,
        payload: &Mbuf,
    ) {
        // Find the socket first so the checksum honours its config.
        let claim = |port| {
            let sock = s.udp_socks.borrow().get(&port).cloned();
            if sock.is_none() {
                s.bump(|st| st.udp_no_socket += 1);
            }
            sock.map(|sock| (sock.config, sock))
        };
        let Some((recv, sock)) = udp::receive(lease, hdr.src, hdr.dst, payload, false, claim)
        else {
            return;
        };
        s.bump(|st| st.udp_delivered += 1);
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        engine.schedule_at(lease.now(), move |engine| {
            let lease = &mut sock.shared.cpu.begin(engine.now());
            lease.charge(lease.model().context_switch);
            sock.process.trap(lease);
            sock.process.copyout(lease, recv.payload.total_len());
            (sock.on_recv)(&mut RaiseCtx { engine, lease }, &recv);
        });
    }

    /// The machine this stack runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// This host's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.shared.ip
    }

    /// This host's MAC.
    pub fn mac(&self) -> MacAddr {
        self.shared.mac
    }

    /// Stack counters.
    pub fn stats(&self) -> BaselineStats {
        self.shared.stats.get()
    }

    /// The TCP socket layer.
    pub fn tcp(&self) -> &Rc<TcpLayer> {
        &self.tcp
    }

    /// Pre-seeds the ARP cache.
    pub fn seed_arp(&self, ip_addr: Ipv4Addr, mac: MacAddr) {
        self.shared.arp.borrow_mut().learn(ip_addr, mac, 0);
    }

    /// Configures the default gateway (and subnet prefix) so off-subnet
    /// destinations route through an IP router (see `plexus-core`).
    pub fn set_gateway(&self, gateway: Ipv4Addr, prefix_len: u8) {
        let mut routes = RouteTable::host(self.shared.ip, prefix_len);
        routes.set_default(gateway);
        *self.shared.routes.borrow_mut() = routes;
    }

    /// Sends an ICMP echo request from the kernel (diagnostics).
    pub fn ping(&self, engine: &mut Engine, dst: Ipv4Addr, ident: u16, seq: u16, data: &[u8]) {
        let msg = IcmpMessage::echo_request(ident, seq, data);
        let m = Mbuf::from_payload(64, &msg.to_bytes());
        let mut lease = self.shared.cpu.begin(engine.now());
        lease.charge(lease.model().checksum(m.total_len()));
        self.shared
            .ip_output(engine, &mut lease, dst, ip::proto::ICMP, &m);
    }

    /// Opens a UDP socket for a user process, parked in a `recvfrom(2)`
    /// loop: `on_recv` runs in the process for every datagram that arrives,
    /// as a Plexus `bind`'s handler runs for its own. Returns `None` if the
    /// port is taken.
    pub fn udp_socket(
        &self,
        process: &Rc<AddressSpace>,
        port: u16,
        config: UdpConfig,
        on_recv: impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static,
    ) -> Option<Rc<UdpSocket>> {
        let mut socks = self.shared.udp_socks.borrow_mut();
        if socks.contains_key(&port) {
            return None;
        }
        let sock = Rc::new(UdpSocket {
            shared: self.shared.clone(),
            process: process.clone(),
            port,
            config,
            on_recv: Box::new(on_recv),
        });
        socks.insert(port, sock.clone());
        Some(sock)
    }
}

/// A socket's receive handler: the same shape as a Plexus binding's.
type OnRecv = Box<dyn Fn(&mut RaiseCtx<'_>, &UdpRecv)>;

/// A user-process UDP socket on the monolithic stack.
pub struct UdpSocket {
    shared: Rc<BaselineShared>,
    process: Rc<AddressSpace>,
    port: u16,
    config: UdpConfig,
    on_recv: OnRecv,
}

impl UdpSocket {
    /// Closes the socket, freeing the port.
    pub fn close(&self) {
        self.shared.udp_socks.borrow_mut().remove(&self.port);
    }
}

/// The monolithic structure around the one send path: `sendto(2)` traps
/// and copies the payload in, then the socket layer runs and the datagram
/// goes straight to the kernel's IP output.
impl Endpoint for UdpSocket {
    type Error = udp::DatagramTooLong;

    fn cpu(&self) -> &Rc<Cpu> {
        &self.shared.cpu
    }

    fn local(&self) -> (Ipv4Addr, u16, UdpConfig) {
        (self.shared.ip, self.port, self.config)
    }

    fn csum_offload(&self) -> bool {
        false
    }

    fn enter_send(&self, lease: &mut CpuLease, len: usize) {
        self.process.trap(lease);
        self.process.copyin(lease, len);
        lease.charge(lease.model().socket_layer);
    }

    fn output(&self, ctx: &mut RaiseCtx<'_>, dst: Ipv4Addr, dgram: Mbuf) {
        self.shared
            .ip_output(ctx.engine, ctx.lease, dst, ip::proto::UDP, &dgram);
    }
}
