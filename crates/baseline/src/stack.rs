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
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_net::arp::ArpCache;
use plexus_net::ether::{self, EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use plexus_net::icmp::{self, IcmpMessage};
use plexus_net::ip::{self, Hop, IpHeader, Reassembler, RouteTable, Verdict};
use plexus_net::mbuf::Mbuf;
use plexus_net::testbed::Host;
use plexus_net::udp::{self, UdpConfig};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{Cpu, CpuLease, Engine, Machine};

use plexus_kernel::vm::AddressSpace;

use crate::tcp_socket::TcpLayer;

/// A datagram delivered to a user process.
#[derive(Debug)]
pub struct UdpMessage {
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Payload (already copied out to user space; the copy was charged).
    pub data: Vec<u8>,
}

/// User-process receive callback (runs after wakeup/copyout, i.e. "in the
/// process").
pub type UdpRecvCallback = Rc<dyn Fn(&mut Engine, &mut CpuLease, UdpMessage)>;

struct UdpSocketInner {
    process: Rc<AddressSpace>,
    port: u16,
    recv_cb: RefCell<Option<UdpRecvCallback>>,
    /// Datagrams queued while no process is blocked in `recvfrom`.
    backlog: RefCell<VecDeque<UdpMessage>>,
    checksum: Cell<bool>,
}

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
    udp_socks: RefCell<HashMap<u16, Rc<UdpSocketInner>>>,
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
            return; // No route; silently dropped, as sendto would EHOSTUNREACH.
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

    /// Wakes the process blocked on `sock` (or queues the message).
    fn deliver_udp(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        sock: &Rc<UdpSocketInner>,
        msg: UdpMessage,
    ) {
        self.bump(|s| s.udp_delivered += 1);
        let cb = sock.recv_cb.borrow().clone();
        let Some(cb) = cb else {
            sock.backlog.borrow_mut().push_back(msg);
            return;
        };
        // Socket-layer append + wakeup of the blocked process.
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        let ready = lease.now();
        let cpu = self.cpu.clone();
        let process = sock.process.clone();
        engine.schedule_at(ready, move |eng| {
            let mut user = cpu.begin(eng.now());
            // The woken process: context switch in, return from the
            // recvfrom trap, copy the data out to user space.
            user.charge(user.model().context_switch);
            process.trap(&mut user);
            process.copyout(&mut user, msg.data.len());
            cb(eng, &mut user, msg);
        });
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
            Verdict::NotLocal | Verdict::BadOrFragment => {
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

    fn udp_input(
        s: &Rc<BaselineShared>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        hdr: &IpHeader,
        payload: &Mbuf,
    ) {
        lease.charge(lease.model().udp_proc);
        // Find the socket first so the checksum honours its config.
        let head = payload.head();
        if head.len() < udp::UDP_HDR_LEN {
            return;
        }
        let dst_port = u16::from_be_bytes([head[2], head[3]]);
        let sock = s.udp_socks.borrow().get(&dst_port).cloned();
        let Some(sock) = sock else {
            s.bump(|st| st.udp_no_socket += 1);
            return;
        };
        let config = UdpConfig {
            checksum: sock.checksum.get(),
        };
        if config.checksum {
            lease.charge(lease.model().checksum(payload.total_len()));
        }
        let Some(dgram) = udp::decapsulate(hdr.src, hdr.dst, config, payload) else {
            return;
        };
        let msg = UdpMessage {
            src: hdr.src,
            src_port: dgram.src_port,
            data: dgram.payload.to_vec(),
        };
        s.deliver_udp(engine, lease, &sock, msg);
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

    /// Opens a UDP socket for a user process. Returns `None` if the port
    /// is taken.
    pub fn udp_socket(
        &self,
        process: &Rc<AddressSpace>,
        port: u16,
        checksum: bool,
    ) -> Option<UdpSocket> {
        let mut socks = self.shared.udp_socks.borrow_mut();
        if socks.contains_key(&port) {
            return None;
        }
        let inner = Rc::new(UdpSocketInner {
            process: process.clone(),
            port,
            recv_cb: RefCell::new(None),
            backlog: RefCell::new(VecDeque::new()),
            checksum: Cell::new(checksum),
        });
        socks.insert(port, inner.clone());
        Some(UdpSocket {
            shared: self.shared.clone(),
            process: process.clone(),
            inner,
        })
    }
}

/// `sendto(2)`'s `EMSGSIZE`: a UDP payload longer than one IPv4 datagram
/// carries. Refused before the trap, so nothing is charged or sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageTooLong {
    /// The payload's length in bytes.
    pub len: usize,
    /// The longest payload a datagram carries ([`udp::MAX_PAYLOAD`]).
    pub max: usize,
}

/// A user-process UDP socket on the monolithic stack.
pub struct UdpSocket {
    shared: Rc<BaselineShared>,
    process: Rc<AddressSpace>,
    inner: Rc<UdpSocketInner>,
}

impl UdpSocket {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.inner.port
    }

    /// `sendto(2)`: trap, copy the payload into the kernel, run the stack.
    pub fn sendto(
        &self,
        engine: &mut Engine,
        dst: Ipv4Addr,
        dst_port: u16,
        data: &[u8],
    ) -> Result<(), MessageTooLong> {
        let mut lease = self.shared.cpu.begin(engine.now());
        self.sendto_in(engine, &mut lease, dst, dst_port, data)
    }

    /// [`UdpSocket::sendto`] continuing on an existing lease (e.g. replying
    /// from within a receive callback).
    pub fn sendto_in(
        &self,
        engine: &mut Engine,
        lease: &mut CpuLease,
        dst: Ipv4Addr,
        dst_port: u16,
        data: &[u8],
    ) -> Result<(), MessageTooLong> {
        if data.len() > udp::MAX_PAYLOAD {
            return Err(MessageTooLong {
                len: data.len(),
                max: udp::MAX_PAYLOAD,
            });
        }
        self.process.trap(lease);
        self.process.copyin(lease, data.len());
        lease.charge(lease.model().socket_layer);
        lease.charge(lease.model().udp_proc);
        let payload = Mbuf::from_payload(64, data);
        if self.inner.checksum.get() {
            lease.charge(
                lease
                    .model()
                    .checksum(payload.total_len() + udp::UDP_HDR_LEN),
            );
        }
        let config = UdpConfig {
            checksum: self.inner.checksum.get(),
        };
        let dgram = udp::encapsulate(
            self.shared.ip,
            dst,
            self.inner.port,
            dst_port,
            config,
            payload,
        );
        self.shared
            .ip_output(engine, lease, dst, ip::proto::UDP, &dgram);
        Ok(())
    }

    /// Parks the process in a `recvfrom(2)` loop: `cb` runs (in user
    /// context, after wakeup + copyout) for every arriving datagram.
    /// Backlogged datagrams are delivered immediately.
    pub fn recv_loop<F>(&self, engine: &mut Engine, cb: F)
    where
        F: Fn(&mut Engine, &mut CpuLease, UdpMessage) + 'static,
    {
        *self.inner.recv_cb.borrow_mut() = Some(Rc::new(cb));
        // Drain anything that arrived before the process blocked.
        let backlog: Vec<UdpMessage> = self.inner.backlog.borrow_mut().drain(..).collect();
        if !backlog.is_empty() {
            let shared = self.shared.clone();
            let sock = self.inner.clone();
            let mut lease = shared.cpu.begin(engine.now());
            for msg in backlog {
                shared.deliver_udp(engine, &mut lease, &sock, msg);
            }
        }
    }

    /// Closes the socket, freeing the port.
    pub fn close(&self) {
        self.shared.udp_socks.borrow_mut().remove(&self.inner.port);
        *self.inner.recv_cb.borrow_mut() = None;
    }
}
