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

use plexus_net::arp::{ArpCache, ArpPacket, Resolution};
use plexus_net::ether::{self, EtherType, EtherView, MacAddr, ETHER_HDR_LEN};
use plexus_net::icmp::{IcmpMessage, IcmpType};
use plexus_net::ip::{self, IpHeader, Reassembler};
use plexus_net::mbuf::Mbuf;
use plexus_net::testbed::Host;
use plexus_net::udp::{self, UdpConfig};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{Cpu, CpuLease, Engine, Machine};

use plexus_kernel::view::view;
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
    arp_pending: RefCell<HashMap<Ipv4Addr, Vec<Mbuf>>>,
    reasm: RefCell<Reassembler>,
    ip_ident: Cell<u16>,
    udp_socks: RefCell<HashMap<u16, Rc<UdpSocketInner>>>,
    pub(crate) stats: Cell<BaselineStats>,
    prefix_len: Cell<u8>,
    gateway: Cell<Option<Ipv4Addr>>,
}

impl BaselineShared {
    pub(crate) fn bump<F: FnOnce(&mut BaselineStats)>(&self, f: F) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn next_ident(&self) -> u16 {
        let id = self.ip_ident.get();
        self.ip_ident.set(id.wrapping_add(1));
        id
    }

    /// Kernel IP output path: fragment, ARP, driver TX. Direct procedure
    /// calls — no dispatcher — charging the same protocol costs as Plexus.
    pub(crate) fn ip_output(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        dst: Ipv4Addr,
        protocol: u8,
        payload: &Mbuf,
    ) {
        let model = lease.model().clone();
        lease.charge(model.ip_proc);
        self.bump(|s| s.ip_tx += 1);
        let hdr = IpHeader {
            src: self.ip,
            dst,
            protocol,
            ident: self.next_ident(),
            ttl: ip::DEFAULT_TTL,
            more_fragments: false,
            frag_offset: 0,
        };
        let frags = ip::fragment(&hdr, payload, self.nic.profile().mtu);
        // Route: on-subnet directly, off-subnet via the gateway.
        let next_hop = if dst == Ipv4Addr::BROADCAST {
            dst
        } else {
            let plen = self.prefix_len.get();
            let mask = if plen == 0 {
                0
            } else {
                u32::MAX << (32 - plen)
            };
            if (u32::from(dst) & mask) == (u32::from(self.ip) & mask) {
                dst
            } else {
                match self.gateway.get() {
                    Some(gw) => gw,
                    None => return, // No route; silently dropped, as sendto would EHOSTUNREACH.
                }
            }
        };
        for frag in frags {
            if dst == Ipv4Addr::BROADCAST {
                self.eth_output(engine, lease, MacAddr::BROADCAST, EtherType::IPV4, frag);
                continue;
            }
            lease.charge(model.arp_lookup);
            let res = self
                .arp
                .borrow_mut()
                .resolve(next_hop, lease.now().as_nanos());
            match res {
                Resolution::Known(mac) => {
                    self.eth_output(engine, lease, mac, EtherType::IPV4, frag);
                }
                Resolution::NeedsRequest(first) => {
                    self.arp_pending
                        .borrow_mut()
                        .entry(next_hop)
                        .or_default()
                        .push(frag);
                    if first {
                        let req = ArpPacket::request(self.mac, self.ip, next_hop);
                        let m = Mbuf::from_payload(ETHER_HDR_LEN, &req.to_bytes());
                        self.eth_output(engine, lease, MacAddr::BROADCAST, EtherType::ARP, m);
                    }
                }
            }
        }
    }

    pub(crate) fn eth_output(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        dst: MacAddr,
        ethertype: EtherType,
        packet: Mbuf,
    ) {
        let model = lease.model().clone();
        lease.charge(model.eth_proc);
        let mut frame = packet.share();
        ether::write_header(frame.prepend(ETHER_HDR_LEN), dst, self.mac, ethertype);
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
        let model = lease.model().clone();
        // Socket-layer append + wakeup of the blocked process.
        lease.charge(model.socket_layer + model.process_wakeup);
        let ready = lease.now();
        let cpu = self.cpu.clone();
        let process = sock.process.clone();
        engine.schedule_at(ready, move |eng| {
            let mut user = cpu.begin(eng.now());
            let model = user.model().clone();
            // The woken process: context switch in, return from the
            // recvfrom trap, copy the data out to user space.
            user.charge(model.context_switch);
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
            arp: RefCell::new(ArpCache::new()),
            arp_pending: RefCell::new(HashMap::new()),
            reasm: RefCell::new(Reassembler::new()),
            ip_ident: Cell::new(1),
            udp_socks: RefCell::new(HashMap::new()),
            stats: Cell::new(BaselineStats::default()),
            prefix_len: Cell::new(24),
            gateway: Cell::new(None),
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
            let model = lease.model().clone();
            lease.charge(model.interrupt_entry);
            lease.charge(s.nic.profile().rx_cpu_cost(frame.len()));
            let Some(v) = view::<EtherView>(&frame) else {
                lease.charge(model.interrupt_exit);
                return;
            };
            let dst = v.dst();
            if dst != s.mac && !dst.is_broadcast() {
                lease.charge(model.interrupt_exit);
                return;
            }
            s.bump(|st| st.eth_rx += 1);
            let ethertype = v.ethertype();
            lease.charge(model.eth_proc);
            match ethertype {
                EtherType::ARP => {
                    Self::arp_input(&s, engine, &mut lease, &frame[ETHER_HDR_LEN..]);
                }
                EtherType::IPV4 => {
                    // The netisr/softirq hop: the interrupt handler queues
                    // the packet and the kernel processes it "later" (we
                    // charge the hop; processing continues on this CPU).
                    lease.charge(model.softirq);
                    let mut pkt = Mbuf::from_wire(&frame);
                    pkt.trim_front(ETHER_HDR_LEN);
                    Self::ip_input(&s, &tcp_layer, engine, &mut lease, pkt);
                }
                _ => {}
            }
            lease.charge(model.interrupt_exit);
        }));
        stack
    }

    fn arp_input(s: &Rc<BaselineShared>, engine: &mut Engine, lease: &mut CpuLease, bytes: &[u8]) {
        let Some(pkt) = ArpPacket::parse(bytes) else {
            return;
        };
        let now = lease.now().as_nanos();
        let satisfied = s.arp.borrow_mut().learn(pkt.sender_ip, pkt.sender_mac, now);
        if satisfied {
            let parked = s.arp_pending.borrow_mut().remove(&pkt.sender_ip);
            for frag in parked.into_iter().flatten() {
                s.eth_output(engine, lease, pkt.sender_mac, EtherType::IPV4, frag);
            }
        }
        if pkt.op == plexus_net::arp::ArpOp::Request && pkt.target_ip == s.ip {
            let reply = ArpPacket::reply_to(&pkt, s.mac, s.ip);
            let m = Mbuf::from_payload(ETHER_HDR_LEN, &reply.to_bytes());
            s.eth_output(engine, lease, pkt.sender_mac, EtherType::ARP, m);
        }
    }

    fn ip_input(
        s: &Rc<BaselineShared>,
        tcp: &Rc<TcpLayer>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        pkt: Mbuf,
    ) {
        let model = lease.model().clone();
        lease.charge(model.ip_proc);
        let now = lease.now().as_nanos();
        let offered = {
            let mut reasm = s.reasm.borrow_mut();
            reasm.expire(now);
            reasm.offer(&pkt, now)
        };
        let Some((hdr, payload)) = offered else {
            if pkt.total_len() >= ip::IP_HDR_LEN {
                s.bump(|st| st.ip_dropped += 1);
            }
            return;
        };
        if hdr.dst != s.ip && hdr.dst != Ipv4Addr::BROADCAST {
            s.bump(|st| st.ip_dropped += 1);
            return;
        }
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
        let model = lease.model().clone();
        let bytes = payload.to_vec();
        lease.charge(model.checksum(bytes.len()));
        let Some(msg) = IcmpMessage::parse(&bytes) else {
            return;
        };
        if msg.kind == IcmpType::EchoRequest {
            s.bump(|st| st.icmp_echoes += 1);
            let reply = IcmpMessage::echo_reply(&msg);
            let m = Mbuf::from_payload(64, &reply.to_bytes());
            lease.charge(model.checksum(m.total_len()));
            s.ip_output(engine, lease, hdr.src, ip::proto::ICMP, &m);
        }
    }

    fn udp_input(
        s: &Rc<BaselineShared>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        hdr: &IpHeader,
        payload: &Mbuf,
    ) {
        let model = lease.model().clone();
        lease.charge(model.udp_proc);
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
            lease.charge(model.checksum(payload.total_len()));
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
        self.shared.gateway.set(Some(gateway));
        self.shared.prefix_len.set(prefix_len);
    }

    /// Sends an ICMP echo request from the kernel (diagnostics).
    pub fn ping(&self, engine: &mut Engine, dst: Ipv4Addr, ident: u16, seq: u16, data: &[u8]) {
        let msg = IcmpMessage::echo_request(ident, seq, data);
        let m = Mbuf::from_payload(64, &msg.to_bytes());
        let mut lease = self.shared.cpu.begin(engine.now());
        let model = lease.model().clone();
        lease.charge(model.checksum(m.total_len()));
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
    pub fn sendto(&self, engine: &mut Engine, dst: Ipv4Addr, dst_port: u16, data: &[u8]) {
        let mut lease = self.shared.cpu.begin(engine.now());
        self.sendto_in(engine, &mut lease, dst, dst_port, data);
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
    ) {
        let model = lease.model().clone();
        self.process.trap(lease);
        self.process.copyin(lease, data.len());
        lease.charge(model.socket_layer);
        lease.charge(model.udp_proc);
        let payload = Mbuf::from_payload(64, data);
        if self.inner.checksum.get() {
            lease.charge(model.checksum(payload.total_len() + udp::UDP_HDR_LEN));
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
