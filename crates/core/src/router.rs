//! An in-kernel IP router.
//!
//! The paper's protocol graph ends at single-homed hosts, but SPIN's
//! pitch — protocol functionality "not generally available in conventional
//! systems" loaded into the kernel (§5.2) — extends naturally to packet
//! forwarding. This module is that extension: a multi-interface IP router
//! built from the same primitives (ARP, IP, ICMP, device drivers), with
//!
//! * longest-prefix-match forwarding over a [`RouteTable`],
//! * TTL decrement with ICMP Time Exceeded generation,
//! * re-fragmentation when the egress MTU is smaller than the ingress
//!   datagram (T3 → Ethernet, say), and
//! * per-interface ARP with packet parking.
//!
//! Hosts reach other subnets by configuring a gateway
//! ([`crate::StackConfig::with_gateway`]).

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::view::view;
use plexus_net::arp::ArpCache;
use plexus_net::ether::{self, EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use plexus_net::icmp::{self, IcmpMessage};
use plexus_net::ip::{self, IpHeader, IpView, RouteTable};
use plexus_net::mbuf::Mbuf;
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{CpuLease, Engine, Machine};

/// One router interface.
struct RouterIf {
    nic: Rc<Nic>,
    ip: Ipv4Addr,
    mac: MacAddr,
    arp: RefCell<ArpCache>,
}

/// Router statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Datagrams forwarded.
    pub forwarded: u64,
    /// Datagrams dropped: no route to the destination.
    pub no_route: u64,
    /// Datagrams dropped for TTL expiry (Time Exceeded sent).
    pub ttl_expired: u64,
    /// Datagrams re-fragmented for a smaller egress MTU.
    pub refragmented: u64,
    /// ICMP echo requests to the router itself, answered.
    pub echoes: u64,
    /// Datagrams dropped with a bad header checksum.
    pub bad_header: u64,
}

/// A multi-interface IP router on one machine.
pub struct IpRouter {
    machine: Rc<Machine>,
    interfaces: Vec<Rc<RouterIf>>,
    routes: RouteTable,
    stats: Cell<RouterStats>,
    ident: ip::Ident,
}

impl IpRouter {
    /// Builds a router over `machine`'s interfaces. `interfaces` pairs each
    /// NIC with its (address, MAC); directly attached /24 routes are
    /// installed automatically.
    pub fn attach(
        machine: &Rc<Machine>,
        interfaces: &[(Rc<Nic>, Ipv4Addr, MacAddr)],
    ) -> Rc<IpRouter> {
        assert!(
            interfaces.len() >= 2,
            "a router needs at least two interfaces"
        );
        let mut routes = RouteTable::new();
        let ifs: Vec<Rc<RouterIf>> = interfaces
            .iter()
            .enumerate()
            .map(|(idx, (nic, ip_addr, mac))| {
                let net = Ipv4Addr::from(u32::from(*ip_addr) & 0xFFFF_FF00);
                routes.add(net, 24, idx, None);
                Rc::new(RouterIf {
                    nic: nic.clone(),
                    ip: *ip_addr,
                    mac: *mac,
                    arp: RefCell::new(ArpCache::new(*ip_addr, *mac)),
                })
            })
            .collect();
        let router = Rc::new(IpRouter {
            machine: machine.clone(),
            interfaces: ifs,
            routes,
            stats: Cell::new(RouterStats::default()),
            ident: ip::Ident::starting_at(0x4000),
        });
        for riface in &router.interfaces {
            let r = router.clone();
            let iface = riface.clone();
            riface
                .nic
                .attach(DriverConfig::per_frame(move |engine, frame| {
                    r.rx(engine, &iface, frame);
                }));
        }
        router
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.stats.get()
    }

    fn bump<F: FnOnce(&mut RouterStats)>(&self, f: F) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn is_my_ip(&self, ip_addr: Ipv4Addr) -> bool {
        self.interfaces.iter().any(|i| i.ip == ip_addr)
    }

    fn rx(self: &Rc<Self>, engine: &mut Engine, iface: &Rc<RouterIf>, frame: &[u8]) {
        let mut lease = self.machine.cpu().begin(engine.now());
        lease.charge(lease.model().interrupt_entry);
        lease.charge(iface.nic.profile().rx_cpu_cost(frame.len()));
        if let Some(v) = ether::accept(frame, iface.mac, false) {
            match v.ethertype() {
                EtherType::ARP => {
                    let now = lease.now().as_nanos();
                    let input = iface.arp.borrow_mut().input(&frame[ETHER_HDR_LEN..], now);
                    for out in input.into_iter().flat_map(|i| i.frames()) {
                        self.transmit(engine, &mut lease, iface, &out);
                    }
                }
                EtherType::IPV4 => {
                    lease.charge(lease.model().eth_proc);
                    self.ip_input(engine, &mut lease, &frame[ETHER_HDR_LEN..]);
                }
                _ => {}
            }
        }
        lease.charge(lease.model().interrupt_exit);
    }

    fn ip_input(self: &Rc<Self>, engine: &mut Engine, lease: &mut CpuLease, bytes: &[u8]) {
        lease.charge(lease.model().ip_proc);
        let Some(v) = view::<IpView>(bytes) else {
            return;
        };
        let hlen = v.header_len();
        let total = v.total_len().min(bytes.len());
        if !v.checksum_ok() || v.version() != 4 || hlen > total {
            self.bump(|s| s.bad_header += 1);
            return;
        }
        let (src, dst, ttl) = (v.src(), v.dst(), v.ttl());

        // Addressed to the router itself: answer pings, drop the rest.
        if self.is_my_ip(dst) {
            if v.protocol() == ip::proto::ICMP && !v.is_fragment() {
                if let Some(reply) = icmp::echo_response(&bytes[hlen..total]) {
                    self.bump(|s| s.echoes += 1);
                    lease.charge(lease.model().checksum(reply.total_len()));
                    self.originate(engine, lease, src, ip::proto::ICMP, &reply);
                }
            }
            return;
        }

        // Forwarding path.
        if ttl <= 1 {
            self.bump(|s| s.ttl_expired += 1);
            let te = IcmpMessage {
                kind: plexus_net::icmp::IcmpType::TimeExceeded,
                code: 0,
                ident: 0,
                seq: 0,
                payload: bytes[..total.min(28)].to_vec(),
            };
            let m = Mbuf::from_payload(64, &te.to_bytes());
            lease.charge(lease.model().checksum(m.total_len()));
            self.originate(engine, lease, src, ip::proto::ICMP, &m);
            return;
        }

        let Some((out_idx, next_hop)) = self.routes.next_hop(dst) else {
            self.bump(|s| s.no_route += 1);
            return;
        };
        self.bump(|s| s.forwarded += 1);

        // Rebuild the datagram with TTL-1 (the header checksum is
        // recomputed by `encapsulate`; a real router would fix it
        // incrementally — the CPU cost model charges `ip_proc` either way).
        let payload = Mbuf::from_payload(ETHER_HDR_LEN, &bytes[hlen..total]);
        let hdr = IpHeader {
            src,
            dst,
            protocol: v.protocol(),
            ident: v.ident(),
            ttl: ttl - 1,
            more_fragments: v.more_fragments(),
            frag_offset: v.frag_offset(),
        };
        // A smaller egress link re-fragments. (Fragments of fragments keep
        // the original offsets, which `fragment` handles via
        // `hdr.frag_offset`.)
        let egress_mtu = self.interfaces[out_idx].nic.profile().mtu;
        if payload.total_len() + ip::IP_HDR_LEN > egress_mtu {
            self.bump(|s| s.refragmented += 1);
        }
        for dgram in ip::datagrams(&hdr, &payload, egress_mtu) {
            self.link_output(engine, lease, out_idx, next_hop, dgram);
        }
    }

    /// Builds and sends a router-originated datagram (ICMP) toward `dst`,
    /// from the address of the interface it leaves by.
    fn originate(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        dst: Ipv4Addr,
        protocol: u8,
        payload: &Mbuf,
    ) {
        lease.charge(lease.model().ip_proc);
        let (out_idx, next_hop) = self.routes.next_hop(dst).unwrap_or((0, dst));
        let src = self.interfaces[out_idx].ip;
        let hdr = IpHeader::simple(src, dst, protocol, self.ident.take());
        let dgram = ip::encapsulate(&hdr, payload.share());
        self.link_output(engine, lease, out_idx, next_hop, dgram);
    }

    /// Sends one datagram to `next_hop` out interface `iface_idx`: an ARP
    /// lookup, then whatever the cache says goes on the wire now.
    fn link_output(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        iface_idx: usize,
        next_hop: Ipv4Addr,
        dgram: Mbuf,
    ) {
        let iface = &self.interfaces[iface_idx];
        lease.charge(lease.model().arp_lookup);
        let now = lease.now().as_nanos();
        let resolved = iface.arp.borrow_mut().resolve(next_hop, now, dgram);
        if let Some(frame) = resolved.frame() {
            self.transmit(engine, lease, iface, frame);
        }
    }

    fn transmit(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        iface: &Rc<RouterIf>,
        out: &Frame,
    ) {
        lease.charge(lease.model().eth_proc);
        let mut frame = out.packet.share();
        ether::write_header(
            frame.prepend(ETHER_HDR_LEN),
            out.dst,
            iface.mac,
            out.ethertype,
        );
        lease.charge(iface.nic.tx_cpu_charge(lease.now(), frame.total_len()));
        let ready = lease.now();
        iface.nic.transmit(engine, ready, &frame);
    }

    /// Seeds an interface's ARP cache (steady-state benchmarking).
    pub fn seed_arp(&self, iface: usize, ip_addr: Ipv4Addr, mac: MacAddr) {
        self.interfaces[iface]
            .arp
            .borrow_mut()
            .learn(ip_addr, mac, 0);
    }
}
