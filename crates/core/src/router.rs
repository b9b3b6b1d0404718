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
//! * one [`Interface`] per port, the hosts' own: link tx, ARP (parking,
//!   re-asks, abandonment) and the echo responder.
//!
//! Hosts reach other subnets by configuring a gateway
//! ([`crate::StackConfig::with_gateway`]).

use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::view::view;
use plexus_net::ether::{self, EtherType, MacAddr, ETHER_HDR_LEN};
use plexus_net::ip::{self, Hop, IpHeader, IpView, RouteTable};
use plexus_net::mbuf::Mbuf;
use plexus_net::{IcmpMessage, IcmpType, Interface, Structure};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{Engine, Loss, Machine, Outcome};

/// A multi-interface IP router on one machine.
pub struct IpRouter {
    /// One per port, each its own [`Structure`]: frames go straight to
    /// its NIC.
    interfaces: Vec<Rc<Interface>>,
    routes: RouteTable,
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
        let ifs: Vec<Rc<Interface>> = interfaces
            .iter()
            .enumerate()
            .map(|(idx, (nic, ip_addr, mac))| {
                routes.add(*ip_addr, 24, idx, None);
                Rc::new(Interface::new(machine, nic, *ip_addr, *mac))
            })
            .collect();
        let router = Rc::new(IpRouter {
            interfaces: ifs,
            routes,
        });
        for iface in &router.interfaces {
            let (r, port) = (router.clone(), iface.clone());
            let rx = move |engine: &mut Engine, frame: &[u8]| r.rx(engine, &port, frame);
            iface.nic.attach(DriverConfig::per_frame(rx));
        }
        router
    }

    /// One received frame: driver costs, then ARP input (no `eth_proc`:
    /// ROADMAP item 8) or `eth_proc` and IP input. A frame for another MAC
    /// is [`Loss::ForeignMac`], one of another ethertype
    /// [`Loss::UnknownEthertype`].
    fn rx(&self, engine: &mut Engine, iface: &Rc<Interface>, frame: &[u8]) {
        let mut lease = iface.cpu.begin(engine.now());
        lease.charge(lease.model().interrupt_entry);
        lease.charge(iface.nic.profile().rx_cpu_cost(frame.len()));
        let ctx = &mut RaiseCtx {
            engine,
            lease: &mut lease,
        };
        match ether::accept(frame, iface.mac()).map(|v| v.ethertype()) {
            Some(EtherType::ARP) => iface.arp_input(ctx, &frame[ETHER_HDR_LEN..]),
            Some(EtherType::IPV4) => {
                ctx.lease.charge(ctx.lease.model().eth_proc);
                self.ip_input(ctx, iface, &frame[ETHER_HDR_LEN..]);
            }
            Some(_) => ctx.lease.lose(Loss::UnknownEthertype),
            None => ctx.lease.lose(Loss::ForeignMac),
        }
        ctx.lease.charge(ctx.lease.model().interrupt_exit);
    }

    fn ip_input(&self, ctx: &mut RaiseCtx<'_>, iface: &Rc<Interface>, bytes: &[u8]) {
        ctx.lease.charge(ctx.lease.model().ip_proc);
        let Some(v) = view::<IpView>(bytes).filter(|v| {
            v.checksum_ok() && v.version() == 4 && v.header_len() <= v.total_len().min(bytes.len())
        }) else {
            return ctx.lease.lose(Loss::IpBadHeader);
        };
        let hlen = v.header_len();
        let total = v.total_len().min(bytes.len());
        let (src, dst, ttl) = (v.src(), v.dst(), v.ttl());

        // Addressed to the router itself: answer pings (no checksum of the
        // request is charged: ROADMAP item 8); the router runs no other
        // protocol, and reassembles nothing.
        if self.interfaces.iter().any(|i| i.ip() == dst) {
            if v.protocol() == ip::proto::ICMP && !v.is_fragment() {
                iface.echo(ctx, src, &bytes[hlen..total]);
            } else {
                ctx.lease.lose(Loss::UnknownProtocol);
            }
            return;
        }

        // Forwarding path.
        if ttl <= 1 {
            ctx.lease.lose(Loss::TtlExpired);
            let te = IcmpMessage {
                kind: IcmpType::TimeExceeded,
                code: 0,
                ident: 0,
                seq: 0,
                payload: bytes[..total.min(28)].to_vec(),
            };
            let m = Mbuf::from_payload(64, &te.to_bytes());
            ctx.lease.charge(ctx.lease.model().checksum(m.total_len()));
            iface.send_ip(ctx, iface.ip(), src, ip::proto::ICMP, m);
            return;
        }

        let Some((out_idx, next_hop)) = self.routes.next_hop(dst) else {
            return ctx.lease.lose(Loss::NoRoute);
        };

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
        let out = &self.interfaces[out_idx];
        let egress_mtu = out.nic.profile().mtu;
        ctx.lease.count(Outcome::Forwarded);
        if payload.total_len() + ip::IP_HDR_LEN > egress_mtu {
            ctx.lease.count(Outcome::Refragmented);
        }
        for dgram in ip::datagrams(&hdr, &payload, egress_mtu) {
            out.output(ctx, Hop::Via(next_hop), dgram);
        }
    }

    /// Seeds an interface's ARP cache (steady-state benchmarking).
    pub fn seed_arp(&self, iface: usize, ip_addr: Ipv4Addr, mac: MacAddr) {
        self.interfaces[iface].seed_arp(ip_addr, mac);
    }
}
