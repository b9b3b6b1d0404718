//! One link and IP script over three structures.
//!
//! A Plexus host, a DIGITAL UNIX host and a router interface resolve, park,
//! re-ask, abandon, refuse, frame and answer through the same
//! `plexus_net::Interface`, and differ only in what they charge
//! around it. So the same script, run against each as the device that
//! resolves one cold hop, must see the same frames on that hop's segment,
//! the same deliveries in the same order and the same named drops. Fed
//! hostile frames, each must also balance its books: every frame its NICs
//! deliver ends in exactly one counted outcome or loss.

use std::any::Any;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::baseline::MonolithicStack;
use plexus::core::{AppHandler, IpRouter, PlexusStack, StackConfig, UdpRecv};
use plexus::kernel::dispatcher::RaiseCtx;
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::AddressSpace;
use plexus::net::ether::{self, EtherType, MacAddr};
use plexus::net::ip::{self, IpHeader};
use plexus::net::tcp::{TcpFlags, TcpSegment};
use plexus::net::udp::{self, Endpoint, UdpConfig};
use plexus::net::{Host, IcmpMessage, Mbuf, Testbed, MAX_PARKED_PER_HOP};
use plexus::sim::nic::{DriverConfig, FaultInjector, Link, Medium, Nic, NicProfile};
use plexus::sim::time::{SimDuration, SimTime};
use plexus::sim::{Books, Loss, Machine, Outcome, World};
use plexus::trace::{CounterKey, Recorder, Scope};

#[derive(Clone, Copy, Debug)]
enum Structure {
    Plexus,
    Dunix,
    Router,
}

const ALL: [Structure; 3] = [Structure::Plexus, Structure::Dunix, Structure::Router];

type Seen = Rc<RefCell<Vec<Vec<u8>>>>;

/// The TCP port a host device listens on.
const LISTENING: u16 = 2001;

/// Sends one datagram from the script's side.
type Send = Box<dyn Fn(&mut World, &[u8])>;

/// Teaches the device the MAC of an address on the hop's segment.
type Learn = Box<dyn Fn(Ipv4Addr, MacAddr)>;

/// A world in which the device under test resolves one cold hop, `peer`,
/// a Plexus host whose application keeps what arrives on UDP port 7.
struct Rig {
    world: World,
    /// The device's machine, whose books count every fate.
    machine: Rc<Machine>,
    /// The segment the hop is on, and the device's NIC there.
    segment: Rc<Medium>,
    nic: Rc<Nic>,
    /// Sends one datagram that the device must put on the hop's segment.
    send: Send,
    /// What the peer's application received.
    seen: Seen,
    peer: Rc<PlexusStack>,
    /// The device's addresses on the hop's segment.
    dut_ip: Ipv4Addr,
    dut_mac: MacAddr,
    learn: Learn,
    _keep: Rc<dyn Any>,
}

fn spec() -> ExtensionSpec {
    ExtensionSpec::typesafe("script", &["UDP.Bind", "UDP.Send", "TCP.Listen"])
}

/// A Plexus host with a cold ARP cache, keeping what arrives on port 7.
fn peer(host: &Host, seen: &Seen) -> Rc<PlexusStack> {
    let stack = PlexusStack::attach(
        &host.machine,
        &host.nic,
        StackConfig::interrupt(host.ip, host.mac),
    );
    let s = seen.clone();
    let keep = AppHandler::interrupt(move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        s.borrow_mut().push(ev.payload.to_vec());
    });
    let ext = stack.link_extension(&spec()).unwrap();
    stack
        .udp()
        .bind(&ext, 7, UdpConfig::default(), keep)
        .unwrap();
    stack
}

/// The rig for `structure`, with a flight recorder installed or not.
fn rig(structure: Structure, traced: bool) -> Rig {
    let rec = traced.then(|| Recorder::new(4096));
    let seen = Seen::default();
    if let Structure::Router = structure {
        return router_rig(rec, seen);
    }
    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["dut", "peer"]);
    if let Some(rec) = &rec {
        world.install_recorder(rec);
    }
    let (dut, to) = (&hosts[0], hosts[1].ip);
    let peer = peer(&hosts[1], &seen);
    let config = UdpConfig::default();
    let (send, learn, keep): (Send, Learn, Rc<dyn Any>) = match structure {
        Structure::Plexus => {
            let stack = PlexusStack::attach(
                &dut.machine,
                &dut.nic,
                StackConfig::interrupt(dut.ip, dut.mac),
            );
            let ext = stack.link_extension(&spec()).unwrap();
            let ignore = AppHandler::interrupt(|_, _| {});
            let from = stack.udp().bind(&ext, 2000, config, ignore).unwrap();
            stack.tcp().listen(&ext, LISTENING, |_, _| {}).unwrap();
            let send = move |world: &mut World, data: &[u8]| {
                from.send(world.engine_mut(), to, 7, data).unwrap();
            };
            let l = stack.clone();
            let learn = move |ip, mac| l.seed_arp(ip, mac);
            (Box::new(send), Box::new(learn), stack)
        }
        _ => {
            let stack = MonolithicStack::attach(&dut.machine, &dut.nic, dut.ip, dut.mac);
            let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
            let process = AddressSpace::new();
            let from = stack.udp_socket(&process, 2000, config, ignore).unwrap();
            assert!(stack.tcp().listen(&process, LISTENING, |_, _| {}));
            let send = move |world: &mut World, data: &[u8]| {
                from.send(world.engine_mut(), to, 7, data).unwrap();
            };
            let l = stack.clone();
            let learn = move |ip, mac| l.seed_arp(ip, mac);
            (Box::new(send), Box::new(learn), stack)
        }
    };
    Rig {
        world,
        machine: dut.machine.clone(),
        segment: medium,
        nic: dut.nic.clone(),
        send,
        seen,
        peer,
        dut_ip: dut.ip,
        dut_mac: dut.mac,
        learn,
        _keep: keep,
    }
}

/// A Plexus sender on segment 1, which knows the router's MAC there, as the
/// router knows the sender's; the router's interface on segment 2 resolves
/// the peer.
fn router_rig(rec: Option<Rc<Recorder>>, seen: Seen) -> Rig {
    let mut world = World::new();
    let [ma, mr, mb] = ["sender", "router", "peer"].map(|n| world.add_machine(n));
    let mut segment = |pair: [&Rc<Machine>; 2]| {
        let (medium, nics) = world.connect(
            &pair,
            NicProfile::ethernet_lance(),
            SimDuration::from_micros(1),
            true,
        );
        (medium, nics[0].clone(), nics[1].clone())
    };
    let (_, nic_a, nic_r1) = segment([&ma, &mr]);
    let (seg2, nic_r2, nic_b) = segment([&mr, &mb]);
    let net = |subnet, last| Ipv4Addr::new(10, 0, subnet, last);
    let sender = PlexusStack::attach(
        &ma,
        &nic_a,
        StackConfig::interrupt(net(1, 2), MacAddr::local(1)).with_gateway(net(1, 1)),
    );
    sender.seed_arp(net(1, 1), MacAddr::local(101));
    let router = IpRouter::attach(
        &mr,
        &[
            (nic_r1.clone(), net(1, 1), MacAddr::local(101)),
            (nic_r2.clone(), net(2, 1), MacAddr::local(102)),
        ],
    );
    router.seed_arp(0, net(1, 2), MacAddr::local(1));
    let peer_host = Host {
        machine: mb,
        nic: nic_b,
        ip: net(2, 2),
        mac: MacAddr::local(2),
        peers: Vec::new(),
    };
    let peer = peer(&peer_host, &seen);
    if let Some(rec) = &rec {
        world.install_recorder(rec);
    }
    let ext = sender.link_extension(&spec()).unwrap();
    let ignore = AppHandler::interrupt(|_, _| {});
    let from = sender
        .udp()
        .bind(&ext, 2000, UdpConfig::default(), ignore)
        .unwrap();
    let send = move |world: &mut World, data: &[u8]| {
        from.send(world.engine_mut(), net(2, 2), 7, data).unwrap();
    };
    let l = router.clone();
    Rig {
        world,
        machine: mr,
        segment: seg2,
        nic: nic_r2,
        send: Box::new(send),
        seen,
        peer,
        dut_ip: net(2, 1),
        dut_mac: MacAddr::local(102),
        learn: Box::new(move |ip, mac| l.seed_arp(1, ip, mac)),
        _keep: Rc::new((sender, router)),
    }
}

impl Rig {
    /// The device's books as they stand.
    fn books(&self) -> Books {
        self.machine.books()
    }

    /// What the device has lost for `loss`.
    fn drops(&self, loss: Loss) -> u64 {
        self.books().lost(loss)
    }

    /// Frames the device has put on the hop's segment.
    fn frames(&self) -> u64 {
        self.nic.stats().tx_frames
    }

    fn run_to(&mut self, secs: f64) {
        let until = SimTime::ZERO + SimDuration::from_secs_f64(secs);
        let left = until.saturating_since(self.world.engine().now());
        self.world.run_for(left);
    }
}

fn tagged(k: usize) -> Vec<u8> {
    vec![k as u8]
}

#[test]
fn a_cold_hop_resolves_and_drains_in_order() {
    for structure in ALL {
        let mut r = rig(structure, true);
        for k in 0..3 {
            (r.send)(&mut r.world, &tagged(k));
        }
        r.world.run();
        let want: Vec<Vec<u8>> = (0..3).map(tagged).collect();
        assert_eq!(*r.seen.borrow(), want, "{structure:?}: all three, in order");
        assert_eq!(r.frames(), 4, "{structure:?}: one who-has, then the three");
        assert_eq!(r.drops(Loss::ResolutionFailed), 0, "{structure:?}");
    }
}

#[test]
fn an_eaten_who_has_is_asked_again_then_abandoned_then_asked_afresh() {
    for structure in ALL {
        let mut r = rig(structure, true);
        r.segment.set_faults(FaultInjector::new(1.0, 0.0, 5));
        (r.send)(&mut r.world, b"first");
        (r.send)(&mut r.world, b"second");
        // The medium counts a frame it eats as sent.
        let mut asks = Vec::new();
        for at in [0.5, 1.5, 2.5, 3.5] {
            r.run_to(at);
            asks.push(r.frames());
        }
        assert_eq!(asks, [1, 2, 3, 3], "{structure:?}: asked at 0, 1 and 2 s");
        assert_eq!(
            r.drops(Loss::ResolutionFailed),
            2,
            "{structure:?}: abandoned at 3 s, one drop per parked datagram"
        );

        r.segment.set_faults(FaultInjector::none());
        (r.send)(&mut r.world, b"third");
        r.world.run();
        assert_eq!(r.frames(), 5, "{structure:?}: asked afresh, then sent");
        assert_eq!(*r.seen.borrow(), [b"third".to_vec()], "{structure:?}");
        assert_eq!(
            r.drops(Loss::ResolutionFailed),
            2,
            "{structure:?}: nothing new"
        );
    }
}

#[test]
fn a_burst_past_the_cap_parks_the_cap_and_names_the_rest() {
    for structure in ALL {
        let mut r = rig(structure, true);
        r.segment.set_faults(FaultInjector::new(1.0, 0.0, 5));
        for k in 0..MAX_PARKED_PER_HOP + 9 {
            (r.send)(&mut r.world, &tagged(k));
        }
        r.run_to(0.5);
        assert_eq!(
            r.drops(Loss::ArpQueueFull),
            9,
            "{structure:?}: past the cap"
        );
        assert_eq!(r.frames(), 1, "{structure:?}: one who-has, no storm");

        // The segment heals before the first re-ask: what was parked goes.
        r.segment.set_faults(FaultInjector::none());
        r.world.run();
        let want: Vec<Vec<u8>> = (0..MAX_PARKED_PER_HOP).map(tagged).collect();
        assert_eq!(*r.seen.borrow(), want, "{structure:?}: the cap, in order");
        assert_eq!(r.drops(Loss::ResolutionFailed), 0, "{structure:?}");
    }
}

#[test]
fn a_ping_is_answered() {
    for structure in ALL {
        let mut r = rig(structure, true);
        let ip_in = |r: &Rig| r.peer.machine().books().outcome(Outcome::IpIn);
        let heard = ip_in(&r);
        r.peer
            .ping(r.world.engine_mut(), r.dut_ip, 1, 1, b"anyone?");
        r.world.run();
        let echoes = r.books().outcome(Outcome::Echoed);
        assert_eq!(echoes, 1, "{structure:?}: one echo answered");
        assert_eq!(ip_in(&r), heard + 1, "{structure:?}: the reply");
    }
}

/// Every drop recorded, whatever its reason.
fn all_drops(rec: &Recorder) -> u64 {
    let counters = rec.registry().counters();
    let drops = counters
        .iter()
        .filter(|(k, _)| k.scope == Scope::Drop && k.metric == "count");
    drops.map(|(_, n)| n).sum()
}

#[test]
fn a_held_fragment_is_no_loss_and_a_bad_header_is_one_named_drop() {
    for structure in [Structure::Plexus, Structure::Dunix] {
        let Testbed {
            mut world, hosts, ..
        } = Testbed::new(&Link::ethernet(), 0, &["a", "b", "raw"]);
        let rec = Recorder::new(4096);
        world.install_recorder(&rec);
        let seen = Seen::default();
        let (a, b, raw) = (&hosts[0], &hosts[1], &hosts[2]);
        // The bare NIC hears everything on the segment, and keeps none of it.
        raw.nic.attach(DriverConfig::per_frame(|_, _| {}));
        let s = seen.clone();
        let config = UdpConfig::default();
        let (send, _b): (Send, Rc<dyn Any>) = match structure {
            Structure::Plexus => {
                let [sa, sb] = [a, b].map(|h| PlexusStack::attach_host(h, StackConfig::interrupt));
                let keep = AppHandler::interrupt(move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| {
                    s.borrow_mut().push(ev.payload.to_vec())
                });
                let ext = |stack: &PlexusStack| stack.link_extension(&spec()).unwrap();
                sb.udp().bind(&ext(&sb), 7, config, keep).unwrap();
                let ignore = AppHandler::interrupt(|_, _| {});
                let from = sa.udp().bind(&ext(&sa), 2000, config, ignore).unwrap();
                let to = sb.ip();
                let send = move |world: &mut World, data: &[u8]| {
                    from.send(world.engine_mut(), to, 7, data).unwrap();
                };
                (Box::new(send), sb)
            }
            _ => {
                let [sa, sb] = [a, b].map(MonolithicStack::attach_host);
                let keep = move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| {
                    s.borrow_mut().push(ev.payload.to_vec())
                };
                sb.udp_socket(&AddressSpace::new(), 7, config, keep)
                    .unwrap();
                let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
                let from = sa
                    .udp_socket(&AddressSpace::new(), 2000, config, ignore)
                    .unwrap();
                let to = sb.ip();
                let send = move |world: &mut World, data: &[u8]| {
                    from.send(world.engine_mut(), to, 7, data).unwrap();
                };
                (Box::new(send), sb)
            }
        };
        let dropped = || {
            let books = b.machine.books();
            books.lost(Loss::IpBadHeader) + books.lost(Loss::NotLocal)
        };
        // Three fragments over Ethernet, held until the last completes.
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        send(&mut world, &data);
        world.run();
        assert!(*seen.borrow() == [data], "{structure:?}: reassembled whole");
        assert_eq!(all_drops(&rec), 0, "{structure:?}: no drop record");
        assert_eq!(dropped(), 0, "{structure:?}: no IP loss counted");

        // One flipped header-checksum byte, from the bare NIC.
        let payload = udp::encapsulate(
            raw.ip,
            b.ip,
            2000,
            7,
            config,
            Mbuf::from_payload(64, b"bent"),
        );
        let hdr = IpHeader::simple(raw.ip, b.ip, ip::proto::UDP, 9);
        let mut frame = ip::encapsulate(&hdr, payload);
        let mut sum = [0u8; 1];
        frame.read_at(10, &mut sum);
        frame.write_at(10, &[sum[0] ^ 0xFF]);
        ether::write_header(frame.prepend(14), b.mac, raw.mac, EtherType::IPV4);
        let now = world.engine().now();
        raw.nic.transmit(world.engine_mut(), now, &frame);
        world.run();
        let bad = rec.registry().get(CounterKey {
            scope: Scope::Drop,
            label: rec.intern("ip_bad_header"),
            metric: "count",
        });
        assert_eq!(bad, 1, "{structure:?}: one named drop");
        assert_eq!(dropped(), 1, "{structure:?}: counted as an IP loss");
        assert_eq!(seen.borrow().len(), 1, "{structure:?}: not delivered");
    }
}

/// `payload` framed for `dst` as `ethertype` from the bare NIC at `src`.
fn framed(dst: MacAddr, src: MacAddr, ethertype: EtherType, mut payload: Mbuf) -> Mbuf {
    ether::write_header(payload.prepend(14), dst, src, ethertype);
    payload
}

/// A UDP datagram from `src`, port 2000, to `port` at `dst`, as `hdr`
/// makes it.
fn udp_to(hdr: IpHeader, port: u16) -> Mbuf {
    let config = UdpConfig::default();
    let payload = Mbuf::from_payload(64, b"hostile");
    ip::encapsulate(
        &hdr,
        udp::encapsulate(hdr.src, hdr.dst, 2000, port, config, payload),
    )
}

/// The conservation check, with the recorder off and on: every frame a
/// device's NICs hand its driver ends in exactly one outcome — delivered to
/// its application, answered by a kernel responder, forwarded, held by
/// reassembly — or one loss, whatever a bare NIC on the hop's segment sends
/// it: its books balance ([`Books::balance`]).
#[test]
fn every_frame_a_device_hears_ends_in_one_outcome() {
    for (structure, traced) in ALL.into_iter().flat_map(|s| [(s, false), (s, true)]) {
        let mut r = rig(structure, traced);
        let (dut_ip, dut_mac) = (r.dut_ip, r.dut_mac);
        let [a, b, c, _] = dut_ip.octets();
        let (raw_ip, raw_mac) = (Ipv4Addr::new(a, b, c, 200), MacAddr::local(200));
        (r.learn)(raw_ip, raw_mac);
        let raw = Nic::new(NicProfile::ethernet_lance(), &r.segment);
        raw.attach(DriverConfig::tx_only());

        let to = |dst| IpHeader::simple(raw_ip, dst, ip::proto::UDP, 9);
        let ipv4 = |dst_mac, dgram| framed(dst_mac, raw_mac, EtherType::IPV4, dgram);
        let mine = |dgram| ipv4(dut_mac, dgram);
        let mut bent = udp_to(to(dut_ip), 2000);
        let mut sum = [0u8; 1];
        bent.read_at(10, &mut sum);
        bent.write_at(10, &[sum[0] ^ 0xFF]);
        let fragment = |ident| IpHeader {
            ident,
            more_fragments: true,
            ..to(dut_ip)
        };
        let expiring = IpHeader {
            ttl: 1,
            ..to(Ipv4Addr::new(10, 0, 1, 2))
        };
        let ping_bytes = IcmpMessage::echo_request(1, 1, b"anyone?").to_bytes();
        let ping = IpHeader::simple(raw_ip, dut_ip, ip::proto::ICMP, 9);
        let tcp = IpHeader::simple(raw_ip, dut_ip, ip::proto::TCP, 9);
        let segment = |port, flags| {
            let seg = TcpSegment {
                src_port: 3000,
                dst_port: port,
                seq: 1,
                ack: 1,
                flags,
                window: 0,
                mss: None,
                payload: Vec::new(),
            };
            mine(ip::encapsulate(&tcp, seg.to_mbuf(raw_ip, dut_ip, 64)))
        };
        let frames = [
            // For another MAC.
            ipv4(MacAddr::local(77), udp_to(to(dut_ip), 2000)),
            // An ethertype nothing here takes.
            framed(
                dut_mac,
                raw_mac,
                EtherType(0x88B5),
                Mbuf::from_payload(64, &[0; 46]),
            ),
            // A protocol nothing here takes.
            mine(ip::encapsulate(
                &IpHeader::simple(raw_ip, dut_ip, 99, 9),
                Mbuf::from_payload(64, &[0; 26]),
            )),
            // A header checksum that does not verify, and a runt.
            mine(bent),
            mine(Mbuf::from_payload(64, &[0x45; 10])),
            // The first fragment of a datagram that never completes.
            mine(udp_to(fragment(9), 2000)),
            // A port nobody holds, and one the device's application does.
            mine(udp_to(to(dut_ip), 9)),
            mine(udp_to(to(dut_ip), 2000)),
            // An echo request.
            mine(ip::encapsulate(&ping, Mbuf::from_payload(64, &ping_bytes))),
            // A TCP segment that does not parse, an ACK to a port nobody
            // holds, and one to a port the device listens on.
            mine(ip::encapsulate(&tcp, Mbuf::from_payload(64, &[0x45; 26]))),
            segment(9, TcpFlags::ACK),
            segment(LISTENING, TcpFlags::ACK),
            // For addresses that are not the device's: a subnet no device
            // routes to, everyone, a host beyond the router, twice, the
            // second time with its TTL run out, and an address beyond the
            // router that no one answers ARP for. (The router forwards that
            // one, and its loss on the way out is of what it sends.)
            mine(udp_to(to(Ipv4Addr::new(10, 0, 3, 99)), 2000)),
            ipv4(MacAddr::BROADCAST, udp_to(to(Ipv4Addr::BROADCAST), 9)),
            mine(udp_to(to(Ipv4Addr::new(10, 0, 1, 2)), 2000)),
            mine(udp_to(expiring, 2000)),
            mine(udp_to(to(Ipv4Addr::new(10, 0, 1, 77)), 2000)),
        ];
        r.world.run();
        for frame in &frames {
            let now = r.world.engine().now();
            raw.transmit(r.world.engine_mut(), now, frame);
            r.world.run();
        }

        let books = r.books();
        assert_eq!(
            books.heard,
            frames.len() as u64,
            "{structure:?}: every frame heard"
        );
        let ends = Outcome::ALL.into_iter().filter(|o| o.ends_frame());
        let ended: u64 = ends.map(|o| books.outcome(o)).sum();
        assert!(ended > 0, "{structure:?}: {books}");
        assert_eq!(
            books.balance(),
            0,
            "{structure:?}, traced {traced}: {books}"
        );
        if let Structure::Plexus | Structure::Dunix = structure {
            // The fragment's group expires on reassembly's slow timer, as
            // the run drains.
            let named = [
                Loss::IpReassemblyTimeout,
                Loss::TcpBadSegment,
                Loss::TcpNoConnection,
            ]
            .map(|loss| books.lost(loss));
            assert_eq!(named, [1, 1, 2], "{structure:?}: expiry and TCP losses");
            assert!(
                books.lost(Loss::NotLocal) > 0,
                "{structure:?}: IP drops foreign datagrams"
            );
        }
    }
}
