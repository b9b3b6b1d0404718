//! End-to-end tests of the in-kernel IP router: two subnets joined by a
//! router machine, hosts configured with gateways.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, IpRouter, PlexusStack, StackConfig, TcpCallbacks, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::ether::MacAddr;
use plexus_net::testbed::Testbed;
use plexus_net::udp::{Endpoint, UdpConfig};
use plexus_sim::nic::{Link, Medium, Nic, NicProfile};
use plexus_sim::time::SimDuration;
use plexus_sim::World;

fn net1(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, last)
}

fn net2(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, last)
}

/// host-a (10.0.1.2) --[eth segment 1]-- router --[segment 2]-- host-b (10.0.2.2)
struct Topology {
    world: World,
    host_a: Rc<PlexusStack>,
    host_b: Rc<PlexusStack>,
    router: Rc<IpRouter>,
    nic_a: Rc<Nic>,
}

fn build(profile_a: NicProfile, profile_b: NicProfile) -> Topology {
    let mut world = World::new();
    let ma = world.add_machine("host-a");
    let mr = world.add_machine("router");
    let mb = world.add_machine("host-b");

    let seg1 = Medium::new(SimDuration::from_micros(1), true);
    let seg2 = Medium::new(SimDuration::from_micros(1), true);
    let nic_a = Nic::new(profile_a.clone(), &seg1);
    let nic_r1 = Nic::new(profile_a, &seg1);
    let nic_r2 = Nic::new(profile_b.clone(), &seg2);
    let nic_b = Nic::new(profile_b, &seg2);

    let host_a = PlexusStack::attach(
        &ma,
        &nic_a.clone(),
        StackConfig::interrupt(net1(2), MacAddr::local(1)).with_gateway(net1(1)),
    );
    let host_b = PlexusStack::attach(
        &mb,
        &nic_b,
        StackConfig::interrupt(net2(2), MacAddr::local(2)).with_gateway(net2(1)),
    );
    let router = IpRouter::attach(
        &mr,
        &[
            (nic_r1, net1(1), MacAddr::local(101)),
            (nic_r2, net2(1), MacAddr::local(102)),
        ],
    );
    Topology {
        world,
        host_a,
        host_b,
        router,
        nic_a,
    }
}

fn spec() -> ExtensionSpec {
    ExtensionSpec::typesafe(
        "routed-app",
        &["UDP.Bind", "UDP.Send", "TCP.Listen", "TCP.Connect"],
    )
}

#[test]
fn udp_crosses_the_router_and_back() {
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    let aext = t.host_a.link_extension(&spec()).unwrap();
    let bext = t.host_b.link_extension(&spec()).unwrap();

    let echo_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = echo_slot.clone();
    let bep = t
        .host_b
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .unwrap();
            }),
        )
        .unwrap();
    *echo_slot.borrow_mut() = Some(bep);

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let src_seen: Rc<Cell<Option<Ipv4Addr>>> = Rc::new(Cell::new(None));
    let (g, ss) = (got.clone(), src_seen.clone());
    let aep = t
        .host_a
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &UdpRecv| {
                *g.borrow_mut() = ev.payload.to_vec();
                ss.set(Some(ev.src));
            }),
        )
        .unwrap();

    // No ARP seeding anywhere: host->router and router->host resolution
    // must work on demand on both segments.
    aep.send(t.world.engine_mut(), net2(2), 7, b"over the hill")
        .unwrap();
    t.world.run();

    assert_eq!(*got.borrow(), b"over the hill");
    assert_eq!(src_seen.get(), Some(net2(2)), "source survives forwarding");
    assert_eq!(
        t.router.stats().forwarded,
        2,
        "request + reply each forwarded"
    );
    assert_eq!(t.router.stats().no_route, 0);
}

#[test]
fn tcp_works_across_subnets() {
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    let aext = t.host_a.link_extension(&spec()).unwrap();
    let bext = t.host_b.link_extension(&spec()).unwrap();

    t.host_b
        .tcp()
        .listen(&bext, 80, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    let mut out = b"routed:".to_vec();
                    out.extend_from_slice(data);
                    conn.send_in(ctx, &out);
                })),
                ..Default::default()
            });
        })
        .unwrap();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let conn = t
        .host_a
        .tcp()
        .connect(&aext, t.world.engine_mut(), (net2(2), 80))
        .unwrap();
    let g = got.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"hello"))),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        ..Default::default()
    });
    t.world.run_for(SimDuration::from_secs(10));
    assert_eq!(*got.borrow(), b"routed:hello");
    assert!(t.router.stats().forwarded >= 6, "handshake + data + acks");
}

#[test]
fn router_answers_pings_on_both_interfaces() {
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    t.host_a.ping(t.world.engine_mut(), net1(1), 1, 1, b"hi");
    t.host_b.ping(t.world.engine_mut(), net2(1), 1, 1, b"hi");
    t.world.run();
    assert_eq!(t.router.stats().echoes, 2);
    assert!(t.host_a.stats().ip_rx >= 1, "reply reached host-a");
    assert!(t.host_b.stats().ip_rx >= 1, "reply reached host-b");
}

#[test]
fn large_datagrams_refragment_for_a_smaller_egress_mtu() {
    // host-a on a T3 (MTU 4470), host-b on Ethernet (MTU 1500): a 4000-byte
    // datagram leaves host-a in one piece and must be re-fragmented by the
    // router for the Ethernet side.
    let mut t = build(NicProfile::dec_t3(), NicProfile::ethernet_lance());
    let aext = t.host_a.link_extension(&spec()).unwrap();
    let bext = t.host_b.link_extension(&spec()).unwrap();
    let data: Vec<u8> = (0u32..4000).map(|x| (x % 239) as u8).collect();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    t.host_b
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &UdpRecv| {
                *g.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .unwrap();
    let aep = t
        .host_a
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    aep.send(t.world.engine_mut(), net2(2), 7, &data).unwrap();
    t.world.run();
    assert_eq!(*got.borrow(), data, "payload reassembled at the far host");
    assert!(t.router.stats().refragmented >= 1);
}

#[test]
fn ttl_expiry_generates_time_exceeded() {
    // A frame with TTL 1 injected at host-a's NIC toward the router: the
    // router must drop it and answer with ICMP Time Exceeded.
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    // Resolve ARP first with a normal ping to the router.
    t.host_a.ping(t.world.engine_mut(), net1(1), 9, 1, b"warm");
    t.world.run();

    // Build a TTL-1 UDP datagram host-a -> host-b by hand and put it on
    // segment 1 addressed to the router's MAC.
    use plexus_net::ip::{encapsulate, IpHeader};
    use plexus_net::mbuf::Mbuf;
    let hdr = IpHeader {
        src: net1(2),
        dst: net2(2),
        protocol: plexus_net::ip::proto::UDP,
        ident: 777,
        ttl: 1,
        more_fragments: false,
        frag_offset: 0,
    };
    let payload = plexus_net::udp::encapsulate(
        net1(2),
        net2(2),
        2000,
        7,
        UdpConfig::default(),
        Mbuf::from_payload(64, b"doomed"),
    );
    let mut dgram = encapsulate(&hdr, payload);
    let hdr_space = dgram.prepend(14);
    plexus_net::ether::write_header(
        hdr_space,
        MacAddr::local(101), // The router's segment-1 MAC.
        MacAddr::local(1),
        plexus_net::ether::EtherType::IPV4,
    );
    let at = t.world.engine().now();
    t.nic_a.transmit(t.world.engine_mut(), at, &dgram);
    t.world.run();

    assert_eq!(t.router.stats().ttl_expired, 1);
    assert_eq!(t.router.stats().forwarded, 0, "nothing was forwarded");
}

#[test]
fn off_subnet_without_gateway_is_counted_as_no_route() {
    // One subnet, no gateway configured.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 1, &["a", "b"]);
    let sa = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let _sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let ext = sa.link_extension(&spec()).unwrap();
    let ep = sa
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    ep.send(world.engine_mut(), net2(9), 7, b"nowhere to go")
        .unwrap();
    world.run();
    assert_eq!(sa.stats().no_route, 1);
}

/// [`build`]'s topology with segment 2 exposed for fault injection, host-a
/// already knowing the router's MAC (so only the *router's* resolution of
/// host-b is cold), and host-b collecting what arrives on UDP port 7.
struct ColdFarSide {
    world: World,
    seg2: Rc<Medium>,
    host_b: Rc<PlexusStack>,
    send: Rc<plexus_core::UdpEndpoint>,
    got: Rc<RefCell<Vec<Vec<u8>>>>,
    router: Rc<IpRouter>,
}

fn cold_far_side() -> ColdFarSide {
    let mut world = World::new();
    let [ma, mr, mb] = ["host-a", "router", "host-b"].map(|n| world.add_machine(n));
    let seg1 = Medium::new(SimDuration::from_micros(1), true);
    let seg2 = Medium::new(SimDuration::from_micros(1), true);
    let [nic_a, nic_r1] = [&seg1, &seg1].map(|m| Nic::new(NicProfile::ethernet_lance(), m));
    let [nic_r2, nic_b] = [&seg2, &seg2].map(|m| Nic::new(NicProfile::ethernet_lance(), m));
    let host_a = PlexusStack::attach(
        &ma,
        &nic_a,
        StackConfig::interrupt(net1(2), MacAddr::local(1)).with_gateway(net1(1)),
    );
    host_a.seed_arp(net1(1), MacAddr::local(101));
    let host_b = PlexusStack::attach(
        &mb,
        &nic_b,
        StackConfig::interrupt(net2(2), MacAddr::local(2)).with_gateway(net2(1)),
    );
    let router = IpRouter::attach(
        &mr,
        &[
            (nic_r1, net1(1), MacAddr::local(101)),
            (nic_r2, net2(1), MacAddr::local(102)),
        ],
    );
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    host_b
        .udp()
        .bind(
            &host_b.link_extension(&spec()).unwrap(),
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &UdpRecv| g.borrow_mut().push(ev.payload.to_vec())),
        )
        .unwrap();
    let send = host_a
        .udp()
        .bind(
            &host_a.link_extension(&spec()).unwrap(),
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    ColdFarSide {
        world,
        seg2,
        host_b,
        send,
        got,
        router,
    }
}

#[test]
fn a_lost_arp_reply_does_not_strand_the_routers_queue() {
    // The router runs the shared ARP policy: once the who-has the far
    // segment eats has been re-asked and abandoned, a later datagram for
    // that hop asks afresh instead of parking forever.
    use plexus_sim::nic::FaultInjector;
    let mut t = cold_far_side();
    t.seg2.set_faults(FaultInjector::new(1.0, 0.0, 5));
    t.send
        .send(t.world.engine_mut(), net2(2), 7, b"first")
        .unwrap();
    t.world.run();
    assert!(t.got.borrow().is_empty());

    t.seg2.set_faults(FaultInjector::none());
    t.world.run_for(SimDuration::from_secs(4));
    t.send
        .send(t.world.engine_mut(), net2(2), 7, b"second")
        .unwrap();
    t.world.run();
    assert_eq!(
        *t.got.borrow(),
        vec![b"second".to_vec()],
        "asked again: the stale datagram dropped, the fresh one forwarded"
    );
    assert_eq!(t.router.stats().forwarded, 2);
}

#[test]
fn the_routers_arp_queue_is_bounded() {
    use plexus_net::arp::MAX_PARKED_PER_HOP;
    use plexus_sim::nic::FaultInjector;
    // While the far segment eats the router's who-has, a burst well past
    // the cap arrives for one hop. Then, before the first re-ask at 1 s,
    // the segment heals and the hop itself speaks (its own who-has for the
    // gateway teaches the router its MAC): exactly the cap's worth comes
    // out, oldest first.
    let mut t = cold_far_side();
    t.seg2.set_faults(FaultInjector::new(1.0, 0.0, 5));
    for k in 0..MAX_PARKED_PER_HOP + 9 {
        t.send
            .send(t.world.engine_mut(), net2(2), 7, &[k as u8])
            .unwrap();
    }
    t.world.run_for(SimDuration::from_millis(500));
    t.seg2.set_faults(FaultInjector::none());
    t.host_b.ping(t.world.engine_mut(), net2(1), 1, 1, b"hello");
    t.world.run();
    let want: Vec<Vec<u8>> = (0..MAX_PARKED_PER_HOP).map(|k| vec![k as u8]).collect();
    assert_eq!(*t.got.borrow(), want);
    assert_eq!(t.router.stats().echoes, 1);
}

#[test]
fn a_header_longer_than_its_datagram_is_a_bad_header() {
    // IHL says 60 bytes, total length says 20: the router must count it,
    // not index past the end of the datagram.
    use plexus_net::checksum::checksum;
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    let mut frame = vec![0u8; 14 + 20];
    plexus_net::ether::write_header(
        &mut frame,
        MacAddr::local(101),
        MacAddr::local(1),
        plexus_net::ether::EtherType::IPV4,
    );
    let ip = &mut frame[14..];
    ip[0] = 0x4F; // Version 4, IHL 15.
    ip[3] = 20; // Total length.
    ip[8] = 64;
    ip[9] = plexus_net::ip::proto::ICMP;
    ip[12..16].copy_from_slice(&net1(2).octets());
    ip[16..20].copy_from_slice(&net1(1).octets());
    let sum = checksum(ip);
    ip[10..12].copy_from_slice(&sum.to_be_bytes());
    let at = t.world.engine().now();
    t.nic_a.transmit(t.world.engine_mut(), at, &frame[..]);
    t.world.run();
    assert_eq!(t.router.stats().bad_header, 1);
}

#[test]
fn the_routers_losses_are_named_as_the_hosts_name_theirs() {
    // A datagram for a subnet the router has no route to, a TTL-1 one and
    // one whose header checksum is off: each is counted, and each is a
    // drop record with the reason a host gives it (layer `ip`).
    use plexus_net::ether::{write_header, EtherType};
    use plexus_net::ip::{encapsulate, proto, IpHeader};
    use plexus_net::mbuf::Mbuf;
    use plexus_trace::{CounterKey, Recorder, Scope};
    let mut t = build(NicProfile::ethernet_lance(), NicProfile::ethernet_lance());
    let rec = Recorder::new(1024);
    t.world.install_recorder(&rec);
    let to_router = |dst, ttl, bend: bool| {
        let hdr = IpHeader {
            ttl,
            ..IpHeader::simple(net1(2), dst, proto::UDP, 5)
        };
        let mut dgram = encapsulate(&hdr, Mbuf::from_payload(64, b"lost"));
        if bend {
            dgram.write_at(10, &[0, 0]);
        }
        write_header(
            dgram.prepend(14),
            MacAddr::local(101),
            MacAddr::local(1),
            EtherType::IPV4,
        );
        dgram
    };
    let far_subnet = Ipv4Addr::new(10, 0, 3, 9);
    for frame in [
        to_router(far_subnet, 64, false),
        to_router(net2(2), 1, false),
        to_router(net2(2), 64, true),
    ] {
        let at = t.world.engine().now();
        t.nic_a.transmit(t.world.engine_mut(), at, &frame);
        t.world.run();
    }
    let stats = t.router.stats();
    assert_eq!(
        (stats.no_route, stats.ttl_expired, stats.bad_header),
        (1, 1, 1)
    );
    assert_eq!(stats.forwarded, 0);
    for reason in ["no_route", "ttl_expired", "ip_bad_header"] {
        let key = CounterKey {
            scope: Scope::Drop,
            label: rec.intern(reason),
            metric: "count",
        };
        assert_eq!(rec.registry().get(key), 1, "{reason}");
    }
}
