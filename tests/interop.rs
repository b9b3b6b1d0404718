//! Cross-system interoperability: a Plexus machine and a DIGITAL UNIX
//! machine speak the same wire protocols (they share `plexus-net`), so
//! they must interoperate over a common segment — exactly the situation in
//! the paper's testbed, where SPIN and DIGITAL UNIX hosts exchanged
//! packets using the same drivers and protocol definitions.

use std::cell::{Cell, OnceCell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::baseline::{MonolithicStack, UdpSocket};
use plexus::core::{AppHandler, PlexusStack, StackConfig, TcpCallbacks, UdpRecv};
use plexus::kernel::dispatcher::RaiseCtx;
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::AddressSpace;
use plexus::net::ether::MacAddr;
use plexus::net::udp::{Endpoint, UdpConfig};
use plexus::net::Testbed;
use plexus::sim::nic::{Link, NicProfile};
use plexus::sim::time::SimDuration;
use plexus::sim::{Machine, Outcome, World};

/// A Plexus host and a DIGITAL UNIX host on one Ethernet segment, each
/// knowing the other's MAC.
fn mixed_pair() -> (World, Rc<PlexusStack>, Rc<MonolithicStack>) {
    let tb = Testbed::new(&Link::ethernet(), 7, &["spin-host", "dunix-host"]);
    let plexus = PlexusStack::attach_host(&tb.hosts[0], StackConfig::interrupt);
    let dunix = MonolithicStack::attach_host(&tb.hosts[1]);
    (tb.world, plexus, dunix)
}

#[test]
fn udp_flows_both_ways_between_the_systems() {
    // ARP between the two implementations must also interoperate: both
    // caches start cold here on purpose.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 7, &["spin-host", "dunix-host"]);
    let (a, b) = (&hosts[0], &hosts[1]);
    let plexus = PlexusStack::attach(&a.machine, &a.nic, StackConfig::interrupt(a.ip, a.mac));
    let dunix = MonolithicStack::attach(&b.machine, &b.nic, b.ip, b.mac);
    let ext = plexus
        .link_extension(&ExtensionSpec::typesafe(
            "interop",
            &["UDP.Bind", "UDP.Send"],
        ))
        .unwrap();

    // DUNIX process echoes; Plexus extension initiates and verifies.
    let dproc = AddressSpace::new();
    let slot: Rc<OnceCell<Rc<UdpSocket>>> = Rc::default();
    let d2 = slot.clone();
    let echo = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        let mut reply = ev.payload.to_vec();
        reply.reverse();
        let sock = d2.get().expect("socket open");
        sock.send_in(ctx, ev.src, ev.src_port, &reply)
            .expect("the payload fits one datagram");
    };
    let dsock = dunix.udp_socket(&dproc, 7, UdpConfig::default(), echo);
    let _ = slot.set(dsock.unwrap());

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    let pep = plexus
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &UdpRecv| {
                *g.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .unwrap();

    pep.send(world.engine_mut(), dunix.ip(), 7, b"abcdef")
        .unwrap();
    world.run();
    assert_eq!(*got.borrow(), b"fedcba", "reply crossed OS structures");
}

#[test]
fn plexus_client_talks_tcp_to_dunix_server() {
    let (mut world, plexus, dunix) = mixed_pair();
    let ext = plexus
        .link_extension(&ExtensionSpec::typesafe(
            "interop",
            &["TCP.Connect", "TCP.Send"],
        ))
        .unwrap();

    let dproc = AddressSpace::new();
    dunix.tcp().listen(&dproc, 80, |_, sock| {
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(|ctx, sock, data| {
                let mut out = b"dunix:".to_vec();
                out.extend_from_slice(data);
                sock.send_in(ctx, &out);
            })),
            on_peer_close: Some(Rc::new(|ctx, sock| sock.close_in(ctx))),
            ..Default::default()
        });
    });

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let conn = plexus
        .tcp()
        .connect(&ext, world.engine_mut(), (dunix.ip(), 80))
        .unwrap();
    let g = got.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"mixed stack"))),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(*got.borrow(), b"dunix:mixed stack");
}

#[test]
fn dunix_client_talks_tcp_to_plexus_httpd() {
    let (mut world, plexus, dunix) = mixed_pair();
    let ext = plexus
        .link_extension(&ExtensionSpec::typesafe(
            "httpd",
            &["TCP.Listen", "TCP.Send"],
        ))
        .unwrap();
    let mut docs = std::collections::HashMap::new();
    docs.insert("/".to_string(), b"hello from the kernel".to_vec());
    let _httpd = plexus::apps::Httpd::serve(&plexus, &ext, 80, docs).unwrap();

    let dproc = AddressSpace::new();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));
    let conn = dunix
        .tcp()
        .connect(world.engine_mut(), &dproc, (plexus.ip(), 80))
        .unwrap();
    let (g, d) = (got.clone(), done.clone());
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, sock| {
            sock.send_in(ctx, b"GET / HTTP/1.0\r\n\r\n");
        })),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        on_peer_close: Some(Rc::new(move |ctx, sock| {
            d.set(true);
            sock.close_in(ctx);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(10));
    assert!(done.get(), "HTTP/1.0 server closed after responding");
    let (status, body) = plexus::net::parse_response(&got.borrow()).expect("valid HTTP response");
    assert_eq!(status, 200);
    assert_eq!(body, b"hello from the kernel");
}

#[test]
fn icmp_ping_crosses_system_boundaries() {
    let (mut world, plexus, dunix) = mixed_pair();
    plexus.ping(world.engine_mut(), dunix.ip(), 1, 1, b"x");
    dunix.ping(world.engine_mut(), plexus.ip(), 2, 1, b"y");
    world.run();
    let echoes = |machine: &Machine| machine.books().outcome(Outcome::Echoed);
    assert_eq!(echoes(dunix.machine()), 1, "DUNIX answered SPIN's ping");
    assert_eq!(echoes(plexus.machine()), 1, "SPIN answered DUNIX's ping");
}

#[test]
fn a_mixed_lan_is_a_full_arp_mesh() {
    // Plexus, DIGITAL UNIX, Plexus on one segment. `attach_host` seeds
    // every cache from the testbed's one address plan whichever stack a
    // host runs, so everyone reaches everyone and no ARP frame is needed.
    use plexus::kernel::view::view;
    use plexus::net::ether::{EtherType, EtherView};

    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 7, &["spin-a", "dunix", "spin-b"]);
    let spin_a = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let dunix = MonolithicStack::attach_host(&hosts[1]);
    let spin_b = PlexusStack::attach_host(&hosts[2], StackConfig::thread);

    medium.start_capture();
    for dst in [dunix.ip(), spin_b.ip()] {
        spin_a.ping(world.engine_mut(), dst, 1, 1, b"a");
    }
    for dst in [spin_a.ip(), spin_b.ip()] {
        dunix.ping(world.engine_mut(), dst, 2, 1, b"d");
    }
    for dst in [spin_a.ip(), dunix.ip()] {
        spin_b.ping(world.engine_mut(), dst, 3, 1, b"b");
    }
    world.run();

    let frames = medium.stop_capture();
    assert_eq!(frames.len(), 12, "six echo requests, six replies");
    for f in &frames {
        let eth = view::<EtherView>(&f.bytes).expect("ethernet frame");
        assert_eq!(eth.ethertype(), EtherType::IPV4, "no ARP on the wire");
    }
    let books = [spin_a.machine(), dunix.machine(), spin_b.machine()].map(|m| m.books());
    for answered in books.map(|b| b.outcome(Outcome::Echoed)) {
        assert_eq!(answered, 2, "each host answered both of the others");
    }
    let parked = books.map(|b| b.outcome(Outcome::ArpParked));
    assert_eq!(parked[0] + parked[2], 0);
}

#[test]
fn dunix_host_routes_through_the_plexus_router() {
    // Mixed world: a DIGITAL UNIX host on subnet 1 reaches a Plexus host
    // on subnet 2 through the in-kernel IP router.
    use plexus::core::IpRouter;
    use plexus::sim::nic::{Medium, Nic};

    fn net1(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 8, 1, last)
    }
    fn net2(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 8, 2, last)
    }

    let mut world = World::new();
    let ma = world.add_machine("dunix-host");
    let mr = world.add_machine("router");
    let mb = world.add_machine("plexus-host");
    let seg1 = Medium::new(SimDuration::from_micros(1), true);
    let seg2 = Medium::new(SimDuration::from_micros(1), true);
    let nic_a = Nic::new(NicProfile::ethernet_lance(), &seg1);
    let nic_r1 = Nic::new(NicProfile::ethernet_lance(), &seg1);
    let nic_r2 = Nic::new(NicProfile::ethernet_lance(), &seg2);
    let nic_b = Nic::new(NicProfile::ethernet_lance(), &seg2);

    let dunix = MonolithicStack::attach(&ma, &nic_a, net1(2), MacAddr::local(1));
    dunix.set_gateway(net1(1), 24);
    let plexus = PlexusStack::attach(
        &mb,
        &nic_b,
        StackConfig::interrupt(net2(2), MacAddr::local(2)).with_gateway(net2(1)),
    );
    let _router = IpRouter::attach(
        &mr,
        &[
            (nic_r1, net1(1), MacAddr::local(101)),
            (nic_r2, net2(1), MacAddr::local(102)),
        ],
    );

    let ext = plexus
        .link_extension(&ExtensionSpec::typesafe("echo", &["UDP.Bind", "UDP.Send"]))
        .unwrap();
    let echo_slot: Rc<RefCell<Option<Rc<plexus::core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = echo_slot.clone();
    let pep = plexus
        .udp()
        .bind(
            &ext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .unwrap();
            }),
        )
        .unwrap();
    *echo_slot.borrow_mut() = Some(pep);

    let proc_ = AddressSpace::new();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    let keep = move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| *g.borrow_mut() = ev.payload.to_vec();
    let sock = dunix.udp_socket(&proc_, 2000, UdpConfig::default(), keep);
    sock.unwrap()
        .send(world.engine_mut(), net2(2), 7, b"mixed routed")
        .expect("the payload fits one datagram");
    world.run();
    assert_eq!(*got.borrow(), b"mixed routed");
    assert_eq!(mr.books().outcome(Outcome::Forwarded), 2);
    // Each machine's NICs, made with `Nic::new`, are on its books.
    for m in world.machines() {
        assert_eq!(m.books().balance(), 0, "{}: {}", m.name(), m.books());
    }
}

#[test]
fn the_same_protocol_code_puts_the_same_frames_on_the_wire() {
    // The paper's methodology (§4) as an executable claim: whichever OS
    // structure runs it, the exchange is the same protocol code. A cold-ARP
    // ping and then one fragmented ping, captured off the wire, are
    // byte-identical between a Plexus pair and a DIGITAL UNIX pair, and —
    // modulo addresses, idents and the TTL the router spends — identical on
    // both segments of Plexus -> in-kernel router -> DIGITAL UNIX.
    use plexus::core::IpRouter;
    use plexus::kernel::view::view;
    use plexus::net::ether::{EtherType, EtherView, ETHER_HDR_LEN};
    use plexus::net::Host;
    use plexus::sim::nic::{CapturedFrame, Medium, Nic};
    use plexus::sim::Engine;

    type Ping = Box<dyn Fn(&mut Engine, Ipv4Addr, &[u8])>;
    fn plexus_cold(h: &Host, gateway: Option<Ipv4Addr>) -> Ping {
        let cfg = StackConfig::interrupt(h.ip, h.mac);
        let cfg = gateway.map_or(cfg.clone(), |gw| cfg.with_gateway(gw));
        let s = PlexusStack::attach(&h.machine, &h.nic, cfg);
        Box::new(move |eng, dst, data| s.ping(eng, dst, 9, 1, data))
    }
    fn dunix_cold(h: &Host, gateway: Option<Ipv4Addr>) -> Ping {
        let s = MonolithicStack::attach(&h.machine, &h.nic, h.ip, h.mac);
        if let Some(gw) = gateway {
            s.set_gateway(gw, 24);
        }
        Box::new(move |eng, dst, data| s.ping(eng, dst, 9, 1, data))
    }
    // Who-has, is-at, echo, reply; then three fragments each way.
    fn exchange(world: &mut World, ping: &Ping, dst: Ipv4Addr) {
        let big: Vec<u8> = (0u32..4000).map(|x| (x % 251) as u8).collect();
        for data in [&b"cold"[..], &big] {
            ping(world.engine_mut(), dst, data);
            world.run();
        }
    }
    fn pair(attach: fn(&Host, Option<Ipv4Addr>) -> Ping) -> Vec<Vec<u8>> {
        let mut tb = Testbed::new(&Link::ethernet(), 3, &["a", "b"]);
        let ping = attach(&tb.hosts[0], None);
        let _responder = attach(&tb.hosts[1], None);
        tb.medium.start_capture();
        exchange(&mut tb.world, &ping, tb.hosts[1].ip);
        bytes_of(tb.medium.stop_capture())
    }
    fn bytes_of(cap: Vec<CapturedFrame>) -> Vec<Vec<u8>> {
        cap.into_iter().map(|f| f.bytes).collect()
    }
    // Blanks what legitimately differs between topologies: link and
    // network addresses (broadcast stays broadcast), IP ident, TTL and the
    // header checksum over them. Everything else must match.
    fn normalized(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
        frames
            .iter()
            .map(|f| {
                let mut f = f.clone();
                let eth = view::<EtherView>(&f).expect("ethernet frame");
                let (ethertype, broadcast) = (eth.ethertype(), eth.dst().is_broadcast());
                f[..12].fill(0);
                if broadcast {
                    f[..6].fill(0xFF);
                }
                let body = &mut f[ETHER_HDR_LEN..];
                match ethertype {
                    EtherType::ARP => body[8..28].fill(0),
                    EtherType::IPV4 => {
                        body[4..6].fill(0);
                        body[8] = 0;
                        body[10..20].fill(0);
                    }
                    other => panic!("unexpected {other:?}"),
                }
                f
            })
            .collect()
    }

    let plexus_pair = pair(plexus_cold);
    let dunix_pair = pair(dunix_cold);
    assert_eq!(plexus_pair.len(), 10, "2 ARP + 2 echo + 3 + 3 fragments");
    assert_eq!(plexus_pair, dunix_pair, "same bytes under either structure");

    // Plexus 10.8.1.2 -- router -- 10.8.2.2 DIGITAL UNIX.
    let (net1, net2) = (
        |last| Ipv4Addr::new(10, 8, 1, last),
        |last| Ipv4Addr::new(10, 8, 2, last),
    );
    let mut world = World::new();
    let [seg1, seg2] = [(); 2].map(|_| Medium::new(SimDuration::from_micros(1), true));
    let mut host = |name: &str, seg: &Rc<Medium>, ip: Ipv4Addr, mac: u8| Host {
        machine: world.add_machine(name),
        nic: Nic::new(NicProfile::ethernet_lance(), seg),
        ip,
        mac: MacAddr::local(mac),
        peers: Vec::new(),
    };
    let (a, b) = (
        host("plexus-host", &seg1, net1(2), 1),
        host("dunix-host", &seg2, net2(2), 2),
    );
    let ping = plexus_cold(&a, Some(net1(1)));
    let _responder = dunix_cold(&b, Some(net2(1)));
    let _router = IpRouter::attach(
        &world.add_machine("router"),
        &[
            (
                Nic::new(NicProfile::ethernet_lance(), &seg1),
                net1(1),
                MacAddr::local(101),
            ),
            (
                Nic::new(NicProfile::ethernet_lance(), &seg2),
                net2(1),
                MacAddr::local(102),
            ),
        ],
    );
    seg1.start_capture();
    seg2.start_capture();
    exchange(&mut world, &ping, b.ip);
    let want = normalized(&plexus_pair);
    for (segment, medium) in [("near", &seg1), ("far", &seg2)] {
        let got = normalized(&bytes_of(medium.stop_capture()));
        assert_eq!(got, want, "{segment} segment of the routed path");
    }
    for m in world.machines() {
        assert_eq!(m.books().balance(), 0, "{}: {}", m.name(), m.books());
    }
}
