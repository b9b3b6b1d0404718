//! End-to-end tests of the Plexus protocol graph over the simulated
//! network: two (or three) machines, full Ethernet/ARP/IP/UDP/TCP paths,
//! protection properties, and runtime adaptation.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusError, PlexusStack, SourcePolicy, StackConfig, TcpCallbacks};
use plexus_kernel::domain::{ExtensionSpec, LinkError};
use plexus_net::ether::{self, EtherType, MacAddr};
use plexus_net::ip::{self, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::{self, Endpoint, UdpConfig};
use plexus_net::{Host, IcmpMessage, IcmpType, Testbed};
use plexus_sim::nic::{DriverConfig, Link};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Loss, Outcome, World};
use plexus_trace::{CounterKey, Recorder, Scope, TraceEvent};

/// How many packets came to `outcome` on `stack`'s machine.
fn counted(stack: &PlexusStack, outcome: Outcome) -> u64 {
    stack.machine().books().outcome(outcome)
}

/// How many packets `stack`'s machine lost for `loss`.
fn lost(stack: &PlexusStack, loss: Loss) -> u64 {
    stack.machine().books().lost(loss)
}

fn ext_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["UDP.Bind", "UDP.Send", "Mbuf.Alloc"])
}

/// Plexus on each of `names`, all on one private Ethernet segment with
/// the ARP mesh seeded.
fn plexus_lan<const N: usize>(
    names: [&str; N],
    config: fn(Ipv4Addr, MacAddr) -> StackConfig,
) -> (World, [Rc<PlexusStack>; N]) {
    let tb = Testbed::new(&Link::ethernet(), 0, &names);
    let stacks = std::array::from_fn(|k| PlexusStack::attach_host(&tb.hosts[k], config));
    (tb.world, stacks)
}

/// Plexus on `host` with a cold ARP cache, for the tests of ARP itself.
fn attach_cold(host: &Host) -> Rc<PlexusStack> {
    PlexusStack::attach(
        &host.machine,
        &host.nic,
        StackConfig::interrupt(host.ip, host.mac),
    )
}

#[test]
fn udp_ping_pong_round_trip() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);

    let cext = client.link_extension(&ext_spec("PingClient")).unwrap();
    let sext = server.link_extension(&ext_spec("PingServer")).unwrap();

    // Server: echo every datagram back to its sender.
    let echo_ep: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let echo_for_handler = echo_ep.clone();
    let ep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = echo_for_handler.borrow().clone().expect("endpoint set");
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .expect("echo send");
            }),
        )
        .expect("server bind");
    *echo_ep.borrow_mut() = Some(ep);

    // Client: record the reply arrival time.
    let reply_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let reply_data: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let (ra, rd) = (reply_at.clone(), reply_data.clone());
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                ra.set(Some(ctx.lease.now().as_nanos()));
                *rd.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .expect("client bind");

    let t0 = world.engine().now();
    cep.send(world.engine_mut(), server.ip(), 7, b"12345678")
        .unwrap();
    world.run();

    let arrived = reply_at.get().expect("reply came back");
    assert_eq!(*reply_data.borrow(), b"12345678");
    let rtt_us = (arrived - t0.as_nanos()) as f64 / 1000.0;
    // Paper, Figure 5: <600 us on Ethernet for Plexus at interrupt level.
    assert!(
        (300.0..900.0).contains(&rtt_us),
        "Ethernet UDP RTT out of plausible range: {rtt_us} us"
    );
}

#[test]
fn thread_mode_is_slower_than_interrupt_mode() {
    let rtt = |interrupt: bool| -> u64 {
        let (mut world, [client, server]) = plexus_lan(
            ["alpha-a", "alpha-b"],
            if interrupt {
                StackConfig::interrupt
            } else {
                StackConfig::thread
            },
        );
        let cext = client.link_extension(&ext_spec("C")).unwrap();
        let sext = server.link_extension(&ext_spec("S")).unwrap();
        let ep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> =
            Rc::new(RefCell::new(None));
        let eh = ep_slot.clone();
        let mk_handler = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, ev: &plexus_core::UdpRecv| {
            let ep = eh.borrow().clone().unwrap();
            ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                .unwrap();
        };
        let handler = if interrupt {
            AppHandler::interrupt(mk_handler)
        } else {
            AppHandler::thread(mk_handler)
        };
        let sep = server
            .udp()
            .bind(&sext, 7, UdpConfig::default(), handler)
            .unwrap();
        *ep_slot.borrow_mut() = Some(sep);
        let done: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let d = done.clone();
        let recv = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, _ev: &plexus_core::UdpRecv| {
            d.set(Some(ctx.lease.now().as_nanos()));
        };
        let handler = if interrupt {
            AppHandler::interrupt(recv)
        } else {
            AppHandler::thread(recv)
        };
        let cep = client
            .udp()
            .bind(&cext, 2000, UdpConfig::default(), handler)
            .unwrap();
        cep.send(world.engine_mut(), server.ip(), 7, b"x").unwrap();
        world.run();
        done.get().expect("reply")
    };
    let fast = rtt(true);
    let slow = rtt(false);
    assert!(
        slow > fast + 100_000,
        "thread mode ({slow} ns) should cost well over interrupt mode ({fast} ns)"
    );
}

#[test]
fn endpoints_cannot_snoop_each_other() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    let a_hits = Rc::new(Cell::new(0u32));
    let b_hits = Rc::new(Cell::new(0u32));
    let (ah, bh) = (a_hits.clone(), b_hits.clone());
    server
        .udp()
        .bind(
            &sext,
            5000,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                ah.set(ah.get() + 1);
            }),
        )
        .unwrap();
    server
        .udp()
        .bind(
            &sext,
            5001,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                bh.set(bh.get() + 1);
            }),
        )
        .unwrap();

    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    for _ in 0..3 {
        cep.send(world.engine_mut(), server.ip(), 5000, b"for A only")
            .unwrap();
        world.run();
    }
    assert_eq!(a_hits.get(), 3);
    assert_eq!(b_hits.get(), 0, "B must never see A's datagrams");
    // The dispatcher positively filtered B: with the demux index its
    // guard is proven non-matching and skipped without running; with the
    // index off it is evaluated and rejected. Either way the reject is
    // accounted.
    let stats = server.dispatcher().stats();
    assert!(stats.guard_rejects + stats.demux_skipped > 0);
    assert!(stats.demux_hits > 0, "UDP delivery went through the index");
}

#[test]
fn port_collisions_are_refused() {
    let (_world, [_client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let err = server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(9000));
}

#[test]
fn spoofed_source_is_rejected_under_verify_policy() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = client.link_extension(&ext_spec("C")).unwrap();
    let ep = client
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    // Claiming someone else's address fails...
    let err = ep
        .send_verified(
            world.engine_mut(),
            Ipv4Addr::new(10, 0, 0, 99),
            server.ip(),
            7,
            b"x",
            SourcePolicy::Verify,
        )
        .unwrap_err();
    assert_eq!(err, PlexusError::SpoofDetected);
    assert_eq!(client.udp().spoofs_blocked(), 1);
    // ...claiming our own succeeds.
    ep.send_verified(
        world.engine_mut(),
        client.ip(),
        server.ip(),
        7,
        b"x",
        SourcePolicy::Verify,
    )
    .unwrap();
}

#[test]
fn linking_rejects_out_of_domain_imports() {
    let (_world, [_client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let rogue = ExtensionSpec::typesafe("Rogue", &["UDP.Bind", "VM.MapKernelMemory"]);
    match server.link_extension(&rogue) {
        Err(PlexusError::Link(LinkError::Unresolved(syms))) => {
            assert_eq!(syms, vec!["VM.MapKernelMemory"]);
        }
        other => panic!("expected link failure, got {other:?}"),
    }
}

#[test]
fn raw_ether_attach_cannot_claim_system_protocols() {
    let (_world, [_client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("AM")).unwrap();
    for taken in [EtherType::IPV4, EtherType::ARP] {
        let err = server
            .attach_ether(&ext, taken, AppHandler::interrupt(|_, _| {}))
            .unwrap_err();
        assert!(matches!(err, PlexusError::SnoopDenied(_)));
    }
    // And the experimental type is fine.
    server
        .attach_ether(
            &ext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(|_, _| {}),
        )
        .expect("experimental EtherType allowed");
}

#[test]
fn icmp_echo_round_trip() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    client.ping(world.engine_mut(), server.ip(), 77, 1, b"ping!");
    world.run();
    assert_eq!(counted(&server, Outcome::Echoed), 1);
    // The reply made it back up our IP layer.
    assert!(counted(&client, Outcome::IpIn) >= 1);
}

#[test]
fn arp_resolves_on_demand_and_queued_sends_drain() {
    // No ARP seeding: the first datagram must trigger a request/reply.
    let mut tb = Testbed::new(&Link::ethernet(), 0, &["alpha-a", "alpha-b"]);
    let (client, server) = (attach_cold(&tb.hosts[0]), attach_cold(&tb.hosts[1]));
    let world = &mut tb.world;
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let got = Rc::new(Cell::new(0u32));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                g.set(g.get() + 1);
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 7, b"needs arp")
        .unwrap();
    world.run();
    assert_eq!(got.get(), 1, "datagram parked on ARP then delivered");
    assert_eq!(counted(&server, Outcome::ArpReplied), 1);
    assert!(counted(&client, Outcome::ArpParked) >= 1);
}

#[test]
fn large_udp_datagrams_fragment_and_reassemble() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let data: Vec<u8> = (0u32..4000).map(|x| (x % 241) as u8).collect();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                *g.borrow_mut() = ev.payload.to_vec();
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 7, &data).unwrap();
    world.run();
    assert_eq!(*got.borrow(), data, "4000 B > Ethernet MTU must reassemble");
}

#[test]
fn closed_endpoint_stops_receiving_and_frees_port() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let hits = Rc::new(Cell::new(0u32));
    let h = hits.clone();
    let sep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| {
                h.set(h.get() + 1);
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 7, b"one")
        .unwrap();
    world.run();
    sep.close();
    cep.send(world.engine_mut(), server.ip(), 7, b"two")
        .unwrap();
    world.run();
    assert_eq!(hits.get(), 1, "no delivery after close");
    assert!(sep
        .send(world.engine_mut(), client.ip(), 2000, b"x")
        .is_err());
    // The port is free again (runtime adaptation).
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .expect("port reusable after close");
}

#[test]
fn checksum_disabled_udp_is_a_special_implementation() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let nocheck = UdpConfig { checksum: false };
    let got = Rc::new(Cell::new(0u32));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7001,
            nocheck,
            AppHandler::interrupt(move |_, _| {
                g.set(g.get() + 1);
            }),
        )
        .unwrap();
    let standard_before = counted(&server, Outcome::UdpIn);
    let cep = client
        .udp()
        .bind(&cext, 2000, nocheck, AppHandler::interrupt(|_, _| {}))
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 7001, b"video-ish")
        .unwrap();
    world.run();
    assert_eq!(got.get(), 1);
    assert_eq!(
        counted(&server, Outcome::UdpIn),
        standard_before,
        "special implementation bypasses the standard UDP node"
    );
}

/// The special-UDP adapter carries the application's handler to
/// `Ip.PacketRecv` with the class it was made with: a thread-class one
/// still pays a thread per datagram, an interrupt-class one still runs
/// under the extension time limit.
#[test]
fn the_special_udp_adapter_keeps_the_handlers_class() {
    const DATAGRAMS: u64 = 3;
    // One server with a checksum-less binding whose handler burns `burn`;
    // returns the server CPU's busy time and its terminations.
    let run = |thread: bool, limit: Option<SimDuration>, burn: SimDuration| {
        let Testbed {
            mut world, hosts, ..
        } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
        let server = PlexusStack::attach_host(&hosts[0], |ip, mac| StackConfig {
            ext_time_limit: limit,
            ..StackConfig::interrupt(ip, mac)
        });
        let client = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
        let sext = server.link_extension(&ext_spec("S")).unwrap();
        let cext = client.link_extension(&ext_spec("C")).unwrap();
        let nocheck = UdpConfig { checksum: false };
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        let recv = move |ctx: &mut plexus_kernel::RaiseCtx<'_>, _: &plexus_core::UdpRecv| {
            g.set(g.get() + 1);
            ctx.lease.charge(burn);
        };
        let handler = if thread {
            AppHandler::thread(recv)
        } else {
            AppHandler::interrupt(recv)
        };
        server.udp().bind(&sext, 7001, nocheck, handler).unwrap();
        let cep = client
            .udp()
            .bind(&cext, 2000, nocheck, AppHandler::interrupt(|_, _| {}))
            .unwrap();
        for _ in 0..DATAGRAMS {
            cep.send(world.engine_mut(), server.ip(), 7001, b"special")
                .unwrap();
        }
        world.run();
        assert_eq!(got.get(), DATAGRAMS, "every datagram reached the handler");
        (
            hosts[0].machine.cpu().busy(),
            server.dispatcher().stats().terminations,
        )
    };

    let model = plexus_sim::CostModel::alpha_3000_400();
    let (at_interrupt, _) = run(false, None, SimDuration::ZERO);
    let (in_threads, _) = run(true, None, SimDuration::ZERO);
    assert_eq!(
        in_threads - at_interrupt,
        (model.thread_spawn + model.context_switch).times(DATAGRAMS),
        "a thread per datagram for the thread-class handler, none for the other"
    );

    let limit = SimDuration::from_micros(50);
    let burn = SimDuration::from_millis(10);
    let (busy, terminations) = run(false, Some(limit), burn);
    assert_eq!(terminations, DATAGRAMS, "over budget on the special path");
    assert!(busy < SimDuration::from_millis(1), "charged the allotment");
    let (busy, terminations) = run(true, Some(limit), burn);
    assert_eq!(terminations, 0, "the limit binds interrupt delivery only");
    assert!(busy >= burn.times(DATAGRAMS));
}

#[test]
fn tcp_connect_transfer_close_end_to_end() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    // Server: echo-with-prefix service on port 80.
    server
        .tcp()
        .listen(&sext, 80, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    let mut reply = b"echo:".to_vec();
                    reply.extend_from_slice(data);
                    conn.send_in(ctx, &reply);
                })),
                // Orderly server: when the client half-closes, close too.
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(Cell::new(false));
    let closed = Rc::new(Cell::new(false));
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (server.ip(), 80))
        .unwrap();
    let (g, c0, cl) = (got.clone(), connected.clone(), closed.clone());
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            c0.set(true);
            conn.send_in(ctx, b"hello plexus");
        })),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        on_closed: Some(Rc::new(move |_, _| cl.set(true))),
        ..Default::default()
    });
    world.run_for(SimDuration::from_millis(500));
    assert!(connected.get(), "handshake completed");
    assert_eq!(*got.borrow(), b"echo:hello plexus");

    conn.close(world.engine_mut());
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(conn.state(), plexus_net::tcp::TcpState::Closed);
}

#[test]
fn tcp_bulk_transfer_is_intact() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let received: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let r = received.clone();
    server
        .tcp()
        .listen(&sext, 5001, move |_, conn| {
            let r = r.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    r.borrow_mut().extend_from_slice(data);
                })),
                ..Default::default()
            });
        })
        .unwrap();
    let data: Vec<u8> = (0u32..100_000).map(|x| (x % 253) as u8).collect();
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (server.ip(), 5001))
        .unwrap();
    let payload = data.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            conn.send_in(ctx, &payload);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(30));
    assert_eq!(received.borrow().len(), data.len());
    assert_eq!(*received.borrow(), data);
}

#[test]
fn udp_redirect_forwards_to_secondary_host() {
    // client -> forwarder (redirects port 7777) -> server.
    let (mut world, [client, fwd, server]) =
        plexus_lan(["client", "forwarder", "server"], StackConfig::interrupt);
    let fext = fwd.link_extension(&ext_spec("Fwd")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    fwd.udp().redirect(&fext, 7777, server.ip()).unwrap();
    type Received = Vec<(Ipv4Addr, Vec<u8>)>;
    let got: Rc<RefCell<Received>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    server
        .udp()
        .bind(
            &sext,
            7777,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                g.borrow_mut().push((ev.src, ev.payload.to_vec()));
            }),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    // Client sends to the FORWARDER's address.
    cep.send(world.engine_mut(), fwd.ip(), 7777, b"balance me")
        .unwrap();
    world.run();
    let got = got.borrow();
    assert_eq!(got.len(), 1, "datagram reached the secondary host");
    assert_eq!(
        got[0].0,
        client.ip(),
        "original source preserved end-to-end"
    );
    assert_eq!(got[0].1, b"balance me");
}

#[test]
fn tcp_redirect_preserves_end_to_end_semantics() {
    // The paper's §5.2 argument: the in-kernel forwarder redirects
    // *control* packets too, so connection establishment and teardown work
    // end-to-end between client and server.
    let (mut world, [client, fwd, server]) =
        plexus_lan(["client", "forwarder", "server"], StackConfig::interrupt);
    let fext = fwd.link_extension(&ext_spec("Fwd")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    let cext = client.link_extension(&ext_spec("C")).unwrap();

    // DSR-style: the server answers on the forwarder's address.
    fwd.tcp().redirect(&fext, 8080, server.ip()).unwrap();
    server.add_ip_alias(fwd.ip());
    server
        .tcp()
        .listen(&sext, 8080, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    let mut out = b"from-backend:".to_vec();
                    out.extend_from_slice(data);
                    conn.send_in(ctx, &out);
                })),
                ..Default::default()
            });
        })
        .unwrap();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    // Client connects to the FORWARDER.
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (fwd.ip(), 8080))
        .unwrap();
    let g = got.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"GET /"))),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(
        *got.borrow(),
        b"from-backend:GET /",
        "three-way handshake and data crossed the in-kernel redirector"
    );
    assert_eq!(conn.state(), plexus_net::tcp::TcpState::Established);
}

#[test]
fn special_tcp_implementation_coexists_with_standard() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    // TCP-special: claims port 9999 and counts raw segments itself.
    let raw_segments = Rc::new(Cell::new(0u32));
    let rs = raw_segments.clone();
    server
        .tcp()
        .claim_special(&sext, &[9999], move |_, _ev| {
            rs.set(rs.get() + 1);
        })
        .unwrap();

    // TCP-standard: normal service on port 80.
    let standard_data = Rc::new(RefCell::new(Vec::new()));
    let sd = standard_data.clone();
    server
        .tcp()
        .listen(&sext, 80, move |_, conn| {
            let sd = sd.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    sd.borrow_mut().extend_from_slice(data);
                })),
                ..Default::default()
            });
        })
        .unwrap();

    let before = counted(&server, Outcome::TcpIn);
    // A standard connection works.
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (server.ip(), 80))
        .unwrap();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"std"))),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(2));
    assert_eq!(*standard_data.borrow(), b"std");
    assert!(counted(&server, Outcome::TcpIn) > before);

    // Segments to the special port go to the special implementation, not
    // the standard node.
    let mid = counted(&server, Outcome::TcpIn);
    let conn2 = client
        .tcp()
        .connect(&cext, world.engine_mut(), (server.ip(), 9999))
        .unwrap();
    world.run_for(SimDuration::from_secs(2));
    assert!(raw_segments.get() > 0, "special implementation saw the SYN");
    assert_eq!(
        counted(&server, Outcome::TcpIn),
        mid,
        "standard node must not see special-port segments"
    );
    let _ = conn2;
}

#[test]
fn ephemeral_time_limit_terminates_runaway_extension() {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let sa = PlexusStack::attach_host(&hosts[0], |ip, mac| {
        let mut cfg = StackConfig::interrupt(ip, mac);
        cfg.ext_time_limit = Some(SimDuration::from_micros(50));
        cfg
    });
    let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let aext = sa.link_extension(&ext_spec("Runaway")).unwrap();
    let bext = sb.link_extension(&ext_spec("C")).unwrap();

    sa.udp()
        .bind(
            &aext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|ctx, _ev: &plexus_core::UdpRecv| {
                // A runaway handler trying to burn 10 ms at interrupt level.
                ctx.lease.charge(SimDuration::from_millis(10));
            }),
        )
        .unwrap();
    let cep = sb
        .udp()
        .bind(
            &bext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), sa.ip(), 7, b"trigger")
        .unwrap();
    world.run();
    assert_eq!(
        sa.dispatcher().stats().terminations,
        1,
        "over-budget ephemeral handler must be terminated"
    );
    // The CPU only lost the 50 us allotment, not 10 ms.
    assert!(hosts[0].machine.cpu().busy() < SimDuration::from_millis(1));
}

#[test]
fn special_tcp_handler_runs_under_the_extension_time_limit() {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let sa = PlexusStack::attach_host(&hosts[0], |ip, mac| {
        let mut cfg = StackConfig::interrupt(ip, mac);
        cfg.ext_time_limit = Some(SimDuration::from_micros(50));
        cfg
    });
    let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let aext = sa.link_extension(&ext_spec("Runaway")).unwrap();
    let bext = sb.link_extension(&ext_spec("C")).unwrap();

    // The extension wrote this handler, so it gets the allotment every
    // other interrupt-level extension handler gets.
    sa.tcp()
        .claim_special(&aext, &[9999], |ctx, _| {
            ctx.lease.charge(SimDuration::from_millis(10));
        })
        .unwrap();
    sb.tcp()
        .connect(&bext, world.engine_mut(), (sa.ip(), 9999))
        .unwrap();
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(
        sa.dispatcher().stats().terminations,
        1,
        "the SYN's handler overran 50 us and was terminated"
    );
    assert!(hosts[0].machine.cpu().busy() < SimDuration::from_millis(1));
}

#[test]
fn mac_filter_discards_foreign_frames() {
    // Three machines on one segment; A sends to B; C must filter the frame
    // at the driver: no host, and no extension on it, snoops the wire.
    let (mut world, [sa, sb, sc]) = plexus_lan(["a", "b", "c"], StackConfig::interrupt);

    let aext = sa.link_extension(&ext_spec("A")).unwrap();
    let bext = sb.link_extension(&ext_spec("B")).unwrap();
    let bep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let bs = bep_slot.clone();
    let bep = sb
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = bs.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, b"ok").unwrap();
            }),
        )
        .unwrap();
    *bep_slot.borrow_mut() = Some(bep);
    let aep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    aep.send(world.engine_mut(), sb.ip(), 7, b"unicast")
        .unwrap();
    world.run();
    // C heard the frames on the shared wire but filtered them all.
    assert_eq!(counted(&sc, Outcome::EthIn), 0);
    assert!(
        lost(&sc, Loss::MacFilter) >= 2,
        "request + reply filtered at C"
    );
}

#[test]
fn detach_ether_stops_delivery_at_runtime() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("AM")).unwrap();
    let hits = Rc::new(Cell::new(0u32));
    let h = hits.clone();
    let id = server
        .attach_ether(
            &ext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(move |_, _| {
                h.set(h.get() + 1);
            }),
        )
        .unwrap();
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"one",
        )
        .unwrap();
    world.run();
    assert_eq!(hits.get(), 1);
    assert!(server.detach_ether(id));
    assert!(!server.detach_ether(id), "double detach fails");
    client
        .send_ether(
            world.engine_mut(),
            server.mac(),
            EtherType::ACTIVE_MESSAGE,
            b"two",
        )
        .unwrap();
    world.run();
    assert_eq!(hits.get(), 1, "no delivery after detach");
}

#[test]
fn tcp_listen_conflicts_are_refused_and_unlisten_frees() {
    let (world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server.tcp().listen(&ext, 80, |_, _| {}).unwrap();
    let err = server.tcp().listen(&ext, 80, |_, _| {}).unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(80));
    // claim_special and redirect also respect the reservation.
    assert!(server.tcp().claim_special(&ext, &[80], |_, _| {}).is_err());
    assert!(server.tcp().redirect(&ext, 80, client.ip()).is_err());
    assert!(server.tcp().unlisten(80));
    assert!(!server.tcp().unlisten(80));
    server
        .tcp()
        .listen(&ext, 80, |_, _| {})
        .expect("port freed");
    let _ = world;
}

#[test]
fn udp_redirect_conflicts_with_existing_binding() {
    let (_world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &ext,
            9000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let err = server.udp().redirect(&ext, 9000, client.ip()).unwrap_err();
    assert_eq!(err, PlexusError::PortInUse(9000));
}

#[test]
fn recorder_shows_the_packet_walk() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let rec = Recorder::new(256);
    world.install_recorder(&rec);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();
    server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 7, b"traced")
        .unwrap();
    world.run();
    // Only the server receives a frame, so the handler entries recorded
    // under a packet are its walk up Figure 1's graph, in raise order.
    let walk: Vec<String> = rec
        .events()
        .iter()
        .filter(|r| r.packet.is_some())
        .filter_map(|r| match r.event {
            TraceEvent::HandlerEnter { event, .. } => Some(rec.name(event).to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(
        walk,
        vec!["Ethernet.PacketRecv", "Ip.PacketRecv", "Udp.PacketRecv"]
    );
    // A handler that did not run was either rejected by its guard or never
    // evaluated because the demux index ruled it out; the raise counts
    // both. Ip turned away ICMP and TCP, Ethernet turned away ARP.
    let turned_away = |event: &str| {
        let get = |scope, metric| {
            rec.registry().get(CounterKey {
                scope,
                label: rec.intern(event),
                metric,
            })
        };
        get(Scope::Guard, "verified.rejects") + get(Scope::Event, "demux.avoided")
    };
    assert_eq!(turned_away("Ip.PacketRecv"), 2);
    assert_eq!(turned_away("Ethernet.PacketRecv"), 1);
}

#[test]
fn udp_to_unbound_port_elicits_port_unreachable() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    cep.send(world.engine_mut(), server.ip(), 4444, b"anyone?")
        .unwrap();
    world.run();
    assert_eq!(counted(&server, Outcome::PortUnreachable), 1);
    // The ICMP error datagram came back to the client's IP layer.
    assert!(counted(&client, Outcome::IpIn) >= 1);
}

/// RFC 792: a destination-unreachable carries the offending datagram's IP
/// header and the first 8 bytes of its payload — for UDP, the header with
/// both ports. Read off the wire at a bare NIC that sent the datagram.
#[test]
fn a_port_unreachable_quotes_the_ip_header_and_the_udp_ports() {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["sender", "server"]);
    let (sender, server) = (&hosts[0], &hosts[1]);
    let _stack = PlexusStack::attach_host(server, StackConfig::interrupt);
    let heard: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let log = heard.clone();
    sender.nic.attach(DriverConfig::per_frame(move |_, frame| {
        log.borrow_mut().push(frame.to_vec())
    }));

    let payload = Mbuf::from_payload(64, b"is anyone listening on this port?");
    let dgram = udp::encapsulate(
        sender.ip,
        server.ip,
        2000,
        4444,
        UdpConfig::default(),
        payload,
    );
    let hdr = IpHeader::simple(sender.ip, server.ip, ip::proto::UDP, 77);
    let mut frame = ip::encapsulate(&hdr, dgram);
    ether::write_header(frame.prepend(14), server.mac, sender.mac, EtherType::IPV4);
    sender
        .nic
        .transmit(world.engine_mut(), SimTime::ZERO, &frame);
    world.run();

    let heard = heard.borrow();
    assert_eq!(heard.len(), 1, "one reply came back");
    let reply = &heard[0];
    assert_eq!(reply[23], ip::proto::ICMP, "an ICMP datagram");
    let msg = IcmpMessage::parse(&reply[14 + 20..]).expect("a well-formed ICMP message");
    assert_eq!((msg.kind, msg.code), (IcmpType::DestUnreachable, 3));
    let quote = &msg.payload;
    assert_eq!(
        quote.len(),
        20 + 8,
        "the IP header and 8 bytes of its payload"
    );
    assert_eq!(quote[0], 0x45, "starts with the original IPv4 header");
    assert_eq!(quote[9], ip::proto::UDP);
    assert_eq!(quote[12..16], sender.ip.octets(), "original source");
    assert_eq!(quote[16..20], server.ip.octets(), "original destination");
    assert_eq!(quote[20..22], 2000u16.to_be_bytes(), "UDP source port");
    assert_eq!(quote[22..24], 4444u16.to_be_bytes(), "UDP destination port");
}

#[test]
fn unanswered_arp_is_retried_then_abandoned() {
    // A lossy segment that eats every frame: ARP can never resolve.
    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    medium.set_faults(plexus_sim::nic::FaultInjector::new(1.0, 0.0, 5));
    let (sa, _sb) = (attach_cold(&hosts[0]), attach_cold(&hosts[1]));
    let ext = sa.link_extension(&ext_spec("C")).unwrap();
    let ep = sa
        .udp()
        .bind(
            &ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    ep.send(world.engine_mut(), hosts[1].ip, 7, b"stranded")
        .unwrap();
    world.run();
    assert_eq!(
        counted(&sa, Outcome::ArpAbandoned),
        1,
        "parked packets dropped after retries"
    );
    // The original request plus two retries were broadcast (the medium
    // counts them as transmitted before eating them).
    assert_eq!(hosts[0].nic.stats().tx_frames, 3);
}

#[test]
fn a_datagram_longer_than_ipv4_carries_is_refused_before_the_wire() {
    // 65 507 payload bytes fill an IPv4 datagram to its 65 535-byte total
    // length; one more would need a UDP length and fragment offsets that
    // do not fit their fields. (T3's MTU: Ethernet's transmit ring holds
    // fewer than the 45 fragments of the longest datagram.)
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 0, &["a", "b"]);
    let [sa, sb] = [0, 1].map(|k| PlexusStack::attach_host(&hosts[k], StackConfig::interrupt));
    let (aext, bext) = (
        sa.link_extension(&ext_spec("C")).unwrap(),
        sb.link_extension(&ext_spec("S")).unwrap(),
    );
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let g = got.clone();
    sb.udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                g.borrow_mut().push(ev.payload.to_vec());
            }),
        )
        .unwrap();
    let ep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let longest: Vec<u8> = (0..65_507u32).map(|i| (i % 251) as u8).collect();
    ep.send(world.engine_mut(), hosts[1].ip, 7, &longest)
        .unwrap();
    world.run();
    assert!(
        *got.borrow() == [longest],
        "the longest datagram arrives whole"
    );

    let (frames, busy) = (
        hosts[0].nic.stats().tx_frames,
        hosts[0].machine.cpu().busy(),
    );
    assert_eq!(
        ep.send(world.engine_mut(), hosts[1].ip, 7, &[0x5A; 65_508]),
        Err(PlexusError::DatagramTooLong(udp::DatagramTooLong {
            len: 65_508,
            max: 65_507
        }))
    );
    assert_eq!(world.engine().pending(), 0, "nothing scheduled");
    world.run();
    assert_eq!(
        hosts[0].nic.stats().tx_frames,
        frames,
        "nothing on the wire"
    );
    assert_eq!(hosts[0].machine.cpu().busy(), busy, "nothing charged");
    assert_eq!(got.borrow().len(), 1);
}

#[test]
fn a_failed_resolution_is_asked_again() {
    // The world of `unanswered_arp_is_retried_then_abandoned`, then the
    // segment heals: the abandoned hop must not stay a black hole.
    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    medium.set_faults(plexus_sim::nic::FaultInjector::new(1.0, 0.0, 5));
    let (sa, sb) = (attach_cold(&hosts[0]), attach_cold(&hosts[1]));
    let (aext, bext) = (
        sa.link_extension(&ext_spec("C")).unwrap(),
        sb.link_extension(&ext_spec("S")).unwrap(),
    );
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    sb.udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                g.borrow_mut().push(ev.payload.to_vec());
            }),
        )
        .unwrap();
    let ep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    ep.send(world.engine_mut(), hosts[1].ip, 7, b"stranded")
        .unwrap();
    world.run();
    assert_eq!(counted(&sa, Outcome::ArpAbandoned), 1);
    assert_eq!(hosts[0].nic.stats().tx_frames, 3);

    medium.set_faults(plexus_sim::nic::FaultInjector::none());
    ep.send(world.engine_mut(), hosts[1].ip, 7, b"second try")
        .unwrap();
    world.run();
    assert_eq!(
        hosts[0].nic.stats().tx_frames,
        5,
        "a fourth who-has, then the datagram it was parked behind"
    );
    assert_eq!(*got.borrow(), vec![b"second try".to_vec()]);
    assert_eq!(
        counted(&sa, Outcome::ArpAbandoned),
        1,
        "nothing new was abandoned"
    );
}

#[test]
fn the_arp_queue_is_bounded_and_overflow_is_a_named_drop() {
    use plexus_net::MAX_PARKED_PER_HOP;

    // Every frame is lost while a burst far larger than the cap is sent to
    // one cold hop: the cache parks up to its cap, refuses the rest as
    // `arp_queue_full`, and what it parked goes out when the segment heals
    // before the retries run out.
    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let rec = Recorder::new(4096);
    world.install_recorder(&rec);
    medium.set_faults(plexus_sim::nic::FaultInjector::new(1.0, 0.0, 5));
    let (sa, sb) = (attach_cold(&hosts[0]), attach_cold(&hosts[1]));
    let (aext, bext) = (
        sa.link_extension(&ext_spec("C")).unwrap(),
        sb.link_extension(&ext_spec("S")).unwrap(),
    );
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    sb.udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| g.set(g.get() + 1)),
        )
        .unwrap();
    let ep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let burst = MAX_PARKED_PER_HOP + 9;
    for _ in 0..burst {
        ep.send(world.engine_mut(), hosts[1].ip, 7, b"flood")
            .unwrap();
    }
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(counted(&sa, Outcome::ArpParked), MAX_PARKED_PER_HOP as u64);
    let refused = rec.registry().get(CounterKey {
        scope: Scope::Drop,
        label: rec.intern("arp_queue_full"),
        metric: "count",
    });
    assert_eq!(refused, 9, "every datagram past the cap is a named drop");
    assert_eq!(hosts[0].nic.stats().tx_frames, 1, "one who-has, no storm");

    medium.set_faults(plexus_sim::nic::FaultInjector::none());
    world.run();
    assert_eq!(got.get(), MAX_PARKED_PER_HOP, "the first retry got through");
    assert_eq!(counted(&sa, Outcome::ArpAbandoned), 0);
}

#[test]
fn a_stale_fragment_group_expires_instead_of_splicing() {
    // Hand-built fragments from a bare NIC: the head of one datagram,
    // then — 31 s later, past the reassembly timeout — the tail of another
    // that reuses its ident. Nothing calls `expire` for the stack; the
    // stale head must be gone anyway, or the receiver delivers a chimera.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let sb = attach_cold(&hosts[1]);
    let bext = sb.link_extension(&ext_spec("S")).unwrap();
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    let nocheck = UdpConfig { checksum: false };
    sb.udp()
        .bind(
            &bext,
            7001,
            nocheck,
            AppHandler::interrupt(move |_, ev: &plexus_core::UdpRecv| {
                g.borrow_mut().push(ev.payload.to_vec());
            }),
        )
        .unwrap();
    let (a, b) = (&hosts[0], &hosts[1]);
    let frames = |fill: u8| -> Vec<Mbuf> {
        let udp = plexus_net::udp::encapsulate(
            a.ip,
            b.ip,
            2000,
            7001,
            nocheck,
            Mbuf::from_payload(64, &[fill; 3000]),
        );
        let hdr = IpHeader::simple(a.ip, b.ip, ip::proto::UDP, 7);
        ip::fragment(&hdr, &udp, 1500)
            .into_iter()
            .map(|mut f| {
                let link = f.prepend(14);
                plexus_net::ether::write_header(link, b.mac, a.mac, EtherType::IPV4);
                f
            })
            .collect()
    };
    let (old, new) = (frames(0xAA), frames(0xBB));
    let send = |world: &mut World, f: &Mbuf| {
        let at = world.engine().now();
        a.nic.transmit(world.engine_mut(), at, f);
    };
    send(&mut world, &old[0]);
    world.run_for(SimDuration::from_secs(31));
    for f in &new[1..] {
        send(&mut world, f);
    }
    // Well inside the timeout: the new tail is still held.
    world.run_for(SimDuration::from_secs(1));
    assert!(
        got.borrow().is_empty(),
        "old head + new tail is no datagram"
    );
    send(&mut world, &new[0]);
    world.run();
    assert_eq!(*got.borrow(), vec![vec![0xBB; 3000]]);
}

#[test]
fn graph_description_reflects_installed_extensions() {
    let (_world, [_client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let ext = server.link_extension(&ext_spec("S")).unwrap();
    let before = server.graph_description();
    assert!(before.contains("Ethernet.PacketRecv"));
    assert!(before.contains("Udp.PacketRecv"));
    // Bind two endpoints: two more guarded handler nodes under UDP.
    server
        .udp()
        .bind(
            &ext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    server
        .udp()
        .bind(
            &ext,
            8,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let after = server.graph_description();
    let udp_line = after
        .lines()
        .find(|l| l.contains("Udp.PacketRecv"))
        .expect("UDP event listed");
    assert!(
        udp_line.contains("2 handler(s), 2 guarded"),
        "got: {udp_line}"
    );
}

#[test]
fn fifty_concurrent_tcp_connections_multiplex_cleanly() {
    // One server port, fifty simultaneous client connections: the
    // per-connection guards must demultiplex every segment to its own
    // connection, and all transfers must complete intact.
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let sext = server.link_extension(&ext_spec("S")).unwrap();

    server
        .tcp()
        .listen(&sext, 80, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    // Echo, tagged with the connection's remote port so
                    // cross-delivery would be caught.
                    let mut out = conn.remote().1.to_be_bytes().to_vec();
                    out.extend_from_slice(data);
                    conn.send_in(ctx, &out);
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();

    const N: usize = 50;
    let mut conns = Vec::new();
    let results: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; N]));
    for i in 0..N {
        let conn = client
            .tcp()
            .connect(&cext, world.engine_mut(), (server.ip(), 80))
            .unwrap();
        let payload = vec![i as u8; 32];
        let res = results.clone();
        let p2 = payload.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| conn.send_in(ctx, &p2))),
            on_data: Some(Rc::new(move |_, _, data| {
                res.borrow_mut()[i] = Some(data.to_vec());
            })),
            ..Default::default()
        });
        conns.push((conn, payload));
    }
    world.run_for(SimDuration::from_secs(30));

    for (i, (conn, payload)) in conns.iter().enumerate() {
        let got = results.borrow()[i]
            .clone()
            .unwrap_or_else(|| panic!("connection {i} got no echo (state {:?})", conn.state()));
        let (tag, body) = got.split_at(2);
        assert_eq!(
            u16::from_be_bytes([tag[0], tag[1]]),
            conn.local_port(),
            "echo tagged with the wrong connection's port"
        );
        assert_eq!(body, &payload[..], "connection {i} payload intact");
    }
}

#[test]
fn wire_capture_shows_the_whole_exchange() {
    // The simulated tcpdump: a cold-cache UDP ping-pong must appear on the
    // wire as ARP request, ARP reply, UDP request, UDP reply.
    use plexus_kernel::view::view;
    use plexus_net::ether::EtherView;

    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let (sa, sb) = (attach_cold(&hosts[0]), attach_cold(&hosts[1]));
    let aext = sa.link_extension(&ext_spec("C")).unwrap();
    let bext = sb.link_extension(&ext_spec("S")).unwrap();
    let slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = slot.clone();
    let bep = sb
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &plexus_core::UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, b"pong").unwrap();
            }),
        )
        .unwrap();
    *slot.borrow_mut() = Some(bep);
    let aep = sa
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();

    medium.start_capture();
    aep.send(world.engine_mut(), hosts[1].ip, 7, b"ping")
        .unwrap();
    world.run();
    let cap = medium.stop_capture();

    let kinds: Vec<u16> = cap
        .iter()
        .map(|f| view::<EtherView>(&f.bytes).unwrap().ethertype().0)
        .collect();
    // ARP request (broadcast), ARP reply, then two IP datagrams. B's reply
    // needs its own ARP resolution? No: B learned A's binding from the
    // request's sender fields.
    assert_eq!(
        kinds,
        vec![0x0806, 0x0806, 0x0800, 0x0800],
        "capture: {cap:?}"
    );
    // Timestamps are strictly increasing along the shared wire.
    for w in cap.windows(2) {
        assert!(w[0].at < w[1].at);
    }
}

#[test]
fn unloading_an_extension_tears_down_everything_it_installed() {
    let (mut world, [client, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let cext = client.link_extension(&ext_spec("C")).unwrap();
    let untouched = server.graph_description();
    // One extension holds one of each of the seven kinds of install: a
    // standard and a special (checksum-free) UDP endpoint, a UDP and a TCP
    // redirector, a TCP listener, a special TCP implementation over two
    // ports, and a raw Ethernet handler.
    let spec = ExtensionSpec::typesafe(
        "KitchenSink",
        &[
            "UDP.Bind",
            "UDP.Redirect",
            "TCP.Listen",
            "TCP.Redirect",
            "Ethernet.Attach",
        ],
    );
    let sext = server.link_extension(&spec).unwrap();
    let counter = || Rc::new(Cell::new(0u32));
    let (udp_hits, special_hits, raw_hits, eth_hits) = (counter(), counter(), counter(), counter());
    let count = |hits: &Rc<Cell<u32>>| {
        let hits = hits.clone();
        move || hits.set(hits.get() + 1)
    };
    let (on_udp, on_special, on_raw, on_eth) = (
        count(&udp_hits),
        count(&special_hits),
        count(&raw_hits),
        count(&eth_hits),
    );
    let sep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| on_udp()),
        )
        .unwrap();
    server
        .udp()
        .bind(
            &sext,
            9,
            UdpConfig { checksum: false },
            AppHandler::interrupt(move |_, _| on_special()),
        )
        .unwrap();
    server.udp().redirect(&sext, 53, client.ip()).unwrap();
    server.tcp().listen(&sext, 80, |_, _| {}).unwrap();
    server.tcp().redirect(&sext, 8080, client.ip()).unwrap();
    server
        .tcp()
        .claim_special(&sext, &[9000, 9001], move |_, _| on_raw())
        .unwrap();
    server
        .attach_ether(
            &sext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(move |_, _| on_eth()),
        )
        .unwrap();

    // The client counts what the UDP redirector sends its way, and is the
    // source of everything else.
    let redirected = counter();
    let on_redirected = count(&redirected);
    client
        .udp()
        .bind(
            &cext,
            53,
            UdpConfig::default(),
            AppHandler::interrupt(move |_, _| on_redirected()),
        )
        .unwrap();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(|_, _| {}),
        )
        .unwrap();
    let offer = |world: &mut World| {
        for port in [7, 9, 53] {
            cep.send(world.engine_mut(), server.ip(), port, b"dgram")
                .unwrap();
        }
        client
            .send_ether(
                world.engine_mut(),
                server.mac(),
                EtherType::ACTIVE_MESSAGE,
                b"am",
            )
            .unwrap();
        for port in [8080, 9000, 9001] {
            client
                .tcp()
                .connect(&cext, world.engine_mut(), (server.ip(), port))
                .unwrap();
        }
        world.run_for(SimDuration::from_millis(500));
    };

    // Traffic reaches all of it, and none of it reaches the standard nodes.
    offer(&mut world);
    assert_eq!(udp_hits.get(), 1);
    assert_eq!(special_hits.get(), 1);
    assert_eq!(redirected.get(), 1);
    assert_eq!(eth_hits.get(), 1);
    assert_eq!(raw_hits.get(), 2, "one SYN for each claimed port");
    assert_eq!(counted(&server, Outcome::PortUnreachable), 0);
    assert_eq!(counted(&server, Outcome::TcpIn), 0, "8080 redirected at IP");

    // Unload: every installation disappears, the symbols unlink, and the
    // resources are reusable by the next application.
    assert!(server.unload_extension("KitchenSink"));
    assert!(!server.unload_extension("KitchenSink"), "idempotent");
    assert_eq!(server.graph_description(), untouched);
    assert_eq!(
        sep.send(world.engine_mut(), client.ip(), 2000, b"late"),
        Err(PlexusError::Revoked),
        "the endpoint went with its extension"
    );
    let raw_at_unload = raw_hits.get();
    offer(&mut world);
    assert_eq!(udp_hits.get(), 1, "UDP endpoint gone");
    assert_eq!(special_hits.get(), 1, "special UDP endpoint gone");
    assert_eq!(redirected.get(), 1, "UDP redirector gone");
    assert_eq!(eth_hits.get(), 1, "raw handler gone");
    assert_eq!(raw_hits.get(), raw_at_unload, "special TCP gone");
    assert_eq!(
        counted(&server, Outcome::PortUnreachable),
        3,
        "ports 7, 9 and 53 are the standard UDP node's again"
    );
    assert!(
        counted(&server, Outcome::TcpIn) >= 3,
        "and 8080, 9000 and 9001 the standard TCP node's"
    );

    let next = server.link_extension(&spec).unwrap();
    for port in [7, 9, 53] {
        server
            .udp()
            .bind(
                &next,
                port,
                UdpConfig::default(),
                AppHandler::interrupt(|_, _| {}),
            )
            .unwrap_or_else(|e| panic!("UDP port {port} reusable: {e}"));
    }
    for port in [80, 8080, 9000, 9001] {
        server
            .tcp()
            .listen(&next, port, |_, _| {})
            .unwrap_or_else(|e| panic!("TCP port {port} reusable: {e}"));
    }
}

#[test]
fn a_name_in_use_cannot_be_linked_again() {
    let (_world, [_, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let a = server.link_extension(&ext_spec("A")).unwrap();
    assert_eq!(
        server.link_extension(&ext_spec("A")),
        Err(PlexusError::Link(LinkError::NameTaken("A".to_string()))),
        "one unload would take both"
    );
    // The name comes free with its holder, holdings and all.
    server.tcp().listen(&a, 80, |_, _| {}).unwrap();
    assert!(server.unload_extension("A"));
    let again = server.link_extension(&ext_spec("A")).unwrap();
    server.tcp().listen(&again, 80, |_, _| {}).unwrap();
}

#[test]
fn the_stacks_own_owner_names_cannot_be_linked() {
    let (_world, [_, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    for name in ["kernel", "arp", "ip", "icmp", "udp", "tcp"] {
        assert_eq!(
            server.link_extension(&ext_spec(name)),
            Err(PlexusError::Link(LinkError::NameTaken(name.to_string()))),
            "the recorder would bill {name:?}'s handlers to the kernel's"
        );
    }
    assert!(!server.unload_extension("udp"), "nothing was linked");
}

#[test]
fn unloading_an_extension_leaves_what_it_already_gave_up_to_its_next_owner() {
    let (world, [_, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let a = server.link_extension(&ext_spec("A")).unwrap();
    let b = server.link_extension(&ext_spec("B")).unwrap();

    // A listens on 80 and stops; B takes the port over.
    server.tcp().listen(&a, 80, |_, _| {}).unwrap();
    assert!(server.tcp().unlisten(80));
    server.tcp().listen(&b, 80, |_, _| {}).unwrap();

    // Unloading A undoes only what A still holds — nothing.
    assert!(server.unload_extension("A"));
    assert!(
        server.tcp().unlisten(80),
        "B's listener survived A's unload"
    );
    let _ = world;
}

#[test]
fn an_extension_cannot_take_or_delete_a_kernel_interface() {
    let (_world, [_, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let taken = |name: &str| Err(PlexusError::Link(LinkError::NameTaken(name.to_string())));
    // An extension named after an interface may neither replace it with
    // its own exports nor, exporting nothing, hold its name.
    let squatter = ExtensionSpec::typesafe("UDP", &["Mbuf.Alloc"]).with_exports(&["Bind"]);
    assert_eq!(server.link_extension(&squatter), taken("UDP"));
    assert_eq!(server.link_extension(&ext_spec("UDP")), taken("UDP"));
    // So unloading that name deletes nothing.
    assert!(!server.unload_extension("UDP"), "nothing was linked");
    server
        .link_extension(&ext_spec("Later"))
        .expect("UDP.Bind still resolves");
    // A layer's owner name stays reserved through an unload of it.
    assert!(!server.unload_extension("udp"));
    assert_eq!(server.link_extension(&ext_spec("udp")), taken("udp"));
}

#[test]
fn exports_resolve_qualified_by_the_exporters_name() {
    let (_world, [_, server]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let video = ExtensionSpec::typesafe("Video", &["UDP.Send"]).with_exports(&["Send"]);
    server.link_extension(&video).expect("a free name links");
    server
        .link_extension(&ExtensionSpec::typesafe("Viewer", &["Video.Send"]))
        .expect("an export is imported under its exporter's name");
    assert_eq!(
        server.link_extension(&ExtensionSpec::typesafe("Bare", &["Send"])),
        Err(PlexusError::Link(LinkError::Unresolved(vec![
            "Send".to_string()
        ]))),
        "a bare symbol names no interface"
    );
    assert!(server.unload_extension("Video"));
    assert_eq!(
        server.link_extension(&ExtensionSpec::typesafe("Late", &["Video.Send"])),
        Err(PlexusError::Link(LinkError::Unresolved(vec![
            "Video.Send".to_string()
        ]))),
        "the export leaves with its exporter"
    );
}

#[test]
fn a_link_token_acts_only_on_its_own_stack_while_its_link_stands() {
    let (mut world, [a, b]) = plexus_lan(["alpha-a", "alpha-b"], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("x", &["UDP.Bind", "TCP.Connect"]);
    let on_a = a.link_extension(&spec).unwrap();
    let quiet = || AppHandler::interrupt(|_, _| {});

    // A token minted by A installs nothing on B, so B's own `x` is alone
    // under its name there and unloading it closes only its endpoint.
    let refused = b.udp().bind(&on_a, 7, UdpConfig::default(), quiet());
    assert_eq!(refused.err(), Some(PlexusError::Revoked));
    let dialed = b.tcp().connect(&on_a, world.engine_mut(), (a.ip(), 80));
    assert_eq!(dialed.err(), Some(PlexusError::Revoked));
    let on_b = b.link_extension(&spec).unwrap();
    let ep = b
        .udp()
        .bind(&on_b, 9, UdpConfig::default(), quiet())
        .unwrap();
    assert!(b.unload_extension("x"));
    assert_eq!(
        ep.send(world.engine_mut(), a.ip(), 9, b""),
        Err(PlexusError::Revoked)
    );

    // A token kept past its unload installs nothing either.
    a.udp()
        .bind(&on_a, 7, UdpConfig::default(), quiet())
        .unwrap();
    assert!(a.unload_extension("x"));
    let stale = a.udp().bind(&on_a, 8, UdpConfig::default(), quiet());
    assert_eq!(stale.err(), Some(PlexusError::Revoked));
    let dialed = a.tcp().connect(&on_a, world.engine_mut(), (b.ip(), 80));
    assert_eq!(dialed.err(), Some(PlexusError::Revoked));
}
