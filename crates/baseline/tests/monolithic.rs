//! End-to-end tests of the monolithic baseline stack, including the
//! user-level splice forwarder.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use plexus_baseline::{MonolithicStack, UdpSocket, UserSplice};
use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::AddressSpace;
use plexus_net::tcp::{TcpCallbacks, TcpConn, TcpState};
use plexus_net::udp::{DatagramTooLong, Endpoint, UdpConfig, UdpRecv};
use plexus_net::Testbed;
use plexus_sim::nic::Link;
use plexus_sim::time::SimDuration;
use plexus_sim::{Loss, Outcome, World};

/// The monolithic stack on each of `names`, all on one `link` segment
/// with the ARP mesh seeded.
fn monolithic_lan<const N: usize>(
    link: &Link,
    names: [&str; N],
) -> (World, [Rc<MonolithicStack>; N]) {
    let tb = Testbed::new(link, 0, &names);
    let stacks = std::array::from_fn(|k| MonolithicStack::attach_host(&tb.hosts[k]));
    (tb.world, stacks)
}

type Received = Rc<RefCell<Vec<Vec<u8>>>>;

/// A socket on `port` whose process keeps every payload it receives.
fn collecting(stack: &MonolithicStack, port: u16, config: UdpConfig) -> Received {
    let got = Received::default();
    let g = got.clone();
    let keep = move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| g.borrow_mut().push(ev.payload.to_vec());
    let process = AddressSpace::new();
    stack.udp_socket(&process, port, config, keep).unwrap();
    got
}

/// A socket on port 2000 that only sends.
fn sender(stack: &MonolithicStack, process: &Rc<AddressSpace>) -> Rc<UdpSocket> {
    let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
    let config = UdpConfig::default();
    stack.udp_socket(process, 2000, config, ignore).unwrap()
}

#[test]
fn udp_ping_pong_round_trip_is_slower_than_plexus_target() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let cproc = AddressSpace::new();
    let sproc = AddressSpace::new();

    let slot: Rc<OnceCell<Rc<UdpSocket>>> = Rc::default();
    let echo2 = slot.clone();
    let echo = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        let sock = echo2.get().expect("socket open");
        sock.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share())
            .expect("the payload fits one datagram");
    };
    let echo_sock = server.udp_socket(&sproc, 7, UdpConfig::default(), echo);
    let _ = slot.set(echo_sock.expect("bind 7"));

    let reply_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let ra = reply_at.clone();
    let pong = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        assert_eq!(ev.payload.to_vec(), b"12345678");
        ra.set(Some(ctx.lease.now().as_nanos()));
    };
    let csock = client.udp_socket(&cproc, 2000, UdpConfig::default(), pong);

    let t0 = world.engine().now().as_nanos();
    csock
        .expect("bind 2000")
        .send(world.engine_mut(), server.ip(), 7, b"12345678")
        .expect("the payload fits one datagram");
    world.run();

    let rtt_us = (reply_at.get().expect("reply") - t0) as f64 / 1000.0;
    // The paper: DIGITAL UNIX is "substantially slower" than Plexus's
    // <600 us on Ethernet. Expect a four-digit number.
    assert!(
        (700.0..2500.0).contains(&rtt_us),
        "DUNIX Ethernet UDP RTT out of plausible range: {rtt_us} us"
    );
    // The boundary crossings actually happened.
    assert!(cproc.traps() >= 1);
    assert!(sproc.bytes_copied_out() >= 8);
    assert!(sproc.bytes_copied_in() >= 8);
}

#[test]
fn a_datagram_longer_than_ipv4_carries_is_refused_before_the_wire() {
    // T3, as for Plexus in `core/tests/graph.rs`: Ethernet's tx ring drops
    // one of the longest datagram's 45 fragments.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 0, &["a", "b"]);
    let client = MonolithicStack::attach_host(&hosts[0]);
    let server = MonolithicStack::attach_host(&hosts[1]);
    let got = collecting(&server, 7, UdpConfig::default());
    let cproc = AddressSpace::new();
    let csock = sender(&client, &cproc);
    let longest: Vec<u8> = (0..65_507u32).map(|i| (i % 251) as u8).collect();
    csock
        .send(world.engine_mut(), server.ip(), 7, &longest)
        .expect("65 507 bytes fit one datagram");
    world.run();
    assert!(
        *got.borrow() == [longest],
        "the longest datagram arrives whole"
    );

    let (frames, busy, traps) = (
        hosts[0].nic.stats().tx_frames,
        hosts[0].machine.cpu().busy(),
        cproc.traps(),
    );
    assert_eq!(
        csock.send(world.engine_mut(), server.ip(), 7, &[0x5A; 65_508]),
        Err(DatagramTooLong {
            len: 65_508,
            max: 65_507
        })
    );
    assert_eq!(world.engine().pending(), 0, "nothing scheduled");
    world.run();
    assert_eq!(
        hosts[0].nic.stats().tx_frames,
        frames,
        "nothing on the wire"
    );
    assert_eq!(hosts[0].machine.cpu().busy(), busy, "nothing charged");
    assert_eq!(cproc.traps(), traps, "refused before the trap");
    assert_eq!(got.borrow().len(), 1);
}

#[test]
fn port_collision_returns_none() {
    let (_world, [_c, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let p = AddressSpace::new();
    let _a = sender(&server, &p);
    let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
    assert!(server
        .udp_socket(&p, 2000, UdpConfig::default(), ignore)
        .is_none());
}

#[test]
fn icmp_echo_is_answered_in_kernel() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    client.ping(world.engine_mut(), server.ip(), 1, 1, b"hello");
    world.run();
    let books = server.machine().books();
    assert_eq!(books.outcome(Outcome::Echoed), 1);
}

#[test]
fn tcp_connect_transfer_close() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let cproc = AddressSpace::new();
    let sproc = AddressSpace::new();

    server.tcp().listen(&sproc, 80, |_, sock| {
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(|ctx, sock, data| {
                let mut out = b"re:".to_vec();
                out.extend_from_slice(data);
                sock.send_in(ctx, &out);
            })),
            on_peer_close: Some(Rc::new(|ctx, sock| sock.close_in(ctx))),
            ..Default::default()
        });
    });

    let got = Rc::new(RefCell::new(Vec::new()));
    let closed = Rc::new(Cell::new(false));
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &cproc, (server.ip(), 80))
        .unwrap();
    let (g, cl) = (got.clone(), closed.clone());
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, sock| {
            sock.send_in(ctx, b"payload");
        })),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        on_closed: Some(Rc::new(move |_, _| cl.set(true))),
        ..Default::default()
    });
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(*got.borrow(), b"re:payload");
    conn.close(world.engine_mut());
    world.run_for(SimDuration::from_secs(5));
    assert_eq!(conn.state(), plexus_net::tcp::TcpState::Closed);
}

#[test]
fn tcp_bulk_transfer_is_intact() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let cproc = AddressSpace::new();
    let sproc = AddressSpace::new();
    let received = Rc::new(RefCell::new(Vec::new()));
    let r = received.clone();
    server.tcp().listen(&sproc, 5001, move |_, sock| {
        let r = r.clone();
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(move |_, _, data| {
                r.borrow_mut().extend_from_slice(data);
            })),
            ..Default::default()
        });
    });
    let data: Vec<u8> = (0u32..80_000).map(|x| (x % 249) as u8).collect();
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &cproc, (server.ip(), 5001))
        .unwrap();
    let payload = data.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, sock| {
            sock.send_in(ctx, &payload);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(30));
    assert_eq!(received.borrow().len(), data.len());
    assert_eq!(*received.borrow(), data);
}

#[test]
fn user_splice_forwards_but_breaks_end_to_end() {
    // client -> forwarder(splice, port 8080) -> backend(port 80).
    let (mut world, [client, fwd, backend]) =
        monolithic_lan(&Link::ethernet(), ["client", "fwd", "backend"]);

    let bproc = AddressSpace::new();
    backend.tcp().listen(&bproc, 80, |_, sock| {
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(|ctx, sock, data| {
                let mut out = b"srv:".to_vec();
                out.extend_from_slice(data);
                sock.send_in(ctx, &out);
            })),
            ..Default::default()
        });
    });

    let splice = UserSplice::start(&fwd, world.engine_mut(), 8080, (backend.ip(), 80));

    let cproc = AddressSpace::new();
    let got = Rc::new(RefCell::new(Vec::new()));
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &cproc, (fwd.ip(), 8080))
        .unwrap();
    let g = got.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(|ctx, sock| sock.send_in(ctx, b"ping"))),
        on_data: Some(Rc::new(move |_, _, data| {
            g.borrow_mut().extend_from_slice(data);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(10));
    assert_eq!(*got.borrow(), b"srv:ping", "bytes crossed the splice");
    assert_eq!(splice.pair_count(), 1);
    // The end-to-end break: the client's TCP peer is the forwarder, and
    // the backend's TCP peer is also the forwarder — never each other.
    assert_eq!(conn.remote().0, fwd.ip());
}

#[test]
fn checksum_disabled_udp_socket_skips_verification() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let cproc = AddressSpace::new();
    // Both ends opt out of the UDP checksum (§1.1's media-traffic knob,
    // available to DIGITAL UNIX sockets too).
    let nocheck = UdpConfig { checksum: false };
    let got = collecting(&server, 7, nocheck);
    let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
    let csock = client.udp_socket(&cproc, 2000, nocheck, ignore).unwrap();
    csock
        .send(world.engine_mut(), server.ip(), 7, b"no integrity")
        .expect("the payload fits one datagram");
    world.run();
    assert_eq!(*got.borrow(), vec![b"no integrity".to_vec()]);
}

#[test]
fn udp_to_unbound_port_is_counted() {
    let (mut world, [client, server]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let cproc = AddressSpace::new();
    sender(&client, &cproc)
        .send(world.engine_mut(), server.ip(), 4444, b"anyone there?")
        .expect("the payload fits one datagram");
    world.run();
    let books = server.machine().books();
    assert_eq!(books.lost(Loss::UdpNoSocket), 1);
    assert_eq!(books.outcome(Outcome::Delivered), 0);
}

#[test]
fn wakeups_coalesce_under_tcp_bursts() {
    // The soreceive-style batching: a burst of segments arriving while the
    // receiving process has not yet run must share boundary crossings, so
    // the number of recv-side traps is well below the segment count. Use
    // the PIO ATM profile, where the receive CPU is the bottleneck and
    // segments genuinely queue behind the woken process.
    let (mut world, [client, server]) = monolithic_lan(&Link::atm(), ["a", "b"]);
    let cproc = AddressSpace::new();
    let sproc = AddressSpace::new();
    let received = Rc::new(Cell::new(0usize));
    let r = received.clone();
    server.tcp().listen(&sproc, 5001, move |_, sock| {
        let r = r.clone();
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(move |_, _, data| {
                r.set(r.get() + data.len());
            })),
            ..Default::default()
        });
    });
    let total = 200 * 1460;
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &cproc, (server.ip(), 5001))
        .unwrap();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, sock| {
            sock.send_in(ctx, vec![3u8; total]);
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(120));
    assert_eq!(received.get(), total);
    let recv_traps = sproc.traps();
    assert!(
        (recv_traps as usize) < 200,
        "200 segments must coalesce into fewer than 200 crossings: {recv_traps}"
    );
    assert!(recv_traps > 1, "but more than one crossing happened");
}

#[test]
fn splice_handles_multiple_concurrent_clients() {
    // Several clients through one splice port: each gets its own pair of
    // spliced sockets and its own bytes back.
    let (mut world, [client, fwd, backend]) =
        monolithic_lan(&Link::ethernet(), ["clients", "fwd", "backend"]);
    let bproc = AddressSpace::new();
    backend.tcp().listen(&bproc, 80, |_, sock| {
        sock.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(|ctx, sock, data| {
                sock.send_in(ctx, data);
            })),
            on_peer_close: Some(Rc::new(|ctx, sock| sock.close_in(ctx))),
            ..Default::default()
        });
    });
    let splice = UserSplice::start(&fwd, world.engine_mut(), 8080, (backend.ip(), 80));

    const N: usize = 8;
    let cproc = AddressSpace::new();
    let results: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; N]));
    for i in 0..N {
        let conn = client
            .tcp()
            .connect(world.engine_mut(), &cproc, (fwd.ip(), 8080))
            .unwrap();
        let res = results.clone();
        let body = vec![i as u8 + 1; 24];
        let b2 = body.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, sock| {
                sock.send_in(ctx, &b2);
            })),
            on_data: Some(Rc::new(move |_, _, data| {
                res.borrow_mut()[i] = Some(data.to_vec());
            })),
            ..Default::default()
        });
    }
    world.run_for(SimDuration::from_secs(20));
    assert_eq!(splice.pair_count(), N);
    for i in 0..N {
        assert_eq!(
            results.borrow()[i].as_deref(),
            Some(&vec![i as u8 + 1; 24][..]),
            "client {i} got its own bytes back"
        );
    }
}

/// Two monolithic hosts with *cold* ARP caches; `b` collects what arrives
/// on UDP port 7, `a` holds a socket to send from.
fn cold_pair() -> (Testbed, Rc<UdpSocket>, Received) {
    let tb = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let [a, b] = [0, 1].map(|k| {
        let h = &tb.hosts[k];
        MonolithicStack::attach(&h.machine, &h.nic, h.ip, h.mac)
    });
    let got = collecting(&b, 7, UdpConfig::default());
    let sock = sender(&a, &AddressSpace::new());
    (tb, sock, got)
}

#[test]
fn a_lost_arp_reply_does_not_strand_the_queue() {
    // The monolithic stack runs the shared ARP policy: a who-has the
    // segment eats is asked again at 1 s and 2 s and abandoned at 3 s, and
    // a later send to that hop asks afresh instead of parking forever
    // behind a question nobody is asking.
    use plexus_sim::nic::FaultInjector;
    let (mut tb, sock, got) = cold_pair();
    let dst = tb.hosts[1].ip;
    tb.medium.set_faults(FaultInjector::new(1.0, 0.0, 5));
    sock.send(tb.world.engine_mut(), dst, 7, b"first")
        .expect("the payload fits one datagram");
    tb.world.run();
    assert_eq!(
        tb.hosts[0].nic.stats().tx_frames,
        3,
        "the who-has and its two re-asks, all lost"
    );

    tb.medium.set_faults(FaultInjector::none());
    tb.world.run_for(SimDuration::from_secs(4));
    sock.send(tb.world.engine_mut(), dst, 7, b"second")
        .expect("the payload fits one datagram");
    tb.world.run();
    assert_eq!(
        tb.hosts[0].nic.stats().tx_frames,
        5,
        "asked afresh, then sent what was parked behind the new question"
    );
    assert_eq!(
        *got.borrow(),
        vec![b"second".to_vec()],
        "the stale datagram was dropped, the fresh one delivered"
    );
}

#[test]
fn the_arp_queue_is_bounded() {
    use plexus_net::MAX_PARKED_PER_HOP;
    // A burst to one cold hop, all sent before the is-at can come back:
    // the cache parks up to its cap and refuses the rest.
    let (mut tb, sock, got) = cold_pair();
    let dst = tb.hosts[1].ip;
    for k in 0..MAX_PARKED_PER_HOP + 9 {
        sock.send(tb.world.engine_mut(), dst, 7, &[k as u8])
            .expect("the payload fits one datagram");
    }
    tb.world.run();
    let want: Vec<Vec<u8>> = (0..MAX_PARKED_PER_HOP).map(|k| vec![k as u8]).collect();
    assert_eq!(*got.borrow(), want, "the first cap's worth, in order");
}

#[test]
fn a_redial_skips_a_port_a_live_connection_holds() {
    // `b` dials `a`'s listener on 30 000 from its own first ephemeral port,
    // 30 000, so `a`'s accepted connection holds (30 000, b, 30 000). When
    // `a` then dials `b`'s listener on 30 000, its first ephemeral port
    // would make the same 4-tuple: the allocator must pass it over rather
    // than register a second connection on top of the live one.
    let (mut world, [a, b]) = monolithic_lan(&Link::ethernet(), ["a", "b"]);
    let (pa, pb) = (AddressSpace::new(), AddressSpace::new());
    let echo = |tag: &'static [u8]| {
        move |_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |ctx, conn, data| {
                    conn.send_in(ctx, [tag, data].concat());
                })),
                ..Default::default()
            });
        }
    };
    let heard = |conn: &Rc<TcpConn>, ask: &'static [u8]| {
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| conn.send_in(ctx, ask))),
            on_data: Some(Rc::new(move |_, _, data| {
                g.borrow_mut().extend_from_slice(data)
            })),
            ..Default::default()
        });
        got
    };
    assert!(a.tcp().listen(&pa, 30_000, echo(b"a:")));
    let first = b
        .tcp()
        .connect(world.engine_mut(), &pb, (a.ip(), 30_000))
        .unwrap();
    assert_eq!(first.local_port(), 30_000);
    let first_got = heard(&first, b"one");
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(*first_got.borrow(), b"a:one");

    assert!(b.tcp().listen(&pb, 30_000, echo(b"b:")));
    let second = a
        .tcp()
        .connect(world.engine_mut(), &pa, (b.ip(), 30_000))
        .unwrap();
    assert_eq!(second.local_port(), 30_001, "30 000 is held and in use");
    let second_got = heard(&second, b"two");
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(*second_got.borrow(), b"b:two");
    assert_eq!(first.state(), TcpState::Established, "the first lives on");
    first.send(world.engine_mut(), b"three");
    world.run_for(SimDuration::from_millis(500));
    assert_eq!(*first_got.borrow(), b"a:onea:three");
}
