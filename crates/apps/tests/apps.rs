//! End-to-end tests of the application-specific protocols.

use std::cell::Cell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::{
    am_extension_spec, httpd_extension_spec, video_extension_spec, ActiveMessages, HttpGet, Httpd,
    VideoClient, VideoConfig, VideoServer,
};
use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::Testbed;
use plexus_sim::nic::{Link, NicProfile};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Disk, Framebuffer};

/// Plexus on both hosts of a private Ethernet segment, ARP seeded.
fn plexus_pair(names: [&str; 2]) -> (Testbed, Rc<PlexusStack>, Rc<PlexusStack>) {
    let tb = Testbed::new(&Link::ethernet(), 0, &names);
    let [a, b] = [0, 1].map(|k| PlexusStack::attach_host(&tb.hosts[k], StackConfig::interrupt));
    (tb, a, b)
}

#[test]
fn active_messages_ping_pong_at_interrupt_level() {
    let (Testbed { mut world, .. }, sa, sb) = plexus_pair(["a", "b"]);

    let ext_a = sa.link_extension(&am_extension_spec("AM-A")).unwrap();
    let ext_b = sb.link_extension(&am_extension_spec("AM-B")).unwrap();
    let am_a = Rc::new(ActiveMessages::install(&sa, &ext_a).unwrap());
    let am_b = Rc::new(ActiveMessages::install(&sb, &ext_b).unwrap());

    // B's handler 1: increment the argument and ack back on handler 2.
    let am_b2 = am_b.clone();
    am_b.register(1, move |ctx, msg| {
        am_b2.reply_in(ctx, msg.src, 2, msg.argument + 1, b"");
    });
    // A's handler 2: record the acknowledged value and arrival time.
    let acked: Rc<Cell<Option<(u64, u64)>>> = Rc::new(Cell::new(None));
    let ack2 = acked.clone();
    am_a.register(2, move |ctx, msg| {
        ack2.set(Some((msg.argument, ctx.lease.now().as_nanos())));
    });

    let t0 = world.engine().now().as_nanos();
    am_a.send(world.engine_mut(), sb.mac(), 1, 41, b"payload")
        .unwrap();
    world.run();

    let (value, at) = acked.get().expect("acknowledgement returned");
    assert_eq!(value, 42);
    assert_eq!(am_b.received(), 1);
    assert_eq!(am_a.received(), 1);
    let rtt_us = (at - t0) as f64 / 1000.0;
    // AM over Ethernet skips IP/UDP processing: faster than the UDP RTT.
    assert!(
        rtt_us < 600.0,
        "active-message RTT should undercut UDP: {rtt_us} us"
    );
}

#[test]
fn steady_state_active_messages_allocate_no_fresh_clusters() {
    use plexus_net::mbuf::{cluster_pool_stats, reset_cluster_pool};
    let (Testbed { mut world, .. }, sa, sb) = plexus_pair(["a", "b"]);
    let ext_a = sa.link_extension(&am_extension_spec("AM-A")).unwrap();
    let ext_b = sb.link_extension(&am_extension_spec("AM-B")).unwrap();
    let am_a = Rc::new(ActiveMessages::install(&sa, &ext_a).unwrap());
    let am_b = Rc::new(ActiveMessages::install(&sb, &ext_b).unwrap());

    // B echoes the payload back on handler 2; A verifies it intact — the
    // receive path gathers it across the whole chain, not just the head.
    let am_b2 = am_b.clone();
    am_b.register(1, move |ctx, msg| {
        am_b2.reply_in(ctx, msg.src, 2, msg.argument, &msg.payload);
    });
    let echoed: Rc<Cell<u64>> = Rc::new(Cell::new(0));
    let e2 = echoed.clone();
    let want: Vec<u8> = (0u16..512).map(|x| (x * 7) as u8).collect();
    let w2 = want.clone();
    am_a.register(2, move |_, msg| {
        assert_eq!(msg.payload, w2, "echoed payload must survive intact");
        e2.set(e2.get() + 1);
    });

    reset_cluster_pool();
    for _ in 0..4 {
        am_a.send(world.engine_mut(), sb.mac(), 1, 7, &want)
            .unwrap();
        world.run();
    }
    let before = cluster_pool_stats();
    for _ in 0..32 {
        am_a.send(world.engine_mut(), sb.mac(), 1, 7, &want)
            .unwrap();
        world.run();
    }
    let after = cluster_pool_stats();
    assert_eq!(echoed.get(), 36, "every echo arrived and verified");
    assert_eq!(
        after.allocated + after.unpooled,
        before.allocated + before.unpooled,
        "steady-state active messages must not allocate fresh clusters"
    );
}

#[test]
fn httpd_serves_documents_over_plexus_tcp() {
    let (Testbed { mut world, .. }, client, server) = plexus_pair(["client", "server"]);

    let sext = server
        .link_extension(&httpd_extension_spec("httpd"))
        .unwrap();
    let cext = client
        .link_extension(&httpd_extension_spec("wget"))
        .unwrap();
    let mut docs = HashMap::new();
    docs.insert(
        "/index.html".to_string(),
        b"<html>SPIN lives</html>".to_vec(),
    );
    let httpd = Httpd::serve(&server, &sext, 80, docs).unwrap();

    let get = HttpGet::start(
        &client,
        &cext,
        world.engine_mut(),
        (server.ip(), 80),
        "/index.html",
    )
    .unwrap();
    world.run_for(SimDuration::from_secs(10));
    let (status, body) = get.result().expect("response arrived");
    assert_eq!(status, 200);
    assert_eq!(body, b"<html>SPIN lives</html>");
    assert_eq!(httpd.stats().ok, 1);

    // A missing document 404s.
    let get2 = HttpGet::start(
        &client,
        &cext,
        world.engine_mut(),
        (server.ip(), 80),
        "/missing",
    )
    .unwrap();
    world.run_for(SimDuration::from_secs(10));
    assert_eq!(get2.result().expect("response").0, 404);
    assert_eq!(httpd.stats().not_found, 1);
}

/// Builds a T3 video world: one server with a disk (host 0) and N
/// clients with framebuffers.
fn video_world(n_clients: usize) -> Testbed {
    let clients: Vec<String> = (0..n_clients).map(|i| format!("client-{i}")).collect();
    let mut names = vec!["video-server"];
    names.extend(clients.iter().map(String::as_str));
    let tb = Testbed::new(&Link::t3(), 0, &names);
    tb.hosts[0].machine.set_disk(Disk::video_era());
    for client in &tb.hosts[1..] {
        client.machine.set_framebuffer(Framebuffer::new());
    }
    tb
}

#[test]
fn plexus_video_server_streams_to_clients() {
    let n = 3;
    let mut tb = video_world(n);
    let (server_host, client_hosts) = tb.hosts.split_first().unwrap();
    let server_stack = PlexusStack::attach_host(server_host, StackConfig::interrupt);
    let sext = server_stack
        .link_extension(&video_extension_spec("video-server"))
        .unwrap();
    let mut clients = Vec::new();
    for host in client_hosts {
        let st = PlexusStack::attach_host(host, StackConfig::interrupt);
        let ext = st.link_extension(&video_extension_spec("viewer")).unwrap();
        let client = VideoClient::plexus(&st, &ext, VideoConfig::default()).unwrap();
        clients.push((st, client));
    }

    let cfg = VideoConfig::default();
    let until = SimTime::ZERO + SimDuration::from_secs(1);
    let server = VideoServer::plexus(
        &server_stack,
        &sext,
        tb.world.engine_mut(),
        client_hosts.iter().map(|c| c.ip).collect(),
        cfg,
        until,
    )
    .unwrap();
    tb.world.run_for(SimDuration::from_secs(2));

    // ~30 frames in 1 s to each of the 3 clients.
    assert!(
        server.frames_sent() >= 25 * n as u64,
        "sent {} frame-datagrams",
        server.frames_sent()
    );
    for (_st, client) in &clients {
        let got = client.stats();
        assert!(got.frames >= 25, "client saw {} frames", got.frames);
        assert_eq!(got.bytes, got.frames * cfg.frame_bytes as u64);
    }
    // Frames exceed the T3 MTU, so they fragmented and reassembled.
    assert!(cfg.frame_bytes > NicProfile::dec_t3().mtu);
}

#[test]
fn dunix_video_server_uses_more_cpu_than_plexus() {
    let n = 10;
    let run = |plexus: bool| -> f64 {
        let mut tb = video_world(n);
        let (server, clients) = tb.hosts.split_first().unwrap();
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        let cfg = VideoConfig::default();
        // Sinks on the clients so the frames are absorbed (baseline stack
        // works for both server types as a sink).
        let _sinks: Vec<_> = clients.iter().map(MonolithicStack::attach_host).collect();
        let addrs: Vec<Ipv4Addr> = clients.iter().map(|c| c.ip).collect();
        let cpu = server.machine.cpu().clone();
        let busy0 = cpu.busy();
        if plexus {
            let st = PlexusStack::attach_host(server, StackConfig::interrupt);
            let ext = st.link_extension(&video_extension_spec("vs")).unwrap();
            let _srv =
                VideoServer::plexus(&st, &ext, tb.world.engine_mut(), addrs, cfg, until).unwrap();
            tb.world.run_for(SimDuration::from_secs(1));
        } else {
            let st = MonolithicStack::attach_host(server);
            let _srv = VideoServer::dunix(&st, tb.world.engine_mut(), addrs, cfg, until).unwrap();
            tb.world.run_for(SimDuration::from_secs(1));
        }
        cpu.utilization(busy0, SimDuration::from_secs(1))
    };
    let plexus_util = run(true);
    let dunix_util = run(false);
    assert!(plexus_util > 0.01, "plexus server did work: {plexus_util}");
    assert!(
        dunix_util > plexus_util * 1.5,
        "paper: DUNIX uses ~2x the CPU; got plexus={plexus_util:.3} dunix={dunix_util:.3}"
    );
}

mod reliable_protocol {
    use super::*;
    use plexus_apps::{reliable_extension_spec, ReliableConfig, ReliableReceiver, ReliableSender};
    use plexus_sim::nic::FaultInjector;

    #[test]
    fn delivers_in_order_over_a_clean_link() {
        let (Testbed { mut world, .. }, sa, sb) = plexus_pair(["a", "b"]);
        let aext = sa.link_extension(&reliable_extension_spec("tx")).unwrap();
        let bext = sb.link_extension(&reliable_extension_spec("rx")).unwrap();
        let rx = ReliableReceiver::new(&sb, &bext, 7100).unwrap();
        let tx = ReliableSender::new(&sa, &aext, 7101, (sb.ip(), 7100), ReliableConfig::default())
            .unwrap();
        for i in 0..10u8 {
            tx.send(world.engine_mut(), &[i; 16]);
        }
        world.run_for(SimDuration::from_secs(2));
        assert!(tx.idle());
        assert_eq!(tx.delivered(), 10);
        assert_eq!(tx.retransmits(), 0, "no loss, no retransmission");
        let got = rx.received();
        assert_eq!(got.len(), 10);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 16]);
        }
    }

    #[test]
    fn survives_a_lossy_link_with_retransmission() {
        let (
            Testbed {
                mut world, medium, ..
            },
            sa,
            sb,
        ) = plexus_pair(["a", "b"]);
        medium.set_faults(FaultInjector::new(0.25, 0.0, 42));
        let aext = sa.link_extension(&reliable_extension_spec("tx")).unwrap();
        let bext = sb.link_extension(&reliable_extension_spec("rx")).unwrap();
        let rx = ReliableReceiver::new(&sb, &bext, 7100).unwrap();
        let tx = ReliableSender::new(&sa, &aext, 7101, (sb.ip(), 7100), ReliableConfig::default())
            .unwrap();
        let messages: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i ^ 0x5A; 64]).collect();
        for m in &messages {
            tx.send(world.engine_mut(), m);
        }
        world.run_for(SimDuration::from_secs(30));
        assert!(tx.idle(), "all datagrams eventually acknowledged");
        assert_eq!(tx.delivered(), 30);
        assert!(tx.retransmits() > 0, "losses forced retransmission");
        assert!(medium.fault_drops() > 0, "the link really dropped frames");
        assert_eq!(rx.received(), messages, "in order, exactly once");
        assert_eq!(tx.failed(), 0);
    }

    #[test]
    fn gives_up_after_bounded_retries_when_peer_is_gone() {
        // 100% loss: the datagram can never arrive.
        let (
            Testbed {
                mut world, medium, ..
            },
            sa,
            sb,
        ) = plexus_pair(["a", "b"]);
        medium.set_faults(FaultInjector::new(1.0, 0.0, 7));
        let aext = sa.link_extension(&reliable_extension_spec("tx")).unwrap();
        let tx = ReliableSender::new(
            &sa,
            &aext,
            7101,
            (sb.ip(), 7100),
            ReliableConfig {
                retry_timeout: SimDuration::from_millis(1),
                max_retries: 4,
            },
        )
        .unwrap();
        tx.send(world.engine_mut(), b"into the void");
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(tx.failed(), 1, "bounded effort, then give up");
        assert_eq!(tx.delivered(), 0);
        assert_eq!(tx.retransmits(), 3, "retries 2..=4 were retransmissions");
        assert!(tx.idle());
    }
}

mod transaction_protocol {
    use super::*;
    use plexus_apps::{transaction_extension_spec, TransactionClient, TransactionServer};
    use plexus_core::TcpCallbacks;
    use plexus_sim::nic::FaultInjector;

    #[test]
    fn one_round_trip_transactions() {
        let (Testbed { mut world, .. }, client, server) = plexus_pair(["a", "b"]);
        let cext = client
            .link_extension(&transaction_extension_spec("txn-c"))
            .unwrap();
        let sext = server
            .link_extension(&transaction_extension_spec("txn-s"))
            .unwrap();
        let srv = TransactionServer::install(&server, &sext, 9999, |req| {
            let mut out = b"resp:".to_vec();
            out.extend_from_slice(req);
            out
        })
        .unwrap();
        let cli = TransactionClient::install(&client, &cext, 9998, (server.ip(), 9999)).unwrap();

        let t0 = world.engine().now().as_nanos();
        let call = cli.call(world.engine_mut(), b"get-balance");
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(call.response().expect("answered"), b"resp:get-balance");
        assert_eq!(srv.served(), 1);
        assert_eq!(cli.retries(), 0);

        let rtt_us = (call.completed_at_ns().unwrap() - t0) as f64 / 1000.0;
        // One round trip, both handlers at interrupt level: near the UDP
        // RTT, nowhere near a full TCP connect+transfer+close.
        assert!(
            rtt_us < 700.0,
            "transaction should take ~1 RTT: {rtt_us} us"
        );
    }

    #[test]
    fn transactions_survive_loss_with_idempotent_retry() {
        let (
            Testbed {
                mut world, medium, ..
            },
            client,
            server,
        ) = plexus_pair(["a", "b"]);
        medium.set_faults(FaultInjector::new(0.3, 0.0, 99));
        let cext = client
            .link_extension(&transaction_extension_spec("txn-c"))
            .unwrap();
        let sext = server
            .link_extension(&transaction_extension_spec("txn-s"))
            .unwrap();
        let _srv = TransactionServer::install(&server, &sext, 9999, |req| req.to_vec()).unwrap();
        let cli = TransactionClient::install(&client, &cext, 9998, (server.ip(), 9999)).unwrap();
        let mut calls = Vec::new();
        for i in 0..20u8 {
            calls.push((i, cli.call(world.engine_mut(), &[i; 8])));
        }
        world.run_for(SimDuration::from_secs(5));
        for (i, call) in &calls {
            assert_eq!(
                call.response().expect("eventually answered"),
                vec![*i; 8],
                "transaction {i}"
            );
        }
        assert!(cli.retries() > 0, "losses forced retries");
    }

    #[test]
    fn transaction_beats_full_tcp_for_small_exchanges() {
        // §1.1's claim, quantified: the same request/response as one
        // transaction vs. a full TCP connect + transfer + close.
        let (Testbed { mut world, .. }, client, server) = plexus_pair(["a", "b"]);
        let cext = client
            .link_extension(&transaction_extension_spec("txn-c"))
            .unwrap();
        let sext = server
            .link_extension(&transaction_extension_spec("txn-s"))
            .unwrap();
        let _srv = TransactionServer::install(&server, &sext, 9999, |req| req.to_vec()).unwrap();
        let cli = TransactionClient::install(&client, &cext, 9998, (server.ip(), 9999)).unwrap();
        let t0 = world.engine().now().as_nanos();
        let call = cli.call(world.engine_mut(), b"tiny");
        world.run_for(SimDuration::from_secs(1));
        let txn_us = (call.completed_at_ns().unwrap() - t0) as f64 / 1000.0;

        // TCP-standard on the same stacks (different port).
        server
            .tcp()
            .listen(&sext, 8000, |_, conn| {
                conn.set_callbacks(TcpCallbacks {
                    on_data: Some(Rc::new(|ctx, conn, data| {
                        conn.send_in(ctx, data);
                        conn.close_in(ctx);
                    })),
                    ..Default::default()
                });
            })
            .unwrap();
        let done: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let t1 = world.engine().now().as_nanos();
        let conn = client
            .tcp()
            .connect(&cext, world.engine_mut(), (server.ip(), 8000))
            .unwrap();
        let d = done.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(|ctx, conn| conn.send_in(ctx, b"tiny"))),
            on_data: Some(Rc::new(move |ctx, _, _| {
                d.set(Some(ctx.lease.now().as_nanos()));
            })),
            on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
            ..Default::default()
        });
        world.run_for(SimDuration::from_secs(5));
        let tcp_us = (done.get().expect("tcp response") - t1) as f64 / 1000.0;
        assert!(
            txn_us < tcp_us / 1.8,
            "transaction ({txn_us:.0} us) should roughly halve TCP's small-exchange \
             latency ({tcp_us:.0} us)"
        );
    }

    #[test]
    fn steady_state_transactions_allocate_no_fresh_clusters() {
        use plexus_net::mbuf::{cluster_pool_stats, reset_cluster_pool};
        let (Testbed { mut world, .. }, client, server) = plexus_pair(["a", "b"]);
        let cext = client
            .link_extension(&transaction_extension_spec("txn-c"))
            .unwrap();
        let sext = server
            .link_extension(&transaction_extension_spec("txn-s"))
            .unwrap();
        let _srv = TransactionServer::install(&server, &sext, 9999, |req| req.to_vec()).unwrap();
        let cli = TransactionClient::install(&client, &cext, 9998, (server.ip(), 9999)).unwrap();

        reset_cluster_pool();
        // Warmup: populate the free lists and grow the parse scratch.
        for _ in 0..4 {
            let call = cli.call(world.engine_mut(), b"warmup-request-bytes");
            world.run_for(SimDuration::from_millis(50));
            assert!(call.response().is_some());
        }
        let before = cluster_pool_stats();
        for _ in 0..32 {
            let call = cli.call(world.engine_mut(), b"steady-request-bytes");
            world.run_for(SimDuration::from_millis(50));
            assert!(call.response().is_some());
        }
        let after = cluster_pool_stats();
        // The rx parse path peeks chains in place (or copies into a reused
        // scratch); every cluster the send path needs comes back from the
        // free lists, so steady state touches the heap not at all.
        assert_eq!(
            after.allocated + after.unpooled,
            before.allocated + before.unpooled,
            "steady-state transactions must not allocate fresh clusters"
        );
        assert!(after.reused > before.reused, "sends recycle via the pool");
    }
}
