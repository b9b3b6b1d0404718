//! Tier-1 allocation gate (DESIGN.md §9): a raise allocates nothing, an
//! echoed datagram and a bind + close pair allocate exactly what is pinned
//! below, rebinding leaves no heap behind, and a flood of out-of-window TCP
//! segments leaves none either, on both stacks.
//!
//! The counting allocator is `perf/`'s, mounted by path so that it stays
//! the one `unsafe` block in the tree. Its counters are thread-local and
//! every `#[test]` runs on a thread of its own, so the counts here are
//! exact under cargo's parallel runner.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use plexus::baseline::{MonolithicStack, SocketCallbacks};
use plexus::core::{AppHandler, PlexusStack, StackConfig, TcpCallbacks, UdpEndpoint, UdpRecv};
use plexus::kernel::dispatcher::{Dispatcher, Event, Guard, HandlerSpec, RaiseCtx};
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::ephemeral::Ephemeral;
use plexus::kernel::filter::{conjunction, verify, EventKind, Field, Operand, Packet, Test};
use plexus::kernel::vm::AddressSpace;
use plexus::net::ether::{self, EtherType};
use plexus::net::ip::{self, IpHeader};
use plexus::net::tcp::{TcpFlags, TcpSegment};
use plexus::net::testbed::Host;
use plexus::net::udp::UdpConfig;
use plexus::net::Testbed;
use plexus::sim::cpu::{CostModel, Cpu};
use plexus::sim::nic::{DriverConfig, Link};
use plexus::sim::time::{SimDuration, SimTime};
use plexus::sim::{Engine, World};
use plexus::trace::{CounterKey, Recorder, Scope};
use plexus_bench::overload::{build_frame, PAYLOAD};

#[allow(dead_code)]
#[path = "../perf/src/alloc.rs"]
mod alloc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Heap `alloc` + `realloc` calls this thread makes inside `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = alloc::snapshot().0;
    f();
    alloc::snapshot().0 - before
}

/// A `UdpRecv`-shaped event argument.
struct Dgram {
    dst_port: u16,
}

impl Packet for Dgram {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }
    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpDstPort => Some(u64::from(self.dst_port)),
            _ => None,
        }
    }
    fn head(&self) -> &[u8] {
        &[]
    }
}

const BASE: u16 = 10_000;
const RAISES: u32 = 10_000;

fn install_port(d: &Dispatcher, ev: Event<Dgram>, port: u16) -> plexus::kernel::HandlerId {
    let program = conjunction(
        EventKind::UdpRecv,
        &[Test::eq(Operand::Field(Field::UdpDstPort), u64::from(port))],
        vec![],
    );
    let guard = Guard::verified(Rc::new(verify(&program).expect("port guard verifies")));
    d.install(
        ev,
        HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &Dgram| {}))
            .guard(guard)
            .interrupt(),
    )
}

/// A dispatcher with `n` indexed port guards on one event.
fn table(n: u16) -> (Rc<Dispatcher>, Event<Dgram>) {
    let d = Dispatcher::new();
    let ev = d.define_event::<Dgram>("Udp.PacketRecv");
    for i in 0..n {
        install_port(&d, ev, BASE + i);
    }
    (d, ev)
}

/// Asserts that `RAISES` raises to the last installed port (a hit), to an
/// unbound port (a miss) and through an `EventBatch` allocate nothing.
fn assert_raises_are_alloc_free(d: &Dispatcher, ev: Event<Dgram>, n: u16) {
    let cpu = Cpu::new(CostModel::alpha_3000_400());
    let mut engine = Engine::new();
    let mut lease = cpu.begin(SimTime::ZERO);
    let mut ctx = RaiseCtx {
        engine: &mut engine,
        lease: &mut lease,
    };
    let hit = Dgram {
        dst_port: BASE + n - 1,
    };
    let miss = Dgram { dst_port: BASE - 1 };
    let mut invoked = 0;
    let allocs = allocs_during(|| {
        for _ in 0..RAISES {
            invoked += d.raise(&mut ctx, ev, &hit).invoked;
            invoked += d.raise(&mut ctx, ev, &miss).invoked;
        }
        let mut batch = d.batch(ev);
        for _ in 0..RAISES {
            invoked += batch.raise(&mut ctx, &hit).invoked;
        }
    });
    assert_eq!(invoked, 2 * RAISES, "every hit ran its one handler");
    assert_eq!(allocs, 0, "{n} entries: a raise must not allocate");
}

#[test]
fn steady_state_raises_allocate_nothing() {
    for n in [1, 16, 256] {
        let (d, ev) = table(n);
        assert_raises_are_alloc_free(&d, ev, n);
    }
}

#[test]
fn raises_after_churn_allocate_nothing() {
    let (d, ev) = table(64);
    for i in 0..1024 {
        let id = install_port(&d, ev, 20_000 + i);
        assert!(d.uninstall(ev, id));
    }
    assert_eq!(d.handler_count(ev), 64);
    assert_raises_are_alloc_free(&d, ev, 64);
}

/// Heap calls of one run in which a bare-NIC generator bounces `datagrams`
/// UDP datagrams off a one-endpoint echo stack, and the echoes it saw.
fn echo_run(datagrams: u64) -> (u64, u64) {
    // The cluster pool is per thread: start every run equally cold.
    plexus::net::mbuf::reset_cluster_pool();
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["generator", "dut"]);
    let gen_nic = &hosts[0].nic;

    let stack = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("alloc-gate", &["UDP.Bind", "UDP.Send"]);
    let ext = stack.link_extension(&spec).unwrap();
    let slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::default();
    let sl = slot.clone();
    let echo = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        let ep = sl.get().expect("endpoint installed");
        let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
    };
    let ep = stack
        .udp()
        .bind(&ext, 7, UdpConfig::default(), AppHandler::interrupt(echo))
        .unwrap();
    let _ = slot.set(ep);

    // Closed loop: the generator sends the next datagram when the echo of
    // the last one arrives, so the engine's queue stays a few events deep.
    let frame = build_frame(&hosts[0], &hosts[1], PAYLOAD);
    let echoes = Rc::new(Cell::new(0u64));
    let (seen, nic, next) = (echoes.clone(), Rc::downgrade(gen_nic), frame.clone());
    gen_nic.attach(DriverConfig::per_frame(move |engine, _| {
        seen.set(seen.get() + 1);
        if seen.get() < datagrams {
            let now = engine.now();
            let nic = nic.upgrade().expect("the world outlives its run");
            nic.transmit(engine, now, &next[..]);
        }
    }));
    gen_nic.transmit(world.engine_mut(), SimTime::ZERO, &frame[..]);
    let allocs = allocs_during(|| world.run());
    (allocs, echoes.get())
}

#[test]
fn an_echoed_datagram_allocates_exactly_the_pinned_count() {
    // The difference between two runs cancels warm-up (pool fill, table
    // growth); what is left is the steady state, per datagram: generator
    // NIC tx, wire, DUT rx interrupt, five raises, the endpoint's echo,
    // DUT tx, wire, generator rx. A new per-packet `Vec` anywhere on that
    // path moves this number; lower it when one is removed.
    const PER_DATAGRAM: u64 = 19;
    const N: u64 = 500;
    let (short, echoes) = echo_run(N);
    assert_eq!(echoes, N, "every datagram was echoed");
    let (long, echoes) = echo_run(2 * N);
    assert_eq!(echoes, 2 * N);
    assert_eq!(long - short, PER_DATAGRAM * N);
}

/// A stack with one linked extension, and a closure that binds and closes
/// a standard UDP endpoint under it `n` times.
fn rebinder() -> (Testbed, impl Fn(u32)) {
    let tb = Testbed::new(&Link::t3(), 42, &["peer", "dut"]);
    let stack = PlexusStack::attach_host(&tb.hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("alloc-gate", &["UDP.Bind"]);
    let ext = stack.link_extension(&spec).unwrap();
    let cycles = move |n: u32| {
        for _ in 0..n {
            let handler = AppHandler::interrupt(|_: &mut RaiseCtx<'_>, _: &UdpRecv| {});
            let ep = stack
                .udp()
                .bind(&ext, 7, UdpConfig::default(), handler)
                .unwrap();
            ep.close();
        }
    };
    (tb, cycles)
}

#[test]
fn a_bind_close_pair_allocates_exactly_the_pinned_count() {
    // Build, verify (structure, value sets + policy + key, intervals),
    // compile, install, index; then uninstall and release. Verification
    // runs its value-set analysis once and the key it proves is held once:
    // a second analysis run or another copy of the key moves this number
    // (it was 148 while `core::guards` and `VerifiedGuard::new` each
    // re-derived the key and `Entry` cloned it).
    const PER_PAIR: u64 = 80;
    const N: u32 = 100;
    let (_tb, cycles) = rebinder();
    cycles(10);
    assert_eq!(allocs_during(|| cycles(N)), PER_PAIR * u64::from(N));
}

#[test]
fn rebinding_under_one_extension_leaves_no_heap_behind() {
    let (_tb, cycles) = rebinder();
    cycles(10);
    let live_after_10 = alloc::snapshot().2;
    cycles(990);
    let live_after_1000 = alloc::snapshot().2;
    assert_eq!(
        live_after_1000, live_after_10,
        "a closed endpoint must leave nothing in the extension's cleanup registry"
    );
}

// ---------------------------------------------------------------------------
// Out-of-window TCP flood (ROADMAP 5a, TCP half), on both stacks.
// ---------------------------------------------------------------------------

const TCP_PORT: u16 = 80;

/// Where a server puts the stream it receives.
type Sink = Rc<RefCell<Vec<u8>>>;

/// Builds a connected client and server of one stack kind on `hosts[0]` and
/// `hosts[1]`.
type Pair = fn(&mut World, &[Host], &Sink) -> Client;

/// An application write on the client's connection.
type Write = Box<dyn Fn(&mut World, &[u8])>;

/// The client's side of one established connection, whichever stack runs it.
struct Client {
    port: u16,
    send: Write,
    close: Box<dyn Fn(&mut World)>,
}

/// A client and a server on the Plexus stack; the server appends what it
/// receives to `sink` and closes when its peer has.
fn plexus_pair(world: &mut World, hosts: &[Host], sink: &Sink) -> Client {
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("flood", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
    let (cext, sext) = (
        client.link_extension(&spec).unwrap(),
        server.link_extension(&spec).unwrap(),
    );
    let sink = sink.clone();
    server
        .tcp()
        .listen(&sext, TCP_PORT, move |_, conn| {
            let sink = sink.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    sink.borrow_mut().extend_from_slice(data)
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (hosts[1].ip, TCP_PORT))
        .unwrap();
    let closer = conn.clone();
    Client {
        port: conn.local_port(),
        send: Box::new(move |world, data| conn.send(world.engine_mut(), data)),
        close: Box::new(move |world| closer.close(world.engine_mut())),
    }
}

/// [`plexus_pair`] on the monolithic baseline.
fn baseline_pair(world: &mut World, hosts: &[Host], sink: &Sink) -> Client {
    let client = MonolithicStack::attach_host(&hosts[0]);
    let server = MonolithicStack::attach_host(&hosts[1]);
    let sink = sink.clone();
    server
        .tcp()
        .listen(&AddressSpace::new("sink"), TCP_PORT, move |_, _, sock| {
            let sink = sink.clone();
            sock.set_callbacks(SocketCallbacks {
                on_data: Some(Rc::new(move |_, _, _, data| {
                    sink.borrow_mut().extend_from_slice(data)
                })),
                on_peer_close: Some(Rc::new(|eng, user, sock| sock.close_in(eng, user))),
                ..Default::default()
            });
        });
    let sock = client.tcp().connect(
        world.engine_mut(),
        &AddressSpace::new("source"),
        (hosts[1].ip, TCP_PORT),
    );
    let closer = sock.clone();
    Client {
        port: sock.local_port(),
        send: Box::new(move |world, data| sock.send(world.engine_mut(), data)),
        close: Box::new(move |world| closer.close(world.engine_mut())),
    }
}

/// Half a stream crosses an established connection; a bare NIC then floods
/// the server with segments that carry the connection's 4-tuple and
/// sequence numbers far past its window; the other half follows.
fn flood_is_refused(pair: Pair) {
    const WARM_UP: u32 = 100; // More than a window's worth of flood bytes.
    const FLOOD: u32 = 2000;
    plexus::net::mbuf::reset_cluster_pool();
    let rec = Recorder::new(1024);
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 9, &["client", "server", "raw"]).traced(Some(&rec));
    let received = Sink::default();
    let client = pair(&mut world, &hosts, &received);
    let stream: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
    let (first, second) = stream.split_at(stream.len() / 2);
    (client.send)(&mut world, first);
    world.run();
    assert_eq!(*received.borrow(), first);

    let (victim, server, raw) = (&hosts[0], &hosts[1], &hosts[2]);
    let flood = |world: &mut World, range: std::ops::Range<u32>| {
        for k in range {
            let seg = TcpSegment {
                src_port: client.port,
                dst_port: TCP_PORT,
                // Both stacks draw their first ISS below 2^16: this is
                // hundreds of megabytes ahead of the stream, and moves.
                seq: 0x1000_0000 + k * 1009,
                ack: 0,
                flags: TcpFlags::default(),
                window: 0,
                mss: None,
                payload: vec![0xEE; 1000],
            };
            let hdr = IpHeader::simple(victim.ip, server.ip, ip::proto::TCP, k as u16);
            let mut frame = ip::encapsulate(&hdr, seg.to_mbuf(victim.ip, server.ip, 64));
            ether::write_header(frame.prepend(14), server.mac, raw.mac, EtherType::IPV4);
            let at = world.engine().now();
            raw.nic.transmit(world.engine_mut(), at, &frame);
            world.run_for(SimDuration::from_millis(2));
        }
        world.run();
    };
    flood(&mut world, 0..WARM_UP);
    let live_warm = alloc::snapshot().2;
    flood(&mut world, WARM_UP..WARM_UP + FLOOD);
    let grown = alloc::snapshot().2 - live_warm;
    assert_eq!(
        grown, 0,
        "{FLOOD} refused segments left {grown} bytes of heap behind"
    );
    let refused = rec.registry().get(CounterKey {
        scope: Scope::Drop,
        label: rec.intern("tcp_out_of_window"),
        metric: "count",
    });
    assert_eq!(
        refused,
        u64::from(WARM_UP + FLOOD),
        "every flood segment is a named drop"
    );

    (client.send)(&mut world, second);
    (client.close)(&mut world);
    world.run();
    assert!(
        *received.borrow() == stream,
        "the stream arrived byte-exact"
    );
}

/// A bare NIC sends the listener a SYN whose MSS option is 0, under the
/// client's address so the SYN-ACK goes out on the wire; the listener
/// answers without panicking and the real connection is not disturbed.
fn a_zero_mss_syn_is_survived(pair: Pair) {
    plexus::net::mbuf::reset_cluster_pool();
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 9, &["client", "server", "raw"]);
    let received = Sink::default();
    let client = pair(&mut world, &hosts, &received);
    world.run();

    let (victim, server, raw) = (&hosts[0], &hosts[1], &hosts[2]);
    // The SYN, then a RST: nothing else ends a half-open connection whose
    // SYN-ACK nobody answers, and the world must go idle again.
    let segs = [(TcpFlags::SYN, 7, Some(0)), (TcpFlags::RST, 8, None)];
    for (k, (flags, seq, mss)) in segs.into_iter().enumerate() {
        let seg = TcpSegment {
            src_port: client.port.wrapping_add(1),
            dst_port: TCP_PORT,
            seq,
            ack: 0,
            flags,
            window: 65535,
            mss,
            payload: Vec::new(),
        };
        let hdr = IpHeader::simple(victim.ip, server.ip, ip::proto::TCP, k as u16);
        let mut frame = ip::encapsulate(&hdr, seg.to_mbuf(victim.ip, server.ip, 64));
        ether::write_header(frame.prepend(14), server.mac, raw.mac, EtherType::IPV4);
        let at = world.engine().now();
        raw.nic.transmit(world.engine_mut(), at, &frame);
        world.run_for(SimDuration::from_millis(50));
    }

    let stream: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
    (client.send)(&mut world, &stream);
    (client.close)(&mut world);
    world.run();
    assert!(
        *received.borrow() == stream,
        "the stream arrived byte-exact"
    );
}

#[test]
fn a_syn_with_mss_zero_does_not_panic_plexus() {
    a_zero_mss_syn_is_survived(plexus_pair);
}

#[test]
fn a_syn_with_mss_zero_does_not_panic_the_baseline() {
    a_zero_mss_syn_is_survived(baseline_pair);
}

#[test]
fn an_out_of_window_flood_leaves_no_heap_behind_on_plexus() {
    flood_is_refused(plexus_pair);
}

#[test]
fn an_out_of_window_flood_leaves_no_heap_behind_on_the_baseline() {
    flood_is_refused(baseline_pair);
}
