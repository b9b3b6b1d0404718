//! Layer kernels (group D): each layer alone, through its public functions,
//! on the inputs the workloads give it. Times are the least, over batches of
//! about 15 µs, of the mean host ns per call (interference only ever adds
//! time; see `slices`); allocation counts are exact.
//!
//! Three passes; calls that cost up to a few microseconds run at least
//! 10 000 times in all, and a call that costs tens of microseconds (attach,
//! bind, a 4 MB ACK) runs fewer, so that the whole group takes about two
//! seconds.

use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use plexus_bench::udp_rtt::Link;
use plexus_core::{AppHandler, PlexusStack, StackConfig, TcpCallbacks, UdpRecv};
use plexus_filter::{
    conjunction, eval_metered, verify_with_policy, EventKind, Field, FieldKey, FilterProgram,
    Operand, Policy, Test, VerifiedProgram,
};
use plexus_kernel::dispatcher::{Dispatcher, Event, Guard, HandlerId, HandlerSpec, RaiseCtx};
use plexus_kernel::domain::ExtensionSpec;
use plexus_kernel::ephemeral::Ephemeral;
use plexus_kernel::view::view;
use plexus_net::checksum::checksum;
use plexus_net::ether::MacAddr;
use plexus_net::ip::{self, proto, IpHeader, IpView, Reassembler};
use plexus_net::mbuf::{self, Mbuf};
use plexus_net::tcp::{Tcb, TcpFlags, TcpSegment, DEFAULT_MSS};
use plexus_net::udp::UdpConfig;
use plexus_sim::cpu::{CostModel, Cpu};
use plexus_sim::nic::{DriverConfig, Medium, Nic, NicProfile};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Engine, World};
use plexus_trace::live::LiveConfig;
use plexus_trace::{GuardKind, Recorder};

use crate::alloc;
use crate::inputs::{ip as host, DUT, ECHO_BASE, GEN, GEN_PORT, PAYLOAD};
use crate::slices::Floor;

/// The MTU-sized TCP payload of the `_4430` kernels (T3 MTU 4470 less headers).
const BIG: usize = 4430;

/// How much work one pass of the kernels does: `batches` times the call
/// counts below over `shrink`, and `batches` runs of each prepared sequence.
#[derive(Clone, Copy)]
pub struct Scale {
    batches: usize,
    shrink: usize,
    smoke: bool,
}

impl Scale {
    pub fn new(smoke: bool) -> Scale {
        if smoke {
            Scale {
                batches: 2,
                shrink: 100,
                smoke,
            }
        } else {
            Scale {
                batches: 10,
                shrink: 4,
                smoke,
            }
        }
    }

    fn calls(self, full: usize) -> usize {
        (full / self.shrink).max(1)
    }

    /// A size that is part of a kernel's definition: whole, or `--smoke`'s hundredth.
    fn fixed(self, full: usize) -> usize {
        if self.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }
}

/// Batches of about this long: short enough to fit between the host's
/// interruptions, as the workloads' slices are.
const BATCH_NS: usize = 15_000;
/// Calls that warm the caches and size the batches.
const PROBE: usize = 8;

/// (least over batches of the mean ns per call, allocator calls per call) of
/// `f`. What `f` returns goes through `black_box`, so the compiler cannot
/// delete the work.
fn bench<R>(scale: Scale, calls: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let total = scale.calls(calls) * scale.batches;
    let t = Instant::now();
    for _ in 0..PROBE {
        black_box(f());
    }
    let per_call = (t.elapsed().as_nanos() as usize / PROBE).max(1);
    let per_batch = (BATCH_NS / per_call).clamp(1, total);
    let before = alloc::snapshot().0;
    let (mut least, mut done) = (f64::INFINITY, 0);
    while done < total {
        let t = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        least = least.min(t.elapsed().as_nanos() as f64 / per_batch as f64);
        done += per_batch;
    }
    (least, (alloc::snapshot().0 - before) as f64 / done as f64)
}

/// Times one call of a sequence.
fn timed<R>(ns: &mut Vec<u32>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    r
}

/// Ns per call of a fixed sequence of calls whose runs `floor` has seen: per
/// position the least over the runs, summed — the cost of a call may depend
/// on its position — over the sequence's length.
fn per_call(floor: &Floor) -> f64 {
    floor.quiet_ns() / floor.len().max(1) as f64
}

/// [`per_call`] over `runs` runs of `sequence`, which prepares what it needs
/// untimed and returns the ns of each of its [`timed`] calls.
fn bench_sequence(runs: usize, mut sequence: impl FnMut() -> Vec<u32>) -> f64 {
    let mut floor = Floor::default();
    for _ in 0..runs {
        floor.add(&sequence());
    }
    per_call(&floor)
}

pub type Metrics = Vec<(&'static str, f64)>;

/// The kernels' results over several passes. A pass takes about a third of a
/// second, and the sandbox has slow spells that long; the ledger makes its
/// passes seconds apart and every time keeps the least.
#[derive(Default)]
pub struct Kernels {
    pub metrics: Metrics,
    /// Engine events one NIC frame costs, so that the reconciliation does not
    /// attribute those events twice.
    pub events_per_frame: f64,
}

impl Kernels {
    /// Runs every kernel once more.
    pub fn pass(&mut self, scale: Scale) {
        let mut m = Metrics::new();
        self.events_per_frame = sim(scale, &mut m);
        net(scale, &mut m);
        dispatcher(scale, &mut m);
        filter(scale, &mut m);
        core(scale, &mut m);
        trace(scale, &mut m);
        if self.metrics.is_empty() {
            self.metrics = m;
        } else {
            for (kept, new) in self.metrics.iter_mut().zip(m) {
                assert_eq!(kept.0, new.0, "every pass runs the same kernels");
                kept.1 = kept.1.min(new.1);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

// ------------------------------------------------------------------ sim ----

fn sim(scale: Scale, m: &mut Metrics) -> f64 {
    // Four self-rescheduling chains keep the heap as shallow as the worlds do.
    fn chain(engine: &mut Engine, left: Rc<Cell<usize>>) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        engine.schedule_in(SimDuration::from_micros(50), move |e| chain(e, left));
    }
    const EVENTS: usize = 256;
    let mut allocs = 0.0;
    let ns = bench_sequence(scale.batches * 20, || {
        let mut engine = Engine::new();
        let left = Rc::new(Cell::new(EVENTS));
        for _ in 0..4 {
            chain(&mut engine, left.clone());
        }
        let before = alloc::snapshot().0;
        let mut ns = Vec::with_capacity(1);
        timed(&mut ns, || engine.run());
        allocs = (alloc::snapshot().0 - before) as f64 / engine.executed() as f64;
        ns
    }) / (EVENTS + 4) as f64;
    m.push(("sim.engine.schedule_pop_ns", ns));
    m.push(("sim.engine.allocs_per_event", allocs));

    let frame = vec![0x5Au8; 74];
    let mut events_per_frame = 0.0;
    for coalesced in [false, true] {
        let medium = Medium::new(SimDuration::from_micros(1), false);
        let tx = Nic::new(NicProfile::gigabit(), &medium);
        let rx = Nic::new(NicProfile::gigabit(), &medium);
        tx.attach(DriverConfig::tx_only());
        rx.attach(if coalesced {
            DriverConfig::coalesced(|engine, _| engine.now())
        } else {
            DriverConfig::per_frame(|_, _| {})
        });
        let mut engine = Engine::new();
        let (ns, allocs) = bench(scale, 5_000, || {
            let now = engine.now();
            tx.transmit(&mut engine, now, frame.as_slice());
            engine.run();
        });
        if coalesced {
            m.push(("sim.nic.frame_coalesced_ns", ns));
        } else {
            m.push(("sim.nic.frame_ns", ns));
            m.push(("sim.nic.allocs_per_frame", allocs));
            events_per_frame = engine.executed() as f64 / rx.stats().rx_frames.max(1) as f64;
        }
    }

    let cpu = Cpu::new(CostModel::alpha_3000_400());
    let (ns, _) = bench(scale, 20_000, || {
        let mut lease = cpu.begin(SimTime::ZERO);
        lease.charge(SimDuration::from_micros(1));
        lease.finish()
    });
    m.push(("sim.cpu.lease_ns", ns));
    events_per_frame
}

// ------------------------------------------------------------------ net ----

fn build_mbuf(payload: &[u8]) -> Mbuf {
    let mut b = Mbuf::from_payload(64, payload);
    b.prepend(8);
    b.prepend(20);
    b.prepend(14);
    b
}

fn net(scale: Scale, m: &mut Metrics) {
    mbuf::reset_cluster_pool();
    let (small, big) = (vec![0xABu8; PAYLOAD], vec![0xABu8; BIG]);
    let (ns, allocs) = bench(scale, 5_000, || build_mbuf(&small));
    m.push(("net.mbuf.build_ns_32", ns));
    m.push(("net.mbuf.allocs_per_build", allocs));
    let (ns, _) = bench(scale, 2_000, || build_mbuf(&big));
    m.push(("net.mbuf.build_ns_4430", ns));
    let chain = build_mbuf(&big);
    let (ns, _) = bench(scale, 10_000, || chain.share());
    m.push(("net.mbuf.share_ns", ns));
    let (ns, _) = bench(scale, 5_000, || chain.to_vec());
    m.push(("net.mbuf.to_vec_ns_4430", ns));

    let data = vec![0x5Au8; 8192];
    let (ns, _) = bench(scale, 20_000, || checksum(black_box(&data[..64])));
    m.push(("net.checksum.ns_64", ns));
    let (ns, _) = bench(scale, 2_000, || checksum(black_box(&data)));
    m.push(("net.checksum.ns_per_kb", ns / 8.0));

    let hdr = IpHeader::simple(host(GEN), host(DUT), proto::UDP, 1);
    let (ns, _) = bench(scale, 5_000, || {
        let dgram = ip::encapsulate(&hdr, Mbuf::from_payload(64, &small));
        let v: IpView = view(dgram.head()).expect("a fresh header parses");
        (v.src(), v.dst(), v.protocol(), v.checksum_ok())
    });
    m.push(("net.ip.encap_parse_ns", ns));
    let dgram = ip::encapsulate(&hdr, Mbuf::from_payload(64, &small));
    let mut reasm = Reassembler::new();
    let (ns, allocs) = bench(scale, 5_000, || reasm.offer(&dgram, 0));
    m.push(("net.ip.reassembler_offer_ns", ns));
    m.push(("net.ip.reassembler_allocs_per_offer", allocs));

    let (a, b) = (host(1), host(2));
    let seg = TcpSegment {
        src_port: 40_000,
        dst_port: 5001,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 65535,
        mss: None,
        payload: big.clone(),
    };
    let (build_ns, build_allocs) = bench(scale, 2_000, || seg.to_mbuf(a, b, 64));
    m.push(("net.tcp.segment_build_ns_4430", build_ns));
    let bytes = seg.to_bytes(a, b);
    let (parse_ns, parse_allocs) =
        bench(scale, 2_000, || TcpSegment::parse(a, b, black_box(&bytes)));
    m.push(("net.tcp.segment_parse_ns_4430", parse_ns));
    m.push(("net.tcp.allocs_per_segment", build_allocs + parse_allocs));
    m.push(("net.tcp.ack_ns_64k", ack_ns(scale, 64 * 1024, 40)));
    m.push(("net.tcp.ack_ns_4m", ack_ns(scale, 4_000_000, 20)));
}

/// `Tcb::on_segment` for one ACK of one more MSS, with `queued` bytes in the
/// send buffer when the first ACK arrives.
fn ack_ns(scale: Scale, queued: usize, acks: usize) -> f64 {
    let (local, remote) = ((host(1), 40_000), (host(2), 5001));
    let (iss, peer_iss) = (1000u32, 9000u32);
    let data = vec![0x11u8; queued];
    let acks = scale.fixed(acks).min(queued / DEFAULT_MSS);
    bench_sequence(scale.batches, || {
        let (mut tcb, _syn) = Tcb::connect(local, remote, iss, 0);
        let from_peer = |flags, ack, mss| TcpSegment {
            src_port: remote.1,
            dst_port: local.1,
            seq: peer_iss.wrapping_add(u32::from(flags != TcpFlags::SYN_ACK)),
            ack,
            flags,
            window: 65535,
            mss,
            payload: Vec::new(),
        };
        let syn_ack = from_peer(TcpFlags::SYN_ACK, iss + 1, Some(DEFAULT_MSS as u16));
        tcb.on_segment(&syn_ack, remote, 0);
        tcb.send(&data, 0);
        let mut ns = Vec::with_capacity(acks);
        for k in 1..=acks {
            let ack = from_peer(TcpFlags::ACK, iss + 1 + (k * DEFAULT_MSS) as u32, None);
            black_box(timed(&mut ns, || {
                tcb.on_segment(&ack, remote, k as u64 * 1000)
            }));
        }
        ns
    })
}

// ----------------------------------------------------------- dispatcher ----

/// The guard `UdpManager::bind` builds for `port`: destination port and a
/// local destination address, with the policy that proves it.
fn port_guard(port: u16) -> (FilterProgram, Policy) {
    let local = [
        u64::from(u32::from(host(DUT))),
        u64::from(u32::from(Ipv4Addr::BROADCAST)),
    ];
    let program = conjunction(
        EventKind::UdpRecv,
        &[
            Test::eq(Operand::Field(Field::UdpDstPort), u64::from(port)),
            Test::one_of(Operand::Field(Field::UdpDstAddr), local),
        ],
        vec![],
    );
    let policy = Policy::new()
        .require_eq(FieldKey::Field(Field::UdpDstPort), u64::from(port))
        .require_in(FieldKey::Field(Field::UdpDstAddr), local);
    (program, policy)
}

fn verified(port: u16) -> Rc<VerifiedProgram> {
    let (program, policy) = port_guard(port);
    Rc::new(verify_with_policy(&program, &policy).expect("the manager's port guard verifies"))
}

fn udp_event(port: u16) -> UdpRecv {
    UdpRecv {
        src: host(GEN),
        dst: host(DUT),
        src_port: GEN_PORT,
        dst_port: port,
        payload: Mbuf::from_payload(64, &[0xABu8; PAYLOAD]),
    }
}

fn install_port(d: &Dispatcher, ev: Event<UdpRecv>, port: u16) -> HandlerId {
    d.install(
        ev,
        HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpRecv| {}))
            .interrupt()
            .guard(Guard::verified(verified(port))),
    )
}

/// A dispatcher with `n` verified port guards on one event, ports from `ECHO_BASE`.
fn table(n: usize) -> (Rc<Dispatcher>, Event<UdpRecv>) {
    let d = Dispatcher::new();
    let ev = d.define_event::<UdpRecv>("Udp.PacketRecv");
    for i in 0..n {
        install_port(&d, ev, ECHO_BASE + i as u16);
    }
    (d, ev)
}

fn raise_ns(scale: Scale, d: &Dispatcher, ev: Event<UdpRecv>, arg: &UdpRecv) -> (f64, f64) {
    let cpu = Cpu::new(CostModel::alpha_3000_400());
    let mut engine = Engine::new();
    bench(scale, 2_000, || {
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, black_box(arg))
    })
}

fn dispatcher(scale: Scale, m: &mut Metrics) {
    // Worst case for a scan: the last guard installed is the one that matches.
    for (n, ns_name, allocs_name) in [
        (
            1,
            "kernel.dispatcher.raise_ns_1",
            Some("kernel.dispatcher.allocs_per_raise_1"),
        ),
        (16, "kernel.dispatcher.raise_ns_16", None),
        (64, "kernel.dispatcher.raise_ns_64", None),
        (
            256,
            "kernel.dispatcher.raise_ns_256",
            Some("kernel.dispatcher.allocs_per_raise_256"),
        ),
    ] {
        let (d, ev) = table(n);
        let (ns, allocs) = raise_ns(scale, &d, ev, &udp_event(ECHO_BASE + n as u16 - 1));
        m.push((ns_name, ns));
        if let Some(name) = allocs_name {
            m.push((name, allocs));
        }
    }
    let (d, ev) = table(256);
    let last = udp_event(ECHO_BASE + 255);
    d.set_demux_enabled(false);
    m.push((
        "kernel.dispatcher.raise_linear_ns_256",
        raise_ns(scale, &d, ev, &last).0,
    ));
    d.set_demux_enabled(true);
    d.set_compiled_guards(false);
    m.push((
        "kernel.dispatcher.raise_interp_ns_256",
        raise_ns(scale, &d, ev, &last).0,
    ));
    d.set_compiled_guards(true);
    let unbound = udp_event(crate::inputs::UNBOUND_BASE);
    m.push((
        "kernel.dispatcher.raise_miss_ns_256",
        raise_ns(scale, &d, ev, &unbound).0,
    ));

    let (d, ev) = table(1);
    let only = udp_event(ECHO_BASE);
    let cpu = Cpu::new(CostModel::alpha_3000_400());
    let mut engine = Engine::new();
    let (ns, _) = bench(scale, 500, || {
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let mut batch = d.batch(ev);
        for _ in 0..16 {
            black_box(batch.raise(&mut ctx, black_box(&only)));
        }
    });
    m.push(("kernel.dispatcher.raise_batch_ns_1", ns / 16.0));

    // One more guard beside 64 resident ones, installed then removed.
    let (mut install, mut uninstall) = (Floor::default(), Floor::default());
    for _ in 0..scale.batches {
        let (d, ev) = table(64);
        let (mut ins, mut unins) = (Vec::new(), Vec::new());
        for i in 0..scale.calls(64) {
            let id = timed(&mut ins, || install_port(&d, ev, 20_000 + i as u16));
            timed(&mut unins, || d.uninstall(ev, id));
        }
        install.add(&ins);
        uninstall.add(&unins);
    }
    m.push(("kernel.dispatcher.install_ns_64", per_call(&install)));
    m.push(("kernel.dispatcher.uninstall_ns_64", per_call(&uninstall)));

    let (d, ev) = table(64);
    for i in 0..scale.fixed(1024) {
        let id = install_port(&d, ev, 20_000 + i as u16);
        d.uninstall(ev, id);
    }
    let last = udp_event(ECHO_BASE + 63);
    m.push((
        "kernel.dispatcher.raise_ns_after_churn",
        raise_ns(scale, &d, ev, &last).0,
    ));
}

// --------------------------------------------------------------- filter ----

fn filter(scale: Scale, m: &mut Metrics) {
    let (program, policy) = port_guard(ECHO_BASE);
    let (ns, _) = bench(scale, 1_000, || {
        verify_with_policy(black_box(&program), &policy)
    });
    m.push(("filter.verify_ns", ns));
    let vp = verified(ECHO_BASE);
    let (hit, miss) = (udp_event(ECHO_BASE), udp_event(ECHO_BASE + 1));
    let (ns, _) = bench(scale, 20_000, || eval_metered(&vp, black_box(&hit), 0));
    m.push(("filter.eval_interp_hit_ns", ns));
    let (ns, _) = bench(scale, 20_000, || vp.compiled().eval(black_box(&hit), 0));
    m.push(("filter.eval_compiled_hit_ns", ns));
    let (ns, _) = bench(scale, 20_000, || vp.compiled().eval(black_box(&miss), 0));
    m.push(("filter.eval_compiled_miss_ns", ns));
}

// ----------------------------------------------------------------- core ----

fn core(scale: Scale, m: &mut Metrics) {
    let udp_spec = ExtensionSpec::typesafe("perf-kernel", &["UDP.Bind", "UDP.Send"]);
    let noop = || AppHandler::interrupt(|_: &mut RaiseCtx<'_>, _: &UdpRecv| {});
    // A stack on a fresh two-machine world, as every workload attaches one.
    let fresh = |attach_ns: &mut Vec<u32>| {
        let mut world = World::new();
        let (a, b) = (world.add_machine("a"), world.add_machine("b"));
        let link = Link::gigabit();
        let (_m, nics) = world.connect(&[&a, &b], link.profile, link.propagation, false);
        let cfg = StackConfig::interrupt(host(DUT), MacAddr::local(DUT));
        timed(attach_ns, || PlexusStack::attach(&b, &nics[1], cfg))
    };

    let stacks = scale.calls(100);
    m.push((
        "core.stack.attach_ns",
        bench_sequence(scale.batches, || {
            let mut ns = Vec::with_capacity(stacks);
            for _ in 0..stacks {
                black_box(fresh(&mut ns));
            }
            ns
        }),
    ));
    m.push((
        "core.udp_manager.bind_ns_1",
        bench_sequence(scale.batches, || {
            let mut ns = Vec::with_capacity(stacks);
            for _ in 0..stacks {
                let stack = fresh(&mut Vec::new());
                let ext = stack
                    .link_extension(&udp_spec)
                    .expect("public symbols only");
                let udp = stack.udp().clone();
                timed(&mut ns, || {
                    udp.bind(&ext, ECHO_BASE, UdpConfig::default(), noop())
                })
                .expect("a free port binds");
            }
            ns
        }),
    ));

    // The 256th endpoint beside 255 resident ones: bound, then closed.
    let (mut bind, mut close) = (Floor::default(), Floor::default());
    let residents = scale.fixed(255);
    for _ in 0..scale.batches.min(5) {
        let stack = fresh(&mut Vec::new());
        let ext = stack
            .link_extension(&udp_spec)
            .expect("public symbols only");
        let udp = stack.udp().clone();
        for i in 0..residents {
            udp.bind(&ext, ECHO_BASE + i as u16, UdpConfig::default(), noop())
                .expect("a free port binds");
        }
        let (mut b, mut c) = (Vec::new(), Vec::new());
        for i in 0..scale.fixed(20) {
            let ep = timed(&mut b, || {
                udp.bind(&ext, 20_000 + i as u16, UdpConfig::default(), noop())
            })
            .expect("a free port binds");
            timed(&mut c, || ep.close());
        }
        bind.add(&b);
        close.add(&c);
    }
    m.push(("core.udp_manager.bind_ns_256", per_call(&bind)));
    m.push(("core.udp_manager.close_ns", per_call(&close)));

    // Connect, handshake, close and drain, one connection after another.
    let tcp_spec =
        ExtensionSpec::typesafe("perf-kernel", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
    let conns = scale.calls(50);
    m.push((
        "core.tcp_manager.connect_close_ns",
        bench_sequence(scale.batches, || {
            let mut world = World::new();
            let (a, b) = (world.add_machine("a"), world.add_machine("b"));
            let link = Link::t3();
            let (_m, nics) = world.connect(&[&a, &b], link.profile, link.propagation, false);
            let attach = |machine, nic, n: u8| {
                PlexusStack::attach(
                    machine,
                    nic,
                    StackConfig::interrupt(host(n), MacAddr::local(n)),
                )
            };
            let (client, server) = (attach(&a, &nics[0], 1), attach(&b, &nics[1], 2));
            client.seed_arp(host(2), MacAddr::local(2));
            server.seed_arp(host(1), MacAddr::local(1));
            let cext = client
                .link_extension(&tcp_spec)
                .expect("public symbols only");
            let sext = server
                .link_extension(&tcp_spec)
                .expect("public symbols only");
            server
                .tcp()
                .listen(&sext, 5001, |_, conn| {
                    conn.set_callbacks(TcpCallbacks {
                        on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                        ..Default::default()
                    });
                })
                .expect("a free port listens");
            let mut ns = Vec::with_capacity(conns);
            for _ in 0..conns {
                timed(&mut ns, || {
                    let conn = client
                        .tcp()
                        .connect(&cext, world.engine_mut(), (host(2), 5001))
                        .expect("connect in a live stack");
                    conn.set_callbacks(TcpCallbacks {
                        on_connected: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                        ..Default::default()
                    });
                    world.run();
                });
            }
            ns
        }),
    ));
}

// ---------------------------------------------------------------- trace ----

fn trace(scale: Scale, m: &mut Metrics) {
    // The three records a guarded handler invocation leaves, 1 µs apart.
    let record = |live: bool| {
        let rec = Recorder::new(1 << 17);
        if live {
            rec.enable_live(LiveConfig::new(10_000_000));
        }
        let (event, domain) = (rec.intern("Udp.PacketRecv"), rec.intern("perf-echo"));
        let mut at_ns = 0;
        let (ns, allocs) = bench(scale, 10_000, || {
            at_ns += 1_000;
            rec.guard_eval(at_ns, event, GuardKind::Verified, true);
            let span = rec.handler_enter(at_ns, event, domain);
            rec.handler_exit(at_ns + 500, event, domain, span);
        });
        (ns / 3.0, allocs / 3.0)
    };
    let (ns, allocs) = record(false);
    m.push(("trace.recorder.record_ns_ring", ns));
    m.push(("trace.recorder.allocs_per_record", allocs));
    m.push(("trace.recorder.record_ns_live", record(true).0));
    let rec = Recorder::new(16);
    rec.intern("Udp.PacketRecv");
    let (ns, _) = bench(scale, 20_000, || rec.intern(black_box("Udp.PacketRecv")));
    m.push(("trace.recorder.intern_ns", ns));
}
