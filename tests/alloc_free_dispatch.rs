//! Tier-1 allocation gate (DESIGN.md §8, §9, §10): a raise allocates
//! nothing; a datagram echoed (or answered with a port unreachable) by the
//! Plexus stack, sent by an open-loop generator, recorded, recorded with a
//! live tier that samples it, echoed by the baseline or forwarded by the
//! router, a bind + close pair (alone, or churned beside 128 endpoints)
//! and a TCP connect + close (beside one live connection or 1 024) allocate
//! exactly what is pinned below; a bind or listen on a held port allocates
//! nothing, and an install keeps every byte it asks for (no scratch on the
//! heap); the folds over a recorded run allocate per run, not per record,
//! and a profile's build the same at any run length; an oversize transmit
//! allocates nothing; rebinding leaves no heap behind, and neither does a
//! flood of out-of-window TCP segments or of IP fragments that never
//! complete, on both stacks.
//!
//! The counting allocator is `perf/`'s, mounted by path. Its counters are
//! thread-local and every `#[test]` runs on a thread of its own, so the
//! counts here are exact under cargo's parallel runner. [`Ledger`] wraps it
//! to capture a backtrace per heap call while `print_echo_allocation_ledger`
//! holds its window open; outside that window it only forwards.

use std::alloc::{GlobalAlloc, Layout};
use std::any::Any;
use std::backtrace::Backtrace;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::baseline::MonolithicStack;
use plexus::core::tcp_manager::ConnCallback;
use plexus::core::{
    AppHandler, IpRouter, PlexusError, PlexusStack, StackConfig, TcpCallbacks, TcpConn,
    UdpEndpoint, UdpRecv,
};
use plexus::kernel::dispatcher::{Dispatcher, Event, Guard, HandlerSpec, RaiseCtx};
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::ephemeral::Ephemeral;
use plexus::kernel::filter::{conjunction, verify, EventKind, Field, Operand, Packet, Test};
use plexus::kernel::vm::AddressSpace;
use plexus::net::ether::{self, EtherType, MacAddr};
use plexus::net::ip::{self, IpHeader};
use plexus::net::mbuf::Mbuf;
use plexus::net::tcp::{TcpFlags, TcpSegment, TcpState};
use plexus::net::testbed::Host;
use plexus::net::udp::{self, UdpConfig};
use plexus::net::Testbed;
use plexus::sim::cpu::{CostModel, Cpu};
use plexus::sim::nic::{DriverConfig, Link, Medium, Nic};
use plexus::sim::time::{SimDuration, SimTime};
use plexus::sim::{Engine, World};
use plexus::trace::export::{chrome_trace, stats_json};
use plexus::trace::flame::folded;
use plexus::trace::journey::{self, journeys_json};
use plexus::trace::live::{live_json, LiveConfig};
use plexus::trace::profile::{profile_json, Profile};
use plexus::trace::{timeline, CounterKey, Label, Recorder, Scope};
use plexus_bench::overload::{build_frame, PAYLOAD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[allow(dead_code)]
#[path = "../perf/src/alloc.rs"]
mod alloc;

thread_local! {
    /// Whether this thread's heap calls are being written to `TRACES`.
    static LEDGER_OPEN: Cell<bool> = const { Cell::new(false) };
    /// Set while a trace is being taken: capturing one allocates.
    static IN_LEDGER: Cell<bool> = const { Cell::new(false) };
    static TRACES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

/// `alloc::Counting`, plus the call stack of every `alloc`/`realloc` made
/// while the calling thread's ledger window is open.
struct Ledger;

impl Ledger {
    fn note(&self) {
        if !LEDGER_OPEN.get() || IN_LEDGER.replace(true) {
            return;
        }
        TRACES.with_borrow_mut(|t| t.push(Backtrace::force_capture()));
        IN_LEDGER.set(false);
    }
}

// SAFETY: every method forwards its arguments unchanged to `Counting`, which
// upholds `GlobalAlloc`'s contract; `note` only reads and writes this
// thread's cells, and the heap calls it makes itself re-enter here with
// `IN_LEDGER` set and are forwarded without a second `note`.
unsafe impl GlobalAlloc for Ledger {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { alloc::Counting.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as above.
        unsafe { alloc::Counting.alloc_zeroed(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `Counting`, with layout `l`.
        unsafe { alloc::Counting.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        self.note();
        // SAFETY: as for `dealloc`; `new` is the caller's checked size.
        unsafe { alloc::Counting.realloc(p, l, new) }
    }
}

#[global_allocator]
static GLOBAL: Ledger = Ledger;

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

/// A world with a device under test between two bare NICs (or in front of
/// one): `tx` offers it `frame`, and `rx` hears what it makes of it.
struct Loop {
    world: World,
    tx: Rc<Nic>,
    rx: Rc<Nic>,
    frame: Vec<u8>,
    /// The recorder installed across the world, if any: the loop's driver
    /// starts a fresh journey for every datagram it sends.
    rec: Option<Rc<Recorder>>,
    /// A histogram the driver records a latency sample into for every
    /// datagram it hears, if any.
    samples: Option<Label>,
    _dut: Box<dyn Any>,
}

/// Builds a [`Loop`].
type Dut = fn() -> Loop;

/// A one-endpoint Plexus stack echoing `ev.payload.share()` to a bare NIC.
fn plexus_echo() -> Loop {
    plexus_bound_to(7)
}

/// [`plexus_echo`] with its endpoint on another port than the one the
/// generator sends to: every datagram is a miss, answered with an ICMP
/// port unreachable.
fn plexus_miss() -> Loop {
    plexus_bound_to(9)
}

/// A Plexus stack with one echoing endpoint on `port`, offered datagrams
/// for port 7.
fn plexus_bound_to(port: u16) -> Loop {
    let Testbed { world, hosts, .. } = Testbed::new(&Link::t3(), 42, &["generator", "dut"]);
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
        .bind(
            &ext,
            port,
            UdpConfig::default(),
            AppHandler::interrupt(echo),
        )
        .unwrap();
    let _ = slot.set(ep);
    Loop {
        world,
        tx: hosts[0].nic.clone(),
        rx: hosts[0].nic.clone(),
        frame: build_frame(&hosts[0], &hosts[1], PAYLOAD),
        rec: None,
        samples: None,
        _dut: Box::new(stack),
    }
}

/// [`plexus_echo`] on the monolithic baseline: a process in a `recvfrom` /
/// `sendto` loop.
fn baseline_echo() -> Loop {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["generator", "dut"]);
    let stack = MonolithicStack::attach_host(&hosts[1]);
    let process = AddressSpace::new("echo");
    let sock = Rc::new(stack.udp_socket(&process, 7, true).unwrap());
    let reply = sock.clone();
    sock.recv_loop(world.engine_mut(), move |eng, user, msg| {
        reply
            .sendto_in(eng, user, msg.src, msg.src_port, &msg.data)
            .expect("the payload fits one datagram");
    });
    Loop {
        world,
        tx: hosts[0].nic.clone(),
        rx: hosts[0].nic.clone(),
        frame: build_frame(&hosts[0], &hosts[1], PAYLOAD),
        rec: None,
        samples: None,
        _dut: Box::new((stack, sock)),
    }
}

/// The in-kernel router between two T3 segments, a bare NIC on each: what
/// the generator sends to the sink's address comes out on the other side.
fn router_forward() -> Loop {
    let mut world = World::new();
    let machine = world.add_machine("router");
    let link = Link::t3();
    let segment = || Medium::new(link.propagation, link.half_duplex);
    let (near, far) = (segment(), segment());
    let nic = |medium| Nic::new(link.profile.clone(), medium);
    let (tx, rx) = (nic(&near), nic(&far));
    let (gen_ip, gen_mac) = (Ipv4Addr::new(10, 0, 1, 2), MacAddr::local(1));
    let (sink_ip, sink_mac) = (Ipv4Addr::new(10, 0, 2, 2), MacAddr::local(2));
    let (near_ip, near_mac) = (Ipv4Addr::new(10, 0, 1, 1), MacAddr::local(101));
    let (far_ip, far_mac) = (Ipv4Addr::new(10, 0, 2, 1), MacAddr::local(102));
    let router = IpRouter::attach(
        &machine,
        &[
            (nic(&near), near_ip, near_mac),
            (nic(&far), far_ip, far_mac),
        ],
    );
    router.seed_arp(1, sink_ip, sink_mac);

    let payload = Mbuf::from_payload(64, &[0u8; PAYLOAD]);
    let dgram = udp::encapsulate(gen_ip, sink_ip, 2000, 7, UdpConfig::default(), payload);
    let hdr = IpHeader::simple(gen_ip, sink_ip, ip::proto::UDP, 1);
    let mut frame = ip::encapsulate(&hdr, dgram);
    ether::write_header(frame.prepend(14), near_mac, gen_mac, EtherType::IPV4);
    Loop {
        world,
        tx,
        rx,
        frame: frame.to_vec(),
        rec: None,
        samples: None,
        _dut: Box::new(router),
    }
}

/// Runs `datagrams` frames through a device under test in a closed loop:
/// `tx` sends the next one when `rx` hears what became of the last, so the
/// engine's queue stays a few events deep. `heard` is told the count after
/// each. Returns the run's heap calls and the frames `rx` heard.
fn closed_loop(dut: Dut, datagrams: u64, heard: impl Fn(u64) + 'static) -> (u64, u64) {
    // The cluster pool is per thread: start every run equally cold.
    plexus::net::mbuf::reset_cluster_pool();
    let Loop {
        mut world,
        tx,
        rx,
        frame,
        rec,
        samples,
        _dut,
    } = dut();
    let count = Rc::new(Cell::new(0u64));
    let (seen, nic, next) = (count.clone(), Rc::downgrade(&tx), frame.clone());
    rx.attach(DriverConfig::per_frame(move |engine, _| {
        seen.set(seen.get() + 1);
        heard(seen.get());
        if let Some(rec) = &rec {
            // A sample that grows with every datagram is the new worst of
            // its window each time: the tail sampler keeps the journey
            // that completed it and lets the one before go.
            if let Some(hist) = samples {
                rec.sample(engine.now().as_nanos(), hist, seen.get());
            }
            rec.journey_break();
        }
        if seen.get() < datagrams {
            let now = engine.now();
            let nic = nic.upgrade().expect("the world outlives its run");
            nic.transmit(engine, now, &next[..]);
        }
    }));
    tx.transmit(world.engine_mut(), SimTime::ZERO, &frame[..]);
    let allocs = allocs_during(|| world.run());
    (allocs, count.get())
}

/// Asserts that one more datagram through `dut` costs exactly `per_datagram`
/// heap calls. The difference between two runs cancels warm-up (pool fill,
/// table growth); what is left is the steady state.
fn assert_pinned(dut: Dut, per_datagram: u64) {
    const N: u64 = 500;
    let (short, heard) = closed_loop(dut, N, |_| {});
    assert_eq!(heard, N, "every datagram came back");
    let (long, heard) = closed_loop(dut, 2 * N, |_| {});
    assert_eq!(heard, 2 * N);
    assert_eq!(long - short, per_datagram * N);
}

// What is pinned below is zero for Plexus and the router: mbuf chains,
// header prepends and the shares between layers come out of the cluster
// pool, the wire image `Nic::transmit` gathers into comes from its medium's
// free list and goes back when the receiving driver returns, the arrival
// event that carries it is a typed slot in the engine, and a scheduled
// closure moves into a box an earlier closure of its type left behind.
// What is left on the baseline is the model's own structure: the socket
// layer's copy-out `Vec`. A new per-packet `Vec` or `Box` anywhere on the
// path moves these numbers.

#[test]
fn an_echoed_datagram_allocates_exactly_the_pinned_count() {
    // Generator NIC tx, wire, DUT rx interrupt, five raises, the endpoint's
    // echo, DUT tx, wire, generator rx.
    assert_pinned(plexus_echo, 0);
    // A miss: the reply quotes the datagram's IP header and first 8 payload
    // bytes straight into a pooled mbuf (3 heap calls while it copied the
    // payload out, built a message `Vec` and serialized it into another).
    assert_pinned(plexus_miss, 0);
}

/// [`plexus_echo`] with `rec` installed across the world.
fn recorded(rec: Rc<Recorder>) -> Loop {
    let mut echo = plexus_echo();
    echo.world.install_recorder(&rec);
    echo.rec = Some(rec);
    echo
}

/// [`plexus_echo`] with a flight recorder (ring only) across the world.
fn traced_echo() -> Loop {
    recorded(Recorder::new(1 << 10))
}

/// [`plexus_echo`] with the ring and the live tier: one window for the
/// whole run, and no 1-in-N sample, so every journey stays undecided in
/// the tail sampler's scratch until it is evicted.
fn live_echo() -> Loop {
    let rec = Recorder::new(1 << 10);
    rec.enable_live(LiveConfig {
        window_ns: 1_000_000_000,
        sample_every: 0,
        slo: None,
    });
    recorded(rec)
}

/// [`plexus_echo`] with the live tier as the traced benchmark runs it,
/// 1-in-64 journeys kept, and a latency sample for every datagram that is
/// its 1 ms window's new worst: journeys are promoted and demoted all the
/// time, and one per window and one in 64 are kept for good.
fn sampled_live_echo() -> Loop {
    let rec = Recorder::new(1 << 10);
    rec.enable_live(LiveConfig {
        window_ns: 1_000_000,
        sample_every: 64,
        slo: None,
    });
    let samples = Some(rec.intern("rtt"));
    Loop {
        samples,
        ..recorded(rec)
    }
}

#[test]
fn recording_an_echoed_datagram_allocates_nothing_more() {
    // The untraced count exactly: every record is a store into the ring,
    // every counter a slot that exists after warm-up, and the names the
    // NICs, event tables and handler owners record under are resolved to
    // labels once, not hashed per packet. (The 1 024-record ring wraps
    // many times over; that allocates nothing either.)
    assert_pinned(traced_echo, 0);
    // With the live tier too. Each datagram is a journey of its own, and
    // its records go to a scratch buffer an evicted journey left behind,
    // not to a fresh `Vec` grown record by record (about 4 heap calls per
    // datagram while the scratch was a map of its own buffers).
    assert_pinned(live_echo, 0);
}

#[test]
fn a_sampled_live_echo_allocates_exactly_the_pinned_count() {
    // Over 500 datagrams, about one per datagram: each 1 ms window's
    // latency samples, and what the journeys kept for good take (a buffer,
    // the copies of their records the 1 024-record ring overwrites, their
    // nodes in the sampler's maps). A promoted journey takes its scratch
    // buffer along and a demoted one gives it back with its capacity
    // (2 764 while a promotion built a fresh set of worst windows, a
    // demotion freed the journey's buffer, and a new one grew its copies
    // record by record).
    const PER_500: u64 = 538;
    const N: u64 = 500;
    let (short, heard) = closed_loop(sampled_live_echo, N, |_| {});
    assert_eq!(heard, N);
    let (long, heard) = closed_loop(sampled_live_echo, 2 * N, |_| {});
    assert_eq!(heard, 2 * N);
    assert_eq!(long - short, PER_500);
}

/// `datagrams` echoes by [`plexus_echo`] under a recorder whose ring holds
/// them all (up to about 3 400), with the live tier's 10 ms windows: the
/// traced benchmark's run in small.
fn traced_run(datagrams: u64) -> Rc<Recorder> {
    plexus::net::mbuf::reset_cluster_pool();
    let rec = Recorder::new(1 << 16);
    rec.enable_live(LiveConfig::new(FOLD_WINDOW_NS));
    let Loop {
        mut world,
        tx,
        rx,
        frame,
        _dut,
        ..
    } = plexus_echo();
    world.install_recorder(&rec);
    let (nic, next) = (Rc::downgrade(&tx), frame.clone());
    let left = Cell::new(datagrams - 1);
    rx.attach(DriverConfig::per_frame(move |engine, _| {
        if left.get() > 0 {
            left.set(left.get() - 1);
            let nic = nic.upgrade().expect("the world outlives its run");
            nic.transmit(engine, engine.now(), &next[..]);
        }
    }));
    tx.transmit(world.engine_mut(), SimTime::ZERO, &frame[..]);
    world.run();
    assert_eq!(rec.overwritten(), 0, "the ring holds the whole run");
    rec
}

const FOLD_WINDOW_NS: u64 = 10_000_000;

/// Every fold and writer the traced benchmark runs over `rec`, in its
/// order, with the heap calls each made.
fn every_fold(rec: &Recorder) -> Vec<(&'static str, u64)> {
    const DETAIL: usize = 64;
    let mut profile = None;
    let mut journeys = None;
    let mut calls = vec![(
        "Profile::build",
        allocs_during(|| profile = Some(Profile::build(rec))),
    )];
    let profile = profile.expect("built");
    calls.push((
        "profile_json",
        allocs_during(|| drop(profile_json(&profile, None, DETAIL))),
    ));
    calls.push((
        "journey::build",
        allocs_during(|| journeys = Some(journey::build(&profile))),
    ));
    let journeys = journeys.expect("built");
    calls.push((
        "journeys_json",
        allocs_during(|| drop(journeys_json(&journeys, DETAIL))),
    ));
    let timeline = || {
        drop(timeline::timeline_json(&timeline::build(
            rec,
            FOLD_WINDOW_NS,
        )))
    };
    calls.push(("timeline", allocs_during(timeline)));
    calls.push(("chrome_trace", allocs_during(|| drop(chrome_trace(rec)))));
    calls.push(("stats_json", allocs_during(|| drop(stats_json(rec)))));
    calls.push(("folded", allocs_during(|| drop(folded(&profile)))));
    let live = || drop(live_json(&rec.live_report().expect("live enabled"), DETAIL));
    calls.push(("live", allocs_during(live)));
    calls
}

/// The folds over a recorded run, per retained record: the exporters that
/// write per record or per slice grow one buffer and touch the heap for
/// nothing else; the profile and the journeys keep every packet's spans,
/// slices and transmits and every journey's hops and segments in arenas
/// of their own, so they allocate per run — not per packet, per journey
/// or per name. The other writers allocate per detailed packet or
/// journey, per window and per counter name.
#[test]
fn the_folds_allocate_per_packet_not_per_record() {
    const N: u64 = 400;
    let rec = traced_run(N);
    let records = rec.recorded();
    assert!(records > 15 * N, "{records} records for {N} echoes");
    // Measured over the run's 7 600 records: `chrome_trace` 0.0017
    // (its arena of record heads and its row buffer), `Profile::build`
    // 0.0028 (0.0066 while its arenas grew by doubling), `profile_json`
    // 0.0128, `journey::build` 0.0064 (0.0067 while its segment arena grew
    // by doubling), `journeys_json` 0.0017, the timeline 0.0012,
    // `stats_json` 0.0187, `folded` 0.0013 and the live report
    // with its document 0.0037. While every packet and journey had `Vec`s
    // of its own and every hop `String` copies of its names,
    // `Profile::build` and `journey::build` made 0.483 and 0.229; when the
    // folds kept names as `String`s, 4.65 and 2.57, with 9.38 for
    // `chrome_trace` and 2.37 for `folded`. One heap call per packet would
    // be 0.05.
    for (fold, calls) in every_fold(&rec) {
        let per_record = calls as f64 / records as f64;
        let pin = match fold {
            "chrome_trace" | "Profile::build" | "journey::build" | "folded" => 0.01,
            _ => 0.02,
        };
        assert!(
            per_record <= pin,
            "{fold}: {per_record} heap calls per record"
        );
    }
}

#[test]
fn profile_build_allocates_once_per_arena() {
    // A counting walk sizes the packet, span, slice, transmit and drop
    // arenas before the fold, so each is allocated once at the size it
    // keeps: 20 times the run costs no heap call more. While the arenas
    // grew by doubling and were shrunk to fit, every doubling was one (44
    // heap calls at 100 datagrams, 57 at 2 000).
    let build = |datagrams| {
        let rec = traced_run(datagrams);
        allocs_during(|| drop(Profile::build(&rec)))
    };
    assert_eq!(build(100), build(2_000), "at 100 and 2 000 datagrams");
}

/// The benchmark generator's datagrams: `frames` of `frame`, the `k`-th
/// sent from `nic` at `k × 200 µs`, a pace the echo keeps up with.
struct Generator {
    nic: Rc<Nic>,
    frame: Vec<u8>,
    frames: u64,
}

/// Schedules datagram `k` of `gen`; its event sends it and schedules the
/// next, whatever the device under test is doing — an open loop in
/// simulated time, as `perf/src/workloads.rs::schedule_send` runs it.
fn schedule_send(engine: &mut Engine, gen: Rc<Generator>, k: u64) {
    if k == gen.frames {
        return;
    }
    let at = SimTime::ZERO + SimDuration::from_micros(200).times(k);
    engine.schedule_at(at, move |engine| {
        let now = engine.now();
        gen.nic.transmit(engine, now, &gen.frame[..]);
        schedule_send(engine, gen.clone(), k + 1);
    });
}

/// Offers `datagrams` frames to a device under test from an open-loop
/// [`Generator`]. `heard` is told the count of answers heard after each.
/// Returns the run's heap calls and the answers heard.
fn open_loop(dut: Dut, datagrams: u64, heard: impl Fn(u64) + 'static) -> (u64, u64) {
    plexus::net::mbuf::reset_cluster_pool();
    let Loop {
        mut world,
        tx,
        rx,
        frame,
        _dut,
        ..
    } = dut();
    let count = Rc::new(Cell::new(0u64));
    let seen = count.clone();
    rx.attach(DriverConfig::per_frame(move |_, _| {
        seen.set(seen.get() + 1);
        heard(seen.get());
    }));
    let gen = Generator {
        nic: tx,
        frame,
        frames: datagrams,
    };
    schedule_send(world.engine_mut(), Rc::new(gen), 0);
    let allocs = allocs_during(|| world.run());
    (allocs, count.get())
}

#[test]
fn an_open_loop_generator_allocates_nothing_per_datagram() {
    // Each send's closure moves into the box the one before it ran from:
    // one heap call per datagram while the engine boxed every closure anew.
    const N: u64 = 500;
    let (short, heard) = open_loop(plexus_echo, N, |_| {});
    assert_eq!(heard, N, "every datagram came back");
    let (long, heard) = open_loop(plexus_echo, 2 * N, |_| {});
    assert_eq!(heard, 2 * N);
    assert_eq!(long - short, 0, "heap calls over {N} more datagrams");
}

#[test]
fn a_datagram_echoed_by_the_baseline_allocates_exactly_the_pinned_count() {
    // The socket layer's copy-out `Vec`. The process's wake-up closure
    // moves into the box the last one ran from (2 while the engine boxed
    // every closure anew).
    assert_pinned(baseline_echo, 1);
}

#[test]
fn a_forwarded_datagram_allocates_exactly_the_pinned_count() {
    assert_pinned(router_forward, 0);
}

/// The ledger behind the pins (ROADMAP item 4): heap calls per datagram over
/// a steady-state window of each loop, by the first frame of the call stack
/// that lies in this tree. Reproduce with
/// `cargo test --release --test alloc_free_dispatch -- --ignored --nocapture`
/// (a debug build adds file and line).
#[test]
#[ignore = "prints a report; resolving a few hundred backtraces takes seconds"]
fn print_echo_allocation_ledger() {
    const WARM_UP: u64 = 200;
    const WINDOW: u64 = 64;
    let loops: [(&str, Dut); 5] = [
        ("Plexus echo", plexus_echo),
        ("Plexus miss", plexus_miss),
        ("baseline echo", baseline_echo),
        ("router forward", router_forward),
        ("Plexus live echo, sampled", sampled_live_echo),
    ];
    for (name, dut) in loops {
        let (_, heard) = closed_loop(dut, WARM_UP + WINDOW + 1, |heard| {
            LEDGER_OPEN.set((WARM_UP..WARM_UP + WINDOW).contains(&heard));
        });
        assert_eq!(heard, WARM_UP + WINDOW + 1, "the window saw the loop run");
        // Empty for Plexus and the router: nothing on their path allocates.
        print_ledger(name, "datagram", WINDOW);
    }
    // Empty too: the generator's send closures reuse one box.
    let (_, heard) = open_loop(plexus_echo, WARM_UP + WINDOW + 1, |heard| {
        LEDGER_OPEN.set((WARM_UP..WARM_UP + WINDOW).contains(&heard));
    });
    assert_eq!(heard, WARM_UP + WINDOW + 1, "the window saw the loop run");
    print_ledger("Plexus echo, open loop", "datagram", WINDOW);
    // The traced benchmark's folds, over a recorded run of their own.
    const FOLDED: u64 = 400;
    let rec = traced_run(FOLDED);
    LEDGER_OPEN.set(true);
    every_fold(&rec);
    LEDGER_OPEN.set(false);
    print_ledger("every fold", "datagram", FOLDED);
    // The bulk transfer's window is counted in frames received by either
    // side, data and ACKs alike; it opens and closes at a delivery.
    let frames = Rc::new(Cell::new((0, 0)));
    let seen = frames.clone();
    let (stream, received) = plexus_bulk(move |heard| {
        let open = (BULK_WARM_UP..BULK_WARM_UP + BULK_WINDOW).contains(&heard);
        match (LEDGER_OPEN.replace(open), open) {
            (false, true) => seen.set((heard, heard)),
            (true, false) => seen.set((seen.get().0, heard)),
            _ => {}
        }
    });
    assert!(received == *stream, "the stream arrived byte-exact");
    let (opened, closed) = frames.get();
    // Empty: a segment's trip through both stacks allocates nothing.
    print_ledger("Plexus TCP bulk", "received frame", closed - opened);
    // Installing and removing guards: warm pairs and connections only.
    const PAIRS: u32 = 20;
    let (_tb, cycles) = rebinder();
    cycles(10);
    LEDGER_OPEN.set(true);
    cycles(PAIRS);
    LEDGER_OPEN.set(false);
    print_ledger("bind + close", "pair", u64::from(PAIRS));
    let (_tb, mut cycle) = churner();
    let ports = churn_ports(1, 250 + 1_000);
    ports[..250].iter().for_each(|&port| cycle(port));
    LEDGER_OPEN.set(true);
    ports[250..].iter().for_each(|&port| cycle(port));
    LEDGER_OPEN.set(false);
    print_ledger("bind + close beside 128", "pair", 1_000);
    let mut redial = redialer(0);
    redial(10);
    LEDGER_OPEN.set(true);
    redial(PAIRS);
    LEDGER_OPEN.set(false);
    print_ledger("TCP connect + close", "connection", u64::from(PAIRS));
}

/// Prints the heap calls `TRACES` caught, per `unit` over `count` of them,
/// by call site.
fn print_ledger(name: &str, unit: &str, count: u64) {
    let traces = TRACES.take();
    let mut sites: BTreeMap<String, u64> = BTreeMap::new();
    for trace in &traces {
        *sites.entry(first_frame_in_tree(trace)).or_default() += 1;
    }
    let per_unit = |calls: u64| calls as f64 / count as f64;
    println!(
        "{name}: {:.3} heap calls per {unit}, over {count}",
        per_unit(traces.len() as u64)
    );
    let mut sites: Vec<_> = sites.into_iter().collect();
    sites.sort_by_key(|(_, calls)| std::cmp::Reverse(*calls));
    for (site, calls) in sites {
        println!("{:8.3}  {site}", per_unit(calls));
    }
}

/// The innermost frame of `trace` whose symbol is this workspace's (the
/// allocator wrapper aside), with its source position where the build has
/// one.
fn first_frame_in_tree(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        // "<n>: <symbol>", then perhaps "at <file>:<line>:<column>".
        let symbol = line.split_once(": ").map_or("", |(_, symbol)| symbol);
        let ours = symbol.contains("plexus") || symbol.starts_with("alloc_free_dispatch::");
        if ours && !symbol.contains("Ledger") {
            let at = lines.next().filter(|l| l.starts_with("at "));
            return format!("{symbol} {}", at.unwrap_or_default());
        }
    }
    "(no frame of this tree)".to_string()
}

#[test]
fn an_oversize_transmit_allocates_nothing() {
    // A 64 KB chain nobody segmented, on a 4470-byte MTU: the adapter
    // refuses it by its length, before gathering a wire image of it.
    let rec = Recorder::new(64);
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["sender", "receiver"]).traced(Some(&rec));
    hosts[1].nic.attach(DriverConfig::per_frame(|_, _| {
        panic!("an oversize frame must not be delivered")
    }));
    let chain = Mbuf::from_payload(0, &vec![0xAB; 65_536]);
    let ready = SimTime::ZERO + SimDuration::from_micros(5);
    // The first refusal interns the recorder's labels; the second is pure.
    hosts[0].nic.transmit(world.engine_mut(), ready, &chain);
    let mut done = None;
    let allocs = allocs_during(|| {
        done = Some(hosts[0].nic.transmit(world.engine_mut(), ready, &chain));
    });
    world.run();
    assert_eq!(allocs, 0, "a refused chain is not copied");
    assert_eq!(done, Some(ready), "the adapter is free again at once");
    let stats = hosts[0].nic.stats();
    assert_eq!((stats.tx_oversize, stats.tx_frames), (2, 0));
    let refused = rec.registry().get(CounterKey {
        scope: Scope::Drop,
        label: rec.intern("tx_oversize"),
        metric: "count",
    });
    assert_eq!(refused, 2, "each a named drop");
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

/// Heap calls per UDP bind + close pair, however many endpoints are live.
const PER_PAIR: u64 = 5;

#[test]
fn a_bind_close_pair_allocates_exactly_the_pinned_count() {
    // What is left, per pair, is what the endpoint keeps: the program's
    // instructions; the compiled op list (32 bytes an op); the guard's
    // `Rc`, whose demux key holds its one port in place; the dispatcher's
    // entry, which its one-entry bucket holds inline; the endpoint. The
    // policy and the one-of test's values are verification scratch held
    // in place on the stack, the verifier's fact arena is kept per
    // thread, the program moves into the verified program, and the
    // compiled form lives inline in it (8 while the policy's list, the
    // one-of test's values and the key's values were each a heap list; 14
    // while verification cloned the program, the compiled form and each
    // bucket were a heap call of their own, an equality test held its
    // value in a list, the walk took a fresh arena and the key was a list
    // plus a set per `In` field; 45 while each state held its value sets
    // in `BTreeSet`s, the policy a set per constraint, the builder and the
    // compiler their scratch lists, and the dispatcher copied the owner's
    // name and collected the key combinations; 148 while `core::guards`
    // and the guard's constructor each re-derived the key and `Entry`
    // cloned it, and 77 while a value-set walk and an interval walk each
    // ran, the second building successor lists). Verification is a fixed
    // number of heap calls, however many branches the guard has. What the
    // extension holds is written down as plain data beside a clone of its
    // link token, so the record costs no heap call of its own (80 while
    // each bind boxed an undo closure and copied the extension's name).
    // The handler is boxed once, by `AppHandler::interrupt`, and that box
    // is what the dispatcher calls (78 while `install_held` boxed a
    // closure around it); a handler that captures nothing boxes nothing.
    const N: u32 = 100;
    let (_tb, cycles) = rebinder();
    cycles(10);
    assert_eq!(allocs_during(|| cycles(N)), PER_PAIR * u64::from(N));
}

/// `count` distinct ports from 12 000 upward, seeded gaps of 1 to 32 apart:
/// the shape of the fresh ports `udp_churn_64ep` rebinds on.
fn churn_ports(seed: u64, count: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut port = 12_000u16;
    (0..count)
        .map(|_| {
            port += 1 + rng.gen_range(0..32) as u16;
            port
        })
        .collect()
}

/// `udp_churn_64ep`'s rebinding: a stack with 64 live endpoints and a
/// pool of 64 more, and a closure that closes the pool's oldest and binds
/// the given port in its place.
fn churner() -> (Testbed, impl FnMut(u16)) {
    const LIVE: u16 = 64;
    const POOL: u16 = 64;
    let tb = Testbed::new(&Link::t3(), 42, &["peer", "dut"]);
    let stack = PlexusStack::attach_host(&tb.hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("churn", &["UDP.Bind"]);
    let ext = stack.link_extension(&spec).unwrap();
    let bind = move |port| {
        let handler = AppHandler::interrupt(|_: &mut RaiseCtx<'_>, _: &UdpRecv| {});
        (stack.udp())
            .bind(&ext, port, UdpConfig::default(), handler)
            .unwrap()
    };
    let live: Vec<_> = (0..LIVE).map(|i| bind(10_000 + i)).collect();
    let mut pool: VecDeque<_> = (0..POOL).map(|i| bind(11_000 + i)).collect();
    let cycle = move |port| {
        pool.pop_front().expect("the pool never empties").close();
        pool.push_back(bind(port));
        assert_eq!(live.len(), usize::from(LIVE), "the live endpoints stay");
    };
    (tb, cycle)
}

#[test]
fn churning_like_the_benchmark_allocates_the_pinned_count_per_pair() {
    // Every table the pair touches is as large as the benchmark's, so the
    // table's growth or a cost per live port would show here.
    const WARM_UP: usize = 250;
    const CYCLES: usize = 1_000;
    let (_tb, mut cycle) = churner();
    let ports = churn_ports(1, WARM_UP + CYCLES);
    let (warm, measured) = ports.split_at(WARM_UP);
    warm.iter().for_each(|&port| cycle(port));
    let allocs = allocs_during(|| measured.iter().for_each(|&port| cycle(port)));
    assert_eq!(allocs, PER_PAIR * CYCLES as u64);
}

#[test]
fn a_bind_to_a_held_port_allocates_nothing() {
    // The port is checked before the guard is built: a refused bind or
    // listen verifies nothing and allocates nothing.
    let tb = Testbed::new(&Link::t3(), 42, &["peer", "dut"]);
    let stack = PlexusStack::attach_host(&tb.hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("squatter", &["UDP.Bind", "TCP.Listen"]);
    let ext = stack.link_extension(&spec).unwrap();
    let handler = || AppHandler::interrupt(|_: &mut RaiseCtx<'_>, _: &UdpRecv| {});
    let special = UdpConfig { checksum: false };
    let _standard = (stack.udp())
        .bind(&ext, 7, UdpConfig::default(), handler())
        .unwrap();
    let _special = stack.udp().bind(&ext, 9, special, handler()).unwrap();
    let on_accept = |_: &mut RaiseCtx<'_>, _: &Rc<TcpConn>| {};
    stack.tcp().listen(&ext, TCP_PORT, on_accept).unwrap();
    for (path, port, config) in [
        ("standard on standard", 7, UdpConfig::default()),
        ("special on standard", 7, special),
        ("standard on special", 9, UdpConfig::default()),
        ("special on special", 9, special),
    ] {
        let mut refused = None;
        let allocs = allocs_during(|| {
            refused = stack.udp().bind(&ext, port, config, handler()).err();
        });
        assert_eq!(refused, Some(PlexusError::PortInUse(port)), "{path}");
        assert_eq!(allocs, 0, "{path}");
    }
    let mut refused = None;
    let allocs = allocs_during(|| {
        refused = stack.tcp().listen(&ext, TCP_PORT, on_accept).err();
    });
    assert_eq!(refused, Some(PlexusError::PortInUse(TCP_PORT)), "listen");
    assert_eq!(allocs, 0, "listen");
}

/// A Plexus client and server on one T3 link, the server listening once
/// with `live` connections open and idle, and a closure that opens `n`
/// more connections to it one after another: each is connected, run to
/// `Established`, closed, and run until both ends have let it go.
fn redialer(live: usize) -> impl FnMut(u32) {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["client", "server"]);
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("redial", &["TCP.Listen", "TCP.Connect"]);
    let (cext, sext) = (
        client.link_extension(&spec).unwrap(),
        server.link_extension(&spec).unwrap(),
    );
    // One callback, shared by every accepted connection.
    let closer: ConnCallback = Rc::new(|ctx, conn| conn.close_in(ctx));
    server
        .tcp()
        .listen(&sext, TCP_PORT, move |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_peer_close: Some(closer.clone()),
                ..Default::default()
            })
        })
        .unwrap();
    let to = (hosts[1].ip, TCP_PORT);
    let idle: Vec<_> = (0..live)
        .map(|_| client.tcp().connect(&cext, world.engine_mut(), to).unwrap())
        .collect();
    world.run();
    assert!(idle.iter().all(|c| c.state() == TcpState::Established));
    move |n| {
        for _ in 0..n {
            let conn = client.tcp().connect(&cext, world.engine_mut(), to).unwrap();
            world.run();
            assert_eq!(conn.state(), TcpState::Established);
            conn.close(world.engine_mut());
            world.run();
            assert_eq!(conn.state(), TcpState::Closed);
        }
        assert_eq!(idle.len(), live, "the idle connections stay open");
    }
}

/// Heap calls per TCP connect + close, both ends, however many
/// connections are live.
const PER_CONNECTION: u64 = 14;

#[test]
fn a_tcp_connect_close_allocates_exactly_the_pinned_count() {
    // Both ends: each verifies and installs a 4-tuple guard as a bind does
    // (its policy's four equalities on the stack, its key's three values
    // held in place), boxes its handler and registers the connection; the
    // client's TCB takes a send buffer and the server's a receive buffer.
    // The server's accept and the close are handled from inside a raise,
    // which pins only the lists it walks, so installing and removing there
    // copies no part of the table (18 while each end's policy and key
    // values were heap lists; 54 while the raise pinned the whole
    // generation, which each of them then copied, and verification cost
    // what a bind's did at 14; 59 while each of the connection's five
    // timers took a fresh box; 149 while verification and install cost
    // what a bind's did at 45).
    const N: u32 = 50;
    let mut redial = redialer(0);
    redial(10);
    assert_eq!(allocs_during(|| redial(N)), PER_CONNECTION * u64::from(N));
}

#[test]
fn a_tcp_connect_close_costs_the_same_beside_a_thousand_live_connections() {
    // Installing a connection from inside the listener's raise, and
    // removing it from inside its own, touches the lists that raise walks
    // and the new key's bucket; nothing that grows with the connections
    // already open (one more heap call per live connection, for each of
    // the two generation copies, while a raise pinned the whole table).
    const N: u32 = 20;
    for live in [1, 1_024] {
        let mut redial = redialer(live);
        redial(10);
        let allocs = allocs_during(|| redial(N));
        assert_eq!(allocs, PER_CONNECTION * u64::from(N), "{live} live");
    }
}

/// Heap bytes asked for inside `f`, and how far the live heap grew.
fn kept_during(f: impl FnOnce()) -> (i64, i64) {
    let (_, asked, live, _) = alloc::snapshot();
    f();
    let (_, asked_after, live_after, _) = alloc::snapshot();
    ((asked_after - asked) as i64, live_after - live)
}

#[test]
fn an_install_keeps_every_byte_it_asks_for() {
    // An install asks the allocator only for what the installed binding
    // keeps: every byte asked for while it runs is still live when it
    // returns. A policy and a one-of test's values are verification
    // scratch, held in place on the stack (each UDP bind freed 144 B of
    // them before it returned while they were heap lists). Each install
    // is made and undone once beforehand, so the tables it lands in
    // already have room and none of them grows.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["client", "server"]);
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("keeper", &["UDP.Bind", "TCP.Listen", "TCP.Connect"]);
    let (cext, sext) = (
        client.link_extension(&spec).unwrap(),
        server.link_extension(&spec).unwrap(),
    );
    let special = UdpConfig { checksum: false };
    for (name, config) in [
        ("UDP bind", UdpConfig::default()),
        ("special UDP bind", special),
    ] {
        let bind = || {
            let handler = AppHandler::interrupt(|_: &mut RaiseCtx<'_>, _: &UdpRecv| {});
            server.udp().bind(&sext, 7, config, handler).unwrap()
        };
        bind().close();
        let mut endpoint = None;
        let (asked, grew) = kept_during(|| endpoint = Some(bind()));
        assert!(asked > 0, "{name}: the install was measured");
        assert_eq!(asked, grew, "{name}");
        endpoint.expect("bound").close();
    }

    let listen = || {
        let closer: ConnCallback = Rc::new(|ctx, conn| conn.close_in(ctx));
        let on_accept = move |_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>| {
            conn.set_callbacks(TcpCallbacks {
                on_peer_close: Some(closer.clone()),
                ..Default::default()
            })
        };
        server.tcp().listen(&sext, TCP_PORT, on_accept).unwrap();
    };
    listen();
    assert!(server.tcp().unlisten(TCP_PORT));
    let (asked, grew) = kept_during(listen);
    assert!(asked > 0, "listen: the install was measured");
    assert_eq!(asked, grew, "listen");

    // The client's install, then the server's from inside the raise that
    // delivers the SYN; the handshake's other heap calls are the TCBs'
    // buffers, which the connection keeps too. A few connections first
    // also grow the medium's recycled wire buffers to the handshake's
    // frame sizes, so that none is reallocated inside the window.
    let to = (hosts[1].ip, TCP_PORT);
    for _ in 0..4 {
        let warm = client.tcp().connect(&cext, world.engine_mut(), to).unwrap();
        world.run();
        warm.close(world.engine_mut());
        world.run();
        assert_eq!(warm.state(), TcpState::Closed);
    }
    let mut conn = None;
    let (asked, grew) = kept_during(|| {
        conn = Some(client.tcp().connect(&cext, world.engine_mut(), to).unwrap());
        world.run();
    });
    assert_eq!(conn.expect("dialled").state(), TcpState::Established);
    assert!(asked > 0, "connect: the installs were measured");
    assert_eq!(asked, grew, "connect and accept");
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
        "a closed endpoint must leave nothing in the record of what its extension holds"
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
    server
        .tcp()
        .listen(&sext, TCP_PORT, sink_into(sink))
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

/// The server's side on either stack: append what arrives to `sink`, and
/// close when the peer has.
fn sink_into(sink: &Sink) -> impl Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>) + 'static {
    let sink = sink.clone();
    move |_, conn| {
        let sink = sink.clone();
        conn.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(move |_, _, data| {
                sink.borrow_mut().extend_from_slice(data)
            })),
            on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
            ..Default::default()
        });
    }
}

/// [`plexus_pair`] on the monolithic baseline.
fn baseline_pair(world: &mut World, hosts: &[Host], sink: &Sink) -> Client {
    let client = MonolithicStack::attach_host(&hosts[0]);
    let server = MonolithicStack::attach_host(&hosts[1]);
    server
        .tcp()
        .listen(&AddressSpace::new("sink"), TCP_PORT, sink_into(sink));
    let sock = client
        .tcp()
        .connect(
            world.engine_mut(),
            &AddressSpace::new("source"),
            (hosts[1].ip, TCP_PORT),
        )
        .unwrap();
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

/// Opens a connection from `hosts[0]` to `hosts[1]`'s [`TCP_PORT`] on one
/// stack kind, and returns a probe of it: its state, and how many holders
/// of it there are besides the probe (the connection table, its handler,
/// its timer).
type Dial = fn(&mut World, &[Host]) -> Box<dyn Fn() -> (TcpState, usize)>;

fn plexus_dial(world: &mut World, hosts: &[Host]) -> Box<dyn Fn() -> (TcpState, usize)> {
    let stack = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("dial", &["TCP.Connect"]);
    let ext = stack.link_extension(&spec).unwrap();
    let conn = stack
        .tcp()
        .connect(&ext, world.engine_mut(), (hosts[1].ip, TCP_PORT))
        .unwrap();
    Box::new(move || (conn.state(), Rc::strong_count(&conn) - 1))
}

fn baseline_dial(world: &mut World, hosts: &[Host]) -> Box<dyn Fn() -> (TcpState, usize)> {
    let stack = MonolithicStack::attach_host(&hosts[0]);
    let sock = stack
        .tcp()
        .connect(
            world.engine_mut(),
            &AddressSpace::new("dialer"),
            (hosts[1].ip, TCP_PORT),
        )
        .unwrap();
    Box::new(move || (sock.state(), Rc::strong_count(&sock) - 1))
}

/// A SYN to a host whose driver discards every frame: after its last
/// retransmission times out, the connection closes with a named drop and
/// leaves nothing behind — no table entry, no timer, no event.
fn a_silent_peer_is_given_up(dial: Dial) {
    let rec = Recorder::new(1024);
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 9, &["client", "void"]).traced(Some(&rec));
    hosts[1].nic.attach(DriverConfig::per_frame(|_, _| {}));
    let conn = dial(&mut world, &hosts);
    world.run_for(SimDuration::from_secs(3600));
    assert_eq!(conn(), (TcpState::Closed, 0), "closed, and held by nobody");
    assert_eq!(world.engine().pending(), 0, "no timer left running");
    let gave_up = rec.registry().get(CounterKey {
        scope: Scope::Drop,
        label: rec.intern("tcp_retransmit_limit"),
        metric: "count",
    });
    assert_eq!(gave_up, 1, "one named drop");
}

#[test]
fn a_silent_peer_is_given_up_on_plexus() {
    a_silent_peer_is_given_up(plexus_dial);
}

#[test]
fn a_silent_peer_is_given_up_on_the_baseline() {
    a_silent_peer_is_given_up(baseline_dial);
}

// ---------------------------------------------------------------------------
// A Plexus TCP bulk transfer (ROADMAP item 4).
// ---------------------------------------------------------------------------

/// Bytes one bulk transfer moves: some 720 full segments.
const BULK: usize = 1 << 20;
/// Frames received, by either side, before the steady-state window opens:
/// slow start is over, and every table, pool and spare list has grown.
const BULK_WARM_UP: u64 = 400;
/// Frames received, by either side, while it is open.
const BULK_WINDOW: u64 = 600;

/// A Plexus bulk transfer of [`BULK`] bytes over T3, as the benchmark's
/// `tcp_bulk_4mb` runs it at a quarter of the size: the sender queues the
/// whole stream once connected, then closes; the receiver keeps every byte
/// in a buffer sized for the stream up front, and closes when its peer has.
/// `delivered` is told, at each delivery, how many frames the two NICs have
/// received so far. Returns the stream and what arrived.
fn plexus_bulk(delivered: impl Fn(u64) + 'static) -> (Rc<Vec<u8>>, Vec<u8>) {
    plexus::net::mbuf::reset_cluster_pool();
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 42, &["sender", "receiver"]);
    let sender = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let receiver = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("bulk", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
    let (sext, rext) = (
        sender.link_extension(&spec).unwrap(),
        receiver.link_extension(&spec).unwrap(),
    );
    let stream: Rc<Vec<u8>> = Rc::new((0..BULK).map(|i| (i % 251) as u8).collect());
    let received: Sink = Rc::new(RefCell::new(Vec::with_capacity(BULK)));
    let (sink, nics) = (
        received.clone(),
        [hosts[0].nic.clone(), hosts[1].nic.clone()],
    );
    let delivered = Rc::new(delivered);
    receiver
        .tcp()
        .listen(&rext, TCP_PORT, move |_, conn| {
            let (sink, nics, delivered) = (sink.clone(), nics.clone(), delivered.clone());
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    sink.borrow_mut().extend_from_slice(data);
                    delivered(nics.iter().map(|nic| nic.stats().rx_frames).sum());
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();
    let conn = sender
        .tcp()
        .connect(&sext, world.engine_mut(), (hosts[1].ip, TCP_PORT))
        .unwrap();
    let source = stream.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            conn.send_in(ctx, &source);
            conn.close_in(ctx);
        })),
        ..Default::default()
    });
    world.run();
    (stream, received.take())
}

#[test]
fn a_plexus_bulk_transfer_allocates_nothing_per_frame() {
    // Each segment's trip through both stacks — the data segment out of the
    // send ring, its ACK, the retransmit timer moved — touches the heap no
    // more than an echoed datagram's does. About 4.0 heap calls per frame
    // while each layer handed segments on in `Vec`s of their own and the
    // timer was re-boxed at every ACK.
    let marks = Rc::new(Cell::new([None; 2]));
    let mark = marks.clone();
    let (stream, received) = plexus_bulk(move |heard| {
        let mut m = mark.get();
        for (slot, from) in m.iter_mut().zip([BULK_WARM_UP, BULK_WARM_UP + BULK_WINDOW]) {
            if heard >= from && slot.is_none() {
                *slot = Some((heard, alloc::snapshot().0));
            }
        }
        mark.set(m);
    });
    assert!(received == *stream, "the stream arrived byte-exact");
    let [Some((frames0, calls0)), Some((frames1, calls1))] = marks.get() else {
        panic!("the transfer outlasted the window");
    };
    assert!(frames1 - frames0 >= BULK_WINDOW);
    assert_eq!(
        calls1 - calls0,
        0,
        "heap calls over {} received frames",
        frames1 - frames0
    );
}

// ---------------------------------------------------------------------------
// IP fragment flood (ROADMAP 5a, reassembler half), on both stacks.
// ---------------------------------------------------------------------------

const UDP_PORT: u16 = 9;

/// Builds a UDP sender on `hosts[0]` and, on `hosts[1]`, a receiver of the
/// same stack kind that appends what arrives on [`UDP_PORT`] to the sink.
type UdpPair = fn(&mut World, &[Host], &Sink) -> Write;

fn plexus_udp_pair(_: &mut World, hosts: &[Host], sink: &Sink) -> Write {
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let spec = ExtensionSpec::typesafe("frag-flood", &["UDP.Bind", "UDP.Send"]);
    let sink = sink.clone();
    let keep =
        move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| sink.borrow_mut().extend(ev.payload.to_vec());
    let bind = |stack: &PlexusStack, port, handler| {
        let ext = stack.link_extension(&spec).unwrap();
        let config = UdpConfig::default();
        stack.udp().bind(&ext, port, config, handler).unwrap()
    };
    bind(&server, UDP_PORT, AppHandler::interrupt(keep));
    let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
    let from = bind(&client, 2000, AppHandler::interrupt(ignore));
    let to = hosts[1].ip;
    Box::new(move |world, data| from.send(world.engine_mut(), to, UDP_PORT, data).unwrap())
}

fn baseline_udp_pair(world: &mut World, hosts: &[Host], sink: &Sink) -> Write {
    let client = MonolithicStack::attach_host(&hosts[0]);
    let server = MonolithicStack::attach_host(&hosts[1]);
    let listener = server
        .udp_socket(&AddressSpace::new("sink"), UDP_PORT, true)
        .unwrap();
    let sink = sink.clone();
    listener.recv_loop(world.engine_mut(), move |_, _, msg| {
        sink.borrow_mut().extend(msg.data)
    });
    let from = client
        .udp_socket(&AddressSpace::new("source"), 2000, true)
        .unwrap();
    let to = hosts[1].ip;
    Box::new(move |world, data| {
        from.sendto(world.engine_mut(), to, UDP_PORT, data)
            .expect("the payload fits one datagram")
    })
}

/// A bare NIC sends the receiver the first fragment of one datagram after
/// another, each twice and none ever completed; then a real datagram that
/// needs reassembling crosses.
fn a_fragment_flood_is_bounded(pair: UdpPair) {
    const WARM_UP: u16 = 200; // More groups than a reassembler holds.
    const FLOOD: u16 = 1000;
    plexus::net::mbuf::reset_cluster_pool();
    let rec = Recorder::new(1024);
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 9, &["client", "server", "raw"]).traced(Some(&rec));
    let received = Sink::default();
    let send = pair(&mut world, &hosts, &received);

    let (server, raw) = (&hosts[1], &hosts[2]);
    let mtu = server.nic.profile().mtu;
    let flood = |world: &mut World, idents: std::ops::Range<u16>| {
        for ident in idents {
            let hdr = IpHeader::simple(raw.ip, server.ip, ip::proto::UDP, ident);
            let whole = Mbuf::from_payload(0, &[0xEE; 3000]);
            let mut head = ip::fragment(&hdr, &whole, mtu).swap_remove(0);
            ether::write_header(head.prepend(14), server.mac, raw.mac, EtherType::IPV4);
            for _ in 0..2 {
                let at = world.engine().now();
                raw.nic.transmit(world.engine_mut(), at, &head);
                world.run_for(SimDuration::from_millis(2));
            }
        }
        world.run();
    };
    flood(&mut world, 0..WARM_UP);
    let live_warm = alloc::snapshot().2;
    flood(&mut world, WARM_UP..WARM_UP + FLOOD);
    let grown = alloc::snapshot().2 - live_warm;
    assert_eq!(
        grown, 0,
        "{FLOOD} abandoned datagrams left {grown} bytes of heap behind"
    );
    let evicted = rec.registry().get(CounterKey {
        scope: Scope::Drop,
        label: rec.intern("ip_reassembly_full"),
        metric: "count",
    });
    assert_eq!(
        evicted,
        u64::from(WARM_UP + FLOOD) - ip::MAX_FRAG_GROUPS as u64,
        "every group pushed out is a named drop"
    );

    let datagram: Vec<u8> = (0..4000u32).map(|i| (i % 239) as u8).collect();
    send(&mut world, &datagram);
    world.run();
    assert!(
        *received.borrow() == datagram,
        "a fragmented datagram still reassembles byte-exact"
    );
}

#[test]
fn a_fragment_flood_leaves_no_heap_behind_on_plexus() {
    a_fragment_flood_is_bounded(plexus_udp_pair);
}

#[test]
fn a_fragment_flood_leaves_no_heap_behind_on_the_baseline() {
    a_fragment_flood_is_bounded(baseline_udp_pair);
}
