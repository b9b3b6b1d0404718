//! Tier-1 allocation gate (DESIGN.md §9): a raise allocates nothing, an
//! echoed datagram and a bind + close pair allocate exactly what is pinned
//! below, and rebinding leaves no heap behind.
//!
//! The counting allocator is `perf/`'s, mounted by path so that it stays
//! the one `unsafe` block in the tree. Its counters are thread-local and
//! every `#[test]` runs on a thread of its own, so the counts here are
//! exact under cargo's parallel runner.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use plexus::core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus::kernel::dispatcher::{Dispatcher, Event, Guard, HandlerSpec, RaiseCtx};
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::ephemeral::Ephemeral;
use plexus::kernel::filter::{conjunction, verify, EventKind, Field, Operand, Packet, Test};
use plexus::net::udp::UdpConfig;
use plexus::net::Testbed;
use plexus::sim::cpu::{CostModel, Cpu};
use plexus::sim::nic::{DriverConfig, Link};
use plexus::sim::time::SimTime;
use plexus::sim::Engine;
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
