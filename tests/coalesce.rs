//! End-to-end invariants of the batched receive path (DESIGN.md §10).
//!
//! Interrupt coalescing and cluster pooling are pure mechanism: they may
//! change *when* the driver runs and *where* payload bytes live, but
//! never what the application observes. These tests pin that down at the
//! stack level:
//!
//! 1. a burst delivered through the coalesced path reaches the app with
//!    the same payloads in the same order as the per-packet path, in
//!    strictly fewer interrupts;
//! 2. the coalesced overload scenario traces byte-identically across
//!    runs (the flight recorder's determinism guarantee survives the new
//!    path);
//! 3. enabling or disabling the mbuf cluster pool changes no observable
//!    behavior — same completions, same latencies, same trace bytes;
//! 4. a steady-state UDP echo allocates no cluster storage after warmup.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use plexus::core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus::kernel::domain::ExtensionSpec;
use plexus::net::mbuf::{cluster_pool_stats, reset_cluster_pool};
use plexus::net::udp::UdpConfig;
use plexus::net::Testbed;
use plexus::sim::nic::{DriverConfig, Link, Nic};
use plexus::sim::time::{SimDuration, SimTime};
use plexus::sim::World;
use plexus::trace::export::{chrome_trace, stats_json};
use plexus::trace::{json, Recorder};
use plexus_bench::overload::{build_frame, LoadPoint, Overload, RxMode, Workload, PAYLOAD};

/// Ethernet (14) + IPv4 (20) + UDP (8) headers precede the payload.
const PAYLOAD_OFF: usize = 42;

/// Builds a generator→stack world, binds a UDP receiver on port 7 that
/// logs every delivered payload, and returns the pieces the tests drive.
struct EchoWorld {
    world: World,
    gen_nic: Rc<Nic>,
    dut_nic: Rc<Nic>,
    /// A generator→DUT frame like the overload generator's.
    template: Vec<u8>,
    seen: Rc<RefCell<Vec<Vec<u8>>>>,
    /// Keeps the stack (and its handlers) alive for the run.
    _stack: Rc<PlexusStack>,
}

fn echo_world(mode: RxMode, echo_back: bool) -> EchoWorld {
    let Testbed { world, hosts, .. } = Testbed::new(&Link::t3(), 42, &["generator", "dut"]);
    let stack = PlexusStack::attach_host(&hosts[1], |ip, mac| {
        let cfg = StackConfig::interrupt(ip, mac);
        match mode {
            RxMode::PerPacket => cfg,
            RxMode::Coalesced => cfg.coalesced(),
        }
    });

    let spec = ExtensionSpec::typesafe("coalesce-test", &["UDP.Bind", "UDP.Send"]);
    let ext = stack.link_extension(&spec).unwrap();
    let seen: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::default();
    let (s, sl) = (seen.clone(), slot.clone());
    let recv = move |ctx: &mut plexus::kernel::RaiseCtx<'_>, ev: &UdpRecv| {
        s.borrow_mut().push(ev.payload.to_vec());
        if echo_back {
            let ep = sl.get().expect("endpoint installed");
            let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
        }
    };
    let ep = stack
        .udp()
        .bind(&ext, 7, UdpConfig::default(), AppHandler::interrupt(recv))
        .unwrap();
    let _ = slot.set(ep);

    EchoWorld {
        world,
        gen_nic: hosts[0].nic.clone(),
        dut_nic: hosts[1].nic.clone(),
        template: build_frame(&hosts[0], &hosts[1], PAYLOAD),
        seen,
        _stack: stack,
    }
}

/// `template` with the payload's first eight bytes carrying `k`, so
/// deliveries are distinguishable.
fn numbered(template: &[u8], k: u64) -> Vec<u8> {
    let mut f = template.to_vec();
    f[PAYLOAD_OFF..PAYLOAD_OFF + 8].copy_from_slice(&k.to_be_bytes());
    f
}

/// Offers a back-to-back burst of `n` numbered frames and returns the
/// payloads the app saw plus the interrupt count the NIC charged.
fn run_burst(mode: RxMode, n: u64) -> (Vec<Vec<u8>>, u64) {
    let mut ew = echo_world(mode, false);
    let (gn, template) = (ew.gen_nic.clone(), ew.template.clone());
    ew.world
        .engine_mut()
        .schedule_at(SimTime::ZERO, move |engine| {
            for k in 0..n {
                let now = engine.now();
                gn.transmit(engine, now, &numbered(&template, k)[..]);
            }
        });
    ew.world.run_for(SimDuration::from_micros(100_000));
    let seen = ew.seen.borrow().clone();
    (seen, ew.dut_nic.stats().rx_interrupts)
}

#[test]
fn coalesced_burst_delivers_identically_in_fewer_interrupts() {
    // Small enough for the generator's 128-deep tx ring and the DUT's rx
    // ring, so nothing sheds and every frame must reach the app.
    const N: u64 = 32;
    let (pp_seen, pp_interrupts) = run_burst(RxMode::PerPacket, N);
    let (co_seen, co_interrupts) = run_burst(RxMode::Coalesced, N);

    // What the application observes is bit-identical: same payloads, same
    // order, nothing lost or duplicated.
    assert_eq!(pp_seen.len() as u64, N, "per-packet path dropped frames");
    assert_eq!(pp_seen, co_seen, "coalescing changed app-visible delivery");
    for (k, payload) in pp_seen.iter().enumerate() {
        assert_eq!(
            payload[..8],
            (k as u64).to_be_bytes(),
            "delivery order violated at frame {k}"
        );
    }

    // How the frames got there differs: one interrupt each vs. drained
    // batches.
    assert_eq!(
        pp_interrupts, N,
        "per-packet mode takes one interrupt per frame"
    );
    assert!(
        co_interrupts < N,
        "coalesced mode took {co_interrupts} interrupts for {N} frames — no batching"
    );
}

fn traced_overload_point(ring: usize) -> (Rc<Recorder>, LoadPoint) {
    let recorder = Recorder::new(ring);
    let point = Overload {
        recorder: Some(&recorder),
        ..Overload::new(Workload::UdpEcho, RxMode::Coalesced, &Link::t3(), (1, 2))
    }
    .run();
    (recorder, point)
}

#[test]
fn coalesced_overload_trace_is_byte_identical_across_runs() {
    let (a, pa) = traced_overload_point(1 << 18);
    let (b, pb) = traced_overload_point(1 << 18);

    assert_eq!(pa.sent, pb.sent);
    assert_eq!(pa.completed, pb.completed);
    assert_eq!(pa.latency_ns, pb.latency_ns);
    assert_eq!(pa.rx_interrupts, pb.rx_interrupts);

    assert!(!a.events().is_empty(), "scenario recorded nothing");
    assert_eq!(a.events(), b.events());
    assert_eq!(chrome_trace(&a), chrome_trace(&b));
    assert_eq!(stats_json(&a), stats_json(&b));
    json::validate(&chrome_trace(&a)).expect("chrome trace JSON");
}

#[test]
fn cluster_pool_is_invisible_to_behavior_and_trace() {
    // Same traced scenario on a cold pool (emptied first) and on the warm
    // one the first run left behind. The pool may only change where payload
    // bytes live — every simulated outcome and every trace byte must match.
    // (The pool is thread-local, so this test's runs cannot leak into tests
    // on other threads.)
    reset_cluster_pool();
    let (a, pa) = traced_overload_point(1 << 18);
    let cold = cluster_pool_stats();
    let (b, pb) = traced_overload_point(1 << 18);
    let warm = cluster_pool_stats();

    // The warm run took clusters the cold run left on the free lists, so
    // the comparison is not vacuous.
    assert!(
        warm.allocated - cold.allocated < cold.allocated,
        "the warm run allocated fewer clusters than the cold one"
    );

    assert_eq!(pa.sent, pb.sent);
    assert_eq!(pa.completed, pb.completed);
    assert_eq!(pa.latency_ns, pb.latency_ns);
    assert_eq!(a.events(), b.events());
    assert_eq!(chrome_trace(&a), chrome_trace(&b));
}

#[test]
fn steady_state_echo_allocates_no_clusters_after_warmup() {
    reset_cluster_pool();

    let mut ew = echo_world(RxMode::Coalesced, true);

    // Count echo replies arriving back at the generator.
    let replies = Rc::new(Cell::new(0u64));
    {
        let r = replies.clone();
        // Frames addressed to the generator: the template's source MAC.
        let mac: [u8; 6] = ew.template[6..12].try_into().unwrap();
        ew.gen_nic.attach(DriverConfig::per_frame(move |_, frame| {
            if frame.len() >= PAYLOAD_OFF && frame[0..6] == mac {
                r.set(r.get() + 1);
            }
        }));
    }

    // Offer frames at a quarter of line rate for ~110 ms.
    let interval_ns = ew.gen_nic.profile().serialize(ew.template.len()).as_nanos() * 4;
    const FRAMES: u64 = 2000;
    for k in 0..FRAMES {
        let (gn, frame) = (ew.gen_nic.clone(), numbered(&ew.template, k));
        let at = SimTime::ZERO + SimDuration::from_nanos(k * interval_ns);
        ew.world.engine_mut().schedule_at(at, move |engine| {
            let now = engine.now();
            gn.transmit(engine, now, &frame[..]);
        });
    }

    // Snapshot the allocation counters mid-run, once the pool is warm.
    let warm: Rc<Cell<(u64, u64)>> = Rc::new(Cell::new((0, 0)));
    {
        let w = warm.clone();
        ew.world.engine_mut().schedule_at(
            SimTime::ZERO + SimDuration::from_micros(50_000),
            move |_| {
                let s = cluster_pool_stats();
                w.set((s.allocated, s.unpooled));
            },
        );
    }

    ew.world.run_for(SimDuration::from_micros(150_000));

    let end = cluster_pool_stats();
    let (warm_allocated, warm_unpooled) = warm.get();
    assert!(warm_allocated > 0, "echo path never touched the pool");
    assert!(
        replies.get() > FRAMES / 2,
        "echo only completed {} of {FRAMES} rounds",
        replies.get()
    );
    assert_eq!(
        (end.allocated, end.unpooled),
        (warm_allocated, warm_unpooled),
        "steady-state echo must run entirely from recycled clusters"
    );
}
