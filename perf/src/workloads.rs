//! The five workloads: whole simulated worlds built and driven through the
//! crates' public APIs only. Traffic never touches a real link or loopback;
//! it crosses the in-process simulated `Medium`.
//!
//! On the host every workload is a closed batch (one thread, fixed input,
//! work per host second). In *simulated* time the UDP generator is open-loop
//! at one datagram per 50 µs — about 70 % of the DUT's simulated capacity, so
//! nothing is shed — and TCP is window-paced.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use plexus_bench::udp_rtt::Link;
use plexus_core::{
    AppHandler, PlexusError, PlexusStack, StackConfig, TcpCallbacks, TcpConn, UdpEndpoint, UdpRecv,
};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::RaiseCtx;
use plexus_net::ether::MacAddr;
use plexus_net::mbuf;
use plexus_net::udp::UdpConfig;
use plexus_sim::engine::Engine;
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::World;
use plexus_trace::live::{live_json, LiveConfig};
use plexus_trace::profile::{profile_json, Profile};
use plexus_trace::{export, flame, journey, timeline, Recorder};

use crate::inputs::{self, ip, UdpInput, DUT, ECHO_BASE, GEN, IP_OFF, PAYLOAD, PAYLOAD_OFF};
use crate::slices;
use crate::spans::span;

/// One datagram per 50 µs of simulated time = 20 kpps.
const SEND_INTERVAL: SimDuration = SimDuration::from_micros(50);
/// The churn workload rebinds after every this-many-th datagram.
pub const CHURN_EVERY: usize = 8;
const RING: usize = 1 << 17;
const LIVE_WINDOW_NS: u64 = 10_000_000;
/// Packets / journeys kept in full detail by the JSON folds, as the CLIs' scenarios do.
const DETAIL: usize = 64;
const TCP_PORT: u16 = 5001;
/// The TCP workload's unit of failure: one block of the stream.
const BLOCK: usize = 64 * 1024;
/// Artifacts `traced_export` folds per round.
const ARTIFACTS: u64 = 7;

/// How far into the DUT the offered frames travel (the depth ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// Generator → wire → bare DUT NIC with a no-op driver.
    Nic,
    /// Full stack, no-op endpoint handler, no reply.
    Rx,
    /// Full stack, endpoints echo.
    Echo,
}

/// Which telemetry tiers are installed across the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rec {
    Off,
    Ring,
    /// Ring plus the streaming live tier (10 ms windows).
    Live,
}

#[derive(Clone, Copy, Debug)]
pub struct UdpSpec {
    pub datagrams: usize,
    /// Echo endpoints on ports from `ECHO_BASE`; they take all the traffic.
    pub endpoints: usize,
    /// One datagram in 16 goes to an unbound port (ICMP port-unreachable).
    pub misses: bool,
    /// DUT on coalesced rx + doorbell tx; otherwise the paper's per-frame paths.
    pub batched: bool,
    /// Idle endpoints that churn: after every 8th datagram the oldest closes
    /// and a new one binds on a fresh seeded port.
    pub churn_pool: usize,
    pub rec: Rec,
    /// The slice clock is marked at every this-many-th generator event, chosen
    /// per workload for slices of about 10 µs against a clock reading of
    /// about 25 ns.
    pub slice_every: usize,
    /// Run every fold the observability CLIs run after the world drains.
    pub export: bool,
    pub depth: Depth,
}

#[derive(Clone, Copy, Debug)]
pub enum Plan {
    Udp(UdpSpec),
    Tcp { bytes: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub plan: Plan,
}

/// The five workloads at `1 / shrink` of their full size (`--smoke` uses 100).
pub fn all(shrink: usize) -> Vec<Workload> {
    let echo = UdpSpec {
        datagrams: 40_000 / shrink,
        endpoints: 1,
        misses: false,
        batched: true,
        churn_pool: 0,
        rec: Rec::Off,
        slice_every: 4,
        export: false,
        depth: Depth::Echo,
    };
    let demux = UdpSpec {
        datagrams: 12_000 / shrink,
        endpoints: 256,
        misses: true,
        batched: false,
        slice_every: 2,
        ..echo
    };
    let churn = UdpSpec {
        datagrams: 10_000 / shrink,
        endpoints: 64,
        misses: false,
        churn_pool: 64,
        slice_every: 1,
        ..demux
    };
    let traced = UdpSpec {
        datagrams: 4_000 / shrink,
        rec: Rec::Live,
        slice_every: 1,
        export: true,
        ..echo
    };
    let w = |name, plan| Workload { name, plan };
    vec![
        w("udp_echo_1ep", Plan::Udp(echo)),
        w("udp_demux_256ep", Plan::Udp(demux)),
        w("udp_churn_64ep", Plan::Udp(churn)),
        w(
            "tcp_bulk_4mb",
            Plan::Tcp {
                bytes: 4_000_000 / shrink,
            },
        ),
        w("traced_export", Plan::Udp(traced)),
    ]
}

/// A workload's seeded input, generated once per process and shared by
/// reference with every world built on it.
#[derive(Clone)]
pub enum Input {
    Udp {
        offered: Rc<UdpInput>,
        churn_ports: Rc<Vec<u16>>,
    },
    Tcp(Rc<Vec<u8>>),
}

impl Workload {
    pub fn input(&self, seed: u64) -> Input {
        match self.plan {
            Plan::Udp(spec) => Input::Udp {
                offered: Rc::new(inputs::udp_input(
                    seed,
                    spec.datagrams,
                    spec.endpoints,
                    spec.misses,
                )),
                churn_ports: Rc::new(if spec.churn_pool > 0 {
                    inputs::churn_ports(seed, spec.datagrams / CHURN_EVERY)
                } else {
                    Vec::new()
                }),
            },
            Plan::Tcp { bytes } => Input::Tcp(Rc::new(inputs::tcp_stream(seed, bytes))),
        }
    }

    /// Set-up, the phase `setup_s` times: `World::new` → `connect` →
    /// `PlexusStack::attach` → `link_extension` → every `bind`/`listen`/
    /// `connect`, plus recorder creation where the workload uses one.
    pub fn build(&self, input: &Input) -> Built {
        match (self.plan, input) {
            (
                Plan::Udp(spec),
                Input::Udp {
                    offered,
                    churn_ports,
                },
            ) => build_udp(spec, offered, churn_ports),
            (Plan::Tcp { .. }, Input::Tcp(stream)) => build_tcp(stream),
            _ => panic!("{}: input of the wrong kind", self.name),
        }
    }
}

/// Raw counts of one round, from the layers' own public counters (group A).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub rx_interrupts: u64,
    pub tx_frames: u64,
    pub tx_doorbells: u64,
    pub ring_drops: u64,
    pub raises: u64,
    pub guard_evals: u64,
    pub demux_skipped: u64,
    pub invocations: u64,
    pub ip_rx: u64,
    pub ip_dropped: u64,
    pub udp_delivered: u64,
    pub tcp_segments_in: u64,
    pub tcp_retransmits: u64,
    pub pool_reused: u64,
    pub pool_allocated: u64,
    pub records: u64,
    pub overwritten: u64,
}

/// What one round did, on the simulated side.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    /// Final simulated time.
    pub sim_ns: u64,
    /// Frames received by the NICs of the machines that run a stack under test.
    pub pkts: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Everything deterministic about the round, as one comparable line.
    pub digest: String,
    pub counts: Counts,
}

/// A world that is set up and ready to run.
pub struct Built {
    world: World,
    parts: Parts,
}

enum Parts {
    Udp(UdpParts),
    Tcp(TcpParts),
}

impl Built {
    /// The timed phases: drain the world, then (on `traced_export`) fold the trace.
    pub fn run(&mut self) {
        {
            let _s = span("run");
            self.world.run();
        }
        slices::mark();
        if let Parts::Udp(p) = &mut self.parts {
            if p.spec.export {
                let _s = span("export");
                p.artifacts = export_all(p.rec.as_ref().expect("export implies a recorder"));
            }
        }
    }

    /// Releases what the benchmark itself would otherwise leak with the world.
    /// A `PlexusStack` is a cycle of `Rc`s and is never freed; the recorder
    /// (10 MB of ring) and the TCP sink's buffer hang off that cycle, so they
    /// are cut loose here to keep a long run's memory flat. Outside every clock.
    pub fn teardown(self) {
        for machine in self.world.machines() {
            machine.cpu().set_recorder(None);
            for idx in 0..machine.nic_count() {
                machine.nic(idx).set_recorder(None);
            }
        }
        if let Parts::Tcp(p) = &self.parts {
            *p.received.borrow_mut() = Vec::new();
        }
    }

    /// Conservation from public counters, and the round's simulated digest.
    /// Called after the clocks have stopped.
    pub fn outcome(&self, input: &Input) -> Outcome {
        let engine = self.world.engine();
        let head = format!(
            "sim_ns={} executed={}",
            engine.now().as_nanos(),
            engine.executed()
        );
        match (&self.parts, input) {
            (Parts::Udp(p), Input::Udp { offered, .. }) => p.outcome(head, engine, offered),
            (Parts::Tcp(p), Input::Tcp(stream)) => p.outcome(head, engine, stream),
            _ => unreachable!("build checked the pairing"),
        }
    }
}

fn pool_counts(c: &mut Counts) {
    let pool = mbuf::cluster_pool_stats();
    c.pool_reused = pool.reused;
    c.pool_allocated = pool.allocated;
}

fn stack_counts(c: &mut Counts, stack: &PlexusStack, nic: &Nic) {
    let (n, d, s) = (nic.stats(), stack.dispatcher().stats(), stack.stats());
    c.rx_interrupts += n.rx_interrupts;
    c.tx_frames += n.tx_frames;
    c.tx_doorbells += n.tx_doorbells;
    c.raises += d.raises;
    c.guard_evals += d.guard_evals;
    c.demux_skipped += d.demux_skipped;
    c.invocations += d.invocations;
    c.ip_rx += s.ip_rx;
    c.ip_dropped += s.ip_dropped;
    c.udp_delivered += stack.udp().delivered();
    c.tcp_segments_in += stack.tcp().segments_in();
}

fn stack_digest(stack: &PlexusStack) -> String {
    format!(
        "{:?} {:?} udp_delivered={} udp_unreachable={} tcp_segments_in={}",
        stack.dispatcher().stats(),
        stack.stats(),
        stack.udp().delivered(),
        stack.udp().unreachable_sent(),
        stack.tcp().segments_in()
    )
}

fn ring_drops(nics: &[&Rc<Nic>]) -> u64 {
    nics.iter()
        .map(|n| n.stats().rx_ring_drops + n.stats().tx_ring_drops)
        .sum()
}

// ---------------------------------------------------------------- UDP ----

/// What the sink saw come back.
#[derive(Default)]
struct Tally {
    /// Echoes whose payload passes its own check.
    echoed: Cell<u64>,
    /// ICMP port-unreachable replies (the answer to a miss).
    unreachable: Cell<u64>,
    /// Anything else addressed to the generator.
    bad: Cell<u64>,
}

impl Tally {
    fn score(&self, frame: &[u8]) {
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);
        if frame.len() < IP_OFF + 20 + 8 || frame[0..6] != MacAddr::local(GEN).0 {
            return bump(&self.bad);
        }
        match frame[IP_OFF + 9] {
            17 if frame.len() == PAYLOAD_OFF + PAYLOAD => {
                let body = &frame[PAYLOAD_OFF..];
                if body[PAYLOAD - 8..] == inputs::payload_check(body) {
                    bump(&self.echoed)
                } else {
                    bump(&self.bad)
                }
            }
            1 if frame[IP_OFF + 20..IP_OFF + 22] == [3, 3] => bump(&self.unreachable),
            _ => bump(&self.bad),
        }
    }
}

/// The idle endpoints that come and go beside the traffic.
struct Churn {
    dut: Rc<PlexusStack>,
    ext: LinkedExtension,
    pool: VecDeque<Rc<UdpEndpoint>>,
    /// The fresh port of every rebind, in order.
    ports: Rc<Vec<u16>>,
    rebinds: u64,
    failures: u64,
}

impl Churn {
    fn rebind(&mut self) {
        let port = self.ports[self.rebinds as usize];
        self.rebinds += 1;
        match self.pool.pop_front() {
            Some(oldest) => {
                let _s = span("ctl_close");
                oldest.close();
            }
            None => self.failures += 1,
        }
        let _s = span("ctl_bind");
        match bind_endpoint(&self.dut, &self.ext, port, true) {
            Ok(ep) => self.pool.push_back(ep),
            Err(_) => self.failures += 1,
        }
    }
}

struct Gen {
    nic: Rc<Nic>,
    offered: Rc<UdpInput>,
    slice_every: usize,
    churn: Option<Rc<RefCell<Churn>>>,
}

/// Send `k` happens at `k × 50 µs`, computed from `k` so rounding never
/// drifts, whatever the DUT is doing: open loop in simulated time.
fn schedule_send(engine: &mut Engine, gen: Rc<Gen>, k: usize) {
    if k == gen.offered.frames.len() {
        return;
    }
    engine.schedule_at(
        SimTime::ZERO + SEND_INTERVAL.times(k as u64),
        move |engine| {
            if k.is_multiple_of(gen.slice_every) {
                slices::mark();
            }
            {
                let now = engine.now();
                let mut s = span("nic_transmit");
                gen.nic
                    .transmit(engine, now, gen.offered.frames[k].as_slice());
                s.lap("gen_send");
                schedule_send(engine, gen.clone(), k + 1);
            }
            if let Some(churn) = &gen.churn {
                if (k + 1).is_multiple_of(CHURN_EVERY) {
                    churn.borrow_mut().rebind();
                }
            }
        },
    );
}

/// Binds `port` for `ext`. An echoing endpoint answers every datagram from
/// its own port with `ev.payload.share()`, as the overload suite's echo does.
fn bind_endpoint(
    dut: &PlexusStack,
    ext: &LinkedExtension,
    port: u16,
    echo: bool,
) -> Result<Rc<UdpEndpoint>, PlexusError> {
    let slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::new(OnceCell::new());
    let own = slot.clone();
    let handler = move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        let mut s = span("app_handler");
        if echo {
            let ep = own.get().expect("bound before any traffic");
            let payload = ev.payload.share();
            s.lap("udp_send");
            let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, payload);
        }
    };
    let ep = dut.udp().bind(
        ext,
        port,
        UdpConfig::default(),
        AppHandler::interrupt(handler),
    )?;
    slot.set(ep.clone()).expect("set once");
    Ok(ep)
}

struct UdpParts {
    spec: UdpSpec,
    gen_nic: Rc<Nic>,
    dut_nic: Rc<Nic>,
    /// `None` at `Depth::Nic`.
    dut: Option<Rc<PlexusStack>>,
    tally: Rc<Tally>,
    churn: Option<Rc<RefCell<Churn>>>,
    rec: Option<Rc<Recorder>>,
    /// Failed `bind`s during set-up.
    setup_failures: u64,
    artifacts: Vec<String>,
}

fn build_udp(spec: UdpSpec, offered: &Rc<UdpInput>, churn_ports: &Rc<Vec<u16>>) -> Built {
    let mut world = World::new();
    let gen_machine = world.add_machine("generator");
    let dut_machine = world.add_machine("dut");
    let link = Link::gigabit();
    let (_medium, nics) = world.connect(
        &[&gen_machine, &dut_machine],
        link.profile,
        link.propagation,
        link.half_duplex,
    );
    let (gen_nic, dut_nic) = (nics[0].clone(), nics[1].clone());
    let rec = (spec.rec != Rec::Off).then(|| {
        let rec = Recorder::new(RING);
        if spec.rec == Rec::Live {
            rec.enable_live(LiveConfig::new(LIVE_WINDOW_NS));
        }
        world.install_recorder(&rec);
        rec
    });

    let mut setup_failures = 0;
    let mut churn = None;
    let dut = if spec.depth == Depth::Nic {
        dut_nic.attach(if spec.batched {
            DriverConfig::coalesced(|engine, _frames| engine.now())
        } else {
            DriverConfig::per_frame(|_, _| {})
        });
        None
    } else {
        let cfg = StackConfig::interrupt(ip(DUT), MacAddr::local(DUT));
        let cfg = if spec.batched {
            cfg.coalesced().doorbell_tx()
        } else {
            cfg
        };
        let dut = PlexusStack::attach(&dut_machine, &dut_nic, cfg);
        slices::mark();
        dut.seed_arp(ip(GEN), MacAddr::local(GEN));
        let ext = dut
            .link_extension(&ExtensionSpec::typesafe(
                "perf-echo",
                &["UDP.Bind", "UDP.Send"],
            ))
            .expect("the echo extension imports only public symbols");
        let echo = spec.depth == Depth::Echo;
        for i in 0..spec.endpoints {
            if bind_endpoint(&dut, &ext, ECHO_BASE + i as u16, echo).is_err() {
                setup_failures += 1;
            }
            slices::mark();
        }
        if spec.churn_pool > 0 {
            let mut pool = VecDeque::with_capacity(spec.churn_pool);
            for i in 0..spec.churn_pool {
                match bind_endpoint(&dut, &ext, inputs::POOL_BASE + i as u16, true) {
                    Ok(ep) => pool.push_back(ep),
                    Err(_) => setup_failures += 1,
                }
                slices::mark();
            }
            churn = Some(Rc::new(RefCell::new(Churn {
                dut: dut.clone(),
                ext,
                pool,
                ports: churn_ports.clone(),
                rebinds: 0,
                failures: 0,
            })));
        }
        Some(dut)
    };

    // The sink shares the generator's NIC, as in the overload suite; it
    // charges no CPU — that machine is not under test.
    let tally = Rc::new(Tally::default());
    let sink = tally.clone();
    gen_nic.attach(DriverConfig::per_frame(move |_, frame| {
        let _s = span("sink_rx");
        sink.score(&frame);
    }));
    let gen = Rc::new(Gen {
        nic: gen_nic.clone(),
        offered: offered.clone(),
        slice_every: spec.slice_every,
        churn: churn.clone(),
    });
    schedule_send(world.engine_mut(), gen, 0);

    Built {
        world,
        parts: Parts::Udp(UdpParts {
            spec,
            gen_nic,
            dut_nic,
            dut,
            tally,
            churn,
            rec,
            setup_failures,
            artifacts: Vec::new(),
        }),
    }
}

/// Every fold the observability CLIs run over a recorder. Each call into the
/// `trace` crate ends a slice, so the clock sees the folds and their JSON
/// writers one by one.
fn export_all(rec: &Recorder) -> Vec<String> {
    let mut out = Vec::with_capacity(ARTIFACTS as usize);
    let profile = {
        let _s = span("export_profile");
        let profile = Profile::build(rec);
        slices::mark();
        out.push(profile_json(&profile, None, DETAIL));
        slices::mark();
        profile
    };
    {
        let _s = span("export_journeys");
        let journeys = journey::build(&profile);
        slices::mark();
        out.push(journey::journeys_json(&journeys, DETAIL));
        slices::mark();
    }
    {
        let _s = span("export_timeline");
        let timeline = timeline::build(rec, LIVE_WINDOW_NS);
        slices::mark();
        out.push(timeline::timeline_json(&timeline));
        slices::mark();
    }
    {
        let _s = span("export_chrome");
        out.push(export::chrome_trace(rec));
        slices::mark();
    }
    {
        let _s = span("export_stats");
        out.push(export::stats_json(rec));
        slices::mark();
    }
    {
        let _s = span("export_folded");
        out.push(flame::folded(&profile));
        slices::mark();
    }
    {
        let _s = span("export_live");
        let report = rec.live_report().expect("traced_export enables live");
        slices::mark();
        out.push(live_json(&report, DETAIL));
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl UdpParts {
    fn outcome(&self, head: String, engine: &Engine, offered: &UdpInput) -> Outcome {
        let mut counts = Counts {
            events: engine.executed(),
            ring_drops: ring_drops(&[&self.gen_nic, &self.dut_nic]),
            ..Counts::default()
        };
        pool_counts(&mut counts);
        match &self.dut {
            Some(dut) => stack_counts(&mut counts, dut, &self.dut_nic),
            None => counts.rx_interrupts = self.dut_nic.stats().rx_interrupts,
        }
        if let Some(rec) = &self.rec {
            counts.records = rec.recorded();
            counts.overwritten = rec.overwritten();
        }

        // One op per offered datagram: it fails if no reply reaches the sink
        // (an echo for a hit, ICMP port-unreachable for a miss). One op per
        // rebind pair, one per artifact.
        let datagrams = offered.frames.len() as u64;
        let (mut attempted, mut failed) = (datagrams, self.setup_failures);
        let (echoed, unreachable) = (self.tally.echoed.get(), self.tally.unreachable.get());
        if self.spec.depth == Depth::Echo {
            failed += (datagrams - offered.misses).saturating_sub(echoed)
                + offered.misses.saturating_sub(unreachable)
                + self.tally.bad.get();
        }
        if self.spec.depth == Depth::Echo && counts.ring_drops > 0 {
            failed = failed.max(counts.ring_drops);
        }
        let mut tail = String::new();
        if let Some(churn) = &self.churn {
            let churn = churn.borrow();
            attempted += churn.rebinds;
            failed += churn.failures;
            tail += &format!(" rebinds={} pool={}", churn.rebinds, churn.pool.len());
        }
        if self.spec.export {
            attempted += ARTIFACTS;
            if counts.overwritten > 0 || self.artifacts.len() as u64 != ARTIFACTS {
                failed += ARTIFACTS;
            }
            let hashes: Vec<String> = self
                .artifacts
                .iter()
                .map(|a| format!("{:016x}", fnv1a(a.as_bytes())))
                .collect();
            tail += &format!(
                " records={} overwritten={} artifacts=[{}]",
                counts.records,
                counts.overwritten,
                hashes.join(",")
            );
        }
        let digest = format!(
            "{head} gen={:?} dut={:?} {} echoed={echoed} unreachable={unreachable} bad={}{tail}",
            self.gen_nic.stats(),
            self.dut_nic.stats(),
            self.dut.as_deref().map(stack_digest).unwrap_or_default(),
            self.tally.bad.get(),
        );
        Outcome {
            sim_ns: engine.now().as_nanos(),
            pkts: self.dut_nic.stats().rx_frames,
            attempted,
            failed: failed.min(attempted),
            digest,
            counts,
        }
    }
}

// ---------------------------------------------------------------- TCP ----

struct TcpParts {
    nics: [Rc<Nic>; 2],
    stacks: [Rc<PlexusStack>; 2],
    sender: Rc<TcpConn>,
    receiver: Rc<OnceCell<Rc<TcpConn>>>,
    received: Rc<RefCell<Vec<u8>>>,
    /// Sides that reached `on_closed`.
    closed: Rc<Cell<u64>>,
}

/// Two stacks over the paper's T3 link (MTU 4470, software checksum). The
/// sender queues the whole stream at `on_connected` with `send_in`, exactly
/// as `tab_tcp_throughput` does, then closes; the receiver keeps every byte
/// and closes when its peer has.
fn build_tcp(stream: &Rc<Vec<u8>>) -> Built {
    let mut world = World::new();
    let a = world.add_machine("sender");
    let b = world.add_machine("receiver");
    let link = Link::t3();
    let (_medium, nics) =
        world.connect(&[&a, &b], link.profile, link.propagation, link.half_duplex);
    let attach = |machine, nic, host: u8| {
        PlexusStack::attach(
            machine,
            nic,
            StackConfig::interrupt(ip(host), MacAddr::local(host)),
        )
    };
    let sender = attach(&a, &nics[0], 1);
    slices::mark();
    let receiver = attach(&b, &nics[1], 2);
    slices::mark();
    sender.seed_arp(ip(2), MacAddr::local(2));
    receiver.seed_arp(ip(1), MacAddr::local(1));
    let spec = ExtensionSpec::typesafe("perf-ttcp", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
    let sext = sender.link_extension(&spec).expect("public symbols only");
    let rext = receiver.link_extension(&spec).expect("public symbols only");

    let closed = Rc::new(Cell::new(0));
    let on_closed = |closed: &Rc<Cell<u64>>| -> Option<plexus_core::tcp_manager::ConnCallback> {
        let closed = closed.clone();
        Some(Rc::new(move |_, _| closed.set(closed.get() + 1)))
    };
    let received = Rc::new(RefCell::new(Vec::with_capacity(stream.len())));
    let accepted: Rc<OnceCell<Rc<TcpConn>>> = Rc::new(OnceCell::new());
    let (sink, slot, rclosed) = (received.clone(), accepted.clone(), closed.clone());
    receiver
        .tcp()
        .listen(&rext, TCP_PORT, move |_, conn| {
            let _ = slot.set(conn.clone());
            let sink = sink.clone();
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(move |_, _, data| {
                    slices::mark();
                    let _s = span("tcp_on_data");
                    sink.borrow_mut().extend_from_slice(data);
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                on_closed: on_closed(&rclosed),
                ..Default::default()
            });
        })
        .expect("the port is free in a fresh stack");

    let conn = sender
        .tcp()
        .connect(&sext, world.engine_mut(), (ip(2), TCP_PORT))
        .expect("connect in a fresh stack");
    let source = stream.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            {
                let _s = span("tcp_send_in");
                conn.send_in(ctx, &source);
            }
            slices::mark();
            conn.close_in(ctx);
        })),
        on_closed: on_closed(&closed),
        ..Default::default()
    });

    Built {
        world,
        parts: Parts::Tcp(TcpParts {
            nics: [nics[0].clone(), nics[1].clone()],
            stacks: [sender, receiver],
            sender: conn,
            receiver: accepted,
            received,
            closed,
        }),
    }
}

impl TcpParts {
    fn outcome(&self, head: String, engine: &Engine, stream: &[u8]) -> Outcome {
        let mut counts = Counts {
            events: engine.executed(),
            ring_drops: ring_drops(&[&self.nics[0], &self.nics[1]]),
            ..Counts::default()
        };
        pool_counts(&mut counts);
        for (stack, nic) in self.stacks.iter().zip(&self.nics) {
            stack_counts(&mut counts, stack, nic);
        }
        counts.tcp_retransmits =
            self.sender.retransmits() + self.receiver.get().map_or(0, |c| c.retransmits());

        // One op per 64 KiB block of the stream: it fails if it is missing or
        // differs. Both sides must also have closed. A ring drop is no failure
        // here: TCP recovers it, and `net.tcp.retransmits` reports the cost.
        let received = self.received.borrow();
        let blocks = stream.chunks(BLOCK).count() as u64;
        let mut failed = stream
            .chunks(BLOCK)
            .enumerate()
            .filter(|(i, want)| received.get(i * BLOCK..i * BLOCK + want.len()) != Some(want))
            .count() as u64;
        if received.len() != stream.len() || self.closed.get() != 2 {
            failed = failed.max(1);
        }
        let digest = format!(
            "{head} a={:?} b={:?} sender: {} receiver: {} received={} closed={} retransmits={} stream={:016x}",
            self.nics[0].stats(),
            self.nics[1].stats(),
            stack_digest(&self.stacks[0]),
            stack_digest(&self.stacks[1]),
            received.len(),
            self.closed.get(),
            counts.tcp_retransmits,
            fnv1a(&received),
        );
        Outcome {
            sim_ns: engine.now().as_nanos(),
            pkts: self.nics.iter().map(|n| n.stats().rx_frames).sum(),
            attempted: blocks,
            failed,
            digest,
            counts,
        }
    }
}
