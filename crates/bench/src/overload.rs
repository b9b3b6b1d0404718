//! Overload/throughput experiment: open-loop UDP load against the
//! per-packet and coalesced receive paths.
//!
//! A load generator machine clocks pre-built UDP frames at a fixed
//! fraction of line rate — open loop, so it never slows down when the
//! device under test falls behind — and the DUT runs a Plexus stack in
//! one of two receive configurations:
//!
//! * **per-packet** (the paper's): one interrupt per frame, full driver
//!   fixed cost every time, no admission control — backlog queues on the
//!   CPU without bound;
//! * **coalesced**: the bounded NIC rx ring + interrupt coalescing path
//!   ([`plexus_sim::nic::NicProfile::rx_ring_frames`] /
//!   `rx_batch`), which amortizes interrupt entry/exit and the driver
//!   fixed cost across a drained batch and sheds overload at the ring.
//!
//! Two workloads: a UDP echo server (round-trip measured at the
//! generator) and the §5.2 in-kernel UDP forwarder (one-way latency
//! measured at a raw backend sink). Offered load sweeps 0.1x to 4x of
//! line rate; each point reports goodput, latency percentiles, and a
//! drop-cause breakdown taken from the NIC counters.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use plexus_apps::{forwarder_extension_spec, InKernelForwarder};
use plexus_core::{AppHandler, PlexusStack, StackConfig};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::ip::{encapsulate as ip_encapsulate, proto, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::UdpConfig;
use plexus_net::{Host, Testbed};
use plexus_sim::engine::Engine;
use plexus_sim::nic::{DriverConfig, Link, Nic, NicStats};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::{Loss, Machine, Outcome, World};
use plexus_trace::timeline::percentile;
use plexus_trace::Recorder;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt;

/// Which receive path the device under test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxMode {
    /// One interrupt per frame (the paper's configuration).
    PerPacket,
    /// Bounded rx ring + interrupt coalescing.
    Coalesced,
}

impl RxMode {
    /// Key used in metric names.
    pub(crate) fn key(&self) -> &'static str {
        match self {
            RxMode::PerPacket => "perpkt",
            RxMode::Coalesced => "coalesced",
        }
    }
}

/// Which transmit submission path the device under test runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TxMode {
    /// Scatter-gather chains handed to the adapter one frame at a time
    /// (the stack's default).
    #[default]
    PerFrame,
    /// Per-frame submit with the transport checksums computed in software:
    /// every adapter on the segment has its checksum offload switched off.
    /// The comparison baseline — in simulated time, exactly what copying
    /// each chain to a contiguous buffer before transmit costs (the copy
    /// forgoes the DMA gather, and with it the offload).
    Flattened,
    /// Scatter-gather with doorbell-batched submission: queued frames
    /// share one driver fixed charge per doorbell.
    Doorbell,
}

impl TxMode {
    /// Key used in metric names.
    pub(crate) fn key(&self) -> &'static str {
        match self {
            TxMode::PerFrame => "sgpf",
            TxMode::Flattened => "flat",
            TxMode::Doorbell => "sgdb",
        }
    }
}

/// Copies the fan-out workload sends per received datagram.
pub(crate) const FANOUT: usize = 4;

/// The traffic pattern offered to the device under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DUT echoes each datagram back; latency is the round trip at the
    /// generator.
    UdpEcho,
    /// DUT redirects each datagram to a backend sink (§5.2 forwarding);
    /// latency is one-way generator→backend.
    UdpForward,
    /// DUT answers each datagram with `FANOUT` (4) copies — the fig6-style
    /// fan-out, transmit-bound, which is what doorbell batching helps.
    UdpFanout,
}

impl Workload {
    /// Key used in metric names.
    pub(crate) fn key(&self) -> &'static str {
        match self {
            Workload::UdpEcho => "echo",
            Workload::UdpForward => "fwd",
            Workload::UdpFanout => "fanout",
        }
    }
}

/// The standard sweep: offered load as a fraction `num/den` of line rate.
pub(crate) const FACTORS: &[(u64, u64)] = &[(1, 10), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1)];

/// Results for one offered-load point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load as a fraction of line rate (`num/den`).
    pub offered: (u64, u64),
    /// Frames offered during the measurement window.
    pub sent: u64,
    /// Workload completions (echo replies / forwarded frames) landing
    /// inside the measurement window.
    pub completed: u64,
    /// Completions per second of simulated time.
    pub goodput_pps: f64,
    /// Per-completion latency samples in ns (send → completion).
    pub latency_ns: Vec<u64>,
    /// Frames shed at the generator's transmit ring (offered above wire
    /// capacity never reaches the DUT).
    pub gen_tx_ring_drops: u64,
    /// Frames shed at the DUT's receive ring (coalesced mode only).
    pub rx_ring_drops: u64,
    /// Frames delivered with no receive handler installed.
    pub rx_no_handler: u64,
    /// Receive interrupts the DUT took.
    pub rx_interrupts: u64,
    /// Frames the DUT's driver actually received.
    pub rx_frames: u64,
    /// Peak rx-ring occupancy observed.
    pub rx_ring_highwater: u64,
    /// Frames the DUT transmitted (echo replies / fan-out copies).
    pub dut_tx_frames: u64,
    /// Frames shed at the DUT's transmit ring.
    pub dut_tx_ring_drops: u64,
    /// Doorbells the DUT's driver rang (doorbell tx mode only: per-frame
    /// submission reports zero).
    pub tx_doorbells: u64,
}

impl LoadPoint {
    /// Offered load as a float multiple of line rate.
    pub(crate) fn factor(&self) -> f64 {
        self.offered.0 as f64 / self.offered.1 as f64
    }

    /// Label like `x0.10` / `x2.00`, stable for metric names.
    pub(crate) fn label(&self) -> String {
        format!("x{:.2}", self.factor())
    }

    /// Mean frames drained per receive interrupt.
    pub(crate) fn frames_per_interrupt(&self) -> f64 {
        if self.rx_interrupts == 0 {
            0.0
        } else {
            self.rx_frames as f64 / self.rx_interrupts as f64
        }
    }
}

const PORT: u16 = 7;
const GEN_PORT: u16 = 2000;
/// Offset of the UDP payload inside the frame (eth + ip + udp headers).
const PAYLOAD_OFF: usize = 14 + 20 + 8;
/// Default payload: small frames keep per-frame CPU cost dominant over
/// wire time, which is what makes receive overload visible.
pub const PAYLOAD: usize = 32;
/// Settling time before the measurement window opens.
pub(crate) const WARMUP: SimDuration = SimDuration::from_micros(20_000);
/// Length of the measurement window.
pub(crate) const MEASURE: SimDuration = SimDuration::from_micros(200_000);

/// Builds a complete wire frame from `src` to `dst`: Ethernet + IPv4 +
/// UDP (checksum disabled so the payload can carry a varying timestamp
/// without a per-frame checksum pass), `payload` zero bytes. Public so
/// integration tests can offer raw line-rate bursts to a stack.
pub fn build_frame(src: &Host, dst: &Host, payload: usize) -> Vec<u8> {
    assert!(payload >= 8, "payload must hold a send timestamp");
    let mut udp = Mbuf::from_payload(64, &vec![0u8; payload]);
    let hdr = udp.prepend(8);
    let udp_len = (8 + payload) as u16;
    hdr[0..2].copy_from_slice(&GEN_PORT.to_be_bytes());
    hdr[2..4].copy_from_slice(&PORT.to_be_bytes());
    hdr[4..6].copy_from_slice(&udp_len.to_be_bytes());
    hdr[6..8].copy_from_slice(&0u16.to_be_bytes()); // Checksum disabled.
    let dgram = ip_encapsulate(&IpHeader::simple(src.ip, dst.ip, proto::UDP, 1), udp);
    let mut frame = dgram;
    let eth = frame.prepend(14);
    eth[0..6].copy_from_slice(&dst.mac.0);
    eth[6..12].copy_from_slice(&src.mac.0);
    eth[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    frame.to_vec()
}

/// Shared measurement state between the generator and the sink handler.
struct Meter {
    window: (u64, u64),
    sent: Cell<u64>,
    completed: Cell<u64>,
    latency_ns: RefCell<Vec<u64>>,
}

impl Meter {
    fn new(window: (u64, u64)) -> Rc<Meter> {
        Rc::new(Meter {
            window,
            sent: Cell::new(0),
            completed: Cell::new(0),
            latency_ns: RefCell::new(Vec::new()),
        })
    }

    fn in_window(&self, now_ns: u64) -> bool {
        self.window.0 <= now_ns && now_ns < self.window.1
    }

    fn complete(&self, now_ns: u64, sent_ns: u64) {
        if self.in_window(now_ns) {
            self.completed.set(self.completed.get() + 1);
            self.latency_ns.borrow_mut().push(now_ns - sent_ns);
        }
    }
}

/// Open-loop generator state shared by the self-rescheduling send events.
struct Gen {
    nic: Rc<Nic>,
    template: Vec<u8>,
    meter: Rc<Meter>,
    /// Nanoseconds to serialize one template frame at line rate.
    ser_ns: u64,
    /// Offered load `num/den` as a multiple of line rate.
    num: u64,
    den: u64,
    end_ns: u64,
}

/// Schedules send `k` at `k * ser * den / num` ns (computed from `k`, not
/// accumulated, so rounding never drifts) until the window closes.
fn schedule_send(engine: &mut Engine, gen: Rc<Gen>, k: u64) {
    let t = (k as u128 * gen.ser_ns as u128 * gen.den as u128 / gen.num as u128) as u64;
    if t >= gen.end_ns {
        return;
    }
    engine.schedule_at(SimTime::ZERO + SimDuration::from_nanos(t), move |engine| {
        let now = engine.now();
        let mut frame = gen.template.clone();
        frame[PAYLOAD_OFF..PAYLOAD_OFF + 8].copy_from_slice(&now.as_nanos().to_be_bytes());
        if gen.meter.in_window(now.as_nanos()) {
            gen.meter.sent.set(gen.meter.sent.get() + 1);
        }
        gen.nic.transmit(engine, now, &frame[..]);
        schedule_send(engine, gen, k + 1);
    });
}

/// Starts the open-loop generator: frame `k` is offered at
/// `k * serialize(frame) * den / num`, with its send time stamped into
/// the payload, until the measurement window closes.
fn start_generator(
    world: &mut World,
    nic: &Rc<Nic>,
    template: Vec<u8>,
    offered: (u64, u64),
    meter: &Rc<Meter>,
) {
    let ser_ns = nic.profile().serialize(template.len()).as_nanos();
    let (num, den) = offered;
    let gen = Rc::new(Gen {
        nic: nic.clone(),
        template,
        meter: meter.clone(),
        ser_ns,
        num,
        den,
        end_ns: meter.window.1,
    });
    schedule_send(world.engine_mut(), gen, 0);
}

/// Installs a raw sink on `host`'s NIC: frames addressed to it score a
/// completion against the timestamp embedded in their payload, each
/// [`Outcome::Delivered`] on the sink's CPU. Charges no
/// CPU — the sink machine is not under test. With a recorder, every
/// completion lands as an `overload.latency_ns` sample (feeding the
/// windowed timeline). Frames for other hosts are [`Loss::NotForMe`] on
/// the sink's CPU, so journey reconstruction classifies the broadcast
/// copies as filtered dead ends instead of live hops.
fn install_sink(host: &Host, meter: &Rc<Meter>, recorder: Option<&Rc<Recorder>>) {
    let mac = host.mac;
    let cpu = host.machine.cpu().clone();
    let meter = meter.clone();
    let rec = recorder.cloned();
    let hist = rec.as_ref().map(|r| r.intern("overload.latency_ns"));
    host.nic
        .attach(DriverConfig::per_frame(move |engine, frame| {
            let now_ns = engine.now().as_nanos();
            if frame.len() < PAYLOAD_OFF + 8 || frame[0..6] != mac.0 {
                return cpu.lose(engine.now(), Loss::NotForMe);
            }
            let sent_ns =
                u64::from_be_bytes(frame[PAYLOAD_OFF..PAYLOAD_OFF + 8].try_into().unwrap());
            if let (Some(rec), Some(hist)) = (&rec, hist) {
                rec.sample(now_ns, hist, now_ns - sent_ns);
            }
            meter.complete(now_ns, sent_ns);
            cpu.count(Outcome::Delivered);
        }));
}

fn stats_delta(at_end: NicStats, at_warmup: NicStats) -> NicStats {
    NicStats {
        tx_frames: at_end.tx_frames - at_warmup.tx_frames,
        tx_wire_bytes: at_end.tx_wire_bytes - at_warmup.tx_wire_bytes,
        rx_frames: at_end.rx_frames - at_warmup.rx_frames,
        rx_bytes: at_end.rx_bytes - at_warmup.rx_bytes,
        tx_oversize: at_end.tx_oversize - at_warmup.tx_oversize,
        tx_ring_drops: at_end.tx_ring_drops - at_warmup.tx_ring_drops,
        rx_no_handler: at_end.rx_no_handler - at_warmup.rx_no_handler,
        rx_ring_drops: at_end.rx_ring_drops - at_warmup.rx_ring_drops,
        rx_interrupts: at_end.rx_interrupts - at_warmup.rx_interrupts,
        tx_doorbells: at_end.tx_doorbells - at_warmup.tx_doorbells,
        tx_csum_offloads: at_end.tx_csum_offloads - at_warmup.tx_csum_offloads,
        // High-water is a peak, not a flow: report the end-of-run value.
        rx_ring_highwater: at_end.rx_ring_highwater,
    }
}

/// One offered-load point: a workload, the DUT's receive and transmit
/// paths, the segment, and the offered load as a fraction of line rate.
pub struct Overload<'a> {
    /// The traffic pattern.
    pub workload: Workload,
    /// The DUT's receive path.
    pub rx: RxMode,
    /// The DUT's transmit path (default: scatter-gather, per frame).
    pub tx: TxMode,
    /// The segment generator, DUT and backend sit on.
    pub link: &'a Link,
    /// Offered load `num/den` as a multiple of line rate.
    pub offered: (u64, u64),
    /// Flight recorder installed across the whole world, so
    /// the overload cells can attribute the DUT's cycles under overload and
    /// the determinism tests can compare event streams.
    pub recorder: Option<&'a Rc<Recorder>>,
}

impl<'a> Overload<'a> {
    /// The point on the stack's default transmit path, untraced.
    pub fn new(workload: Workload, rx: RxMode, link: &'a Link, offered: (u64, u64)) -> Self {
        Overload {
            workload,
            rx,
            tx: TxMode::default(),
            link,
            offered,
            recorder: None,
        }
    }

    /// Runs the point. Deterministic: everything derives from the
    /// simulated clock.
    pub fn run(&self) -> LoadPoint {
        self.run_on().0
    }

    /// [`Overload::run`], handing back the machines it ran on too.
    pub(crate) fn run_on(&self) -> (LoadPoint, Vec<Rc<Machine>>) {
        let Overload {
            workload,
            recorder,
            offered,
            ..
        } = *self;
        let names: &[&str] = if workload == Workload::UdpForward {
            &["generator", "dut", "backend"]
        } else {
            &["generator", "dut"]
        };
        let mut link = self.link.clone();
        if self.tx == TxMode::Flattened {
            link.profile.checksum_offload = false;
        }
        let mut tb = Testbed::new(&link, 9, names).traced(recorder);
        let (gen, dut_host) = (&tb.hosts[0], &tb.hosts[1]);
        let gen_nic = gen.nic.clone();
        let dut_nic = dut_host.nic.clone();

        let dut = PlexusStack::attach_host(dut_host, |ip, mac| {
            let cfg = StackConfig::interrupt(ip, mac);
            let cfg = match self.rx {
                RxMode::PerPacket => cfg,
                RxMode::Coalesced => cfg.coalesced(),
            };
            match self.tx {
                TxMode::PerFrame | TxMode::Flattened => cfg,
                TxMode::Doorbell => cfg.doorbell_tx(),
            }
        });

        let warmup_ns = WARMUP.as_nanos();
        let end_ns = (WARMUP + MEASURE).as_nanos();
        let meter = Meter::new((warmup_ns, end_ns));

        match workload {
            Workload::UdpEcho | Workload::UdpFanout => {
                let spec = ExtensionSpec::typesafe("overload-echo", &["UDP.Bind", "UDP.Send"]);
                let ext = dut.link_extension(&spec).unwrap();
                let slot = Rc::default();
                let copies = if workload == Workload::UdpFanout {
                    FANOUT
                } else {
                    1
                };
                let echo = AppHandler::interrupt(udp_rtt::echo(&slot, copies));
                let ep = dut.udp().bind(&ext, PORT, UdpConfig::default(), echo);
                let _ = slot.set(ep.unwrap());
                install_sink(gen, &meter, recorder);
            }
            Workload::UdpForward => {
                let ext = dut
                    .link_extension(&forwarder_extension_spec("overload-fwd"))
                    .unwrap();
                let backend = &tb.hosts[2];
                InKernelForwarder::udp(&dut, &ext, PORT, backend.ip).unwrap();
                install_sink(backend, &meter, recorder);
            }
        }

        let template = build_frame(gen, dut_host, PAYLOAD);
        start_generator(&mut tb.world, &gen_nic, template, offered, &meter);

        // Snapshot NIC counters when the window opens so warmup traffic does
        // not pollute the drop breakdown.
        let warmup_gen: Rc<Cell<NicStats>> = Rc::new(Cell::new(NicStats::default()));
        let warmup_dut: Rc<Cell<NicStats>> = Rc::new(Cell::new(NicStats::default()));
        {
            let (g, d) = (warmup_gen.clone(), warmup_dut.clone());
            let (gn, dn) = (gen_nic.clone(), dut_nic.clone());
            tb.world
                .engine_mut()
                .schedule_at(SimTime::ZERO + WARMUP, move |_| {
                    g.set(gn.stats());
                    d.set(dn.stats());
                });
        }

        tb.world.run_for(WARMUP + MEASURE);

        let gen_stats = stats_delta(gen_nic.stats(), warmup_gen.get());
        let dut_stats = stats_delta(dut_nic.stats(), warmup_dut.get());
        let latency_ns = meter.latency_ns.borrow().clone();
        let completed = meter.completed.get();
        let point = LoadPoint {
            offered,
            sent: meter.sent.get(),
            completed,
            goodput_pps: completed as f64 / (MEASURE.as_nanos() as f64 / 1e9),
            latency_ns,
            gen_tx_ring_drops: gen_stats.tx_ring_drops,
            rx_ring_drops: dut_stats.rx_ring_drops,
            rx_no_handler: dut_stats.rx_no_handler,
            rx_interrupts: dut_stats.rx_interrupts,
            rx_frames: dut_stats.rx_frames,
            rx_ring_highwater: dut_stats.rx_ring_highwater,
            dut_tx_frames: dut_stats.tx_frames,
            dut_tx_ring_drops: dut_stats.tx_ring_drops,
            tx_doorbells: dut_stats.tx_doorbells,
        };
        (point, tb.world.machines().to_vec())
    }
}

/// Runs the standard [`FACTORS`] sweep for one workload and rx/tx path.
fn sweep(workload: Workload, rx: RxMode, tx: TxMode, link: &Link) -> Vec<LoadPoint> {
    FACTORS
        .iter()
        .map(|&offered| {
            Overload {
                tx,
                ..Overload::new(workload, rx, link, offered)
            }
            .run()
        })
        .collect()
}

fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    percentile(&v, q) as f64 / 1000.0
}

fn add_point(report: &mut BenchReport, key: &str, p: &LoadPoint) {
    report.latency_from_ns(&format!("{key}/latency"), &p.latency_ns);
    report.scalar(&format!("{key}/goodput"), p.goodput_pps, "pps");
    report.count(&format!("{key}/sent"), p.sent);
    report.count(&format!("{key}/completed"), p.completed);
    report.count(&format!("{key}/gen_tx_ring_drops"), p.gen_tx_ring_drops);
    report.count(&format!("{key}/rx_ring_drops"), p.rx_ring_drops);
    report.count(&format!("{key}/rx_no_handler"), p.rx_no_handler);
    report.count(&format!("{key}/rx_interrupts"), p.rx_interrupts);
    report.count(&format!("{key}/rx_frames"), p.rx_frames);
    report.count(&format!("{key}/rx_ring_highwater"), p.rx_ring_highwater);
    report.count(&format!("{key}/dut_tx_frames"), p.dut_tx_frames);
    report.count(&format!("{key}/dut_tx_ring_drops"), p.dut_tx_ring_drops);
    report.count(&format!("{key}/tx_doorbells"), p.tx_doorbells);
}

/// The load/offered/goodput/p50/p99 columns every sweep table starts
/// with, followed by the `tail` columns the caller picks per point.
fn sweep_table(
    out: &mut String,
    points: &[LoadPoint],
    tail: &[&str],
    cells: impl Fn(&LoadPoint) -> Vec<String>,
) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                p.label(),
                p.sent.to_string(),
                format!("{:.0}", p.goodput_pps),
                format!("{:.0}", percentile_us(&p.latency_ns, 50.0)),
                format!("{:.0}", percentile_us(&p.latency_ns, 99.0)),
            ];
            row.extend(cells(p));
            row
        })
        .collect();
    let mut headers = vec!["load", "offered", "goodput/s", "p50 (us)", "p99 (us)"];
    headers.extend_from_slice(tail);
    table::render(out, &headers, &rows);
}

/// The receive-overload sweep: open-loop UDP load from 0.1x to 4x of T3
/// line rate against the per-packet and coalesced receive paths, for the
/// echo server and the §5.2 in-kernel forwarder. Per load point: goodput,
/// latency percentiles and the drop-cause breakdown.
pub(crate) fn rx_figure(out: &mut String, report: &mut BenchReport) {
    let link = Link::t3();
    outln!(
        out,
        "Overload sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    outln!(out);

    for workload in [Workload::UdpEcho, Workload::UdpForward] {
        let what = match workload {
            Workload::UdpEcho => "UDP echo (round trip at generator)",
            Workload::UdpForward => "UDP forwarder (one-way at backend)",
            Workload::UdpFanout => unreachable!(),
        };
        for mode in [RxMode::PerPacket, RxMode::Coalesced] {
            let how = match mode {
                RxMode::PerPacket => "per-packet interrupts",
                RxMode::Coalesced => "rx ring + coalescing",
            };
            outln!(out, "{what} — {how}:");
            let points = sweep(workload, mode, TxMode::default(), &link);
            let tail = ["tx shed", "rx shed", "frm/irq", "ring hi"];
            sweep_table(out, &points, &tail, |p| {
                vec![
                    p.gen_tx_ring_drops.to_string(),
                    p.rx_ring_drops.to_string(),
                    format!("{:.1}", p.frames_per_interrupt()),
                    p.rx_ring_highwater.to_string(),
                ]
            });
            for p in &points {
                let key = format!("{}.{}.{}", workload.key(), mode.key(), p.label());
                add_point(report, &key, p);
            }
        }
    }
    out.push_str(
        "The per-packet path pays the full driver fixed cost and interrupt\n\
         entry/exit per frame and queues its backlog on the CPU without bound:\n\
         past saturation the p99 stretches toward the whole measurement window.\n\
         The coalesced path amortizes those costs across each drained batch and\n\
         sheds overload at the bounded rx ring, so goodput rises and the p99\n\
         stays within ring-depth service times.\n",
    );

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
}

/// The transmit-path sweep: the same offered loads over the gigabit
/// profile with software checksums and per-frame submit, and with
/// checksum offload and doorbell-batched submit, for an echo storm and a
/// 4-way fan-out.
pub(crate) fn tx_figure(out: &mut String, report: &mut BenchReport) {
    let link = Link::gigabit();
    outln!(
        out,
        "Transmit-path sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    outln!(out);

    for workload in [Workload::UdpEcho, Workload::UdpFanout] {
        let what = match workload {
            Workload::UdpEcho => "UDP echo storm (round trip at generator)".to_string(),
            Workload::UdpFanout => format!("UDP fan-out x{FANOUT} (each copy scored)"),
            Workload::UdpForward => unreachable!(),
        };
        for tx in [TxMode::Flattened, TxMode::Doorbell] {
            let how = match tx {
                TxMode::Flattened => "software checksums + per-frame submit",
                TxMode::PerFrame => "scatter-gather, per-frame submit",
                TxMode::Doorbell => "checksum offload, doorbell-batched",
            };
            outln!(out, "{what} — {how}:");
            let points = sweep(workload, RxMode::Coalesced, tx, &link);
            sweep_table(out, &points, &["dut tx", "doorbells", "rx shed"], |p| {
                vec![
                    p.dut_tx_frames.to_string(),
                    p.tx_doorbells.to_string(),
                    p.rx_ring_drops.to_string(),
                ]
            });
            for p in &points {
                let key = format!("{}.{}.{}", workload.key(), tx.key(), p.label());
                add_point(report, &key, p);
            }
        }
    }
    out.push_str(
        "Both configurations put identical bytes on the wire; the difference is\n\
         where the transmit CPU goes. The first checksums every datagram in\n\
         software and pays the full driver fixed cost per frame. The second\n\
         leaves the checksum to the adapter's DMA gather and, while the adapter\n\
         is draining, queues follow-up frames for the cost of a descriptor write\n\
         — one fixed charge per doorbell instead of per frame — so the saturated\n\
         goodput ceiling sits well above the per-frame configuration's.\n",
    );

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
    report.count("fanout_copies", FANOUT as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(ns: &[u64]) -> u64 {
        let mut v = ns.to_vec();
        v.sort_unstable();
        v[(v.len() * 99 / 100).min(v.len() - 1)]
    }

    #[test]
    fn coalescing_beats_per_packet_under_overload() {
        // The ISSUE's acceptance bar: at 2x line rate the coalesced path
        // must push more goodput at lower p99 than the per-packet path,
        // and neither may collapse between 1x and 4x (receive livelock).
        let link = Link::t3();
        let load = (2u64, 1u64);
        let pp = Overload::new(Workload::UdpEcho, RxMode::PerPacket, &link, load).run();
        let co = Overload::new(Workload::UdpEcho, RxMode::Coalesced, &link, load).run();
        assert!(
            co.goodput_pps > pp.goodput_pps,
            "coalesced goodput {:.0} <= per-packet {:.0} at 2x",
            co.goodput_pps,
            pp.goodput_pps
        );
        assert!(
            p99(&co.latency_ns) < p99(&pp.latency_ns),
            "coalesced p99 {} >= per-packet {} at 2x",
            p99(&co.latency_ns),
            p99(&pp.latency_ns)
        );
    }

    #[test]
    fn goodput_does_not_collapse_at_4x() {
        let link = Link::t3();
        for mode in [RxMode::PerPacket, RxMode::Coalesced] {
            let g1 = Overload::new(Workload::UdpEcho, mode, &link, (1, 1)).run();
            let g4 = Overload::new(Workload::UdpEcho, mode, &link, (4, 1)).run();
            assert!(
                g4.goodput_pps >= g1.goodput_pps * 0.95,
                "{mode:?}: goodput 4x {:.0} collapsed below 1x {:.0}",
                g4.goodput_pps,
                g1.goodput_pps
            );
        }
    }

    #[test]
    fn coalesced_overload_sheds_at_the_ring_and_batches_interrupts() {
        let link = Link::t3();
        let p = Overload::new(Workload::UdpEcho, RxMode::Coalesced, &link, (2, 1)).run();
        assert!(p.rx_ring_drops > 0, "overload must shed at the rx ring");
        assert!(
            p.frames_per_interrupt() > 1.5,
            "expected coalescing, got {:.2} frames/interrupt",
            p.frames_per_interrupt()
        );
        assert!(p.rx_ring_highwater > 0);
        // The ring bounds the backlog, so worst-case sojourn is bounded
        // by ring-depth service times, far below the measure window.
        assert!(p99(&p.latency_ns) < MEASURE.as_nanos() / 4);
    }

    #[test]
    fn forwarder_workload_completes_and_orders_like_echo() {
        let link = Link::t3();
        let pp = Overload::new(Workload::UdpForward, RxMode::PerPacket, &link, (2, 1)).run();
        let co = Overload::new(Workload::UdpForward, RxMode::Coalesced, &link, (2, 1)).run();
        assert!(pp.completed > 0 && co.completed > 0);
        assert!(co.goodput_pps > pp.goodput_pps);
        assert!(p99(&co.latency_ns) < p99(&pp.latency_ns));
    }

    #[test]
    fn light_load_completes_everything_offered() {
        let link = Link::t3();
        let p = Overload::new(Workload::UdpEcho, RxMode::Coalesced, &link, (1, 20)).run();
        // At a tenth of line rate nothing should shed anywhere.
        assert_eq!(p.gen_tx_ring_drops, 0);
        assert_eq!(p.rx_ring_drops, 0);
        // Allow edge effects: frames in flight at the window boundary.
        assert!(
            p.completed as f64 >= p.sent as f64 * 0.98,
            "completed {} of {} sent",
            p.completed,
            p.sent
        );
    }
}
