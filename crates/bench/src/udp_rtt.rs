//! Figure 5's experiment: UDP round-trip latency for small packets.
//!
//! A client application function sends a payload to a server application
//! function, which sends it straight back; the round trip repeats serially
//! and the mean is reported. Four system configurations, as in the figure:
//! Plexus with interrupt-level handlers, Plexus with thread handlers,
//! DIGITAL UNIX, and the raw driver-to-driver floor.

use std::cell::{Cell, OnceCell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_baseline::MonolithicStack;
use plexus_core::{AppHandler, PlexusStack, StackConfig};
use plexus_kernel::domain::ExtensionSpec;
use plexus_kernel::{AddressSpace, RaiseCtx};
use plexus_net::udp::{Endpoint, UdpConfig, UdpRecv};
use plexus_net::Testbed;
use plexus_sim::cpu::CostModel;
use plexus_sim::nic::DriverConfig;
use plexus_sim::time::SimDuration;
use plexus_sim::Machine;
use plexus_trace::Recorder;

use crate::report::BenchReport;
use crate::table;

pub use plexus_sim::nic::Link;

/// The system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Plexus, application handler at interrupt level (ephemeral).
    PlexusInterrupt,
    /// Plexus, a kernel thread per event raise.
    PlexusThread,
    /// The monolithic baseline (user processes + sockets).
    Dunix,
    /// Driver-to-driver floor: reply directly from the receive interrupt.
    RawDriver,
}

impl System {
    /// Label used in tables.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            System::PlexusInterrupt => "Plexus (interrupt)",
            System::PlexusThread => "Plexus (thread)",
            System::Dunix => "DIGITAL UNIX",
            System::RawDriver => "raw driver floor",
        }
    }
}

/// Serial ping-pong state shared by the driver closures (also Figure 7's
/// request/response loop).
pub(crate) struct PingState {
    remaining: Cell<u32>,
    pub(crate) sent_at: Cell<u64>,
    rtts_ns: RefCell<Vec<u64>>,
}

impl PingState {
    pub(crate) fn new(rounds: u32) -> Rc<PingState> {
        assert!(rounds > 0);
        Rc::new(PingState {
            remaining: Cell::new(rounds),
            sent_at: Cell::new(0),
            rtts_ns: RefCell::new(Vec::new()),
        })
    }

    /// The per-round round-trip times, once every round has completed.
    pub(crate) fn samples(&self) -> Vec<u64> {
        assert_eq!(self.remaining.get(), 0, "all rounds completed");
        self.rtts_ns.borrow().clone()
    }

    /// Records a completed round trip; returns the round-trip time and
    /// whether another round should be started.
    pub(crate) fn complete(&self, now_ns: u64) -> (u64, bool) {
        let rtt = now_ns - self.sent_at.get();
        self.rtts_ns.borrow_mut().push(rtt);
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        (rtt, left > 0)
    }
}

/// A UDP echo server's handler, on either stack: it sends each datagram
/// back to its source `copies` times, from the endpoint `slot` holds.
pub(crate) fn echo<E: Endpoint + 'static>(
    slot: &Rc<OnceCell<Rc<E>>>,
    copies: usize,
) -> impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static {
    let slot = slot.clone();
    move |ctx: &mut RaiseCtx<'_>, ev: &UdpRecv| {
        let ep = slot.get().expect("endpoint installed");
        for _ in 0..copies {
            let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
        }
    }
}

/// Figure 5's two application functions, written once over either stack's
/// endpoint: the server echoes each datagram back, and the client records
/// the round trip and starts the next.
pub(crate) struct PingPong<E> {
    state: Rc<PingState>,
    server_ip: Ipv4Addr,
    data: Rc<[u8]>,
    server: Rc<OnceCell<Rc<E>>>,
    client: Rc<OnceCell<Rc<E>>>,
}

impl<E: Endpoint + 'static> PingPong<E> {
    /// `rounds` round trips of `payload` bytes to port 7 at `server_ip`.
    pub(crate) fn new(rounds: u32, payload: usize, server_ip: Ipv4Addr) -> PingPong<E> {
        PingPong {
            state: PingState::new(rounds),
            server_ip,
            data: vec![0x55u8; payload].into(),
            server: Rc::default(),
            client: Rc::default(),
        }
    }

    /// The server's handler.
    pub(crate) fn echo(&self) -> impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static {
        echo(&self.server, 1)
    }

    /// The client's handler.
    pub(crate) fn pong(&self) -> impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static {
        let (st, client) = (self.state.clone(), self.client.clone());
        let (server_ip, data) = (self.server_ip, self.data.clone());
        move |ctx: &mut RaiseCtx<'_>, _: &UdpRecv| {
            let now = ctx.lease.now().as_nanos();
            let (rtt, more) = st.complete(now);
            if let Some(rec) = ctx.lease.recorder() {
                let hist = rec.intern("udp.rtt_ns");
                // A completion sample (ring record + histogram) so the
                // windowed timeline sees per-round RTTs, and a journey break
                // so the next round's request starts a fresh ledger instead
                // of chaining onto the reply's.
                rec.sample(now, hist, rtt);
                rec.journey_break();
            }
            if more {
                st.sent_at.set(ctx.lease.now().as_nanos());
                let ep = client.get().expect("endpoint installed");
                let _ = ep.send_in(ctx, server_ip, 7, &data);
            }
        }
    }

    /// Sends the first round from `client` to `server` and runs every round.
    pub(crate) fn run(self, tb: &mut Testbed, server: Rc<E>, client: Rc<E>) -> Vec<u64> {
        let _ = self.server.set(server);
        let _ = self.client.set(client.clone());
        self.state.sent_at.set(tb.world.engine().now().as_nanos());
        let sent = client.send(tb.world.engine_mut(), self.server_ip, 7, &self.data);
        assert!(sent.is_ok(), "the payload fits one datagram");
        tb.world.run();
        self.state.samples()
    }
}

/// Mean of round-trip samples, in microseconds.
pub(crate) fn mean_us(samples_ns: &[u64]) -> f64 {
    samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1000.0
}

/// One cell of Figure 5: `rounds` serial `payload`-byte round trips
/// between a client and a server on `link`.
pub struct UdpRtt<'a> {
    /// The system under test.
    pub system: System,
    /// The segment both hosts sit on.
    pub link: &'a Link,
    /// UDP payload bytes.
    pub payload: usize,
    /// Serial round trips to measure.
    pub rounds: u32,
    /// Both hosts' cost model (default: the Alpha 3000/400). The ablation
    /// harness zeroes one structural cost at a time.
    pub model: CostModel,
    /// Flight recorder installed across the whole world (both machines'
    /// CPUs and NICs, and the engine). Each completed round trip, on any
    /// system but the raw driver floor, also lands in its `udp.rtt_ns`
    /// histogram.
    pub recorder: Option<&'a Rc<Recorder>>,
    /// Guard tier on both Plexus dispatchers (default: compiled). The
    /// tiers charge the same simulated cycles, so traces must be
    /// byte-identical across them — the determinism suite holds the
    /// system to that.
    pub compiled: bool,
}

impl<'a> UdpRtt<'a> {
    /// The experiment with the default cost model and guard tier, untraced.
    pub fn new(system: System, link: &'a Link, payload: usize, rounds: u32) -> UdpRtt<'a> {
        UdpRtt {
            system,
            link,
            payload,
            rounds,
            model: CostModel::alpha_3000_400(),
            recorder: None,
            compiled: true,
        }
    }

    /// Runs the ping-pong; returns the per-round round-trip times in
    /// nanoseconds (`mean_us` reduces them to the figure's number).
    pub fn run(&self) -> Vec<u64> {
        self.run_on().0
    }

    /// [`UdpRtt::run`], handing back the machines it ran on too.
    pub(crate) fn run_on(&self) -> (Vec<u64>, Vec<Rc<Machine>>) {
        let hosts = [
            ("client", self.model.clone()),
            ("server", self.model.clone()),
        ];
        let tb = Testbed::with_models(self.link, 0, &hosts).traced(self.recorder);
        let machines = tb.world.machines().to_vec();
        let samples = match self.system {
            System::PlexusInterrupt => self.plexus_rtt(tb, true),
            System::PlexusThread => self.plexus_rtt(tb, false),
            System::Dunix => self.dunix_rtt(tb),
            System::RawDriver => self.raw_rtt(tb),
        };
        (samples, machines)
    }

    fn plexus_rtt(&self, mut tb: Testbed, interrupt: bool) -> Vec<u64> {
        let pp = PingPong::new(self.rounds, self.payload, tb.hosts[1].ip);
        // Figure 5's two Plexus bars: every raise at interrupt level, or a
        // thread per raise — the application's handlers included.
        let (mode, echo, pong): (fn(_, _) -> _, _, _) = if interrupt {
            (
                StackConfig::interrupt,
                AppHandler::interrupt(pp.echo()),
                AppHandler::interrupt(pp.pong()),
            )
        } else {
            (
                StackConfig::thread,
                AppHandler::thread(pp.echo()),
                AppHandler::thread(pp.pong()),
            )
        };
        let client = PlexusStack::attach_host(&tb.hosts[0], mode);
        let server = PlexusStack::attach_host(&tb.hosts[1], mode);
        client.dispatcher().set_compiled_guards(self.compiled);
        server.dispatcher().set_compiled_guards(self.compiled);

        let spec = ExtensionSpec::typesafe("rtt-bench", &["UDP.Bind", "UDP.Send"]);
        let cext = client.link_extension(&spec).unwrap();
        let sext = server.link_extension(&spec).unwrap();
        let config = UdpConfig::default();
        let sep = server.udp().bind(&sext, 7, config, echo).unwrap();
        let cep = client.udp().bind(&cext, 2000, config, pong).unwrap();
        pp.run(&mut tb, sep, cep)
    }

    fn dunix_rtt(&self, mut tb: Testbed) -> Vec<u64> {
        let client = MonolithicStack::attach_host(&tb.hosts[0]);
        let server = MonolithicStack::attach_host(&tb.hosts[1]);
        let pp = PingPong::new(self.rounds, self.payload, server.ip());
        let cproc = AddressSpace::new();
        let sproc = AddressSpace::new();
        let config = UdpConfig::default();
        let sep = server.udp_socket(&sproc, 7, config, pp.echo()).unwrap();
        let cep = client.udp_socket(&cproc, 2000, config, pp.pong()).unwrap();
        pp.run(&mut tb, sep, cep)
    }

    /// Driver-to-driver floor: the server's receive interrupt immediately
    /// hands the frame back to its transmitter; the client's receive
    /// interrupt starts the next round. Only interrupt + driver costs are
    /// charged.
    fn raw_rtt(&self, mut tb: Testbed) -> Vec<u64> {
        // Frame length mimics the UDP case: eth + ip + udp headers + payload.
        let frame_len = 14 + 20 + 8 + self.payload;

        let server_cpu = tb.hosts[1].machine.cpu().clone();
        let sn = tb.hosts[1].nic.clone();
        tb.hosts[1]
            .nic
            .attach(DriverConfig::per_frame(move |engine, frame| {
                let mut lease = server_cpu.begin(engine.now());
                lease.charge(lease.model().interrupt_entry);
                lease.charge(sn.profile().rx_cpu_cost(frame.len()));
                lease.charge(sn.profile().tx_cpu_cost(frame.len()));
                let at = lease.now();
                sn.transmit(engine, at, frame);
                lease.charge(lease.model().interrupt_exit);
            }));

        let state = PingState::new(self.rounds);
        let client_nic = tb.hosts[0].nic.clone();
        let client_cpu = tb.hosts[0].machine.cpu().clone();
        let (cn, cpu, st) = (client_nic.clone(), client_cpu.clone(), state.clone());
        client_nic.attach(DriverConfig::per_frame(move |engine, frame| {
            let mut lease = cpu.begin(engine.now());
            lease.charge(lease.model().interrupt_entry);
            lease.charge(cn.profile().rx_cpu_cost(frame.len()));
            let now = lease.now().as_nanos();
            if st.complete(now).1 {
                st.sent_at.set(lease.now().as_nanos());
                lease.charge(cn.profile().tx_cpu_cost(frame.len()));
                let at = lease.now();
                cn.transmit(engine, at, frame);
            }
            lease.charge(lease.model().interrupt_exit);
        }));

        state.sent_at.set(tb.world.engine().now().as_nanos());
        let mut lease = client_cpu.begin(tb.world.engine().now());
        lease.charge(client_nic.profile().tx_cpu_cost(frame_len));
        let at = lease.finish();
        client_nic.transmit(tb.world.engine_mut(), at, &vec![0u8; frame_len][..]);
        tb.world.run();
        state.samples()
    }
}

/// The paper's three devices, under the names the figures print.
pub(crate) fn paper_links() -> [(&'static str, Link); 3] {
    [
        ("Ethernet", Link::ethernet()),
        ("Fore ATM", Link::atm()),
        ("DEC T3", Link::t3()),
    ]
}

/// A device name as metric names spell it.
pub(crate) fn device_key(device: &str) -> String {
    device.to_lowercase().replace(' ', "_")
}

fn metric_key(device: &str, system: System) -> String {
    let sys = match system {
        System::RawDriver => "raw_driver",
        System::PlexusInterrupt => "plexus_interrupt",
        System::PlexusThread => "plexus_thread",
        System::Dunix => "dunix",
    };
    format!("{}/{sys}", device_key(device))
}

/// Figure 5: the four systems on Ethernet, Fore ATM and DEC T3 at 8
/// bytes, plus the §4.1 fast-driver variants.
pub(crate) fn fig5_udp_latency(out: &mut String, report: &mut BenchReport) {
    const PAYLOAD: usize = 8;
    const ROUNDS: u32 = 100;

    outln!(
        out,
        "Figure 5: UDP round-trip latency, {PAYLOAD}-byte payload ({ROUNDS} round trips)"
    );
    outln!(out);

    let systems = [
        System::RawDriver,
        System::PlexusInterrupt,
        System::PlexusThread,
        System::Dunix,
    ];

    let mut rows = Vec::new();
    for (name, link) in &paper_links() {
        for sys in &systems {
            let samples = UdpRtt::new(*sys, link, PAYLOAD, ROUNDS).run();
            let us = mean_us(&samples);
            report.latency_from_ns(&metric_key(name, *sys), &samples);
            rows.push(vec![
                name.to_string(),
                sys.label().to_string(),
                format!("{us:.0}"),
            ]);
        }
    }
    report.count("rounds_per_cell", u64::from(ROUNDS));
    report.count("payload_bytes", PAYLOAD as u64);
    table::render(out, &["device", "system", "RTT (us)"], &rows);

    out.push_str("Section 4.1: with the faster device drivers\n\n");
    let fast = [
        ("Ethernet (fast driver)", Link::ethernet_fast()),
        ("Fore ATM (fast driver)", Link::atm_fast()),
    ];
    let mut rows = Vec::new();
    for (name, link) in &fast {
        let us = mean_us(&UdpRtt::new(System::PlexusInterrupt, link, PAYLOAD, ROUNDS).run());
        report.latency_us(&metric_key(name, System::PlexusInterrupt), us);
        rows.push(vec![
            name.to_string(),
            System::PlexusInterrupt.label().to_string(),
            format!("{us:.0}"),
        ]);
    }
    table::render(out, &["device", "system", "RTT (us)"], &rows);

    out.push_str(
        "Paper reference points: Plexus (interrupt) <600 us Ethernet,\n\
         ~350 us ATM, ~300 us T3; fast drivers 337 us Ethernet / 241 us ATM;\n\
         DIGITAL UNIX substantially slower on every device.\n",
    );
}

/// Ablation study: which structural cost explains the DIGITAL UNIX gap?
///
/// Figure 5's gap between Plexus and the monolithic baseline is the sum of
/// the boundary-crossing machinery Plexus eliminates. This zeroes one
/// cost-model constant at a time and re-measures the Ethernet UDP RTT of
/// both systems, attributing the gap to its components — the analysis
/// DESIGN.md promises for the calibration constants.
pub(crate) fn ablation(out: &mut String, report: &mut BenchReport) {
    const ROUNDS: u32 = 50;
    let link = Link::ethernet();
    let base = CostModel::alpha_3000_400();

    let rtt_us = |system, model: &CostModel| {
        let cell = UdpRtt {
            model: model.clone(),
            ..UdpRtt::new(system, &link, 8, ROUNDS)
        };
        mean_us(&cell.run())
    };
    let base_plexus = rtt_us(System::PlexusInterrupt, &base);
    let base_dunix = rtt_us(System::Dunix, &base);

    out.push_str("Ablation: Ethernet UDP RTT with one structural cost zeroed at a time\n\n");
    outln!(out, "baseline: Plexus (interrupt) {base_plexus:.0} us, DIGITAL UNIX {base_dunix:.0} us, gap {:.0} us", base_dunix - base_plexus);
    outln!(out);

    type Knob = (&'static str, fn(&mut CostModel));
    let knobs: [Knob; 8] = [
        ("process_wakeup", |m| m.process_wakeup = SimDuration::ZERO),
        ("context_switch", |m| m.context_switch = SimDuration::ZERO),
        ("socket_layer", |m| m.socket_layer = SimDuration::ZERO),
        ("syscall (trap)", |m| m.syscall = SimDuration::ZERO),
        ("softirq hop", |m| m.softirq = SimDuration::ZERO),
        ("copy per byte", |m| {
            m.copy_per_byte = SimDuration::ZERO;
            m.copy_fixed = SimDuration::ZERO;
        }),
        ("dispatch+guards", |m| {
            m.dispatch_raise = SimDuration::ZERO;
            m.dispatch_handler = SimDuration::ZERO;
            m.guard_eval = SimDuration::ZERO;
            m.demux_probe = SimDuration::ZERO;
        }),
        ("thread_spawn", |m| m.thread_spawn = SimDuration::ZERO),
    ];

    report.latency_us("baseline/plexus_interrupt", base_plexus);
    report.latency_us("baseline/dunix", base_dunix);
    let mut rows = Vec::new();
    for (name, zero) in knobs {
        let mut m = base.clone();
        zero(&mut m);
        let p = rtt_us(System::PlexusInterrupt, &m);
        let d = rtt_us(System::Dunix, &m);
        let key = name.replace([' ', '(', ')'], "_");
        report.latency_us(&format!("zeroed_{key}/plexus_interrupt"), p);
        report.latency_us(&format!("zeroed_{key}/dunix"), d);
        rows.push(vec![
            name.to_string(),
            format!("{p:.0}"),
            format!("{d:.0}"),
            format!("{:+.0}", p - base_plexus),
            format!("{:+.0}", d - base_dunix),
            format!("{:.0}", d - p),
        ]);
    }
    table::render(
        out,
        &[
            "cost zeroed",
            "Plexus (us)",
            "DUNIX (us)",
            "dPlexus",
            "dDUNIX",
            "remaining gap",
        ],
        &rows,
    );
    out.push_str(
        "Reading: zeroing a cost shrinks only the system that pays it. The\n\
         DUNIX gap decomposes into wakeups + context switches + socket layer +\n\
         traps + softirq (+copies at larger payloads); the dispatcher costs\n\
         Plexus adds are an order of magnitude smaller — the paper's argument\n\
         that graph dispatch is 'roughly one procedure call' per layer.\n",
    );

    report.count("rounds_per_cell", u64::from(ROUNDS));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt_us(system: System, link: &Link, rounds: u32) -> f64 {
        mean_us(&UdpRtt::new(system, link, 8, rounds).run())
    }

    #[test]
    fn orderings_match_figure_5() {
        for link in [Link::ethernet(), Link::atm(), Link::t3()] {
            let raw = rtt_us(System::RawDriver, &link, 5);
            let pi = rtt_us(System::PlexusInterrupt, &link, 5);
            let pt = rtt_us(System::PlexusThread, &link, 5);
            let du = rtt_us(System::Dunix, &link, 5);
            assert!(
                raw < pi && pi < pt && pt < du,
                "{}: raw={raw:.0} interrupt={pi:.0} thread={pt:.0} dunix={du:.0}",
                link.profile.name
            );
        }
    }

    #[test]
    fn plexus_interrupt_hits_the_paper_bands() {
        let eth = rtt_us(System::PlexusInterrupt, &Link::ethernet(), 10);
        let atm = rtt_us(System::PlexusInterrupt, &Link::atm(), 10);
        let t3 = rtt_us(System::PlexusInterrupt, &Link::t3(), 10);
        // Paper: <600 us Ethernet, ~350 us ATM, ~300 us T3 (±30%).
        assert!((420.0..660.0).contains(&eth), "ethernet {eth:.0} us");
        assert!((250.0..460.0).contains(&atm), "atm {atm:.0} us");
        assert!((210.0..390.0).contains(&t3), "t3 {t3:.0} us");
    }

    #[test]
    fn fast_drivers_hit_the_section_41_numbers() {
        let eth = rtt_us(System::PlexusInterrupt, &Link::ethernet_fast(), 10);
        let atm = rtt_us(System::PlexusInterrupt, &Link::atm_fast(), 10);
        // Paper: 337 us Ethernet, 241 us ATM (±30%).
        assert!((240.0..440.0).contains(&eth), "fast ethernet {eth:.0} us");
        assert!((170.0..320.0).contains(&atm), "fast atm {atm:.0} us");
    }
}
