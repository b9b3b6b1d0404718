//! Supplementary sweeps beyond the paper's figures:
//!
//! 1. **Payload sweep** — UDP RTT vs. payload size on each device,
//!    extending Figure 5 along the size axis (the paper reports only
//!    8-byte packets). Shows where wire time overtakes OS structure.
//! 2. **Guard scaling** — UDP RTT vs. number of endpoints bound on the
//!    receiving host, with the dispatcher's demux index on and off. Each
//!    endpoint is a guard on `Udp.PacketRecv`, so this is the
//!    packet-filter scaling question (Mogul/Rashid/Accetta, the paper's
//!    \[MRA87\]) asked of the Plexus dispatcher in simulated time — and
//!    the hash index's answer: a flat line.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt::{device_key, mean_us, paper_links, Link, System, UdpRtt};
use plexus_core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus_kernel::domain::ExtensionSpec;
use plexus_net::testbed::Testbed;
use plexus_net::udp::UdpConfig;

/// Both sweeps, payload first.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    payload_sweep(out, report);
    outln!(out);
    guard_scaling(out, report);
}

fn payload_sweep(out: &mut String, report: &mut BenchReport) {
    const ROUNDS: u32 = 20;
    out.push_str("Payload sweep: Plexus (interrupt) UDP RTT vs. payload size\n\n");
    let sizes = [8usize, 64, 256, 1024, 1400];
    let mut rows = Vec::new();
    for (name, link) in &paper_links() {
        let mut row = vec![name.to_string()];
        for size in sizes {
            let us = mean_us(&UdpRtt::new(System::PlexusInterrupt, link, size, ROUNDS).run());
            let dev = device_key(name);
            report.latency_us(&format!("payload_sweep/{dev}/{size:04}"), us);
            row.push(format!("{us:.0}"));
        }
        rows.push(row);
    }
    table::render(
        out,
        &["device", "8 B", "64 B", "256 B", "1024 B", "1400 B"],
        &rows,
    );
    out.push_str(
        "Ethernet grows fastest (10 Mb/s wire dominates); ATM pays PIO per byte;\n\
         T3 DMA is nearly flat until serialization shows.\n",
    );
}

/// RTT with `extra` additional endpoints bound on the echo server: each is
/// one more guard on `Udp.PacketRecv`. With `demux` off the dispatcher
/// walks every guard per datagram; with it on, the hash index probes once
/// and evaluates only the matching endpoint's guard. `compiled` selects
/// the guard tier on both hosts; simulated time charges the same static
/// cycle model either way, so the RTT must not depend on it.
fn rtt_with_endpoints(extra: usize, demux: bool, compiled: bool) -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["client", "server"]);
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    for stack in [&client, &server] {
        stack.dispatcher().set_demux_enabled(demux);
        stack.dispatcher().set_compiled_guards(compiled);
    }
    let spec = ExtensionSpec::typesafe("sweep", &["UDP.Bind", "UDP.Send"]);
    let cext = client.link_extension(&spec).unwrap();
    let sext = server.link_extension(&spec).unwrap();

    // The bystander endpoints: installed first, so the echo endpoint's
    // guard is evaluated last — worst case for the filter walk.
    for i in 0..extra {
        server
            .udp()
            .bind(
                &sext,
                10_000 + i as u16,
                UdpConfig::default(),
                AppHandler::interrupt(|_, _| {}),
            )
            .unwrap();
    }

    let echo_slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::default();
    let es = echo_slot.clone();
    let sep = server
        .udp()
        .bind(
            &sext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = es.get().expect("endpoint installed");
                let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
            }),
        )
        .unwrap();
    let _ = echo_slot.set(sep);

    let done: Rc<Cell<Option<u64>>> = Rc::default();
    let d = done.clone();
    let cep = client
        .udp()
        .bind(
            &cext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, _: &UdpRecv| {
                d.set(Some(ctx.lease.now().as_nanos()));
            }),
        )
        .unwrap();
    let t0 = world.engine().now().as_nanos();
    cep.send(world.engine_mut(), hosts[1].ip, 7, &[0u8; 8])
        .unwrap();
    world.run();
    (done.get().expect("reply") - t0) as f64 / 1000.0
}

fn guard_scaling(out: &mut String, report: &mut BenchReport) {
    out.push_str(
        "Guard scaling: Ethernet UDP RTT vs. guards on the server's Udp.PacketRecv\n\
         (MRA87's packet-filter scaling question, linear walk vs. hash demux)\n\n",
    );
    let mut rows = Vec::new();
    let mut base_linear = 0.0;
    let mut base_indexed = 0.0;
    for (i, extra) in [0usize, 3, 15, 63, 255].into_iter().enumerate() {
        let guards = extra + 1; // bystanders + the echo endpoint itself
        let linear = rtt_with_endpoints(extra, false, true);
        let indexed = rtt_with_endpoints(extra, true, true);
        // The interpreted tier must land on the identical simulated RTT:
        // tier selection changes host time, never the charged model.
        let linear_interp = rtt_with_endpoints(extra, false, false);
        let indexed_interp = rtt_with_endpoints(extra, true, false);
        assert_eq!(
            (linear, indexed),
            (linear_interp, indexed_interp),
            "guard tier must not change simulated time ({guards} guards)"
        );
        if i == 0 {
            base_linear = linear;
            base_indexed = indexed;
        }
        for (mode, us) in [
            ("linear", linear),
            ("indexed", indexed),
            ("linear_interp", linear_interp),
            ("indexed_interp", indexed_interp),
        ] {
            let name = format!("guard_scaling/{mode}/guards_{guards:03}");
            report.latency_us(&name, us);
        }
        rows.push(vec![
            guards.to_string(),
            format!("{linear:.1}"),
            format!("{:+.1}", linear - base_linear),
            format!("{indexed:.1}"),
            format!("{:+.1}", indexed - base_indexed),
        ]);
    }
    table::render(
        out,
        &[
            "guards",
            "linear RTT (us)",
            "delta",
            "indexed RTT (us)",
            "delta",
        ],
        &rows,
    );
    out.push_str(
        "The linear walk grows at ~0.3 us per guard; the hash index probes\n\
         once per raise and stays flat no matter how many endpoints bind\n\
         (DESIGN.md §8.5). Compiled and interpreted guard tiers land on\n\
         identical simulated RTTs: the tier only changes host time\n\
         (DESIGN.md §8.3).\n",
    );
}
