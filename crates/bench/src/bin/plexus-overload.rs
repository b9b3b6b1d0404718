//! Overload/throughput sweep: open-loop UDP load from 0.1x to 4x of line
//! rate against the per-packet and coalesced receive paths, for a UDP
//! echo server and the §5.2 in-kernel UDP forwarder.
//!
//! Per load point: goodput, latency percentiles, and a drop-cause
//! breakdown (generator tx-ring shed, DUT rx-ring shed, no-handler).
//!
//! Run with `cargo run -p plexus-bench --bin plexus-overload`.

use plexus_bench::overload::{
    LoadPoint, Overload, RxMode, TxMode, Workload, FACTORS, FANOUT, MEASURE, PAYLOAD,
};
use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;
use plexus_bench::udp_rtt::Link;
use plexus_trace::timeline::percentile;

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

fn add_point(report: &mut BenchReport, w: Workload, m: RxMode, p: &LoadPoint) {
    add_point_keyed(report, &format!("{}.{}.{}", w.key(), m.key(), p.label()), p);
}

fn add_point_keyed(report: &mut BenchReport, key: &str, p: &LoadPoint) {
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

fn render(points: &[LoadPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label(),
                p.sent.to_string(),
                format!("{:.0}", p.goodput_pps),
                format!("{:.0}", percentile_us(&p.latency_ns, 50.0)),
                format!("{:.0}", percentile_us(&p.latency_ns, 99.0)),
                p.gen_tx_ring_drops.to_string(),
                p.rx_ring_drops.to_string(),
                format!("{:.1}", p.frames_per_interrupt()),
                p.rx_ring_highwater.to_string(),
            ]
        })
        .collect();
    table::render(
        &[
            "load",
            "offered",
            "goodput/s",
            "p50 (us)",
            "p99 (us)",
            "tx shed",
            "rx shed",
            "frm/irq",
            "ring hi",
        ],
        &rows,
    )
}

fn render_tx(points: &[LoadPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label(),
                p.sent.to_string(),
                format!("{:.0}", p.goodput_pps),
                format!("{:.0}", percentile_us(&p.latency_ns, 50.0)),
                format!("{:.0}", percentile_us(&p.latency_ns, 99.0)),
                p.dut_tx_frames.to_string(),
                p.tx_doorbells.to_string(),
                p.rx_ring_drops.to_string(),
            ]
        })
        .collect();
    table::render(
        &[
            "load",
            "offered",
            "goodput/s",
            "p50 (us)",
            "p99 (us)",
            "dut tx",
            "doorbells",
            "rx shed",
        ],
        &rows,
    )
}

fn tx_main() {
    let link = Link::gigabit();
    println!(
        "Transmit-path sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    println!();

    let mut report = BenchReport::new("tx_overload");
    for workload in [Workload::UdpEcho, Workload::UdpFanout] {
        let what = match workload {
            Workload::UdpEcho => "UDP echo storm (round trip at generator)".to_string(),
            Workload::UdpFanout => format!("UDP fan-out x{FANOUT} (each copy scored)"),
            Workload::UdpForward => unreachable!(),
        };
        for tx in [TxMode::Flattened, TxMode::Doorbell] {
            let how = match tx {
                TxMode::Flattened => "flatten + per-frame submit",
                TxMode::PerFrame => "scatter-gather, per-frame submit",
                TxMode::Doorbell => "scatter-gather, doorbell-batched",
            };
            println!("{what} — {how}:");
            let points = sweep(workload, RxMode::Coalesced, tx, &link);
            println!("{}", render_tx(&points));
            for p in &points {
                let key = format!("{}.{}.{}", workload.key(), tx.key(), p.label());
                add_point_keyed(&mut report, &key, p);
            }
        }
    }
    println!("Both configurations put identical bytes on the wire; the difference is");
    println!("where the transmit CPU goes. The flattened path copies every chain into");
    println!("a contiguous buffer and pays the full driver fixed cost per frame. The");
    println!("doorbell path serializes the chain in place and, while the adapter is");
    println!("draining, queues follow-up frames for the cost of a descriptor write —");
    println!("one fixed charge per doorbell instead of per frame — so the saturated");
    println!("goodput ceiling sits well above the per-frame path's.");

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
    report.count("fanout_copies", FANOUT as u64);
    report::emit(&report);
}

fn main() {
    if std::env::args().any(|a| a == "--tx") {
        tx_main();
        return;
    }
    let link = Link::t3();
    println!(
        "Overload sweep: {} B UDP payload over {}, {} ms window per point",
        PAYLOAD,
        link.profile.name,
        MEASURE.as_micros() / 1000
    );
    println!();

    let mut report = BenchReport::new("overload");
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
            println!("{what} — {how}:");
            let points = sweep(workload, mode, TxMode::default(), &link);
            println!("{}", render(&points));
            for p in &points {
                add_point(&mut report, workload, mode, p);
            }
        }
    }
    println!("The per-packet path pays the full driver fixed cost and interrupt");
    println!("entry/exit per frame and queues its backlog on the CPU without bound:");
    println!("past saturation the p99 stretches toward the whole measurement window.");
    println!("The coalesced path amortizes those costs across each drained batch and");
    println!("sheds overload at the bounded rx ring, so goodput rises and the p99");
    println!("stays within ring-depth service times.");

    report.count("payload_bytes", PAYLOAD as u64);
    report.count("measure_window_us", MEASURE.as_micros());
    report::emit(&report);
}
