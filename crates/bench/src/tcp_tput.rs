//! §4.2's experiment: TCP bulk-transfer throughput.
//!
//! Both systems run the same TCP over the same drivers. On Ethernet the
//! wire is the bottleneck and the two tie (the paper: 8.9 Mb/s). On the
//! PIO-limited Fore ATM the *receiving CPU* is the bottleneck, so the
//! monolithic stack's extra copies and crossings cost real bandwidth
//! (paper: 27.9 vs 33 Mb/s).

use std::cell::Cell;
use std::rc::Rc;

use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig, TcpCallbacks, TcpConn};
use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::domain::ExtensionSpec;
use plexus_kernel::AddressSpace;
use plexus_net::Testbed;
use plexus_sim::nic::{DriverConfig, Link};
use plexus_sim::time::SimDuration;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt::device_key;

/// The system under test (TCP throughput compares two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TputSystem {
    /// Plexus (interrupt-level graph).
    Plexus,
    /// The monolithic baseline.
    Dunix,
}

/// Chunk size the user-process sender writes per call (socket-buffer
/// sized, like ttcp).
const WRITE_CHUNK: usize = 16 * 1024;

/// Measures one bulk transfer of `bytes` and returns Mb/s of application
/// payload delivered (timed from first byte sent to last byte received).
pub(crate) fn tcp_throughput_mbps(system: TputSystem, link: &Link, bytes: usize) -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(link, 0, &["sender", "receiver"]);

    // The receiver, the same on both systems: count the bytes, note when
    // the last arrived, and close when the sender has.
    let received = Rc::new(Cell::new(0usize));
    let done_at = Rc::new(Cell::new(0u64));
    let (recvd, done) = (received.clone(), done_at.clone());
    let on_accept = move |_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>| {
        let (recvd, done) = (recvd.clone(), done.clone());
        conn.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(move |ctx, _, data| {
                recvd.set(recvd.get() + data.len());
                if recvd.get() >= bytes {
                    done.set(ctx.lease.now().as_nanos());
                }
            })),
            on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
            ..Default::default()
        });
    };

    // The in-kernel sender queues the whole clip at once (the data is
    // already in kernel buffers; the window paces the wire). The user ttcp
    // write loop makes one write(2) per chunk, each paying its trap +
    // copyin before the kernel queues it.
    let conn = match system {
        TputSystem::Plexus => {
            let sender = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
            let receiver = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
            let spec = ExtensionSpec::typesafe("ttcp", &["TCP.Listen", "TCP.Connect", "TCP.Send"]);
            let sext = sender.link_extension(&spec).unwrap();
            let rext = receiver.link_extension(&spec).unwrap();
            receiver.tcp().listen(&rext, 5001, on_accept).unwrap();
            let to = (receiver.ip(), 5001);
            sender.tcp().connect(&sext, world.engine_mut(), to).unwrap()
        }
        TputSystem::Dunix => {
            let sender = MonolithicStack::attach_host(&hosts[0]);
            let receiver = MonolithicStack::attach_host(&hosts[1]);
            let sproc = AddressSpace::new();
            let rproc = AddressSpace::new();
            receiver.tcp().listen(&rproc, 5001, on_accept);
            let to = (receiver.ip(), 5001);
            sender
                .tcp()
                .connect(world.engine_mut(), &sproc, to)
                .unwrap()
        }
    };
    let chunk = match system {
        TputSystem::Plexus => bytes,
        TputSystem::Dunix => WRITE_CHUNK,
    };
    let start_at = Rc::new(Cell::new(0u64));
    let st = start_at.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            st.set(ctx.lease.now().as_nanos());
            let mut remaining = bytes;
            while remaining > 0 {
                let n = chunk.min(remaining);
                conn.send_in(ctx, vec![0xAAu8; n]);
                remaining -= n;
            }
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(600));
    assert!(
        received.get() >= bytes,
        "transfer incomplete: {}",
        received.get()
    );
    let elapsed_ns = done_at.get() - start_at.get();
    bytes as f64 * 8.0 / (elapsed_ns as f64 / 1e9) / 1e6
}

/// The driver-to-driver ATM ceiling (§4: "unable to achieve greater than
/// 53 Mb/sec when transferring data reliably between two device drivers"):
/// stream MTU-sized frames with only interrupt + driver costs and measure
/// delivered bandwidth.
pub(crate) fn raw_driver_mbps(link: &Link, bytes: usize) -> f64 {
    // This harness pre-queues the whole transfer at t=0 (no transport to
    // pace it), so give the adapter an unbounded ring.
    let mut unbounded = link.clone();
    unbounded.profile.tx_ring_frames = usize::MAX;
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&unbounded, 0, &["sender", "receiver"]);
    let frame = link.profile.mtu.min(4096);
    let frames = bytes.div_ceil(frame);

    let received = Rc::new(Cell::new(0usize));
    let done_at = Rc::new(Cell::new(0u64));
    let rx_nic = hosts[1].nic.clone();
    let rx_cpu = hosts[1].machine.cpu().clone();
    let (recvd, done) = (received.clone(), done_at.clone());
    let rn = rx_nic.clone();
    rx_nic.attach(DriverConfig::per_frame(move |engine, f| {
        let mut lease = rx_cpu.begin(engine.now());
        lease.charge(lease.model().interrupt_entry);
        lease.charge(rn.profile().rx_cpu_cost(f.len()));
        lease.charge(lease.model().interrupt_exit);
        recvd.set(recvd.get() + f.len());
        if recvd.get() >= bytes {
            done.set(lease.now().as_nanos());
        }
    }));

    // Sender: a loop that queues the next frame as soon as the CPU is free
    // (stop-and-go on CPU, not on ACKs — "reliable" pacing is approximated
    // by never outrunning the receiver more than the wire allows).
    let tx_cpu = hosts[0].machine.cpu();
    let tx_nic = &hosts[0].nic;
    for _ in 0..frames {
        let mut lease = tx_cpu.begin(world.engine().now());
        lease.charge(tx_nic.profile().tx_cpu_cost(frame));
        let at = lease.finish();
        tx_nic.transmit(world.engine_mut(), at, &vec![0u8; frame][..]);
    }
    world.run();
    let elapsed_ns = done_at.get();
    assert!(elapsed_ns > 0, "nothing delivered");
    bytes as f64 * 8.0 / (elapsed_ns as f64 / 1e9) / 1e6
}

/// §4.2's throughput table, plus the ~53 Mb/s ATM driver-to-driver PIO
/// ceiling and the gigabit TSO ablation. T3 has no paper value (a DMA bug
/// blocked the measurement); we report our number for completeness.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    const BYTES: usize = 4_000_000;

    outln!(
        out,
        "Section 4.2: TCP throughput, {} MB transfer",
        BYTES / 1_000_000
    );
    outln!(out);

    let links = [
        ("Ethernet", Link::ethernet(), "8.9 / 8.9"),
        ("Fore ATM", Link::atm(), "33 / 27.9"),
        ("DEC T3", Link::t3(), "n/a (DMA bug)"),
    ];

    let mut rows = Vec::new();
    for (name, link, paper) in &links {
        let plexus = tcp_throughput_mbps(TputSystem::Plexus, link, BYTES);
        let dunix = tcp_throughput_mbps(TputSystem::Dunix, link, BYTES);
        let dev = device_key(name);
        report.scalar(&format!("{dev}/plexus"), plexus, "mbit_s");
        report.scalar(&format!("{dev}/dunix"), dunix, "mbit_s");
        rows.push(vec![
            name.to_string(),
            format!("{plexus:.1}"),
            format!("{dunix:.1}"),
            paper.to_string(),
        ]);
    }
    table::render(
        out,
        &[
            "device",
            "Plexus (Mb/s)",
            "DIGITAL UNIX (Mb/s)",
            "paper P/D",
        ],
        &rows,
    );

    let atm_raw = raw_driver_mbps(&Link::atm(), BYTES);
    outln!(
        out,
        "ATM driver-to-driver ceiling (PIO-limited): {atm_raw:.1} Mb/s (paper: ~53 Mb/s)"
    );

    // Beyond the paper: segmentation + checksum offload on the gigabit
    // profile. With TSO the transport hands the driver super-segments
    // (tso_segs * MSS) and the adapter checksums during the DMA gather;
    // without, every wire segment pays its own tcp_proc + software
    // checksum pass and the sending CPU becomes the bottleneck.
    const GIGA_BYTES: usize = 16_000_000;
    let giga = Link::gigabit();
    let mut no_offload = Link::gigabit();
    no_offload.profile.tso_segs = 1;
    no_offload.profile.checksum_offload = false;
    let tso = tcp_throughput_mbps(TputSystem::Plexus, &giga, GIGA_BYTES);
    let plain = tcp_throughput_mbps(TputSystem::Plexus, &no_offload, GIGA_BYTES);
    outln!(out);
    outln!(
        out,
        "Gigabit Ethernet, {} MB transfer (Plexus only):",
        GIGA_BYTES / 1_000_000
    );
    table::render(
        out,
        &["configuration", "Plexus (Mb/s)"],
        &[
            vec!["TSO + checksum offload".to_string(), format!("{tso:.1}")],
            vec!["no offload".to_string(), format!("{plain:.1}")],
        ],
    );
    report.scalar("gigabit/plexus_tso", tso, "mbit_s");
    report.scalar("gigabit/plexus_no_offload", plain, "mbit_s");

    report.scalar("fore_atm/raw_driver_ceiling", atm_raw, "mbit_s");
    report.count("transfer_bytes", BYTES as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1_000_000;

    #[test]
    fn ethernet_ties_near_wire_rate() {
        let p = tcp_throughput_mbps(TputSystem::Plexus, &Link::ethernet(), 2 * MB);
        let d = tcp_throughput_mbps(TputSystem::Dunix, &Link::ethernet(), 2 * MB);
        // Paper: 8.9 Mb/s for both.
        assert!((7.5..10.0).contains(&p), "plexus ethernet {p:.1} Mb/s");
        assert!((7.5..10.0).contains(&d), "dunix ethernet {d:.1} Mb/s");
        assert!(
            (p - d).abs() / p < 0.15,
            "should be nearly identical: {p:.1} vs {d:.1}"
        );
    }

    #[test]
    fn atm_is_cpu_bound_and_plexus_wins() {
        let raw = raw_driver_mbps(&Link::atm(), 4 * MB);
        let p = tcp_throughput_mbps(TputSystem::Plexus, &Link::atm(), 4 * MB);
        let d = tcp_throughput_mbps(TputSystem::Dunix, &Link::atm(), 4 * MB);
        // Paper: ~53 raw ceiling, 33 Plexus, 27.9 DUNIX.
        assert!((40.0..66.0).contains(&raw), "raw atm {raw:.1} Mb/s");
        assert!(p > d, "plexus ({p:.1}) must beat dunix ({d:.1}) on PIO ATM");
        assert!((24.0..45.0).contains(&p), "plexus atm {p:.1} Mb/s");
        assert!((18.0..36.0).contains(&d), "dunix atm {d:.1} Mb/s");
        assert!(
            p < raw && d < raw,
            "full stacks sit under the driver ceiling"
        );
    }
}
