//! End-to-end invariants of the scatter-gather transmit path (DESIGN.md
//! §11).
//!
//! The transmit-side redesign — chains handed to the adapter unflattened,
//! doorbell-batched submission, checksum offload — is pure mechanism: it
//! may change *when* the driver CPU runs and *who* computes the checksum,
//! but never the bytes that cross the wire. These tests pin that down at
//! the stack level:
//!
//! 1. (property) echoing arbitrary payload mixes with the checksum left
//!    to the adapter and with it computed in software puts byte-identical
//!    frames on the Medium, with the same frame counts;
//! 2. (property) doorbell-batched submission is wire-invisible too, and
//!    strictly reduces doorbell rings;
//! 3. checksum offload produces exactly the checksum software would have:
//!    captured frames verify against the pseudo-header sum and match the
//!    software-checksum run byte for byte;
//! 4. the steady-state echo send path allocates no fresh cluster storage;
//! 5. at 4x offered load on the gigabit profile, doorbell-batched SG
//!    with offload beats software checksums + per-frame submit by >= 25%
//!    saturated goodput (also pinned by the committed
//!    `BENCH_tx_overload.json` golden).

// The proptest! blocks below expand deeply enough to trip the default
// recursion limit.
#![recursion_limit = "256"]

use std::cell::OnceCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus::kernel::domain::ExtensionSpec;
use plexus::net::checksum::{verify_checksum, Checksum};
use plexus::net::ip::proto;
use plexus::net::mbuf::{cluster_pool_stats, reset_cluster_pool};
use plexus::net::udp::UdpConfig;
use plexus::net::Testbed;
use plexus::sim::nic::{Link, NicProfile, NicStats};
use plexus::sim::time::{SimDuration, SimTime};
use plexus_bench::{build_frame, Overload, RxMode, TxMode, Workload};
use proptest::prelude::*;

const GEN: usize = 0;
const DUT: usize = 1;
/// Ethernet (14) + IPv4 (20) + UDP (8) headers precede the payload.
const PAYLOAD_OFF: usize = 42;

struct TxWorld {
    tb: Testbed,
    /// Keeps the stack (and its handlers) alive for the run.
    _stack: Rc<PlexusStack>,
}

impl TxWorld {
    /// Schedules one `payload`-byte generator→DUT datagram at `at`, its
    /// first eight payload bytes carrying `k`.
    fn offer(&mut self, at: SimDuration, payload: usize, k: u64) {
        let hosts = &self.tb.hosts;
        let gn = hosts[GEN].nic.clone();
        let mut frame = build_frame(&hosts[GEN], &hosts[DUT], payload);
        frame[PAYLOAD_OFF..PAYLOAD_OFF + 8].copy_from_slice(&k.to_be_bytes());
        self.tb
            .world
            .engine_mut()
            .schedule_at(SimTime::ZERO + at, move |engine| {
                let now = engine.now();
                gn.transmit(engine, now, &frame[..]);
            });
    }
}

/// Builds a generator→DUT world on `profile`; the DUT binds UDP port 7
/// and echoes every datagram back to its sender, re-sharing the received
/// chain (so multi-cluster payloads exercise the gather path).
fn tx_world(profile: NicProfile, shape: impl FnOnce(StackConfig) -> StackConfig) -> TxWorld {
    let link = Link {
        profile,
        ..Link::gigabit()
    };
    let tb = Testbed::new(&link, 77, &["generator", "dut"]);
    let stack = PlexusStack::attach_host(&tb.hosts[DUT], |ip, mac| {
        shape(StackConfig::interrupt(ip, mac))
    });

    let spec = ExtensionSpec::typesafe("txpath-test", &["UDP.Bind", "UDP.Send"]);
    let ext = stack.link_extension(&spec).unwrap();
    let slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::default();
    let sl = slot.clone();
    let recv = move |ctx: &mut plexus::kernel::RaiseCtx<'_>, ev: &UdpRecv| {
        let ep = sl.get().expect("endpoint installed");
        let _ = ep.send_mbuf_in(ctx, ev.src, ev.src_port, ev.payload.share());
    };
    let ep = stack
        .udp()
        .bind(&ext, 7, UdpConfig::default(), AppHandler::interrupt(recv))
        .unwrap();
    let _ = slot.set(ep);

    TxWorld { tb, _stack: stack }
}

/// Echoes one datagram per entry of `payload_lens` (spaced far enough
/// apart that nothing queues or sheds) and returns the wire bytes of
/// every frame the DUT transmitted, plus its NIC counters.
fn run_echoes(
    profile: NicProfile,
    shape: impl FnOnce(StackConfig) -> StackConfig,
    payload_lens: &[usize],
) -> (Vec<Vec<u8>>, NicStats) {
    let mut tw = tx_world(profile, shape);
    tw.tb.medium.start_capture();
    for (k, &len) in payload_lens.iter().enumerate() {
        // Distinguishable payloads, so identical captures prove ordering.
        tw.offer(
            SimDuration::from_micros(200 * k as u64),
            len.max(8),
            k as u64,
        );
    }
    tw.tb.world.run_for(SimDuration::from_micros(
        200 * payload_lens.len() as u64 + 10_000,
    ));
    let dut_mac = tw.tb.hosts[DUT].mac.0;
    let dut_frames: Vec<Vec<u8>> = tw
        .tb
        .medium
        .stop_capture()
        .into_iter()
        .filter(|c| c.bytes[6..12] == dut_mac)
        .map(|c| c.bytes)
        .collect();
    (dut_frames, tw.tb.hosts[DUT].nic.stats())
}

// Offload vs software checksums: the wire cannot tell them apart. Same
// frames, same bytes, same order, same counts; the only difference is who
// computed the checksum.
//
// Doorbell batching is wire-invisible too: same bytes in the same order
// as per-frame submission, never more doorbell rings.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn offloaded_and_software_checksums_put_identical_bytes_on_the_wire(
        payload_lens in proptest::collection::vec(8usize..=1400, 1..6),
    ) {
        let mut no_offload = NicProfile::gigabit();
        no_offload.checksum_offload = false;
        let (hw, hw_stats) = run_echoes(NicProfile::gigabit(), |c| c, &payload_lens);
        let (sw, sw_stats) = run_echoes(no_offload, |c| c, &payload_lens);
        prop_assert_eq!(hw.len(), payload_lens.len(), "offload path dropped echoes");
        prop_assert_eq!(&hw, &sw, "offload changed the wire bytes");
        prop_assert_eq!(hw_stats.tx_frames, sw_stats.tx_frames);
        prop_assert_eq!(hw_stats.tx_wire_bytes, sw_stats.tx_wire_bytes);
        prop_assert_eq!(hw_stats.rx_frames, sw_stats.rx_frames);
        prop_assert_eq!(
            hw_stats.tx_csum_offloads,
            payload_lens.len() as u64,
            "every echo should defer its checksum to the adapter"
        );
        prop_assert_eq!(sw_stats.tx_csum_offloads, 0);
    }

    #[test]
    fn doorbell_batching_is_wire_invisible(
        payload_lens in proptest::collection::vec(8usize..=1400, 1..6),
    ) {
        let (pf, pf_stats) = run_echoes(NicProfile::gigabit(), |c| c, &payload_lens);
        let (db, db_stats) =
            run_echoes(NicProfile::gigabit(), |c| c.doorbell_tx(), &payload_lens);
        prop_assert_eq!(&pf, &db, "doorbell submission changed the wire bytes");
        prop_assert_eq!(pf_stats.tx_frames, db_stats.tx_frames);
        prop_assert!(
            db_stats.tx_doorbells <= db_stats.tx_frames,
            "{} doorbells for {} frames",
            db_stats.tx_doorbells,
            db_stats.tx_frames
        );
        prop_assert_eq!(pf_stats.tx_doorbells, 0, "per-frame mode rings no doorbells");
    }
}

/// The pseudo-header partial for a UDP segment, as a receiver would seed
/// it before summing the transport region.
fn udp_pseudo(src: Ipv4Addr, dst: Ipv4Addr, udp_len: usize) -> u32 {
    let mut c = Checksum::new();
    c.add(&src.octets())
        .add(&dst.octets())
        .add(&[0, proto::UDP])
        .add(&(udp_len as u16).to_be_bytes());
    c.partial()
}

/// The adapter's checksum is the checksum: every offloaded frame
/// verifies against the pseudo-header sum, and disabling offload on an
/// otherwise identical profile reproduces the same bytes in software.
#[test]
fn offloaded_checksums_verify_and_match_software() {
    let lens = [8usize, 100, 700, 1400];
    let mut no_offload = NicProfile::gigabit();
    no_offload.checksum_offload = false;
    let (hw, hw_stats) = run_echoes(NicProfile::gigabit(), |c| c, &lens);
    let (sw, sw_stats) = run_echoes(no_offload, |c| c, &lens);

    assert_eq!(hw, sw, "offload changed the wire bytes");
    assert_eq!(hw_stats.tx_csum_offloads, lens.len() as u64);
    assert_eq!(sw_stats.tx_csum_offloads, 0);
    for frame in &hw {
        // Ethernet 14 + IPv4 20 = transport region offset; the IPv4
        // header ends with the source and destination addresses.
        let addr = |at: usize| Ipv4Addr::from(<[u8; 4]>::try_from(&frame[at..at + 4]).unwrap());
        let (src, dst) = (addr(26), addr(30));
        let udp = &frame[34..];
        let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
        let check = u16::from_be_bytes([udp[6], udp[7]]);
        assert_ne!(check, 0, "echoes carry a real checksum");
        assert!(
            verify_checksum(&udp[..udp_len], udp_pseudo(src, dst, udp_len)),
            "offloaded checksum failed verification"
        );
    }
}

/// After warmup, the echo send path recycles pooled clusters: no fresh
/// cluster storage is allocated in steady state.
#[test]
fn steady_state_echo_send_path_allocates_no_fresh_clusters() {
    let mut tw = tx_world(NicProfile::gigabit(), |c| c.doorbell_tx());
    reset_cluster_pool();
    let send = |tw: &mut TxWorld, base: u64, n: u64| {
        for k in base..base + n {
            tw.offer(SimDuration::from_micros(200 * k), 512, 0);
        }
    };
    send(&mut tw, 0, 8);
    tw.tb
        .world
        .run_for(SimDuration::from_micros(200 * 8 + 5_000));
    let before = cluster_pool_stats();

    send(&mut tw, 100, 32);
    tw.tb
        .world
        .run_for(SimDuration::from_micros(200 * 140 + 5_000));
    let after = cluster_pool_stats();

    assert_eq!(
        tw.tb.hosts[DUT].nic.stats().tx_frames,
        40,
        "echoes went missing"
    );
    assert_eq!(
        after.allocated + after.unpooled,
        before.allocated + before.unpooled,
        "steady-state echoes allocated fresh cluster storage"
    );
    assert!(after.reused > before.reused, "pool saw no reuse");
}

/// The headline number: at 4x offered load on the 1 Gb/s profile, the
/// doorbell-batched scatter-gather path sustains >= 25% more goodput
/// than software checksums + per-frame submission ([`TxMode::Flattened`],
/// what flattening each frame first cost). The exact figures are pinned in
/// `results/BENCH_tx_overload.json`; this is the invariant behind them.
#[test]
fn doorbell_sg_beats_flattened_tx_by_a_quarter_at_4x_load() {
    let link = Link::gigabit();
    let point = |tx| {
        Overload {
            tx,
            ..Overload::new(Workload::UdpEcho, RxMode::Coalesced, &link, (4, 1))
        }
        .run()
    };
    let flat = point(TxMode::Flattened);
    let sgdb = point(TxMode::Doorbell);
    assert!(
        sgdb.goodput_pps >= 1.25 * flat.goodput_pps,
        "doorbell SG {} pps vs flattened {} pps — under the 25% bar",
        sgdb.goodput_pps,
        flat.goodput_pps
    );
    assert!(
        sgdb.tx_doorbells * 8 < sgdb.dut_tx_frames,
        "doorbells not amortized: {} rings for {} frames",
        sgdb.tx_doorbells,
        sgdb.dut_tx_frames
    );
}
