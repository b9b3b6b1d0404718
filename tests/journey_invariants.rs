//! End-to-end invariants of the cross-machine journey reconstruction
//! (`trace::journey`) and the windowed timeline (`trace::timeline`),
//! mirroring `profile_invariants.rs` one level up: the profiler proves
//! per-packet attribution on one machine, these tests prove per-journey
//! attribution across machines.
//!
//! The load-bearing properties:
//!
//! 1. **Journey telescoping** — every journey's waterfall segments sum to
//!    its measured end-to-end time *exactly*: zero unattributed
//!    nanoseconds between the origin handover and the final hop's last
//!    record.
//! 2. **Named hops** — every segment is a named wire phase
//!    (`src->dst.wire.*`), rx-queue wait (`machine.rx_queue`), or
//!    processing slice (`machine.layer.domain`) whose machines are real
//!    machines of the world.
//! 3. **Timeline conservation** — folding the ring into windows loses no
//!    events: per-window counts sum to whole-run counts, and windows are
//!    dense from simulated time zero.

use std::rc::Rc;

use plexus::trace::journey::{self, Journeys};
use plexus::trace::profile::Profile;
use plexus::trace::timeline;
use plexus::trace::{Recorder, TraceEvent};
use plexus_bench::cell;

/// The round trips of the `fig5_udp_latency` cells.
const ROUNDS: u32 = 20;

/// Replays the registered cell `FIGURE/CELL`.
fn replay(path: &str) -> Rc<Recorder> {
    cell(path).expect("a registered cell").run()
}

/// A segment name is fully attributed when every machine it names is a
/// real machine of the world ("origin" stands for a transmit recorded
/// outside any packet window, e.g. an app's first send from timer
/// context).
fn segment_is_named(name: &str, machines: &[&str]) -> bool {
    let known = |m: &str| m == "origin" || machines.contains(&m);
    if let Some((src, rest)) = name.split_once("->") {
        let mut parts = rest.splitn(3, '.');
        let dst = parts.next().unwrap_or("");
        return known(src)
            && known(dst)
            && parts.next() == Some("wire")
            && matches!(parts.next(), Some("wait" | "serialize" | "propagate"));
    }
    match name.split_once('.') {
        Some((machine, "rx_queue")) => known(machine),
        // "{machine}.{layer}.{domain}"
        Some((machine, layer_domain)) => known(machine) && layer_domain.contains('.'),
        None => false,
    }
}

/// The shared invariant battery for one reconstructed run.
fn check_journeys(js: &Journeys, machines: &[&str], label: &str) {
    assert!(
        !js.journeys.is_empty(),
        "{label}: no journeys reconstructed"
    );
    assert_eq!(js.orphan_packets, 0, "{label}: ring must not wrap");
    for j in &js.journeys {
        assert!(
            !js.chain(j).is_empty(),
            "{label}: journey {} has no chain",
            j.journey
        );
        let segment_sum: u64 = js.segments(j).iter().map(|s| s.ns).sum();
        assert_eq!(
            segment_sum,
            j.end_to_end_ns,
            "{label}: journey {}: segments must sum to the end-to-end time \
             exactly (zero unattributed ns); segments: {:?}",
            j.journey,
            js.segments(j)
        );
        assert_eq!(j.end_to_end_ns, j.end_ns - j.start_ns);
        for s in js.segments(j) {
            assert!(
                segment_is_named(&s.name, machines),
                "{label}: journey {}: segment {:?} names no known machine",
                j.journey,
                s.name
            );
        }
        let mut last_arrival = 0;
        for h in js.chain(j) {
            assert!(
                machines.contains(&&*h.machine),
                "{label}: journey {}: hop on unknown machine {:?}",
                j.journey,
                h.machine
            );
            assert!(
                h.arrival_ns >= last_arrival,
                "{label}: journey {}: hops out of order",
                j.journey
            );
            last_arrival = h.arrival_ns;
            assert!(h.arrival_ns >= j.start_ns && h.arrival_ns <= j.end_ns);
        }
    }
}

#[test]
fn udp_rtt_journeys_telescope_in_both_delivery_modes() {
    for label in ["udp_rtt", "udp_rtt_thread"] {
        let recorder = replay(&format!("fig5_udp_latency/{label}"));
        let profile = Profile::build(&recorder);
        let js = journey::build(&profile);
        check_journeys(&js, &["client", "server"], label);
        // One journey per round: the pong handler breaks the chain, so
        // each request/reply pair is its own ledger with hops on both
        // machines.
        assert_eq!(js.journeys.len(), ROUNDS as usize);
        for j in &js.journeys {
            assert!(
                js.chain(j).iter().any(|h| &*h.machine == "server")
                    && js.chain(j).iter().any(|h| &*h.machine == "client"),
                "{label}: journey {} must cross both machines",
                j.journey
            );
        }
    }
}

#[test]
fn fig7_forwarding_journeys_cross_three_machines() {
    let recorder = replay("fig7_forwarding/fig7_forwarding");
    let profile = Profile::build(&recorder);
    let js = journey::build(&profile);
    let machines = ["client", "fwd", "backend"];
    check_journeys(&js, &machines, "fig7_forwarding");
    assert_eq!(js.journeys.len(), 5, "one journey per request round");
    // The acceptance bar for the waterfall: every journey visits all
    // three machines — the forwarder hop is part of the ledger, not
    // folded into wire time.
    for j in &js.journeys {
        for m in machines {
            assert!(
                js.chain(j).iter().any(|h| &*h.machine == m),
                "journey {} never hops on {m}",
                j.journey
            );
        }
    }
}

#[test]
fn overload_journeys_telescope_on_both_rx_paths() {
    for label in ["overload", "overload_coalesced"] {
        let recorder = replay(&format!("overload/{label}"));
        let profile = Profile::build(&recorder);
        let js = journey::build(&profile);
        check_journeys(&js, &["generator", "dut", "backend"], label);
        // Echo traffic: every journey's first hop lands on the DUT.
        assert!(js
            .journeys
            .iter()
            .all(|j| js.chain(j).first().is_some_and(|h| &*h.machine == "dut")));
    }
}

#[test]
fn timeline_windows_conserve_event_counts() {
    let recorder = replay("fig5_udp_latency/udp_rtt");
    let t = timeline::build(&recorder, 1_000_000);
    assert_eq!(t.truncated_records, 0);
    for (i, w) in t.windows.iter().enumerate() {
        assert_eq!(w.index, i as u64, "windows dense from time zero");
    }

    let mut arrivals = 0u64;
    let mut txs = 0u64;
    let mut completions = 0u64;
    let mut drops = 0u64;
    let mut interrupts = 0u64;
    for r in &recorder.events() {
        match r.event {
            TraceEvent::PacketArrival { .. } => arrivals += 1,
            TraceEvent::PacketTx { .. } => txs += 1,
            TraceEvent::LatencySample { .. } => completions += 1,
            TraceEvent::Drop { .. } => drops += 1,
            TraceEvent::RxInterrupt { .. } => interrupts += 1,
            _ => {}
        }
    }
    assert_eq!(t.windows.iter().map(|w| w.arrivals).sum::<u64>(), arrivals);
    assert_eq!(t.windows.iter().map(|w| w.tx_frames).sum::<u64>(), txs);
    assert_eq!(
        t.windows.iter().map(|w| w.completions).sum::<u64>(),
        completions
    );
    assert_eq!(
        completions,
        u64::from(ROUNDS),
        "one latency sample per round trip"
    );
    assert_eq!(t.windows.iter().map(|w| w.drop_count()).sum::<u64>(), drops);
    assert_eq!(
        t.windows.iter().map(|w| w.interrupts).sum::<u64>(),
        interrupts
    );
    assert!(interrupts > 0, "rx interrupts must be recorded");
}

#[test]
fn window_width_only_rebuckets_never_loses() {
    let recorder = replay("fig5_udp_latency/udp_rtt");
    let coarse = timeline::build(&recorder, 10_000_000);
    let fine = timeline::build(&recorder, 100_000);
    for get in [
        |w: &timeline::Window| w.arrivals,
        |w: &timeline::Window| w.tx_frames,
        |w: &timeline::Window| w.completions,
        |w: &timeline::Window| w.drop_count(),
    ] {
        assert_eq!(
            coarse.windows.iter().map(get).sum::<u64>(),
            fine.windows.iter().map(get).sum::<u64>()
        );
    }
}
