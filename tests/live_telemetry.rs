//! Scenario-level guarantees of the streaming telemetry tier (DESIGN.md
//! §9): on a truncation-free run the live windows are *value-identical*
//! to the post-hoc timeline fold; on a ring-wrap run the live tier keeps
//! full-fidelity windows and sampled journeys while the post-hoc
//! exporters report truncation; and the per-cell SLO gate that
//! `plexus-bench --emit health` exposes actually flips on a tightened threshold.

use std::rc::Rc;

use plexus::trace::journey;
use plexus::trace::live::{live_json, LiveConfig, ScopeCounters, Slo};
use plexus::trace::profile::Profile;
use plexus::trace::timeline;
use plexus::trace::{json, Recorder};
use plexus_bench::udp_rtt::{Link, System, UdpRtt};
use plexus_bench::Cell;

const WINDOW_NS: u64 = 1_000_000;

/// Replays the udp_rtt ping-pong with the live tier on at the given ring
/// capacity. The live configuration is identical across capacities — the
/// streaming tier never touches the ring, so its output must not depend
/// on it.
fn traced_with_ring(ring: usize) -> Rc<Recorder> {
    let rec = Recorder::new(ring);
    rec.enable_live(LiveConfig::new(WINDOW_NS));
    UdpRtt {
        recorder: Some(&rec),
        ..UdpRtt::new(System::PlexusInterrupt, &Link::ethernet(), 8, 20)
    }
    .run();
    rec
}

#[test]
fn live_windows_match_posthoc_timeline_on_a_full_scenario() {
    let cell = plexus_bench::cell("fig5_udp_latency/udp_rtt").expect("registered cell");
    let rec = cell.run();
    let live = rec.live_report().expect("cell runs enable live");
    assert_eq!(rec.overwritten(), 0, "the cell's ring must capture the run");
    assert_eq!(live.late_records, 0, "monotone feed is never late");

    let tl = timeline::build(&rec, cell.window_ns);
    assert_eq!(tl.truncated_records, 0);
    assert_eq!(
        live.windows, tl.windows,
        "live must equal the post-hoc fold"
    );

    // Machine scopes carry the two hosts of the ping-pong, and the
    // roll-up invariant holds at scenario scale.
    let names: Vec<&str> = live.machines.iter().map(|(n, _)| &**n).collect();
    assert_eq!(names, ["client", "server"]);
    let mut sum = ScopeCounters::default();
    for (_, m) in &live.machines {
        sum.add(&m.counters);
    }
    sum.add(&live.unattributed.counters);
    assert_eq!(sum, live.world.counters);

    json::validate(&live_json(&live, 4)).expect("live JSON well-formed");
}

#[test]
fn ring_wrap_leaves_live_correct_while_posthoc_reports_truncation() {
    // Same scenario, same live configuration, two ring capacities: one
    // that holds the whole run and one that wraps hard.
    let full = traced_with_ring(1 << 16);
    let tiny = traced_with_ring(64);
    assert_eq!(full.overwritten(), 0);
    assert!(tiny.overwritten() > 0, "a 64-slot ring must wrap");

    // The post-hoc exporters on the tiny ring see only the tail and say
    // so: the timeline reports truncation and under-counts arrivals, and
    // the journey ledger surfaces journeys it can no longer reconstruct.
    let tl_full = timeline::build(&full, WINDOW_NS);
    let tl_tiny = timeline::build(&tiny, WINDOW_NS);
    assert_eq!(tl_full.truncated_records, 0);
    assert!(tl_tiny.truncated_records > 0);
    let arrivals = |t: &timeline::Timeline| t.windows.iter().map(|w| w.arrivals).sum::<u64>();
    assert!(
        arrivals(&tl_tiny) < arrivals(&tl_full),
        "truncated fold must under-report ({} >= {})",
        arrivals(&tl_tiny),
        arrivals(&tl_full)
    );
    let profile_full = Profile::build(&full);
    let jo_full = journey::build(&profile_full);
    let profile_tiny = Profile::build(&tiny);
    let jo_tiny = journey::build(&profile_tiny);
    assert!(
        jo_tiny.journeys.len() < jo_full.journeys.len()
            || jo_tiny.journeys_truncated > 0
            || jo_tiny.orphan_packets > 0,
        "post-hoc journeys must lose fidelity on the tiny ring"
    );

    // The live tier fed every record at recording time, before the ring
    // could overwrite anything: its report is byte-identical across ring
    // capacities — windows, scopes, AND the sampled journey payloads,
    // which carry records the tiny ring has long since overwritten.
    let live_full = full.live_report().expect("live enabled");
    let live_tiny = tiny.live_report().expect("live enabled");
    assert_eq!(live_tiny.windows, live_full.windows);
    assert_eq!(live_full.windows, tl_full.windows);
    assert!(
        !live_tiny.sampled.is_empty(),
        "1-in-64 sampling saw journeys"
    );
    assert_eq!(live_json(&live_tiny, 64), live_json(&live_full, 64));

    // Concretely: at least one retained sampled record predates the
    // oldest record still in the tiny ring.
    let oldest_surviving = tiny
        .events()
        .first()
        .map(|r| r.at_ns)
        .expect("ring holds the tail of the run");
    let earliest_sampled = live_tiny
        .records
        .iter()
        .map(|r| r.at_ns)
        .min()
        .expect("sampled journeys carry records");
    assert!(
        earliest_sampled < oldest_surviving,
        "sampled record at {earliest_sampled} ns should predate the ring tail \
         at {oldest_surviving} ns"
    );
}

#[test]
fn declared_slos_pass_and_tightened_slos_breach() {
    let cell = plexus_bench::cell("fig5_udp_latency/udp_rtt").expect("registered cell");

    // The committed envelope holds.
    let rec = cell.run();
    let live = rec.live_report().expect("live enabled");
    assert!(
        live.breaches.is_empty(),
        "declared SLO must pass: {:?}",
        live.breaches
    );
    assert!(live.windows_sealed_online > 0);

    // A deliberately absurd ceiling flips every completing window — the
    // negative path the health gate relies on.
    let slo = Slo {
        p99_ceiling_ns: Some(1),
        ..cell.slo.clone()
    };
    let rec = Cell {
        slo,
        ..cell.clone()
    }
    .run();
    let live = rec.live_report().expect("live enabled");
    assert!(
        !live.breaches.is_empty(),
        "a 1 ns p99 ceiling must breach on a completing scenario"
    );
}

#[test]
fn livelocked_overload_self_reports_late_records() {
    // The per-packet overload point livelocks by design: its unbounded
    // CPU-lease backlog outruns any fixed seal lag, so records land in
    // already-sealed windows. The live tier must *say so* (late_records)
    // rather than silently degrade, and the declared goodput floor must
    // flag the collapse.
    let cell = plexus_bench::cell("overload/overload").expect("registered cell");
    let rec = cell.run();
    let live = rec.live_report().expect("live enabled");
    assert!(
        live.late_records > 0,
        "livelock must overrun the seal watermark"
    );
    assert!(
        live.breaches
            .iter()
            .any(|b| b.kind == plexus::trace::live::BreachKind::GoodputFloor),
        "overload is the by-design breaching scenario"
    );
}
