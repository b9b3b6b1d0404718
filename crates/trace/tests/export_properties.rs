//! Property tests for the exporters: whatever mix of events, counters,
//! and histogram observations lands in a recorder, every emitted document
//! (chrome trace, stats, profile JSON, folded stacks) must stay
//! well-formed and internally consistent — including saturating-counter
//! extremes, log2-histogram edge buckets, interned-label reuse, and the
//! empty recorder.

use plexus_trace::export::{chrome_trace, stats_json};
use plexus_trace::flame::folded;
use plexus_trace::json::{self, Value};
use plexus_trace::live::{live_json, LiveConfig};
use plexus_trace::profile::{profile_json, Profile, Slice};
use plexus_trace::{timeline, CrossDir, GuardKind, Recorder, Scope};
use proptest::prelude::*;

/// A small closed label vocabulary (the vendored proptest has no string
/// strategies); includes names needing JSON escaping.
const LABELS: &[&str] = &[
    "Udp.PacketRecv",
    "Ethernet.PacketRecv",
    "rtt-bench",
    "kernel",
    "weird \"quoted\" name",
    "tab\there",
];

fn label(i: usize) -> &'static str {
    LABELS[i % LABELS.len()]
}

/// One synthetic step per packet: enter/exit pairs interleaved with
/// guards, drops, crossings, and timers, driven by small integers.
fn populate(rec: &Recorder, steps: &[(usize, usize, u64)]) {
    let mut at = 0u64;
    let mut open: Vec<(plexus_trace::Label, plexus_trace::Label, u64)> = Vec::new();
    rec.packet_arrival(at, "Ethernet", "", 60, None);
    for &(kind, which, dt) in steps {
        at += dt;
        let ev = rec.intern(label(which));
        let dom = rec.intern(label(which + 1));
        match kind % 8 {
            0 => {
                let span = rec.handler_enter(at, ev, dom);
                open.push((ev, dom, span));
            }
            1 => {
                if let Some((ev, dom, span)) = open.pop() {
                    rec.handler_exit(at, ev, dom, span);
                }
            }
            2 => rec.guard_eval(at, ev, GuardKind::Verified, which % 2 == 0),
            3 => rec.packet_drop(at, label(which), label(which + 2)),
            4 => rec.crossing(at, CrossDir::UserToKernel, which),
            5 => rec.sample(at, ev, dt),
            6 => rec.rx_interrupt(at, "Ethernet", "", which + 1, which),
            _ => rec.timer_fire(at),
        }
    }
    while let Some((ev, dom, span)) = open.pop() {
        at += 1;
        rec.handler_exit(at, ev, dom, span);
    }
    rec.packet_done();
}

proptest! {
    #[test]
    fn every_export_of_a_random_event_mix_round_trips_the_validator(
        steps in prop::collection::vec((0usize..8, 0usize..6, 0u64..10_000), 0..64),
        ring_cap in 1usize..128,
    ) {
        let rec = Recorder::new(ring_cap);
        populate(&rec, &steps);
        prop_assert!(json::parse(&chrome_trace(&rec)).is_ok());
        prop_assert!(json::parse(&stats_json(&rec)).is_ok());
        let profile = Profile::build(&rec);
        let body = profile_json(&profile, None, 4);
        prop_assert!(json::parse(&body).is_ok(), "profile JSON invalid:\n{}", body);
        // Folded lines always parse back as "<stack> <ns>".
        for line in folded(&profile).lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("folded line shape");
            prop_assert_eq!(stack.split(';').count(), 3);
            prop_assert!(ns.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn profile_slices_tile_each_window_even_under_wraparound(
        steps in prop::collection::vec((0usize..8, 0usize..6, 0u64..10_000), 0..64),
        ring_cap in 1usize..32,
    ) {
        // Tiny rings force truncation; the invariant must hold for
        // whatever survives, and never produce negative durations.
        let rec = Recorder::new(ring_cap);
        populate(&rec, &steps);
        let profile = Profile::build(&rec);
        for pkt in &profile.packets {
            let mut cursor = pkt.first_ns;
            for s in &pkt.slices {
                prop_assert_eq!(s.start_ns, cursor);
                prop_assert!(s.end_ns >= s.start_ns);
                cursor = s.end_ns;
            }
            prop_assert_eq!(cursor, pkt.last_ns);
            let total: u64 = pkt.slices.iter().map(Slice::ns).sum();
            prop_assert_eq!(total, pkt.last_ns - pkt.first_ns);
        }
    }

    #[test]
    fn live_windows_are_value_identical_to_the_posthoc_timeline(
        steps in prop::collection::vec((0usize..8, 0usize..6, 0u64..10_000), 0..64),
        window_exp in 10u32..20,
    ) {
        // On a truncation-free run (ring sized to the step count), the
        // streaming aggregator and the post-hoc fold must agree window by
        // window — counts, maxima, drop maps, AND exact nearest-rank
        // percentiles — across random event mixes and window widths.
        let window_ns = 1u64 << window_exp;
        let rec = Recorder::new(1024);
        let mut cfg = LiveConfig::new(window_ns);
        cfg.sample_every = 3;
        rec.enable_live(cfg);
        populate(&rec, &steps);
        let live = rec.live_report().expect("live enabled");
        prop_assert_eq!(rec.overwritten(), 0, "ring must not truncate");
        prop_assert_eq!(live.late_records, 0, "monotone feed is never late");
        let tl = timeline::build(&rec, window_ns);
        prop_assert_eq!(&live.windows, &tl.windows);
        // Same values, same bytes: the live export reuses the timeline's
        // per-window serializer.
        for (lw, tw) in live.windows.iter().zip(&tl.windows) {
            prop_assert_eq!(
                timeline::window_json(lw, window_ns),
                timeline::window_json(tw, window_ns)
            );
        }
        // The scope roll-up invariant holds for arbitrary event mixes.
        let mut sum = plexus_trace::live::ScopeCounters::default();
        for (_, m) in &live.machines {
            sum.add(&m.counters);
        }
        sum.add(&live.unattributed.counters);
        prop_assert_eq!(sum, live.world.counters);
        // And the live document itself always round-trips the validator.
        prop_assert!(json::parse(&live_json(&live, 4)).is_ok());
    }

    #[test]
    fn saturating_counters_and_hist_edge_buckets_stay_valid(
        deltas in prop::collection::vec(0u64..u64::MAX, 1..8),
        observations in prop::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let rec = Recorder::new(8);
        let label = rec.intern("sat.counter");
        for d in &deltas {
            rec.count(Scope::App, label, "near_max", *d);
        }
        // Force saturation explicitly, plus histogram edge values.
        rec.count(Scope::App, label, "near_max", u64::MAX);
        let hist = rec.intern("edge.hist");
        for v in [0u64, 1, u64::MAX] {
            rec.record_latency(hist, v);
        }
        for v in &observations {
            rec.record_latency(hist, *v);
        }
        let out = stats_json(&rec);
        let doc = json::parse(&out);
        prop_assert!(doc.is_ok(), "stats JSON invalid:\n{}", out);
        let doc = doc.unwrap();
        // The saturated counter survives the JSON round trip exactly
        // (u64::MAX has no exact f64, but the emitted token must parse).
        let counters = doc.get("counters").expect("counters object");
        prop_assert!(counters.get("app.sat.counter.near_max").is_some());
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("edge.hist"))
            .expect("edge histogram present");
        prop_assert_eq!(
            h.get("count").and_then(Value::as_u64),
            Some(3 + observations.len() as u64)
        );
        prop_assert_eq!(h.get("min_ns").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn interned_label_reuse_never_splits_counters(
        n in 1usize..64,
    ) {
        let rec = Recorder::new(8);
        for _ in 0..n {
            // Re-interning the same string must hit the same counter.
            let label = rec.intern("dup.label");
            rec.count(Scope::App, label, "hits", 1);
        }
        let doc = json::parse(&stats_json(&rec)).expect("valid stats");
        let hits = doc
            .get("counters")
            .and_then(|c| c.get("app.dup.label.hits"))
            .and_then(Value::as_u64);
        prop_assert_eq!(hits, Some(n as u64));
    }
}

#[test]
fn empty_recorder_exports_are_valid_and_empty() {
    let rec = Recorder::new(8);
    let trace = chrome_trace(&rec);
    let stats = stats_json(&rec);
    json::validate(&trace).expect("empty chrome trace");
    json::validate(&stats).expect("empty stats");
    let profile = Profile::build(&rec);
    assert!(profile.packets.is_empty());
    assert!(profile.truncation.clean());
    json::validate(&profile_json(&profile, None, 4)).expect("empty profile");
    assert_eq!(folded(&profile), "");
    let doc = json::parse(&stats).unwrap();
    assert_eq!(doc.get("events_recorded").and_then(Value::as_u64), Some(0));
}
