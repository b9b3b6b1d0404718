//! End-to-end invariants of the cycle-accounting profiler (`trace::profile`).
//!
//! The two load-bearing properties:
//!
//! 1. **Attribution invariant** — per packet, the attribution slices tile
//!    the window between the packet's first and last record exactly:
//!    every simulated nanosecond is charged to exactly one
//!    `(layer, domain, handler)` triple, none twice, none lost.
//! 2. **Waterfall exactness** — for the ping-pong scenarios, each round's
//!    waterfall segments sum to the *measured* RTT (the number the Figure
//!    5 benchmark reports), not an approximation of it.

use std::rc::Rc;

use plexus::trace::flame::folded;
use plexus::trace::profile::{pingpong_waterfall, profile_json, span_trees, Profile, Slice, Span};
use plexus::trace::{json, Recorder, TraceEvent};
use plexus_bench::cell;

/// The round trips of the `fig5_udp_latency` cells.
const ROUNDS: u32 = 20;

/// Replays the `udp_rtt` (interrupt) or `udp_rtt_thread` cell; returns
/// the RTTs the ping-pong measured, in order, and the recorder.
fn traced_run(interrupt: bool) -> (Vec<u64>, Rc<Recorder>) {
    let name = if interrupt {
        "udp_rtt"
    } else {
        "udp_rtt_thread"
    };
    let recorder = cell(&format!("fig5_udp_latency/{name}"))
        .expect("a registered cell")
        .run();
    let rtts = recorder.events().into_iter().filter_map(|r| match r.event {
        TraceEvent::LatencySample { ns, .. } => Some(ns),
        _ => None,
    });
    (rtts.collect(), recorder)
}

#[test]
fn waterfall_segments_sum_to_the_measured_rtt_exactly() {
    for interrupt in [true, false] {
        let (rtts, recorder) = traced_run(interrupt);
        assert_eq!(rtts.len(), ROUNDS as usize);
        let profile = Profile::build(&recorder);
        assert!(profile.truncation.clean(), "ring must not wrap in this run");
        let waterfall =
            pingpong_waterfall(&profile, "rtt-bench").expect("ping-pong waterfall builds");
        assert_eq!(waterfall.rounds.len(), ROUNDS as usize);
        for (round, measured) in waterfall.rounds.iter().zip(&rtts) {
            assert_eq!(
                round.rtt_ns, *measured,
                "round {} (interrupt={interrupt}): waterfall RTT must be the \
                 measured RTT, not an approximation",
                round.round
            );
            let segment_sum: u64 = round.segments.iter().map(|s| s.ns).sum();
            assert_eq!(
                segment_sum, round.rtt_ns,
                "round {} (interrupt={interrupt}): segments must sum to the RTT \
                 exactly; segments: {:?}",
                round.round, round.segments
            );
        }
    }
}

#[test]
fn every_simulated_nanosecond_is_attributed_exactly_once() {
    let (_, recorder) = traced_run(true);
    let profile = Profile::build(&recorder);
    assert!(!profile.packets.is_empty());
    for pkt in &profile.packets {
        assert!(!pkt.orphan);
        // Slices tile [first_ns, last_ns]: contiguous, in order, no gaps.
        let mut cursor = pkt.first_ns;
        for s in profile.slices(pkt) {
            assert_eq!(
                s.start_ns, cursor,
                "packet {}: slice gap/overlap",
                pkt.packet
            );
            assert!(s.end_ns >= s.start_ns);
            cursor = s.end_ns;
        }
        assert_eq!(
            cursor, pkt.last_ns,
            "packet {}: window not covered",
            pkt.packet
        );
        assert_eq!(profile.attributed_ns(pkt), pkt.last_ns - pkt.first_ns);
    }
}

#[test]
fn span_trees_conserve_time_between_self_and_children() {
    let (_, recorder) = traced_run(true);
    let profile = Profile::build(&recorder);
    fn check(span: &Span, below: &[Span]) {
        assert!(span.complete, "no truncated spans in a clean run");
        assert_eq!(span.total_ns, span.exit_ns - span.enter_ns);
        let child_sum: u64 = span_trees(below).map(|(c, _)| c.total_ns).sum();
        assert_eq!(span.child_ns, child_sum);
        assert_eq!(span.self_ns, span.total_ns - span.child_ns);
        for (c, c_below) in span_trees(below) {
            assert!(c.enter_ns >= span.enter_ns && c.exit_ns <= span.exit_ns);
            check(c, c_below);
        }
    }
    let mut spans = 0;
    for pkt in &profile.packets {
        for (s, below) in span_trees(profile.spans(pkt)) {
            check(s, below);
            spans += 1;
        }
    }
    assert!(spans > 0, "the run must produce handler spans");
}

#[test]
fn aggregate_and_folded_cover_all_attributed_time() {
    let (_, recorder) = traced_run(true);
    let profile = Profile::build(&recorder);
    let attributed: u64 = profile
        .packets
        .iter()
        .map(|p| profile.attributed_ns(p))
        .sum();
    let aggregate_total: u64 = profile.aggregate().iter().map(|s| s.total_ns).sum();
    assert_eq!(aggregate_total, attributed);
    let folded_total: u64 = folded(&profile)
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(folded_total, attributed);
}

#[test]
fn profile_json_validates_and_wire_time_telescopes() {
    let (_, recorder) = traced_run(true);
    let profile = Profile::build(&recorder);
    let waterfall = pingpong_waterfall(&profile, "rtt-bench").unwrap();
    let body = profile_json(&profile, Some(&waterfall), 64);
    json::validate(&body).expect("profile JSON well-formed");
    assert!(body.contains("\"schema\": \"plexus.profile.v1\""));
    assert!(body.contains("\"waterfall\""));

    // The wire phases telescope: a reply frame's handover instant plus its
    // wait + serialize + propagate equals the next packet's arrival.
    for pair in profile.packets.windows(2) {
        let (req, rep) = (&pair[0], &pair[1]);
        if rep.packet != req.packet + 1 || req.packet % 2 != 0 {
            continue;
        }
        let tx = profile
            .txs(req)
            .first()
            .expect("request chain transmits the reply");
        assert_eq!(
            tx.at_ns + tx.wait_ns + tx.ser_ns + tx.prop_ns,
            rep.first_ns,
            "packets {}->{}: handover + wire phases must equal next arrival",
            req.packet,
            rep.packet
        );
    }
}

#[test]
fn measured_guard_cycles_never_exceed_the_static_bound() {
    use std::collections::BTreeMap;

    use plexus::trace::{Label, Scope};

    for interrupt in [true, false] {
        let (_, recorder) = traced_run(interrupt);
        // The dispatcher records, per verified-guard evaluation, the
        // cycles the evaluator actually spent ("cycles.measured") next to
        // the abstract interpreter's worst-case bound ("cycles.bound"),
        // and bumps "cycles.exceeded" if a single evaluation ever beat
        // its bound. The cross-check: that counter must not exist, and
        // the measured total must stay under the accumulated bound.
        let mut measured: BTreeMap<Label, u64> = BTreeMap::new();
        let mut bound: BTreeMap<Label, u64> = BTreeMap::new();
        let mut seen_guard_evals = false;
        for (key, value) in recorder.registry().counters() {
            if key.scope != Scope::Guard {
                continue;
            }
            match key.metric {
                "cycles.measured" => {
                    seen_guard_evals = true;
                    measured.insert(key.label, value);
                }
                "cycles.bound" => {
                    bound.insert(key.label, value);
                }
                "cycles.exceeded" => {
                    panic!("a verified guard evaluation exceeded its static bound");
                }
                _ => {}
            }
        }
        assert!(
            seen_guard_evals,
            "the stack's verified guards must record the cross-check"
        );
        for (label, m) in &measured {
            let b = bound
                .get(label)
                .expect("every measured counter has a bound counter");
            assert!(
                m <= b,
                "accumulated measured cycles {m} over accumulated bound {b}"
            );
        }
    }
}

#[test]
fn guard_and_dispatch_cost_is_separated_from_handler_bodies() {
    let (_, recorder) = traced_run(true);
    let profile = Profile::build(&recorder);
    let kernel_overhead: u64 = profile
        .packets
        .iter()
        .flat_map(|p| profile.slices(p))
        .filter(|s: &&Slice| {
            matches!(
                profile.triple_names(&s.at),
                [_, "kernel", "guard" | "dispatch"]
            )
        })
        .map(Slice::ns)
        .sum();
    let app_time: u64 = profile
        .packets
        .iter()
        .flat_map(|p| profile.slices(p))
        .filter(|s: &&Slice| profile.name(s.at.domain) == "rtt-bench")
        .map(Slice::ns)
        .sum();
    assert!(kernel_overhead > 0, "demux/guard work must be visible");
    assert!(app_time > 0, "the extension's own time must be visible");
}
