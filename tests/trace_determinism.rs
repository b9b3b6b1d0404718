//! The flight recorder's central guarantee: because every timestamp and
//! packet ID comes from the simulated clock and deterministic counters,
//! tracing the same scenario twice yields *byte-identical* output — the
//! event streams match record for record, and both exporters emit the
//! same bytes. See DESIGN.md §9.

use std::rc::Rc;

use plexus::trace::export::{chrome_trace, stats_json};
use plexus::trace::flame::folded;
use plexus::trace::journey::{self, journeys_json};
use plexus::trace::profile::{pingpong_waterfall, profile_json, Profile};
use plexus::trace::timeline::{self, timeline_json};
use plexus::trace::{json, CounterKey, Recorder, Scope, TraceEvent};
use plexus_bench::udp_rtt::{Link, System, UdpRtt};

const ROUNDS: u32 = 10;

fn traced_run(interrupt: bool) -> (Rc<Recorder>, Vec<u64>) {
    let recorder = Recorder::new(1 << 16);
    let system = if interrupt {
        System::PlexusInterrupt
    } else {
        System::PlexusThread
    };
    let samples = UdpRtt {
        recorder: Some(&recorder),
        ..UdpRtt::new(system, &Link::ethernet(), 8, ROUNDS)
    }
    .run();
    (recorder, samples)
}

#[test]
fn udp_rtt_trace_is_byte_identical_across_runs() {
    let (a, samples_a) = traced_run(true);
    let (b, samples_b) = traced_run(true);

    // The measurement itself is deterministic...
    assert_eq!(samples_a, samples_b);
    // ...the raw event streams match record for record...
    assert_eq!(a.events(), b.events());
    assert!(!a.events().is_empty(), "scenario recorded nothing");
    // ...and both exporters emit the same bytes.
    assert_eq!(chrome_trace(&a), chrome_trace(&b));
    assert_eq!(stats_json(&a), stats_json(&b));
}

#[test]
fn exported_json_is_well_formed() {
    let (rec, _) = traced_run(true);
    json::validate(&chrome_trace(&rec)).expect("chrome trace JSON");
    json::validate(&stats_json(&rec)).expect("stats JSON");
}

#[test]
fn trace_carries_guard_handler_domain_and_histogram_detail() {
    let (rec, samples) = traced_run(true);
    let reg = rec.registry();

    // Per-guard accounting, by verdict, for verified-IR guards: every
    // round trip crosses Ethernet.PacketRecv and Udp.PacketRecv on both
    // hosts. With the demux index on (the default), the ARP guard that
    // used to evaluate-and-reject every IPv4 frame is skipped outright,
    // so `verified.rejects` stays at zero and the skip shows up in the
    // per-event demux counters instead.
    let eth = rec.intern("Ethernet.PacketRecv");
    let udp = rec.intern("Udp.PacketRecv");
    let per_round = u64::from(ROUNDS) * 2; // client + server
    let key = |label, metric| CounterKey {
        scope: Scope::Guard,
        label,
        metric,
    };
    assert_eq!(reg.get(key(eth, "verified.accepts")), per_round);
    assert_eq!(reg.get(key(eth, "verified.rejects")), 0);
    assert_eq!(reg.get(key(udp, "verified.accepts")), per_round);
    let demux_key = |label, metric| CounterKey {
        scope: Scope::Event,
        label,
        metric,
    };
    assert_eq!(reg.get(demux_key(eth, "demux.hits")), per_round);
    assert_eq!(
        reg.get(demux_key(eth, "demux.avoided")),
        per_round,
        "each IPv4 frame skips the ARP guard via the index"
    );
    assert_eq!(reg.get(demux_key(eth, "demux.fallbacks")), 0);
    assert!(reg.get(demux_key(udp, "demux.hits")) >= per_round);

    // Per-handler and per-domain counts: the echo endpoint runs under the
    // extension's own domain, the UDP layer under "udp".
    let handler_key = CounterKey {
        scope: Scope::Handler,
        label: udp,
        metric: "invocations",
    };
    assert_eq!(reg.get(handler_key), per_round);
    for domain in ["rtt-bench", "udp", "ip", "kernel"] {
        let dkey = CounterKey {
            scope: Scope::Domain,
            label: rec.intern(domain),
            metric: "invocations",
        };
        assert!(reg.get(dkey) > 0, "no invocations attributed to {domain}");
    }

    // The RTT histogram covers every round trip, and its stats agree with
    // the samples the bench returned.
    let hist = reg
        .hist(rec.intern("udp.rtt_ns"))
        .expect("udp.rtt_ns histogram");
    assert_eq!(hist.count(), u64::from(ROUNDS));
    assert_eq!(hist.max(), *samples.iter().max().unwrap());
    assert_eq!(hist.min(), *samples.iter().min().unwrap());
}

#[test]
fn packet_ids_thread_from_nic_into_events() {
    let (rec, _) = traced_run(true);
    let events = rec.events();
    // Every arrival assigns a fresh ID, and the guard/handler records that
    // follow (same synchronous rx chain) carry it.
    let mut arrivals = 0u64;
    let mut attributed = 0usize;
    for r in &events {
        match r.event {
            TraceEvent::PacketArrival { .. } => {
                let id = r.packet.expect("arrival has a packet id");
                assert_eq!(id, arrivals, "IDs are dense and ordered");
                arrivals += 1;
            }
            TraceEvent::GuardEval { .. } | TraceEvent::HandlerEnter { .. }
                if r.packet.is_some() =>
            {
                attributed += 1;
            }
            _ => {}
        }
    }
    assert_eq!(arrivals, u64::from(ROUNDS) * 2);
    assert!(
        attributed > 0,
        "no guard/handler events attributed to packets"
    );
}

#[test]
fn profile_and_flamegraph_are_byte_identical_across_runs() {
    let (a, _) = traced_run(true);
    let (b, _) = traced_run(true);
    let (pa, pb) = (Profile::build(&a), Profile::build(&b));
    assert_eq!(pa, pb, "profiles derived from identical runs match");

    let (wa, wb) = (
        pingpong_waterfall(&pa, "rtt-bench").expect("waterfall builds"),
        pingpong_waterfall(&pb, "rtt-bench").expect("waterfall builds"),
    );
    let json_a = profile_json(&pa, Some(&wa), 64);
    let json_b = profile_json(&pb, Some(&wb), 64);
    assert_eq!(json_a, json_b, "profile JSON is byte-identical");
    json::validate(&json_a).expect("profile JSON well-formed");
    assert_eq!(folded(&pa), folded(&pb), "folded stacks are byte-identical");
    assert!(!folded(&pa).is_empty());
}

#[test]
fn timeline_and_journey_exports_are_byte_identical_across_runs() {
    let (a, _) = traced_run(true);
    let (b, _) = traced_run(true);

    let tl = |rec: &Rc<Recorder>| timeline_json(&timeline::build(rec, 1_000_000));
    let timeline_a = tl(&a);
    assert_eq!(timeline_a, tl(&b), "timeline JSON is byte-identical");
    json::validate(&timeline_a).expect("timeline JSON well-formed");
    assert!(timeline_a.contains("\"schema\": \"plexus.timeline.v1\""));

    let jo = |rec: &Rc<Recorder>| journeys_json(&journey::build(&Profile::build(rec)), 64);
    let journeys_a = jo(&a);
    assert_eq!(journeys_a, jo(&b), "journey JSON is byte-identical");
    json::validate(&journeys_a).expect("journey JSON well-formed");
    assert!(journeys_a.contains("\"schema\": \"plexus.journey.v1\""));
    assert!(journeys_a.contains("\"orphan_packets_excluded\": 0"));
}

#[test]
fn guard_tier_opt_out_leaves_traces_byte_identical() {
    // `set_compiled_guards(false)` swaps every verified guard onto the
    // reference interpreter. Both tiers charge the same static cycle
    // model and return identical verdicts, so the measurement, the ring,
    // and the exporters must not move a byte; only the registry's
    // per-tier counters may differ.
    let run = |compiled: bool| {
        let recorder = Recorder::new(1 << 16);
        let samples = UdpRtt {
            recorder: Some(&recorder),
            compiled,
            ..UdpRtt::new(System::PlexusInterrupt, &Link::ethernet(), 8, ROUNDS)
        }
        .run();
        (recorder, samples)
    };
    let (comp, samples_comp) = run(true);
    let (interp, samples_interp) = run(false);

    assert_eq!(samples_comp, samples_interp);
    assert_eq!(comp.events(), interp.events());
    assert_eq!(chrome_trace(&comp), chrome_trace(&interp));

    // stats_json differs exactly in the tier split and nothing else.
    let strip_tier = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|l| !l.contains(".tier."))
            .map(str::to_string)
            .collect()
    };
    let (sc, si) = (stats_json(&comp), stats_json(&interp));
    assert_eq!(strip_tier(&sc), strip_tier(&si));

    // Every verified guard eval lands on one tier's counter, and the
    // measured cycles never exceeded the static bound on either tier.
    for (rec, ours, theirs) in [
        (&comp, "tier.compiled", "tier.interpreted"),
        (&interp, "tier.interpreted", "tier.compiled"),
    ] {
        let reg = rec.registry();
        for event in ["Ethernet.PacketRecv", "Udp.PacketRecv"] {
            let key = |metric| CounterKey {
                scope: Scope::Guard,
                label: rec.intern(event),
                metric,
            };
            let evals = reg.get(key("verified.accepts")) + reg.get(key("verified.rejects"));
            assert!(evals > 0, "{event} guards never ran");
            assert_eq!(reg.get(key(ours)), evals, "{event} {ours}");
            assert_eq!(reg.get(key(theirs)), 0, "{event} {theirs}");
            assert_eq!(reg.get(key("cycles.exceeded")), 0, "{event} over bound");
        }
    }
}

#[test]
fn thread_mode_trace_is_also_deterministic_and_distinct() {
    let (a, _) = traced_run(false);
    let (b, _) = traced_run(false);
    assert_eq!(chrome_trace(&a), chrome_trace(&b));

    // Sanity: thread-mode delivery is a different schedule from
    // interrupt-mode, so the two traces must differ.
    let (int, _) = traced_run(true);
    assert_ne!(chrome_trace(&a), chrome_trace(&int));
}
