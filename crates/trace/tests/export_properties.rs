//! Property tests for the exporters: whatever mix of events, counters,
//! and histogram observations lands in a recorder, every emitted document
//! (chrome trace, stats, profile JSON, folded stacks) must stay
//! well-formed and internally consistent — including saturating-counter
//! extremes, log2-histogram edge buckets, interned-label reuse, and the
//! empty recorder — and every name must read back as it was recorded.
//! One hand-built recorder pins all seven artifacts by bytes. A plain
//! `format!` renderer is the Chrome trace's oracle, and the folded stacks
//! and the profile's aggregate are held to each other.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use plexus_trace::export::{chrome_trace, stats_json};
use plexus_trace::flame::folded;
use plexus_trace::journey::{self, journeys_json};
use plexus_trace::json::{self, Value};
use plexus_trace::live::{live_json, LiveConfig, LiveReport, Slo, SAMPLE_EVERY};
use plexus_trace::profile::{pingpong_waterfall, profile_json, Profile, Slice};
use plexus_trace::{
    timeline, CrossDir, GuardKind, Label, Recorder, Scope, TraceEvent, TraceRecord,
};
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
    "back\\slash",
    "ctl\u{1}\u{1f}",
    "nön-äscii ✓",
];

fn label(i: usize) -> &'static str {
    LABELS[i % LABELS.len()]
}

/// The labels a record carries, for the Chrome-name check.
fn labels_of(event: &TraceEvent) -> Vec<Label> {
    match *event {
        TraceEvent::PacketArrival { nic, .. }
        | TraceEvent::PacketTx { nic, .. }
        | TraceEvent::RxInterrupt { nic, .. } => vec![nic],
        TraceEvent::GuardEval { event, .. } => vec![event],
        TraceEvent::HandlerEnter { event, domain, .. }
        | TraceEvent::HandlerExit { event, domain, .. } => vec![event, domain],
        TraceEvent::Drop { layer, reason } => vec![layer, reason],
        TraceEvent::LatencySample { hist, .. } => vec![hist],
        TraceEvent::TimerFire | TraceEvent::Crossing { .. } => vec![],
    }
}

/// One synthetic packet: enter/exit pairs interleaved with guards, drops,
/// crossings, and timers, driven by small integers.
fn populate(rec: &Recorder, steps: &[(usize, usize, u64)]) {
    one_packet(rec, &mut 0, steps);
}

/// One packet of `steps` from `at` on, as [`populate`] records it; a
/// step of kind 9 is a transmit.
fn one_packet(rec: &Recorder, at: &mut u64, steps: &[(usize, usize, u64)]) {
    let mut open: Vec<(Label, Label, u64)> = Vec::new();
    rec.packet_arrival(*at, rec.intern("Ethernet"), rec.intern(""), 60, None);
    for &(kind, which, dt) in steps {
        *at += dt;
        let at = *at;
        let ev = rec.intern(label(which));
        let dom = rec.intern(label(which + 1));
        match kind % 10 {
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
            3 => rec.packet_drop(at, rec.intern(label(which)), rec.intern(label(which + 2))),
            4 => rec.crossing(at, CrossDir::UserToKernel, which),
            5 => rec.sample(at, ev, dt),
            6 => rec.rx_interrupt(at, rec.intern("Ethernet"), rec.intern(""), which + 1, which),
            9 => {
                let host = rec.intern(label(which));
                let (journey, wait) = (rec.current_journey(), dt / 2);
                rec.packet_tx(at, ev, host, which, wait / 2, wait, dt, 1_000, journey);
            }
            _ => rec.timer_fire(at),
        }
    }
    while let Some((ev, dom, span)) = open.pop() {
        *at += 1;
        rec.handler_exit(*at, ev, dom, span);
    }
    rec.packet_done();
}

/// Packet after packet, each of [`one_packet`]'s steps, with a timer
/// and a transmit from engine context between them.
fn populate_packets(rec: &Recorder, packets: &[Vec<(usize, usize, u64)>]) {
    let mut at = 0;
    for (i, steps) in packets.iter().enumerate() {
        one_packet(rec, &mut at, steps);
        at += 10;
        rec.timer_fire(at);
        let (nic, host, journey) = (rec.intern(label(i)), rec.intern(""), rec.tx_journey());
        rec.packet_tx(at, nic, host, 60, 0, 5, 10, 20, Some(journey));
    }
}

/// Every name a `populate` run can emit: the labels, the layers derived
/// from them, and the structural names the profiler adds. A name that
/// comes back from `json::parse` outside this set was escaped wrongly.
fn vocabulary() -> Vec<String> {
    let mut names: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
    names.extend(
        LABELS
            .iter()
            .map(|l| l.split('.').next().unwrap().to_ascii_lowercase()),
    );
    let structural = [
        "Ethernet",
        "kernel",
        "guard",
        "dispatch",
        "boundary",
        "driver",
        "tx",
        "engine",
        "timer",
        "tail",
        "arrival",
        "user->kernel",
        "kernel->user",
        "world",
        "",
    ];
    names.extend(structural.map(String::from));
    names
}

/// Collects every string found under a member named by `keys`.
fn names_under<'a>(v: &'a Value, keys: &[&str], inside: bool, out: &mut Vec<&'a str>) {
    match v {
        Value::Str(s) if inside => out.push(s),
        Value::Arr(items) => items.iter().for_each(|i| names_under(i, keys, inside, out)),
        Value::Obj(members) => {
            for (k, v) in members {
                names_under(v, keys, inside || keys.contains(&k.as_str()), out);
            }
        }
        _ => {}
    }
}

/// Parses `body` and checks that every name under `keys` reads back as
/// one of the names that went in.
fn names_round_trip(what: &str, body: &str, keys: &[&str]) -> Result<Value, TestCaseError> {
    let doc = json::parse(body);
    prop_assert!(doc.is_ok(), "{} JSON invalid:\n{}", what, body);
    let doc = doc.unwrap();
    let (vocabulary, mut names) = (vocabulary(), Vec::new());
    names_under(&doc, keys, false, &mut names);
    for name in names {
        prop_assert!(
            vocabulary.iter().any(|v| v == name),
            "{}: {:?} is no name that was recorded",
            what,
            name
        );
    }
    Ok(doc)
}

/// `chrome_trace` written the plain way, one `format!` per record and
/// each event name escaped whole: the oracle the exporter's in-place
/// rendering must equal byte for byte.
fn chrome_reference(rec: &Recorder) -> String {
    let name = |l: Label| rec.name(l).to_string();
    let host = |h: Label| match json::escape(&rec.name(h)) {
        h if h.is_empty() => h,
        h => format!("\"host\": \"{h}\", "),
    };
    let events: Vec<String> = rec
        .events()
        .iter()
        .map(|r| {
            let (event, cat, ph) = match r.event {
                TraceEvent::PacketArrival { nic, .. } => {
                    (format!("packet arrival ({})", name(nic)), "packet", "i")
                }
                TraceEvent::GuardEval {
                    event,
                    kind,
                    matched,
                } => {
                    let verdict = if matched { "accept" } else { "reject" };
                    let event = format!("guard {} {} {verdict}", name(event), kind.name());
                    (event, "guard", "i")
                }
                TraceEvent::HandlerEnter { event, domain, .. }
                | TraceEvent::HandlerExit { event, domain, .. } => {
                    let ph = match r.event {
                        TraceEvent::HandlerEnter { .. } => "B",
                        _ => "E",
                    };
                    (format!("{} [{}]", name(event), name(domain)), "handler", ph)
                }
                TraceEvent::Drop { layer, reason } => (
                    format!("drop {}: {}", name(layer), name(reason)),
                    "drop",
                    "i",
                ),
                TraceEvent::PacketTx { nic, .. } => {
                    (format!("packet tx ({})", name(nic)), "packet", "i")
                }
                TraceEvent::RxInterrupt { nic, .. } => {
                    (format!("rx interrupt ({})", name(nic)), "interrupt", "i")
                }
                TraceEvent::LatencySample { hist, .. } => {
                    (format!("sample ({})", name(hist)), "sample", "i")
                }
                TraceEvent::TimerFire => (String::from("timer"), "timer", "i"),
                TraceEvent::Crossing { dir, .. } => {
                    (format!("crossing {}", dir.name()), "crossing", "i")
                }
            };
            let args = match r.event {
                TraceEvent::PacketArrival { host: h, bytes, .. } => {
                    let journey = r.journey.map_or(String::from("null"), |j| j.to_string());
                    format!("\"bytes\": {bytes}, {}\"journey\": {journey}", host(h))
                }
                TraceEvent::HandlerEnter { span, .. } | TraceEvent::HandlerExit { span, .. } => {
                    format!("\"span\": {span}")
                }
                TraceEvent::PacketTx {
                    host: h,
                    bytes,
                    queue_ns,
                    wait_ns,
                    ser_ns,
                    prop_ns,
                    ..
                } => format!(
                    "\"bytes\": {bytes}, {}\"queue_ns\": {queue_ns}, \"wait_ns\": {wait_ns}, \
                     \"ser_ns\": {ser_ns}, \"prop_ns\": {prop_ns}",
                    host(h)
                ),
                TraceEvent::RxInterrupt {
                    host: h,
                    frames,
                    ring_after,
                    ..
                } => format!(
                    "\"frames\": {frames}, {}\"ring_after\": {ring_after}",
                    host(h)
                ),
                TraceEvent::LatencySample { ns, .. } => format!("\"ns\": {ns}"),
                TraceEvent::Crossing { bytes, .. } => format!("\"bytes\": {bytes}"),
                TraceEvent::GuardEval { .. } | TraceEvent::Drop { .. } | TraceEvent::TimerFire => {
                    String::new()
                }
            };
            format!(
                "\n  {{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \"ts\": {}.{:03}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}",
                json::escape(&event),
                r.at_ns / 1_000,
                r.at_ns % 1_000,
                r.packet.map_or(0, |p| p + 1)
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [{}\n]}}\n",
        events.join(",")
    )
}

proptest! {
    #[test]
    fn every_export_of_a_random_event_mix_round_trips_the_validator(
        steps in prop::collection::vec((0usize..9, 0usize..9, 0u64..10_000), 0..64),
        ring_cap in 1usize..128,
    ) {
        let rec = Recorder::new(ring_cap);
        populate(&rec, &steps);
        let chrome = chrome_trace(&rec);
        prop_assert_eq!(&chrome, &chrome_reference(&rec));
        // Chrome event names are composed: each must contain, unescaped,
        // the name of every label its record carries.
        let trace = names_round_trip("trace", &chrome, &["host"])?;
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        prop_assert_eq!(events.len(), rec.events().len());
        for (event, record) in events.iter().zip(rec.events()) {
            let name = event.get("name").and_then(Value::as_str).unwrap();
            for label in labels_of(&record.event) {
                prop_assert!(name.contains(&*rec.name(label)), "{:?} lost {:?}", name, label);
            }
        }
        // Every counter is there under its flattened key, by value.
        let stats = names_round_trip("stats", &stats_json(&rec), &[])?;
        for (key, value) in rec.registry().counters() {
            let flat = format!("{}.{}.{}", key.scope.name(), rec.name(key.label), key.metric);
            let read = stats.get("counters").and_then(|c| c.get(&flat));
            prop_assert_eq!(read.and_then(Value::as_u64), Some(value), "{}", flat);
        }
        let profile = Profile::build(&rec);
        let named = ["layer", "domain", "handler", "event", "nic", "drops"];
        names_round_trip("profile", &profile_json(&profile, None, 4), &named)?;
        let journeys = journeys_json(&journey::build(&profile), 4);
        names_round_trip("journeys", &journeys, &["machine", "nic", "origin_machine"])?;
        let timeline = timeline::timeline_json(&timeline::build(&rec, 1 << 12));
        names_round_trip("timeline", &timeline, &["layer", "reason"])?;
        // Folded lines always parse back as "<stack> <ns>", names intact.
        let vocabulary = vocabulary();
        for line in folded(&profile).lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("folded line shape");
            prop_assert_eq!(stack.split(';').count(), 3);
            prop_assert!(stack.split(';').all(|name| vocabulary.iter().any(|v| v == name)));
            prop_assert!(ns.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn profile_slices_tile_each_window_even_under_wraparound(
        steps in prop::collection::vec((0usize..9, 0usize..9, 0u64..10_000), 0..64),
        ring_cap in 1usize..32,
    ) {
        // Tiny rings force truncation; the invariant must hold for
        // whatever survives, and never produce negative durations.
        let rec = Recorder::new(ring_cap);
        populate(&rec, &steps);
        let profile = Profile::build(&rec);
        for pkt in &profile.packets {
            let mut cursor = pkt.first_ns;
            for s in profile.slices(pkt) {
                prop_assert_eq!(s.start_ns, cursor);
                prop_assert!(s.end_ns >= s.start_ns);
                cursor = s.end_ns;
            }
            prop_assert_eq!(cursor, pkt.last_ns);
            let total: u64 = profile.slices(pkt).iter().map(Slice::ns).sum();
            prop_assert_eq!(total, pkt.last_ns - pkt.first_ns);
        }
    }

    #[test]
    fn live_windows_are_value_identical_to_the_posthoc_timeline(
        steps in prop::collection::vec((0usize..9, 0usize..9, 0u64..10_000), 0..64),
        window_exp in 10u32..20,
    ) {
        // On a truncation-free run (ring sized to the step count), the
        // streaming aggregator and the post-hoc fold must agree window by
        // window — counts, maxima, drop maps, AND exact nearest-rank
        // percentiles — across random event mixes and window widths.
        let window_ns = 1u64 << window_exp;
        let rec = Recorder::new(1024);
        rec.enable_live(LiveConfig::new(window_ns));
        populate(&rec, &steps);
        let live = rec.live_report().expect("live enabled");
        prop_assert_eq!(rec.overwritten(), 0, "ring must not truncate");
        prop_assert_eq!(live.late_records, 0, "monotone feed is never late");
        let tl = timeline::build(&rec, window_ns);
        prop_assert_eq!(&live.windows, &tl.windows);
        // Same values, same bytes: the live export reuses the timeline's
        // per-window serializer.
        for (lw, tw) in live.windows.iter().zip(&tl.windows) {
            let (mut live_bytes, mut tl_bytes) = (String::new(), String::new());
            timeline::window_json(&mut live_bytes, lw, window_ns);
            timeline::window_json(&mut tl_bytes, tw, window_ns);
            prop_assert_eq!(live_bytes, tl_bytes);
        }
        // The scope roll-up invariant holds for arbitrary event mixes.
        let mut sum = plexus_trace::live::ScopeCounters::default();
        for (_, m) in &live.machines {
            sum.add(&m.counters);
        }
        sum.add(&live.unattributed.counters);
        prop_assert_eq!(sum, live.world.counters);
        // And the live document itself always parses, names intact.
        names_round_trip("live", &live_json(&live, 4), &["name", "layer", "reason"])?;
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

/// Each non-orphan packet's sum for `at`, for packets with a slice of it,
/// and how many slices it has in all.
fn per_packet_sums(profile: &Profile, at: &plexus_trace::profile::Triple) -> (Vec<u64>, u64) {
    let (mut sums, mut slices) = (Vec::new(), 0);
    for p in profile.packets.iter().filter(|p| !p.orphan) {
        let of: Vec<u64> = (profile.slices(p).iter())
            .filter(|s| s.at == *at)
            .map(Slice::ns)
            .collect();
        slices += of.len() as u64;
        if !of.is_empty() {
            sums.push(of.iter().sum());
        }
    }
    (sums, slices)
}

/// The nearest-rank `q`-th percentile, read from `values` once sorted.
fn sorted_nearest_rank(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

proptest! {
    #[test]
    fn chrome_trace_of_many_packets_equals_the_plain_renderer(
        packets in prop::collection::vec(
            prop::collection::vec((0usize..10, 0usize..9, 0u64..3_000), 0..16),
            1..12,
        ),
        ring_cap in 1usize..256,
    ) {
        let rec = Recorder::new(ring_cap);
        populate_packets(&rec, &packets);
        prop_assert_eq!(chrome_trace(&rec), chrome_reference(&rec));
    }

    #[test]
    fn folded_is_the_aggregate_totals_and_its_percentiles_are_nearest_rank(
        packets in prop::collection::vec(
            prop::collection::vec((0usize..10, 0usize..9, 0u64..3_000), 0..8),
            1..160,
        ),
        ring_cap in 1usize..2_048,
    ) {
        // Enough packets that a 99th percentile is not the maximum; rings
        // that wrap, so the oldest packets lose their arrivals and are
        // orphans, which neither fold may count.
        let rec = Recorder::new(ring_cap);
        populate_packets(&rec, &packets);
        let profile = Profile::build(&rec);
        let stats = profile.aggregate();
        let folded = folded(&profile);
        let lines: Vec<&str> = folded.lines().collect();
        prop_assert_eq!(lines.len(), stats.len());
        for (line, stat) in lines.iter().zip(&stats) {
            let [layer, domain, handler] = profile.triple_names(&stat.at);
            prop_assert_eq!(*line, format!("{layer};{domain};{handler} {}", stat.total_ns));
            let (sums, slices) = per_packet_sums(&profile, &stat.at);
            prop_assert_eq!(stat.packets, sums.len() as u64);
            prop_assert_eq!(stat.slices, slices);
            prop_assert_eq!(stat.total_ns, sums.iter().sum::<u64>());
            prop_assert_eq!(stat.mean_ns, stat.total_ns / stat.packets.max(1));
            prop_assert_eq!(stat.p50_ns, sorted_nearest_rank(&sums, 50.0));
            prop_assert_eq!(stat.p99_ns, sorted_nearest_rank(&sums, 99.0));
        }
        // Every non-orphan slice's triple has its row.
        for p in profile.packets.iter().filter(|p| !p.orphan) {
            for s in profile.slices(p) {
                prop_assert!(stats.iter().any(|stat| stat.at == s.at));
            }
        }
    }
}

/// Records at the edges of what `chrome_trace` writes: every sub-µs digit
/// pattern, every numeric field at its maximum, records outside any
/// packet, names that need each kind of escape, and an unnamed host.
#[test]
fn chrome_trace_of_edge_records_equals_the_plain_renderer() {
    let rec = Recorder::new(64);
    let odd = ["quo\"te", "back\\slash", "new\nline", "ctl\u{1}"].map(|n| rec.intern(n));
    let [quoted, slashed, broken, ctl] = odd;
    let unnamed = rec.intern("");
    for at in [1_000_000, 1_000_005, 1_000_050, 1_000_999, 0, 999, u64::MAX] {
        rec.timer_fire(at);
    }
    rec.crossing(u64::MAX, CrossDir::KernelToUser, u32::MAX as usize);
    rec.packet_drop(7, rec.intern("la\"yer"), rec.intern("rea\\son\n"));
    rec.packet_tx(8, quoted, unnamed, 0, 0, 0, 0, 0, None);
    let max = u64::MAX;
    rec.packet_tx(
        9,
        slashed,
        broken,
        u32::MAX as usize,
        max,
        max,
        max,
        max,
        Some(max - 1),
    );
    rec.packet_arrival(max, ctl, quoted, u32::MAX as usize, Some(max - 1));
    rec.rx_interrupt(max, broken, ctl, u32::MAX as usize, u32::MAX as usize);
    rec.guard_eval(max, broken, GuardKind::Verified, false);
    let span = rec.handler_enter(max, quoted, ctl);
    rec.sample(max, slashed, max);
    rec.handler_exit(max, quoted, ctl, span);
    rec.packet_done();
    rec.packet_arrival(1_001, unnamed, unnamed, 0, None);
    rec.rx_interrupt(1_002, unnamed, unnamed, 0, 0);
    rec.packet_done();
    let chrome = chrome_trace(&rec);
    assert_eq!(chrome, chrome_reference(&rec));
    json::validate(&chrome).expect("edge records are valid JSON");
    for needle in [
        "\"ts\": 1000.000,",
        "\"ts\": 1000.005,",
        "\"ts\": 1000.050,",
        "\"ts\": 1000.999,",
        "\"ts\": 0.000,",
        "\"ts\": 0.999,",
        "\"ts\": 18446744073709551.615,",
        "\"tid\": 0,",
        "\"queue_ns\": 18446744073709551615",
        "\"bytes\": 4294967295",
        "\"journey\": 18446744073709551614",
        "quo\\\"te",
        "back\\\\slash",
        "new\\nline",
        "ctl\\u0001",
    ] {
        assert!(chrome.contains(needle), "missing {needle:?} in:\n{chrome}");
    }
}

#[test]
fn chrome_trace_of_the_fixture_equals_the_plain_renderer() {
    let rec = fixture();
    assert_eq!(chrome_trace(&rec), chrome_reference(&rec));
}

/// The tail sampler's caps, as `live.rs` declares them.
const MAX_JOURNEY_RECORDS: usize = 128;
const MAX_ACTIVE_JOURNEYS: usize = 64;

/// An undecided journey's buffer in [`ModelSampler`].
#[derive(Default)]
struct ModelBuf {
    records: Vec<TraceRecord>,
    dropped: u64,
    last_seq: u64,
}

/// A journey [`ModelSampler`] kept.
struct ModelRetained {
    records: Vec<TraceRecord>,
    dropped: u64,
    nth: bool,
    worst: BTreeSet<u64>,
    max_sample_ns: u64,
}

/// The live tier's tail sampler written the plain way — ordered maps
/// keyed by journey, the eviction victim found by a scan — as the oracle
/// the recorder's sampler must agree with record for record.
struct ModelSampler {
    window_ns: u64,
    scratch: BTreeMap<u64, ModelBuf>,
    retained: BTreeMap<u64, ModelRetained>,
    /// window index → (worst sample ns, journey holding it).
    worst_by_window: BTreeMap<u64, (u64, u64)>,
    scratch_evicted: u64,
    sampled_records_dropped: u64,
    /// Journeys let go when another took the worst of their last window.
    demoted: u64,
}

impl ModelSampler {
    fn new(window_ns: u64) -> ModelSampler {
        ModelSampler {
            window_ns,
            scratch: BTreeMap::new(),
            retained: BTreeMap::new(),
            worst_by_window: BTreeMap::new(),
            scratch_evicted: 0,
            sampled_records_dropped: 0,
            demoted: 0,
        }
    }

    fn feed(&mut self, r: &TraceRecord) {
        if let (TraceEvent::LatencySample { ns, .. }, Some(j)) = (r.event, r.journey) {
            self.note_worst(r.at_ns / self.window_ns, j, ns);
        }
        self.sample_journey(r);
    }

    fn sample_journey(&mut self, r: &TraceRecord) {
        let Some(j) = r.journey else { return };
        if let Some(e) = self.retained.get_mut(&j) {
            if e.records.len() < MAX_JOURNEY_RECORDS {
                e.records.push(*r);
            } else {
                e.dropped += 1;
                self.sampled_records_dropped += 1;
            }
            return;
        }
        if j % SAMPLE_EVERY == 0 {
            self.retain(j, true);
            self.sample_journey(r);
            return;
        }
        let buf = self.scratch.entry(j).or_default();
        if buf.records.len() < MAX_JOURNEY_RECORDS {
            buf.records.push(*r);
        } else {
            buf.dropped += 1;
        }
        buf.last_seq = r.seq;
        if self.scratch.len() > MAX_ACTIVE_JOURNEYS {
            let victim = self.scratch.iter().min_by_key(|(id, b)| (b.last_seq, **id));
            if let Some((&victim, _)) = victim {
                self.scratch.remove(&victim);
                self.scratch_evicted += 1;
            }
        }
    }

    fn retain(&mut self, j: u64, nth: bool) {
        if self.retained.contains_key(&j) {
            return;
        }
        let b = self.scratch.remove(&j).unwrap_or_default();
        let kept = ModelRetained {
            records: b.records,
            dropped: b.dropped,
            nth,
            worst: BTreeSet::new(),
            max_sample_ns: 0,
        };
        self.retained.insert(j, kept);
    }

    fn note_worst(&mut self, window: u64, j: u64, ns: u64) {
        let prev = self.worst_by_window.get(&window).copied();
        if prev.is_some_and(|(worst, _)| ns <= worst) {
            return;
        }
        if let Some((_, prev_j)) = prev.filter(|&(_, prev_j)| prev_j != j) {
            let demoted = self.retained.get_mut(&prev_j).is_some_and(|e| {
                e.worst.remove(&window);
                e.worst.is_empty() && !e.nth
            });
            if demoted {
                self.retained.remove(&prev_j);
                self.demoted += 1;
            }
        }
        self.worst_by_window.insert(window, (ns, j));
        self.retain(j, false);
        let e = self.retained.get_mut(&j).expect("just retained");
        e.worst.insert(window);
        e.max_sample_ns = e.max_sample_ns.max(ns);
    }
}

/// What a sampled record is compared by: its timestamp, packet and kind.
fn sampled_key(r: &TraceRecord) -> (u64, Option<u64>, &'static str) {
    let kind = match r.event {
        TraceEvent::PacketArrival { .. } => "arrival",
        TraceEvent::GuardEval { .. } => "guard",
        TraceEvent::HandlerEnter { .. } => "handler_enter",
        TraceEvent::HandlerExit { .. } => "handler_exit",
        TraceEvent::Drop { .. } => "drop",
        TraceEvent::PacketTx { .. } => "tx",
        TraceEvent::RxInterrupt { .. } => "rx_interrupt",
        TraceEvent::LatencySample { .. } => "sample",
        TraceEvent::TimerFire => "timer",
        TraceEvent::Crossing { .. } => "crossing",
    };
    (r.at_ns, r.packet, kind)
}

/// One hop of journey `j` per step: an arrival and a few records of one
/// shape, or (shape 5) a transmit from engine context that carries `j`.
/// One step in four goes to one of three hot journeys, which outgrow the
/// per-journey record cap in a long run; the rest spread over 200, which
/// overflows the scratch buffers and forces evictions. With `rising`, every
/// latency sample is larger than all before it, so each is its window's
/// new worst and the journey that held it is let go.
fn interleave_journeys(rec: &Recorder, steps: &[(u64, usize, u64)], rising: bool) {
    let (nic, host, hist) = (rec.intern("eth0"), rec.intern("m"), rec.intern("rtt"));
    let (ev, dom) = (rec.intern("Udp.PacketRecv"), rec.intern("app"));
    let mut at = 0u64;
    let mut tick = || {
        at += 7;
        at
    };
    for (i, &(pick, shape, ns)) in steps.iter().enumerate() {
        let j = if pick % 4 == 0 { pick % 3 } else { pick % 200 };
        let ns = if rising { i as u64 } else { ns };
        if shape % 6 == 5 {
            rec.packet_tx(tick(), nic, host, 60, 0, 0, 10, 10, Some(j));
            continue;
        }
        rec.packet_arrival(tick(), nic, host, 60, Some(j));
        match shape % 6 {
            0 => rec.sample(tick(), hist, ns),
            1 => {
                let span = rec.handler_enter(tick(), ev, dom);
                rec.guard_eval(tick(), ev, GuardKind::Verified, true);
                rec.handler_exit(tick(), ev, dom, span);
            }
            2 => rec.packet_drop(tick(), rec.intern("udp"), rec.intern("no_port")),
            3 => {
                rec.sample(tick(), hist, ns);
                rec.packet_tx(tick(), nic, host, 60, 0, 0, 10, 10, Some(j));
            }
            _ => {}
        }
        rec.packet_done();
    }
}

/// The steps of [`interleave_journeys`]: half the runs short, half of at
/// least 5 000 steps, which evict and let go of journeys thousands of times
/// over, so the sampler's chunks are reused many times each.
fn journey_steps() -> impl Strategy<Value = Vec<(u64, usize, u64)>> {
    let step = || (0u64..800, 0usize..6, 0u64..5_000);
    prop_oneof![
        prop::collection::vec(step(), 300..1_500),
        prop::collection::vec(step(), 5_000..6_000),
    ]
}

/// A ring that holds a whole run of [`journey_steps`].
const WHOLE_RUN: usize = 1 << 15;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn the_tail_sampler_agrees_with_its_model(
        steps in journey_steps(),
        window_ns in prop::sample::select(vec![500u64, 5_000, 50_000]),
        rising in prop::sample::select(vec![false, true]),
    ) {
        let rec = Recorder::new(WHOLE_RUN);
        rec.enable_live(LiveConfig::new(window_ns));
        interleave_journeys(&rec, &steps, rising);
        prop_assert_eq!(rec.overwritten(), 0, "the model replays the whole ring");
        let mut model = ModelSampler::new(window_ns);
        rec.events().iter().for_each(|r| model.feed(r));

        let live = rec.live_report().expect("live enabled");
        prop_assert_eq!(live.scratch_evicted, model.scratch_evicted);
        prop_assert_eq!(live.sampled_records_dropped, model.sampled_records_dropped);
        prop_assert!(live.scratch_evicted > 0, "200 journeys overflow the scratch");
        if steps.len() >= 5_000 {
            prop_assert!(live.sampled_records_dropped > 0, "a hot journey outgrows the cap");
        }
        prop_assert!(!rising || model.demoted > 0, "rising samples let journeys go");
        let ids: Vec<u64> = live.sampled.iter().map(|s| s.journey).collect();
        let model_ids: Vec<u64> = model.retained.keys().copied().collect();
        prop_assert_eq!(ids, model_ids);
        for (s, (_, m)) in live.sampled.iter().zip(&model.retained) {
            let worst: Vec<u64> = m.worst.iter().copied().collect();
            prop_assert_eq!(
                (s.nth, &live.worst_windows[s.worst_windows.clone()], s.max_sample_ns, s.records_dropped),
                (m.nth, &worst[..], m.max_sample_ns, m.dropped),
                "journey {}", s.journey
            );
            let records = &live.records[s.records.clone()];
            let got: Vec<_> = records.iter().map(|r| (r.at_ns, r.packet, r.event.kind())).collect();
            let want: Vec<_> = m.records.iter().map(sampled_key).collect();
            prop_assert_eq!(got, want, "journey {} records", s.journey);
        }
    }

    #[test]
    fn the_tail_sampler_does_not_depend_on_the_ring_size(
        steps in journey_steps(),
        window_ns in prop::sample::select(vec![500u64, 5_000, 50_000]),
        rising in prop::sample::select(vec![false, true]),
    ) {
        // The sampler keeps ring positions and copies a journey's records
        // out just before the ring overwrites them: rings that wrap many
        // times over, or hold less than one hop, keep what one that never
        // wraps keeps.
        let report = |capacity| {
            let rec = Recorder::new(capacity);
            rec.enable_live(LiveConfig::new(window_ns));
            interleave_journeys(&rec, &steps, rising);
            (rec.overwritten(), rec.live_report().expect("live enabled"))
        };
        let (overwritten, whole) = report(WHOLE_RUN);
        prop_assert_eq!(overwritten, 0);
        for capacity in [5, 40, 300] {
            let (overwritten, wrapped) = report(capacity);
            prop_assert!(overwritten > 0, "a ring of {} wraps", capacity);
            prop_assert_eq!(&wrapped.sampled, &whole.sampled, "ring of {}", capacity);
            let losses = |r: &LiveReport| (r.scratch_evicted, r.sampled_records_dropped);
            prop_assert_eq!(losses(&wrapped), losses(&whole), "ring of {}", capacity);
            prop_assert_eq!(&wrapped, &whole, "ring of {}", capacity);
        }
    }
}

const NIC: &str = "Ethérnet-ß";

/// A recorder with every event kind, a wrapped ring (the oldest packet
/// keeps an exit whose enter is gone), an unattributed transmit and two
/// unattributed drops, a two-hop journey whose transmits queued behind
/// their own tx rings, a filtered broadcast copy, an enter that never
/// exits, and names that need every kind of escape.
fn fixture() -> Rc<Recorder> {
    let rec = Recorder::new(30);
    let mut cfg = LiveConfig::new(1_000);
    cfg.slo = Some(Slo {
        p99_ceiling_ns: Some(50),
        drop_ppm_ceiling: Some(100_000),
        goodput_floor: Some(1),
        skip_head: 1,
    });
    rec.enable_live(cfg);
    let quoted = rec.intern("Udp.\"quoted\"\\Recv");
    let tabbed = rec.intern("tab\text");
    let eth = rec.intern("Ethernet.PacketRecv");
    let ip = rec.intern("ip");
    let arrival = |at, host: &str, bytes, journey| {
        rec.packet_arrival(at, rec.intern(NIC), rec.intern(host), bytes, journey)
    };

    // Packet 0: its arrival and enter are the two records the ring loses.
    arrival(100, "old", 60, None);
    let lost = rec.handler_enter(150, quoted, tabbed);
    rec.guard_eval(180, quoted, GuardKind::Verified, false);
    rec.handler_exit(300, quoted, tabbed, lost);
    rec.packet_done();

    // Outside any packet: two drops, a timer, a trap.
    rec.packet_drop(400, rec.intern("arp"), rec.intern("resolution_fäiled"));
    rec.timer_fire(450);
    rec.crossing(460, CrossDir::UserToKernel, 0);
    rec.packet_drop(470, rec.intern("arp"), rec.intern("Abandoned"));

    // Origin send from engine context, 40 of its 100 ns wait behind its
    // own tx ring.
    let j = rec.tx_journey();
    let (nic, origin) = (rec.intern(NIC), rec.intern("mach\u{1}ine"));
    rec.packet_tx(1_000, nic, origin, 60, 40, 100, 500, 90, Some(j));

    // Hop 1 on "fwd": the wire delivers at 1 690, the coalesced interrupt
    // stamps the arrival at 1 700.
    let fwd = rec.intern("fwd");
    rec.rx_interrupt(1_700, nic, fwd, 2, 1);
    arrival(1_700, "fwd", 60, Some(j));
    rec.guard_eval(1_750, eth, GuardKind::Verified, true);
    let outer = rec.handler_enter(1_800, eth, ip);
    rec.crossing(1_850, CrossDir::KernelToUser, 8);
    let inner = rec.handler_enter(1_900, quoted, tabbed);
    rec.packet_tx(2_000, nic, fwd, 60, 25, 25, 500, 100, rec.current_journey());
    rec.handler_exit(2_100, quoted, tabbed, inner);
    rec.handler_terminated(2_100, quoted, tabbed);
    rec.handler_exit(2_200, eth, ip, outer);
    rec.packet_done();

    // Hop 2 on "backend": arrives exactly when the wire says.
    rec.rx_interrupt(2_625, nic, rec.intern("backend"), 1, 0);
    arrival(2_625, "backend", 60, Some(j));
    rec.guard_eval(2_650, quoted, GuardKind::Verified, false);
    let span = rec.handler_enter(2_700, quoted, tabbed);
    rec.packet_drop(2_800, rec.intern("udp"), rec.intern("no_port"));
    rec.handler_exit(2_900, quoted, tabbed, span);
    let rtt = rec.intern("rtt \"ns\"");
    rec.sample(3_000, rtt, 2_000);
    rec.packet_done();

    // A broadcast copy of hop 2 that the MAC filter shed.
    arrival(2_625, "bystander", 60, Some(j));
    rec.packet_drop(2_625, rec.intern("ether"), rec.intern("mac_filter"));
    rec.packet_done();

    // A packet on an unnamed machine whose handler never returns.
    arrival(4_100, "", 40, None);
    rec.handler_enter(4_200, eth, ip);
    rec.timer_fire(4_300);
    rec.sample(4_400, rtt, 30);
    rec.packet_done();
    rec
}

/// The seven artifacts of [`fixture`] are, byte for byte, what the string-
/// keyed folds wrote before they were rewritten to work on labels
/// (`tests/expected/` was captured from that commit).
#[test]
fn every_artifact_of_the_fixture_is_the_expected_bytes() {
    let rec = fixture();
    assert_eq!((rec.recorded(), rec.overwritten()), (32, 2));
    let profile = Profile::build(&rec);
    assert_eq!(profile.truncation.orphan_packets, vec![0]);
    assert_eq!(profile.truncation.unmatched_exits, 1);
    assert_eq!(profile.truncation.unmatched_enters, 1);
    assert_eq!(profile.unattributed_txs.len(), 1);
    assert_eq!(profile.unattributed_drops.len(), 2);
    assert!(pingpong_waterfall(&profile, "tab\text").is_err());
    let journeys = journey::build(&profile);
    let timeline = timeline::build(&rec, 1_000);
    macro_rules! expected {
        ($file:literal) => {
            ($file, include_str!(concat!("expected/fixture.", $file)))
        };
    }
    for ((file, expected), got) in [
        (expected!("trace.json"), chrome_trace(&rec)),
        (expected!("stats.json"), stats_json(&rec)),
        (expected!("profile.json"), profile_json(&profile, None, 16)),
        (expected!("journeys.json"), journeys_json(&journeys, 16)),
        (
            expected!("timeline.json"),
            timeline::timeline_json(&timeline),
        ),
        (expected!("folded"), folded(&profile)),
        // Last: the report seals the trailing windows, which the stats count.
        (
            expected!("live.json"),
            live_json(&rec.live_report().unwrap(), 16),
        ),
    ] {
        assert!(got == expected, "fixture.{file} drifted; got:\n{got}");
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
