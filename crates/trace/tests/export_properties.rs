//! Property tests for the exporters: whatever mix of events, counters,
//! and histogram observations lands in a recorder, every emitted document
//! (chrome trace, stats, profile JSON, folded stacks) must stay
//! well-formed and internally consistent — including saturating-counter
//! extremes, log2-histogram edge buckets, interned-label reuse, and the
//! empty recorder — and every name must read back as it was recorded.
//! One hand-built recorder pins all seven artifacts by bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use plexus_trace::export::{chrome_trace, stats_json};
use plexus_trace::flame::folded;
use plexus_trace::journey::{self, journeys_json};
use plexus_trace::json::{self, Value};
use plexus_trace::live::{live_json, LiveConfig, LiveReport, Slo};
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

/// One synthetic step per packet: enter/exit pairs interleaved with
/// guards, drops, crossings, and timers, driven by small integers.
fn populate(rec: &Recorder, steps: &[(usize, usize, u64)]) {
    let mut at = 0u64;
    let mut open: Vec<(Label, Label, u64)> = Vec::new();
    rec.packet_arrival(at, rec.intern("Ethernet"), rec.intern(""), 60, None);
    for &(kind, which, dt) in steps {
        at += dt;
        let ev = rec.intern(label(which));
        let dom = rec.intern(label(which + 1));
        match kind % 9 {
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
            6 => rec.rx_interrupt(at, rec.intern("Ethernet"), rec.intern(""), which + 1, which),
            _ => rec.timer_fire(at),
        }
    }
    while let Some((ev, dom, span)) = open.pop() {
        at += 1;
        rec.handler_exit(at, ev, dom, span);
    }
    rec.packet_done();
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

proptest! {
    #[test]
    fn every_export_of_a_random_event_mix_round_trips_the_validator(
        steps in prop::collection::vec((0usize..9, 0usize..9, 0u64..10_000), 0..64),
        ring_cap in 1usize..128,
    ) {
        let rec = Recorder::new(ring_cap);
        populate(&rec, &steps);
        // Chrome event names are composed: each must contain, unescaped,
        // the name of every label its record carries.
        let trace = names_round_trip("trace", &chrome_trace(&rec), &["host"])?;
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
    sample_every: u64,
    scratch: BTreeMap<u64, ModelBuf>,
    retained: BTreeMap<u64, ModelRetained>,
    /// window index → (worst sample ns, journey holding it).
    worst_by_window: BTreeMap<u64, (u64, u64)>,
    scratch_evicted: u64,
    sampled_records_dropped: u64,
}

impl ModelSampler {
    fn new(window_ns: u64, sample_every: u64) -> ModelSampler {
        ModelSampler {
            window_ns,
            sample_every,
            scratch: BTreeMap::new(),
            retained: BTreeMap::new(),
            worst_by_window: BTreeMap::new(),
            scratch_evicted: 0,
            sampled_records_dropped: 0,
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
        if self.sample_every > 0 && j % self.sample_every == 0 {
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
/// per-journey record cap; the rest spread over 200, which overflows the
/// scratch buffers and forces evictions.
fn interleave_journeys(rec: &Recorder, steps: &[(u64, usize, u64)]) {
    let (nic, host, hist) = (rec.intern("eth0"), rec.intern("m"), rec.intern("rtt"));
    let (ev, dom) = (rec.intern("Udp.PacketRecv"), rec.intern("app"));
    let mut at = 0u64;
    let mut tick = || {
        at += 7;
        at
    };
    for &(pick, shape, ns) in steps {
        let j = if pick % 4 == 0 { pick % 3 } else { pick % 200 };
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
            2 => rec.packet_drop(tick(), "udp", "no_port"),
            3 => {
                rec.sample(tick(), hist, ns);
                rec.packet_tx(tick(), nic, host, 60, 0, 0, 10, 10, Some(j));
            }
            _ => {}
        }
        rec.packet_done();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn the_tail_sampler_agrees_with_its_model(
        steps in prop::collection::vec((0u64..800, 0usize..6, 0u64..5_000), 300..1_500),
        sample_every in prop::sample::select(vec![0u64, 3, 5, 7, 64]),
        window_ns in prop::sample::select(vec![500u64, 5_000, 50_000]),
    ) {
        let rec = Recorder::new(1 << 14);
        let mut cfg = LiveConfig::new(window_ns);
        cfg.sample_every = sample_every;
        rec.enable_live(cfg);
        interleave_journeys(&rec, &steps);
        prop_assert_eq!(rec.overwritten(), 0, "the model replays the whole ring");
        let mut model = ModelSampler::new(window_ns, sample_every);
        rec.events().iter().for_each(|r| model.feed(r));

        let live = rec.live_report().expect("live enabled");
        prop_assert_eq!(live.scratch_evicted, model.scratch_evicted);
        prop_assert_eq!(live.sampled_records_dropped, model.sampled_records_dropped);
        if sample_every == 0 {
            prop_assert!(live.scratch_evicted > 0, "200 journeys overflow the scratch");
        }
        let ids: Vec<u64> = live.sampled.iter().map(|s| s.journey).collect();
        let model_ids: Vec<u64> = model.retained.keys().copied().collect();
        prop_assert_eq!(ids, model_ids);
        for (s, (_, m)) in live.sampled.iter().zip(&model.retained) {
            let worst: Vec<u64> = m.worst.iter().copied().collect();
            prop_assert_eq!(
                (s.nth, &s.worst_windows, s.max_sample_ns, s.records_dropped),
                (m.nth, &worst, m.max_sample_ns, m.dropped),
                "journey {}", s.journey
            );
            let got: Vec<_> = s.records.iter().map(|r| (r.at_ns, r.packet, r.kind)).collect();
            let want: Vec<_> = m.records.iter().map(sampled_key).collect();
            prop_assert_eq!(got, want, "journey {} records", s.journey);
        }
    }

    #[test]
    fn the_tail_sampler_does_not_depend_on_the_ring_size(
        steps in prop::collection::vec((0u64..800, 0usize..6, 0u64..5_000), 300..1_500),
        sample_every in prop::sample::select(vec![0u64, 3, 5, 7, 64]),
        window_ns in prop::sample::select(vec![500u64, 5_000, 50_000]),
    ) {
        // The sampler keeps ring positions and copies a journey's records
        // out just before the ring overwrites them: rings that wrap many
        // times over, or hold less than one hop, keep what one that never
        // wraps keeps.
        let report = |capacity| {
            let rec = Recorder::new(capacity);
            let mut cfg = LiveConfig::new(window_ns);
            cfg.sample_every = sample_every;
            rec.enable_live(cfg);
            interleave_journeys(&rec, &steps);
            (rec.overwritten(), rec.live_report().expect("live enabled"))
        };
        let (overwritten, whole) = report(1 << 14);
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
    cfg.sample_every = 2;
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
    rec.packet_drop(400, "arp", "resolution_fäiled");
    rec.timer_fire(450);
    rec.crossing(460, CrossDir::UserToKernel, 0);
    rec.packet_drop(470, "arp", "Abandoned");

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
    rec.packet_drop(2_800, "udp", "no_port");
    rec.handler_exit(2_900, quoted, tabbed, span);
    let rtt = rec.intern("rtt \"ns\"");
    rec.sample(3_000, rtt, 2_000);
    rec.packet_done();

    // A broadcast copy of hop 2 that the MAC filter shed.
    arrival(2_625, "bystander", 60, Some(j));
    rec.packet_drop(2_625, "ether", "mac_filter");
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
