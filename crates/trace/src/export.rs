//! Exporters: Chrome `trace_event` JSON and compact stats JSON.
//!
//! Both emit integers (or fixed-precision decimals derived from integers)
//! in deterministic key order, so the same simulation produces the same
//! bytes on every run — that property is what the determinism tests pin.
//! Each writes straight into its one output `String`, resolving a label
//! to its name at the point the name's bytes are copied.

use crate::json::{escape_into, escaped, put};
use crate::recorder::Interner;
use crate::{CrossDir, GuardKind, Label, Recorder, TraceEvent};

/// What one Chrome event takes in the scenarios under `results/` (they
/// average 150 to 165 bytes): the buffer is sized from the ring once and
/// grows, as any `String` does, if a run's names are longer.
const CHROME_BYTES_PER_RECORD: usize = 168;

/// What a Chrome event's text up to its timestamp — `\n  {"name": "...",
/// "cat": ..., "ph": ..., "ts": ` — depends on: the record's variant, its
/// labels and its verdict. A named host's `"host": "...", ` argument is
/// keyed the same way.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Head {
    Arrival(Label),
    Guard(Label, GuardKind, bool),
    Enter(Label, Label),
    Exit(Label, Label),
    Drop(Label, Label),
    Tx(Label),
    Interrupt(Label),
    Sample(Label),
    Timer,
    Crossing(CrossDir),
    Host(Label),
}

impl Head {
    fn of(event: &TraceEvent) -> Head {
        match *event {
            TraceEvent::PacketArrival { nic, .. } => Head::Arrival(nic),
            TraceEvent::GuardEval {
                event,
                kind,
                matched,
            } => Head::Guard(event, kind, matched),
            TraceEvent::HandlerEnter { event, domain, .. } => Head::Enter(event, domain),
            TraceEvent::HandlerExit { event, domain, .. } => Head::Exit(event, domain),
            TraceEvent::Drop { layer, reason } => Head::Drop(layer, reason),
            TraceEvent::PacketTx { nic, .. } => Head::Tx(nic),
            TraceEvent::RxInterrupt { nic, .. } => Head::Interrupt(nic),
            TraceEvent::LatencySample { hist, .. } => Head::Sample(hist),
            TraceEvent::TimerFire => Head::Timer,
            TraceEvent::Crossing { dir, .. } => Head::Crossing(dir),
        }
    }

    /// A variant tag and the labels the head carries, for its hash.
    fn parts(self) -> (u32, u32, u32) {
        match self {
            Head::Arrival(nic) => (0, nic.0, 0),
            Head::Guard(event, _, matched) => (1, event.0, u32::from(matched)),
            Head::Enter(event, domain) => (2, event.0, domain.0),
            Head::Exit(event, domain) => (3, event.0, domain.0),
            Head::Drop(layer, reason) => (4, layer.0, reason.0),
            Head::Tx(nic) => (5, nic.0, 0),
            Head::Interrupt(nic) => (6, nic.0, 0),
            Head::Sample(hist) => (7, hist.0, 0),
            Head::Timer => (8, 0, 0),
            Head::Crossing(dir) => (9, dir as u32, 0),
            Head::Host(host) => (10, host.0, 0),
        }
    }

    /// Appends the head's text, names escaped.
    fn render(self, names: &Interner, out: &mut String) {
        // `{before}{name}{after}`.
        let mut named = |before: &str, name: Label, after: &str| {
            out.push_str(before);
            let _ = escape_into(out, names.get(name));
            out.push_str(after);
        };
        // Each arm writes the event's name; the fixed text up to its
        // timestamp follows.
        let cat_ph = match self {
            Head::Arrival(nic) => {
                named("\n  {\"name\": \"packet arrival (", nic, ")");
                r#"", "cat": "packet", "ph": "i", "ts": "#
            }
            Head::Guard(event, kind, matched) => {
                named("\n  {\"name\": \"guard ", event, " ");
                out.push_str(kind.name());
                out.push_str(if matched { " accept" } else { " reject" });
                r#"", "cat": "guard", "ph": "i", "ts": "#
            }
            Head::Enter(event, domain) | Head::Exit(event, domain) => {
                named("\n  {\"name\": \"", event, " [");
                named("", domain, "]");
                match self {
                    Head::Enter(..) => r#"", "cat": "handler", "ph": "B", "ts": "#,
                    _ => r#"", "cat": "handler", "ph": "E", "ts": "#,
                }
            }
            Head::Drop(layer, reason) => {
                named("\n  {\"name\": \"drop ", layer, ": ");
                named("", reason, "");
                r#"", "cat": "drop", "ph": "i", "ts": "#
            }
            Head::Tx(nic) => {
                named("\n  {\"name\": \"packet tx (", nic, ")");
                r#"", "cat": "packet", "ph": "i", "ts": "#
            }
            Head::Interrupt(nic) => {
                named("\n  {\"name\": \"rx interrupt (", nic, ")");
                r#"", "cat": "interrupt", "ph": "i", "ts": "#
            }
            Head::Sample(hist) => {
                named("\n  {\"name\": \"sample (", hist, ")");
                r#"", "cat": "sample", "ph": "i", "ts": "#
            }
            Head::Timer => "\n  {\"name\": \"timer\", \"cat\": \"timer\", \"ph\": \"i\", \"ts\": ",
            Head::Crossing(dir) => {
                out.push_str("\n  {\"name\": \"crossing ");
                out.push_str(dir.name());
                r#"", "cat": "crossing", "ph": "i", "ts": "#
            }
            // `"host": "<name>", ` for a named machine, nothing for `""`.
            Head::Host(host) => {
                if !names.get(host).is_empty() {
                    named("\"host\": \"", host, "\", ");
                }
                ""
            }
        };
        out.push_str(cat_ph);
    }
}

/// Every distinct [`Head`] of one export, rendered once into one arena, so
/// a run's heap calls do not grow with its records.
struct Heads<'a> {
    names: &'a Interner,
    text: String,
    /// Each head rendered so far, with where its text lies in `text`.
    spans: Vec<(Head, usize, usize)>,
    /// By a hash of the head, the index in `spans` of the head last seen
    /// with that hash: a run has a few dozen heads, so one probe finds
    /// nearly every record's. (Searching `spans` from past the head found
    /// last, as the journey fold searches its keys, is slower here: the
    /// traced echo's records follow no one order of heads, and 40 % of its
    /// lookups miss the first probe.)
    recent: [usize; 256],
}

impl Heads<'_> {
    /// Appends `head`'s text to `out`. Inlined: it runs once or twice per
    /// record, and a call cost the Chrome fold a tenth of its time.
    #[inline(always)]
    fn push(&mut self, head: Head, out: &mut String) {
        let (tag, a, b) = head.parts();
        let mix = (u64::from(tag) << 40 ^ u64::from(a) << 20 ^ u64::from(b)).wrapping_mul(K);
        let slot = (mix >> 56) as usize;
        let mut at = self.recent[slot];
        if self.spans.get(at).is_none_or(|(h, ..)| *h != head) {
            at = self.find(head);
            self.recent[slot] = at;
        }
        let (_, start, end) = self.spans[at];
        out.push_str(&self.text[start..end]);
    }

    /// Where `head` lies in `spans`, rendering it on first use.
    #[cold]
    fn find(&mut self, head: Head) -> usize {
        let known = self.spans.iter().position(|(h, ..)| *h == head);
        known.unwrap_or_else(|| {
            let start = self.text.len();
            head.render(self.names, &mut self.text);
            self.spans.push((head, start, self.text.len()));
            self.spans.len() - 1
        })
    }
}

/// The multiplier of the `FxHasher` recipe.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// `"00"` to `"99"`, back to back: a number is pushed two digits at a
/// time as slices of it, so its text is `str` by type and never checked.
const PAIRS: &str = {
    const DIGITS: [u8; 200] = {
        let mut pairs = [0; 200];
        let mut i = 0;
        while i < 100 {
            pairs[2 * i] = b'0' + (i / 10) as u8;
            pairs[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        pairs
    };
    match std::str::from_utf8(&DIGITS) {
        Ok(pairs) => pairs,
        Err(_) => panic!("digits are ASCII"),
    }
};

/// Appends `n` in decimal: its two-digit groups are split off from the
/// right, then pushed from the left, a leading lone digit as a `char`.
fn push_num(out: &mut String, n: u64) {
    let mut pairs = [0u8; 10];
    let (mut k, mut m) = (0, n);
    while m >= 100 {
        pairs[k] = (m % 100) as u8;
        m /= 100;
        k += 1;
    }
    if m >= 10 {
        let at = 2 * m as usize;
        out.push_str(&PAIRS[at..at + 2]);
    } else {
        out.push(char::from(b'0' + m as u8));
    }
    for &p in pairs[..k].iter().rev() {
        let at = 2 * p as usize;
        out.push_str(&PAIRS[at..at + 2]);
    }
}

/// Appends `key` and then `n`.
fn push_key_num(out: &mut String, key: &str, n: u64) {
    out.push_str(key);
    push_num(out, n);
}

/// Renders the retained trace as Chrome `trace_event` JSON (the "JSON
/// Array Format" wrapped in `traceEvents`). Load it at `chrome://tracing`
/// or <https://ui.perfetto.dev>.
///
/// Each packet gets its own `tid` row (`tid = packet id + 1`; row 0 holds
/// events recorded outside any packet), so a packet's guard evaluations,
/// handler spans, and drops line up on one timeline track.
///
/// This is the one exporter that writes per ring record, so it copies each
/// record's head from its arena and pushes the rest — fixed text and
/// digits — straight into the output instead of going through `fmt`.
pub fn chrome_trace(rec: &Recorder) -> String {
    let ring = rec.ring();
    let names = rec.names();
    let mut heads = Heads {
        names: &names,
        text: String::new(),
        spans: Vec::new(),
        recent: [usize::MAX; 256],
    };
    let mut out = String::with_capacity(64 + ring.len() * CHROME_BYTES_PER_RECORD);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    // A row's text is at most 51 bytes (a 20-digit tid).
    let (mut row, mut row_of) = (String::with_capacity(64), None);
    for (i, r) in ring.iter().enumerate() {
        heads.push(Head::of(&r.event), &mut out);
        // Microseconds with fixed 3-decimal precision from integer
        // nanoseconds — no floating point, so formatting is byte-stable.
        let ns = r.at_ns % 1_000;
        push_num(&mut out, r.at_ns / 1_000);
        out.push('.');
        for digit in [ns / 100, ns / 10 % 10, ns % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
        // A packet's records are one run of the ring, so the text of its
        // row (pid, tid, the opening of the arguments) is written once per
        // run and copied.
        if row_of != Some(r.packet) {
            row_of = Some(r.packet);
            row.clear();
            row.push_str(", \"pid\": 1, \"tid\": ");
            push_num(&mut row, r.packet.map_or(0, |p| p + 1));
            row.push_str(", \"args\": {");
        }
        out.push_str(&row);
        // The host, where a record names one, is a head of its own.
        match r.event {
            TraceEvent::PacketArrival { host, bytes, .. } => {
                push_key_num(&mut out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                heads.push(Head::Host(host), &mut out);
                match r.journey {
                    Some(journey) => push_key_num(&mut out, "\"journey\": ", journey),
                    None => out.push_str("\"journey\": null"),
                }
            }
            TraceEvent::HandlerEnter { span, .. } | TraceEvent::HandlerExit { span, .. } => {
                push_key_num(&mut out, "\"span\": ", span);
            }
            TraceEvent::PacketTx {
                host,
                bytes,
                queue_ns,
                wait_ns,
                ser_ns,
                prop_ns,
                ..
            } => {
                push_key_num(&mut out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                heads.push(Head::Host(host), &mut out);
                push_key_num(&mut out, "\"queue_ns\": ", queue_ns);
                push_key_num(&mut out, ", \"wait_ns\": ", wait_ns);
                push_key_num(&mut out, ", \"ser_ns\": ", ser_ns);
                push_key_num(&mut out, ", \"prop_ns\": ", prop_ns);
            }
            TraceEvent::RxInterrupt {
                host,
                frames,
                ring_after,
                ..
            } => {
                push_key_num(&mut out, "\"frames\": ", frames.into());
                out.push_str(", ");
                heads.push(Head::Host(host), &mut out);
                push_key_num(&mut out, "\"ring_after\": ", ring_after.into());
            }
            TraceEvent::LatencySample { ns, .. } => push_key_num(&mut out, "\"ns\": ", ns),
            TraceEvent::Crossing { bytes, .. } => {
                push_key_num(&mut out, "\"bytes\": ", bytes.into());
            }
            TraceEvent::GuardEval { .. } | TraceEvent::Drop { .. } | TraceEvent::TimerFire => {}
        }
        out.push_str(if i + 1 < ring.len() { "}}," } else { "}}" });
    }
    out.push_str("\n]}\n");
    out
}

/// Renders counters and histograms as compact stats JSON.
///
/// Counter keys are flattened to `"<scope>.<label>.<metric>"` and sorted
/// lexicographically; histograms report integer ns statistics plus their
/// non-empty log2 buckets as `[bucket_floor_ns, count]` pairs.
pub fn stats_json(rec: &Recorder) -> String {
    let names = rec.names();
    let mut counters: Vec<(String, u64)> = rec
        .registry()
        .counters()
        .into_iter()
        .map(|(k, v)| {
            let key = format!("{}.{}.{}", k.scope.name(), names.get(k.label), k.metric);
            (key, v)
        })
        .collect();
    // Ring truncation is easy to miss in a wall of healthy counters, so a
    // wrapped ring surfaces as an explicit synthesized counter: any
    // profile/timeline built from this recorder excluded orphan packets.
    if rec.overwritten() > 0 {
        counters.push((String::from("trace.truncated.records"), rec.overwritten()));
    }
    counters.sort();

    let mut hists = rec.registry().hists();
    hists.sort_by_key(|(label, _)| names.get(*label));

    let mut out = String::from("{\n");
    put!(out, "  \"events_recorded\": {},\n", rec.recorded());
    put!(out, "  \"events_retained\": {},\n", rec.ring().len());
    put!(out, "  \"events_overwritten\": {},\n", rec.overwritten());
    out.push_str("  \"counters\": {");
    for (i, (k, v)) in counters.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        put!(out, "{sep}\n    \"{}\": {v}", escaped(k));
    }
    out.push_str(if counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"histograms\": {");
    for (i, (label, h)) in hists.iter().enumerate() {
        let (sep, name) = (if i > 0 { "," } else { "" }, escaped(names.get(*label)));
        let (count, min, max, mean) = (h.count(), h.min(), h.max(), h.mean());
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        put!(
            out,
            "{sep}\n    \"{name}\": {{\"count\": {count}, \"min_ns\": {min}, \"max_ns\": {max}, \
             \"mean_ns\": {mean}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"buckets\": ["
        );
        for (j, (floor, n)) in h.nonzero_buckets().into_iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            put!(out, "{sep}[{floor}, {n}]");
        }
        out.push_str("]}");
    }
    out.push_str(if hists.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{CrossDir, GuardKind, Recorder};

    fn populated() -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(64);
        rec.packet_arrival(1_000, rec.intern("Ethernet"), rec.intern(""), 60, None);
        let ev = rec.intern("udp_recv");
        let dom = rec.intern("rtt-extension");
        rec.guard_eval(1_300, ev, GuardKind::Verified, true);
        let span = rec.handler_enter(1_600, ev, dom);
        rec.packet_tx(
            4_000,
            rec.intern("Ethernet"),
            rec.intern(""),
            60,
            0,
            0,
            500,
            1_000,
            rec.current_journey(),
        );
        rec.handler_exit(5_600, ev, dom, span);
        rec.crossing(6_000, CrossDir::KernelToUser, 8);
        rec.packet_done();
        rec.packet_drop(9_000, "ip", "no_route");
        rec.timer_fire(12_000);
        let hist = rec.intern("udp.rtt_ns");
        rec.record_latency(hist, 560_000);
        rec
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_event_kinds() {
        let rec = populated();
        let out = chrome_trace(&rec);
        validate(&out).expect("chrome trace must be well-formed JSON");
        for needle in [
            "packet arrival (Ethernet)",
            "guard udp_recv verified accept",
            "udp_recv [rtt-extension]",
            "\"ph\": \"B\"",
            "\"ph\": \"E\"",
            "\"span\": 0",
            "packet tx (Ethernet)",
            "\"ser_ns\": 500",
            "drop ip: no_route",
            "crossing kernel->user",
            "timer",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
        // 1000 ns -> "1.000" µs, fixed precision.
        assert!(out.contains("\"ts\": 1.000"), "{out}");
    }

    #[test]
    fn stats_json_is_valid_and_sorted() {
        let rec = populated();
        let out = stats_json(&rec);
        validate(&out).expect("stats must be well-formed JSON");
        for needle in [
            "\"guard.udp_recv.verified.accepts\": 1",
            "\"handler.udp_recv.invocations\": 1",
            "\"domain.rtt-extension.invocations\": 1",
            "\"drop.no_route.count\": 1",
            "\"crossing.kernel->user.count\": 1",
            "\"udp.rtt_ns\"",
            "\"count\": 1",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
    }

    #[test]
    fn exports_are_deterministic_across_identical_runs() {
        let a = populated();
        let b = populated();
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
        assert_eq!(stats_json(&a), stats_json(&b));
    }
}
