//! Exporters: Chrome `trace_event` JSON and compact stats JSON.
//!
//! Both emit integers (or fixed-precision decimals derived from integers)
//! in deterministic key order, so the same simulation produces the same
//! bytes on every run — that property is what the determinism tests pin.
//! Each writes straight into its one output `String`, resolving a label
//! to its name at the point the name's bytes are copied.

use crate::json::{escape_into, escaped, exact, put, Len, Sink};
use crate::recorder::Interner;
use crate::{CounterKey, CrossDir, GuardKind, Histogram, Label, Recorder, Ring, TraceEvent};

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

    /// Appends the head's text, names escaped, or counts it.
    fn render<S: Sink>(self, names: &impl Names<S>, out: &mut S) {
        // `{before}{name}{after}`.
        let mut named = |before: &str, name: Label, after: &str| {
            out.push_str(before);
            names.write(name, out);
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
                if !names.is_empty(host) {
                    named("\"host\": \"", host, "\", ");
                }
                ""
            }
        };
        out.push_str(cat_ph);
    }
}

/// How a head's names are written: escaped from the name table into the
/// arena of heads, or counted from their escaped lengths.
trait Names<S: Sink> {
    fn write(&self, name: Label, out: &mut S);

    fn is_empty(&self, name: Label) -> bool;
}

impl Names<String> for Interner {
    fn write(&self, name: Label, out: &mut String) {
        let _ = escape_into(out, self.get(name));
    }

    fn is_empty(&self, name: Label) -> bool {
        self.get(name).is_empty()
    }
}

/// Every name's escaped length, by label.
struct NameLens(Vec<usize>);

impl NameLens {
    fn of(names: &Interner) -> NameLens {
        let len = |i| {
            let mut len = Len::default();
            let _ = escape_into(&mut len, names.get(Label(i)));
            len.0
        };
        let count = u32::try_from(names.len()).expect("labels are u32");
        NameLens((0..count).map(len).collect())
    }
}

impl Names<Len> for NameLens {
    fn write(&self, name: Label, out: &mut Len) {
        out.0 += self.0[name.0 as usize];
    }

    /// Only the empty name escapes to nothing.
    fn is_empty(&self, name: Label) -> bool {
        self.0[name.0 as usize] == 0
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

/// How the Chrome walk writes a record's heads into its output.
trait PushHead<S> {
    fn push(&mut self, head: Head, out: &mut S);
}

/// The counting pass adds each head up from its names' lengths, so it
/// finds no head's text.
impl PushHead<Len> for NameLens {
    #[inline(always)]
    fn push(&mut self, head: Head, out: &mut Len) {
        head.render(&*self, out);
    }
}

impl PushHead<String> for Heads<'_> {
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
}

impl Heads<'_> {
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

/// `".000"` to `".999"`, back to back: a timestamp's fraction of a
/// microsecond is pushed as one four-byte slice of it.
const FRACTIONS: &str = {
    const TEXT: [u8; 4000] = {
        let mut text = [0; 4000];
        let mut i = 0;
        while i < 1000 {
            let at = 4 * i;
            text[at] = b'.';
            text[at + 1] = b'0' + (i / 100) as u8;
            text[at + 2] = b'0' + (i / 10 % 10) as u8;
            text[at + 3] = b'0' + (i % 10) as u8;
            i += 1;
        }
        text
    };
    match std::str::from_utf8(&TEXT) {
        Ok(fractions) => fractions,
        Err(_) => panic!("digits are ASCII"),
    }
};

/// Appends `key` and then `n`.
fn push_key_num(out: &mut impl Sink, key: &str, n: u64) {
    out.push_str(key);
    out.push_num(n);
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
    // A row's text is at most 51 bytes (a 20-digit tid).
    let mut row = String::with_capacity(64);
    // A counting pass first, so the document is reserved at its length.
    let mut len = Len::default();
    chrome_events(&ring, &mut NameLens::of(&names), &mut row, &mut len);
    let mut heads = Heads {
        names: &names,
        text: String::new(),
        spans: Vec::new(),
        recent: [usize::MAX; 256],
    };
    let mut out = String::with_capacity(len.0);
    chrome_events(&ring, &mut heads, &mut row, &mut out);
    debug_assert_eq!(out.len(), len.0, "the counting pass measured the trace");
    out
}

/// Writes the Chrome document of `ring` into `out`: its text, or its
/// length. `row` holds the text of the row being written.
fn chrome_events<S: Sink>(
    ring: &Ring,
    heads: &mut impl PushHead<S>,
    row: &mut String,
    out: &mut S,
) {
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    let mut row_of = None;
    for (i, r) in ring.iter().enumerate() {
        heads.push(Head::of(&r.event), out);
        // Microseconds with fixed 3-decimal precision from integer
        // nanoseconds — no floating point, so formatting is byte-stable.
        out.push_num(r.at_ns / 1_000);
        let at = 4 * (r.at_ns % 1_000) as usize;
        out.push_str(&FRACTIONS[at..at + 4]);
        // A packet's records are one run of the ring, so the text of its
        // row (pid, tid, the opening of the arguments) is written once per
        // run and copied.
        if row_of != Some(r.packet) {
            row_of = Some(r.packet);
            row.clear();
            row.push_str(", \"pid\": 1, \"tid\": ");
            Sink::push_num(row, r.packet.map_or(0, |p| p + 1));
            row.push_str(", \"args\": {");
        }
        out.push_str(row);
        // The host, where a record names one, is a head of its own.
        match r.event {
            TraceEvent::PacketArrival { host, bytes, .. } => {
                push_key_num(out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                heads.push(Head::Host(host), out);
                match r.journey {
                    Some(journey) => push_key_num(out, "\"journey\": ", journey),
                    None => out.push_str("\"journey\": null"),
                }
            }
            TraceEvent::HandlerEnter { span, .. } | TraceEvent::HandlerExit { span, .. } => {
                push_key_num(out, "\"span\": ", span);
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
                push_key_num(out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                heads.push(Head::Host(host), out);
                push_key_num(out, "\"queue_ns\": ", queue_ns);
                push_key_num(out, ", \"wait_ns\": ", wait_ns);
                push_key_num(out, ", \"ser_ns\": ", ser_ns);
                push_key_num(out, ", \"prop_ns\": ", prop_ns);
            }
            TraceEvent::RxInterrupt {
                host,
                frames,
                ring_after,
                ..
            } => {
                push_key_num(out, "\"frames\": ", frames.into());
                out.push_str(", ");
                heads.push(Head::Host(host), out);
                push_key_num(out, "\"ring_after\": ", ring_after.into());
            }
            TraceEvent::LatencySample { ns, .. } => push_key_num(out, "\"ns\": ", ns),
            TraceEvent::Crossing { bytes, .. } => {
                push_key_num(out, "\"bytes\": ", bytes.into());
            }
            TraceEvent::GuardEval { .. } | TraceEvent::Drop { .. } | TraceEvent::TimerFire => {}
        }
        // Two fixed pushes, which copy inline, where one of two lengths
        // would call `memcpy`.
        out.push_str("}}");
        if i + 1 < ring.len() {
            out.push(',');
        }
    }
    out.push_str("\n]}\n");
}

/// The bytes of the counter key `<scope>.<label>.<metric>`, which sorts
/// as they do, without writing the key out.
fn dotted<'a>([scope, label, metric]: [&'a str; 3]) -> impl Iterator<Item = u8> + 'a {
    let dot = || std::iter::once(b'.');
    (scope.bytes().chain(dot()).chain(label.bytes()))
        .chain(dot())
        .chain(metric.bytes())
}

/// Renders counters and histograms as compact stats JSON.
///
/// Counter keys are flattened to `"<scope>.<label>.<metric>"` and sorted
/// lexicographically; histograms report integer ns statistics plus their
/// non-empty log2 buckets as `[bucket_floor_ns, count]` pairs.
pub fn stats_json(rec: &Recorder) -> String {
    let names = rec.names();
    let registry = rec.registry();
    let (table, hist_table) = (registry.counter_table(), registry.hist_table());
    // Ring truncation is easy to miss in a wall of healthy counters, so a
    // wrapped ring surfaces as an explicit synthesized counter (`None`
    // below): any profile/timeline built from this recorder excluded
    // orphan packets.
    let truncated = rec.overwritten();
    let len = table.iter().map(Vec::len).sum::<usize>() + usize::from(truncated > 0);
    let mut counters: Vec<Option<&(CounterKey, u64)>> = Vec::with_capacity(len);
    counters.extend(table.iter().flatten().map(Some));
    if truncated > 0 {
        counters.push(None);
    }
    let key = |c: Option<&(CounterKey, u64)>| match c {
        Some(&(k, n)) => ([k.scope.name(), names.get(k.label), k.metric], n),
        None => (["trace", "truncated", "records"], truncated),
    };
    // In the order of the flattened keys, then of the values.
    counters.sort_unstable_by(|&a, &b| {
        let ((a, m), (b, n)) = (key(a), key(b));
        dotted(a).cmp(dotted(b)).then(m.cmp(&n))
    });
    let mut hists: Vec<(&str, &Histogram)> = Vec::with_capacity(hist_table.len());
    hists.extend(hist_table.iter().map(|(&label, h)| (names.get(label), h)));
    hists.sort_unstable_by_key(|&(name, _)| name);

    exact(|out| {
        out.push_str("{\n");
        put!(out, "  \"events_recorded\": {},\n", rec.recorded());
        put!(out, "  \"events_retained\": {},\n", rec.ring().len());
        put!(out, "  \"events_overwritten\": {},\n", truncated);
        out.push_str("  \"counters\": {");
        for (i, &c) in counters.iter().enumerate() {
            let (sep, ([scope, label, metric], v)) = (if i > 0 { "," } else { "" }, key(c));
            let [scope, label, metric] = [scope, label, metric].map(escaped);
            put!(out, "{sep}\n    \"{scope}.{label}.{metric}\": {v}");
        }
        out.push_str(if counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, &(name, h)) in hists.iter().enumerate() {
            let (sep, name) = (if i > 0 { "," } else { "" }, escaped(name));
            let (count, min, max, mean) = (h.count(), h.min(), h.max(), h.mean());
            let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
            put!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {count}, \"min_ns\": {min}, \"max_ns\": {max}, \
                 \"mean_ns\": {mean}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"buckets\": ["
            );
            for (j, (floor, n)) in h.nonzero_buckets().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                put!(out, "{sep}[{floor}, {n}]");
            }
            out.push_str("]}");
        }
        out.push_str(if hists.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
    })
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
        rec.packet_drop(9_000, rec.intern("ip"), rec.intern("no_route"));
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
