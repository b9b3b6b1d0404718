//! Exporters: Chrome `trace_event` JSON and compact stats JSON.
//!
//! Both emit integers (or fixed-precision decimals derived from integers)
//! in deterministic key order, so the same simulation produces the same
//! bytes on every run — that property is what the determinism tests pin.
//! Each writes straight into its one output `String`, resolving a label
//! to its name at the point the name's bytes are copied.

use crate::json::{escape_into, escaped, push_u64, put};
use crate::{Label, Recorder, TraceEvent};

/// What one Chrome event takes in the scenarios under `results/` (they
/// average 150 to 165 bytes): the buffer is sized from the ring once and
/// grows, as any `String` does, if a run's names are longer.
const CHROME_BYTES_PER_RECORD: usize = 168;

/// Renders the retained trace as Chrome `trace_event` JSON (the "JSON
/// Array Format" wrapped in `traceEvents`). Load it at `chrome://tracing`
/// or <https://ui.perfetto.dev>.
///
/// Each packet gets its own `tid` row (`tid = packet id + 1`; row 0 holds
/// events recorded outside any packet), so a packet's guard evaluations,
/// handler spans, and drops line up on one timeline track.
///
/// This is the one exporter that writes per ring record, so it appends
/// text, escaped names and digits itself instead of going through `fmt`.
pub fn chrome_trace(rec: &Recorder) -> String {
    let ring = rec.ring();
    let names = rec.names();
    // `{before}{name}{after}`, the name escaped.
    let named = |out: &mut String, before: &str, name: Label, after: &str| {
        out.push_str(before);
        let _ = escape_into(out, names.get(name));
        out.push_str(after);
    };
    let num = |out: &mut String, key: &str, n: u64| {
        out.push_str(key);
        push_u64(out, n);
    };
    // `"host": "<name>", ` for a named machine, nothing for `""`.
    let host_arg = |out: &mut String, host: Label| {
        if !names.get(host).is_empty() {
            named(out, "\"host\": \"", host, "\", ");
        }
    };
    let mut out = String::with_capacity(64 + ring.len() * CHROME_BYTES_PER_RECORD);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, r) in ring.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        out.push_str("\n  {\"name\": \"");
        // Each arm writes the event's name and returns the fixed text up to
        // its timestamp.
        let cat_ph = match r.event {
            TraceEvent::PacketArrival { nic, .. } => {
                named(&mut out, "packet arrival (", nic, ")");
                r#"", "cat": "packet", "ph": "i", "ts": "#
            }
            TraceEvent::GuardEval {
                event,
                kind,
                matched,
            } => {
                named(&mut out, "guard ", event, " ");
                out.push_str(kind.name());
                out.push_str(if matched { " accept" } else { " reject" });
                r#"", "cat": "guard", "ph": "i", "ts": "#
            }
            TraceEvent::HandlerEnter { event, domain, .. } => {
                named(&mut out, "", event, " [");
                named(&mut out, "", domain, "]");
                r#"", "cat": "handler", "ph": "B", "ts": "#
            }
            TraceEvent::HandlerExit { event, domain, .. } => {
                named(&mut out, "", event, " [");
                named(&mut out, "", domain, "]");
                r#"", "cat": "handler", "ph": "E", "ts": "#
            }
            TraceEvent::Drop { layer, reason } => {
                named(&mut out, "drop ", layer, ": ");
                named(&mut out, "", reason, "");
                r#"", "cat": "drop", "ph": "i", "ts": "#
            }
            TraceEvent::PacketTx { nic, .. } => {
                named(&mut out, "packet tx (", nic, ")");
                r#"", "cat": "packet", "ph": "i", "ts": "#
            }
            TraceEvent::RxInterrupt { nic, .. } => {
                named(&mut out, "rx interrupt (", nic, ")");
                r#"", "cat": "interrupt", "ph": "i", "ts": "#
            }
            TraceEvent::LatencySample { hist, .. } => {
                named(&mut out, "sample (", hist, ")");
                r#"", "cat": "sample", "ph": "i", "ts": "#
            }
            TraceEvent::TimerFire => r#"timer", "cat": "timer", "ph": "i", "ts": "#,
            TraceEvent::Crossing { dir, .. } => {
                out.push_str("crossing ");
                out.push_str(dir.name());
                r#"", "cat": "crossing", "ph": "i", "ts": "#
            }
        };
        out.push_str(cat_ph);
        // Microseconds with fixed 3-decimal precision from integer
        // nanoseconds — no floating point, so formatting is byte-stable.
        push_u64(&mut out, r.at_ns / 1_000);
        let ns = r.at_ns % 1_000;
        out.push('.');
        out.extend([ns / 100, ns / 10 % 10, ns % 10].map(|d| char::from(b'0' + d as u8)));
        num(
            &mut out,
            ", \"pid\": 1, \"tid\": ",
            r.packet.map_or(0, |p| p + 1),
        );
        out.push_str(", \"args\": {");
        match r.event {
            TraceEvent::PacketArrival { host, bytes, .. } => {
                num(&mut out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                host_arg(&mut out, host);
                match r.journey {
                    Some(journey) => num(&mut out, "\"journey\": ", journey),
                    None => out.push_str("\"journey\": null"),
                }
            }
            TraceEvent::HandlerEnter { span, .. } | TraceEvent::HandlerExit { span, .. } => {
                num(&mut out, "\"span\": ", span);
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
                num(&mut out, "\"bytes\": ", bytes.into());
                out.push_str(", ");
                host_arg(&mut out, host);
                num(&mut out, "\"queue_ns\": ", queue_ns);
                num(&mut out, ", \"wait_ns\": ", wait_ns);
                num(&mut out, ", \"ser_ns\": ", ser_ns);
                num(&mut out, ", \"prop_ns\": ", prop_ns);
            }
            TraceEvent::RxInterrupt {
                host,
                frames,
                ring_after,
                ..
            } => {
                num(&mut out, "\"frames\": ", frames.into());
                out.push_str(", ");
                host_arg(&mut out, host);
                num(&mut out, "\"ring_after\": ", ring_after.into());
            }
            TraceEvent::LatencySample { ns, .. } => num(&mut out, "\"ns\": ", ns),
            TraceEvent::Crossing { bytes, .. } => num(&mut out, "\"bytes\": ", bytes.into()),
            TraceEvent::GuardEval { .. } | TraceEvent::Drop { .. } | TraceEvent::TimerFire => {}
        }
        out.push_str("}}");
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
