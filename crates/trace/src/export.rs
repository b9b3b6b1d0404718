//! Exporters: Chrome `trace_event` JSON and compact stats JSON.
//!
//! Both emit integers (or fixed-precision decimals derived from integers)
//! in deterministic key order, so the same simulation produces the same
//! bytes on every run — that property is what the determinism tests pin.

use crate::json::escape;
use crate::{Recorder, TraceEvent};

/// Microseconds with fixed 3-decimal precision from integer nanoseconds —
/// no floating point, so formatting is byte-stable.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the retained trace as Chrome `trace_event` JSON (the "JSON
/// Array Format" wrapped in `traceEvents`). Load it at `chrome://tracing`
/// or <https://ui.perfetto.dev>.
///
/// Each packet gets its own `tid` row (`tid = packet id + 1`; row 0 holds
/// events recorded outside any packet), so a packet's guard evaluations,
/// handler spans, and drops line up on one timeline track.
pub fn chrome_trace(rec: &Recorder) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    let mut first = true;
    for r in rec.ring().iter() {
        let tid = r.packet.map_or(0, |p| p + 1);
        let (name, cat, ph, args) = match r.event {
            TraceEvent::PacketArrival { nic, host, bytes } => (
                format!("packet arrival ({})", rec.name(nic)),
                "packet",
                "i",
                {
                    let host = rec.name(host);
                    let journey = r.journey.map_or(String::from("null"), |j| j.to_string());
                    if host.is_empty() {
                        format!("{{\"bytes\": {bytes}, \"journey\": {journey}}}")
                    } else {
                        format!(
                            "{{\"bytes\": {bytes}, \"host\": \"{}\", \"journey\": {journey}}}",
                            escape(&host)
                        )
                    }
                },
            ),
            TraceEvent::GuardEval {
                event,
                kind,
                matched,
            } => (
                format!(
                    "guard {} {} {}",
                    rec.name(event),
                    kind.name(),
                    if matched { "accept" } else { "reject" }
                ),
                "guard",
                "i",
                String::from("{}"),
            ),
            TraceEvent::HandlerEnter {
                event,
                domain,
                span,
            } => (
                format!("{} [{}]", rec.name(event), rec.name(domain)),
                "handler",
                "B",
                format!("{{\"span\": {span}}}"),
            ),
            TraceEvent::HandlerExit {
                event,
                domain,
                span,
            } => (
                format!("{} [{}]", rec.name(event), rec.name(domain)),
                "handler",
                "E",
                format!("{{\"span\": {span}}}"),
            ),
            TraceEvent::Drop { layer, reason } => (
                format!("drop {}: {}", rec.name(layer), rec.name(reason)),
                "drop",
                "i",
                String::from("{}"),
            ),
            TraceEvent::PacketTx {
                nic,
                host,
                bytes,
                queue_ns,
                wait_ns,
                ser_ns,
                prop_ns,
            } => (format!("packet tx ({})", rec.name(nic)), "packet", "i", {
                let host = rec.name(host);
                if host.is_empty() {
                    format!(
                        "{{\"bytes\": {bytes}, \"queue_ns\": {queue_ns}, \
                             \"wait_ns\": {wait_ns}, \"ser_ns\": {ser_ns}, \
                             \"prop_ns\": {prop_ns}}}"
                    )
                } else {
                    format!(
                        "{{\"bytes\": {bytes}, \"host\": \"{}\", \"queue_ns\": {queue_ns}, \
                             \"wait_ns\": {wait_ns}, \"ser_ns\": {ser_ns}, \
                             \"prop_ns\": {prop_ns}}}",
                        escape(&host)
                    )
                }
            }),
            TraceEvent::RxInterrupt {
                nic,
                host,
                frames,
                ring_after,
            } => (
                format!("rx interrupt ({})", rec.name(nic)),
                "interrupt",
                "i",
                {
                    let host = rec.name(host);
                    if host.is_empty() {
                        format!("{{\"frames\": {frames}, \"ring_after\": {ring_after}}}")
                    } else {
                        format!(
                            "{{\"frames\": {frames}, \"host\": \"{}\", \"ring_after\": {ring_after}}}",
                            escape(&host)
                        )
                    }
                },
            ),
            TraceEvent::LatencySample { hist, ns } => (
                format!("sample ({})", rec.name(hist)),
                "sample",
                "i",
                format!("{{\"ns\": {ns}}}"),
            ),
            TraceEvent::TimerFire => (String::from("timer"), "timer", "i", String::from("{}")),
            TraceEvent::Crossing { dir, bytes } => (
                format!("crossing {}", dir.name()),
                "crossing",
                "i",
                format!("{{\"bytes\": {bytes}}}"),
            ),
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \
             \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {}}}",
            escape(&name),
            cat,
            ph,
            ts_us(r.at_ns),
            tid,
            args
        ));
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
    let mut counters: Vec<(String, u64)> = rec
        .registry()
        .counters()
        .into_iter()
        .map(|(k, v)| {
            (
                format!("{}.{}.{}", k.scope.name(), rec.name(k.label), k.metric),
                v,
            )
        })
        .collect();
    // Ring truncation is easy to miss in a wall of healthy counters, so a
    // wrapped ring surfaces as an explicit synthesized counter: any
    // profile/timeline built from this recorder excluded orphan packets.
    if rec.overwritten() > 0 {
        counters.push((String::from("trace.truncated.records"), rec.overwritten()));
    }
    counters.sort();

    let mut hists: Vec<(String, String)> = rec
        .registry()
        .hists()
        .into_iter()
        .map(|(label, h)| {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(floor, n)| format!("[{floor}, {n}]"))
                .collect();
            let body = format!(
                "{{\"count\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"buckets\": [{}]}}",
                h.count(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                buckets.join(", ")
            );
            (rec.name(label), body)
        })
        .collect();
    hists.sort();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"events_recorded\": {},\n", rec.recorded()));
    out.push_str(&format!("  \"events_retained\": {},\n", rec.ring().len()));
    out.push_str(&format!(
        "  \"events_overwritten\": {},\n",
        rec.overwritten()
    ));
    out.push_str("  \"counters\": {");
    for (i, (k, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(k), v));
    }
    out.push_str(if counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"histograms\": {");
    for (i, (k, body)) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(k), body));
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
        rec.packet_arrival(1_000, "Ethernet", "", 60, None);
        let ev = rec.intern("udp_recv");
        let dom = rec.intern("rtt-extension");
        rec.guard_eval(1_300, ev, GuardKind::Verified, true);
        let span = rec.handler_enter(1_600, ev, dom);
        rec.packet_tx(
            4_000,
            "Ethernet",
            "",
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
