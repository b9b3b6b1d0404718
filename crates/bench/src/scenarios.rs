//! The scenario registry behind `plexus-trace`, the observability CLI.
//!
//! A [`Scenario`] is one deterministic world plus everything an artifact
//! of it needs: the run function, the flight-recorder ring capacity that
//! captures the run without overwrites, the profile detail cap, the app
//! domain that delimits ping-pong rounds, the timeline window width, and
//! the declared SLO. [`Scenario::observe`] replays a scenario once and
//! folds every artifact kind it is asked for from that one recorder; it is
//! what `plexus-trace --emit` calls and what
//! `crates/bench/tests/goldens.rs` calls, so the CLI and the golden gate
//! fold exactly the same thing.

use std::cell::LazyCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use plexus_sim::nic::Link;
use plexus_trace::export::{chrome_trace, stats_json};
use plexus_trace::flame::folded;
use plexus_trace::journey::{self, journeys_json, Journeys};
use plexus_trace::json;
use plexus_trace::live::{LiveConfig, LiveReport, Slo};
use plexus_trace::profile::{pingpong_waterfall, profile_json, Profile};
use plexus_trace::timeline::{self, timeline_json, Timeline, DEFAULT_WINDOW_NS};
use plexus_trace::Recorder;

use crate::fwd_latency::{FwdLatency, FwdSystem};
use crate::overload::{Overload, RxMode, TxMode, Workload};
use crate::report::BenchReport;
use crate::udp_rtt::{System, UdpRtt};
use crate::video_cpu::{VideoCpu, VideoSystem};

/// One replayable scenario. Every run derives all timestamps from the
/// simulated clock, so any exporter over the recorder is byte-identical
/// across runs.
pub struct Scenario {
    /// Registry key (what `plexus-trace` takes on the command line).
    pub name: &'static str,
    /// One line of help shown by `--list`.
    pub help: &'static str,
    /// Flight-recorder ring capacity: large enough that the scenario is
    /// captured without overwrites.
    pub ring: usize,
    /// How many packets keep full span/slice detail in profile JSON (the
    /// cap is stated in the output, never silent).
    pub detail: usize,
    /// The app domain that delimits ping-pong rounds (`None`: no
    /// round-trip waterfall for this scenario).
    pub app_domain: Option<&'static str>,
    /// Timeline window width in simulated nanoseconds — sized so each
    /// scenario folds into tens of windows, not thousands.
    pub window_ns: u64,
    /// The scenario's service-level objectives, evaluated per sealed live
    /// window by the `health` kind (`None`: no declared
    /// health envelope — every window passes). Thresholds are calibrated
    /// against the committed goldens with headroom; a deliberately
    /// *breaching* envelope documents a known-bad configuration (the
    /// per-packet `overload` scenario livelocks by design).
    pub slo: Option<Slo>,
    run: fn(&Rc<Recorder>),
}

impl Scenario {
    /// Replays the scenario with a fresh recorder installed across the
    /// whole world and returns the recorder. The live tier runs alongside
    /// with the scenario's window width and declared SLO, and its summary
    /// counters are flushed into the registry, so every exporter sees
    /// `trace.live.*` health.
    pub fn run(&self) -> Rc<Recorder> {
        self.run_with_slo(self.slo.clone())
    }

    /// [`Scenario::run`] with the SLO replaced (CLI threshold overrides).
    pub fn run_with_slo(&self, slo: Option<Slo>) -> Rc<Recorder> {
        let recorder = Recorder::new(self.ring);
        let mut cfg = LiveConfig::new(self.window_ns);
        cfg.slo = slo;
        recorder.enable_live(cfg);
        (self.run)(&recorder);
        // Seal the trailing windows now so `trace.live.*` counters are
        // complete in the registry; `live_report` stays idempotent for
        // callers that want the full report.
        recorder.live_report();
        recorder
    }

    /// The declared SLO, or one with no thresholds.
    pub fn declared_slo(&self) -> Slo {
        self.slo.clone().unwrap_or_else(Slo::none)
    }

    /// Replays the scenario once, judged against `slo`, and folds every
    /// kind in `emit` from that one recorder; `window_ns` overrides the
    /// scenario's timeline window. The folds that several kinds share are
    /// built lazily, at most once.
    pub fn observe(
        &self,
        emit: &[&str],
        window_ns: Option<u64>,
        slo: &Slo,
    ) -> Result<Observation, String> {
        let name = self.name;
        let rec = self.run_with_slo(Some(slo.clone()));
        let profile = LazyCell::new(|| Profile::build(&rec));
        let journeys = LazyCell::new(|| journey::build(&profile));
        let window_ns = window_ns.unwrap_or(self.window_ns);
        let narrowest = timeline::min_window_ns(&rec);
        if window_ns < narrowest {
            return Err(format!(
                "{name}: a {window_ns} ns window would fold this run into more than {} windows; \
                 the smallest accepted width is {narrowest} ns",
                timeline::MAX_WINDOWS
            ));
        }
        let timeline = LazyCell::new(|| timeline::build(&rec, window_ns));

        let mut files = Vec::new();
        let mut health = None;
        for kind in KINDS.iter().filter(|k| emit.contains(k)) {
            let body = match *kind {
                "trace" => chrome_trace(&rec) + "\n",
                "stats" => stats_json(&rec) + "\n",
                "profile" => {
                    let waterfall = self
                        .app_domain
                        .map(|domain| pingpong_waterfall(&profile, domain))
                        .transpose()
                        .map_err(|e| format!("{name}: no waterfall: {e}"))?;
                    profile_json(&profile, waterfall.as_ref(), self.detail)
                }
                "folded" => folded(&profile),
                "timeline" => timeline_json(&timeline),
                "journeys" => journeys_json(&journeys, self.detail),
                "bench" => worst_window_report(name, &timeline, &journeys).to_json() + "\n",
                "health" => {
                    let rep = rec.live_report().expect("scenarios enable the live tier");
                    let body = health_json(name, &rep, slo);
                    health = Some(rep);
                    body
                }
                _ => unreachable!("every kind in KINDS has an arm"),
            };
            let file = artifact_file(name, kind);
            if file.ends_with(".json") {
                json::validate(&body).map_err(|e| {
                    format!("{name}: internal error: emitted {kind} JSON invalid: {e}")
                })?;
            }
            files.push((file, body));
        }
        Ok(Observation {
            recorded: rec.recorded(),
            overwritten: rec.overwritten(),
            files,
            health,
        })
    }
}

/// Every artifact kind [`Scenario::observe`] can fold, in the order the
/// artifacts are produced.
pub const KINDS: [&str; 8] = [
    "trace", "stats", "profile", "folded", "timeline", "journeys", "bench", "health",
];

/// The file name of `scenario`'s artifact of `kind` (one of [`KINDS`]).
pub fn artifact_file(scenario: &str, kind: &str) -> String {
    match kind {
        "folded" => format!("{scenario}.folded"),
        "bench" => format!("BENCH_timeline_{scenario}.json"),
        "health" => format!("HEALTH_{scenario}.json"),
        _ => format!("{scenario}.{kind}.json"),
    }
}

/// What one replay produced.
pub struct Observation {
    /// Records the recorder captured.
    pub recorded: u64,
    /// Records the ring overwrote (non-zero: the artifacts under-report).
    pub overwritten: u64,
    /// `(file name, body)` per requested kind, in [`KINDS`] order.
    pub files: Vec<(String, String)>,
    /// The live report the `health` verdict was rendered from (`None`
    /// unless `health` was requested).
    pub health: Option<LiveReport>,
}

fn udp_rtt(system: System, rec: &Rc<Recorder>) {
    UdpRtt {
        recorder: Some(rec),
        ..UdpRtt::new(system, &Link::ethernet(), 8, 20)
    }
    .run();
}

fn run_udp_rtt(rec: &Rc<Recorder>) {
    udp_rtt(System::PlexusInterrupt, rec);
}

fn run_udp_rtt_thread(rec: &Rc<Recorder>) {
    udp_rtt(System::PlexusThread, rec);
}

fn run_fig6_video(rec: &Rc<Recorder>) {
    VideoCpu {
        recorder: Some(rec),
        ..VideoCpu::new(VideoSystem::Spin, 15, 1)
    }
    .run();
}

fn run_fig7_forwarding(rec: &Rc<Recorder>) {
    FwdLatency {
        recorder: Some(rec),
        ..FwdLatency::new(FwdSystem::Plexus, &Link::ethernet(), 64, 5)
    }
    .run();
}

fn run_overload(rec: &Rc<Recorder>) {
    Overload {
        recorder: Some(rec),
        ..Overload::new(Workload::UdpEcho, RxMode::PerPacket, &Link::t3(), (1, 4))
    }
    .run();
}

fn run_overload_coalesced(rec: &Rc<Recorder>) {
    Overload {
        recorder: Some(rec),
        ..Overload::new(Workload::UdpEcho, RxMode::Coalesced, &Link::t3(), (1, 4))
    }
    .run();
}

fn run_tx_overload(rec: &Rc<Recorder>) {
    Overload {
        tx: TxMode::Doorbell,
        recorder: Some(rec),
        ..Overload::new(
            Workload::UdpEcho,
            RxMode::Coalesced,
            &Link::gigabit(),
            (4, 1),
        )
    }
    .run();
}

fn run_tx_fanout(rec: &Rc<Recorder>) {
    Overload {
        tx: TxMode::Doorbell,
        recorder: Some(rec),
        ..Overload::new(
            Workload::UdpFanout,
            RxMode::Coalesced,
            &Link::gigabit(),
            (1, 1),
        )
    }
    .run();
}

/// The worst-window metrics of the `bench` kind: a transient regression
/// changes the file even when the run-wide mean is unchanged, and the
/// window *index* is part of it, so a transient that merely moves does too.
fn worst_window_report(name: &str, tl: &Timeline, journeys: &Journeys) -> BenchReport {
    let mut report = BenchReport::new(&format!("timeline_{name}"));
    if let Some(w) = timeline::worst_p99_window(&tl.windows) {
        report.scalar_windowed("worst_p99_us", w.p99_ns as f64 / 1000.0, "us", w.index);
    }
    if let Some(w) = timeline::worst_drop_window(&tl.windows) {
        let drops = w.drop_count() as f64;
        report.scalar_windowed("worst_window_drops", drops, "drops", w.index);
    }
    report.count("windows", tl.windows.len() as u64);
    let completions = tl.windows.iter().map(|w| w.completions).sum();
    report.count("completions", completions);
    report.count("drops", tl.windows.iter().map(|w| w.drop_count()).sum());
    report.count("journeys", journeys.journeys.len() as u64);
    report.count("truncated_records", tl.truncated_records);
    report.count("orphan_packets", journeys.orphan_packets);
    report.count("journeys_truncated", journeys.journeys_truncated);
    report
}

/// Renders the health verdict as deterministic JSON (schema
/// `plexus.health.v1`).
fn health_json(scenario: &str, rep: &LiveReport, slo: &Slo) -> String {
    let opt = |v: Option<u64>| v.map_or(String::from("null"), |n| n.to_string());
    let breached: BTreeSet<u64> = rep.breaches.iter().map(|b| b.window).collect();
    let mut out = String::from("{\n  \"schema\": \"plexus.health.v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
    out.push_str(&format!("  \"window_ns\": {},\n", rep.window_ns));
    out.push_str(&format!(
        "  \"slo\": {{\"p99_ceiling_ns\": {}, \"drop_ppm_ceiling\": {}, \
         \"goodput_floor\": {}, \"skip_head\": {}}},\n",
        opt(slo.p99_ceiling_ns),
        opt(slo.drop_ppm_ceiling),
        opt(slo.goodput_floor),
        slo.skip_head
    ));
    out.push_str(&format!("  \"windows_total\": {},\n", rep.windows.len()));
    let online = rep.windows_sealed_online;
    out.push_str(&format!("  \"windows_sealed_online\": {online},\n"));
    out.push_str(&format!("  \"windows_breached\": {},\n", breached.len()));
    out.push_str(&format!("  \"late_records\": {},\n", rep.late_records));
    out.push_str("  \"breaches\": [");
    for (i, b) in rep.breaches.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        out.push_str(&format!(
            "\n    {{\"window\": {}, \"kind\": \"{}\", \"value\": {}, \"limit\": {}}}",
            b.window,
            b.kind.name(),
            b.value,
            b.limit
        ));
    }
    let close = |empty: bool, tail| {
        if empty {
            format!("]{tail}")
        } else {
            format!("\n  ]{tail}")
        }
    };
    out.push_str(&close(rep.breaches.is_empty(), ",\n"));
    out.push_str("  \"verdicts\": [");
    for (i, w) in rep.windows.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        let kinds: Vec<String> = rep
            .breach_kinds(w.index)
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect();
        let verdict = if kinds.is_empty() {
            String::from("\"pass\"")
        } else {
            format!("[{}]", kinds.join(", "))
        };
        out.push_str(&format!(
            "\n    {{\"window\": {}, \"arrivals\": {}, \"completions\": {}, \
             \"p99_ns\": {}, \"drops\": {}, \"verdict\": {verdict}}}",
            w.index,
            w.arrivals,
            w.completions,
            w.p99_ns,
            w.drop_count()
        ));
    }
    out.push_str(&close(rep.windows.is_empty(), "\n}\n"));
    out
}

/// Every scenario `plexus-trace` can replay.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "udp_rtt",
        help: "UDP echo ping-pong, interrupt-level handlers, Ethernet, 20 rounds (Figure 5)",
        ring: 1 << 16,
        detail: 64,
        app_domain: Some("rtt-bench"),
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(700_000),
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_udp_rtt,
    },
    Scenario {
        name: "udp_rtt_thread",
        help: "the same ping-pong with thread-mode delivery (Figure 5's other Plexus bar)",
        ring: 1 << 16,
        detail: 64,
        app_domain: Some("rtt-bench"),
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(1_100_000),
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_udp_rtt_thread,
    },
    Scenario {
        name: "fig6_video",
        help: "video server at 15 streams over the T3 for 1 simulated second (Figure 6)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: 100_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: None,
            drop_ppm_ceiling: Some(0),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_fig6_video,
    },
    Scenario {
        name: "fig7_forwarding",
        help: "TCP echo through the in-kernel forwarder, 5 rounds (Figure 7)",
        ring: 1 << 16,
        detail: 16,
        app_domain: None,
        window_ns: 1_000_000,
        slo: Some(Slo {
            p99_ceiling_ns: Some(1_600_000),
            drop_ppm_ceiling: Some(900_000),
            goodput_floor: None,
            skip_head: 0,
        }),
        run: run_fig7_forwarding,
    },
    Scenario {
        name: "overload",
        help: "UDP echo at 1/4 line rate on the per-packet rx path (the saturating one)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(15_000_000),
            drop_ppm_ceiling: Some(350_000),
            goodput_floor: Some(90),
            skip_head: 0,
        }),
        run: run_overload,
    },
    Scenario {
        name: "overload_coalesced",
        help: "the same offered load on the coalesced rx path (sheds instead of saturating)",
        ring: 1 << 18,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(15_000_000),
            drop_ppm_ceiling: Some(350_000),
            goodput_floor: Some(90),
            skip_head: 0,
        }),
        run: run_overload_coalesced,
    },
    Scenario {
        name: "tx_overload",
        help: "UDP echo storm at 4x line rate on the gigabit doorbell-batched tx path",
        ring: 1 << 21,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(25_000_000),
            drop_ppm_ceiling: Some(4_200_000),
            goodput_floor: Some(250),
            skip_head: 0,
        }),
        run: run_tx_overload,
    },
    Scenario {
        name: "tx_fanout",
        help: "fig6-style 4-way fan-out at line rate, transmit-bound, doorbell-batched",
        ring: 1 << 20,
        detail: 8,
        app_domain: None,
        window_ns: DEFAULT_WINDOW_NS,
        slo: Some(Slo {
            p99_ceiling_ns: Some(65_000_000),
            drop_ppm_ceiling: Some(980_000),
            goodput_floor: Some(400),
            skip_head: 0,
        }),
        run: run_tx_fanout,
    },
];

/// Looks up a scenario by name, accepting `examples/<name>` and
/// `<name>.rs` spellings.
pub fn find(raw: &str) -> Option<&'static Scenario> {
    let name = raw.trim_start_matches("examples/").trim_end_matches(".rs");
    SCENARIOS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_strips_prefixes() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[i + 1..].iter().all(|o| o.name != s.name),
                "duplicate scenario name {}",
                s.name
            );
        }
        assert_eq!(find("udp_rtt").unwrap().name, "udp_rtt");
        assert_eq!(find("examples/udp_rtt").unwrap().name, "udp_rtt");
        assert_eq!(find("examples/udp_rtt.rs").unwrap().name, "udp_rtt");
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn every_scenario_has_a_positive_window() {
        for s in SCENARIOS {
            assert!(s.window_ns > 0, "{}: zero window", s.name);
            assert!(s.ring > 0, "{}: zero ring", s.name);
        }
    }
}
