//! The experiment registry behind `plexus-bench`.
//!
//! A [`Figure`] is one table or figure of the paper's evaluation (or one
//! of the supplementary sweeps): a name, a line of help, a plain function
//! beside the experiment module it drives that writes the human tables
//! and fills a [`BenchReport`], and the [`Cell`]s — the traced worlds
//! that restate it. [`Cell::observe`] replays a cell once and folds every
//! artifact kind it is asked for from that one recorder. `plexus-bench`
//! and `crates/bench/tests/goldens.rs` both run these entries, so the CLI
//! and the golden gate cannot drift apart.

use std::cell::LazyCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use plexus_sim::nic::Link;
use plexus_sim::{Books, Machine};
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
use crate::{
    am_latency, client_video, fwd_latency, guard_eval, guard_state, http_latency, overload, sweeps,
    tcp_tput, txn_latency, udp_rtt, video_cpu,
};

/// One regenerable figure. Every value comes off the simulated clock, so
/// both outputs are byte-identical across runs.
pub struct Figure {
    /// Registry key: what `plexus-bench` takes on the command line and the
    /// `bench` member of the report.
    pub name: &'static str,
    /// One line of help shown by `--help`.
    pub help: &'static str,
    run: fn(&mut String, &mut BenchReport),
    /// The traced worlds that restate this figure, replayed by
    /// `plexus-bench FIGURE/CELL`.
    pub cells: &'static [Cell],
}

impl Figure {
    /// Runs the experiment; returns the human tables and the report.
    pub fn run(&self) -> (String, BenchReport) {
        let (mut tables, mut report) = (String::new(), BenchReport::new(self.name));
        (self.run)(&mut tables, &mut report);
        (tables, report)
    }

    /// The file under `results/` that holds this figure's report.
    pub fn golden_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// One replayable traced world of a figure. Every run derives all
/// timestamps from the simulated clock, so any exporter over the recorder
/// is byte-identical across runs.
#[derive(Clone)]
pub struct Cell {
    /// The cell's name within its figure, and the prefix of its artifacts.
    pub name: &'static str,
    /// One line of help shown by `--help`.
    pub help: &'static str,
    /// Flight-recorder ring capacity: large enough that the cell is
    /// captured without overwrites.
    pub ring: usize,
    /// How many packets keep full span/slice detail in profile JSON (the
    /// cap is stated in the output, never silent).
    pub detail: usize,
    /// The app domain that delimits ping-pong rounds (`None`: no
    /// round-trip waterfall for this cell).
    pub app_domain: Option<&'static str>,
    /// Timeline and live window width in simulated nanoseconds — sized so
    /// each cell folds into tens of windows, not thousands.
    pub window_ns: u64,
    /// The service-level objectives each sealed live window is judged
    /// against by the `health` kind. Thresholds are calibrated against
    /// the committed goldens with headroom; a deliberately *breaching*
    /// envelope documents a known-bad configuration (the per-packet
    /// `overload` cell livelocks by design).
    pub slo: Slo,
    /// Builds and runs the world with the recorder installed across it,
    /// and hands back its machines.
    pub world: fn(&Rc<Recorder>) -> Vec<Rc<Machine>>,
}

impl Cell {
    /// Replays the cell with a fresh recorder installed across the whole
    /// world and returns the recorder. The live tier runs alongside with
    /// the cell's window width and SLO, and its summary counters are
    /// flushed into the registry, so every exporter sees `trace.live.*`
    /// health.
    pub fn run(&self) -> Rc<Recorder> {
        self.replay().0
    }

    /// [`Cell::run`], with the world's machines.
    fn replay(&self) -> (Rc<Recorder>, Vec<Rc<Machine>>) {
        let recorder = Recorder::new(self.ring);
        let mut cfg = LiveConfig::new(self.window_ns);
        cfg.slo = Some(self.slo.clone());
        recorder.enable_live(cfg);
        let machines = (self.world)(&recorder);
        // Seal the trailing windows now so `trace.live.*` counters are
        // complete in the registry; `live_report` stays idempotent for
        // callers that want the full report.
        recorder.live_report();
        (recorder, machines)
    }

    /// Replays the cell once and folds every kind in `emit` from that one
    /// recorder. The folds that several kinds share are built lazily, at
    /// most once.
    pub fn observe(&self, emit: &[&str]) -> Result<Observation, String> {
        let name = self.name;
        let (rec, machines) = self.replay();
        let profile = LazyCell::new(|| Profile::build(&rec));
        let journeys = LazyCell::new(|| journey::build(&profile));
        let timeline = LazyCell::new(|| timeline::build(&rec, self.window_ns));

        let mut files = Vec::new();
        let mut breached = false;
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
                    let rep = rec.live_report().expect("cells enable the live tier");
                    breached = !rep.breaches.is_empty();
                    health_json(name, &rep, &self.slo)
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
            breached,
            books: machines
                .iter()
                .map(|m| (m.name().to_string(), m.books()))
                .collect(),
        })
    }
}

/// Every artifact kind [`Cell::observe`] can fold, in the order the
/// artifacts are produced.
pub const KINDS: [&str; 8] = [
    "trace", "stats", "profile", "folded", "timeline", "journeys", "bench", "health",
];

/// The file name of `cell`'s artifact of `kind` (one of [`KINDS`]).
pub fn artifact_file(cell: &str, kind: &str) -> String {
    match kind {
        "folded" => format!("{cell}.folded"),
        "bench" => format!("BENCH_timeline_{cell}.json"),
        "health" => format!("HEALTH_{cell}.json"),
        _ => format!("{cell}.{kind}.json"),
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
    /// `health` was requested and a sealed window breached the SLO.
    pub breached: bool,
    /// Each machine's name and its books at the end of the run.
    pub books: Vec<(String, Books)>,
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
fn health_json(cell: &str, rep: &LiveReport, slo: &Slo) -> String {
    let opt = |v: Option<u64>| v.map_or(String::from("null"), |n| n.to_string());
    let breached: BTreeSet<u64> = rep.breaches.iter().map(|b| b.window).collect();
    let mut out = String::from("{\n  \"schema\": \"plexus.health.v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{cell}\",\n"));
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

/// A cell's SLO: a drop-rate ceiling, and optionally a p99 ceiling and a
/// goodput floor, judged from the first window.
const fn slo(p99_ceiling_ns: Option<u64>, drop_ppm: u64, goodput_floor: Option<u64>) -> Slo {
    Slo {
        p99_ceiling_ns,
        drop_ppm_ceiling: Some(drop_ppm),
        goodput_floor,
        skip_head: 0,
    }
}

/// Figure 5's ping-pong over Ethernet, 20 rounds.
fn ping_pong(system: System, rec: &Rc<Recorder>) -> Vec<Rc<Machine>> {
    UdpRtt {
        recorder: Some(rec),
        ..UdpRtt::new(system, &Link::ethernet(), 8, 20)
    }
    .run_on()
    .1
}

/// UDP echo at a quarter of T3 line rate on the `rx` receive path.
fn rx_overload(rx: RxMode, rec: &Rc<Recorder>) -> Vec<Rc<Machine>> {
    Overload {
        recorder: Some(rec),
        ..Overload::new(Workload::UdpEcho, rx, &Link::t3(), (1, 4))
    }
    .run_on()
    .1
}

/// `workload` at `offered` × gigabit line rate on the doorbell-batched
/// transmit path.
fn tx_overload(workload: Workload, offered: (u64, u64), rec: &Rc<Recorder>) -> Vec<Rc<Machine>> {
    Overload {
        tx: TxMode::Doorbell,
        recorder: Some(rec),
        ..Overload::new(workload, RxMode::Coalesced, &Link::gigabit(), offered)
    }
    .run_on()
    .1
}

/// Every figure `plexus-bench` can regenerate, with its cells.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "ablation",
        help: "Ethernet UDP RTT with one structural cost zeroed at a time",
        run: udp_rtt::ablation,
        cells: &[],
    },
    Figure {
        name: "am_latency",
        help: "interrupt-level active messages vs. the UDP path (section 3.3)",
        run: am_latency::figure,
        cells: &[],
    },
    Figure {
        name: "client_video_cpu",
        help: "video viewer CPU, SPIN vs. DIGITAL UNIX (section 5.1, client side)",
        run: client_video::figure,
        cells: &[],
    },
    Figure {
        name: "fig5_udp_latency",
        help: "UDP round-trip latency by device and system (Figure 5, section 4.1)",
        run: udp_rtt::fig5_udp_latency,
        cells: &[
            Cell {
                name: "udp_rtt",
                help: "UDP echo ping-pong, interrupt-level handlers, Ethernet, 20 rounds",
                ring: 1 << 16,
                detail: 64,
                app_domain: Some("rtt-bench"),
                window_ns: 1_000_000,
                slo: slo(Some(700_000), 0, None),
                world: |rec| ping_pong(System::PlexusInterrupt, rec),
            },
            Cell {
                name: "udp_rtt_thread",
                help: "the same ping-pong with thread-mode delivery (the other Plexus bar)",
                ring: 1 << 16,
                detail: 64,
                app_domain: Some("rtt-bench"),
                window_ns: 1_000_000,
                slo: slo(Some(1_100_000), 0, None),
                world: |rec| ping_pong(System::PlexusThread, rec),
            },
        ],
    },
    Figure {
        name: "fig6_video_cpu",
        help: "video server CPU utilization vs. client streams (Figure 6)",
        run: video_cpu::figure,
        cells: &[Cell {
            name: "fig6_video",
            help: "video server at 15 streams over the T3 for 1 simulated second",
            ring: 1 << 18,
            detail: 8,
            app_domain: None,
            window_ns: 100_000_000,
            slo: slo(None, 0, None),
            world: |rec| {
                VideoCpu {
                    recorder: Some(rec),
                    ..VideoCpu::new(VideoSystem::Spin, 15, 1)
                }
                .run_on()
                .1
            },
        }],
    },
    Figure {
        name: "fig7_forwarding",
        help: "TCP redirection latency, in-kernel vs. user-level splice (Figure 7)",
        run: fwd_latency::figure,
        cells: &[Cell {
            name: "fig7_forwarding",
            help: "TCP echo through the in-kernel forwarder, 5 rounds",
            ring: 1 << 16,
            detail: 16,
            app_domain: None,
            window_ns: 1_000_000,
            slo: slo(Some(1_600_000), 900_000, None),
            world: |rec| {
                FwdLatency {
                    recorder: Some(rec),
                    ..FwdLatency::new(FwdSystem::Plexus, &Link::ethernet(), 64, 5)
                }
                .run_on()
                .1
            },
        }],
    },
    Figure {
        name: "guard_eval",
        help: "one guard as closure, interpreted IR and compiled tier over 512 packets",
        run: guard_eval::figure,
        cells: &[],
    },
    Figure {
        name: "guard_state",
        help: "per-flow rate limiting: verified guard map vs. handler-kept table",
        run: guard_state::figure,
        cells: &[],
    },
    Figure {
        name: "http_latency",
        help: "HTTP GET latency, in-kernel vs. user-process server (section 7)",
        run: http_latency::figure,
        cells: &[],
    },
    Figure {
        name: "sweeps",
        help: "UDP RTT vs. payload size, and vs. guards on the receiving host",
        run: sweeps::figure,
        cells: &[],
    },
    Figure {
        name: "tab_tcp_throughput",
        help: "TCP bulk throughput by device, plus gigabit TSO (section 4.2)",
        run: tcp_tput::figure,
        cells: &[],
    },
    Figure {
        name: "txn_latency",
        help: "small-exchange latency: UDP, TCP-special, TCP-standard (section 1.1)",
        run: txn_latency::figure,
        cells: &[],
    },
    Figure {
        name: "overload",
        help: "open-loop UDP load 0.1x-4x of T3 line rate, per-packet vs. coalesced rx",
        run: overload::rx_figure,
        cells: &[
            Cell {
                name: "overload",
                help: "UDP echo at 1/4 line rate on the per-packet rx path (the saturating one)",
                ring: 1 << 18,
                detail: 8,
                app_domain: None,
                window_ns: DEFAULT_WINDOW_NS,
                slo: slo(Some(15_000_000), 350_000, Some(90)),
                world: |rec| rx_overload(RxMode::PerPacket, rec),
            },
            Cell {
                name: "overload_coalesced",
                help: "the same offered load on the coalesced rx path (sheds instead)",
                ring: 1 << 18,
                detail: 8,
                app_domain: None,
                window_ns: DEFAULT_WINDOW_NS,
                slo: slo(Some(15_000_000), 350_000, Some(90)),
                world: |rec| rx_overload(RxMode::Coalesced, rec),
            },
        ],
    },
    Figure {
        name: "tx_overload",
        help: "the same loads on gigabit, software-checksum per-frame vs. offload + doorbell tx",
        run: overload::tx_figure,
        cells: &[
            Cell {
                name: "tx_overload",
                help: "UDP echo storm at 4x line rate on the gigabit doorbell-batched tx path",
                ring: 1 << 21,
                detail: 8,
                app_domain: None,
                window_ns: DEFAULT_WINDOW_NS,
                slo: slo(Some(25_000_000), 4_200_000, Some(250)),
                world: |rec| tx_overload(Workload::UdpEcho, (4, 1), rec),
            },
            Cell {
                name: "tx_fanout",
                help: "fig6-style 4-way fan-out at line rate, transmit-bound, doorbell-batched",
                ring: 1 << 20,
                detail: 8,
                app_domain: None,
                window_ns: DEFAULT_WINDOW_NS,
                slo: slo(Some(65_000_000), 980_000, Some(400)),
                world: |rec| tx_overload(Workload::UdpFanout, (1, 1), rec),
            },
        ],
    },
];

/// Looks up a figure by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Looks up a cell by `FIGURE/CELL`.
pub fn cell(path: &str) -> Option<&'static Cell> {
    let (name, cell) = path.split_once('/')?;
    figure(name)?.cells.iter().find(|c| c.name == cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_no_results_file_has_two_claimants() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");

        // Everything the CLI can write under `results/`: two cells of one
        // name, or a figure named `timeline_<cell>`, would collide.
        let figures = FIGURES.iter().map(Figure::golden_file);
        let artifacts = FIGURES
            .iter()
            .flat_map(|f| f.cells)
            .flat_map(|c| KINDS.iter().map(|kind| artifact_file(c.name, kind)));
        let mut claimed = BTreeSet::new();
        for file in figures.chain(artifacts) {
            assert!(claimed.insert(file.clone()), "{file} is claimed twice");
        }
    }

    #[test]
    fn a_bare_name_is_a_figure_and_figure_slash_cell_is_a_cell() {
        assert_eq!(figure("overload").unwrap().name, "overload");
        let coalesced = cell("overload/overload_coalesced").unwrap();
        assert_eq!(coalesced.name, "overload_coalesced");
        assert_eq!(cell("overload/overload").unwrap().name, "overload");
        for unknown in ["overload_coalesced", "overload/overload", "nonsense"] {
            assert!(figure(unknown).is_none(), "{unknown}");
        }
        for unknown in ["overload", "fig5_udp_latency/overload", "nonsense/udp_rtt"] {
            assert!(cell(unknown).is_none(), "{unknown}");
        }
    }

    #[test]
    fn every_cell_has_a_positive_window_and_ring() {
        for c in FIGURES.iter().flat_map(|f| f.cells) {
            assert!(c.window_ns > 0, "{}: zero window", c.name);
            assert!(c.ring > 0, "{}: zero ring", c.name);
        }
    }
}
