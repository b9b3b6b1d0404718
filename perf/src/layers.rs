//! The per-layer ledger (`--trace 1`): in-situ counts, boundary spans, the
//! depth ladder, the layer kernels, their reconciliation against the
//! end-to-end number, and the run's own diagnostics. Nothing here is gated.
//!
//! Every metric is printed for every workload; one that does not apply to a
//! workload (a TCP span on a UDP world, the ladder on the churn workload)
//! reads 0.

use std::path::Path;

use crate::harness::{run_set, warm_up, Budget, Round, Series};
use crate::kernels::{Kernels, Metrics, Scale};
use crate::spans;
use crate::stats::{p10, percentile};
use crate::workloads::{Depth, Plan, Rec, UdpSpec, Workload};

/// Traced rounds whose spans are written to `<workload>.spans.json`; the
/// metrics use every traced round.
const FILE_ROUNDS: u32 = 2;
/// Traced rounds at most.
const TRACED_ROUNDS: usize = 10;

/// What the ledger needs to know about the run it is part of.
pub struct Run<'a> {
    pub smoke: bool,
    /// Budget of the traced rounds and, as a whole, of the ladder.
    pub budget: Budget,
    pub out_dir: &'a Path,
    /// On-CPU share of the untraced set.
    pub oncpu_share: f64,
}

pub fn measure(untraced: &Series, run: &Run<'_>) -> std::io::Result<Metrics> {
    let first = &untraced.rounds[0];
    let host_ns = untraced.host_ns_per_pkt().0;
    // The kernels (D) make three passes, before, between and after the
    // ledger's other work: see `Kernels`.
    let scale = Scale::new(run.smoke);
    let mut kernels = Kernels::default();
    kernels.pass(scale);
    let mut m = counts(first);
    m.extend(span_metrics(untraced, run)?);
    kernels.pass(scale);
    m.extend(ladder(untraced, run));
    kernels.pass(scale);
    m.extend(kernels.metrics.iter().copied());
    m.extend(reconcile(untraced.workload, first, &kernels, host_ns));
    m.extend(diagnostics(untraced, run.oncpu_share, host_ns));
    Ok(m)
}

/// A. In-situ counts, from the layers' own counters; exact.
fn counts(r: &Round) -> Metrics {
    let c = r.outcome.counts;
    vec![
        ("sim.engine.events_per_pkt", r.per_pkt(c.events)),
        ("sim.nic.rx_interrupts_per_pkt", r.per_pkt(c.rx_interrupts)),
        ("sim.nic.tx_doorbells_per_pkt", r.per_pkt(c.tx_doorbells)),
        ("sim.nic.ring_drops", c.ring_drops as f64),
        ("kernel.dispatcher.raises_per_pkt", r.per_pkt(c.raises)),
        (
            "kernel.dispatcher.guard_evals_per_pkt",
            r.per_pkt(c.guard_evals),
        ),
        (
            "kernel.dispatcher.demux_skipped_per_pkt",
            r.per_pkt(c.demux_skipped),
        ),
        (
            "kernel.dispatcher.invocations_per_pkt",
            r.per_pkt(c.invocations),
        ),
        ("core.stack.ip_rx_per_pkt", r.per_pkt(c.ip_rx)),
        ("core.stack.ip_dropped", c.ip_dropped as f64),
        (
            "core.udp_manager.delivered_per_pkt",
            r.per_pkt(c.udp_delivered),
        ),
        (
            "core.tcp_manager.segments_in_per_pkt",
            r.per_pkt(c.tcp_segments_in),
        ),
        ("net.tcp.retransmits", c.tcp_retransmits as f64),
        (
            "net.mbuf.pool_reuse_ratio",
            c.pool_reused as f64 / (c.pool_reused + c.pool_allocated).max(1) as f64,
        ),
        ("trace.recorder.records_per_pkt", r.per_pkt(c.records)),
        ("trace.recorder.overwritten", c.overwritten as f64),
    ]
}

/// B. Boundary spans: the same rounds again with the span recorder on. Also
/// writes the first traced rounds to `<out>/<workload>.spans.json`.
fn span_metrics(untraced: &Series, run: &Run<'_>) -> std::io::Result<Metrics> {
    let w = untraced.workload;
    // A floor sinks with every round it sees, so the traced rounds are held
    // against as many untraced ones, run just before them.
    let mut reference = [Series::new(w, untraced.input.clone())];
    let mut traced = [Series::new(w, untraced.input.clone())];
    warm_up(&reference);
    let at_most = run.budget.max.min(TRACED_ROUNDS);
    let budget = Budget {
        max: at_most,
        min: run.budget.min.min(at_most),
        ..run.budget
    };
    run_set(&mut reference, budget, false);
    let rounds = reference[0].rounds.len();
    spans::enable(rounds * spans_per_round(&w));
    run_set(&mut traced, Budget::rounds(rounds), false);
    let (log, dropped) = spans::disable();
    std::fs::create_dir_all(run.out_dir)?;
    let kept = log.partition_point(|s| s.round < FILE_ROUNDS);
    spans::write_json(
        &run.out_dir.join(format!("{}.spans.json", w.name)),
        w.name,
        &log[..kept],
        dropped,
    )?;

    let by_round = spans::self_by_round(&log);
    let first = &untraced.rounds[0];
    let pkts = Some(first.outcome.pkts.max(1) as f64);
    let records = Some(first.outcome.counts.records.max(1) as f64);
    // p10 over the traced rounds of a span's summed self time, per `per` (per
    // span of that name where `None`).
    let ns = |name: &str, per: Option<f64>| -> f64 {
        let per_round: Vec<f64> = by_round
            .values()
            .filter_map(|names| names.get(name))
            .map(|(ns, count)| *ns as f64 / per.unwrap_or(*count as f64))
            .collect();
        if per_round.is_empty() {
            0.0
        } else {
            p10(&per_round)
        }
    };
    Ok(vec![
        ("span.setup_ns", ns("setup", None)),
        ("span.run_self_ns_per_pkt", ns("run", pkts)),
        ("span.gen_send_self_ns_per_pkt", ns("gen_send", pkts)),
        ("span.nic_transmit_ns_per_pkt", ns("nic_transmit", pkts)),
        ("span.app_handler_self_ns_per_pkt", ns("app_handler", pkts)),
        ("span.udp_send_ns_per_pkt", ns("udp_send", pkts)),
        ("span.sink_rx_ns_per_pkt", ns("sink_rx", pkts)),
        ("span.ctl_bind_ns", ns("ctl_bind", None)),
        ("span.ctl_close_ns", ns("ctl_close", None)),
        ("span.tcp_send_in_ns", ns("tcp_send_in", None)),
        ("span.tcp_on_data_ns_per_pkt", ns("tcp_on_data", pkts)),
        (
            "span.export_profile_ns_per_record",
            ns("export_profile", records),
        ),
        (
            "span.export_journeys_ns_per_record",
            ns("export_journeys", records),
        ),
        (
            "span.export_timeline_ns_per_record",
            ns("export_timeline", records),
        ),
        (
            "span.export_chrome_ns_per_record",
            ns("export_chrome", records),
        ),
        (
            "span.export_stats_ns_per_record",
            ns("export_stats", records),
        ),
        (
            "span.export_folded_ns_per_record",
            ns("export_folded", records),
        ),
        ("span.export_live_ns_per_record", ns("export_live", records)),
        (
            "span.overhead_share",
            traced[0].host_ns_per_pkt().0 / reference[0].host_ns_per_pkt().0 - 1.0,
        ),
    ])
}

/// Upper estimate of the spans one round records.
fn spans_per_round(w: &Workload) -> usize {
    match w.plan {
        Plan::Udp(spec) => spec.datagrams * 6 + 64,
        // One `tcp_on_data` per data segment of at least 512 bytes, with room.
        Plan::Tcp { bytes } => bytes / 512 + 64,
    }
}

/// C. Depth ladder: the workload's own input stopped at increasing depth;
/// successive differences attribute the path. Depth rungs on the plain UDP
/// workloads, recorder rungs (without the export phase) on the traced one.
fn ladder(untraced: &Series, run: &Run<'_>) -> Metrics {
    const DEPTHS: [(&str, Depth); 3] = [
        ("nic", Depth::Nic),
        ("rx", Depth::Rx),
        ("echo", Depth::Echo),
    ];
    const RECS: [(&str, Rec); 3] = [
        ("rec_off", Rec::Off),
        ("rec_ring", Rec::Ring),
        ("rec_live", Rec::Live),
    ];
    let rungs: Vec<(&str, UdpSpec)> = match untraced.workload.plan {
        Plan::Udp(spec) if spec.churn_pool == 0 && spec.export => RECS
            .iter()
            .map(|(name, rec)| {
                let spec = UdpSpec {
                    rec: *rec,
                    export: false,
                    ..spec
                };
                (*name, spec)
            })
            .collect(),
        Plan::Udp(spec) if spec.churn_pool == 0 => DEPTHS
            .iter()
            .map(|(name, depth)| {
                let spec = UdpSpec {
                    depth: *depth,
                    ..spec
                };
                (*name, spec)
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut series: Vec<Series> = rungs
        .iter()
        .map(|(_, spec)| {
            let rung = Workload {
                name: untraced.workload.name,
                plan: Plan::Udp(*spec),
            };
            Series::new(rung, untraced.input.clone())
        })
        .collect();
    if !series.is_empty() {
        warm_up(&series);
        // The ladder as a whole gets what the traced rounds got.
        let seconds = run.budget.seconds / series.len() as f64;
        let budget = Budget {
            seconds,
            ..run.budget
        };
        run_set(&mut series, budget, false);
    }
    // (ns per pkt, allocs per pkt) of the rung called `name`, if it ran.
    let rung = |name: &str| -> (f64, f64) {
        rungs
            .iter()
            .zip(&series)
            .find(|((rung, _), _)| *rung == name)
            .map_or((0.0, 0.0), |(_, s)| {
                let r = &s.rounds[0];
                (s.host_ns_per_pkt().0, r.per_pkt(r.allocs))
            })
    };
    vec![
        ("ladder.nic_ns_per_pkt", rung("nic").0),
        ("ladder.nic_allocs_per_pkt", rung("nic").1),
        ("ladder.rx_ns_per_pkt", rung("rx").0),
        ("ladder.rx_allocs_per_pkt", rung("rx").1),
        ("ladder.echo_ns_per_pkt", rung("echo").0),
        ("ladder.echo_allocs_per_pkt", rung("echo").1),
        ("ladder.rec_off_ns_per_pkt", rung("rec_off").0),
        ("ladder.rec_ring_ns_per_pkt", rung("rec_ring").0),
        ("ladder.rec_live_ns_per_pkt", rung("rec_live").0),
    ]
}

/// E. Reconciliation: Σ (count per pkt from A × kernel ns from D) against the
/// end-to-end ns per pkt, on the plain UDP workloads. The engine events a NIC
/// frame schedules are inside `sim.nic.frame_ns`, so they come off the
/// engine's own term.
fn reconcile(w: Workload, r: &Round, kernels: &Kernels, host_ns: f64) -> Metrics {
    let (c, k) = (r.outcome.counts, |name: &str| kernels.get(name));
    let (attributed, unattributed) = match w.plan {
        Plan::Udp(spec) if spec.churn_pool == 0 && spec.rec == Rec::Off => {
            let frames = 1.0 + r.per_pkt(c.tx_frames);
            let frame_ns = if spec.batched {
                k("sim.nic.frame_coalesced_ns")
            } else {
                k("sim.nic.frame_ns")
            };
            let udp_raises = r.per_pkt(c.udp_delivered);
            let udp_raise_ns = if spec.endpoints > 1 {
                k("kernel.dispatcher.raise_ns_256")
            } else {
                k("kernel.dispatcher.raise_ns_1")
            };
            let attributed = frames * frame_ns
                + (r.per_pkt(c.events) - frames * kernels.events_per_frame).max(0.0)
                    * k("sim.engine.schedule_pop_ns")
                + r.per_pkt(c.rx_interrupts) * k("sim.cpu.lease_ns")
                + (r.per_pkt(c.raises) - udp_raises) * k("kernel.dispatcher.raise_ns_1")
                + udp_raises * udp_raise_ns
                + r.per_pkt(c.ip_rx) * k("net.ip.encap_parse_ns")
                + r.per_pkt(c.ip_rx) * k("net.ip.reassembler_offer_ns")
                + r.per_pkt(c.tx_frames) * k("net.mbuf.build_ns_32");
            (attributed, host_ns - attributed)
        }
        _ => (0.0, 0.0),
    };
    vec![
        ("reconcile.attributed_share", attributed / host_ns),
        ("reconcile.unattributed_ns_per_pkt", unattributed),
    ]
}

/// F. Run diagnostics of the untraced set, from whole rounds.
fn diagnostics(untraced: &Series, oncpu_share: f64, host_ns: f64) -> Metrics {
    let whole_rounds = untraced.ns_per_pkt();
    let sim_ns: f64 = untraced
        .rounds
        .iter()
        .map(|r| r.outcome.sim_ns as f64)
        .sum();
    let host_run_ns: f64 = untraced.rounds.iter().map(|r| r.run_ns).sum();
    vec![
        ("run.rounds", untraced.rounds.len() as f64),
        ("run.host_ns_per_pkt_p50", percentile(&whole_rounds, 50.0)),
        ("run.host_ns_per_pkt_p75", percentile(&whole_rounds, 75.0)),
        ("run.host_ns_per_pkt_min", percentile(&whole_rounds, 0.0)),
        ("run.oncpu_share", oncpu_share),
        ("run.pkts_per_host_s", 1e9 / host_ns),
        ("run.sim_s_per_host_s", sim_ns / host_run_ns),
    ]
}
