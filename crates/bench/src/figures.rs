//! The figure registry behind `plexus-bench`.
//!
//! A [`Figure`] is one table or figure of the paper's evaluation (or one
//! of the supplementary sweeps): a name, a line of help, and a plain
//! function beside the experiment module it drives that writes the human
//! tables and fills a [`BenchReport`]. `plexus-bench` and
//! `crates/bench/tests/goldens.rs` both run these entries, so the CLI and
//! the golden gate cannot drift apart.

use crate::report::BenchReport;
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

/// Every figure `plexus-bench` can regenerate.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "ablation",
        help: "Ethernet UDP RTT with one structural cost zeroed at a time",
        run: udp_rtt::ablation,
    },
    Figure {
        name: "am_latency",
        help: "interrupt-level active messages vs. the UDP path (section 3.3)",
        run: am_latency::figure,
    },
    Figure {
        name: "client_video_cpu",
        help: "video viewer CPU, SPIN vs. DIGITAL UNIX (section 5.1, client side)",
        run: client_video::figure,
    },
    Figure {
        name: "fig5_udp_latency",
        help: "UDP round-trip latency by device and system (Figure 5, section 4.1)",
        run: udp_rtt::fig5_udp_latency,
    },
    Figure {
        name: "fig6_video_cpu",
        help: "video server CPU utilization vs. client streams (Figure 6)",
        run: video_cpu::figure,
    },
    Figure {
        name: "fig7_forwarding",
        help: "TCP redirection latency, in-kernel vs. user-level splice (Figure 7)",
        run: fwd_latency::figure,
    },
    Figure {
        name: "guard_eval",
        help: "one guard as closure, interpreted IR and compiled tier over 512 packets",
        run: guard_eval::figure,
    },
    Figure {
        name: "guard_state",
        help: "per-flow rate limiting: verified guard map vs. handler-kept table",
        run: guard_state::figure,
    },
    Figure {
        name: "http_latency",
        help: "HTTP GET latency, in-kernel vs. user-process server (section 7)",
        run: http_latency::figure,
    },
    Figure {
        name: "sweeps",
        help: "UDP RTT vs. payload size, and vs. guards on the receiving host",
        run: sweeps::figure,
    },
    Figure {
        name: "tab_tcp_throughput",
        help: "TCP bulk throughput by device, plus gigabit TSO (section 4.2)",
        run: tcp_tput::figure,
    },
    Figure {
        name: "txn_latency",
        help: "small-exchange latency: UDP, TCP-special, TCP-standard (section 1.1)",
        run: txn_latency::figure,
    },
    Figure {
        name: "overload",
        help: "open-loop UDP load 0.1x-4x of T3 line rate, per-packet vs. coalesced rx",
        run: overload::rx_figure,
    },
    Figure {
        name: "tx_overload",
        help: "the same loads on gigabit, software-checksum per-frame vs. offload + doorbell tx",
        run: overload::tx_figure,
    },
];

/// Looks up a figure by name.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::scenarios::{artifact_file, KINDS, SCENARIOS};

    #[test]
    fn names_are_unique_and_no_results_file_has_two_claimants() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");

        // Everything either CLI can write under `results/`: a figure named
        // `timeline_<scenario>` would collide with `--emit bench`.
        let figures = FIGURES.iter().map(Figure::golden_file);
        let artifacts = SCENARIOS
            .iter()
            .flat_map(|s| KINDS.iter().map(|kind| artifact_file(s.name, kind)));
        let mut claimed = BTreeSet::new();
        for file in figures.chain(artifacts) {
            assert!(claimed.insert(file.clone()), "{file} is claimed twice");
        }
    }
}
