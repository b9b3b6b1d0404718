//! Ablation study: which structural cost explains the DIGITAL UNIX gap?
//!
//! Figure 5's gap between Plexus and the monolithic baseline is the sum of
//! the boundary-crossing machinery Plexus eliminates. This harness zeroes
//! one cost-model constant at a time and re-measures the Ethernet UDP RTT
//! of both systems, attributing the gap to its components — the analysis
//! DESIGN.md promises for the calibration constants.
//!
//! Run with `cargo run -p plexus-bench --bin ablation`.

use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;
use plexus_bench::udp_rtt::{mean_us, Link, System, UdpRtt};
use plexus_sim::cpu::CostModel;
use plexus_sim::time::SimDuration;

fn main() {
    const ROUNDS: u32 = 50;
    let link = Link::ethernet();
    let base = CostModel::alpha_3000_400();

    let rtt_us = |system, model: &CostModel| {
        let cell = UdpRtt {
            model: model.clone(),
            ..UdpRtt::new(system, &link, 8, ROUNDS)
        };
        mean_us(&cell.run())
    };
    let base_plexus = rtt_us(System::PlexusInterrupt, &base);
    let base_dunix = rtt_us(System::Dunix, &base);

    println!("Ablation: Ethernet UDP RTT with one structural cost zeroed at a time");
    println!();
    println!("baseline: Plexus (interrupt) {base_plexus:.0} us, DIGITAL UNIX {base_dunix:.0} us, gap {:.0} us", base_dunix - base_plexus);
    println!();

    type Knob = (&'static str, fn(&mut CostModel));
    let knobs: [Knob; 8] = [
        ("process_wakeup", |m| m.process_wakeup = SimDuration::ZERO),
        ("context_switch", |m| m.context_switch = SimDuration::ZERO),
        ("socket_layer", |m| m.socket_layer = SimDuration::ZERO),
        ("syscall (trap)", |m| m.syscall = SimDuration::ZERO),
        ("softirq hop", |m| m.softirq = SimDuration::ZERO),
        ("copy per byte", |m| {
            m.copy_per_byte = SimDuration::ZERO;
            m.copy_fixed = SimDuration::ZERO;
        }),
        ("dispatch+guards", |m| {
            m.dispatch_raise = SimDuration::ZERO;
            m.dispatch_handler = SimDuration::ZERO;
            m.guard_eval = SimDuration::ZERO;
        }),
        ("thread_spawn", |m| m.thread_spawn = SimDuration::ZERO),
    ];

    let mut report = BenchReport::new("ablation");
    report.latency_us("baseline/plexus_interrupt", base_plexus);
    report.latency_us("baseline/dunix", base_dunix);
    let mut rows = Vec::new();
    for (name, zero) in knobs {
        let mut m = base.clone();
        zero(&mut m);
        let p = rtt_us(System::PlexusInterrupt, &m);
        let d = rtt_us(System::Dunix, &m);
        let key = name.replace([' ', '(', ')'], "_");
        report.latency_us(&format!("zeroed_{key}/plexus_interrupt"), p);
        report.latency_us(&format!("zeroed_{key}/dunix"), d);
        rows.push(vec![
            name.to_string(),
            format!("{p:.0}"),
            format!("{d:.0}"),
            format!("{:+.0}", p - base_plexus),
            format!("{:+.0}", d - base_dunix),
            format!("{:.0}", d - p),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "cost zeroed",
                "Plexus (us)",
                "DUNIX (us)",
                "dPlexus",
                "dDUNIX",
                "remaining gap"
            ],
            &rows
        )
    );
    println!("Reading: zeroing a cost shrinks only the system that pays it. The");
    println!("DUNIX gap decomposes into wakeups + context switches + socket layer +");
    println!("traps + softirq (+copies at larger payloads); the dispatcher costs");
    println!("Plexus adds are an order of magnitude smaller — the paper's argument");
    println!("that graph dispatch is 'roughly one procedure call' per layer.");

    report.count("rounds_per_cell", u64::from(ROUNDS));
    report::emit(&report);
}
