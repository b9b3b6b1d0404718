//! Figure 7: TCP redirection latency.
//!
//! Request/response round trips through a port forwarder: the Plexus
//! in-kernel redirector vs. the DIGITAL UNIX user-level socket splice
//! (which cannot forward control packets and therefore breaks end-to-end
//! TCP semantics), with the direct no-forwarder path as the floor.
//!
//! Run with `cargo run -p plexus-bench --bin fig7_forwarding`.

use plexus_bench::fwd_latency::{FwdLatency, FwdSystem};
use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;
use plexus_bench::udp_rtt::Link;

fn main() {
    const ROUNDS: u32 = 50;

    println!("Figure 7: TCP redirection latency (Ethernet, {ROUNDS} request/response rounds)");
    println!();

    let systems = [FwdSystem::Direct, FwdSystem::Plexus, FwdSystem::DunixSplice];
    let payloads = [8usize, 64, 256, 1024];

    let link = Link::ethernet();
    let mut report = BenchReport::new("fig7_forwarding");
    let mut rows = Vec::new();
    for payload in payloads {
        let mut row = vec![payload.to_string()];
        let mut direct_us = 0.0;
        for sys in &systems {
            let us = FwdLatency::new(*sys, &link, payload, ROUNDS).run();
            if *sys == FwdSystem::Direct {
                direct_us = us;
            }
            let sys_key = match sys {
                FwdSystem::Direct => "direct",
                FwdSystem::Plexus => "plexus_redirect",
                FwdSystem::DunixSplice => "dunix_splice",
            };
            report.latency_us(&format!("payload_{payload:04}/{sys_key}"), us);
            row.push(format!("{us:.0}"));
        }
        let plexus = FwdLatency::new(FwdSystem::Plexus, &link, payload, ROUNDS).run();
        let splice = FwdLatency::new(FwdSystem::DunixSplice, &link, payload, ROUNDS).run();
        row.push(format!("{:.0}", plexus - direct_us));
        row.push(format!("{:.0}", splice - direct_us));
        rows.push(row);
    }
    println!(
        "{}",
        table::render(
            &[
                "request (B)",
                "direct (us)",
                "Plexus (us)",
                "splice (us)",
                "Plexus added",
                "splice added"
            ],
            &rows
        )
    );
    println!("Paper: the in-kernel redirector adds far less latency than the user-level");
    println!("splice, and it alone preserves end-to-end TCP semantics (the splice");
    println!("terminates the client's connection at the forwarder).");

    report.count("rounds_per_cell", u64::from(ROUNDS));
    report::emit(&report);
}
