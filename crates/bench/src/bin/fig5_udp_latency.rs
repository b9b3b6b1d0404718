//! Figure 5: UDP round-trip time for small (8-byte) packets.
//!
//! Regenerates the figure's bars — Plexus (interrupt), Plexus (thread),
//! DIGITAL UNIX, and the raw driver-to-driver floor — for Ethernet, Fore
//! ATM, and DEC T3, plus the §4.1 fast-driver variants.
//!
//! Run with `cargo run -p plexus-bench --bin fig5_udp_latency`.

use plexus_bench::report::{self, BenchReport};
use plexus_bench::table;
use plexus_bench::udp_rtt::{mean_us, Link, System, UdpRtt};

fn metric_key(device: &str, system: System) -> String {
    let sys = match system {
        System::RawDriver => "raw_driver",
        System::PlexusInterrupt => "plexus_interrupt",
        System::PlexusThread => "plexus_thread",
        System::Dunix => "dunix",
    };
    format!("{}/{sys}", device.to_lowercase().replace(' ', "_"))
}

fn main() {
    const PAYLOAD: usize = 8;
    const ROUNDS: u32 = 100;

    println!("Figure 5: UDP round-trip latency, {PAYLOAD}-byte payload ({ROUNDS} round trips)");
    println!();

    let links = [
        ("Ethernet", Link::ethernet()),
        ("Fore ATM", Link::atm()),
        ("DEC T3", Link::t3()),
    ];
    let systems = [
        System::RawDriver,
        System::PlexusInterrupt,
        System::PlexusThread,
        System::Dunix,
    ];

    let mut report = BenchReport::new("fig5_udp_latency");
    let mut rows = Vec::new();
    for (name, link) in &links {
        for sys in &systems {
            let samples = UdpRtt::new(*sys, link, PAYLOAD, ROUNDS).run();
            let us = mean_us(&samples);
            report.latency_from_ns(&metric_key(name, *sys), &samples);
            rows.push(vec![
                name.to_string(),
                sys.label().to_string(),
                format!("{us:.0}"),
            ]);
        }
    }
    report.count("rounds_per_cell", u64::from(ROUNDS));
    report.count("payload_bytes", PAYLOAD as u64);
    println!(
        "{}",
        table::render(&["device", "system", "RTT (us)"], &rows)
    );

    println!("Section 4.1: with the faster device drivers");
    println!();
    let fast = [
        ("Ethernet (fast driver)", Link::ethernet_fast()),
        ("Fore ATM (fast driver)", Link::atm_fast()),
    ];
    let mut rows = Vec::new();
    for (name, link) in &fast {
        let us = mean_us(&UdpRtt::new(System::PlexusInterrupt, link, PAYLOAD, ROUNDS).run());
        report.latency_us(&metric_key(name, System::PlexusInterrupt), us);
        rows.push(vec![
            name.to_string(),
            System::PlexusInterrupt.label().to_string(),
            format!("{us:.0}"),
        ]);
    }
    println!(
        "{}",
        table::render(&["device", "system", "RTT (us)"], &rows)
    );

    println!("Paper reference points: Plexus (interrupt) <600 us Ethernet,");
    println!("~350 us ATM, ~300 us T3; fast drivers 337 us Ethernet / 241 us ATM;");
    println!("DIGITAL UNIX substantially slower on every device.");

    report::emit(&report);
}
