//! An application-specific *reliable* datagram protocol surviving a lossy
//! link — §1.1's customization argument run in the opposite direction:
//! instead of removing UDP's checksum, the application adds its own
//! reliability policy (sequence numbers, integrity, bounded retries) as a
//! kernel extension over checksum-free UDP.
//!
//! The demo also turns on the simulated wire's capture facility (the
//! in-world `tcpdump`) to show the retransmissions actually crossing the
//! segment.
//!
//! Run with `cargo run --example reliable_link`.

use plexus::apps::reliable::{
    reliable_extension_spec, ReliableConfig, ReliableReceiver, ReliableSender,
};
use plexus::core::{PlexusStack, StackConfig};
use plexus::net::Testbed;
use plexus::sim::nic::{FaultInjector, Link};
use plexus::sim::time::SimDuration;

fn main() {
    let Testbed {
        mut world,
        medium,
        hosts,
    } = Testbed::new(&Link::ethernet(), 0, &["sender", "receiver"]);
    // A 20%-loss segment, deterministic (seeded) so every run replays.
    medium.set_faults(FaultInjector::new(0.2, 0.0, 2024));

    let sa = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);

    let aext = sa.link_extension(&reliable_extension_spec("tx")).unwrap();
    let bext = sb.link_extension(&reliable_extension_spec("rx")).unwrap();
    let rx = ReliableReceiver::new(&sb, &bext, 7100).unwrap();
    let tx =
        ReliableSender::new(&sa, &aext, 7101, (sb.ip(), 7100), ReliableConfig::default()).unwrap();

    medium.start_capture();
    let messages: Vec<String> = (0..12).map(|i| format!("message #{i}")).collect();
    for m in &messages {
        tx.send(world.engine_mut(), m.as_bytes());
    }
    world.run_for(SimDuration::from_secs(10));
    let capture = medium.stop_capture();

    println!(
        "sent {} messages over a 20%-loss Ethernet segment",
        messages.len()
    );
    println!(
        "delivered: {} | retransmissions: {} | link drops: {} | duplicates re-acked: {}",
        tx.delivered(),
        tx.retransmits(),
        medium.fault_drops(),
        rx.duplicates()
    );
    println!("frames on the wire (captured): {}", capture.len());
    println!();
    let received = rx.received();
    assert_eq!(received.len(), messages.len(), "all delivered");
    for (i, msg) in received.iter().enumerate() {
        assert_eq!(msg, messages[i].as_bytes(), "in order, exactly once");
    }
    println!("every message arrived in order, exactly once — reliability policy");
    println!("(timeout, retry budget, integrity check) owned by the application,");
    println!(
        "not the transport. The wire saw {} frames for {} messages:",
        capture.len(),
        messages.len()
    );
    println!("the difference is ARP, ACKs, and loss-driven retransmissions.");
}
