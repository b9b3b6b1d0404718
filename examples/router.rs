//! An in-kernel IP router joining two subnets — SPIN-style protocol
//! functionality "not generally available in conventional systems" (§5.2),
//! here as packet forwarding: TTL handling, path-MTU re-fragmentation,
//! ICMP generation, all in the kernel.
//!
//! Topology:
//!
//! ```text
//! host-a (10.0.1.2, T3) ──seg1── router ──seg2── host-b (10.0.2.2, Ethernet)
//! ```
//!
//! Run with `cargo run --example router`.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::core::{AppHandler, IpRouter, PlexusStack, StackConfig, UdpRecv};
use plexus::kernel::domain::ExtensionSpec;
use plexus::net::ether::MacAddr;
use plexus::net::udp::{Endpoint, UdpConfig};
use plexus::sim::nic::{Medium, Nic, NicProfile};
use plexus::sim::time::SimDuration;
use plexus::sim::World;

fn net1(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, last)
}

fn net2(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, last)
}

fn main() {
    let mut world = World::new();
    let ma = world.add_machine("host-a");
    let mr = world.add_machine("router");
    let mb = world.add_machine("host-b");

    // Segment 1 is a T3 (MTU 4470); segment 2 an Ethernet (MTU 1500) —
    // big datagrams must be re-fragmented in flight.
    let seg1 = Medium::new(SimDuration::from_micros(2), false);
    let seg2 = Medium::new(SimDuration::from_micros(1), true);
    let nic_a = Nic::new(NicProfile::dec_t3(), &seg1);
    let nic_r1 = Nic::new(NicProfile::dec_t3(), &seg1);
    let nic_r2 = Nic::new(NicProfile::ethernet_lance(), &seg2);
    let nic_b = Nic::new(NicProfile::ethernet_lance(), &seg2);

    let host_a = PlexusStack::attach(
        &ma,
        &nic_a,
        StackConfig::interrupt(net1(2), MacAddr::local(1)).with_gateway(net1(1)),
    );
    let host_b = PlexusStack::attach(
        &mb,
        &nic_b,
        StackConfig::interrupt(net2(2), MacAddr::local(2)).with_gateway(net2(1)),
    );
    let router = IpRouter::attach(
        &mr,
        &[
            (nic_r1, net1(1), MacAddr::local(101)),
            (nic_r2, net2(1), MacAddr::local(102)),
        ],
    );

    let spec = ExtensionSpec::typesafe("routed-echo", &["UDP.Bind", "UDP.Send"]);
    let aext = host_a.link_extension(&spec).unwrap();
    let bext = host_b.link_extension(&spec).unwrap();

    // host-b: echo service.
    let echo_slot: Rc<RefCell<Option<Rc<plexus::core::UdpEndpoint>>>> = Rc::new(RefCell::new(None));
    let es = echo_slot.clone();
    let bep = host_b
        .udp()
        .bind(
            &bext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = es.borrow().clone().unwrap();
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .unwrap();
            }),
        )
        .unwrap();
    *echo_slot.borrow_mut() = Some(bep);

    // host-a: send a 4000-byte datagram across the router and time it.
    let reply: Rc<RefCell<Option<(u64, usize)>>> = Rc::new(RefCell::new(None));
    let r = reply.clone();
    let aep = host_a
        .udp()
        .bind(
            &aext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                *r.borrow_mut() = Some((ctx.lease.now().as_nanos(), ev.payload.total_len()));
            }),
        )
        .unwrap();

    let payload = vec![0x42u8; 4000];
    let t0 = world.engine().now().as_nanos();
    aep.send(world.engine_mut(), net2(2), 7, &payload).unwrap();
    world.run();

    let (at, len) = reply.borrow().expect("echo crossed the router twice");
    println!("10.0.1.2 -> [router] -> 10.0.2.2 and back");
    println!(
        "  {len}-byte payload round trip: {:.0} us (simulated)",
        (at - t0) as f64 / 1000.0
    );
    println!("  router stats: {:?}", router.stats());
    println!();
    println!("The 4000-byte datagram left the T3 whole (MTU 4470) and was");
    println!("re-fragmented by the router for the Ethernet side (MTU 1500);");
    println!("host-b's IP layer reassembled it before UDP ever saw it.");
}
