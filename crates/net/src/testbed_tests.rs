//! Unit tests of the [`Testbed`](crate::testbed::Testbed) builder: the
//! address plan, the ARP mesh it hands the stacks, per-host cost models
//! and recorder installation. (That a mixed Plexus + baseline world built
//! on it interoperates is `tests/interop.rs` at the workspace root, where
//! both stack crates are in reach.)

use std::net::Ipv4Addr;

use plexus_sim::nic::{DriverConfig, Link};
use plexus_sim::time::{SimDuration, SimTime};
use plexus_sim::CostModel;
use plexus_trace::{Recorder, TraceEvent};

use crate::ether::MacAddr;
use crate::testbed::Testbed;

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

#[test]
fn host_k_gets_the_kth_address_machine_and_nic() {
    let tb = Testbed::new(&Link::t3(), 9, &NAMES);
    assert_eq!(tb.hosts.len(), NAMES.len());
    for (i, host) in tb.hosts.iter().enumerate() {
        let k = i as u8 + 1;
        assert_eq!(host.ip, Ipv4Addr::new(10, 0, 9, k));
        assert_eq!(host.mac, MacAddr::local(k));
        assert_eq!(host.machine.name(), NAMES[i]);
        assert!(std::rc::Rc::ptr_eq(&host.nic, &host.machine.nic(0)));
        assert!(std::rc::Rc::ptr_eq(&host.machine, &tb.world.machines()[i]));
    }
}

#[test]
fn the_link_description_reaches_the_devices() {
    let link = Link {
        propagation: SimDuration::from_micros(7),
        ..Link::atm()
    };
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&link, 0, &["a", "b"]);
    assert_eq!(hosts[0].nic.profile().name, link.profile.name);
    let arrived = std::rc::Rc::new(std::cell::Cell::new(None));
    let at = arrived.clone();
    hosts[1]
        .nic
        .attach(DriverConfig::per_frame(move |engine, _| {
            at.set(Some(engine.now()))
        }));
    let sent = hosts[0]
        .nic
        .transmit(world.engine_mut(), SimTime::ZERO, &[0u8; 64][..]);
    world.run();
    let arrived = arrived.get().expect("the frame crossed the segment");
    assert!(arrived >= sent + link.propagation);
}

#[test]
fn peers_are_a_complete_symmetric_mesh() {
    let tb = Testbed::new(&Link::ethernet(), 0, &NAMES);
    for a in &tb.hosts {
        assert_eq!(a.peers.len(), NAMES.len() - 1);
        assert!(!a.peers.contains(&(a.ip, a.mac)), "no entry for itself");
        for b in tb.hosts.iter().filter(|b| b.ip != a.ip) {
            assert!(a.peers.contains(&(b.ip, b.mac)));
            assert!(b.peers.contains(&(a.ip, a.mac)));
        }
    }
}

#[test]
fn each_host_runs_its_own_cost_model() {
    let alpha = CostModel::alpha_3000_400();
    let mut free_interrupts = alpha.clone();
    free_interrupts.interrupt_entry = SimDuration::ZERO;
    let tb = Testbed::with_models(
        &Link::ethernet(),
        0,
        &[("stock", alpha.clone()), ("tuned", free_interrupts.clone())],
    );
    assert_eq!(*tb.hosts[0].machine.cpu().model(), alpha);
    assert_eq!(*tb.hosts[1].machine.cpu().model(), free_interrupts);
}

#[test]
fn traced_covers_engine_cpus_and_nics() {
    let recorder = Recorder::new(64);
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 0, &["a", "b"]).traced(Some(&recorder));
    assert!(world.engine().recorder().is_some());
    assert!(hosts.iter().all(|h| h.machine.cpu().recorder().is_some()));
    hosts[1].nic.attach(DriverConfig::per_frame(|_, _| {}));
    hosts[0]
        .nic
        .transmit(world.engine_mut(), SimTime::ZERO, &[0u8; 64][..]);
    world.run();
    let arrivals = recorder
        .events()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::PacketArrival { .. }))
        .count();
    assert_eq!(arrivals, 1, "the NICs record");

    let untraced = Testbed::new(&Link::t3(), 0, &["a", "b"]).traced(None);
    assert!(untraced.world.engine().recorder().is_none());
}
