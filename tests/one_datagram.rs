//! One UDP script over both OS structures.
//!
//! Plexus and the monolithic baseline check, charge and frame a datagram
//! through the same path in `plexus_net::udp`, and differ only in the
//! structure around it. So an application running the same script on each
//! must see the same payloads in the same order, the same refusal for a
//! payload no IPv4 datagram carries, and the same named drop for a corrupt
//! datagram.

use std::any::Any;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::baseline::MonolithicStack;
use plexus::core::{AppHandler, PlexusError, PlexusStack, StackConfig};
use plexus::kernel::dispatcher::RaiseCtx;
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::AddressSpace;
use plexus::net::ether::{self, EtherType};
use plexus::net::ip::{self, IpHeader};
use plexus::net::mbuf::Mbuf;
use plexus::net::udp::{self, DatagramTooLong, Endpoint, UdpConfig, UdpRecv};
use plexus::net::{Host, Testbed};
use plexus::sim::nic::Link;
use plexus::sim::time::SimTime;
use plexus::sim::World;
use plexus::trace::{CounterKey, Recorder, Scope};

const PORT: u16 = 7000;

/// The script's payload lengths: empty, one byte, the most one Ethernet
/// frame carries, and the most one IPv4 datagram carries.
const SIZES: [usize; 4] = [0, 1, 1472, udp::MAX_PAYLOAD];

#[derive(Clone, Copy, Debug)]
enum Structure {
    Plexus,
    Dunix,
}

type Seen = Rc<RefCell<Vec<Vec<u8>>>>;

/// A send from the client's port 2000, refused the way both stacks refuse
/// an over-long payload.
type Sender = Box<dyn Fn(&mut World, Ipv4Addr, u16, &[u8]) -> Result<(), DatagramTooLong>>;

/// Puts `structure`'s stack on `client` and `server`; the server's
/// application keeps every payload that arrives on [`PORT`] in `seen`. The
/// returned value keeps the stacks alive.
fn pair(structure: Structure, client: &Host, server: &Host, seen: &Seen) -> (Rc<dyn Any>, Sender) {
    let s = seen.clone();
    let keep = move |_: &mut RaiseCtx<'_>, ev: &UdpRecv| s.borrow_mut().push(ev.payload.to_vec());
    let ignore = |_: &mut RaiseCtx<'_>, _: &UdpRecv| {};
    let config = UdpConfig::default();
    match structure {
        Structure::Plexus => {
            let [c, s] =
                [client, server].map(|h| PlexusStack::attach_host(h, StackConfig::interrupt));
            let spec = ExtensionSpec::typesafe("script", &["UDP.Bind", "UDP.Send"]);
            let ext = |stack: &PlexusStack| stack.link_extension(&spec).unwrap();
            let keep = AppHandler::interrupt(keep);
            s.udp().bind(&ext(&s), PORT, config, keep).unwrap();
            let ignore = AppHandler::interrupt(ignore);
            let from = c.udp().bind(&ext(&c), 2000, config, ignore).unwrap();
            let send: Sender = Box::new(move |world, to, port, data| {
                from.send(world.engine_mut(), to, port, data)
                    .map_err(|e| match e {
                        PlexusError::DatagramTooLong(e) => e,
                        other => panic!("refused for another reason: {other}"),
                    })
            });
            (Rc::new((c, s)), send)
        }
        Structure::Dunix => {
            let [c, s] = [client, server].map(MonolithicStack::attach_host);
            let server_proc = AddressSpace::new();
            s.udp_socket(&server_proc, PORT, config, keep).unwrap();
            let client_proc = AddressSpace::new();
            let from = c.udp_socket(&client_proc, 2000, config, ignore).unwrap();
            let send: Sender = Box::new(move |world, to, port, data| {
                from.send(world.engine_mut(), to, port, data)
            });
            (Rc::new((c, s)), send)
        }
    }
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Runs the script on `structure`: what the server's application saw, what
/// the over-long send returned, and how many frames the server sent back
/// for a datagram to a port nobody holds.
fn run_script(structure: Structure) -> (Vec<Vec<u8>>, Result<(), DatagramTooLong>, u64) {
    // T3: Ethernet's tx ring drops one of the longest datagram's 45
    // fragments.
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::t3(), 5, &["client", "server"]);
    let seen = Seen::default();
    let (_stacks, send) = pair(structure, &hosts[0], &hosts[1], &seen);
    let to = hosts[1].ip;
    for len in SIZES {
        send(&mut world, to, PORT, &payload(len)).expect("fits one datagram");
        world.run();
    }
    let refused = send(&mut world, to, PORT, &payload(udp::MAX_PAYLOAD + 1));
    world.run();
    let before = hosts[1].nic.stats().tx_frames;
    send(&mut world, to, PORT + 1, b"anyone there?").expect("fits one datagram");
    world.run();
    let answered = hosts[1].nic.stats().tx_frames - before;
    (seen.take(), refused, answered)
}

#[test]
fn the_same_datagrams_are_seen_the_same_way_on_both_structures() {
    let want: Vec<Vec<u8>> = SIZES.map(payload).to_vec();
    let too_long = Err(DatagramTooLong {
        len: udp::MAX_PAYLOAD + 1,
        max: udp::MAX_PAYLOAD,
    });
    let [plexus, dunix] = [Structure::Plexus, Structure::Dunix].map(|structure| {
        let (seen, refused, answered) = run_script(structure);
        let lens: Vec<usize> = seen.iter().map(Vec::len).collect();
        assert_eq!(lens, SIZES, "{structure:?}: every datagram, in order");
        assert!(seen == want, "{structure:?}: every payload byte-exact");
        assert_eq!(refused, too_long, "{structure:?}: the over-long send");
        (seen, refused, answered)
    });
    assert!(
        plexus.0 == dunix.0,
        "both applications saw the same payloads"
    );
    assert_eq!(plexus.1, dunix.1, "both refused with the same value");
    // The one asymmetry, and it is structure (ROADMAP item 8): only Plexus
    // answers a datagram for an unbound port with an ICMP port unreachable;
    // the baseline counts it in `udp_no_socket` and stays silent.
    assert_eq!((plexus.2, dunix.2), (1, 0), "frames answering a miss");
}

/// A checksummed datagram for [`PORT`] at `to`, from `from`, with one
/// payload byte flipped after the checksum was computed.
fn corrupt_frame(from: &Host, to: &Host) -> Vec<u8> {
    let data = Mbuf::from_payload(64, b"flip one byte of me");
    let dgram = udp::encapsulate(from.ip, to.ip, 2000, PORT, UdpConfig::default(), data);
    let mut frame = ip::encapsulate(&IpHeader::simple(from.ip, to.ip, ip::proto::UDP, 1), dgram);
    ether::write_header(frame.prepend(14), to.mac, from.mac, EtherType::IPV4);
    let mut bytes = frame.to_vec();
    bytes[14 + 20 + 8] ^= 0x20;
    bytes
}

#[test]
fn a_corrupt_datagram_ends_in_one_named_drop_on_both_structures() {
    for structure in [Structure::Plexus, Structure::Dunix] {
        let rec = Recorder::new(1024);
        let Testbed {
            mut world, hosts, ..
        } = Testbed::new(&Link::ethernet(), 9, &["client", "server", "raw"]).traced(Some(&rec));
        let seen = Seen::default();
        let (_stacks, _) = pair(structure, &hosts[0], &hosts[1], &seen);
        let frame = corrupt_frame(&hosts[2], &hosts[1]);
        hosts[2]
            .nic
            .transmit(world.engine_mut(), SimTime::ZERO, &frame[..]);
        world.run();
        let drops = rec.registry().get(CounterKey {
            scope: Scope::Drop,
            label: rec.intern("udp_bad_datagram"),
            metric: "count",
        });
        assert_eq!(drops, 1, "{structure:?}: one named drop");
        assert!(seen.borrow().is_empty(), "{structure:?}: nothing delivered");
    }
}
