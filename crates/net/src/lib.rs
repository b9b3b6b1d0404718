//! # plexus-net — the protocol suite
//!
//! The protocols of Figure 1's graph, shared (exactly as in the paper, §4)
//! by both the Plexus graph (`plexus-core`) and the monolithic baseline
//! (`plexus-baseline`):
//!
//! * [`mbuf`] — Berkeley memory buffers with zero-copy sharing and explicit
//!   copy-on-write (§3.4).
//! * [`checksum`] — the Internet checksum, incremental updates.
//! * [`ether`] / `arp` / [`ip`] / `icmp` / [`udp`] / [`tcp`] — the wire
//!   protocols; headers are accessed through the kernel's `VIEW` framework
//!   (zero-copy typed views, §3.2).
//! * [`Interface`] and [`Structure`] — one host's link and IP layers over
//!   those protocols (the private `link` module).
//! * [`parse_request`] / [`build_response`] / [`parse_response`] — a
//!   minimal HTTP/1.0 for the §7 demonstration.
//! * [`Testbed`] — the one world builder: a LAN of named [`Host`]s with a
//!   fixed address plan, which either stack attaches to.
//!
//! The protocol modules are pure protocol logic — state and a timestamp in,
//! an outcome out, no engine and no CPU lease — which is what lets the same
//! code run under both OS structures: the receive MAC filter
//! ([`ether::accept`]), ARP resolve-or-park and input (`ArpCache`,
//! which owns the parked datagrams, bounds them and abandons unanswered
//! resolutions), next-hop choice ([`ip::RouteTable`]), whole-or-fragments
//! ([`ip::datagrams`]), reassembly ([`ip::Reassembler`]) and the echo
//! responder each exist once here.
//!
//! The layers that apply them run on the engine and a CPU lease all the
//! same, so that each exists once, and a stack supplies only structure, as
//! one [`Structure`]: [`Interface`] is one host attachment's
//! link tx, ARP output and input, IP input and output and echo responder;
//! [`tcp::TcpConn`] applies a [`tcp::Tcb`]'s outputs and reaches its
//! stack's structure through a [`tcp::ConnHost`]; a UDP datagram is sent
//! through a [`udp::Endpoint`], which says only where its port is and
//! whether it may send, and received through [`udp::receive`].

//!
//! `mbuf`, `checksum`, `ether`, `ip`, `tcp` and `udp` stay public modules
//! because the host-clock benchmark (`perf/`) imports items by their module
//! paths; `arp`, `icmp`, `http`, `link` and `testbed` are private, and the
//! root re-exports what the stacks, applications and tests name of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arp;
pub mod checksum;
pub mod ether;
mod http;
mod icmp;
pub mod ip;
mod link;
pub mod mbuf;
pub mod tcp;
mod testbed;
#[cfg(test)]
mod testbed_tests;
pub mod udp;

pub use arp::MAX_PARKED_PER_HOP;
pub use ether::{EtherType, MacAddr};
pub use http::{build_response, parse_request, parse_response, ParseOutcome};
pub use icmp::{unreachable as icmp_unreachable, IcmpMessage, IcmpType};
pub use link::{Interface, Structure};
pub use mbuf::Mbuf;
pub use testbed::{Host, Testbed};
