//! # plexus-net — the protocol suite
//!
//! The protocols of Figure 1's graph, shared (exactly as in the paper, §4)
//! by both the Plexus graph (`plexus-core`) and the monolithic baseline
//! (`plexus-baseline`):
//!
//! * [`mbuf`] — Berkeley memory buffers with zero-copy sharing and explicit
//!   copy-on-write (§3.4).
//! * [`checksum`] — the Internet checksum, incremental updates.
//! * [`ether`] / [`arp`] / [`ip`] / [`icmp`] / [`udp`] / [`tcp`] — the
//!   wire protocols; headers are accessed through the kernel's `VIEW`
//!   framework (zero-copy typed views, §3.2).
//! * [`http`] — a minimal HTTP/1.0 for the §7 demonstration.
//! * [`testbed`] — the one world builder: a LAN of named hosts with a
//!   fixed address plan, which either stack attaches to.
//!
//! The protocol modules are pure protocol logic — state and a timestamp in,
//! an outcome out, no engine and no CPU lease — which is what lets the same
//! code run under both OS structures. That holds below the transports as
//! it does for [`tcp::Tcb`]: the receive MAC filter ([`ether::accept`]),
//! ARP resolve-or-park and input ([`arp::ArpCache`], which owns the parked
//! datagrams, bounds them and abandons unanswered resolutions), next-hop
//! choice ([`ip::RouteTable::hop`]), whole-or-fragments
//! ([`ip::datagrams`]), reassembly plus the local-address check
//! ([`ip::Reassembler::input`]) and the echo responder
//! ([`icmp::echo_response`]) each exist once here. A stack supplies only
//! structure: which costs it charges around these calls, its counters and
//! drop reasons, and how an [`ether::Frame`] reaches the wire.
//!
//! One piece runs on the engine and a CPU lease all the same:
//! [`tcp::TcpConn`], which applies a `Tcb`'s outputs, so that a TCP
//! connection too exists once. A stack hands it its structure as a
//! [`tcp::TcpHost`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod checksum;
pub mod ether;
pub mod http;
pub mod icmp;
pub mod ip;
pub mod mbuf;
pub mod tcp;
pub mod testbed;
#[cfg(test)]
mod testbed_tests;
pub mod udp;

pub use ether::{EtherType, MacAddr};
pub use mbuf::Mbuf;
pub use testbed::{Host, Testbed};
