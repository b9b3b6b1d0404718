//! # plexus-core — the Plexus protocol architecture
//!
//! "Plexus is a networking architecture that allows applications to achieve
//! high performance with customized protocols." This crate is the paper's
//! primary contribution, rebuilt on the simulated SPIN substrate:
//!
//! * [`stack`] — the protocol graph of Figure 1: driver glue, Ethernet,
//!   ARP, IP (with fragmentation/reassembly), ICMP; raw-Ethernet extension
//!   attach for things like active messages; dynamic extension linking.
//! * [`udp_manager`] / [`tcp_manager`] — the protocol managers of §3.1:
//!   they install guards and handlers *on behalf of* untrusted extensions,
//!   preventing snooping (manager-built guards) and spoofing
//!   (manager-stamped sources); they support multiple implementations of
//!   one protocol and in-kernel port redirection (§5.2).
//! * [`types`] — event argument types, [`types::AppHandler`] (interrupt vs.
//!   thread delivery, §3.3), and errors.
//!
//! ## Quick start
//!
//! Build a [`plexus_sim::World`], attach a [`stack::PlexusStack`] per
//! machine, link an extension, bind a UDP endpoint, and run the engine —
//! see `examples/quickstart.rs` at the workspace root for a complete
//! two-machine ping-pong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guards;
pub mod router;
pub mod stack;
pub mod tcp_manager;
pub mod types;
#[cfg(test)]
mod types_tests;
pub mod udp_manager;

pub use router::{IpRouter, RouterStats};
pub use stack::{PlexusStack, StackConfig, StackStats};
pub use tcp_manager::{TcpCallbacks, TcpConn, TcpManager};
pub use types::{
    AppHandler, DispatchMode, EthRecv, IpRecv, IpSendReq, PlexusError, SourcePolicy, TcpRecv,
    UdpRecv,
};
pub use udp_manager::{UdpEndpoint, UdpManager};
