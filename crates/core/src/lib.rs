//! # plexus-core — the Plexus protocol architecture
//!
//! "Plexus is a networking architecture that allows applications to achieve
//! high performance with customized protocols." This crate is the paper's
//! primary contribution, rebuilt on the simulated SPIN substrate:
//!
//! * [`PlexusStack`] — the protocol graph of Figure 1: driver glue,
//!   Ethernet, ARP, IP (with fragmentation/reassembly), ICMP over `net`'s
//!   one link and IP path; raw-Ethernet extension attach for things like
//!   active messages; dynamic extension linking.
//! * [`UdpManager`] / [`TcpManager`] — the protocol managers of §3.1:
//!   they install guards and handlers *on behalf of* untrusted extensions,
//!   preventing snooping (manager-built guards) and spoofing
//!   (manager-stamped sources); they support multiple implementations of
//!   one protocol and in-kernel port redirection (§5.2).
//! * [`IpRouter`] — an in-kernel router over the same path.
//! * Event argument types, [`AppHandler`] (interrupt vs. thread delivery,
//!   §3.3), and errors.
//!
//! ## Quick start
//!
//! Build a [`plexus_sim::World`], attach a [`PlexusStack`] per
//! machine, link an extension, bind a UDP endpoint, and run the engine —
//! see `examples/quickstart.rs` at the workspace root for a complete
//! two-machine ping-pong.
//!
//! Every module is private but [`tcp_manager`], which stays public because
//! the host-clock benchmark (`perf/`) imports `tcp_manager::ConnCallback`
//! by that path; the root re-exports what the rest of the workspace names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guards;
mod router;
mod stack;
pub mod tcp_manager;
mod types;
#[cfg(test)]
mod types_tests;
mod udp_manager;

pub use router::IpRouter;
pub use stack::{PlexusStack, StackConfig, StackStats};
pub use tcp_manager::{TcpCallbacks, TcpConn, TcpManager};
pub use types::{
    AppHandler, DispatchMode, EthRecv, IpRecv, IpSendReq, PlexusError, SourcePolicy, TcpRecv,
    UdpRecv,
};
pub use udp_manager::{UdpEndpoint, UdpManager};
