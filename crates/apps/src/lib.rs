//! # plexus-apps — the paper's application-specific protocols
//!
//! The applications of §5 and §3.3. Where the paper compares systems, an
//! application is written once over the transports both stacks share (one
//! `TcpConn`, one UDP `Endpoint`); each system adds only an entry point
//! for its own structure:
//!
//! * [`video`] — the network video system (§5.1): a multicast UDP server
//!   and display-bound clients, in-kernel or in user processes.
//! * [`forward`] — protocol forwarding (§5.2): in-kernel redirection (the
//!   user-level socket splice is the baseline's).
//! * [`active_messages`] — active messages over Ethernet at interrupt
//!   level (§3.3, Figure 2).
//! * [`httpd`] — HTTP service (§7), in-kernel or behind sockets.
//! * [`reliable`] — a stop-and-wait reliable datagram protocol as an
//!   application extension over checksum-free UDP (§1.1 taken further).
//! * [`transaction`] — "TCP-special" (§3.1): a transaction transport that
//!   minimizes connection lifetime (§1.1), claiming ports away from
//!   TCP-standard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active_messages;
pub mod forward;
pub mod httpd;
pub mod reliable;
pub mod transaction;
pub mod video;

pub use active_messages::{ActiveMessage, ActiveMessages};
pub use forward::InKernelForwarder;
pub use httpd::{DunixHttpd, HttpGet, Httpd};
pub use reliable::{ReliableConfig, ReliableReceiver, ReliableSender};
pub use transaction::{TransactionCall, TransactionClient, TransactionServer};
pub use video::{VideoClient, VideoConfig, VideoServer};
