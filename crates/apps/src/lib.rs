//! # plexus-apps — the paper's application-specific protocols
//!
//! The applications of §5 and §3.3. Where the paper compares systems, an
//! application is written once over the transports both stacks share (one
//! `TcpConn`, one UDP `Endpoint`); each system adds only an entry point
//! for its own structure:
//!
//! * the network video system (§5.1): a multicast UDP server and
//!   display-bound clients, in-kernel or in user processes
//!   ([`VideoServer`], [`VideoClient`]);
//! * protocol forwarding (§5.2): in-kernel redirection
//!   ([`InKernelForwarder`]; the user-level socket splice is the
//!   baseline's);
//! * active messages over Ethernet at interrupt level (§3.3, Figure 2)
//!   ([`ActiveMessages`]);
//! * HTTP service (§7), in-kernel or behind sockets ([`Httpd`],
//!   [`DunixHttpd`]);
//! * a stop-and-wait reliable datagram protocol as an application
//!   extension over checksum-free UDP (§1.1 taken further)
//!   ([`ReliableSender`], [`ReliableReceiver`]);
//! * "TCP-special" (§3.1): a transaction transport that minimizes
//!   connection lifetime (§1.1), claiming ports away from TCP-standard
//!   ([`TransactionServer`], [`TransactionClient`]).
//!
//! Each application's module is private; this root re-exports what other
//! crates, binaries, examples and tests name, with the linker spec each
//! extension links under (`*_extension_spec`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_messages;
mod forward;
mod httpd;
mod reliable;
mod transaction;
mod video;

pub use active_messages::{am_extension_spec, ActiveMessage, ActiveMessages};
pub use forward::{forwarder_extension_spec, InKernelForwarder};
pub use httpd::{httpd_extension_spec, DunixHttpd, HttpGet, Httpd};
pub use reliable::{reliable_extension_spec, ReliableConfig, ReliableReceiver, ReliableSender};
pub use transaction::{
    transaction_extension_spec, TransactionCall, TransactionClient, TransactionServer,
};
pub use video::{video_extension_spec, VideoClient, VideoConfig, VideoServer};
