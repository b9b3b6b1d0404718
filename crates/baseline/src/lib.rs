//! # plexus-baseline — the DIGITAL UNIX stand-in
//!
//! The conventional monolithic operating system the paper compares Plexus
//! against (§4): the *same* device drivers (`plexus-sim`) and the *same*
//! protocol implementations (`plexus-net`), but structured with user
//! processes behind a socket API — traps, user/kernel copies, socket-layer
//! bookkeeping, softirq hops, process wakeups and context switches on
//! every packet. The measured difference between this crate and
//! `plexus-core` is therefore pure OS structure, which is exactly the
//! paper's claim about Figure 5.
//!
//! * [`MonolithicStack`] — the monolithic kernel path over `net`'s one
//!   link and IP path, and UDP sockets ([`UdpSocket`]).
//! * [`TcpLayer`] — the socket structure around the shared `TcpConn`.
//! * [`UserSplice`] — the user-level TCP forwarder of §5.2 (two spliced
//!   sockets; breaks end-to-end semantics, doubles the protocol work).
//!
//! Every module is private; the root re-exports these three and
//! [`UdpSocket`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod splice;
mod stack;
mod tcp_socket;

pub use splice::UserSplice;
pub use stack::{MonolithicStack, UdpSocket};
pub use tcp_socket::TcpLayer;
