//! # plexus-kernel — the SPIN substrate
//!
//! Plexus runs in the context of the SPIN extensible operating system
//! (§2). This crate reproduces the SPIN services Plexus depends on:
//!
//! * [`dispatcher`] — the dynamic event dispatcher: events, guards,
//!   handlers, interrupt-level vs. thread delivery, termination of
//!   over-budget ephemeral handlers.
//! * [`domain`] — logical protection domains, compiler-signed extension
//!   specs, and safe dynamic linking/unlinking (the "install" problem).
//! * [`ephemeral`] — the `EPHEMERAL` certification discipline (§3.3).
//! * [`vm`] — address spaces and user/kernel boundary costs (used by the
//!   monolithic baseline).
//! * [`view`](mod@view) — the `VIEW` operator: safe zero-copy casting of packet
//!   bytes to typed headers (§3.2).
//!
//! The typesafe language itself is played by Rust: extensions are ordinary
//! Rust values compiled against narrow interfaces, read-only packet access
//! is `&Mbuf` (§3.4), and the `EPHEMERAL`/`VIEW` extensions are modeled by
//! the corresponding modules here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The verified guard IR and static verifier (re-exported so dependents
/// name one crate for events, guards, and verification).
pub use plexus_filter as filter;

pub mod dispatcher;
pub mod domain;
pub mod ephemeral;
pub mod view;
pub mod vm;

pub use dispatcher::{
    Dispatcher, Event, EventSummary, Guard, HandlerId, HandlerMode, InstallError, RaiseCtx,
    DEFAULT_INTERRUPT_CYCLE_BUDGET,
};
pub use domain::{Domain, ExtensionSpec, LinkError, LinkedExtension};
pub use ephemeral::Ephemeral;
pub use view::{view, view_at, WireView};
pub use vm::AddressSpace;
