//! The protocol forwarding application (§5.2).
//!
//! Thin convenience wrappers that set up both comparison systems:
//!
//! * [`InKernelForwarder`] — the Plexus extension: TCP and/or UDP
//!   redirection nodes installed in the forwarder's protocol graph, below
//!   the transport layer, preserving end-to-end semantics.
//! * The DIGITAL UNIX side is [`plexus_baseline::UserSplice`].

use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{PlexusError, PlexusStack};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};

/// The linker spec a forwarding extension uses.
pub fn forwarder_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["TCP.Redirect", "UDP.Redirect", "Mbuf.Alloc"])
}

/// An in-kernel port forwarder on a Plexus stack.
pub struct InKernelForwarder;

impl InKernelForwarder {
    /// Redirects TCP `port` on `stack` to `backend`. The backend must call
    /// [`PlexusStack::add_ip_alias`] with the forwarder's address so it
    /// answers clients directly (direct-server-return load balancing).
    pub fn tcp(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        port: u16,
        backend: Ipv4Addr,
    ) -> Result<(), PlexusError> {
        stack.tcp().redirect(ext, port, backend)?;
        Ok(())
    }

    /// Redirects UDP `port` on `stack` to `backend` (destination rewrite
    /// with incremental checksum fix; replies come from the backend's own
    /// address).
    pub fn udp(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        port: u16,
        backend: Ipv4Addr,
    ) -> Result<(), PlexusError> {
        stack.udp().redirect(ext, port, backend)?;
        Ok(())
    }
}
