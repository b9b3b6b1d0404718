//! Event argument types, handler classes, and errors for the Plexus graph.

use std::fmt;
use std::net::Ipv4Addr;

use plexus_filter::{EventKind, Field, Packet};
use plexus_kernel::dispatcher::{HandlerSpec, RaiseCtx};
use plexus_kernel::domain::LinkError;
use plexus_kernel::ephemeral::Ephemeral;
use plexus_kernel::view::view;
use plexus_net::ether::{EtherView, MacAddr};
use plexus_net::ip::IpHeader;
use plexus_net::mbuf::Mbuf;

/// Argument of `Ethernet.PacketRecv`: a whole received frame. Guards use
/// `VIEW` on [`Mbuf::head`] (the driver pulls the link header up front),
/// exactly like Figure 2's active-message guard.
#[derive(Debug)]
pub struct EthRecv {
    /// The frame, link header first.
    pub mbuf: Mbuf,
}

/// Argument of `Ip.PacketRecv`: a validated (and, if needed, reassembled)
/// IP payload.
#[derive(Debug)]
pub struct IpRecv {
    /// Source address from the IP header.
    pub src: Ipv4Addr,
    /// Destination address from the IP header.
    pub dst: Ipv4Addr,
    /// Payload protocol number.
    pub protocol: u8,
    /// The transport-layer bytes (IP header already consumed). Transport
    /// guards `VIEW` their headers at offset 0 of this buffer.
    pub payload: Mbuf,
    /// The header the datagram arrived with, for an ICMP error to quote.
    pub(crate) header: IpHeader,
}

/// Argument of `Ip.PacketSend`: a transport packet awaiting an IP header.
#[derive(Debug)]
pub struct IpSendReq {
    /// Source address. Protocol managers *overwrite* this with the sending
    /// endpoint's legitimate address before raising (§3.1's anti-spoofing).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol number.
    pub protocol: u8,
    /// Transport-layer packet.
    pub payload: Mbuf,
}

/// Argument of `Udp.PacketRecv`: a validated datagram. Per-endpoint guards
/// match on the port/address fields.
#[derive(Debug)]
pub struct UdpRecv {
    /// Source IP.
    pub src: Ipv4Addr,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Mbuf,
}

/// Argument of `Tcp.PacketRecv`: a verified TCP segment with its
/// addressing. Connection guards match the 4-tuple.
#[derive(Debug)]
pub struct TcpRecv {
    /// Source IP.
    pub src: Ipv4Addr,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// The parsed segment. Its payload shares the received frame's
    /// clusters: nothing is copied between the wire and the connection.
    pub segment: plexus_net::tcp::TcpSegment<Mbuf>,
}

/// A MAC address as the 48-bit integer the guard IR compares (big-endian
/// byte order, matching [`Field::EthDst`]/[`Field::EthSrc`]).
pub(crate) fn mac_to_u64(mac: MacAddr) -> u64 {
    mac.0.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b))
}

// How each event exposes itself to verified guard programs: the typed
// fields mirror exactly what the old closure guards could observe, and
// `head()` is the same contiguous byte window the closures reached through
// `view`. A field of the wrong kind answers `None`, which the checked
// interpreter turns into a rejection.

impl Packet for EthRecv {
    fn kind(&self) -> EventKind {
        EventKind::EthRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        let v = view::<EtherView>(self.mbuf.head());
        match field {
            Field::EthDst => v.map(|v| mac_to_u64(v.dst())),
            Field::EthSrc => v.map(|v| mac_to_u64(v.src())),
            Field::EthType => v.map(|v| u64::from(v.ethertype().0)),
            Field::FrameLen => Some(self.mbuf.total_len() as u64),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        self.mbuf.head()
    }
}

impl Packet for IpRecv {
    fn kind(&self) -> EventKind {
        EventKind::IpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::IpSrc => Some(u64::from(u32::from(self.src))),
            Field::IpDst => Some(u64::from(u32::from(self.dst))),
            Field::IpProto => Some(u64::from(self.protocol)),
            Field::IpPayloadLen => Some(self.payload.total_len() as u64),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        self.payload.head()
    }
}

impl Packet for UdpRecv {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpSrcAddr => Some(u64::from(u32::from(self.src))),
            Field::UdpDstAddr => Some(u64::from(u32::from(self.dst))),
            Field::UdpSrcPort => Some(u64::from(self.src_port)),
            Field::UdpDstPort => Some(u64::from(self.dst_port)),
            Field::UdpPayloadLen => Some(self.payload.total_len() as u64),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        self.payload.head()
    }
}

impl Packet for TcpRecv {
    fn kind(&self) -> EventKind {
        EventKind::TcpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::TcpSrcAddr => Some(u64::from(u32::from(self.src))),
            Field::TcpDstAddr => Some(u64::from(u32::from(self.dst))),
            Field::TcpSrcPort => Some(u64::from(self.segment.src_port)),
            Field::TcpDstPort => Some(u64::from(self.segment.dst_port)),
            Field::TcpFlagSyn => Some(u64::from(self.segment.flags.syn)),
            Field::TcpFlagAck => Some(u64::from(self.segment.flags.ack)),
            Field::TcpPayloadLen => Some(self.segment.payload.total_len() as u64),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        self.segment.payload.head()
    }
}

/// An application's handler and how it wants it delivered (§3.3): made
/// once, by [`AppHandler::interrupt`] or [`AppHandler::thread`], and
/// handed to a protocol manager, which installs it as it is.
///
/// Interrupt-level delivery is asked for by certifying the handler
/// [`Ephemeral`], so the type system plays the role of the Modula-3
/// compiler's `EPHEMERAL` check; the dispatcher verifies the evidence
/// when the manager installs the handler.
pub struct AppHandler<T>(pub(crate) HandlerSpec<T>);

impl<T> AppHandler<T> {
    /// Certifies `f` ephemeral and requests interrupt-level delivery: it
    /// runs directly in the network interrupt.
    pub fn interrupt<F>(f: F) -> AppHandler<T>
    where
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        AppHandler(HandlerSpec::ephemeral(Ephemeral::certify(f)).interrupt())
    }

    /// Requests thread delivery for `f`: a freshly spawned kernel thread
    /// per event.
    pub fn thread<F>(f: F) -> AppHandler<T>
    where
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        AppHandler(HandlerSpec::new(f))
    }
}

/// How the stack's *protocol-layer* handlers are delivered — Figure 5's
/// two Plexus configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Protocol handlers run at interrupt level as ephemeral procedures.
    Interrupt,
    /// Each event raise spawns a kernel thread (paper: "each event raise
    /// creating a new thread").
    Thread,
}

/// Errors surfaced by the Plexus managers.
#[derive(Debug, PartialEq, Eq)]
pub enum PlexusError {
    /// Dynamic linking failed; the extension was rejected (§2).
    Link(LinkError),
    /// The requested port already has an implementation bound.
    PortInUse(u16),
    /// The requested binding would let the extension receive traffic that
    /// is not legitimately its own (§3.1's anti-snooping policy).
    SnoopDenied(&'static str),
    /// An outgoing packet's source field did not match the sending
    /// endpoint (§3.1; only possible with [`SourcePolicy::Verify`]).
    SpoofDetected,
    /// A capability used after revocation (the owning extension unloaded).
    Revoked,
    /// A UDP payload longer than one IPv4 datagram can carry: its length
    /// field and fragment offsets would not fit. Refused before anything
    /// is charged or sent.
    DatagramTooLong {
        /// The payload's length in bytes.
        len: usize,
        /// The longest payload a datagram carries (65 507 bytes).
        max: usize,
    },
    /// An active open found every ephemeral port held or in use.
    PortsExhausted,
}

impl fmt::Display for PlexusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlexusError::Link(e) => write!(f, "extension rejected by linker: {e}"),
            PlexusError::PortInUse(p) => write!(f, "port {p} already bound"),
            PlexusError::SnoopDenied(why) => write!(f, "binding denied (would snoop): {why}"),
            PlexusError::SpoofDetected => write!(f, "outgoing source field is not the endpoint's"),
            PlexusError::Revoked => write!(f, "capability revoked"),
            PlexusError::DatagramTooLong { len, max } => {
                write!(f, "UDP payload of {len} bytes exceeds the {max}-byte limit")
            }
            PlexusError::PortsExhausted => write!(f, "no ephemeral port is free"),
        }
    }
}

impl std::error::Error for PlexusError {}

impl From<LinkError> for PlexusError {
    fn from(e: LinkError) -> Self {
        PlexusError::Link(e)
    }
}

/// What a send-side protocol manager does about the packet's source field
/// (§3.1): overwriting "provides the best performance", verifying "is
/// useful for debugging protocols".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SourcePolicy {
    /// Overwrite the source field with the endpoint's legitimate address.
    #[default]
    Overwrite,
    /// Check the source field; reject the packet if it does not match.
    Verify,
}
