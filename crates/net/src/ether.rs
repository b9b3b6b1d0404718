//! Ethernet-II framing.
//!
//! The bottom edge of Figure 1's protocol graph: a 14-byte header of
//! destination MAC, source MAC, and EtherType. The type field is what the
//! active-message guard of Figure 2 discriminates on.

use std::fmt;

use plexus_kernel::view::{be16, put_be16, view, WireView};

use crate::mbuf::Mbuf;

/// A 48-bit IEEE MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally administered unicast address derived from a small id —
    /// handy for simulated machines.
    pub fn local(id: u8) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, id])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An EtherType value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP.
    pub const ARP: EtherType = EtherType(0x0806);
    /// The experimental type our active-message extension claims (§3.3) —
    /// an IEEE "local experimental" EtherType.
    pub const ACTIVE_MESSAGE: EtherType = EtherType(0x88B5);
}

/// Length of the Ethernet-II header.
pub const ETHER_HDR_LEN: usize = 14;

/// Zero-copy view of an Ethernet header (the paper's `Ethernet.T`).
pub struct EtherView<'a>(&'a [u8]);

impl<'a> WireView<'a> for EtherView<'a> {
    const WIRE_SIZE: usize = ETHER_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        EtherView(bytes)
    }
}

impl EtherView<'_> {
    /// Destination MAC.
    pub fn dst(&self) -> MacAddr {
        MacAddr(self.0[0..6].try_into().expect("length checked by view"))
    }

    /// Source MAC.
    pub fn src(&self) -> MacAddr {
        MacAddr(self.0[6..12].try_into().expect("length checked by view"))
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        EtherType(be16(self.0, 12))
    }
}

/// Writes an Ethernet header into `buf` (which must be at least
/// [`ETHER_HDR_LEN`] long).
pub fn write_header(buf: &mut [u8], dst: MacAddr, src: MacAddr, ethertype: EtherType) {
    buf[0..6].copy_from_slice(&dst.0);
    buf[6..12].copy_from_slice(&src.0);
    put_be16(buf, 12, ethertype.0);
}

/// The receive-side MAC filter: the frame's header, if it parses and the
/// frame is addressed to `mac` or to everyone (or `promiscuous` is set).
#[inline]
pub fn accept(frame: &[u8], mac: MacAddr, promiscuous: bool) -> Option<EtherView<'_>> {
    let v: EtherView = view(frame)?;
    let dst = v.dst();
    (dst == mac || dst.is_broadcast() || promiscuous).then_some(v)
}

/// A network-layer packet with the link addressing resolved for it: what
/// the shared ARP/IP routines hand a stack to put on the wire.
#[derive(Debug)]
pub struct Frame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// EtherType of `packet`.
    pub ethertype: EtherType,
    /// The packet, with room for the link header in front.
    pub packet: Mbuf,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let mut buf = [0u8; ETHER_HDR_LEN];
        write_header(
            &mut buf,
            MacAddr::local(2),
            MacAddr::local(1),
            EtherType::IPV4,
        );
        let v: EtherView = view(&buf).expect("exactly one header");
        assert_eq!(v.dst(), MacAddr::local(2));
        assert_eq!(v.src(), MacAddr::local(1));
        assert_eq!(v.ethertype(), EtherType::IPV4);
    }

    #[test]
    fn short_frame_is_not_viewable() {
        let buf = [0u8; ETHER_HDR_LEN - 1];
        assert!(view::<EtherView>(&buf).is_none());
    }

    #[test]
    fn accept_is_the_mac_filter() {
        let mut buf = [0u8; ETHER_HDR_LEN];
        let me = MacAddr::local(1);
        write_header(&mut buf, me, MacAddr::local(2), EtherType::IPV4);
        assert!(accept(&buf, me, false).is_some(), "unicast to me");
        assert!(accept(&buf, MacAddr::local(3), false).is_none(), "foreign");
        assert!(
            accept(&buf, MacAddr::local(3), true).is_some(),
            "promiscuous"
        );
        write_header(&mut buf, MacAddr::BROADCAST, me, EtherType::ARP);
        assert!(
            accept(&buf, MacAddr::local(3), false).is_some(),
            "broadcast"
        );
        assert!(accept(&buf[..13], me, true).is_none(), "runt never passes");
    }

    #[test]
    fn broadcast_detection() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::local(1).is_broadcast());
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
    }

    #[test]
    fn display_formats_colon_hex() {
        assert_eq!(MacAddr::local(0x0A).to_string(), "02:00:00:00:00:0a");
    }
}
