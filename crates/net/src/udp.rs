//! UDP, with the checksum optional.
//!
//! §1.1's motivating example: "applications where data integrity is
//! optional, such as audio and some flavors of video, might use an
//! implementation of UDP for which the checksum has been disabled" — a
//! legitimate optimization when both ends agree. [`UdpConfig::checksum`]
//! is that knob; the network-video protocol (§5.1) and the `custom_udp`
//! example exercise it.

use std::net::Ipv4Addr;

use plexus_kernel::view::{be16, put_be16, WireView};

use crate::checksum::{Checksum, CsumOffload};
use crate::ip::{proto, IP_HDR_LEN};
use crate::mbuf::Mbuf;

/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;

/// The longest UDP payload one IPv4 datagram carries: its 16-bit total
/// length less the IP and UDP headers. Both stacks refuse a longer send.
pub const MAX_PAYLOAD: usize = u16::MAX as usize - IP_HDR_LEN - UDP_HDR_LEN;

/// Per-endpoint UDP options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpConfig {
    /// Compute/verify the payload checksum. Standard UDP over IPv4 makes
    /// this optional; disabling it trades integrity for CPU time.
    pub checksum: bool,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig { checksum: true }
    }
}

/// Zero-copy view of a UDP header.
pub struct UdpView<'a>(&'a [u8]);

impl<'a> WireView<'a> for UdpView<'a> {
    const WIRE_SIZE: usize = UDP_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        UdpView(bytes)
    }
}

impl UdpView<'_> {
    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(self.0, 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(self.0, 2)
    }

    /// Length field (header + payload).
    pub fn len(&self) -> usize {
        be16(self.0, 4) as usize
    }

    /// True when the length field claims no payload beyond the header.
    pub fn is_empty(&self) -> bool {
        self.len() <= UDP_HDR_LEN
    }

    /// Checksum field (0 = disabled).
    pub fn checksum_field(&self) -> u16 {
        be16(self.0, 6)
    }
}

fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, udp_len: usize) -> Checksum {
    let mut c = Checksum::new();
    c.add(&src.octets())
        .add(&dst.octets())
        .add_u16(proto::UDP as u16)
        .add_u16(udp_len as u16);
    c
}

/// Prepends a UDP header onto `payload`. With `config.checksum` the
/// pseudo-header checksum is computed; otherwise the field is 0 (disabled).
pub fn encapsulate(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    config: UdpConfig,
    mut payload: Mbuf,
) -> Mbuf {
    let udp_len = UDP_HDR_LEN + payload.total_len();
    let mut check = 0u16;
    if config.checksum {
        let mut c = pseudo_header_sum(src, dst, udp_len);
        c.add_u16(src_port)
            .add_u16(dst_port)
            .add_u16(udp_len as u16)
            .add_u16(0);
        for seg in payload.segments() {
            c.add(seg);
        }
        check = c.finish();
        if check == 0 {
            check = 0xFFFF; // 0 means "no checksum" on the wire.
        }
    }
    let hdr = payload.prepend(UDP_HDR_LEN);
    put_be16(hdr, 0, src_port);
    put_be16(hdr, 2, dst_port);
    put_be16(hdr, 4, udp_len as u16);
    put_be16(hdr, 6, check);
    payload.stamp_pkthdr();
    payload
}

/// [`encapsulate`] with the checksum deferred to a NIC that advertises
/// checksum offload: the field is left zero and a [`CsumOffload`]
/// descriptor (pseudo-header partial included) is stamped in the packet
/// header for the adapter to fill during the DMA gather. Once the NIC
/// patches the field the wire bytes are identical to the software path's.
pub fn encapsulate_offload(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    mut payload: Mbuf,
) -> Mbuf {
    let udp_len = UDP_HDR_LEN + payload.total_len();
    let hdr = payload.prepend(UDP_HDR_LEN);
    put_be16(hdr, 0, src_port);
    put_be16(hdr, 2, dst_port);
    put_be16(hdr, 4, udp_len as u16);
    put_be16(hdr, 6, 0);
    payload.stamp_pkthdr();
    payload.pkthdr_mut().csum = Some(CsumOffload {
        start_from_end: udp_len,
        field_from_end: udp_len - 6,
        pseudo: pseudo_header_sum(src, dst, udp_len).partial(),
        zero_to_ones: true,
    });
    payload
}

/// A decapsulated datagram.
#[derive(Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload (shares the input's storage).
    pub payload: Mbuf,
}

/// Parses a UDP datagram (the payload of an IP packet from `src`→`dst`).
/// Verifies the checksum when present and `config.checksum` is set.
/// Returns `None` on malformed or corrupt datagrams.
pub fn decapsulate(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: UdpConfig,
    packet: &Mbuf,
) -> Option<UdpDatagram> {
    // Only the 8-byte header needs to be contiguous: peek it into a stack
    // buffer; the checksum walks the mbuf chain in place rather than
    // flattening the datagram.
    let mut hdr_bytes = [0u8; UDP_HDR_LEN];
    let peek = packet.total_len().min(UDP_HDR_LEN);
    packet.read_at(0, &mut hdr_bytes[..peek]);
    let v: UdpView = plexus_kernel::view::view(&hdr_bytes[..peek])?;
    let udp_len = v.len();
    if udp_len < UDP_HDR_LEN || udp_len > packet.total_len() {
        return None;
    }
    if config.checksum && v.checksum_field() != 0 {
        let mut c = pseudo_header_sum(src, dst, udp_len);
        let mut remaining = udp_len;
        for seg in packet.segments() {
            let take = seg.len().min(remaining);
            c.add(&seg[..take]);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        if c.finish() != 0 {
            return None;
        }
    }
    Some(UdpDatagram {
        src_port: v.src_port(),
        dst_port: v.dst_port(),
        payload: packet.range(UDP_HDR_LEN, udp_len - UDP_HDR_LEN),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::compute_offload;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, last)
    }

    #[test]
    fn checksummed_round_trip() {
        let payload = Mbuf::from_payload(64, b"datagram payload");
        let d = encapsulate(ip(1), ip(2), 1234, 80, UdpConfig::default(), payload);
        let got = decapsulate(ip(1), ip(2), UdpConfig::default(), &d).expect("valid");
        assert_eq!(got.src_port, 1234);
        assert_eq!(got.dst_port, 80);
        assert_eq!(got.payload.to_vec(), b"datagram payload");
    }

    #[test]
    fn corruption_is_caught_when_checksumming() {
        let payload = Mbuf::from_payload(64, b"sensitive");
        let mut d = encapsulate(ip(1), ip(2), 9, 9, UdpConfig::default(), payload);
        d.write_at(10, &[0xFF]);
        assert!(decapsulate(ip(1), ip(2), UdpConfig::default(), &d).is_none());
    }

    #[test]
    fn disabled_checksum_skips_verification() {
        let nocheck = UdpConfig { checksum: false };
        let payload = Mbuf::from_payload(64, b"video frame");
        let mut d = encapsulate(ip(1), ip(2), 9, 9, nocheck, payload);
        let bytes = d.to_vec();
        let v: UdpView = plexus_kernel::view::view(&bytes).unwrap();
        assert_eq!(v.checksum_field(), 0, "checksum disabled on the wire");
        // Corruption is NOT caught — the §1.1 trade-off, made explicit.
        d.write_at(10, &[0xFF]);
        assert!(decapsulate(ip(1), ip(2), nocheck, &d).is_some());
    }

    #[test]
    fn decapsulate_handles_chains_and_padding_without_cluster_allocs() {
        // Build a datagram whose bytes span several mbuf segments with odd
        // boundaries, then add trailing link-layer padding beyond udp_len:
        // the in-place checksum walk must stop at udp_len and the whole
        // parse must not allocate cluster storage (header peek is a small
        // Vec, payload is a range view).
        let payload = Mbuf::from_payload(64, &[0xA5u8; 301]);
        let mut d = encapsulate(ip(1), ip(2), 40000, 53, UdpConfig::default(), payload);
        d.append(Mbuf::from_payload(0, &[0u8; 17])); // Ethernet-style pad.
        let before = crate::mbuf::cluster_pool_stats();
        let got = decapsulate(ip(1), ip(2), UdpConfig::default(), &d).expect("valid");
        let after = crate::mbuf::cluster_pool_stats();
        assert_eq!(got.src_port, 40000);
        assert_eq!(got.payload.to_vec(), vec![0xA5u8; 301]);
        assert_eq!(
            after.allocated + after.reused + after.unpooled,
            before.allocated + before.reused + before.unpooled,
            "decapsulate must not allocate cluster storage"
        );
    }

    #[test]
    fn offloaded_checksum_matches_the_software_pass_byte_for_byte() {
        let data: Vec<u8> = (0u16..517).map(|x| (x * 11) as u8).collect();
        let sw = encapsulate(
            ip(1),
            ip(2),
            1234,
            80,
            UdpConfig::default(),
            Mbuf::from_payload(64, &data),
        );
        let mut hw = encapsulate_offload(ip(1), ip(2), 1234, 80, Mbuf::from_payload(64, &data));
        let req = hw.pkthdr().unwrap().csum.expect("offload stamped");
        // The deferred field is zero until the NIC fills it.
        let mut wire = hw.to_vec();
        assert_eq!(&wire[6..8], &[0, 0]);
        let v = compute_offload(&req, &hw);
        let field = wire.len() - req.field_from_end;
        wire[field..field + 2].copy_from_slice(&v.to_be_bytes());
        assert_eq!(wire, sw.to_vec(), "NIC-filled frame identical to software");
        // And it verifies as a received datagram.
        hw.write_at(6, &v.to_be_bytes());
        assert!(decapsulate(ip(1), ip(2), UdpConfig::default(), &hw).is_some());
    }

    #[test]
    fn wrong_pseudo_header_addresses_fail_verification() {
        let payload = Mbuf::from_payload(64, b"x");
        let d = encapsulate(ip(1), ip(2), 1, 2, UdpConfig::default(), payload);
        // A spoofed/garbled source address breaks the pseudo-header sum.
        assert!(decapsulate(ip(7), ip(2), UdpConfig::default(), &d).is_none());
    }

    #[test]
    fn truncated_datagrams_rejected() {
        let payload = Mbuf::from_payload(64, b"abcdef");
        let d = encapsulate(ip(1), ip(2), 1, 2, UdpConfig::default(), payload);
        let bytes = d.to_vec();
        let short = Mbuf::from_payload(0, &bytes[..UDP_HDR_LEN - 1]);
        assert!(decapsulate(ip(1), ip(2), UdpConfig::default(), &short).is_none());
        // Length field larger than the actual data.
        let mut lying = Mbuf::from_payload(0, &bytes[..UDP_HDR_LEN]);
        lying.write_at(4, &[0xFF, 0xFF]);
        assert!(decapsulate(ip(1), ip(2), UdpConfig::default(), &lying).is_none());
    }

    #[test]
    fn empty_payload_is_legal() {
        let d = encapsulate(ip(1), ip(2), 5, 6, UdpConfig::default(), Mbuf::empty());
        let got = decapsulate(ip(1), ip(2), UdpConfig::default(), &d).expect("valid");
        assert_eq!(got.payload.total_len(), 0);
    }
}
