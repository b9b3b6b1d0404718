//! ICMP: echo, destination unreachable, time exceeded.
//!
//! A leaf of the IP node in Figure 1's protocol graph. The Plexus ICMP
//! handler, the router and the baseline's monolithic input path all answer
//! echo requests in-kernel through one responder,
//! [`crate::link::Structure::echo`].

use plexus_kernel::view::{be16, put_be16, WireView};

use crate::checksum::checksum;
use crate::ip::{write_header, IpHeader, IP_HDR_LEN};
use crate::mbuf::{Mbuf, LEADING_SPACE};

/// ICMP header length (for the message types we implement).
pub(crate) const ICMP_HDR_LEN: usize = 8;

/// ICMP message types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpType {
    /// Echo reply (type 0).
    EchoReply,
    /// Destination unreachable (type 3); code carried separately.
    DestUnreachable,
    /// Echo request (type 8).
    EchoRequest,
    /// Time exceeded (type 11).
    TimeExceeded,
}

impl IcmpType {
    fn to_wire(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
        }
    }

    fn from_wire(v: u8) -> Option<IcmpType> {
        match v {
            0 => Some(IcmpType::EchoReply),
            3 => Some(IcmpType::DestUnreachable),
            8 => Some(IcmpType::EchoRequest),
            11 => Some(IcmpType::TimeExceeded),
            _ => None,
        }
    }
}

/// A parsed ICMP message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type.
    pub kind: IcmpType,
    /// Code (unreachable reason, etc.).
    pub code: u8,
    /// Identifier (echo) or unused.
    pub ident: u16,
    /// Sequence number (echo) or unused.
    pub seq: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// Builds an echo request.
    pub fn echo_request(ident: u16, seq: u16, payload: &[u8]) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpType::EchoRequest,
            code: 0,
            ident,
            seq,
            payload: payload.to_vec(),
        }
    }

    /// Builds the reply to an echo request (echoes ident/seq/payload).
    pub(crate) fn echo_reply(req: &IcmpMessage) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpType::EchoReply,
            code: 0,
            ident: req.ident,
            seq: req.seq,
            payload: req.payload.clone(),
        }
    }

    /// Serializes with a correct checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = vec![0u8; ICMP_HDR_LEN + self.payload.len()];
        b[0] = self.kind.to_wire();
        b[1] = self.code;
        put_be16(&mut b, 4, self.ident);
        put_be16(&mut b, 6, self.seq);
        b[ICMP_HDR_LEN..].copy_from_slice(&self.payload);
        let c = checksum(&b);
        put_be16(&mut b, 2, c);
        b
    }

    /// Parses and verifies the checksum.
    pub fn parse(bytes: &[u8]) -> Option<IcmpMessage> {
        let v: IcmpRawView = plexus_kernel::view::view(bytes)?;
        if checksum(bytes) != 0 {
            return None;
        }
        Some(IcmpMessage {
            kind: IcmpType::from_wire(v.0[0])?,
            code: v.0[1],
            ident: be16(v.0, 4),
            seq: be16(v.0, 6),
            payload: bytes[ICMP_HDR_LEN..].to_vec(),
        })
    }
}

/// Payload bytes of the offending datagram an error message quotes after
/// its IP header (RFC 792: "the first 64 bits").
const QUOTED: usize = 8;

/// The destination-unreachable (`code` 3 = port unreachable) answering the
/// datagram received as `header` + `payload`, per RFC 792: it quotes that
/// IP header and the first 8 bytes of its payload. Built on the stack and
/// copied once into a pooled mbuf, with room in front for the headers of
/// its own trip out.
pub fn unreachable(code: u8, header: &IpHeader, payload: &Mbuf) -> Mbuf {
    let mut msg = [0u8; ICMP_HDR_LEN + IP_HDR_LEN + QUOTED];
    let len = ICMP_HDR_LEN + IP_HDR_LEN + payload.total_len().min(QUOTED);
    msg[0] = IcmpType::DestUnreachable.to_wire();
    msg[1] = code;
    let (quote, data) = msg[ICMP_HDR_LEN..len].split_at_mut(IP_HDR_LEN);
    write_header(quote, header, payload.total_len());
    payload.read_at(0, data);
    let c = checksum(&msg[..len]);
    put_be16(&mut msg, 2, c);
    Mbuf::from_payload(LEADING_SPACE, &msg[..len])
}

/// The echo responder: the reply to send back to the source when `bytes`
/// is a valid echo request, nothing for any other message.
pub(crate) fn echo_response(bytes: &[u8]) -> Option<Mbuf> {
    let msg = IcmpMessage::parse(bytes)?;
    (msg.kind == IcmpType::EchoRequest)
        .then(|| Mbuf::from_payload(64, &IcmpMessage::echo_reply(&msg).to_bytes()))
}

struct IcmpRawView<'a>(&'a [u8]);

impl<'a> WireView<'a> for IcmpRawView<'a> {
    const WIRE_SIZE: usize = ICMP_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        IcmpRawView(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let req = IcmpMessage::echo_request(0xBEEF, 3, b"abcdefgh");
        let bytes = req.to_bytes();
        let parsed = IcmpMessage::parse(&bytes).expect("checksum valid");
        assert_eq!(parsed, req);
        let rep = IcmpMessage::echo_reply(&parsed);
        assert_eq!(rep.kind, IcmpType::EchoReply);
        assert_eq!(rep.ident, 0xBEEF);
        assert_eq!(rep.seq, 3);
        assert_eq!(rep.payload, b"abcdefgh");
    }

    #[test]
    fn only_a_valid_echo_request_gets_a_response() {
        let req = IcmpMessage::echo_request(7, 9, b"payload").to_bytes();
        let reply = echo_response(&req).expect("echo request answered");
        let parsed = IcmpMessage::parse(&reply.to_vec()).expect("reply checksums");
        assert_eq!(parsed.kind, IcmpType::EchoReply);
        assert_eq!((parsed.ident, parsed.seq), (7, 9));
        assert_eq!(parsed.payload, b"payload");
        assert!(echo_response(&reply.to_vec()).is_none(), "replies are not");
        let mut bad = req.clone();
        bad[9] ^= 1;
        assert!(echo_response(&bad).is_none(), "nor corrupt requests");
        let hdr = IpHeader::simple([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 17, 1);
        let unreachable = unreachable(3, &hdr, &Mbuf::from_payload(0, &[0; 8]));
        assert!(echo_response(&unreachable.to_vec()).is_none());
    }

    #[test]
    fn corrupted_message_rejected() {
        let mut bytes = IcmpMessage::echo_request(1, 1, b"data").to_bytes();
        bytes[9] ^= 0x10;
        assert!(IcmpMessage::parse(&bytes).is_none());
        assert!(IcmpMessage::parse(&bytes[..4]).is_none(), "too short");
    }

    #[test]
    fn unreachable_quotes_original_datagram() {
        let hdr = IpHeader::simple([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 17, 9);
        let payload: Vec<u8> = (0..40).collect();
        let msg = unreachable(3, &hdr, &Mbuf::from_payload(0, &payload));
        let parsed = IcmpMessage::parse(&msg.to_vec()).unwrap();
        assert_eq!(parsed.kind, IcmpType::DestUnreachable);
        assert_eq!(parsed.code, 3);
        assert_eq!(parsed.payload.len(), 28, "IP header + 8 bytes");
        let mut original = vec![0; 20];
        write_header(&mut original, &hdr, payload.len());
        assert_eq!(parsed.payload[..20], original, "the header as received");
        assert_eq!(parsed.payload[20..], payload[..8]);
        // A payload shorter than 8 bytes is quoted whole.
        let short = unreachable(3, &hdr, &Mbuf::from_payload(0, &payload[..3]));
        assert_eq!(
            IcmpMessage::parse(&short.to_vec()).unwrap().payload.len(),
            23
        );
    }

    #[test]
    fn unknown_types_rejected() {
        let mut msg = IcmpMessage::echo_request(1, 1, b"").to_bytes();
        msg[0] = 42;
        // Fix the checksum for the mutated type so only the type check fails.
        msg[2] = 0;
        msg[3] = 0;
        let c = checksum(&msg);
        msg[2..4].copy_from_slice(&c.to_be_bytes());
        assert!(IcmpMessage::parse(&msg).is_none());
    }
}
