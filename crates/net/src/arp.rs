//! ARP: IPv4-over-Ethernet address resolution.
//!
//! One of the first-level nodes in Figure 1's protocol graph (the guard
//! `eth.type == ARP?` routes frames here). Provides packet build/parse and
//! [`ArpCache`], the per-interface state every stack resolves through: a
//! datagram for an unresolved hop is parked *in the cache* until the reply
//! arrives, the resolution is abandoned, or the bounded queue refuses it.
//! The cache is pure state — addresses and times in, [`Resolve`] /
//! [`ArpInput`] out — so the stacks differ only in what they charge and
//! how a [`Frame`] reaches the wire.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use plexus_kernel::view::{be16, put_be16, WireView};

use crate::ether::{EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use crate::mbuf::Mbuf;

/// ARP packet length for IPv4 over Ethernet.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a who-has request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr([0; 6]),
            target_ip,
        }
    }

    /// Builds the reply answering `req` on behalf of `my_mac`/`my_ip`.
    pub fn reply_to(req: &ArpPacket, my_mac: MacAddr, my_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: my_ip,
            target_mac: req.sender_mac,
            target_ip: req.sender_ip,
        }
    }

    /// Serializes to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = vec![0u8; ARP_LEN];
        put_be16(&mut b, 0, 1); // Hardware: Ethernet.
        put_be16(&mut b, 2, 0x0800); // Protocol: IPv4.
        b[4] = 6; // MAC length.
        b[5] = 4; // IPv4 length.
        put_be16(
            &mut b,
            6,
            match self.op {
                ArpOp::Request => 1,
                ArpOp::Reply => 2,
            },
        );
        b[8..14].copy_from_slice(&self.sender_mac.0);
        b[14..18].copy_from_slice(&self.sender_ip.octets());
        b[18..24].copy_from_slice(&self.target_mac.0);
        b[24..28].copy_from_slice(&self.target_ip.octets());
        b
    }

    /// Serializes into an mbuf with room for the link header in front.
    pub fn to_mbuf(&self) -> Mbuf {
        Mbuf::from_payload(ETHER_HDR_LEN, &self.to_bytes())
    }

    /// Parses from wire format. Returns `None` for malformed or non
    /// IPv4-over-Ethernet packets.
    pub fn parse(bytes: &[u8]) -> Option<ArpPacket> {
        let v: ArpRawView = plexus_kernel::view::view(bytes)?;
        v.decode()
    }
}

/// Raw zero-copy view used by [`ArpPacket::parse`].
struct ArpRawView<'a>(&'a [u8]);

impl<'a> WireView<'a> for ArpRawView<'a> {
    const WIRE_SIZE: usize = ARP_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        ArpRawView(bytes)
    }
}

impl ArpRawView<'_> {
    fn decode(&self) -> Option<ArpPacket> {
        let b = self.0;
        if be16(b, 0) != 1 || be16(b, 2) != 0x0800 || b[4] != 6 || b[5] != 4 {
            return None;
        }
        let op = match be16(b, 6) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpPacket {
            op,
            sender_mac: MacAddr(b[8..14].try_into().expect("fixed slice")),
            sender_ip: Ipv4Addr::new(b[14], b[15], b[16], b[17]),
            target_mac: MacAddr(b[18..24].try_into().expect("fixed slice")),
            target_ip: Ipv4Addr::new(b[24], b[25], b[26], b[27]),
        })
    }
}

/// Most datagrams one unresolved hop may hold.
pub const MAX_PARKED_PER_HOP: usize = 32;

/// Most datagrams the cache may hold over all unresolved hops.
pub const MAX_PARKED: usize = 128;

/// How long a who-has may go unanswered before the resolution is abandoned
/// and its parked datagrams dropped (three one-second asks, as the Plexus
/// retry timer makes them).
pub const PENDING_TTL_NS: u64 = 3_000_000_000;

/// What became of a datagram offered to [`ArpCache::resolve`].
#[derive(Debug)]
pub enum Resolve {
    /// The hop's MAC is known: send the datagram there.
    Send(Frame),
    /// Parked, and nothing was asking for this hop yet: broadcast this
    /// who-has.
    ParkedAsk(Frame),
    /// Parked behind a who-has already in flight.
    ParkedQuiet,
    /// The parked queue is full (per hop or in total); the datagram is
    /// dropped.
    Refused,
}

impl Resolve {
    /// What this outcome puts on the wire now: the datagram to the hop's
    /// MAC, the who-has broadcast, or nothing.
    #[inline]
    pub fn frame(&self) -> Option<&Frame> {
        match self {
            Resolve::Send(frame) | Resolve::ParkedAsk(frame) => Some(frame),
            Resolve::ParkedQuiet | Resolve::Refused => None,
        }
    }
}

/// What an arriving ARP packet asks of the stack ([`ArpCache::input`]).
#[derive(Debug)]
pub struct ArpInput {
    /// The sender's MAC, just learned: where `released` and `reply` go.
    pub to: MacAddr,
    /// Datagrams that were parked on the sender's address, oldest first.
    pub released: Vec<Mbuf>,
    /// The is-at answering a who-has for this interface's address.
    pub reply: Option<Mbuf>,
}

impl ArpInput {
    /// Everything to put on the wire, in order: the released datagrams,
    /// then the reply.
    pub fn frames(self) -> impl Iterator<Item = Frame> {
        let dst = self.to;
        let frame = move |ethertype, packet| Frame {
            dst,
            ethertype,
            packet,
        };
        let released = self.released.into_iter();
        released
            .map(move |d| frame(EtherType::IPV4, d))
            .chain(self.reply.map(move |r| frame(EtherType::ARP, r)))
    }
}

/// One unresolved hop: when its who-has was first sent, and the datagrams
/// waiting on the answer.
struct Pending {
    asked_ns: u64,
    parked: Vec<Mbuf>,
}

/// One interface's ARP state: the cache proper (entries expire) and the
/// datagrams parked on unresolved hops (bounded, and abandoned when the
/// answer does not come).
pub struct ArpCache {
    ip: Ipv4Addr,
    mac: MacAddr,
    entries: HashMap<Ipv4Addr, (MacAddr, u64)>,
    pending: HashMap<Ipv4Addr, Pending>,
    /// Datagrams parked over all of `pending`.
    parked: usize,
    refused: u64,
    expired: u64,
    /// Entry lifetime in nanoseconds (default 20 minutes, as in BSD).
    pub ttl_ns: u64,
}

impl ArpCache {
    /// Creates an empty cache for the interface `ip`/`mac`.
    pub fn new(ip: Ipv4Addr, mac: MacAddr) -> ArpCache {
        ArpCache {
            ip,
            mac,
            entries: HashMap::new(),
            pending: HashMap::new(),
            parked: 0,
            refused: 0,
            expired: 0,
            ttl_ns: 20 * 60 * 1_000_000_000,
        }
    }

    /// Resolves `hop` for `dgram`: hands it back with the MAC when known,
    /// parks it otherwise. Only the first miss per hop asks; a resolution
    /// abandoned since ([`ArpCache::abandon`], or [`PENDING_TTL_NS`]
    /// without an answer) is asked again.
    pub fn resolve(&mut self, hop: Ipv4Addr, now_ns: u64, dgram: Mbuf) -> Resolve {
        if let Some(&(mac, stamped)) = self.entries.get(&hop) {
            if now_ns.saturating_sub(stamped) < self.ttl_ns {
                return Resolve::Send(Frame {
                    dst: mac,
                    ethertype: EtherType::IPV4,
                    packet: dgram,
                });
            }
            self.entries.remove(&hop);
        }
        self.expire_pending(now_ns);
        let held = self.pending.get(&hop).map_or(0, |p| p.parked.len());
        if held >= MAX_PARKED_PER_HOP || self.parked >= MAX_PARKED {
            self.refused += 1;
            return Resolve::Refused;
        }
        self.parked += 1;
        if let Some(p) = self.pending.get_mut(&hop) {
            p.parked.push(dgram);
            return Resolve::ParkedQuiet;
        }
        self.pending.insert(
            hop,
            Pending {
                asked_ns: now_ns,
                parked: vec![dgram],
            },
        );
        Resolve::ParkedAsk(self.request(hop))
    }

    /// Learns a binding (from a reply, opportunistically from a request's
    /// sender fields, or seeded). Returns the datagrams that were parked
    /// on it, oldest first.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, now_ns: u64) -> Vec<Mbuf> {
        self.entries.insert(ip, (mac, now_ns));
        self.expire_pending(now_ns);
        let released = self.pending.remove(&ip).map_or(Vec::new(), |p| p.parked);
        self.parked -= released.len();
        released
    }

    /// Processes one received ARP packet (`bytes` starts after the link
    /// header): learns the sender's binding and answers a who-has for this
    /// interface. `None` for a malformed packet.
    pub fn input(&mut self, bytes: &[u8], now_ns: u64) -> Option<ArpInput> {
        let pkt = ArpPacket::parse(bytes)?;
        let released = self.learn(pkt.sender_ip, pkt.sender_mac, now_ns);
        let reply = (pkt.op == ArpOp::Request && pkt.target_ip == self.ip)
            .then(|| ArpPacket::reply_to(&pkt, self.mac, self.ip).to_mbuf());
        Some(ArpInput {
            to: pkt.sender_mac,
            released,
            reply,
        })
    }

    /// The who-has broadcast for `hop` from this interface (what
    /// [`Resolve::ParkedAsk`] carries; a retry timer sends it again).
    pub fn request(&self, hop: Ipv4Addr) -> Frame {
        Frame {
            dst: MacAddr::BROADCAST,
            ethertype: EtherType::ARP,
            packet: ArpPacket::request(self.mac, self.ip, hop).to_mbuf(),
        }
    }

    /// When the outstanding who-has for `hop` was first sent, if one is.
    pub fn asked_at(&self, hop: Ipv4Addr) -> Option<u64> {
        self.pending.get(&hop).map(|p| p.asked_ns)
    }

    /// Gives up on `hop`: drops what was parked on it and forgets the
    /// resolution, so the next [`ArpCache::resolve`] asks afresh. Returns
    /// how many datagrams were dropped.
    pub fn abandon(&mut self, hop: Ipv4Addr) -> usize {
        let dropped = self.pending.remove(&hop).map_or(0, |p| p.parked.len());
        self.parked -= dropped;
        dropped
    }

    /// Abandons every resolution unanswered for [`PENDING_TTL_NS`]. Runs
    /// on the miss path of `resolve` and in `learn`, never on a hit.
    fn expire_pending(&mut self, now_ns: u64) {
        if self.pending.is_empty() {
            return;
        }
        let mut dropped = 0;
        self.pending.retain(|_, p| {
            let live = now_ns.saturating_sub(p.asked_ns) < PENDING_TTL_NS;
            if !live {
                dropped += p.parked.len();
            }
            live
        });
        self.parked -= dropped;
        self.expired += dropped as u64;
    }

    /// Datagrams parked right now, over all unresolved hops.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Datagrams refused because the parked queue was full.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Parked datagrams dropped because their who-has went unanswered for
    /// [`PENDING_TTL_NS`].
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn request_reply_round_trip() {
        let req = ArpPacket::request(MacAddr::local(1), ip(1), ip(2));
        let parsed = ArpPacket::parse(&req.to_bytes()).expect("well-formed");
        assert_eq!(parsed, req);
        let rep = ArpPacket::reply_to(&parsed, MacAddr::local(2), ip(2));
        let parsed_rep = ArpPacket::parse(&rep.to_bytes()).expect("well-formed");
        assert_eq!(parsed_rep.op, ArpOp::Reply);
        assert_eq!(parsed_rep.sender_mac, MacAddr::local(2));
        assert_eq!(parsed_rep.target_mac, MacAddr::local(1));
        assert_eq!(parsed_rep.target_ip, ip(1));
    }

    #[test]
    fn malformed_packets_are_rejected() {
        assert!(ArpPacket::parse(&[0u8; 10]).is_none(), "too short");
        let mut bad = ArpPacket::request(MacAddr::local(1), ip(1), ip(2)).to_bytes();
        bad[1] = 99; // Wrong hardware type.
        assert!(ArpPacket::parse(&bad).is_none());
        let mut badop = ArpPacket::request(MacAddr::local(1), ip(1), ip(2)).to_bytes();
        badop[7] = 9; // Unknown op.
        assert!(ArpPacket::parse(&badop).is_none());
    }

    fn cache() -> ArpCache {
        ArpCache::new(ip(1), MacAddr::local(1))
    }

    /// A datagram recognisable by its one payload byte.
    fn dgram(tag: u8) -> Mbuf {
        Mbuf::from_payload(ETHER_HDR_LEN, &[tag])
    }

    fn tags(released: &[Mbuf]) -> Vec<u8> {
        released.iter().map(|m| m.to_vec()[0]).collect()
    }

    #[test]
    fn cache_resolves_after_learning() {
        let mut cache = cache();
        // The first miss asks, with this interface's who-has for the hop.
        let Resolve::ParkedAsk(request) = cache.resolve(ip(9), 0, dgram(1)) else {
            panic!("first miss must ask");
        };
        assert_eq!(
            (request.dst, request.ethertype),
            (MacAddr::BROADCAST, EtherType::ARP)
        );
        assert_eq!(
            ArpPacket::parse(&request.packet.to_vec()),
            Some(ArpPacket::request(MacAddr::local(1), ip(1), ip(9)))
        );
        // Later misses while it is pending must not re-broadcast.
        assert!(matches!(
            cache.resolve(ip(9), 10, dgram(2)),
            Resolve::ParkedQuiet
        ));
        assert!(matches!(
            cache.resolve(ip(9), 11, dgram(3)),
            Resolve::ParkedQuiet
        ));
        assert_eq!((cache.parked(), cache.asked_at(ip(9))), (3, Some(0)));
        // The answer releases what was parked, oldest first.
        assert_eq!(tags(&cache.learn(ip(9), MacAddr::local(9), 20)), [1, 2, 3]);
        assert_eq!((cache.parked(), cache.asked_at(ip(9))), (0, None));
        let Resolve::Send(sent) = cache.resolve(ip(9), 30, dgram(4)) else {
            panic!("resolved hop must send");
        };
        assert_eq!(
            (sent.dst, sent.ethertype, sent.packet.to_vec()),
            (MacAddr::local(9), EtherType::IPV4, vec![4])
        );
        assert!(
            cache.learn(ip(9), MacAddr::local(9), 40).is_empty(),
            "not pending now"
        );
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut cache = cache();
        cache.ttl_ns = 1_000;
        cache.learn(ip(2), MacAddr::local(2), 0);
        assert!(matches!(
            cache.resolve(ip(2), 500, dgram(1)),
            Resolve::Send(..)
        ));
        assert!(matches!(
            cache.resolve(ip(2), 1_500, dgram(2)),
            Resolve::ParkedAsk(_)
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn an_abandoned_resolution_is_asked_again() {
        let mut cache = cache();
        assert!(matches!(
            cache.resolve(ip(9), 0, dgram(1)),
            Resolve::ParkedAsk(_)
        ));
        assert!(matches!(
            cache.resolve(ip(9), 1, dgram(2)),
            Resolve::ParkedQuiet
        ));
        assert_eq!(cache.abandon(ip(9)), 2);
        assert_eq!((cache.parked(), cache.asked_at(ip(9))), (0, None));
        assert_eq!(cache.abandon(ip(9)), 0, "nothing left to give up on");
        // Both halves of the pending state are gone: the next send asks.
        assert!(matches!(
            cache.resolve(ip(9), 2, dgram(3)),
            Resolve::ParkedAsk(_)
        ));
        assert_eq!(tags(&cache.learn(ip(9), MacAddr::local(9), 3)), [3]);
    }

    #[test]
    fn an_unanswered_resolution_expires_at_the_next_miss_or_learn() {
        let mut cache = cache();
        cache.resolve(ip(8), 0, dgram(1));
        cache.resolve(ip(9), 10, dgram(2));
        // Hits never sweep; a miss does, for every stale hop.
        cache.learn(ip(2), MacAddr::local(2), 0);
        assert!(matches!(
            cache.resolve(ip(2), PENDING_TTL_NS, dgram(3)),
            Resolve::Send(..)
        ));
        assert_eq!(cache.parked(), 2);
        assert!(
            matches!(
                cache.resolve(ip(8), PENDING_TTL_NS, dgram(4)),
                Resolve::ParkedAsk(_)
            ),
            "the stale resolution is abandoned and asked afresh"
        );
        assert_eq!((cache.parked(), cache.expired()), (2, 1));
        // A late answer finds its datagram already dropped.
        assert!(cache
            .learn(ip(9), MacAddr::local(9), PENDING_TTL_NS + 10)
            .is_empty());
        assert_eq!((cache.parked(), cache.expired()), (1, 2));
        assert_eq!(
            tags(&cache.learn(ip(8), MacAddr::local(8), PENDING_TTL_NS + 20)),
            [4]
        );
    }

    #[test]
    fn the_parked_queue_is_bounded_per_hop_and_in_total() {
        let mut cache = cache();
        for k in 0..MAX_PARKED_PER_HOP {
            assert!(!matches!(
                cache.resolve(ip(9), 0, dgram(k as u8)),
                Resolve::Refused
            ));
        }
        assert!(matches!(
            cache.resolve(ip(9), 0, dgram(0xFF)),
            Resolve::Refused
        ));
        assert_eq!((cache.parked(), cache.refused()), (MAX_PARKED_PER_HOP, 1));
        // Other hops still park, until the total is reached.
        let mut hop = 10;
        while cache.parked() < MAX_PARKED {
            assert!(matches!(
                cache.resolve(ip(hop), 0, dgram(hop)),
                Resolve::ParkedAsk(_)
            ));
            hop += 1;
        }
        assert!(matches!(
            cache.resolve(ip(hop), 0, dgram(hop)),
            Resolve::Refused
        ));
        assert_eq!(cache.refused(), 2);
        assert_eq!(cache.asked_at(ip(hop)), None, "a refused hop is not asked");
        // The answer releases exactly what was accepted, and frees the room.
        let released = cache.learn(ip(9), MacAddr::local(9), 1);
        let want: Vec<u8> = (0..MAX_PARKED_PER_HOP as u8).collect();
        assert_eq!(tags(&released), want);
        assert!(matches!(
            cache.resolve(ip(hop), 2, dgram(hop)),
            Resolve::ParkedAsk(_)
        ));
    }

    #[test]
    fn input_learns_releases_and_answers() {
        let mut cache = cache();
        cache.resolve(ip(2), 0, dgram(7));
        // A who-has for us from the very hop we were waiting on: its
        // sender fields release the parked datagram, then the is-at goes
        // back — in that order, all to the sender's MAC.
        let req = ArpPacket::request(MacAddr::local(2), ip(2), ip(1));
        let input = cache.input(&req.to_bytes(), 5).expect("well-formed");
        assert_eq!(input.to, MacAddr::local(2));
        let frames: Vec<Frame> = input.frames().collect();
        assert_eq!(frames.len(), 2);
        assert!(frames.iter().all(|f| f.dst == MacAddr::local(2)));
        assert_eq!(frames[0].ethertype, EtherType::IPV4);
        assert_eq!(frames[0].packet.to_vec(), [7]);
        assert_eq!(frames[1].ethertype, EtherType::ARP);
        assert_eq!(
            ArpPacket::parse(&frames[1].packet.to_vec()),
            Some(ArpPacket::reply_to(&req, MacAddr::local(1), ip(1)))
        );
        // A who-has for someone else teaches us the sender, nothing more.
        let other = ArpPacket::request(MacAddr::local(3), ip(3), ip(4));
        let input = cache.input(&other.to_bytes(), 6).expect("well-formed");
        assert!(input.released.is_empty() && input.reply.is_none());
        assert!(matches!(
            cache.resolve(ip(3), 7, dgram(1)),
            Resolve::Send(..)
        ));
        assert!(cache.input(&[0u8; 10], 8).is_none(), "malformed");
    }
}
