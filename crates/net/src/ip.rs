//! IPv4: header handling, fragmentation/reassembly, and routing.
//!
//! The middle of Figure 1's protocol graph. The Plexus graph, the in-kernel
//! router and the monolithic baseline all send through [`RouteTable::hop`] /
//! [`datagrams`] and receive through [`Reassembler::input`], mirroring the
//! paper's "same TCP/IP implementation" methodology: what differs between
//! them is what they charge and count around these calls.

use std::cell::Cell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use plexus_kernel::view::{be16, be32, put_be16, WireView};

use crate::checksum::checksum;
use crate::mbuf::Mbuf;

/// IP protocol numbers.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// Length of an IPv4 header without options.
pub const IP_HDR_LEN: usize = 20;

/// Length of the largest legal IPv4 header (IHL 15).
const MAX_IP_HDR_LEN: usize = 60;

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// Zero-copy view of an IPv4 header.
pub struct IpView<'a>(&'a [u8]);

impl<'a> WireView<'a> for IpView<'a> {
    const WIRE_SIZE: usize = IP_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        IpView(bytes)
    }
}

impl IpView<'_> {
    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.0[0] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        ((self.0[0] & 0x0F) as usize) * 4
    }

    /// Total datagram length (header + payload).
    pub fn total_len(&self) -> usize {
        be16(self.0, 2) as usize
    }

    /// Identification field (fragment grouping).
    pub fn ident(&self) -> u16 {
        be16(self.0, 4)
    }

    /// True if the More Fragments flag is set.
    pub fn more_fragments(&self) -> bool {
        self.0[6] & 0x20 != 0
    }

    /// Fragment offset in bytes.
    pub fn frag_offset(&self) -> usize {
        ((be16(self.0, 6) & 0x1FFF) as usize) * 8
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.0[8]
    }

    /// Payload protocol number.
    pub fn protocol(&self) -> u8 {
        self.0[9]
    }

    /// Header checksum field.
    pub fn checksum_field(&self) -> u16 {
        be16(self.0, 10)
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::from(be32(self.0, 12))
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::from(be32(self.0, 16))
    }

    /// Verifies the header checksum.
    pub fn checksum_ok(&self) -> bool {
        checksum(&self.0[..IP_HDR_LEN]) == 0
    }

    /// True if this datagram is a fragment (not the whole).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments() || self.frag_offset() != 0
    }
}

/// The header fields a sender chooses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpHeader {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: u8,
    /// Identification (for fragment grouping).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in bytes (multiple of 8 unless last).
    pub frag_offset: usize,
}

impl IpHeader {
    /// A whole (unfragmented) datagram header.
    pub fn simple(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ident: u16) -> IpHeader {
        IpHeader {
            src,
            dst,
            protocol,
            ident,
            ttl: DEFAULT_TTL,
            more_fragments: false,
            frag_offset: 0,
        }
    }
}

/// Writes a 20-byte IPv4 header (with correct checksum) into `buf`.
///
/// # Panics
///
/// Panics if `buf` is shorter than [`IP_HDR_LEN`] or the fragment offset is
/// not a multiple of 8.
pub fn write_header(buf: &mut [u8], hdr: &IpHeader, payload_len: usize) {
    assert!(buf.len() >= IP_HDR_LEN);
    assert_eq!(hdr.frag_offset % 8, 0, "fragment offset must be 8-aligned");
    buf[0] = 0x45; // Version 4, IHL 5.
    buf[1] = 0; // TOS.
    put_be16(buf, 2, (IP_HDR_LEN + payload_len) as u16);
    put_be16(buf, 4, hdr.ident);
    let flags_frag = ((hdr.more_fragments as u16) << 13) | ((hdr.frag_offset / 8) as u16 & 0x1FFF);
    put_be16(buf, 6, flags_frag);
    buf[8] = hdr.ttl;
    buf[9] = hdr.protocol;
    put_be16(buf, 10, 0);
    buf[12..16].copy_from_slice(&hdr.src.octets());
    buf[16..20].copy_from_slice(&hdr.dst.octets());
    let c = checksum(&buf[..IP_HDR_LEN]);
    put_be16(buf, 10, c);
}

/// Prepends an IP header onto `payload`, producing the datagram.
pub fn encapsulate(hdr: &IpHeader, mut payload: Mbuf) -> Mbuf {
    let len = payload.total_len();
    let space = payload.prepend(IP_HDR_LEN);
    write_header(space, hdr, len);
    payload.stamp_pkthdr();
    payload
}

/// Splits a datagram's payload into IP fragments that fit in `mtu`-byte
/// datagrams. Returns whole datagrams (header + piece). Payloads that fit
/// yield a single unfragmented datagram.
///
/// # Panics
///
/// Panics if `mtu` cannot carry the header plus at least 8 payload bytes.
pub fn fragment(hdr: &IpHeader, payload: &Mbuf, mtu: usize) -> Vec<Mbuf> {
    let total = payload.total_len();
    assert!(mtu >= IP_HDR_LEN + 8, "mtu too small to fragment into");
    let max_piece = (mtu - IP_HDR_LEN) & !7; // Fragment data is 8-aligned.
    if total + IP_HDR_LEN <= mtu {
        return vec![encapsulate(hdr, payload.share())];
    }
    let mut out = Vec::new();
    let mut off = 0;
    while off < total {
        let piece = max_piece.min(total - off);
        let last = off + piece == total;
        let fhdr = IpHeader {
            more_fragments: !last,
            frag_offset: hdr.frag_offset + off,
            ..*hdr
        };
        out.push(encapsulate(&fhdr, payload.range(off, piece)));
        off += piece;
    }
    out
}

/// The datagrams `payload` leaves as under `hdr` on an `mtu`-byte link: the
/// one whole datagram when it fits (no `Vec` is built around it), its
/// [`fragment`]s otherwise.
#[inline]
pub fn datagrams(hdr: &IpHeader, payload: &Mbuf, mtu: usize) -> impl Iterator<Item = Mbuf> {
    let (whole, frags) = if payload.total_len() + IP_HDR_LEN <= mtu {
        (Some(encapsulate(hdr, payload.share())), Vec::new())
    } else {
        (None, fragment(hdr, payload, mtu))
    };
    whole.into_iter().chain(frags)
}

/// A sender's identification counter: one value per datagram, wrapping.
pub struct Ident(Cell<u16>);

impl Ident {
    /// A counter whose first datagram gets `first`.
    pub fn starting_at(first: u16) -> Ident {
        Ident(Cell::new(first))
    }

    /// Takes the next identification value.
    #[inline]
    pub fn take(&self) -> u16 {
        let id = self.0.get();
        self.0.set(id.wrapping_add(1));
        id
    }
}

/// Key identifying a fragment group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FragKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
    protocol: u8,
}

struct FragGroup {
    key: FragKey,
    /// Received `(offset, bytes)` pieces in offset order, each one adding
    /// bytes the pieces before it (in arrival order) did not cover.
    pieces: Vec<(usize, Vec<u8>)>,
    /// Total length, known once the last fragment arrives.
    total: Option<usize>,
    /// Arrival time of the first fragment, for expiry.
    born_ns: u64,
}

impl FragGroup {
    /// End of the contiguous run of held bytes that starts at or before
    /// `from` (`from` itself when a hole begins there).
    fn covered_from(&self, from: usize) -> usize {
        let mut covered = from;
        for (o, d) in &self.pieces {
            if *o > covered {
                break;
            }
            covered = covered.max(o + d.len());
        }
        covered
    }

    /// Payload bytes held.
    fn bytes(&self) -> usize {
        self.pieces.iter().map(|(_, d)| d.len()).sum()
    }
}

/// Most incomplete groups a [`Reassembler`] holds: a fragment that would
/// start one more evicts the oldest.
pub const MAX_FRAG_GROUPS: usize = 64;

/// Most fragment payload bytes a [`Reassembler`] holds across all groups
/// (four datagrams of the largest legal size); a fragment that would
/// exceed it evicts the oldest groups until it fits.
pub const MAX_FRAG_BYTES: usize = 256 * 1024;

/// What [`Reassembler::input`] made of one received datagram. Each stack
/// maps the verdicts to its own counters and drop reasons.
#[derive(Debug)]
pub enum Verdict {
    /// A whole (if needed, reassembled) datagram for a local address.
    Deliver(IpHeader, Mbuf),
    /// Valid, but addressed to someone else.
    NotLocal,
    /// A bad header, or a fragment now held until its group completes.
    BadOrFragment,
    /// Shorter than an IP header.
    Runt,
}

/// Reassembles fragmented datagrams. What it holds is bounded: incomplete
/// groups expire, a fragment that adds nothing to its group is ignored, and
/// [`MAX_FRAG_GROUPS`] / [`MAX_FRAG_BYTES`] evict the oldest group first.
pub struct Reassembler {
    /// Incomplete groups in the order their first fragments arrived: few
    /// enough to search, and the front is the one to evict.
    groups: VecDeque<FragGroup>,
    /// Lifetime of an incomplete group, in nanoseconds (default 30 s).
    pub timeout_ns: u64,
    expired: u64,
    evicted: u64,
    /// Payload bytes held across all groups.
    held: usize,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new()
    }
}

impl Reassembler {
    /// Creates an empty reassembler with the default 30 s timeout.
    pub fn new() -> Reassembler {
        Reassembler {
            groups: VecDeque::new(),
            timeout_ns: 30_000_000_000,
            expired: 0,
            evicted: 0,
            held: 0,
        }
    }

    /// Number of incomplete groups held.
    pub fn pending(&self) -> usize {
        self.groups.len()
    }

    /// Groups dropped by expiry so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Groups dropped to stay under [`MAX_FRAG_GROUPS`] and
    /// [`MAX_FRAG_BYTES`] so far. A stack reads it around
    /// [`Reassembler::input`] to name the drop (`ip_reassembly_full`).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drops the group that has been held longest.
    fn evict_oldest(&mut self) {
        if let Some(group) = self.groups.pop_front() {
            self.held -= group.bytes();
            self.evicted += 1;
        }
    }

    /// Offers one datagram. Non-fragments pass straight through as
    /// `(header, payload)`. Fragments are held until their group completes,
    /// at which point the reassembled `(header, payload)` is returned.
    pub fn offer(&mut self, dgram: &Mbuf, now_ns: u64) -> Option<(IpHeader, Mbuf)> {
        // Only the header is inspected up front: peek at most the largest
        // legal IP header into a stack buffer instead of flattening the
        // datagram (the receive path offers every packet, so this runs
        // per arrival).
        let mut bytes = [0u8; MAX_IP_HDR_LEN];
        let peek = dgram.total_len().min(MAX_IP_HDR_LEN);
        dgram.read_at(0, &mut bytes[..peek]);
        let v: IpView = plexus_kernel::view::view(&bytes[..peek])?;
        if !v.checksum_ok() || v.version() != 4 {
            return None;
        }
        let hlen = v.header_len();
        let data_len = v.total_len().checked_sub(hlen)?;
        if dgram.total_len() < hlen + data_len {
            return None;
        }
        let hdr = IpHeader {
            src: v.src(),
            dst: v.dst(),
            protocol: v.protocol(),
            ident: v.ident(),
            ttl: v.ttl(),
            more_fragments: false,
            frag_offset: 0,
        };
        if !v.is_fragment() {
            return Some((hdr, dgram.range(hlen, data_len)));
        }
        // Stale groups go before this fragment can join one, so a reused
        // ident never splices into a datagram abandoned long ago.
        self.expire(now_ns);
        let key = FragKey {
            src: hdr.src,
            dst: hdr.dst,
            ident: hdr.ident,
            protocol: hdr.protocol,
        };
        let off = v.frag_offset();
        let end = off + data_len;
        // A piece its group already covers (a duplicate) is not held again;
        // one that adds bytes, or starts a group, first makes room for itself
        // (if that evicts its own group, it starts the next one).
        let mut at = self.groups.iter().position(|g| g.key == key);
        let adds = at.is_none_or(|i| self.groups[i].covered_from(off) < end);
        while adds
            && (self.held + data_len > MAX_FRAG_BYTES
                || (at.is_none() && self.groups.len() >= MAX_FRAG_GROUPS))
        {
            self.evict_oldest();
            at = at.and_then(|i| i.checked_sub(1));
        }
        let at = at.unwrap_or_else(|| {
            self.groups.push_back(FragGroup {
                key,
                pieces: Vec::new(),
                total: None,
                born_ns: now_ns,
            });
            self.groups.len() - 1
        });
        let group = &mut self.groups[at];
        if !v.more_fragments() {
            group.total = Some(end);
        }
        if adds {
            let mut piece = Vec::with_capacity(data_len);
            dgram.copy_into(hlen, data_len, &mut piece);
            let slot = group.pieces.partition_point(|(o, _)| *o <= off);
            group.pieces.insert(slot, (off, piece));
            self.held += data_len;
        }
        // Check completeness: contiguous coverage of [0, total).
        let total = group.total?;
        if group.covered_from(0) < total {
            return None; // Hole remains.
        }
        // Complete: splice the payload together (overlaps take the bytes of
        // the piece at the greater offset, and nothing lands past `total`,
        // wherever a hostile piece claimed to reach).
        let group = self.groups.remove(at)?;
        self.held -= group.bytes();
        let mut data = vec![0u8; total];
        for (o, d) in &group.pieces {
            let Some(room) = data.get_mut(*o..) else {
                continue;
            };
            let n = d.len().min(room.len());
            room[..n].copy_from_slice(&d[..n]);
        }
        Some((hdr, Mbuf::from_payload(0, &data)))
    }

    /// The receive side of IP for a host: [`Reassembler::offer`], then the
    /// local-address check (`is_local` is asked about a whole datagram's
    /// destination).
    pub fn input(
        &mut self,
        dgram: &Mbuf,
        now_ns: u64,
        is_local: impl FnOnce(Ipv4Addr) -> bool,
    ) -> Verdict {
        match self.offer(dgram, now_ns) {
            Some((hdr, payload)) if is_local(hdr.dst) => Verdict::Deliver(hdr, payload),
            Some(_) => Verdict::NotLocal,
            None if dgram.total_len() >= IP_HDR_LEN => Verdict::BadOrFragment,
            None => Verdict::Runt,
        }
    }

    /// Drops groups older than the timeout. Returns how many were dropped.
    /// [`Reassembler::offer`] does this itself whenever a fragment arrives.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let timeout = self.timeout_ns;
        let before = self.groups.len();
        let held = &mut self.held;
        self.groups.retain(|g| {
            let live = now_ns.saturating_sub(g.born_ns) < timeout;
            if !live {
                *held -= g.bytes();
            }
            live
        });
        let dropped = before - self.groups.len();
        self.expired += dropped as u64;
        dropped
    }
}

/// A routing table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination network.
    pub prefix: Ipv4Addr,
    /// Prefix length in bits (0 = default route).
    pub prefix_len: u8,
    /// Outgoing interface index.
    pub iface: usize,
    /// Next hop; `None` for directly attached networks.
    pub gateway: Option<Ipv4Addr>,
}

/// Where a host's datagram goes at the link layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    /// To everyone on the segment; nothing to resolve.
    Broadcast,
    /// To this on-link address (the destination itself, or a gateway).
    Via(Ipv4Addr),
}

/// Longest-prefix-match routing table.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// A single-homed host's table: the `prefix_len`-bit network `ip` is
    /// on, directly attached to interface 0.
    pub fn host(ip: Ipv4Addr, prefix_len: u8) -> RouteTable {
        let mut table = RouteTable::new();
        table.add(ip, prefix_len, 0, None);
        table
    }

    /// Adds the default route via `gateway` on interface 0.
    pub fn set_default(&mut self, gateway: Ipv4Addr) {
        self.add(Ipv4Addr::UNSPECIFIED, 0, 0, Some(gateway));
    }

    /// Adds a route.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn add(
        &mut self,
        prefix: Ipv4Addr,
        prefix_len: u8,
        iface: usize,
        gateway: Option<Ipv4Addr>,
    ) {
        assert!(prefix_len <= 32);
        self.routes.push(Route {
            prefix,
            prefix_len,
            iface,
            gateway,
        });
    }

    /// Looks up the most specific route for `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<Route> {
        let d = u32::from(dst);
        self.routes
            .iter()
            .filter(|r| {
                let mask = if r.prefix_len == 0 {
                    0
                } else {
                    u32::MAX << (32 - r.prefix_len)
                };
                (d & mask) == (u32::from(r.prefix) & mask)
            })
            .max_by_key(|r| r.prefix_len)
            .copied()
    }

    /// The interface and on-link address `dst` is reached through: the
    /// matching route's gateway, or `dst` itself on an attached network.
    pub fn next_hop(&self, dst: Ipv4Addr) -> Option<(usize, Ipv4Addr)> {
        self.lookup(dst)
            .map(|r| (r.iface, r.gateway.unwrap_or(dst)))
    }

    /// [`RouteTable::next_hop`] for a host's own sends, where the limited
    /// broadcast address needs no route.
    #[inline]
    pub fn hop(&self, dst: Ipv4Addr) -> Option<Hop> {
        if dst == Ipv4Addr::BROADCAST {
            return Some(Hop::Broadcast);
        }
        self.next_hop(dst).map(|(_, via)| Hop::Via(via))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_kernel::view::view;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn header_round_trips_with_valid_checksum() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 0x1234);
        let payload = Mbuf::from_payload(64, b"hello");
        let dgram = encapsulate(&hdr, payload);
        let bytes = dgram.to_vec();
        let v: IpView = view(&bytes).expect("full header present");
        assert_eq!(v.version(), 4);
        assert_eq!(v.header_len(), IP_HDR_LEN);
        assert_eq!(v.total_len(), IP_HDR_LEN + 5);
        assert_eq!(v.src(), addr(1));
        assert_eq!(v.dst(), addr(2));
        assert_eq!(v.protocol(), proto::UDP);
        assert_eq!(v.ident(), 0x1234);
        assert!(v.checksum_ok());
        assert!(!v.is_fragment());
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 1);
        let mut dgram = encapsulate(&hdr, Mbuf::from_payload(64, b"x"));
        let mut b = [0u8; 1];
        dgram.read_at(8, &mut b);
        dgram.write_at(8, &[b[0] ^ 0xFF]); // Flip the TTL.
        let bytes = dgram.to_vec();
        let v: IpView = view(&bytes).unwrap();
        assert!(!v.checksum_ok());
    }

    #[test]
    fn small_payload_is_not_fragmented() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 7);
        let payload = Mbuf::from_payload(64, &[9u8; 100]);
        let frags = fragment(&hdr, &payload, 1500);
        assert_eq!(frags.len(), 1);
        let bytes = frags[0].to_vec();
        let v: IpView = view(&bytes).unwrap();
        assert!(!v.is_fragment());
    }

    #[test]
    fn fragmentation_covers_payload_exactly() {
        let data: Vec<u8> = (0u16..4000).map(|x| x as u8).collect();
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 42);
        let frags = fragment(&hdr, &Mbuf::from_payload(0, &data), 1500);
        assert_eq!(frags.len(), 3);
        let mut covered = Vec::new();
        for (i, f) in frags.iter().enumerate() {
            let bytes = f.to_vec();
            let v: IpView = view(&bytes).unwrap();
            assert!(v.checksum_ok());
            assert_eq!(v.ident(), 42);
            assert_eq!(v.more_fragments(), i != frags.len() - 1);
            assert_eq!(v.frag_offset(), covered.len());
            covered.extend_from_slice(&bytes[IP_HDR_LEN..]);
            assert!(bytes.len() <= 1500);
        }
        assert_eq!(covered, data);
    }

    #[test]
    fn reassembly_restores_payload_even_out_of_order() {
        let data: Vec<u8> = (0u16..5000).map(|x| (x * 3) as u8).collect();
        let hdr = IpHeader::simple(addr(3), addr(4), proto::UDP, 77);
        let mut frags = fragment(&hdr, &Mbuf::from_payload(0, &data), 1004);
        assert!(frags.len() >= 5);
        frags.reverse(); // Worst-case arrival order.
        let mut r = Reassembler::new();
        let mut result = None;
        for (k, f) in frags.iter().enumerate() {
            result = r.offer(f, 0);
            if result.is_some() && k != frags.len() - 1 {
                panic!("completed before all fragments arrived");
            }
        }
        let (hdr2, payload) = result.expect("all fragments offered");
        assert_eq!(hdr2.src, addr(3));
        assert_eq!(hdr2.protocol, proto::UDP);
        assert_eq!(payload.to_vec(), data);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn non_fragment_passes_straight_through() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::ICMP, 9);
        let dgram = encapsulate(&hdr, Mbuf::from_payload(64, b"ping"));
        let mut r = Reassembler::new();
        let (h, p) = r.offer(&dgram, 0).expect("whole datagram");
        assert_eq!(h.protocol, proto::ICMP);
        assert_eq!(p.to_vec(), b"ping");
    }

    #[test]
    fn offer_fast_path_allocates_no_clusters() {
        // The pre-parse header peek is a bounded copy into a stack buffer and
        // the non-fragment result is a range view sharing the input's
        // storage — offering a whole datagram must not touch the cluster
        // pool. This pins the removal of the old full `to_vec()` flatten.
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 11);
        let dgram = encapsulate(&hdr, Mbuf::from_payload(64, &[5u8; 900]));
        let mut r = Reassembler::new();
        let before = crate::mbuf::cluster_pool_stats();
        let (_, p) = r.offer(&dgram, 0).expect("whole datagram");
        let after = crate::mbuf::cluster_pool_stats();
        assert_eq!(p.total_len(), 900);
        assert_eq!(
            after.allocated + after.reused + after.unpooled,
            before.allocated + before.reused + before.unpooled,
            "fast-path offer must not allocate cluster storage"
        );
    }

    #[test]
    fn incomplete_groups_expire() {
        let data = vec![1u8; 3000];
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 5);
        let frags = fragment(&hdr, &Mbuf::from_payload(0, &data), 1500);
        let mut r = Reassembler::new();
        assert!(r.offer(&frags[0], 1_000).is_none());
        assert_eq!(r.pending(), 1);
        assert_eq!(r.expire(2_000), 0, "too early to expire");
        assert_eq!(r.expire(40_000_000_000), 1);
        assert_eq!(r.pending(), 0);
        assert_eq!(r.expired(), 1);
    }

    #[test]
    fn corrupt_fragments_are_ignored() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 5);
        let mut dgram = encapsulate(&hdr, Mbuf::from_payload(64, b"data"));
        dgram.write_at(12, &[0xFF]); // Break the source address (and checksum).
        let mut r = Reassembler::new();
        assert!(r.offer(&dgram, 0).is_none());
    }

    #[test]
    fn route_table_prefers_longest_prefix() {
        let mut rt = RouteTable::new();
        rt.add(Ipv4Addr::new(0, 0, 0, 0), 0, 0, Some(addr(254))); // Default.
        rt.add(Ipv4Addr::new(10, 0, 0, 0), 8, 1, None);
        rt.add(Ipv4Addr::new(10, 0, 0, 0), 24, 2, None);
        let r = rt.lookup(addr(5)).expect("matches");
        assert_eq!(r.iface, 2);
        let r = rt.lookup(Ipv4Addr::new(10, 9, 9, 9)).expect("matches /8");
        assert_eq!(r.iface, 1);
        let r = rt.lookup(Ipv4Addr::new(8, 8, 8, 8)).expect("default");
        assert_eq!(r.iface, 0);
        assert_eq!(r.gateway, Some(addr(254)));
    }

    #[test]
    fn a_host_table_picks_the_next_hop() {
        let gw = addr(254);
        let mut rt = RouteTable::host(addr(1), 24);
        // Connected: the destination is its own next hop.
        assert_eq!(rt.hop(addr(7)), Some(Hop::Via(addr(7))));
        // No default route yet: off-subnet has nowhere to go.
        let far = Ipv4Addr::new(10, 0, 9, 9);
        assert_eq!(rt.hop(far), None);
        assert_eq!(rt.next_hop(far), None);
        // The limited broadcast never needs a route.
        assert_eq!(rt.hop(Ipv4Addr::BROADCAST), Some(Hop::Broadcast));
        rt.set_default(gw);
        assert_eq!(rt.hop(far), Some(Hop::Via(gw)));
        assert_eq!(rt.hop(addr(7)), Some(Hop::Via(addr(7))), "connected wins");
        assert_eq!(rt.next_hop(far), Some((0, gw)));
    }

    #[test]
    fn datagrams_are_the_whole_or_the_fragments() {
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 7);
        let small = Mbuf::from_payload(64, &[9u8; 100]);
        let one: Vec<Mbuf> = datagrams(&hdr, &small, 1500).collect();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].to_vec(), fragment(&hdr, &small, 1500)[0].to_vec());
        let big = Mbuf::from_payload(0, &[3u8; 4000]);
        let many: Vec<Vec<u8>> = datagrams(&hdr, &big, 1500).map(|m| m.to_vec()).collect();
        let want: Vec<Vec<u8>> = fragment(&hdr, &big, 1500)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        assert_eq!(many, want);
        assert_eq!(many.len(), 3);
    }

    #[test]
    fn ident_counts_and_wraps() {
        let id = Ident::starting_at(0xFFFF);
        assert_eq!((id.take(), id.take(), id.take()), (0xFFFF, 0, 1));
    }

    #[test]
    fn input_names_its_verdicts() {
        let mut r = Reassembler::new();
        let mine = |dst| dst == addr(2);
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 1);
        let whole = encapsulate(&hdr, Mbuf::from_payload(64, b"hello"));
        match r.input(&whole, 0, mine) {
            Verdict::Deliver(h, p) => {
                assert_eq!((h.src, h.dst), (addr(1), addr(2)));
                assert_eq!(p.to_vec(), b"hello");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert!(matches!(r.input(&whole, 0, |_| false), Verdict::NotLocal));
        let mut corrupt = whole.share();
        corrupt.write_at(8, &[0]); // TTL no longer matches the checksum.
        assert!(matches!(r.input(&corrupt, 0, mine), Verdict::BadOrFragment));
        let runt = Mbuf::from_payload(0, &[0x45; IP_HDR_LEN - 1]);
        assert!(matches!(r.input(&runt, 0, mine), Verdict::Runt));
        // Fragments are held, then the completing one delivers the whole;
        // the local check sees only the reassembled datagram.
        let data = vec![7u8; 3000];
        let frags = fragment(&hdr, &Mbuf::from_payload(0, &data), 1500);
        let mut asked = 0;
        for f in &frags[..frags.len() - 1] {
            let v = r.input(f, 0, |_| {
                asked += 1;
                true
            });
            assert!(matches!(v, Verdict::BadOrFragment));
        }
        assert_eq!(asked, 0);
        match r.input(&frags[frags.len() - 1], 0, mine) {
            Verdict::Deliver(_, p) => assert_eq!(p.to_vec(), data),
            other => panic!("expected the reassembled datagram, got {other:?}"),
        }
    }

    #[test]
    fn a_stale_group_never_joins_a_later_datagram() {
        // Two datagrams reuse one ident 31 s apart; the head of the first
        // and the tail of the second must not splice into a chimera.
        let hdr = IpHeader::simple(addr(1), addr(2), proto::UDP, 5);
        let old = fragment(&hdr, &Mbuf::from_payload(0, &[0xAA; 3000]), 1500);
        let new = fragment(&hdr, &Mbuf::from_payload(0, &[0xBB; 3000]), 1500);
        let mut r = Reassembler::new();
        assert!(r.offer(&old[0], 0).is_none());
        let later = 31_000_000_000;
        for f in &new[1..] {
            assert!(r.offer(f, later).is_none(), "the old head is gone");
        }
        assert_eq!((r.pending(), r.expired()), (1, 1));
        let (_, payload) = r.offer(&new[0], later).expect("now complete");
        assert_eq!(payload.to_vec(), vec![0xBB; 3000]);
    }

    /// One fragment of datagram `ident` from host 1 to host 2.
    fn piece(ident: u16, frag_offset: usize, more_fragments: bool, data: &[u8]) -> Mbuf {
        let hdr = IpHeader {
            more_fragments,
            frag_offset,
            ..IpHeader::simple(addr(1), addr(2), proto::UDP, ident)
        };
        encapsulate(&hdr, Mbuf::from_payload(64, data))
    }

    #[test]
    fn what_a_reassembler_holds_is_bounded() {
        let mut r = Reassembler::new();
        // A duplicate, or a piece inside what is held, adds nothing.
        for _ in 0..100 {
            assert!(r.offer(&piece(1, 0, true, &[1; 800]), 0).is_none());
            assert!(r.offer(&piece(1, 80, true, &[1; 80]), 0).is_none());
        }
        assert_eq!((r.pending(), r.held, r.evicted()), (1, 800, 0));
        // One group too many evicts the oldest, which was ident 1's.
        for ident in 2..=MAX_FRAG_GROUPS as u16 + 1 {
            assert!(r.offer(&piece(ident, 0, true, &[2; 8]), 0).is_none());
        }
        assert_eq!((r.pending(), r.evicted()), (MAX_FRAG_GROUPS, 1));
        assert_eq!(r.held, 8 * MAX_FRAG_GROUPS);
        assert!(r.offer(&piece(1, 800, false, &[1; 8]), 0).is_none());
        assert_eq!(r.evicted(), 2, "ident 1 started over, without its head");
        // Bytes are capped across groups, oldest out first; the newest
        // group is whole once its tail arrives.
        let big = vec![3u8; 60_000];
        for ident in 100..110 {
            assert!(r.offer(&piece(ident, 0, true, &big), 0).is_none());
            assert!(r.held <= MAX_FRAG_BYTES);
        }
        assert!(r.pending() <= MAX_FRAG_BYTES / big.len());
        let (_, whole) = r.offer(&piece(109, 60_000, false, &[4; 8]), 0).unwrap();
        assert_eq!(whole.total_len(), 60_008);
        // Expiry returns the bytes as eviction does.
        r.expire(r.timeout_ns);
        assert_eq!((r.pending(), r.held), (0, 0));
    }

    #[test]
    fn a_piece_reaching_past_the_total_is_clipped() {
        // The tail says the datagram ends at byte 16; a head that claims 32
        // and a piece wholly past the end must not be written (or indexed)
        // beyond it.
        let mut r = Reassembler::new();
        assert!(r.offer(&piece(9, 0, true, &[0xAA; 32]), 0).is_none());
        assert!(r.offer(&piece(9, 40, true, &[0xCC; 8]), 0).is_none());
        let (_, whole) = r.offer(&piece(9, 8, false, &[0xBB; 8]), 0).unwrap();
        assert_eq!(whole.to_vec(), [0xAA; 16], "the head had those bytes first");
        assert_eq!((r.pending(), r.held), (0, 0));
    }

    #[test]
    fn empty_route_table_has_no_match() {
        let rt = RouteTable::new();
        assert!(rt.lookup(addr(1)).is_none());
    }
}
