//! Property-based tests (proptest) on the core data structures and
//! protocol invariants.

// The proptest! blocks below expand deeply enough to trip the default
// recursion limit.
#![recursion_limit = "256"]

use std::net::Ipv4Addr;
use std::rc::Rc;

use proptest::prelude::*;

use plexus::kernel::view::view;
use plexus::net::checksum::{checksum, incremental_update, verify, Checksum};
use plexus::net::ip::{self, IpHeader, IpView, Reassembler};
use plexus::net::mbuf::Mbuf;
use plexus::net::tcp::{seq_le, seq_lt, Payload, Tcb, TcpFlags, TcpSegment};
use plexus::net::udp::{self, Endpoint, UdpConfig};
use plexus::net::{arp, http, icmp};

// ---------------------------------------------------------------------------
// Mbuf: a random operation sequence must match a plain Vec<u8> model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MbufOp {
    Prepend(Vec<u8>),
    TrimFront(usize),
    TrimBack(usize),
    WriteAt(usize, Vec<u8>),
    Share,
    Pullup(usize),
}

fn mbuf_op() -> impl Strategy<Value = MbufOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(MbufOp::Prepend),
        (0usize..60).prop_map(MbufOp::TrimFront),
        (0usize..60).prop_map(MbufOp::TrimBack),
        ((0usize..500), proptest::collection::vec(any::<u8>(), 1..30))
            .prop_map(|(o, d)| MbufOp::WriteAt(o, d)),
        Just(MbufOp::Share),
        (0usize..200).prop_map(MbufOp::Pullup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mbuf_matches_vec_model(
        initial in proptest::collection::vec(any::<u8>(), 0..3000),
        ops in proptest::collection::vec(mbuf_op(), 0..24),
    ) {
        let mut m = Mbuf::from_payload(32, &initial);
        let mut model = initial.clone();
        let mut shares = Vec::new();
        for op in ops {
            match op {
                MbufOp::Prepend(data) => {
                    m.prepend(data.len()).copy_from_slice(&data);
                    let mut new_model = data;
                    new_model.extend_from_slice(&model);
                    model = new_model;
                }
                MbufOp::TrimFront(n) => {
                    let n = n.min(model.len());
                    m.trim_front(n);
                    model.drain(..n);
                }
                MbufOp::TrimBack(n) => {
                    let n = n.min(model.len());
                    m.trim_back(n);
                    model.truncate(model.len() - n);
                }
                MbufOp::WriteAt(off, data) => {
                    let ok = m.write_at(off, &data);
                    let fits = off + data.len() <= model.len();
                    prop_assert_eq!(ok, fits);
                    if fits {
                        model[off..off + data.len()].copy_from_slice(&data);
                    }
                }
                MbufOp::Share => {
                    // Shares must observe the current bytes and never be
                    // disturbed by later mutation of the original.
                    shares.push((m.share(), model.clone()));
                }
                MbufOp::Pullup(n) => {
                    let ok = m.pullup(n);
                    prop_assert_eq!(ok, n <= model.len());
                    if ok {
                        prop_assert!(m.head().len() >= n);
                    }
                }
            }
            prop_assert_eq!(m.to_vec(), model.clone());
            prop_assert_eq!(m.total_len(), model.len());
        }
        for (share, snapshot) in shares {
            prop_assert_eq!(share.to_vec(), snapshot, "copy-on-write isolation");
        }
    }

    #[test]
    fn mbuf_range_matches_slice(
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        split in any::<prop::sample::Index>(),
    ) {
        let m = Mbuf::from_payload(16, &data);
        let off = split.index(data.len());
        let len = data.len() - off;
        let r = m.range(off, len);
        prop_assert_eq!(r.to_vec(), &data[off..]);
    }
}

// ---------------------------------------------------------------------------
// Checksum properties.
// ---------------------------------------------------------------------------

/// Pads `data` to a 16-bit boundary and appends its checksum, then XORs
/// the byte at `index(len)` with `flip`: whether the whole checksummed
/// buffer verifies, and whether the flipped one does.
fn checksummed_then_flipped(
    mut data: Vec<u8>,
    index: impl FnOnce(usize) -> usize,
    flip: u8,
) -> (bool, bool) {
    // Real protocols keep the checksum field 16-bit aligned (odd
    // payloads are padded, as RFC 1071 requires) — an odd-offset
    // checksum would not verify, which this suite originally caught.
    if data.len() % 2 == 1 {
        data.push(0);
    }
    let c = checksum(&data);
    data.extend_from_slice(&c.to_be_bytes());
    let whole = verify(&data);
    // A single-byte XOR changes some 16-bit word by a nonzero delta
    // strictly less than 0xFFFF, so the one's-complement sum always
    // catches it.
    let i = index(data.len());
    data[i] ^= flip;
    (whole, verify(&data))
}

/// The one case `checksum_detects_any_single_byte_change` ever saved, as
/// proptest shrank it (a 223-byte buffer, mostly zeros ahead of a noisy
/// tail), replayed on every run.
#[test]
fn checksum_detects_the_saved_single_byte_change() {
    let data = vec![
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 119, 0, 0, 0,
        0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 29, 124, 241, 34, 82,
        140, 112, 150, 153, 172, 180, 243, 110, 5, 58, 228, 144, 12, 97, 14, 70, 202, 11, 200, 24,
        64, 99, 85, 91, 158, 182, 231, 220, 193, 239, 248, 198, 79, 83, 110, 54, 41, 97, 25, 240,
        223, 153, 53, 210, 148, 66, 83, 180, 4, 12, 71, 184, 38, 166, 221, 235, 89, 116, 248, 206,
        133, 143, 64, 60, 129, 168, 21, 244, 196, 27, 98, 70, 193, 80, 236, 107, 179, 140, 173, 74,
        220, 221, 7, 234, 4, 17, 43, 1, 4, 174, 253, 94, 73, 255, 43, 189, 7, 251, 35, 102, 46,
        101, 183, 244, 145, 165, 171, 252, 186, 231, 238, 122, 242, 211, 92, 164, 41, 48, 198, 182,
        73, 254, 60, 200, 77, 250, 75, 215, 53, 198, 159, 43, 91, 172, 213, 142,
    ];
    // `Index(10771536609128610302)`, projected as `Index::index` projects it.
    let index = |len: usize| (10771536609128610302u64 % len as u64) as usize;
    assert_eq!(checksummed_then_flipped(data, index, 101), (true, false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checksum_detects_any_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 2..600),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let (whole, flipped) = checksummed_then_flipped(data, |len| idx.index(len), flip);
        prop_assert!(whole);
        prop_assert!(!flipped, "undetected corruption flip={flip:#x}");
    }

    #[test]
    fn checksum_chunking_is_associative(
        data in proptest::collection::vec(any::<u8>(), 0..800),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut points: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut acc = Checksum::new();
        let mut prev = 0;
        for p in points {
            acc.add(&data[prev..p]);
            prev = p;
        }
        acc.add(&data[prev..]);
        prop_assert_eq!(acc.finish(), checksum(&data));
    }

    #[test]
    fn incremental_update_equals_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 4..100),
        field in any::<prop::sample::Index>(),
        new_val in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let off = field.index(data.len() / 2) * 2;
        let old = u16::from_be_bytes([data[off], data[off + 1]]);
        let before = checksum(&data);
        data[off..off + 2].copy_from_slice(&new_val.to_be_bytes());
        let after = checksum(&data);
        prop_assert_eq!(incremental_update(before, old, new_val), after);
    }
}

// ---------------------------------------------------------------------------
// IP fragmentation / reassembly.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fragmentation_reassembles_in_any_order(
        payload in proptest::collection::vec(any::<u8>(), 1..12_000),
        mtu in prop::sample::select(vec![576usize, 1006, 1500, 4470, 9180]),
        shuffle_seed in any::<u64>(),
    ) {
        let hdr = IpHeader::simple(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            ip::proto::UDP,
            4242,
        );
        let mut frags = ip::fragment(&hdr, &Mbuf::from_payload(0, &payload), mtu);
        // Deterministic shuffle.
        let mut s = shuffle_seed;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }
        let mut r = Reassembler::new();
        let mut out = None;
        let n = frags.len();
        for (k, f) in frags.iter().enumerate() {
            let res = r.offer(f, 0);
            if res.is_some() {
                prop_assert_eq!(k, n - 1, "must complete only on the last fragment");
                out = res;
            }
        }
        let (hdr2, got) = out.expect("reassembly completed");
        prop_assert_eq!(got.to_vec(), payload);
        prop_assert_eq!(hdr2.ident, 4242);
        prop_assert_eq!(r.pending(), 0);
    }
}

// ---------------------------------------------------------------------------
// Parsers must never panic on arbitrary input, and reject corrupt frames.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_are_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let b = Ipv4Addr::new(5, 6, 7, 8);
        let _ = arp::ArpPacket::parse(&bytes);
        let _ = icmp::IcmpMessage::parse(&bytes);
        let _ = TcpSegment::parse(a, b, &bytes);
        let _ = http::parse_request(&bytes);
        let _ = http::parse_response(&bytes);
        let _ = view::<IpView>(&bytes);
        let m = Mbuf::from_payload(0, &bytes);
        let _ = udp::decapsulate(a, b, UdpConfig::default(), &m);
        let mut r = Reassembler::new();
        let _ = r.offer(&m, 0);
    }

    #[test]
    fn udp_round_trips_and_rejects_corruption(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        sport in any::<u16>(),
        dport in any::<u16>(),
        corrupt_at in any::<prop::sample::Index>(),
        flip in 1u8..=0xFE,
    ) {
        let a = Ipv4Addr::new(10, 1, 1, 1);
        let b = Ipv4Addr::new(10, 1, 1, 2);
        let d = udp::encapsulate(a, b, sport, dport, UdpConfig::default(),
                                 Mbuf::from_payload(64, &payload));
        let got = udp::decapsulate(a, b, UdpConfig::default(), &d).expect("valid datagram");
        prop_assert_eq!(got.src_port, sport);
        prop_assert_eq!(got.dst_port, dport);
        prop_assert_eq!(got.payload.to_vec(), payload.clone());

        // Flip one byte: either the checksum catches it, or (0xFF pair
        // ambiguity aside) never mis-delivers with wrong content.
        let mut bytes = d.to_vec();
        let i = corrupt_at.index(bytes.len());
        bytes[i] ^= flip;
        let corrupted = Mbuf::from_payload(0, &bytes);
        if let Some(got) = udp::decapsulate(a, b, UdpConfig::default(), &corrupted) {
            // Accepted despite the flip: must be the one's-complement
            // blind spot, which cannot alter the recovered ports/payload
            // beyond the flipped byte itself being 0x00<->0xFF ambiguous.
            prop_assert!(flip == 0xFF || got.payload.total_len() == payload.len());
        }
    }

    #[test]
    fn tcp_segment_wire_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..1460),
        seq in any::<u32>(),
        ack in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        window in any::<u16>(),
    ) {
        let a = Ipv4Addr::new(10, 2, 0, 1);
        let b = Ipv4Addr::new(10, 2, 0, 2);
        let seg = TcpSegment {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: plexus::net::tcp::TcpFlags::ACK,
            window,
            mss: None,
            payload,
        };
        let bytes = seg.to_bytes(a, b);
        let parsed = TcpSegment::parse(a, b, &bytes).expect("round trip");
        prop_assert_eq!(parsed, seg.with_payload(seg.payload.as_slice()));
    }

    #[test]
    fn seq_comparison_is_antisymmetric(x in any::<u32>(), y in any::<u32>()) {
        if x != y {
            prop_assert!(seq_lt(x, y) ^ seq_lt(y, x));
        }
        prop_assert!(seq_le(x, x));
        prop_assert!(!seq_lt(x, x));
    }
}

// ---------------------------------------------------------------------------
// TCP state machine: data survives arbitrary loss patterns.
// ---------------------------------------------------------------------------

/// What the wire does to one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pass,
    Drop,
    Duplicate,
    /// Overtaken: delivered after the rest of its flight.
    Hold,
}

fn fate() -> impl Strategy<Value = Fate> {
    proptest::sample::select(vec![
        Fate::Pass,
        Fate::Pass,
        Fate::Drop,
        Fate::Duplicate,
        Fate::Hold,
    ])
}

/// An initial sequence number: anywhere, or so close below 2^32 that the
/// transfer crosses the wrap.
fn iss() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), (0u32..40_000).prop_map(|k| u32::MAX - k),]
}

/// Applies the next fates to one flight of segments. `budget` bounds the
/// impairments so that the run terminates.
fn impair<S: Clone>(
    flight: Vec<S>,
    fates: &mut impl Iterator<Item = Fate>,
    budget: &mut u32,
) -> Vec<S> {
    let (mut out, mut late) = (Vec::new(), Vec::new());
    for seg in flight {
        let fate = match fates.next() {
            Some(f) if f != Fate::Pass && *budget > 0 => {
                *budget -= 1;
                f
            }
            _ => Fate::Pass,
        };
        match fate {
            Fate::Pass => out.push(seg),
            Fate::Drop => {}
            Fate::Duplicate => out.extend([seg.clone(), seg]),
            Fate::Hold => late.push(seg),
        }
    }
    out.extend(late);
    out
}

/// What the wire hands the receiving TCB of a segment the sending one
/// emitted.
type Wire<P> = fn(TcpSegment<Mbuf>) -> TcpSegment<P>;

/// The payload as one owned buffer.
fn contiguous(seg: TcpSegment<Mbuf>) -> TcpSegment<Vec<u8>> {
    seg.with_payload(seg.payload.to_vec())
}

/// The payload as a chain of two or three clusters' worth of shares, cut at
/// even thirds or halves (by the sequence number's parity).
fn chunked(seg: TcpSegment<Mbuf>) -> TcpSegment<Mbuf> {
    let (whole, len) = (&seg.payload, seg.payload.total_len());
    let pieces = 2 + (seg.seq % 2) as usize;
    let cut = |k: usize| len * k / pieces;
    let mut chain = whole.range(0, cut(1));
    for k in 1..pieces {
        chain.append(whole.range(cut(k), cut(k + 1) - cut(k)));
    }
    assert_eq!(chain.segment_count(), pieces.min(len), "{len} bytes");
    seg.with_payload(chain)
}

/// Moves `data` from a client to a server TCB across a wire that applies
/// `fates` (to at most 24 segments) and hands each segment over as `wire`
/// makes it, firing timers whenever the exchange goes quiet. Returns what
/// the server delivered.
fn lossy_transfer<P: Payload + Clone>(
    data: &[u8],
    (client_iss, server_iss): (u32, u32),
    fates: &[Fate],
    wire: Wire<P>,
) -> Vec<u8> {
    let a = Ipv4Addr::new(10, 3, 0, 1);
    let b = Ipv4Addr::new(10, 3, 0, 2);
    let mut server = Tcb::listen((b, 80), server_iss);
    let (mut client, syn) = Tcb::connect((a, 4000), (b, 80), client_iss, 0);
    let mut to_server: Vec<_> = syn.segments.into_iter().map(wire).collect();
    let mut to_client: Vec<TcpSegment<P>> = Vec::new();
    let mut received = Vec::new();
    let mut rx = Vec::new();
    let mut now: u64 = 0;
    let mut sent_data = false;
    let mut fates = fates.iter().copied().cycle();
    let mut budget = 24;

    for _round in 0..10_000 {
        let mut progressed = false;
        for seg in impair(std::mem::take(&mut to_server), &mut fates, &mut budget) {
            progressed = true;
            let acts = server.on_segment(&seg, (a, 4000), now);
            if acts.data_available {
                server.swap_received(&mut rx);
                received.extend_from_slice(&rx);
            }
            to_client.extend(acts.segments.into_iter().map(wire));
        }
        for seg in impair(std::mem::take(&mut to_client), &mut fates, &mut budget) {
            progressed = true;
            let acts = client.on_segment(&seg, (b, 80), now);
            if acts.connected && !sent_data {
                sent_data = true;
                to_server.extend(client.send(data, now).segments.into_iter().map(wire));
            }
            to_server.extend(acts.segments.into_iter().map(wire));
        }
        if !sent_data && client.state() == plexus::net::tcp::TcpState::Established {
            sent_data = true;
            to_server.extend(client.send(data, now).segments.into_iter().map(wire));
        }
        if received.len() >= data.len() {
            break;
        }
        if !progressed {
            // Quiescent: fire timers to recover.
            let mut fired = false;
            if let Some(dl) = client.next_timeout() {
                now = now.max(dl);
                let acts = client.on_timer(now);
                fired |= !acts.segments.is_empty();
                to_server.extend(acts.segments.into_iter().map(wire));
            }
            if let Some(dl) = server.next_timeout() {
                now = now.max(dl);
                let acts = server.on_timer(now);
                fired |= !acts.segments.is_empty();
                to_client.extend(acts.segments.into_iter().map(wire));
            }
            if !fired && to_server.is_empty() && to_client.is_empty() {
                break;
            }
        }
        now += 1_000_000; // 1 ms per round.
    }
    received
}

fn lossy_stream(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_exactly_once_despite_losses(
        data_len in 1usize..30_000,
        client_iss in iss(),
        server_iss in iss(),
        fates in proptest::collection::vec(fate(), 64),
    ) {
        let data = lossy_stream(data_len);
        let received = lossy_transfer(&data, (client_iss, server_iss), &fates, contiguous);
        prop_assert_eq!(received.len(), data.len(), "all bytes delivered");
        prop_assert_eq!(received, data, "delivered exactly once, in order");
    }
}

// The same transfers with every payload a chain of two or three chunks, as a
// demultiplexed segment's share of a frame can be: the receiver walks the
// chunks, and delivers exactly what it delivers from one contiguous buffer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_chunked_payloads_as_it_does_contiguous_ones(
        data_len in 1usize..30_000,
        client_iss in iss(),
        server_iss in iss(),
        fates in proptest::collection::vec(fate(), 64),
    ) {
        let data = lossy_stream(data_len);
        let iss = (client_iss, server_iss);
        let whole = lossy_transfer(&data, iss, &fates, contiguous);
        let pieces = lossy_transfer(&data, iss, &fates, chunked);
        prop_assert!(pieces == whole, "chunked and contiguous runs differ");
        prop_assert!(whole == data, "the contiguous run lost bytes");
    }
}

// ---------------------------------------------------------------------------
// The send queue: a chain of shares, read against a byte-queue model.
// ---------------------------------------------------------------------------

/// One step of an application and a peer around one sending TCB.
#[derive(Clone, Debug)]
enum SendStep {
    /// The application sends this many bytes from a slice of its own (the
    /// TCB copies them).
    Borrowed(usize),
    /// The application sends this many bytes in an `Rc<Vec<u8>>` (the TCB
    /// queues the buffer itself) and, if the flag is set, then overwrites
    /// its buffer through `Rc::make_mut`.
    Shared(usize, bool),
    /// The peer acknowledges this part of what is in flight (all of it to
    /// none) and advertises this window; a shut window makes the TCB probe.
    Ack(prop::sample::Index, u16),
    /// The next timer expires: a retransmission or a zero-window probe.
    Timeout,
}

fn send_step() -> impl Strategy<Value = SendStep> {
    // Small writes often, so that some fill the room after the queue's tail.
    let len = || prop_oneof![Just(0usize), 1usize..200, 200usize..6000];
    prop_oneof![
        len().prop_map(SendStep::Borrowed),
        (len(), any::<bool>()).prop_map(|(n, scribble)| SendStep::Shared(n, scribble)),
        (
            any::<prop::sample::Index>(),
            prop_oneof![Just(0u16), any::<u16>()]
        )
            .prop_map(|(part, window)| SendStep::Ack(part, window)),
        Just(SendStep::Timeout),
    ]
}

/// A sending TCB beside a model of its queue: the bytes from sequence
/// `una` on, and where what it has emitted ends.
struct SendRig {
    tcb: Tcb,
    model: std::collections::VecDeque<u8>,
    una: u32,
    sent_end: u32,
    peer_seq: u32,
    now: u64,
}

const SENDER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 4, 0, 1), 4000);
const PEER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 4, 0, 2), 80);

impl SendRig {
    /// A TCB established with a silent peer whose first ISS is `peer_iss`.
    fn new(iss: u32, peer_iss: u32) -> SendRig {
        let (mut tcb, _syn) = Tcb::connect(SENDER, PEER, iss, 0);
        let syn_ack = TcpSegment {
            src_port: PEER.1,
            dst_port: SENDER.1,
            seq: peer_iss,
            ack: iss.wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: u16::MAX,
            mss: Some(1460),
            payload: Vec::new(),
        };
        assert!(tcb.on_segment(&syn_ack, PEER, 0).connected);
        SendRig {
            tcb,
            model: Default::default(),
            una: iss.wrapping_add(1),
            sent_end: iss.wrapping_add(1),
            peer_seq: peer_iss.wrapping_add(1),
            now: 0,
        }
    }

    /// Checks every emitted payload against the model's bytes for its
    /// sequence range, and notes how far the emitted bytes reach.
    fn emitted(&mut self, segments: Vec<TcpSegment<Mbuf>>) -> Result<(), TestCaseError> {
        for seg in segments {
            let len = seg.payload.total_len();
            if len == 0 {
                continue;
            }
            let off = seg.seq.wrapping_sub(self.una) as usize;
            prop_assert!(off + len <= self.model.len(), "{len} bytes at {off}");
            let want: Vec<u8> = self.model.range(off..off + len).copied().collect();
            prop_assert_eq!(seg.payload.to_vec(), want, "the bytes at {}", off);
            let end = seg.seq.wrapping_add(len as u32);
            if seq_lt(self.sent_end, end) {
                self.sent_end = end;
            }
        }
        Ok(())
    }

    /// The peer acknowledges `acked` more bytes and advertises `window`.
    fn ack(&mut self, acked: usize, window: u16) -> Result<(), TestCaseError> {
        let ack = TcpSegment {
            src_port: PEER.1,
            dst_port: SENDER.1,
            seq: self.peer_seq,
            ack: self.una.wrapping_add(acked as u32),
            flags: TcpFlags::ACK,
            window,
            mss: None,
            payload: Vec::new(),
        };
        let acts = self.tcb.on_segment(&ack, PEER, self.now);
        self.model.drain(..acked);
        self.una = ack.ack;
        self.emitted(acts.segments)
    }

    fn step(
        &mut self,
        step: SendStep,
        next: &mut u64,
        kept: &mut Vec<Rc<Vec<u8>>>,
    ) -> Result<(), TestCaseError> {
        self.now += 1_000_000;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    *next += 1;
                    (*next * 131 % 251) as u8
                })
                .collect()
        };
        match step {
            SendStep::Borrowed(n) => {
                let data = bytes(n);
                self.model.extend(&data);
                let acts = self.tcb.send(&data[..], self.now);
                self.emitted(acts.segments)?;
            }
            SendStep::Shared(n, scribble) => {
                let mut data = Rc::new(bytes(n));
                self.model.extend(data.iter());
                let acts = self.tcb.send(&data, self.now);
                if scribble {
                    Rc::make_mut(&mut data).fill(0xEE);
                }
                kept.push(data);
                self.emitted(acts.segments)?;
            }
            SendStep::Ack(part, window) => {
                let flight = self.sent_end.wrapping_sub(self.una) as usize;
                self.ack(part.index(flight + 1), window)?;
            }
            SendStep::Timeout => {
                if let Some(at) = self.tcb.next_timeout() {
                    self.now = self.now.max(at);
                    let acts = self.tcb.on_timer(self.now);
                    self.emitted(acts.segments)?;
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_send_queue_emits_the_bytes_of_each_sequence_range(
        iss in iss(),
        peer_iss in iss(),
        steps in proptest::collection::vec(send_step(), 1..40),
    ) {
        let mut rig = SendRig::new(iss, peer_iss);
        let (mut next, mut kept) = (0, Vec::new());
        for step in steps {
            rig.step(step, &mut next, &mut kept)?;
        }
        // The peer opens its window and acknowledges whatever arrives until
        // nothing is queued; then no buffer is held on the TCB's behalf.
        for _ in 0..1000 {
            if rig.model.is_empty() {
                break;
            }
            let flight = rig.sent_end.wrapping_sub(rig.una) as usize;
            rig.ack(flight, u16::MAX)?;
            if rig.sent_end == rig.una && !rig.model.is_empty() {
                rig.step(SendStep::Timeout, &mut next, &mut kept)?;
            }
        }
        prop_assert!(rig.model.is_empty(), "{} bytes never sent", rig.model.len());
        for buf in &kept {
            prop_assert_eq!(Rc::strong_count(buf), 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Simulation determinism: identical inputs give bit-identical timelines.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simulation_is_deterministic(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..200), 1..8),
        drop_prob in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let run = |payloads: &[Vec<u8>]| -> (u64, u64, Vec<Vec<u8>>) {
            use plexus::core::{AppHandler, PlexusStack, StackConfig, UdpRecv};
            use plexus::kernel::domain::ExtensionSpec;
            use plexus::net::Testbed;
            use plexus::sim::nic::{FaultInjector, Link};
            use std::cell::RefCell;
            use std::rc::Rc;

            let Testbed { mut world, medium, hosts } = Testbed::new(&Link::ethernet(), 5, &["a", "b"]);
            medium.set_faults(FaultInjector::new(drop_prob, 0.0, seed));
            let sa = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
            let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
            let b_ip = sb.ip();
            let spec = ExtensionSpec::typesafe("det", &["UDP.Bind", "UDP.Send"]);
            let aext = sa.link_extension(&spec).unwrap();
            let bext = sb.link_extension(&spec).unwrap();
            let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            sb.udp()
                .bind(&bext, 7, UdpConfig::default(), AppHandler::interrupt(move |_, ev: &UdpRecv| {
                    g.borrow_mut().push(ev.payload.to_vec());
                }))
                .unwrap();
            let ep = sa
                .udp()
                .bind(&aext, 2000, UdpConfig::default(), AppHandler::interrupt(|_, _| {}))
                .unwrap();
            for p in payloads {
                ep.send(world.engine_mut(), b_ip, 7, p).unwrap();
            }
            world.run();
            let delivered = got.borrow().clone();
            (
                world.engine().now().as_nanos(),
                world.engine().executed(),
                delivered,
            )
        };
        let first = run(&payloads);
        let second = run(&payloads);
        prop_assert_eq!(first.0, second.0, "final clock identical");
        prop_assert_eq!(first.1, second.1, "event count identical");
        prop_assert_eq!(first.2, second.2, "delivered data identical");
    }
}

// ---------------------------------------------------------------------------
// Dispatcher demux index: indexed dispatch must be observationally identical
// to the linear guard walk — same handlers invoked, in the same order, with
// the same raise outcomes — for arbitrary mixes of indexable guards,
// unindexable guards (range tests, off-schema fields), and live port-set
// mutation.
// ---------------------------------------------------------------------------

mod demux_equivalence {
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use plexus::kernel::dispatcher::{Dispatcher, Guard, HandlerSpec, RaiseCtx};
    use plexus::kernel::filter::{
        conjunction, verify, EventKind, Field, FilterProgram, Insn, Operand, Packet, PortSet, Reg,
        Src, Test,
    };
    use plexus::sim::cpu::{CostModel, Cpu};
    use plexus::sim::time::SimTime;
    use plexus::sim::Engine;

    /// A minimal `UdpRecv`-shaped event.
    struct Dgram {
        src_port: u16,
        dst_port: u16,
    }

    impl Packet for Dgram {
        fn kind(&self) -> EventKind {
            EventKind::UdpRecv
        }
        fn field(&self, field: Field) -> Option<u64> {
            match field {
                Field::UdpDstPort => Some(u64::from(self.dst_port)),
                Field::UdpSrcPort => Some(u64::from(self.src_port)),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    /// One installed handler's guard, spanning every dispatch path: no
    /// guard, a range test on the schema field (proves no key, so never
    /// indexable), an indexable equality or one-of on the schema field, a
    /// shared-set test (falls back: NotIn alone yields no hash key), and
    /// an off-schema equality (unindexable).
    #[derive(Debug, Clone)]
    enum GuardKind {
        None,
        BelowDst(u16),
        EqDst(u16),
        OneOfDst(Vec<u16>),
        NotInShared,
        EqSrc(u16),
    }

    fn guard_kind() -> impl Strategy<Value = GuardKind> {
        prop_oneof![
            Just(GuardKind::None),
            (0u16..8).prop_map(GuardKind::BelowDst),
            (0u16..8).prop_map(GuardKind::EqDst),
            proptest::collection::vec(0u16..8, 1..4).prop_map(GuardKind::OneOfDst),
            Just(GuardKind::NotInShared),
            (0u16..8).prop_map(GuardKind::EqSrc),
        ]
    }

    fn guarded(spec: HandlerSpec<Dgram>, guard: Option<Guard<Dgram>>) -> HandlerSpec<Dgram> {
        match guard {
            Some(guard) => spec.guard(guard),
            None => spec,
        }
    }

    fn build_guard(kind: &GuardKind, shared: &PortSet) -> Option<Guard<Dgram>> {
        let dst = Operand::Field(Field::UdpDstPort);
        let (tests, sets): (Vec<Test>, Vec<PortSet>) = match kind {
            GuardKind::None => return None,
            GuardKind::BelowDst(p) => {
                let program = FilterProgram {
                    kind: EventKind::UdpRecv,
                    insns: vec![
                        Insn::Ld {
                            dst: Reg(0),
                            field: Field::UdpDstPort,
                        },
                        Insn::Jlt {
                            a: Reg(0),
                            b: Src::Imm(u64::from(*p)),
                            off: 1,
                        },
                        Insn::Reject,
                        Insn::Accept,
                    ],
                    sets: vec![],
                    maps: vec![],
                    state_budget: 0,
                };
                let verified = verify(&program).expect("a forward range test verifies");
                assert!(verified.demux_key().is_none(), "a range proves no key");
                return Some(Guard::verified(Rc::new(verified)));
            }
            GuardKind::EqDst(p) => (vec![Test::eq(dst, u64::from(*p))], vec![]),
            GuardKind::OneOfDst(ports) => (
                vec![Test::one_of(dst, ports.iter().map(|p| u64::from(*p)))],
                vec![],
            ),
            GuardKind::NotInShared => (
                vec![Test::NotInSet { op: dst, set: 0 }],
                vec![shared.clone()],
            ),
            GuardKind::EqSrc(p) => (
                vec![Test::eq(Operand::Field(Field::UdpSrcPort), u64::from(*p))],
                vec![],
            ),
        };
        let program = conjunction(EventKind::UdpRecv, &tests, sets);
        Some(Guard::verified(Rc::new(
            verify(&program).expect("generated guard verifies"),
        )))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn indexed_dispatch_equals_linear_scan(
            guards in proptest::collection::vec(guard_kind(), 0..10),
            packets in proptest::collection::vec((0u16..8, 0u16..8), 1..20),
            initial_set in proptest::collection::vec(0u16..8, 0..4),
            mutations in proptest::collection::vec((any::<bool>(), 0u16..8), 0..20),
        ) {
            // Both dispatchers share the same verified programs and the
            // same live port set, so a mutation lands on both; only the
            // dispatch strategy differs.
            let shared = PortSet::new();
            for p in &initial_set {
                shared.insert(*p);
            }
            let linear = Dispatcher::new();
            linear.set_demux_enabled(false);
            let indexed = Dispatcher::new();
            prop_assert!(indexed.demux_enabled());

            let log_lin: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            let log_idx: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            let ev_lin = linear.define_event::<Dgram>("Udp.Equiv");
            let ev_idx = indexed.define_event::<Dgram>("Udp.Equiv");
            for (i, kind) in guards.iter().enumerate() {
                // Guards are rebuilt per dispatcher from the same spec;
                // NotInShared guards reference the one shared set either
                // way.
                let l = log_lin.clone();
                linear.install(
                    ev_lin,
                    guarded(
                        HandlerSpec::new(move |_, _: &Dgram| l.borrow_mut().push(i)),
                        build_guard(kind, &shared),
                    ),
                );
                let l = log_idx.clone();
                indexed.install(
                    ev_idx,
                    guarded(
                        HandlerSpec::new(move |_, _: &Dgram| l.borrow_mut().push(i)),
                        build_guard(kind, &shared),
                    ),
                );
            }

            let cpu = Cpu::new(CostModel::alpha_3000_400());
            let mut engine = Engine::new();
            let mut muts = mutations.iter().cycle();
            for (src_port, dst_port) in packets {
                let pkt = Dgram { src_port, dst_port };
                let mut lease = cpu.begin(SimTime::ZERO);
                let mut ctx = RaiseCtx { engine: &mut engine, lease: &mut lease };
                let out_lin = linear.raise(&mut ctx, ev_lin, &pkt);
                let out_idx = indexed.raise(&mut ctx, ev_idx, &pkt);
                prop_assert_eq!(out_lin, out_idx, "raise outcomes diverge");
                // Mutate the shared set between raises: the index must
                // observe membership at visit time, exactly like eval.
                if let Some((insert, port)) = muts.next() {
                    if *insert {
                        shared.insert(*port);
                    } else {
                        shared.remove(*port);
                    }
                }
            }
            prop_assert_eq!(
                &*log_lin.borrow(),
                &*log_idx.borrow(),
                "same handlers in the same order"
            );
        }
    }

    // -----------------------------------------------------------------------
    // Batched raise: a batch of N packets must be observationally identical
    // to N individual raises — same per-packet outcomes, same handler
    // invocation order, same flight-recorder records (timestamps aside;
    // amortizing the fixed dispatch charge is the whole point).
    // -----------------------------------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn batched_raise_equals_individual_raises(
            guards in proptest::collection::vec(guard_kind(), 0..10),
            packets in proptest::collection::vec((0u16..8, 0u16..8), 1..20),
            initial_set in proptest::collection::vec(0u16..8, 0..4),
        ) {
            use plexus::trace::Recorder;

            let shared = PortSet::new();
            for p in &initial_set {
                shared.insert(*p);
            }
            let single = Dispatcher::new();
            let batched = Dispatcher::new();

            let log_one: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            let log_bat: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            let ev_one = single.define_event::<Dgram>("Udp.Batch");
            let ev_bat = batched.define_event::<Dgram>("Udp.Batch");
            for (i, kind) in guards.iter().enumerate() {
                let l = log_one.clone();
                single.install(
                    ev_one,
                    guarded(
                        HandlerSpec::new(move |_, _: &Dgram| l.borrow_mut().push(i)),
                        build_guard(kind, &shared),
                    ),
                );
                let l = log_bat.clone();
                batched.install(
                    ev_bat,
                    guarded(
                        HandlerSpec::new(move |_, _: &Dgram| l.borrow_mut().push(i)),
                        build_guard(kind, &shared),
                    ),
                );
            }

            // Separate CPUs with separate recorders, so the two record
            // streams can be compared end to end.
            let cpu_one = Cpu::new(CostModel::alpha_3000_400());
            let cpu_bat = Cpu::new(CostModel::alpha_3000_400());
            let rec_one = Recorder::new(4096);
            let rec_bat = Recorder::new(4096);
            cpu_one.set_recorder(Some(rec_one.clone()));
            cpu_bat.set_recorder(Some(rec_bat.clone()));

            let mut engine = Engine::new();
            let mut outs_one = Vec::new();
            let mut outs_bat = Vec::new();
            {
                let mut lease = cpu_one.begin(SimTime::ZERO);
                let mut ctx = RaiseCtx { engine: &mut engine, lease: &mut lease };
                for (src_port, dst_port) in &packets {
                    let pkt = Dgram { src_port: *src_port, dst_port: *dst_port };
                    outs_one.push(single.raise(&mut ctx, ev_one, &pkt));
                }
            }
            {
                let mut lease = cpu_bat.begin(SimTime::ZERO);
                let mut ctx = RaiseCtx { engine: &mut engine, lease: &mut lease };
                let mut batch = batched.batch(ev_bat);
                for (src_port, dst_port) in &packets {
                    let pkt = Dgram { src_port: *src_port, dst_port: *dst_port };
                    outs_bat.push(batch.raise(&mut ctx, &pkt));
                }
            }

            prop_assert_eq!(outs_one, outs_bat, "per-packet outcomes diverge");
            prop_assert_eq!(
                &*log_one.borrow(),
                &*log_bat.borrow(),
                "same handlers in the same order"
            );
            // Flight-recorder streams agree modulo timestamps: same records
            // (guard evals, verdicts, handler spans) for the same packets.
            let records = |r: &Recorder| -> Vec<(Option<u64>, plexus::trace::TraceEvent)> {
                r.events().into_iter().map(|e| (e.packet, e.event)).collect()
            };
            prop_assert_eq!(
                records(&rec_one),
                records(&rec_bat),
                "recorder streams diverge"
            );
        }
    }

    // -----------------------------------------------------------------------
    // Mid-raise visibility: random interleavings of install / uninstall /
    // raise on one table — installs, uninstalls and nested raises issued
    // from inside handlers mid-raise included — run on an indexed
    // dispatcher, on the linear reference, and on a plain `Vec` model of
    // the live handlers.
    // -----------------------------------------------------------------------

    use plexus::kernel::dispatcher::{Event, HandlerId, RaiseOutcome};

    /// What a handler does to its own table when it runs.
    #[derive(Debug, Clone)]
    enum Action {
        /// Installs one more (action-free) handler, the first time only.
        Install(GuardKind),
        /// Uninstalls the `n`-th handler ever installed (mod how many).
        Uninstall(usize),
        /// Raises the table's event again, from inside the handler, with
        /// these ports, the first time only.
        Raise(u16, u16),
    }

    #[derive(Debug, Clone)]
    enum Step {
        Install(GuardKind, Vec<Action>),
        Uninstall(usize),
        Raise(u16, u16),
        Mutate(bool, u16),
    }

    fn action() -> impl Strategy<Value = Action> {
        prop_oneof![
            guard_kind().prop_map(Action::Install),
            (0usize..64).prop_map(Action::Uninstall),
            (0u16..8, 0u16..8).prop_map(|(s, d)| Action::Raise(s, d)),
        ]
    }

    fn step() -> impl Strategy<Value = Step> {
        let install = || {
            (guard_kind(), proptest::collection::vec(action(), 0..3))
                .prop_map(|(k, a)| Step::Install(k, a))
        };
        let raise = || (0u16..8, 0u16..8).prop_map(|(s, d)| Step::Raise(s, d));
        // Installs and raises listed twice: the arms are picked uniformly.
        prop_oneof![
            install(),
            install(),
            (0usize..64).prop_map(Step::Uninstall),
            raise(),
            raise(),
            (any::<bool>(), 0u16..8).prop_map(|(i, p)| Step::Mutate(i, p)),
        ]
    }

    /// One dispatcher under the script. Handlers are numbered in install
    /// order ("slots"), mid-raise installs included; `nested` holds the
    /// outcome of every raise a handler made, in the order they returned.
    struct Rig {
        d: Rc<Dispatcher>,
        ev: Event<Dgram>,
        shared: PortSet,
        slots: RefCell<Vec<HandlerId>>,
        log: RefCell<Vec<usize>>,
        nested: RefCell<Vec<RaiseOutcome>>,
    }

    impl Rig {
        fn new(demux: bool, shared: &PortSet) -> Rc<Rig> {
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<Dgram>("Udp.Swap");
            Rc::new(Rig {
                d,
                ev,
                shared: shared.clone(),
                slots: RefCell::new(Vec::new()),
                log: RefCell::new(Vec::new()),
                nested: RefCell::new(Vec::new()),
            })
        }

        fn install(self: &Rc<Self>, kind: &GuardKind, actions: Vec<Action>) {
            let slot = self.slots.borrow().len();
            let rig = self.clone();
            let fired = std::cell::Cell::new(false);
            let spec = HandlerSpec::new(move |ctx, _: &Dgram| {
                rig.log.borrow_mut().push(slot);
                // Set before the actions run: a raise below may reach
                // this handler again, and only its first run acts.
                let first = !fired.replace(true);
                for a in &actions {
                    match a {
                        Action::Install(kind) if first => rig.install(kind, Vec::new()),
                        Action::Uninstall(n) => {
                            rig.uninstall(*n);
                        }
                        Action::Raise(src_port, dst_port) if first => {
                            let pkt = Dgram {
                                src_port: *src_port,
                                dst_port: *dst_port,
                            };
                            let out = rig.d.raise(ctx, rig.ev, &pkt);
                            rig.nested.borrow_mut().push(out);
                        }
                        Action::Install(_) | Action::Raise(..) => {}
                    }
                }
            });
            let id = self
                .d
                .install(self.ev, guarded(spec, build_guard(kind, &self.shared)));
            self.slots.borrow_mut().push(id);
        }

        fn uninstall(&self, n: usize) -> bool {
            let slots = self.slots.borrow();
            !slots.is_empty() && self.d.uninstall(self.ev, slots[n % slots.len()])
        }
    }

    /// The model's handler: what the dispatcher should remember of a slot.
    struct ModelHandler {
        kind: GuardKind,
        actions: Vec<Action>,
        fired: bool,
        live: bool,
    }

    impl ModelHandler {
        fn accepts(&self, src: u16, dst: u16, shared: &PortSet) -> bool {
            match &self.kind {
                GuardKind::None => true,
                GuardKind::BelowDst(p) => dst < *p,
                GuardKind::EqDst(p) => dst == *p,
                GuardKind::OneOfDst(ports) => ports.contains(&dst),
                GuardKind::NotInShared => !shared.contains(dst),
                GuardKind::EqSrc(p) => src == *p,
            }
        }

        /// Whether the guard hashes into the demux index (an `In` set on
        /// the one schema field of `UdpRecv`, the destination port).
        fn indexed(&self) -> bool {
            matches!(self.kind, GuardKind::EqDst(_) | GuardKind::OneOfDst(_))
        }
    }

    #[derive(Default)]
    struct Model {
        slots: Vec<ModelHandler>,
        log: Vec<usize>,
        /// Each nested raise's `(linear, indexed)` outcome, in the order
        /// they returned.
        nested: Vec<(RaiseOutcome, RaiseOutcome)>,
    }

    impl Model {
        fn install(&mut self, kind: GuardKind, actions: Vec<Action>) {
            self.slots.push(ModelHandler {
                kind,
                actions,
                fired: false,
                live: true,
            });
        }

        fn uninstall(&mut self, n: usize) -> bool {
            if self.slots.is_empty() {
                return false;
            }
            let n = n % self.slots.len();
            std::mem::replace(&mut self.slots[n].live, false)
        }

        /// `(live, guarded)`, as `event_summary` reports them.
        fn counts(&self) -> (usize, usize) {
            let live = self.slots.iter().filter(|h| h.live);
            let guarded = live.clone().filter(|h| !matches!(h.kind, GuardKind::None));
            (live.count(), guarded.count())
        }

        /// Raises over the handlers live *now*, in install order: a raise
        /// a handler makes sees every install made before it starts, and
        /// an uninstall hides a handler from every raise in flight at
        /// once. Returns the outcome of the linear walk and of the indexed
        /// one: they differ only by the indexed, unselected entries an
        /// earlier handler of this raise uninstalled, which the index has
        /// already counted as rejected and the linear walk passes over
        /// uncounted.
        fn raise(&mut self, src: u16, dst: u16, shared: &PortSet) -> (RaiseOutcome, RaiseOutcome) {
            let snapshot: Vec<usize> = (0..self.slots.len())
                .filter(|&s| self.slots[s].live)
                .collect();
            let probed = snapshot.iter().any(|&s| self.slots[s].indexed());
            let mut out = RaiseOutcome::default();
            let mut counted_by_index = 0;
            for s in snapshot {
                let h = &self.slots[s];
                if !h.live {
                    if probed && h.indexed() && !h.accepts(src, dst, shared) {
                        counted_by_index += 1;
                    }
                    continue;
                }
                if !h.accepts(src, dst, shared) {
                    out.rejected += 1;
                    continue;
                }
                out.invoked += 1;
                self.log.push(s);
                let first = !std::mem::replace(&mut self.slots[s].fired, true);
                for a in self.slots[s].actions.clone() {
                    match a {
                        Action::Install(kind) if first => self.install(kind, Vec::new()),
                        Action::Install(_) => {}
                        Action::Uninstall(n) => {
                            self.uninstall(n);
                        }
                        Action::Raise(src, dst) if first => {
                            let outs = self.raise(src, dst, shared);
                            self.nested.push(outs);
                        }
                        Action::Raise(..) => {}
                    }
                }
            }
            let indexed = RaiseOutcome {
                rejected: out.rejected + counted_by_index,
                ..out
            };
            (out, indexed)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn install_uninstall_raise_interleavings_match_the_model(
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            let shared = PortSet::new();
            let indexed = Rig::new(true, &shared);
            let linear = Rig::new(false, &shared);
            let mut model = Model::default();
            let cpu = Cpu::new(CostModel::alpha_3000_400());
            let mut engine = Engine::new();

            for step in steps {
                match step {
                    Step::Install(kind, actions) => {
                        indexed.install(&kind, actions.clone());
                        linear.install(&kind, actions.clone());
                        model.install(kind, actions);
                    }
                    Step::Uninstall(n) => {
                        let expect = model.uninstall(n);
                        prop_assert_eq!(indexed.uninstall(n), expect);
                        prop_assert_eq!(linear.uninstall(n), expect);
                    }
                    Step::Raise(src_port, dst_port) => {
                        let pkt = Dgram { src_port, dst_port };
                        let mut lease = cpu.begin(SimTime::ZERO);
                        let mut ctx = RaiseCtx { engine: &mut engine, lease: &mut lease };
                        let (want_lin, want_idx) = model.raise(src_port, dst_port, &shared);
                        prop_assert_eq!(linear.d.raise(&mut ctx, linear.ev, &pkt), want_lin);
                        prop_assert_eq!(indexed.d.raise(&mut ctx, indexed.ev, &pkt), want_idx);
                    }
                    Step::Mutate(insert, port) => {
                        if insert {
                            shared.insert(port);
                        } else {
                            shared.remove(port);
                        }
                    }
                }
                prop_assert_eq!(&*linear.log.borrow(), &model.log, "linear order");
                prop_assert_eq!(&*indexed.log.borrow(), &model.log, "indexed order");
                let (lin, idx): (Vec<_>, Vec<_>) = model.nested.iter().copied().unzip();
                prop_assert_eq!(&*linear.nested.borrow(), &lin, "nested linear outcomes");
                prop_assert_eq!(&*indexed.nested.borrow(), &idx, "nested indexed outcomes");
                let (live, guarded) = model.counts();
                for rig in [&indexed, &linear] {
                    prop_assert_eq!(rig.d.handler_count(rig.ev), live);
                    let summary = rig.d.event_summary();
                    prop_assert_eq!((summary[0].handlers, summary[0].guarded), (live, guarded));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled guard tier: the install-time fused-closure compilation must be
// observationally identical to the reference interpreter — same verdicts,
// same metered cycle counts, same state-map mutations — for arbitrary
// verified programs (stateless and stateful) over arbitrary packet streams.
// ---------------------------------------------------------------------------

mod compiled_equivalence {
    use proptest::prelude::*;

    use plexus::kernel::filter::{
        conjunction_stateful, eval_metered, verify, EventKind, Field, MapKind, Operand, Packet,
        PortSet, StateMap, Test,
    };

    struct Dgram {
        src_port: u16,
        dst_port: u16,
    }

    impl Packet for Dgram {
        fn kind(&self) -> EventKind {
            EventKind::UdpRecv
        }
        fn field(&self, field: Field) -> Option<u64> {
            match field {
                Field::UdpDstPort => Some(u64::from(self.dst_port)),
                Field::UdpSrcPort => Some(u64::from(self.src_port)),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    const CAP: u32 = 16;
    const TOKENS: u32 = 4;

    /// One generated conjunct, spanning every compiled-tier code shape: the
    /// plain and fused load/branch forms (`Eq`, `OneOf`), the set-membership
    /// thunks (`InSet`, `NotInSet`), and both fused state ops.
    #[derive(Debug, Clone)]
    enum GenTest {
        EqDst(u16),
        OneOfDst(Vec<u16>),
        InSetDst,
        NotInSetDst,
        TakeToken(u64),
        Count(u64),
    }

    fn gen_test() -> impl Strategy<Value = GenTest> {
        prop_oneof![
            (0u16..8).prop_map(GenTest::EqDst),
            proptest::collection::vec(0u16..8, 1..4).prop_map(GenTest::OneOfDst),
            Just(GenTest::InSetDst),
            Just(GenTest::NotInSetDst),
            (0u64..u64::from(CAP)).prop_map(GenTest::TakeToken),
            (0u64..u64::from(CAP)).prop_map(GenTest::Count),
        ]
    }

    /// Build one program instance with its own state maps and port set.
    /// Called twice per case so the interpreter and the compiled tier each
    /// mutate independent state, which the test then compares slot for slot.
    fn build(
        tests_spec: &[GenTest],
        set_ports: &[u16],
    ) -> Option<(plexus::kernel::filter::VerifiedProgram, Vec<StateMap>)> {
        let maps = vec![
            StateMap::new(
                "buckets",
                MapKind::TokenBucket {
                    tokens: TOKENS,
                    refill_per_ms: 1,
                },
                CAP,
            ),
            StateMap::new("hits", MapKind::Counter, CAP),
        ];
        let budget: u32 = maps.iter().map(StateMap::state_bytes).sum();
        let set = PortSet::new();
        for p in set_ports {
            set.insert(*p);
        }
        let src = Operand::Field(Field::UdpSrcPort);
        let dst = Operand::Field(Field::UdpDstPort);
        let tests: Vec<Test> = tests_spec
            .iter()
            .map(|t| match t {
                GenTest::EqDst(p) => Test::eq(dst, u64::from(*p)),
                GenTest::OneOfDst(ports) => Test::one_of(dst, ports.iter().map(|p| u64::from(*p))),
                GenTest::InSetDst => Test::InSet { op: dst, set: 0 },
                GenTest::NotInSetDst => Test::NotInSet { op: dst, set: 0 },
                GenTest::TakeToken(mask) => Test::TakeToken {
                    op: src,
                    mask: *mask,
                    map: 0,
                },
                GenTest::Count(mask) => Test::Count {
                    op: src,
                    mask: *mask,
                    map: 1,
                },
            })
            .collect();
        let program =
            conjunction_stateful(EventKind::UdpRecv, &tests, vec![set], maps.clone(), budget);
        // Some generated conjunctions are statically contradictory (e.g.
        // dst == 3 twice over) and the verifier rejects the unreachable
        // code; both instances reject identically, so just skip those.
        verify(&program).ok().map(|vp| (vp, maps))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        // The core tentpole contract: for every verified program and every
        // packet stream, the compiled tier's (verdict, metered cycles) pair
        // and its state-map mutations are value-identical to the
        // interpreter's.
        #[test]
        fn compiled_tier_matches_interpreter_exactly(
            tests in proptest::collection::vec(gen_test(), 1..6),
            set_ports in proptest::collection::vec(0u16..8, 0..4),
            packets in proptest::collection::vec((0u16..64, 0u16..8), 1..40),
            gaps_us in proptest::collection::vec(0u64..2_000, 1..40),
        ) {
            // Two independent instances of the same program: the
            // interpreter drives one, the compiled closure the other.
            let Some((vp_interp, maps_interp)) = build(&tests, &set_ports) else {
                return Ok(());
            };
            let (vp_compiled, maps_compiled) =
                build(&tests, &set_ports).expect("same spec verifies twice");

            let mut now_ns = 0u64;
            let mut gaps = gaps_us.iter().cycle();
            for (i, (src_port, dst_port)) in packets.into_iter().enumerate() {
                now_ns += gaps.next().unwrap() * 1_000;
                let pkt = Dgram { src_port, dst_port };
                let (ok_i, spent_i) = eval_metered(&vp_interp, &pkt, now_ns);
                let (ok_c, spent_c) = vp_compiled.compiled().eval(&pkt, now_ns);
                prop_assert_eq!(ok_i, ok_c, "verdicts diverge at packet {}", i);
                prop_assert_eq!(
                    spent_i, spent_c,
                    "metered cycles diverge at packet {}", i
                );
                prop_assert!(
                    spent_c <= vp_compiled.static_bound(),
                    "compiled tier over the static bound"
                );
                // Token balances and counters must have moved in lockstep.
                for (mi, mc) in maps_interp.iter().zip(&maps_compiled) {
                    prop_assert_eq!(
                        mi.snapshot(), mc.snapshot(),
                        "state maps diverge at packet {}", i
                    );
                }
            }
        }

        // Kind mismatch is a zero-cost rejection on both tiers.
        #[test]
        fn compiled_tier_matches_on_kind_mismatch(
            tests in proptest::collection::vec(gen_test(), 1..4),
        ) {
            struct EthFrame;
            impl Packet for EthFrame {
                fn kind(&self) -> EventKind {
                    EventKind::EthRecv
                }
                fn field(&self, _: Field) -> Option<u64> {
                    None
                }
                fn head(&self) -> &[u8] {
                    &[]
                }
            }
            let Some((vp, _maps)) = build(&tests, &[1, 2]) else {
                return Ok(());
            };
            let pkt = EthFrame;
            prop_assert_eq!(eval_metered(&vp, &pkt, 0), (false, 0));
            prop_assert_eq!(vp.compiled().eval(&pkt, 0), (false, 0));
        }
    }
}

// ---------------------------------------------------------------------------
// Static verification vs. runtime: the abstract interpreter's worst-case
// cycle bound must dominate every measured evaluation, and a verified
// program's declared state maps must stay within their budget no matter
// what packet stream hits them.
// ---------------------------------------------------------------------------

mod state_verification {
    use proptest::prelude::*;
    use std::rc::Rc;

    use plexus::kernel::filter::{
        conjunction_stateful, eval_metered, verify, EventKind, Field, MapKind, Operand, Packet,
        StateMap, Test, MAX_COST,
    };

    /// Reuse the UDP-shaped event from the demux module's spirit; a local
    /// copy keeps the modules independent.
    struct Dgram {
        src_port: u16,
        dst_port: u16,
    }

    impl Packet for Dgram {
        fn kind(&self) -> EventKind {
            EventKind::UdpRecv
        }
        fn field(&self, field: Field) -> Option<u64> {
            match field {
                Field::UdpDstPort => Some(u64::from(self.dst_port)),
                Field::UdpSrcPort => Some(u64::from(self.src_port)),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    /// Slots in each generated map; masks are drawn below capacity so the
    /// verifier's in-bounds proof goes through.
    const CAP: u32 = 16;
    /// Token-bucket capacity for generated bucket maps.
    const TOKENS: u32 = 4;

    /// The optional stateless prefix: at most one destination-port test.
    /// (Two dst tests would either contradict or duplicate each other, and
    /// the verifier rejects the resulting unreachable code outright.)
    #[derive(Debug, Clone)]
    enum DstTest {
        None,
        Eq(u16),
        OneOf(Vec<u16>),
    }

    /// The stateful tail: token-bucket draws and counter bumps, any number
    /// of them, with arbitrary in-capacity masks.
    #[derive(Debug, Clone)]
    enum GenTest {
        TakeToken(u64),
        Count(u64),
    }

    fn dst_test() -> impl Strategy<Value = DstTest> {
        prop_oneof![
            Just(DstTest::None),
            (0u16..8).prop_map(DstTest::Eq),
            proptest::collection::vec(0u16..8, 1..4).prop_map(DstTest::OneOf),
        ]
    }

    fn gen_test() -> impl Strategy<Value = GenTest> {
        prop_oneof![
            (0u64..u64::from(CAP)).prop_map(GenTest::TakeToken),
            (0u64..u64::from(CAP)).prop_map(GenTest::Count),
        ]
    }

    fn build(
        dst: &DstTest,
        tests_tail: &[GenTest],
    ) -> (Rc<plexus::kernel::filter::VerifiedProgram>, Vec<StateMap>) {
        // Map 0: per-flow token buckets; map 1: per-flow counters. Budget
        // is exactly the declared footprint, so the proof is tight.
        let maps = vec![
            StateMap::new(
                "buckets",
                MapKind::TokenBucket {
                    tokens: TOKENS,
                    refill_per_ms: 1,
                },
                CAP,
            ),
            StateMap::new("hits", MapKind::Counter, CAP),
        ];
        let budget: u32 = maps.iter().map(StateMap::state_bytes).sum();
        let src = Operand::Field(Field::UdpSrcPort);
        let dst_op = Operand::Field(Field::UdpDstPort);
        let mut tests: Vec<Test> = match dst {
            DstTest::None => vec![],
            DstTest::Eq(p) => vec![Test::eq(dst_op, u64::from(*p))],
            DstTest::OneOf(ports) => {
                vec![Test::one_of(dst_op, ports.iter().map(|p| u64::from(*p)))]
            }
        };
        tests.extend(tests_tail.iter().map(|t| match t {
            GenTest::TakeToken(mask) => Test::TakeToken {
                op: src,
                mask: *mask,
                map: 0,
            },
            GenTest::Count(mask) => Test::Count {
                op: src,
                mask: *mask,
                map: 1,
            },
        }));
        let program =
            conjunction_stateful(EventKind::UdpRecv, &tests, Vec::new(), maps.clone(), budget);
        let vp = verify(&program).expect("generated stateful guard verifies");
        (Rc::new(vp), maps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The measured cycles of every evaluation — accept or reject, at
        // any simulated time — stay at or under the static bound the
        // abstract interpreter derived at verification time.
        #[test]
        fn measured_eval_cost_never_exceeds_static_bound(
            dst in dst_test(),
            tests in proptest::collection::vec(gen_test(), 1..6),
            packets in proptest::collection::vec((0u16..64, 0u16..8), 1..40),
            gaps_us in proptest::collection::vec(0u64..2_000, 1..40),
        ) {
            let (vp, _maps) = build(&dst, &tests);
            let bound = vp.static_bound();
            prop_assert!(bound <= MAX_COST, "bound itself is within the global cap");
            let mut now_ns = 0u64;
            let mut gaps = gaps_us.iter().cycle();
            for (src_port, dst_port) in packets {
                now_ns += gaps.next().unwrap() * 1_000;
                let pkt = Dgram { src_port, dst_port };
                let (_, measured) = eval_metered(&vp, &pkt, now_ns);
                prop_assert!(
                    measured <= bound,
                    "measured {measured} cycles over static bound {bound}"
                );
            }
        }

        // Map state stays bounded by declaration under arbitrary packet
        // streams: the slot count never changes (capacity is the whole
        // allocation), token balances never exceed the bucket capacity,
        // and the declared footprint fits the verified budget.
        #[test]
        fn map_state_stays_within_declared_budget(
            dst in dst_test(),
            tests in proptest::collection::vec(gen_test(), 1..6),
            packets in proptest::collection::vec((0u16..64, 0u16..8), 1..60),
            gaps_us in proptest::collection::vec(0u64..2_000, 1..40),
        ) {
            let (vp, maps) = build(&dst, &tests);
            prop_assert!(vp.state_bytes() <= vp.program().state_budget);
            let mut now_ns = 0u64;
            let mut gaps = gaps_us.iter().cycle();
            for (src_port, dst_port) in packets {
                now_ns += gaps.next().unwrap() * 1_000;
                let pkt = Dgram { src_port, dst_port };
                eval_metered(&vp, &pkt, now_ns);
                // The evaluator mutates the program's own map clones;
                // `maps` shares the backing slots.
                for map in &maps {
                    let snap = map.snapshot();
                    prop_assert_eq!(snap.len() as u32, CAP, "slot count is fixed");
                    if matches!(map.kind(), MapKind::TokenBucket { .. }) {
                        for tokens in snap {
                            prop_assert!(
                                tokens <= u64::from(TOKENS),
                                "bucket over capacity: {tokens}"
                            );
                        }
                    }
                }
            }
        }
    }
}
