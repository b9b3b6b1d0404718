//! TCP: segments, the connection state machine, sliding window, slow
//! start/congestion avoidance, and retransmission.
//!
//! The paper's TCP is commercial vendor code shared by both systems
//! (§4.2); what matters for the reproduction is that Plexus and the
//! baseline run the *same* transport logic, differing only in OS structure.
//! This module is that shared logic, written as a pure state machine: a
//! [`Tcb`] consumes segments/app calls/timer pokes and emits [`Actions`] —
//! segments to transmit, data delivered, timers to (re)arm — with no
//! dependency on the simulator, which makes it exhaustively testable.
//!
//! Time is a bare `u64` of nanoseconds supplied by the caller.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use plexus_kernel::view::{be16, be32, put_be16, put_be32, WireView};

use crate::checksum::{Checksum, CsumOffload};
use crate::ip::proto;
use crate::mbuf::{Mbuf, LEADING_SPACE};

mod conn;
pub use conn::{
    ConnCallback, ConnEvent, ConnHost, ConnIds, DataCallback, PortsExhausted, TcpCallbacks, TcpConn,
};

/// TCP header length (no options on the wire after the SYN's MSS option is
/// folded into [`Tcb::mss`]; we keep headers fixed-size for simplicity).
pub const TCP_HDR_LEN: usize = 20;

/// Default maximum segment size (Ethernet-friendly).
pub const DEFAULT_MSS: usize = 1460;

/// Smallest MSS a peer can talk us down to. The option field can carry 0,
/// and every size derived from the MSS (segment payloads, the congestion
/// window, the offload split) must stay non-zero.
pub(crate) const MIN_MSS: usize = 64;

/// Default receive window.
pub(crate) const DEFAULT_WINDOW: u16 = 65535;

/// TCP header flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// No more data from sender.
    pub fin: bool,
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        rst: false,
        ack: false,
    };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        syn: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub(crate) const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        syn: false,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        syn: false,
        fin: false,
        ack: false,
    };

    fn to_wire(self) -> u8 {
        (self.fin as u8)
            | ((self.syn as u8) << 1)
            | ((self.rst as u8) << 2)
            | ((self.ack as u8) << 4)
    }

    fn from_wire(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment in parsed form, generic over how its payload is held: a
/// parsed segment borrows the frame (`&[u8]`), one the state machine emits
/// or the stack demultiplexes shares mbuf clusters ([`Mbuf`]), and one built
/// by hand owns its bytes (`Vec<u8>`, the default).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment<P = Vec<u8>> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (present on SYN segments).
    pub mss: Option<u16>,
    /// Payload.
    pub payload: P,
}

/// A segment payload as TCP reads it: bytes in one or more chunks, in
/// order. [`Tcb::on_segment`] takes any of them and walks the chunks, so a
/// payload spread over mbuf clusters is never gathered first.
pub trait Payload {
    /// Payload bytes.
    fn len(&self) -> usize;

    /// Whether there are none.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, chunk by chunk.
    fn byte_chunks(&self) -> impl Iterator<Item = &[u8]>;
}

impl Payload for Vec<u8> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn byte_chunks(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.as_slice())
    }
}

impl Payload for &[u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn byte_chunks(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(*self)
    }
}

impl Payload for Mbuf {
    fn len(&self) -> usize {
        self.total_len()
    }

    fn byte_chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.segments()
    }
}

/// Calls `f` on the bytes of `payload` in `range`, chunk by chunk.
fn for_range<P: Payload>(payload: &P, range: Range<usize>, mut f: impl FnMut(&[u8])) {
    let mut start = 0;
    for chunk in payload.byte_chunks() {
        let end = start + chunk.len();
        let (lo, hi) = (range.start.max(start), range.end.min(end));
        if lo < hi {
            f(&chunk[lo - start..hi - start]);
        }
        if end >= range.end {
            break;
        }
        start = end;
    }
}

impl<P> TcpSegment<P> {
    /// This segment's header around another payload.
    pub fn with_payload<Q>(&self, payload: Q) -> TcpSegment<Q> {
        TcpSegment {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            payload,
        }
    }

    /// Header length on the wire: a SYN carrying an MSS value adds the
    /// kind-2 option (RFC 793 §3.1).
    fn header_len(&self) -> usize {
        match self.mss {
            Some(_) if self.flags.syn => TCP_HDR_LEN + 4,
            _ => TCP_HDR_LEN,
        }
    }

    /// Stores every header field but the checksum into `b`, which is
    /// exactly [`TcpSegment::header_len`] zeroed bytes.
    fn write_header(&self, b: &mut [u8]) {
        put_be16(b, 0, self.src_port);
        put_be16(b, 2, self.dst_port);
        put_be32(b, 4, self.seq);
        put_be32(b, 8, self.ack);
        b[12] = ((b.len() / 4) as u8) << 4;
        b[13] = self.flags.to_wire();
        put_be16(b, 14, self.window);
        if b.len() > TCP_HDR_LEN {
            b[TCP_HDR_LEN] = 2; // Kind: MSS.
            b[TCP_HDR_LEN + 1] = 4; // Length.
            put_be16(b, TCP_HDR_LEN + 2, self.mss.expect("room only for an MSS"));
        }
    }

    /// Prepends this header to `m`, the payload, and fills the checksum:
    /// computed over the chain in place or, with `offload`, deferred to the
    /// NIC ([`TcpSegment::chunk_to_mbuf`]).
    fn seal(&self, mut m: Mbuf, src: Ipv4Addr, dst: Ipv4Addr, offload: bool) -> Mbuf {
        let hdr_len = self.header_len();
        let len = hdr_len + m.total_len();
        self.write_header(m.prepend(hdr_len));
        let mut c = Checksum::new();
        c.add(&src.octets())
            .add(&dst.octets())
            .add_u16(proto::TCP as u16)
            .add_u16(len as u16);
        if offload {
            m.stamp_pkthdr();
            m.pkthdr_mut().csum = Some(CsumOffload {
                start_from_end: len,
                field_from_end: len - 16,
                pseudo: c.partial(),
                zero_to_ones: false,
            });
        } else {
            for seg in m.segments() {
                c.add(seg);
            }
            let sum = c.finish();
            m.write_at(16, &sum.to_be_bytes());
        }
        m
    }
}

impl<P: Payload> TcpSegment<P> {
    /// Serializes with a pseudo-header checksum for `src`→`dst`. A SYN
    /// carrying an MSS value emits the kind-2 option (RFC 793 §3.1).
    pub fn to_bytes(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let hdr_len = self.header_len();
        let len = hdr_len + self.payload.len();
        let mut b = vec![0u8; len];
        self.write_header(&mut b[..hdr_len]);
        let mut at = hdr_len;
        for chunk in self.payload.byte_chunks() {
            b[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        }
        let mut c = Checksum::new();
        c.add(&src.octets())
            .add(&dst.octets())
            .add_u16(proto::TCP as u16)
            .add_u16(len as u16)
            .add(&b);
        let sum = c.finish();
        put_be16(&mut b, 16, sum);
        b
    }

    /// Serializes into a fresh mbuf with `leading` spare bytes ahead of the
    /// TCP header for lower-layer encapsulation: the payload is copied once,
    /// and the checksum streams over the chain in place.
    pub fn to_mbuf(&self, src: Ipv4Addr, dst: Ipv4Addr, leading: usize) -> Mbuf {
        let m = Mbuf::from_pieces(
            leading + self.header_len(),
            self.payload.len(),
            self.payload.byte_chunks(),
        );
        self.seal(m, src, dst, false)
    }

    /// Sequence space this segment occupies (payload + SYN/FIN).
    fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }
}

impl TcpSegment<Mbuf> {
    /// The wire segment for the payload bytes in `range`, with the TCP
    /// header in front. When `range` is the whole payload, the payload moves
    /// out of this segment (leaving it empty), nothing is copied, and the
    /// header goes in front of it ([`Mbuf::prepend`]): into a header mbuf
    /// chained there when the payload is a share of the send queue, into
    /// its leading space when its cluster is its own. A part — what a
    /// segmentation-offload split makes of a super-segment — is a share of
    /// those bytes ([`Mbuf::range`]) with the header chained in front; its
    /// sequence number moves up by `range.start`, parts short of the end
    /// are plain ACKs and the final one keeps the flags (FIN rides on it).
    ///
    /// With `offload` the checksum is deferred to a NIC that advertises
    /// checksum offload: the field stays zero and a [`CsumOffload`]
    /// descriptor (pseudo-header partial included) is stamped in the packet
    /// header for the adapter to fill during the DMA gather. Unlike UDP, a
    /// computed zero stays zero on the wire.
    pub(crate) fn chunk_to_mbuf(
        &mut self,
        range: Range<usize>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        offload: bool,
    ) -> Mbuf {
        let len = self.payload.total_len();
        let (whole, last) = (range.len() == len, range.end == len);
        let mut header = self.with_payload(());
        header.seq = self.seq.wrapping_add(range.start as u32);
        if !last {
            header.flags = TcpFlags::ACK;
        }
        // Options stay with an unsplit segment: a SYN is never split.
        header.mss = self.mss.filter(|_| whole);
        let m = if whole {
            std::mem::take(&mut self.payload)
        } else {
            self.payload.range(range.start, range.len())
        };
        header.seal(m, src, dst, offload)
    }
}

impl<'a> TcpSegment<&'a [u8]> {
    /// Parses and verifies the checksum. `None` on malformed/corrupt input.
    /// The payload is a view of `bytes`, not a copy.
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, bytes: &'a [u8]) -> Option<Self> {
        let v: TcpRawView = plexus_kernel::view::view(bytes)?;
        let data_off = ((v.0[12] >> 4) as usize) * 4;
        if data_off < TCP_HDR_LEN || data_off > bytes.len() {
            return None;
        }
        let mut c = Checksum::new();
        c.add(&src.octets())
            .add(&dst.octets())
            .add_u16(proto::TCP as u16)
            .add_u16(bytes.len() as u16)
            .add(bytes);
        if c.finish() != 0 {
            return None;
        }
        // Walk the options area for an MSS option (kind 2).
        let mut mss = None;
        let mut i = TCP_HDR_LEN;
        while i < data_off {
            match bytes[i] {
                0 => break,  // End of options.
                1 => i += 1, // NOP.
                2 if i + 4 <= data_off && bytes[i + 1] == 4 => {
                    mss = Some(be16(bytes, i + 2));
                    i += 4;
                }
                _ => {
                    let l = *bytes.get(i + 1)? as usize;
                    if l < 2 {
                        return None;
                    }
                    i += l;
                }
            }
        }
        Some(TcpSegment {
            src_port: be16(bytes, 0),
            dst_port: be16(bytes, 2),
            seq: be32(bytes, 4),
            ack: be32(bytes, 8),
            flags: TcpFlags::from_wire(bytes[13]),
            window: be16(bytes, 14),
            mss,
            payload: &bytes[data_off..],
        })
    }
}

struct TcpRawView<'a>(&'a [u8]);

impl<'a> WireView<'a> for TcpRawView<'a> {
    const WIRE_SIZE: usize = TCP_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        TcpRawView(bytes)
    }
}

/// Modular sequence comparison: `a < b`.
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Modular sequence comparison: `a <= b`.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Connection states (RFC 793).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open.
    Listen,
    /// Active open sent SYN.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Active close, FIN sent.
    FinWait1,
    /// Our FIN acked, waiting for peer's.
    FinWait2,
    /// Peer closed, we may still send.
    CloseWait,
    /// Simultaneous close.
    Closing,
    /// Passive close, FIN sent.
    LastAck,
    /// Draining old duplicates.
    TimeWait,
}

/// What a [`Tcb`] wants done after processing an input. Each entry point
/// fills one of these, every step below it writing into the same one.
#[derive(Debug, Default)]
pub struct Actions {
    /// Segments to transmit, in order. Each payload is an mbuf with room
    /// ahead for the headers. The list is the TCB's, lent:
    /// [`TcpConn::apply`] drains it and hands it back, so the next input
    /// reuses its allocation.
    pub segments: Vec<TcpSegment<Mbuf>>,
    /// The connection just reached `Established`.
    pub connected: bool,
    /// New in-order data is available via [`Tcb::swap_received`].
    pub data_available: bool,
    /// The connection fully closed (reached `Closed`).
    pub closed: bool,
    /// The connection was reset by the peer.
    pub reset: bool,
    /// The peer finished sending (its FIN was consumed); no more data will
    /// arrive. The application may close its side in response.
    pub peer_fin: bool,
    /// Payload bytes beyond the advertised receive window were refused
    /// (and acknowledged, RFC 793 §3.3); the owner records the drop.
    pub out_of_window: bool,
    /// The peer stopped answering: the retransmission timer ran out too many
    /// times in a row and the connection closed (`closed` is set too); the
    /// owner records the drop.
    pub timed_out: bool,
}

const INITIAL_RTO_NS: u64 = 1_000_000_000;
const MIN_RTO_NS: u64 = 200_000_000;
const MAX_RTO_NS: u64 = 64_000_000_000;
/// Retransmission timeouts in a row, without the peer acknowledging new
/// data or answering a zero-window probe, after which a connection is
/// given up (BSD's `TCP_MAXRXTSHIFT`). From the smallest RTO, 200 ms,
/// doubling to the 64 s cap, the thirteenth expiry comes 358 s after the
/// segment was first sent; from a SYN's 1 s, 511 s. Both exceed the 100 s
/// (data) and 180 s (SYN) that RFC 1122 §4.2.3.5 asks a TCP to keep trying.
const MAX_BACKOFFS: u32 = 12;
/// 2×MSL for TIME_WAIT (shortened from 2×30 s to keep simulations brisk;
/// still far longer than any segment lifetime in the simulated networks).
const TIME_WAIT_NS: u64 = 1_000_000_000;

/// A TCP control block: one connection endpoint.
pub struct Tcb {
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: Option<(Ipv4Addr, u16)>,

    // Send sequence space.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    /// Unacked + unsent bytes: what the application handed [`Tcb::send`],
    /// held as it came (shares of its buffers, or the one copy of a borrowed
    /// slice) and trimmed at the front by each ACK. Its first byte is
    /// sequence `snd_una` (+1 while our SYN is unacked).
    send_q: Mbuf,
    /// Bytes in `send_q` (BSD `sb_cc`), so no send, emission or ACK sums
    /// the chain.
    send_cc: usize,
    fin_pending: bool,
    fin_seq: Option<u32>,

    // Receive sequence space.
    rcv_nxt: u32,
    rcv_wnd: u16,
    /// In-order bytes the owner has not collected yet
    /// ([`Tcb::swap_received`]).
    recv_ready: Vec<u8>,
    /// `rcv_nxt` unwrapped: sequence numbers consumed since the peer's SYN.
    /// 64 bits wide, so it orders the reassembly map where the 32-bit
    /// sequence space wraps.
    rcv_off: u64,
    /// Out-of-order runs keyed by unwrapped sequence (`rcv_off` + the run's
    /// distance ahead of `rcv_nxt`). Runs neither overlap nor touch, and all
    /// lie inside the advertised window, so they hold at most a window of
    /// bytes.
    ooo: BTreeMap<u64, Vec<u8>>,
    peer_fin_seq: Option<u32>,

    // Congestion control.
    /// Congestion window, bytes.
    pub cwnd: usize,
    /// Slow-start threshold, bytes.
    pub ssthresh: usize,
    /// Maximum segment size.
    pub mss: usize,
    /// Segmentation-offload factor: the TCB emits super-segments of up to
    /// `mss * gso_segs` bytes and relies on a lower layer (the TCP manager
    /// driving a TSO-capable NIC) to split them into wire-MSS chunks. 1
    /// disables the optimization; the wire never carries more than `mss`
    /// bytes per segment either way.
    gso_segs: usize,
    dup_acks: u32,

    // Retransmission.
    rto_ns: u64,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rtt_sample: Option<(u32, u64)>,
    timer_deadline: Option<u64>,
    time_wait_deadline: Option<u64>,
    /// Retransmission timeouts since the peer last showed progress.
    backoffs: u32,
    /// Retransmitted segments (statistics; drives the bench reports).
    pub retransmits: u64,

    /// The segment list [`Actions`] lends out, back from its owner empty.
    spare: Vec<TcpSegment<Mbuf>>,
}

impl Tcb {
    fn new(local: (Ipv4Addr, u16), iss: u32) -> Tcb {
        Tcb {
            state: TcpState::Closed,
            local,
            remote: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: DEFAULT_WINDOW as u32,
            send_q: Mbuf::default(),
            send_cc: 0,
            fin_pending: false,
            fin_seq: None,
            rcv_nxt: 0,
            rcv_wnd: DEFAULT_WINDOW,
            recv_ready: Vec::new(),
            rcv_off: 0,
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            cwnd: 2 * DEFAULT_MSS,
            ssthresh: 64 * 1024,
            mss: DEFAULT_MSS,
            gso_segs: 1,
            dup_acks: 0,
            rto_ns: INITIAL_RTO_NS,
            srtt_ns: None,
            rttvar_ns: 0,
            rtt_sample: None,
            timer_deadline: None,
            time_wait_deadline: None,
            backoffs: 0,
            retransmits: 0,
            spare: Vec::new(),
        }
    }

    /// Passive open: waits for a SYN.
    pub fn listen(local: (Ipv4Addr, u16), iss: u32) -> Tcb {
        let mut t = Tcb::new(local, iss);
        t.state = TcpState::Listen;
        t
    }

    /// Active open: returns the TCB and the SYN to transmit.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        now_ns: u64,
    ) -> (Tcb, Actions) {
        let mut t = Tcb::new(local, iss);
        t.remote = Some(remote);
        t.state = TcpState::SynSent;
        t.snd_nxt = iss.wrapping_add(1);
        let seg = t.make_segment(iss, TcpFlags::SYN, 0..0);
        t.arm_timer(now_ns);
        let mut a = Actions::default();
        a.segments.push(seg);
        (t, a)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Takes back the segment list an [`Actions`] lent out, once its owner
    /// has drained it: the next input fills it again instead of growing a
    /// fresh one. Whatever it still holds is dropped.
    pub(crate) fn reclaim(&mut self, mut segments: Vec<TcpSegment<Mbuf>>) {
        segments.clear();
        self.spare = segments;
    }

    /// An empty [`Actions`] around the spare segment list.
    fn actions(&mut self) -> Actions {
        Actions {
            segments: std::mem::take(&mut self.spare),
            ..Actions::default()
        }
    }

    /// The next instant [`Tcb::on_timer`] should be called, if any.
    pub fn next_timeout(&self) -> Option<u64> {
        match (self.timer_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Hands over the data received in order by swapping buffers: `buf`
    /// comes back holding it, and what `buf` held is discarded while its
    /// allocation stays here for the segments to come. An owner that passes
    /// the same buffer every time regrows nothing per segment, nor does the
    /// TCB.
    pub fn swap_received(&mut self, buf: &mut Vec<u8>) {
        buf.clear();
        std::mem::swap(&mut self.recv_ready, buf);
    }

    /// A segment from this end carrying the queued bytes `data` (offsets
    /// past `snd_una`): a share of the send queue's clusters, so no byte is
    /// copied. The queue still holds them, so the headers go into a header
    /// mbuf chained in front ([`Mbuf::prepend`]).
    fn make_segment(&self, seq: u32, flags: TcpFlags, data: Range<usize>) -> TcpSegment<Mbuf> {
        let header = TcpSegment {
            src_port: self.local.1,
            dst_port: self.remote.map(|r| r.1).unwrap_or(0),
            seq,
            ack: if flags.ack { self.rcv_nxt } else { 0 },
            flags,
            window: self.advertised_window(),
            mss: if flags.syn {
                Some(self.mss as u16)
            } else {
                None
            },
            payload: (),
        };
        header.with_payload(self.send_q.range(data.start, data.len()))
    }

    /// The window we advertise: buffer capacity minus data the application
    /// has not yet drained with [`Tcb::swap_received`]. A non-draining
    /// receiver closes the window and flow-controls the sender.
    fn advertised_window(&self) -> u16 {
        (self.rcv_wnd as usize).saturating_sub(self.recv_ready.len()) as u16
    }

    fn arm_timer(&mut self, now_ns: u64) {
        self.timer_deadline = Some(now_ns + self.rto_ns);
    }

    fn cancel_timer(&mut self) {
        self.timer_deadline = None;
    }

    /// Offset of `snd_una` into `send_q` sequence space: while our SYN is
    /// unacked, sequence `snd_una` is the SYN itself, not data.
    fn syn_in_flight(&self) -> bool {
        matches!(self.state, TcpState::SynSent | TcpState::SynRcvd)
    }

    /// Enables TSO/GSO-style segmentation: output is chunked at
    /// `mss * segs` instead of `mss`, amortizing per-segment protocol
    /// processing. The layer below must split super-segments back to wire
    /// MSS before transmission (see the TCP manager). `segs` is clamped to
    /// at least 1.
    pub fn set_gso_segs(&mut self, segs: usize) {
        self.gso_segs = segs.max(1);
    }

    /// Takes the smaller of our MSS and the one in the peer's SYN, floored
    /// at [`MIN_MSS`].
    fn adopt_peer_mss<P>(&mut self, syn: &TcpSegment<P>) {
        if let Some(peer_mss) = syn.mss {
            self.mss = self.mss.min((peer_mss as usize).max(MIN_MSS));
        }
    }

    /// Largest payload a single emitted segment may carry: the wire MSS
    /// scaled by the GSO factor.
    fn chunk_cap(&self) -> usize {
        self.mss * self.gso_segs
    }

    /// Queues application data; emits whatever the windows allow. An owned
    /// or shared buffer (`Vec<u8>`, `Rc<Vec<u8>>`, an [`Mbuf`]) is queued
    /// as it is; a borrowed one is copied once, into one cluster (the `From`
    /// impls on [`Mbuf`]). A write that fits the room after the bytes
    /// queued before it, borrowed or shared, is copied on into that room
    /// (BSD's `sbcompress`), so small writes share clusters.
    pub fn send(&mut self, data: impl Into<Mbuf>, now_ns: u64) -> Actions {
        assert!(
            matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
            ),
            "send in state {:?}",
            self.state
        );
        let data = data.into();
        self.send_cc += data.total_len();
        self.send_q.append_compact(data);
        let mut a = self.actions();
        self.pump_output(&mut a, now_ns);
        a
    }

    /// Begins an orderly close; a FIN goes out once the send buffer drains.
    pub(crate) fn close(&mut self, now_ns: u64) -> Actions {
        let mut a = self.actions();
        match self.state {
            TcpState::Closed | TcpState::Listen => {
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
            _ => return a,
        }
        self.fin_pending = true;
        self.pump_output(&mut a, now_ns);
        a
    }

    /// Emits as much queued data (and a pending FIN) as the congestion and
    /// peer windows allow.
    fn pump_output(&mut self, a: &mut Actions, now_ns: u64) {
        if self.syn_in_flight() {
            return; // Nothing but the SYN until the handshake completes.
        }
        // What the caller queued already is not ours to arm a timer for.
        let earlier = a.segments.len();
        let wnd = self.snd_wnd.min(self.cwnd as u32);
        let queued = self.send_cc;
        loop {
            let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
            let sent_off = in_flight as usize; // Bytes of send_q already in flight.
            let remaining = queued.saturating_sub(sent_off);
            let room = wnd.saturating_sub(in_flight) as usize;
            let chunk = remaining.min(room).min(self.chunk_cap());
            if chunk == 0 {
                break;
            }
            let seg = self.make_segment(self.snd_nxt, TcpFlags::ACK, sent_off..sent_off + chunk);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now_ns));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk as u32);
            a.segments.push(seg);
        }
        // FIN once everything queued has been handed to the network.
        let all_sent = self.snd_nxt.wrapping_sub(self.snd_una) as usize >= queued;
        if self.fin_pending && all_sent && self.fin_seq.is_none() {
            let seg = self.make_segment(self.snd_nxt, TcpFlags::FIN_ACK, 0..0);
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            a.segments.push(seg);
        }
        if a.segments.len() > earlier && self.timer_deadline.is_none() {
            self.arm_timer(now_ns);
        }
        // Window closed with data waiting and nothing outstanding: keep a
        // persist timer running.
        let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
        if in_flight == 0
            && queued > 0
            && self.snd_wnd.min(self.cwnd as u32) == 0
            && self.timer_deadline.is_none()
        {
            self.arm_timer(now_ns);
        }
    }

    /// Handles a retransmission or TIME_WAIT timer having (possibly)
    /// expired. Call with the current time whenever [`Tcb::next_timeout`]
    /// passes.
    pub fn on_timer(&mut self, now_ns: u64) -> Actions {
        let mut a = self.actions();
        if let Some(tw) = self.time_wait_deadline {
            if now_ns >= tw {
                self.time_wait_deadline = None;
                self.state = TcpState::Closed;
                a.closed = true;
                return a;
            }
        }
        let Some(deadline) = self.timer_deadline else {
            return a;
        };
        if now_ns < deadline {
            return a;
        }
        // Zero-window persist: nothing in flight but data queued and the
        // peer advertised no room — probe with one byte so the window
        // update cannot be lost forever (RFC 1122 §4.2.2.17).
        let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        if flight == 0 && !self.syn_in_flight() {
            if self.send_cc > 0 && self.snd_wnd == 0 {
                let probe = self.make_segment(self.snd_una, TcpFlags::ACK, 0..1);
                self.snd_nxt = self.snd_una.wrapping_add(1);
                self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
                a.segments.push(probe);
                self.arm_timer(now_ns);
                return a;
            }
            self.cancel_timer();
            return a;
        }
        if self.backoffs == MAX_BACKOFFS {
            // Nobody is answering: give up rather than retransmit forever.
            self.state = TcpState::Closed;
            self.cancel_timer();
            a.closed = true;
            a.timed_out = true;
            return a;
        }
        self.backoffs += 1;
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
        self.rtt_sample = None; // Karn's algorithm: no samples on rexmit.
        self.retransmits += 1;
        a.segments.push(self.retransmit_head());
        self.arm_timer(now_ns);
        a
    }

    /// Builds the oldest outstanding segment for retransmission.
    fn retransmit_head(&self) -> TcpSegment<Mbuf> {
        match self.state {
            TcpState::SynSent => self.make_segment(self.iss, TcpFlags::SYN, 0..0),
            TcpState::SynRcvd => self.make_segment(self.iss, TcpFlags::SYN_ACK, 0..0),
            _ => {
                if let Some(fin_seq) = self.fin_seq {
                    if self.snd_una == fin_seq {
                        return self.make_segment(fin_seq, TcpFlags::FIN_ACK, 0..0);
                    }
                }
                let chunk = (self.send_cc)
                    .min(self.chunk_cap())
                    .min(self.snd_nxt.wrapping_sub(self.snd_una) as usize);
                self.make_segment(self.snd_una, TcpFlags::ACK, 0..chunk)
            }
        }
    }

    /// Processes an incoming segment addressed to this connection, whatever
    /// holds its payload.
    pub fn on_segment<P: Payload>(
        &mut self,
        seg: &TcpSegment<P>,
        peer: (Ipv4Addr, u16),
        now_ns: u64,
    ) -> Actions {
        let mut a = self.actions();
        if seg.flags.rst {
            if self.state != TcpState::Listen && self.state != TcpState::Closed {
                self.state = TcpState::Closed;
                self.cancel_timer();
                a.reset = true;
                a.closed = true;
            }
            return a;
        }
        match self.state {
            TcpState::Closed => {
                a.segments.push(self.reset_for(seg));
            }
            TcpState::Listen => {
                if seg.flags.syn {
                    self.remote = Some(peer);
                    self.adopt_peer_mss(seg);
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_nxt = self.iss.wrapping_add(1);
                    self.snd_wnd = seg.window as u32;
                    self.state = TcpState::SynRcvd;
                    a.segments
                        .push(self.make_segment(self.iss, TcpFlags::SYN_ACK, 0..0));
                    self.arm_timer(now_ns);
                }
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.adopt_peer_mss(seg);
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_una = seg.ack;
                    self.snd_wnd = seg.window as u32;
                    self.state = TcpState::Established;
                    self.cancel_timer();
                    self.rto_ns = INITIAL_RTO_NS;
                    self.backoffs = 0;
                    a.connected = true;
                    a.segments
                        .push(self.make_segment(self.snd_nxt, TcpFlags::ACK, 0..0));
                    self.pump_output(&mut a, now_ns);
                }
            }
            _ => self.on_synchronized_segment(&mut a, seg, now_ns),
        }
        a
    }

    fn reset_for<P: Payload>(&self, seg: &TcpSegment<P>) -> TcpSegment<Mbuf> {
        TcpSegment {
            src_port: self.local.1,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(seg.seq_len()),
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Mbuf::from_payload(LEADING_SPACE + TCP_HDR_LEN, &[]),
        }
    }

    fn on_synchronized_segment<P: Payload>(
        &mut self,
        a: &mut Actions,
        seg: &TcpSegment<P>,
        now_ns: u64,
    ) {
        // --- ACK processing -------------------------------------------------
        if seg.flags.ack {
            let ack = seg.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                // New data acknowledged: the peer is making progress.
                self.backoffs = 0;
                let mut acked = ack.wrapping_sub(self.snd_una) as usize;
                if self.state == TcpState::SynRcvd {
                    // Our SYN consumed one sequence number.
                    acked = acked.saturating_sub(1);
                    self.state = TcpState::Established;
                    self.rto_ns = INITIAL_RTO_NS;
                    a.connected = true;
                }
                if let Some(fin_seq) = self.fin_seq {
                    if seq_lt(fin_seq, ack) {
                        acked = acked.saturating_sub(1); // FIN acked too.
                        self.on_fin_acked(a);
                    }
                }
                // Trimming drops the acked bytes' shares alone: what is
                // still queued is not moved, and a buffer nothing views any
                // more goes back to its owner (or the pool).
                let acked = acked.min(self.send_cc);
                self.send_q.trim_front(acked);
                self.send_cc -= acked;
                self.snd_una = ack;
                self.dup_acks = 0;
                // RTT sampling (Karn-compliant: sample only set on fresh data).
                if let Some((sample_seq, sent_at)) = self.rtt_sample {
                    if seq_lt(sample_seq, ack) {
                        self.update_rtt(now_ns.saturating_sub(sent_at));
                        self.rtt_sample = None;
                    }
                }
                // Congestion window growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += self.mss; // Slow start.
                } else {
                    self.cwnd += (self.mss * self.mss / self.cwnd).max(1); // AIMD.
                }
                if self.snd_una == self.snd_nxt {
                    self.cancel_timer(); // Everything acked.
                } else {
                    self.arm_timer(now_ns); // Restart for remaining flight.
                }
            } else if ack == self.snd_una
                && self.snd_nxt != self.snd_una
                && seg.payload.is_empty()
                && !seg.flags.fin
            {
                // Duplicate ACK; three trigger fast retransmit.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
                    self.ssthresh = (flight / 2).max(2 * self.mss);
                    self.cwnd = self.ssthresh;
                    self.retransmits += 1;
                    a.segments.push(self.retransmit_head());
                    self.arm_timer(now_ns);
                }
            }
            self.snd_wnd = seg.window as u32;
            if self.snd_wnd == 0 {
                // A peer that shuts its window is alive: probing it until
                // it opens is no failure (RFC 1122 §4.2.2.17).
                self.backoffs = 0;
            }
        }

        // --- Payload processing ---------------------------------------------
        let had_payload_or_fin = !seg.payload.is_empty() || seg.flags.fin;
        if !seg.payload.is_empty() {
            a.out_of_window |= self.ingest_payload(seg.seq, &seg.payload);
            if !self.recv_ready.is_empty() {
                a.data_available = true;
            }
        }
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin_seq = Some(fin_seq);
        }
        // Consume the peer's FIN only when all data before it has arrived.
        if let Some(fin_seq) = self.peer_fin_seq {
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.rcv_off += 1;
                self.peer_fin_seq = None;
                self.on_peer_fin(a, now_ns);
            }
        }
        if had_payload_or_fin {
            // Acknowledge (immediate ACK; no delayed-ACK timer in the model).
            a.segments
                .push(self.make_segment(self.snd_nxt, TcpFlags::ACK, 0..0));
        }

        // Window may have opened: push more data.
        self.pump_output(a, now_ns);
    }

    /// Takes in the part of `payload` that lies inside the advertised
    /// window `[rcv_nxt, rcv_nxt + window)`: in-order bytes go to
    /// `recv_ready` along with every stashed run they reach, bytes ahead of
    /// a hole are stashed, each straight from the payload's chunks. Returns
    /// whether bytes beyond the window were refused; bytes below `rcv_nxt`
    /// are duplicates, dropped silently.
    fn ingest_payload<P: Payload>(&mut self, seq: u32, payload: &P) -> bool {
        let window = self.advertised_window() as usize;
        let len = payload.len();
        // Where the segment starts relative to `rcv_nxt`, signed: modular
        // arithmetic, so it holds across sequence wraparound.
        let ahead = seq.wrapping_sub(self.rcv_nxt) as i32;
        if ahead <= 0 {
            let skip = ahead.unsigned_abs() as usize;
            if skip >= len {
                return false;
            }
            let fresh = len - skip;
            let take = fresh.min(window);
            for_range(payload, skip..skip + take, |bytes| self.deliver(bytes));
            // Stashed runs the new bytes reach (or cover) are now in order.
            while let Some(entry) = self.ooo.first_entry() {
                if *entry.key() > self.rcv_off {
                    break;
                }
                let (at, run) = entry.remove_entry();
                if let Some(rest) = run.get((self.rcv_off - at) as usize..) {
                    self.deliver(rest);
                }
            }
            take < fresh
        } else {
            let ahead = ahead as usize;
            if ahead >= window {
                return true;
            }
            let take = len.min(window - ahead);
            self.stash(self.rcv_off + ahead as u64, payload, take);
            take < len
        }
    }

    /// Appends in-order bytes to `recv_ready` and advances `rcv_nxt`.
    fn deliver(&mut self, bytes: &[u8]) {
        self.recv_ready.extend_from_slice(bytes);
        self.rcv_nxt = self.rcv_nxt.wrapping_add(bytes.len() as u32);
        self.rcv_off += bytes.len() as u64;
    }

    /// Merges the first `len` bytes of `payload`, which start at unwrapped
    /// sequence `at` past a hole, into the reassembly map: they extend the
    /// run that reaches `at` (or start one) and swallow every later run they
    /// reach, so runs stay disjoint.
    fn stash<P: Payload>(&mut self, at: u64, payload: &P, len: usize) {
        let end = |at: u64, run: &Vec<u8>| at + run.len() as u64;
        let (key, mut run) = match self.ooo.range_mut(..=at).next_back() {
            Some((&k, v)) if end(k, v) >= at => (k, std::mem::take(v)),
            _ => (at, Vec::new()),
        };
        let held = (end(key, &run) - at) as usize;
        if held < len {
            for_range(payload, held..len, |fresh| run.extend_from_slice(fresh));
        }
        while let Some((&k, _)) = self.ooo.range(key + 1..).next() {
            let reach = end(key, &run);
            if k > reach {
                break;
            }
            let next = self.ooo.remove(&k).expect("key just seen");
            if let Some(rest) = next.get((reach - k) as usize..) {
                run.extend_from_slice(rest);
            }
        }
        self.ooo.insert(key, run);
    }

    fn on_fin_acked(&mut self, a: &mut Actions) {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => {
                self.state = TcpState::TimeWait;
                self.time_wait_deadline = Some(u64::MAX); // Set on next timer call.
            }
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                self.cancel_timer();
                a.closed = true;
            }
            _ => {}
        }
    }

    fn on_peer_fin(&mut self, a: &mut Actions, now_ns: u64) {
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => self.state = TcpState::Closing,
            TcpState::FinWait2 => {
                self.state = TcpState::TimeWait;
                self.cancel_timer();
                self.time_wait_deadline = Some(now_ns + TIME_WAIT_NS);
            }
            _ => {}
        }
        a.peer_fin = true;
        a.data_available |= !self.recv_ready.is_empty();
    }

    fn update_rtt(&mut self, sample_ns: u64) {
        // Jacobson/Karels.
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(sample_ns);
                self.rttvar_ns = sample_ns / 2;
            }
            Some(srtt) => {
                let err = sample_ns.abs_diff(srtt);
                self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
                self.srtt_ns = Some((7 * srtt + sample_ns) / 8);
            }
        }
        let srtt = self.srtt_ns.expect("just set");
        self.rto_ns = (srtt + 4 * self.rttvar_ns).clamp(MIN_RTO_NS, MAX_RTO_NS);
    }
}

#[cfg(test)]
impl Tcb {
    /// Bytes buffered but not yet acknowledged (or not yet sent).
    fn unacked_len(&self) -> usize {
        assert_eq!(
            self.send_cc,
            self.send_q.total_len(),
            "the count is the queue's"
        );
        self.send_cc
    }

    /// [`Tcb::swap_received`] into a fresh buffer.
    fn take_received(&mut self) -> Vec<u8> {
        let mut got = Vec::new();
        self.swap_received(&mut got);
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::tests::compute_offload;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 0, last)
    }

    const A: u16 = 4001;
    const B: u16 = 80;

    /// Pipes actions between two TCBs until neither produces output.
    /// Returns the number of segments exchanged. `drop_nth` drops the n-th
    /// segment (0-based) crossing the wire, once.
    fn exchange(a: &mut Tcb, b: &mut Tcb, mut now: u64, drop_nth: Option<usize>) -> (usize, u64) {
        let mut to_b: Vec<TcpSegment<Mbuf>> = Vec::new();
        let mut to_a: Vec<TcpSegment<Mbuf>> = Vec::new();
        let mut count = 0usize;
        let mut dropped = false;
        loop {
            let mut progressed = false;
            for seg in std::mem::take(&mut to_b) {
                progressed = true;
                if Some(count) == drop_nth && !dropped {
                    dropped = true;
                    count += 1;
                    continue;
                }
                count += 1;
                let acts = b.on_segment(&seg, (ip(1), A), now);
                to_a.extend(acts.segments);
            }
            for seg in std::mem::take(&mut to_a) {
                progressed = true;
                if Some(count) == drop_nth && !dropped {
                    dropped = true;
                    count += 1;
                    continue;
                }
                count += 1;
                let acts = a.on_segment(&seg, (ip(2), B), now);
                to_b.extend(acts.segments);
            }
            if !progressed {
                // Fire any due timers to recover from drops.
                let mut fired = false;
                for is_a in [true, false] {
                    let t: &mut Tcb = if is_a { &mut *a } else { &mut *b };
                    if let Some(dl) = t.next_timeout() {
                        now = now.max(dl);
                        let acts = t.on_timer(now);
                        if !acts.segments.is_empty() {
                            fired = true;
                            if is_a {
                                to_b.extend(acts.segments);
                            } else {
                                to_a.extend(acts.segments);
                            }
                        }
                    }
                }
                if !fired && to_a.is_empty() && to_b.is_empty() {
                    break;
                }
            }
        }
        (count, now)
    }

    fn established_pair() -> (Tcb, Tcb) {
        let mut server = Tcb::listen((ip(2), B), 9000);
        let (mut client, syn) = Tcb::connect((ip(1), A), (ip(2), B), 100, 0);
        let mut to_server = syn.segments;
        let mut to_client: Vec<TcpSegment<Mbuf>> = Vec::new();
        while !to_server.is_empty() || !to_client.is_empty() {
            for seg in std::mem::take(&mut to_server) {
                to_client.extend(server.on_segment(&seg, (ip(1), A), 0).segments);
            }
            for seg in std::mem::take(&mut to_client) {
                to_server.extend(client.on_segment(&seg, (ip(2), B), 0).segments);
            }
        }
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let mut server = Tcb::listen((ip(2), B), 9000);
        let (mut client, mut acts) = Tcb::connect((ip(1), A), (ip(2), B), 100, 0);
        assert_eq!(client.state(), TcpState::SynSent);
        let syn = acts.segments.pop().expect("SYN emitted");
        assert_eq!(syn.flags, TcpFlags::SYN);
        assert_eq!(syn.seq, 100);

        let acts = server.on_segment(&syn, (ip(1), A), 10);
        assert_eq!(server.state(), TcpState::SynRcvd);
        let synack = &acts.segments[0];
        assert_eq!(synack.flags, TcpFlags::SYN_ACK);
        assert_eq!(synack.ack, 101);

        let acts = client.on_segment(synack, (ip(2), B), 20);
        assert!(acts.connected);
        assert_eq!(client.state(), TcpState::Established);
        let ack = &acts.segments[0];
        assert_eq!(ack.flags, TcpFlags::ACK);

        let acts = server.on_segment(ack, (ip(1), A), 30);
        assert!(acts.connected);
        assert_eq!(server.state(), TcpState::Established);
    }

    #[test]
    fn segment_wire_round_trip_and_checksum() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: TcpFlags::FIN_ACK,
            window: 4096,
            mss: None,
            payload: b"payload bytes".to_vec(),
        };
        let bytes = seg.to_bytes(ip(1), ip(2));
        let parsed = TcpSegment::parse(ip(1), ip(2), &bytes).expect("valid");
        assert_eq!(parsed, seg.with_payload(seg.payload.as_slice()));
        // Corruption rejected.
        let mut bad = bytes.clone();
        bad[25] ^= 1;
        assert!(TcpSegment::parse(ip(1), ip(2), &bad).is_none());
        // Wrong pseudo-header (spoofed address) rejected.
        assert!(TcpSegment::parse(ip(7), ip(2), &bytes).is_none());
    }

    #[test]
    fn to_mbuf_matches_to_bytes_exactly() {
        for mss in [None, Some(1460u16)] {
            let seg: TcpSegment = TcpSegment {
                src_port: 7,
                dst_port: 9,
                seq: 0x1000,
                ack: 0x2000,
                flags: if mss.is_some() {
                    TcpFlags::SYN
                } else {
                    TcpFlags::FIN_ACK
                },
                window: 8192,
                mss,
                payload: (0..200u8).collect(),
            };
            let bytes = seg.to_bytes(ip(1), ip(2));
            let m = seg.to_mbuf(ip(1), ip(2), 64);
            assert_eq!(m.to_vec(), bytes, "mss={mss:?}");
            // The leading space really is there for lower layers.
            let mut m2 = seg.to_mbuf(ip(1), ip(2), 64);
            m2.prepend(64);
            // And the wire form still parses + verifies.
            assert_eq!(
                TcpSegment::parse(ip(1), ip(2), &m.to_vec()).expect("valid"),
                seg.with_payload(seg.payload.as_slice())
            );
        }
    }

    #[test]
    fn offloaded_checksum_matches_the_software_pass_byte_for_byte() {
        let seg: TcpSegment = TcpSegment {
            src_port: 7,
            dst_port: 9,
            seq: 0x1000,
            ack: 0x2000,
            flags: TcpFlags::ACK,
            window: 8192,
            mss: None,
            payload: (0u16..777).map(|x| (x * 5) as u8).collect(),
        };
        let sw = seg.to_mbuf(ip(1), ip(2), 64);
        let payload = Mbuf::from_payload(64 + TCP_HDR_LEN, &seg.payload);
        let mut hw =
            seg.with_payload(payload)
                .chunk_to_mbuf(0..seg.payload.len(), ip(1), ip(2), true);
        let req = hw.pkthdr().unwrap().csum.expect("offload stamped");
        let mut wire = hw.to_vec();
        assert_eq!(&wire[16..18], &[0, 0], "field deferred to the NIC");
        let v = compute_offload(&req, &hw);
        let field = wire.len() - req.field_from_end;
        wire[field..field + 2].copy_from_slice(&v.to_be_bytes());
        assert_eq!(wire, sw.to_vec(), "NIC-filled frame identical to software");
        // And it parses + verifies as a received segment.
        hw.write_at(16, &v.to_be_bytes());
        assert_eq!(
            TcpSegment::parse(ip(1), ip(2), &hw.to_vec()).expect("valid"),
            seg.with_payload(seg.payload.as_slice())
        );
    }

    #[test]
    fn gso_emits_super_segments_that_partial_acks_still_cover() {
        let (mut client, mut server) = established_pair();
        client.set_gso_segs(4);
        client.cwnd = 64 * 1024;
        let data: Vec<u8> = (0u32..10_000).map(|x| (x * 3) as u8).collect();
        let acts = client.send(&data, 1000);
        assert!(
            acts.segments.iter().any(|s| s.payload.len() > client.mss),
            "GSO emits super-segments beyond one MSS"
        );
        for s in &acts.segments {
            assert!(s.payload.len() <= client.mss * 4, "bounded by mss*gso_segs");
        }
        // The receiver still reassembles the full stream when a lower
        // layer resegments each super-segment at wire MSS.
        let mut got = Vec::new();
        let mss = client.mss;
        for mut s in acts.segments {
            let len = s.payload.len();
            for off in (0..len).step_by(mss) {
                let part = s.chunk_to_mbuf(off..len.min(off + mss), ip(1), ip(2), false);
                let wire = part.to_vec();
                let wire_seg = TcpSegment::parse(ip(1), ip(2), &wire).expect("each part verifies");
                let a = server.on_segment(&wire_seg, (ip(1), client.local.1), 2000);
                got.extend(server.take_received());
                for ack in &a.segments {
                    client.on_segment(ack, (ip(2), server.local.1), 3000);
                }
            }
        }
        assert_eq!(got, data, "stream intact across resegmentation");
        assert_eq!(client.unacked_len(), 0, "everything acknowledged");
    }

    #[test]
    fn data_flows_and_is_acked() {
        let (mut client, mut server) = established_pair();
        let data = vec![0xABu8; 5000];
        let acts = client.send(&data, 1000);
        assert!(acts.segments.len() >= 2, "5000 B > one MSS");
        let mut got = Vec::new();
        let mut to_client = Vec::new();
        for seg in &acts.segments {
            let sa = server.on_segment(seg, (ip(1), A), 1100);
            if sa.data_available {
                got.extend(server.take_received());
            }
            to_client.extend(sa.segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 1200);
        }
        // Window may have limited the first flight; keep pumping.
        let (_, _) = exchange(&mut client, &mut server, 1300, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
        assert_eq!(client.unacked_len(), 0, "all data acked");
        assert_eq!(client.next_timeout(), None, "timer cancelled");
    }

    #[test]
    fn lost_data_segment_is_retransmitted() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u16..6000).map(|x| x as u8).collect();
        let acts = client.send(&data, 0);
        let mut pending = acts.segments;
        // Drop the first data segment.
        pending.remove(0);
        let mut to_client = Vec::new();
        for seg in &pending {
            to_client.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        let before = client.retransmits;
        exchange(&mut client, &mut server, 30, None);
        assert!(client.retransmits > before, "a retransmission happened");
        let mut got = server.take_received();
        // Some data may still be buffered out-of-order until rexmit lands.
        exchange(&mut client, &mut server, 1_000_000, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u16..4000).map(|x| (x * 7) as u8).collect();
        let acts = client.send(&data, 0);
        let mut segs = acts.segments;
        segs.reverse();
        let mut acks = Vec::new();
        for seg in &segs {
            acks.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        for seg in &acks {
            client.on_segment(seg, (ip(2), B), 20);
        }
        exchange(&mut client, &mut server, 30, None);
        let mut got = server.take_received();
        exchange(&mut client, &mut server, 40, None);
        got.extend(server.take_received());
        assert_eq!(got, data);
    }

    #[test]
    fn duplicate_acks_trigger_fast_retransmit() {
        let (mut client, mut server) = established_pair();
        // Inflate cwnd so four segments go out at once.
        client.cwnd = 64 * 1024;
        let data = vec![1u8; DEFAULT_MSS * 4];
        let acts = client.send(&data, 0);
        assert_eq!(acts.segments.len(), 4);
        // Deliver segments 1..4, skipping 0: three dup ACKs result.
        let mut dup_acks = Vec::new();
        for seg in &acts.segments[1..] {
            dup_acks.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        assert_eq!(dup_acks.len(), 3);
        let before = client.retransmits;
        let mut rexmit = Vec::new();
        for ack in &dup_acks {
            rexmit.extend(client.on_segment(ack, (ip(2), B), 20).segments);
        }
        assert_eq!(client.retransmits, before + 1, "fast retransmit fired");
        assert!(rexmit.iter().any(|s| s.seq == dup_acks[0].ack));
    }

    #[test]
    fn slow_start_grows_cwnd_exponentially() {
        let (mut client, mut server) = established_pair();
        let start_cwnd = client.cwnd;
        let data = vec![0u8; 64 * 1024];
        let acts = client.send(&data, 0);
        let mut to_client = Vec::new();
        for seg in &acts.segments {
            to_client.extend(server.on_segment(seg, (ip(1), A), 10).segments);
        }
        let acks = to_client.len();
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        assert!(acks >= 1);
        assert_eq!(
            client.cwnd,
            start_cwnd + acks * client.mss,
            "one MSS per ACK during slow start"
        );
        // The application reads, so the window has room for the rest.
        server.take_received();
        exchange(&mut client, &mut server, 30, None);
    }

    #[test]
    fn rto_collapses_cwnd() {
        let (mut client, mut _server) = established_pair();
        client.cwnd = 32 * 1024;
        let acts = client.send(vec![0u8; 8 * 1024], 0);
        assert!(!acts.segments.is_empty());
        let deadline = client.next_timeout().expect("rexmit timer armed");
        let acts = client.on_timer(deadline);
        assert_eq!(acts.segments.len(), 1, "retransmit the head segment");
        assert_eq!(client.cwnd, client.mss, "multiplicative decrease");
        assert!(client.ssthresh >= 2 * client.mss);
    }

    #[test]
    fn orderly_close_walks_the_states() {
        let (mut client, mut server) = established_pair();
        let acts = client.close(0);
        assert_eq!(client.state(), TcpState::FinWait1);
        let fin = &acts.segments[0];
        assert!(fin.flags.fin);

        let sa = server.on_segment(fin, (ip(1), A), 10);
        assert_eq!(server.state(), TcpState::CloseWait);
        for seg in &sa.segments {
            client.on_segment(seg, (ip(2), B), 20);
        }
        assert_eq!(client.state(), TcpState::FinWait2);

        let sa = server.close(30);
        assert_eq!(server.state(), TcpState::LastAck);
        let mut last_ack = Vec::new();
        for seg in &sa.segments {
            last_ack.extend(client.on_segment(seg, (ip(2), B), 40).segments);
        }
        assert_eq!(client.state(), TcpState::TimeWait);
        let final_acts: Vec<Actions> = last_ack
            .iter()
            .map(|seg| server.on_segment(seg, (ip(1), A), 50))
            .collect();
        assert_eq!(server.state(), TcpState::Closed);
        assert!(final_acts.iter().any(|a| a.closed));

        // TIME_WAIT expires back to CLOSED.
        let dl = client.next_timeout().expect("time-wait timer");
        let acts = client.on_timer(dl);
        assert!(acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn data_before_fin_is_delivered_despite_reordering() {
        let (mut client, mut server) = established_pair();
        let data = b"last words".to_vec();
        let mut segs = client.send(&data, 0).segments;
        segs.extend(client.close(0).segments);
        assert!(segs.iter().any(|s| s.flags.fin));
        segs.reverse(); // FIN arrives before the data.
        for seg in &segs {
            server.on_segment(seg, (ip(1), A), 10);
        }
        assert_eq!(server.take_received(), data);
        assert_eq!(server.state(), TcpState::CloseWait, "FIN consumed in order");
    }

    #[test]
    fn peer_reset_tears_down() {
        let (mut client, _server) = established_pair();
        let rst = TcpSegment {
            src_port: B,
            dst_port: A,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&rst, (ip(2), B), 0);
        assert!(acts.reset);
        assert!(acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn segment_to_closed_port_elicits_rst() {
        let mut closed = Tcb::new((ip(2), 9999), 1);
        let seg = TcpSegment {
            src_port: A,
            dst_port: 9999,
            seq: 55,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
            mss: None,
            payload: Vec::new(),
        };
        let acts = closed.on_segment(&seg, (ip(1), A), 0);
        assert_eq!(acts.segments.len(), 1);
        assert!(acts.segments[0].flags.rst);
        assert_eq!(acts.segments[0].ack, 56);
    }

    #[test]
    fn receiver_window_throttles_sender() {
        let (mut client, _server) = established_pair();
        client.cwnd = 1 << 20;
        client.snd_wnd = 2000; // Peer advertised a tiny window.
        let acts = client.send(vec![0u8; 10_000], 0);
        let sent: usize = acts.segments.iter().map(|s| s.payload.len()).sum();
        assert!(
            sent <= 2000,
            "must respect the advertised window, sent {sent}"
        );
    }

    #[test]
    fn lost_syn_is_retransmitted() {
        let (mut client, mut acts) = Tcb::connect((ip(1), A), (ip(2), B), 100, 0);
        let _lost_syn = acts.segments.pop();
        let dl = client.next_timeout().expect("handshake timer");
        let acts = client.on_timer(dl);
        assert_eq!(acts.segments.len(), 1);
        assert_eq!(acts.segments[0].flags, TcpFlags::SYN);
        assert_eq!(client.retransmits, 1);
    }

    #[test]
    fn bulk_transfer_with_loss_completes() {
        let (mut client, mut server) = established_pair();
        let data: Vec<u8> = (0u32..40_000).map(|x| (x % 251) as u8).collect();
        let first = client.send(&data, 0);
        let mut to_server = first.segments;
        // Feed initial burst with the 2nd segment dropped, then run the
        // exchange loop (which fires timers) until quiescent.
        if to_server.len() > 1 {
            to_server.remove(1);
        }
        let mut to_client = Vec::new();
        for seg in &to_server {
            let sa = server.on_segment(seg, (ip(1), A), 10);
            to_client.extend(sa.segments);
        }
        for seg in &to_client {
            client.on_segment(seg, (ip(2), B), 20);
        }
        exchange(&mut client, &mut server, 30, None);
        let got = server.take_received();
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
    }

    #[test]
    fn a_reclaimed_segment_list_is_lent_out_again() {
        let (mut client, _server) = established_pair();
        client.cwnd = 64 * 1024;
        let acts = client.send(&[3u8; 4 * DEFAULT_MSS], 0);
        assert_eq!(acts.segments.len(), 4);
        let lent = (acts.segments.as_ptr(), acts.segments.capacity());
        client.reclaim(acts.segments);
        let again = client.send(&[4u8; 100], 0);
        assert_eq!(again.segments.len(), 1);
        assert_eq!(
            (again.segments.as_ptr(), again.segments.capacity()),
            lent,
            "the same allocation, not a fresh one"
        );
    }

    #[test]
    fn seq_arithmetic_wraps() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 5, 5));
        assert!(!seq_lt(5, u32::MAX));
        assert!(seq_le(7, 7));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, 0, last)
    }

    #[test]
    fn mss_option_round_trips_on_the_wire() {
        let seg: TcpSegment = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 10,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
            mss: Some(536),
            payload: Vec::new(),
        };
        let bytes = seg.to_bytes(ip(1), ip(2));
        assert_eq!(bytes.len(), TCP_HDR_LEN + 4, "SYN carries a 4-byte option");
        let parsed = TcpSegment::parse(ip(1), ip(2), &bytes).expect("valid");
        assert_eq!(parsed.mss, Some(536));
        assert_eq!(parsed, seg.with_payload(&[][..]));
    }

    #[test]
    fn handshake_negotiates_the_smaller_mss() {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        server.mss = 536; // E.g. a SLIP-attached peer.
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        assert_eq!(client.mss, DEFAULT_MSS);
        let syn = &acts.segments[0];
        assert_eq!(syn.mss, Some(DEFAULT_MSS as u16));
        let sa = server.on_segment(syn, (ip(1), 4000), 0);
        assert_eq!(server.mss, 536, "server keeps its smaller MSS");
        let synack = &sa.segments[0];
        assert_eq!(synack.mss, Some(536));
        client.on_segment(synack, (ip(2), 80), 0);
        assert_eq!(client.mss, 536, "client adopts the peer's smaller MSS");
        // Data now segments at the negotiated size.
        client.cwnd = 1 << 20;
        client.snd_wnd = 1 << 16;
        let acts = client.send(vec![0u8; 2000], 0);
        assert!(acts.segments.iter().all(|s| s.payload.len() <= 536));
    }

    #[test]
    fn a_peer_mss_of_zero_is_floored_in_both_roles() {
        // The SYN a hostile client sends, as the parser hands it over.
        let (_, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let mut syn = acts.segments[0].clone();
        syn.mss = Some(0);
        let wire = syn.to_bytes(ip(1), ip(2));
        let syn = TcpSegment::parse(ip(1), ip(2), &wire).unwrap();
        assert_eq!(syn.mss, Some(0), "the wire format carries it");
        let mut server = Tcb::listen((ip(2), 80), 9000);
        let sa = server.on_segment(&syn, (ip(1), 4000), 0);
        assert_eq!(server.mss, MIN_MSS);
        assert_eq!(sa.segments[0].mss, Some(MIN_MSS as u16));

        // The same from a hostile server's SYN-ACK.
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let mut victim = Tcb::listen((ip(2), 80), 9000);
        let mut synack = victim
            .on_segment(&acts.segments[0], (ip(1), 4000), 0)
            .segments[0]
            .clone();
        synack.mss = Some(0);
        client.on_segment(&synack, (ip(2), 80), 0);
        assert_eq!(client.mss, MIN_MSS);

        // Data still moves, in MIN_MSS pieces.
        let acts = client.send(&[7u8; 200], 0);
        assert!(!acts.segments.is_empty());
        assert!(acts
            .segments
            .iter()
            .all(|s| !s.payload.is_empty() && s.payload.len() <= MIN_MSS));
    }

    #[test]
    fn receiver_window_shrinks_until_app_drains() {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
        let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
        for seg in &ca.segments {
            server.on_segment(seg, (ip(1), 4000), 0);
        }
        // Client sends 10 KB; the server app never reads.
        client.snd_wnd = 1 << 16;
        client.cwnd = 1 << 20;
        let acts = client.send(vec![7u8; 10_000], 0);
        let mut last_window = DEFAULT_WINDOW;
        for seg in &acts.segments {
            let sa = server.on_segment(seg, (ip(1), 4000), 0);
            if let Some(ack) = sa.segments.last() {
                last_window = ack.window;
            }
        }
        assert_eq!(
            last_window as usize,
            DEFAULT_WINDOW as usize - 10_000,
            "window reflects undrained data"
        );
        // Draining reopens it on the next segment's ACK.
        let drained = server.take_received();
        assert_eq!(drained.len(), 10_000);
    }

    #[test]
    fn zero_window_is_probed_until_it_reopens() {
        let (mut client, _srv) = {
            // Build an established pair quickly.
            let mut server = Tcb::listen((ip(2), 80), 9000);
            let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
            let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
            let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
            for seg in &ca.segments {
                server.on_segment(seg, (ip(1), 4000), 0);
            }
            (client, server)
        };
        // Peer advertises a zero window.
        client.snd_wnd = 0;
        let acts = client.send(b"blocked data", 0);
        assert!(acts.segments.is_empty(), "no room: nothing may be sent");
        let dl = client.next_timeout().expect("persist timer armed");
        let acts = client.on_timer(dl);
        assert_eq!(acts.segments.len(), 1, "one-byte window probe");
        assert_eq!(acts.segments[0].payload.len(), 1);
        // The probe's ACK reopens the window; data then flows.
        let window_update = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: client.rcv_nxt,
            ack: client.snd_nxt,
            flags: TcpFlags::ACK,
            window: 4096,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&window_update, (ip(2), 80), dl + 1);
        let sent: usize = acts.segments.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, b"blocked data".len() - 1, "remaining bytes flow");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 11, 0, last)
    }

    fn established_pair() -> (Tcb, Tcb) {
        let mut server = Tcb::listen((ip(2), 80), 9000);
        let (mut client, acts) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let sa = server.on_segment(&acts.segments[0], (ip(1), 4000), 0);
        let ca = client.on_segment(&sa.segments[0], (ip(2), 80), 0);
        for seg in &ca.segments {
            server.on_segment(seg, (ip(1), 4000), 0);
        }
        (client, server)
    }

    #[test]
    fn simultaneous_close_reaches_closed_on_both_sides() {
        let (mut a, mut b) = established_pair();
        // Both sides close before seeing the other's FIN.
        let fa = a.close(0);
        let fb = b.close(0);
        assert_eq!(a.state(), TcpState::FinWait1);
        assert_eq!(b.state(), TcpState::FinWait1);
        // Cross-deliver the FINs.
        let ra: Vec<_> = fb
            .segments
            .iter()
            .flat_map(|s| a.on_segment(s, (ip(2), 80), 10).segments)
            .collect();
        let rb: Vec<_> = fa
            .segments
            .iter()
            .flat_map(|s| b.on_segment(s, (ip(1), 4000), 10).segments)
            .collect();
        assert_eq!(a.state(), TcpState::Closing);
        assert_eq!(b.state(), TcpState::Closing);
        // Cross-deliver the ACKs of the FINs.
        for s in &ra {
            b.on_segment(s, (ip(1), 4000), 20);
        }
        for s in &rb {
            a.on_segment(s, (ip(2), 80), 20);
        }
        assert_eq!(a.state(), TcpState::TimeWait);
        assert_eq!(b.state(), TcpState::TimeWait);
        // TIME_WAIT expires to CLOSED.
        let da = a.next_timeout().expect("time-wait timer");
        assert!(a.on_timer(da).closed);
        let db = b.next_timeout().expect("time-wait timer");
        assert!(b.on_timer(db).closed);
    }

    #[test]
    fn rst_during_handshake_aborts_the_client() {
        let (mut client, _syn) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 0,
            ack: 101,
            flags: TcpFlags::RST,
            window: 0,
            mss: None,
            payload: Vec::new(),
        };
        let acts = client.on_segment(&rst, (ip(2), 80), 10);
        assert!(acts.reset && acts.closed);
        assert_eq!(client.state(), TcpState::Closed);
        assert_eq!(client.next_timeout(), None, "handshake timer cancelled");
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let (mut client, _server) = established_pair();
        client.send(&[1u8; 100], 0);
        let d1 = client.next_timeout().expect("armed");
        let a1 = client.on_timer(d1);
        assert_eq!(a1.segments.len(), 1);
        let d2 = client.next_timeout().expect("re-armed");
        let gap1 = d2 - d1;
        let a2 = client.on_timer(d2);
        assert_eq!(a2.segments.len(), 1);
        let d3 = client.next_timeout().expect("re-armed again");
        let gap2 = d3 - d2;
        assert_eq!(gap2, gap1 * 2, "doubling backoff");
        assert_eq!(client.retransmits, 2);
    }

    /// Fires `t`'s timer at each deadline until it gives up; returns when,
    /// having checked that every expiry before that retransmitted once.
    fn time_out(t: &mut Tcb) -> u64 {
        loop {
            let at = t.next_timeout().expect("armed until it gives up");
            let acts = t.on_timer(at);
            if acts.closed {
                assert!(acts.timed_out && acts.segments.is_empty());
                assert_eq!((t.state(), t.next_timeout()), (TcpState::Closed, None));
                return at;
            }
            assert_eq!(acts.segments.len(), 1);
        }
    }

    #[test]
    fn a_silent_peer_is_given_up_after_100_s_of_retransmissions() {
        // From the smallest RTO and from the initial one.
        for rto in [MIN_RTO_NS, INITIAL_RTO_NS] {
            let (mut client, _server) = established_pair();
            client.rto_ns = rto;
            client.send(&[1u8; 100], 0);
            let gave_up = time_out(&mut client);
            assert_eq!(client.retransmits, u64::from(MAX_BACKOFFS));
            assert!(gave_up >= 100_000_000_000, "gave up after {gave_up} ns");
        }
        // A SYN nobody answers: RFC 1122 asks for three minutes.
        let (mut client, _syn) = Tcb::connect((ip(1), 4000), (ip(2), 80), 100, 0);
        let gave_up = time_out(&mut client);
        assert!(gave_up >= 180_000_000_000, "gave up after {gave_up} ns");
    }

    #[test]
    fn a_peer_that_answers_probes_with_its_window_shut_is_kept() {
        let (mut client, _server) = established_pair();
        client.snd_wnd = 0;
        client.send(b"waiting for room", 0);
        for _ in 0..3 * MAX_BACKOFFS {
            let at = client.next_timeout().expect("persist timer");
            assert!(!client.on_timer(at).closed);
            let still_shut = TcpSegment {
                src_port: 80,
                dst_port: 4000,
                seq: client.rcv_nxt,
                ack: client.snd_una,
                flags: TcpFlags::ACK,
                window: 0,
                mss: None,
                payload: Vec::new(),
            };
            client.on_segment(&still_shut, (ip(2), 80), at);
        }
        assert_eq!(client.state(), TcpState::Established);
    }

    #[test]
    fn stale_acks_are_ignored() {
        let (mut client, mut server) = established_pair();
        let acts = client.send(&[9u8; 100], 0);
        let acks: Vec<_> = acts
            .segments
            .iter()
            .flat_map(|s| server.on_segment(s, (ip(1), 4000), 10).segments)
            .collect();
        for a in &acks {
            client.on_segment(a, (ip(2), 80), 20);
        }
        assert_eq!(client.unacked_len(), 0);
        // Replay an old ACK: must not disturb anything.
        let before_cwnd = client.cwnd;
        let mut stale = acks[0].clone();
        stale.ack = stale.ack.wrapping_sub(50); // Older than snd_una.
        let out = client.on_segment(&stale, (ip(2), 80), 30);
        assert!(out.segments.is_empty());
        assert_eq!(client.cwnd, before_cwnd);
        assert_eq!(client.state(), TcpState::Established);
    }

    #[test]
    fn duplicate_data_is_not_delivered_twice() {
        let (mut client, mut server) = established_pair();
        let acts = client.send(b"once only", 0);
        let seg = &acts.segments[0];
        server.on_segment(seg, (ip(1), 4000), 10);
        let first = server.take_received();
        assert_eq!(first, b"once only");
        // The same segment again (a spurious retransmission).
        server.on_segment(seg, (ip(1), 4000), 20);
        assert!(server.take_received().is_empty(), "no double delivery");
    }
}

#[cfg(test)]
mod buffer_tests {
    use std::rc::Rc;

    use super::*;
    use crate::mbuf::MLEN;

    const CLIENT: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 12, 0, 1), 4000);
    const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 12, 0, 2), 80);

    fn established_pair(client_iss: u32, server_iss: u32) -> (Tcb, Tcb) {
        let mut server = Tcb::listen(SERVER, server_iss);
        let (mut client, acts) = Tcb::connect(CLIENT, SERVER, client_iss, 0);
        let sa = server.on_segment(&acts.segments[0], CLIENT, 0);
        let ca = client.on_segment(&sa.segments[0], SERVER, 0);
        for seg in &ca.segments {
            server.on_segment(seg, CLIENT, 0);
        }
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    /// A data segment from the client carrying `stream[off..off + len]`,
    /// where `stream[0]` has sequence number `isn + 1`.
    fn data_seg(isn: u32, stream: &[u8], off: usize, len: usize) -> TcpSegment {
        TcpSegment {
            src_port: CLIENT.1,
            dst_port: SERVER.1,
            seq: isn.wrapping_add(1).wrapping_add(off as u32),
            ack: 0,
            flags: TcpFlags::default(),
            window: DEFAULT_WINDOW,
            mss: None,
            payload: stream[off..off + len].to_vec(),
        }
    }

    fn stashed(t: &Tcb) -> usize {
        t.ooo.values().map(Vec::len).sum()
    }

    /// Runs are disjoint, do not touch, lie past `rcv_nxt` and inside the
    /// window.
    fn assert_reassembly_invariants(t: &Tcb) {
        let mut reach = t.rcv_off;
        for (&at, run) in &t.ooo {
            assert!(at > reach, "run at {at} touches or overlaps {reach}");
            assert!(!run.is_empty());
            reach = at + run.len() as u64;
        }
        assert!(reach <= t.rcv_off + u64::from(t.advertised_window()));
        assert!(stashed(t) + t.recv_ready.len() <= t.rcv_wnd as usize);
    }

    #[test]
    fn reassembly_crosses_sequence_wraparound() {
        // Data starts 2000 below 2^32: the second segment straddles the
        // wrap and the third lies past it.
        let isn = u32::MAX - 2000;
        let (mut client, mut server) = established_pair(isn, 9000);
        client.cwnd = 64 * 1024;
        let data: Vec<u8> = (0..3 * DEFAULT_MSS).map(|i| (i % 251) as u8).collect();
        let segs = client.send(&data, 0).segments;
        assert_eq!(segs.len(), 3);
        assert!(segs[1].seq > segs[2].seq, "the flight wraps");
        // Both sides of the wrap are stashed behind the missing head.
        for seg in &segs[1..] {
            let a = server.on_segment(seg, CLIENT, 10);
            assert!(!a.data_available && !a.out_of_window);
            assert_reassembly_invariants(&server);
        }
        assert_eq!(server.ooo.len(), 1, "adjacent runs coalesce");
        // Filling the hole delivers everything at once.
        let a = server.on_segment(&segs[0], CLIENT, 20);
        assert!(a.data_available);
        let got = server.take_received();
        assert_eq!(
            got.len(),
            data.len(),
            "delivered bytes after the hole fills"
        );
        assert_eq!(got, data);
        assert_eq!(
            a.segments[0].ack,
            segs[2].seq.wrapping_add(DEFAULT_MSS as u32)
        );
        assert!(server.ooo.is_empty(), "no stale entry stays behind");
    }

    #[test]
    fn bytes_beyond_the_window_are_refused_and_still_acked() {
        let isn = 100;
        let (_client, mut server) = established_pair(isn, 9000);
        let stream = vec![0x5Au8; 3 * DEFAULT_WINDOW as usize];
        let window = DEFAULT_WINDOW as usize;
        // Wholly beyond the right edge, near and far.
        for off in [window, window + 1, 2 * window, (1 << 31) - 2000] {
            let seg = TcpSegment {
                seq: isn.wrapping_add(1).wrapping_add(off as u32),
                ..data_seg(isn, &stream, 0, 1000)
            };
            let a = server.on_segment(&seg, CLIENT, 10);
            assert!(a.out_of_window, "offset {off} is outside the window");
            assert!(!a.data_available);
            assert_eq!(
                a.segments.len(),
                1,
                "RFC 793: an unacceptable segment is ACKed"
            );
            assert_eq!(a.segments[0].ack, isn.wrapping_add(1));
            assert_eq!(stashed(&server), 0);
        }
        // Straddling the right edge: the part inside is kept.
        let a = server.on_segment(&data_seg(isn, &stream, window - 300, 1000), CLIENT, 20);
        assert!(a.out_of_window);
        assert_eq!(stashed(&server), 300);
        assert_reassembly_invariants(&server);
        // A plain duplicate of old data is no refusal.
        server.on_segment(&data_seg(isn, &stream, 0, 500), CLIENT, 30);
        assert_eq!(server.take_received().len(), 500);
        let a = server.on_segment(&data_seg(isn, &stream, 0, 500), CLIENT, 40);
        assert!(!a.out_of_window && !a.data_available);
    }

    #[test]
    fn a_closed_window_refuses_in_order_data() {
        let isn = 100;
        let (_client, mut server) = established_pair(isn, 9000);
        let window = DEFAULT_WINDOW as usize;
        let stream = vec![7u8; window + 100];
        // The application never reads: the window closes.
        let mut off = 0;
        while off < window {
            let len = DEFAULT_MSS.min(window - off);
            let a = server.on_segment(&data_seg(isn, &stream, off, len), CLIENT, 10);
            assert!(!a.out_of_window);
            off += len;
        }
        let a = server.on_segment(&data_seg(isn, &stream, window, 100), CLIENT, 20);
        assert!(a.out_of_window, "no room: the probe's byte is refused");
        assert_eq!(a.segments[0].window, 0);
        assert_eq!(a.segments[0].ack, isn.wrapping_add(1 + window as u32));
        // Reading reopens it.
        assert_eq!(server.take_received().len(), window);
        let a = server.on_segment(&data_seg(isn, &stream, window, 100), CLIENT, 30);
        assert!(!a.out_of_window && a.data_available);
    }

    #[test]
    fn overlapping_stashes_coalesce_and_stay_inside_the_window() {
        // Overlapping, duplicated, shuffled pieces of one stream, starting
        // just below the wrap, with the first byte withheld until the end:
        // whatever the order, the stash never exceeds the window and the
        // stream comes out whole.
        let isn = u32::MAX - 10_000;
        let window = DEFAULT_WINDOW as usize;
        let stream: Vec<u8> = (0..window + 5000).map(|i| (i * 7 % 253) as u8).collect();
        for seed in 1..=8u64 {
            let (_client, mut server) = established_pair(isn, 9000);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |n: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            let mut refused = false;
            for _ in 0..400 {
                let off = 1 + next(stream.len() - 1);
                let len = (1 + next(3000)).min(stream.len() - off);
                let a = server.on_segment(&data_seg(isn, &stream, off, len), CLIENT, 10);
                refused |= a.out_of_window;
                assert!(!a.data_available, "byte 0 is still missing");
                assert_reassembly_invariants(&server);
            }
            assert!(refused, "pieces past the window were offered");
            // Fill in order what is still missing; everything stashed is
            // picked up on the way.
            let mut got = Vec::new();
            while got.len() < stream.len() {
                let off = got.len();
                let len = 1000.min(stream.len() - off);
                server.on_segment(&data_seg(isn, &stream, off, len), CLIENT, 20);
                assert_reassembly_invariants(&server);
                got.extend(server.take_received());
            }
            assert_eq!(got, stream, "seed {seed}");
            assert!(server.ooo.is_empty());
        }
    }

    #[test]
    fn receive_hand_off_swaps_buffers_instead_of_regrowing_them() {
        let isn = 100;
        let (_client, mut server) = established_pair(isn, 9000);
        let stream: Vec<u8> = (0..20 * DEFAULT_MSS).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut capacities = Vec::new();
        for k in 0..20 {
            server.on_segment(
                &data_seg(isn, &stream, k * DEFAULT_MSS, DEFAULT_MSS),
                CLIENT,
                10,
            );
            server.swap_received(&mut buf);
            got.extend_from_slice(&buf);
            capacities.push((buf.capacity(), server.recv_ready.capacity()));
        }
        assert_eq!(got, stream);
        // After the first two segments each side holds an allocation that
        // fits a segment, and they only trade places.
        for pair in &capacities[2..] {
            assert!(
                pair.0 >= DEFAULT_MSS && pair.1 >= DEFAULT_MSS,
                "{capacities:?}"
            );
        }
    }

    /// Carries `to_server` to the server and every answer back and forth
    /// until neither side has more to send, one microsecond a round trip.
    /// Returns what the server delivered.
    fn exchange(
        client: &mut Tcb,
        server: &mut Tcb,
        mut to_server: Vec<TcpSegment<Mbuf>>,
        now: &mut u64,
    ) -> Vec<u8> {
        let mut got = Vec::new();
        while !to_server.is_empty() {
            let mut to_client = Vec::new();
            for seg in to_server.drain(..) {
                to_client.extend(server.on_segment(&seg, CLIENT, *now).segments);
                got.extend(server.take_received());
            }
            for seg in &to_client {
                to_server.extend(client.on_segment(seg, SERVER, *now).segments);
            }
            *now += 1000;
        }
        got
    }

    #[test]
    fn small_sends_fill_clusters_instead_of_taking_one_each() {
        // Ten thousand one-byte writes into a shut window: each is copied
        // into the room after the bytes queued before it, so the queue
        // holds a few pooled clusters, not ten thousand.
        let (mut client, mut server) = established_pair(100, 9000);
        client.cwnd = 1 << 20;
        client.snd_wnd = 0;
        let stream: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        for byte in stream.chunks(1) {
            assert!(client.send(byte, 0).segments.is_empty());
        }
        assert_eq!(client.send_q.segment_count(), stream.len().div_ceil(MLEN));
        // A shared buffer that fits is copied into the room as a borrowed
        // one is: the queue does not hold on to the application's buffer.
        let shared = Rc::new(vec![0x5A; 16]);
        drop(client.send(&shared, 0));
        assert_eq!(Rc::strong_count(&shared), 1);

        // The window opens and the bytes leave in order.
        let update = TcpSegment {
            src_port: SERVER.1,
            dst_port: CLIENT.1,
            seq: server.snd_nxt,
            ack: client.snd_una,
            flags: TcpFlags::ACK,
            window: DEFAULT_WINDOW,
            mss: None,
            payload: Vec::new(),
        };
        let mut now = 0;
        let segments = client.on_segment(&update, SERVER, now).segments;
        let got = exchange(&mut client, &mut server, segments, &mut now);
        assert_eq!(got[..stream.len()], stream);
        assert_eq!(got[stream.len()..], *shared);
        assert_eq!(client.unacked_len(), 0);
    }

    #[test]
    fn small_shared_sends_fill_clusters_as_borrowed_ones_do() {
        // Twenty thousand one-byte writes into a shut window, each an
        // application's own `Rc<Vec<u8>>`, take the clusters as many
        // borrowed ones take: each byte is copied into the room after the
        // bytes before it.
        let queue = |shared: bool| {
            let (mut client, _server) = established_pair(100, 9000);
            client.snd_wnd = 0;
            for i in 0..20_000u32 {
                let byte = [(i % 251) as u8];
                let a = if shared {
                    client.send(Rc::new(byte.to_vec()), 0)
                } else {
                    client.send(&byte, 0)
                };
                assert!(a.segments.is_empty());
            }
            assert_eq!(client.unacked_len(), 20_000);
            client.send_q.segment_count()
        };
        assert_eq!(queue(true), queue(false));
        assert_eq!(queue(false), 20_000usize.div_ceil(MLEN));
    }

    #[test]
    fn send_queue_reads_span_clusters_and_trimmed_heads() {
        // Sends and ACKs interleave so that segments start and end inside
        // the queue's clusters and span the seams between them; the
        // retransmission and the fresh segments must still read the right
        // bytes.
        let (mut client, mut server) = established_pair(100, 9000);
        client.cwnd = 1 << 20;
        let stream: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let mut got = Vec::new();
        let mut now = 0;
        for piece in stream.chunks(7001) {
            let segments = client.send(piece, now).segments;
            got.extend(exchange(&mut client, &mut server, segments, &mut now));
        }
        assert_eq!(client.unacked_len(), 0);
        assert_eq!(got, stream);

        // A borrowed, an empty and a shared send, the head then trimmed
        // into the first cluster by a partial ACK.
        let shared = Rc::new(stream[3000..50_000].to_vec());
        drop(client.send(&stream[..3000], now));
        drop(client.send(&[][..], now));
        drop(client.send(&shared, now));
        assert_eq!(client.send_q.segment_count(), 2);
        assert_eq!(Rc::strong_count(&shared), 2, "queued, not copied");
        let ack = TcpSegment {
            src_port: SERVER.1,
            dst_port: CLIENT.1,
            seq: server.snd_nxt,
            ack: client.snd_una.wrapping_add(1000),
            flags: TcpFlags::ACK,
            window: DEFAULT_WINDOW,
            mss: None,
            payload: Vec::new(),
        };
        drop(client.on_segment(&ack, SERVER, now));
        let head = client.retransmit_head();
        assert_eq!(head.payload.to_vec(), &stream[1000..1000 + DEFAULT_MSS]);
        let seam = client.make_segment(0, TcpFlags::ACK, 1500..2500);
        assert_eq!(seam.payload.segment_count(), 2);
        assert_eq!(seam.payload.to_vec(), &stream[2500..3500]);
        let tail = client.make_segment(0, TcpFlags::ACK, 48_000..49_000);
        assert_eq!(tail.payload.to_vec(), &stream[49_000..50_000]);
        drop((head, seam, tail));

        // Acknowledging the rest lets go of the shared buffer.
        let ack = TcpSegment {
            ack: client.snd_nxt,
            ..ack
        };
        drop(client.on_segment(&ack, SERVER, now));
        assert_eq!(client.unacked_len(), 0);
        assert_eq!(Rc::strong_count(&shared), 1);
    }

    /// Complexity guard: acknowledging a long queue MSS by MSS is linear in
    /// the bytes acknowledged. A queue that moves what is still queued on
    /// every ACK (32 MB, ~23 000 times) takes tens of seconds here; trimming
    /// the chain's head takes tens of milliseconds. The bound is 50x from
    /// either.
    #[test]
    fn acking_a_32mb_queue_mss_by_mss_is_linear() {
        const QUEUED: usize = 32 << 20;
        let isn = 1000;
        let (mut client, server) = established_pair(isn, 9000);
        let started = std::time::Instant::now();
        client.send(vec![0x11u8; QUEUED], 0);
        let mut ack = TcpSegment {
            src_port: SERVER.1,
            dst_port: CLIENT.1,
            seq: server.snd_nxt,
            ack: isn.wrapping_add(1),
            flags: TcpFlags::ACK,
            window: DEFAULT_WINDOW,
            mss: None,
            payload: Vec::new(),
        };
        let mut acks = 0u32;
        while client.unacked_len() > 0 {
            // Acknowledge one more MSS of what is in flight.
            let step = DEFAULT_MSS.min(client.unacked_len()) as u32;
            ack.ack = ack.ack.wrapping_add(step);
            client.on_segment(&ack, SERVER, u64::from(acks) * 1000);
            acks += 1;
        }
        let elapsed = started.elapsed();
        assert!(acks as usize >= QUEUED / DEFAULT_MSS);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{acks} ACKs over a {QUEUED}-byte queue took {elapsed:?}: \
             per-ACK work must not grow with what is queued"
        );
    }
}
