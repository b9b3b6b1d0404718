//! Berkeley memory buffers (mbufs).
//!
//! Plexus passes packets through the protocol graph as mbufs — "the
//! Berkeley memory buffer implementation … directly used by most UNIX
//! device drivers" (§3.4, footnote 1). An [`Mbuf`] is a chain of segments;
//! each segment references a cluster of storage with a window (`off`,
//! `len`) into it, so headers can be *prepended* into leading space and
//! *trimmed* off without moving payload bytes.
//!
//! Sharing and read-only semantics (§3.4): clusters are reference-counted
//! (`Rc<Vec<u8>>`), so [`Mbuf::share`] is cheap — reference-count bumps, no
//! data copy and, in the steady state, no heap call: the chain's segment
//! vector comes from the same thread-local pool that recycles clusters —
//! and multiple graph nodes can view the same packet. Handlers receive
//! `&Mbuf` and cannot mutate through
//! it; a handler that wants to modify data must hold its own `Mbuf` and
//! write through [`Mbuf::write_at`]/[`Mbuf::head_mut`], which perform an
//! explicit copy-on-write when the cluster is shared — the Rust rendering
//! of Figure 4's `GoodPacketRecv`.

use std::cell::RefCell;
use std::rc::Rc;

/// Bytes of storage in a small mbuf cluster.
pub const MLEN: usize = 128;

/// Bytes of storage in a large cluster.
pub const MCLBYTES: usize = 2048;

/// Default leading space reserved for link/network/transport headers when
/// building a packet from payload (enough for Ethernet+IP+TCP with slack).
pub const LEADING_SPACE: usize = 64;

/// Packet-level metadata carried by the first mbuf of a packet (BSD
/// `m_pkthdr`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PktHdr {
    /// Total length of the packet when the header was stamped (advisory;
    /// [`Mbuf::total_len`] is authoritative).
    pub len: usize,
    /// Index of the interface the packet arrived on, if any.
    pub rcvif: Option<usize>,
    /// Flight-recorder packet ID assigned at NIC delivery, if tracing is
    /// on. Survives [`Mbuf::share`], so handlers deep in the graph can
    /// attribute work to the arriving packet.
    pub packet_id: Option<u64>,
    /// End-to-end journey ID the frame carried across the wire, if
    /// tracing is on. Unlike `packet_id` (one hop on one machine) the
    /// journey ID is globally unique across the whole simulated world and
    /// is preserved when a forwarder retransmits the packet, so a
    /// post-hoc pass can stitch the per-machine hops into one ledger.
    pub journey_id: Option<u64>,
    /// A transmit checksum deferred to the NIC (BSD `csum_flags` +
    /// `csum_data` in spirit): the transport layer stamps this when the
    /// egress device advertises checksum offload instead of running the
    /// software pass, and the adapter fills the field during DMA.
    pub csum: Option<crate::checksum::CsumOffload>,
}

#[derive(Clone)]
struct Segment {
    cluster: Rc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Segment {
    fn bytes(&self) -> &[u8] {
        &self.cluster[self.off..self.off + self.len]
    }

    /// Mutable access with copy-on-write if the cluster is shared.
    fn bytes_mut(&mut self) -> &mut [u8] {
        let cluster = Rc::make_mut(&mut self.cluster);
        &mut cluster[self.off..self.off + self.len]
    }

    fn leading(&self) -> usize {
        self.off
    }
}

/// A packet: a chain of storage segments.
pub struct Mbuf {
    segments: Vec<Segment>,
    pkthdr: Option<PktHdr>,
}

// Running count of cluster allocations, for the tests.
#[cfg(test)]
thread_local! {
    static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counters for the cluster free-list pool. All values are cumulative
/// since the pool was last reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Clusters allocated fresh from the heap.
    pub allocated: u64,
    /// Clusters handed out from a free list (no heap allocation).
    pub reused: u64,
    /// Clusters returned to a free list at drop.
    pub recycled: u64,
    /// Clusters not recycled because another `Rc` holder was still live
    /// when the owning mbuf dropped.
    pub shared_at_drop: u64,
    /// Clusters not recycled because they are not a pool size class or the
    /// free list was full.
    pub unpooled: u64,
}

/// Upper bound on retained clusters per size class, and on retained chain
/// vectors; beyond this, retired storage falls back to the heap so an
/// overload burst cannot pin memory.
const POOL_CAP: usize = 1024;

/// Segment slots in a chain vector the pool hands out or takes back: room
/// for a three-cluster payload (a 4 KB frame) and a header mbuf chained in
/// front. A chain that outgrew this frees its vector at drop, so the pool
/// retains at most `POOL_CAP * CHAIN_SLOTS` segment slots.
const CHAIN_SLOTS: usize = 4;

struct Pool {
    enabled: bool,
    small: Vec<Rc<Vec<u8>>>,
    large: Vec<Rc<Vec<u8>>>,
    /// Retired chain vectors: empty, capacity `CHAIN_SLOTS`.
    chains: Vec<Vec<Segment>>,
    stats: PoolStats,
}

impl Pool {
    /// Frees everything retained, the free lists' own storage included, so
    /// that every run after a reset pays the same warm-up.
    fn clear(&mut self) {
        self.small = Vec::new();
        self.large = Vec::new();
        self.chains = Vec::new();
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        enabled: true,
        small: Vec::new(),
        large: Vec::new(),
        chains: Vec::new(),
        stats: PoolStats::default(),
    });
}

/// Enables or disables the pool of clusters and chain vectors (default:
/// enabled). Disabling drops the free lists. Returns the previous setting.
pub fn set_cluster_pool_enabled(on: bool) -> bool {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let was = p.enabled;
        p.enabled = on;
        if !on {
            p.clear();
        }
        was
    })
}

/// Snapshot of the pool counters.
pub fn cluster_pool_stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Clears the free lists and zeroes the counters (leaves enablement
/// as-is). Benchmarks call this between phases so "allocations after
/// warmup" is well-defined.
pub fn reset_cluster_pool() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.clear();
        p.stats = PoolStats::default();
    })
}

/// Rounds a requested cluster size up to its pool size class. Requests
/// beyond `MCLBYTES` are allocated exactly and bypass the pool.
fn class_for(min: usize) -> usize {
    if min <= MLEN {
        MLEN
    } else if min <= MCLBYTES {
        MCLBYTES
    } else {
        min
    }
}

/// Allocates (or reuses) a zero-filled cluster of at least `min` bytes.
/// The returned `Rc` is uniquely held.
fn new_cluster(min: usize) -> Rc<Vec<u8>> {
    let size = class_for(min);
    let pooled = POOL.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled {
            return None;
        }
        let hit = match size {
            MLEN => p.small.pop(),
            MCLBYTES => p.large.pop(),
            _ => None,
        };
        if let Some(mut cluster) = hit {
            Rc::get_mut(&mut cluster)
                .expect("pooled cluster is uniquely held")
                .fill(0);
            p.stats.reused += 1;
            Some(cluster)
        } else {
            None
        }
    });
    if let Some(cluster) = pooled {
        return cluster;
    }
    #[cfg(test)]
    ALLOCS.with(|a| a.set(a.get() + 1));
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.allocated += 1;
    });
    Rc::new(vec![0u8; size])
}

/// Mutable access to a freshly obtained (uniquely held) cluster.
fn cluster_mut(cluster: &mut Rc<Vec<u8>>) -> &mut Vec<u8> {
    Rc::get_mut(cluster).expect("fresh cluster is uniquely held")
}

/// Offers a retired cluster back to the pool. Only accepted when this is
/// the *last* reference (respecting `Rc` sharing: a cluster still viewed
/// by another mbuf must not be handed out again) and the size is a pool
/// class with free-list room.
fn retire_cluster(cluster: Rc<Vec<u8>>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled {
            return;
        }
        if Rc::strong_count(&cluster) != 1 {
            p.stats.shared_at_drop += 1;
            return;
        }
        let pooled_class = matches!(cluster.len(), MLEN | MCLBYTES);
        let room = match cluster.len() {
            MLEN => p.small.len() < POOL_CAP,
            _ => p.large.len() < POOL_CAP,
        };
        if !pooled_class || !room {
            p.stats.unpooled += 1;
            return;
        }
        p.stats.recycled += 1;
        match cluster.len() {
            MLEN => p.small.push(cluster),
            _ => p.large.push(cluster),
        }
    })
}

/// An empty chain vector: a recycled one when the pool has it, otherwise a
/// fresh one with `CHAIN_SLOTS` of room, so a header mbuf chained in front
/// later does not regrow it.
fn new_chain() -> Vec<Segment> {
    POOL.with(|p| p.borrow_mut().chains.pop())
        .unwrap_or_else(|| Vec::with_capacity(CHAIN_SLOTS))
}

/// Retires a chain vector's clusters and offers the emptied vector back to
/// the pool, which keeps it unless it outgrew what [`new_chain`] hands out
/// or never had room at all (the husk [`Mbuf::take`] leaves).
fn retire_chain(mut chain: Vec<Segment>) {
    for seg in chain.drain(..) {
        retire_cluster(seg.cluster);
    }
    if chain.capacity() == 0 || chain.capacity() > CHAIN_SLOTS {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.enabled && p.chains.len() < POOL_CAP {
            p.chains.push(chain);
        }
    })
}

impl Mbuf {
    /// An empty packet with a packet header and `LEADING_SPACE` bytes of
    /// room to prepend into.
    pub fn empty() -> Mbuf {
        let mut segments = new_chain();
        segments.push(Segment {
            off: LEADING_SPACE,
            len: 0,
            cluster: new_cluster(MLEN),
        });
        Mbuf {
            segments,
            pkthdr: Some(PktHdr::default()),
        }
    }

    /// Builds a packet holding `payload`, with `leading` bytes of prepend
    /// room before it. Large payloads span multiple clusters.
    pub fn from_payload(leading: usize, payload: &[u8]) -> Mbuf {
        Mbuf::from_pieces(leading, payload.len(), [payload])
    }

    /// [`Mbuf::from_payload`] for a payload of `len` bytes that lies in
    /// `pieces`, copied in order: the chain is the one the concatenation
    /// would give, built without concatenating.
    ///
    /// # Panics
    ///
    /// Panics if the pieces hold fewer than `len` bytes.
    pub(crate) fn from_pieces<'a>(
        leading: usize,
        len: usize,
        pieces: impl IntoIterator<Item = &'a [u8]>,
    ) -> Mbuf {
        let mut pieces = pieces.into_iter();
        let mut piece: &[u8] = &[];
        let mut segments = new_chain();
        let (mut off, mut n) = (leading, len.min(MCLBYTES.max(leading + 1) - leading));
        let mut left = len;
        loop {
            let mut cluster = new_cluster(off + n);
            let dst = &mut cluster_mut(&mut cluster)[off..off + n];
            let mut filled = 0;
            while filled < n {
                if piece.is_empty() {
                    piece = pieces.next().expect("the pieces hold `len` bytes");
                }
                let take = piece.len().min(n - filled);
                dst[filled..filled + take].copy_from_slice(&piece[..take]);
                piece = &piece[take..];
                filled += take;
            }
            segments.push(Segment {
                cluster,
                off,
                len: n,
            });
            left -= n;
            if left == 0 {
                break;
            }
            (off, n) = (0, left.min(MCLBYTES));
        }
        let mut m = Mbuf {
            segments,
            pkthdr: Some(PktHdr::default()),
        };
        m.stamp_pkthdr();
        m
    }

    /// Moves the chain out, leaving this mbuf empty with nothing to retire:
    /// the caller gets the clusters uniquely held, so a header prepended to
    /// them goes into their leading space.
    pub(crate) fn take(&mut self) -> Mbuf {
        Mbuf {
            segments: std::mem::take(&mut self.segments),
            pkthdr: self.pkthdr.take(),
        }
    }

    /// Builds a packet from raw received bytes (driver receive path): no
    /// leading space, single window over one cluster per `MCLBYTES`.
    pub fn from_wire(bytes: &[u8]) -> Mbuf {
        Mbuf::from_payload(0, bytes)
    }

    /// The packet header, if this mbuf leads a packet.
    pub fn pkthdr(&self) -> Option<&PktHdr> {
        self.pkthdr.as_ref()
    }

    /// Mutable packet header access, creating one if absent.
    pub fn pkthdr_mut(&mut self) -> &mut PktHdr {
        self.pkthdr.get_or_insert_with(PktHdr::default)
    }

    /// Re-stamps `pkthdr.len` from the chain. Returns the length.
    pub fn stamp_pkthdr(&mut self) -> usize {
        let len = self.total_len();
        self.pkthdr_mut().len = len;
        len
    }

    /// Total payload bytes across the chain.
    pub fn total_len(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// True if the packet holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Number of segments in the chain.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The first segment's bytes (the contiguous head).
    pub fn head(&self) -> &[u8] {
        self.segments.first().map(Segment::bytes).unwrap_or(&[])
    }

    /// Iterates the chain's segments.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(Segment::bytes)
    }

    /// Linearizes the packet into one `Vec` (copies).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.total_len());
        for s in self.segments() {
            v.extend_from_slice(s);
        }
        v
    }

    /// Shares the packet: a new chain referencing the same clusters
    /// (no data copy; reference counts bump). The shared copy gets its own
    /// packet header.
    pub fn share(&self) -> Mbuf {
        let mut segments = new_chain();
        segments.extend_from_slice(&self.segments);
        Mbuf {
            segments,
            pkthdr: self.pkthdr.clone(),
        }
    }

    /// Grows the front by `n` bytes and returns them for the caller to
    /// fill — BSD `M_PREPEND`. Uses the head segment's leading space when
    /// available (no copy); otherwise chains a new header mbuf in front.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        let use_leading = self
            .segments
            .first()
            .map(|s| s.leading() >= n && Rc::strong_count(&s.cluster) == 1)
            .unwrap_or(false);
        if use_leading {
            let s = &mut self.segments[0];
            s.off -= n;
            s.len += n;
            return &mut s.bytes_mut()[..n];
        }
        let cluster = new_cluster(n);
        let size = cluster.len();
        self.segments.insert(
            0,
            Segment {
                off: size - n,
                len: n,
                cluster,
            },
        );
        &mut self.segments[0].bytes_mut()[..n]
    }

    /// Removes `n` bytes from the front (BSD `m_adj(m, n)`), dropping
    /// emptied segments.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the packet length.
    pub fn trim_front(&mut self, mut n: usize) {
        assert!(n <= self.total_len(), "trim_front past end of packet");
        while n > 0 {
            let s = &mut self.segments[0];
            if s.len > n {
                s.off += n;
                s.len -= n;
                n = 0;
            } else {
                n -= s.len;
                let seg = self.segments.remove(0);
                retire_cluster(seg.cluster);
            }
        }
        self.segments.retain(|s| s.len > 0);
    }

    /// Removes `n` bytes from the back (BSD `m_adj(m, -n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the packet length.
    pub fn trim_back(&mut self, mut n: usize) {
        assert!(n <= self.total_len(), "trim_back past end of packet");
        while n > 0 {
            let last = self.segments.last_mut().expect("length checked");
            if last.len > n {
                last.len -= n;
                n = 0;
            } else {
                n -= last.len;
                if let Some(seg) = self.segments.pop() {
                    retire_cluster(seg.cluster);
                }
            }
        }
        self.segments.retain(|s| s.len > 0);
    }

    /// Ensures the first `n` bytes are contiguous in the head segment
    /// (BSD `m_pullup`). Returns `false` if the packet is shorter than `n`.
    pub fn pullup(&mut self, n: usize) -> bool {
        if n > self.total_len() {
            return false;
        }
        if self.head().len() >= n {
            return true;
        }
        // Gather the first n bytes into a fresh head cluster, keeping the
        // remainder of the chain.
        let mut cluster = new_cluster(LEADING_SPACE + n);
        let mut filled = LEADING_SPACE;
        let mut need = n;
        while need > 0 {
            let s = &mut self.segments[0];
            let take = s.len.min(need);
            cluster_mut(&mut cluster)[filled..filled + take].copy_from_slice(&s.bytes()[..take]);
            filled += take;
            if take == s.len {
                let seg = self.segments.remove(0);
                retire_cluster(seg.cluster);
            } else {
                s.off += take;
                s.len -= take;
            }
            need -= take;
        }
        self.segments.insert(
            0,
            Segment {
                off: LEADING_SPACE,
                len: n,
                cluster,
            },
        );
        true
    }

    /// Appends another packet's chain to this one (BSD `m_cat`). The
    /// appended packet's header is discarded.
    pub fn append(&mut self, mut other: Mbuf) {
        self.segments.append(&mut other.segments);
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`
    /// (BSD `m_copydata`). Returns `false` if the range is out of bounds.
    pub fn read_at(&self, mut off: usize, buf: &mut [u8]) -> bool {
        if off + buf.len() > self.total_len() {
            return false;
        }
        let mut filled = 0;
        for s in self.segments() {
            if off >= s.len() {
                off -= s.len();
                continue;
            }
            let take = (s.len() - off).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&s[off..off + take]);
            filled += take;
            off = 0;
            if filled == buf.len() {
                break;
            }
        }
        true
    }

    /// Appends `len` bytes starting at `off` onto `out` without building
    /// an intermediate packet copy (BSD `m_copydata` into a growing
    /// buffer). The segment walk is the same as [`Mbuf::read_at`]'s; this
    /// is the hot-path alternative to `to_vec()` when the caller already
    /// owns a reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_into(&self, mut off: usize, mut len: usize, out: &mut Vec<u8>) {
        assert!(off + len <= self.total_len(), "copy_into out of bounds");
        out.reserve(len);
        for s in self.segments() {
            if len == 0 {
                break;
            }
            if off >= s.len() {
                off -= s.len();
                continue;
            }
            let take = (s.len() - off).min(len);
            out.extend_from_slice(&s[off..off + take]);
            len -= take;
            off = 0;
        }
    }

    /// The whole packet as one slice, for parsers that need contiguous
    /// bytes: the head in place when it is the whole packet (the common
    /// single-cluster frame), otherwise the chain copied into `scratch`,
    /// whose old contents are discarded. A caller that keeps `scratch`
    /// across packets allocates nothing per packet either way.
    pub fn contiguous<'a>(&'a self, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        let total = self.total_len();
        if self.head().len() == total {
            return self.head();
        }
        scratch.clear();
        self.copy_into(0, total, scratch);
        scratch
    }

    /// Writes `data` at offset `off`, copy-on-write on shared clusters.
    /// Returns `false` if the range is out of bounds.
    pub fn write_at(&mut self, mut off: usize, data: &[u8]) -> bool {
        if off + data.len() > self.total_len() {
            return false;
        }
        let mut written = 0;
        for s in &mut self.segments {
            if off >= s.len {
                off -= s.len;
                continue;
            }
            let take = (s.len - off).min(data.len() - written);
            s.bytes_mut()[off..off + take].copy_from_slice(&data[written..written + take]);
            written += take;
            off = 0;
            if written == data.len() {
                break;
            }
        }
        true
    }

    /// Extracts `len` bytes from `off` as a new packet that *shares* the
    /// underlying clusters where possible (BSD `m_copym` with `M_COPYALL`
    /// semantics on a range).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn range(&self, mut off: usize, mut len: usize) -> Mbuf {
        assert!(off + len <= self.total_len(), "range out of bounds");
        let mut segments = new_chain();
        for s in &self.segments {
            if len == 0 {
                break;
            }
            if off >= s.len {
                off -= s.len;
                continue;
            }
            let take = (s.len - off).min(len);
            segments.push(Segment {
                cluster: s.cluster.clone(),
                off: s.off + off,
                len: take,
            });
            len -= take;
            off = 0;
        }
        let mut m = Mbuf {
            segments,
            pkthdr: Some(PktHdr::default()),
        };
        m.stamp_pkthdr();
        m
    }
}

impl Clone for Mbuf {
    /// Cloning shares clusters (cheap); writes through either copy trigger
    /// copy-on-write.
    fn clone(&self) -> Self {
        self.share()
    }
}

/// An mbuf chain *is* a scatter-gather transmit buffer: the simulated
/// NIC's DMA engine walks the chain's segments straight onto the wire
/// (no host-side flatten) and honors any checksum-offload descriptor
/// stamped in the packet header. This impl is the seam between the
/// protocol stack and the device model — `Nic::transmit` takes any
/// [`plexus_sim::nic::TxBuf`], and this makes `&Mbuf` one.
impl plexus_sim::nic::TxBuf for Mbuf {
    fn total_len(&self) -> usize {
        Mbuf::total_len(self)
    }

    fn gather(&self, f: &mut dyn FnMut(&[u8])) {
        for seg in self.segments() {
            f(seg);
        }
    }

    fn tx_csum(&self) -> Option<plexus_sim::nic::TxCsum> {
        self.pkthdr().and_then(|h| h.csum)
    }
}

impl Drop for Mbuf {
    /// Offers the chain's clusters, then its emptied vector, back to the
    /// free-list pool. A cluster is recycled only when this mbuf held the
    /// last reference; clusters still shared with a live mbuf are left to
    /// that holder.
    fn drop(&mut self) {
        retire_chain(std::mem::take(&mut self.segments));
    }
}

impl std::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mbuf({} bytes, {} segs)",
            self.total_len(),
            self.segment_count()
        )
    }
}

#[cfg(test)]
impl Mbuf {
    /// True if any cluster in this chain is shared with another mbuf
    /// (so an in-place write would need copy-on-write).
    fn is_shared(&self) -> bool {
        self.segments
            .iter()
            .any(|s| Rc::strong_count(&s.cluster) > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(test)]
    fn allocs() -> u64 {
        ALLOCS.with(|a| a.get())
    }

    #[test]
    fn from_payload_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        let m = Mbuf::from_payload(LEADING_SPACE, &data);
        assert_eq!(m.total_len(), 256);
        assert_eq!(m.to_vec(), data);
        assert_eq!(m.pkthdr().unwrap().len, 256);
    }

    #[test]
    fn contiguous_borrows_a_single_cluster_and_copies_a_chain() {
        let mut scratch = vec![0xFF; 8];
        let small = Mbuf::from_payload(LEADING_SPACE, &[1, 2, 3]);
        assert_eq!(small.contiguous(&mut scratch), &[1, 2, 3]);
        assert_eq!(scratch, [0xFF; 8], "a one-cluster packet is read in place");

        let data: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let big = Mbuf::from_payload(LEADING_SPACE, &data);
        assert_eq!(big.contiguous(&mut scratch), &data[..]);
        assert_eq!(
            scratch, data,
            "a chain lands in the scratch, replacing what was there"
        );
    }

    #[test]
    fn large_payloads_span_clusters() {
        let data = vec![7u8; 5000];
        let m = Mbuf::from_payload(LEADING_SPACE, &data);
        assert!(m.segment_count() >= 3, "5000 B must span clusters");
        assert_eq!(m.to_vec(), data);
    }

    #[test]
    fn a_payload_in_pieces_builds_the_chain_its_concatenation_would() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let shape = |m: &Mbuf| {
            let segs: Vec<_> = m.segments.iter().map(|s| (s.off, s.len)).collect();
            (segs, m.to_vec())
        };
        for leading in [0, LEADING_SPACE + 20, MCLBYTES] {
            for len in [0, 1, 1900, 2048, 5000] {
                let whole = Mbuf::from_payload(leading, &data[..len]);
                for cut in [0, len / 3, len] {
                    let (a, b) = data[..len].split_at(cut);
                    let pieces = Mbuf::from_pieces(leading, len, [a, &[][..], b]);
                    assert_eq!(shape(&pieces), shape(&whole), "{leading} {len} {cut}");
                }
            }
        }
    }

    #[test]
    fn taking_a_chain_leaves_a_husk_the_pool_does_not_keep() {
        let mut m = Mbuf::from_payload(LEADING_SPACE, &[5; 300]);
        let taken = m.take();
        assert_eq!((m.total_len(), taken.total_len()), (0, 300));
        let chains = || POOL.with(|p| p.borrow().chains.len());
        let before = chains();
        drop(m);
        assert_eq!(chains(), before, "no zero-capacity chain handed out later");
        drop(taken);
        assert_eq!(chains(), before + 1);
    }

    #[test]
    fn prepend_uses_leading_space_without_allocating() {
        let m0 = Mbuf::from_payload(LEADING_SPACE, &[1, 2, 3]);
        let before = allocs();
        let mut m = m0;
        let hdr = m.prepend(14);
        hdr.copy_from_slice(&[9u8; 14]);
        assert_eq!(
            allocs(),
            before,
            "prepend into leading space must not allocate"
        );
        assert_eq!(m.total_len(), 17);
        assert_eq!(&m.to_vec()[..14], &[9u8; 14]);
        assert_eq!(&m.to_vec()[14..], &[1, 2, 3]);
    }

    #[test]
    fn prepend_without_room_chains_a_header_mbuf() {
        let mut m = Mbuf::from_payload(0, &[1, 2, 3]);
        let before_segs = m.segment_count();
        m.prepend(20).copy_from_slice(&[8u8; 20]);
        assert_eq!(m.segment_count(), before_segs + 1);
        assert_eq!(m.total_len(), 23);
        assert_eq!(&m.to_vec()[..20], &[8u8; 20]);
    }

    #[test]
    fn trim_front_walks_segments() {
        let data: Vec<u8> = (0..100).collect();
        let mut m = Mbuf::from_payload(0, &data);
        m.prepend(10).fill(0xEE);
        m.trim_front(10);
        assert_eq!(m.to_vec(), data);
        m.trim_front(60);
        assert_eq!(m.to_vec(), (60..100).collect::<Vec<u8>>());
    }

    #[test]
    fn trim_back_shortens() {
        let mut m = Mbuf::from_payload(0, &[1, 2, 3, 4, 5]);
        m.trim_back(2);
        assert_eq!(m.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "trim_front past end")]
    fn trim_front_past_end_panics() {
        let mut m = Mbuf::from_payload(0, &[1]);
        m.trim_front(2);
    }

    #[test]
    fn pullup_makes_headers_contiguous() {
        // Build a packet whose first segment holds only 2 bytes.
        let mut m = Mbuf::from_payload(0, &[3, 4, 5, 6, 7]);
        m.prepend(2).copy_from_slice(&[1, 2]);
        assert!(m.head().len() < 7);
        assert!(m.pullup(7));
        assert!(m.head().len() >= 7);
        assert_eq!(&m.head()[..7], &[1, 2, 3, 4, 5, 6, 7]);
        assert!(!m.pullup(100), "pullup past end must fail");
    }

    #[test]
    fn share_is_zero_copy_and_write_is_cow() {
        let m = Mbuf::from_payload(LEADING_SPACE, &[1, 2, 3, 4]);
        let mut shared = m.share();
        assert!(m.is_shared());
        assert!(shared.is_shared());
        // Writing through the share must not disturb the original.
        assert!(shared.write_at(0, &[9, 9]));
        assert_eq!(shared.to_vec(), vec![9, 9, 3, 4]);
        assert_eq!(m.to_vec(), vec![1, 2, 3, 4]);
        // After CoW the share owns its cluster.
        assert!(!shared.is_shared());
    }

    #[test]
    fn read_and_write_at_cross_segments() {
        let data: Vec<u8> = (0..=255).cycle().take(4096).map(|x| x as u8).collect();
        let mut m = Mbuf::from_payload(0, &data);
        assert!(m.segment_count() >= 2);
        let mut buf = [0u8; 100];
        assert!(m.read_at(2000, &mut buf));
        assert_eq!(&buf[..], &data[2000..2100]);
        assert!(m.write_at(2040, &[0xAB; 8]));
        let mut check = [0u8; 8];
        m.read_at(2040, &mut check);
        assert_eq!(check, [0xAB; 8]);
        assert!(!m.read_at(4090, &mut buf), "read past end must fail");
        assert!(!m.write_at(4090, &[0u8; 100]), "write past end must fail");
    }

    #[test]
    fn range_shares_clusters() {
        let data: Vec<u8> = (0u16..3000).map(|x| x as u8).collect();
        let m = Mbuf::from_payload(0, &data);
        let before = allocs();
        let part = m.range(100, 2500);
        assert_eq!(allocs(), before, "range must not copy");
        assert_eq!(part.to_vec(), &data[100..2600]);
        assert_eq!(part.pkthdr().unwrap().len, 2500);
    }

    #[test]
    fn append_concatenates_chains() {
        let mut a = Mbuf::from_payload(0, &[1, 2]);
        let b = Mbuf::from_payload(0, &[3, 4, 5]);
        a.append(b);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 4, 5]);
        assert_eq!(a.stamp_pkthdr(), 5);
    }

    #[test]
    fn empty_packet_accepts_prepends() {
        let mut m = Mbuf::empty();
        assert!(m.is_empty());
        m.prepend(8).copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.total_len(), 8);
        assert_eq!(m.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn rcvif_survives_sharing() {
        let mut m = Mbuf::from_wire(&[1, 2, 3]);
        m.pkthdr_mut().rcvif = Some(2);
        let s = m.share();
        assert_eq!(s.pkthdr().unwrap().rcvif, Some(2));
    }

    #[test]
    fn copy_into_matches_to_vec_across_segments() {
        let data: Vec<u8> = (0..=255).cycle().take(4500).map(|x| x as u8).collect();
        let m = Mbuf::from_payload(LEADING_SPACE, &data);
        assert!(m.segment_count() >= 2);
        let mut out = Vec::new();
        m.copy_into(0, m.total_len(), &mut out);
        assert_eq!(out, m.to_vec());
        out.clear();
        m.copy_into(1000, 2000, &mut out);
        assert_eq!(out, &data[1000..3000]);
        // Appending: copy_into must not clobber what's already there.
        let mut out = vec![0xFF];
        m.copy_into(0, 4, &mut out);
        assert_eq!(out, vec![0xFF, data[0], data[1], data[2], data[3]]);
    }

    #[test]
    #[should_panic(expected = "copy_into out of bounds")]
    fn copy_into_past_end_panics() {
        let m = Mbuf::from_payload(0, &[1, 2, 3]);
        let mut out = Vec::new();
        m.copy_into(2, 2, &mut out);
    }

    #[test]
    fn dropped_clusters_are_recycled_and_reused() {
        reset_cluster_pool();
        let m = Mbuf::from_payload(LEADING_SPACE, &[7u8; 32]);
        let before = allocs();
        drop(m);
        assert_eq!(cluster_pool_stats().recycled, 1);
        // The next same-class allocation comes from the free list, zeroed.
        let m2 = Mbuf::from_payload(LEADING_SPACE, &[0u8; 8]);
        assert_eq!(allocs(), before, "reuse must not hit the heap");
        assert_eq!(cluster_pool_stats().reused, 1);
        assert_eq!(m2.to_vec(), vec![0u8; 8]);
        // And no stale bytes from the previous tenant are visible.
        let mut probe = Mbuf::from_payload(0, &[0u8; 0]);
        drop(m2);
        probe.prepend(4).copy_from_slice(&[0, 0, 0, 0]);
        assert_eq!(probe.to_vec(), vec![0u8; 4]);
    }

    #[test]
    fn shared_clusters_are_never_handed_out_while_a_holder_is_live() {
        reset_cluster_pool();
        let m = Mbuf::from_payload(LEADING_SPACE, &[9u8; 16]);
        let holder = m.share();
        drop(m);
        // The cluster is still referenced: it must NOT enter the pool.
        assert_eq!(cluster_pool_stats().recycled, 0);
        assert_eq!(cluster_pool_stats().shared_at_drop, 1);
        let before = allocs();
        let fresh = Mbuf::from_payload(LEADING_SPACE, &[1u8; 4]);
        assert_eq!(allocs(), before + 1, "allocation must be fresh");
        // The live holder's bytes are untouched.
        assert_eq!(holder.to_vec(), vec![9u8; 16]);
        drop(fresh);
        drop(holder); // Last reference: now it recycles.
        assert_eq!(cluster_pool_stats().recycled, 2);
    }

    #[test]
    fn pooled_and_unpooled_runs_build_identical_packets() {
        let build = || {
            let mut m = Mbuf::from_payload(
                LEADING_SPACE,
                &(0..200).map(|x| x as u8).collect::<Vec<u8>>(),
            );
            m.prepend(8).copy_from_slice(&[0xAA; 8]);
            m.trim_front(3);
            m.trim_back(5);
            let r = m.range(10, 100);
            let mut out = m.to_vec();
            out.extend(r.to_vec());
            out
        };
        reset_cluster_pool();
        let pooled: Vec<Vec<u8>> = (0..8).map(|_| build()).collect();
        let was = set_cluster_pool_enabled(false);
        let unpooled: Vec<Vec<u8>> = (0..8).map(|_| build()).collect();
        set_cluster_pool_enabled(was);
        assert_eq!(pooled, unpooled, "pooling must not change packet bytes");
    }

    #[test]
    fn steady_state_churn_performs_zero_allocations_after_warmup() {
        reset_cluster_pool();
        let churn = || {
            let mut m = Mbuf::from_payload(LEADING_SPACE, &[0x42u8; 512]);
            m.prepend(42).fill(0x11);
            m.trim_front(42);
            drop(m);
        };
        churn(); // Warmup populates the free lists.
        let before = allocs();
        for _ in 0..100 {
            churn();
        }
        assert_eq!(allocs(), before, "steady-state churn must recycle");
        assert!(cluster_pool_stats().reused >= 100);
    }

    /// Chain vectors the pool holds.
    fn retained_chains() -> usize {
        POOL.with(|p| p.borrow().chains.len())
    }

    #[test]
    fn a_chain_vector_is_recycled_unless_it_outgrew_its_slots() {
        reset_cluster_pool();
        let data: Vec<u8> = (0..65_536u32).map(|i| (i % 251) as u8).collect();
        let big = Mbuf::from_payload(0, &data);
        assert_eq!(big.segment_count(), 32);
        assert_eq!(big.to_vec(), data);
        drop(big);
        assert_eq!(retained_chains(), 0, "a 32-slot vector goes to the heap");
        assert_eq!(cluster_pool_stats().recycled, 32, "its clusters do not");

        let small = Mbuf::from_payload(LEADING_SPACE, &[7u8; 3000]);
        let shared = small.share();
        assert_eq!(small.segment_count(), 2);
        drop(small);
        assert_eq!(retained_chains(), 1);
        // The next chain is built in the recycled vector and holds exactly
        // its own segments: nothing of the previous tenant's shows.
        let fresh = Mbuf::from_payload(LEADING_SPACE, &[1, 2, 3]);
        assert_eq!(retained_chains(), 0);
        assert_eq!(fresh.segment_count(), 1);
        assert_eq!(fresh.to_vec(), [1, 2, 3]);
        assert_eq!(shared.to_vec(), [7u8; 3000]);
        let part = shared.range(2900, 100);
        assert_eq!((part.segment_count(), part.to_vec()), (1, vec![7u8; 100]));
    }

    #[test]
    fn a_disabled_pool_retains_no_chain_vector() {
        reset_cluster_pool();
        drop(Mbuf::from_payload(0, &[1u8; 16]));
        assert_eq!(retained_chains(), 1);
        let was = set_cluster_pool_enabled(false);
        assert_eq!(retained_chains(), 0, "disabling drops the free lists");
        let m = Mbuf::from_payload(0, &[1u8; 16]);
        drop(m.share());
        drop(m);
        assert_eq!(retained_chains(), 0);
        set_cluster_pool_enabled(was);
    }

    #[test]
    fn disabled_pool_neither_recycles_nor_reuses() {
        reset_cluster_pool();
        let was = set_cluster_pool_enabled(false);
        let m = Mbuf::from_payload(0, &[1u8; 16]);
        drop(m);
        let before = allocs();
        let _m2 = Mbuf::from_payload(0, &[2u8; 16]);
        assert_eq!(allocs(), before + 1);
        assert_eq!(cluster_pool_stats().recycled, 0);
        assert_eq!(cluster_pool_stats().reused, 0);
        set_cluster_pool_enabled(was);
    }
}
