//! Network interface and shared-medium models.
//!
//! Three device profiles mirror the paper's testbed (§4): a 10 Mb/s LANCE
//! Ethernet, a 155 Mb/s Fore TCA-100 ATM adapter that uses programmed I/O
//! (so moving bytes costs *CPU* time — the reason the paper could not push
//! more than ~53 Mb/s through it), and a 45 Mb/s DEC T3 adapter with DMA.
//!
//! A [`Nic`] transmits scatter-gather buffers ([`TxBuf`] — the `net`
//! crate's mbuf chains implement it) onto a [`Medium`]: the adapter's
//! DMA engine gathers the chain's segments straight onto the wire, so the
//! host never flattens a packet to contiguous storage on send. The medium
//! models serialization at line rate, propagation, optional half-duplex
//! contention (the shared Ethernet segment), broadcast delivery to every
//! other attached NIC, and fault injection (drop/corrupt) for failure-path
//! testing. Frame *filtering* (MAC match) is the receiving driver's job,
//! exactly as on real hardware in non-promiscuous mode — the `net`/`core`
//! crates do that.
//!
//! Drivers bind to a NIC with [`Nic::attach`] and a [`DriverConfig`]
//! choosing the receive dispatch (per-frame interrupts or coalesced
//! batches) and the transmit submission mode (one doorbell per frame, or
//! batched doorbells that amortize the fixed per-transmit driver cost
//! across a burst — see [`Nic::tx_cpu_charge`]).
//!
//! # Who owns a frame
//!
//! The wire image [`Nic::transmit`] gathers into is a buffer drawn from a
//! bounded free list on the [`Medium`]. From then on it belongs to the
//! simulator: it rides in the engine's arrival event, waits on a receive
//! ring, sits in the NIC's batch vector — and the driver's handler only
//! *borrows* it (`&[u8]`, `&[RxFrame]`) for the length of the call,
//! copying what it keeps into its own storage (an mbuf, for the stacks).
//! When the handler returns, or the frame ends any other way — eaten by
//! the fault injector, shed by a full ring, arriving where no driver is
//! bound — the buffer goes back to the medium. A world in steady state
//! therefore moves frames between machines without touching the heap.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use plexus_trace::{Label, Loss, Name, Recorder, Scope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpu::Losses;
use crate::engine::{Engine, Event};
use crate::time::{SimDuration, SimTime};

/// A raw frame on the wire.
pub(crate) type Frame = Vec<u8>;

/// A scatter-gather transmit buffer: the driver-facing contract the
/// adapter's DMA engine reads from. The `net` crate's mbuf chains
/// implement this (the dependency points `net → sim`, so the NIC model
/// stays protocol-agnostic); a plain `Vec<u8>` is a one-segment buffer
/// for raw generators and tests.
pub trait TxBuf {
    /// Total bytes across all segments.
    fn total_len(&self) -> usize;
    /// Invokes `f` once per segment, in wire order.
    fn gather(&self, f: &mut dyn FnMut(&[u8]));
    /// Checksum-offload descriptor stamped by the stack, if any.
    fn tx_csum(&self) -> Option<TxCsum> {
        None
    }
}

impl TxBuf for Vec<u8> {
    fn total_len(&self) -> usize {
        self.len()
    }
    fn gather(&self, f: &mut dyn FnMut(&[u8])) {
        f(self);
    }
}

impl TxBuf for [u8] {
    fn total_len(&self) -> usize {
        self.len()
    }
    fn gather(&self, f: &mut dyn FnMut(&[u8])) {
        f(self);
    }
}

/// A transmit checksum the adapter fills during the DMA gather: the stack
/// leaves the 16-bit field zero and hands down this descriptor; the NIC
/// computes the Internet checksum (RFC 1071) over the tail of the frame,
/// seeded with the pseudo-header partial sum, and patches the field on the
/// way out. Offsets count from the frame *end* so link/network headers
/// prepended after stamping never invalidate them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxCsum {
    /// Distance from the frame end to the start of the summed region.
    pub start_from_end: usize,
    /// Distance from the frame end to the checksum field.
    pub field_from_end: usize,
    /// Pre-accumulated pseudo-header partial sum.
    pub pseudo: u32,
    /// UDP's zero-means-disabled rule: a computed 0 goes out as 0xFFFF.
    pub zero_to_ones: bool,
}

impl TxCsum {
    /// The adapter's checksum engine: folds the descriptor's region of the
    /// gathered wire image into the value to patch into the field.
    pub(crate) fn compute_over(&self, frame: &[u8]) -> u16 {
        let region = &frame[frame.len() - self.start_from_end..];
        let mut sum = self.pseudo;
        let mut chunks = region.chunks_exact(2);
        for ch in &mut chunks {
            sum += u16::from_be_bytes([ch[0], ch[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            sum += u16::from_be_bytes([*last, 0]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        let v = !(sum as u16);
        if v == 0 && self.zero_to_ones {
            0xFFFF
        } else {
            v
        }
    }
}

/// A received frame plus the journey tag that rode the wire with it.
///
/// The journey ID is simulator metadata carried *alongside* the bytes —
/// a real system would stash it in a trailer; keeping it out-of-band
/// leaves frame contents (and thus wire timing) untouched. It lets the
/// post-hoc journey pass stitch per-machine packet records into one
/// cross-machine hop ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RxFrame {
    /// The frame bytes as they arrived.
    pub bytes: Frame,
    /// End-to-end journey ID assigned at the originating transmit, if
    /// the sender had a flight recorder installed.
    pub journey: Option<u64>,
}

/// Static description of a network device model.
#[derive(Clone, Debug)]
pub struct NicProfile {
    /// Human-readable device name (appears in experiment output).
    pub name: &'static str,
    /// Line rate in bits per second.
    pub bits_per_sec: u64,
    /// Frames shorter than this are padded on the wire (Ethernet: 64 B).
    pub min_frame: usize,
    /// Extra serialized bytes per frame (preamble, SFD, trailer framing).
    pub frame_overhead: usize,
    /// Mandatory gap after each frame (Ethernet inter-frame gap).
    pub inter_frame_gap: SimDuration,
    /// Cell framing: `(payload_per_cell, bytes_on_wire_per_cell, trailer)`.
    /// ATM/AAL5: payload+trailer padded up to 48-byte cells of 53 wire bytes.
    pub cell: Option<(usize, usize, usize)>,
    /// Fixed driver CPU cost to transmit one frame.
    pub tx_fixed: SimDuration,
    /// Fixed driver CPU cost to receive one frame (excluding interrupt
    /// entry/exit, which the kernel charges).
    pub rx_fixed: SimDuration,
    /// Per-byte CPU cost of pushing data to the adapter (PIO devices).
    pub pio_write_per_byte: SimDuration,
    /// Per-byte CPU cost of pulling data from the adapter (PIO devices).
    pub pio_read_per_byte: SimDuration,
    /// Fixed CPU cost to set up a DMA transfer (DMA devices).
    pub dma_setup: SimDuration,
    /// Largest payload the device accepts in one frame.
    pub mtu: usize,
    /// Transmit-ring depth: frames whose backlog would exceed this many
    /// frame-times are dropped at the adapter (counted in
    /// [`NicStats::tx_ring_drops`]). Real rings are bounded; an offered
    /// load far above line rate must shed, not queue forever.
    pub tx_ring_frames: usize,
    /// Receive-ring depth (symmetric to `tx_ring_frames`), used only in
    /// coalesced mode: frames arriving while the driver is busy queue
    /// here; overflow sheds with the `rx_ring_drop` reason (counted in
    /// [`NicStats::rx_ring_drops`]) so overload degrades instead of
    /// queueing forever.
    pub rx_ring_frames: usize,
    /// Most frames one receive interrupt drains from the rx ring
    /// (coalesced mode).
    pub rx_batch: usize,
    /// Driver CPU cost for each frame *after the first* in a drained
    /// batch. The first frame of every interrupt pays the full
    /// `rx_fixed`; coalescing amortizes only the fixed part — per-byte
    /// PIO costs are still charged per frame.
    pub rx_per_frame: SimDuration,
    /// Most frames one transmit doorbell covers in doorbell mode
    /// ([`DriverConfig::doorbell`]). The first frame of a doorbell pays the full
    /// [`tx_cpu_cost`](Self::tx_cpu_cost); the rest pay only
    /// `tx_per_frame` (plus per-byte PIO) until the batch fills or the
    /// adapter drains.
    pub tx_batch: usize,
    /// Driver CPU cost for each frame *after the first* under an open
    /// transmit doorbell — descriptor writes only, no doorbell register
    /// write and no fresh DMA mapping.
    pub tx_per_frame: SimDuration,
    /// Transmit-completion coalescing delay: after a doorbell's last
    /// frame finishes, the adapter holds the completion interrupt this
    /// long, and descriptors enqueued before it fires ride the same
    /// doorbell. Zero means the doorbell closes the instant the wire
    /// drains (no completion coalescing).
    pub tx_coalesce: SimDuration,
    /// The adapter computes transport checksums during the DMA gather
    /// (`plexus_net::checksum::CsumOffload` descriptors stamped in the
    /// packet header are filled on the way out); the stack skips its
    /// software checksum pass when this is set.
    pub checksum_offload: bool,
    /// Largest segmentation-offload factor the device supports: the TCP
    /// layer may hand down super-segments of up to `mss * tso_segs` bytes
    /// for the driver to split at wire MSS. 1 = no TSO.
    pub tso_segs: usize,
}

impl NicProfile {
    /// The base value the presets refine: no framing overhead, zero fixed
    /// costs, DMA with free setup, 1500-byte MTU, 128-deep rings, batches
    /// of 16, no offloads.
    fn neutral() -> Self {
        NicProfile {
            name: "neutral",
            bits_per_sec: 10_000_000,
            min_frame: 0,
            frame_overhead: 0,
            inter_frame_gap: SimDuration::ZERO,
            cell: None,
            tx_fixed: SimDuration::ZERO,
            rx_fixed: SimDuration::ZERO,
            pio_write_per_byte: SimDuration::ZERO,
            pio_read_per_byte: SimDuration::ZERO,
            dma_setup: SimDuration::ZERO,
            mtu: 1500,
            tx_ring_frames: 128,
            rx_ring_frames: 128,
            rx_batch: 16,
            rx_per_frame: SimDuration::ZERO,
            tx_batch: 16,
            tx_per_frame: SimDuration::ZERO,
            tx_coalesce: SimDuration::ZERO,
            checksum_offload: false,
            tso_segs: 1,
        }
    }

    /// The stock 10 Mb/s LANCE Ethernet with the (slow) DIGITAL UNIX driver
    /// both systems shared in the paper.
    pub fn ethernet_lance() -> Self {
        NicProfile {
            name: "Ethernet",
            bits_per_sec: 10_000_000,
            min_frame: 64,
            frame_overhead: 8,
            inter_frame_gap: SimDuration::from_nanos(9_600),
            tx_fixed: SimDuration::from_micros(88),
            rx_fixed: SimDuration::from_micros(80),
            rx_per_frame: SimDuration::from_micros(10),
            tx_per_frame: SimDuration::from_micros(12),
            ..NicProfile::neutral()
        }
    }

    /// The "faster device driver" variant of §4.1 (337 µs Ethernet RTT).
    pub(crate) fn ethernet_fast_driver() -> Self {
        NicProfile {
            name: "Ethernet (fast driver)",
            tx_fixed: SimDuration::from_micros(32),
            rx_fixed: SimDuration::from_micros(31),
            rx_per_frame: SimDuration::from_micros(6),
            tx_per_frame: SimDuration::from_micros(7),
            ..NicProfile::ethernet_lance()
        }
    }

    /// The 155 Mb/s Fore TCA-100 ATM adapter. Programmed I/O: the CPU moves
    /// every byte, and TurboChannel reads are slow, capping reliable
    /// driver-to-driver transfers near the paper's 53 Mb/s.
    pub(crate) fn fore_atm_tca100() -> Self {
        NicProfile {
            name: "Fore ATM",
            bits_per_sec: 155_520_000,
            cell: Some((48, 53, 8)),
            tx_fixed: SimDuration::from_micros(50),
            rx_fixed: SimDuration::from_micros(58),
            pio_write_per_byte: SimDuration::from_nanos(40),
            pio_read_per_byte: SimDuration::from_nanos(133),
            mtu: 9180,
            rx_per_frame: SimDuration::from_micros(8),
            tx_per_frame: SimDuration::from_micros(9),
            ..NicProfile::neutral()
        }
    }

    /// The "faster device driver" ATM variant of §4.1 (241 µs RTT).
    pub(crate) fn fore_atm_fast_driver() -> Self {
        NicProfile {
            name: "Fore ATM (fast driver)",
            tx_fixed: SimDuration::from_micros(28),
            rx_fixed: SimDuration::from_micros(31),
            rx_per_frame: SimDuration::from_micros(6),
            tx_per_frame: SimDuration::from_micros(7),
            ..NicProfile::fore_atm_tca100()
        }
    }

    /// The experimental 45 Mb/s DEC T3 adapter; DMA, minimal CPU.
    pub fn dec_t3() -> Self {
        NicProfile {
            name: "DEC T3",
            bits_per_sec: 45_000_000,
            frame_overhead: 4,
            tx_fixed: SimDuration::from_micros(45),
            rx_fixed: SimDuration::from_micros(48),
            dma_setup: SimDuration::from_micros(8),
            mtu: 4470,
            rx_per_frame: SimDuration::from_micros(6),
            tx_per_frame: SimDuration::from_micros(7),
            ..NicProfile::neutral()
        }
    }

    /// 1 Gb/s Ethernet with checksum offload and TSO: at this line rate
    /// the host only keeps up when doorbell batching amortizes the fixed
    /// per-frame driver cost and the adapter absorbs the checksum pass.
    pub fn gigabit() -> Self {
        NicProfile {
            name: "Gigabit Ethernet",
            bits_per_sec: 1_000_000_000,
            min_frame: 64,
            frame_overhead: 8,
            inter_frame_gap: SimDuration::from_nanos(96),
            tx_fixed: SimDuration::from_micros(12),
            rx_fixed: SimDuration::from_micros(6),
            dma_setup: SimDuration::from_micros(4),
            tx_ring_frames: 512,
            rx_ring_frames: 512,
            rx_batch: 64,
            rx_per_frame: SimDuration::from_micros(1),
            tx_batch: 64,
            tx_per_frame: SimDuration::from_micros(1),
            tx_coalesce: SimDuration::from_micros(64),
            checksum_offload: true,
            tso_segs: 8,
            ..NicProfile::neutral()
        }
    }

    /// Bytes actually serialized on the wire for a `len`-byte frame.
    pub(crate) fn wire_bytes(&self, len: usize) -> usize {
        match self.cell {
            Some((payload, wire, trailer)) => {
                let cells = (len + trailer).div_ceil(payload).max(1);
                cells * wire
            }
            None => len.max(self.min_frame) + self.frame_overhead,
        }
    }

    /// Time to clock a `len`-byte frame onto the wire (including the
    /// inter-frame gap).
    pub fn serialize(&self, len: usize) -> SimDuration {
        let bits = self.wire_bytes(len) as u128 * 8;
        let ns = bits * 1_000_000_000 / self.bits_per_sec as u128;
        SimDuration::from_nanos(ns as u64) + self.inter_frame_gap
    }

    /// CPU cost the sending driver pays for a `len`-byte frame.
    pub fn tx_cpu_cost(&self, len: usize) -> SimDuration {
        self.tx_fixed + self.dma_setup + self.pio_write_per_byte.times(len as u64)
    }

    /// CPU cost the receiving driver pays for a `len`-byte frame.
    pub fn rx_cpu_cost(&self, len: usize) -> SimDuration {
        self.rx_fixed + self.pio_read_per_byte.times(len as u64)
    }

    /// CPU cost for one frame of a coalesced batch. The first frame of an
    /// interrupt pays the full [`rx_cpu_cost`](Self::rx_cpu_cost); later
    /// frames pay only `rx_per_frame` plus the per-byte PIO tax (bytes
    /// still have to cross the bus once per frame).
    pub fn rx_cpu_cost_coalesced(&self, len: usize, first: bool) -> SimDuration {
        if first {
            self.rx_cpu_cost(len)
        } else {
            self.rx_per_frame + self.pio_read_per_byte.times(len as u64)
        }
    }
}

/// One LAN segment's device configuration: the argument triple of
/// [`crate::World::connect`].
#[derive(Clone, Debug)]
pub struct Link {
    /// Device model.
    pub profile: NicProfile,
    /// One-way propagation (includes any switch hop).
    pub propagation: SimDuration,
    /// Shared-segment (half-duplex) medium.
    pub half_duplex: bool,
}

impl Link {
    /// The paper's private Ethernet segment.
    pub fn ethernet() -> Link {
        Link {
            profile: NicProfile::ethernet_lance(),
            propagation: SimDuration::from_micros(1),
            half_duplex: true,
        }
    }

    /// The paper's Fore ATM through a ForeRunner switch.
    pub fn atm() -> Link {
        Link {
            profile: NicProfile::fore_atm_tca100(),
            propagation: SimDuration::from_micros(10),
            half_duplex: false,
        }
    }

    /// The paper's T3 adapters connected back-to-back.
    pub fn t3() -> Link {
        Link {
            profile: NicProfile::dec_t3(),
            propagation: SimDuration::from_micros(2),
            half_duplex: false,
        }
    }

    /// Ethernet with the "faster device driver" of §4.1.
    pub fn ethernet_fast() -> Link {
        Link {
            profile: NicProfile::ethernet_fast_driver(),
            ..Link::ethernet()
        }
    }

    /// ATM with the "faster device driver" of §4.1.
    pub fn atm_fast() -> Link {
        Link {
            profile: NicProfile::fore_atm_fast_driver(),
            ..Link::atm()
        }
    }

    /// 1 Gb/s switched Ethernet with checksum and segmentation offload.
    pub fn gigabit() -> Link {
        Link {
            profile: NicProfile::gigabit(),
            propagation: SimDuration::from_micros(1),
            half_duplex: false,
        }
    }
}

/// Fault injection knobs for a [`Medium`]. Deterministic: seeded RNG.
pub struct FaultInjector {
    drop_prob: f64,
    corrupt_prob: f64,
    rng: RefCell<StdRng>,
}

impl FaultInjector {
    /// A fault-free injector.
    pub fn none() -> Self {
        FaultInjector::new(0.0, 0.0, 0)
    }

    /// Drops each frame with `drop_prob`, corrupts one byte with
    /// `corrupt_prob`, using a deterministic RNG seeded with `seed`.
    pub fn new(drop_prob: f64, corrupt_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob) && (0.0..=1.0).contains(&corrupt_prob));
        FaultInjector {
            drop_prob,
            corrupt_prob,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Applies faults to `frame`. Returns `false` if the frame is dropped.
    fn apply(&self, frame: &mut Frame) -> bool {
        let mut rng = self.rng.borrow_mut();
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            return false;
        }
        if self.corrupt_prob > 0.0 && !frame.is_empty() && rng.gen::<f64>() < self.corrupt_prob {
            let idx = rng.gen_range(0..frame.len());
            frame[idx] ^= 0xFF;
        }
        true
    }
}

/// One captured frame (see [`Medium::start_capture`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedFrame {
    /// When serialization onto the wire completed.
    pub at: SimTime,
    /// The frame bytes as transmitted (before fault injection).
    pub bytes: Frame,
}

/// Most retired wire images a [`Medium`] keeps for reuse; beyond this a
/// returned buffer is freed, so a burst that had hundreds of frames in
/// flight at once cannot pin their memory.
const WIRE_POOL_CAP: usize = 64;

/// A broadcast domain connecting two or more NICs.
///
/// A point-to-point link is a medium with two members; a shared Ethernet
/// segment is a half-duplex medium with many.
pub struct Medium {
    propagation: SimDuration,
    half_duplex: bool,
    busy_until: Cell<SimTime>,
    members: RefCell<Vec<Weak<Nic>>>,
    faults: RefCell<FaultInjector>,
    capture: RefCell<Option<Vec<CapturedFrame>>>,
    /// Retired wire images: empty, capacity as last used. Kept here, not
    /// per thread, so the buffers die with their world.
    wire_pool: RefCell<Vec<Frame>>,
}

impl Medium {
    /// Creates an empty medium. `propagation` covers wire flight time plus
    /// any switch latency (the paper's ForeRunner ATM switch adds a hop).
    pub fn new(propagation: SimDuration, half_duplex: bool) -> Rc<Medium> {
        Rc::new(Medium {
            propagation,
            half_duplex,
            busy_until: Cell::new(SimTime::ZERO),
            members: RefCell::new(Vec::new()),
            faults: RefCell::new(FaultInjector::none()),
            capture: RefCell::new(None),
            wire_pool: RefCell::new(Vec::new()),
        })
    }

    /// Starts capturing every frame that crosses this medium — the
    /// simulated world's `tcpdump`. Frames are recorded as transmitted,
    /// before fault injection, with their serialization-complete timestamp.
    pub fn start_capture(&self) {
        *self.capture.borrow_mut() = Some(Vec::new());
    }

    /// Stops capturing and returns the frames recorded so far.
    pub fn stop_capture(&self) -> Vec<CapturedFrame> {
        self.capture.borrow_mut().take().unwrap_or_default()
    }

    /// Installs a fault injector (replacing any previous one).
    pub fn set_faults(&self, f: FaultInjector) {
        *self.faults.borrow_mut() = f;
    }

    /// Frames dropped by fault injection so far: each one is counted by
    /// the NIC that sent it.
    pub fn fault_drops(&self) -> u64 {
        let members = self.members.borrow();
        let nics = members.iter().filter_map(Weak::upgrade);
        nics.map(|nic| nic.losses.get(Loss::FaultInjected as usize))
            .sum()
    }

    fn attach(self: &Rc<Self>, nic: &Rc<Nic>) {
        self.members.borrow_mut().push(Rc::downgrade(nic));
    }

    /// An empty buffer to assemble a wire image in: a retired one when
    /// there is one.
    fn take_wire(&self) -> Frame {
        self.wire_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// A frame's life is over, however it ended: its buffer comes back.
    fn recycle(&self, mut frame: Frame) {
        let mut pool = self.wire_pool.borrow_mut();
        if pool.len() < WIRE_POOL_CAP {
            frame.clear();
            pool.push(frame);
        }
    }
}

/// Receive callback: invoked (via the engine) when a frame arrives. The
/// frame is lent for the call; the driver copies what it keeps.
pub(crate) type RxHandler = Rc<dyn Fn(&mut Engine, &[u8])>;

/// Batched receive callback (coalesced mode): one interrupt lends the
/// driver every frame drained from the rx ring. Returns the instant the
/// driver finished its CPU work for the whole batch — the NIC stays
/// "busy" until then, so frames arriving in the meantime queue on the
/// ring instead of raising their own interrupts.
///
/// Per-frame recorder bookkeeping ([`Recorder::packet_arrival`] /
/// `packet_done`) is the glue's responsibility in this mode, because only
/// the glue knows when each frame's CPU work actually starts.
pub(crate) type RxBatchHandler = Rc<dyn Fn(&mut Engine, &[RxFrame]) -> SimTime>;

/// How a driver wants frames handed up from the adapter.
#[derive(Clone)]
pub(crate) enum RxDispatch {
    /// Transmit-only attachment: arriving frames count as unhandled.
    None,
    /// One interrupt (and one handler call) per frame.
    PerFrame(RxHandler),
    /// Interrupt coalescing: frames arriving while the driver is busy
    /// queue on the bounded rx ring and drain in batches.
    Coalesced(RxBatchHandler),
}

/// How the driver submits transmit work to the adapter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum TxSubmit {
    /// Every frame pays the full fixed transmit cost (doorbell write +
    /// DMA mapping). The historical behavior.
    #[default]
    PerFrame,
    /// Doorbell batching: while the adapter is still draining earlier
    /// frames, follow-on frames join the open doorbell and pay only
    /// [`NicProfile::tx_per_frame`], up to [`NicProfile::tx_batch`]
    /// frames per doorbell. See [`Nic::tx_cpu_charge`].
    Doorbell,
}

/// Everything a driver binds to a NIC: receive dispatch and transmit
/// submission. Built fluently:
///
/// ```ignore
/// nic.attach(DriverConfig::per_frame(|eng, frame| { .. }));
/// nic.attach(DriverConfig::coalesced(|eng, frames| { .. }).doorbell());
/// ```
pub struct DriverConfig {
    rx: RxDispatch,
    tx: TxSubmit,
}

impl DriverConfig {
    /// Per-frame receive interrupts: one interrupt, and one call of
    /// `handler`, per frame.
    pub fn per_frame<F>(handler: F) -> DriverConfig
    where
        F: Fn(&mut Engine, &[u8]) + 'static,
    {
        DriverConfig {
            rx: RxDispatch::PerFrame(Rc::new(handler)),
            tx: TxSubmit::PerFrame,
        }
    }

    /// Coalesced receive batches: `handler` takes every frame one
    /// interrupt drains from the receive ring, and returns when its work
    /// ends.
    pub fn coalesced<F>(handler: F) -> DriverConfig
    where
        F: Fn(&mut Engine, &[RxFrame]) -> SimTime + 'static,
    {
        DriverConfig {
            rx: RxDispatch::Coalesced(Rc::new(handler)),
            tx: TxSubmit::PerFrame,
        }
    }

    /// A transmit-only binding (traffic generators, sinks).
    pub fn tx_only() -> DriverConfig {
        DriverConfig {
            rx: RxDispatch::None,
            tx: TxSubmit::PerFrame,
        }
    }

    /// Switches transmit submission to doorbell batching.
    pub fn doorbell(mut self) -> DriverConfig {
        self.tx = TxSubmit::Doorbell;
        self
    }
}

/// Counters a NIC keeps about its own traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames handed to the wire.
    pub tx_frames: u64,
    /// Wire bytes serialized (includes padding/framing/cell tax).
    pub tx_wire_bytes: u64,
    /// Frames delivered to the receive handler.
    pub rx_frames: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
    /// Frames that arrived with no receive handler installed.
    pub rx_no_handler: u64,
    /// Frames rejected because they exceeded the MTU.
    pub tx_oversize: u64,
    /// Frames dropped because the transmit ring was full.
    pub tx_ring_drops: u64,
    /// Frames shed because the receive ring was full (coalesced mode).
    pub rx_ring_drops: u64,
    /// Receive interrupts taken. In per-frame mode this equals
    /// `rx_frames`; with coalescing it is the number of ring drains.
    pub rx_interrupts: u64,
    /// Highest rx-ring occupancy observed (coalesced mode).
    pub rx_ring_highwater: u64,
    /// Transmit doorbells rung ([`DriverConfig::doorbell`] mode): each one
    /// paid the full fixed cost; `tx_frames - tx_doorbells` frames rode
    /// along for only [`NicProfile::tx_per_frame`].
    pub tx_doorbells: u64,
    /// Frames whose transport checksum the adapter filled during the DMA
    /// gather (a `plexus_net::checksum::CsumOffload` descriptor was
    /// stamped in the packet header).
    pub tx_csum_offloads: u64,
}

/// A simulated network interface attached to one [`Medium`].
pub struct Nic {
    profile: NicProfile,
    medium: Rc<Medium>,
    tx_free_at: Cell<SimTime>,
    tx_submit: Cell<TxSubmit>,
    /// Frames charged under the currently-open doorbell (doorbell mode).
    tx_doorbell_count: Cell<usize>,
    /// When the open doorbell closes: the coalesced completion interrupt
    /// fires `tx_coalesce` after the batch's last frame leaves the wire.
    tx_doorbell_until: Cell<SimTime>,
    /// The bound receive dispatch. Cloned out for each call, so a handler
    /// that rebinds the NIC doesn't alias the borrow.
    rx: RefCell<RxDispatch>,
    rx_ring: RefCell<VecDeque<RxFrame>>,
    /// The vector a coalesced interrupt's frames are lent to the driver
    /// in: taken for each interrupt, put back emptied.
    rx_batch_vec: RefCell<Vec<RxFrame>>,
    /// The names this NIC records under, each with its label in the
    /// installed recorder: the device's, the owning machine's (empty when
    /// unattached), and the batch-size histogram's.
    name: Name,
    host: RefCell<Name>,
    rx_batch_hist: Name,
    rx_busy_until: Cell<SimTime>,
    rx_drain_pending: Cell<bool>,
    stats: Cell<NicStats>,
    /// The adapter's losses, by reason; [`Nic::stats`] reads its share.
    losses: Losses,
    recorder: RefCell<Option<Rc<Recorder>>>,
    id: usize,
}

impl Nic {
    /// Creates a NIC and attaches it to `medium`.
    pub fn new(profile: NicProfile, medium: &Rc<Medium>) -> Rc<Nic> {
        let id = medium.members.borrow().len();
        let nic = Rc::new(Nic {
            name: Name::new(profile.name),
            host: RefCell::new(Name::new("")),
            rx_batch_hist: Name::new("nic.rx_frames_per_interrupt"),
            profile,
            medium: medium.clone(),
            tx_free_at: Cell::new(SimTime::ZERO),
            tx_submit: Cell::new(TxSubmit::PerFrame),
            tx_doorbell_count: Cell::new(0),
            tx_doorbell_until: Cell::new(SimTime::ZERO),
            rx: RefCell::new(RxDispatch::None),
            rx_ring: RefCell::new(VecDeque::new()),
            rx_batch_vec: RefCell::new(Vec::new()),
            rx_busy_until: Cell::new(SimTime::ZERO),
            rx_drain_pending: Cell::new(false),
            stats: Cell::new(NicStats::default()),
            losses: Losses::default(),
            recorder: RefCell::new(None),
            id,
        });
        medium.attach(&nic);
        nic
    }

    /// The device profile.
    pub fn profile(&self) -> &NicProfile {
        &self.profile
    }

    /// Traffic counters.
    pub fn stats(&self) -> NicStats {
        let lost = |loss: Loss| self.losses.get(loss as usize);
        NicStats {
            rx_no_handler: lost(Loss::RxNoHandler),
            tx_oversize: lost(Loss::TxOversize),
            tx_ring_drops: lost(Loss::TxRingFull),
            rx_ring_drops: lost(Loss::RxRingDrop),
            ..self.stats.get()
        }
    }

    fn bump(&self, f: impl FnOnce(&mut NicStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Names the machine this NIC is plugged into ([`crate::World`] does
    /// this on connect). The name rides into every arrival record so
    /// post-hoc journey reconstruction can label hops by machine.
    pub(crate) fn set_host(&self, host: &str) {
        *self.host.borrow_mut() = Name::new(host.to_string());
    }

    /// This NIC's and its machine's labels in `rec`.
    fn labels(&self, rec: &Recorder) -> (Label, Label) {
        (self.name.label(rec), self.host.borrow().label(rec))
    }

    /// Records the arrival of a `len`-byte frame on this NIC, as
    /// [`Recorder::packet_arrival`] — for the coalesced receive glue, which
    /// stamps each frame of a batch when its CPU work starts.
    pub fn record_arrival(&self, rec: &Recorder, at_ns: u64, len: usize, journey: Option<u64>) {
        let (nic, host) = self.labels(rec);
        rec.packet_arrival(at_ns, nic, host, len, journey);
    }

    /// Installs (or removes) a flight recorder. On delivery the NIC
    /// assigns each frame a fresh per-packet ID and records the arrival;
    /// adapter-level drops are recorded with their reason.
    pub fn set_recorder(&self, recorder: Option<Rc<Recorder>>) {
        *self.recorder.borrow_mut() = recorder;
    }

    /// Counts a frame lost for `loss` at `now`, and records it under this
    /// NIC's name if a recorder is installed.
    fn lose(&self, now: SimTime, loss: Loss) {
        self.losses.count(loss as usize);
        if let Some(rec) = self.recorder.borrow().as_ref() {
            rec.lose(now.as_nanos(), loss, Some(self.name.label(rec)));
        }
    }

    /// Binds a driver to this NIC: installs the receive dispatch (or
    /// none, for transmit-only users) and the transmit submission mode,
    /// replacing any previous binding. This is the one entry point for
    /// driver configuration.
    pub fn attach(&self, config: DriverConfig) {
        *self.rx.borrow_mut() = config.rx;
        self.tx_submit.set(config.tx);
        self.tx_doorbell_count.set(0);
    }

    /// Driver CPU cost to submit one `len`-byte frame under the current
    /// transmit mode — what the stack charges its [`crate::cpu::CpuLease`]
    /// before calling [`Nic::transmit`].
    ///
    /// Per-frame submission always pays the full
    /// [`NicProfile::tx_cpu_cost`]. Doorbell submission
    /// ([`DriverConfig::doorbell`]) pays it only
    /// when a new doorbell must be rung — the adapter has drained its
    /// backlog (`tx_free_at <= now`) or the open doorbell already covers
    /// [`NicProfile::tx_batch`] frames; otherwise the frame joins the open
    /// doorbell for [`NicProfile::tx_per_frame`] plus the per-byte PIO
    /// tax (bytes still cross the bus once per frame).
    pub fn tx_cpu_charge(&self, now: SimTime, len: usize) -> SimDuration {
        match self.tx_submit.get() {
            TxSubmit::PerFrame => self.profile.tx_cpu_cost(len),
            TxSubmit::Doorbell => {
                let doorbell_closed = self.tx_doorbell_until.get() <= now;
                let batch_full = self.tx_doorbell_count.get() >= self.profile.tx_batch.max(1);
                if doorbell_closed || batch_full {
                    self.tx_doorbell_count.set(1);
                    self.bump(|s| s.tx_doorbells += 1);
                    self.tx_doorbell_until.set(now + self.profile.tx_coalesce);
                    self.profile.tx_cpu_cost(len)
                } else {
                    self.tx_doorbell_count.set(self.tx_doorbell_count.get() + 1);
                    self.profile.tx_per_frame + self.profile.pio_write_per_byte.times(len as u64)
                }
            }
        }
    }

    /// Hands a scatter-gather buffer (an mbuf chain, via [`TxBuf`]) to the
    /// adapter at `ready_at` (when the driver finished its CPU work) and
    /// returns the instant serialization will complete.
    ///
    /// This is the scatter-gather transmit path: the adapter's DMA engine
    /// walks the chain's segments and serializes them directly onto the
    /// wire — the host never copies the packet into contiguous storage.
    /// If the buffer carries a checksum-offload descriptor ([`TxCsum`],
    /// stamped by a stack that saw [`NicProfile::checksum_offload`]), the
    /// adapter computes the Internet checksum during the gather and
    /// patches the field on the way out, so the wire bytes match a
    /// software-checksummed frame exactly.
    ///
    /// The frame is broadcast to every other NIC on the medium after
    /// serialization plus propagation. Frames larger than the MTU are
    /// counted and discarded — the stack is responsible for fragmentation.
    pub fn transmit<B: TxBuf + ?Sized>(
        &self,
        engine: &mut Engine,
        ready_at: SimTime,
        chain: &B,
    ) -> SimTime {
        if chain.total_len() > self.profile.mtu + 64 {
            // A little slack for link headers over the payload MTU. Checked
            // before the gather, so a refused chain is never copied.
            self.lose(engine.now(), Loss::TxOversize);
            return ready_at;
        }
        // The gather happens on the adapter: this buffer models the byte
        // stream the DMA engine assembles on the wire, not a host-side
        // flatten (it costs no simulated CPU time and no mbuf clusters).
        let mut frame = self.medium.take_wire();
        frame.reserve(chain.total_len());
        chain.gather(&mut |seg| frame.extend_from_slice(seg));
        if let Some(req) = chain.tx_csum() {
            let v = req.compute_over(&frame);
            let field = frame.len() - req.field_from_end;
            frame[field..field + 2].copy_from_slice(&v.to_be_bytes());
            self.bump(|s| s.tx_csum_offloads += 1);
        }
        self.transmit_frame(engine, ready_at, frame)
    }

    /// The tail of [`Nic::transmit`]: the gathered wire image, already
    /// known to fit the MTU, goes out verbatim.
    fn transmit_frame(&self, engine: &mut Engine, ready_at: SimTime, mut frame: Frame) -> SimTime {
        let backlog_until = self.tx_free_at.get();
        let mut start = backlog_until.max(ready_at).max(engine.now());
        if self.medium.half_duplex {
            start = start.max(self.medium.busy_until.get());
        }
        let ser = self.profile.serialize(frame.len());
        // Bounded transmit ring: if the backlog ahead of this frame exceeds
        // the ring depth (in frame-times of this frame), the adapter drops.
        let base = ready_at.max(engine.now());
        let backlog = start.saturating_since(base);
        if !ser.is_zero()
            && backlog.as_nanos() / ser.as_nanos().max(1) >= self.profile.tx_ring_frames as u64
        {
            self.lose(engine.now(), Loss::TxRingFull);
            self.medium.recycle(frame);
            return start;
        }
        let end = start + ser;
        self.tx_free_at.set(end);
        if self.tx_submit.get() == TxSubmit::Doorbell {
            // The batch's completion interrupt is re-armed by every frame:
            // it fires `tx_coalesce` after the last descriptor drains, and
            // the doorbell stays open until then.
            let until = (end + self.profile.tx_coalesce).max(self.tx_doorbell_until.get());
            self.tx_doorbell_until.set(until);
        }
        if self.medium.half_duplex {
            self.medium.busy_until.set(end);
        }
        self.bump(|s| {
            s.tx_frames += 1;
            s.tx_wire_bytes += self.profile.wire_bytes(frame.len()) as u64;
        });

        // The journey ID crosses the wire with the frame: inherited from
        // the packet being forwarded, or freshly allocated when this NIC
        // originates the traffic outside any packet context.
        let journey = self.recorder.borrow().as_ref().map(|rec| rec.tx_journey());
        if let Some(rec) = self.recorder.borrow().as_ref() {
            // Stamped at ready_at — the last instant of driver CPU work —
            // so it stays monotone within the packet's record stream; the
            // wire phases ride along as durations. The slice of the wait
            // spent behind this NIC's own transmit backlog is attributed
            // separately so journeys can show a `tx_queue` hop.
            let wait = start.saturating_since(ready_at);
            let queue = backlog_until
                .saturating_since(base)
                .as_nanos()
                .min(wait.as_nanos());
            let (nic, host) = self.labels(rec);
            rec.packet_tx(
                ready_at.as_nanos(),
                nic,
                host,
                frame.len(),
                queue,
                wait.as_nanos(),
                ser.as_nanos(),
                self.medium.propagation.as_nanos(),
                journey,
            );
        }

        if let Some(cap) = self.medium.capture.borrow_mut().as_mut() {
            cap.push(CapturedFrame {
                at: end,
                bytes: frame.clone(),
            });
        }
        if !self.medium.faults.borrow().apply(&mut frame) {
            self.lose(end, Loss::FaultInjected);
            self.medium.recycle(frame);
            return end;
        }
        let arrival = end + self.medium.propagation;
        // One buffer per frame on a two-NIC link: the last peer takes the
        // wire image itself, only the peers before it get copies.
        let members = self.medium.members.borrow();
        let mut peers = members
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|n| n.id != self.id);
        let Some(mut to) = peers.next() else {
            self.medium.recycle(frame);
            return end;
        };
        for next in peers {
            let mut copy = self.medium.take_wire();
            copy.extend_from_slice(&frame);
            let event = Event::FrameArrival {
                to,
                frame: copy,
                journey,
            };
            engine.schedule_event(arrival, event);
            to = next;
        }
        engine.schedule_event(arrival, Event::FrameArrival { to, frame, journey });
        end
    }

    /// A frame reached the host but nobody will process it: counted as
    /// `loss`, and given a packet ID when recorded, so the drop lands in
    /// the recorder's per-packet vocabulary instead of surfacing as an
    /// orphaned record.
    fn drop_unprocessed(&self, now: SimTime, len: usize, journey: Option<u64>, loss: Loss) {
        let rec = self.recorder.borrow().clone();
        if let Some(rec) = &rec {
            self.record_arrival(rec, now.as_nanos(), len, journey);
        }
        self.lose(now, loss);
        if let Some(rec) = &rec {
            rec.packet_done();
        }
    }

    /// The engine's `FrameArrival` event: `frame` reaches this NIC.
    pub(crate) fn deliver(
        self: &Rc<Self>,
        engine: &mut Engine,
        frame: Frame,
        journey: Option<u64>,
    ) {
        if matches!(*self.rx.borrow(), RxDispatch::Coalesced(_)) {
            self.deliver_coalesced(engine, frame, journey);
            return;
        }
        let rx = self.rx.borrow().clone();
        let RxDispatch::PerFrame(h) = rx else {
            self.drop_unprocessed(engine.now(), frame.len(), journey, Loss::RxNoHandler);
            self.medium.recycle(frame);
            return;
        };
        self.bump(|s| {
            s.rx_frames += 1;
            s.rx_bytes += frame.len() as u64;
            s.rx_interrupts += 1;
        });
        // Assign the per-packet ID here, at the moment the frame reaches
        // the host: everything the rx chain records until it returns is
        // attributed to this packet. Per-frame mode is one interrupt per
        // frame with nothing ever queued.
        let rec = self.recorder.borrow().clone();
        if let Some(rec) = &rec {
            let (nic, host) = self.labels(rec);
            rec.rx_interrupt(engine.now().as_nanos(), nic, host, 1, 0);
            rec.packet_arrival(engine.now().as_nanos(), nic, host, frame.len(), journey);
        }
        h(engine, &frame);
        if let Some(rec) = &rec {
            rec.packet_done();
        }
        self.medium.recycle(frame);
    }

    /// Coalesced-mode delivery: interrupt immediately when the driver is
    /// idle, otherwise queue on the bounded rx ring (shedding with the
    /// `rx_ring_drop` reason on overflow).
    fn deliver_coalesced(self: &Rc<Self>, engine: &mut Engine, frame: Frame, journey: Option<u64>) {
        let now = engine.now();
        let driver_busy = now < self.rx_busy_until.get()
            || self.rx_drain_pending.get()
            || !self.rx_ring.borrow().is_empty();
        if !driver_busy {
            let mut batch = self.rx_batch_vec.take();
            batch.push(RxFrame {
                bytes: frame,
                journey,
            });
            self.run_rx_interrupt(engine, batch);
            return;
        }
        let occupancy = {
            let mut ring = self.rx_ring.borrow_mut();
            if ring.len() >= self.profile.rx_ring_frames {
                drop(ring);
                self.drop_unprocessed(now, frame.len(), journey, Loss::RxRingDrop);
                self.medium.recycle(frame);
                return;
            }
            ring.push_back(RxFrame {
                bytes: frame,
                journey,
            });
            ring.len() as u64
        };
        let highwater = self.stats.get().rx_ring_highwater;
        if occupancy > highwater {
            let delta = occupancy - highwater;
            self.bump(|s| s.rx_ring_highwater = occupancy);
            // Exported as a counter that only ever grows up to the
            // high-water mark, so its value *is* the high-water mark.
            if let Some(rec) = self.recorder.borrow().as_ref() {
                rec.count(
                    Scope::Packet,
                    self.name.label(rec),
                    "rx.ring_highwater",
                    delta,
                );
            }
        }
        if !self.rx_drain_pending.get() {
            self.rx_drain_pending.set(true);
            let at = self.rx_busy_until.get().max(now);
            engine.schedule_event(at, Event::RxDrain(self.clone()));
        }
    }

    /// The engine's `RxDrain` event: the driver is free, so up to
    /// `rx_batch` queued frames go up in one interrupt.
    pub(crate) fn drain_rx_ring(self: &Rc<Self>, engine: &mut Engine) {
        self.rx_drain_pending.set(false);
        if self.rx_ring.borrow().is_empty() {
            return;
        }
        let mut batch = self.rx_batch_vec.take();
        {
            let mut ring = self.rx_ring.borrow_mut();
            let n = ring.len().min(self.profile.rx_batch.max(1));
            batch.extend(ring.drain(..n));
        }
        self.run_rx_interrupt(engine, batch);
    }

    /// Takes one receive interrupt for `frames` (this NIC's batch vector,
    /// filled), lends them to the batch handler, and reschedules a drain
    /// if the ring refilled while the driver worked. Then the wire images
    /// go back to the medium and the vector back to the NIC.
    fn run_rx_interrupt(self: &Rc<Self>, engine: &mut Engine, mut frames: Vec<RxFrame>) {
        let rx = self.rx.borrow().clone();
        let RxDispatch::Coalesced(h) = rx else {
            // Mode switched away mid-flight: no driver hears these frames,
            // nor whatever still waits on the ring behind them (no drain
            // will come for it), so none is counted as handed to a driver.
            frames.extend(self.rx_ring.borrow_mut().drain(..));
            for f in frames.drain(..) {
                let (len, journey) = (f.bytes.len(), f.journey);
                self.drop_unprocessed(engine.now(), len, journey, Loss::RxNoHandler);
                self.medium.recycle(f.bytes);
            }
            *self.rx_batch_vec.borrow_mut() = frames;
            return;
        };
        self.bump(|s| {
            s.rx_interrupts += 1;
            s.rx_frames += frames.len() as u64;
            s.rx_bytes += frames.iter().map(|f| f.bytes.len() as u64).sum::<u64>();
        });
        if let Some(rec) = self.recorder.borrow().as_ref() {
            let (nic, host) = self.labels(rec);
            rec.count(Scope::Packet, nic, "rx.interrupts", 1);
            if frames.len() > 1 {
                rec.count(
                    Scope::Packet,
                    nic,
                    "rx.coalesced_frames",
                    frames.len() as u64 - 1,
                );
            }
            rec.record_latency(self.rx_batch_hist.label(rec), frames.len() as u64);
            // Ring record for the windowed timeline: how many frames this
            // interrupt drained, and how many were still queued behind it.
            rec.rx_interrupt(
                engine.now().as_nanos(),
                nic,
                host,
                frames.len(),
                self.rx_ring.borrow().len(),
            );
        }
        let done = h(engine, &frames).max(engine.now());
        self.rx_busy_until.set(done);
        if !self.rx_ring.borrow().is_empty() && !self.rx_drain_pending.get() {
            self.rx_drain_pending.set(true);
            engine.schedule_event(done, Event::RxDrain(self.clone()));
        }
        for f in frames.drain(..) {
            self.medium.recycle(f.bytes);
        }
        *self.rx_batch_vec.borrow_mut() = frames;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn ethernet_pads_small_frames() {
        let p = NicProfile::ethernet_lance();
        assert_eq!(p.wire_bytes(10), 64 + 8);
        assert_eq!(p.wire_bytes(100), 100 + 8);
        // 72 wire bytes at 10 Mb/s = 57.6 us + 9.6 us IFG.
        assert_eq!(p.serialize(10).as_nanos(), 57_600 + 9_600);
    }

    #[test]
    fn atm_rounds_to_cells() {
        let p = NicProfile::fore_atm_tca100();
        // 8 B payload + 8 B trailer = 16 -> 1 cell of 53 wire bytes.
        assert_eq!(p.wire_bytes(8), 53);
        // 48 B payload + 8 trailer = 56 -> 2 cells.
        assert_eq!(p.wire_bytes(48), 106);
        assert_eq!(p.wire_bytes(0), 53);
    }

    #[test]
    fn atm_pio_costs_cpu_per_byte() {
        let p = NicProfile::fore_atm_tca100();
        let small = p.rx_cpu_cost(8);
        let big = p.rx_cpu_cost(8192);
        assert_eq!((big - small).as_nanos(), 133 * (8192 - 8));
    }

    #[test]
    fn t3_dma_costs_are_length_independent() {
        let p = NicProfile::dec_t3();
        assert_eq!(p.tx_cpu_cost(8), p.tx_cpu_cost(4000));
    }

    fn two_nics(profile: NicProfile, prop: SimDuration, half: bool) -> (Rc<Nic>, Rc<Nic>) {
        let medium = Medium::new(prop, half);
        (
            Nic::new(profile.clone(), &medium),
            Nic::new(profile, &medium),
        )
    }

    #[test]
    fn frame_arrives_after_serialization_and_propagation() {
        let (a, b) = two_nics(NicProfile::dec_t3(), us(2), false);
        let got: Rc<StdRefCell<Vec<(u64, usize)>>> = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        b.attach(DriverConfig::per_frame(move |eng, f| {
            g.borrow_mut().push((eng.now().as_micros(), f.len()));
        }));
        let mut engine = Engine::new();
        let ser_end = a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 450]);
        engine.run();
        // 454 wire bytes at 45 Mb/s = 80.711 us.
        assert_eq!(ser_end.as_nanos(), 454 * 8 * 1_000_000_000 / 45_000_000);
        let expected_us = (ser_end + us(2)).as_micros();
        assert_eq!(*got.borrow(), vec![(expected_us, 450)]);
    }

    #[test]
    fn back_to_back_frames_queue_on_the_adapter() {
        let (a, b) = two_nics(NicProfile::dec_t3(), SimDuration::ZERO, false);
        let arrivals: Rc<StdRefCell<Vec<u64>>> = Rc::new(StdRefCell::new(Vec::new()));
        let ar = arrivals.clone();
        b.attach(DriverConfig::per_frame(move |eng, _| {
            ar.borrow_mut().push(eng.now().as_nanos())
        }));
        let mut engine = Engine::new();
        let per_frame = a.profile().serialize(446).as_nanos();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 446]);
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 446]);
        engine.run();
        assert_eq!(*arrivals.borrow(), vec![per_frame, 2 * per_frame]);
    }

    #[test]
    fn half_duplex_medium_serializes_both_directions() {
        let (a, b) = two_nics(NicProfile::ethernet_lance(), SimDuration::ZERO, true);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        a.attach(DriverConfig::per_frame(|_, _| {}));
        let mut engine = Engine::new();
        let end_a = a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 100]);
        let end_b = b.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 100]);
        // B's frame must wait for A's to clear the shared segment.
        assert_eq!(end_b.as_nanos(), 2 * end_a.as_nanos());
        engine.run();
    }

    #[test]
    fn broadcast_reaches_all_other_members() {
        let medium = Medium::new(SimDuration::ZERO, true);
        let p = NicProfile::ethernet_lance();
        let a = Nic::new(p.clone(), &medium);
        let b = Nic::new(p.clone(), &medium);
        let c = Nic::new(p, &medium);
        let count = Rc::new(Cell::new(0u32));
        for nic in [&b, &c] {
            let cnt = count.clone();
            nic.attach(DriverConfig::per_frame(move |_, _| cnt.set(cnt.get() + 1)));
        }
        a.attach(DriverConfig::per_frame(|_, _| {
            panic!("sender must not hear its own frame")
        }));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![1, 2, 3]);
        engine.run();
        assert_eq!(count.get(), 2);
    }

    #[test]
    fn oversize_frames_are_counted_and_dropped() {
        let (a, b) = two_nics(NicProfile::ethernet_lance(), SimDuration::ZERO, false);
        b.attach(DriverConfig::per_frame(|_, _| {
            panic!("oversize frame must not be delivered")
        }));
        let mut engine = Engine::new();
        a.transmit(&mut engine, SimTime::ZERO, &[0u8; 4000][..]);
        engine.run();
        assert_eq!(a.stats().tx_oversize, 1);
        assert_eq!(a.stats().tx_frames, 0);
    }

    #[test]
    fn fault_injection_drops_deterministically() {
        let run = |seed: u64| -> u64 {
            let medium = Medium::new(SimDuration::ZERO, false);
            medium.set_faults(FaultInjector::new(0.5, 0.0, seed));
            let a = Nic::new(NicProfile::dec_t3(), &medium);
            let b = Nic::new(NicProfile::dec_t3(), &medium);
            let got = Rc::new(Cell::new(0u64));
            let g = got.clone();
            b.attach(DriverConfig::per_frame(move |_, _| g.set(g.get() + 1)));
            let mut engine = Engine::new();
            for _ in 0..100 {
                let at = engine.now();
                a.transmit_frame(&mut engine, at, vec![0u8; 64]);
                engine.run();
            }
            got.get()
        };
        let first = run(42);
        assert_eq!(first, run(42), "same seed must replay identically");
        assert!(first > 20 && first < 80, "drop rate wildly off: {first}");
    }

    #[test]
    fn corruption_flips_bytes_but_delivers() {
        let medium = Medium::new(SimDuration::ZERO, false);
        medium.set_faults(FaultInjector::new(0.0, 1.0, 7));
        let a = Nic::new(NicProfile::dec_t3(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        b.attach(DriverConfig::per_frame(move |_, f| {
            g.borrow_mut().push(f.to_vec())
        }));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0xAA; 32]);
        engine.run();
        let frames = got.borrow();
        assert_eq!(frames.len(), 1);
        assert_ne!(frames[0], vec![0xAA; 32]);
    }

    #[test]
    fn rx_without_handler_is_counted() {
        let (a, b) = two_nics(NicProfile::dec_t3(), SimDuration::ZERO, false);
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 10]);
        engine.run();
        assert_eq!(b.stats().rx_no_handler, 1);
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    #[test]
    fn flooded_adapter_sheds_after_the_ring_fills() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let mut profile = NicProfile::dec_t3();
        profile.tx_ring_frames = 8;
        let a = Nic::new(profile.clone(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        b.attach(DriverConfig::per_frame(move |_, _| d.set(d.get() + 1)));
        let mut engine = Engine::new();
        // Blast 100 equal frames at t=0: only ~ring-depth may queue.
        for _ in 0..100 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 1000]);
        }
        engine.run();
        let stats = a.stats();
        assert!(stats.tx_ring_drops >= 90, "drops: {}", stats.tx_ring_drops);
        assert_eq!(stats.tx_frames + stats.tx_ring_drops, 100);
        assert_eq!(delivered.get(), stats.tx_frames);
    }

    #[test]
    fn paced_traffic_never_drops() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let mut profile = NicProfile::dec_t3();
        profile.tx_ring_frames = 8;
        let a = Nic::new(profile.clone(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        let mut engine = Engine::new();
        let per_frame = profile.serialize(1000);
        for i in 0..100u64 {
            // Offered exactly at line rate.
            let at = SimTime::ZERO + per_frame.times(i);
            a.transmit_frame(&mut engine, at, vec![0u8; 1000]);
            engine.run();
        }
        assert_eq!(a.stats().tx_ring_drops, 0);
        assert_eq!(a.stats().tx_frames, 100);
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;
    use plexus_trace::TraceEvent;
    use std::cell::RefCell as StdRefCell;

    fn pair(profile: NicProfile) -> (Rc<Nic>, Rc<Nic>) {
        let medium = Medium::new(SimDuration::ZERO, false);
        (
            Nic::new(NicProfile::dec_t3(), &medium),
            Nic::new(profile, &medium),
        )
    }

    #[test]
    fn idle_driver_interrupts_immediately_per_frame() {
        let (a, b) = pair(NicProfile::dec_t3());
        let batches: Rc<StdRefCell<Vec<usize>>> = Rc::new(StdRefCell::new(Vec::new()));
        let bt = batches.clone();
        b.attach(DriverConfig::coalesced(move |eng, frames| {
            bt.borrow_mut().push(frames.len());
            eng.now() // instantly done: the driver is never busy
        }));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 500]);
        engine.run();
        let now = engine.now();
        a.transmit_frame(&mut engine, now, vec![0u8; 500]);
        engine.run();
        assert_eq!(*batches.borrow(), vec![1, 1]);
        assert_eq!(b.stats().rx_interrupts, 2);
        assert_eq!(b.stats().rx_frames, 2);
        assert_eq!(b.stats().rx_ring_highwater, 0, "ring never used");
    }

    #[test]
    fn busy_driver_coalesces_queued_frames_into_one_interrupt() {
        let (a, b) = pair(NicProfile::dec_t3());
        let batches: Rc<StdRefCell<Vec<usize>>> = Rc::new(StdRefCell::new(Vec::new()));
        let bt = batches.clone();
        b.attach(DriverConfig::coalesced(move |eng, frames| {
            bt.borrow_mut().push(frames.len());
            // Slow driver: 5 ms per interrupt regardless of batch size.
            eng.now() + SimDuration::from_micros(5_000)
        }));
        let mut engine = Engine::new();
        for _ in 0..9 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 1000]);
        }
        engine.run();
        // The first frame interrupts alone; the other eight arrive while
        // the driver is busy and drain in one coalesced interrupt.
        assert_eq!(*batches.borrow(), vec![1, 8]);
        let stats = b.stats();
        assert_eq!(stats.rx_interrupts, 2);
        assert_eq!(stats.rx_frames, 9);
        assert_eq!(stats.rx_ring_highwater, 8);
        assert_eq!(stats.rx_ring_drops, 0);
    }

    #[test]
    fn rx_batch_caps_frames_per_interrupt() {
        let mut profile = NicProfile::dec_t3();
        profile.rx_batch = 4;
        let (a, b) = pair(profile);
        let batches: Rc<StdRefCell<Vec<usize>>> = Rc::new(StdRefCell::new(Vec::new()));
        let bt = batches.clone();
        b.attach(DriverConfig::coalesced(move |eng, frames| {
            bt.borrow_mut().push(frames.len());
            eng.now() + SimDuration::from_micros(5_000)
        }));
        let mut engine = Engine::new();
        for _ in 0..9 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 1000]);
        }
        engine.run();
        assert_eq!(*batches.borrow(), vec![1, 4, 4]);
        assert_eq!(b.stats().rx_interrupts, 3);
    }

    #[test]
    fn overflowing_the_rx_ring_sheds_with_rx_ring_drop() {
        let mut profile = NicProfile::dec_t3();
        profile.rx_ring_frames = 4;
        profile.rx_batch = 4;
        let (a, b) = pair(profile);
        let rec = Recorder::new(4096);
        b.set_recorder(Some(rec.clone()));
        b.attach(DriverConfig::coalesced(move |eng, _| {
            eng.now() + SimDuration::from_micros(100_000)
        }));
        let mut engine = Engine::new();
        for _ in 0..20 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 1000]);
        }
        engine.run();
        let stats = b.stats();
        // One immediate interrupt, four queued, fifteen shed.
        assert_eq!(stats.rx_frames, 5);
        assert_eq!(stats.rx_ring_drops, 15);
        assert_eq!(stats.rx_ring_highwater, 4);
        // Every shed frame got its own packet ID and an attributed drop.
        let drops: Vec<_> = rec
            .events()
            .iter()
            .filter(|r| {
                matches!(&r.event, TraceEvent::Drop { reason, .. }
                    if &*rec.name(*reason) == "rx_ring_drop")
            })
            .map(|r| r.packet)
            .collect();
        assert_eq!(drops.len(), 15);
        assert!(drops.iter().all(Option::is_some), "drops must carry IDs");
    }

    #[test]
    fn coalesced_delivery_preserves_arrival_order() {
        let (a, b) = pair(NicProfile::dec_t3());
        let seen: Rc<StdRefCell<Vec<u8>>> = Rc::new(StdRefCell::new(Vec::new()));
        let s = seen.clone();
        b.attach(DriverConfig::coalesced(move |eng, frames| {
            for f in frames {
                s.borrow_mut().push(f.bytes[0]);
            }
            eng.now() + SimDuration::from_micros(1_000)
        }));
        let mut engine = Engine::new();
        for i in 0..12u8 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![i; 200]);
        }
        engine.run();
        let order = seen.borrow().clone();
        assert_eq!(order, (0..12).collect::<Vec<u8>>());
    }

    #[test]
    fn installing_a_plain_handler_switches_back_to_per_frame_mode() {
        let (a, b) = pair(NicProfile::dec_t3());
        b.attach(DriverConfig::coalesced(|eng, _| eng.now()));
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        b.attach(DriverConfig::per_frame(move |_, _| c.set(c.get() + 1)));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 100]);
        engine.run();
        assert_eq!(count.get(), 1);
        assert_eq!(b.stats().rx_interrupts, 1);
    }

    #[test]
    fn no_handler_drop_is_stamped_with_a_packet_id() {
        let (a, b) = pair(NicProfile::dec_t3());
        let rec = Recorder::new(256);
        b.set_recorder(Some(rec.clone()));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 64]);
        engine.run();
        assert_eq!(b.stats().rx_no_handler, 1);
        let events = rec.events();
        let arrival = events
            .iter()
            .find(|r| matches!(r.event, TraceEvent::PacketArrival { .. }))
            .expect("arrival recorded");
        let drop = events
            .iter()
            .find(|r| {
                matches!(&r.event, TraceEvent::Drop { reason, .. }
                    if &*rec.name(*reason) == "rx_no_handler")
            })
            .expect("drop recorded");
        assert!(arrival.packet.is_some());
        assert_eq!(drop.packet, arrival.packet, "drop attributed to the frame");
        assert_eq!(rec.current_packet(), None, "packet closed after the drop");
    }

    #[test]
    fn frames_queued_for_a_driver_that_detached_are_recorded_drops() {
        // A coalesced driver is busy while two more frames queue on the
        // ring, then detaches before the drain: the stranded frames are
        // counted *and* recorded, each under its own packet ID.
        let (a, b) = pair(NicProfile::dec_t3());
        let rec = Recorder::new(256);
        b.set_recorder(Some(rec.clone()));
        b.attach(DriverConfig::coalesced(|eng, _| {
            eng.now() + SimDuration::from_millis(1)
        }));
        let mut engine = Engine::new();
        for _ in 0..3 {
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 64]);
        }
        engine.run_for(SimDuration::from_micros(500));
        assert_eq!(b.stats().rx_interrupts, 1, "two frames wait on the ring");
        b.attach(DriverConfig::tx_only());
        engine.run();
        assert_eq!(b.stats().rx_no_handler, 2);
        let stats = b.stats();
        assert_eq!(
            (stats.rx_interrupts, stats.rx_frames),
            (1, 1),
            "no driver heard the stranded frames"
        );
        let events = rec.events();
        let dropped: Vec<_> = events
            .iter()
            .filter(|r| {
                matches!(&r.event, TraceEvent::Drop { reason, .. }
                    if &*rec.name(*reason) == "rx_no_handler")
            })
            .map(|r| r.packet.expect("drop stamped with a packet ID"))
            .collect();
        assert_eq!(dropped.len(), 2);
        assert_ne!(dropped[0], dropped[1]);
    }
}

#[cfg(test)]
mod wire_pool_tests {
    use super::*;

    /// Idle-time census of `medium`'s free list: how many buffers, and the
    /// smallest capacity among them.
    fn census(medium: &Medium) -> (usize, usize) {
        let pool = medium.wire_pool.borrow();
        let smallest = pool.iter().map(Vec::capacity).min().unwrap_or(0);
        (pool.len(), smallest)
    }

    #[test]
    fn every_way_a_frame_ends_returns_its_buffer_and_the_pool_is_bounded() {
        // Three members on one medium. `a` floods through an eight-deep
        // transmit ring; `b` coalesces behind a slow driver and a four-deep
        // receive ring, and now and then detaches with frames still queued;
        // `c` never binds a driver. Each frame `a` gets onto the wire is two
        // wire images, one per listener.
        let medium = Medium::new(SimDuration::ZERO, false);
        let flooder = NicProfile {
            tx_ring_frames: 8,
            ..NicProfile::dec_t3()
        };
        let slow = NicProfile {
            rx_ring_frames: 4,
            rx_batch: 2,
            ..NicProfile::dec_t3()
        };
        let a = Nic::new(flooder, &medium);
        let b = Nic::new(slow, &medium);
        let c = Nic::new(NicProfile::dec_t3(), &medium);
        let slow_driver =
            || DriverConfig::coalesced(|eng, _| eng.now() + SimDuration::from_micros(400));
        b.attach(slow_driver());
        let mut engine = Engine::new();
        let mut burst = |len: usize, detach: bool| {
            let payload = vec![0xA5u8; len];
            for _ in 0..16 {
                let now = engine.now();
                a.transmit(&mut engine, now, &payload[..]);
            }
            if detach {
                engine.run_for(SimDuration::from_micros(300));
                b.attach(DriverConfig::tx_only());
                engine.run();
                b.attach(slow_driver());
            } else {
                engine.run();
            }
        };

        // Warm-up, nothing lost on the wire, full-size frames: every buffer
        // these bursts will ever have in flight at once now exists, and each
        // has room for 1500 bytes — which marks it.
        for _ in 0..3 {
            burst(1500, false);
        }
        let (warm, smallest) = census(&medium);
        assert!((2..WIRE_POOL_CAP).contains(&warm), "{warm} buffers");
        assert!(smallest >= 1500);

        // 2 000 small frames over the same medium, now lossy. If any ending
        // dropped its buffer the census would come up one short, and the
        // fresh buffer that replaced it would be a small one.
        medium.set_faults(FaultInjector::new(0.3, 0.0, 9));
        for i in 0..125 {
            burst(64 + i, i % 5 == 4);
            let (idle, smallest) = census(&medium);
            assert_eq!(idle, warm, "burst {i}: the same buffers, all home");
            assert!(smallest >= 1500, "burst {i}: and none of them new");
        }
        // Every ending was among them.
        assert!(a.stats().tx_ring_drops > 500, "shed at the transmit ring");
        assert!(medium.fault_drops() > 100, "eaten by the fault injector");
        assert!(b.stats().rx_frames > 100, "handed to a driver");
        assert!(b.stats().rx_ring_drops > 100, "shed at the receive ring");
        assert!(
            b.stats().rx_no_handler > 10,
            "queued for a driver that left"
        );
        assert!(c.stats().rx_no_handler > 100, "arrived where none is bound");

        // A burst with more frames in flight at once than the free list
        // keeps: what comes back beyond the cap is freed.
        medium.set_faults(FaultInjector::none());
        for _ in 0..100 {
            let now = engine.now();
            c.transmit(&mut engine, now, &[0u8; 64][..]);
        }
        assert!(engine.pending() > 2 * WIRE_POOL_CAP);
        engine.run();
        assert_eq!(census(&medium).0, WIRE_POOL_CAP);
    }
}

#[cfg(test)]
mod tx_tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    /// A multi-segment scatter list with an optional checksum descriptor —
    /// what an mbuf chain looks like from the adapter's side of the API.
    struct Segs(Vec<Vec<u8>>, Option<TxCsum>);

    impl TxBuf for Segs {
        fn total_len(&self) -> usize {
            self.0.iter().map(Vec::len).sum()
        }
        fn gather(&self, f: &mut dyn FnMut(&[u8])) {
            for s in &self.0 {
                f(s);
            }
        }
        fn tx_csum(&self) -> Option<TxCsum> {
            self.1
        }
    }

    #[test]
    fn builder_defaults_are_neutral() {
        let p = NicProfile::neutral();
        assert_eq!(p.wire_bytes(100), 100, "no framing by default");
        assert_eq!(p.tx_cpu_cost(1000), SimDuration::ZERO);
        assert!(!p.checksum_offload);
        assert_eq!(p.tso_segs, 1);
    }

    #[test]
    fn presets_advertise_their_offloads() {
        assert!(NicProfile::gigabit().checksum_offload);
        assert!(NicProfile::gigabit().tso_segs > 1);
        assert!(!NicProfile::ethernet_lance().checksum_offload);
    }

    #[test]
    fn scatter_gather_matches_flattened_wire_bytes_and_stats() {
        let mk = || {
            let medium = Medium::new(SimDuration::ZERO, false);
            let a = Nic::new(NicProfile::gigabit(), &medium);
            let b = Nic::new(NicProfile::gigabit(), &medium);
            b.attach(DriverConfig::per_frame(|_, _| {}));
            medium.start_capture();
            (medium, a, b)
        };
        let parts: Vec<Vec<u8>> = vec![
            (0u8..14).collect(),
            (14u8..34).collect(),
            vec![0xAB; 301],
            vec![7; 1],
        ];
        let flat: Vec<u8> = parts.iter().flatten().copied().collect();

        let (m_sg, a_sg, b_sg) = mk();
        let mut engine = Engine::new();
        a_sg.transmit(&mut engine, SimTime::ZERO, &Segs(parts, None));
        engine.run();

        let (m_flat, a_flat, b_flat) = mk();
        let mut engine = Engine::new();
        a_flat.transmit_frame(&mut engine, SimTime::ZERO, flat);
        engine.run();

        assert_eq!(m_sg.stop_capture(), m_flat.stop_capture());
        assert_eq!(a_sg.stats(), a_flat.stats());
        assert_eq!(b_sg.stats(), b_flat.stats());
    }

    #[test]
    fn adapter_fills_the_deferred_checksum_during_the_gather() {
        // 20 bytes of "headers", then an 11-byte summed region whose
        // checksum field sits 2 bytes in, split across segments.
        let head: Vec<u8> = (0u8..20).collect();
        let tail: Vec<u8> = vec![0x11, 0x22, 0, 0, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB];
        let req = TxCsum {
            start_from_end: 11,
            field_from_end: 9,
            pseudo: 0x1234,
            zero_to_ones: false,
        };
        let mut flat: Vec<u8> = head.iter().chain(tail.iter()).copied().collect();
        let want = req.compute_over(&flat);
        assert_ne!(want, 0);
        let field = flat.len() - req.field_from_end;
        flat[field..field + 2].copy_from_slice(&want.to_be_bytes());

        let medium = Medium::new(SimDuration::ZERO, false);
        let a = Nic::new(NicProfile::gigabit(), &medium);
        let got: Rc<StdRefCell<Vec<Frame>>> = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        let b = Nic::new(NicProfile::gigabit(), &medium);
        b.attach(DriverConfig::per_frame(move |_, f| {
            g.borrow_mut().push(f.to_vec())
        }));
        let mut engine = Engine::new();
        a.transmit(
            &mut engine,
            SimTime::ZERO,
            &Segs(vec![head, tail], Some(req)),
        );
        engine.run();
        assert_eq!(*got.borrow(), vec![flat], "field patched on the way out");
        assert_eq!(a.stats().tx_csum_offloads, 1);
    }

    #[test]
    fn checksum_engine_applies_the_udp_zero_rule() {
        // A region summing to 0xFFFF folds to a checksum of 0.
        let region = [0xFFu8, 0xFF, 0, 0];
        let req = TxCsum {
            start_from_end: 4,
            field_from_end: 2,
            pseudo: 0,
            zero_to_ones: true,
        };
        assert_eq!(req.compute_over(&region), 0xFFFF);
        let tcp_like = TxCsum {
            zero_to_ones: false,
            ..req
        };
        assert_eq!(tcp_like.compute_over(&region), 0);
    }

    #[test]
    fn doorbell_mode_amortizes_the_fixed_charge_while_the_adapter_drains() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let a = Nic::new(NicProfile::gigabit(), &medium);
        let b = Nic::new(NicProfile::gigabit(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        a.attach(DriverConfig::tx_only().doorbell());
        let p = a.profile().clone();
        let full = p.tx_cpu_cost(1000);
        let cheap = p.tx_per_frame;
        assert!(cheap < full);
        let mut engine = Engine::new();
        // Adapter idle: the first frame rings a doorbell at full cost.
        assert_eq!(a.tx_cpu_charge(SimTime::ZERO, 1000), full);
        let mut ready = SimTime::ZERO + full;
        a.transmit_frame(&mut engine, ready, vec![0u8; 1000]);
        // While the adapter drains, follow-on frames join the doorbell.
        for _ in 0..3 {
            let charge = a.tx_cpu_charge(ready, 1000);
            assert_eq!(charge, cheap);
            ready += charge;
            a.transmit_frame(&mut engine, ready, vec![0u8; 1000]);
        }
        let stats = a.stats();
        assert_eq!(stats.tx_doorbells, 1);
        assert_eq!(stats.tx_frames, 4);
        engine.run();
        // Once the adapter has drained, the next frame rings a new one.
        let idle = engine.now() + SimDuration::from_micros(100);
        assert_eq!(a.tx_cpu_charge(idle, 1000), full);
        assert_eq!(a.stats().tx_doorbells, 2);
    }

    #[test]
    fn doorbell_batch_cap_forces_a_new_doorbell() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let mut p = NicProfile::gigabit();
        p.tx_batch = 2;
        let a = Nic::new(p.clone(), &medium);
        let b = Nic::new(NicProfile::gigabit(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        a.attach(DriverConfig::tx_only().doorbell());
        let mut engine = Engine::new();
        let full = p.tx_cpu_cost(500);
        // Keep the adapter busy the whole time with a long first frame.
        assert_eq!(a.tx_cpu_charge(SimTime::ZERO, 500), full);
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 1400]);
        let t = SimTime::ZERO + SimDuration::from_nanos(1);
        assert_eq!(a.tx_cpu_charge(t, 500), p.tx_per_frame, "joins doorbell");
        a.transmit_frame(&mut engine, t, vec![0u8; 500]);
        // Batch of 2 exhausted: the third frame pays full again.
        assert_eq!(a.tx_cpu_charge(t, 500), full);
        assert_eq!(a.stats().tx_doorbells, 2);
        engine.run();
    }

    #[test]
    fn per_frame_mode_always_pays_the_full_charge() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let a = Nic::new(NicProfile::gigabit(), &medium);
        let b = Nic::new(NicProfile::gigabit(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        a.attach(DriverConfig::tx_only());
        let p = a.profile().clone();
        let mut engine = Engine::new();
        for _ in 0..3 {
            assert_eq!(a.tx_cpu_charge(SimTime::ZERO, 800), p.tx_cpu_cost(800));
            a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 800]);
        }
        assert_eq!(
            a.stats().tx_doorbells,
            0,
            "doorbells only counted in doorbell mode"
        );
        engine.run();
    }

    #[test]
    fn attach_rebinds_between_per_frame_and_coalesced_dispatch() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let a = Nic::new(NicProfile::dec_t3(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        b.attach(DriverConfig::per_frame(move |_, _| c.set(c.get() + 1)));
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![0u8; 100]);
        engine.run();
        assert_eq!(count.get(), 1);
        // Re-attaching with a coalesced driver replaces the per-frame one.
        let batches = Rc::new(Cell::new(0u64));
        let bt = batches.clone();
        b.attach(DriverConfig::coalesced(move |eng, _| {
            bt.set(bt.get() + 1);
            eng.now()
        }));
        let now = engine.now();
        a.transmit_frame(&mut engine, now, vec![0u8; 100]);
        engine.run();
        assert_eq!(batches.get(), 1);
        assert_eq!(count.get(), 1, "old per-frame handler no longer fires");
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;

    #[test]
    fn capture_records_frames_in_wire_order_with_timestamps() {
        let medium = Medium::new(SimDuration::ZERO, false);
        let a = Nic::new(NicProfile::dec_t3(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {}));
        medium.start_capture();
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![1u8; 100]);
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![2u8; 100]);
        engine.run();
        let cap = medium.stop_capture();
        assert_eq!(cap.len(), 2);
        assert_eq!(cap[0].bytes[0], 1);
        assert_eq!(cap[1].bytes[0], 2);
        assert!(cap[1].at > cap[0].at, "wire order preserved");
        // Stopped: further traffic is not recorded.
        let now = engine.now();
        a.transmit_frame(&mut engine, now, vec![3u8; 100]);
        engine.run();
        assert!(medium.stop_capture().is_empty());
    }

    #[test]
    fn capture_sees_frames_the_fault_injector_later_eats() {
        let medium = Medium::new(SimDuration::ZERO, false);
        medium.set_faults(FaultInjector::new(1.0, 0.0, 3));
        let a = Nic::new(NicProfile::dec_t3(), &medium);
        let b = Nic::new(NicProfile::dec_t3(), &medium);
        b.attach(DriverConfig::per_frame(|_, _| {
            panic!("everything is dropped")
        }));
        medium.start_capture();
        let mut engine = Engine::new();
        a.transmit_frame(&mut engine, SimTime::ZERO, vec![9u8; 50]);
        engine.run();
        assert_eq!(medium.stop_capture().len(), 1, "the wire saw it");
    }
}
