//! # plexus-trace — deterministic flight recorder
//!
//! Observability substrate for the simulated Plexus stack. Everything here
//! is driven by the *simulated* clock (integer nanoseconds), never the host
//! clock, so two runs of the same scenario produce bit-identical traces and
//! byte-identical exported JSON.
//!
//! Pieces:
//!
//! * a bounded, preallocated [`Ring`] of [`TraceRecord`]s — the flight
//!   recorder proper. Records are `Copy` (strings are interned to
//!   [`Label`]s up front), so pushing an event on the packet hot path
//!   allocates nothing once the recorder is warm;
//! * a [`Registry`] of monotonic counters keyed by `(scope, label, metric)`
//!   plus fixed-bucket log2 [`Histogram`]s over nanoseconds — the superset
//!   that backs the dispatcher's `DispatchStats`;
//! * a [`Recorder`] tying both together with the per-packet ID generator
//!   that `sim::nic` stamps on arrival and the dispatcher threads through
//!   handler invocations;
//! * exporters: [`export::chrome_trace`] (Chrome `trace_event` JSON, load
//!   it at `chrome://tracing` or <https://ui.perfetto.dev>) and
//!   [`export::stats_json`] (compact machine-readable stats), plus a tiny
//!   JSON well-formedness checker ([`json::validate`]) used by tests and
//!   the `plexus-bench` CLI to self-check output.
//!
//! The recorder is plumbed as an `Option<Rc<Recorder>>` hung off the
//! simulated CPU/NIC/engine — **not** a global — so instrumented code pays
//! one `Option` test when tracing is off.
//!
//! The seven fold and export modules ([`export`], [`flame`], [`journey`],
//! [`json`], [`live`], [`profile`], [`timeline`]) stay public because the
//! host-clock benchmark (`perf/`) imports items by their module paths; the
//! recorder, registry, ring and loss vocabulary are private modules whose
//! items the root re-exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flame;
pub mod journey;
pub mod json;
pub mod live;
pub mod profile;
pub mod timeline;

mod loss;
mod recorder;
mod registry;
mod ring;

pub use loss::{Loss, Outcome};
pub use recorder::{Label, Name, Recorder};
pub use registry::{CounterKey, Histogram, Registry, Scope};
pub use ring::Ring;

/// Which flavour of guard the dispatcher evaluated: every guard is a
/// statically verified program now, so there is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuardKind {
    /// A statically verified filter-IR program.
    Verified,
}

impl GuardKind {
    /// Stable lowercase name, used in counter metrics and exports.
    pub fn name(self) -> &'static str {
        match self {
            GuardKind::Verified => "verified",
        }
    }
}

/// Direction of a user/kernel boundary crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrossDir {
    /// User space trapping or copying into the kernel.
    UserToKernel,
    /// Kernel delivering or copying out to user space.
    KernelToUser,
}

impl CrossDir {
    /// Stable name, used in counter labels and exports.
    pub const fn name(self) -> &'static str {
        match self {
            CrossDir::UserToKernel => "user->kernel",
            CrossDir::KernelToUser => "kernel->user",
        }
    }
}

/// One thing that happened, without its timestamp/packet envelope.
///
/// The event vocabulary deliberately mirrors the paper's cost analysis:
/// every structural step that Figure 5 decomposes an RTT into is visible
/// here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame arrived at a NIC; `packet` in the envelope is the freshly
    /// assigned per-packet ID.
    PacketArrival {
        /// Interned NIC/device name.
        nic: Label,
        /// Interned name of the machine that owns the NIC (empty for NICs
        /// built outside a `World`).
        host: Label,
        /// Frame length in bytes.
        bytes: u32,
    },
    /// The dispatcher evaluated a guard on an event raise.
    GuardEval {
        /// Interned event (table) name.
        event: Label,
        /// Verified IR or native closure.
        kind: GuardKind,
        /// Whether the guard accepted (handler will run).
        matched: bool,
    },
    /// A handler began executing.
    HandlerEnter {
        /// Interned event (table) name.
        event: Label,
        /// Interned owning domain (extension or kernel subsystem).
        domain: Label,
        /// Span-correlation ID, unique per recorder. The matching
        /// [`TraceEvent::HandlerExit`] carries the same value, so the
        /// profiler can pair enter/exit records even when ring wraparound
        /// has dropped part of the stream.
        span: u64,
    },
    /// A handler finished executing.
    HandlerExit {
        /// Interned event (table) name.
        event: Label,
        /// Interned owning domain.
        domain: Label,
        /// Span-correlation ID matching the enter record.
        span: u64,
    },
    /// A packet (or handler) was dropped/terminated.
    Drop {
        /// Interned layer or subsystem that dropped it.
        layer: Label,
        /// Interned reason.
        reason: Label,
    },
    /// A frame was handed to a NIC's transmitter. Timestamped at the
    /// instant the driver finished its CPU work (`ready_at`); the wire
    /// costs that follow are carried as explicit durations so the profiler
    /// can account queueing, serialization, and propagation separately
    /// from CPU time.
    PacketTx {
        /// Interned NIC/device name.
        nic: Label,
        /// Interned name of the machine that owns the transmitting NIC
        /// (empty for NICs built outside a `World`). NIC names are shared
        /// across machines ("Ethernet" on both echo endpoints), so this is
        /// what lets the live tier attribute transmits per machine.
        host: Label,
        /// Frame length in bytes.
        bytes: u32,
        /// The portion of `wait_ns` spent queued behind this NIC's own
        /// transmit backlog (the tx ring / doorbell queue), as opposed to
        /// a busy half-duplex medium. Always `<= wait_ns`; the journey
        /// pass surfaces it as a `tx_queue` hop segment.
        queue_ns: u64,
        /// Time the frame waited for the transmitter (ring backlog or a
        /// busy half-duplex medium) before serialization started.
        wait_ns: u64,
        /// Serialization time on the wire.
        ser_ns: u64,
        /// One-way propagation to the receiving NIC(s).
        prop_ns: u64,
    },
    /// A receive interrupt fired on a NIC: `frames` frames are handed to
    /// the driver in one batch (always 1 on the per-frame path) and
    /// `ring_after` frames remain queued in the rx ring afterwards. The
    /// timeline folds these into per-window interrupt rates and rx-ring
    /// highwater marks.
    RxInterrupt {
        /// Interned NIC/device name.
        nic: Label,
        /// Interned name of the machine that took the interrupt (empty for
        /// NICs built outside a `World`).
        host: Label,
        /// Frames delivered by this interrupt.
        frames: u32,
        /// Frames still waiting in the rx ring after the batch was taken.
        ring_after: u32,
    },
    /// A latency observation, recorded into the named histogram *and* the
    /// ring so the timeline can compute per-window percentiles.
    LatencySample {
        /// Interned histogram name.
        hist: Label,
        /// The observed latency in nanoseconds.
        ns: u64,
    },
    /// A cancelable timer fired in the engine.
    TimerFire,
    /// A user/kernel boundary crossing (trap, copyin, copyout).
    Crossing {
        /// Direction of the crossing.
        dir: CrossDir,
        /// Bytes copied (0 for a plain trap).
        bytes: u32,
    },
}

/// A trace event with its envelope: simulated timestamp, a monotone
/// sequence number (proof of recording order), and the packet being
/// processed when it was recorded, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time in nanoseconds.
    pub at_ns: u64,
    /// Monotone per-recorder sequence number.
    pub seq: u64,
    /// Per-packet ID in flight when this was recorded.
    pub packet: Option<u64>,
    /// The journey (world-global causal packet chain) in flight when this
    /// was recorded. Unlike `packet`, which is re-assigned at every NIC
    /// arrival, the journey ID crosses the wire: a frame transmitted while
    /// processing journey `J` delivers as a new packet still tagged `J`,
    /// which is what lets [`journey`] stitch per-machine hop ledgers into
    /// one cross-machine waterfall.
    pub journey: Option<u64>,
    /// The event itself.
    pub event: TraceEvent,
}
