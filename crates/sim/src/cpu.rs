//! CPU cost accounting.
//!
//! The paper's measurements were taken on DEC 3000/400 workstations (Alpha
//! 21064 @ 133 MHz). We do not emulate the ISA; instead, every architectural
//! operation the paper's analysis depends on — event dispatch, guard
//! evaluation, traps, user/kernel copies, context switches, protocol
//! processing, PIO — is assigned an explicit cost in a [`CostModel`].
//! A [`Cpu`] serializes that work and tracks busy time so experiments can
//! report utilization (Figure 6).
//!
//! Charging pattern: code that "runs on" a machine opens a [`CpuLease`] at
//! the current simulated instant, accumulates costs as it walks a path (e.g.
//! device → Ethernet → IP → UDP → application), and commits on drop. The
//! lease begins at `max(now, cpu.free_at)`, so concurrent activities on one
//! machine queue behind each other exactly like work on a single processor.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use plexus_trace::Recorder;

use crate::time::{SimDuration, SimTime};

/// Every tunable cost in the simulation, in one place.
///
/// Defaults ([`CostModel::alpha_3000_400`]) are calibrated so the simulated
/// end-to-end numbers land near the paper's (Figure 5's <600 µs Ethernet
/// UDP round trip, etc.). Individual constants are plausible for a 133 MHz
/// Alpha but are *model parameters*, not measurements; the ablation benches
/// sweep them to show which structural cost explains each result.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// One procedure call (the paper: handler invocation overhead is
    /// "roughly one procedure call").
    pub proc_call: SimDuration,
    /// Fixed cost of raising an event (dispatcher lookup).
    pub dispatch_raise: SimDuration,
    /// Per-handler cost of invoking a matching event handler.
    pub dispatch_handler: SimDuration,
    /// Per-guard cost of evaluating a guard predicate.
    pub guard_eval: SimDuration,
    /// One demux-index hash probe on an indexed raise. Calibrated equal to
    /// `guard_eval` (the index replaces N guard runs with one keyed
    /// lookup), but charged and counted separately so profiles can tell a
    /// probe from a real evaluation.
    pub demux_probe: SimDuration,
    /// Entering an interrupt context (vector + register save).
    pub interrupt_entry: SimDuration,
    /// Leaving an interrupt context.
    pub interrupt_exit: SimDuration,
    /// Creating a kernel thread to continue protocol processing
    /// (Figure 5's "thread" bars pay this per event).
    pub thread_spawn: SimDuration,
    /// Switching between threads or processes.
    pub context_switch: SimDuration,
    /// Waking a blocked user process and getting it scheduled
    /// (runs-queue latency, excluding the context switch itself).
    pub process_wakeup: SimDuration,
    /// A system-call trap, in and out (DIGITAL UNIX path only).
    pub syscall: SimDuration,
    /// Fixed cost of a user/kernel copy (setup, page checks).
    pub copy_fixed: SimDuration,
    /// Per-byte cost of a user/kernel or buffer-to-buffer copy.
    pub copy_per_byte: SimDuration,
    /// Per-byte cost of the Internet checksum.
    pub checksum_per_byte: SimDuration,
    /// Per-byte cost of a normal RAM write (video decompress output).
    pub ram_write_per_byte: SimDuration,
    /// Ethernet layer processing (header build/parse, no copy).
    pub eth_proc: SimDuration,
    /// IP layer processing (header, checksum over 20 B, routing).
    pub ip_proc: SimDuration,
    /// UDP layer processing excluding payload checksum.
    pub udp_proc: SimDuration,
    /// TCP segment processing (state machine, window bookkeeping).
    pub tcp_proc: SimDuration,
    /// ARP cache lookup on the send path.
    pub arp_lookup: SimDuration,
    /// Socket-layer bookkeeping per operation (sosend/soreceive).
    pub socket_layer: SimDuration,
    /// Handing a packet from the interrupt to the softirq/netisr queue and
    /// dispatching it there (monolithic stack only).
    pub softirq: SimDuration,
    /// Allocating an mbuf (chain head or cluster).
    pub mbuf_alloc: SimDuration,
    /// Per-byte cost of decompressing video in the client (§5.1).
    pub decompress_per_byte: SimDuration,
    /// Per-byte cost of writing to the framebuffer. The paper: "a factor of
    /// 10 times slower than writing to standard RAM".
    pub framebuffer_write_per_byte: SimDuration,
}

impl CostModel {
    /// Costs calibrated for the paper's DEC 3000/400 (Alpha 21064, 133 MHz).
    pub fn alpha_3000_400() -> Self {
        let ns = SimDuration::from_nanos;
        CostModel {
            proc_call: ns(150),
            dispatch_raise: ns(200),
            dispatch_handler: ns(400),
            guard_eval: ns(300),
            demux_probe: ns(300),
            interrupt_entry: ns(4_000),
            interrupt_exit: ns(2_000),
            thread_spawn: ns(12_000),
            context_switch: ns(40_000),
            process_wakeup: ns(70_000),
            syscall: ns(8_000),
            copy_fixed: ns(1_000),
            copy_per_byte: ns(10),
            checksum_per_byte: ns(8),
            ram_write_per_byte: ns(5),
            eth_proc: ns(3_000),
            ip_proc: ns(8_000),
            udp_proc: ns(4_000),
            tcp_proc: ns(15_000),
            arp_lookup: ns(1_000),
            socket_layer: ns(35_000),
            softirq: ns(12_000),
            mbuf_alloc: ns(800),
            decompress_per_byte: ns(12),
            framebuffer_write_per_byte: ns(50),
        }
    }

    /// Cost of copying `len` bytes across the user/kernel boundary (or
    /// between kernel buffers).
    pub fn copy(&self, len: usize) -> SimDuration {
        self.copy_fixed + self.copy_per_byte.times(len as u64)
    }

    /// Cost of checksumming `len` bytes.
    pub fn checksum(&self, len: usize) -> SimDuration {
        self.checksum_per_byte.times(len as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::alpha_3000_400()
    }
}

/// A single simulated processor.
///
/// Interior mutability (`Cell`) lets many `Rc<Cpu>` holders charge work
/// without threading `&mut` through the whole protocol stack; the simulation
/// is single-threaded, so this is race-free.
pub struct Cpu {
    model: CostModel,
    free_at: Cell<SimTime>,
    busy: Cell<SimDuration>,
    recorder: RefCell<Option<Rc<Recorder>>>,
}

impl Cpu {
    /// Creates an idle CPU with the given cost model.
    pub fn new(model: CostModel) -> Rc<Cpu> {
        Rc::new(Cpu {
            model,
            free_at: Cell::new(SimTime::ZERO),
            busy: Cell::new(SimDuration::ZERO),
            recorder: RefCell::new(None),
        })
    }

    /// Installs (or removes) a flight recorder. Every lease opened after
    /// this carries the recorder, so code charging this CPU can emit trace
    /// events without any extra plumbing.
    pub fn set_recorder(&self, recorder: Option<Rc<Recorder>>) {
        *self.recorder.borrow_mut() = recorder;
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<Rc<Recorder>> {
        self.recorder.borrow().clone()
    }

    /// The cost model this CPU charges with.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Instant at which all currently queued work completes.
    pub fn free_at(&self) -> SimTime {
        self.free_at.get()
    }

    /// Total busy time accumulated since the simulation began.
    pub fn busy(&self) -> SimDuration {
        self.busy.get()
    }

    /// Utilization over a window, given the busy reading taken at the
    /// window's start ([`Cpu::busy`]) and the window length.
    pub fn utilization(&self, busy_at_start: SimDuration, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        (self.busy() - busy_at_start).as_secs_f64() / window.as_secs_f64()
    }

    /// Opens a lease starting no earlier than `now` and no earlier than the
    /// completion of already-queued work.
    pub fn begin(self: &Rc<Self>, now: SimTime) -> CpuLease {
        let start = self.free_at.get().max(now);
        CpuLease {
            recorder: self.recorder.borrow().clone(),
            cpu: self.clone(),
            start,
            elapsed: SimDuration::ZERO,
            committed: false,
        }
    }

    /// Charges a self-contained chunk of work starting at `now` and returns
    /// its completion instant. Shorthand for begin/charge/finish.
    pub fn charge(self: &Rc<Self>, now: SimTime, cost: SimDuration) -> SimTime {
        let mut lease = self.begin(now);
        lease.charge(cost);
        lease.finish()
    }
}

/// An open stretch of CPU work.
///
/// Accumulate costs with [`CpuLease::charge`]; the current instant *within*
/// the work is [`CpuLease::now`]. Committing (explicitly via
/// [`CpuLease::finish`] or implicitly on drop) advances the CPU's
/// `free_at` and busy counters.
pub struct CpuLease {
    cpu: Rc<Cpu>,
    start: SimTime,
    elapsed: SimDuration,
    committed: bool,
    recorder: Option<Rc<Recorder>>,
}

impl CpuLease {
    /// The instant this lease's work began.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The simulated instant reached so far within this work.
    pub fn now(&self) -> SimTime {
        self.start + self.elapsed
    }

    /// Work accumulated so far.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Adds `cost` of CPU work.
    pub fn charge(&mut self, cost: SimDuration) {
        self.elapsed += cost;
    }

    /// Records the current accumulated work, for a later
    /// [`CpuLease::rollback_to`].
    pub fn mark(&self) -> SimDuration {
        self.elapsed
    }

    /// Rewinds accumulated work to a prior [`CpuLease::mark`] plus `cap`.
    ///
    /// Used by the dispatcher to model *termination* of an over-budget
    /// ephemeral handler (§3.3): a terminated handler only consumed its
    /// allotment, not the full cost it attempted to charge.
    ///
    /// # Panics
    ///
    /// Panics if the target exceeds the work already accumulated.
    pub fn rollback_to(&mut self, mark: SimDuration, cap: SimDuration) {
        let target = mark + cap;
        assert!(
            target <= self.elapsed,
            "rollback target is ahead of accumulated work"
        );
        self.elapsed = target;
    }

    /// The cost model of the underlying CPU.
    pub fn model(&self) -> &CostModel {
        &self.cpu.model
    }

    /// The flight recorder captured when this lease was opened, if any.
    /// Instrumented code stamps events with [`CpuLease::now`].
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Records a packet dropped at `layer` for `reason`, now, if a recorder
    /// was captured.
    pub fn record_drop(&self, layer: &str, reason: &str) {
        if let Some(rec) = self.recorder() {
            rec.packet_drop(self.now().as_nanos(), layer, reason);
        }
    }

    /// Owned handle to the captured recorder (for callers that must hold
    /// it across a re-entrant borrow of the lease, like the dispatcher).
    pub fn recorder_handle(&self) -> Option<Rc<Recorder>> {
        self.recorder.clone()
    }

    /// Commits the accumulated work and returns its completion instant.
    pub fn finish(mut self) -> SimTime {
        self.commit();
        self.start + self.elapsed
    }

    fn commit(&mut self) {
        if !self.committed {
            self.committed = true;
            self.cpu.free_at.set(self.start + self.elapsed);
            self.cpu.busy.set(self.cpu.busy.get() + self.elapsed);
        }
    }
}

impl Drop for CpuLease {
    fn drop(&mut self) {
        self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn lease_accumulates_and_commits() {
        let cpu = Cpu::new(CostModel::default());
        let mut lease = cpu.begin(SimTime::from_micros(10));
        lease.charge(us(5));
        lease.charge(us(3));
        assert_eq!(lease.now(), SimTime::from_micros(18));
        let end = lease.finish();
        assert_eq!(end, SimTime::from_micros(18));
        assert_eq!(cpu.free_at(), SimTime::from_micros(18));
        assert_eq!(cpu.busy(), us(8));
    }

    #[test]
    fn concurrent_work_queues_on_one_cpu() {
        let cpu = Cpu::new(CostModel::default());
        // First activity: 10..20.
        let end1 = cpu.charge(SimTime::from_micros(10), us(10));
        assert_eq!(end1, SimTime::from_micros(20));
        // Second activity requested at 12 must wait until 20.
        let lease = cpu.begin(SimTime::from_micros(12));
        assert_eq!(lease.start(), SimTime::from_micros(20));
    }

    #[test]
    fn idle_gap_does_not_count_as_busy() {
        let cpu = Cpu::new(CostModel::default());
        cpu.charge(SimTime::from_micros(0), us(10));
        cpu.charge(SimTime::from_micros(100), us(10));
        assert_eq!(cpu.busy(), us(20));
        assert_eq!(cpu.free_at(), SimTime::from_micros(110));
    }

    #[test]
    fn utilization_over_window() {
        let cpu = Cpu::new(CostModel::default());
        let baseline = cpu.busy();
        cpu.charge(SimTime::ZERO, us(25));
        let util = cpu.utilization(baseline, us(100));
        assert!((util - 0.25).abs() < 1e-9, "got {util}");
    }

    #[test]
    fn drop_commits_the_lease() {
        let cpu = Cpu::new(CostModel::default());
        {
            let mut lease = cpu.begin(SimTime::ZERO);
            lease.charge(us(7));
        }
        assert_eq!(cpu.busy(), us(7));
        assert_eq!(cpu.free_at(), SimTime::from_micros(7));
    }

    #[test]
    fn copy_cost_scales_with_length() {
        let m = CostModel::alpha_3000_400();
        let small = m.copy(8);
        let big = m.copy(8192);
        assert!(big > small);
        assert_eq!(
            (big - m.copy_fixed).as_nanos(),
            m.copy_per_byte.as_nanos() * 8192
        );
    }
}
