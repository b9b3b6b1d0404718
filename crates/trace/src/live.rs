//! Streaming telemetry: online windowed aggregation, per-machine scopes,
//! tail sampling, and SLO health — computed at *record* time.
//!
//! Every other exporter is a post-hoc fold over the bounded ring, so a run
//! longer than the ring loses telemetry to truncation. This tier is fed
//! from `Recorder::push` itself ([`crate::Recorder::enable_live`]), and its
//! memory is bounded by metric cardinality — `O(windows × labels)`, the
//! open window's latency samples and the bounded sampling buffers — never
//! by event count. On truncation-free runs its windows are value-identical
//! to [`crate::timeline::build`] (property-tested) and serialize through
//! the same writer. Four pieces:
//!
//! * **Windows**, sealed online: a window closes once the watermark (the
//!   max non-transmit timestamp; transmits are future-stamped) is a lag
//!   window past its end, which absorbs cross-machine CPU-lease skew. A
//!   record that still lands behind a sealed window folds into its counts
//!   and is counted in `late_records`; the percentiles stay as sealed.
//! * **Per-machine scopes**: world → machine → layer roll-ups, with an
//!   explicit `unattributed` scope, so `world == Σ machines + unattributed`
//!   exactly. The state is `Send` (owned maps, `Copy` keys).
//! * **Tail sampling**: a deterministic 1-in-N of journey IDs plus each
//!   window's worst latency sample keep their record chains, which survive
//!   ring wraparound; undecided journeys wait in a bounded scratch slab.
//! * **SLO health**: a declarative [`Slo`] judged per sealed window; the
//!   breaches are in the report and `trace.live.slo_breaches`, which
//!   `plexus-bench --emit health` turns into an exit code.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::json::{escaped, joined, or_null, put};
use crate::recorder::{Interner, Label};
use crate::registry::{CounterKey, Registry, Scope};
use crate::ring::Ring;
use crate::timeline::{windows_json, worst_windows_json, Pending, Window, MAX_WINDOWS};
use crate::{TraceEvent, TraceRecord};

/// Windows are sealed this many full windows behind the watermark, so a
/// record whose timestamp lags the maximum seen (cross-machine CPU-lease
/// skew) still lands in an open window.
const SEAL_LAG_WINDOWS: u64 = 1;

/// Declarative per-scenario service-level objectives, evaluated against
/// every sealed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slo {
    /// Ceiling on a window's nearest-rank p99 latency (windows with no
    /// completions are exempt — there is no percentile to judge).
    pub p99_ceiling_ns: Option<u64>,
    /// Ceiling on a window's drops per million arrivals. A window with
    /// drops but no arrivals counts as 1,000,000 ppm.
    pub drop_ppm_ceiling: Option<u64>,
    /// Floor on a window's completions (the goodput series). Applied only
    /// to windows sealed *online* — the trailing windows sealed at finish
    /// are partial by construction — and only from `skip_head` onward.
    pub goodput_floor: Option<u64>,
    /// Number of leading windows exempt from the goodput floor (warmup).
    pub skip_head: u64,
}

impl Slo {
    /// An SLO with no thresholds (every window passes).
    pub const fn none() -> Slo {
        Slo {
            p99_ceiling_ns: None,
            drop_ppm_ceiling: None,
            goodput_floor: None,
            skip_head: 0,
        }
    }
}

/// Cap on retained records per sampled journey; overflow is counted,
/// never silent.
const MAX_JOURNEY_RECORDS: usize = 128;

/// Cap on concurrently buffered *undecided* journeys (scratch space for
/// promoting a journey to "worst in window" after the fact); the least
/// recently touched is evicted.
const MAX_ACTIVE_JOURNEYS: usize = 64;

/// Configuration for the live tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveConfig {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Retain every journey whose ID is `0 mod sample_every` (0 disables
    /// the 1-in-N sample; the per-window worst is kept regardless).
    pub sample_every: u64,
    /// Thresholds evaluated per sealed window (`None`: no health layer).
    pub slo: Option<Slo>,
}

impl LiveConfig {
    /// Defaults: 1-in-64 journey sampling, no SLO.
    pub fn new(window_ns: u64) -> LiveConfig {
        assert!(window_ns > 0, "window width must be positive");
        LiveConfig {
            window_ns,
            sample_every: 64,
            slo: None,
        }
    }
}

/// Which SLO threshold a window violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreachKind {
    /// Window p99 exceeded [`Slo::p99_ceiling_ns`].
    P99Ceiling,
    /// Window drops-per-million-arrivals exceeded [`Slo::drop_ppm_ceiling`].
    DropRate,
    /// Window completions fell below [`Slo::goodput_floor`].
    GoodputFloor,
}

impl BreachKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            BreachKind::P99Ceiling => "p99_ceiling",
            BreachKind::DropRate => "drop_rate",
            BreachKind::GoodputFloor => "goodput_floor",
        }
    }
}

/// One SLO violation: which window, which threshold, observed vs limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Breach {
    /// Index of the sealed window that violated the threshold.
    pub window: u64,
    /// Which threshold.
    pub kind: BreachKind,
    /// The observed value (ns, ppm, or completions).
    pub value: u64,
    /// The configured limit it was checked against.
    pub limit: u64,
}

/// Flat counters kept at every scope level (world, machine, unattributed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Frames that arrived at any NIC in this scope.
    pub arrivals: u64,
    /// Bytes across those arrivals.
    pub arrival_bytes: u64,
    /// Frames handed to any transmitter in this scope.
    pub tx_frames: u64,
    /// Bytes across those transmits.
    pub tx_bytes: u64,
    /// Latency samples completed in this scope.
    pub completions: u64,
    /// Receive interrupts taken in this scope.
    pub interrupts: u64,
    /// Drops recorded in this scope.
    pub drops: u64,
}

impl ScopeCounters {
    /// Field-wise accumulation — the roll-up primitive a parallel engine
    /// will use to merge per-worker aggregates.
    pub fn add(&mut self, other: &ScopeCounters) {
        self.arrivals += other.arrivals;
        self.arrival_bytes += other.arrival_bytes;
        self.tx_frames += other.tx_frames;
        self.tx_bytes += other.tx_bytes;
        self.completions += other.completions;
        self.interrupts += other.interrupts;
        self.drops += other.drops;
    }
}

/// Per-layer counters under one machine scope. Layers are the lowercased
/// dot-prefix of event names, the same vocabulary the profiler charges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// Handler invocations in this layer.
    pub handlers: u64,
    /// Guard evaluations in this layer.
    pub guard_evals: u64,
    /// Drops attributed to this layer.
    pub drops: u64,
}

#[derive(Debug, Default)]
struct ScopeAgg {
    c: ScopeCounters,
    /// In first-seen order; a report orders them by label.
    layers: Vec<(Label, LayerCounters)>,
}

/// The value of `label` in a short list of `(label, value)`, added with
/// its default on first sight.
fn entry<V: Default>(list: &mut Vec<(Label, V)>, label: Label) -> &mut V {
    let at = match list.iter().position(|(l, _)| *l == label) {
        Some(at) => at,
        None => {
            list.push((label, V::default()));
            list.len() - 1
        }
    };
    &mut list[at].1
}

/// What the tail sampler keeps of one journey: its records, oldest first,
/// past the per-journey cap counted, and what it decided about the journey.
/// A record is kept as its ring position and copied out only just before
/// the ring overwrites it. Recycled whole through the free list.
#[derive(Debug)]
struct Kept {
    /// Records copied out of the ring before it overwrote them.
    copies: Vec<TraceRecord>,
    /// Sequence numbers of the newer records, which the ring still holds
    /// (the ring numbers records by push, so `s` is in slot
    /// `s % capacity`).
    seqs: Vec<u64>,
    dropped: u64,
    /// Retained by the deterministic 1-in-N rule.
    nth: bool,
    /// Windows where this journey holds the worst latency sample,
    /// ascending.
    worst: Vec<u64>,
    max_sample_ns: u64,
}

impl Kept {
    /// An empty buffer with room for a journey's positions up to the cap,
    /// so keeping one never grows it.
    fn new() -> Kept {
        Kept {
            copies: Vec::new(),
            seqs: Vec::with_capacity(MAX_JOURNEY_RECORDS),
            dropped: 0,
            nth: false,
            worst: Vec::new(),
            max_sample_ns: 0,
        }
    }

    /// Keeps `r`, or counts it dropped past the cap; returns whether kept.
    fn keep(&mut self, r: &TraceRecord, firsts: &mut Firsts) -> bool {
        let room = self.copies.len() + self.seqs.len() < MAX_JOURNEY_RECORDS;
        if room {
            if self.seqs.is_empty() {
                firsts.mark(r.seq);
            }
            self.seqs.push(r.seq);
        } else {
            self.dropped += 1;
        }
        room
    }

    /// Copies every kept record the ring still holds out of it.
    fn copy_out(&mut self, ring: &Ring) {
        let held = self.seqs.drain(..).map(|s| ring.nth(s).expect(HELD));
        self.copies.extend(held);
    }

    fn records<'a>(&'a self, ring: &'a Ring) -> impl Iterator<Item = TraceRecord> + 'a {
        let held = self.seqs.iter().map(|&s| ring.nth(s).expect(HELD));
        self.copies.iter().copied().chain(held)
    }

    /// Empties the buffer for another journey, keeping its capacity.
    fn recycle(mut self, free: &mut Vec<Kept>, firsts: &mut Firsts) {
        if let Some(&first) = self.seqs.first() {
            firsts.take(first);
        }
        self.copies.clear();
        self.seqs.clear();
        self.worst.clear();
        (self.dropped, self.nth, self.max_sample_ns) = (0, false, 0);
        free.push(self);
    }
}

const HELD: &str = "a kept record is copied out before the ring overwrites it";

/// Which ring records are the first position some buffer keeps: the only
/// records whose overwrite sends the sampler looking for a buffer. One
/// bit per sequence number modulo a power of two at least the ring's
/// capacity, so two records the ring holds at once never share a bit.
/// The bits are allocated when the first one is set.
#[derive(Debug)]
struct Firsts {
    bits: Vec<u64>,
    /// The power of two, less one.
    mask: u64,
}

impl Firsts {
    fn new(ring_capacity: usize) -> Firsts {
        Firsts {
            bits: Vec::new(),
            mask: ring_capacity.next_power_of_two() as u64 - 1,
        }
    }

    fn at(&self, seq: u64) -> (usize, u64) {
        let slot = seq & self.mask;
        ((slot / 64) as usize, 1 << (slot % 64))
    }

    fn mark(&mut self, seq: u64) {
        if self.bits.is_empty() {
            self.bits = vec![0; (self.mask / 64 + 1) as usize];
        }
        let (word, bit) = self.at(seq);
        self.bits[word] |= bit;
    }

    /// Clears `seq`'s bit; returns whether it was set.
    fn take(&mut self, seq: u64) -> bool {
        let (word, bit) = self.at(seq);
        let Some(w) = self.bits.get_mut(word) else {
            return false;
        };
        let was = *w & bit != 0;
        *w &= !bit;
        was
    }
}

/// The live tier's aggregator state, owned by the recorder; `Send`, so a
/// parallel engine could run one per worker and merge.
#[derive(Debug)]
pub(crate) struct LiveAgg {
    cfg: LiveConfig,
    empty: Label,
    live_label: Label,
    /// Every window so far with its accumulator: the open ones still
    /// buffer latency samples, and all of them keep drops by label until
    /// report time.
    wins: Vec<(Window, Pending)>,
    /// The window the last record fell in, as `(start_ns, index)`: a record
    /// in the same window costs no division.
    last_window: (u64, u64),
    /// Max non-transmit timestamp seen (transmits are future-stamped).
    watermark: u64,
    /// Index of the first unsealed window.
    sealed_upto: usize,
    windows_sealed_online: u64,
    late_records: u64,
    current_machine: Option<Label>,
    world: ScopeAgg,
    /// In first-seen order; a report orders them by name.
    machines: Vec<(Label, ScopeAgg)>,
    unattributed: ScopeAgg,
    /// Undecided journeys with their buffers, at most
    /// `MAX_ACTIVE_JOURNEYS`, least recently touched first: the one in
    /// flight is at the back, the one to evict at the front.
    scratch: VecDeque<(u64, Kept)>,
    /// The highest journey the sampler has kept or retained: a higher one
    /// is new, in neither the slab nor the retained store.
    newest: Option<u64>,
    /// Evicted and demoted journeys' buffers, cleared, for the next new
    /// journeys: once the slab is warm, a journey costs the heap nothing.
    free: Vec<Kept>,
    retained: BTreeMap<u64, Kept>,
    firsts: Firsts,
    /// window index → (worst sample ns, journey holding it).
    worst_by_window: BTreeMap<u64, (u64, u64)>,
    scratch_evicted: u64,
    sampled_records_dropped: u64,
    breaches: Vec<Breach>,
}

/// Bumps one of the live tier's own `trace.live.*` health counters.
fn live_count(reg: &Registry, live: Label, metric: &'static str, delta: u64) {
    let key = CounterKey {
        scope: Scope::Trace,
        label: live,
        metric,
    };
    reg.add(key, delta);
}

impl LiveAgg {
    /// Fresh aggregator state for a ring of `ring_capacity` records.
    /// `empty`/`live_label` are the pre-interned `""` and `"live"` labels
    /// (the feed path never interns).
    pub(crate) fn new(
        cfg: LiveConfig,
        ring_capacity: usize,
        empty: Label,
        live_label: Label,
    ) -> LiveAgg {
        assert!(cfg.window_ns > 0, "window width must be positive");
        LiveAgg {
            cfg,
            empty,
            live_label,
            wins: Vec::new(),
            last_window: (0, 0),
            watermark: 0,
            sealed_upto: 0,
            windows_sealed_online: 0,
            late_records: 0,
            current_machine: None,
            world: ScopeAgg::default(),
            machines: Vec::new(),
            unattributed: ScopeAgg::default(),
            scratch: VecDeque::new(),
            newest: None,
            free: Vec::new(),
            retained: BTreeMap::new(),
            firsts: Firsts::new(ring_capacity),
            worst_by_window: BTreeMap::new(),
            scratch_evicted: 0,
            sampled_records_dropped: 0,
            breaches: Vec::new(),
        }
    }

    /// The packet attribution window closed; subsequent records are
    /// machine-unattributed until the next arrival.
    pub(crate) fn packet_done(&mut self) {
        self.current_machine = None;
    }

    /// The scopes a record of `machine` counts in: the world's, and the
    /// machine's or the unattributed one.
    fn scopes(&mut self, machine: Option<Label>) -> [&mut ScopeAgg; 2] {
        let scope = match machine {
            Some(m) => entry(&mut self.machines, m),
            None => &mut self.unattributed,
        };
        [&mut self.world, scope]
    }

    fn bump_scope(&mut self, machine: Option<Label>, f: impl Fn(&mut ScopeCounters)) {
        self.scopes(machine).into_iter().for_each(|s| f(&mut s.c));
    }

    fn bump_layer(&mut self, machine: Option<Label>, layer: Label, f: impl Fn(&mut LayerCounters)) {
        let scopes = self.scopes(machine).into_iter();
        scopes.for_each(|s| f(entry(&mut s.layers, layer)));
    }

    fn machine_or_current(&self, host: Label) -> Option<Label> {
        (host != self.empty)
            .then_some(host)
            .or(self.current_machine)
    }

    /// Folds one record's event into window `idx`, opening the windows up
    /// to it. Windows are dense from time zero, so none opens at or past
    /// [`MAX_WINDOWS`]: a record that lands there is counted instead.
    fn fold_window(&mut self, idx: u64, r: &TraceRecord, reg: &Registry) {
        if idx >= MAX_WINDOWS {
            live_count(reg, self.live_label, "records_past_max_windows", 1);
            return;
        }
        while self.wins.len() as u64 <= idx {
            self.wins.push(Pending::open(self.wins.len() as u64));
        }
        let (window, pending) = &mut self.wins[idx as usize];
        let late = pending.sealed();
        window.update(&r.event, pending);
        if late {
            // Counts still fold (the window struct is retained); the
            // percentiles are already fixed. The lag makes this a
            // shouldn't-happen — the counter is the tripwire.
            self.late_records += 1;
            live_count(reg, self.live_label, "late_records", 1);
        }
    }

    /// Folds one just-pushed record into the aggregators. Called from the
    /// recorder's push path; interns only the layer of an event name seen
    /// for the first time, never touches the ring.
    pub(crate) fn feed(&mut self, r: &TraceRecord, reg: &Registry, interner: &RefCell<Interner>) {
        let idx = self.window_of(r.at_ns);
        self.fold_window(idx, r, reg);

        // The window is folded; what follows is the per-machine roll-up,
        // inside the current packet's machine unless a record names one.
        let (machine, layer) = (self.current_machine, |l| interner.borrow_mut().layer(l));
        match r.event {
            TraceEvent::PacketArrival { host, bytes, .. } => {
                self.current_machine = (host != self.empty).then_some(host);
                self.bump_scope(self.current_machine, |c| {
                    c.arrivals += 1;
                    c.arrival_bytes += u64::from(bytes);
                });
            }
            TraceEvent::PacketTx { host, bytes, .. } => {
                self.bump_scope(self.machine_or_current(host), |c| {
                    c.tx_frames += 1;
                    c.tx_bytes += u64::from(bytes);
                });
            }
            TraceEvent::LatencySample { ns, .. } => {
                self.bump_scope(machine, |c| c.completions += 1);
                if let Some(j) = r.journey {
                    self.note_worst(idx, j, ns, reg);
                }
            }
            TraceEvent::RxInterrupt { host, .. } => {
                self.bump_scope(self.machine_or_current(host), |c| c.interrupts += 1);
            }
            TraceEvent::Drop { layer: at, .. } => {
                self.bump_scope(machine, |c| c.drops += 1);
                self.bump_layer(machine, layer(at), |l| l.drops += 1);
            }
            TraceEvent::HandlerEnter { event, .. } => {
                self.bump_layer(machine, layer(event), |l| l.handlers += 1);
            }
            TraceEvent::GuardEval { event, .. } => {
                self.bump_layer(machine, layer(event), |l| l.guard_evals += 1);
            }
            TraceEvent::HandlerExit { .. }
            | TraceEvent::TimerFire
            | TraceEvent::Crossing { .. } => {}
        }

        self.sample_journey(r, reg);

        // Watermark sealing: transmits are stamped at their (possibly
        // future) handover instant and must not close windows early. Only
        // windows that exist can seal: window `w` once the watermark's
        // window is past `w + SEAL_LAG_WINDOWS`.
        if !matches!(r.event, TraceEvent::PacketTx { .. }) && r.at_ns > self.watermark {
            self.watermark = r.at_ns;
            let (width, watermark) = (self.cfg.window_ns, self.watermark);
            let sealed_by = |w: usize| {
                let past = (w as u64 + SEAL_LAG_WINDOWS + 1).checked_mul(width);
                past.is_some_and(|past| past <= watermark)
            };
            while self.sealed_upto < self.wins.len() && sealed_by(self.sealed_upto) {
                self.seal(self.sealed_upto, true, reg);
                self.sealed_upto += 1;
            }
        }
    }

    /// The index of the window `at_ns` falls in.
    fn window_of(&mut self, at_ns: u64) -> u64 {
        let (start, idx) = self.last_window;
        if at_ns.wrapping_sub(start) < self.cfg.window_ns {
            return idx;
        }
        let idx = at_ns / self.cfg.window_ns;
        self.last_window = (idx * self.cfg.window_ns, idx);
        idx
    }

    /// Where undecided journey `j` sits in the scratch slab, if it does.
    fn undecided_at(&self, j: u64) -> Option<usize> {
        self.scratch.iter().rposition(|&(id, _)| id == j)
    }

    /// Appends a journey-tagged record to its scratch buffer, its retained
    /// entry, its nth-sample entry (created on first sight), or a new
    /// scratch buffer. A journey is undecided or retained, never both.
    fn sample_journey(&mut self, r: &TraceRecord, reg: &Registry) {
        let Some(j) = r.journey else { return };
        let new = self.newest.is_none_or(|newest| j > newest);
        if new {
            self.newest = Some(j);
        } else if let Some(at) = self.undecided_at(j) {
            if at + 1 < self.scratch.len() {
                let touched = self.scratch.remove(at).expect("found");
                self.scratch.push_back(touched);
            }
            let touched = &mut self.scratch.back_mut().expect("touched").1;
            touched.keep(r, &mut self.firsts);
            return;
        }
        let nth = self.cfg.sample_every > 0 && j % self.cfg.sample_every == 0;
        if nth {
            self.retain(j, true, reg);
        }
        if let Some(e) = self.retained.get_mut(&j).filter(|_| nth || !new) {
            self.sampled_records_dropped += u64::from(!e.keep(r, &mut self.firsts));
            return;
        }
        if self.scratch.len() == MAX_ACTIVE_JOURNEYS {
            // Evict the least recently touched buffer.
            let (_, oldest) = self.scratch.pop_front().expect("the slab is full");
            oldest.recycle(&mut self.free, &mut self.firsts);
            self.scratch_evicted += 1;
        }
        let mut kept = self.free.pop().unwrap_or_else(Kept::new);
        kept.keep(r, &mut self.firsts);
        self.scratch.push_back((j, kept));
    }

    /// Moves journey `j` from scratch to the retained store, buffer and
    /// all.
    fn retain(&mut self, j: u64, nth: bool, reg: &Registry) {
        if self.retained.contains_key(&j) {
            return;
        }
        let undecided = self.undecided_at(j).and_then(|at| self.scratch.remove(at));
        let mut kept = match undecided {
            Some((_, kept)) => kept,
            None => self.free.pop().unwrap_or_else(Kept::new),
        };
        kept.nth = nth;
        self.retained.insert(j, kept);
        self.newest = self.newest.max(Some(j));
        live_count(reg, self.live_label, "journeys_sampled", 1);
    }

    /// A latency sample completed for journey `j`: keep it if it is the
    /// window's new worst, demoting the previous holder.
    fn note_worst(&mut self, window: u64, j: u64, ns: u64, reg: &Registry) {
        let prev = self.worst_by_window.get(&window).copied();
        if prev.is_some_and(|(worst, _)| ns <= worst) {
            return;
        }
        if let Some((_, prev_j)) = prev.filter(|&(_, prev_j)| prev_j != j) {
            let demoted = self.retained.get_mut(&prev_j).is_some_and(|e| {
                if let Ok(at) = e.worst.binary_search(&window) {
                    e.worst.remove(at);
                }
                e.worst.is_empty() && !e.nth
            });
            if demoted {
                let e = self.retained.remove(&prev_j).expect("demoted");
                e.recycle(&mut self.free, &mut self.firsts);
            }
        }
        self.worst_by_window.insert(window, (ns, j));
        self.retain(j, false, reg);
        let e = self.retained.get_mut(&j).expect("just retained");
        if let Err(at) = e.worst.binary_search(&window) {
            e.worst.insert(at, window);
        }
        e.max_sample_ns = e.max_sample_ns.max(ns);
    }

    /// The ring is about to overwrite `old`: a journey that still keeps it
    /// as a ring position copies its records out first. Its positions are
    /// ascending and the ring overwrites in push order, so `old` can only
    /// be a journey's first, and only a marked first needs the journey's
    /// buffer found: any other overwrite costs one bit test.
    pub(crate) fn before_overwrite(&mut self, old: &TraceRecord, ring: &Ring) {
        if !self.firsts.take(old.seq) {
            return;
        }
        let j = old.journey.expect("a kept record has a journey");
        let kept = match self.undecided_at(j) {
            Some(at) => &mut self.scratch[at].1,
            None => self.retained.get_mut(&j).expect("a marked first is kept"),
        };
        debug_assert_eq!(kept.seqs.first(), Some(&old.seq));
        kept.copy_out(ring);
    }

    fn seal(&mut self, idx: usize, online: bool, reg: &Registry) {
        let (w, pending) = &mut self.wins[idx];
        w.seal(pending);
        self.windows_sealed_online += u64::from(online);
        live_count(reg, self.live_label, "windows_sealed", 1);
        let Some(slo) = &self.cfg.slo else { return };

        let (drop_count, before) = (pending.drop_count(), self.breaches.len());
        let mut breach = |kind, value, limit| {
            let window = w.index;
            self.breaches.push(Breach {
                window,
                kind,
                value,
                limit,
            });
        };
        if let Some(ceil) = slo.p99_ceiling_ns {
            if w.completions > 0 && w.p99_ns > ceil {
                breach(BreachKind::P99Ceiling, w.p99_ns, ceil);
            }
        }
        if let Some(ceil) = slo.drop_ppm_ceiling {
            // A dropping window with zero arrivals pins the rate at 1M ppm
            // rather than dividing by zero.
            let ppm = drop_count
                .saturating_mul(1_000_000)
                .checked_div(w.arrivals)
                .unwrap_or(if drop_count > 0 { 1_000_000 } else { 0 });
            if ppm > ceil {
                breach(BreachKind::DropRate, ppm, ceil);
            }
        }
        if let Some(floor) = slo.goodput_floor {
            if online && w.index >= slo.skip_head && w.completions < floor {
                breach(BreachKind::GoodputFloor, w.completions, floor);
            }
        }
        let breached = (self.breaches.len() - before) as u64;
        if breached > 0 {
            live_count(reg, self.live_label, "slo_breaches", breached);
        }
    }

    /// Seals every remaining window (trailing windows are partial: they
    /// never got a watermark a lag past their end). Idempotent.
    pub(crate) fn finish(&mut self, reg: &Registry) {
        while self.sealed_upto < self.wins.len() {
            self.seal(self.sealed_upto, false, reg);
            self.sealed_upto += 1;
        }
    }

    /// Resolves labels and snapshots the aggregators into a report, reading
    /// the retained journeys' records that `ring` still holds in place.
    pub(crate) fn report(&self, interner: &RefCell<Interner>, ring: &Ring) -> LiveReport {
        let names = interner.borrow();
        let resolved = |(w, pending): &(Window, Pending)| Window {
            drops: pending.drops(&names),
            ..w.clone()
        };
        let view = |agg: &ScopeAgg| {
            let mut layers = agg.layers.clone();
            layers.sort_unstable_by_key(|&(l, _)| l);
            ScopeView {
                counters: agg.c,
                layers: (layers.into_iter())
                    .map(|(l, c)| (names.get(l).to_owned(), c))
                    .collect(),
            }
        };
        let mut machines: Vec<(String, ScopeView)> = self
            .machines
            .iter()
            .map(|(m, agg)| (names.get(*m).to_owned(), view(agg)))
            .collect();
        machines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut rendered = HashMap::new();
        let sampled = self
            .retained
            .iter()
            .map(|(&j, e)| SampledJourney {
                journey: j,
                nth: e.nth,
                worst_windows: e.worst.clone(),
                max_sample_ns: e.max_sample_ns,
                records_dropped: e.dropped,
                records: (e.records(ring))
                    .map(|r| sampled_record(&r, &names, &mut rendered))
                    .collect(),
            })
            .collect();
        LiveReport {
            window_ns: self.cfg.window_ns,
            windows: self.wins.iter().map(resolved).collect(),
            windows_sealed_online: self.windows_sealed_online,
            late_records: self.late_records,
            world: view(&self.world),
            machines,
            unattributed: view(&self.unattributed),
            sampled,
            scratch_evicted: self.scratch_evicted,
            sampled_records_dropped: self.sampled_records_dropped,
            slo: self.cfg.slo.clone(),
            breaches: self.breaches.clone(),
        }
    }
}

/// What a sampled record's label names — a recorded name, a drop's
/// `layer:reason` or a fixed name — rendered once per report and shared
/// by every record that names it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Subject {
    Name(Label),
    Drop(Label, Label),
    Fixed(&'static str),
}

fn sampled_record(
    r: &TraceRecord,
    names: &Interner,
    rendered: &mut HashMap<Subject, Arc<str>>,
) -> SampledRecord {
    let (kind, subject, detail) = match r.event {
        TraceEvent::PacketArrival { nic, bytes, .. } => {
            ("arrival", Subject::Name(nic), u64::from(bytes))
        }
        TraceEvent::GuardEval { event, matched, .. } => {
            ("guard", Subject::Name(event), u64::from(matched))
        }
        TraceEvent::HandlerEnter { event, .. } => ("handler_enter", Subject::Name(event), 0),
        TraceEvent::HandlerExit { event, .. } => ("handler_exit", Subject::Name(event), 0),
        TraceEvent::Drop { layer, reason } => ("drop", Subject::Drop(layer, reason), 0),
        TraceEvent::PacketTx { nic, bytes, .. } => ("tx", Subject::Name(nic), u64::from(bytes)),
        TraceEvent::RxInterrupt { nic, frames, .. } => {
            ("rx_interrupt", Subject::Name(nic), u64::from(frames))
        }
        TraceEvent::LatencySample { hist, ns } => ("sample", Subject::Name(hist), ns),
        TraceEvent::TimerFire => ("timer", Subject::Fixed(""), 0),
        TraceEvent::Crossing { dir, bytes } => {
            ("crossing", Subject::Fixed(dir.name()), u64::from(bytes))
        }
    };
    let label = rendered.entry(subject).or_insert_with(|| match subject {
        Subject::Name(label) => names.shared(label),
        Subject::Drop(layer, reason) => {
            format!("{}:{}", names.get(layer), names.get(reason)).into()
        }
        Subject::Fixed(name) => name.into(),
    });
    SampledRecord {
        at_ns: r.at_ns,
        packet: r.packet,
        kind,
        label: label.clone(),
        detail,
    }
}

/// One record of a sampled journey, with labels resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledRecord {
    /// Simulated timestamp.
    pub at_ns: u64,
    /// Per-machine packet ID in flight when recorded.
    pub packet: Option<u64>,
    /// Stable event-kind name.
    pub kind: &'static str,
    /// The event's subject (NIC, event table, `layer:reason`, histogram),
    /// shared by every record of the report that names it.
    pub label: Arc<str>,
    /// Kind-specific magnitude (bytes, frames, sample ns; 0 otherwise).
    pub detail: u64,
}

/// One journey retained by the tail sampler, with labels resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledJourney {
    /// The world-global journey ID.
    pub journey: u64,
    /// Kept by the deterministic 1-in-N rule.
    pub nth: bool,
    /// Windows in which this journey holds the worst latency sample.
    pub worst_windows: Vec<u64>,
    /// The largest latency sample this journey completed (0 when kept by
    /// the 1-in-N rule without a sample).
    pub max_sample_ns: u64,
    /// Records dropped beyond the per-journey cap — stated, never silent.
    pub records_dropped: u64,
    /// The retained record chain, oldest first.
    pub records: Vec<SampledRecord>,
}

/// One scope level's counters plus its per-layer breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeView {
    /// The flat counters at this level.
    pub counters: ScopeCounters,
    /// Per-layer counters, sorted by layer name.
    pub layers: Vec<(String, LayerCounters)>,
}

/// Snapshot of the live tier after [`crate::Recorder::live_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveReport {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Dense sealed windows from time zero — value-identical to
    /// [`crate::timeline::build`]'s on a truncation-free run.
    pub windows: Vec<Window>,
    /// Windows sealed by the advancing watermark during the run (the rest
    /// were sealed at report time and are partial by construction).
    pub windows_sealed_online: u64,
    /// Records that landed behind an already-sealed window (counts were
    /// folded; that window's percentiles predate them).
    pub late_records: u64,
    /// World-level roll-up (everything).
    pub world: ScopeView,
    /// Per-machine scopes, sorted by machine name.
    pub machines: Vec<(String, ScopeView)>,
    /// Records attributable to no machine (engine/timer context).
    /// `world == Σ machines + unattributed`, field for field.
    pub unattributed: ScopeView,
    /// Journeys retained by the tail sampler, in journey order.
    pub sampled: Vec<SampledJourney>,
    /// Undecided journey buffers evicted before any retention decision.
    pub scratch_evicted: u64,
    /// Records dropped beyond the per-journey cap, across all journeys.
    pub sampled_records_dropped: u64,
    /// The SLO the windows were judged against, if any.
    pub slo: Option<Slo>,
    /// Every breach, in seal order.
    pub breaches: Vec<Breach>,
}

impl LiveReport {
    /// The breach kinds window `index` triggered, in seal order.
    pub fn breach_kinds(&self, index: u64) -> Vec<&'static str> {
        let of_window = self.breaches.iter().filter(|b| b.window == index);
        of_window.map(|b| b.kind.name()).collect()
    }
}

fn scope_json(out: &mut String, name: &str, view: &ScopeView) {
    let (name, c) = (escaped(name), &view.counters);
    let (arrivals, arrival_bytes, completions) = (c.arrivals, c.arrival_bytes, c.completions);
    let (tx_frames, tx_bytes, interrupts, drops) = (c.tx_frames, c.tx_bytes, c.interrupts, c.drops);
    put!(
        out,
        "{{\"name\": \"{name}\", \"arrivals\": {arrivals}, \"arrival_bytes\": {arrival_bytes}, \
         \"tx_frames\": {tx_frames}, \"tx_bytes\": {tx_bytes}, \"completions\": {completions}, \
         \"interrupts\": {interrupts}, \"drops\": {drops}, \"layers\": ["
    );
    for (i, (layer, l)) in view.layers.iter().enumerate() {
        let (sep, layer) = (if i > 0 { ", " } else { "" }, escaped(layer));
        let (handlers, guard_evals, drops) = (l.handlers, l.guard_evals, l.drops);
        put!(
            out,
            "{sep}{{\"layer\": \"{layer}\", \"handlers\": {handlers}, \
             \"guard_evals\": {guard_evals}, \"drops\": {drops}}}"
        );
    }
    out.push_str("]}");
}

/// Renders the live report as deterministic JSON (schema
/// `plexus.live.v1`). The `windows` array is byte-identical to the
/// timeline's on a truncation-free run; sampled-journey detail is emitted
/// for the first `max_detail` journeys only (the cap is stated).
pub fn live_json(rep: &LiveReport, max_detail: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"plexus.live.v1\",\n");
    let (window_ns, online, late) = (rep.window_ns, rep.windows_sealed_online, rep.late_records);
    put!(
        out,
        "  \"window_ns\": {window_ns},\n  \"windows_sealed_online\": {online},\n  \
         \"late_records\": {late},\n"
    );
    worst_windows_json(&mut out, &rep.windows);

    out.push_str("  \"scopes\": {\"world\": ");
    scope_json(&mut out, "world", &rep.world);
    out.push_str(", \"machines\": [");
    for (i, (name, view)) in rep.machines.iter().enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        scope_json(&mut out, name, view);
    }
    out.push_str("], \"unattributed\": ");
    scope_json(&mut out, "", &rep.unattributed);
    out.push_str("},\n");

    let (total, detailed) = (rep.sampled.len(), rep.sampled.len().min(max_detail));
    let (evicted, dropped) = (rep.scratch_evicted, rep.sampled_records_dropped);
    put!(
        out,
        "  \"sampled_journeys_total\": {total},\n  \"sampled_journeys_detailed\": {detailed},\n  \
         \"scratch_evicted\": {evicted},\n  \"sampled_records_dropped\": {dropped},\n"
    );
    out.push_str("  \"sampled_journeys\": [");
    for (i, j) in rep.sampled.iter().take(detailed).enumerate() {
        let (sep, worst_windows) = (if i > 0 { "," } else { "" }, joined(&j.worst_windows));
        let (journey, nth, max_sample_ns) = (j.journey, j.nth, j.max_sample_ns);
        put!(
            out,
            "{sep}\n    {{\"journey\": {journey}, \"nth\": {nth}, \
             \"worst_windows\": [{worst_windows}], \"max_sample_ns\": {max_sample_ns}, \
             \"records_dropped\": {}, \"records\": [",
            j.records_dropped
        );
        for (k, r) in j.records.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let (packet, label) = (or_null(r.packet), escaped(&r.label));
            let (at_ns, kind, detail) = (r.at_ns, r.kind, r.detail);
            put!(
                out,
                "{sep}{{\"at_ns\": {at_ns}, \"packet\": {packet}, \"kind\": \"{kind}\", \
                 \"label\": \"{label}\", \"detail\": {detail}}}"
            );
        }
        out.push_str("]}");
    }
    out.push_str(if detailed == 0 { "],\n" } else { "\n  ],\n" });

    match &rep.slo {
        Some(slo) => {
            let [p99, drop_ppm, goodput] =
                [slo.p99_ceiling_ns, slo.drop_ppm_ceiling, slo.goodput_floor].map(or_null);
            put!(
                out,
                "  \"slo\": {{\"p99_ceiling_ns\": {p99}, \"drop_ppm_ceiling\": {drop_ppm}, \
                 \"goodput_floor\": {goodput}, \"skip_head\": {}}},\n",
                slo.skip_head
            );
        }
        None => out.push_str("  \"slo\": null,\n"),
    }
    out.push_str("  \"breaches\": [");
    for (i, b) in rep.breaches.iter().enumerate() {
        let (sep, kind) = (if i > 0 { ", " } else { "" }, b.kind.name());
        let (window, value, limit) = (b.window, b.value, b.limit);
        put!(
            out,
            "{sep}{{\"window\": {window}, \"kind\": \"{kind}\", \"value\": {value}, \
             \"limit\": {limit}}}"
        );
    }
    out.push_str("],\n");

    windows_json(&mut out, &rep.windows, rep.window_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::timeline;
    use crate::{CounterKey, Recorder, Scope};

    fn assert_send<T: Send>() {}

    #[test]
    fn aggregator_state_is_send_ready() {
        assert_send::<LiveAgg>();
        assert_send::<LiveReport>();
    }

    #[test]
    fn live_windows_match_the_posthoc_timeline_fold() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(1_000));
        rec.packet_arrival(500, rec.intern("eth0"), rec.intern("client"), 60, None);
        rec.packet_drop(600, "ip", "no_route");
        rec.packet_done();
        let hist = rec.intern("rtt");
        rec.sample(1_500, hist, 42);
        rec.sample(3_500, hist, 100);
        rec.rx_interrupt(3_700, rec.intern("eth0"), rec.intern("client"), 4, 2);
        rec.packet_tx(
            5_200,
            rec.intern("eth0"),
            rec.intern("client"),
            60,
            10,
            20,
            30,
            40,
            None,
        );
        rec.sample(9_999, hist, 7);

        let live = rec.live_report().expect("live enabled");
        let tl = timeline::build(&rec, 1_000);
        assert_eq!(live.windows, tl.windows);
        assert_eq!(live.late_records, 0);
        // Early windows sealed online (watermark reached window 9), the
        // lagging tail sealed at report time.
        assert!(live.windows_sealed_online >= 8);
        assert_eq!(live.windows.len(), 10);
    }

    #[test]
    fn scopes_roll_up_world_equals_machines_plus_unattributed() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(10_000));
        // Origin tx from engine context: unattributed.
        rec.packet_tx(
            100,
            rec.intern("eth0"),
            rec.intern(""),
            60,
            0,
            0,
            10,
            10,
            None,
        );
        // Two machines with distinct traffic.
        for (host, n) in [("client", 2u64), ("server", 3u64)] {
            for i in 0..n {
                rec.packet_arrival(200 + i, rec.intern("eth0"), rec.intern(host), 60, None);
                let ev = rec.intern("Udp.PacketRecv");
                let dom = rec.intern("kernel");
                let span = rec.handler_enter(300 + i, ev, dom);
                rec.handler_exit(400 + i, ev, dom, span);
                rec.packet_drop(450 + i, "udp", "no_port");
                rec.packet_done();
            }
        }
        let rep = rec.live_report().unwrap();
        assert_eq!(rep.world.counters.arrivals, 5);
        assert_eq!(rep.machines.len(), 2);
        assert_eq!(rep.machines[0].0, "client");
        assert_eq!(rep.machines[0].1.counters.arrivals, 2);
        assert_eq!(rep.machines[1].1.counters.arrivals, 3);
        assert_eq!(rep.unattributed.counters.tx_frames, 1);
        // Field-for-field roll-up.
        let mut sum = ScopeCounters::default();
        for (_, m) in &rep.machines {
            sum.add(&m.counters);
        }
        sum.add(&rep.unattributed.counters);
        assert_eq!(sum, rep.world.counters);
        // Layer breakdown under a machine.
        let client = &rep.machines[0].1;
        let udp = client.layers.iter().find(|(l, _)| l == "udp").unwrap();
        assert_eq!(udp.1.handlers, 2);
        assert_eq!(udp.1.drops, 2);
    }

    #[test]
    fn nth_and_worst_journeys_are_retained() {
        let rec = Recorder::new(512);
        let mut cfg = LiveConfig::new(1_000);
        cfg.sample_every = 4;
        rec.enable_live(cfg);
        let hist = rec.intern("rtt");
        for i in 0..6u64 {
            let (_, j) =
                rec.packet_arrival(100 + i * 10, rec.intern("eth0"), rec.intern("m"), 60, None);
            assert_eq!(j, i);
            // Journey 5 completes the slowest sample in window 0.
            rec.sample(200 + i * 10, hist, if i == 5 { 900 } else { 10 + i });
            rec.packet_done();
        }
        let rep = rec.live_report().unwrap();
        let ids: Vec<u64> = rep.sampled.iter().map(|s| s.journey).collect();
        assert!(
            ids.contains(&0) && ids.contains(&4),
            "1-in-4 sample: {ids:?}"
        );
        let worst = rep
            .sampled
            .iter()
            .find(|s| s.journey == 5)
            .expect("worst kept");
        assert!(!worst.nth);
        assert_eq!(worst.worst_windows, vec![0]);
        assert_eq!(worst.max_sample_ns, 900);
        assert!(worst.records.iter().any(|r| r.kind == "arrival"));
        // Journeys 1..=3 were neither nth nor worst: not retained.
        assert!(!ids.contains(&1));
    }

    #[test]
    fn slo_breaches_are_evaluated_per_sealed_window() {
        let rec = Recorder::new(256);
        let mut cfg = LiveConfig::new(1_000);
        cfg.slo = Some(Slo {
            p99_ceiling_ns: Some(100),
            drop_ppm_ceiling: Some(500_000),
            goodput_floor: Some(1),
            skip_head: 1,
        });
        rec.enable_live(cfg);
        let hist = rec.intern("rtt");
        // Window 0: p99 breach (200 > 100). Window 1: drop-rate breach
        // (1 drop / 1 arrival = 1M ppm). Window 2: goodput breach (no
        // completions, past skip_head). Advance watermark to seal them.
        rec.sample(500, hist, 200);
        rec.packet_arrival(1_200, rec.intern("eth0"), rec.intern(""), 60, None);
        rec.packet_drop(1_300, "ip", "no_route");
        rec.packet_done();
        rec.sample(5_000, hist, 50);
        let rep = rec.live_report().unwrap();
        let kinds: Vec<(u64, BreachKind)> =
            rep.breaches.iter().map(|b| (b.window, b.kind)).collect();
        assert!(kinds.contains(&(0, BreachKind::P99Ceiling)), "{kinds:?}");
        assert!(kinds.contains(&(1, BreachKind::DropRate)), "{kinds:?}");
        assert!(kinds.contains(&(2, BreachKind::GoodputFloor)), "{kinds:?}");
        // Window 0 is exempt from the goodput floor (skip_head), and the
        // tail windows sealed at report time are exempt too.
        assert!(!kinds.contains(&(0, BreachKind::GoodputFloor)));
        assert!(!kinds.contains(&(4, BreachKind::GoodputFloor)));
    }

    #[test]
    fn live_json_is_valid_and_byte_identical_across_runs() {
        let make = || {
            let rec = Recorder::new(256);
            let mut cfg = LiveConfig::new(1_000);
            cfg.sample_every = 2;
            cfg.slo = Some(Slo {
                p99_ceiling_ns: Some(10),
                ..Slo::none()
            });
            rec.enable_live(cfg);
            rec.packet_arrival(500, rec.intern("eth0"), rec.intern("client"), 60, None);
            rec.packet_drop(600, "weird \"layer\"", "no_route");
            rec.packet_done();
            let hist = rec.intern("rtt");
            rec.sample(1_500, hist, 42);
            rec.packet_tx(
                2_000,
                rec.intern("eth0"),
                rec.intern("client"),
                60,
                0,
                0,
                10,
                10,
                None,
            );
            rec.sample(5_500, hist, 7);
            live_json(&rec.live_report().unwrap(), 8)
        };
        let a = make();
        assert_eq!(a, make());
        validate(&a).expect("live JSON well-formed");
        assert!(a.contains("\"schema\": \"plexus.live.v1\""));
        assert!(a.contains("\"name\": \"client\""));
        assert!(a.contains("\"kind\": \"p99_ceiling\""));
    }

    #[test]
    fn live_window_bytes_match_timeline_window_bytes() {
        let rec = Recorder::new(256);
        rec.enable_live(LiveConfig::new(1_000));
        rec.packet_arrival(100, rec.intern("eth0"), rec.intern("m"), 60, None);
        rec.packet_drop(200, "ip", "no_route");
        rec.packet_done();
        let hist = rec.intern("rtt");
        rec.sample(2_500, hist, 77);
        let rep = rec.live_report().unwrap();
        let tl = timeline::build(&rec, 1_000);
        let (mut live_windows, mut tl_windows) = (String::new(), String::new());
        windows_json(&mut live_windows, &rep.windows, 1_000);
        windows_json(&mut tl_windows, &tl.windows, 1_000);
        assert_eq!(live_windows, tl_windows);
    }

    #[test]
    fn a_record_past_max_windows_is_counted_not_allocated() {
        // A 1 ns window would need 2 × MAX_WINDOWS dense windows to reach
        // this record; the post-hoc fold refuses the width, the live tier
        // folds the record everywhere but the windows.
        let rec = Recorder::new(8);
        rec.enable_live(LiveConfig::new(1));
        let (nic, host) = (rec.intern("eth0"), rec.intern("m"));
        rec.packet_arrival(2 * MAX_WINDOWS, nic, host, 60, None);
        rec.packet_done();
        let rep = rec.live_report().unwrap();
        assert!(rep.windows.len() as u64 <= MAX_WINDOWS);
        assert_eq!(rep.world.counters.arrivals, 1, "the scopes still fold it");
        let past = CounterKey {
            scope: Scope::Trace,
            label: rec.intern("live"),
            metric: "records_past_max_windows",
        };
        assert_eq!(rec.registry().get(past), 1);
    }

    #[test]
    fn empty_run_yields_an_empty_report() {
        let rec = Recorder::new(8);
        rec.enable_live(LiveConfig::new(1_000));
        let rep = rec.live_report().unwrap();
        assert!(rep.windows.is_empty());
        assert_eq!(rep.world.counters, ScopeCounters::default());
        validate(&live_json(&rep, 4)).expect("empty live JSON");
    }
}
