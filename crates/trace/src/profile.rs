//! Post-hoc cycle accounting over the flight-recorder ring.
//!
//! [`Profile::build`] folds the [`TraceRecord`] stream into per-packet
//! **span trees** (handler enter/exit pairs, correlated by span ID) and
//! **attribution slices**, which assign every simulated nanosecond between
//! a packet's arrival and its last record to exactly one
//! `(layer, domain, handler)` triple. The gap between two consecutive
//! records of a packet is charged to the step that produced the **later**
//! one: the guard evaluation that just finished, the dispatch that led to
//! a top-level handler entry (a *nested* entry's gap goes to the enclosing
//! handler, whose body ran up to the re-raise), the handler body that just
//! exited, the driver work that readied a frame. So, by construction:
//!
//! > sum of slice durations == last record timestamp − arrival timestamp
//!
//! Wraparound is never silent: a packet whose arrival was overwritten is
//! an *orphan* (in the [`TruncationReport`], out of the aggregates), and
//! an enter or exit whose partner is missing is counted.
//!
//! A profile names things by [`Label`] and looks a name up
//! ([`Profile::name`]) only where bytes are written; it owns its name
//! table, so its consumers need no recorder, and sorted output is sorted
//! by name, never by label. Every packet's spans, slices, transmits and
//! drops live in four arenas of the profile, read through its accessors.
//! On top sit [`Profile::aggregate`] (mean/p50/p99 per triple) and
//! [`pingpong_waterfall`], whose per-round segments sum to the measured
//! RTT exactly.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use crate::json::{escaped, joined, put};
use crate::recorder::Interner;
use crate::timeline::percentile;
use crate::{CrossDir, Label, Recorder, Ring, TraceEvent, TraceRecord};

/// An attribution target: which layer, protection domain, and handler
/// (or structural step) owns a slice of simulated time. Its derived order
/// is label order — good for a map key, not for output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Triple {
    /// Protocol layer, derived from the event-name prefix (`Ethernet.*`
    /// → `ethernet`), or a structural pseudo-layer (`driver`, `boundary`,
    /// `engine`).
    pub layer: Label,
    /// Owning protection domain (`kernel` for dispatch/guard work).
    pub domain: Label,
    /// Handler (event name) or step (`guard`, `dispatch`, `tx`, ...).
    pub handler: Label,
}

/// One attributed interval of a packet's processing window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Interval start (exclusive bound of the previous slice).
    pub start_ns: u64,
    /// Interval end — the timestamp of the record that closed it.
    pub end_ns: u64,
    /// Who the interval is charged to.
    pub at: Triple,
}

impl Slice {
    /// Duration of the slice.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handler execution span. A packet's spans are stored in pre-order
/// (enter order): a span's subtree — the handlers invoked by re-raises
/// from inside its body, and theirs — is the `subtree - 1` spans that
/// follow it, which [`span_trees`] walks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span-correlation ID from the enter/exit records.
    pub span: u64,
    /// Event (table) name the handler was installed on.
    pub event: Label,
    /// Owning protection domain.
    pub domain: Label,
    /// Layer derived from the event name.
    pub layer: Label,
    /// Handler entry timestamp.
    pub enter_ns: u64,
    /// Handler exit timestamp (synthesized at the packet's last record
    /// when the exit was lost; see [`Span::complete`]).
    pub exit_ns: u64,
    /// `exit_ns - enter_ns`.
    pub total_ns: u64,
    /// Time spent in direct child spans.
    pub child_ns: u64,
    /// `total_ns - child_ns`: time charged to this handler itself.
    pub self_ns: u64,
    /// False when the matching exit record was missing and the span was
    /// closed synthetically.
    pub complete: bool,
    /// Spans in this one's subtree, itself included.
    pub subtree: u32,
}

/// The top-level spans of a pre-order run of spans, each with the spans
/// below it: `span_trees(profile.spans(pkt))` yields a packet's roots,
/// and `span_trees(below)` a span's children.
pub fn span_trees(spans: &[Span]) -> impl Iterator<Item = (&Span, &[Span])> {
    let mut rest = spans;
    std::iter::from_fn(move || {
        let (tree, tail) = rest.split_at(rest.first()?.subtree as usize);
        rest = tail;
        Some((&tree[0], &tree[1..]))
    })
}

/// A [`TraceEvent::PacketTx`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// Instant the driver finished its CPU work and handed the frame over.
    pub at_ns: u64,
    /// Transmitting NIC name.
    pub nic: Label,
    /// Name of the machine that owns the transmitting NIC (`None` for NICs
    /// built outside a `World`).
    pub host: Option<Label>,
    /// Frame length.
    pub bytes: u32,
    /// The share of `wait_ns` spent behind this NIC's own tx backlog
    /// (ring/doorbell queue); the journey pass shows it as `tx_queue`.
    pub queue_ns: u64,
    /// Queueing delay before serialization started.
    pub wait_ns: u64,
    /// Serialization time.
    pub ser_ns: u64,
    /// One-way propagation.
    pub prop_ns: u64,
    /// The journey the transmitted frame carries across the wire. Inside a
    /// receive chain this is the chain's own journey unless the sender
    /// called `journey_break` first, in which case it is the fresh journey
    /// the delivery will start.
    pub journey: Option<u64>,
}

/// The profile of one packet's processing window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketProfile {
    /// Per-packet ID assigned at arrival.
    pub packet: u64,
    /// World-global journey this hop belongs to. For orphans this is
    /// recovered from the envelope of the surviving records, so the journey
    /// pass can count truncated journeys instead of silently folding them
    /// into an opaque orphan total — but orphans never join a journey's hop
    /// chain (their durations are untrustworthy).
    pub journey: Option<u64>,
    /// Machine that received the frame (None for orphans or NICs built
    /// outside a `World`).
    pub host: Option<Label>,
    /// Arriving NIC (None for orphans whose arrival record was lost).
    pub nic: Option<Label>,
    /// Frame length at arrival (0 for orphans).
    pub bytes: u32,
    /// First retained record timestamp (the arrival, unless orphaned).
    pub first_ns: u64,
    /// Last retained record timestamp.
    pub last_ns: u64,
    /// Where the packet's spans, slices, transmits and drops lie in the
    /// profile's arenas (read them with [`Profile::spans`] and friends).
    pub(crate) spans: Range<usize>,
    pub(crate) slices: Range<usize>,
    pub(crate) txs: Range<usize>,
    pub(crate) drops: Range<usize>,
    /// True when ring wraparound ate the packet's arrival — durations for
    /// this packet are untrustworthy and it is excluded from aggregates.
    pub orphan: bool,
}

/// What ring wraparound cost this profile, reported instead of silently
/// producing negative or orphaned durations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TruncationReport {
    /// Records overwritten before the snapshot was taken.
    pub dropped_records: u64,
    /// Sequence number of the oldest retained record (non-zero means the
    /// stream has a dropped prefix).
    pub first_retained_seq: u64,
    /// Packets whose arrival record was lost; excluded from aggregates.
    pub orphan_packets: Vec<u64>,
    /// Enter records whose exit never appeared (span closed synthetically).
    pub unmatched_enters: u64,
    /// Exit records whose enter was lost to the wraparound.
    pub unmatched_exits: u64,
}

impl TruncationReport {
    /// True when the ring kept the whole stream.
    pub fn clean(&self) -> bool {
        self.dropped_records == 0
            && self.first_retained_seq == 0
            && self.orphan_packets.is_empty()
            && self.unmatched_enters == 0
            && self.unmatched_exits == 0
    }
}

/// Aggregate statistics for one attribution triple across packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripleStat {
    /// The attribution target.
    pub at: Triple,
    /// Total nanoseconds across all non-orphan packets.
    pub total_ns: u64,
    /// Number of slices contributing.
    pub slices: u64,
    /// Number of packets with at least one slice for this triple.
    pub packets: u64,
    /// Mean of the per-packet sums.
    pub mean_ns: u64,
    /// Median (nearest-rank) of the per-packet sums.
    pub p50_ns: u64,
    /// 99th percentile (nearest-rank) of the per-packet sums.
    pub p99_ns: u64,
}

/// One triple's time over the non-orphan packets, as
/// [`Profile::triple_sums`] adds it up.
pub(crate) struct TripleSum {
    pub(crate) at: Triple,
    pub(crate) total_ns: u64,
    slices: u64,
    /// Each packet's sum, in packet order, when they were asked for.
    per_packet: Vec<u64>,
    /// The packet (by position) summed last, and its sum so far.
    open: (usize, u64),
}

/// The full cycle-accounting profile of a recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Per-packet profiles, in packet-ID order.
    pub packets: Vec<PacketProfile>,
    /// What wraparound cost, if anything.
    pub truncation: TruncationReport,
    /// Transmissions recorded outside any packet window (e.g. a send
    /// initiated from engine or timer context rather than a receive
    /// chain — the video server's frame pushes are all of this kind).
    pub unattributed_txs: Vec<TxRecord>,
    /// Drops recorded outside any packet window, as
    /// `(layer, reason, count)` sorted by layer name then reason name.
    pub unattributed_drops: Vec<(Label, Label, u64)>,
    /// Every packet's spans (in pre-order), slices, transmits and drops,
    /// packet after packet; a [`PacketProfile`] holds ranges into them.
    spans: Vec<Span>,
    slices: Vec<Slice>,
    pub(crate) txs: Vec<TxRecord>,
    drops: Vec<(Label, Label)>,
    /// The recorder's name table plus the names the fold added.
    pub(crate) names: Interner,
    steps: Steps,
}

/// Labels of the structural layers, domain and steps the gap rule
/// charges, interned once per build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Steps {
    kernel: Label,
    guard: Label,
    dispatch: Label,
    boundary: Label,
    crossings: [Label; 2],
    driver: Label,
    tx: Label,
    engine: Label,
    timer: Label,
    tail: Label,
    /// The label of `""` (an unnamed host), if the recorder ever saw it.
    unnamed: Option<Label>,
}

impl Steps {
    /// `host`, unless it is the empty name.
    fn named(&self, host: Label) -> Option<Label> {
        (Some(host) != self.unnamed).then_some(host)
    }

    fn tx_record(&self, r: &TraceRecord) -> Option<TxRecord> {
        let TraceEvent::PacketTx {
            nic,
            host,
            bytes,
            queue_ns,
            wait_ns,
            ser_ns,
            prop_ns,
        } = r.event
        else {
            return None;
        };
        Some(TxRecord {
            at_ns: r.at_ns,
            nic,
            host: self.named(host),
            bytes,
            queue_ns,
            wait_ns,
            ser_ns,
            prop_ns,
            journey: r.journey,
        })
    }
}

/// How many of each thing a profile keeps from a ring: counted in one walk
/// before the fold, so each arena is reserved once at the size it keeps.
#[derive(Debug, Default, PartialEq, Eq)]
struct Sizes {
    packets: usize,
    orphans: usize,
    spans: usize,
    slices: usize,
    txs: usize,
    drops: usize,
    unattributed_txs: usize,
}

impl Sizes {
    /// Walks the ring as [`Profile::build`] does, counting what it keeps.
    fn of(ring: &Ring) -> Sizes {
        let mut n = Sizes::default();
        // The packet whose run the walk is in, the instant its slices
        // reach so far and its last record's: a run that ends past its
        // last slice is closed with a tail slice.
        let (mut inside, mut covered, mut last) = (None, 0, 0);
        for r in ring.iter() {
            if inside != r.packet {
                n.slices += usize::from(inside.is_some() && covered < last);
                inside = r.packet;
                (covered, last) = (r.at_ns, r.at_ns);
                let arrival = matches!(r.event, TraceEvent::PacketArrival { .. });
                n.packets += usize::from(inside.is_some());
                n.orphans += usize::from(inside.is_some() && !arrival);
            }
            if r.packet.is_none() {
                let tx = matches!(r.event, TraceEvent::PacketTx { .. });
                n.unattributed_txs += usize::from(tx);
                continue;
            }
            last = r.at_ns;
            match r.event {
                TraceEvent::HandlerEnter { .. } => n.spans += 1,
                TraceEvent::PacketTx { .. } => n.txs += 1,
                TraceEvent::Drop { .. } => n.drops += 1,
                // Neither an arrival nor an observability record charges.
                TraceEvent::PacketArrival { .. }
                | TraceEvent::RxInterrupt { .. }
                | TraceEvent::LatencySample { .. } => continue,
                _ => {}
            }
            covered = r.at_ns;
            n.slices += 1;
        }
        n.slices += usize::from(inside.is_some() && covered < last);
        n
    }
}

/// Charges the gap from the open packet's last slice's end (or its
/// `first_ns`) to `end_ns` to `(layer, domain, handler)`.
fn charge(slices: &mut Vec<Slice>, open: &PacketProfile, end_ns: u64, to: (Label, Label, Label)) {
    let last = slices[open.slices.start..].last();
    let start_ns = last.map_or(open.first_ns, |s| s.end_ns);
    let (layer, domain, handler) = to;
    let at = Triple {
        layer,
        domain,
        handler,
    };
    slices.push(Slice {
        start_ns,
        end_ns,
        at,
    });
}

/// Closes the span at `at`, the innermost one open: every span after it
/// in the arena is in its subtree, and closed already.
fn close_span(spans: &mut [Span], at: usize, exit_ns: u64, complete: bool) {
    let child_ns = span_trees(&spans[at + 1..]).map(|(c, _)| c.total_ns).sum();
    let subtree = u32::try_from(spans.len() - at).expect("span subtree overflow");
    let sp = &mut spans[at];
    sp.exit_ns = exit_ns;
    sp.complete = complete;
    sp.total_ns = exit_ns.saturating_sub(sp.enter_ns);
    sp.child_ns = child_ns;
    sp.self_ns = sp.total_ns.saturating_sub(child_ns);
    sp.subtree = subtree;
}

impl Profile {
    /// Folds the recorder's retained ring into a profile, in one walk
    /// after a counting one that sizes the arenas. A packet's records are
    /// one contiguous run of the ring (the recorder changes packet only at
    /// an arrival, which takes the next ID), so nothing is copied or
    /// grouped first.
    pub fn build(rec: &Recorder) -> Profile {
        let ring = rec.ring();
        let n = Sizes::of(&ring);
        let mut names = rec.names().clone();
        let unnamed = names.lookup("");
        let mut step = |name| names.intern(name);
        let steps = Steps {
            kernel: step("kernel"),
            guard: step("guard"),
            dispatch: step("dispatch"),
            boundary: step("boundary"),
            crossings: [CrossDir::UserToKernel, CrossDir::KernelToUser].map(|d| step(d.name())),
            driver: step("driver"),
            tx: step("tx"),
            engine: step("engine"),
            timer: step("timer"),
            tail: step("tail"),
            unnamed,
        };
        let mut profile = Profile {
            packets: Vec::with_capacity(n.packets),
            truncation: TruncationReport {
                dropped_records: ring.overwritten(),
                first_retained_seq: ring.iter().next().map_or(0, |r| r.seq),
                orphan_packets: Vec::with_capacity(n.orphans),
                ..TruncationReport::default()
            },
            unattributed_txs: Vec::with_capacity(n.unattributed_txs),
            unattributed_drops: Vec::new(),
            spans: Vec::with_capacity(n.spans),
            slices: Vec::with_capacity(n.slices),
            txs: Vec::with_capacity(n.txs),
            drops: Vec::with_capacity(n.drops),
            names,
            steps,
        };

        // The packet the walk is inside, if any (the last of `packets`),
        // and its open spans, innermost last, as span-arena indices.
        let (mut inside, mut stack) = (None, Vec::new());
        let mut drops: BTreeMap<(Label, Label), u64> = BTreeMap::new();
        for r in ring.iter() {
            if inside != r.packet {
                profile.close_packet(inside, &mut stack);
                inside = r.packet;
                if profile.open_packet(&r) {
                    continue;
                }
            }
            match (r.packet, r.event) {
                (Some(_), _) => profile.record(&mut stack, &r),
                (None, TraceEvent::PacketTx { .. }) => {
                    profile.unattributed_txs.extend(steps.tx_record(&r));
                }
                (None, TraceEvent::Drop { layer, reason }) => {
                    *drops.entry((layer, reason)).or_insert(0) += 1;
                }
                (None, _) => {}
            }
        }
        profile.close_packet(inside, &mut stack);

        let mut drops: Vec<_> = drops.into_iter().map(|((l, r), n)| (l, r, n)).collect();
        drops.sort_by_key(|&(layer, reason, _)| (profile.name(layer), profile.name(reason)));
        profile.unattributed_drops = drops;
        debug_assert_eq!(profile.sizes(), n, "the counting walk sized every arena");
        profile
    }

    /// What the fold kept, as [`Sizes::of`] counts it.
    fn sizes(&self) -> Sizes {
        Sizes {
            packets: self.packets.len(),
            orphans: self.truncation.orphan_packets.len(),
            spans: self.spans.len(),
            slices: self.slices.len(),
            txs: self.txs.len(),
            drops: self.drops.len(),
            unattributed_txs: self.unattributed_txs.len(),
        }
    }

    /// The string behind a label found anywhere in this profile.
    ///
    /// # Panics
    ///
    /// Panics if `label` came from neither this profile nor the recorder
    /// it was built from.
    pub fn name(&self, label: Label) -> &str {
        self.names.get(label)
    }

    /// A packet's handler spans, in pre-order (see [`span_trees`]).
    pub fn spans(&self, p: &PacketProfile) -> &[Span] {
        &self.spans[p.spans.clone()]
    }

    /// A packet's attribution slices, tiling `[first_ns, last_ns]`.
    pub fn slices(&self, p: &PacketProfile) -> &[Slice] {
        &self.slices[p.slices.clone()]
    }

    /// The frames a packet's chain handed to a transmitter.
    pub fn txs(&self, p: &PacketProfile) -> &[TxRecord] {
        &self.txs[p.txs.clone()]
    }

    /// The drops recorded during a packet's window, as `(layer, reason)`.
    pub fn drops(&self, p: &PacketProfile) -> &[(Label, Label)] {
        &self.drops[p.drops.clone()]
    }

    /// A packet's attributed time: `last_ns - first_ns`, by construction.
    pub fn attributed_ns(&self, p: &PacketProfile) -> u64 {
        self.slices(p).iter().map(Slice::ns).sum()
    }

    /// A triple's names, `[layer, domain, handler]`: what it is written
    /// as, and what sorted output is sorted by.
    pub fn triple_names(&self, t: &Triple) -> [&str; 3] {
        [t.layer, t.domain, t.handler].map(|l| self.name(l))
    }

    pub(crate) fn by_name(&self, a: &Triple, b: &Triple) -> Ordering {
        self.triple_names(a).cmp(&self.triple_names(b))
    }

    /// Whether `s` is the slice a `PacketTx` record closed.
    pub(crate) fn is_tx(&self, s: &Slice) -> bool {
        s.at.layer == self.steps.driver && s.at.handler == self.steps.tx
    }

    /// Every triple's time over the non-orphan packets, in one walk over
    /// their slices, as rows in first-seen order: what [`folded`] prints
    /// and, with each packet's sum kept (`per_packet`), what
    /// [`Profile::aggregate`] takes its percentiles of.
    ///
    /// [`folded`]: crate::flame::folded
    pub(crate) fn triple_sums(&self, per_packet: bool) -> Vec<TripleSum> {
        let mut rows: Vec<TripleSum> = Vec::new();
        // Packets repeat their triples in one order, so the row after the
        // one found last is tried first.
        let mut next = 0;
        for (i, p) in self.packets.iter().enumerate().filter(|(_, p)| !p.orphan) {
            for s in self.slices(p) {
                let at = match rows.get(next) {
                    Some(row) if row.at == s.at => next,
                    _ => rows
                        .iter()
                        .position(|row| row.at == s.at)
                        .unwrap_or_else(|| {
                            rows.push(TripleSum {
                                at: s.at,
                                total_ns: 0,
                                slices: 0,
                                per_packet: Vec::new(),
                                open: (i, 0),
                            });
                            rows.len() - 1
                        }),
                };
                next = at + 1;
                let row = &mut rows[at];
                row.total_ns += s.ns();
                row.slices += 1;
                if row.open.0 != i {
                    if per_packet {
                        row.per_packet.push(row.open.1);
                    }
                    row.open = (i, 0);
                }
                row.open.1 += s.ns();
            }
        }
        if per_packet {
            rows.iter_mut()
                .for_each(|row| row.per_packet.push(row.open.1));
        }
        rows
    }

    /// Per-triple statistics over the non-orphan packets, sorted by the
    /// triples' names.
    pub fn aggregate(&self) -> Vec<TripleStat> {
        // Per-packet sums, so the percentiles describe "ns this triple
        // cost *a packet*", matching Figure 5's per-RTT bars.
        let stat = |mut row: TripleSum| {
            row.per_packet.sort_unstable();
            let packets = row.per_packet.len() as u64;
            TripleStat {
                at: row.at,
                total_ns: row.total_ns,
                slices: row.slices,
                packets,
                mean_ns: row.total_ns / packets,
                p50_ns: percentile(&row.per_packet, 50.0),
                p99_ns: percentile(&row.per_packet, 99.0),
            }
        };
        let mut stats: Vec<TripleStat> = self.triple_sums(true).into_iter().map(stat).collect();
        stats.sort_by(|a, b| self.by_name(&a.at, &b.at));
        stats
    }

    /// Starts the packet whose run of records `first` begins. Returns
    /// whether `first` is its arrival, which the packet's header holds
    /// and no slice charges.
    fn open_packet(&mut self, first: &TraceRecord) -> bool {
        let Some(packet) = first.packet else {
            return false;
        };
        let arrival = match first.event {
            TraceEvent::PacketArrival { nic, host, bytes } => Some((nic, host, bytes)),
            // Wraparound ate the arrival: keep what we can see, but flag it.
            _ => None,
        };
        if arrival.is_none() {
            self.truncation.orphan_packets.push(packet);
        }
        // Empty ranges at the arenas' ends; `close_packet` sets the ends.
        let at = |len: usize| len..len;
        self.packets.push(PacketProfile {
            packet,
            journey: first.journey,
            host: arrival.and_then(|a| self.steps.named(a.1)),
            nic: arrival.map(|a| a.0),
            bytes: arrival.map_or(0, |a| a.2),
            first_ns: first.at_ns,
            last_ns: first.at_ns,
            spans: at(self.spans.len()),
            slices: at(self.slices.len()),
            txs: at(self.txs.len()),
            drops: at(self.drops.len()),
            orphan: arrival.is_none(),
        });
        arrival.is_some()
    }

    /// Attributes one record of the open packet, whose open spans are
    /// `stack`.
    fn record(&mut self, stack: &mut Vec<usize>, r: &TraceRecord) {
        let (steps, kernel) = (self.steps, self.steps.kernel);
        let open = self.packets.last_mut().expect("a packet is open");
        if open.orphan {
            // Orphans recover their journey tag from whichever record
            // survived — every record of a hop carries the same journey.
            open.journey = open.journey.or(r.journey);
        }
        open.last_ns = r.at_ns;
        let cur_domain = stack.last().map_or(kernel, |&s| self.spans[s].domain);
        // Who the gap this record closes is charged to, as
        // `(layer, domain, handler)`.
        let charged = match r.event {
            TraceEvent::GuardEval { event, .. } => {
                Some((self.names.layer(event), kernel, steps.guard))
            }
            TraceEvent::HandlerEnter {
                event,
                domain,
                span,
            } => {
                let layer = self.names.layer(event);
                // A top-level entry follows kernel dispatch work (thread
                // spawn, context switch, handler lookup); a nested one
                // follows the enclosing handler's body, up to its raise(),
                // so extension time stays in the extension's domain.
                let charged = match stack.last().map(|&s| &self.spans[s]) {
                    Some(parent) => (parent.layer, parent.domain, parent.event),
                    None => (layer, kernel, steps.dispatch),
                };
                stack.push(self.spans.len());
                self.spans.push(Span {
                    span,
                    event,
                    domain,
                    layer,
                    enter_ns: r.at_ns,
                    exit_ns: r.at_ns,
                    total_ns: 0,
                    child_ns: 0,
                    self_ns: 0,
                    complete: false,
                    subtree: 1,
                });
                Some(charged)
            }
            TraceEvent::HandlerExit {
                event,
                domain,
                span,
            } => {
                match stack.iter().rposition(|&s| self.spans[s].span == span) {
                    // Anything still open above the match lost its own
                    // exit — close it here rather than leak or nest
                    // wrongly.
                    Some(pos) => {
                        while stack.len() > pos {
                            let s = stack.pop().expect("len checked");
                            let matched = stack.len() == pos;
                            self.truncation.unmatched_enters += u64::from(!matched);
                            close_span(&mut self.spans, s, r.at_ns, matched);
                        }
                    }
                    None => self.truncation.unmatched_exits += 1,
                }
                Some((self.names.layer(event), domain, event))
            }
            TraceEvent::Drop { layer, reason } => {
                self.drops.push((layer, reason));
                Some((layer, cur_domain, reason))
            }
            TraceEvent::Crossing { dir, .. } => {
                Some((steps.boundary, cur_domain, steps.crossings[dir as usize]))
            }
            TraceEvent::PacketTx { .. } => {
                self.txs.extend(steps.tx_record(r));
                Some((steps.driver, cur_domain, steps.tx))
            }
            TraceEvent::TimerFire => Some((steps.engine, cur_domain, steps.timer)),
            // Observability events carry no CPU work of their own (the
            // driver glue charges interrupts): no slice, and the gap is
            // left to the next structural record.
            TraceEvent::RxInterrupt { .. } | TraceEvent::LatencySample { .. } => None,
            // An arrival takes a fresh ID, so it opens a run and never
            // lands inside one.
            TraceEvent::PacketArrival { .. } => unreachable!("an arrival inside a packet's run"),
        };
        if let Some(to) = charged {
            charge(&mut self.slices, open, r.at_ns, to);
        }
    }

    /// Ends the run of the packet the walk is `inside`, if it is in one;
    /// `stack` holds its open spans.
    fn close_packet(&mut self, inside: Option<u64>, stack: &mut Vec<usize>) {
        let steps = self.steps;
        let (Some(_), Some(open)) = (inside, self.packets.last_mut()) else {
            return;
        };
        // A trailing attribution-neutral record (latency sample, rx
        // interrupt) can leave the gap to the window's end uncharged; close
        // it against the innermost open domain so slices still tile
        // `[first_ns, last_ns]`.
        let last = self.slices[open.slices.start..].last();
        if last.map_or(open.first_ns, |s| s.end_ns) < open.last_ns {
            let domain = stack.last().map_or(steps.kernel, |&s| self.spans[s].domain);
            let tail = (steps.engine, domain, steps.tail);
            charge(&mut self.slices, open, open.last_ns, tail);
        }
        // Enters whose exits never made the ring: close at the window's end.
        while let Some(s) = stack.pop() {
            self.truncation.unmatched_enters += 1;
            close_span(&mut self.spans, s, open.last_ns, false);
        }
        open.spans.end = self.spans.len();
        open.slices.end = self.slices.len();
        open.txs.end = self.txs.len();
        open.drops.end = self.drops.len();
    }
}

// --- ping-pong waterfall ------------------------------------------------

/// One named segment of a round-trip waterfall.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment name (`client.send`, `server.udp`, `reply.wire.serialize`,
    /// ...). Shared, not copied, by every journey that has the segment.
    pub name: Arc<str>,
    /// Simulated nanoseconds.
    pub ns: u64,
}

/// The waterfall of one round trip. Segments sum to `rtt_ns` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundProfile {
    /// 1-based round number.
    pub round: u32,
    /// Round-trip time: app-handler entry minus the instant the request
    /// send began.
    pub rtt_ns: u64,
    /// Ordered waterfall segments.
    pub segments: Vec<Segment>,
    /// CPU time spent unwinding handler stacks *after* the frame was on
    /// the wire — real work, but off the latency-critical path (it
    /// overlaps wire time), so it is reported separately rather than
    /// inside the waterfall.
    pub overlap_ns: u64,
}

/// Aggregate stats for one segment name across rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentStat {
    /// Segment name.
    pub name: String,
    /// Sum over rounds.
    pub total_ns: u64,
    /// Mean over rounds.
    pub mean_ns: u64,
    /// Nearest-rank median over rounds.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile over rounds.
    pub p99_ns: u64,
}

/// Per-round latency waterfalls for a serial request/reply ping-pong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waterfall {
    /// The application domain whose handler entries delimit rounds.
    pub app_domain: String,
    /// One waterfall per completed round.
    pub rounds: Vec<RoundProfile>,
    /// Per-segment aggregates (mean/p50/p99 over rounds), in first-seen
    /// segment order.
    pub segment_stats: Vec<SegmentStat>,
}

fn segment(name: &str, ns: u64) -> Segment {
    let name = name.into();
    Segment { name, ns }
}

/// Adds `ns` to `key`'s entry, keeping first-seen order.
pub(crate) fn add<K: PartialEq>(sums: &mut Vec<(K, u64)>, key: K, ns: u64) {
    match sums.iter_mut().find(|(k, _)| *k == key) {
        Some((_, sum)) => *sum += ns,
        None => sums.push((key, ns)),
    }
}

/// Sums `slices` grouped by layer, in first-seen order, as
/// `{prefix}.{layer}` segments.
fn layer_sums(profile: &Profile, slices: &[Slice], prefix: &str) -> Vec<Segment> {
    let mut sums: Vec<(Label, u64)> = Vec::new();
    slices
        .iter()
        .for_each(|s| add(&mut sums, s.at.layer, s.ns()));
    let named = |(layer, ns)| segment(&format!("{prefix}.{}", profile.name(layer)), ns);
    sums.into_iter().map(named).collect()
}

/// Builds per-round waterfalls for a serial ping-pong scenario
/// (`udp_rtt`-shaped): packets alternate request (even IDs, processed by
/// the responder) and reply (odd IDs, processed by the initiator), and a
/// handler owned by `app_domain` runs at both endpoints. Round `k`'s RTT
/// is the time from the initiator starting send `k` to its app handler
/// observing reply `k` — with serial rounds and a send that begins at the
/// app handler's entry timestamp, that is exactly the gap between
/// consecutive app-handler entries on the initiator.
///
/// Fails (with a reason) when the trace does not look like a completed
/// ping-pong: odd packet count, truncated packets, missing transmissions
/// or app-handler entries.
pub fn pingpong_waterfall(profile: &Profile, app_domain: &str) -> Result<Waterfall, String> {
    let packets = &profile.packets;
    if packets.is_empty() {
        return Err(String::from("no packets in profile"));
    }
    if !packets.len().is_multiple_of(2) {
        return Err(format!(
            "expected request/reply packet pairs, got {} packets",
            packets.len()
        ));
    }
    if let Some(p) = packets.iter().find(|p| p.orphan) {
        return Err(format!(
            "packet {} is truncated (ring wraparound); profile with a larger ring",
            p.packet
        ));
    }
    // `None` (a domain the run never named) matches no span below. Spans
    // are in record order, so the first found is the first entered.
    let app = profile.names.lookup(app_domain);
    let app_enter = |p: &PacketProfile| {
        let first = profile.spans(p).iter().find(|s| Some(s.domain) == app);
        first.map(|s| s.enter_ns)
    };

    let rounds_n = packets.len() / 2;
    let mut rounds = Vec::with_capacity(rounds_n);
    for k in 0..rounds_n {
        let req = &packets[2 * k];
        let rep = &packets[2 * k + 1];

        // Where the initiator's send began, and the tx record that frame
        // produced. Round 1's send comes from engine context (recorded
        // outside any packet window); later sends happen inside the
        // previous reply's handler chain.
        let (send_start, client_tx) = if k == 0 {
            let tx = profile
                .unattributed_txs
                .first()
                .ok_or("no unattributed tx for the initial send")?;
            (0u64, *tx)
        } else {
            let prev = &packets[2 * k - 1];
            let enter = app_enter(prev)
                .ok_or_else(|| format!("packet {}: no {app_domain} handler", prev.packet))?;
            let tx = profile
                .txs(prev)
                .first()
                .ok_or_else(|| format!("packet {}: no tx record", prev.packet))?;
            (enter, *tx)
        };

        let server_tx = profile
            .txs(req)
            .first()
            .ok_or_else(|| format!("packet {}: no reply tx record", req.packet))?;
        let reply_enter = app_enter(rep)
            .ok_or_else(|| format!("packet {}: no {app_domain} handler", rep.packet))?;
        let (req_slices, rep_slices) = (profile.slices(req), profile.slices(rep));

        let mut segments = vec![
            segment("client.send", client_tx.at_ns - send_start),
            segment("request.wire.wait", client_tx.wait_ns),
            segment("request.wire.serialize", client_tx.ser_ns),
            segment("request.wire.propagate", client_tx.prop_ns),
        ];
        let srv_upto = (req_slices.iter())
            .position(|s| profile.is_tx(s))
            .ok_or_else(|| format!("packet {}: no tx slice", req.packet))?;
        segments.extend(layer_sums(profile, &req_slices[..=srv_upto], "server"));
        segments.extend([
            segment("reply.wire.wait", server_tx.wait_ns),
            segment("reply.wire.serialize", server_tx.ser_ns),
            segment("reply.wire.propagate", server_tx.prop_ns),
        ]);
        // The last slice ending at the app handler's entry: slices tile
        // contiguously, so everything up to it covers exactly
        // `[first_ns, enter_ns]` (later zero-length slices at the same
        // timestamp contribute nothing).
        let cli_upto = (rep_slices.iter())
            .rposition(|s| s.end_ns == reply_enter)
            .ok_or_else(|| format!("packet {}: no app dispatch slice", rep.packet))?;
        segments.extend(layer_sums(profile, &rep_slices[..=cli_upto], "client"));

        let overlap = (req.last_ns - server_tx.at_ns)
            + if k == 0 {
                0
            } else {
                packets[2 * k - 1].last_ns - client_tx.at_ns
            };

        rounds.push(RoundProfile {
            round: (k + 1) as u32,
            rtt_ns: reply_enter - send_start,
            segments,
            overlap_ns: overlap,
        });
    }

    // Per-segment aggregates, in first-seen order; a segment absent from a
    // round contributes zero (layer mixes can differ between rounds).
    let mut totals: Vec<(Arc<str>, u64)> = Vec::new();
    for s in rounds.iter().flat_map(|r| &r.segments) {
        add(&mut totals, s.name.clone(), s.ns);
    }
    let segment_stats = totals
        .into_iter()
        .map(|(name, total_ns)| {
            let in_round = |r: &RoundProfile| {
                let named = r.segments.iter().filter(|s| s.name == name);
                named.map(|s| s.ns).sum()
            };
            let mut per_round: Vec<u64> = rounds.iter().map(in_round).collect();
            per_round.sort_unstable();
            SegmentStat {
                name: name.to_string(),
                total_ns,
                mean_ns: total_ns / (per_round.len() as u64).max(1),
                p50_ns: percentile(&per_round, 50.0),
                p99_ns: percentile(&per_round, 99.0),
            }
        })
        .collect();

    Ok(Waterfall {
        app_domain: app_domain.to_string(),
        rounds,
        segment_stats,
    })
}

// --- JSON export --------------------------------------------------------

/// Appends the span trees of a pre-order run, comma-separated, each with
/// its children nested.
fn spans_json(p: &Profile, spans: &[Span], out: &mut String) {
    for (i, (s, below)) in span_trees(spans).enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let [event, domain, layer] = [s.event, s.domain, s.layer].map(|l| escaped(p.name(l)));
        let (span, enter_ns, exit_ns, total_ns) = (s.span, s.enter_ns, s.exit_ns, s.total_ns);
        let (self_ns, child_ns, complete) = (s.self_ns, s.child_ns, s.complete);
        put!(
            out,
            "{sep}{{\"span\": {span}, \"event\": \"{event}\", \"domain\": \"{domain}\", \
             \"layer\": \"{layer}\", \"enter_ns\": {enter_ns}, \"exit_ns\": {exit_ns}, \
             \"total_ns\": {total_ns}, \"self_ns\": {self_ns}, \"child_ns\": {child_ns}, \
             \"complete\": {complete}, \"children\": ["
        );
        spans_json(p, below, out);
        out.push_str("]}");
    }
}

/// Appends `{"name": .., "ns": ..}` objects, comma-separated — the one
/// segment list the round waterfalls and the journeys both write.
pub(crate) fn segments_json<'a>(out: &mut String, segments: impl Iterator<Item = (&'a str, u64)>) {
    for (i, (name, ns)) in segments.enumerate() {
        let (sep, name) = (if i > 0 { ", " } else { "" }, escaped(name));
        put!(out, "{sep}{{\"name\": \"{name}\", \"ns\": {ns}}}");
    }
}

fn waterfall_json(w: &Waterfall, out: &mut String) {
    put!(
        out,
        "{{\"app_domain\": \"{}\", \"rounds\": [",
        escaped(&w.app_domain)
    );
    for (i, r) in w.rounds.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let (round, rtt_ns, overlap_ns) = (r.round, r.rtt_ns, r.overlap_ns);
        put!(
            out,
            "{sep}\n    {{\"round\": {round}, \"rtt_ns\": {rtt_ns}, \"overlap_ns\": {overlap_ns}, \
             \"segments\": ["
        );
        segments_json(out, r.segments.iter().map(|s| (&*s.name, s.ns)));
        out.push_str("]}");
    }
    out.push_str("], \"segments\": [");
    for (i, s) in w.segment_stats.iter().enumerate() {
        let (sep, name) = (if i > 0 { ", " } else { "" }, escaped(&s.name));
        let (total_ns, mean_ns, p50_ns, p99_ns) = (s.total_ns, s.mean_ns, s.p50_ns, s.p99_ns);
        put!(
            out,
            "{sep}\n    {{\"name\": \"{name}\", \"total_ns\": {total_ns}, \"mean_ns\": {mean_ns}, \
             \"p50_ns\": {p50_ns}, \"p99_ns\": {p99_ns}}}"
        );
    }
    out.push_str("]}");
}

/// Renders the profile as deterministic JSON.
///
/// Per-packet detail (span trees and slices) is included for the first
/// `max_packet_detail` packets only — large scenarios produce hundreds of
/// thousands of slices — and the cap is stated in the output
/// (`packets_total` vs `packets_detailed`) rather than applied silently.
/// Aggregates always cover every non-orphan packet.
pub fn profile_json(
    p: &Profile,
    waterfall: Option<&Waterfall>,
    max_packet_detail: usize,
) -> String {
    let t = &p.truncation;
    let mut out = String::from("{\n  \"schema\": \"plexus.profile.v1\",\n");
    put!(
        out,
        "  \"truncation\": {{\"dropped_records\": {}, \"first_retained_seq\": {}, \
         \"orphan_packets\": [{}], \"unmatched_enters\": {}, \"unmatched_exits\": {}}},\n",
        t.dropped_records,
        t.first_retained_seq,
        joined(&t.orphan_packets),
        t.unmatched_enters,
        t.unmatched_exits
    );
    put!(out, "  \"packets_total\": {},\n", p.packets.len());
    let detailed = p.packets.len().min(max_packet_detail);
    put!(out, "  \"packets_detailed\": {detailed},\n");

    // Work that ran outside any packet window (timer- or engine-driven
    // sends and sheds) — for push-style scenarios like the video server
    // this is where nearly everything lands.
    let txs = &p.unattributed_txs;
    let sum = |of: fn(&TxRecord) -> u64| txs.iter().map(of).sum::<u64>();
    put!(
        out,
        "  \"unattributed_tx\": {{\"frames\": {}, \"bytes\": {}, \"wait_ns\": {}, \
         \"ser_ns\": {}, \"prop_ns\": {}}},\n",
        txs.len(),
        sum(|tx| tx.bytes.into()),
        sum(|tx| tx.wait_ns),
        sum(|tx| tx.ser_ns),
        sum(|tx| tx.prop_ns)
    );
    out.push_str("  \"unattributed_drops\": [");
    for (i, &(layer, reason, n)) in p.unattributed_drops.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let (layer, reason) = (escaped(p.name(layer)), escaped(p.name(reason)));
        put!(
            out,
            "{sep}{{\"layer\": \"{layer}\", \"reason\": \"{reason}\", \"count\": {n}}}"
        );
    }
    out.push_str("],\n");

    out.push_str("  \"aggregate\": [");
    for (i, s) in p.aggregate().iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let [layer, domain, handler] = p.triple_names(&s.at).map(escaped);
        let (total_ns, slices, packets) = (s.total_ns, s.slices, s.packets);
        let (mean_ns, p50_ns, p99_ns) = (s.mean_ns, s.p50_ns, s.p99_ns);
        put!(
            out,
            "{sep}\n    {{\"layer\": \"{layer}\", \"domain\": \"{domain}\", \
             \"handler\": \"{handler}\", \"total_ns\": {total_ns}, \"slices\": {slices}, \
             \"packets\": {packets}, \"mean_ns\": {mean_ns}, \"p50_ns\": {p50_ns}, \
             \"p99_ns\": {p99_ns}}}"
        );
    }
    out.push_str("\n  ],\n");

    if let Some(w) = waterfall {
        out.push_str("  \"waterfall\": ");
        waterfall_json(w, &mut out);
        out.push_str(",\n");
    }

    out.push_str("  \"packets\": [");
    for (i, pkt) in p.packets.iter().take(detailed).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        put!(out, "{sep}\n    {{\"packet\": {}, \"nic\": ", pkt.packet);
        match pkt.nic {
            Some(nic) => put!(out, "\"{}\"", escaped(p.name(nic))),
            None => out.push_str("null"),
        }
        let (bytes, first_ns, last_ns) = (pkt.bytes, pkt.first_ns, pkt.last_ns);
        let (attributed_ns, orphan) = (p.attributed_ns(pkt), pkt.orphan);
        put!(
            out,
            ", \"bytes\": {bytes}, \"first_ns\": {first_ns}, \"last_ns\": {last_ns}, \
             \"attributed_ns\": {attributed_ns}, \"orphan\": {orphan}, \"drops\": ["
        );
        for (j, &(layer, reason)) in p.drops(pkt).iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            let (layer, reason) = (escaped(p.name(layer)), escaped(p.name(reason)));
            put!(out, "{sep}[\"{layer}\", \"{reason}\"]");
        }
        out.push_str("], \"spans\": [");
        spans_json(p, p.spans(pkt), &mut out);
        out.push_str("], \"slices\": [");
        for (j, s) in p.slices(pkt).iter().enumerate() {
            let (sep, start_ns, end_ns) = (if j > 0 { ", " } else { "" }, s.start_ns, s.end_ns);
            let [layer, domain, handler] = p.triple_names(&s.at).map(escaped);
            put!(
                out,
                "{sep}{{\"start_ns\": {start_ns}, \"end_ns\": {end_ns}, \"layer\": \"{layer}\", \
                 \"domain\": \"{domain}\", \"handler\": \"{handler}\"}}"
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{GuardKind, Recorder};

    /// Two nested handlers with a guard eval between arrival and entry.
    fn nested() -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(64);
        rec.packet_arrival(1_000, rec.intern("Ethernet"), rec.intern(""), 60, None);
        let eth = rec.intern("Ethernet.PacketRecv");
        let udp = rec.intern("Udp.PacketRecv");
        let kernel = rec.intern("ip");
        let app = rec.intern("echo-ext");
        rec.guard_eval(1_300, eth, GuardKind::Verified, true);
        let outer = rec.handler_enter(1_500, eth, kernel);
        let inner = rec.handler_enter(2_000, udp, app);
        rec.packet_tx(
            4_000,
            rec.intern("Ethernet"),
            rec.intern(""),
            60,
            0,
            100,
            500,
            1_000,
            rec.current_journey(),
        );
        rec.handler_exit(5_000, udp, app, inner);
        rec.handler_exit(6_000, eth, kernel, outer);
        rec.packet_done();
        rec
    }

    #[test]
    fn slices_tile_the_packet_window_exactly() {
        let rec = nested();
        let p = Profile::build(&rec);
        assert!(p.truncation.clean());
        assert_eq!(p.packets.len(), 1);
        let pkt = &p.packets[0];
        assert_eq!(pkt.first_ns, 1_000);
        assert_eq!(pkt.last_ns, 6_000);
        assert_eq!(p.attributed_ns(pkt), 5_000, "every ns attributed");
        let total: u64 = p.slices(pkt).iter().map(Slice::ns).sum();
        assert_eq!(total, pkt.last_ns - pkt.first_ns);
    }

    #[test]
    fn span_tree_separates_self_and_child_time() {
        let rec = nested();
        let p = Profile::build(&rec);
        let roots: Vec<_> = span_trees(p.spans(&p.packets[0])).collect();
        assert_eq!(roots.len(), 1, "one root span");
        let (root, below) = roots[0];
        assert_eq!(p.name(root.event), "Ethernet.PacketRecv");
        assert_eq!(p.name(root.layer), "ethernet");
        assert_eq!(root.total_ns, 4_500);
        let children: Vec<_> = span_trees(below).collect();
        assert_eq!(children.len(), 1);
        let (child, _) = children[0];
        assert_eq!(p.name(child.domain), "echo-ext");
        assert_eq!(child.total_ns, 3_000);
        assert_eq!(root.child_ns, 3_000);
        assert_eq!(root.self_ns, 1_500);
        assert!(root.complete && child.complete);
    }

    #[test]
    fn attribution_follows_the_gap_rule() {
        let rec = nested();
        let p = Profile::build(&rec);
        let s = p.slices(&p.packets[0]);
        let names = |s: &Slice| p.triple_names(&s.at);
        // arrival -> guard eval: guard work at ethernet.
        assert_eq!(names(&s[0]), ["ethernet", "kernel", "guard"]);
        assert_eq!(s[0].ns(), 300);
        // guard -> enter: dispatch.
        assert_eq!(names(&s[1])[2], "dispatch");
        // tx gap runs under the innermost open domain.
        let tx = s.iter().find(|s| names(s)[2] == "tx").unwrap();
        assert_eq!(names(tx), ["driver", "echo-ext", "tx"]);
        // exits charge the handler's own (tail) time to its domain.
        let udp_exit = s.iter().find(|s| names(s)[2] == "Udp.PacketRecv").unwrap();
        assert_eq!(names(udp_exit)[..2], ["udp", "echo-ext"]);
    }

    #[test]
    fn wraparound_produces_orphans_not_negative_durations() {
        // Ring of 5 over a stream of 7 records: the first packet's
        // arrival and enter are overwritten, but its exit survives.
        let rec = Recorder::new(5);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        rec.packet_arrival(100, rec.intern("Ethernet"), rec.intern(""), 60, None);
        let s0 = rec.handler_enter(200, ev, dom);
        rec.handler_exit(900, ev, dom, s0);
        rec.packet_done();
        rec.packet_arrival(1_000, rec.intern("Ethernet"), rec.intern(""), 60, None);
        let s1 = rec.handler_enter(1_100, ev, dom);
        rec.handler_exit(1_900, ev, dom, s1);
        rec.packet_done();
        rec.packet_drop(2_500, "ip", "no_route");

        let p = Profile::build(&rec);
        assert_eq!(p.truncation.dropped_records, 2);
        assert_eq!(p.truncation.first_retained_seq, 2);
        assert_eq!(p.truncation.orphan_packets, vec![0]);
        assert_eq!(p.truncation.unmatched_exits, 1, "packet 0's exit");
        let orphan = p.packets.iter().find(|p| p.packet == 0).unwrap();
        assert!(orphan.orphan);
        let whole = p.packets.iter().find(|p| p.packet == 1).unwrap();
        assert!(!whole.orphan);
        assert_eq!(p.attributed_ns(whole), 900);
        // Aggregates exclude the orphan.
        for stat in p.aggregate() {
            assert!(stat.packets <= 1);
        }
    }

    #[test]
    fn lost_exit_is_closed_at_window_end_and_counted() {
        let rec = Recorder::new(64);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        rec.packet_arrival(100, rec.intern("Ethernet"), rec.intern(""), 60, None);
        rec.handler_enter(200, ev, dom);
        rec.packet_drop(700, "udp", "no_port");
        rec.packet_done();
        let p = Profile::build(&rec);
        assert_eq!(p.truncation.unmatched_enters, 1);
        let pkt = &p.packets[0];
        let spans = p.spans(pkt);
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].complete);
        assert_eq!(spans[0].exit_ns, 700, "closed at the last record");
        assert_eq!(p.attributed_ns(pkt), pkt.last_ns - pkt.first_ns);
    }

    #[test]
    fn profile_json_is_valid_and_deterministic() {
        let rec = nested();
        let p = Profile::build(&rec);
        let a = profile_json(&p, None, 16);
        let b = profile_json(&Profile::build(&rec), None, 16);
        assert_eq!(a, b);
        validate(&a).expect("profile JSON well-formed");
        assert!(a.contains("\"schema\": \"plexus.profile.v1\""));
        assert!(a.contains("\"packets_total\": 1"));
    }

    #[test]
    fn detail_cap_is_stated_not_silent() {
        let rec = Recorder::new(64);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("udp");
        for i in 0..3 {
            rec.packet_arrival(i * 1_000, rec.intern("Ethernet"), rec.intern(""), 60, None);
            let s = rec.handler_enter(i * 1_000 + 100, ev, dom);
            rec.handler_exit(i * 1_000 + 200, ev, dom, s);
            rec.packet_done();
        }
        let p = Profile::build(&rec);
        let out = profile_json(&p, None, 1);
        validate(&out).expect("valid");
        assert!(out.contains("\"packets_total\": 3"));
        assert!(out.contains("\"packets_detailed\": 1"));
    }
}
