//! Cross-machine packet journeys reconstructed from the profiled ring.
//!
//! A *journey* is the causal chain a frame starts: its ID is allocated at
//! the original transmit, crosses the wire with the frame, is inherited by
//! the receive chain it triggers and by any frame *that* chain transmits,
//! until a handler calls [`crate::Recorder::journey_break`]. Packet IDs
//! restart at every NIC; the journey ID is what survives the hop.
//!
//! [`build`] stitches one [`Profile`]'s packets into per-journey hop
//! ledgers, linking hops by the wire equation the NIC model guarantees,
//! `tx.at_ns + wait + ser + prop == arrival.at_ns`, or, on coalesced
//! receive paths, by the latest earlier wire arrival (the gap becomes the
//! hop's *queue wait*). The **chain** runs from the origin transmit to the
//! latest surviving hop; discarded broadcast copies are *filtered hops*,
//! other offshoots (ACKs, forwarded copies) *branch hops*. Every
//! nanosecond along the chain lands in exactly one named segment (wire
//! phases, queue waits, `(machine, layer, domain)` processing), so the
//! segments telescope to the end-to-end time exactly. Hops and segments
//! live in two arenas of [`Journeys`], and hop names are shared, not
//! copied.

use std::ops::Range;
use std::sync::Arc;

use crate::json::{escaped, or_null, put};
use crate::profile::{segments_json, PacketProfile, Profile, Segment, Slice, TxRecord};
use crate::recorder::Interner;
use crate::Label;

/// One hop on a journey's critical-path chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// Per-machine packet ID of this hop.
    pub packet: u64,
    /// Receiving machine (NIC name when the world didn't name the host).
    pub machine: Arc<str>,
    /// Receiving NIC (empty when the arrival record was lost).
    pub nic: Arc<str>,
    /// Arrival-record timestamp.
    pub arrival_ns: u64,
    /// Time the frame sat in the rx ring before the arrival record (zero
    /// on the per-frame path, where delivery and arrival coincide).
    pub queue_wait_ns: u64,
    /// Handover instant of the transmit that continues the chain
    /// (`None` for the final hop).
    pub tx_ns: Option<u64>,
    /// CPU time spent unwinding handler stacks after the handover — real
    /// work, but off the critical path (it overlaps wire time).
    pub overlap_ns: u64,
}

/// One reconstructed journey.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journey {
    /// The world-global journey ID.
    pub journey: u64,
    /// Where the clock starts: the origin handover when the origin
    /// transmit was recorded, else the first chain hop's arrival.
    pub start_ns: u64,
    /// The final chain hop's last record.
    pub end_ns: u64,
    /// `end_ns - start_ns`; the chain segments sum to this exactly.
    pub end_to_end_ns: u64,
    /// Machine that sent the origin frame (`None` when the origin
    /// transmit ran outside any packet window on an unnamed machine).
    pub origin_machine: Option<Arc<str>>,
    /// Where the journey's chain ([`Journeys::chain`]) and segments
    /// ([`Journeys::segments`]) lie in the arenas.
    chain: Range<usize>,
    segments: Range<usize>,
    /// Hops causally in this journey but off the chain (ACKs, broadcast
    /// copies that were processed).
    pub branch_hops: u64,
    /// Broadcast copies a MAC filter (or similar) discarded on arrival.
    pub filtered_hops: u64,
    /// Total post-handover unwind time across chain hops.
    pub overlap_ns: u64,
}

/// All journeys of one profiled run, in journey-ID order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journeys {
    /// One entry per journey that produced at least one non-orphan hop.
    pub journeys: Vec<Journey>,
    /// Packets excluded because ring wraparound ate their arrival.
    pub orphan_packets: u64,
    /// Journeys known only from orphaned hops: their tag was recovered
    /// from surviving record envelopes, but no intact hop remains, so no
    /// ledger could be built. Post-hoc analysis lost these — the live
    /// tier's retained samples are where to look for them.
    pub journeys_truncated: u64,
    /// Every segment name with its time summed over *all* journeys and
    /// the number of journeys that have it, in first-seen order.
    pub segment_totals: Vec<(Segment, u64)>,
    /// Every journey's chain hops, then its segments, journey after
    /// journey; a [`Journey`] holds ranges into them. A segment is its
    /// name's index in `segment_totals` and its nanoseconds.
    hops: Vec<ChainHop>,
    segments: Vec<(usize, u64)>,
}

impl Journeys {
    /// A journey's critical-path hops, origin-side first.
    pub fn chain(&self, j: &Journey) -> &[ChainHop] {
        &self.hops[j.chain.clone()]
    }

    /// A journey's ordered waterfall segments, summing to its
    /// `end_to_end_ns`.
    pub fn segments(&self, j: &Journey) -> Vec<Segment> {
        let name = |slot: usize| self.segment_totals[slot].0.name.clone();
        let segments = self.segments[j.segments.clone()].iter();
        segments
            .map(|&(slot, ns)| Segment {
                name: name(slot),
                ns,
            })
            .collect()
    }
}

/// A transmit that can parent a hop: the record plus where it came from.
#[derive(Clone, Copy)]
struct TxCand<'a> {
    tx: &'a TxRecord,
    /// `(packet's index in the profile, index in that packet's txs)`;
    /// `None` for a transmit recorded outside any packet window.
    source: Option<(usize, usize)>,
    /// When the wire delivers it: `at_ns + wait + ser + prop`.
    wire_arrival: u64,
}

impl<'a> TxCand<'a> {
    fn new(tx: &'a TxRecord, source: Option<(usize, usize)>) -> TxCand<'a> {
        let wire_arrival = tx.at_ns + tx.wait_ns + tx.ser_ns + tx.prop_ns;
        TxCand {
            tx,
            source,
            wire_arrival,
        }
    }
}

/// The parent transmit of hop `at` among one journey's candidates, which
/// are sorted by wire arrival and, within one instant, in candidate order
/// (engine/timer-context sends first, then per-packet transmits in packet
/// order): the first exact wire-telescoping match, otherwise the last of
/// the latest handovers whose wire arrival does not postdate the hop's
/// arrival record (rx-ring queueing delays the record past the wire
/// arrival on the coalesced path). A hop's own transmits never parent it.
fn parent_of<'a>(cands: &[TxCand<'a>], at: usize, hop: &PacketProfile) -> Option<TxCand<'a>> {
    let not_self = |c: &&TxCand<'_>| c.source.map(|(p, _)| p) != Some(at);
    let earlier = &cands[..cands.partition_point(|c| c.wire_arrival <= hop.first_ns)];
    let exact = &earlier[earlier.partition_point(|c| c.wire_arrival < hop.first_ns)..];
    let found = exact.iter().find(not_self);
    found
        .or_else(|| earlier.iter().rev().find(not_self))
        .copied()
}

/// A hop that arrived but was discarded without running any handler —
/// a broadcast copy the MAC filter (or an overflowing rx ring) shed.
fn is_filtered(p: &PacketProfile) -> bool {
    p.spans.is_empty() && p.txs.is_empty() && !p.drops.is_empty()
}

/// What a chain segment is, by symbol: slices and wire phases merge on
/// these, and a name is rendered once per distinct key of a run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SegKey {
    /// `{src}.tx_queue`
    TxQueue(Label),
    /// `{src}->{dst}.wire.{phase}`
    Wire(Label, Label, Phase),
    /// `{machine}.rx_queue`
    RxQueue(Label),
    /// `{machine}.{layer}.{domain}`
    Processing(Label, Label, Label),
}

/// The wire phases of a hop, in the order they happen.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Wait,
    Serialize,
    Propagate,
}

impl SegKey {
    /// Writes the key's name over `out`.
    fn name(self, names: &Interner, out: &mut String) {
        let n = |l| names.get(l);
        out.clear();
        match self {
            SegKey::TxQueue(src) => put!(out, "{}.tx_queue", n(src)),
            SegKey::Wire(src, dst, phase) => {
                let phase = match phase {
                    Phase::Wait => "wait",
                    Phase::Serialize => "serialize",
                    Phase::Propagate => "propagate",
                };
                put!(out, "{}->{}.wire.{phase}", n(src), n(dst))
            }
            SegKey::RxQueue(machine) => put!(out, "{}.rx_queue", n(machine)),
            SegKey::Processing(machine, layer, domain) => {
                put!(out, "{}.{}.{}", n(machine), n(layer), n(domain))
            }
        }
    }
}

/// A chain hop as the segment pass reads it.
#[derive(Clone, Copy)]
struct Link<'a> {
    /// The receiving machine, and the sending one (meaningful only with
    /// `incoming`).
    machine: Label,
    src: Label,
    /// The transmit that delivered the hop.
    incoming: Option<&'a TxRecord>,
    /// The hop's slices up to the handover that continues the chain (all
    /// of them on the final hop).
    slices: &'a [Slice],
}

impl Link<'_> {
    /// Hands `add` each piece of the hop as a segment key and its
    /// nanoseconds: the wire phases that delivered it, its rx-queue wait
    /// (`queue_wait`), and its processing slices.
    fn segments(&self, queue_wait: u64, mut add: impl FnMut(SegKey, u64)) {
        if let Some(tx) = self.incoming {
            let src = self.src;
            // The tx-ring/doorbell share of the wait is the sender's
            // queue, not the medium's: surface it as its own hop segment
            // so a backlogged transmit path is visible.
            let queue = tx.queue_ns.min(tx.wait_ns);
            if queue > 0 {
                add(SegKey::TxQueue(src), queue);
            }
            let wire = |phase| SegKey::Wire(src, self.machine, phase);
            add(wire(Phase::Wait), tx.wait_ns - queue);
            add(wire(Phase::Serialize), tx.ser_ns);
            add(wire(Phase::Propagate), tx.prop_ns);
        }
        if queue_wait > 0 {
            add(SegKey::RxQueue(self.machine), queue_wait);
        }
        for s in self.slices {
            let key = SegKey::Processing(self.machine, s.at.layer, s.at.domain);
            add(key, s.ns());
        }
    }
}

/// The run's segment names: every key seen, the slot of its name, and
/// per slot where the journey being stitched has it.
struct Slots<'a> {
    names: &'a Interner,
    /// Every key the run has seen, with its name's slot in `totals`: a few
    /// dozen `Copy` keys, searched in place. Journeys repeat their keys in
    /// one order, so the search starts at the key after the one found
    /// last.
    keys: Vec<(SegKey, usize)>,
    next_key: usize,
    /// By slot, the name with its nanoseconds summed over every journey,
    /// and the number of journeys that have it.
    totals: Vec<(Segment, u64)>,
    /// By slot, the last journey that had it, with its segment's place in
    /// the arena.
    seen: Vec<(usize, usize)>,
    /// The name of the key being added, rendered in place.
    name: String,
}

impl Slots<'_> {
    /// The slot of `key`'s name. A key's name is rendered the first time
    /// the run sees the key; two keys that read the same share a slot, as
    /// they would have shared a segment merged by name.
    fn of(&mut self, key: SegKey) -> usize {
        let at = match self.keys.get(self.next_key) {
            Some(&(next, _)) if next == key => self.next_key,
            _ => match self.keys.iter().position(|&(k, _)| k == key) {
                Some(at) => at,
                None => {
                    key.name(self.names, &mut self.name);
                    let known = self.totals.iter().position(|(s, _)| *s.name == self.name);
                    let slot = known.unwrap_or_else(|| {
                        let name = self.name.as_str().into();
                        self.totals.push((Segment { name, ns: 0 }, 0));
                        self.seen.push((usize::MAX, 0));
                        self.totals.len() - 1
                    });
                    self.keys.push((key, slot));
                    self.keys.len() - 1
                }
            },
        };
        self.next_key = at + 1;
        self.keys[at].1
    }
}

/// Reconstructs every journey from a built profile.
pub fn build(profile: &Profile) -> Journeys {
    // The profile's names plus the stand-ins a chain needs, so a machine
    // is a plain label throughout.
    let mut names = profile.names.clone();
    let (unknown, origin_label) = (names.intern("?"), names.intern("origin"));
    let no_nic = names.intern("");
    let machine_of = |p: &PacketProfile| p.host.or(p.nic).unwrap_or(unknown);
    let packets = &profile.packets;

    // Intact hops, as indices into `packets`, grouped by journey (one
    // sort, then runs of equal journey), each group in arrival order.
    let mut orphans = 0u64;
    let mut orphan_journeys: Vec<u64> = Vec::new();
    let mut hops: Vec<usize> = Vec::with_capacity(packets.len());
    for (at, p) in packets.iter().enumerate() {
        if p.journey.is_some() && !p.orphan {
            hops.push(at);
        } else {
            orphans += 1;
            orphan_journeys.extend(p.journey);
        }
    }
    let journey_of = |&at: &usize| packets[at].journey;
    hops.sort_unstable_by_key(|&at| {
        let p = &packets[at];
        (p.journey, p.first_ns, p.packet)
    });
    // A journey is *truncated* when wraparound left it nothing but
    // orphaned hops: its tag is known, its ledger is not.
    orphan_journeys.sort_unstable();
    orphan_journeys.dedup();
    let journeys_truncated = orphan_journeys
        .iter()
        .filter(|&&j| hops.binary_search_by_key(&Some(j), journey_of).is_err())
        .count() as u64;

    // Candidate parent transmits grouped the same way, each group by wire
    // arrival; the sort is stable, so transmits that reach the wire at one
    // instant stay in candidate order: engine/timer-context sends first,
    // then per-packet transmits in packet order. A transmit's journey tag
    // names the chain its *delivery* joins, which may differ from the
    // journey of the packet being processed when it was sent (that is
    // exactly what `journey_break` arranges).
    let unattributed = profile.unattributed_txs.iter().map(|tx| (tx, None));
    let attributed = packets.iter().enumerate().flat_map(|(at, p)| {
        let source = move |(i, tx)| (tx, Some((at, i)));
        profile.txs(p).iter().enumerate().map(source)
    });
    let tagged = unattributed
        .chain(attributed)
        .filter(|(tx, _)| tx.journey.is_some());
    let mut txs = Vec::with_capacity(profile.unattributed_txs.len() + profile.txs.len());
    txs.extend(tagged.map(|(tx, source)| TxCand::new(tx, source)));
    txs.sort_by_key(|c| (c.tx.journey, c.wire_arrival));

    let by_journey = |a: &usize, b: &usize| journey_of(a) == journey_of(b);
    let mut journeys = Vec::with_capacity(hops.chunk_by(by_journey).count());
    // Every chain hop is a distinct intact packet. `links[i]` is what the
    // segment pass reads of `all_hops[i]`.
    let mut all_hops: Vec<ChainHop> = Vec::with_capacity(hops.len());
    let mut links: Vec<Link<'_>> = Vec::with_capacity(hops.len());
    let mut slots = Slots {
        names: &names,
        keys: Vec::new(),
        next_key: 0,
        totals: Vec::new(),
        seen: Vec::new(),
        name: String::new(),
    };
    // How many segments the journeys so far have.
    let mut segment_count = 0;
    // The chain being built: a hop, the index of its transmit that
    // continues the chain, and the transmit that delivered it.
    let mut chain: Vec<(usize, Option<usize>, Option<TxCand<'_>>)> = Vec::new();
    // Whether a packet is on its journey's chain. A packet belongs to one
    // journey, so the marks of the journeys done never need clearing.
    let mut on_chain = vec![false; packets.len()];
    // The candidates of the journeys still to come.
    let mut rest = &txs[..];
    for hops in hops.chunk_by(by_journey) {
        let journey = journey_of(&hops[0]);
        let jid = journey.expect("hops carry a journey");
        let before = rest.iter().take_while(|c| c.tx.journey < journey).count();
        let of_journey = rest[before..]
            .iter()
            .take_while(|c| c.tx.journey == journey);
        let (cands, later) = rest[before..].split_at(of_journey.count());
        rest = later;

        // The chain ends at the latest hop that actually ran (falling
        // back to the latest filtered hop for journeys that died on
        // arrival), and is walked backwards via parent transmits.
        let ran = hops.iter().filter(|&&at| !is_filtered(&packets[at]));
        let end = *ran
            .max_by_key(|&&at| {
                let p = &packets[at];
                (p.last_ns, p.first_ns, p.packet)
            })
            .or_else(|| {
                hops.iter()
                    .max_by_key(|&&at| (packets[at].last_ns, packets[at].packet))
            })
            .expect("journey group is non-empty");

        chain.clear();
        on_chain[end] = true;
        let mut hop = (end, None);
        let origin = loop {
            let (at, own_tx_idx) = hop;
            let parent = parent_of(cands, at, &packets[at]);
            chain.push((at, own_tx_idx, parent));
            let Some(parent) = parent else { break None };
            let sender = parent.source.filter(|&(s, _)| {
                let p = &packets[s];
                p.journey == journey && !p.orphan && !on_chain[s]
            });
            match sender {
                Some((s, tx_idx)) => {
                    on_chain[s] = true;
                    hop = (s, Some(tx_idx));
                }
                // Sent from another journey's window (a broken chain's
                // origin) or from engine/timer context: the journey
                // starts here.
                None => break Some(parent),
            }
        };
        chain.reverse();

        let start_ns = origin.map_or(packets[chain[0].0].first_ns, |c| c.tx.at_ns);
        let end_ns = packets[end].last_ns;
        let sender_of = |c: &TxCand<'_>| c.source.map(|(s, _)| machine_of(&packets[s]));
        let origin_machine = origin.and_then(|c| sender_of(&c).or(c.tx.host));

        let first_hop = all_hops.len();
        let mut overlap_total = 0u64;
        for &(at, own_tx_idx, incoming) in &chain {
            let hop = &packets[at];
            let machine = machine_of(hop);
            let queue_wait = incoming.map_or(0, |c| hop.first_ns.saturating_sub(c.wire_arrival));

            // Processing on this hop: up to the chain-continuing handover
            // for inner hops, the whole window for the final one. Tx
            // records and the `driver/tx` slices they produce appear in
            // the same order, so the `k`-th of one is the `k`-th of the
            // other.
            let slices = profile.slices(hop);
            let (tx_ns, overlap, upto) = match own_tx_idx {
                Some(k) => {
                    let tx = &profile.txs(hop)[k];
                    let tx_slices = slices.iter().enumerate().filter(|(_, s)| profile.is_tx(s));
                    let upto = tx_slices.map(|(at, _)| at + 1).nth(k);
                    (Some(tx.at_ns), hop.last_ns.saturating_sub(tx.at_ns), upto)
                }
                None => (None, 0, Some(slices.len())),
            };
            overlap_total += overlap;
            links.push(Link {
                machine,
                // An engine/timer-context send is named after its machine
                // when the NIC knows one, "origin" otherwise.
                src: incoming.map_or(origin_label, |c| {
                    sender_of(&c).unwrap_or(c.tx.host.unwrap_or(origin_label))
                }),
                incoming: incoming.map(|c| c.tx),
                slices: &slices[..upto.unwrap_or(0)],
            });
            all_hops.push(ChainHop {
                packet: hop.packet,
                machine: names.shared(machine),
                nic: names.shared(hop.nic.unwrap_or(no_nic)),
                arrival_ns: hop.first_ns,
                queue_wait_ns: queue_wait,
                tx_ns,
                overlap_ns: overlap,
            });
        }

        // Count the journey's segments, the distinct slots of the keys its
        // hops hand out, so the segment arena is reserved once below.
        let this = journeys.len();
        for (link, hop) in links[first_hop..].iter().zip(&all_hops[first_hop..]) {
            link.segments(hop.queue_wait_ns, |key, _| {
                let slot = slots.of(key);
                if slots.seen[slot].0 != this {
                    slots.seen[slot].0 = this;
                    segment_count += 1;
                }
            });
        }

        let shed = hops
            .iter()
            .filter(|&&at| is_filtered(&packets[at]) && !on_chain[at]);
        let filtered = shed.count() as u64;
        let branches = hops.len() as u64 - filtered - chain.len() as u64;

        journeys.push(Journey {
            journey: jid,
            start_ns,
            end_ns,
            end_to_end_ns: end_ns - start_ns,
            origin_machine: origin_machine.map(|m| names.shared(m)),
            chain: first_hop..all_hops.len(),
            segments: 0..0,
            branch_hops: branches,
            filtered_hops: filtered,
            overlap_ns: overlap_total,
        });
    }

    // Stitch each journey's segments hop by hop: the wire phases that
    // delivered a hop, its rx-queue wait, and its processing slices up to
    // the handover that continues the chain — so consecutive pieces share
    // their boundary instants and the total telescopes to `end_ns -
    // start_ns` with nothing left over.
    let mut all_segments: Vec<(usize, u64)> = Vec::with_capacity(segment_count);
    slots.seen.fill((usize::MAX, 0));
    for (this, journey) in journeys.iter_mut().enumerate() {
        let first_segment = all_segments.len();
        let chain = journey.chain.clone();
        for (link, hop) in links[chain.clone()].iter().zip(&all_hops[chain]) {
            link.segments(hop.queue_wait_ns, |key, ns| {
                let slot = slots.of(key);
                match slots.seen[slot] {
                    (journey, at) if journey == this => all_segments[at].1 += ns,
                    _ => {
                        slots.seen[slot] = (this, all_segments.len());
                        all_segments.push((slot, ns));
                    }
                }
            });
        }
        journey.segments = first_segment..all_segments.len();
        for &(slot, ns) in &all_segments[journey.segments.clone()] {
            let (total, journeys) = &mut slots.totals[slot];
            total.ns += ns;
            *journeys += 1;
        }
    }
    debug_assert_eq!(
        all_segments.capacity(),
        all_segments.len(),
        "the count sized the arena"
    );
    Journeys {
        journeys,
        orphan_packets: orphans,
        journeys_truncated,
        segment_totals: slots.totals,
        hops: all_hops,
        segments: all_segments,
    }
}

/// Renders the journeys as deterministic JSON (schema
/// `plexus.journey.v1`). Per-journey detail is emitted for the first
/// `max_detail` journeys only — the cap is stated, never silent — while
/// the per-segment aggregate covers every journey.
pub fn journeys_json(j: &Journeys, max_detail: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"plexus.journey.v1\",\n");
    let (total, detailed) = (j.journeys.len(), j.journeys.len().min(max_detail));
    let (orphans, truncated) = (j.orphan_packets, j.journeys_truncated);
    put!(
        out,
        "  \"journeys_total\": {total},\n  \"journeys_detailed\": {detailed},\n  \
         \"orphan_packets_excluded\": {orphans},\n  \"journeys_truncated\": {truncated},\n"
    );

    out.push_str("  \"segments\": [");
    for (i, (total, count)) in j.segment_totals.iter().enumerate() {
        let (sep, name) = (if i > 0 { "," } else { "" }, escaped(&total.name));
        let (total_ns, mean_ns) = (total.ns, total.ns / count.max(&1));
        put!(
            out,
            "{sep}\n    {{\"name\": \"{name}\", \"total_ns\": {total_ns}, \
             \"journeys\": {count}, \"mean_ns\": {mean_ns}}}"
        );
    }
    out.push_str(if j.segment_totals.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"journeys\": [");
    for (i, journey) in j.journeys.iter().take(detailed).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let (id, start_ns, end_ns) = (journey.journey, journey.start_ns, journey.end_ns);
        let end_to_end_ns = journey.end_to_end_ns;
        put!(
            out,
            "{sep}\n    {{\"journey\": {id}, \"start_ns\": {start_ns}, \"end_ns\": {end_ns}, \
             \"end_to_end_ns\": {end_to_end_ns}, \"origin_machine\": "
        );
        match &journey.origin_machine {
            Some(machine) => put!(out, "\"{}\"", escaped(machine)),
            None => out.push_str("null"),
        }
        let (branch, filtered) = (journey.branch_hops, journey.filtered_hops);
        let overlap = journey.overlap_ns;
        put!(
            out,
            ", \"branch_hops\": {branch}, \"filtered_hops\": {filtered}, \
             \"overlap_ns\": {overlap}, \"chain\": ["
        );
        for (k, h) in j.chain(journey).iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let (machine, nic) = (escaped(&h.machine), escaped(&h.nic));
            let (packet, arrival_ns, queue_wait_ns) = (h.packet, h.arrival_ns, h.queue_wait_ns);
            let (tx_ns, overlap_ns) = (or_null(h.tx_ns), h.overlap_ns);
            put!(
                out,
                "{sep}{{\"packet\": {packet}, \"machine\": \"{machine}\", \"nic\": \"{nic}\", \
                 \"arrival_ns\": {arrival_ns}, \"queue_wait_ns\": {queue_wait_ns}, \
                 \"tx_ns\": {tx_ns}, \"overlap_ns\": {overlap_ns}}}"
            );
        }
        out.push_str("], \"segments\": [");
        let names = |&(slot, ns): &(usize, u64)| (&*j.segment_totals[slot].0.name, ns);
        segments_json(
            &mut out,
            j.segments[journey.segments.clone()].iter().map(names),
        );
        out.push_str("]}");
    }
    out.push_str(if detailed == 0 {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::profile::Profile;
    use crate::Recorder;

    /// Hand-built two-hop journey: an origin send from engine context, a
    /// middle machine that forwards, and a final machine that consumes.
    fn two_hop() -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(128);
        // Origin send (no packet in flight): journey 0 allocated here.
        let j = rec.tx_journey();
        assert_eq!(j, 0);
        rec.packet_tx(
            1_000,
            rec.intern("eth0"),
            rec.intern(""),
            60,
            0,
            10,
            500,
            90,
            Some(j),
        );

        // Hop 1 on machine "fwd": arrives exactly at 1_000+10+500+90.
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("fwd-ext");
        rec.packet_arrival(1_600, rec.intern("eth0"), rec.intern("fwd"), 60, Some(j));
        let span = rec.handler_enter(1_700, ev, dom);
        // Forwarding tx inherits the journey.
        rec.packet_tx(
            2_000,
            rec.intern("eth0"),
            rec.intern(""),
            60,
            0,
            0,
            500,
            100,
            rec.current_journey(),
        );
        rec.handler_exit(2_200, ev, dom, span);
        rec.packet_done();

        // Hop 2 on machine "backend": arrives at 2_000+0+500+100.
        rec.packet_arrival(
            2_600,
            rec.intern("eth0"),
            rec.intern("backend"),
            60,
            Some(j),
        );
        let span = rec.handler_enter(2_700, ev, dom);
        rec.handler_exit(3_000, ev, dom, span);
        rec.packet_done();
        rec
    }

    #[test]
    fn chain_links_hops_and_segments_telescope_exactly() {
        let rec = two_hop();
        let js = build(&Profile::build(&rec));
        assert_eq!(js.journeys.len(), 1);
        let j = &js.journeys[0];
        assert_eq!(j.journey, 0);
        let chain = js.chain(j);
        assert_eq!(chain.len(), 2);
        assert_eq!(&*chain[0].machine, "fwd");
        assert_eq!(&*chain[1].machine, "backend");
        assert_eq!(j.start_ns, 1_000, "clock starts at the origin handover");
        assert_eq!(j.end_ns, 3_000);
        assert_eq!(j.end_to_end_ns, 2_000);
        let sum: u64 = js.segments(j).iter().map(|s| s.ns).sum();
        assert_eq!(sum, j.end_to_end_ns, "zero unattributed nanoseconds");
        // The forwarder's post-handover unwind is off the critical path.
        assert_eq!(chain[0].overlap_ns, 200);
        assert_eq!(j.overlap_ns, 200);
        // Wire names carry the machine pair.
        assert!(js
            .segments(j)
            .iter()
            .any(|s| &*s.name == "fwd->backend.wire.serialize"));
        assert!(js
            .segments(j)
            .iter()
            .any(|s| s.name.starts_with("backend.udp.")));
    }

    #[test]
    fn filtered_broadcast_copies_stay_off_the_chain() {
        let rec = two_hop();
        // A third arrival of the same journey that the MAC filter shed.
        rec.packet_arrival(
            2_600,
            rec.intern("eth0"),
            rec.intern("bystander"),
            60,
            Some(0),
        );
        rec.packet_drop(2_600, "ether", "mac_filter");
        rec.packet_done();
        let js = build(&Profile::build(&rec));
        let j = &js.journeys[0];
        assert_eq!(j.filtered_hops, 1);
        assert_eq!(js.chain(j).len(), 2, "filtered copy not on the chain");
        assert_eq!(j.end_ns, 3_000, "filtered copy doesn't move the end");
    }

    #[test]
    fn coalesced_style_delayed_arrival_becomes_queue_wait() {
        let rec = Recorder::new(64);
        let j = rec.tx_journey();
        rec.packet_tx(
            1_000,
            rec.intern("eth0"),
            rec.intern(""),
            60,
            0,
            0,
            500,
            100,
            Some(j),
        );
        // Arrival record 400 ns after the wire arrival (rx-ring wait).
        rec.packet_arrival(2_000, rec.intern("eth0"), rec.intern("dut"), 60, Some(j));
        rec.packet_done();
        let js = build(&Profile::build(&rec));
        let jo = &js.journeys[0];
        assert_eq!(js.chain(jo)[0].queue_wait_ns, 400);
        let sum: u64 = js.segments(jo).iter().map(|s| s.ns).sum();
        assert_eq!(sum, jo.end_to_end_ns);
        assert!(js.segments(jo).iter().any(|s| &*s.name == "dut.rx_queue"));
    }

    #[test]
    fn tx_ring_backlog_becomes_a_tx_queue_segment() {
        let rec = Recorder::new(64);
        let j = rec.tx_journey();
        // Origin send waited 150 ns, 100 of them behind its own tx ring.
        rec.packet_tx(
            1_000,
            rec.intern("eth0"),
            rec.intern(""),
            60,
            100,
            150,
            500,
            100,
            Some(j),
        );
        rec.packet_arrival(1_750, rec.intern("eth0"), rec.intern("dut"), 60, Some(j));
        rec.packet_done();
        let js = build(&Profile::build(&rec));
        let jo = &js.journeys[0];
        let segments = js.segments(jo);
        let get = |name: &str| segments.iter().find(|s| &*s.name == name).map(|s| s.ns);
        assert_eq!(get("origin.tx_queue"), Some(100));
        assert_eq!(get("origin->dut.wire.wait"), Some(50));
        let sum: u64 = js.segments(jo).iter().map(|s| s.ns).sum();
        assert_eq!(sum, jo.end_to_end_ns, "queue split keeps the telescope");
    }

    #[test]
    fn wraparound_orphans_surface_as_truncated_journeys() {
        // Ring of 8: the early journeys' arrival records are overwritten,
        // leaving orphaned hops whose journey tag survives in later
        // records' envelopes.
        let rec = Recorder::new(8);
        let ev = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("kernel");
        for i in 0..4u64 {
            let t = 1_000 * (i + 1);
            let (_, j) = rec.packet_arrival(t, rec.intern("eth0"), rec.intern("dut"), 60, None);
            assert_eq!(j, i);
            let span = rec.handler_enter(t + 100, ev, dom);
            rec.handler_exit(t + 200, ev, dom, span);
            rec.packet_done();
        }
        assert!(rec.overwritten() > 0, "ring must have wrapped");
        let js = build(&Profile::build(&rec));
        assert!(js.orphan_packets > 0);
        assert!(
            js.journeys_truncated > 0,
            "orphaned hops must be counted as truncated journeys"
        );
        // Ring of 8, four 3-record hops: journey 0 vanished entirely (no
        // fold can see it), journey 1 survives only as an orphaned hop
        // whose envelope still carries the tag, journeys 2-3 are intact.
        let listed: Vec<u64> = js.journeys.iter().map(|j| j.journey).collect();
        assert_eq!(js.journeys_truncated, 1);
        assert_eq!(listed, vec![2, 3]);
        let body = journeys_json(&js, 4);
        validate(&body).expect("truncated journey JSON well-formed");
        assert!(body.contains(&format!(
            "\"journeys_truncated\": {}",
            js.journeys_truncated
        )));
    }

    #[test]
    fn journeys_json_is_valid_and_caps_are_stated() {
        let rec = two_hop();
        let js = build(&Profile::build(&rec));
        let body = journeys_json(&js, 0);
        validate(&body).expect("journey JSON well-formed");
        assert!(body.contains("\"schema\": \"plexus.journey.v1\""));
        assert!(body.contains("\"journeys_total\": 1"));
        assert!(body.contains("\"journeys_detailed\": 0"));
        let detailed = journeys_json(&js, 8);
        validate(&detailed).expect("detailed journey JSON well-formed");
        assert!(detailed.contains("\"machine\": \"backend\""));
        assert_eq!(detailed, journeys_json(&build(&Profile::build(&rec)), 8));
    }

    /// An origin broadcast to machines `a` and `b`, each of which forwards
    /// at 2 000 ns so that both frames reach the wire's end at 2 600 ns,
    /// then a hop on `c` whose arrival is recorded at `c_arrival_ns`.
    fn forked(c_arrival_ns: u64) -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(128);
        let (eth, ev, dom) = (
            rec.intern("eth0"),
            rec.intern("Udp.PacketRecv"),
            rec.intern("fwd"),
        );
        let j = rec.tx_journey();
        rec.packet_tx(1_000, eth, rec.intern(""), 60, 0, 0, 500, 100, Some(j));
        for host in ["a", "b"] {
            rec.packet_arrival(1_600, eth, rec.intern(host), 60, Some(j));
            let span = rec.handler_enter(1_700, ev, dom);
            rec.packet_tx(2_000, eth, rec.intern(host), 60, 0, 0, 500, 100, Some(j));
            rec.handler_exit(2_100, ev, dom, span);
            rec.packet_done();
        }
        rec.packet_arrival(c_arrival_ns, eth, rec.intern("c"), 60, Some(j));
        let span = rec.handler_enter(c_arrival_ns + 100, ev, dom);
        rec.handler_exit(c_arrival_ns + 200, ev, dom, span);
        rec.packet_done();
        rec
    }

    fn chain_machines(rec: &Recorder) -> Vec<String> {
        let js = build(&Profile::build(rec));
        let j = &js.journeys[0];
        js.chain(j).iter().map(|h| h.machine.to_string()).collect()
    }

    #[test]
    fn of_two_exact_parents_the_first_in_candidate_order_wins() {
        // Both forwarded frames telescope exactly onto c's arrival: the
        // earlier packet's transmit is the parent.
        assert_eq!(chain_machines(&forked(2_600)), ["a", "c"]);
    }

    #[test]
    fn of_equally_late_parents_the_last_in_candidate_order_wins() {
        // Neither telescopes exactly (c's arrival waited 100 ns in its rx
        // ring): the latest wire arrivals tie, and the last of them wins,
        // as `max_by_key` picks.
        assert_eq!(chain_machines(&forked(2_700)), ["b", "c"]);
    }

    /// One journey of `hops` hops, each forwarding to the next, as a TCP
    /// connection is: every ACK and every next segment inherits it.
    fn relay(hops: u64) -> std::rc::Rc<Recorder> {
        let rec = Recorder::new(4 * hops as usize + 8);
        let (eth, ev, dom) = (
            rec.intern("eth0"),
            rec.intern("Tcp.PacketRecv"),
            rec.intern("tcp"),
        );
        let hosts = [rec.intern("client"), rec.intern("server")];
        let j = rec.tx_journey();
        rec.packet_tx(0, eth, hosts[0], 60, 0, 0, 500, 100, Some(j));
        for i in 0..hops {
            let at = 1_000 * i + 600;
            rec.packet_arrival(at, eth, hosts[(i % 2) as usize], 60, Some(j));
            let span = rec.handler_enter(at + 100, ev, dom);
            rec.packet_tx(
                at + 400,
                eth,
                hosts[(i % 2) as usize],
                60,
                0,
                0,
                500,
                100,
                Some(j),
            );
            rec.handler_exit(at + 450, ev, dom, span);
            rec.packet_done();
        }
        rec
    }

    #[test]
    fn a_16_000_hop_journey_chains_every_hop_and_telescopes() {
        // A smoke test for the linear chain walk; it bounds no time. 16 000
        // hops took 650 ms in a release build (3.77 ms now) while each
        // chain hop scanned the journey's transmits and the chain built so
        // far; the debug build of this test would have run for minutes.
        let rec = relay(16_000);
        let js = build(&Profile::build(&rec));
        assert_eq!(js.journeys.len(), 1);
        let j = &js.journeys[0];
        assert_eq!(js.chain(j).len(), 16_000);
        assert_eq!((j.branch_hops, j.filtered_hops), (0, 0));
        let sum: u64 = js.segments(j).iter().map(|s| s.ns).sum();
        assert_eq!(sum, j.end_to_end_ns, "the segments telescope exactly");
        assert_eq!(j.end_to_end_ns, 1_000 * 16_000 - 1_000 + 600 + 450);
    }
}
