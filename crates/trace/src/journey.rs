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
//! segments telescope to the end-to-end time exactly.
//!
//! [`Journeys`] reads its profile in place. It keeps each journey's hops
//! as indices into the profile's packets, sorted once, with the transmit
//! that delivered each chain hop; a chain hop's fields and a journey's
//! segments are derived from the profile when they are read, not copied.

use std::ops::Range;
use std::sync::Arc;

use crate::json::{escaped, exact, or_null, put};
use crate::profile::{segments_json, PacketProfile, Profile, Segment, TxRecord};
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
    /// Where the journey's hops lie in [`Journeys`]' hop index.
    hops: Range<u32>,
    /// Hops causally in this journey but off the chain (ACKs, broadcast
    /// copies that were processed).
    pub branch_hops: u64,
    /// Broadcast copies a MAC filter (or similar) discarded on arrival.
    pub filtered_hops: u64,
    /// Total post-handover unwind time across chain hops.
    pub overlap_ns: u64,
}

/// All journeys of one profiled run, in journey-ID order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journeys<'a> {
    /// One entry per journey that produced at least one non-orphan hop.
    pub journeys: Vec<Journey>,
    /// Packets excluded because ring wraparound ate their arrival.
    pub orphan_packets: u64,
    /// Journeys known only from orphaned hops: their tag was recovered
    /// from surviving record envelopes, but no intact hop remains, so no
    /// ledger could be built. Post-hoc analysis lost these — the live
    /// tier's retained samples are where to look for them.
    pub journeys_truncated: u64,
    /// The profile the journeys were stitched from.
    profile: &'a Profile,
    /// Every intact hop, grouped by journey, each group in arrival order;
    /// a [`Journey`] holds where its group lies.
    hops: Vec<Hop>,
    /// Every transmit a journey tag names ([`Txs`] numbers them), grouped
    /// by journey and, within one, by wire arrival: where a hop's parent
    /// was found, and where a chain hop's [`Link::By`] points.
    cands: Vec<u32>,
}

/// An intact hop: its packet's position in the profile, and how it joins
/// its journey's chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Hop {
    packet: u32,
    link: Link,
}

/// How a hop joins its journey's chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    /// It does not: a branch hop or a filtered one.
    Off,
    /// It starts the chain, and no recorded transmit delivered it.
    Head,
    /// It was delivered by the transmit at this place among the
    /// candidates ([`Journeys`]' `cands`).
    By(u32),
}

impl Link {
    fn by(self) -> Option<u32> {
        match self {
            Link::By(t) => Some(t),
            Link::Off | Link::Head => None,
        }
    }
}

/// A chain hop as the readers derive it: its packet's position in the
/// profile, the transmit that delivered it and the one that continues
/// the chain from it.
struct ChainLink {
    packet: usize,
    incoming: Option<u32>,
    onward: Option<u32>,
}

/// A profile's transmits by number — the unattributed ones first, then
/// the arena's, packet after packet: the candidate order in which parents
/// that tie are chosen.
#[derive(Clone, Copy)]
struct Txs<'a> {
    profile: &'a Profile,
}

impl<'a> Txs<'a> {
    fn len(self) -> usize {
        self.profile.unattributed_txs.len() + self.profile.txs.len()
    }

    fn get(self, t: u32) -> &'a TxRecord {
        let (t, outside) = (t as usize, &self.profile.unattributed_txs);
        outside
            .get(t)
            .unwrap_or_else(|| &self.profile.txs[t - outside.len()])
    }

    /// Where transmit `t` lies in the profile's arena; `None` for a
    /// transmit recorded outside any packet window.
    fn in_arena(self, t: u32) -> Option<usize> {
        (t as usize).checked_sub(self.profile.unattributed_txs.len())
    }

    /// The packet (by position) whose window sent transmit `t`, and where
    /// `t` is among that packet's transmits.
    fn sender(self, t: u32) -> Option<(usize, usize)> {
        self.in_arena(t).map(|k| self.profile.tx_owner(k))
    }

    /// Whether the packet at position `at` sent transmit `t`.
    fn sent_by(self, t: u32, at: usize) -> bool {
        let k = self.in_arena(t);
        k.is_some_and(|k| self.profile.tx_run(at).contains(&k))
    }

    /// When the wire delivers transmit `t`: `at_ns + wait + ser + prop`.
    fn wire_arrival(self, t: u32) -> u64 {
        let tx = self.get(t);
        tx.at_ns + tx.wait_ns + tx.ser_ns + tx.prop_ns
    }
}

/// Where the parent transmit of the hop `hop` (the profile's packet `at`)
/// lies among `cands`, whose range `of_journey` holds the hop's journey's
/// candidates, sorted by wire arrival and, within one instant, in
/// candidate order: the first exact wire-telescoping match, otherwise the
/// last of the latest handovers whose wire arrival does not postdate the
/// hop's arrival record (rx-ring queueing delays the record past the wire
/// arrival on the coalesced path). A hop's own transmits never parent it.
fn parent_of(
    txs: Txs<'_>,
    cands: &[u32],
    of_journey: Range<usize>,
    at: usize,
    hop: &PacketProfile,
) -> Option<usize> {
    let not_self = |&c: &usize| !txs.sent_by(cands[c], at);
    let of = &cands[of_journey.clone()];
    let earlier = of_journey.start + of.partition_point(|&t| txs.wire_arrival(t) <= hop.first_ns);
    let exact = of_journey.start + of.partition_point(|&t| txs.wire_arrival(t) < hop.first_ns);
    let found = (exact..earlier).find(not_self);
    found.or_else(|| (of_journey.start..earlier).rev().find(not_self))
}

/// The machine that received `p`: its host, else its NIC, else `?`.
fn machine_of(profile: &Profile, p: &PacketProfile) -> Label {
    let (unknown, _, _) = profile.stand_ins();
    p.host.or(p.nic).unwrap_or(unknown)
}

/// A hop that arrived but was discarded without running any handler —
/// a broadcast copy the MAC filter (or an overflowing rx ring) shed.
fn is_filtered(profile: &Profile, p: &PacketProfile) -> bool {
    profile.spans(p).is_empty() && profile.txs(p).is_empty() && !profile.drops(p).is_empty()
}

/// What a chain segment is, by symbol: slices and wire phases merge on
/// these, and a name is rendered once per distinct key.
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
    /// Appends the key's name to `out`.
    fn name(self, names: &Interner, out: &mut String) {
        let n = |l| names.get(l);
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

/// Segment names by slot: every key seen, and the slot of its name, in
/// first-seen order. Two keys that read the same share a slot, as they
/// would have shared a segment merged by name.
struct Slots<'a> {
    names: &'a Interner,
    /// Every key seen, with its name's slot: a few dozen `Copy` keys,
    /// searched in place.
    keys: Vec<(SegKey, usize)>,
    /// Journeys repeat one order of keys: the `keys` index of the key at
    /// each place of the journey before (its first 64), tried before any
    /// search. `at` is the current journey's place.
    trail: [usize; 64],
    at: usize,
    /// Every slot's name, back to back, and where each ends.
    text: String,
    ends: Vec<usize>,
}

impl<'a> Slots<'a> {
    fn new(names: &'a Interner) -> Slots<'a> {
        Slots {
            names,
            keys: Vec::new(),
            trail: [usize::MAX; 64],
            at: 0,
            text: String::new(),
            ends: Vec::new(),
        }
    }

    /// Starts a journey's keys: its first key is tried against the first
    /// of the journey before.
    fn start_journey(&mut self) {
        self.at = 0;
    }

    /// The slot of `key`'s name, rendered the first time `key` is seen.
    fn of(&mut self, key: SegKey) -> usize {
        let seen = self.trail.get(self.at).copied();
        let k = match seen.filter(|&k| self.keys.get(k).is_some_and(|&(at, _)| at == key)) {
            Some(k) => k,
            None => {
                let k = self.find(key);
                if let Some(seen) = self.trail.get_mut(self.at) {
                    *seen = k;
                }
                k
            }
        };
        self.at += 1;
        self.keys[k].1
    }

    /// Where `key` is in `keys`, added with its slot the first time.
    #[cold]
    fn find(&mut self, key: SegKey) -> usize {
        if let Some(k) = self.keys.iter().position(|&(k, _)| k == key) {
            return k;
        }
        let start = self.text.len();
        key.name(self.names, &mut self.text);
        let known = (0..self.ends.len()).find(|&slot| self.name(slot) == &self.text[start..]);
        let slot = match known {
            Some(slot) => {
                self.text.truncate(start);
                slot
            }
            None => {
                self.ends.push(self.text.len());
                self.ends.len() - 1
            }
        };
        self.keys.push((key, slot));
        self.keys.len() - 1
    }

    fn name(&self, slot: usize) -> &str {
        let start = slot.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start..self.ends[slot]]
    }
}

impl Journeys<'_> {
    fn txs(&self) -> Txs<'_> {
        Txs {
            profile: self.profile,
        }
    }

    /// A journey's chain, origin side first.
    fn links(&self, j: &Journey) -> impl Iterator<Item = ChainLink> + '_ {
        let run = &self.hops[j.hops.start as usize..j.hops.end as usize];
        let mut on = run.iter().filter(|h| h.link != Link::Off).peekable();
        std::iter::from_fn(move || {
            let hop = on.next()?;
            let tx = |link: Link| link.by().map(|c| self.cands[c as usize]);
            Some(ChainLink {
                packet: hop.packet as usize,
                incoming: tx(hop.link),
                onward: on.peek().and_then(|next| tx(next.link)),
            })
        })
    }

    fn queue_wait(&self, link: &ChainLink) -> u64 {
        let first_ns = self.profile.packets[link.packet].first_ns;
        let arrived = link.incoming.map(|t| self.txs().wire_arrival(t));
        arrived.map_or(0, |at| first_ns.saturating_sub(at))
    }

    fn chain_hop(&self, link: &ChainLink) -> ChainHop {
        let (names, p) = (&self.profile.names, &self.profile.packets[link.packet]);
        let (_, _, no_nic) = self.profile.stand_ins();
        let onward = link.onward.map(|t| self.txs().get(t));
        ChainHop {
            packet: p.packet,
            machine: names.shared(machine_of(self.profile, p)),
            nic: names.shared(p.nic.unwrap_or(no_nic)),
            arrival_ns: p.first_ns,
            queue_wait_ns: self.queue_wait(link),
            tx_ns: onward.map(|tx| tx.at_ns),
            overlap_ns: onward.map_or(0, |tx| p.last_ns.saturating_sub(tx.at_ns)),
        }
    }

    /// A journey's critical-path hops, origin-side first.
    pub fn chain(&self, j: &Journey) -> Vec<ChainHop> {
        self.links(j).map(|link| self.chain_hop(&link)).collect()
    }

    /// Hands `add` each piece of `j`'s chain as a segment key and its
    /// nanoseconds, hop by hop: the wire phases that delivered a hop, its
    /// rx-queue wait, and its processing slices up to the handover that
    /// continues the chain (all of them on the final hop) — so
    /// consecutive pieces share their boundary instants and the total
    /// telescopes to `end_ns - start_ns` with nothing left over.
    fn pieces(&self, j: &Journey, mut add: impl FnMut(SegKey, u64)) {
        let (profile, txs) = (self.profile, self.txs());
        let (_, origin, _) = profile.stand_ins();
        // The hop before on the chain, which sent the frame that delivered
        // this one, unless the chain starts here.
        let mut before = None;
        for link in self.links(j) {
            let hop = &profile.packets[link.packet];
            let machine = machine_of(profile, hop);
            if let Some(t) = link.incoming {
                let tx = txs.get(t);
                let sender = match before {
                    Some(s) if txs.sent_by(t, s) => Some(s),
                    _ => txs.sender(t).map(|(s, _)| s),
                };
                // An engine/timer-context send is named after its machine
                // when the NIC knows one, "origin" otherwise.
                let sent_by = sender.map(|s| machine_of(profile, &profile.packets[s]));
                let src = sent_by.or(tx.host).unwrap_or(origin);
                // The tx-ring/doorbell share of the wait is the sender's
                // queue, not the medium's: surface it as its own hop
                // segment so a backlogged transmit path is visible.
                let queue = tx.queue_ns.min(tx.wait_ns);
                if queue > 0 {
                    add(SegKey::TxQueue(src), queue);
                }
                let wire = |phase| SegKey::Wire(src, machine, phase);
                add(wire(Phase::Wait), tx.wait_ns - queue);
                add(wire(Phase::Serialize), tx.ser_ns);
                add(wire(Phase::Propagate), tx.prop_ns);
            }
            let queue_wait = self.queue_wait(&link);
            if queue_wait > 0 {
                add(SegKey::RxQueue(machine), queue_wait);
            }
            // The hop sent the transmit that continues the chain. Tx
            // records and the `driver/tx` slices they produce appear in the
            // same order, so the `k`-th of one is the `k`-th of the other.
            let slices = profile.slices_at(link.packet);
            let onward = link.onward.and_then(|t| txs.in_arena(t));
            let upto = match onward.map(|k| k - profile.tx_run(link.packet).start) {
                Some(k) => {
                    let tx_slices = slices.iter().enumerate().filter(|(_, s)| profile.is_tx(s));
                    tx_slices.map(|(at, _)| at + 1).nth(k)
                }
                None => Some(slices.len()),
            };
            for s in &slices[..upto.unwrap_or(0)] {
                add(SegKey::Processing(machine, s.at.layer, s.at.domain), s.ns());
            }
            before = Some(link.packet);
        }
    }

    /// A journey's ordered waterfall segments, summing to its
    /// `end_to_end_ns`.
    pub fn segments(&self, j: &Journey) -> Vec<Segment> {
        // Slots of a table of this journey's own come in first-seen
        // order, so a new one is the next segment.
        let mut slots = Slots::new(&self.profile.names);
        let mut segments: Vec<Segment> = Vec::new();
        self.pieces(j, |key, ns| {
            let slot = slots.of(key);
            match segments.get_mut(slot) {
                Some(segment) => segment.ns += ns,
                None => segments.push(Segment {
                    name: slots.name(slot).into(),
                    ns,
                }),
            }
        });
        segments
    }
}

/// Reconstructs every journey from a built profile. It asks the allocator
/// only for what the journeys keep: their list and the two sorted index
/// arrays.
pub fn build(profile: &Profile) -> Journeys<'_> {
    let packets = &profile.packets;
    let txs = Txs { profile };
    let at = |i: usize| u32::try_from(i).expect("a profile holds fewer than 2^32 packets");
    let pkt = |h: &Hop| &packets[h.packet as usize];

    // Intact hops, grouped by journey (one sort, then runs of equal
    // journey), each group in arrival order.
    let intact = |p: &&PacketProfile| p.journey.is_some() && !p.orphan;
    let mut hops = Vec::with_capacity(packets.iter().filter(intact).count());
    let hop = |(i, _)| Hop {
        packet: at(i),
        link: Link::Off,
    };
    hops.extend(
        packets
            .iter()
            .enumerate()
            .filter(|(_, p)| intact(p))
            .map(hop),
    );
    hops.sort_unstable_by_key(|h| {
        let p = pkt(h);
        (p.journey, p.first_ns, p.packet)
    });
    let journey_of = |h: &Hop| pkt(h).journey;

    // A journey is *truncated* when wraparound left it nothing but
    // orphaned hops: its tag is known, its ledger is not. Orphans are the
    // few packets whose run the ring's start cut, so each is checked
    // against those before it.
    let orphan_journeys = || {
        let orphans = profile.truncation.orphan_packets.iter();
        let journey = |&id| {
            let at = packets.binary_search_by_key(&id, |p| p.packet).ok()?;
            packets[at].journey
        };
        orphans.filter_map(journey)
    };
    let lost = |j: u64| hops.binary_search_by_key(&Some(j), journey_of).is_err();
    let journeys_truncated = orphan_journeys()
        .enumerate()
        .filter(|&(i, j)| lost(j) && !orphan_journeys().take(i).any(|k| k == j))
        .count() as u64;

    // Candidate parent transmits grouped the same way, each group by wire
    // arrival, ties in candidate order. A transmit's journey tag names
    // the chain its *delivery* joins, which may differ from the journey
    // of the packet being processed when it was sent (that is exactly
    // what `journey_break` arranges).
    let tagged = |&t: &u32| txs.get(t).journey.is_some();
    let key = |&t: &u32| (txs.get(t).journey, txs.wire_arrival(t), t);
    let mut cands = Vec::with_capacity((0..at(txs.len())).filter(tagged).count());
    // The transmits sent outside any packet window, and those sent inside
    // one, are each in that order already when journeys are numbered in
    // the order they run: merged, they need no sort. (Sorting the two
    // interleaved runs took half the build on the traced echo.)
    let outside = at(profile.unattributed_txs.len());
    let mut runs = [0..outside, outside..at(txs.len())].map(|r| r.filter(tagged).peekable());
    let [unattributed, attributed] = &mut runs;
    cands.extend(std::iter::from_fn(|| {
        match (unattributed.peek(), attributed.peek()) {
            (Some(u), Some(a)) if key(a) < key(u) => attributed.next(),
            _ => unattributed.next().or_else(|| attributed.next()),
        }
    }));
    if !cands.is_sorted_by_key(key) {
        cands.sort_unstable_by_key(key);
    }

    let by_journey = |a: &Hop, b: &Hop| journey_of(a) == journey_of(b);
    let mut journeys = Vec::with_capacity(hops.chunk_by(by_journey).count());
    // Where the candidates of the journeys still to come lie, and where
    // the journey's hops start.
    let (mut rest, mut first) = (0..cands.len(), 0);
    for run in hops.chunk_by_mut(by_journey) {
        let journey = pkt(&run[0]).journey;
        let jid = journey.expect("hops carry a journey");
        let skipped = cands[rest.clone()]
            .iter()
            .take_while(|&&t| txs.get(t).journey < journey);
        let of_journey = rest.start + skipped.count()..rest.end;
        let count = (cands[of_journey.clone()].iter())
            .take_while(|&&t| txs.get(t).journey == journey)
            .count();
        let of_journey = of_journey.start..of_journey.start + count;
        rest = of_journey.end..rest.end;

        // The chain ends at the latest hop that actually ran (falling
        // back to the latest filtered hop for journeys that died on
        // arrival), and is walked backwards via parent transmits.
        let ran = run
            .iter()
            .enumerate()
            .filter(|(_, h)| !is_filtered(profile, pkt(h)));
        let end = ran
            .max_by_key(|(_, h)| {
                let p = pkt(h);
                (p.last_ns, p.first_ns, p.packet)
            })
            .or_else(|| {
                run.iter()
                    .enumerate()
                    .max_by_key(|(_, h)| (pkt(h).last_ns, pkt(h).packet))
            })
            .map(|(i, _)| i)
            .expect("journey group is non-empty");

        let (mut hop, mut chain, mut overlap) = (end, 0u64, 0u64);
        let origin = loop {
            let p = pkt(&run[hop]);
            let parent = parent_of(txs, &cands, of_journey.clone(), run[hop].packet as usize, p);
            run[hop].link = parent.map_or(Link::Head, |c| Link::By(at(c)));
            chain += 1;
            let Some(t) = parent.map(|c| cands[c]) else {
                break None;
            };
            let sender = txs.sender(t).filter(|&(s, _)| {
                let p = &packets[s];
                p.journey == journey && !p.orphan
            });
            // The run is in arrival order, so the sender is found by its
            // arrival; it is on the chain already if it has a link.
            let on_run = sender.and_then(|(s, _)| {
                let arrival = (packets[s].first_ns, packets[s].packet);
                let found =
                    run.binary_search_by_key(&arrival, |h| (pkt(h).first_ns, pkt(h).packet));
                found.ok().filter(|&i| run[i].link == Link::Off)
            });
            match on_run {
                Some(i) => {
                    let p = pkt(&run[i]);
                    overlap += p.last_ns.saturating_sub(txs.get(t).at_ns);
                    hop = i;
                }
                // Sent from another journey's window (a broken chain's
                // origin), from engine/timer context, or from a hop
                // already on the chain: the journey starts here.
                None => break Some(t),
            }
        };

        let start_ns = origin.map_or(pkt(&run[hop]).first_ns, |t| txs.get(t).at_ns);
        let end_ns = pkt(&run[end]).last_ns;
        let sent_from = |t: u32| {
            let machine = txs.sender(t).map(|(s, _)| machine_of(profile, &packets[s]));
            machine.or(txs.get(t).host)
        };
        let origin_machine = origin.and_then(sent_from);

        let shed = run
            .iter()
            .filter(|h| h.link == Link::Off && is_filtered(profile, pkt(h)));
        let filtered = shed.count() as u64;
        let branches = run.len() as u64 - filtered - chain;
        let hops = at(first)..at(first + run.len());
        first += run.len();
        journeys.push(Journey {
            journey: jid,
            start_ns,
            end_ns,
            end_to_end_ns: end_ns - start_ns,
            origin_machine: origin_machine.map(|m| profile.names.shared(m)),
            hops,
            branch_hops: branches,
            filtered_hops: filtered,
            overlap_ns: overlap,
        });
    }
    Journeys {
        journeys,
        orphan_packets: (packets.len() - hops.len()) as u64,
        journeys_truncated,
        profile,
        hops,
        cands,
    }
}

/// A segment name's time summed over every journey, and the number of
/// journeys that have it; `seen` is the journey (by position) summed last.
#[derive(Clone, Copy)]
struct Total {
    ns: u64,
    journeys: u64,
    seen: usize,
}

/// Renders the journeys as deterministic JSON (schema
/// `plexus.journey.v1`). Per-journey detail is emitted for the first
/// `max_detail` journeys only — the cap is stated, never silent — while
/// the per-segment aggregate covers every journey.
pub fn journeys_json(j: &Journeys<'_>, max_detail: usize) -> String {
    // Every segment name with its totals, in first-seen order.
    let mut slots = Slots::new(&j.profile.names);
    let mut totals: Vec<Total> = Vec::new();
    for (this, journey) in j.journeys.iter().enumerate() {
        slots.start_journey();
        j.pieces(journey, |key, ns| {
            let slot = slots.of(key);
            if slot == totals.len() {
                totals.push(Total {
                    ns: 0,
                    journeys: 0,
                    seen: usize::MAX,
                });
            }
            let total = &mut totals[slot];
            total.ns += ns;
            if total.seen != this {
                total.seen = this;
                total.journeys += 1;
            }
        });
    }
    // A detailed journey's segments, as slots with their nanoseconds in
    // first-seen order: a few, searched in place.
    let mut segments: Vec<(usize, u64)> = Vec::new();
    exact(|out| {
        let (total, detailed) = (j.journeys.len(), j.journeys.len().min(max_detail));
        let (orphans, truncated) = (j.orphan_packets, j.journeys_truncated);
        put!(
            out,
            "{{\n  \"schema\": \"plexus.journey.v1\",\n  \"journeys_total\": {total},\n  \
             \"journeys_detailed\": {detailed},\n  \"orphan_packets_excluded\": {orphans},\n  \
             \"journeys_truncated\": {truncated},\n"
        );

        out.push_str("  \"segments\": [");
        for (slot, t) in totals.iter().enumerate() {
            let (sep, name) = (if slot > 0 { "," } else { "" }, escaped(slots.name(slot)));
            let (total_ns, count, mean_ns) = (t.ns, t.journeys, t.ns / t.journeys.max(1));
            put!(
                out,
                "{sep}\n    {{\"name\": \"{name}\", \"total_ns\": {total_ns}, \
                 \"journeys\": {count}, \"mean_ns\": {mean_ns}}}"
            );
        }
        out.push_str(if totals.is_empty() {
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
            for (k, link) in j.links(journey).enumerate() {
                let (sep, h) = (if k > 0 { ", " } else { "" }, j.chain_hop(&link));
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
            segments.clear();
            slots.start_journey();
            j.pieces(journey, |key, ns| {
                let slot = slots.of(key);
                match segments.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, sum)) => *sum += ns,
                    None => segments.push((slot, ns)),
                }
            });
            let named = segments.iter().map(|&(slot, ns)| (slots.name(slot), ns));
            segments_json(out, named);
            out.push_str("]}");
        }
        out.push_str(if detailed == 0 {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
    })
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        rec.packet_drop(2_600, rec.intern("ether"), rec.intern("mac_filter"));
        rec.packet_done();
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
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
        let profile = Profile::build(rec);
        let js = build(&profile);
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
        let profile = Profile::build(&rec);
        let js = build(&profile);
        assert_eq!(js.journeys.len(), 1);
        let j = &js.journeys[0];
        assert_eq!(js.chain(j).len(), 16_000);
        assert_eq!((j.branch_hops, j.filtered_hops), (0, 0));
        let sum: u64 = js.segments(j).iter().map(|s| s.ns).sum();
        assert_eq!(sum, j.end_to_end_ns, "the segments telescope exactly");
        assert_eq!(j.end_to_end_ns, 1_000 * 16_000 - 1_000 + 600 + 450);
    }
}
