//! Cross-machine packet journeys reconstructed from the profiled ring.
//!
//! A *journey* is the causal chain a frame starts: the journey ID is
//! allocated at the original transmit, carried across the wire with the
//! frame, inherited by the receive chain it triggers on the next machine,
//! and passed on by any frame *that* chain transmits — until a receive
//! handler calls [`crate::Recorder::journey_break`] to start a fresh one.
//! Per-machine packet IDs restart at every NIC arrival; the journey ID is
//! the identity that survives the hop, which is what makes a cross-machine
//! latency waterfall possible at all.
//!
//! [`build`] stitches the per-packet profiles of one [`Profile`] into
//! per-journey hop ledgers. Hops are linked by the wire-telescoping
//! equation the NIC model guarantees —
//! `tx.at_ns + wait + ser + prop == arrival.at_ns` — with an inequality
//! fallback for coalesced receive paths where the arrival record is
//! delayed by rx-ring queueing (the gap becomes the hop's *queue wait*).
//! The **chain** is the path from the origin transmit to the latest
//! surviving hop; broadcast copies that a MAC filter discarded are counted
//! as *filtered hops*, other causal offshoots (ACKs, forwarded copies) as
//! *branch hops*. Along the chain every nanosecond between the origin
//! handover and the final hop's last record lands in exactly one named
//! segment — wire phases, rx-queue waits, and `(machine, layer, domain)`
//! processing slices — so the segments telescope to the measured
//! end-to-end time exactly, in the style of
//! [`crate::profile::pingpong_waterfall`].

use std::collections::HashMap;

use crate::json::{escaped, or_null, put};
use crate::profile::{add, segments_json, PacketProfile, Profile, Segment, TxRecord};
use crate::recorder::Interner;
use crate::Label;

/// One hop on a journey's critical-path chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// Per-machine packet ID of this hop.
    pub packet: u64,
    /// Receiving machine (NIC name when the world didn't name the host).
    pub machine: String,
    /// Receiving NIC.
    pub nic: String,
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
    pub origin_machine: Option<String>,
    /// The critical-path hops, origin-side first.
    pub chain: Vec<ChainHop>,
    /// Ordered waterfall segments summing to `end_to_end_ns`.
    pub segments: Vec<Segment>,
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
}

/// A transmit that can parent a hop: the record plus where it came from.
#[derive(Clone, Copy)]
struct TxCand<'a> {
    tx: &'a TxRecord,
    /// `(packet, index in that packet's txs)`; `None` for a transmit
    /// recorded outside any packet window.
    source: Option<(u64, usize)>,
}

impl TxCand<'_> {
    fn wire_arrival(&self) -> u64 {
        self.tx.at_ns + self.tx.wait_ns + self.tx.ser_ns + self.tx.prop_ns
    }
}

/// A hop that arrived but was discarded without running any handler —
/// a broadcast copy the MAC filter (or an overflowing rx ring) shed.
fn is_filtered(p: &PacketProfile) -> bool {
    p.spans.is_empty() && p.txs.is_empty() && !p.drops.is_empty()
}

/// What a chain segment is, by symbol: slices and wire phases merge on
/// these, and a name is rendered once per distinct key of a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SegKey {
    /// `{src}.tx_queue`
    TxQueue(Label),
    /// `{src}->{dst}.wire.{phase}`
    Wire(Label, Label, &'static str),
    /// `{machine}.rx_queue`
    RxQueue(Label),
    /// `{machine}.{layer}.{domain}`
    Processing(Label, Label, Label),
}

impl SegKey {
    fn name(self, names: &Interner) -> String {
        let n = |l| names.get(l);
        match self {
            SegKey::TxQueue(src) => format!("{}.tx_queue", n(src)),
            SegKey::Wire(src, dst, phase) => format!("{}->{}.wire.{phase}", n(src), n(dst)),
            SegKey::RxQueue(machine) => format!("{}.rx_queue", n(machine)),
            SegKey::Processing(machine, layer, domain) => {
                format!("{}.{}.{}", n(machine), n(layer), n(domain))
            }
        }
    }
}

/// Reconstructs every journey from a built profile.
pub fn build(profile: &Profile) -> Journeys {
    // The profile's names plus the two stand-ins a chain needs, so a
    // machine is a plain label throughout.
    let mut names = profile.names.clone();
    let (unknown, origin_label) = (names.intern("?"), names.intern("origin"));
    let machine_of = |p: &PacketProfile| p.host.or(p.nic).unwrap_or(unknown);
    let packets = &profile.packets;
    // `packets` is in packet-ID order, which is what makes an ID an index.
    let by_id = |id: u64| packets.binary_search_by_key(&id, |p| p.packet).ok();

    // Intact hops grouped by journey (one sort, then runs of equal
    // journey), each group in arrival order.
    let mut orphans = 0u64;
    let mut orphan_journeys: Vec<u64> = Vec::new();
    let mut hops: Vec<&PacketProfile> = Vec::with_capacity(packets.len());
    for p in packets {
        if p.journey.is_some() && !p.orphan {
            hops.push(p);
        } else {
            orphans += 1;
            orphan_journeys.extend(p.journey);
        }
    }
    hops.sort_unstable_by_key(|p| (p.journey, p.first_ns, p.packet));
    // A journey is *truncated* when wraparound left it nothing but
    // orphaned hops: its tag is known, its ledger is not.
    orphan_journeys.sort_unstable();
    orphan_journeys.dedup();
    let journeys_truncated = orphan_journeys
        .iter()
        .filter(|&&j| hops.binary_search_by_key(&Some(j), |p| p.journey).is_err())
        .count() as u64;

    // Candidate parent transmits grouped the same way: engine/timer-
    // context sends first, then per-packet transmits in packet order. A
    // transmit's journey tag names the chain its *delivery* joins, which
    // may differ from the journey of the packet being processed when it
    // was sent (that is exactly what `journey_break` arranges).
    let unattributed = profile.unattributed_txs.iter().map(|tx| (tx, None));
    let attributed = packets.iter().flat_map(|p| {
        let source = move |(i, tx)| (tx, Some((p.packet, i)));
        p.txs.iter().enumerate().map(source)
    });
    let mut txs: Vec<TxCand<'_>> = unattributed
        .chain(attributed)
        .filter(|(tx, _)| tx.journey.is_some())
        .map(|(tx, source)| TxCand { tx, source })
        .collect();
    txs.sort_by_key(|c| c.tx.journey);

    let mut journeys = Vec::new();
    let mut chain: Vec<(&PacketProfile, Option<usize>)> = Vec::new();
    let mut keyed: Vec<(SegKey, u64)> = Vec::new();
    // Where each key's name sits in `segment_totals`: rendered the first
    // time the key is seen. Two keys that read the same share a slot, as
    // they would have shared a segment merged by name.
    let mut slot_of: HashMap<SegKey, usize> = HashMap::new();
    let mut segment_totals: Vec<(Segment, u64)> = Vec::new();
    let mut slots: Vec<(usize, u64)> = Vec::new();
    for hops in hops.chunk_by(|a, b| a.journey == b.journey) {
        let journey = hops[0].journey;
        let jid = journey.expect("hops carry a journey");
        let cands = &txs[txs.partition_point(|c| c.tx.journey < journey)..];
        let cands = &cands[..cands.partition_point(|c| c.tx.journey == journey)];

        // The parent transmit of a hop: exact wire-telescoping match
        // first; otherwise the latest handover whose wire arrival does
        // not postdate the hop's arrival record (rx-ring queueing delays
        // the record past the wire arrival on the coalesced path).
        let parent_of = |hop: &PacketProfile| -> Option<TxCand<'_>> {
            let others = || {
                let not_self = move |c: &TxCand<'_>| c.source.map(|(p, _)| p) != Some(hop.packet);
                cands.iter().copied().filter(not_self)
            };
            others()
                .find(|c| c.wire_arrival() == hop.first_ns)
                .or_else(|| {
                    others()
                        .filter(|c| c.wire_arrival() <= hop.first_ns)
                        .max_by_key(|c| c.wire_arrival())
                })
        };

        // The chain ends at the latest hop that actually ran (falling
        // back to the latest filtered hop for journeys that died on
        // arrival), and is walked backwards via parent transmits.
        let ran = hops.iter().filter(|p| !is_filtered(p));
        let end = *ran
            .max_by_key(|p| (p.last_ns, p.first_ns, p.packet))
            .or_else(|| hops.iter().max_by_key(|p| (p.last_ns, p.packet)))
            .expect("journey group is non-empty");

        chain.clear();
        chain.push((end, None));
        let mut origin: Option<TxCand<'_>> = None;
        while let Some(parent) = parent_of(chain.last().expect("chain starts at its end").0) {
            let on_chain = |pkt| chain.iter().any(|(p, _)| p.packet == pkt);
            let sender = parent
                .source
                .and_then(|(pkt, tx_idx)| Some((&packets[by_id(pkt)?], tx_idx)))
                .filter(|(p, _)| p.journey == journey && !p.orphan && !on_chain(p.packet));
            match sender {
                Some((p, tx_idx)) => chain.push((p, Some(tx_idx))),
                None => {
                    // Sent from another journey's window (a broken chain's
                    // origin) or from engine/timer context: the journey
                    // starts here.
                    origin = Some(parent);
                    break;
                }
            }
        }
        chain.reverse();

        let start_ns = origin.map_or(chain[0].0.first_ns, |c| c.tx.at_ns);
        let end_ns = end.last_ns;
        let sender_of = |c: &TxCand<'_>| {
            let (pkt, _) = c.source?;
            Some(machine_of(&packets[by_id(pkt)?]))
        };
        let origin_machine = origin.and_then(|c| sender_of(&c).or(c.tx.host));

        // Stitch the segments hop by hop. Each iteration appends the wire
        // phases that delivered hop `i`, its rx-queue wait, and its
        // processing slices up to the handover that continues the chain —
        // so consecutive pieces share their boundary instants and the
        // total telescopes to `end_ns - start_ns` with nothing left over.
        keyed.clear();
        let mut chain_hops: Vec<ChainHop> = Vec::with_capacity(chain.len());
        let mut overlap_total = 0u64;
        for i in 0..chain.len() {
            let (hop, own_tx_idx) = chain[i];
            let machine = machine_of(hop);

            // Wire phases into this hop (from the origin transmit or the
            // previous chain hop's handover).
            let incoming = if i == 0 {
                origin
            } else {
                let (prev, prev_tx_idx) = chain[i - 1];
                let handover = prev_tx_idx.map(|k| (prev.packet, k));
                (cands.iter().copied()).find(|c| handover.is_some() && c.source == handover)
            };
            let mut queue_wait = 0;
            if let Some(c) = incoming {
                // An engine/timer-context send is named after its machine
                // when the NIC knows one, "origin" otherwise.
                let src = sender_of(&c).unwrap_or(c.tx.host.unwrap_or(origin_label));
                // The tx-ring/doorbell share of the wait is the sender's
                // queue, not the medium's: surface it as its own hop
                // segment so a backlogged transmit path is visible.
                let queue = c.tx.queue_ns.min(c.tx.wait_ns);
                if queue > 0 {
                    add(&mut keyed, SegKey::TxQueue(src), queue);
                }
                let wire = |phase| SegKey::Wire(src, machine, phase);
                add(&mut keyed, wire("wait"), c.tx.wait_ns - queue);
                add(&mut keyed, wire("serialize"), c.tx.ser_ns);
                add(&mut keyed, wire("propagate"), c.tx.prop_ns);
                queue_wait = hop.first_ns.saturating_sub(c.wire_arrival());
                if queue_wait > 0 {
                    add(&mut keyed, SegKey::RxQueue(machine), queue_wait);
                }
            }

            // Processing on this hop: up to the chain-continuing handover
            // for inner hops, the whole window for the final one. Tx
            // records and the `driver/tx` slices they produce appear in
            // the same order, so the `k`-th of one is the `k`-th of the
            // other.
            let (tx_ns, overlap, upto) = match own_tx_idx {
                Some(k) => {
                    let tx = &hop.txs[k];
                    let tx_slices = hop
                        .slices
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| profile.is_tx(s));
                    let upto = tx_slices.map(|(at, _)| at + 1).nth(k);
                    (Some(tx.at_ns), hop.last_ns.saturating_sub(tx.at_ns), upto)
                }
                None => (None, 0, Some(hop.slices.len())),
            };
            for s in &hop.slices[..upto.unwrap_or(0)] {
                let key = SegKey::Processing(machine, s.at.layer, s.at.domain);
                add(&mut keyed, key, s.ns());
            }
            overlap_total += overlap;
            chain_hops.push(ChainHop {
                packet: hop.packet,
                machine: names.get(machine).to_owned(),
                nic: hop
                    .nic
                    .map_or_else(String::new, |nic| names.get(nic).to_owned()),
                arrival_ns: hop.first_ns,
                queue_wait_ns: queue_wait,
                tx_ns,
                overlap_ns: overlap,
            });
        }

        slots.clear();
        for &(key, ns) in &keyed {
            let slot = *slot_of.entry(key).or_insert_with(|| {
                let name = key.name(&names);
                let known = segment_totals.iter().position(|(s, _)| *s.name == name);
                known.unwrap_or_else(|| {
                    let name = name.into();
                    segment_totals.push((Segment { name, ns: 0 }, 0));
                    segment_totals.len() - 1
                })
            });
            add(&mut slots, slot, ns);
        }
        let segment = |&(slot, ns): &(usize, u64)| {
            let (total, journeys) = &mut segment_totals[slot];
            total.ns += ns;
            *journeys += 1;
            let name = total.name.clone();
            Segment { name, ns }
        };
        let segments = slots.iter().map(segment).collect();

        let off_chain = |p: &PacketProfile| !chain.iter().any(|(c, _)| c.packet == p.packet);
        let shed = hops.iter().filter(|p| is_filtered(p) && off_chain(p));
        let filtered = shed.count() as u64;
        let branches = hops.len() as u64 - filtered - chain.len() as u64;

        journeys.push(Journey {
            journey: jid,
            start_ns,
            end_ns,
            end_to_end_ns: end_ns - start_ns,
            origin_machine: origin_machine.map(|m| names.get(m).to_owned()),
            chain: chain_hops,
            segments,
            branch_hops: branches,
            filtered_hops: filtered,
            overlap_ns: overlap_total,
        });
    }

    Journeys {
        journeys,
        orphan_packets: orphans,
        journeys_truncated,
        segment_totals,
    }
}

/// Renders the journeys as deterministic JSON (schema
/// `plexus.journey.v1`). Per-journey detail is emitted for the first
/// `max_detail` journeys only — the cap is stated, never silent — while
/// the per-segment aggregate covers every journey.
pub fn journeys_json(j: &Journeys, max_detail: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"plexus.journey.v1\",\n");
    put!(out, "  \"journeys_total\": {},\n", j.journeys.len());
    let detailed = j.journeys.len().min(max_detail);
    put!(out, "  \"journeys_detailed\": {detailed},\n");
    put!(
        out,
        "  \"orphan_packets_excluded\": {},\n",
        j.orphan_packets
    );
    put!(out, "  \"journeys_truncated\": {},\n", j.journeys_truncated);

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
    let close = if j.segment_totals.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    };
    out.push_str(close);

    out.push_str("  \"journeys\": [");
    for (i, journey) in j.journeys.iter().take(detailed).enumerate() {
        let (sep, id, end_to_end_ns) = (
            if i > 0 { "," } else { "" },
            journey.journey,
            journey.end_to_end_ns,
        );
        let (start_ns, end_ns) = (journey.start_ns, journey.end_ns);
        put!(
            out,
            "{sep}\n    {{\"journey\": {id}, \"start_ns\": {start_ns}, \"end_ns\": {end_ns}, \
             \"end_to_end_ns\": {end_to_end_ns}, \"origin_machine\": "
        );
        match &journey.origin_machine {
            Some(machine) => put!(out, "\"{}\"", escaped(machine)),
            None => out.push_str("null"),
        }
        let (branch, filtered, overlap) = (
            journey.branch_hops,
            journey.filtered_hops,
            journey.overlap_ns,
        );
        put!(
            out,
            ", \"branch_hops\": {branch}, \"filtered_hops\": {filtered}, \
             \"overlap_ns\": {overlap}, \"chain\": ["
        );
        for (k, h) in journey.chain.iter().enumerate() {
            let (sep, machine, nic) = (
                if k > 0 { ", " } else { "" },
                escaped(&h.machine),
                escaped(&h.nic),
            );
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
        segments_json(&mut out, &journey.segments);
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
        assert_eq!(j.chain.len(), 2);
        assert_eq!(j.chain[0].machine, "fwd");
        assert_eq!(j.chain[1].machine, "backend");
        assert_eq!(j.start_ns, 1_000, "clock starts at the origin handover");
        assert_eq!(j.end_ns, 3_000);
        assert_eq!(j.end_to_end_ns, 2_000);
        let sum: u64 = j.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, j.end_to_end_ns, "zero unattributed nanoseconds");
        // The forwarder's post-handover unwind is off the critical path.
        assert_eq!(j.chain[0].overlap_ns, 200);
        assert_eq!(j.overlap_ns, 200);
        // Wire names carry the machine pair.
        assert!(j
            .segments
            .iter()
            .any(|s| &*s.name == "fwd->backend.wire.serialize"));
        assert!(j
            .segments
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
        assert_eq!(j.chain.len(), 2, "filtered copy not on the chain");
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
        assert_eq!(jo.chain[0].queue_wait_ns, 400);
        let sum: u64 = jo.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, jo.end_to_end_ns);
        assert!(jo.segments.iter().any(|s| &*s.name == "dut.rx_queue"));
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
        let get = |name: &str| jo.segments.iter().find(|s| &*s.name == name).map(|s| s.ns);
        assert_eq!(get("origin.tx_queue"), Some(100));
        assert_eq!(get("origin->dut.wire.wait"), Some(50));
        let sum: u64 = jo.segments.iter().map(|s| s.ns).sum();
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
}
