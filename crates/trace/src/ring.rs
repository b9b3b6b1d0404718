//! Bounded, preallocated event ring.

use std::num::NonZeroU64;

use crate::{TraceEvent, TraceRecord};

/// A record as the ring stores it: 72 bytes to a [`TraceRecord`]'s 96.
/// The sequence number is not stored, because the `n`-th push is record
/// `n`; the IDs are stored plus one, so an absent ID needs no tag.
#[derive(Debug)]
struct Slot {
    at_ns: u64,
    packet: Option<NonZeroU64>,
    journey: Option<NonZeroU64>,
    event: TraceEvent,
}

/// `id + 1`, which is never zero.
///
/// # Panics
///
/// Panics on an ID of `u64::MAX`: the recorder's counters never get there.
fn stored(id: Option<u64>) -> Option<NonZeroU64> {
    id.map(|id| NonZeroU64::new(id.wrapping_add(1)).expect("a recorded ID is below u64::MAX"))
}

impl Slot {
    fn new(r: &TraceRecord) -> Slot {
        Slot {
            at_ns: r.at_ns,
            packet: stored(r.packet),
            journey: stored(r.journey),
            event: r.event,
        }
    }

    /// The record this slot holds, as push `seq`.
    fn record(&self, seq: u64) -> TraceRecord {
        let id = |stored: Option<NonZeroU64>| stored.map(|id| id.get() - 1);
        TraceRecord {
            at_ns: self.at_ns,
            seq,
            packet: id(self.packet),
            journey: id(self.journey),
            event: self.event,
        }
    }
}

/// A fixed-capacity ring buffer of [`TraceRecord`]s.
///
/// Storage is allocated once at construction; pushing never allocates.
/// When full, the oldest record is overwritten and counted in
/// [`Ring::overwritten`] — a flight recorder keeps the most recent window,
/// not the oldest. Records are numbered by push: whatever `seq` a pushed
/// record carries, the ring hands the `n`-th push back as `seq == n`.
#[derive(Debug)]
pub struct Ring {
    buf: Vec<Slot>,
    capacity: usize,
    /// Index of the oldest record (only meaningful once wrapped).
    head: usize,
    overwritten: u64,
}

impl Ring {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ring {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Records currently held (saturates at capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Old records overwritten because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Records ever pushed: the number the next push gets.
    pub(crate) fn pushed(&self) -> u64 {
        self.overwritten + self.buf.len() as u64
    }

    /// The most records the ring holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, overwriting the oldest if full. The record's
    /// `seq` is not kept: it comes back as the push's number.
    ///
    /// # Panics
    ///
    /// Panics if the record's packet or journey ID is `u64::MAX`.
    pub fn push(&mut self, rec: TraceRecord) {
        let slot = Slot::new(&rec);
        if self.buf.len() < self.capacity {
            self.buf.push(slot);
        } else {
            self.buf[self.head] = slot;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// The record pushed `n`-th (counting from 0), while the ring still
    /// holds it: the `n`-th push went to slot `n % capacity`.
    pub(crate) fn nth(&self, n: u64) -> Option<TraceRecord> {
        let held = (self.overwritten..self.pushed()).contains(&n);
        held.then(|| self.buf[(n % self.capacity as u64) as usize].record(n))
    }

    /// The record the next push overwrites, once the ring is full.
    pub(crate) fn next_overwritten(&self) -> Option<TraceRecord> {
        let full = self.buf.len() == self.capacity;
        full.then(|| self.buf[self.head].record(self.overwritten))
    }

    /// The retained records, oldest first, rebuilt from their slots — what
    /// every exporter walks, so none of them copies the ring to read it.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        let slots = older.iter().chain(newer);
        slots.zip(self.overwritten..).map(|(s, seq)| s.record(seq))
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            at_ns: seq * 10,
            seq,
            packet: None,
            journey: None,
            event: TraceEvent::TimerFire,
        }
    }

    #[test]
    fn below_capacity_keeps_everything_in_order() {
        let mut ring = Ring::new(4);
        for i in 0..3 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 0);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_drops_oldest_first() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn a_push_is_found_by_its_number_until_it_is_overwritten() {
        let mut ring = Ring::new(3);
        ring.push(rec(0));
        assert_eq!(ring.next_overwritten(), None, "room left");
        for i in 1..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.nth(1), None, "overwritten");
        let held: Vec<u64> = (2..5).map(|n| ring.nth(n).expect("held").seq).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert_eq!(ring.nth(5), None, "not pushed yet");
        assert_eq!(ring.next_overwritten().map(|r| r.seq), Some(2));
        // A slot stores no number: each record comes back numbered by its
        // push, with the IDs it went in with, however often the ring wraps.
        let ids = [None, Some(0), Some(u64::MAX - 1)];
        let pairs = ids.iter().flat_map(|&p| ids.map(|j| (p, j)));
        let mut pushed = Vec::new();
        for (i, (packet, journey)) in pairs.enumerate() {
            let r = TraceRecord {
                at_ns: u64::MAX - i as u64,
                seq: 0,
                packet,
                journey,
                event: TraceEvent::LatencySample {
                    hist: Label(u32::MAX),
                    ns: u64::MAX,
                },
            };
            let n = ring.pushed();
            ring.push(r);
            pushed.push(TraceRecord { seq: n, ..r });
            assert_eq!(ring.nth(n), pushed.last().copied());
        }
        let kept = &pushed[pushed.len() - 3..];
        assert_eq!(ring.snapshot(), kept);
        assert_eq!(ring.next_overwritten().as_ref(), kept.first());
    }

    #[test]
    #[should_panic(expected = "below u64::MAX")]
    fn an_id_of_u64_max_is_refused() {
        let mut ring = Ring::new(1);
        ring.push(TraceRecord {
            packet: Some(u64::MAX),
            ..rec(0)
        });
    }

    const _: () = assert!(size_of::<Slot>() == 72);

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::new(0);
    }
}
