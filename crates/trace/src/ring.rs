//! Bounded, preallocated event ring.

use crate::TraceRecord;

/// A fixed-capacity ring buffer of [`TraceRecord`]s.
///
/// Storage is allocated once at construction; pushing never allocates.
/// When full, the oldest record is overwritten and counted in
/// [`Ring::overwritten`] — a flight recorder keeps the most recent window,
/// not the oldest.
#[derive(Debug)]
pub struct Ring {
    buf: Vec<TraceRecord>,
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

    /// The most records the ring holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, overwriting the oldest if full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// The record pushed `n`-th (counting from 0), while the ring still
    /// holds it: the `n`-th push went to slot `n % capacity`. The record
    /// must carry `n` as its sequence number, as the recorder's do; a
    /// record that does not is not found.
    pub(crate) fn nth(&self, n: u64) -> Option<&TraceRecord> {
        let pushed = self.overwritten + self.buf.len() as u64;
        let held = (self.overwritten..pushed).contains(&n);
        let at = held.then(|| &self.buf[(n % self.capacity as u64) as usize]);
        at.filter(|r| r.seq == n)
    }

    /// The record the next push overwrites, once the ring is full.
    pub(crate) fn next_overwritten(&self) -> Option<&TraceRecord> {
        (self.buf.len() == self.capacity).then(|| &self.buf[self.head])
    }

    /// The retained records in place, oldest first — what every exporter
    /// walks, so none of them copies the ring to read it.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

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
        ring.push(rec(9));
        assert_eq!(ring.nth(5), None, "numbered otherwise than by push");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::new(0);
    }
}
