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
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::new(0);
    }
}
