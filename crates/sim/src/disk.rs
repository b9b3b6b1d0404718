//! A simple DMA disk model for the network-video server (§5.1).
//!
//! The paper's video server reads frames off disk through SPIN's file
//! system interface; what matters for Figure 6 is that disk reads are DMA
//! (cheap in CPU) but occupy the device for seek + transfer time, so frame
//! reads from many concurrent streams queue behind each other.

use std::cell::Cell;
use std::rc::Rc;

use crate::engine::Engine;
use crate::time::{SimDuration, SimTime};

/// A single-spindle disk with DMA transfers.
pub struct Disk {
    seek: SimDuration,
    bytes_per_sec: u64,
    /// CPU cost per read (issuing the request + completion interrupt work).
    pub cpu_cost: SimDuration,
    free_at: Cell<SimTime>,
}

impl Disk {
    /// A disk of the paper's era: ~10 ms average seek amortized down by
    /// sequential video reads, ~4 MB/s media rate.
    pub fn video_era() -> Rc<Disk> {
        Disk::new(SimDuration::from_micros(1_500), 4_000_000)
    }

    /// Creates a disk with explicit seek time and media rate.
    pub(crate) fn new(seek: SimDuration, bytes_per_sec: u64) -> Rc<Disk> {
        Rc::new(Disk {
            seek,
            bytes_per_sec,
            cpu_cost: SimDuration::from_micros(6),
            free_at: Cell::new(SimTime::ZERO),
        })
    }

    /// Time the media needs to transfer `len` bytes (excluding seek).
    pub(crate) fn transfer_time(&self, len: usize) -> SimDuration {
        let ns = len as u128 * 1_000_000_000 / self.bytes_per_sec as u128;
        SimDuration::from_nanos(ns as u64)
    }

    /// Issues a `len`-byte read at `now`; `done` runs when the DMA
    /// completes. Reads queue on the spindle in issue order.
    pub fn read<F>(&self, engine: &mut Engine, now: SimTime, len: usize, done: F) -> SimTime
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let start = self.free_at.get().max(now);
        let end = start + self.seek + self.transfer_time(len);
        self.free_at.set(end);
        engine.schedule_at(end, done);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_completes_after_seek_plus_transfer() {
        let disk = Disk::new(SimDuration::from_micros(1_000), 4_000_000);
        let mut engine = Engine::new();
        let done_at = Rc::new(Cell::new(0u64));
        let d = done_at.clone();
        disk.read(&mut engine, SimTime::ZERO, 4_000, move |eng| {
            d.set(eng.now().as_micros());
        });
        engine.run();
        // 1 ms seek + 4000 B at 4 MB/s = 1 ms transfer.
        assert_eq!(done_at.get(), 2_000);
    }

    #[test]
    fn reads_queue_on_the_spindle() {
        let disk = Disk::new(SimDuration::from_micros(100), 1_000_000);
        let mut engine = Engine::new();
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        for _ in 0..3 {
            let log = log.clone();
            disk.read(&mut engine, SimTime::ZERO, 1_000, move |eng| {
                log.borrow_mut().push(eng.now().as_micros());
            });
        }
        engine.run();
        // Each read: 100 us seek + 1000 us transfer = 1.1 ms, serialized.
        assert_eq!(*log.borrow(), vec![1_100, 2_200, 3_300]);
    }
}
