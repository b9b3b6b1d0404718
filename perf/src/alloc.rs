//! The counting allocator: `System` plus four per-thread counters. The only
//! `unsafe` in the tree. Counters are const-initialised thread-local `Cell`s
//! (no destructor, so touching them inside the allocator cannot allocate or
//! recurse): the benchmark is single-threaded, and per-thread counts keep the
//! exact-count tests race-free under cargo's parallel test runner.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

pub struct Counting;

/// Counts one `alloc`/`realloc` call asking for `new` bytes and releasing `old`.
fn count(new: usize, old: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + new as u64));
    let live =
        LIVE.with(|c| c.replace(c.get() + new as i64 - old as i64)) + new as i64 - old as i64;
    PEAK.with(|c| c.set(c.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size(), 0);
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size(), 0);
        // SAFETY: as above; forwarded so large zeroed buffers stay lazily mapped.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.with(|c| c.set(c.get() - l.size() as i64));
        // SAFETY: `p` came from this allocator, i.e. from `System`, with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(new, l.size());
        // SAFETY: as for `dealloc`; `new` is the caller's checked size.
        unsafe { System.realloc(p, l, new) }
    }
}

/// (calls, bytes requested, live bytes, peak live bytes) of this thread.
pub fn snapshot() -> (u64, u64, i64, i64) {
    (CALLS.get(), BYTES.get(), LIVE.get(), PEAK.get())
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_vec_is_one_call_and_peak_outlives_a_freed_buffer() {
        let (calls, bytes, live, _) = snapshot();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1));
        let after = snapshot();
        assert_eq!(
            (after.0 - calls, after.1 - bytes, after.2 - live),
            (1, 1, 1)
        );
        drop(v);

        reset_peak();
        let base = snapshot().2;
        let big: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        drop(big);
        let (_, _, live, peak) = snapshot();
        assert_eq!(live, base, "the buffer is freed");
        assert_eq!(peak - base, 1 << 20, "and the peak remembers it");
        reset_peak();
        assert_eq!(snapshot().3, base);
    }

    #[test]
    fn realloc_counts_a_call_and_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let (calls, bytes, live, _) = snapshot();
        v.reserve_exact(64);
        std::hint::black_box(&v);
        let after = snapshot();
        assert_eq!(
            (after.0 - calls, after.1 - bytes, after.2 - live),
            (1, 64, 48)
        );
    }
}
