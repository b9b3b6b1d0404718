//! Bounded per-program state maps.
//!
//! A guard may declare a fixed number of small state maps in its program
//! header: per-flow counters and token buckets, indexed by a masked field
//! value. Capacity is fixed at construction — a map can never grow — and
//! the verifier's interval analysis ([`crate::absint`]) proves every index
//! the program can compute lies below the capacity and that the total
//! footprint fits the program's declared byte budget. Admitting a stateful
//! guard at interrupt level therefore cannot admit unbounded kernel state.
//!
//! Like [`crate::ir::PortSet`], a [`StateMap`] handle is shared between
//! the installed program and its manager (one `Rc`, a word wide): the
//! manager can read counters or reset state without reinstalling, and
//! cloning a program shares — never copies — its state.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Hard cap on a single program's total declared map state, in bytes.
/// Large enough for a 4096-slot token-bucket map, small enough that even a
/// malicious extension cannot pin meaningful kernel memory.
pub const MAX_STATE_BYTES: u32 = 64 * 1024;

/// What a state map holds per slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// A saturating per-slot event counter (8 bytes of state per slot).
    Counter,
    /// A token bucket per slot (16 bytes of state per slot: token count
    /// plus last-refill timestamp). Starts full.
    TokenBucket {
        /// Bucket capacity in tokens (also the initial fill).
        tokens: u32,
        /// Refill rate in tokens per simulated millisecond.
        refill_per_ms: u32,
    },
}

impl MapKind {
    /// Bytes of state one slot occupies.
    pub(crate) fn slot_bytes(self) -> u32 {
        match self {
            MapKind::Counter => 8,
            MapKind::TokenBucket { .. } => 16,
        }
    }

    /// Stable lowercase name used in diagnostics and spec files.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MapKind::Counter => "counter",
            MapKind::TokenBucket { .. } => "bucket",
        }
    }
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapKind::Counter => write!(f, "counter"),
            MapKind::TokenBucket {
                tokens,
                refill_per_ms,
            } => write!(f, "bucket({tokens} tokens, +{refill_per_ms}/ms)"),
        }
    }
}

/// One slot. Counters use `a`; token buckets use `a` (current tokens) and
/// `b` (timestamp up to which refill has been credited, ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Slot {
    a: u64,
    b: u64,
}

/// A fixed-capacity state map declared in a program header and addressed
/// by the map instructions (`MBump`/`MLoad`/`MTake`).
///
/// All accessors take the index as the `u64` a register holds and return
/// `None` when it is out of bounds or the operation does not fit the map's
/// kind — the checked evaluator turns `None` into a rejection, and the
/// verifier proves it never happens for verified programs.
#[derive(Clone)]
pub struct StateMap(Rc<Shared>);

/// What every handle to one map shares: its declaration, and its slots.
struct Shared {
    name: Box<str>,
    kind: MapKind,
    capacity: u32,
    slots: RefCell<Vec<Slot>>,
}

impl fmt::Debug for StateMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateMap")
            .field("name", &self.0.name)
            .field("kind", &self.0.kind)
            .field("capacity", &self.0.capacity)
            .field("slots", &self.0.slots)
            .finish()
    }
}

impl StateMap {
    /// Creates a map with `capacity` zeroed (counters) or full (token
    /// bucket) slots.
    pub fn new(name: &str, kind: MapKind, capacity: u32) -> StateMap {
        let init = match kind {
            MapKind::Counter => Slot::default(),
            MapKind::TokenBucket { tokens, .. } => Slot {
                a: u64::from(tokens),
                b: 0,
            },
        };
        StateMap(Rc::new(Shared {
            name: name.into(),
            kind,
            capacity,
            slots: RefCell::new(vec![init; capacity as usize]),
        }))
    }

    /// The declared name (diagnostics and spec files).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// What each slot holds.
    pub fn kind(&self) -> MapKind {
        self.0.kind
    }

    /// Number of slots.
    pub fn capacity(&self) -> u32 {
        self.0.capacity
    }

    /// Total bytes of state this map pins.
    pub fn state_bytes(&self) -> u32 {
        self.0.capacity.saturating_mul(self.0.kind.slot_bytes())
    }

    fn slot_index(&self, idx: u64) -> Option<usize> {
        (idx < u64::from(self.0.capacity)).then_some(idx as usize)
    }

    /// Reads a slot's primary value: the count of a counter, the current
    /// token balance of a bucket (without refilling).
    pub(crate) fn load(&self, idx: u64) -> Option<u64> {
        let i = self.slot_index(idx)?;
        Some(self.0.slots.borrow()[i].a)
    }

    /// Bumps a counter slot (saturating); returns the new count. `None`
    /// for token-bucket maps or an out-of-bounds index.
    pub(crate) fn bump(&self, idx: u64) -> Option<u64> {
        if !matches!(self.0.kind, MapKind::Counter) {
            return None;
        }
        let i = self.slot_index(idx)?;
        let mut slots = self.0.slots.borrow_mut();
        let slot = &mut slots[i];
        slot.a = slot.a.saturating_add(1);
        Some(slot.a)
    }

    /// Refills a token-bucket slot up to `now_ns` and takes one token;
    /// returns whether a token was available. `None` for counter maps or
    /// an out-of-bounds index.
    ///
    /// Refill is credited in whole milliseconds and the refill timestamp
    /// advances by exactly the credited time, so fractional progress is
    /// never lost and the long-run rate is exact.
    pub(crate) fn take(&self, idx: u64, now_ns: u64) -> Option<bool> {
        let MapKind::TokenBucket {
            tokens: cap,
            refill_per_ms,
        } = self.0.kind
        else {
            return None;
        };
        let i = self.slot_index(idx)?;
        let mut slots = self.0.slots.borrow_mut();
        let slot = &mut slots[i];
        let elapsed_ms = now_ns.saturating_sub(slot.b) / 1_000_000;
        if elapsed_ms > 0 {
            let refill = elapsed_ms.saturating_mul(u64::from(refill_per_ms));
            slot.a = slot.a.saturating_add(refill).min(u64::from(cap));
            slot.b = slot.b.saturating_add(elapsed_ms.saturating_mul(1_000_000));
        }
        if slot.a > 0 {
            slot.a -= 1;
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Snapshot of every slot's primary value, in index order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.0.slots.borrow().iter().map(|s| s.a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StateMap {
        /// Resets every slot to its initial value (zero / full).
        fn reset(&self) {
            let init = match self.0.kind {
                MapKind::Counter => Slot::default(),
                MapKind::TokenBucket { tokens, .. } => Slot {
                    a: u64::from(tokens),
                    b: 0,
                },
            };
            self.0.slots.borrow_mut().fill(init);
        }
    }

    #[test]
    fn counters_bump_and_share_state() {
        let m = StateMap::new("flows", MapKind::Counter, 4);
        assert_eq!(m.state_bytes(), 32);
        assert_eq!(m.bump(2), Some(1));
        assert_eq!(m.bump(2), Some(2));
        assert_eq!(m.bump(4), None, "index at capacity is out of bounds");
        assert_eq!(m.take(0, 0), None, "take on a counter map is refused");
        // Clones share the backing slots, PortSet-style.
        let alias = m.clone();
        assert_eq!(alias.load(2), Some(2));
        alias.reset();
        assert_eq!(m.load(2), Some(0));
    }

    #[test]
    fn token_bucket_rate_limits_and_refills() {
        let m = StateMap::new(
            "rl",
            MapKind::TokenBucket {
                tokens: 2,
                refill_per_ms: 1,
            },
            1,
        );
        assert_eq!(m.state_bytes(), 16);
        // Starts full: two takes succeed, the third is refused.
        assert_eq!(m.take(0, 0), Some(true));
        assert_eq!(m.take(0, 0), Some(true));
        assert_eq!(m.take(0, 0), Some(false));
        // One millisecond refills one token; balance caps at `tokens`.
        assert_eq!(m.take(0, 1_000_000), Some(true));
        assert_eq!(m.take(0, 1_000_000), Some(false));
        assert_eq!(m.take(0, 10_000_000), Some(true));
        assert_eq!(m.load(0), Some(1), "refill capped at capacity");
        assert_eq!(m.bump(0), None, "bump on a bucket map is refused");
    }

    #[test]
    fn sub_millisecond_refill_progress_is_not_lost() {
        let m = StateMap::new(
            "rl",
            MapKind::TokenBucket {
                tokens: 1,
                refill_per_ms: 1,
            },
            1,
        );
        assert_eq!(m.take(0, 0), Some(true));
        // 0.6 ms then 0.6 ms: neither step alone credits a token by
        // truncation from the *last refill*, but the timestamp only
        // advances by whole credited milliseconds, so the second call sees
        // 1.2 ms of elapsed credit.
        assert_eq!(m.take(0, 600_000), Some(false));
        assert_eq!(m.take(0, 1_200_000), Some(true));
    }
}
