//! A list that keeps its first few items in place.
//!
//! Verification scratch (a [`crate::Policy`]'s constraints, a one-of
//! test's values) and a demux key's values are a handful of words for
//! every guard a manager builds. [`Inline`] holds up to `N` of them
//! without a heap call and moves them all to one `Vec` only when an item
//! past `N` arrives, so a spec file's thousands of values still fit.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` items in place, any number past that on the heap. Reads as
/// a slice.
#[derive(Clone)]
pub struct Inline<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Here { len: u8, items: [T; N] },
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Inline<T, N> {
    /// An empty list with room for `n` items: in place when `n` fits,
    /// else one heap call of exactly `n`.
    pub(crate) fn with_capacity(n: usize) -> Inline<T, N> {
        const { assert!(N <= u8::MAX as usize, "an inline length is a u8") };
        if n <= N {
            Inline(Repr::Here {
                len: 0,
                items: [T::default(); N],
            })
        } else {
            Inline(Repr::Spilled(Vec::with_capacity(n)))
        }
    }

    /// Makes room for `more` items past the current length, spilling now
    /// if they will not fit in place.
    fn reserve(&mut self, more: usize) {
        match &mut self.0 {
            Repr::Here { len, items } => {
                let len = usize::from(*len);
                if len + more > N {
                    let mut spilled = Vec::with_capacity(len + more);
                    spilled.extend_from_slice(&items[..len]);
                    self.0 = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(spilled) => spilled.reserve(more),
        }
    }

    /// Appends `item`.
    pub(crate) fn push(&mut self, item: T) {
        if let Repr::Here { len, items } = &mut self.0 {
            if let Some(slot) = items.get_mut(usize::from(*len)) {
                *slot = item;
                *len += 1;
                return;
            }
        }
        self.reserve(1);
        let Repr::Spilled(spilled) = &mut self.0 else {
            unreachable!("a full list spills");
        };
        spilled.push(item);
    }
}

impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Inline<T, N> {
        Inline::with_capacity(0)
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Here { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl<T, const N: usize> DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Here { len, items } => &mut items[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for Inline<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        iter.for_each(|item| self.push(item));
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Inline<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Inline<T, N> {
        let iter = iter.into_iter();
        let mut list = Inline::with_capacity(iter.size_hint().0);
        list.extend(iter);
        list
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(f: impl FnOnce() -> Inline<u64, 4>) -> (Inline<u64, 4>, bool) {
        let list = f();
        let spilled = matches!(list.0, Repr::Spilled(_));
        (list, spilled)
    }

    #[test]
    fn it_stays_in_place_up_to_its_room_and_spills_past_it() {
        for n in 0..=9u64 {
            let (collected, spilled) = built(|| (0..n).collect());
            assert_eq!(*collected, (0..n).collect::<Vec<_>>()[..], "{n} collected");
            assert_eq!(spilled, n > 4, "{n} collected");
            let (pushed, spilled) = built(|| {
                let mut list = Inline::default();
                (0..n).for_each(|v| list.push(v));
                list
            });
            assert_eq!(*pushed, *collected, "{n} pushed");
            assert_eq!(spilled, n > 4, "{n} pushed");
        }
    }

    #[test]
    fn a_spill_keeps_the_order_and_reads_like_a_vec() {
        let mut list: Inline<u64, 4> = [5, 1, 4].into_iter().collect();
        list.extend([9, 2]);
        list.push(7);
        assert_eq!(*list, [5, 1, 4, 9, 2, 7]);
        list[..].sort_unstable();
        assert_eq!(format!("{list:?}"), format!("{:?}", vec![1, 2, 4, 5, 7, 9]));
    }
}
