//! The `EPHEMERAL` discipline (§3.3).
//!
//! In SPIN, a procedure labeled `EPHEMERAL` may be asynchronously terminated
//! without damaging important state, and the Modula-3 compiler enforces that
//! ephemeral procedures call only other ephemeral procedures. Protocol
//! managers query a handler's ephemerality before letting it run at
//! interrupt level, and may attach a time limit after which the dispatcher
//! terminates it.
//!
//! Rust has no `EPHEMERAL` keyword, so we mirror the *structure* of the
//! guarantee with a certification type: an [`Ephemeral<F>`] wraps a value
//! that has been asserted interrupt-safe. The only way to obtain one is
//! [`Ephemeral::certify`] — the programmer's explicit assertion, playing
//! the role of writing `EPHEMERAL` on the declaration. Like the compiler
//! rule, composition builds ephemeral code only out of ephemeral pieces:
//! [`HandlerSpec::adapt`](crate::dispatcher::HandlerSpec::adapt) carries
//! a handler to another event through an adapter that must itself be
//! certified.
//!
//! Managers require `Ephemeral<…>` in their interrupt-level install APIs,
//! so a plain closure simply does not typecheck there — the moral
//! equivalent of Figure 3's `IllegalHandler` failing to compile.

/// A value certified safe to run (and to be terminated) in an interrupt
/// context: it returns quickly, never blocks, and tolerates premature
/// termination without violating data-structure invariants.
#[derive(Clone, Copy, Debug)]
pub struct Ephemeral<F>(F);

impl<F> Ephemeral<F> {
    /// Certifies `f` as ephemeral.
    ///
    /// This is the programmer's assertion, standing in for SPIN's
    /// compiler-checked `EPHEMERAL` label: `f` must not block, must return
    /// quickly, and must keep shared state consistent even if terminated at
    /// any point.
    pub fn certify(f: F) -> Ephemeral<F> {
        Ephemeral(f)
    }

    /// Unwraps the certified value. The ephemerality evidence is lost, so
    /// the result can no longer be installed at interrupt level.
    pub fn into_inner(self) -> F {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn certify_and_call() {
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let eph = Ephemeral::certify(move |n: &i32| h.set(h.get() + n));
        (eph.into_inner())(&5);
        assert_eq!(hits.get(), 5);
    }

    #[test]
    fn into_inner_discards_certification() {
        let eph = Ephemeral::certify(|x: &i32| *x);
        let plain = eph.into_inner();
        assert_eq!(plain(&7), 7);
    }
}
