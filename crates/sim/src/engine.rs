//! The discrete-event execution engine.
//!
//! An [`Engine`] owns the queue of everything that is going to happen.
//! Running it repeatedly takes the earliest event, advances the clock to
//! its timestamp, and runs it. Shared simulation state (machines, devices,
//! protocol stacks) lives outside the engine behind `Rc<RefCell<_>>`
//! handles that the events capture.
//!
//! # Slots and keys
//!
//! The queue is two structures. A *slab* of slots holds the events
//! themselves; a binary heap orders small `Copy` keys `(at, seq, slot)`
//! that point into it. A slot holds one of four things:
//!
//! * a boxed `FnOnce(&mut Engine)` closure — what [`Engine::schedule_at`],
//!   [`Engine::schedule_in`] and [`Engine::schedule_cancelable`] take, so
//!   an event can do anything, scheduling further events included;
//! * the same closure marked as a protocol timer (it records a
//!   `TimerFire` when it runs);
//! * one of the NIC model's two recurring device events — a frame's
//!   arrival at a peer, a receive-ring drain — as a typed variant that
//!   carries its operands. These are scheduled once or twice per frame,
//!   and as variants they need no box: the wire image rides in the slot.
//!
//! Vacated slots go on a free list and are handed out again before the
//! slab grows, so the slab is as long as the most events that were ever
//! in flight at once.
//!
//! # Closure boxes are reused by type
//!
//! A closure's captures have a size only its type knows, and the crate
//! forbids `unsafe`, so a slot cannot hold one inline: a closure lives in
//! a box of its own. What the engine saves is the box, not the closure. A
//! box holds an `Option<F>`; running the closure takes `F` out and files
//! the emptied box *before* calling it, and cancelling drops `F` (and what
//! it captured) and files the box the same way. Boxes are filed by the
//! closure's type, and the next closure of that type scheduled moves into
//! one instead of a fresh allocation. A closure that schedules its own
//! successor — a traffic generator, a process's wake-up, a protocol timer
//! re-armed from its own firing — therefore keeps refilling one box. The
//! spare boxes of a type never outnumber the most closures of that type
//! that were pending at once, the bound the slab itself has, so a
//! steady-state world schedules without touching the heap allocator.
//!
//! # Generations, cancellation and the sweep
//!
//! `seq` counts every event ever scheduled, so it also serves as a slot's
//! *generation*: a slot remembers the `seq` of the event in it, and a key
//! or a [`TimerHandle`] — `(slot, seq)`, two integers — refers to that
//! event only while the two agree. [`Engine::cancel`] empties the slot on
//! the spot: the closure and whatever it captured are dropped when the
//! timer is cancelled, not when its deadline comes round. The key is left
//! behind in the heap (a binary heap cannot delete from the middle); it
//! no longer matches its slot, and is discarded when it surfaces — or
//! earlier, because whenever such stale keys outnumber the live ones the
//! heap is rebuilt without them. [`Engine::reschedule`] moves a pending
//! timer instead: its closure stays in the slot, the slot takes the `seq`
//! that cancelling and scheduling anew would have drawn, and a key under
//! that `seq` goes into the heap — so the timer runs exactly where the pair
//! would have run it, and only the old key is left behind, stale. A
//! connection that re-arms a 200 ms retransmit timer on every segment
//! therefore keeps one event, one closure and a handful of keys, not one of
//! each per segment until the deadline, and boxes no closure to re-arm.
//!
//! # Determinism
//!
//! Events run in `(at, seq)` order: by timestamp, and within an instant
//! in the order they were scheduled. `seq` is unique, so that order is
//! total, and it is a property of the keys alone — which slot an event
//! sits in, which slots were reused, and when the heap was last swept
//! cannot change it. A given workload always replays the exact same
//! timeline.

use std::any::{Any, TypeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use plexus_trace::Recorder;

use crate::nic::{Frame, Nic};
use crate::time::{SimDuration, SimTime};

/// A scheduled closure in its reusable box: implemented by `Option<F>`,
/// which is `Some` from scheduling until the closure runs or is cancelled.
pub(crate) trait Pending {
    /// Takes the closure out, files the emptied box, then runs the closure.
    fn run(self: Box<Self>, engine: &mut Engine);
    /// Drops the closure and what it captured, then files the emptied box.
    fn cancel(self: Box<Self>, spares: &mut Spares);
}

impl<F: FnOnce(&mut Engine) + 'static> Pending for Option<F> {
    fn run(mut self: Box<Self>, engine: &mut Engine) {
        let action = self.take().expect("a pending box holds its closure");
        engine.spares.file(self);
        action(engine)
    }

    fn cancel(mut self: Box<Self>, spares: &mut Spares) {
        *self = None;
        spares.file(self);
    }
}

/// Empty closure boxes, one list per closure type, searched linearly: a
/// world schedules closures of a handful of types.
#[derive(Default)]
pub(crate) struct Spares(Vec<(TypeId, Vec<Box<dyn Any>>)>);

impl Spares {
    fn list<T: Any>(&mut self) -> &mut Vec<Box<dyn Any>> {
        let id = TypeId::of::<T>();
        let at = match self.0.iter().position(|(of, _)| *of == id) {
            Some(at) => at,
            None => {
                self.0.push((id, Vec::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    fn file<T: Any>(&mut self, emptied: Box<T>) {
        self.list::<T>().push(emptied);
    }

    /// Boxes `action`, in a spare box of its type if there is one.
    fn boxed<F: FnOnce(&mut Engine) + 'static>(&mut self, action: F) -> Box<dyn Pending> {
        match self.list::<Option<F>>().pop() {
            Some(spare) => {
                let mut spare = spare
                    .downcast::<Option<F>>()
                    .expect("a spare box is filed by its type");
                *spare = Some(action);
                spare
            }
            None => Box::new(Some(action)),
        }
    }
}

/// Names one scheduled action (e.g. a retransmit timer) so that
/// [`Engine::cancel`] can take it back before it fires, or
/// [`Engine::reschedule`] move it.
///
/// Dropping the handle does *not* cancel the action. A handle whose action
/// has run or been cancelled is inert: cancelling through it does nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// What a slot holds.
pub(crate) enum Event {
    /// Simulation plumbing: a plain scheduled closure.
    Closure(Box<dyn Pending>),
    /// A timer in the protocol sense (retransmits, delays): a cancelable
    /// closure, recorded as a `TimerFire` when it runs.
    Timer(Box<dyn Pending>),
    /// A frame reaches `to` after serialization and propagation.
    FrameArrival {
        to: Rc<Nic>,
        frame: Frame,
        journey: Option<u64>,
    },
    /// A coalescing NIC's driver is free again: drain its receive ring.
    RxDrain(Rc<Nic>),
}

struct Slot {
    /// The `seq` of the event last put here: the slot's generation.
    seq: u64,
    /// `None` once that event has run or been cancelled.
    event: Option<Event>,
}

impl Slot {
    /// Whether the event scheduled as `seq` is still here.
    fn holds(&self, seq: u64) -> bool {
        self.seq == seq && self.event.is_some()
    }

    /// Takes that event out, if it is.
    fn take(&mut self, seq: u64) -> Option<Event> {
        if self.seq == seq {
            self.event.take()
        } else {
            None
        }
    }
}

/// Heap entry: ordered by `(at, seq)`; `slot` never decides, `seq` is unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Discrete-event executor with a deterministic timeline.
///
/// # Examples
///
/// ```
/// use plexus_sim::engine::Engine;
/// use plexus_sim::time::SimDuration;
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_micros(5), |eng| {
///     assert_eq!(eng.now().as_micros(), 5);
/// });
/// engine.run();
/// assert_eq!(engine.now().as_micros(), 5);
/// ```
#[derive(Default)]
pub struct Engine {
    now: SimTime,
    seq: u64,
    slots: Vec<Slot>,
    /// Vacant slots, reused before `slots` grows.
    free: Vec<u32>,
    /// `BinaryHeap` is a max-heap; `Reverse` surfaces the earliest (and,
    /// within an instant, the first-scheduled) key first.
    keys: BinaryHeap<Reverse<Key>>,
    /// Keys in `keys` whose event was cancelled.
    stale: usize,
    /// Emptied closure boxes, for the next closure of their type.
    spares: Spares,
    stopped: bool,
    executed: u64,
    recorder: Option<Rc<Recorder>>,
}

impl Engine {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine::default()
    }

    /// Installs (or removes) a flight recorder. Cancelable timers record a
    /// `TimerFire` event when they run.
    pub fn set_recorder(&mut self, recorder: Option<Rc<Recorder>>) {
        self.recorder = recorder;
    }

    /// The installed flight recorder, if any. Lets code holding only an
    /// engine (driver rx closures, timer callbacks) emit trace events.
    pub fn recorder(&self) -> Option<&Rc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of actions executed so far (cancelled actions do not count).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of actions still pending. A cancelled action stops counting
    /// the moment it is cancelled.
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Puts `event` in a slot and its key in the heap.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn schedule_event(&mut self, at: SimTime, event: Event) -> TimerHandle {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let filled = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("2^32 events in flight");
                if self.slots.len() == self.slots.capacity() {
                    // Slots are the fat half of the queue (a key is 24
                    // bytes, a slot 56): a slab that doubled would be half
                    // air at its peak, so it grows by a quarter.
                    self.slots.reserve_exact(self.slots.len() / 4 + 4);
                }
                self.slots.push(filled);
                slot
            }
        };
        self.keys.push(Reverse(Key { at, seq, slot }));
        TimerHandle { slot, seq }
    }

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let action = self.spares.boxed(action);
        self.schedule_event(at, Event::Closure(action));
    }

    /// Schedules `action` to run `delay` from now.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedules `action` at `delay` from now and returns a handle that can
    /// [`cancel`](Engine::cancel) it before it fires.
    pub fn schedule_cancelable<F>(&mut self, delay: SimDuration, action: F) -> TimerHandle
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let action = self.spares.boxed(action);
        self.schedule_event(self.now + delay, Event::Timer(action))
    }

    /// Cancels the action `handle` names, dropping its closure (and what it
    /// captured) now. Idempotent; does nothing if the action already ran.
    pub fn cancel(&mut self, handle: TimerHandle) {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return;
        };
        let Some(event) = slot.take(handle.seq) else {
            return;
        };
        if let Event::Closure(action) | Event::Timer(action) = event {
            action.cancel(&mut self.spares);
        }
        self.free.push(handle.slot);
        self.orphan_key();
    }

    /// Moves the action `handle` names to `delay` from now, as
    /// [`cancel`](Engine::cancel) and then
    /// [`schedule_cancelable`](Engine::schedule_cancelable) would but
    /// without a new closure: the pending one stays in its slot and takes
    /// the next `seq`, so it runs where the pair would have put it, and its
    /// old key goes stale. Returns its new handle, or `None` — moving
    /// nothing — if the action already ran or was cancelled.
    pub fn reschedule(&mut self, handle: TimerHandle, delay: SimDuration) -> Option<TimerHandle> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if !slot.holds(handle.seq) {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        slot.seq = seq;
        self.orphan_key();
        let key = Key {
            at: self.now + delay,
            seq,
            slot: handle.slot,
        };
        self.keys.push(Reverse(key));
        Some(TimerHandle {
            slot: handle.slot,
            seq,
        })
    }

    /// Counts a key whose event has left it, and sweeps the heap once such
    /// keys outnumber the live ones.
    fn orphan_key(&mut self) {
        self.stale += 1;
        if self.stale > self.keys.len() - self.stale {
            let slots = &self.slots;
            self.keys
                .retain(|Reverse(key)| slots[key.slot as usize].holds(key.seq));
            self.stale = 0;
        }
    }

    /// Requests that the current `run*` call return after the in-flight
    /// action completes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Runs until the queue drains (or [`Engine::stop`] is called).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Runs actions with timestamps `<= deadline`, then sets the clock to
    /// `deadline` (if the queue drained early and `deadline` is finite).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.stopped = false;
        while !self.stopped {
            let key = match self.keys.peek() {
                Some(&Reverse(key)) if key.at <= deadline => key,
                _ => break,
            };
            self.keys.pop();
            let Some(event) = self.slots[key.slot as usize].take(key.seq) else {
                // Cancelled; the slot was freed (and perhaps reused) then.
                self.stale -= 1;
                continue;
            };
            // Freed before the event runs, so what it schedules can land here.
            self.free.push(key.slot);
            debug_assert!(key.at >= self.now, "event queue out of order");
            self.now = key.at;
            self.executed += 1;
            match event {
                Event::Closure(action) => action.run(self),
                Event::Timer(action) => {
                    if let Some(rec) = &self.recorder {
                        rec.timer_fire(self.now.as_nanos());
                    }
                    action.run(self)
                }
                Event::FrameArrival { to, frame, journey } => to.deliver(self, frame, journey),
                Event::RxDrain(nic) => nic.drain_rx_ring(self),
            }
        }
        if deadline != SimTime::MAX && self.now < deadline && !self.stopped {
            self.now = deadline;
        }
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now + span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[test]
    fn actions_run_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new();
        for &us in &[30u64, 10, 20] {
            let log = log.clone();
            engine.schedule_in(SimDuration::from_micros(us), move |eng| {
                log.borrow_mut().push(eng.now().as_micros());
            });
        }
        engine.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(engine.executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new();
        for label in 0..5 {
            let log = log.clone();
            engine.schedule_in(SimDuration::from_micros(7), move |_| {
                log.borrow_mut().push(label);
            });
        }
        engine.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn actions_can_schedule_actions() {
        let hits = Rc::new(Cell::new(0u32));
        let mut engine = Engine::new();
        let h = hits.clone();
        engine.schedule_in(SimDuration::from_micros(1), move |eng| {
            h.set(h.get() + 1);
            let h2 = h.clone();
            eng.schedule_in(SimDuration::from_micros(1), move |_| {
                h2.set(h2.get() + 1);
            });
        });
        engine.run();
        assert_eq!(hits.get(), 2);
        assert_eq!(engine.now().as_micros(), 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let fired = Rc::new(Cell::new(false));
        let mut engine = Engine::new();
        let f = fired.clone();
        let handle = engine.schedule_cancelable(SimDuration::from_micros(5), move |_| {
            f.set(true);
        });
        engine.cancel(handle);
        engine.cancel(handle);
        assert_eq!(engine.pending(), 0);
        engine.run();
        assert!(!fired.get());
        assert_eq!(engine.executed(), 0);
        assert_eq!(engine.now(), SimTime::ZERO, "a dead timer moves no clock");
    }

    #[test]
    fn a_handle_whose_timer_fired_cancels_nothing() {
        let mut engine = Engine::new();
        let spent = engine.schedule_cancelable(SimDuration::from_micros(1), |_| {});
        engine.run();
        // The next event reuses the slot; the spent handle must not reach it.
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        engine.schedule_in(SimDuration::from_micros(1), move |_| f.set(true));
        engine.cancel(spent);
        assert_eq!(engine.pending(), 1);
        engine.run();
        assert!(fired.get());
    }

    #[test]
    fn a_cancelled_timer_releases_what_it_captured() {
        let mut engine = Engine::new();
        let conn = Rc::new(());
        let weak = Rc::downgrade(&conn);
        let handle = engine.schedule_cancelable(SimDuration::from_secs(64), move |_| {
            let _keep = &conn;
        });
        assert!(weak.upgrade().is_some());
        engine.cancel(handle);
        assert!(weak.upgrade().is_none(), "dropped at cancel, not at 64 s");
    }

    #[test]
    fn stale_keys_do_not_accumulate() {
        // A connection re-arming its retransmit timer on every segment,
        // beside one event that stays live.
        let mut engine = Engine::new();
        engine.schedule_in(SimDuration::from_secs(2), |_| {});
        let mut timer = None;
        for _ in 0..10_000 {
            if let Some(old) = timer.take() {
                engine.cancel(old);
            }
            timer = Some(engine.schedule_cancelable(SimDuration::from_secs(1), |_| {}));
            assert_eq!(engine.pending(), 2);
            assert!(engine.keys.len() <= 5, "{} keys", engine.keys.len());
            assert_eq!(engine.slots.len(), 2);
        }
        engine.run();
        assert_eq!(engine.executed(), 2);
        assert_eq!(
            (engine.pending(), engine.keys.len(), engine.stale),
            (0, 0, 0)
        );
    }

    #[test]
    fn a_rescheduled_timer_keeps_its_closure_and_slot() {
        // The same connection, moving its one timer instead.
        let mut engine = Engine::new();
        engine.schedule_in(SimDuration::from_secs(2), |_| {});
        let fired = Rc::new(Cell::new(0u32));
        let f = fired.clone();
        let mut timer = engine.schedule_cancelable(SimDuration::from_secs(1), move |eng| {
            f.set(f.get() + 1);
            assert_eq!(eng.now(), SimTime::from_micros(1_000_000 + 9_999));
        });
        for us in 1..10_000 {
            engine.run_until(SimTime::from_micros(us));
            timer = engine
                .reschedule(timer, SimDuration::from_secs(1))
                .expect("still pending");
            assert_eq!((engine.pending(), engine.slots.len()), (2, 2));
            assert!(engine.keys.len() <= 5, "{} keys", engine.keys.len());
        }
        engine.run();
        assert_eq!((fired.get(), engine.executed()), (1, 2));
        assert_eq!(engine.reschedule(timer, SimDuration::ZERO), None, "spent");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_key_is_24_bytes_and_a_slot_56() {
        // What the slab's growth policy quotes.
        assert_eq!(std::mem::size_of::<Reverse<Key>>(), 24);
        assert_eq!(std::mem::size_of::<Slot>(), 56);
    }

    #[test]
    fn slots_are_reused_not_grown() {
        // Whatever mix of scheduling, cancelling and running: the slab is
        // exactly as long as the most events ever in flight at once.
        let mut engine = Engine::new();
        let mut timers = Vec::new();
        let mut highwater = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = SimDuration::from_micros(x >> 8 & 0xFF);
            match x & 7 {
                0..=2 => engine.schedule_in(delay, |_| {}),
                3..=4 => timers.push(engine.schedule_cancelable(delay, |_| {})),
                5 if !timers.is_empty() => {
                    let i = (x >> 16) as usize % timers.len();
                    engine.cancel(timers.swap_remove(i));
                }
                _ => engine.run_for(SimDuration::from_micros(x >> 16 & 0x7F)),
            }
            highwater = highwater.max(engine.pending());
            assert_eq!(engine.slots.len(), highwater);
            assert!(
                engine.keys.len() <= 2 * highwater,
                "the sweep bounds the dead"
            );
        }
    }

    /// Counts itself in its cell while it lives: a closure that captures
    /// one holds it until the closure has run or been cancelled.
    struct Token(Rc<Cell<usize>>);

    impl Token {
        fn new(live: &Rc<Cell<usize>>) -> Token {
            live.set(live.get() + 1);
            Token(live.clone())
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            self.0.set(self.0.get() - 1);
        }
    }

    /// Every third one to run schedules its successor from inside.
    fn plain(token: Token) -> impl FnOnce(&mut Engine) + 'static {
        move |engine| {
            if engine.executed() % 3 == 0 {
                let next = plain(Token::new(&token.0));
                engine.schedule_in(SimDuration::from_micros(3), next);
            }
            drop(token);
        }
    }

    fn timer(token: Token) -> impl FnOnce(&mut Engine) + 'static {
        move |_| drop(token)
    }

    /// The spare boxes of the closures `make` returns.
    fn spares<F: 'static>(engine: &Engine, _make: fn(Token) -> F) -> usize {
        let id = TypeId::of::<Option<F>>();
        let list = engine.spares.0.iter().find(|(of, _)| *of == id);
        list.map_or(0, |(_, boxes)| boxes.len())
    }

    #[test]
    fn spare_boxes_never_outnumber_the_most_pending_of_their_type() {
        // Two closure types in a random mix of scheduling, cancelling and
        // running, one of them rescheduling itself: every box of a type is
        // pending or spare, so a type has exactly as many boxes as it once
        // had closures pending at once — a box is allocated only when no
        // spare of its type is left.
        let mut engine = Engine::new();
        let (plains, timers) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let (mut plain_high, mut timer_high) = (0, 0);
        let mut handles = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = SimDuration::from_micros(x >> 8 & 0xFF);
            match x & 7 {
                0..=2 => engine.schedule_in(delay, plain(Token::new(&plains))),
                3..=4 => {
                    handles.push(engine.schedule_cancelable(delay, timer(Token::new(&timers))))
                }
                5 if !handles.is_empty() => {
                    let i = (x >> 16) as usize % handles.len();
                    engine.cancel(handles.swap_remove(i));
                }
                _ => engine.run_for(SimDuration::from_micros(x >> 16 & 0x7F)),
            }
            assert_eq!(
                plains.get() + timers.get(),
                engine.pending(),
                "a capture drops when its closure runs or is cancelled"
            );
            plain_high = plain_high.max(plains.get());
            timer_high = timer_high.max(timers.get());
            assert_eq!(spares(&engine, plain) + plains.get(), plain_high);
            assert_eq!(spares(&engine, timer) + timers.get(), timer_high);
        }
        assert!(engine.executed() > 1_000 && plain_high > 10 && timer_high > 10);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut engine = Engine::new();
        engine.schedule_in(SimDuration::from_micros(3), |_| {});
        engine.run_until(SimTime::from_micros(10));
        assert_eq!(engine.now().as_micros(), 10);
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let fired = Rc::new(Cell::new(false));
        let mut engine = Engine::new();
        let f = fired.clone();
        engine.schedule_in(SimDuration::from_micros(50), move |_| f.set(true));
        engine.run_for(SimDuration::from_micros(10));
        assert!(!fired.get());
        assert_eq!(engine.pending(), 1);
        engine.run();
        assert!(fired.get());
    }

    #[test]
    fn stop_halts_the_run() {
        let count = Rc::new(Cell::new(0u32));
        let mut engine = Engine::new();
        for _ in 0..10 {
            let c = count.clone();
            engine.schedule_in(SimDuration::from_micros(1), move |eng| {
                c.set(c.get() + 1);
                if c.get() == 3 {
                    eng.stop();
                }
            });
        }
        engine.run();
        assert_eq!(count.get(), 3);
        assert_eq!(engine.pending(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_in(SimDuration::from_micros(5), |eng| {
            eng.schedule_at(SimTime::ZERO, |_| {});
        });
        engine.run();
    }
}
