//! Order property for the engine: whatever a program schedules, cancels,
//! reschedules and transmits — from outside the run or from inside an
//! event's own — the engine runs it exactly as a `Vec` kept stably sorted by
//! timestamp would: by `(at, insertion)`, with the same `executed()`,
//! `pending()` and `now()` at every `run_until` cut-off. A rescheduled timer
//! is, to the model, taken out and inserted anew: it sorts where a cancel
//! followed by a fresh schedule would have put it.
//!
//! Every closure captures a token that counts itself while it lives, and at
//! every cut-off the live tokens must be exactly the model's pending plain
//! and timer events: a closure's captures drop when it runs or is
//! cancelled, and only then, however often the engine has refilled the box
//! it sits in. Plain events and timers are closures of two types, so two
//! lists of spare boxes are in play.
//!
//! The programs mix the three kinds of slot (plain closures, cancelable
//! timers, the NIC's typed device events: a frame's arrival, a receive-ring
//! drain), make equal timestamps common, and cancel and reschedule often —
//! through handles that are live, spent or already cancelled, and whose slot
//! has usually been handed to another event since. The engine sweeps its heap whenever
//! dead keys outnumber live ones, so these programs sweep it many times
//! over; neither that nor slot reuse may show in the order. (That slots
//! *are* reused — the slab is as long as the most events ever in flight —
//! needs the slab's length, and is checked beside it in `engine.rs`.)

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use plexus_sim::engine::{Engine, TimerHandle};
use plexus_sim::nic::{DriverConfig, Medium, Nic, NicProfile};
use plexus_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use proptest::rng::TestRng;

/// One step of a program. An event's body is a list of steps, taken in
/// order when the event runs.
#[derive(Clone, Debug)]
enum Step {
    /// Schedule a plain event `delay_us` ahead.
    Plain { delay_us: u64, body: Vec<Step> },
    /// Arm a cancelable timer `delay_us` ahead; its handle is kept.
    Timer { delay_us: u64, body: Vec<Step> },
    /// Cancel the `n`-th handle kept so far (modulo how many there are),
    /// whatever has become of its timer.
    Cancel(usize),
    /// Move the timer of the `n`-th handle kept so far to `delay_us` ahead;
    /// if it is still pending, its new handle replaces the old.
    Reschedule { n: usize, delay_us: u64 },
    /// Transmit a `len`-byte frame from NIC A: an arrival event at B, and
    /// drain events when B's driver is busy.
    Send { len: usize },
}

/// How NIC B's driver is bound.
#[derive(Clone, Copy, Debug)]
enum Rx {
    PerFrame,
    /// Each interrupt keeps the driver busy this long, so later arrivals
    /// queue on the ring and drain in batches of at most [`RX_BATCH`].
    Coalesced {
        busy_us: u64,
    },
}

#[derive(Clone, Debug)]
struct Program {
    rx: Rx,
    /// Run at time zero, before the engine starts.
    setup: Vec<Step>,
    /// Run inside every receive interrupt at B (never sends, or the
    /// program would not end).
    on_rx: Vec<Step>,
    /// `run_until` deadlines, ascending; then `run()`.
    cutoffs_us: Vec<u64>,
}

const RX_BATCH: usize = 3;
const PROPAGATION: SimDuration = SimDuration::from_micros(2);

fn profile() -> NicProfile {
    NicProfile {
        rx_batch: RX_BATCH,
        // Never the reason a frame is lost: the model has no drops.
        tx_ring_frames: 1 << 20,
        rx_ring_frames: 1 << 20,
        ..NicProfile::dec_t3()
    }
}

impl Program {
    fn generate(seed: u64) -> Program {
        let rng = &mut TestRng::from_seed(seed);
        let pick = |rng: &mut TestRng, from: &[u64]| from[rng.below(from.len() as u64) as usize];
        // Few distinct delays, so that events pile up on the same instants.
        const DELAYS: [u64; 8] = [0, 0, 1, 5, 5, 20, 50, 200];
        fn steps(rng: &mut TestRng, depth: u32, budget: &mut u32, sends: bool) -> Vec<Step> {
            let mut out = Vec::new();
            for _ in 0..rng.below(6) {
                if *budget == 0 {
                    break;
                }
                *budget -= 1;
                let delay_us = DELAYS[rng.below(DELAYS.len() as u64) as usize];
                let mut body = |rng: &mut TestRng| match depth {
                    0 => Vec::new(),
                    _ => steps(rng, depth - 1, budget, sends),
                };
                out.push(match rng.below(if sends { 8 } else { 6 }) {
                    0 | 1 => Step::Plain {
                        delay_us,
                        body: body(rng),
                    },
                    2 | 3 => Step::Timer {
                        delay_us,
                        body: body(rng),
                    },
                    4 => Step::Cancel(rng.below(16) as usize),
                    5 => Step::Reschedule {
                        n: rng.below(16) as usize,
                        delay_us,
                    },
                    _ => Step::Send {
                        len: 64 + rng.below(65) as usize,
                    },
                });
            }
            out
        }
        let rx = match rng.below(3) {
            0 => Rx::PerFrame,
            _ => Rx::Coalesced {
                busy_us: pick(rng, &[0, 10, 60, 300]),
            },
        };
        let mut setup = Vec::new();
        let mut budget = 60;
        while setup.len() < 4 && budget > 0 {
            setup.append(&mut steps(rng, 3, &mut budget, true));
        }
        let on_rx = steps(rng, 1, &mut 4, false);
        let mut at = 0;
        let cutoffs_us = (0..rng.below(4))
            .map(|_| {
                at += pick(rng, &[0, 5, 20, 40, 100]);
                at
            })
            .collect();
        Program {
            rx,
            setup,
            on_rx,
            cutoffs_us,
        }
    }
}

/// What a run leaves behind, from either side.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    /// `(now, what ran)`, in run order.
    log: Vec<(u64, Ran)>,
    /// `(now, executed, pending, closures)` after each cut-off, and after
    /// the last run; `closures` counts the plain and timer events pending.
    checkpoints: Vec<(u64, u64, usize, usize)>,
}

#[derive(Debug, PartialEq)]
enum Ran {
    /// The plain or timer event scheduled `n`-th.
    Event(u32),
    /// One receive interrupt at B, with the frames (numbered as sent) it
    /// handed up.
    Interrupt(Vec<u32>),
}

// ---------------------------------------------------------------- real ----

/// Counts itself in its cell while it lives.
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

struct Real {
    program: Program,
    a: Rc<Nic>,
    log: RefCell<Vec<(u64, Ran)>>,
    handles: RefCell<Vec<TimerHandle>>,
    events: Cell<u32>,
    frames: Cell<u32>,
    /// Tokens captured by closures that have neither run nor been cancelled.
    live: Rc<Cell<usize>>,
}

impl Real {
    fn exec(self: &Rc<Self>, engine: &mut Engine, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Plain { delay_us, body } => {
                    let run = self.event::<false>(body);
                    engine.schedule_in(SimDuration::from_micros(*delay_us), run);
                }
                Step::Timer { delay_us, body } => {
                    let run = self.event::<true>(body);
                    let handle =
                        engine.schedule_cancelable(SimDuration::from_micros(*delay_us), run);
                    self.handles.borrow_mut().push(handle);
                }
                Step::Cancel(n) => {
                    let handle = {
                        let handles = self.handles.borrow();
                        handles.get(n % handles.len().max(1)).copied()
                    };
                    if let Some(handle) = handle {
                        engine.cancel(handle);
                    }
                }
                Step::Reschedule { n, delay_us } => {
                    let mut handles = self.handles.borrow_mut();
                    let i = n % handles.len().max(1);
                    let delay = SimDuration::from_micros(*delay_us);
                    if let Some(moved) = handles.get(i).and_then(|&h| engine.reschedule(h, delay)) {
                        handles[i] = moved;
                    }
                }
                Step::Send { len } => {
                    let mut frame = vec![0u8; *len];
                    frame[..4].copy_from_slice(&self.frames.get().to_be_bytes());
                    self.frames.set(self.frames.get() + 1);
                    let now = engine.now();
                    self.a.transmit(engine, now, &frame[..]);
                }
            }
        }
    }

    /// Numbers the next event and returns its closure: one closure type
    /// for timers, another for plain events.
    fn event<const TIMER: bool>(
        self: &Rc<Self>,
        body: &[Step],
    ) -> impl FnOnce(&mut Engine) + 'static {
        let n = self.events.get();
        self.events.set(n + 1);
        let (me, body, token) = (self.clone(), body.to_vec(), Token::new(&self.live));
        move |engine| {
            let _token = token;
            me.log
                .borrow_mut()
                .push((engine.now().as_nanos(), Ran::Event(n)));
            me.exec(engine, &body);
        }
    }

    fn interrupt<'a>(self: &Rc<Self>, engine: &mut Engine, frames: impl Iterator<Item = &'a [u8]>) {
        let ids = frames
            .map(|f| u32::from_be_bytes(f[..4].try_into().expect("four bytes")))
            .collect();
        self.log
            .borrow_mut()
            .push((engine.now().as_nanos(), Ran::Interrupt(ids)));
        self.exec(engine, &self.program.on_rx);
    }
}

fn run_real(program: &Program) -> Trace {
    let medium = Medium::new(PROPAGATION, false);
    let a = Nic::new(profile(), &medium);
    let b = Nic::new(profile(), &medium);
    let real = Rc::new(Real {
        program: program.clone(),
        a,
        log: RefCell::default(),
        handles: RefCell::default(),
        events: Cell::new(0),
        frames: Cell::new(0),
        live: Rc::default(),
    });
    let r = real.clone();
    b.attach(match program.rx {
        Rx::PerFrame => DriverConfig::per_frame(move |engine, frame| {
            r.interrupt(engine, std::iter::once(frame));
        }),
        Rx::Coalesced { busy_us } => DriverConfig::coalesced(move |engine, frames| {
            r.interrupt(engine, frames.iter().map(|f| &f.bytes[..]));
            engine.now() + SimDuration::from_micros(busy_us)
        }),
    });
    let mut engine = Engine::new();
    real.exec(&mut engine, &program.setup);
    let mut checkpoints = Vec::new();
    let mut checkpoint = |engine: &Engine| {
        let closures = real.live.get();
        checkpoints.push((
            engine.now().as_nanos(),
            engine.executed(),
            engine.pending(),
            closures,
        ));
    };
    for &us in &program.cutoffs_us {
        engine.run_until(SimTime::from_micros(us));
        checkpoint(&engine);
    }
    engine.run();
    checkpoint(&engine);
    // The handler holds the `Real` that holds the NICs: unbind it.
    b.attach(DriverConfig::tx_only());
    let log = real.log.take();
    Trace { log, checkpoints }
}

// --------------------------------------------------------------- model ----

enum Pending {
    Event { n: u32, body: Vec<Step> },
    Arrival(u32),
    Drain,
}

/// The reference: a `Vec` of `(at, what)` that every insertion pushes onto
/// and stably re-sorts by `at`, so equal instants keep insertion order; the
/// head is what runs next. Beside it, the two pieces of the NIC model that
/// decide *when* device events happen: the transmit backlog and the
/// coalescing state machine.
struct Model {
    program: Program,
    now: u64,
    executed: u64,
    inserted: u64,
    /// `(at, insertion number, what)`.
    queue: Vec<(u64, u64, Pending)>,
    /// The insertion number each kept handle stood for.
    handles: Vec<u64>,
    events: u32,
    frames: u32,
    tx_free_at: u64,
    rx_busy_until: u64,
    rx_drain_pending: bool,
    rx_ring: VecDeque<u32>,
    trace: Trace,
    /// Coverage: cancels that removed a pending timer, and that found none;
    /// reschedules that moved one, and that found none.
    cancels_taken: usize,
    cancels_spent: usize,
    moves_taken: usize,
    moves_spent: usize,
}

impl Model {
    fn insert(&mut self, at: u64, what: Pending) -> u64 {
        let n = self.inserted;
        self.inserted += 1;
        self.queue.push((at, n, what));
        self.queue.sort_by_key(|&(at, ..)| at);
        n
    }

    fn exec(&mut self, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Plain { delay_us, body } | Step::Timer { delay_us, body } => {
                    let event = Pending::Event {
                        n: self.events,
                        body: body.clone(),
                    };
                    self.events += 1;
                    let inserted = self.insert(self.now + delay_us * 1_000, event);
                    if matches!(step, Step::Timer { .. }) {
                        self.handles.push(inserted);
                    }
                }
                Step::Cancel(n) => {
                    if let Some(&gone) = self.handles.get(n % self.handles.len().max(1)) {
                        let before = self.queue.len();
                        self.queue.retain(|&(_, inserted, _)| inserted != gone);
                        match before - self.queue.len() {
                            0 => self.cancels_spent += 1,
                            _ => self.cancels_taken += 1,
                        }
                    }
                }
                Step::Reschedule { n, delay_us } => {
                    let i = n % self.handles.len().max(1);
                    let Some(&moving) = self.handles.get(i) else {
                        continue;
                    };
                    match self.queue.iter().position(|&(_, ins, _)| ins == moving) {
                        Some(at) => {
                            let (_, _, what) = self.queue.remove(at);
                            self.handles[i] = self.insert(self.now + delay_us * 1_000, what);
                            self.moves_taken += 1;
                        }
                        None => self.moves_spent += 1,
                    }
                }
                Step::Send { len } => {
                    let start = self.tx_free_at.max(self.now);
                    self.tx_free_at = start + profile().serialize(*len).as_nanos();
                    let arrival = self.tx_free_at + PROPAGATION.as_nanos();
                    self.insert(arrival, Pending::Arrival(self.frames));
                    self.frames += 1;
                }
            }
        }
    }

    fn interrupt(&mut self, frames: Vec<u32>) {
        self.trace.log.push((self.now, Ran::Interrupt(frames)));
        let on_rx = self.program.on_rx.clone();
        self.exec(&on_rx);
        if let Rx::Coalesced { busy_us } = self.program.rx {
            self.rx_busy_until = self.now + busy_us * 1_000;
            if !self.rx_ring.is_empty() && !self.rx_drain_pending {
                self.rx_drain_pending = true;
                self.insert(self.rx_busy_until, Pending::Drain);
            }
        }
    }

    fn run_until(&mut self, deadline: Option<u64>) {
        while self
            .queue
            .first()
            .is_some_and(|&(at, ..)| deadline.is_none_or(|d| at <= d))
        {
            let (at, _, what) = self.queue.remove(0);
            self.now = at;
            self.executed += 1;
            match what {
                Pending::Event { n, body } => {
                    self.trace.log.push((at, Ran::Event(n)));
                    self.exec(&body);
                }
                Pending::Arrival(frame) => {
                    let busy = self.now < self.rx_busy_until
                        || self.rx_drain_pending
                        || !self.rx_ring.is_empty();
                    if matches!(self.program.rx, Rx::PerFrame) || !busy {
                        self.interrupt(vec![frame]);
                    } else {
                        self.rx_ring.push_back(frame);
                        if !self.rx_drain_pending {
                            self.rx_drain_pending = true;
                            self.insert(self.rx_busy_until.max(self.now), Pending::Drain);
                        }
                    }
                }
                Pending::Drain => {
                    self.rx_drain_pending = false;
                    let n = self.rx_ring.len().min(RX_BATCH);
                    let batch: Vec<u32> = self.rx_ring.drain(..n).collect();
                    if !batch.is_empty() {
                        self.interrupt(batch);
                    }
                }
            }
        }
        if let Some(deadline) = deadline {
            self.now = self.now.max(deadline);
        }
        let closures = self
            .queue
            .iter()
            .filter(|(_, _, what)| matches!(what, Pending::Event { .. }))
            .count();
        self.trace
            .checkpoints
            .push((self.now, self.executed, self.queue.len(), closures));
    }
}

fn run_model(program: &Program) -> Model {
    let mut model = Model {
        program: program.clone(),
        now: 0,
        executed: 0,
        inserted: 0,
        queue: Vec::new(),
        handles: Vec::new(),
        events: 0,
        frames: 0,
        tx_free_at: 0,
        rx_busy_until: 0,
        rx_drain_pending: false,
        rx_ring: VecDeque::new(),
        trace: Trace::default(),
        cancels_taken: 0,
        cancels_spent: 0,
        moves_taken: 0,
        moves_spent: 0,
    };
    model.exec(&program.setup);
    for &us in &program.cutoffs_us {
        model.run_until(Some(us * 1_000));
    }
    model.run_until(None);
    model
}

proptest! {
    #[test]
    fn the_engine_runs_what_a_stably_sorted_vec_would(
        program in any::<u64>().prop_map(Program::generate),
    ) {
        let (real, model) = (run_real(&program), run_model(&program).trace);
        prop_assert_eq!(&real.checkpoints, &model.checkpoints);
        prop_assert_eq!(real, model);
    }
}

/// The generator reaches what the property is about: across a few hundred
/// programs there are same-instant pile-ups, cancels that take a timer back
/// and cancels through spent handles, the same for reschedules, batched
/// drains, and cut-offs that leave work pending.
#[test]
fn the_programs_cover_ties_cancels_drains_and_cutoffs() {
    let (mut ties, mut taken, mut spent, mut drains, mut cut) = (0, 0, 0, 0, 0);
    let (mut moved, mut stayed) = (0, 0);
    for seed in 0..300 {
        let model = run_model(&Program::generate(seed));
        let Trace { log, checkpoints } = &model.trace;
        ties += log.windows(2).filter(|w| w[0].0 == w[1].0).count();
        drains += log
            .iter()
            .filter(|(_, ran)| matches!(ran, Ran::Interrupt(frames) if frames.len() > 1))
            .count();
        cut += checkpoints[..checkpoints.len() - 1]
            .iter()
            .filter(|&&(_, _, pending, _)| pending > 0)
            .count();
        taken += model.cancels_taken;
        spent += model.cancels_spent;
        moved += model.moves_taken;
        stayed += model.moves_spent;
    }
    assert!(ties > 1_000, "{ties} same-instant neighbours");
    assert!(taken > 300, "{taken} cancels took a timer back");
    assert!(spent > 300, "{spent} cancels found it fired or cancelled");
    assert!(moved > 250, "{moved} reschedules moved a pending timer");
    assert!(
        stayed > 300,
        "{stayed} reschedules found it fired or cancelled"
    );
    assert!(drains > 100, "{drains} batched drains");
    assert!(cut > 100, "{cut} cut-offs left work pending");
}
