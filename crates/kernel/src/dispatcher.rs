//! The SPIN dynamic event dispatcher (§2).
//!
//! Kernel services and extensions *raise* events; extensions *install*
//! handlers on them. A handler may carry a **guard** — a statically
//! verified filter program the dispatcher evaluates before the handler is
//! invoked — and Plexus uses guards as packet filters that demultiplex
//! packets through the protocol graph. More than one handler may be installed on an event; the
//! overhead of invoking each is roughly one procedure call, which the
//! dispatcher charges to the caller's [`CpuLease`].
//!
//! Handlers are installed in one of two modes, matching Figure 5's bars:
//!
//! * [`HandlerMode::Interrupt`] — the handler runs directly in the raising
//!   context (for receive events, the network interrupt). Only certified
//!   [`Ephemeral`] handlers may be installed this way, and the installer may
//!   attach a time limit; an over-budget handler is *terminated* (its CPU
//!   charge is capped and the termination reported).
//! * [`HandlerMode::Thread`] — each raise spawns a fresh kernel thread for
//!   the handler, paying thread-creation and context-switch costs.
//!
//! Possession of an [`Event`] handle is the authority to raise and to
//! install on it — the capability discipline protocol managers rely on to
//! keep untrusted extensions from touching protocol events directly (§3.1).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::rc::Rc;

use plexus_filter::{key_schema, FieldKey, FieldSpec, KeySpec, Packet, VerifiedProgram};
use plexus_sim::engine::Engine;
use plexus_sim::time::SimDuration;
use plexus_sim::CpuLease;
use plexus_trace::{GuardKind, Name, Scope};

use crate::ephemeral::Ephemeral;

/// A guard attached to a handler: a statically verified filter program
/// bound to its event argument type.
///
/// Holds the [`VerifiedProgram`] plus monomorphized evaluators; the
/// `T: Packet` obligation is discharged at construction, so the
/// dispatcher's raise path needs no bound on `T`.
pub struct Guard<T> {
    program: Rc<VerifiedProgram>,
    /// The reference interpreter: verdict and the abstract cycles the
    /// evaluation spent — never more than
    /// [`VerifiedProgram::static_bound`]. The `u64` is simulated time,
    /// which drives token-bucket refill in stateful guards.
    eval: fn(&VerifiedProgram, &T, u64) -> (bool, u32),
    /// The compiled-tier evaluator: same verdicts, state mutations, and
    /// metered cycles as `eval`, via the fused closure chain the verifier
    /// built at install time.
    eval_compiled: fn(&VerifiedProgram, &T, u64) -> (bool, u32),
    /// Monomorphized schema-field reader for the demux probe; mirrors
    /// `eval`'s load semantics.
    read: fn(&T, FieldKey) -> Option<u64>,
}

impl<T> Guard<T> {
    /// Binds a verified program to the event argument type `T`.
    pub fn verified(program: Rc<VerifiedProgram>) -> Guard<T>
    where
        T: Packet + 'static,
    {
        Guard {
            program,
            eval: |p, arg, now| plexus_filter::eval_metered(p, arg, now),
            eval_compiled: |p, arg, now| p.compiled().eval(arg, now),
            read: |arg, k| plexus_filter::read_field_key(arg, k),
        }
    }
}

/// An event handler body.
pub type HandlerFn<T> = Box<dyn Fn(&mut RaiseCtx<'_>, &T)>;

/// Everything [`Dispatcher::install`] needs to install one handler, built
/// fluently:
///
/// ```ignore
/// dispatcher.install(event, HandlerSpec::new(f).guard(g).owner("udp"));
/// dispatcher.install(
///     event,
///     HandlerSpec::ephemeral(Ephemeral::certify(f))
///         .guard(g)
///         .owner("udp")
///         .interrupt(),
/// );
/// ```
///
/// This replaces the four `install_thread{,_owned}` /
/// `install_interrupt{,_owned}` entry points. Defaults: thread mode,
/// no guard, owner `"kernel"`. Interrupt delivery requires construction
/// via [`HandlerSpec::ephemeral`] — the certification discipline the old
/// `install_interrupt` signature enforced with its `Ephemeral<F>`
/// parameter.
pub struct HandlerSpec<T> {
    guard: Option<Guard<T>>,
    handler: HandlerFn<T>,
    ephemeral: bool,
    interrupt: bool,
    time_limit: Option<SimDuration>,
    owner: Name,
}

impl<T> HandlerSpec<T> {
    /// A thread-mode handler spec with no guard, owned by `"kernel"`.
    pub fn new(handler: impl Fn(&mut RaiseCtx<'_>, &T) + 'static) -> HandlerSpec<T> {
        HandlerSpec {
            guard: None,
            handler: Box::new(handler),
            ephemeral: false,
            interrupt: false,
            time_limit: None,
            owner: Name::new("kernel"),
        }
    }

    /// A spec around a certified [`Ephemeral`] handler — the only
    /// construction path that [`HandlerSpec::interrupt`] accepts.
    pub fn ephemeral<F>(handler: Ephemeral<F>) -> HandlerSpec<T>
    where
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        let f = handler.into_inner();
        HandlerSpec {
            guard: None,
            handler: Box::new(f),
            ephemeral: true,
            interrupt: false,
            time_limit: None,
            owner: Name::new("kernel"),
        }
    }

    /// Attaches a guard.
    pub fn guard(mut self, guard: Guard<T>) -> HandlerSpec<T> {
        self.guard = Some(guard);
        self
    }

    /// Sets the owning domain for flight-recorder attribution: a literal,
    /// or a name the caller shares (an extension's), taken without a copy.
    pub fn owner(mut self, owner: impl Into<Name>) -> HandlerSpec<T> {
        self.owner = owner.into();
        self
    }

    /// Requests interrupt-mode delivery (run in the raiser's context).
    pub fn interrupt(mut self) -> HandlerSpec<T> {
        self.interrupt = true;
        self
    }

    /// Sets the interrupt-mode termination allotment; implies
    /// [`HandlerSpec::interrupt`]. Accepts a bare [`SimDuration`] or an
    /// `Option` (for call sites with a configured-but-maybe-absent limit).
    pub fn time_limit(self, limit: impl Into<Option<SimDuration>>) -> HandlerSpec<T> {
        self.allot(limit.into()).interrupt()
    }

    /// Sets the termination allotment without asking for interrupt
    /// delivery: it binds a spec that is delivered at interrupt level and
    /// means nothing to a thread-mode one. For an installer that applies
    /// its configured limit to handlers whose class their maker chose.
    pub fn allot(mut self, limit: Option<SimDuration>) -> HandlerSpec<T> {
        self.time_limit = limit;
        self
    }

    /// Carries the handler to another event type with everything but its
    /// guard (a guard reads the argument, so the result has none): the
    /// new handler runs `via`, which is handed the event's argument and
    /// this spec's handler to call. Delivery class, certification,
    /// allotment and owner travel unchanged, and `via` must itself be
    /// certified — ephemeral code is built only out of ephemeral pieces
    /// (§3.3).
    pub fn adapt<U, G>(self, via: Ephemeral<G>) -> HandlerSpec<U>
    where
        T: 'static,
        G: Fn(&mut RaiseCtx<'_>, &U, &dyn Fn(&mut RaiseCtx<'_>, &T)) + 'static,
    {
        let (via, inner) = (via.into_inner(), self.handler);
        HandlerSpec {
            guard: None,
            handler: Box::new(move |ctx, arg| via(ctx, arg, &*inner)),
            ephemeral: self.ephemeral,
            interrupt: self.interrupt,
            time_limit: self.time_limit,
            owner: self.owner,
        }
    }
}

/// Context passed to handlers: the engine (to schedule follow-up work) and
/// the open CPU lease (to charge processing costs).
pub struct RaiseCtx<'a> {
    /// The discrete-event engine.
    pub engine: &'a mut Engine,
    /// The CPU lease of the activity that raised the event.
    pub lease: &'a mut CpuLease,
}

/// How a handler is delivered when its event is raised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerMode {
    /// Run directly in the raiser's (interrupt) context; optionally
    /// terminated if it exceeds the time limit.
    Interrupt {
        /// Allotment after which the dispatcher terminates the handler.
        time_limit: Option<SimDuration>,
    },
    /// Spawn a new kernel thread per raise (Figure 5's "thread" bars).
    Thread,
}

/// Identifies an installed handler, for later uninstall.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HandlerId(u64);

/// Default per-event cycle budget for interrupt-mode installs, in the
/// abstract guard cycles of [`plexus_filter::Insn::cost`]. A verified
/// guard whose static worst-case bound exceeds the budget is rejected at
/// install time — admission control, not runtime policing.
pub const DEFAULT_INTERRUPT_CYCLE_BUDGET: u32 = 64;

/// Why [`Dispatcher::try_install`] refused a handler.
///
/// [`Dispatcher::install`] panics with the same messages; callers that
/// want to surface the diagnostic (protocol managers admitting extension
/// filters) use `try_install` and keep the error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// An interrupt-mode spec whose handler was not certified via
    /// [`HandlerSpec::ephemeral`].
    UncertifiedInterrupt,
    /// An interrupt-mode spec whose guard's static worst-case
    /// cycle bound exceeds the dispatcher's per-event interrupt budget.
    GuardOverBudget {
        /// The guard program's static worst-case bound, in cycles.
        bound: u32,
        /// The dispatcher's per-event interrupt cycle budget.
        budget: u32,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::UncertifiedInterrupt => {
                write!(
                    f,
                    "interrupt-mode installs require a certified ephemeral handler"
                )
            }
            InstallError::GuardOverBudget { bound, budget } => write!(
                f,
                "interrupt-mode install rejected: guard worst-case bound is {bound} cycles \
                 but the per-event interrupt budget is {budget}; simplify the filter or \
                 install in thread mode"
            ),
        }
    }
}

/// A typed, copyable capability to one event.
///
/// Holding an `Event<T>` is the authority to raise it and install handlers
/// on it. Protocol managers keep their events private and install handlers
/// on behalf of applications.
pub struct Event<T> {
    dispatcher: u64,
    index: usize,
    _arg: PhantomData<fn(&T)>,
}

impl<T> Clone for Event<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Event<T> {}

/// Counters the dispatcher keeps about its own operation.
///
/// All counters are `u64` and increment saturating — a flooded dispatcher
/// pins at `u64::MAX` rather than wrapping. When a
/// [`plexus_trace::Recorder`] is installed on the raising CPU, the
/// recorder's [`plexus_trace::Registry`] holds the superset (per-event,
/// per-guard-kind, per-domain splits); this struct remains the cheap
/// aggregate view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Events raised.
    pub raises: u64,
    /// Handlers invoked.
    pub invocations: u64,
    /// Guards evaluated.
    pub guard_evals: u64,
    /// Guards that rejected the argument.
    pub guard_rejects: u64,
    /// Of `guard_evals`, how many ran a verified filter program: all of
    /// them, now that every guard is one.
    pub verified_guard_evals: u64,
    /// Of `verified_guard_evals`, how many ran on the compiled tier
    /// (fused closure chain) rather than the reference interpreter.
    pub compiled_guard_evals: u64,
    /// Of `guard_rejects`, how many came from a verified filter program
    /// (all of them).
    pub verified_guard_rejects: u64,
    /// Ephemeral handlers terminated for exceeding their allotment.
    pub terminations: u64,
    /// Demux-index hash probes charged (`CostModel::demux_probe`). Once
    /// lumped into the guard-eval charge; split out so profiles can tell
    /// a keyed lookup from a real guard evaluation. In a batch only the
    /// first raise pays (and counts) the probe.
    pub demux_probes: u64,
    /// Raises served through the demux index (one hash probe instead of a
    /// guard evaluation per indexed handler).
    pub demux_hits: u64,
    /// Raises of guarded events that had no indexed handlers and fell back
    /// to the pure linear scan.
    pub demux_fallbacks: u64,
    /// Guard evaluations avoided because the index proved the guard would
    /// reject (counted into `RaiseOutcome::rejected`, but never into
    /// `guard_evals`).
    pub demux_skipped: u64,
}

impl DispatchStats {
    /// Adds one raise's tally to the running totals (saturating).
    fn absorb(&mut self, d: &DispatchStats) {
        for (total, delta) in [
            (&mut self.raises, d.raises),
            (&mut self.invocations, d.invocations),
            (&mut self.guard_evals, d.guard_evals),
            (&mut self.guard_rejects, d.guard_rejects),
            (&mut self.verified_guard_evals, d.verified_guard_evals),
            (&mut self.compiled_guard_evals, d.compiled_guard_evals),
            (&mut self.verified_guard_rejects, d.verified_guard_rejects),
            (&mut self.terminations, d.terminations),
            (&mut self.demux_probes, d.demux_probes),
            (&mut self.demux_hits, d.demux_hits),
            (&mut self.demux_fallbacks, d.demux_fallbacks),
            (&mut self.demux_skipped, d.demux_skipped),
        ] {
            *total = total.saturating_add(delta);
        }
    }

    /// The part of one raise's tally the recorder keeps per event, by
    /// `Scope::Event` metric name. (Guard evaluations, invocations and
    /// terminations reach the registry through their own trace records.)
    /// `demux.avoided` is reported by every indexed raise, zero included.
    fn event_counters(&self) -> [(&'static str, Option<u64>); 5] {
        let nonzero = |v: u64| (v > 0).then_some(v);
        [
            ("raises", nonzero(self.raises)),
            ("demux.probes", nonzero(self.demux_probes)),
            ("demux.hits", nonzero(self.demux_hits)),
            (
                "demux.avoided",
                nonzero(self.demux_hits).map(|_| self.demux_skipped),
            ),
            ("demux.fallbacks", nonzero(self.demux_fallbacks)),
        ]
    }
}

impl fmt::Display for DispatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raises={} invocations={} guard_evals={} (verified {}, compiled {}) \
             guard_rejects={} (verified {}) terminations={} \
             demux_probes={} demux_hits={} demux_fallbacks={} \
             demux_skipped={}",
            self.raises,
            self.invocations,
            self.guard_evals,
            self.verified_guard_evals,
            self.compiled_guard_evals,
            self.guard_rejects,
            self.verified_guard_rejects,
            self.terminations,
            self.demux_probes,
            self.demux_hits,
            self.demux_fallbacks,
            self.demux_skipped
        )
    }
}

/// Result of a single raise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaiseOutcome {
    /// Handlers whose guards matched and which were invoked.
    pub invoked: u32,
    /// Handlers skipped because their guard rejected the argument.
    pub rejected: u32,
    /// Invoked handlers that were terminated over-budget.
    pub terminated: u32,
}

struct Entry<T> {
    id: HandlerId,
    guard: Option<Guard<T>>,
    handler: HandlerFn<T>,
    mode: HandlerMode,
    /// Owning domain (extension or kernel subsystem) for per-domain
    /// accounting in the flight recorder.
    owner: Name,
    /// Whether this entry occupies hash buckets in the table's index (so
    /// the raise path may skip it when the index does not select it).
    indexed: bool,
    /// Whether its key has a `NotIn` field, which an indexed raise checks
    /// live before running the guard.
    excludes: bool,
    removed: Cell<bool>,
}

impl<T> Entry<T> {
    /// The guard's demux key, when this entry occupies buckets under it.
    fn key(&self) -> Option<&KeySpec> {
        let guard = self.guard.as_ref().filter(|_| self.indexed)?;
        guard.program.demux_key()
    }
}

/// Schema fields a bucket key has room for: the width of the widest
/// [`key_schema`] (`TcpRecv`'s; `bucket_keys_fit_every_schema` pins it).
/// A guard over a wider schema would stay unindexed.
const KEY_WIDTH: usize = 3;

/// Field masks a bucket key can have: every subset of `KEY_WIDTH` fields,
/// the empty one included (an entry without bound fields is unindexed).
const MASKS: usize = 1 << KEY_WIDTH;

/// Most buckets one raise probes and merges: one per non-zero mask.
const MAX_BUCKETS: usize = MASKS - 1;

/// The buckets most raises merge: a binding's or a connection's, and a
/// listener's beside it.
const FEW_BUCKETS: usize = 2;

/// Hash key of one demux bucket: which schema fields are bound (`mask`,
/// bit `i` = schema field `i`) and their values (`vals[i]`, 0 where
/// unbound). Fixed width, so a probe builds it on the stack.
#[derive(Clone, Copy, PartialEq, Eq)]
struct BucketKey {
    mask: u8,
    vals: [u64; KEY_WIDTH],
}

impl Hash for BucketKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.mask);
        for v in self.vals {
            state.write_u64(v);
        }
    }
}

/// Multiply-rotate hasher for [`BucketKey`]s (the `FxHasher` recipe).
/// Unseeded, so table growth — and with it every allocation count — is
/// the same in every process. The keys are field values of guards the
/// verifier admitted, at most [`plexus_filter::MAX_ENUMERATED_KEYS`] per
/// handler; packet contents only ever look keys up.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An id-sorted (= install-ordered) list of entries. A raise walking the
/// list holds it by its `Rc`; the table then changes it by replacing it
/// ([`unpinned`]), so the raise walks on over the list as it was.
type EntryList<T> = Rc<Vec<Rc<Entry<T>>>>;

/// Position of the entry `id` in an id-sorted list.
fn find_id<T>(list: &[Rc<Entry<T>>], id: HandlerId) -> Option<usize> {
    list.binary_search_by_key(&id.0, |e| e.id.0).ok()
}

/// The list behind `list`, to change: in place, or — while a raise holds
/// it — a copy with room for one more entry, which takes its place in the
/// table. Either way one list, whatever else the table holds.
fn unpinned<T>(list: &mut EntryList<T>) -> &mut Vec<Rc<Entry<T>>> {
    if Rc::get_mut(list).is_none() {
        let mut copy = Vec::with_capacity(list.len() + 1);
        copy.extend(list.iter().cloned());
        *list = Rc::new(copy);
    }
    Rc::get_mut(list).expect("a fresh copy has no other holder")
}

/// Removes the entry `id` from an id-sorted list, if present.
fn remove_id<T>(list: &mut EntryList<T>, id: HandlerId) {
    if let Some(at) = find_id(list, id) {
        unpinned(list).remove(at);
    }
}

/// The entries under one demux key, in install order. Most keys (a
/// binding's port, a connection's 4-tuple) hold one entry, and hold it
/// inline.
enum Bucket<T> {
    One(Rc<Entry<T>>),
    Many(EntryList<T>),
}

impl<T> Bucket<T> {
    fn entries(&self) -> &[Rc<Entry<T>>] {
        match self {
            Bucket::One(entry) => std::slice::from_ref(entry),
            Bucket::Many(list) => list,
        }
    }

    /// Appends `entry`, which was installed after every entry here.
    fn push(&mut self, entry: Rc<Entry<T>>) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(Rc::new(vec![first.clone(), entry])),
            Bucket::Many(list) => unpinned(list).push(entry),
        }
    }

    /// Removes the entry `id`; `false` when that leaves the bucket empty.
    fn remove(&mut self, id: HandlerId) -> bool {
        match self {
            Bucket::One(entry) => entry.id != id,
            Bucket::Many(list) => {
                remove_id(list, id);
                if let [last] = list.as_slice() {
                    *self = Bucket::One(last.clone());
                }
                true
            }
        }
    }
}

// Not derived: that would ask for `T: Clone`.
impl<T> Clone for Bucket<T> {
    fn clone(&self) -> Bucket<T> {
        match self {
            Bucket::One(entry) => Bucket::One(entry.clone()),
            Bucket::Many(list) => Bucket::Many(list.clone()),
        }
    }
}

/// An event table: the live entries and the demultiplexing index over
/// those whose guards have a statically bounded acceptance
/// ([`VerifiedProgram::demux_key`]).
///
/// A raise pins only the lists it walks — the buckets it probed and
/// `unindexed`, or `entries` on the linear path — by their `Rc`s, and
/// walks them undisturbed. Install and uninstall change the table in
/// place; a list a raise has pinned is replaced, not changed, and no
/// other list is copied.
///
/// Soundness: a bucket only ever *narrows* the candidate set. An indexed
/// entry appears under every key its guard may accept (the enumerated
/// cross product of its `In` sets), so an entry absent from the probed
/// buckets has a guard that provably rejects the packet; candidates still
/// run their full guard. Entries whose guards are not indexable carry no
/// key and are always evaluated.
struct Gen<T> {
    /// Every live entry, in install order.
    entries: EntryList<T>,
    /// The entries that occupy no bucket; an indexed raise visits them all.
    unindexed: EntryList<T>,
    /// Monomorphized schema-field reader, taken from the first indexed
    /// guard (all guards of one event kind share `read_field_key`).
    read: Option<fn(&T, FieldKey) -> Option<u64>>,
    /// The event kind's key schema, fixed by the first indexed guard.
    schema: Option<&'static [FieldKey]>,
    /// Live entries per field mask; mask 0, no field bound, counts the
    /// unindexed ones.
    mask_counts: [u32; MASKS],
    /// Bit `m` set while `mask_counts[m]` is not zero: beyond bit 0, the
    /// masks a probe must try, in ascending order.
    live_masks: u8,
    /// `(mask, values) -> entries`, in install order per bucket. An entry
    /// sits under exactly one mask, and one probe reads at most one
    /// bucket per mask, so no raise meets an entry twice. A bucket that
    /// empties leaves the map.
    buckets: HashMap<BucketKey, Bucket<T>, BuildHasherDefault<KeyHasher>>,
}

impl<T> Gen<T> {
    /// Counts one more (`true`) or one fewer live entry under `mask`.
    fn count(&mut self, mask: u8, more: bool) {
        let count = &mut self.mask_counts[usize::from(mask)];
        *count = if more { *count + 1 } else { *count - 1 };
        self.live_masks = match *count {
            0 => self.live_masks & !(1 << mask),
            _ => self.live_masks | 1 << mask,
        };
    }

    /// The masks of live indexed entries, as bits.
    fn probes(&self) -> u8 {
        self.live_masks & !1
    }
}

impl<T> Default for Gen<T> {
    fn default() -> Gen<T> {
        Gen {
            entries: Rc::default(),
            unindexed: Rc::default(),
            read: None,
            schema: None,
            mask_counts: [0; MASKS],
            live_masks: 0,
            buckets: HashMap::default(),
        }
    }
}

/// The fields a key spec binds: bit `i` for each `In` field `i`.
fn key_mask(spec: &KeySpec) -> u8 {
    (spec.fields().enumerate())
        .filter(|(_, field)| matches!(field, FieldSpec::In(_)))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// Hands `each` the bucket keys a key spec occupies, one by one: under its
/// [`key_mask`], every combination of its `In` sets' values, the last field
/// turning fastest. The combinations are walked like an odometer, one
/// position per field, so no list of them is built; the verifier caps how
/// many there are at [`plexus_filter::MAX_ENUMERATED_KEYS`]. The spec must
/// fit a [`BucketKey`] ([`KEY_WIDTH`] fields).
fn for_each_key(spec: &KeySpec, mut each: impl FnMut(BucketKey)) {
    // Per field: its `In` values (none for other fields), and the
    // position the odometer reads.
    let mut dials: [(&[u64], usize); KEY_WIDTH] = [(&[], 0); KEY_WIDTH];
    for (dial, field) in dials.iter_mut().zip(spec.fields()) {
        if let FieldSpec::In(vals) = field {
            // A field no value satisfies: no combination at all.
            if vals.is_empty() {
                return;
            }
            dial.0 = vals;
        }
    }
    let mut key = BucketKey {
        mask: key_mask(spec),
        vals: [0; KEY_WIDTH],
    };
    'keys: loop {
        for (v, (vals, at)) in key.vals.iter_mut().zip(&dials) {
            *v = vals.get(*at).copied().unwrap_or(0);
        }
        each(key);
        for (vals, at) in dials.iter_mut().rev() {
            if *at + 1 < vals.len() {
                *at += 1;
                continue 'keys;
            }
            *at = 0;
        }
        return;
    }
}

/// Walks up to `L` id-sorted entry lists as one, by ascending
/// [`HandlerId`].
struct MergeWalk<'g, T, const L: usize> {
    lists: [&'g [Rc<Entry<T>>]; L],
    len: usize,
}

impl<'g, T, const L: usize> MergeWalk<'g, T, L> {
    fn new(
        list: Option<&'g EntryList<T>>,
        buckets: &'g [Option<Bucket<T>>],
    ) -> MergeWalk<'g, T, L> {
        let mut walk = MergeWalk {
            lists: [&[]; L],
            len: 0,
        };
        if let Some(list) = list {
            walk.lists[0] = list;
            walk.len = 1;
        }
        for bucket in buckets.iter().flatten() {
            walk.lists[walk.len] = bucket.entries();
            walk.len += 1;
        }
        walk
    }
}

impl<'g, T, const L: usize> Iterator for MergeWalk<'g, T, L> {
    type Item = &'g Entry<T>;

    fn next(&mut self) -> Option<&'g Entry<T>> {
        let lists = &mut self.lists[..self.len];
        let next = lists
            .iter_mut()
            .filter(|l| !l.is_empty())
            .min_by_key(|l| l[0].id.0)?;
        let (entry, rest) = next.split_first()?;
        *next = rest;
        Some(entry)
    }
}

struct Table<T> {
    name: Name,
    gen: RefCell<Gen<T>>,
}

/// Type-erased view of a [`Table`] for graph introspection.
trait TableInfo {
    fn event_name(&self) -> &str;
    /// `(live handlers, of which guarded)`.
    fn live_counts(&self) -> (usize, usize);
}

impl<T> TableInfo for Table<T> {
    fn event_name(&self) -> &str {
        self.name.as_str()
    }

    fn live_counts(&self) -> (usize, usize) {
        let gen = self.gen.borrow();
        let guarded = gen.entries.iter().filter(|e| e.guard.is_some()).count();
        (gen.entries.len(), guarded)
    }
}

/// One row of [`Dispatcher::event_summary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventSummary {
    /// The event's name.
    pub name: String,
    /// Live handlers installed.
    pub handlers: usize,
    /// Of those, how many carry guards (packet filters).
    pub guarded: usize,
}

/// The dynamic event dispatcher. One per simulated kernel.
/// Both facets of a stored table: the typed side (downcast on access) and
/// the type-erased introspection side.
type TableSlot = (Rc<dyn Any>, Rc<dyn TableInfo>);

/// The dynamic event dispatcher. One per simulated kernel.
pub struct Dispatcher {
    id: u64,
    tables: RefCell<Vec<TableSlot>>,
    names: RefCell<HashMap<String, usize>>,
    next_handler: Cell<u64>,
    stats: Cell<DispatchStats>,
    demux_enabled: Cell<bool>,
    compiled_guards: Cell<bool>,
    /// The histogram of guard evals the index saved per raise.
    demux_avoided: Name,
}

thread_local! {
    static NEXT_DISPATCHER: Cell<u64> = const { Cell::new(1) };
}

impl Dispatcher {
    /// Creates an empty dispatcher.
    pub fn new() -> Rc<Dispatcher> {
        let id = NEXT_DISPATCHER.with(|n| {
            let v = n.get();
            n.set(v + 1);
            v
        });
        Rc::new(Dispatcher {
            id,
            tables: RefCell::new(Vec::new()),
            names: RefCell::new(HashMap::new()),
            next_handler: Cell::new(1),
            stats: Cell::new(DispatchStats::default()),
            demux_enabled: Cell::new(true),
            compiled_guards: Cell::new(true),
            demux_avoided: Name::new("demux.avoided"),
        })
    }

    /// Operation counters.
    pub fn stats(&self) -> DispatchStats {
        self.stats.get()
    }

    /// Enables or disables the hash-demultiplexing fast path (on by
    /// default). With it off every raise walks the linear scan — handler
    /// selection is identical either way; only the charged probe/guard
    /// costs and the demux counters differ. Benchmarks use this to compare
    /// the two regimes.
    pub fn set_demux_enabled(&self, enabled: bool) {
        self.demux_enabled.set(enabled);
    }

    /// Whether the demux fast path is enabled.
    pub fn demux_enabled(&self) -> bool {
        self.demux_enabled.get()
    }

    /// Selects the verified-guard evaluation tier (compiled by default).
    /// With it off every verified guard runs the reference interpreter —
    /// verdicts, state mutations, metered cycles, and therefore traces are
    /// identical either way; only `compiled_guard_evals` and the per-tier
    /// trace counters move. Differential tests and benchmarks use this to
    /// A/B the tiers.
    pub fn set_compiled_guards(&self, enabled: bool) {
        self.compiled_guards.set(enabled);
    }

    /// Defines a new event with argument type `T` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if an event with this name already exists — events are
    /// declared once, by the interface that owns them.
    pub fn define_event<T: 'static>(&self, name: &str) -> Event<T> {
        let mut names = self.names.borrow_mut();
        assert!(
            !names.contains_key(name),
            "event {name:?} is already defined"
        );
        let mut tables = self.tables.borrow_mut();
        let index = tables.len();
        let table = Rc::new(Table::<T> {
            name: Name::new(name.to_string()),
            gen: RefCell::new(Gen::default()),
        });
        tables.push((table.clone() as Rc<dyn Any>, table as Rc<dyn TableInfo>));
        names.insert(name.to_string(), index);
        Event {
            dispatcher: self.id,
            index,
            _arg: PhantomData,
        }
    }

    fn table<T: 'static>(&self, event: Event<T>) -> Rc<Table<T>> {
        assert_eq!(
            event.dispatcher, self.id,
            "event handle belongs to a different dispatcher"
        );
        let any = self.tables.borrow()[event.index].0.clone();
        any.downcast::<Table<T>>()
            .expect("event argument type mismatch")
    }

    /// Lists every defined event with its live handler and guard counts —
    /// the raw material for rendering the protocol graph (Figure 1) from a
    /// running kernel.
    pub fn event_summary(&self) -> Vec<EventSummary> {
        self.tables
            .borrow()
            .iter()
            .map(|(_, info)| {
                let (handlers, guarded) = info.live_counts();
                EventSummary {
                    name: info.event_name().to_string(),
                    handlers,
                    guarded,
                }
            })
            .collect()
    }

    /// Installs a handler described by a [`HandlerSpec`] — the single
    /// installation entry point.
    ///
    /// When the spec's guard has an extractable demux key, the handler is also entered into the event's hash index,
    /// so raises can skip its guard whenever the packet's key provably
    /// mismatches.
    ///
    /// # Panics
    ///
    /// Panics with the [`InstallError`] message when
    /// [`Dispatcher::try_install`] would refuse the spec: an interrupt-mode
    /// handler not certified via [`HandlerSpec::ephemeral`] (§3.3's
    /// evidence requirement), or a guard whose static worst-case bound
    /// exceeds the per-event interrupt cycle budget.
    pub fn install<T: 'static>(&self, event: Event<T>, spec: HandlerSpec<T>) -> HandlerId {
        self.try_install(event, spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dispatcher::install`] that reports refusal instead of panicking —
    /// the admission-control entry point for specs built from untrusted
    /// extension input.
    ///
    /// Interrupt-mode admission requires, beyond certification, that the
    /// guard program's
    /// [`VerifiedProgram::static_bound`] fits the dispatcher's per-event
    /// interrupt cycle budget: the raising context is the network
    /// interrupt, and the static bound is the proof the filter cannot
    /// stall it.
    pub fn try_install<T: 'static>(
        &self,
        event: Event<T>,
        spec: HandlerSpec<T>,
    ) -> Result<HandlerId, InstallError> {
        let mode = if spec.interrupt {
            if !spec.ephemeral {
                return Err(InstallError::UncertifiedInterrupt);
            }
            if let Some(guard) = &spec.guard {
                let bound = guard.program.static_bound();
                let budget = DEFAULT_INTERRUPT_CYCLE_BUDGET;
                if bound > budget {
                    return Err(InstallError::GuardOverBudget { bound, budget });
                }
            }
            HandlerMode::Interrupt {
                time_limit: spec.time_limit,
            }
        } else {
            HandlerMode::Thread
        };
        Ok(self.push_entry(event, spec.guard, spec.handler, mode, spec.owner))
    }

    fn push_entry<T: 'static>(
        &self,
        event: Event<T>,
        guard: Option<Guard<T>>,
        handler: HandlerFn<T>,
        mode: HandlerMode,
        owner: Name,
    ) -> HandlerId {
        let id = HandlerId(self.next_handler.get());
        self.next_handler.set(id.0 + 1);
        let table = self.table(event);
        let mut gen = table.gen.borrow_mut();

        // Index the entry if its guard carries a demux key. `indexed` is
        // set only when the index actually accepts it — the raise path's
        // skip test relies on "has a key" implying "is in the buckets".
        let key = guard.as_ref().and_then(|g| g.program.demux_key());
        let read = guard.as_ref().map(|g| g.read);
        let indexed = key.is_some_and(|spec| {
            // Wider than a bucket key, or a guard of a different event
            // kind on the same table (possible only with an exotic
            // `Packet` impl): leave it on the linear path.
            let schema = key_schema(spec.kind());
            schema.len() <= KEY_WIDTH
                && *gen.schema.get_or_insert(schema) == schema
                && key_mask(spec) != 0
        });
        let excludes = indexed
            && key.is_some_and(|spec| spec.fields().any(|f| matches!(f, FieldSpec::NotIn(_))));
        let entry = Rc::new(Entry {
            id,
            guard,
            handler,
            mode,
            owner,
            indexed,
            excludes,
            removed: Cell::new(false),
        });
        gen.count(entry.key().map_or(0, key_mask), true);
        match entry.key() {
            Some(spec) => {
                gen.read = gen.read.or(read);
                for_each_key(spec, |bk| match gen.buckets.get_mut(&bk) {
                    Some(bucket) => bucket.push(entry.clone()),
                    None => _ = gen.buckets.insert(bk, Bucket::One(entry.clone())),
                });
            }
            None => unpinned(&mut gen.unindexed).push(entry.clone()),
        }
        unpinned(&mut gen.entries).push(entry);
        id
    }

    /// Removes a handler (and its demux-index buckets) and releases it:
    /// its closure, guard program and owner label are dropped here, or
    /// when the last raise still walking a list that holds it returns.
    /// Returns `false` if it was not installed (or was already removed).
    /// Safe to call from inside a handler.
    pub fn uninstall<T: 'static>(&self, event: Event<T>, id: HandlerId) -> bool {
        let table = self.table(event);
        let mut gen = table.gen.borrow_mut();
        let Some(at) = find_id(&gen.entries, id) else {
            return false;
        };
        let entry = unpinned(&mut gen.entries).remove(at);
        // A raise in flight may hold a list that still names the entry;
        // the flag is what makes it skip the entry from here on.
        entry.removed.set(true);
        gen.count(entry.key().map_or(0, key_mask), false);
        match entry.key() {
            Some(spec) => for_each_key(spec, |bk| {
                if gen.buckets.get_mut(&bk).is_some_and(|b| !b.remove(id)) {
                    gen.buckets.remove(&bk);
                }
            }),
            None => remove_id(&mut gen.unindexed, id),
        }
        // Release the table before the entry: what its closure captured
        // may call back into the dispatcher as it drops.
        drop(gen);
        drop(entry);
        true
    }

    /// Number of live handlers installed on `event`.
    pub fn handler_count<T: 'static>(&self, event: Event<T>) -> usize {
        self.table(event).gen.borrow().entries.len()
    }

    /// Raises `event` with `arg`: evaluates each live handler's guard and
    /// invokes the matches, charging dispatch/guard/thread costs to
    /// `ctx.lease` per the machine's [`plexus_sim::CostModel`].
    pub fn raise<T: 'static>(
        &self,
        ctx: &mut RaiseCtx<'_>,
        event: Event<T>,
        arg: &T,
    ) -> RaiseOutcome {
        let table = self.table(event);
        self.raise_on_table(ctx, &table, arg, true)
    }

    /// Opens a batched raise session on `event` — the coalesced receive
    /// path's entry point. The event table is resolved once here, and only
    /// the batch's first [`EventBatch::raise`] pays the fixed
    /// `dispatch_raise` (and demux-probe) charge; later raises in the same
    /// batch ride the warm lookup. Everything *observable per packet* —
    /// guard verdicts, handler order, per-handler charges, trace records —
    /// is identical to N independent [`Dispatcher::raise`] calls.
    pub fn batch<T: 'static>(&self, event: Event<T>) -> EventBatch<'_, T> {
        EventBatch {
            dispatcher: self,
            table: self.table(event),
            amortized: false,
        }
    }

    fn raise_on_table<T: 'static>(
        &self,
        ctx: &mut RaiseCtx<'_>,
        table: &Table<T>,
        arg: &T,
        charge_fixed: bool,
    ) -> RaiseOutcome {
        // Room on the stack for the buckets the raise may pin, one per
        // live mask: none on most events, one or two on most others, and
        // a smaller array is quicker to set up and to let go of.
        let probes = table.gen.borrow().probes().count_ones() as usize;
        match probes {
            0 => self.raise_pinned::<T, 0, 1>(ctx, table, arg, charge_fixed),
            1..=FEW_BUCKETS => self.raise_pinned::<T, FEW_BUCKETS, { FEW_BUCKETS + 1 }>(
                ctx,
                table,
                arg,
                charge_fixed,
            ),
            _ => self.raise_pinned::<T, MAX_BUCKETS, { MAX_BUCKETS + 1 }>(
                ctx,
                table,
                arg,
                charge_fixed,
            ),
        }
    }

    /// [`Dispatcher::raise_on_table`], pinning at most `N` buckets and
    /// merging at most `L` (`N` + 1) lists.
    fn raise_pinned<T: 'static, const N: usize, const L: usize>(
        &self,
        ctx: &mut RaiseCtx<'_>,
        table: &Table<T>,
        arg: &T,
        charge_fixed: bool,
    ) -> RaiseOutcome {
        // The charges a raise makes, read once.
        let model = ctx.lease.model();
        let (raise_cost, probe_cost) = (model.dispatch_raise, model.demux_probe);
        let (guard_cost, handler_cost) = (model.guard_eval, model.dispatch_handler);
        let thread_cost = model.thread_spawn + model.context_switch;
        if charge_fixed {
            ctx.lease.charge(raise_cost);
        }

        // Flight recorder, if the raising CPU carries one. Held as an
        // owned handle because the handler call below reborrows `ctx`.
        // The table and each entry remember their labels in it, so a
        // recorded raise hashes no string.
        let rec = ctx.lease.recorder_handle();
        let ev_label = rec.as_ref().map(|r| table.name.label(r));

        let mut outcome = RaiseOutcome::default();
        // This raise's own counts: added to the dispatcher's totals and
        // the recorder's per-event counters once, when the walk is done
        // (a handler that re-raises tallies its own raise).
        let mut tally = DispatchStats {
            raises: 1,
            ..DispatchStats::default()
        };

        // Pin the lists this raise walks for the whole raise: handlers may
        // install (seen from the next raise on) and uninstall (skipped from
        // then on via the `removed` flag) without disturbing the walk.
        let mut list = None;
        let mut buckets: [Option<Bucket<T>>; N] = [const { None }; N];
        let mut pinned = 0;
        let gen = table.gen.borrow();
        // Demux fast path: one keyed lookup per live field mask selects
        // the indexed candidates; the walk then merges those buckets with
        // the unindexed entries and never touches the rest.
        let index = (self.demux_enabled.get() && gen.probes() != 0).then(|| {
            (
                gen.read.expect("indexed entries carry a reader"),
                gen.schema.expect("indexed entries carry a schema"),
            )
        });
        let mut saw_guard = false;
        if let Some((read, schema)) = index {
            // The probe costs one keyed lookup — the index replaces N
            // guard runs with it. Charged and counted as its own
            // `demux_probe`, not a guard evaluation. In a batch only
            // the first raise pays it: the bucket walk stays warm in
            // cache for the rest.
            if charge_fixed {
                ctx.lease.charge(probe_cost);
                tally.demux_probes = 1;
            }
            if gen.live_masks & 1 != 0 {
                list = Some(gen.unindexed.clone());
            }
            let (mut indexed, mut selected, mut live) = (0, 0, gen.probes());
            while live != 0 {
                let mask = live.trailing_zeros() as u8;
                live &= live - 1;
                indexed += gen.mask_counts[usize::from(mask)] as usize;
                let mut vals = [0u64; KEY_WIDTH];
                // Guards under this mask load each bound field; a failed
                // load rejects in eval, so none of them can match.
                let readable = schema.iter().enumerate().all(|(i, key)| {
                    mask & (1 << i) == 0 || read(arg, *key).map(|v| vals[i] = v).is_some()
                });
                if !readable {
                    continue;
                }
                if let Some(bucket) = gen.buckets.get(&BucketKey { mask, vals }) {
                    selected += bucket.entries().len();
                    buckets[pinned] = Some(bucket.clone());
                    pinned += 1;
                }
            }
            // Every indexed entry outside the probed buckets provably
            // rejects: counted here, never visited.
            tally.demux_skipped = (indexed - selected) as u64;
            outcome.rejected = tally.demux_skipped as u32;
        } else {
            list = Some(gen.entries.clone());
        }
        drop(gen);
        let walk = MergeWalk::<T, L>::new(list.as_ref(), &buckets[..pinned]);

        for entry in walk {
            if entry.removed.get() {
                continue;
            }
            if entry.guard.is_some() {
                saw_guard = true;
            }
            // A candidate whose live `NotIn` port sets exclude the packet
            // is skipped without evaluating the guard: the outcome is
            // identical to the linear scan — minus the eval, its charge,
            // and its trace record.
            if let (Some((read, schema)), true) = (index, entry.excludes) {
                let spec = entry.key().expect("an entry with exclusions is indexed");
                let excluded = spec.fields().enumerate().any(|(i, field)| {
                    let FieldSpec::NotIn(sets) = field else {
                        return false;
                    };
                    // Live membership, mirroring JInSet's u16-truncated
                    // semantics: a member (or an unreadable field) cannot
                    // reach accept.
                    match read(arg, schema[i]) {
                        None => true,
                        Some(v) => u16::try_from(v)
                            .map(|p| sets.iter().any(|s| s.contains(p)))
                            .unwrap_or(false),
                    }
                });
                if excluded {
                    outcome.rejected += 1;
                    tally.demux_skipped += 1;
                    continue;
                }
            }
            if let Some(guard) = &entry.guard {
                tally.guard_evals += 1;
                tally.verified_guard_evals += 1;
                ctx.lease.charge(guard_cost);
                // Tier selection: the compiled closure chain by default,
                // the reference interpreter on opt-out. Identical
                // verdicts, state effects, and metered cycles either way;
                // the simulated charge above (`model.guard_eval`) is the
                // same by contract.
                let compiled = self.compiled_guards.get();
                let now_ns = ctx.lease.now().as_nanos();
                let (matched, measured) = if compiled {
                    tally.compiled_guard_evals += 1;
                    (guard.eval_compiled)(&guard.program, arg, now_ns)
                } else {
                    (guard.eval)(&guard.program, arg, now_ns)
                };
                if let (Some(r), Some(lbl)) = (&rec, ev_label) {
                    // Static-bound cross-check: counters only, so
                    // recorder presence never changes behavior.
                    r.guard_cost(
                        lbl,
                        u64::from(measured),
                        u64::from(guard.program.static_bound()),
                    );
                    r.guard_tier(lbl, compiled);
                    r.guard_eval(now_ns, lbl, GuardKind::Verified, matched);
                }
                if !matched {
                    tally.guard_rejects += 1;
                    tally.verified_guard_rejects += 1;
                    outcome.rejected += 1;
                    continue;
                }
            }
            if entry.mode == HandlerMode::Thread {
                ctx.lease.charge(thread_cost);
            }
            ctx.lease.charge(handler_cost);
            tally.invocations += 1;
            outcome.invoked += 1;

            let owner_label = rec.as_ref().map(|r| entry.owner.label(r));
            let mut span = 0u64;
            if let (Some(r), Some(lbl), Some(owner)) = (&rec, ev_label, owner_label) {
                span = r.handler_enter(ctx.lease.now().as_nanos(), lbl, owner);
            }

            let mark = ctx.lease.mark();
            (entry.handler)(ctx, arg);

            let mut terminated = false;
            if let HandlerMode::Interrupt {
                time_limit: Some(limit),
            } = entry.mode
            {
                let used = ctx.lease.mark() - mark;
                if used > limit {
                    ctx.lease.rollback_to(mark, limit);
                    tally.terminations += 1;
                    outcome.terminated += 1;
                    terminated = true;
                }
            }
            if let (Some(r), Some(lbl), Some(owner)) = (&rec, ev_label, owner_label) {
                // Exit is stamped after any termination rollback, so the
                // span's duration reflects what was actually charged.
                r.handler_exit(ctx.lease.now().as_nanos(), lbl, owner, span);
                if terminated {
                    r.handler_terminated(ctx.lease.now().as_nanos(), lbl, owner);
                }
            }
        }
        if index.is_some() {
            tally.demux_hits = 1;
        } else if saw_guard && self.demux_enabled.get() {
            tally.demux_fallbacks = 1;
        }
        let mut stats = self.stats.get();
        stats.absorb(&tally);
        self.stats.set(stats);
        if let (Some(r), Some(lbl)) = (&rec, ev_label) {
            for (metric, delta) in tally.event_counters() {
                if let Some(delta) = delta {
                    r.count(Scope::Event, lbl, metric, delta);
                }
            }
            if index.is_some() {
                // Per-raise distribution of guard evals the index saved.
                r.record_latency(self.demux_avoided.label(r), tally.demux_skipped);
            }
        }
        outcome
    }
}

/// A batched raise session opened by [`Dispatcher::batch`].
///
/// Holds the resolved event table for the batch's lifetime. The first
/// [`raise`](EventBatch::raise) charges the fixed `dispatch_raise` (and,
/// on demux-indexed events, the single probe `guard_eval`) exactly like
/// [`Dispatcher::raise`]; subsequent raises skip only those fixed
/// charges. Per-packet guard verdicts, handler invocation order,
/// per-handler costs, and trace records are bit-identical to issuing the
/// same raises individually — batching amortizes lookup cost, it never
/// changes dispatch semantics.
pub struct EventBatch<'d, T> {
    dispatcher: &'d Dispatcher,
    table: Rc<Table<T>>,
    amortized: bool,
}

impl<T: 'static> EventBatch<'_, T> {
    /// Raises the batch's event with `arg`.
    pub fn raise(&mut self, ctx: &mut RaiseCtx<'_>, arg: &T) -> RaiseOutcome {
        let charge_fixed = !self.amortized;
        self.amortized = true;
        self.dispatcher
            .raise_on_table(ctx, &self.table, arg, charge_fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sim::cpu::{CostModel, Cpu};
    use plexus_sim::time::SimTime;

    fn ctx_parts() -> (Engine, Rc<Cpu>) {
        (Engine::new(), Cpu::new(CostModel::alpha_3000_400()))
    }

    /// A UdpRecv-shaped event argument for guard tests.
    #[derive(Debug)]
    pub(super) struct UdpArg {
        pub(super) dst_port: u64,
    }

    impl plexus_filter::Packet for UdpArg {
        fn kind(&self) -> plexus_filter::EventKind {
            plexus_filter::EventKind::UdpRecv
        }
        fn field(&self, field: plexus_filter::Field) -> Option<u64> {
            match field {
                plexus_filter::Field::UdpDstPort => Some(self.dst_port),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    pub(super) fn port_program(port: u64) -> Rc<VerifiedProgram> {
        let prog = plexus_filter::conjunction(
            plexus_filter::EventKind::UdpRecv,
            &[plexus_filter::Test::eq(
                plexus_filter::Operand::Field(plexus_filter::Field::UdpDstPort),
                port,
            )],
            Vec::new(),
        );
        Rc::new(plexus_filter::verify(&prog).expect("builder output verifies"))
    }

    /// `dst_port > floor`: a range test proves no demux key, so this guard
    /// stays on the linear path and every raise evaluates it.
    pub(super) fn above_program(floor: u64) -> Rc<VerifiedProgram> {
        use plexus_filter::{Insn, Reg, Src};
        let prog = plexus_filter::FilterProgram {
            kind: plexus_filter::EventKind::UdpRecv,
            insns: vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: plexus_filter::Field::UdpDstPort,
                },
                Insn::Jgt {
                    a: Reg(0),
                    b: Src::Imm(floor),
                    off: 1,
                },
                Insn::Reject,
                Insn::Accept,
            ],
            sets: Vec::new(),
            maps: Vec::new(),
            state_budget: 0,
        };
        let vp = plexus_filter::verify(&prog).expect("a forward range test verifies");
        assert!(vp.demux_key().is_none(), "a range proves no key");
        Rc::new(vp)
    }

    #[test]
    fn raise_invokes_matching_handlers_in_install_order() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Test.Event");
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, arg: &u32| {
                    log.borrow_mut().push(format!("{tag}:{arg}"));
                }),
            );
        }
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &7);
        assert_eq!(out.invoked, 2);
        assert_eq!(*log.borrow(), vec!["a:7", "b:7"]);
    }

    #[test]
    fn guards_filter_delivery() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Guarded");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _| h.set(h.get() + 1))
                .guard(Guard::verified(above_program(1023))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 2000 }).invoked, 1);
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 7 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1);
        assert_eq!(hits.get(), 1);
        assert_eq!(d.stats().guard_rejects, 1);
    }

    #[test]
    fn dispatch_costs_are_charged() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Costed");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {}).guard(Guard::verified(above_program(0))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 7 });
        let expected = model.dispatch_raise
            + model.guard_eval
            + model.thread_spawn
            + model.context_switch
            + model.dispatch_handler;
        assert_eq!(lease.elapsed(), expected);
    }

    #[test]
    fn interrupt_mode_skips_thread_costs() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Fast");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &u32| {})).interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        assert_eq!(
            lease.elapsed(),
            model.dispatch_raise + model.dispatch_handler
        );
    }

    #[test]
    fn batched_raise_charges_the_fixed_cost_once() {
        let (mut engine, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Batched");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {}).guard(Guard::verified(above_program(0))),
        );
        let per_item =
            model.guard_eval + model.thread_spawn + model.context_switch + model.dispatch_handler;
        let mut lease = cpu.begin(SimTime::ZERO);
        {
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let mut batch = d.batch(ev);
            batch.raise(&mut ctx, &UdpArg { dst_port: 1 });
            // A batch of one costs exactly what a single raise costs.
            assert_eq!(ctx.lease.elapsed(), model.dispatch_raise + per_item);
            batch.raise(&mut ctx, &UdpArg { dst_port: 2 });
            batch.raise(&mut ctx, &UdpArg { dst_port: 3 });
        }
        // Later items skip only the fixed dispatch_raise charge.
        assert_eq!(lease.elapsed(), model.dispatch_raise + per_item.times(3));
        assert_eq!(d.stats().raises, 3, "each item still counts as a raise");
        assert_eq!(d.stats().invocations, 3);
    }

    #[test]
    fn over_budget_ephemeral_handler_is_terminated() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Limited");
        let limit = SimDuration::from_micros(10);
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                // A runaway handler: tries to burn 1 ms of interrupt time.
                ctx.lease.charge(SimDuration::from_millis(1));
            }))
            .time_limit(limit),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let before = lease.mark();
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 1);
        assert_eq!(d.stats().terminations, 1);
        // The charge is capped at the allotment, not the attempted 1 ms.
        let model = cpu.model().clone();
        assert_eq!(
            lease.mark() - before,
            model.dispatch_raise + model.dispatch_handler + limit
        );
    }

    #[test]
    fn well_behaved_ephemeral_handler_is_not_terminated() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("WithinBudget");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                ctx.lease.charge(SimDuration::from_micros(3));
            }))
            .time_limit(SimDuration::from_micros(10)),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 0);
        assert_eq!(out.invoked, 1);
    }

    #[test]
    fn uninstalled_handler_stops_firing() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Removable");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let id = d.install(ev, HandlerSpec::new(move |_, _| h.set(h.get() + 1)));
        assert_eq!(d.handler_count(ev), 1);
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        assert!(d.uninstall(ev, id));
        assert!(!d.uninstall(ev, id), "double uninstall must fail");
        assert_eq!(d.handler_count(ev), 0);
        d.raise(&mut ctx, ev, &0);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn handlers_can_uninstall_themselves_during_raise() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("SelfRemoving");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let d2 = d.clone();
        let id_cell: Rc<Cell<Option<HandlerId>>> = Rc::new(Cell::new(None));
        let idc = id_cell.clone();
        let id = d.install(
            ev,
            HandlerSpec::new(move |_, _| {
                h.set(h.get() + 1);
                d2.uninstall(ev, idc.get().expect("id set before raise"));
            }),
        );
        id_cell.set(Some(id));
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        d.raise(&mut ctx, ev, &0);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn handlers_can_raise_other_events_reentrantly() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let outer = d.define_event::<u32>("Outer");
        let inner = d.define_event::<u32>("Inner");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let d2 = d.clone();
        d.install(
            outer,
            HandlerSpec::new(move |ctx: &mut RaiseCtx, arg: &u32| {
                l1.borrow_mut().push(format!("outer:{arg}"));
                d2.raise(ctx, inner, &(arg + 1));
            }),
        );
        let l2 = log.clone();
        d.install(
            inner,
            HandlerSpec::new(move |_, arg: &u32| {
                l2.borrow_mut().push(format!("inner:{arg}"));
            }),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, outer, &1);
        assert_eq!(*log.borrow(), vec!["outer:1", "inner:2"]);
    }

    #[test]
    fn an_adapted_handler_keeps_its_class_and_allotment() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u64>("Adapted");
        type Inner<'a> = &'a dyn Fn(&mut RaiseCtx, &u32);
        let halve = || {
            Ephemeral::certify(|ctx: &mut RaiseCtx, n: &u64, f: Inner| f(ctx, &((n / 2) as u32)))
        };
        let burn =
            |ctx: &mut RaiseCtx, n: &u32| ctx.lease.charge(SimDuration::from_micros((*n).into()));
        let limit = SimDuration::from_micros(10);
        // Certified and limited: the adapter runs inside the allotment.
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(burn))
                .time_limit(limit)
                .adapt(halve()),
        );
        // Thread class: the allotment means nothing to it.
        d.install(ev, HandlerSpec::new(burn).allot(Some(limit)).adapt(halve()));
        // Uncertified stays uncertified through a certified adapter.
        assert_eq!(
            d.try_install(ev, HandlerSpec::new(burn).adapt(halve()).interrupt())
                .unwrap_err(),
            InstallError::UncertifiedInterrupt
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &100);
        assert_eq!((out.invoked, out.terminated), (2, 1));
        let model = cpu.model();
        assert_eq!(
            lease.elapsed(),
            model.dispatch_raise
                + model.dispatch_handler.times(2)
                + limit
                + (model.thread_spawn + model.context_switch)
                + SimDuration::from_micros(50)
        );
    }

    #[test]
    fn verified_guards_filter_interrupt_delivery() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.PacketRecv");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .guard(Guard::verified(port_program(53)))
            .interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn verified_guards_count_as_guarded_in_summaries() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Summarized");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(port_program(7)))
                .interrupt(),
        );
        let summary = d.event_summary();
        assert_eq!(summary[0].handlers, 1);
        assert_eq!(summary[0].guarded, 1);
    }

    #[test]
    #[should_panic(expected = "certified ephemeral handler")]
    fn interrupt_installs_require_certification() {
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Uncertified");
        d.install(ev, HandlerSpec::new(|_, _: &u32| {}).interrupt());
    }

    /// A straight-line stateful guard whose worst-case bound (9 Count
    /// tests × 8 cycles + Accept = 73) exceeds the default 64-cycle
    /// interrupt budget while staying under the verifier's 96-cycle cap.
    fn expensive_program() -> Rc<VerifiedProgram> {
        let map = plexus_filter::StateMap::new("hits", plexus_filter::MapKind::Counter, 1);
        let tests: Vec<plexus_filter::Test> = (0..9)
            .map(|_| plexus_filter::Test::Count {
                op: plexus_filter::Operand::Field(plexus_filter::Field::UdpDstPort),
                mask: 0,
                map: 0,
            })
            .collect();
        let prog = plexus_filter::conjunction_stateful(
            plexus_filter::EventKind::UdpRecv,
            &tests,
            Vec::new(),
            vec![map],
            8,
        );
        Rc::new(plexus_filter::verify(&prog).expect("verifies"))
    }

    #[test]
    fn interrupt_admission_rejects_over_budget_guards() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Admitted");
        let vp = expensive_program();
        let bound = vp.static_bound();
        assert!(bound > DEFAULT_INTERRUPT_CYCLE_BUDGET);
        let err = d
            .try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(vp.clone()))
                    .interrupt(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            InstallError::GuardOverBudget {
                bound,
                budget: DEFAULT_INTERRUPT_CYCLE_BUDGET
            }
        );
        assert!(err.to_string().contains("interrupt budget"));
        assert_eq!(d.handler_count(ev), 0, "a refused spec installs nothing");
        // The same guard is fine in thread mode (no interrupt budget)...
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(vp)),
        );
        // ...and a guard inside the budget admits at interrupt level.
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(port_program(53)))
                .interrupt(),
        );
        assert_eq!(d.handler_count(ev), 2);
    }

    #[test]
    #[should_panic(expected = "per-event interrupt budget")]
    fn install_panics_on_over_budget_guard() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Strict.Budget");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(expensive_program()))
                .interrupt(),
        );
    }

    #[test]
    fn try_install_reports_refusals_without_panicking() {
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Tried");
        assert_eq!(
            d.try_install(ev, HandlerSpec::new(|_, _: &UdpArg| {}).interrupt())
                .unwrap_err(),
            InstallError::UncertifiedInterrupt
        );
        assert_eq!(d.handler_count(ev), 0);
        let id = d
            .try_install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                    .guard(Guard::verified(port_program(53)))
                    .interrupt(),
            )
            .expect("within budget");
        assert!(d.uninstall(ev, id));
    }

    #[test]
    fn demux_probes_are_counted_once_per_paid_probe() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Probed");
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(53))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(d.stats().demux_probes, 2, "each lone raise pays a probe");
        let mut batch = d.batch(ev);
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        batch.raise(&mut ctx, &UdpArg { dst_port: 53 });
        let stats = d.stats();
        assert_eq!(stats.demux_probes, 3, "a batch pays the probe once");
        assert_eq!(stats.demux_hits, 5, "every raise still walks the buckets");
    }

    /// Every combination the old shim quartet covered (thread/interrupt ×
    /// default/explicit owner, with guards and time limits) goes through
    /// the one `install` entry point.
    #[test]
    fn unified_install_covers_every_former_shim_shape() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Shimmed");
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| h.set(h.get() + 1)),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| h.set(h.get() + 1)).owner("ext-a"),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .guard(Guard::verified(port_program(53)))
            .interrupt(),
        );
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                h.set(h.get() + 1)
            }))
            .interrupt()
            .time_limit(Some(SimDuration::from_micros(10)))
            .owner("ext-b"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        assert_eq!(out.invoked, 4, "all four install shapes are live");
        assert_eq!(hits.get(), 4);
    }

    #[test]
    fn demux_skips_provably_rejecting_guards_without_evaluating() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Indexed");
        let hits = Rc::new(RefCell::new(Vec::new()));
        for port in [53u64, 80, 443] {
            let h = hits.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, _: &UdpArg| h.borrow_mut().push(port))
                    .guard(Guard::verified(port_program(port))),
            );
        }
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        assert_eq!(out.invoked, 1);
        assert_eq!(out.rejected, 2, "skipped entries still count as rejected");
        assert_eq!(*hits.borrow(), vec![80]);
        let stats = d.stats();
        assert_eq!(stats.guard_evals, 1, "only the candidate's guard ran");
        assert_eq!(stats.guard_rejects, 0);
        assert_eq!(stats.demux_hits, 1);
        assert_eq!(stats.demux_skipped, 2);
        assert_eq!(stats.demux_fallbacks, 0);
    }

    #[test]
    fn demux_outcome_matches_linear_scan_exactly() {
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<UdpArg>("Udp.Compared");
            let order = Rc::new(RefCell::new(Vec::new()));
            for (tag, port) in [("a", 53u64), ("b", 80), ("c", 53)] {
                let o = order.clone();
                d.install(
                    ev,
                    HandlerSpec::new(move |_, _: &UdpArg| o.borrow_mut().push(tag))
                        .guard(Guard::verified(port_program(port))),
                );
            }
            // One unindexable guard mixed in.
            let o = order.clone();
            d.install(
                ev,
                HandlerSpec::new(move |_, _: &UdpArg| o.borrow_mut().push("z"))
                    .guard(Guard::verified(above_program(60))),
            );
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let out53 = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
            let out80 = d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
            let seen = order.borrow().clone();
            (out53, out80, seen)
        };
        assert_eq!(run(true), run(false), "same outcomes, same handler order");
    }

    /// A TcpRecv-shaped argument: the key schema's three fields.
    struct TcpArg {
        dst_port: u64,
        src_addr: u64,
        src_port: u64,
    }

    impl plexus_filter::Packet for TcpArg {
        fn kind(&self) -> plexus_filter::EventKind {
            plexus_filter::EventKind::TcpRecv
        }
        fn field(&self, field: plexus_filter::Field) -> Option<u64> {
            match field {
                plexus_filter::Field::TcpDstPort => Some(self.dst_port),
                plexus_filter::Field::TcpSrcAddr => Some(self.src_addr),
                plexus_filter::Field::TcpSrcPort => Some(self.src_port),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &[]
        }
    }

    #[test]
    fn a_raise_merges_a_bucket_per_live_mask_in_install_order() {
        use plexus_filter::{conjunction, verify, EventKind, Field, Operand, Test};
        // Guards binding one, two and three of `TcpRecv`'s key fields sit
        // under three masks, so a raise pins three buckets (more than most
        // tables need room for) beside the unindexed list.
        let guard = |fields: &[(Field, u64)]| {
            let tests: Vec<_> = (fields.iter())
                .map(|&(f, v)| Test::eq(Operand::Field(f), v))
                .collect();
            let program = conjunction(EventKind::TcpRecv, &tests, Vec::new());
            Guard::verified(Rc::new(verify(&program).expect("a conjunction verifies")))
        };
        let listener = [(Field::TcpDstPort, 80)];
        let peer = [(Field::TcpDstPort, 80), (Field::TcpSrcAddr, 7)];
        let conn = [
            (Field::TcpDstPort, 80),
            (Field::TcpSrcAddr, 7),
            (Field::TcpSrcPort, 4242),
        ];
        let other = [
            (Field::TcpDstPort, 80),
            (Field::TcpSrcAddr, 7),
            (Field::TcpSrcPort, 4243),
        ];
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<TcpArg>("Tcp.Merged");
            let order = Rc::new(RefCell::new(Vec::new()));
            let install = |tag: &'static str, guard: Option<Guard<TcpArg>>| {
                let o = order.clone();
                let spec = HandlerSpec::new(move |_, _: &TcpArg| o.borrow_mut().push(tag));
                d.install(ev, guard.into_iter().fold(spec, HandlerSpec::guard))
            };
            install("conn", Some(guard(&conn)));
            install("any", None);
            install("peer", Some(guard(&peer)));
            install("other", Some(guard(&other)));
            let gone = install("listener", Some(guard(&listener)));
            install("listener", Some(guard(&listener)));
            d.uninstall(ev, gone);
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let arg = TcpArg {
                dst_port: 80,
                src_addr: 7,
                src_port: 4242,
            };
            let out = d.raise(&mut ctx, ev, &arg);
            let seen = order.borrow().clone();
            (out, seen, d.stats().demux_skipped)
        };
        let (out, seen, skipped) = run(true);
        assert_eq!(seen, ["conn", "any", "peer", "listener"]);
        assert_eq!((out.invoked, out.rejected, skipped), (4, 1, 1));
        let (linear, linear_seen, _) = run(false);
        assert_eq!((linear, linear_seen), (out, seen), "as the linear scan");
    }

    #[test]
    fn demux_probe_replaces_linear_guard_charges() {
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<UdpArg>("Udp.Charged");
            for port in 1..=8u64 {
                d.install(
                    ev,
                    HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(port))),
                );
            }
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            d.raise(&mut ctx, ev, &UdpArg { dst_port: 3 });
            lease.elapsed()
        };
        let (_, cpu) = ctx_parts();
        let model = cpu.model().clone();
        let handler = model.thread_spawn + model.context_switch + model.dispatch_handler;
        // Indexed: raise + one probe + one real eval + handler.
        assert_eq!(
            run(true),
            model.dispatch_raise + model.demux_probe + model.guard_eval + handler
        );
        // Linear: raise + eight evals + handler.
        assert_eq!(
            run(false),
            model.dispatch_raise + model.guard_eval * 8 + handler
        );
    }

    #[test]
    fn demux_index_follows_uninstall() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Unindexed");
        let id53 = d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(53))),
        );
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(80))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        assert!(d.uninstall(ev, id53));
        let out = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1, "only the live port-80 entry is skipped");
        assert_eq!(d.stats().demux_hits, 2, "index still probes for port 80");
    }

    #[test]
    fn demux_falls_back_when_nothing_is_indexable() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Fallback");
        d.install(
            ev,
            HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(above_program(50))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        let stats = d.stats();
        assert_eq!(stats.demux_hits, 0);
        assert_eq!(stats.demux_fallbacks, 1);
        assert_eq!(stats.guard_evals, 1);
    }

    /// An IpRecv-shaped argument whose transport dst port sits at payload
    /// bytes 2..4, as the real IP receive argument exposes it.
    struct IpArg {
        proto: u64,
        payload: Vec<u8>,
    }

    impl plexus_filter::Packet for IpArg {
        fn kind(&self) -> plexus_filter::EventKind {
            plexus_filter::EventKind::IpRecv
        }
        fn field(&self, field: plexus_filter::Field) -> Option<u64> {
            match field {
                plexus_filter::Field::IpProto => Some(self.proto),
                plexus_filter::Field::IpSrc | plexus_filter::Field::IpDst => Some(0),
                plexus_filter::Field::IpPayloadLen => Some(self.payload.len() as u64),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &self.payload
        }
    }

    #[test]
    fn demux_checks_not_in_port_sets_live() {
        // The UDP-standard node's guard shape: proto == 17 AND dst port
        // not in the claimed set. Claims must take effect without
        // reinstalling — the index checks the shared set at visit time.
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<IpArg>("Ip.PacketRecv");
        let special = plexus_filter::PortSet::new();
        let prog = plexus_filter::conjunction(
            plexus_filter::EventKind::IpRecv,
            &[
                plexus_filter::Test::eq(
                    plexus_filter::Operand::Field(plexus_filter::Field::IpProto),
                    17,
                ),
                plexus_filter::Test::NotInSet {
                    op: plexus_filter::Operand::Pay {
                        off: 2,
                        width: plexus_filter::Width::W16,
                    },
                    set: 0,
                },
            ],
            vec![special.clone()],
        );
        let vp = Rc::new(plexus_filter::verify(&prog).expect("verifies"));
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &IpArg| h.set(h.get() + 1)).guard(Guard::verified(vp)),
        );
        let pkt = IpArg {
            proto: 17,
            payload: vec![0, 0, 0, 53, 0, 0, 0, 0], // dst port 53
        };
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &pkt).invoked, 1);
        special.insert(53);
        let out = d.raise(&mut ctx, ev, &pkt);
        assert_eq!(out.invoked, 0);
        assert_eq!(out.rejected, 1, "claimed port skipped at visit time");
        assert_eq!(
            d.stats().guard_evals,
            1,
            "the claimed-port rejection never ran the guard"
        );
        special.remove(53);
        assert_eq!(d.raise(&mut ctx, ev, &pkt).invoked, 1);
    }

    #[test]
    fn mid_raise_installs_do_not_poison_the_index() {
        // A handler that installs another indexed handler while the raise
        // is walking the snapshot: the install mutates the demux state,
        // which must not alias the probe's borrow.
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.MidRaise");
        let d2 = d.clone();
        let installed = Rc::new(Cell::new(false));
        let flag = installed.clone();
        d.install(
            ev,
            HandlerSpec::new(move |_, _: &UdpArg| {
                if !flag.get() {
                    flag.set(true);
                    d2.install(
                        ev,
                        HandlerSpec::new(|_, _: &UdpArg| {})
                            .guard(Guard::verified(port_program(53))),
                    );
                }
            })
            .guard(Guard::verified(port_program(53))),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 1);
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 2);
    }

    #[test]
    fn bucket_keys_fit_every_schema() {
        use plexus_filter::EventKind::{EthRecv, IpRecv, TcpRecv, UdpRecv};
        for kind in [EthRecv, IpRecv, UdpRecv, TcpRecv] {
            assert!(
                key_schema(kind).len() <= KEY_WIDTH,
                "{kind}: widen KEY_WIDTH, or its guards go unindexed"
            );
        }
    }

    #[test]
    fn mid_raise_uninstall_of_an_unselected_entry_still_counts_as_rejected() {
        // The one count the index decides by arithmetic: the port-80 entry
        // is indexed and not selected by a port-53 packet, so the raise has
        // counted it as rejected before the first handler runs — even
        // though that handler then uninstalls it. The linear walk finds it
        // removed and passes over it uncounted.
        let run = |demux: bool| {
            let (mut engine, cpu) = ctx_parts();
            let d = Dispatcher::new();
            d.set_demux_enabled(demux);
            let ev = d.define_event::<UdpArg>("Udp.MidRaiseCount");
            let victim: Rc<Cell<Option<HandlerId>>> = Rc::new(Cell::new(None));
            let (d2, v) = (d.clone(), victim.clone());
            d.install(
                ev,
                HandlerSpec::new(move |_, _: &UdpArg| {
                    d2.uninstall(ev, v.get().expect("set before the raise"));
                })
                .guard(Guard::verified(port_program(53))),
            );
            victim.set(Some(d.install(
                ev,
                HandlerSpec::new(|_, _: &UdpArg| {}).guard(Guard::verified(port_program(80))),
            )));
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            let first = d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
            assert_eq!(first.invoked, 1);
            assert_eq!(d.handler_count(ev), 1);
            // From the next raise on the two regimes agree again.
            assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).rejected, 0);
            (first.rejected, d.stats().demux_skipped)
        };
        assert_eq!(run(true), (1, 1));
        assert_eq!(run(false), (0, 0));
    }

    #[test]
    fn uninstall_releases_the_entry() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.Released");
        let captured = Rc::new(());
        let mut ids = Vec::new();
        // One indexed, one unindexed: both kinds of list must let go.
        for guard in [Some(Guard::verified(port_program(53))), None] {
            let c = captured.clone();
            let spec =
                HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                    let _ = &c;
                }))
                .interrupt();
            ids.push(d.install(
                ev,
                match guard {
                    Some(guard) => spec.guard(guard),
                    None => spec,
                },
            ));
        }
        assert_eq!(Rc::strong_count(&captured), 3);
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        for (left, id) in [(1, ids[0]), (0, ids[1])] {
            assert!(d.uninstall(ev, id));
            assert_eq!(Rc::strong_count(&captured), 1 + left, "closure dropped");
            assert_eq!(d.handler_count(ev), left);
            assert_eq!(d.event_summary()[0].handlers, left);
        }
        assert_eq!(d.event_summary()[0].guarded, 0);
        assert_eq!(d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 }).invoked, 0);
    }

    #[test]
    fn a_handler_uninstalled_mid_raise_is_released_when_the_raise_returns() {
        let (mut engine, cpu) = ctx_parts();
        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("SelfReleasing");
        let captured = Rc::new(());
        let observed = Rc::new(Cell::new(0));
        let id_cell: Rc<Cell<Option<HandlerId>>> = Rc::new(Cell::new(None));
        let (d2, idc, c, o) = (
            d.clone(),
            id_cell.clone(),
            captured.clone(),
            observed.clone(),
        );
        id_cell.set(Some(d.install(
            ev,
            HandlerSpec::new(move |_, _| {
                d2.uninstall(ev, idc.get().expect("id set before raise"));
                // Still running: the raise keeps its generation alive.
                o.set(Rc::strong_count(&c));
            }),
        )));
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &0);
        assert_eq!(observed.get(), 2, "alive while its own raise walks");
        assert_eq!(
            Rc::strong_count(&captured),
            1,
            "dropped with the old generation"
        );
        assert_eq!(d.handler_count(ev), 0);
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn duplicate_event_names_are_rejected() {
        let d = Dispatcher::new();
        d.define_event::<u32>("Dup");
        d.define_event::<u64>("Dup");
    }

    #[test]
    #[should_panic(expected = "different dispatcher")]
    fn foreign_event_handles_are_rejected() {
        let d1 = Dispatcher::new();
        let d2 = Dispatcher::new();
        let ev = d1.define_event::<u32>("Foreign");
        d2.handler_count(ev);
    }
}

#[cfg(test)]
mod recorder_tests {
    use super::tests::{above_program, port_program, UdpArg};
    use super::*;
    use plexus_sim::cpu::{CostModel, Cpu};
    use plexus_sim::time::SimTime;
    use plexus_trace::{CounterKey, Recorder, TraceEvent};

    #[test]
    fn raise_records_guard_and_handler_events_with_owner() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        let ev = d.define_event::<UdpArg>("Udp.PacketRecv");
        d.install(
            ev,
            HandlerSpec::new(|_, _| {})
                .guard(Guard::verified(above_program(10)))
                .owner("rtt-extension"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 42 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 3 });
        drop(lease);

        let lbl = rec.intern("Udp.PacketRecv");
        let dom = rec.intern("rtt-extension");
        let get = |scope, label, metric| {
            rec.registry().get(CounterKey {
                scope,
                label,
                metric,
            })
        };
        assert_eq!(get(Scope::Event, lbl, "raises"), 2);
        assert_eq!(get(Scope::Guard, lbl, "verified.accepts"), 1);
        assert_eq!(get(Scope::Guard, lbl, "verified.rejects"), 1);
        assert_eq!(get(Scope::Handler, lbl, "invocations"), 1);
        assert_eq!(get(Scope::Domain, dom, "invocations"), 1);

        let events = rec.events();
        let enters: Vec<_> = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::HandlerEnter { .. }))
            .collect();
        let exits: Vec<_> = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::HandlerExit { .. }))
            .collect();
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1);
        assert!(exits[0].at_ns >= enters[0].at_ns);
    }

    #[test]
    fn termination_is_attributed_to_the_owning_domain() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        let ev = d.define_event::<u32>("Limited");
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|ctx: &mut RaiseCtx, _: &u32| {
                ctx.lease.charge(SimDuration::from_millis(1));
            }))
            .time_limit(SimDuration::from_micros(10))
            .owner("runaway-ext"),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        let out = d.raise(&mut ctx, ev, &0);
        assert_eq!(out.terminated, 1);
        let dom = rec.intern("runaway-ext");
        assert_eq!(
            rec.registry().get(CounterKey {
                scope: Scope::Domain,
                label: dom,
                metric: "terminations",
            }),
            1
        );
    }

    #[test]
    fn verified_guard_evals_record_the_static_bound_cross_check() {
        let mut engine = Engine::new();
        let cpu = Cpu::new(CostModel::alpha_3000_400());
        let rec = Recorder::new(64);
        cpu.set_recorder(Some(rec.clone()));

        let d = Dispatcher::new();
        // Force the linear scan so both raises run the guard for real.
        d.set_demux_enabled(false);
        let ev = d.define_event::<UdpArg>("Udp.CrossChecked");
        let vp = port_program(53);
        let bound = u64::from(vp.static_bound());
        d.install(
            ev,
            HandlerSpec::ephemeral(Ephemeral::certify(|_: &mut RaiseCtx, _: &UdpArg| {}))
                .guard(Guard::verified(vp))
                .interrupt(),
        );
        let mut lease = cpu.begin(SimTime::ZERO);
        let mut ctx = RaiseCtx {
            engine: &mut engine,
            lease: &mut lease,
        };
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 53 });
        d.raise(&mut ctx, ev, &UdpArg { dst_port: 80 });
        drop(lease);

        let lbl = rec.intern("Udp.CrossChecked");
        let get = |metric| {
            rec.registry().get(CounterKey {
                scope: Scope::Guard,
                label: lbl,
                metric,
            })
        };
        assert_eq!(get("cycles.bound"), 2 * bound);
        let measured = get("cycles.measured");
        assert!(
            measured >= 2 && measured <= 2 * bound,
            "measured {measured} outside (0, 2×bound]"
        );
        assert_eq!(get("cycles.exceeded"), 0, "the static bound holds");
    }

    #[test]
    fn without_a_recorder_raise_behaves_identically() {
        // Costs and stats must not depend on whether tracing is on.
        let run = |with_recorder: bool| {
            let mut engine = Engine::new();
            let cpu = Cpu::new(CostModel::alpha_3000_400());
            if with_recorder {
                cpu.set_recorder(Some(Recorder::new(16)));
            }
            let d = Dispatcher::new();
            let ev = d.define_event::<UdpArg>("Same");
            d.install(
                ev,
                HandlerSpec::new(|_, _| {}).guard(Guard::verified(above_program(0))),
            );
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            d.raise(&mut ctx, ev, &UdpArg { dst_port: 7 });
            (lease.elapsed(), d.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn display_formats_all_counters() {
        let stats = DispatchStats {
            raises: 10,
            invocations: 8,
            guard_evals: 6,
            guard_rejects: 2,
            verified_guard_evals: 4,
            compiled_guard_evals: 4,
            verified_guard_rejects: 1,
            terminations: 3,
            demux_probes: 5,
            demux_hits: 5,
            demux_fallbacks: 2,
            demux_skipped: 9,
        };
        let s = stats.to_string();
        assert_eq!(
            s,
            "raises=10 invocations=8 guard_evals=6 (verified 4, compiled 4) \
             guard_rejects=2 (verified 1) terminations=3 \
             demux_probes=5 demux_hits=5 demux_fallbacks=2 \
             demux_skipped=9"
        );
        // Regression: the leading counters keep their exact wording, so
        // anything parsing the old prefix keeps working.
        assert!(s.starts_with("raises=10 invocations=8 guard_evals=6 (verified 4"));
    }

    /// The opt-out tier (reference interpreter) and the default compiled
    /// tier select the same handlers, charge the same simulated time, and
    /// move the same aggregate counters — only `compiled_guard_evals`
    /// distinguishes them.
    #[test]
    fn guard_tiers_agree_on_dispatch() {
        let prog = port_program(9);
        let run = |compiled: bool| {
            let mut engine = Engine::new();
            let cpu = Cpu::new(CostModel::alpha_3000_400());
            let d = Dispatcher::new();
            d.set_compiled_guards(compiled);
            // Guards only, no demux shortcut: every raise evaluates.
            d.set_demux_enabled(false);
            let ev = d.define_event::<UdpArg>("Udp.Tiered");
            let hits = Rc::new(Cell::new(0u32));
            let h = hits.clone();
            d.install(
                ev,
                HandlerSpec::ephemeral(Ephemeral::certify(move |_: &mut RaiseCtx, _: &UdpArg| {
                    h.set(h.get() + 1);
                }))
                .interrupt()
                .guard(Guard::verified(prog.clone())),
            );
            let mut lease = cpu.begin(SimTime::ZERO);
            let mut ctx = RaiseCtx {
                engine: &mut engine,
                lease: &mut lease,
            };
            for port in [9u64, 9, 7] {
                d.raise(&mut ctx, ev, &UdpArg { dst_port: port });
            }
            (hits.get(), lease.elapsed(), d.stats())
        };
        let (hits_c, time_c, stats_c) = run(true);
        let (hits_i, time_i, stats_i) = run(false);
        assert_eq!(hits_c, 2);
        assert_eq!(hits_i, 2);
        assert_eq!(time_c, time_i, "tier selection must not change charges");
        assert_eq!(stats_c.verified_guard_evals, stats_i.verified_guard_evals);
        assert_eq!(stats_c.compiled_guard_evals, stats_c.verified_guard_evals);
        assert_eq!(stats_i.compiled_guard_evals, 0);
        assert_eq!(stats_c.guard_rejects, stats_i.guard_rejects);
    }
}
