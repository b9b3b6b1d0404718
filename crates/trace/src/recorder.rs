//! The recorder: interner + ring + registry + packet-ID generator.

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::live::{LiveAgg, LiveConfig, LiveReport};
use crate::registry::{CounterKey, Registry, Scope};
use crate::ring::Ring;
use crate::{CrossDir, GuardKind, Loss, TraceEvent, TraceRecord};

/// A handle to an interned string. `Copy`, so trace records carrying names
/// stay allocation-free; resolve back with [`Recorder::name`] (a label
/// read out of a `Profile` with the profile's own `name`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

/// The name table: every fold works on [`Label`]s and comes back here
/// only when it writes bytes. A name is one shared allocation: copying
/// the table, or handing a name out, copies pointers, not strings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Interner {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// Event label → layer label, filled by [`Interner::layer`].
    layers: Vec<Option<Label>>,
}

impl Interner {
    /// A copy with room for `extra` more names, and for the layer of every
    /// name, so a fold that interns no more than that into it never grows
    /// a table.
    pub(crate) fn with_room(&self, extra: usize) -> Interner {
        let room = self.names.len() + extra;
        let mut names = Vec::with_capacity(room);
        names.extend(self.names.iter().cloned());
        let mut index = HashMap::with_capacity(room);
        index.extend(self.index.iter().map(|(name, &i)| (name.clone(), i)));
        let mut layers = Vec::with_capacity(room);
        layers.extend_from_slice(&self.layers);
        Interner {
            names,
            index,
            layers,
        }
    }

    /// How many names the table holds.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn intern(&mut self, s: &str) -> Label {
        if let Some(&i) = self.index.get(s) {
            return Label(i);
        }
        let i = u32::try_from(self.names.len()).expect("interner overflow");
        let name: Arc<str> = s.into();
        self.names.push(name.clone());
        self.index.insert(name, i);
        Label(i)
    }

    pub(crate) fn get(&self, label: Label) -> &str {
        &self.names[label.0 as usize]
    }

    /// The name behind `label`, shared rather than copied.
    pub(crate) fn shared(&self, label: Label) -> Arc<str> {
        self.names[label.0 as usize].clone()
    }

    /// The label `s` already has, if it was ever interned.
    pub(crate) fn lookup(&self, s: &str) -> Option<Label> {
        self.index.get(s).copied().map(Label)
    }

    /// The layer of an event name — its lowercased dot-prefix,
    /// `"Ethernet.PacketRecv"` → `"ethernet"` — as a label; string work
    /// once per distinct event name, not once per record.
    pub(crate) fn layer(&mut self, event: Label) -> Label {
        let at = event.0 as usize;
        if let Some(Some(layer)) = self.layers.get(at) {
            return *layer;
        }
        let name = self.get(event);
        let prefix = name.split('.').next().unwrap_or(name).to_ascii_lowercase();
        let layer = self.intern(&prefix);
        if self.layers.len() <= at {
            self.layers.resize(at + 1, None);
        }
        self.layers[at] = Some(layer);
        layer
    }
}

/// A name that instrumented code records on every packet — an event
/// table's, a handler owner's, a NIC's — with its [`Label`] in the
/// recorder that asked last, so the steady state is a compare, not a
/// string hash. Looked up on first use and whenever a different recorder
/// asks: a replaced recorder never sees another's label.
#[derive(Debug, Default)]
pub struct Name {
    text: Text,
    label: Cell<Option<(u64, Label)>>,
}

/// A [`Name`]'s text: borrowed or owned, or shared with whoever else holds
/// it (an extension's name, held by each handler it installs).
#[derive(Debug)]
enum Text {
    Cow(Cow<'static, str>),
    Shared(Rc<str>),
}

impl Default for Text {
    fn default() -> Text {
        Text::Cow(Cow::Borrowed(""))
    }
}

impl Name {
    /// Wraps `text` (a literal is borrowed, not copied); no recorder is
    /// touched until [`Name::label`].
    pub fn new(text: impl Into<Cow<'static, str>>) -> Name {
        Name::with(Text::Cow(text.into()))
    }

    fn with(text: Text) -> Name {
        Name {
            text,
            label: Cell::new(None),
        }
    }

    /// The name itself.
    pub fn as_str(&self) -> &str {
        match &self.text {
            Text::Cow(text) => text,
            Text::Shared(text) => text,
        }
    }

    /// This name's label in `rec`.
    pub fn label(&self, rec: &Recorder) -> Label {
        match self.label.get() {
            Some((id, label)) if id == rec.id => label,
            _ => {
                let label = rec.intern(self.as_str());
                self.label.set(Some((rec.id, label)));
                label
            }
        }
    }
}

/// A literal, borrowed.
impl From<&'static str> for Name {
    fn from(text: &'static str) -> Name {
        Name::new(text)
    }
}

/// A shared name, held without a copy.
impl From<Rc<str>> for Name {
    fn from(text: Rc<str>) -> Name {
        Name::with(Text::Shared(text))
    }
}

/// Source of [`Recorder::id`]s; a plain counter, it publishes no data.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

/// The flight recorder: a bounded event ring plus a metrics [`Registry`],
/// stamped entirely from the simulated clock.
///
/// Install one per simulation (`World::install_recorder` wires it to every
/// CPU, NIC, and the engine). Instrumented code receives it as an
/// `Option<&Recorder>` / `Option<Rc<Recorder>>`; with no recorder
/// installed the hot path pays a single `Option` test.
#[derive(Debug)]
pub struct Recorder {
    /// What a [`Name`] remembers its label by.
    id: u64,
    ring: RefCell<Ring>,
    registry: Registry,
    interner: RefCell<Interner>,
    next_packet: Cell<u64>,
    next_span: Cell<u64>,
    next_journey: Cell<u64>,
    current_packet: Cell<Option<u64>>,
    current_journey: Cell<Option<u64>>,
    live: RefCell<Option<LiveAgg>>,
    /// The names the entry points below record themselves.
    engine: Name,
    terminated: Name,
    crossings: [Name; 2],
    /// Each [`Loss`]'s layer and reason labels, interned at its first
    /// record (in that order, as a drop has always interned them).
    losses: [Cell<Option<(Label, Label)>>; Loss::COUNT],
}

impl Recorder {
    /// Creates a recorder whose ring retains `capacity` records.
    pub fn new(capacity: usize) -> Rc<Recorder> {
        Rc::new(Recorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            ring: RefCell::new(Ring::new(capacity)),
            registry: Registry::default(),
            interner: RefCell::new(Interner::default()),
            next_packet: Cell::new(0),
            next_span: Cell::new(0),
            next_journey: Cell::new(0),
            current_packet: Cell::new(None),
            current_journey: Cell::new(None),
            live: RefCell::new(None),
            engine: Name::new("engine"),
            terminated: Name::new("handler_terminated"),
            crossings: [CrossDir::UserToKernel, CrossDir::KernelToUser]
                .map(|d| Name::new(d.name())),
            losses: Default::default(),
        })
    }

    /// Switches on the streaming telemetry tier ([`crate::live`]): every
    /// subsequent ring push is also fed to the online windowed
    /// aggregators, per-machine scopes, and tail sampler, and sealed
    /// windows are evaluated against `config.slo`. Enable *before* the
    /// run; records pushed earlier are not replayed.
    pub fn enable_live(&self, config: LiveConfig) {
        let empty = self.intern("");
        let live_label = self.intern("live");
        let capacity = self.ring.borrow().capacity();
        *self.live.borrow_mut() = Some(LiveAgg::new(config, capacity, empty, live_label));
    }

    /// Seals every remaining window and returns the live tier's report
    /// (`None` when live telemetry was never enabled). Idempotent: calling
    /// it again re-derives the same report without double-counting.
    pub fn live_report(&self) -> Option<LiveReport> {
        let mut guard = self.live.borrow_mut();
        let agg = guard.as_mut()?;
        agg.finish(&self.registry);
        // A crossing's name is interned when the first one is recorded.
        let crossings = (self.crossings.each_ref()).map(|dir| dir.label.get().map(|(_, l)| l));
        Some(agg.report(self, crossings))
    }

    /// Interns a name; cheap (one hash lookup) after first sight.
    pub fn intern(&self, s: &str) -> Label {
        self.interner.borrow_mut().intern(s)
    }

    /// Resolves an interned label back to its string, borrowed from the
    /// name table: nothing may intern while the borrow is held.
    ///
    /// # Panics
    ///
    /// Panics if `label` did not come from this recorder.
    pub fn name(&self, label: Label) -> Ref<'_, str> {
        Ref::map(self.names(), |names| names.get(label))
    }

    /// The name table borrowed once, for a fold's whole walk.
    pub(crate) fn names(&self) -> Ref<'_, Interner> {
        self.interner.borrow()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of retained trace records, oldest first.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.ring.borrow().snapshot()
    }

    /// The ring borrowed in place, for the exporters' one walk
    /// ([`Ring::iter`]). Nothing may record while the borrow is held.
    pub(crate) fn ring(&self) -> Ref<'_, Ring> {
        self.ring.borrow()
    }

    /// Records overwritten because the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.ring.borrow().overwritten()
    }

    /// Total records ever pushed.
    pub fn recorded(&self) -> u64 {
        self.ring.borrow().pushed()
    }

    fn push(&self, at_ns: u64, event: TraceEvent) {
        self.push_with_journey(at_ns, event, self.current_journey.get());
    }

    fn push_with_journey(&self, at_ns: u64, event: TraceEvent, journey: Option<u64>) {
        let mut ring = self.ring.borrow_mut();
        let record = TraceRecord {
            at_ns,
            seq: ring.pushed(),
            packet: self.current_packet.get(),
            journey,
            event,
        };
        // The live tier rides the same push: online aggregation at record
        // time, so its view survives ring wraparound. Its sampler keeps
        // ring positions, so it sees a record off before the ring drops it.
        let mut live = self.live.borrow_mut();
        let Some(live) = live.as_mut() else {
            return ring.push(record);
        };
        if let Some(old) = ring.next_overwritten() {
            live.before_overwrite(&old, &ring);
        }
        ring.push(record);
        live.feed(&record, &self.registry, &self.interner);
    }

    /// Bumps a counter by `delta`.
    pub fn count(&self, scope: Scope, label: Label, metric: &'static str, delta: u64) {
        self.registry.add(
            CounterKey {
                scope,
                label,
                metric,
            },
            delta,
        );
    }

    /// Records a latency observation into the named histogram.
    pub fn record_latency(&self, hist: Label, ns: u64) {
        self.registry.record_hist(hist, ns);
    }

    /// Records a latency observation into the named histogram *and* the
    /// ring, so the timeline can recover per-window percentiles that the
    /// whole-run histogram flattens away.
    pub fn sample(&self, at_ns: u64, hist: Label, ns: u64) {
        self.registry.record_hist(hist, ns);
        self.push(at_ns, TraceEvent::LatencySample { hist, ns });
    }

    // --- instrumentation entry points -----------------------------------

    /// A frame arrived at a NIC on machine `host` (empty for a NIC built
    /// outside a `World`): assigns the next per-packet ID and records the
    /// arrival under the journey tag the frame carried across the wire
    /// (`None` for a frame whose transmit predates the recorder — a fresh
    /// journey is allocated). Returns `(packet_id, journey_id)`; subsequent
    /// records are tagged with both until [`Recorder::packet_done`].
    pub fn packet_arrival(
        &self,
        at_ns: u64,
        nic: Label,
        host: Label,
        bytes: usize,
        journey: Option<u64>,
    ) -> (u64, u64) {
        let id = self.next_packet.get();
        self.next_packet.set(id + 1);
        self.current_packet.set(Some(id));
        let journey = journey.unwrap_or_else(|| self.alloc_journey());
        self.current_journey.set(Some(journey));
        self.push(
            at_ns,
            TraceEvent::PacketArrival {
                nic,
                host,
                bytes: bytes as u32,
            },
        );
        self.count(Scope::Packet, nic, "arrivals", 1);
        self.count(Scope::Packet, nic, "bytes", bytes as u64);
        (id, journey)
    }

    /// The current packet's processing chain has left the instrumented
    /// path; later records are no longer attributed to it.
    pub fn packet_done(&self) {
        self.current_packet.set(None);
        self.current_journey.set(None);
        if let Some(live) = self.live.borrow_mut().as_mut() {
            live.packet_done();
        }
    }

    /// The packet ID currently in flight, if any.
    pub fn current_packet(&self) -> Option<u64> {
        self.current_packet.get()
    }

    /// The journey currently in flight, if any.
    pub fn current_journey(&self) -> Option<u64> {
        self.current_journey.get()
    }

    /// Severs the causal chain: frames transmitted after this point (but
    /// still within the current packet's processing) start a *new*
    /// journey. Ping-pong benchmarks call this before sending round
    /// `k + 1` from round `k`'s receive handler, so every round is its own
    /// journey rather than one endless chain.
    pub fn journey_break(&self) {
        self.current_journey.set(None);
    }

    fn alloc_journey(&self) -> u64 {
        let id = self.next_journey.get();
        self.next_journey.set(id + 1);
        id
    }

    /// The journey a transmit belongs to: the one in flight if the frame
    /// is sent from inside a packet's processing chain, otherwise a fresh
    /// one (an origin send from timer/engine context). Does *not* make the
    /// fresh journey current — it lives only on the wire until delivery.
    pub fn tx_journey(&self) -> u64 {
        match self.current_journey.get() {
            Some(j) => j,
            None => self.alloc_journey(),
        }
    }

    /// A guard was evaluated during an event raise.
    pub fn guard_eval(&self, at_ns: u64, event: Label, kind: GuardKind, matched: bool) {
        self.push(
            at_ns,
            TraceEvent::GuardEval {
                event,
                kind,
                matched,
            },
        );
        let metric = match (kind, matched) {
            (GuardKind::Verified, true) => "verified.accepts",
            (GuardKind::Verified, false) => "verified.rejects",
        };
        self.count(Scope::Guard, event, metric, 1);
    }

    /// The static-bound cross-check for one verified-guard evaluation:
    /// `measured` abstract cycles actually spent against the program's
    /// static worst-case `bound`. Counters only (no ring record), so the
    /// check adds nothing to ring pressure and its absence changes
    /// nothing. A non-zero `cycles.exceeded` means the verifier's bound
    /// was wrong — the invariant the profile suite asserts never happens.
    pub fn guard_cost(&self, event: Label, measured: u64, bound: u64) {
        self.count(Scope::Guard, event, "cycles.measured", measured);
        self.count(Scope::Guard, event, "cycles.bound", bound);
        if measured > bound {
            self.count(Scope::Guard, event, "cycles.exceeded", 1);
        }
    }

    /// Which tier evaluated one verified guard: the compiled closure
    /// chain or the reference interpreter. Counters only (no ring
    /// record), deliberately — the two tiers are observationally
    /// identical, so the ring, the exporters, and every golden must stay
    /// byte-identical whichever tier ran; only this per-tier split in the
    /// registry moves.
    pub fn guard_tier(&self, event: Label, compiled: bool) {
        let metric = if compiled {
            "tier.compiled"
        } else {
            "tier.interpreted"
        };
        self.count(Scope::Guard, event, metric, 1);
    }

    /// A handler began executing. Returns the span-correlation ID the
    /// caller must hand back to [`Recorder::handler_exit`] so the profiler
    /// can pair the records even across ring wraparound.
    pub fn handler_enter(&self, at_ns: u64, event: Label, domain: Label) -> u64 {
        let span = self.next_span.get();
        self.next_span.set(span + 1);
        self.push(
            at_ns,
            TraceEvent::HandlerEnter {
                event,
                domain,
                span,
            },
        );
        self.count(Scope::Handler, event, "invocations", 1);
        self.count(Scope::Domain, domain, "invocations", 1);
        span
    }

    /// A handler finished executing; `span` is the ID its enter returned.
    pub fn handler_exit(&self, at_ns: u64, event: Label, domain: Label, span: u64) {
        self.push(
            at_ns,
            TraceEvent::HandlerExit {
                event,
                domain,
                span,
            },
        );
    }

    /// An over-budget ephemeral handler was terminated (§3.3).
    pub fn handler_terminated(&self, at_ns: u64, event: Label, domain: Label) {
        let reason = self.terminated.label(self);
        self.push(
            at_ns,
            TraceEvent::Drop {
                layer: event,
                reason,
            },
        );
        self.count(Scope::Domain, domain, "terminations", 1);
        self.count(Scope::Drop, reason, "count", 1);
    }

    /// A packet was lost for `loss`: one drop record, counted by reason,
    /// under `nic` for an adapter's loss and under the loss's own layer
    /// otherwise. A count-only loss (see [`Loss`]) is not recorded.
    /// Each loss's labels are interned at its first record, so a drop
    /// interns no string.
    pub fn lose(&self, at_ns: u64, loss: Loss, nic: Option<Label>) {
        debug_assert_eq!(loss.layer().is_none(), nic.is_some(), "{loss:?}");
        if !loss.recorded() {
            return;
        }
        let cell = &self.losses[loss as usize];
        let (layer, reason) = cell.get().unwrap_or_else(|| {
            let layer = match loss.layer() {
                Some(layer) => self.intern(layer),
                None => nic.expect("an adapter's loss names its NIC"),
            };
            let labels = (layer, self.intern(loss.name()));
            cell.set(Some(labels));
            labels
        });
        self.packet_drop(at_ns, nic.unwrap_or(layer), reason);
    }

    /// A packet was dropped at `layer` for `reason`: the record itself,
    /// which [`Recorder::lose`] makes for every named loss.
    pub fn packet_drop(&self, at_ns: u64, layer: Label, reason: Label) {
        self.push(at_ns, TraceEvent::Drop { layer, reason });
        self.count(Scope::Drop, reason, "count", 1);
    }

    /// A frame was handed to the transmitter of `nic` on machine `host` at
    /// `at_ns` (the instant the driver's CPU work finished); the wire costs
    /// follow as explicit durations. `queue_ns <= wait_ns` is the share of
    /// the wait spent behind the NIC's own tx backlog (ring/doorbell queue)
    /// before the wire was even contended; the journey pass attributes it
    /// to a `tx_queue` segment instead of folding it into medium wait.
    /// `journey` is explicit so an origin send (no journey in flight)
    /// records the freshly allocated journey its delivery will inherit
    /// ([`Recorder::tx_journey`]). NIC names repeat across machines, so the
    /// host is what lets the live tier's per-machine scopes attribute a
    /// transmit to the right endpoint. Attributed to the packet currently
    /// in flight, if any — for a forwarded or echoed frame that is the
    /// packet being answered.
    #[allow(clippy::too_many_arguments)]
    pub fn packet_tx(
        &self,
        at_ns: u64,
        nic: Label,
        host: Label,
        bytes: usize,
        queue_ns: u64,
        wait_ns: u64,
        ser_ns: u64,
        prop_ns: u64,
        journey: Option<u64>,
    ) {
        debug_assert!(queue_ns <= wait_ns, "queue wait is a share of the wait");
        self.push_with_journey(
            at_ns,
            TraceEvent::PacketTx {
                nic,
                host,
                bytes: bytes as u32,
                queue_ns,
                wait_ns,
                ser_ns,
                prop_ns,
            },
            journey,
        );
        self.count(Scope::Packet, nic, "tx_frames", 1);
        self.count(Scope::Packet, nic, "tx_bytes", bytes as u64);
        self.count(Scope::Packet, nic, "tx_wait_ns", wait_ns);
        if queue_ns > 0 {
            self.count(Scope::Packet, nic, "tx_queue_ns", queue_ns);
        }
    }

    /// A receive interrupt on machine `host` delivered `frames` frames,
    /// leaving `ring_after` queued. Ring record only — the coalescing
    /// counters are kept by the NIC; the per-frame path records
    /// `frames == 1, ring_after == 0`.
    pub fn rx_interrupt(
        &self,
        at_ns: u64,
        nic: Label,
        host: Label,
        frames: usize,
        ring_after: usize,
    ) {
        self.push(
            at_ns,
            TraceEvent::RxInterrupt {
                nic,
                host,
                frames: frames as u32,
                ring_after: ring_after as u32,
            },
        );
    }

    /// A cancelable engine timer fired.
    pub fn timer_fire(&self, at_ns: u64) {
        self.push(at_ns, TraceEvent::TimerFire);
        let label = self.engine.label(self);
        self.count(Scope::Timer, label, "fires", 1);
    }

    /// A user/kernel boundary crossing (trap, copyin, copyout).
    pub fn crossing(&self, at_ns: u64, dir: CrossDir, bytes: usize) {
        self.push(
            at_ns,
            TraceEvent::Crossing {
                dir,
                bytes: bytes as u32,
            },
        );
        let label = self.crossings[dir as usize].label(self);
        self.count(Scope::Crossing, label, "count", 1);
        self.count(Scope::Crossing, label, "bytes", bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        /// The ring positions the live tier's sampler holds.
        pub(crate) fn live_positions(&self) -> usize {
            self.live.borrow().as_ref().map_or(0, LiveAgg::positions)
        }
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let rec = Recorder::new(8);
        let a = rec.intern("udp_recv");
        let b = rec.intern("ip_recv");
        assert_ne!(a, b);
        assert_eq!(rec.intern("udp_recv"), a);
        assert_eq!(&*rec.name(a), "udp_recv");
        assert_eq!(&*rec.name(b), "ip_recv");
    }

    #[test]
    fn packet_ids_are_sequential_and_attributed() {
        let rec = Recorder::new(32);
        let (p0, _) = rec.packet_arrival(100, rec.intern("Ethernet"), rec.intern(""), 60, None);
        let ev = rec.intern("eth_recv");
        let dom = rec.intern("kernel");
        let span = rec.handler_enter(150, ev, dom);
        assert_eq!(span, 0, "span IDs start at zero");
        assert_eq!(rec.handler_enter(160, ev, dom), 1, "span IDs are dense");
        rec.handler_exit(170, ev, dom, 1);
        rec.handler_exit(180, ev, dom, span);
        rec.packet_done();
        let (p1, _) = rec.packet_arrival(900, rec.intern("Ethernet"), rec.intern(""), 61, None);
        rec.packet_done();
        assert_eq!((p0, p1), (0, 1));
        let evs = rec.events();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[0].packet, Some(0));
        assert_eq!(evs[1].packet, Some(0), "handler attributed to packet 0");
        assert_eq!(evs[5].packet, Some(1));
        assert_eq!(evs[1].at_ns, 150);
        // Counters landed.
        let key = CounterKey {
            scope: Scope::Packet,
            label: rec.intern("Ethernet"),
            metric: "arrivals",
        };
        assert_eq!(rec.registry().get(key), 2);
    }

    #[test]
    fn guard_counters_split_by_kind_and_verdict() {
        let rec = Recorder::new(8);
        let ev = rec.intern("udp_recv");
        rec.guard_eval(1, ev, GuardKind::Verified, true);
        rec.guard_eval(2, ev, GuardKind::Verified, false);
        rec.guard_eval(3, ev, GuardKind::Verified, true);
        let get = |metric| {
            rec.registry().get(CounterKey {
                scope: Scope::Guard,
                label: ev,
                metric,
            })
        };
        assert_eq!(get("verified.accepts"), 2);
        assert_eq!(get("verified.rejects"), 1);
    }
}
