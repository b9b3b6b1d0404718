//! Windowed time-series telemetry over the flight-recorder ring.
//!
//! [`build`] folds the retained [`crate::TraceRecord`] stream into fixed
//! simulated-time windows (default width [`DEFAULT_WINDOW_NS`]) and emits
//! per-window goodput, drop counts by reason, rx-ring highwater,
//! interrupt rate, and nearest-rank p50/p99 latency. Whole-run aggregates
//! (the stats JSON, the bench reports) hide transients — a 50 ms queue
//! buildup in the first tenth of an overload run vanishes into a healthy
//! mean — and the windowed series is what makes them visible and, via the
//! worst-window metrics, gateable in CI.
//!
//! Like the profiler this is a *post-hoc* fold: the recording hot path
//! stays zero-alloc (`Copy` records into the preallocated ring; latency
//! samples via [`crate::Recorder::sample`] are one ring push plus a
//! histogram bump), and all the windowing work happens after the run.
//! [`timeline_json`] emits integers in deterministic key order, so two
//! runs of the same scenario produce byte-identical output — the same
//! contract every other exporter honors.

use std::collections::BTreeMap;

use crate::json::{escaped, or_null, put};
use crate::recorder::Interner;
use crate::{Label, Recorder, TraceEvent};

/// Default window width: 10 ms of simulated time.
pub const DEFAULT_WINDOW_NS: u64 = 10_000_000;

/// Aggregates for one fixed window of simulated time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Window index; the window covers
    /// `[index * window_ns, (index + 1) * window_ns)`.
    pub index: u64,
    /// Frames that arrived at any NIC in this window.
    pub arrivals: u64,
    /// Bytes across those arrivals.
    pub arrival_bytes: u64,
    /// Frames handed to any transmitter in this window.
    pub tx_frames: u64,
    /// Bytes across those transmits.
    pub tx_bytes: u64,
    /// Worst transmit queueing delay observed in this window.
    pub tx_wait_max_ns: u64,
    /// Worst tx-ring/doorbell queue share of a transmit wait in this
    /// window (the `queue_ns` part of `PacketTx`; always `<=`
    /// `tx_wait_max_ns`'s source waits).
    pub tx_queue_max_ns: u64,
    /// Latency samples completed in this window (the goodput series).
    pub completions: u64,
    /// Nearest-rank median of this window's latency samples.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile of this window's latency samples.
    pub p99_ns: u64,
    /// Receive interrupts fired in this window.
    pub interrupts: u64,
    /// Frames delivered by those interrupts.
    pub interrupt_frames: u64,
    /// Highest rx-ring occupancy seen at any interrupt in this window
    /// (frames taken plus frames still queued).
    pub rx_ring_highwater: u64,
    /// Drops in this window as `(layer, reason) -> count`.
    pub drops: BTreeMap<(String, String), u64>,
}

/// What a window holds only while it accumulates: the raw material of
/// the fields [`Window::update`] cannot maintain incrementally.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Latency samples, reduced to p50/p99 by [`Window::seal`] — `None`
    /// from then on, so a late sample cannot grow a freed buffer.
    samples: Option<Vec<u64>>,
    /// Drops keyed by interned labels (the record path never touches the
    /// interner); [`Pending::drops`] resolves them for a report.
    drops: BTreeMap<(Label, Label), u64>,
}

impl Pending {
    /// An empty window `index`, open for [`Window::update`].
    pub(crate) fn open(index: u64) -> (Window, Pending) {
        let window = Window {
            index,
            ..Window::default()
        };
        let pending = Pending {
            samples: Some(Vec::new()),
            drops: BTreeMap::new(),
        };
        (window, pending)
    }

    /// Whether [`Window::seal`] has fixed this window's percentiles.
    pub(crate) fn sealed(&self) -> bool {
        self.samples.is_none()
    }

    pub(crate) fn drop_count(&self) -> u64 {
        self.drops.values().sum()
    }

    /// The drops as the `(layer, reason) -> count` map [`Window::drops`]
    /// reports, with labels resolved through `names`.
    pub(crate) fn drops(&self, names: &Interner) -> BTreeMap<(String, String), u64> {
        let name = |l| names.get(l).to_owned();
        self.drops
            .iter()
            .map(|(&(layer, reason), &n)| ((name(layer), name(reason)), n))
            .collect()
    }
}

impl Window {
    /// Total drops in this window across all `(layer, reason)` keys.
    pub fn drop_count(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Folds one record's event into this window — the one per-event
    /// update, called by the post-hoc [`build`] and by the live tier's
    /// feed, which is why the two agree window for window.
    pub(crate) fn update(&mut self, event: &TraceEvent, pending: &mut Pending) {
        match *event {
            TraceEvent::PacketArrival { bytes, .. } => {
                self.arrivals += 1;
                self.arrival_bytes += u64::from(bytes);
            }
            TraceEvent::PacketTx {
                bytes,
                queue_ns,
                wait_ns,
                ..
            } => {
                self.tx_frames += 1;
                self.tx_bytes += u64::from(bytes);
                self.tx_wait_max_ns = self.tx_wait_max_ns.max(wait_ns);
                self.tx_queue_max_ns = self.tx_queue_max_ns.max(queue_ns);
            }
            TraceEvent::LatencySample { ns, .. } => {
                self.completions += 1;
                if let Some(samples) = pending.samples.as_mut() {
                    samples.push(ns);
                }
            }
            TraceEvent::RxInterrupt {
                frames, ring_after, ..
            } => {
                self.interrupts += 1;
                self.interrupt_frames += u64::from(frames);
                self.rx_ring_highwater = self
                    .rx_ring_highwater
                    .max(u64::from(frames) + u64::from(ring_after));
            }
            TraceEvent::Drop { layer, reason } => {
                *pending.drops.entry((layer, reason)).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Fixes the percentiles from the samples seen so far and frees them.
    pub(crate) fn seal(&mut self, pending: &mut Pending) {
        let mut samples = pending.samples.take().expect("window sealed twice");
        samples.sort_unstable();
        self.p50_ns = percentile(&samples, 50.0);
        self.p99_ns = percentile(&samples, 99.0);
    }
}

/// The windowed fold of one recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// Window width in simulated nanoseconds.
    pub window_ns: u64,
    /// Dense windows from simulated time zero through the last record.
    pub windows: Vec<Window>,
    /// Records the ring overwrote before the fold — non-zero means early
    /// windows under-report.
    pub truncated_records: u64,
}

/// The window with the highest p99 latency (ties go to the earliest
/// window), or `None` when no window completed a sample.
pub fn worst_p99_window(windows: &[Window]) -> Option<&Window> {
    let sampled = windows.iter().filter(|w| w.completions > 0);
    sampled.max_by(|a, b| a.p99_ns.cmp(&b.p99_ns).then(b.index.cmp(&a.index)))
}

/// The window with the most drops (ties go to the earliest window), or
/// `None` when nothing was dropped.
pub fn worst_drop_window(windows: &[Window]) -> Option<&Window> {
    let dropping = windows.iter().filter(|w| w.drop_count() > 0);
    dropping.max_by_key(|w| (w.drop_count(), std::cmp::Reverse(w.index)))
}

/// Nearest-rank percentile over a sorted slice (`q` in percent; 0 for an
/// empty slice) — the one definition behind every p50/p99 in the
/// timelines, the profiles and the bench reports.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The most windows one fold spans. Windows are dense from time zero, so
/// a width that needs more is refused rather than allocated.
pub(crate) const MAX_WINDOWS: u64 = 1 << 20;

/// The last timestamp in the ring. Transmit records are stamped at their
/// (possibly future) handover instant, so the ring is not sorted by
/// timestamp: take the max.
fn last_ns(rec: &Recorder) -> Option<u64> {
    rec.ring().iter().map(|r| r.at_ns).max()
}

/// The narrowest window [`build`] accepts for `rec`'s retained ring: the
/// one that spreads it over exactly [`MAX_WINDOWS`].
pub(crate) fn min_window_ns(rec: &Recorder) -> u64 {
    last_ns(rec).unwrap_or(0) / MAX_WINDOWS + 1
}

/// Folds the recorder's retained ring into fixed `window_ns`-wide windows.
///
/// # Panics
///
/// Panics if `window_ns` is zero or narrower than [`min_window_ns`].
pub fn build(rec: &Recorder, window_ns: u64) -> Timeline {
    assert!(window_ns > 0, "window width must be positive");
    let n_windows = last_ns(rec).map_or(0, |last_ns| last_ns / window_ns + 1);
    // (The message's walk over the ring happens only on failure.)
    assert!(
        n_windows <= MAX_WINDOWS,
        "window width {window_ns} ns is below {} ns",
        min_window_ns(rec)
    );
    let ring = rec.ring();
    let mut open: Vec<(Window, Pending)> = (0..n_windows).map(Pending::open).collect();
    for r in ring.iter() {
        let (w, pending) = &mut open[(r.at_ns / window_ns) as usize];
        w.update(&r.event, pending);
    }
    let names = rec.names();
    let windows = open
        .into_iter()
        .map(|(mut w, mut pending)| {
            w.seal(&mut pending);
            w.drops = pending.drops(&names);
            w
        })
        .collect();

    Timeline {
        window_ns,
        windows,
        truncated_records: rec.overwritten(),
    }
}

/// Renders the timeline as deterministic JSON (schema
/// `plexus.timeline.v1`): integers only, fixed key order, windows dense
/// from time zero.
pub fn timeline_json(t: &Timeline) -> String {
    let mut out = String::from("{\n  \"schema\": \"plexus.timeline.v1\",\n");
    put!(out, "  \"window_ns\": {},\n", t.window_ns);
    put!(out, "  \"truncated_records\": {},\n", t.truncated_records);
    worst_windows_json(&mut out, &t.windows);
    windows_json(&mut out, &t.windows, t.window_ns);
    out
}

/// The `worst_p99_window` / `worst_drop_window` lines the timeline and
/// the live document share.
pub(crate) fn worst_windows_json(out: &mut String, windows: &[Window]) {
    let worst_p99 = or_null(worst_p99_window(windows).map(|w| w.index));
    put!(out, "  \"worst_p99_window\": {worst_p99},\n");
    let worst_drop = or_null(worst_drop_window(windows).map(|w| w.index));
    put!(out, "  \"worst_drop_window\": {worst_drop},\n");
}

/// The closing `windows` array of both documents, one window per line.
pub(crate) fn windows_json(out: &mut String, windows: &[Window], window_ns: u64) {
    out.push_str("  \"windows\": [");
    for (i, w) in windows.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        window_json(out, w, window_ns);
    }
    out.push_str(if windows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
}

/// Appends one window as a JSON object — shared by [`timeline_json`] and
/// the live tier's `plexus.live.v1` emitter, so value-identical windows
/// are also byte-identical on the wire.
pub fn window_json(out: &mut String, w: &Window, window_ns: u64) {
    let (index, start_ns, arrivals, arrival_bytes) =
        (w.index, w.index * window_ns, w.arrivals, w.arrival_bytes);
    let (tx_frames, tx_bytes, tx_wait, tx_queue) =
        (w.tx_frames, w.tx_bytes, w.tx_wait_max_ns, w.tx_queue_max_ns);
    let (completions, p50_ns, p99_ns, interrupts) =
        (w.completions, w.p50_ns, w.p99_ns, w.interrupts);
    let (interrupt_frames, highwater) = (w.interrupt_frames, w.rx_ring_highwater);
    put!(
        out,
        "{{\"index\": {index}, \"start_ns\": {start_ns}, \"arrivals\": {arrivals}, \
         \"arrival_bytes\": {arrival_bytes}, \"tx_frames\": {tx_frames}, \"tx_bytes\": {tx_bytes}, \
         \"tx_wait_max_ns\": {tx_wait}, \"tx_queue_max_ns\": {tx_queue}, \
         \"completions\": {completions}, \"p50_ns\": {p50_ns}, \"p99_ns\": {p99_ns}, \
         \"interrupts\": {interrupts}, \"interrupt_frames\": {interrupt_frames}, \
         \"rx_ring_highwater\": {highwater}, \"drops\": ["
    );
    for (j, ((layer, reason), n)) in w.drops.iter().enumerate() {
        let (sep, layer, reason) = (
            if j > 0 { ", " } else { "" },
            escaped(layer),
            escaped(reason),
        );
        put!(
            out,
            "{sep}{{\"layer\": \"{layer}\", \"reason\": \"{reason}\", \"count\": {n}}}"
        );
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn windows_are_dense_and_events_land_in_the_right_one() {
        let rec = Recorder::new(64);
        rec.packet_arrival(500, rec.intern("Ethernet"), rec.intern(""), 60, None);
        rec.packet_done();
        rec.packet_arrival(1_500, rec.intern("Ethernet"), rec.intern(""), 40, None);
        rec.packet_drop(1_600, "ip", "no_route");
        rec.packet_done();
        let hist = rec.intern("rtt");
        rec.sample(3_500, hist, 42);
        rec.sample(3_600, hist, 100);
        rec.rx_interrupt(3_700, rec.intern("Ethernet"), rec.intern(""), 4, 2);

        let t = build(&rec, 1_000);
        assert_eq!(t.windows.len(), 4, "dense through the last record");
        assert_eq!(t.windows[0].arrivals, 1);
        assert_eq!(t.windows[0].arrival_bytes, 60);
        assert_eq!(t.windows[1].arrivals, 1);
        assert_eq!(t.windows[1].drop_count(), 1);
        assert_eq!(
            t.windows[2],
            Window {
                index: 2,
                ..Window::default()
            }
        );
        let w3 = &t.windows[3];
        assert_eq!(w3.completions, 2);
        assert_eq!(w3.p50_ns, 42);
        assert_eq!(w3.p99_ns, 100);
        assert_eq!(w3.interrupts, 1);
        assert_eq!(w3.rx_ring_highwater, 6);
        assert_eq!(worst_p99_window(&t.windows).unwrap().index, 3);
        assert_eq!(worst_drop_window(&t.windows).unwrap().index, 1);
    }

    #[test]
    fn future_stamped_tx_records_extend_the_window_range() {
        let rec = Recorder::new(64);
        rec.packet_arrival(500, rec.intern("Ethernet"), rec.intern(""), 60, None);
        // A queued transmit whose handover instant postdates every other
        // record: the window range must still cover it.
        rec.packet_tx(
            2_500,
            rec.intern("Ethernet"),
            rec.intern(""),
            60,
            0,
            0,
            0,
            0,
            rec.current_journey(),
        );
        rec.packet_done();
        let t = build(&rec, 1_000);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[2].tx_frames, 1);
    }

    #[test]
    fn the_narrowest_window_spreads_the_run_over_max_windows() {
        let rec = Recorder::new(8);
        assert_eq!(min_window_ns(&rec), 1, "an empty ring folds at any width");
        let hist = rec.intern("rtt");
        rec.sample(3 * MAX_WINDOWS - 1, hist, 7);
        assert_eq!(min_window_ns(&rec), 3);
        assert_eq!(
            (3 * MAX_WINDOWS - 1) / 3 + 1,
            MAX_WINDOWS,
            "exactly the cap"
        );
        rec.sample(3 * MAX_WINDOWS, hist, 7);
        assert_eq!(min_window_ns(&rec), 4);
    }

    #[test]
    #[should_panic(expected = "below 4 ns")]
    fn a_window_narrower_than_that_is_refused_not_allocated() {
        let rec = Recorder::new(8);
        rec.sample(3 * MAX_WINDOWS, rec.intern("rtt"), 7);
        build(&rec, 3);
    }

    #[test]
    fn worst_window_ties_go_to_the_earliest() {
        let rec = Recorder::new(64);
        let hist = rec.intern("rtt");
        rec.sample(100, hist, 7);
        rec.sample(1_100, hist, 7);
        let t = build(&rec, 1_000);
        assert_eq!(worst_p99_window(&t.windows).unwrap().index, 0);
    }

    #[test]
    fn timeline_json_is_valid_and_deterministic() {
        let make = || {
            let rec = Recorder::new(64);
            rec.packet_arrival(500, rec.intern("Ethernet"), rec.intern(""), 60, None);
            rec.packet_drop(700, "udp", "no_port");
            rec.packet_done();
            let hist = rec.intern("rtt");
            rec.sample(900, hist, 55);
            timeline_json(&build(&rec, 1_000))
        };
        let a = make();
        assert_eq!(a, make());
        validate(&a).expect("timeline JSON well-formed");
        assert!(a.contains("\"schema\": \"plexus.timeline.v1\""));
        assert!(a.contains("\"worst_p99_window\": 0"));
        assert!(a.contains("\"reason\": \"no_port\""));
    }

    #[test]
    fn empty_recorder_yields_an_empty_timeline() {
        let rec = Recorder::new(8);
        let t = build(&rec, DEFAULT_WINDOW_NS);
        assert!(t.windows.is_empty());
        validate(&timeline_json(&t)).expect("empty timeline JSON");
    }
}
