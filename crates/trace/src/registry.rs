//! Counters and latency histograms.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;

use crate::recorder::Label;

/// What kind of thing a counter is about. Scopes namespace the label so,
/// e.g., the event name `udp_recv` can carry both handler and guard
/// counters without collision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Per-NIC packet traffic.
    Packet,
    /// Per-event (dispatcher table) raises.
    Event,
    /// Per-event guard evaluation, split verified/closure by the metric.
    Guard,
    /// Per-event handler invocations.
    Handler,
    /// Per-domain (extension / kernel subsystem) accounting — the
    /// substrate for the paper's anti-spoof/anti-snoop bookkeeping.
    Domain,
    /// Drops, keyed by reason.
    Drop,
    /// Engine timers.
    Timer,
    /// User/kernel boundary crossings, keyed by direction.
    Crossing,
    /// Application-defined counters.
    App,
    /// The trace infrastructure's own health (the live tier's sealed
    /// windows, sampled journeys, SLO breaches, late records), so the
    /// stats export shows when the telemetry itself degraded.
    Trace,
}

impl Scope {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Packet => "packet",
            Scope::Event => "event",
            Scope::Guard => "guard",
            Scope::Handler => "handler",
            Scope::Domain => "domain",
            Scope::Drop => "drop",
            Scope::Timer => "timer",
            Scope::Crossing => "crossing",
            Scope::App => "app",
            Scope::Trace => "trace",
        }
    }
}

/// Key of one counter: `(scope, interned label, static metric name)`.
///
/// `Copy`, so steady-state increments do no allocation — the only
/// allocation a counter ever causes is its table slot on first touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterKey {
    /// Namespace of the label.
    pub scope: Scope,
    /// Interned subject (event name, domain name, drop reason, ...).
    pub label: Label,
    /// Metric within the subject (`"invocations"`, `"evals"`, ...).
    pub metric: &'static str,
}

/// A fixed-bucket log2 histogram over nanosecond values.
///
/// Bucket `i` counts values `v` with `floor(log2(v)) == i` (bucket 0 also
/// takes `v == 0`), so 64 buckets cover the entire `u64` range with no
/// configuration and no allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Records one value.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of recorded values (0 when empty). Integer so exports
    /// stay byte-stable.
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket where the cumulative count first reaches `q * count`.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                let hi = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// `(floor_of_bucket, count)` for every non-empty bucket, ascending.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
    }
}

/// Deterministic store of counters and histograms.
///
/// Counters sit in a table indexed by label, each label holding the few
/// keys recorded under it: an increment is an index and a short scan,
/// with no string ordered against another. Snapshots are sorted by key,
/// never by insertion, so exports are reproducible.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RefCell<Vec<Vec<(CounterKey, u64)>>>,
    hists: RefCell<BTreeMap<Label, Histogram>>,
}

impl Registry {
    /// Adds `delta` to a counter (saturating).
    pub(crate) fn add(&self, key: CounterKey, delta: u64) {
        let mut by_label = self.counters.borrow_mut();
        let at = key.label.0 as usize;
        if by_label.len() <= at {
            by_label.resize_with(at + 1, Vec::new);
        }
        match by_label[at].iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n = n.saturating_add(delta),
            None => by_label[at].push((key, delta)),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn get(&self, key: CounterKey) -> u64 {
        let by_label = self.counters.borrow();
        let of_label = by_label.get(key.label.0 as usize);
        let found = of_label.and_then(|l| l.iter().find(|(k, _)| *k == key));
        found.map_or(0, |&(_, n)| n)
    }

    /// Snapshot of every counter, in key order.
    pub fn counters(&self) -> Vec<(CounterKey, u64)> {
        let mut all: Vec<_> = self.counters.borrow().iter().flatten().copied().collect();
        all.sort();
        all
    }

    /// Records a value into the named histogram.
    pub(crate) fn record_hist(&self, name: Label, value_ns: u64) {
        self.hists
            .borrow_mut()
            .entry(name)
            .or_default()
            .record(value_ns);
    }

    /// Clone of the named histogram, if any values were recorded.
    pub fn hist(&self, name: Label) -> Option<Histogram> {
        self.hists.borrow().get(&name).cloned()
    }

    /// Every counter in place, by label, in first-touch order under each.
    pub(crate) fn counter_table(&self) -> Ref<'_, [Vec<(CounterKey, u64)>]> {
        Ref::map(self.counters.borrow(), Vec::as_slice)
    }

    /// Every histogram in place, by label.
    pub(crate) fn hist_table(&self) -> Ref<'_, BTreeMap<Label, Histogram>> {
        self.hists.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn counters_accumulate_and_saturate() {
        let rec = Recorder::new(16);
        let label = rec.intern("udp_recv");
        let key = CounterKey {
            scope: Scope::Handler,
            label,
            metric: "invocations",
        };
        let reg = Registry::default();
        reg.add(key, 2);
        reg.add(key, 3);
        assert_eq!(reg.get(key), 5);
        reg.add(key, u64::MAX);
        assert_eq!(reg.get(key), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 1000 -> bucket 9
        // (floor 512); 1024 -> bucket 10.
        assert_eq!(buckets, vec![(0, 2), (2, 2), (4, 1), (512, 1), (1024, 1)]);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) >= 500 && h.quantile(0.5) <= 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }
}
