//! The benchmark's own span recorder: a pre-allocated `Vec` filled only from
//! `perf/` code, around a round's phases and around every call the benchmark
//! makes into a layer. Off (one thread-local flag test) during the untraced
//! rounds that produce the end-to-end metrics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `Span::parent` of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, or [`NO_PARENT`].
    pub parent: u32,
    pub round: u32,
}

struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    round: u32,
    /// Spans not recorded because the log was full.
    dropped: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Starts recording into a fresh log of `capacity` spans. Every page is
/// touched now, so the traced rounds do not pay first-touch faults.
pub fn enable(capacity: usize) {
    let filler = Span {
        name: "",
        start_ns: 1,
        end_ns: 1,
        parent: NO_PARENT,
        round: 0,
    };
    let mut spans = vec![filler; capacity];
    spans.clear();
    LOG.set(Some(Log {
        epoch: Instant::now(),
        spans,
        open: Vec::with_capacity(16),
        round: 0,
        dropped: 0,
    }));
    ON.set(true);
}

/// Stops recording and hands back the log and the number of dropped spans.
pub fn disable() -> (Vec<Span>, u64) {
    ON.set(false);
    let log = LOG.take().expect("spans::disable without enable");
    assert!(log.open.is_empty(), "span still open at disable");
    (log.spans, log.dropped)
}

/// Tags the spans that follow with `round`.
pub fn set_round(round: u32) {
    LOG.with_borrow_mut(|log| {
        if let Some(log) = log {
            log.round = round;
        }
    });
}

/// Closes its span when dropped.
pub struct Guard(bool);

/// Opens a span named `name` under the innermost open span.
#[inline]
pub fn span(name: &'static str) -> Guard {
    if !ON.get() {
        return Guard(false);
    }
    LOG.with_borrow_mut(|log| {
        let log = log.as_mut().expect("ON implies a log");
        if log.spans.len() == log.spans.capacity() {
            log.dropped += 1;
            return Guard(false);
        }
        let idx = log.spans.len() as u32;
        let parent = log.open.last().copied().unwrap_or(NO_PARENT);
        log.open.push(idx);
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: log.round,
        });
        Guard(true)
    })
}

impl Guard {
    /// Ends this span and starts a sibling named `name` at the same instant:
    /// one clock reading where a close and an open would take two.
    #[inline]
    pub fn lap(&mut self, name: &'static str) {
        if !self.0 {
            return;
        }
        LOG.with_borrow_mut(|log| {
            let log = log.as_mut().expect("an open span implies a log");
            let now_ns = log.epoch.elapsed().as_nanos() as u64;
            let idx = log.open.pop().expect("guards close innermost first");
            log.spans[idx as usize].end_ns = now_ns;
            if log.spans.len() == log.spans.capacity() {
                log.dropped += 1;
                self.0 = false;
                return;
            }
            log.open.push(log.spans.len() as u32);
            log.spans.push(Span {
                name,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: log.spans[idx as usize].parent,
                round: log.round,
            });
        });
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        LOG.with_borrow_mut(|log| {
            let log = log.as_mut().expect("an open span implies a log");
            let end_ns = log.epoch.elapsed().as_nanos() as u64;
            let idx = log.open.pop().expect("guards close innermost first");
            log.spans[idx as usize].end_ns = end_ns;
        });
    }
}

/// Self time of every span: its duration minus the part covered by its child
/// spans. One thread and stack discipline mean siblings never overlap, so the
/// covered part is the sum of the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Per round, the summed self time (ns) and the count of the spans of each name.
pub fn self_by_round(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>> {
    let own = self_times(spans);
    let mut rounds: BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = rounds
            .entry(s.round)
            .or_default()
            .entry(s.name)
            .or_default();
        e.0 += own;
        e.1 += 1;
    }
    rounds
}

/// Writes the log as `{"names": [..], "spans": [[name, start_ns, end_ns,
/// parent, round], ..]}`; `parent` indexes `spans`, -1 at top level.
pub fn write_json(path: &Path, workload: &str, spans: &[Span], dropped: u64) -> io::Result<()> {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    write!(
        w,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"dropped\": {dropped}, \
         \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"round\"], \
         \"names\": [{}], \"spans\": [",
        quoted.join(", ")
    )?;
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("collected above");
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n[{name},{},{},{parent},{}]",
            s.start_ns, s.end_ns, s.round
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            sp("round", 0, 100, NO_PARENT),
            sp("run", 10, 90, 0),
            sp("handler", 20, 40, 1), // first sibling under run
            sp("send", 25, 35, 2),    // nested under handler
            sp("handler", 50, 60, 1), // second sibling under run
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 10, 10]);
        let by_round = self_by_round(&spans);
        assert_eq!(by_round[&0]["handler"], (20, 2));
        assert_eq!(by_round[&0]["run"], (50, 1));
    }

    #[test]
    fn a_lap_starts_a_sibling_where_the_span_ends() {
        enable(8);
        {
            let _outer = span("outer");
            let mut phase = span("first");
            phase.lap("second");
        }
        let (spans, dropped) = disable();
        assert_eq!(dropped, 0);
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(shape, [("outer", NO_PARENT), ("first", 0), ("second", 0)]);
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn recorder_nests_by_stack_and_counts_what_it_drops() {
        assert!(!span("off").0, "recording is off until enabled");
        enable(3);
        set_round(7);
        {
            let _a = span("a");
            let _b = span("b");
        }
        let mut c = span("c");
        c.lap("d"); // the log is full: `c` closes, `d` is dropped
        drop(c);
        drop(span("e"));
        let (spans, dropped) = disable();
        assert_eq!(dropped, 2);
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.round)).collect();
        assert_eq!(
            shape,
            [("a", NO_PARENT, 7), ("b", 0, 7), ("c", NO_PARENT, 7)]
        );
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
            if s.parent != NO_PARENT {
                let p = spans[s.parent as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
    }
}
