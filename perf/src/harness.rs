//! Rounds, sets and the clocks around them.
//!
//! A round builds a fresh `World`, resets the mbuf cluster pool, and runs the
//! world to drain. Set-up is excluded from `host_ns_per_pkt` and the two
//! per-packet allocation metrics; `peak_heap_mb` covers the whole round.

use std::time::{Duration, Instant};

use plexus_net::mbuf;

use crate::alloc;
use crate::slices::{self, Floor};
use crate::spans::{self, span};
use crate::workloads::{Input, Outcome, Workload};

/// Timed rounds when neither `--rounds` nor `--seconds` is given.
pub const DEFAULT_ROUNDS: usize = 60;
/// Fewest timed rounds a time budget may cut a workload to.
const MIN_ROUNDS: usize = 6;
/// Constructions of the workload's world timed after every round of an
/// untraced set, for `setup_s`: at least this many, and as many as fit in
/// `SETUP_BUDGET`. Spread over the whole set, so that a noisy period cannot
/// cover them all.
pub const SETUPS_PER_ROUND: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(2);

/// How long a series of rounds runs: at least `min` rounds, at most `max`,
/// and past `min` no longer than `seconds` of host time per workload.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub min: usize,
    pub max: usize,
    pub seconds: f64,
}

impl Budget {
    pub fn rounds(n: usize) -> Budget {
        Budget {
            min: n,
            max: n,
            seconds: 0.0,
        }
    }

    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            min: MIN_ROUNDS,
            max: usize::MAX,
            seconds,
        }
    }
}

/// One round: what it did on the simulated side, and what it cost the host.
pub struct Round {
    pub outcome: Outcome,
    /// Host ns of the timed phases: run, plus export on `traced_export`.
    pub run_ns: f64,
    /// `alloc` + `realloc` calls and bytes requested during those phases.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap over the whole round, above the live size at its start.
    pub peak_bytes: u64,
}

impl Round {
    pub fn per_pkt(&self, n: u64) -> f64 {
        n as f64 / self.outcome.pkts.max(1) as f64
    }
}

/// Runs one round of `w`; the second value is its timed phases slice by slice.
pub fn run_round(w: &Workload, input: &Input) -> (Round, Vec<u32>) {
    mbuf::reset_cluster_pool();
    alloc::reset_peak();
    let live_at_start = alloc::snapshot().2;
    let round = span("round");
    let mut built = {
        let _s = span("setup");
        w.build(input)
    };
    slices::start();
    let (calls0, bytes0, ..) = alloc::snapshot();
    built.run();
    let (calls1, bytes1, _, peak) = alloc::snapshot();
    let slices = slices::stop();
    drop(round);
    let outcome = built.outcome(input);
    built.teardown();
    let round = Round {
        outcome,
        run_ns: slices.iter().map(|s| f64::from(*s)).sum(),
        allocs: calls1 - calls0,
        alloc_bytes: bytes1 - bytes0,
        peak_bytes: (peak - live_at_start) as u64,
    };
    (round, slices)
}

/// On-CPU nanoseconds of this process so far, from `/proc/self/schedstat`;
/// `None` where the kernel does not provide it.
fn oncpu_ns() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The rounds of one workload and what they reduce to.
pub struct Series {
    pub workload: Workload,
    pub input: Input,
    pub rounds: Vec<Round>,
    /// The timed phases of the rounds, slice by slice.
    run_floor: Floor,
    /// The timed constructions (see [`SETUPS_PER_ROUND`]), slice by slice:
    /// set-up is cut at the end of every `attach` and `bind`.
    setup_floor: Floor,
}

impl Series {
    pub fn new(workload: Workload, input: Input) -> Series {
        Series {
            workload,
            input,
            rounds: Vec::new(),
            run_floor: Floor::default(),
            setup_floor: Floor::default(),
        }
    }

    /// The gated estimate of host ns per packet (see [`Floor`]) and its
    /// half-set spread.
    pub fn host_ns_per_pkt(&self) -> (f64, f64) {
        let pkts = self.rounds[0].outcome.pkts.max(1) as f64;
        (self.run_floor.quiet_ns() / pkts, self.run_floor.spread())
    }

    /// `setup_s` and its half-set spread, from the timed constructions.
    pub fn setup_s(&self) -> (f64, f64) {
        (self.setup_floor.quiet_ns() / 1e9, self.setup_floor.spread())
    }

    /// Whole-round host ns per packet, round by round (diagnostics).
    pub fn ns_per_pkt(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.run_ns / r.outcome.pkts.max(1) as f64)
            .collect()
    }

    /// Ops attempted and failed over all rounds. A round whose simulated
    /// digest differs from round 0's (or from `pinned`) fails every op.
    pub fn ops(&self, pinned: Option<&str>) -> (u64, u64) {
        let want = pinned.unwrap_or(&self.rounds[0].outcome.digest);
        self.rounds.iter().fold((0, 0), |(a, f), r| {
            let o = &r.outcome;
            let failed = if o.digest == want {
                o.failed
            } else {
                o.attempted
            };
            (a + o.attempted, f + failed)
        })
    }
}

/// One discarded round of each series: lazy set-up finishes and caches fill
/// before anything is timed.
pub fn warm_up(series: &[Series]) {
    for s in series {
        run_round(&s.workload, &s.input);
    }
}

/// One set of timed rounds: every series gets the same number of rounds,
/// interleaved round-robin so a noisy period hits all of them alike. With
/// `time_setups`, constructions of the same world are timed on their own
/// after each round. Returns the set's on-CPU share.
pub fn run_set(series: &mut [Series], budget: Budget, time_setups: bool) -> f64 {
    let (wall, cpu) = (Instant::now(), oncpu_ns());
    let deadline = wall + Duration::from_secs_f64(budget.seconds * series.len() as f64);
    for done in 0..budget.max {
        if done >= budget.min && Instant::now() >= deadline {
            break;
        }
        for s in series.iter_mut() {
            spans::set_round(done as u32);
            let (round, slices) = run_round(&s.workload, &s.input);
            s.rounds.push(round);
            s.run_floor.add(&slices);
            let since = Instant::now();
            let mut timed = 0;
            while time_setups && (timed < SETUPS_PER_ROUND || since.elapsed() < SETUP_BUDGET) {
                timed += 1;
                slices::start();
                let built = s.workload.build(&s.input);
                s.setup_floor.add(&slices::stop());
                built.teardown();
            }
        }
    }
    match (cpu, oncpu_ns()) {
        (Some(before), Some(after)) => (after - before) / wall.elapsed().as_nanos() as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn smoke_series() -> Vec<Series> {
        workloads::all(100)
            .into_iter()
            .map(|w| Series::new(w, w.input(5)))
            .collect()
    }

    #[test]
    fn rounds_repeat_exactly_and_nothing_fails() {
        let mut series = smoke_series();
        warm_up(&series);
        run_set(&mut series, Budget::rounds(3), false);
        for s in &series {
            let name = s.workload.name;
            let first = &s.rounds[0];
            assert!(first.outcome.pkts > 0 && first.allocs > 0, "{name}");
            for r in &s.rounds {
                assert_eq!(
                    r.outcome, first.outcome,
                    "{name}: the simulated side repeats"
                );
                // The churn workload's counts depend on `HashMap`'s random keys.
                if name != "udp_churn_64ep" {
                    assert_eq!(
                        (r.allocs, r.alloc_bytes, r.peak_bytes),
                        (first.allocs, first.alloc_bytes, first.peak_bytes),
                        "{name}: allocation counts repeat"
                    );
                }
            }
            let (attempted, failed) = s.ops(None);
            assert_eq!(
                (attempted, failed),
                (3 * first.outcome.attempted, 0),
                "{name}"
            );
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_every_op() {
        let mut series = smoke_series();
        series.truncate(1);
        run_set(&mut series, Budget::rounds(2), false);
        let (attempted, failed) = series[0].ops(Some("sim_ns=0 not what ran"));
        assert!(attempted > 0);
        assert_eq!(failed, attempted);
        let pinned = series[0].rounds[0].outcome.digest.clone();
        assert_eq!(series[0].ops(Some(&pinned)).1, 0);
    }

    #[test]
    fn set_up_is_outside_the_per_packet_counts() {
        // 256 binds cost thousands of allocations; none may land in the run phase.
        let demux = workloads::all(100).remove(1);
        let input = demux.input(5);
        let (before, ..) = alloc::snapshot();
        let built = demux.build(&input);
        let setup_allocs = alloc::snapshot().0 - before;
        built.teardown();
        let (round, _) = run_round(&demux, &input);
        assert!(setup_allocs > 256 * 10, "{setup_allocs}");
        assert!(
            round.allocs < setup_allocs,
            "{} vs {setup_allocs}",
            round.allocs
        );
    }

    #[test]
    fn constructions_are_timed_after_every_round() {
        let mut series = smoke_series();
        series.truncate(2);
        run_set(&mut series, Budget::rounds(2), true);
        for s in &series {
            let (secs, spread) = s.setup_s();
            assert!(secs > 0.0 && spread >= 0.0);
            let (ns, spread) = s.host_ns_per_pkt();
            assert!(ns > 0.0 && spread == 0.0, "two rounds are too few to split");
        }
    }
}
