//! The slice clock: the timed phases of a round cut into short slices at the
//! benchmark's own callbacks (every few generator events, every TCP `on_data`,
//! every exporter call; inside set-up, every `attach` and `bind`).
//!
//! The simulation is deterministic, so slice `j` of every round does the same
//! work; only the host's interference differs, and it only ever adds time.
//! Measured on the 2-core sandbox, that interference is bursts far shorter
//! than a round: a 50 µs probe loop keeps the same minimum, ±0.1 %, in every
//! second of a 100 s run whose per-second median moves by 15 %. A 0.1 s round
//! always catches some, and a slow period is one in which more slices are hit,
//! not one in which all run slower — so no percentile of *whole rounds* is
//! steady (p10 over 20 s: quartiles 7 to 15 % apart across ten runs). Taken
//! per slice over the rounds and summed, the minimum is (1 to 5 %): see
//! [`Floor`] and the README.

use std::cell::RefCell;
use std::time::Instant;

/// The slices of the phase being timed. The buffer lives as long as the
/// thread: after the warm-up round has grown it, marking allocates nothing.
struct Clock {
    last: Option<Instant>,
    slices: Vec<u32>,
}

thread_local! {
    static CLOCK: RefCell<Clock> = const {
        RefCell::new(Clock {
            last: None,
            slices: Vec::new(),
        })
    };
}

/// Starts the clock of a timed phase.
pub fn start() {
    CLOCK.with_borrow_mut(|clock| {
        clock.slices.clear();
        clock.last = Some(Instant::now());
    });
}

/// Ends the current slice and starts the next. Does nothing outside a timed phase.
#[inline]
pub fn mark() {
    CLOCK.with_borrow_mut(|clock| {
        if let Some(last) = clock.last {
            let now = Instant::now();
            let ns = now.duration_since(last).as_nanos();
            clock.slices.push(u32::try_from(ns).unwrap_or(u32::MAX));
            clock.last = Some(now);
        }
    });
}

/// Ends the last slice and stops the clock; the slices' host ns, in order.
pub fn stop() -> Vec<u32> {
    mark();
    CLOCK.with_borrow_mut(|clock| {
        clock.last = None;
        clock.slices.clone()
    })
}

/// The least time each slice of a repeated, deterministic piece of work has
/// taken so far, kept apart for the even and the odd repetitions: two
/// interleaved sets that saw the same noisy periods.
#[derive(Default)]
pub struct Floor {
    halves: [Vec<u32>; 2],
    reps: usize,
}

impl Floor {
    /// Folds in one more repetition. Every repetition must be cut alike.
    pub fn add(&mut self, rep: &[u32]) {
        if self.reps > 0 {
            assert_eq!(rep.len(), self.len(), "every repetition is cut alike");
        }
        let half = &mut self.halves[self.reps % 2];
        if self.reps < 2 {
            *half = rep.to_vec();
        } else {
            for (least, ns) in half.iter_mut().zip(rep) {
                *least = (*least).min(*ns);
            }
        }
        self.reps += 1;
    }

    /// Slices per repetition.
    pub fn len(&self) -> usize {
        self.halves[0].len()
    }

    /// Host ns of one repetition on a quiet machine: the sum over slices of
    /// the least time that slice took in any repetition.
    pub fn quiet_ns(&self) -> f64 {
        let [even, odd] = &self.halves;
        let odd = if odd.is_empty() { even } else { odd };
        even.iter()
            .zip(odd)
            .map(|(a, b)| f64::from(*a.min(b)))
            .sum()
    }

    /// Relative distance between the estimates from the even and from the odd
    /// repetitions: the spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.reps < 4 {
            return 0.0;
        }
        let sum = |half: &Vec<u32>| half.iter().map(|ns| f64::from(*ns)).sum::<f64>();
        (sum(&self.halves[0]) - sum(&self.halves[1])).abs() / self.quiet_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor_of(reps: &[&[u32]]) -> Floor {
        let mut floor = Floor::default();
        for rep in reps {
            floor.add(rep);
        }
        floor
    }

    #[test]
    fn the_floor_takes_the_minimum_per_slice_not_per_round() {
        // Each round is hit in another slice: no round is quiet, every slice once is.
        let floor = floor_of(&[&[100, 10, 12], &[10, 100, 10], &[11, 10, 100]]);
        assert_eq!((floor.len(), floor.quiet_ns()), (3, 30.0));
        assert_eq!(floor_of(&[&[100, 10, 12]]).quiet_ns(), 122.0);
        assert_eq!(Floor::default().quiet_ns(), 0.0);
    }

    #[test]
    fn the_spread_holds_the_even_repetitions_against_the_odd() {
        let steady = floor_of(&[&[10, 10], &[10, 10], &[10, 10], &[10, 10]]);
        assert_eq!(steady.spread(), 0.0);
        // Even repetitions bottom out at 20, odd ones at 22: a tenth of 20 apart.
        let split = floor_of(&[&[10, 10], &[11, 11], &[10, 12], &[12, 11]]);
        assert!((split.spread() - 0.1).abs() < 1e-12);
        assert_eq!(
            floor_of(&[&[10], &[20], &[30]]).spread(),
            0.0,
            "too few to split"
        );
    }

    #[test]
    #[should_panic(expected = "cut alike")]
    fn repetitions_of_different_shape_are_refused() {
        floor_of(&[&[1, 2], &[1, 2], &[1, 2, 3]]);
    }

    #[test]
    fn marks_partition_the_time_between_start_and_stop() {
        mark(); // outside a timed phase: nothing to record
        let t = Instant::now();
        start();
        mark();
        mark();
        let slices = stop();
        let wall = t.elapsed().as_nanos() as u64;
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().map(|s| u64::from(*s)).sum::<u64>() <= wall);
        mark(); // stopped: nothing to record
        start();
        assert_eq!(stop().len(), 1, "a new phase starts from an empty log");
    }
}
