//! The benchmark's own arithmetic: percentiles with the ten-beyond rule,
//! open-loop lateness, and backlog-growth detection. Kept free of any
//! dependency on the system under test so the self-tests pin it alone.

use std::time::{Duration, Instant};

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A timing distribution: median, p99 when enough samples lie beyond
/// it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond p90.
    pub p90: Option<f64>,
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond p99.
    pub p99: Option<f64>,
    /// The p99, or for shorter runs the highest percentile that still
    /// has [`MIN_BEYOND`] samples beyond it (the median at the least).
    pub tail: f64,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let checked = |p| (beyond(n, p) >= MIN_BEYOND).then(|| percentile(&samples, p));
        let p99 = checked(0.99);
        let p50 = percentile(&samples, 0.50);
        // Rank n − 10 leaves exactly ten samples beyond it.
        let highest = n.saturating_sub(MIN_BEYOND).max(n.div_ceil(2)).max(1);
        Summary {
            n,
            p50,
            p90: checked(0.9),
            p99,
            tail: p99.unwrap_or(samples[highest - 1]),
        }
    }
}

/// The quieter half of a run: the samples (in send order) are cut into
/// consecutive windows of `window` samples, the windows are ranked by
/// their median, and the samples of the lower half are returned (at
/// least one window; leftover samples join the last window).
///
/// The host this benchmark runs on has noisy spells of several seconds
/// in which every thread runs several times slower; a whole-run
/// percentile mostly counts how many such spells a run happened to
/// catch. Percentiles over the quieter half track the program: a change
/// that slows every request, or adds stalls shorter than half a window,
/// moves them; a spell on the host does not.
pub fn quieter_half(samples: &[f64], window: usize) -> Vec<f64> {
    let windows = (samples.len() / window.max(1)).max(1);
    let size = samples.len() / windows;
    let mut ranked: Vec<(f64, &[f64])> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            let chunk = &samples[w * size..end];
            (median(chunk), chunk)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = windows.div_ceil(2);
    ranked[..keep]
        .iter()
        .flat_map(|(_, c)| c.iter().copied())
        .collect()
}

/// Largest share of the CPU time the host may take during one repeated
/// measurement (a build, a set-up) for it to count as taken on a quiet
/// host.
pub const QUIET_STEAL: f64 = 0.03;

/// The repeated measurements taken while the host left the CPUs alone.
/// Of `(value, steal share)` pairs, returns the values whose share of
/// CPU time taken by the host is at most `max_steal` — or, when fewer
/// than half are, the half with the least steal (ties in run order).
///
/// A two-thread build that loses a CPU for a moment stalls at its next
/// barrier, so on this host a few percent of steal slows it by tens of
/// percent. Steal comes in bursts of a second or two; the selection
/// uses the host's own counter, not the measured value, so on a quiet
/// host it keeps every sample.
pub fn least_stolen(samples: &[(f64, f64)], max_steal: f64) -> Vec<f64> {
    let quiet: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 <= max_steal)
        .map(|s| s.0)
        .collect();
    let half = samples.len().div_ceil(2);
    if quiet.len() >= half {
        return quiet;
    }
    let mut by_steal: Vec<&(f64, f64)> = samples.iter().collect();
    by_steal.sort_by(|a, b| a.1.total_cmp(&b.1));
    by_steal[..half].iter().map(|s| s.0).collect()
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// The open-loop send schedule: send `i` is due at `start + i / rate`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// How many sends are due at `now` (sends `0..count` are due).
    pub fn due_count(&self, now: Instant) -> usize {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        (elapsed * self.rate).floor() as usize + 1
    }
}

/// How late a send went out relative to its due time (zero if early).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Latency as an open-loop client sees it: from the *due* time, so a
/// generator stall is charged to every request it delayed.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Backlog (sent minus answered) samples taken at a fixed period over a
/// run. The backlog grows when the second half's mean exceeds the first
/// half's by more than `slack` requests *and* keeps rising into the last
/// quarter — a server keeping up shows a flat, noisy backlog; one that
/// does not accumulates it steadily.
pub fn backlog_growing(samples: &[u64], slack: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let half = samples.len() / 2;
    let quarter = samples.len() / 4;
    let first = mean(&samples[..half]);
    let second = mean(&samples[half..]);
    let last = mean(&samples[samples.len() - quarter..]);
    second > first + slack && last > second
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_stolen_keeps_quiet_samples_and_at_least_half() {
        let quiet_host = [(1.0, 0.0), (2.0, 0.01), (3.0, 0.0)];
        assert_eq!(least_stolen(&quiet_host, 0.03), vec![1.0, 2.0, 3.0]);
        let one_burst = [(1.0, 0.0), (9.0, 0.2), (2.0, 0.0), (3.0, 0.02)];
        assert_eq!(least_stolen(&one_burst, 0.03), vec![1.0, 2.0, 3.0]);
        // Stolen throughout: the half with the least steal, in run order
        // where the steal ties.
        let busy_host = [(5.0, 0.2), (4.0, 0.1), (6.0, 0.3), (7.0, 0.1)];
        assert_eq!(least_stolen(&busy_host, 0.03), vec![4.0, 7.0]);
        assert_eq!(least_stolen(&[(8.0, 0.5)], 0.03), vec![8.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let ok = Summary::of((0..1000).map(f64::from).collect());
        assert_eq!(ok.n, 1000);
        assert_eq!(ok.p99, Some(989.0));
        assert_eq!(ok.tail, 989.0);
        assert_eq!(ok.p90, Some(899.0));
        let short = Summary::of((0..999).map(f64::from).collect());
        assert_eq!(short.p99, None);
        // The tail falls back to the highest percentile with ten beyond.
        assert_eq!(short.tail, 988.0);
        assert_eq!(Summary::of(vec![1.0, 2.0, 3.0]).tail, 2.0);
    }

    #[test]
    fn quieter_half_drops_the_noisy_spells() {
        // Four windows of 1000; two fall in a noisy spell, 10x slower.
        let mut s: Vec<f64> = (0..4000).map(|i| (i % 1000) as f64).collect();
        for x in &mut s[1000..3000] {
            *x *= 10.0;
        }
        let quiet = quieter_half(&s, 1000);
        assert_eq!(quiet.len(), 2000);
        assert_eq!(Summary::of(quiet).p99, Some(989.0));
        // The whole run's p99 is the spell's.
        assert_eq!(Summary::of(s.clone()).p99, Some(9790.0));
        // A slowdown everywhere still shows.
        let slower: Vec<f64> = s.iter().map(|x| x * 1.2).collect();
        assert!(Summary::of(quieter_half(&slower, 1000)).p50 > 590.0);
        // Short runs are one window; leftovers join the last window.
        assert_eq!(quieter_half(&s[..999], 1000).len(), 999);
        assert_eq!(quieter_half(&s[..2500], 1000).len(), 1250);
        assert_eq!(quieter_half(&s[..3500], 1000).len(), 2334);
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!(a.p50, 2.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 3.0);
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        let t0 = Instant::now();
        let sched = Schedule {
            start: t0,
            rate: 1000.0,
        };
        let due = sched.due(5); // 5 ms after start
        assert_eq!(due - t0, Duration::from_millis(5));
        // Sent 2 ms late, answered 3 ms after the late send.
        let sent = due + Duration::from_millis(2);
        let done = sent + Duration::from_millis(3);
        assert_eq!(lateness(due, sent), Duration::from_millis(2));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(5));
        // Early sends are not negative lateness.
        assert_eq!(
            lateness(due, due - Duration::from_millis(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn due_count_includes_every_send_whose_time_has_come() {
        let t0 = Instant::now();
        let sched = Schedule {
            start: t0,
            rate: 100.0,
        };
        assert_eq!(sched.due_count(t0), 1);
        assert_eq!(sched.due_count(t0 + Duration::from_millis(9)), 1);
        assert_eq!(sched.due_count(t0 + Duration::from_millis(10)), 2);
        // A sender that wakes 35 ms late owes four sends at once.
        assert_eq!(sched.due_count(t0 + Duration::from_millis(35)), 4);
    }

    #[test]
    fn flat_noisy_backlog_is_not_growing() {
        let flat: Vec<u64> = (0..100).map(|i| [0, 3, 1, 2, 0, 4][i % 6]).collect();
        assert!(!backlog_growing(&flat, 4.0));
        // One burst in the middle that drains again is not growth.
        let mut burst = flat.clone();
        burst[50] = 60;
        assert!(!backlog_growing(&burst, 4.0));
    }

    #[test]
    fn steadily_rising_backlog_is_growing() {
        let rising: Vec<u64> = (0..100).map(|i| i / 2).collect();
        assert!(backlog_growing(&rising, 4.0));
        // Too few samples to judge.
        assert!(!backlog_growing(&[0, 10, 20], 4.0));
    }
}
