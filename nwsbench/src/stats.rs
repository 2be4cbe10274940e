//! Order statistics, the growing-backlog rule and the update-to-visible
//! matcher: the pure parts of the benchmark, unit-tested on synthetic data.

/// Nearest-rank percentile `q` (0 < q <= 100) of `sorted` (ascending): the
/// smallest sample with at least `q`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of percentile `q` among `n > 0` samples. The
/// product is nudged down so a rounding error in `q / 100 · n` (99.9% of
/// 10 000 is 9990.000000000002) cannot push the rank up by one.
fn rank(n: usize, q: f64) -> usize {
    let exact = (q / 100.0) * n as f64;
    ((exact - exact * 1e-12).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The percentiles a tail may be reported at, highest last.
pub const TAIL_LEVELS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest of [`TAIL_LEVELS`] that leaves at least ten samples beyond
/// it: the highest percentile `n` samples can support. `None` below 11
/// samples, where even the median has fewer than ten beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= 10)
}

/// A sample set of one timing, summarised on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile `q`.
    pub fn pct(&self, q: f64) -> Option<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q)
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.pct(50.0)
    }
}

/// The percentile taken across a run's windows for every end-to-end
/// timing: the median, so one stalled window does not move the run's
/// figure.
pub const ACROSS_WINDOWS_Q: f64 = 50.0;

/// Per-window nearest-rank percentile `q` of `(time_s, value)` samples
/// grouped into consecutive `window_s` windows, then the
/// [`ACROSS_WINDOWS_Q`] percentile of those. Windows with fewer than
/// `min_per_window` samples are skipped.
pub fn windowed(
    samples: &[(f64, f64)],
    window_s: f64,
    q: f64,
    min_per_window: usize,
) -> Option<f64> {
    let mut by_window: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        by_window
            .entry((t / window_s).floor() as i64)
            .or_default()
            .push(v);
    }
    let mut per_window: Vec<f64> = by_window
        .into_values()
        .filter(|w| w.len() >= min_per_window)
        .filter_map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, q)
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    percentile(&per_window, ACROSS_WINDOWS_Q)
}

/// Whether a lane's backlog grew over a fixed-rate step: more requests
/// outstanding at its end than at its midpoint, beyond 10 ms worth of the
/// offered `rate` (at least 2). A growing backlog means the rate
/// saturates the daemon.
pub fn backlog_grows(mid: usize, end: usize, rate: f64) -> bool {
    let slack = ((rate * 0.010).ceil() as usize).max(2);
    end > mid + slack
}

/// An acknowledged update: when it was due to be sent, when the ack came
/// back and the commit epoch the ack carried.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Scheduled send time, seconds since the run's origin.
    pub sent_s: f64,
    /// Ack receive time, seconds.
    pub acked_s: f64,
    /// Commit epoch carried by the ack.
    pub epoch: u64,
}

/// A read answered from the published snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Poll {
    /// Scheduled send time, seconds.
    pub sent_s: f64,
    /// Response receive time, seconds.
    pub recv_s: f64,
    /// Epoch the response carried.
    pub epoch: u64,
}

/// Update-to-visible latency of each ack, in ms: from the update's
/// scheduled send to the first read answered after that send whose epoch
/// is at or after the ack's epoch. `polls` must be in receive order.
/// Updates no read observed yield `None`.
pub fn visible_latencies(acks: &[Ack], polls: &[Poll]) -> Vec<Option<f64>> {
    acks.iter()
        .map(|a| {
            polls
                .iter()
                .find(|p| p.recv_s >= a.sent_s && p.epoch >= a.epoch)
                .map(|p| (p.recv_s - a.sent_s) * 1e3)
        })
        .collect()
}

/// Read-your-writes violations: reads *sent* after an ack was received
/// that still return an older epoch than the ack's. Returns
/// `(ack index, poll index)` pairs.
pub fn read_your_writes_violations(acks: &[Ack], polls: &[Poll]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, a) in acks.iter().enumerate() {
        for (j, p) in polls.iter().enumerate() {
            if p.sent_s > a.acked_s && p.epoch < a.epoch {
                out.push((i, j));
            }
        }
    }
    out
}

/// Positions where an epoch sequence (one connection, in receive order)
/// goes backwards.
pub fn epoch_regressions(epochs: &[u64]) -> Vec<usize> {
    epochs
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] < w[0])
        .map(|(i, _)| i + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn samples_summaries() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), Some(2.0));
        assert_eq!(s.pct(100.0), Some(4.0));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn growing_backlog_needs_more_than_10_ms_of_load() {
        // 10 ms of load at 1000/s is 10 requests of slack; at 100/s the
        // floor of 2 applies.
        assert!(!backlog_grows(5, 15, 1000.0));
        assert!(backlog_grows(5, 16, 1000.0));
        assert!(!backlog_grows(0, 2, 100.0));
        assert!(backlog_grows(0, 3, 100.0));
    }

    #[test]
    fn windowed_takes_the_median_window() {
        let mut xs = Vec::new();
        for w in 0..5 {
            for i in 0..100 {
                // Windows 1 and 3 run twice as slow.
                let slow = if w % 2 == 1 { 2.0 } else { 1.0 };
                xs.push((f64::from(w) + f64::from(i) / 100.0, slow * f64::from(i)));
            }
        }
        // Fast windows' p90 is 89, slow ones' 178: the median of the five
        // window figures is a fast one.
        assert_eq!(windowed(&xs, 1.0, 90.0, 10), Some(89.0));
        assert_eq!(windowed(&xs, 1.0, 50.0, 10), Some(49.0));
        assert_eq!(windowed(&xs, 1.0, 90.0, 101), None);
    }

    #[test]
    fn visibility_matches_first_read_at_or_after_ack_epoch() {
        let acks = [
            Ack {
                sent_s: 1.0,
                acked_s: 1.020,
                epoch: 5,
            },
            Ack {
                sent_s: 2.0,
                acked_s: 2.015,
                epoch: 6,
            },
        ];
        let polls = [
            Poll {
                sent_s: 0.999,
                recv_s: 1.000,
                epoch: 4,
            },
            // Before the send: must not count even with a newer epoch.
            Poll {
                sent_s: 0.9,
                recv_s: 0.95,
                epoch: 9,
            },
            Poll {
                sent_s: 1.005,
                recv_s: 1.010,
                epoch: 4,
            },
            // Visible before the ack arrives: publish precedes the ack.
            Poll {
                sent_s: 1.012,
                recv_s: 1.018,
                epoch: 5,
            },
            Poll {
                sent_s: 2.030,
                recv_s: 2.031,
                epoch: 6,
            },
        ];
        let v = visible_latencies(&acks, &polls);
        assert!((v[0].unwrap() - 18.0).abs() < 1e-9);
        assert!((v[1].unwrap() - 31.0).abs() < 1e-9);
        let late = [Ack {
            sent_s: 3.0,
            acked_s: 3.01,
            epoch: 7,
        }];
        assert_eq!(visible_latencies(&late, &polls), vec![None]);
    }

    #[test]
    fn stale_read_after_ack_is_a_violation() {
        let acks = [Ack {
            sent_s: 1.0,
            acked_s: 1.02,
            epoch: 5,
        }];
        let polls = [
            Poll {
                sent_s: 1.01,
                recv_s: 1.03,
                epoch: 4,
            },
            Poll {
                sent_s: 1.03,
                recv_s: 1.04,
                epoch: 4,
            },
        ];
        assert_eq!(read_your_writes_violations(&acks, &polls), vec![(0, 1)]);
        assert_eq!(epoch_regressions(&[1, 2, 2, 1, 3]), vec![3]);
    }
}
