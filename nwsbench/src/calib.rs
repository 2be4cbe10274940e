//! Host-speed calibration.
//!
//! The small shared hosts this benchmark runs on change speed by up to 2×
//! for minutes at a time (other tenants' load). A fixed CPU kernel owned
//! by the benchmark is timed beside the measurements; every end-to-end
//! time is reported at reference speed: `raw × REF_MS / kernel time
//! nearby`. The kernel runs no repository code, and it is only timed
//! while no repository code runs in the process (between replans, around
//! set-ups, in pauses of the serving lanes), so no change under test can
//! move it: a code change moves the raw time and not the kernel, so it
//! moves the reported figure by the same factor; a slow phase of the host
//! moves both and cancels. Raw figures are printed beside the normalized
//! ones.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time at reference speed, ms (its typical time in a fast
/// phase of the 2-vCPU host the benchmark was tuned on).
pub const REF_MS: f64 = 2.0;

/// Entries the kernel walks per pass.
const N: usize = 4096;
/// Passes per timing.
const PASSES: usize = 24;

fn table() -> &'static (Vec<u32>, Vec<f64>) {
    static TABLE: OnceLock<(Vec<u32>, Vec<f64>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let idx = (0..N)
            .map(|i| ((i as u64 * 2_654_435_761) % N as u64) as u32)
            .collect();
        let x = (0..N).map(|i| 1.0 + (i % 17) as f64 * 0.01).collect();
        (idx, x)
    })
}

/// One timing of the kernel, ms: a gather through a scrambled index with
/// a logarithm, an exponential and a division per entry, the operation mix
/// of the objective's CSR passes.
pub fn kernel_ms() -> f64 {
    let (idx, x) = table();
    let t = Instant::now();
    let mut acc = 0.0;
    for pass in 0..PASSES {
        let shift = pass as f64 * 1e-3;
        for &i in idx {
            let v = black_box(x[i as usize]) + shift;
            acc += (v.ln() * 0.5).exp() / (1.0 + v);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two kernel timings: its result, its wall time in
/// seconds, and the factor that brings that time to reference speed
/// (`REF_MS` over the mean of the two kernel times).
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = kernel_ms();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let after = kernel_ms();
    (out, secs, 2.0 * REF_MS / (before + after))
}

/// Kernel timings taken through a run, `(time s, ms)`.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// Times the kernel now (`t` seconds on the run's clock).
    pub fn sample(&mut self, t: f64) -> f64 {
        let ms = kernel_ms();
        self.samples.push((t, ms));
        ms
    }

    /// Number of kernel timings taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `n` kernel timings nearest `t`, ms.
    fn nearest(&self, t: f64, n: usize) -> Vec<f64> {
        let mut near: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(ts, ms)| ((ts - t).abs(), ms))
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        near.iter().take(n).map(|&(_, ms)| ms).collect()
    }

    /// The factor that brings a time measured at `t` to reference speed:
    /// `REF_MS` over the median of the five kernel timings nearest `t`.
    pub fn scale_at(&self, t: f64) -> f64 {
        let mut ms = self.nearest(t, 5);
        ms.sort_by(f64::total_cmp);
        match crate::stats::percentile(&ms, 50.0) {
            Some(m) if m > 0.0 => REF_MS / m,
            _ => 1.0,
        }
    }

    /// Like [`scale_at`](Self::scale_at), over the mean of the `n` kernel
    /// timings nearest `t`. The median drops a timing that a preemption
    /// stretched; the mean keeps it, so it also follows how often the host
    /// stalls the process, which a latency tail pays and a median of
    /// timings hides.
    pub fn mean_scale_at(&self, t: f64, n: usize) -> f64 {
        let ms = self.nearest(t, n);
        let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        if mean > 0.0 {
            REF_MS / mean
        } else {
            1.0
        }
    }

    /// Median kernel time over the run, ms.
    pub fn median_ms(&self) -> f64 {
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        ms.sort_by(f64::total_cmp);
        crate::stats::percentile(&ms, 50.0).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_nearest_timings() {
        let mut h = HostSpeed::default();
        for i in 0..10 {
            // Reference speed for t < 5, half speed after.
            let ms = if i < 5 { REF_MS } else { 2.0 * REF_MS };
            h.samples.push((f64::from(i), ms));
        }
        assert!((h.scale_at(1.0) - 1.0).abs() < 1e-12);
        assert!((h.scale_at(8.0) - 0.5).abs() < 1e-12);
        // One timing stretched fourfold near t = 2: the median ignores it,
        // the mean of the five nearest counts it.
        h.samples[2].1 = 4.0 * REF_MS;
        assert!((h.scale_at(2.0) - 1.0).abs() < 1e-12);
        assert!((h.mean_scale_at(2.0, 5) - 5.0 / 8.0).abs() < 1e-12);
        assert!(kernel_ms() > 0.0);
    }
}
