//! Host speed. The compute workloads share a host whose speed drifts by a
//! quarter over minutes as other tenants come and go, and every time the
//! program takes moves with it. A fixed reference kernel, the benchmark's
//! own code, is timed between the chunks of a run; the run's times are
//! then scaled to the speed of a reference host, on which the kernel's
//! median is [`REFERENCE_S`].

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host: a 2-vCPU Intel Xeon
/// virtual machine, in quiet spells.
pub const REFERENCE_S: f64 = 3.0e-3;

/// Kernel runs per sample; one sample takes about 30 ms.
const RUNS_PER_SAMPLE: usize = 10;

/// One run of the kernel on the calling thread: logistic-loss gradient
/// steps over a 512 KiB matrix, then histogram accumulation at
/// pseudo-random bins, the two access patterns model fitting spends its
/// time in. Returns the seconds it took.
fn kernel_s() -> f64 {
    const ROWS: usize = 1024;
    const COLS: usize = 64;
    const BINS: usize = 1 << 15;
    let x: Vec<f64> = (0..ROWS * COLS)
        .map(|i| ((i.wrapping_mul(2_654_435_761) % 1000) as f64) / 1000.0 - 0.5)
        .collect();
    let y: Vec<f64> = (0..ROWS).map(|i| (i % 2) as f64).collect();
    let start = Instant::now();
    let mut w = [0.0f64; COLS];
    let mut hist = vec![0.0f64; BINS];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..24 {
        let mut grad = [0.0f64; COLS];
        for (row, &label) in black_box(&x).chunks_exact(COLS).zip(&y) {
            let z: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
            let err = 1.0 / (1.0 + (-z).exp()) - label;
            for (g, a) in grad.iter_mut().zip(row) {
                *g += err * a;
            }
        }
        for (wi, g) in w.iter_mut().zip(&grad) {
            *wi -= 0.1 * g / ROWS as f64;
        }
        for &v in black_box(&x).iter().step_by(3) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            hist[(state as usize) & (BINS - 1)] += v;
        }
    }
    black_box((&w, &hist));
    start.elapsed().as_secs_f64()
}

/// Kernel times collected over one run.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    kernel_s: Vec<f64>,
}

impl HostSpeed {
    /// Times one sample of kernel runs.
    pub fn sample(&mut self) {
        self.kernel_s
            .extend((0..RUNS_PER_SAMPLE).map(|_| kernel_s()));
    }

    /// How many times slower than the reference host this run's host was:
    /// the median kernel time over [`REFERENCE_S`]. `None` before a sample.
    pub fn slowdown(&self) -> Option<f64> {
        stats::median(&self.kernel_s).map(|m| m / REFERENCE_S)
    }

    pub fn runs(&self) -> usize {
        self.kernel_s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_kernel_time_over_the_reference() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.slowdown(), None);
        speed.kernel_s = vec![REFERENCE_S * 2.0, REFERENCE_S, REFERENCE_S * 9.0];
        assert_eq!(speed.slowdown(), Some(2.0));
        speed.sample();
        assert_eq!(speed.runs(), 3 + RUNS_PER_SAMPLE);
        assert!(speed.slowdown().is_some_and(|s| s > 0.0));
    }
}
