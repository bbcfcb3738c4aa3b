//! Host context recorded with every result: the reported CPU count and
//! the parallelism two threads actually get.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A fixed amount of CPU-bound work with no memory traffic.
fn spin(iterations: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..black_box(iterations) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn time_threads(threads: usize, iterations: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(iterations));
        }
    });
    start.elapsed()
}

/// Spin calibration: the wall time of one thread's work against two
/// threads each doing the same work at once. 2.0 means two real cores,
/// 1.0 means the threads share one.
pub fn effective_parallelism() -> f64 {
    let mut iterations = 1u64 << 20;
    while time_threads(1, iterations) < Duration::from_millis(25) {
        iterations *= 2;
    }
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let one = time_threads(1, iterations).as_secs_f64();
            let two = time_threads(2, iterations).as_secs_f64();
            2.0 * one / two
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

/// The CPU count the standard library reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
