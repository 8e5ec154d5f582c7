//! The micro-benchmarks' timing loop (`benches/`): a fixed warm-up, then
//! repeated calls for 200 ms on [`Stopwatch`] — the clock the benchmark's
//! per-layer metrics are taken with — and the mean time per call.

use mcversi_telemetry::Stopwatch;
use std::hint::black_box;
use std::time::Duration;

/// Calls made (and discarded) before the measurement starts.
const WARM_UP_CALLS: u32 = 10;
/// How long each case is measured.
const MEASUREMENT: Duration = Duration::from_millis(200);

/// Times repeated calls of `f` and prints `name` with the mean time per call.
pub fn bench<O>(name: &str, mut f: impl FnMut() -> O) {
    for _ in 0..WARM_UP_CALLS {
        black_box(f());
    }
    let clock = Stopwatch::start();
    let mut calls = 0u64;
    while clock.elapsed() < MEASUREMENT {
        black_box(f());
        calls += 1;
    }
    let per_call_us = clock.elapsed().as_secs_f64() * 1e6 / calls as f64;
    println!("{name:<48} time: {per_call_us:>12.3} µs/iter   ({calls} iters)");
}
