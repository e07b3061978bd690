//! Host facts recorded beside every result: the calibration loop that
//! lets two hosts' numbers be normalised, the two-thread scaling probe
//! that guards the real-backend workloads, and peak memory.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The calibrated unit of work: a dependent multiply-add chain the
/// compiler can neither vectorise nor shorten. The `grain` app spins it
/// for its task bodies and [`probe`] times it, so a task's grain in
/// microseconds is `iters * calib_ns_per_iter / 1000` on any host.
#[inline(never)]
pub fn spin(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    x
}

/// Iterations per call while probing: long enough that the clock read
/// between calls is noise, short enough to stop on time.
const PROBE_CHUNK: u64 = 20_000;

/// Spin for `dur`, returning the iterations completed.
fn spin_for(dur: Duration) -> u64 {
    let start = Instant::now();
    let mut iters = 0u64;
    let mut x = 1u64;
    while start.elapsed() < dur {
        x = spin(PROBE_CHUNK, x);
        iters += PROBE_CHUNK;
    }
    black_box(x);
    iters
}

/// What the host probe found.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// Nanoseconds per [`spin`] iteration on one otherwise idle thread.
    pub calib_ns_per_iter: f64,
    /// Combined rate of two spinning threads over the rate of one.
    pub two_thread_scaling: f64,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
}

impl Host {
    /// Below this two-thread scaling a 2-PE run is not really parallel
    /// and its numbers say little; the run is marked, not failed.
    pub const DEGRADED_BELOW: f64 = 1.5;

    pub fn degraded(&self) -> bool {
        self.two_thread_scaling < Self::DEGRADED_BELOW
    }

    /// Spin iterations for a task of `grain_us` microseconds.
    pub fn iters_for_us(&self, grain_us: f64) -> u64 {
        ((grain_us * 1000.0 / self.calib_ns_per_iter).round() as u64).max(1)
    }
}

/// Slices the single-thread calibration time is cut into.
const CALIB_SLICES: u32 = 8;

/// Two-thread bursts the probe tries before it gives up on the second
/// core coming online.
const MAX_BURSTS: usize = 12;

/// Time the calibration loop on one thread for `single` in all, then on two
/// threads at once in bursts of `burst` until they scale (or
/// [`MAX_BURSTS`] have run), and report the last burst. On the 2-vCPU
/// KVM sandbox two threads of a fresh process share one core for about
/// a second before the second vCPU takes its share, so the bursts are
/// also what gets both cores hot before the first rep.
pub fn probe(single: Duration, burst: Duration) -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Interference only ever slows the loop down, so the calibration is
    // the best of several slices, not their mean: one descheduled slice
    // would otherwise halve every grain of the sweep.
    let slice = single / CALIB_SLICES;
    let single_rate = (0..CALIB_SLICES)
        .map(|_| {
            let start = Instant::now();
            spin_for(slice) as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max);

    let mut two_thread_scaling = 0.0;
    for _ in 0..MAX_BURSTS {
        let barrier = Barrier::new(2);
        let start = Instant::now();
        let both: u64 = std::thread::scope(|s| {
            let spinner = || {
                barrier.wait();
                spin_for(burst)
            };
            let a = s.spawn(spinner);
            let b = s.spawn(spinner);
            a.join().expect("probe thread panicked") + b.join().expect("probe thread panicked")
        });
        two_thread_scaling = both as f64 / start.elapsed().as_secs_f64() / single_rate;
        if two_thread_scaling >= Host::DEGRADED_BELOW {
            break;
        }
    }
    Host {
        calib_ns_per_iter: 1e9 / single_rate,
        two_thread_scaling,
        nproc,
    }
}

/// `ru_maxrss` of this process's reaped children, in kilobytes.
#[cfg(target_os = "linux")]
pub fn children_maxrss_kb() -> u64 {
    // The prefix of Linux's `struct rusage`: two `struct timeval`s
    // (two longs each), then `ru_maxrss` and thirteen more longs.
    #[repr(C)]
    struct Rusage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable buffer at least as large as the
    // kernel's `struct rusage` on 64-bit Linux (18 longs = 144 bytes),
    // which is all getrusage(2) requires of its second argument.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc == 0 {
        ru.ru_maxrss.max(0) as u64
    } else {
        0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn children_maxrss_kb() -> u64 {
    0
}

/// Peak resident set in megabytes: the larger of this process's high
/// water mark and that of any worker process it has reaped.
pub fn peak_rss_mb() -> f64 {
    ck_bench::driver::peak_rss_kb().max(children_maxrss_kb()) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_depends_on_iters_and_seed() {
        assert_ne!(spin(10, 1), spin(11, 1));
        assert_ne!(spin(10, 1), spin(10, 3));
        assert_eq!(spin(10, 1), spin(10, 1));
    }

    #[test]
    fn probe_reports_sane_numbers() {
        let h = probe(Duration::from_millis(20), Duration::from_millis(20));
        assert!(
            h.calib_ns_per_iter > 0.05 && h.calib_ns_per_iter < 100.0,
            "{h:?}"
        );
        assert!(
            h.two_thread_scaling > 0.2 && h.two_thread_scaling < 4.0,
            "{h:?}"
        );
        assert!(h.nproc >= 1);
        assert_eq!(h.iters_for_us(0.0), 1);
        let per_us = h.iters_for_us(1.0) as f64;
        assert!((h.iters_for_us(8.0) as f64 / per_us - 8.0).abs() < 0.1);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
