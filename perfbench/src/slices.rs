//! The measured window, cut into equal slices. End-to-end metrics are
//! medians over slices, so a short stall from a noisy neighbour moves one
//! slice, not the run's figure.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::sys;

/// What the main thread measures over one slice.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    pub ns: u64,
    /// CPU time of the whole process over the slice.
    pub cpu_ns: u64,
    /// Heap high-water mark over the slice, above the live bytes before
    /// the system under test was built.
    pub peak_heap: usize,
}

/// Shared between the main thread, which advances it, and the load
/// threads, which poll it every few hundred operations.
pub struct Slicer {
    idx: AtomicUsize,
    stop: AtomicBool,
    count: usize,
}

impl Slicer {
    pub fn new(count: usize) -> Slicer {
        Slicer {
            idx: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            count: count.max(1),
        }
    }

    /// The slice in progress.
    #[inline]
    pub fn current(&self) -> usize {
        self.idx.load(Relaxed)
    }

    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Relaxed)
    }

    /// Runs on the main thread: sleeps through `window` in equal slices,
    /// advancing the slice index at each boundary and stopping the load
    /// threads at the end.
    pub fn measure(&self, window: Duration, heap_base: usize) -> Vec<Mark> {
        let start = Instant::now();
        let (mut prev, mut cpu) = (start, sys::process_cpu_ns());
        harness::alloc::reset_peak();
        let mut marks = Vec::with_capacity(self.count);
        for k in 0..self.count {
            let end = start + window.mul_f64((k + 1) as f64 / self.count as f64);
            let now = Instant::now();
            if end > now {
                std::thread::sleep(end - now);
            }
            let (now, c) = (Instant::now(), sys::process_cpu_ns());
            let peak = harness::alloc::peak_bytes().saturating_sub(heap_base);
            harness::alloc::reset_peak();
            if k + 1 < self.count {
                self.idx.store(k + 1, Relaxed);
            } else {
                self.stop.store(true, Relaxed);
            }
            marks.push(Mark {
                ns: (now - prev).as_nanos() as u64,
                cpu_ns: c.saturating_sub(cpu),
                peak_heap: peak,
            });
            (prev, cpu) = (now, c);
        }
        marks
    }
}

/// Median of `v` (which it sorts).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
