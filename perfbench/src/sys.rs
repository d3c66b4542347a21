//! The few operating-system facts the benchmark needs that `std` lacks:
//! the CPUs the process may run on, pinning the calling thread to one of
//! them, the CPU a thread is on right now, process CPU time, and a cheap
//! cycle counter for per-call timing.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod linux {
    /// glibc's 1024-bit `cpu_set_t`.
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; 16],
    }

    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getcpu() -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU ids in the calling thread's affinity mask. Read once by the main
/// thread, which never pins itself, so the list is the process's whole
/// allowance; falls back to `0..available_parallelism`.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set = linux::CpuSet { bits: [0; 16] };
        // SAFETY: `set` is a valid, writable mask of the size passed.
        let rc =
            unsafe { linux::sched_getaffinity(0, std::mem::size_of::<linux::CpuSet>(), &mut set) };
        if rc == 0 {
            let cpus: Vec<usize> = (0..1024)
                .filter(|&c| set.bits[c / 64] & (1u64 << (c % 64)) != 0)
                .collect();
            if !cpus.is_empty() {
                return cpus;
            }
        }
    }
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..n).collect()
}

/// Pins the calling thread to CPU `cpu` (an id from [`allowed_cpus`]).
/// Returns whether the kernel accepted the mask.
pub fn pin_self(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= 1024 {
            return false;
        }
        let mut set = linux::CpuSet { bits: [0; 16] };
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
        // SAFETY: `set` is a valid mask of the size passed; pid 0 is the
        // calling thread.
        unsafe { linux::sched_setaffinity(0, std::mem::size_of::<linux::CpuSet>(), &set) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// The CPU the calling thread is running on, where the platform says.
pub fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: no arguments; returns -1 on failure.
        let c = unsafe { linux::sched_getcpu() };
        usize::try_from(c).ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// CPU time consumed by every thread of the process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = linux::Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec.
        let rc = unsafe { linux::clock_gettime(linux::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.sec as u64 * 1_000_000_000 + ts.nsec as u64;
        }
    }
    0
}

/// A cheap monotonic tick: the time-stamp counter on x86-64, nanoseconds
/// from a process epoch elsewhere. Convert with [`TickClock::ns_per_tick`].
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions on x86-64.
        #[allow(unused_unsafe)]
        unsafe {
            std::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Calibrates [`ticks`] against the monotonic clock over the whole run,
/// so a tick count converts to nanoseconds without a fixed frequency.
pub struct TickClock {
    at: Instant,
    tick0: u64,
}

impl TickClock {
    pub fn start() -> TickClock {
        TickClock {
            at: Instant::now(),
            tick0: ticks(),
        }
    }

    /// Ticks at the start of the calibration window (the trace epoch).
    pub fn tick0(&self) -> u64 {
        self.tick0
    }

    pub fn ns_per_tick(&self) -> f64 {
        let dt = ticks().wrapping_sub(self.tick0).max(1);
        self.at.elapsed().as_nanos() as f64 / dt as f64
    }
}

/// Where one benchmark thread was placed and where it actually ran.
pub struct Place {
    pub label: String,
    pub pinned: Option<usize>,
    ran_on: u64,
}

impl Place {
    /// Pins the calling thread to `cpu` (when given) and notes the CPU it
    /// starts on.
    pub fn enter(label: String, cpu: Option<usize>) -> Place {
        let pinned = cpu.filter(|&c| pin_self(c));
        let mut p = Place {
            label,
            pinned,
            ran_on: 0,
        };
        p.note();
        p
    }

    /// A thread pinned through the affinity it inherited from its
    /// spawner; [`Place::note`] must be called from that thread.
    pub fn inherited(label: String, cpu: usize) -> Place {
        Place {
            label,
            pinned: Some(cpu),
            ran_on: 0,
        }
    }

    /// Records the CPU the calling thread is on now.
    #[inline]
    pub fn note(&mut self) {
        if let Some(c) = current_cpu().filter(|&c| c < 64) {
            self.ran_on |= 1 << c;
        }
    }

    pub fn describe(&self) -> String {
        let ran: Vec<String> = (0..64)
            .filter(|c| self.ran_on & (1 << c) != 0)
            .map(|c| c.to_string())
            .collect();
        let pinned = self
            .pinned
            .map_or("none".to_string(), |c| format!("cpu{c}"));
        format!(
            "thread {} pinned={} ran_on=[{}]",
            self.label,
            pinned,
            ran.join(",")
        )
    }
}
