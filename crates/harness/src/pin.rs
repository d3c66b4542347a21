//! Best-effort thread pinning.
//!
//! The paper pins nothing explicitly but runs on dedicated multi-socket
//! hardware; on shared/virtualized runners pinning reduces variance. This
//! is a measurement aid only — queue crates never depend on it.

/// Pins the calling thread to the `core`-th CPU the process may run on
/// (wrapping modulo their count) and returns whether the kernel accepted
/// the mask. A run restricted by `taskset` therefore pins inside its
/// mask: `pin_to_core(0)` and `pin_to_core(1)` land on the first two
/// allowed CPUs, not on CPUs 0 and 1. Nothing happens, and `false` comes
/// back, where the platform call fails (e.g., restricted containers) or
/// does not exist.
pub fn pin_to_core(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let cpus = allowed_cpus();
        let target = cpus[core % cpus.len()];
        // SAFETY: cpu_set_t is a plain bitset; FFI call with valid pointers.
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_SET(target, &mut set);
            libc::sched_setaffinity(
                0,
                std::mem::size_of::<libc::cpu_set_t>(),
                &set as *const libc::cpu_set_t,
            ) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// The CPU ids the process may run on, ascending. Read once, from the
/// process's own affinity mask (its main thread's, which a thread pinning
/// itself does not narrow); falls back to `0..available_parallelism`.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `set` is a valid, writable mask of the size passed,
            // and CPU_ISSET only reads it.
            let cpus: Vec<usize> = unsafe {
                let mut set: libc::cpu_set_t = std::mem::zeroed();
                let size = std::mem::size_of::<libc::cpu_set_t>();
                let pid = std::process::id() as libc::pid_t;
                if libc::sched_getaffinity(pid, size, &mut set) == 0 {
                    (0..size * 8)
                        .filter(|&c| libc::CPU_ISSET(c, &set))
                        .collect()
                } else {
                    Vec::new()
                }
            };
            if !cpus.is_empty() {
                return cpus;
            }
        }
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        (0..n).collect()
    })
}

/// Resident-set size of the current process in bytes (Linux), or `None`.
/// Complements the allocator census with an OS-level view.
pub fn rss_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
        // SAFETY: trivial libc call.
        let page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
        if page <= 0 {
            return None;
        }
        Some(pages * page as usize)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_does_not_crash() {
        pin_to_core(0);
        pin_to_core(999); // wraps modulo the allowed CPU count
    }

    /// The CPU the calling thread is running on, where the platform says.
    fn current_cpu() -> Option<usize> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: no arguments; returns -1 on failure.
            let c = unsafe { libc::sched_getcpu() };
            usize::try_from(c).ok()
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }

    #[test]
    fn pinned_threads_stay_inside_the_process_mask() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        // Twice round the allowed set, so the wrap is covered too. Each
        // pin runs on a fresh thread: a pinned thread's own mask is not
        // what the next pin should start from.
        for core in 0..2 * allowed.len() {
            let (accepted, cpu) = std::thread::spawn(move || (pin_to_core(core), current_cpu()))
                .join()
                .unwrap();
            let Some(cpu) = cpu else { continue }; // no sched_getcpu here
            assert!(
                allowed.contains(&cpu),
                "pin_to_core({core}) ran on CPU {cpu}, outside {allowed:?}"
            );
            if accepted {
                assert_eq!(cpu, allowed[core % allowed.len()], "pin_to_core({core})");
            }
        }
    }

    #[test]
    fn rss_is_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("statm readable");
            assert!(rss > 100 * 1024, "rss {rss} too small to be real");
        }
    }
}
