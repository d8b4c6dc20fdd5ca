//! Where the worker thread runs.
//!
//! The vCPUs of a shared host run at different speeds, and each one's
//! speed drifts by tens of percent over minutes (neighbours on the
//! host's cores and shared cache). A thread the scheduler places
//! freely lands on either for a whole run, so run times come out
//! bimodal. Pinning every run to the same CPU takes that mode out of
//! the spread; moving the thread between CPUs during a run measured
//! worse (migrations put the lowest CPU's interrupts into the tail).

/// CPUs in glibc's `cpu_set_t`.
const MAX_CPUS: usize = 1024;

/// Pin the calling thread to the highest-numbered CPU this process may
/// use and return it. The lowest CPU, which takes the device
/// interrupts, stays free for the OS. `None`, and no pinning, when the
/// allowed set is unreadable or the kernel refuses.
pub fn pin_last() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    // An ascending list such as `0-1` or `0,2-5`: the last number is the
    // highest CPU.
    let cpu: usize = list.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let mut mask = [0u64; MAX_CPUS / 64];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
