//! The two things the benchmark needs from the OS and `std` does not
//! offer: process-wide CPU time and context switches (`getrusage(2)`), and
//! CPU affinity (`sched_setaffinity(2)`).
//!
//! `/proc/self/{stat,status}` would need no foreign call, but it reports
//! context switches per task and the drivers' worker threads have exited
//! by the time a driver call returns; `RUSAGE_SELF` keeps the totals of
//! exited threads.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// `struct rusage` on 64-bit Linux: two `timeval`s then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs the calling thread — and every thread it spawns from now on —
/// may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity(CpuMask);

impl Affinity {
    pub fn current() -> Affinity {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of the size passed; pid
        // 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        assert_eq!(rc, 0, "sched_getaffinity on the calling thread");
        Affinity(mask)
    }

    /// The highest-numbered CPU of the set alone (CPU 0 takes most of a
    /// guest's interrupts).
    pub fn last_cpu(self) -> Affinity {
        let mut one: CpuMask = [0; 16];
        if let Some(word) = self.0.iter().rposition(|&w| w != 0) {
            one[word] = 1 << (63 - self.0[word].leading_zeros());
        }
        Affinity(one)
    }

    pub fn cpus(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Apply to the calling thread. A sandbox may refuse; the benchmark
    /// then runs unpinned and says so, since its wall metrics get noisier.
    pub fn apply(self) {
        // SAFETY: the kernel only reads `size_of::<CpuMask>()` bytes from
        // the live `self.0`; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &self.0) };
        if rc != 0 {
            eprintln!(
                "perf: sched_setaffinity refused ({}); running unpinned",
                std::io::Error::last_os_error()
            );
        }
    }
}

/// Cumulative process totals; subtract two readings for an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// User + system CPU time of all threads, alive or exited.
    pub cpu: Duration,
    /// Voluntary + involuntary context switches of all threads.
    pub ctx_switches: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // the kernel fills for RUSAGE_SELF (0); the call reads nothing else.
        let rc = unsafe { getrusage(0, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let tv = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1_000);
        Rusage {
            cpu: tv(raw.utime) + tv(raw.stime),
            // ru_nvcsw, ru_nivcsw
            ctx_switches: (raw.rest[12] + raw.rest[13]) as u64,
        }
    }

    pub fn since(self, earlier: Rusage) -> Rusage {
        Rusage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}
