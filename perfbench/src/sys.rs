//! Process and thread resource readings: CPU clocks and peak RSS.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
}

#[cfg(target_os = "linux")]
fn cpu_clock(clock: i32) -> Duration {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock ids are
    // the kernel's fixed constants.
    let rc = unsafe { ffi::clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    #[cfg(target_os = "linux")]
    return cpu_clock(ffi::CLOCK_THREAD_CPUTIME_ID);
    #[cfg(not(target_os = "linux"))]
    Duration::ZERO
}

/// CPU time consumed so far by the whole process (all threads).
pub fn process_cpu() -> Duration {
    #[cfg(target_os = "linux")]
    return cpu_clock(ffi::CLOCK_PROCESS_CPUTIME_ID);
    #[cfg(not(target_os = "linux"))]
    Duration::ZERO
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Usable parallelism of this host: the cap on generator threads and
/// connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
