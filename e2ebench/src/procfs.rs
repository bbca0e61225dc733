//! Process and host facts read from `/proc`: memory high-water mark,
//! CPU time of this thread and of the receiver's drain threads.

use std::fs;

/// The receiver names its serve thread this (`start_server`).
const RECV_THREAD: &str = "badabing-recv";

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:").unwrap_or(0) * 1024
}

/// Current resident set size (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").unwrap_or(0) * 1024
}

/// Restart `VmHWM` from the current resident set (writing 5 to
/// `clear_refs`, Linux 4.0 and later; on an older kernel the mark stays
/// process-wide). Free heap is returned to the kernel first: memory an
/// earlier unit freed but the allocator kept would otherwise creep into
/// every later unit's peak.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim takes a byte count and only returns
    // free heap pages to the kernel.
    unsafe { malloc_trim(0) };
    let _ = fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// On-CPU nanoseconds summed over this process's live receiver drain
/// threads.
pub fn recv_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == RECV_THREAD)
        })
        .map(|t| schedstat_ns(&t.path().join("schedstat").to_string_lossy()))
        .sum()
}

/// Running kernel release.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
