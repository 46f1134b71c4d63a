//! Host context recorded beside every run, and the process's memory
//! high-water mark. Linux only: both read `/proc`.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1/5/15-minute load averages as the kernel prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Rate of a fixed integer loop that touches no capsim code, in million
/// iterations per host second: the median of five 20 ms slices. A run
/// whose calibration rate dropped against another run's shared its
/// cores with a noisy neighbour.
pub fn calibration_mips() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut rates = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        rates.push(ITERS as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    crate::stats::median(&rates)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
