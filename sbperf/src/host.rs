//! Host context: a fixed spin loop that shows how fast the host runs
//! right now, and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the spin loop (40–50 ms on a 2-vCPU Xeon VM).
const SPIN_ITERS: u64 = 20_000_000;

/// Milliseconds the fixed spin loop takes, as the median of three
/// tries. Printed at the start and end of every run, so a reader can
/// tell a slow host from a regression.
pub fn spin_ms() -> f64 {
    let mut tries: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..SPIN_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[1]
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so the peak read later belongs to what ran since.
/// Returns false where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB, if the kernel reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
