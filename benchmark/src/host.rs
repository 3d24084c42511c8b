//! Host-side instruments: the noise sentinel and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the sentinel spin; about 50 ms on the sizing box, so the
/// sentinel takes a few percent of the measuring time.
const CALIB_ITERS: u64 = 40_000_000;

/// Times a fixed pure-arithmetic SplitMix64 spin and returns milliseconds.
///
/// The spin does the same work on every call, touches no memory and makes
/// no system call, so its time moves only when the host does: a reader can
/// tell a slow host from a slow program. It is reported, never used to
/// rescale a metric.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..CALIB_ITERS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Resets the kernel's resident-set high-water mark for this process, so
/// the next [`peak_rss_mb`] covers only what runs from here on. Best
/// effort: where `/proc/self/clear_refs` is not writable the mark simply
/// keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
