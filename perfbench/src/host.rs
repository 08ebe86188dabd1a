//! The host record printed beside every report: core count, CPU model and
//! a fixed CPU-bound calibration loop timed at the start and the end.
//! Metrics are never scaled by these; they say what the host was doing.

use std::hint::black_box;
use std::time::Instant;

/// Xorshift rounds in one calibration sample (about 12 ms on a 2 GHz Xeon).
const CALIBRATION_ROUNDS: u64 = 4_000_000;
/// Samples per calibration; the median is reported.
const CALIBRATION_SAMPLES: usize = 5;

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU brand string from `cpuid`, without reading any file.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    let text = String::from_utf8_lossy(&bytes);
    text.trim_matches(char::from(0)).trim().to_string()
}

/// The CPU brand string is only read on x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// Median wall time of the fixed calibration loop, milliseconds.
pub fn calibrate_ms() -> f64 {
    let mut samples = Vec::with_capacity(CALIBRATION_SAMPLES);
    for _ in 0..CALIBRATION_SAMPLES {
        let started = Instant::now();
        let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
        for i in 0..CALIBRATION_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}
