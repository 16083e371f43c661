//! The machine the numbers came from, and a yardstick for its speed.

use std::hint::black_box;
use std::time::Instant;

/// What a reader needs to place a result: hardware, toolchain, commit.
pub struct Environment {
    pub hardware_threads: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: &'static str,
}

impl Environment {
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: env!("BENCH_GIT_COMMIT"),
        }
    }
}

/// Two fixed pieces of work, timed at the start and the end of a run: when
/// they drift, the machine did, not the code under test.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// A fixed integer-hash loop: core speed.
    pub cpu_ms: f64,
    /// A fixed stride walk over 64 MiB: memory speed.
    pub mem_ms: f64,
}

impl Calibration {
    pub fn measure() -> Self {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000_000u64 {
            x = (x ^ i).wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
        }
        black_box(x);
        let cpu_ms = t0.elapsed().as_secs_f64() * 1e3;

        const WORDS: usize = (64 << 20) / 8;
        // 4099 words: a prime stride, so no two consecutive reads share a
        // cache line or a page, and no word is read twice.
        const STRIDE: usize = 4099;
        let mem = vec![1u64; WORDS];
        let t0 = Instant::now();
        let (mut at, mut sum) = (0usize, 0u64);
        for _ in 0..WORDS / 8 {
            sum = sum.wrapping_add(mem[at]);
            at = (at + STRIDE) % WORDS;
        }
        black_box(sum);
        let mem_ms = t0.elapsed().as_secs_f64() * 1e3;
        Calibration { cpu_ms, mem_ms }
    }
}
