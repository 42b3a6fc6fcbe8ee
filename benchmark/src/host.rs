//! The host block (so rows are comparable across machines) and the
//! `/proc` readers behind the `proc.*` rows.

use std::hint::black_box;
use std::time::Instant;

use crate::report::{jstr, median};

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub calibration_ns_per_iter: f64,
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// mainstream configuration (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

const CALIBRATION_ITERS: u64 = 1 << 25;

/// A pinned pure-integer loop (xorshift64, one dependent chain): the same
/// instructions on every host, so its ns/iteration rescales timing rows
/// between machines.
fn calibration_pass() -> f64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let t = Instant::now();
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e9 / CALIBRATION_ITERS as f64
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let passes: Vec<f64> = (0..3).map(|_| calibration_pass()).collect();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            calibration_ns_per_iter: median(&passes),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\
             \"calibration_ns_per_iter\":{}}}",
            self.nproc,
            jstr(&self.cpu_model),
            jstr(env!("DSBENCH_RUSTC_VERSION")),
            jstr(PROFILE),
            self.calibration_ns_per_iter
        )
    }
}

/// The profile `benchmark/Cargo.toml` builds with (it repeats the root
/// manifest's release profile).
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug (numbers are meaningless: build with --release)"
} else {
    "release opt-level=3 lto=thin codegen-units=1"
};

/// `(user seconds, system seconds)` this process has consumed.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / CLK_TCK
    };
    (tick(11), tick(12))
}

/// Peak resident set of the process so far (`VmHWM`), in MB. It covers
/// set-up too: compiling the model is the memory peak on every workload.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
