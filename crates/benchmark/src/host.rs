//! The `host` block written into every output, thread pinning, and the
//! process's peak resident set.

use crate::json::{obj, Value};
use std::process::Command;

/// Threads the rayon global pool is pinned to: `min(nproc, 2)`.
pub fn pinned_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size the global pool once; later calls (and a pool somebody else already
/// built) are left alone. Returns the pool's actual thread count.
pub fn pin_rayon() -> usize {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(pinned_threads())
        .build_global();
    rayon::current_num_threads()
}

/// True when compiled without optimisation; timings from such a build are
/// refused by the command line.
pub fn is_debug_build() -> bool {
    cfg!(debug_assertions)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the OS (glibc; a no-op elsewhere), so that
/// the next run starts from the heap a fresh process would have. Without it
/// the resident set of a deep-hierarchy workload grows from run to run — the
/// allocator places each run's buffers elsewhere in its reserved heap:
/// `shock_wan` 428 MiB after one run, 1.2 GiB after ten — and the first five
/// or so repeats each pay 0.2–0.9 s for first touches of memory the later
/// ones find already mapped (README, "End-to-end metrics").
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

/// `VmHWM` of this process so far, in MiB (`None` where `/proc` has none).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| {
        let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
        kb.parse::<f64>().ok()
    })?;
    Some(kb / 1024.0)
}

/// Set (at compile time) by `offline/config.toml`: the registry crates
/// were replaced by the stand-ins in that directory.
pub const STAND_INS: Option<&str> = option_env!("SAMR_BENCH_STAND_INS");

/// Where and how the numbers were taken.
pub fn host_block(seed: u64, seconds: f64) -> Value {
    let unknown = || "unknown".to_string();
    let crates = match STAND_INS {
        Some(dir) => format!(
            "stand-ins under {dir} (rand, rand_chacha, rayon, serde, serde_json, parking_lot): \
             these are stand-in numbers, the thread pool in particular is not rayon's"
        ),
        None => "the workspace's registry crates".to_string(),
    };
    obj([
        ("nproc", nproc().into()),
        ("rayon_threads", rayon::current_num_threads().into()),
        (
            "rustc",
            first_line_of("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_commit",
            first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "build_profile",
            if is_debug_build() { "debug" } else { "release" }.into(),
        ),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
        ("registry_crates", crates.into()),
        ("seed", seed.into()),
        ("input_seed", crate::workload::INPUT_SEED.into()),
        ("seconds", seconds.into()),
    ])
}
