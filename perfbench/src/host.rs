//! What the benchmark reads from the machine: process CPU time, the
//! host fingerprint and the `src/` line count per crate.

use std::path::Path;
use std::time::{Duration, Instant};

/// CPU seconds this process has used so far (all threads, user + system).
///
/// Summed over the live threads' `schedstat` (nanosecond resolution,
/// which the low-rate workloads need: `/proc/self/stat` counts 10 ms
/// ticks). Every thread of a stack lives for the whole paced phase, so
/// a difference of two reads is the phase's CPU time. Falls back to the
/// tick counters where the kernel has no schedstat.
pub fn process_cpu_seconds() -> f64 {
    let from_schedstat = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        let mut ns = 0u64;
        for task in tasks.flatten() {
            // A thread may exit between the listing and the read.
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else { continue };
            ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(ns as f64 / 1e9)
    });
    from_schedstat.unwrap_or_else(cpu_seconds_from_stat)
}

/// Keeps every core busy for `duration`. The sizing box's host packs the
/// guest's two cores onto one physical core while the guest is mostly
/// idle and spreads them again after about a second of sustained load;
/// a round that starts cold measures a different machine (two thirds of
/// the throughput at three quarters of the CPU per verdict) from one
/// that starts right after a busy phase. Every round starts warm.
pub fn heat(duration: Duration) {
    let until = Instant::now() + duration;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let mut x = 1u64;
                while Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
                    }
                }
            });
        }
    });
}

fn cpu_seconds_from_stat() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in 100 Hz ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".to_owned(), |o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

/// `(key, value)` pairs describing where the numbers were taken.
pub fn fingerprint(telemetry_compiled_in: bool) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        ("topology", "loopback, single process".to_owned()),
        (
            "telemetry_feature",
            if telemetry_compiled_in { "compiled in (runtime switch)" } else { "compiled out" }.to_owned(),
        ),
    ]
}

/// Lines under `crates/<name>/src` for every crate found from `root`
/// (ROADMAP north-star 2 tracks line count beside performance). Empty
/// when the benchmark runs from somewhere else.
pub fn src_lines_per_crate(root: &Path) -> Vec<(String, u64)> {
    fn count(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
                } else {
                    0
                }
            })
            .sum()
    }
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else { return Vec::new() };
    let mut out: Vec<(String, u64)> = crates
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), count(&e.path().join("src"))))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > before, "30 ms of spinning shows up ({x})");
        assert!(cpu_seconds_from_stat() >= 0.0);
    }
}
