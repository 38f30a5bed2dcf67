//! What the host is, and what the process has used of it.

use crate::json::Json;
use std::process::Command;

/// CPU time (user + system) of this process, all threads, in seconds.
///
/// `/proc/self/stat` carries the same quantity in 10 ms ticks, too coarse for
/// a repetition of a second or two: medians of tick counts repeat exactly
/// from run to run. The process CPU clock has nanosecond resolution and also
/// covers threads that have already exited, which matters for the sharded
/// engine, whose workers live for one `run_until` call.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` of the layout the
    // 64-bit Linux ABI defines (two 64-bit fields); it keeps no reference.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the process CPU clock is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    compile_error!("the benchmark reads Linux clocks and /proc");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads this process may run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
}

/// The host record attached to every result. `git_commit` is `null` in a
/// checkout that is not a git repository.
pub fn record() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|line| line.starts_with("processor"))
        .count();
    let cpu_model = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let optional = |text: Option<String>| text.map_or(Json::Null, Json::from);
    Json::object([
        ("nproc", Json::from(nproc as u64)),
        (
            "available_parallelism",
            Json::from(available_parallelism() as u64),
        ),
        ("oversubscribed", Json::from(available_parallelism() < 2)),
        ("cpu_model", Json::from(cpu_model)),
        ("rustc", optional(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            // Asked only in a repository root, so git never searches the
            // directories above a plain checkout.
            optional(
                std::path::Path::new(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"]))
                    .flatten(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mib() > 0.0);
    }
}
