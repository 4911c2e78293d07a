//! What the box looked like when the numbers were taken, and the guard
//! rails that refuse to measure on a box that cannot carry the load shape.
//!
//! Everything is read from `/proc` (the benchmark targets Linux); a field
//! that cannot be read is reported as unknown rather than guessed.

use crate::json::Value;

/// Sockets `service_uds_small` holds open at once stay near 2 100; the soft
/// limit must leave room above that.
pub const MIN_OPEN_FILES: u64 = 4096;

/// Linux reports process CPU time in `USER_HZ` ticks, fixed at 100 per
/// second in the userspace ABI on every supported architecture.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The soft "Max open files" limit, from `/proc/self/limits`.
pub fn open_file_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    // "Max open files   <soft>   <hard>   files"
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Peak resident set size so far in MiB, from `VmHWM`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process, living or joined, from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

/// The environment block recorded beside every result. `rustc` and the git
/// commit are handed in by `run.sh` (the binary starts no processes).
pub fn capture() -> Value {
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let from_env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    Value::obj([
        ("available_parallelism", Value::uint(cores() as u64)),
        ("loadavg_at_start", Value::str(loadavg)),
        ("rustc", Value::str(from_env("BENCH_RUSTC"))),
        ("git_commit", Value::str(from_env("BENCH_GIT_COMMIT"))),
        (
            "max_open_files_soft",
            open_file_limit().map_or(Value::Null, Value::uint),
        ),
    ])
}

/// Refuses a load shape this box cannot carry: more runnable threads than
/// cores would measure the scheduler, not the code.
pub fn require_cores(threads: usize) -> Result<(), String> {
    let cores = cores();
    if threads > cores {
        return Err(format!(
            "workload runs {threads} threads but only {cores} core(s) are available; \
             refusing to measure threads time-slicing a core"
        ));
    }
    Ok(())
}

/// Fails fast, before any socket is opened, when the fd limit is too low.
pub fn require_open_files() -> Result<(), String> {
    match open_file_limit() {
        Some(limit) if limit < MIN_OPEN_FILES => Err(format!(
            "soft 'Max open files' is {limit}, below the {MIN_OPEN_FILES} this workload needs \
             (it keeps ~2 100 Unix sockets open); raise it with `ulimit -n {MIN_OPEN_FILES}`"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values_on_linux() {
        assert!(cores() >= 1);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(open_file_limit().is_some_and(|l| l > 0));
    }

    #[test]
    fn core_guard_refuses_oversubscription() {
        assert!(require_cores(1).is_ok());
        let err = require_cores(cores() + 1).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }

    #[test]
    fn capture_names_every_recorded_field() {
        let env = capture();
        for key in [
            "available_parallelism",
            "loadavg_at_start",
            "rustc",
            "git_commit",
            "max_open_files_soft",
        ] {
            assert!(env.get(key).is_some(), "missing {key}");
        }
    }
}
