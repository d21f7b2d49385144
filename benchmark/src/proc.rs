//! What the kernel says about this process: CPU time and peak memory.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every architecture the kernel supports.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, living
/// and joined), from `/proc/self/stat`. 0 where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted
    // after its closing parenthesis: state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs this process may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
