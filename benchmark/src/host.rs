//! The host a result was measured on, and the process's memory.

use std::fs;

/// What every result is printed beside.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// Online CPUs (`processor` entries of `/proc/cpuinfo`).
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
}

impl HostInfo {
    /// Read the descriptor of this host.
    pub fn detect() -> HostInfo {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |line: &str, key: &str| {
            line.strip_prefix(key)
                .and_then(|rest| rest.trim_start().strip_prefix(':'))
                .map(|v| v.trim().to_string())
        };
        HostInfo {
            nproc: cpuinfo
                .lines()
                .filter(|l| field(l, "processor").is_some())
                .count()
                .max(1),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| field(l, "model name"))
                .unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn status_kb(key: &str) -> Option<u64> {
    fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0) as f64 / 1024.0
}
