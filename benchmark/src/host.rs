//! CPU, memory and host readers, all from `/proc` so they need no FFI and
//! do not depend on `u1_bench::mem`.

use serde_json::{json, Value};

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported `USER_HZ` = 100 to user space on every architecture for decades.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime field 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set (`VmRSS`) of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").unwrap_or(0) * 1024
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Everything a reader needs to judge whether two result files are
/// comparable: the host, the toolchain and the commit.
pub fn stamp() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    json!({
        "nproc": nproc() as u64,
        "cpu_model": cpu_model,
        "governor": read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_or_else(|| "unreadable".into()),
        "kernel": read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        "rustc": first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
        "git_commit": first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "link": "127.0.0.1 loopback, not a real link: no wire latency, no loss, no MTU effects",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_return_plausible_values() {
        // Burn a little CPU so the tick counter is not trivially zero on a
        // fresh test process.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(i ^ (x >> 3));
        }
        assert!(std::hint::black_box(x) != 1);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(rss_bytes() > 512 * 1024);
        assert!(nproc() >= 1);
        assert!(stamp().get("kernel").is_some());
    }
}
