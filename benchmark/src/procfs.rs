//! Process-level readings from `/proc/self` (Linux only, like the rest of
//! the harness's environment).

use std::time::Duration;

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Threads alive in this process right now.
pub fn threads_now() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// User + system CPU time this process has consumed, all threads.
pub fn cpu_time() -> Duration {
    // Fields 14 and 15 of /proc/self/stat, counted after the ")" that ends
    // the command name (which may itself contain spaces).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let total = ticks(fields.next()) + ticks(fields.next());
    // USER_HZ is 100 on every Linux ABI this runs on.
    Duration::from_millis(total * 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mb() > 1.0);
        assert!(threads_now() >= 1);
        let before = cpu_time();
        let mut x = 0u64;
        while cpu_time() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time() > before);
    }
}
