//! Process CPU time and peak memory from Linux `/proc`.

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every
/// Linux ABI this workspace builds for; without a libc binding
/// `sysconf(_SC_CLK_TCK)` cannot be asked.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15, i.e. the 12th and 13th
/// after the command name.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) in MB from the text of
/// `/proc/<pid>/status`.
pub fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mb_from_status(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (tifl bench) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        250 50 0 0 20 0 3 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0";

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_comm() {
        assert_eq!(cpu_seconds_from_stat(STAT), Some(3.0));
    }

    #[test]
    fn stat_parsing_rejects_truncated_input() {
        assert_eq!(cpu_seconds_from_stat("1 (x) R 1 2 3"), None);
        assert_eq!(cpu_seconds_from_stat("no parens here"), None);
        assert_eq!(cpu_seconds_from_stat(""), None);
    }

    #[test]
    fn status_parsing_reads_vmhwm_in_mb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(peak_rss_mb_from_status(status), Some(20.0));
        assert_eq!(peak_rss_mb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let a = cpu_seconds();
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= a);
    }
}
