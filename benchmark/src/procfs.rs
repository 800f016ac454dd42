//! Process CPU time and peak resident memory from `/proc` — std only.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every Linux
/// ABI `/proc/<pid>/stat` is exposed on; std has no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds out of a `/proc/<pid>/stat` line, summed over
/// all threads of the process.
///
/// The second field (`comm`) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`: `utime` and `stime` are fields 14
/// and 15 of the line, the 12th and 13th after `comm`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size in MB out of `/proc/<pid>/status` (`VmHWM`, kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far (all threads).
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable — the benchmark has no CPU
/// metric to report without it.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set size of this process so far, in MB.
///
/// # Panics
///
/// As [`cpu_seconds`], for `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_a_hostile_comm() {
        let stat = "4242 (ttw) bench (x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 269 0 0 20 0 3 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(10.0));
        assert_eq!(parse_stat_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (short) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes() {
        let status = "Name:\tttw\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tttw\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
