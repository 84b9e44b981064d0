//! Process counters from `/proc/self`, read without any dependency.
//!
//! `/proc/self/stat` gives page faults and CPU time split into user and
//! system; `/proc/self/status` gives the peak resident set (`VmHWM`). The
//! benchmark samples both around each timed span.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture the repository builds on).
const USER_HZ: f64 = 100.0;

/// One sample of the process counters the benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// Minor page faults so far.
    pub minflt: u64,
    /// Major page faults so far.
    pub majflt: u64,
    /// User CPU time so far, in seconds.
    pub utime_s: f64,
    /// System CPU time so far, in seconds.
    pub stime_s: f64,
}

impl ProcSample {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Result<ProcSample, String> {
        let text =
            fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
        parse_stat(&text)
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
            utime_s: self.utime_s - earlier.utime_s,
            stime_s: self.stime_s - earlier.stime_s,
        }
    }

    /// Counter sums of two disjoint spans.
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt + other.minflt,
            majflt: self.majflt + other.majflt,
            utime_s: self.utime_s + other.utime_s,
            stime_s: self.stime_s + other.stime_s,
        }
    }

    /// System time as a share of all CPU time (0 when no time was charged).
    pub fn sys_share(&self) -> f64 {
        let total = self.utime_s + self.stime_s;
        if total > 0.0 {
            self.stime_s / total
        } else {
            0.0
        }
    }
}

/// Parses the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) sits in parentheses and may itself contain
/// spaces and parentheses, so fields are counted from after the *last*
/// `)`: there, field 3 (`state`) is the first token, and `minflt`,
/// `majflt`, `utime`, `stime` are fields 10, 12, 14 and 15.
pub fn parse_stat(text: &str) -> Result<ProcSample, String> {
    let close = text
        .rfind(')')
        .ok_or_else(|| "stat: no ')' after the command name".to_string())?;
    let fields: Vec<&str> = text[close + 1..].split_whitespace().collect();
    // fields[0] is field 3 of the full line.
    let field = |n: usize| -> Result<u64, String> {
        let raw = fields
            .get(n - 3)
            .ok_or_else(|| format!("stat: field {n} missing"))?;
        raw.parse::<u64>()
            .map_err(|e| format!("stat: field {n} {raw:?}: {e}"))
    };
    Ok(ProcSample {
        minflt: field(10)?,
        majflt: field(12)?,
        utime_s: field(14)? as f64 / USER_HZ,
        stime_s: field(15)? as f64 / USER_HZ,
    })
}

/// Parses `VmHWM` (peak resident set) out of `/proc/<pid>/status`, in MiB.
pub fn parse_vm_hwm_mb(text: &str) -> Result<f64, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| "status: no VmHWM line".to_string())?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts
        .next()
        .ok_or_else(|| "status: VmHWM has no value".to_string())?
        .parse()
        .map_err(|e| format!("status: VmHWM: {e}"))?;
    match parts.next() {
        Some("kB") => Ok(kb as f64 / 1024.0),
        other => Err(format!("status: VmHWM unit {other:?}, expected kB")),
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real line layout: pid, comm, state, then fields 4.. in order.
    fn stat_line(comm: &str) -> String {
        // Fields 4..=15: ppid pgrp sid tty_nr tpgid flags minflt
        // cminflt majflt cmajflt utime stime, then a few more.
        format!("4242 ({comm}) R 1 4242 4242 0 -1 4194560 1234 0 5 0 250 75 0 0 20 0 1 0")
    }

    #[test]
    fn stat_fields_are_read_after_the_command_name() {
        let s = parse_stat(&stat_line("perfbench")).unwrap();
        assert_eq!(s.minflt, 1234);
        assert_eq!(s.majflt, 5);
        assert_eq!(s.utime_s, 2.5);
        assert_eq!(s.stime_s, 0.75);
    }

    #[test]
    fn command_names_with_spaces_and_parentheses_do_not_shift_fields() {
        let plain = parse_stat(&stat_line("perfbench")).unwrap();
        for comm in ["a b c", "x) 9 9 9 (y", "((", ") R 1 2 3"] {
            assert_eq!(parse_stat(&stat_line(comm)).unwrap(), plain, "{comm:?}");
        }
    }

    #[test]
    fn malformed_stat_is_an_error() {
        assert!(parse_stat("no parentheses here").is_err());
        assert!(parse_stat("1 (short) R 1 2").is_err());
        assert!(parse_stat("1 (bad) R 1 2 3 4 5 6 x 0 0 0 0 0").is_err());
    }

    #[test]
    fn since_and_sys_share() {
        let a = ProcSample {
            minflt: 10,
            majflt: 0,
            utime_s: 1.0,
            stime_s: 0.5,
        };
        let b = ProcSample {
            minflt: 30,
            majflt: 1,
            utime_s: 4.0,
            stime_s: 1.5,
        };
        let d = b.since(&a);
        assert_eq!(d.minflt, 20);
        assert_eq!(d.majflt, 1);
        assert_eq!(d.sys_share(), 0.25);
        assert_eq!(ProcSample::default().sys_share(), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status).unwrap(), 20.0);
        assert!(parse_vm_hwm_mb("Name:\tx\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n").is_err());
    }

    #[test]
    fn live_counters_are_readable() {
        let s = ProcSample::now().unwrap();
        assert!(s.minflt > 0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
