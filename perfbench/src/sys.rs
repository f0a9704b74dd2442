//! Process and machine readings from `/proc`: resident memory and CPU
//! steal. They describe a run; none of them decides whether it counts.

use std::fs;

const MIB: f64 = 1024.0 * 1024.0;

/// A `kB` field of `/proc/self/status` in MiB, 0 when unavailable.
fn status_mib(field: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / MIB)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(Self::parse))
            .unwrap_or_default()
    }

    fn parse(line: &str) -> Self {
        // cpu user nice system idle iowait irq softirq steal [guest ...]
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_eighth_field() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 0 40 0 0");
        let b = CpuTimes::parse("cpu  200 0 100 1600 20 0 0 80 0 0");
        assert_eq!(a.total, 1000);
        assert!((b.steal_since(&a) - 0.04).abs() < 1e-12);
        assert_eq!(a.steal_since(&a), 0.0);
    }

    #[test]
    fn memory_readings_are_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_mib() > 0.0);
        assert!(peak_rss_mib() >= rss_mib() * 0.99);
    }
}
