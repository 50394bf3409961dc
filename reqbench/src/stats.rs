//! Process probes (`/proc/self`) and order statistics.

use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel fixes at 100 per second for user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread), in
/// seconds.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name may hold spaces; fields restart after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("stat: field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// A `/proc/self/status` memory line (`VmHWM`, `VmRSS`), in KiB.
pub fn status_kb(key: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("status: no {key}"))
}

/// A nearest-rank percentile over sorted samples, with how many samples
/// lie beyond it.
pub struct Percentile {
    pub value: Duration,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted`; `None` when empty.
pub fn percentile(sorted: &[Duration], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of a non-empty slice of values (mean of the middle pair for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let v: Vec<Duration> = (1..=1000).map(Duration::from_micros).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, Duration::from_micros(990));
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!(p50.value, Duration::from_micros(500));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn procfs_probes_read_this_process() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(status_kb("VmHWM").unwrap() > 0);
        assert!(status_kb("VmRSS").unwrap() > 0);
    }
}
