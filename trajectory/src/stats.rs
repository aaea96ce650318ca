//! Order statistics and the process counters the end-to-end metrics need.

/// The median of `values` (the mean of the two middle values for an even
/// count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The `p`-th percentile (50 < p < 100) of `values` by nearest rank —
/// refused (`None`) unless at least ten samples lie beyond it, the rule
/// that keeps a "p90" from being the maximum of a short run: p90 needs 100
/// samples, p99 needs 1000.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 - 1e-9 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The first and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method the acceptance check uses).
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 for a single
/// value.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks; `USER_HZ` is 100 on every Linux ABI).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis with the state (field 3), so utime and stime
    // (fields 14 and 15) are the 12th and 13th from there.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime")
    };
    (ticks() + ticks()) / 100.0
}

/// Runs `work` while a sampler takes the peak resident set size of each
/// half second of it: every window ends by reading `VmHWM` and resetting it
/// (`/proc/self/clear_refs`), so a window's peak is its own. Returns the
/// windows' peaks; their median is far steadier than one peak over the
/// whole run, which is the maximum of however the clients' requests
/// happened to overlap. Where the reset is not permitted every window
/// reports the process's peak so far, and the median is still a peak.
pub fn windowed_peak_rss_mb<T>(work: impl FnOnce() -> T) -> (T, Vec<f64>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let reset = || {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks = Vec::new();
            reset();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(500));
                peaks.push(peak_rss_mb());
                reset();
            }
            peaks
        });
        let result = work();
        done.store(true, Ordering::Relaxed);
        (result, sampler.join().expect("sampler thread"))
    })
}

/// Peak resident set size of this process since the last reset, in MB
/// (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
