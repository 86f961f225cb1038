//! Small statistics and process probes.

/// The nearest-rank `q`-quantile of `samples` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the nearest-rank `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|s| **s > cut).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(beyond(&samples, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
