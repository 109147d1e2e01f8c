//! Summary statistics with the benchmark's sample-count rules: no
//! figure rests on a single timing, and a tail percentile is reported
//! only when enough samples lie beyond it to make it a tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;
/// Below this many samples only the median is reported.
pub const MIN_SAMPLES_FOR_TAIL: usize = 40;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 1) of `xs`, or `None` when the
/// sample-count rule forbids it: fewer than [`MIN_SAMPLES_FOR_TAIL`]
/// samples, or fewer than [`TAIL_SAMPLES_BEYOND`] samples above the
/// chosen rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n < MIN_SAMPLES_FOR_TAIL || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    proc_status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_forty_samples() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // Rank 20 leaves 20 samples beyond it.
        assert_eq!(tail_percentile(&xs, 0.5), Some(20.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 199 samples: rank 190 leaves 9 beyond -> refused.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), None);
        // p95 of 200 samples: rank 190 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), Some(190.0));
        // p90 of 100 samples: rank 90 leaves 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.90), Some(90.0));
    }

    #[test]
    fn rss_is_readable() {
        let now = rss_mb().expect("VmRSS");
        let peak = peak_rss_mb().expect("VmHWM");
        assert!(peak > 0.0 && now > 0.0 && peak >= now);
    }
}
