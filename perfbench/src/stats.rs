//! Order statistics over measured samples.

use munin_obs::{Histogram, HIST_BUCKETS};

/// Quantile `q` of `v` by linear interpolation between closest ranks
/// (sorts `v`). `None` when `v` is empty.
pub fn quantile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(v: &mut [f64]) -> Option<f64> {
    quantile(v, 0.5)
}

/// Quantile `q` (µs) of integer nanosecond samples.
pub fn quantile_ns_as_us(v: &[u64], q: f64) -> Option<f64> {
    let mut f: Vec<f64> = v.iter().map(|ns| *ns as f64 / 1e3).collect();
    quantile(&mut f, q)
}

/// Quantile `q` (µs) of a telemetry histogram, interpolated linearly inside
/// the covering power-of-two bucket, without rounding to whole
/// microseconds. `None` when empty.
pub fn hist_quantile_us(h: &Histogram, q: f64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let n = n as f64;
        if seen + n >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return Some(lo + (rank - seen) / n * (hi - lo));
        }
        seen += n;
    }
    Some((1u64 << (HIST_BUCKETS - 1)) as f64)
}

/// Median of whole-microsecond readings, interpolated inside the unit-wide
/// bin that holds it (the grouped-data median), so that it moves with the
/// distribution instead of snapping to an integer. `None` when empty.
pub fn grouped_median(v: &mut [u64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let m = v[(v.len() - 1) / 2];
    let below = v.partition_point(|x| *x < m) as f64;
    let at = (v.partition_point(|x| *x <= m) as f64) - below;
    Some(m as f64 - 0.5 + (v.len() as f64 / 2.0 - below) / at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_bin() {
        assert_eq!(grouped_median(&mut [3, 3, 3, 3]), Some(3.0));
        let m = grouped_median(&mut [2, 3, 3, 3, 4, 4]).unwrap();
        assert!(m > 2.5 && m < 3.5, "{m}");
        assert_eq!(grouped_median(&mut []), None);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::default();
        for us in [20, 21, 22, 40] {
            h.record(us);
        }
        let p50 = hist_quantile_us(&h, 0.5).unwrap();
        assert!((16.0..32.0).contains(&p50), "{p50}");
        assert!(hist_quantile_us(&h, 0.99).unwrap() >= 32.0);
    }
}
