//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail the sample supports: the highest whole percentile `p` whose
/// nearest-rank value (the ⌈p·n/100⌉-th smallest) still has at least
/// `beyond` samples above it. Returns `(p, value)`, or `(100, max)` when
/// the sample is too small to leave `beyond` samples beyond any
/// percentile.
pub fn tail(xs: &[f64], beyond: usize) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (1..100u32).rev() {
        let rank = (p as usize * n).div_ceil(100);
        if rank >= 1 && n - rank >= beyond {
            return (p, v[rank - 1]);
        }
    }
    (100, v.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is the 90th smallest value; 10 samples lie above it.
        assert_eq!(tail(&xs, 10), (90, 90.0));
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), (80, 40.0));
        // Too few samples for any percentile: fall back to the maximum.
        assert_eq!(tail(&[1.0, 2.0, 3.0], 10), (100, 3.0));
    }
}
