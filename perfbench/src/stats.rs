//! Order statistics for latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of `xs` that still has [`TAIL_BEYOND`]
/// samples strictly above it, as `(percentile, value)`: the value is the
/// sample of rank `n - TAIL_BEYOND` (1-based) and the percentile is that
/// rank as a share of `n`. Refuses (`None`) with `TAIL_BEYOND` samples
/// or fewer, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    Some((pct, sorted(xs)[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_refuses_without_enough_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Rank 1 of 11: ten samples lie beyond it.
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("enough samples");
        assert_eq!(pct, 95.0);
        assert_eq!(v, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }
}
