//! Order statistics over per-pass samples.

/// Median, first and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarizes `samples`; quartiles use the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`, so numbers here match a
/// reader's own post-processing. With fewer than two samples every
/// statistic is the single value (0 for none).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return Summary {
            median: v,
            q1: v,
            q3: v,
            n,
        };
    }
    Summary {
        median: median_sorted(&sorted),
        q1: quartile_sorted(&sorted, 1),
        q3: quartile_sorted(&sorted, 3),
        n,
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Quartile `i` (1 or 3) of at least two sorted samples: position
/// `i * (n + 1) / 4`, linearly interpolated.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len() + 1;
    let j = (i * m / 4).clamp(1, sorted.len() - 1);
    let delta = (i * m) as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_matches_python_quantiles() {
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
    }

    #[test]
    fn even_count_matches_python_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs_collapse_to_the_value() {
        assert_eq!(summarize(&[]).median, 0.0);
        let s = summarize(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.5, 4.5, 4.5, 1));
    }
}
