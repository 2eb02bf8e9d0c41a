//! Order statistics for latency samples.

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `q`-quantile of unsorted samples.
pub fn quantile_of(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

/// Median of unsorted samples (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile_of(v, 0.5)
}

/// A timing distribution as the benchmark reports it: the median, and the
/// highest of p99 / p90 / p50 that leaves at least ten samples beyond it —
/// the maximum when not even p50 does.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_label: &'static str,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let (tail_label, q) = [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)]
            .into_iter()
            .find(|&(_, q)| n as f64 * (1.0 - q) >= 10.0)
            .unwrap_or(("max", 1.0));
        Summary {
            n,
            p50: quantile(&s, 0.5),
            tail: quantile(&s, q),
            tail_label,
        }
    }

    /// `p50 X unit, p99 Y unit (n=N)` for the human-readable lines.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, {} {:.1} {unit} (n={})",
            self.p50, self.tail_label, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_label, s.tail, s.p50), ("p99", 990.0, 500.0));
        let s = Summary::of(&v[..50]);
        assert_eq!((s.tail_label, s.tail), ("p50", 25.0));
        let s = Summary::of(&v[..5]);
        assert_eq!((s.tail_label, s.tail), ("max", 5.0));
    }
}
