//! Classifier probability calibration.
//!
//! The paper's classifier trains on SMOTE-*balanced* classes (§III) but is
//! deployed on the raw ~87/13 distribution, so its raw sigmoid outputs are
//! systematically mis-calibrated as probabilities (they are fine as a 0.5
//! decision rule, which is all the paper uses). For a user-facing tool a
//! calibrated "chance your job starts within 10 minutes" is strictly more
//! useful, so this module provides Platt scaling (a logistic fit on held-out
//! logits) plus Brier score and a reliability table to measure it.

use trout_linalg::ops::sigmoid;

/// Platt scaler: `p = sigmoid(a * logit + b)` with `(a, b)` fitted on a
/// held-out calibration set by logistic regression (Newton iterations).
#[derive(Debug, Clone)]
pub struct PlattScaler {
    a: f32,
    b: f32,
}

trout_std::impl_json_struct!(PlattScaler { a, b });

impl PlattScaler {
    /// Fits on raw classifier logits and 0/1 labels.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch.
    pub fn fit(logits: &[f32], labels: &[f32]) -> PlattScaler {
        assert_eq!(logits.len(), labels.len(), "length mismatch");
        assert!(!logits.is_empty(), "cannot calibrate on empty data");
        // Newton-Raphson on the 2-parameter logistic log-likelihood.
        let (mut a, mut b) = (1.0f64, 0.0f64);
        // Platt's target smoothing avoids infinite weights at 0/1 labels.
        let n1 = labels.iter().filter(|&&l| l >= 0.5).count() as f64;
        let n0 = labels.len() as f64 - n1;
        let t1 = (n1 + 1.0) / (n1 + 2.0);
        let t0 = 1.0 / (n0 + 2.0);
        for _ in 0..50 {
            let (mut g_a, mut g_b) = (0.0f64, 0.0f64);
            let (mut h_aa, mut h_ab, mut h_bb) = (1e-9f64, 0.0f64, 1e-9f64);
            for (&x, &l) in logits.iter().zip(labels) {
                let x = x as f64;
                let t = if l >= 0.5 { t1 } else { t0 };
                let p = 1.0 / (1.0 + (-(a * x + b)).exp());
                let d = p - t;
                g_a += d * x;
                g_b += d;
                let w = (p * (1.0 - p)).max(1e-12);
                h_aa += w * x * x;
                h_ab += w * x;
                h_bb += w;
            }
            // Solve the 2x2 Newton system.
            let det = h_aa * h_bb - h_ab * h_ab;
            if det.abs() < 1e-18 {
                break;
            }
            let da = (g_a * h_bb - g_b * h_ab) / det;
            let db = (g_b * h_aa - g_a * h_ab) / det;
            a -= da;
            b -= db;
            if da.abs() < 1e-10 && db.abs() < 1e-10 {
                break;
            }
        }
        PlattScaler {
            a: a as f32,
            b: b as f32,
        }
    }

    /// Calibrated probability for one raw logit.
    pub fn calibrate(&self, logit: f32) -> f32 {
        sigmoid(self.a * logit + self.b)
    }

    /// Calibrates a batch of logits.
    pub fn calibrate_batch(&self, logits: &[f32]) -> Vec<f32> {
        logits.iter().map(|&l| self.calibrate(l)).collect()
    }
}

/// Brier score: mean squared error of probabilities against 0/1 outcomes
/// (lower is better; 0.25 = uninformative coin at a balanced base rate).
pub fn brier_score(probs: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(probs.len(), labels.len(), "length mismatch");
    if probs.is_empty() {
        return 0.0;
    }
    probs
        .iter()
        .zip(labels)
        .map(|(&p, &l)| {
            let d = p as f64 - l as f64;
            d * d
        })
        .sum::<f64>()
        / probs.len() as f64
}

/// One row of a reliability diagram: predicted-probability bucket vs the
/// observed frequency of the positive class inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityBin {
    /// Bucket lower edge (upper edge is `lo + width`).
    pub lo: f64,
    /// Mean predicted probability inside the bucket.
    pub mean_predicted: f64,
    /// Observed positive frequency inside the bucket.
    pub observed: f64,
    /// Samples in the bucket.
    pub count: usize,
}

/// Builds an `n_bins`-bucket reliability table.
pub fn reliability_table(probs: &[f32], labels: &[f32], n_bins: usize) -> Vec<ReliabilityBin> {
    assert_eq!(probs.len(), labels.len(), "length mismatch");
    assert!(n_bins >= 1, "need at least one bin");
    let width = 1.0 / n_bins as f64;
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); n_bins];
    for (&p, &l) in probs.iter().zip(labels) {
        let b = ((p as f64 / width) as usize).min(n_bins - 1);
        sums[b].0 += p as f64;
        sums[b].1 += f64::from(l >= 0.5);
        sums[b].2 += 1;
    }
    sums.into_iter()
        .enumerate()
        .map(|(i, (ps, ls, n))| ReliabilityBin {
            lo: i as f64 * width,
            mean_predicted: if n == 0 { 0.0 } else { ps / n as f64 },
            observed: if n == 0 { 0.0 } else { ls / n as f64 },
            count: n,
        })
        .collect()
}

/// Expected calibration error: reliability-table gap weighted by bin mass.
pub fn expected_calibration_error(probs: &[f32], labels: &[f32], n_bins: usize) -> f64 {
    let table = reliability_table(probs, labels, n_bins);
    let total: usize = table.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    table
        .iter()
        .map(|b| (b.count as f64 / total as f64) * (b.mean_predicted - b.observed).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_linalg::SplitMix64;

    /// Synthetic logits whose true P(y=1) = sigmoid(2x - 1) while the raw
    /// "model" reports sigmoid(x): miscalibrated but rankings preserved.
    fn miscalibrated(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = SplitMix64::new(seed);
        let mut logits = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.uniform(-4.0, 4.0);
            let p_true = sigmoid(2.0 * x - 1.0);
            logits.push(x);
            labels.push(f32::from(rng.next_f32() < p_true));
        }
        (logits, labels)
    }

    #[test]
    fn platt_recovers_the_true_link() {
        let (logits, labels) = miscalibrated(20_000, 1);
        let scaler = PlattScaler::fit(&logits, &labels);
        // True transform is a = 2, b = -1 (up to Platt's label smoothing).
        assert!((scaler.a - 2.0).abs() < 0.15, "a = {}", scaler.a);
        assert!((scaler.b + 1.0).abs() < 0.15, "b = {}", scaler.b);
    }

    #[test]
    fn calibration_reduces_brier_and_ece() {
        let (logits, labels) = miscalibrated(20_000, 2);
        let raw: Vec<f32> = logits.iter().map(|&l| sigmoid(l)).collect();
        let scaler = PlattScaler::fit(&logits, &labels);
        let cal = scaler.calibrate_batch(&logits);
        assert!(
            brier_score(&cal, &labels) < brier_score(&raw, &labels),
            "calibration should reduce Brier: {} vs {}",
            brier_score(&cal, &labels),
            brier_score(&raw, &labels)
        );
        assert!(
            expected_calibration_error(&cal, &labels, 10)
                < expected_calibration_error(&raw, &labels, 10) / 2.0,
            "ECE should drop substantially"
        );
    }

    #[test]
    fn reliability_table_is_monotone_for_calibrated_probs() {
        let (logits, labels) = miscalibrated(30_000, 3);
        let scaler = PlattScaler::fit(&logits, &labels);
        let cal = scaler.calibrate_batch(&logits);
        let table = reliability_table(&cal, &labels, 5);
        for bin in table.iter().filter(|b| b.count > 500) {
            assert!(
                (bin.mean_predicted - bin.observed).abs() < 0.08,
                "bin at {:.1}: predicted {:.3} observed {:.3}",
                bin.lo,
                bin.mean_predicted,
                bin.observed
            );
        }
    }

    #[test]
    fn brier_extremes() {
        assert_eq!(brier_score(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(brier_score(&[0.0, 1.0], &[1.0, 0.0]), 1.0);
        assert_eq!(brier_score(&[], &[]), 0.0);
    }

    #[test]
    fn reliability_bins_partition_samples() {
        let probs = [0.05f32, 0.15, 0.55, 0.95, 0.99];
        let labels = [0.0f32, 0.0, 1.0, 1.0, 1.0];
        let table = reliability_table(&probs, &labels, 10);
        let total: usize = table.iter().map(|b| b.count).sum();
        assert_eq!(total, 5);
        assert_eq!(table[0].count, 1);
        assert_eq!(table[9].count, 2); // 0.95 and 0.99
    }

    #[test]
    fn degenerate_single_class_does_not_blow_up() {
        let logits = [0.5f32, 1.0, -0.5, 2.0];
        let labels = [1.0f32; 4];
        let scaler = PlattScaler::fit(&logits, &labels);
        for &l in &logits {
            let p = scaler.calibrate(l);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }
}
