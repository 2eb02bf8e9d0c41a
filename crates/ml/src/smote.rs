//! SMOTE — Synthetic Minority Over-sampling TEchnique (Chawla et al., 2002).
//!
//! The paper balances the quick-start classifier's classes by
//! "undersampling the majority class … and oversampling the minority class
//! through artificial data creation" (§III): 87 % of raw jobs queue under
//! 10 minutes, so without balancing the classifier would collapse to the
//! majority class. Synthetic minority samples are linear interpolations
//! between a minority point and one of its k nearest minority neighbours.

use trout_linalg::{ops::dist2, Matrix, SplitMix64};

use crate::data::Standardizer;

/// Balancing configuration.
#[derive(Debug, Clone)]
pub struct SmoteConfig {
    /// Neighbours considered when interpolating (classic SMOTE uses 5).
    pub k: usize,
    /// Target ratio minority/majority after balancing (1.0 = equal classes).
    pub target_ratio: f32,
    /// Majority undersample: keep at most this multiple of the (original)
    /// minority count; `None` keeps all majority rows.
    pub majority_cap_ratio: Option<f32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SmoteConfig {
    fn default() -> Self {
        SmoteConfig {
            k: 5,
            target_ratio: 1.0,
            majority_cap_ratio: Some(1.0),
            seed: 0,
        }
    }
}

/// Balances a binary dataset (`labels` are 0/1). Returns the new `(x, y)`,
/// majority rows first (callers should shuffle during training — the MLP
/// does). Synthetic rows interpolate *raw* feature values; neighbour search
/// runs in standardized space.
///
/// # Panics
///
/// Panics if either class is empty or inputs mismatch.
pub fn smote_balance(x: &Matrix, labels: &[f32], cfg: &SmoteConfig) -> (Matrix, Vec<f32>) {
    assert_eq!(x.rows(), labels.len(), "x/labels length mismatch");
    let minority_is_one = {
        let ones = labels.iter().filter(|&&l| l >= 0.5).count();
        ones * 2 <= labels.len()
    };
    let (min_label, maj_label) = if minority_is_one {
        (1.0f32, 0.0f32)
    } else {
        (0.0, 1.0)
    };
    let min_idx: Vec<usize> = (0..labels.len())
        .filter(|&i| (labels[i] >= 0.5) == (min_label >= 0.5))
        .collect();
    let maj_idx: Vec<usize> = (0..labels.len())
        .filter(|&i| (labels[i] >= 0.5) != (min_label >= 0.5))
        .collect();
    assert!(!min_idx.is_empty(), "minority class is empty");
    assert!(!maj_idx.is_empty(), "majority class is empty");

    let mut rng = SplitMix64::new(cfg.seed ^ 0x534d_4f54_4500);

    // 1. Undersample the majority.
    let maj_keep = match cfg.majority_cap_ratio {
        Some(r) => ((min_idx.len() as f32 * r) as usize).clamp(1, maj_idx.len()),
        None => maj_idx.len(),
    };
    let mut kept_maj: Vec<usize> = if maj_keep < maj_idx.len() {
        rng.sample_indices(maj_idx.len(), maj_keep)
            .into_iter()
            .map(|i| maj_idx[i])
            .collect()
    } else {
        maj_idx.clone()
    };
    kept_maj.sort_unstable();

    // 2. Oversample the minority towards target_ratio * kept majority.
    let target_min = ((kept_maj.len() as f32 * cfg.target_ratio) as usize).max(min_idx.len());
    let synth_needed = target_min - min_idx.len();

    let mut rows: Vec<f32> = Vec::with_capacity((kept_maj.len() + target_min) * x.cols());
    let mut y: Vec<f32> = Vec::with_capacity(kept_maj.len() + target_min);
    for &i in &kept_maj {
        rows.extend_from_slice(x.row(i));
        y.push(maj_label);
    }
    for &i in &min_idx {
        rows.extend_from_slice(x.row(i));
        y.push(min_label);
    }

    if min_idx.len() == 1 {
        // Degenerate: replicate the single minority row.
        for _ in 0..synth_needed {
            rows.extend_from_slice(x.row(min_idx[0]));
            y.push(min_label);
        }
    } else if synth_needed > 0 {
        // Neighbour search in standardized space over the minority set.
        let min_x = x.select_rows(&min_idx);
        let scaler = Standardizer::fit(&min_x);
        let min_std = scaler.transform(&min_x);
        let k = cfg.k.min(min_idx.len().saturating_sub(1)).max(1);
        // Synthetic row `s` interpolates from minority point `s % n_min`, so
        // only the first `min(synth_needed, n_min)` points ever need their k
        // nearest minority neighbours. When the majority cap leaves the
        // classes already balanced (the production config), nothing is
        // synthesized and no distance is computed at all.
        let n_min = min_idx.len();
        let sources = synth_needed.min(n_min);
        let mut neighbours: Vec<Vec<usize>> = Vec::with_capacity(sources);
        for a in 0..sources {
            let mut dists: Vec<(f32, usize)> = (0..n_min)
                .filter(|&b| b != a)
                .map(|b| (dist2(min_std.row(a), min_std.row(b)), b))
                .collect();
            dists.sort_by(|p, q| p.0.total_cmp(&q.0));
            neighbours.push(dists.into_iter().take(k).map(|(_, b)| b).collect());
        }
        for s in 0..synth_needed {
            let a = s % n_min; // round-robin over minority points
            let nb = neighbours[a][rng.next_below(neighbours[a].len() as u64) as usize];
            let gap = rng.next_f32();
            let ra = x.row(min_idx[a]);
            let rb = x.row(min_idx[nb]);
            for (va, vb) in ra.iter().zip(rb) {
                rows.push(va + gap * (vb - va));
            }
            y.push(min_label);
        }
    }

    let n_rows = y.len();
    (Matrix::from_vec(n_rows, x.cols(), rows), y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 90/10 imbalanced blobs: majority at (0,0), minority at (5,5).
    fn blobs() -> (Matrix, Vec<f32>) {
        let mut rng = SplitMix64::new(7);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let minority = i % 10 == 0;
            let c = if minority { 5.0 } else { 0.0 };
            rows.push(c + rng.uniform(-0.5, 0.5));
            rows.push(c + rng.uniform(-0.5, 0.5));
            y.push(if minority { 1.0 } else { 0.0 });
        }
        (Matrix::from_vec(200, 2, rows), y)
    }

    fn class_counts(y: &[f32]) -> (usize, usize) {
        let ones = y.iter().filter(|&&l| l >= 0.5).count();
        (y.len() - ones, ones)
    }

    #[test]
    fn balances_to_equal_classes() {
        let (x, y) = blobs();
        let (bx, by) = smote_balance(&x, &y, &SmoteConfig::default());
        let (zeros, ones) = class_counts(&by);
        assert_eq!(zeros, ones, "classes should be balanced: {zeros} vs {ones}");
        assert_eq!(bx.rows(), by.len());
    }

    #[test]
    fn synthetic_points_stay_in_minority_region() {
        let (x, y) = blobs();
        let (bx, by) = smote_balance(&x, &y, &SmoteConfig::default());
        for (r, &label) in by.iter().enumerate() {
            if label >= 0.5 {
                let row = bx.row(r);
                // Convex combinations of minority points stay in their box.
                assert!(
                    (4.0..=6.0).contains(&row[0]) && (4.0..=6.0).contains(&row[1]),
                    "synthetic point {row:?} escaped the minority blob"
                );
            }
        }
    }

    #[test]
    fn no_cap_keeps_all_majority() {
        let (x, y) = blobs();
        let cfg = SmoteConfig {
            majority_cap_ratio: None,
            ..Default::default()
        };
        let (_, by) = smote_balance(&x, &y, &cfg);
        let (zeros, ones) = class_counts(&by);
        assert_eq!(zeros, 180, "majority untouched");
        assert_eq!(ones, 180, "minority oversampled to match");
    }

    #[test]
    fn works_when_minority_is_class_zero() {
        let (x, mut y) = blobs();
        for l in &mut y {
            *l = 1.0 - *l; // flip: minority becomes class 0
        }
        let (_, by) = smote_balance(&x, &y, &SmoteConfig::default());
        let (zeros, ones) = class_counts(&by);
        assert_eq!(zeros, ones);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs();
        let a = smote_balance(&x, &y, &SmoteConfig::default());
        let b = smote_balance(&x, &y, &SmoteConfig::default());
        assert_eq!(a.0.as_slice(), b.0.as_slice());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn single_minority_sample_replicates() {
        let x = Matrix::from_vec(5, 1, vec![0.0, 0.1, 0.2, 0.3, 9.0]);
        let y = [0.0f32, 0.0, 0.0, 0.0, 1.0];
        let (bx, by) = smote_balance(&x, &y, &SmoteConfig::default());
        let (zeros, ones) = class_counts(&by);
        assert_eq!(zeros, ones);
        for (r, &label) in by.iter().enumerate() {
            if label >= 0.5 {
                assert_eq!(bx.row(r)[0], 9.0);
            }
        }
    }

    /// Classic SMOTE with the full O(n_min²) neighbour table, for a caller
    /// that keeps every majority row (so the RNG serves synthesis alone).
    fn brute_force_reference(x: &Matrix, labels: &[f32], cfg: &SmoteConfig) -> Vec<f32> {
        assert!(cfg.majority_cap_ratio.is_none());
        let min_idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] >= 0.5).collect();
        let maj_idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] < 0.5).collect();
        let min_std =
            Standardizer::fit(&x.select_rows(&min_idx)).transform(&x.select_rows(&min_idx));
        let n_min = min_idx.len();
        let neighbours: Vec<Vec<usize>> = (0..n_min)
            .map(|a| {
                let mut d: Vec<(f32, usize)> = (0..n_min)
                    .filter(|&b| b != a)
                    .map(|b| (dist2(min_std.row(a), min_std.row(b)), b))
                    .collect();
                d.sort_by(|p, q| p.0.total_cmp(&q.0));
                d.into_iter().take(cfg.k).map(|(_, b)| b).collect()
            })
            .collect();
        let mut rng = SplitMix64::new(cfg.seed ^ 0x534d_4f54_4500);
        let mut rows: Vec<f32> = Vec::new();
        for &i in maj_idx.iter().chain(&min_idx) {
            rows.extend_from_slice(x.row(i));
        }
        let target = (maj_idx.len() as f32 * cfg.target_ratio) as usize;
        for s in 0..target - n_min {
            let a = s % n_min;
            let nb = neighbours[a][rng.next_below(cfg.k as u64) as usize];
            let gap = rng.next_f32();
            for (va, vb) in x.row(min_idx[a]).iter().zip(x.row(min_idx[nb])) {
                rows.push(va + gap * (vb - va));
            }
        }
        rows
    }

    #[test]
    fn partial_neighbour_table_matches_brute_force() {
        // 30 majority rows against 20 minority rows: 10 synthetic rows, so
        // only half the minority points need neighbour lists. A 3:1 ratio
        // wraps the round-robin past n_min too.
        let mut rng = SplitMix64::new(11);
        let x = Matrix::from_fn(50, 3, |_, _| rng.uniform(-2.0, 2.0));
        let y: Vec<f32> = (0..50).map(|i| if i % 5 < 2 { 1.0 } else { 0.0 }).collect();
        for target_ratio in [1.0, 3.0] {
            let cfg = SmoteConfig {
                majority_cap_ratio: None,
                target_ratio,
                seed: 4,
                ..Default::default()
            };
            let (bx, by) = smote_balance(&x, &y, &cfg);
            let want = brute_force_reference(&x, &y, &cfg);
            assert_eq!(by.len() * 3, want.len());
            let same = bx
                .as_slice()
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "target_ratio {target_ratio}: rows diverged");
        }
    }

    #[test]
    #[should_panic(expected = "minority class is empty")]
    fn rejects_single_class_input() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let _ = smote_balance(&x, &[0.0, 0.0, 0.0], &SmoteConfig::default());
    }
}
