//! Online learning — the paper's §V future work: "future work on integrating
//! online learning capabilities is needed to ensure predictions stay current
//! with the cluster changes."
//!
//! The mechanism is warm-start fine-tuning: as freshly completed jobs arrive,
//! both networks continue training from their current weights on a sliding
//! window of recent history, at a reduced learning rate so the update refines
//! rather than forgets.

use trout_features::Dataset;
use trout_linalg::Workspace;
use trout_ml::smote::{smote_balance, SmoteConfig};

use crate::model::HierarchicalModel;
use crate::trainer::TroutConfig;

/// Persistent training workspaces for repeated online refits: one per
/// network, sized from the model's architecture and training batch size so
/// every `update_model_in` call reuses them instead of re-allocating the
/// full set of layer buffers.
#[derive(Debug)]
pub struct RefitScratch {
    classifier_ws: Workspace,
    regressor_ws: Workspace,
}

impl RefitScratch {
    /// Builds refit workspaces matching `model`'s architecture. Stays valid
    /// across refits (they never change the layer shapes).
    pub fn for_model(model: &HierarchicalModel) -> Self {
        RefitScratch {
            classifier_ws: model.classifier.fit_workspace(),
            regressor_ws: model.regressor.fit_workspace(),
        }
    }
}

/// Online-update policy.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Epochs per update.
    pub epochs: usize,
    /// Learning-rate multiplier relative to the base config (< 1 so updates
    /// refine instead of overwrite).
    pub lr_scale: f32,
    /// Sliding window: at most this many most-recent rows per update.
    pub window: usize,
    /// Serve-daemon journal fsync policy. 1 = every accepted event is
    /// durable before it is acknowledged, by group commit (one `sync_data`
    /// per dirty journal per drained request window); N > 1 = `sync_data`
    /// every N appends without holding acks; 0 = never fsync, leave
    /// durability to the OS page cache. Lives here because it is part of the same online-operation
    /// policy surface the daemon is configured with; the journal itself is
    /// in `trout-serve`.
    pub journal_fsync_every: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epochs: 4,
            lr_scale: 0.3,
            window: 8_000,
            journal_fsync_every: 1,
        }
    }
}

/// Applies one online update to a trained model from newly completed jobs.
///
/// `rows` are dataset row indices of the jobs observed since the last update
/// (they must be completed jobs — their queue times are the labels). The
/// update window is the tail `cfg_online.window` of them.
pub fn update_model(
    model: &mut HierarchicalModel,
    base: &TroutConfig,
    online: &OnlineConfig,
    ds: &Dataset,
    rows: &[usize],
) {
    let mut scratch = RefitScratch::for_model(model);
    update_model_in(model, base, online, ds, rows, &mut scratch);
}

/// [`update_model`] against caller-owned refit workspaces — what a serving
/// loop should call so refits under traffic stop churning the allocator.
pub fn update_model_in(
    model: &mut HierarchicalModel,
    base: &TroutConfig,
    online: &OnlineConfig,
    ds: &Dataset,
    rows: &[usize],
    scratch: &mut RefitScratch,
) {
    if rows.is_empty() {
        return;
    }
    let _span = trout_obs::span!("core.online_update");
    let take = rows.len().min(online.window);
    let window = &rows[rows.len() - take..];
    let (x, y) = ds.select(window);
    let lr = base.lr * online.lr_scale;

    // Classifier update on (re-)balanced classes.
    let labels: Vec<f32> = y
        .iter()
        .map(|&q| if q < model.cutoff_min { 1.0 } else { 0.0 })
        .collect();
    let has_both = labels.iter().any(|&l| l >= 0.5) && labels.iter().any(|&l| l < 0.5);
    if has_both {
        let (cx, cy) = if base.use_smote {
            smote_balance(
                &x,
                &labels,
                &SmoteConfig {
                    seed: base.seed ^ rows.len() as u64,
                    ..Default::default()
                },
            )
        } else {
            (x.clone(), labels)
        };
        model
            .classifier
            .fit_with_in(&cx, &cy, online.epochs, lr, &mut scratch.classifier_ws);
    }

    // Regressor update on the window's long jobs.
    let long: Vec<usize> = (0..y.len()).filter(|&i| y[i] >= model.cutoff_min).collect();
    if !long.is_empty() {
        let rx = x.select_rows(&long);
        let ry: Vec<f32> = long
            .iter()
            .map(|&i| model.target_transform.forward(y[i]))
            .collect();
        model
            .regressor
            .fit_with_in(&rx, &ry, online.epochs, lr, &mut scratch.regressor_ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{featurize, BatchPredictionRequest, Predictor, TroutTrainer};
    use trout_linalg::Matrix;
    use trout_ml::metrics;
    use trout_slurmsim::SimulationBuilder;

    fn quick_probs(model: &HierarchicalModel, x: &Matrix) -> Vec<f32> {
        model
            .predict_batch(BatchPredictionRequest::new(x))
            .into_iter()
            .map(|p| p.quick_proba)
            .collect()
    }

    #[test]
    fn online_updates_do_not_break_the_model() {
        let trace = SimulationBuilder::anvil_like().jobs(4_000).seed(14).run();
        let (ds, _) = featurize(&trace, 0.6, 1);
        let base = TroutConfig::smoke();
        let mut model =
            TroutTrainer::new(base.clone()).fit_rows(&ds, &(0..2_000).collect::<Vec<_>>());
        let online = OnlineConfig::default();
        for chunk_start in (2_000..3_600).step_by(400) {
            let rows: Vec<usize> = (chunk_start..chunk_start + 400).collect();
            update_model(&mut model, &base, &online, &ds, &rows);
        }
        // Still produces finite predictions on the most recent window.
        let tail: Vec<usize> = (3_600..4_000).collect();
        let (tx, _) = ds.select(&tail);
        for p in model.predict_batch(BatchPredictionRequest::with_minutes(&tx)) {
            let m = p.minutes.expect("want_minutes set");
            assert!(m.is_finite() && m >= 0.0);
            assert!((0.0..=1.0).contains(&p.quick_proba));
        }
    }

    #[test]
    fn online_updates_track_drift_better_than_a_frozen_model() {
        // Train both models on the first half, then stream the second half in
        // chunks; the updated model sees each chunk after predicting the next.
        let trace = SimulationBuilder::anvil_like().jobs(8_000).seed(42).run();
        let (ds, _) = featurize(&trace, 0.5, 1);
        let mut base = TroutConfig::smoke();
        base.classifier_epochs = 6;
        let train: Vec<usize> = (0..4_000).collect();
        let frozen = TroutTrainer::new(base.clone()).fit_rows(&ds, &train);
        let mut online_model = frozen.clone();
        let online = OnlineConfig {
            epochs: 3,
            lr_scale: 0.3,
            window: 4_000,
            ..Default::default()
        };

        let (mut frozen_acc, mut online_acc, mut chunks) = (0.0, 0.0, 0);
        for start in (4_000..8_000).step_by(1_000) {
            let eval_rows: Vec<usize> = (start..start + 1_000).collect();
            let (tx, ty) = ds.select(&eval_rows);
            let labels: Vec<f32> = ty
                .iter()
                .map(|&q| if q < 10.0 { 1.0 } else { 0.0 })
                .collect();
            frozen_acc += metrics::binary_accuracy(&quick_probs(&frozen, &tx), &labels);
            online_acc += metrics::binary_accuracy(&quick_probs(&online_model, &tx), &labels);
            chunks += 1;
            update_model(&mut online_model, &base, &online, &ds, &eval_rows);
        }
        let (f, o) = (frozen_acc / chunks as f64, online_acc / chunks as f64);
        // The online model must not be (meaningfully) worse; usually better.
        assert!(o >= f - 0.03, "online {o:.3} vs frozen {f:.3}");
    }

    #[test]
    fn empty_update_is_a_no_op() {
        let trace = SimulationBuilder::anvil_like().jobs(2_500).seed(14).run();
        let (ds, _) = featurize(&trace, 0.6, 1);
        let base = TroutConfig::smoke();
        let mut model = TroutTrainer::new(base.clone()).fit(&ds);
        let before = model.to_json();
        update_model(&mut model, &base, &OnlineConfig::default(), &ds, &[]);
        assert_eq!(model.to_json(), before);
    }
}
