//! Ablations A1–A5 and A10: the design decisions §III reports testing.

use trout_core::{TargetTransform, TroutConfig, TroutTrainer};
use trout_features::{FeaturePipeline, Scaling};
use trout_ml::cv::{Fold, ShuffledKFold, TimeSeriesSplit};
use trout_ml::metrics;
use trout_ml::nn::Activation;

use crate::{Context, Report};

/// Trains and evaluates on the last two expanding-window folds (folds 4–5 of
/// the paper protocol) and averages `(classifier accuracy, regressor MAPE,
/// within-100%)` — one fold alone is too seed-sensitive to rank ablations.
fn final_fold_metrics(cfg: &TroutConfig, ds: &trout_features::Dataset) -> (f64, f64, f64) {
    let n = ds.len();
    let step = n / 6;
    let (mut acc_s, mut mape_s, mut within_s, mut k) = (0.0, 0.0, 0.0, 0);
    for test_start in [n - 2 * step, n - step] {
        let train: Vec<usize> = (0..test_start).collect();
        let model = TroutTrainer::new(cfg.clone()).fit_rows(ds, &train);
        let test: Vec<usize> = (test_start..(test_start + step).min(n)).collect();
        let (tx, ty) = ds.select(&test);

        let probs = crate::quick_start_probs(&model, &tx);
        let labels: Vec<f32> = ty
            .iter()
            .map(|&q| if q < cfg.cutoff_min { 1.0 } else { 0.0 })
            .collect();
        acc_s += metrics::binary_accuracy(&probs, &labels);

        let long: Vec<usize> = (0..ty.len()).filter(|&i| ty[i] >= cfg.cutoff_min).collect();
        if long.is_empty() {
            continue;
        }
        let lx = tx.select_rows(&long);
        let lys: Vec<f32> = long.iter().map(|&i| ty[i]).collect();
        let preds = crate::regressed_minutes(&model, &lx);
        mape_s += metrics::mape(&preds, &lys);
        within_s += metrics::fraction_within_pct(&preds, &lys, 100.0);
        k += 1;
    }
    let kf = k.max(1) as f64;
    (acc_s / 2.0, mape_s / kf, within_s / kf)
}

/// Mean regressor MAPE over arbitrary folds (used by the leakage ablation).
fn mean_mape_over_folds(cfg: &TroutConfig, ds: &trout_features::Dataset, folds: &[Fold]) -> f64 {
    let trainer = TroutTrainer::new(cfg.clone());
    let mut mapes = Vec::new();
    for fold in folds {
        let train_has_long = fold
            .train
            .iter()
            .any(|&i| ds.y_queue_min[i] >= cfg.cutoff_min);
        if !train_has_long {
            continue;
        }
        let model = trainer.fit_rows(ds, &fold.train);
        let long_test: Vec<usize> = fold
            .test
            .iter()
            .copied()
            .filter(|&i| ds.y_queue_min[i] >= cfg.cutoff_min)
            .collect();
        if long_test.is_empty() {
            continue;
        }
        let (lx, lys) = ds.select(&long_test);
        let preds = crate::regressed_minutes(&model, &lx);
        mapes.push(metrics::mape(&preds, &lys));
    }
    mapes.iter().sum::<f64>() / mapes.len().max(1) as f64
}

/// A1: classification cutoff at 5 / 10 / 30 minutes (§III: 5-min cutoff
/// roughly doubled regression MAPE; 30-min gains were marginal).
pub fn a1_cutoff(ctx: &Context) -> Report {
    let mut lines = vec![format!(
        "{:>11} {:>16} {:>16} {:>12}",
        "cutoff", "classifier acc", "regressor MAPE", "long jobs"
    )];
    for cutoff in [5.0f32, 10.0, 30.0] {
        let mut cfg = ctx.cfg.clone();
        cfg.cutoff_min = cutoff;
        let n_long = ctx.ds.long_wait_indices(cutoff).len();
        let (acc, mape, _) = final_fold_metrics(&cfg, &ctx.ds);
        lines.push(format!(
            "{cutoff:>9.0}m {:>15.2}% {:>15.2}% {n_long:>12}",
            100.0 * acc,
            mape
        ));
    }
    Report {
        id: "A1",
        title: "Quick-start cutoff ablation: 5 vs 10 vs 30 minutes",
        paper: "5-min cutoff gave over twice the regression MAPE; 30-min was marginal \
                with less classifier training data — 10 min chosen",
        lines,
    }
}

/// A2: shuffled-split leakage (§III: shuffling "doubled the performance of
/// the model … due to data leakage" from back-to-back user campaigns).
pub fn a2_leakage(ctx: &Context) -> Report {
    // Controlled design: both models are evaluated on the *same* held-out
    // rows (every second job of the most recent sixth). The honest model
    // trains only on the past; the leaky model additionally trains on the
    // evaluated jobs' interleaved siblings — exactly what a shuffled split
    // does to back-to-back campaigns ("failing to keep these jobs together
    // during training resulted in the test set being artificially similar to
    // the training set", §III).
    let n = ctx.ds.len();
    let window_start = n - n / 6;
    let eval_rows: Vec<usize> = (window_start..n)
        .filter(|i| (i - window_start) % 2 == 1)
        .collect();
    let sibling_rows: Vec<usize> = (window_start..n)
        .filter(|i| (i - window_start).is_multiple_of(2))
        .collect();
    let honest_train: Vec<usize> = (0..window_start).collect();
    let leaky_train: Vec<usize> = honest_train
        .iter()
        .copied()
        .chain(sibling_rows.iter().copied())
        .collect();

    let eval_long: Vec<usize> = eval_rows
        .iter()
        .copied()
        .filter(|&i| ctx.ds.y_queue_min[i] >= ctx.cfg.cutoff_min)
        .collect();
    let (lx, lys) = ctx.ds.select(&eval_long);

    let trainer = TroutTrainer::new(ctx.cfg.clone());
    let honest_model = trainer.fit_rows(&ctx.ds, &honest_train);
    let leaky_model = trainer.fit_rows(&ctx.ds, &leaky_train);
    let honest = metrics::mape(&crate::regressed_minutes(&honest_model, &lx), &lys);
    let leaky = metrics::mape(&crate::regressed_minutes(&leaky_model, &lx), &lys);

    // kNN makes the memorization mechanism explicit: with siblings in the
    // reference set, the nearest neighbour of an eval job is its own
    // campaign twin.
    let knn_mape = |rows: &[usize]| -> f64 {
        let long: Vec<usize> = rows
            .iter()
            .copied()
            .filter(|&i| ctx.ds.y_queue_min[i] >= ctx.cfg.cutoff_min)
            .collect();
        let (tx, ty_raw) = ctx.ds.select(&long);
        let ty: Vec<f32> = ty_raw
            .iter()
            .map(|&v| ctx.cfg.target_transform.forward(v))
            .collect();
        let knn = trout_ml::knn::KnnRegressor::fit(
            &tx,
            &ty,
            &trout_ml::knn::KnnConfig {
                k: 3,
                ..Default::default()
            },
        );
        let preds: Vec<f32> = knn
            .predict(&lx)
            .into_iter()
            .map(|p| ctx.cfg.target_transform.inverse(p).max(0.0))
            .collect();
        metrics::mape(&preds, &lys)
    };
    let knn_honest = knn_mape(&honest_train);
    let knn_leaky = knn_mape(&leaky_train);

    // Also report the uncontrolled comparison the paper actually ran
    // (shuffled k-fold vs time-series CV); its test sets differ between the
    // two arms, so at small scales window-difficulty noise can swamp it.
    let ts_folds = TimeSeriesSplit {
        n_splits: 3,
        test_size: Some(n / 6),
    }
    .split(n);
    let sh_folds = ShuffledKFold {
        n_splits: 3,
        seed: ctx.seed,
    }
    .split(n);
    let ts_mape = mean_mape_over_folds(&ctx.cfg, &ctx.ds, &ts_folds);
    let sh_mape = mean_mape_over_folds(&ctx.cfg, &ctx.ds, &sh_folds);

    Report {
        id: "A2",
        title: "Campaign data leakage: shuffled vs time-ordered training",
        paper: "shuffled train/test split doubled apparent performance because campaign \
                jobs leak across the split",
        lines: vec![
            format!("controlled (same {} eval jobs):", eval_long.len()),
            format!("  NN  honest (past-only)        MAPE: {honest:.2}%"),
            format!(
                "  NN  leaky (+campaign siblings) MAPE: {leaky:.2}%  ({:.2}x)",
                honest / leaky.max(1e-9)
            ),
            format!("  kNN honest (past-only)        MAPE: {knn_honest:.2}%"),
            format!(
                "  kNN leaky (+campaign siblings) MAPE: {knn_leaky:.2}%  ({:.2}x)",
                knn_honest / knn_leaky.max(1e-9)
            ),
            format!(
                "uncontrolled (paper's comparison): time-series CV {ts_mape:.2}% vs \
                 shuffled k-fold {sh_mape:.2}%"
            ),
        ],
    }
}

/// A3: SMOTE class balancing on vs off for the classifier.
pub fn a3_smote(ctx: &Context) -> Report {
    let mut lines = vec![format!(
        "{:>8} {:>12} {:>18} {:>18}",
        "SMOTE", "accuracy", "long-class acc", "quick-class acc"
    )];
    for use_smote in [true, false] {
        let mut cfg = ctx.cfg.clone();
        cfg.use_smote = use_smote;
        let n = ctx.ds.len();
        let test_start = n - n / 6;
        let train: Vec<usize> = (0..test_start).collect();
        let model = TroutTrainer::new(cfg.clone()).fit_rows(&ctx.ds, &train);
        let test: Vec<usize> = (test_start..n).collect();
        let (tx, ty) = ctx.ds.select(&test);
        let probs = crate::quick_start_probs(&model, &tx);
        let labels: Vec<f32> = ty
            .iter()
            .map(|&q| if q < cfg.cutoff_min { 1.0 } else { 0.0 })
            .collect();
        let acc = metrics::binary_accuracy(&probs, &labels);
        let (long_acc, quick_acc) = metrics::per_class_accuracy(&probs, &labels);
        lines.push(format!(
            "{:>8} {:>11.2}% {:>17.2}% {:>17.2}%",
            if use_smote { "on" } else { "off" },
            100.0 * acc,
            100.0 * long_acc,
            100.0 * quick_acc
        ));
    }
    Report {
        id: "A3",
        title: "SMOTE balancing for the quick-start classifier",
        paper: "without balancing, the 87% quick-start majority collapses minority recall; \
                with SMOTE both classes score similarly",
        lines,
    }
}

/// A4: feature scaling — ln(1+x) vs min-max vs z-score vs Box–Cox vs none.
pub fn a4_scaling(ctx: &Context) -> Report {
    let preds = ctx.runtime_model.predict_all(&ctx.trace);
    let mut lines = vec![format!(
        "{:>12} {:>16} {:>16}",
        "scaling", "classifier acc", "regressor MAPE"
    )];
    for (name, scaling) in [
        ("ln(1+x)", Scaling::Ln1p),
        ("min-max", Scaling::MinMax),
        ("z-score", Scaling::ZScore),
        ("box-cox .25", Scaling::BoxCox { lambda: 0.25 }),
        ("none", Scaling::None),
    ] {
        let ds = FeaturePipeline::with_scaling(scaling)
            .build_with_runtime_predictions(&ctx.trace, preds.clone());
        let (acc, mape, _) = final_fold_metrics(&ctx.cfg, &ds);
        lines.push(format!("{name:>12} {:>15.2}% {mape:>15.2}%", 100.0 * acc));
    }
    Report {
        id: "A4",
        title: "Feature scaling ablation",
        paper: "natural log chosen; min-max and Box–Cox 'found not to provide noticeable \
                benefits'; unscaled features hurt",
        lines,
    }
}

/// A5: activation (ELU vs ReLU vs tanh) and batch normalization on/off.
pub fn a5_activation_bn(ctx: &Context) -> Report {
    let mut lines = vec![format!(
        "{:>10} {:>6} {:>16} {:>14}",
        "activation", "BN", "regressor MAPE", "within-100%"
    )];
    for (name, act, bn) in [
        ("ELU", Activation::ELU, false),
        ("ReLU", Activation::Relu, false),
        ("tanh", Activation::Tanh, false),
        ("ELU", Activation::ELU, true),
    ] {
        let mut cfg = ctx.cfg.clone();
        cfg.activation = act;
        cfg.batchnorm = bn;
        let (_, mape, within) = final_fold_metrics(&cfg, &ctx.ds);
        lines.push(format!(
            "{name:>10} {:>6} {mape:>15.2}% {:>13.3}",
            if bn { "on" } else { "off" },
            within
        ));
    }
    Report {
        id: "A5",
        title: "Activation function & batch-norm ablation",
        paper: "ELU 'achieved marginally better results' than ReLU; batch norm gave no \
                notable improvement and was rejected",
        lines,
    }
}

/// A10 (extension): regression target transform — raw minutes (the paper's
/// literal setup) vs ln(1+minutes) (this implementation's default).
pub fn a10_target(ctx: &Context) -> Report {
    let mut lines = vec![format!(
        "{:>12} {:>16} {:>14}",
        "target", "regressor MAPE", "within-100%"
    )];
    for (name, t) in [
        ("raw minutes", TargetTransform::Raw),
        ("log1p", TargetTransform::Log1p),
    ] {
        let mut cfg = ctx.cfg.clone();
        cfg.target_transform = t;
        let (_, mape, within) = final_fold_metrics(&cfg, &ctx.ds);
        lines.push(format!("{name:>12} {mape:>15.2}% {within:>13.3}"));
    }
    Report {
        id: "A10",
        title: "Regression target transform (implementation note)",
        paper: "paper trains smooth-L1 on raw minutes; this repo defaults to log-space \
                targets because MAPE is the metric — this ablation quantifies the gap",
        lines,
    }
}

/// A12 (extension): the runtime-prediction features (§II: "it is important to
/// have additional information regarding when running jobs will finish";
/// Table II's `Pred Runtime`, `Par Queue Pred Timelimit`,
/// `Par Running Pred Timelimit`). Compares the full model against one trained
/// without those three columns, and reports the runtime RF's own quality
/// against the "assume the limit" baseline.
pub fn a12_runtime_features(ctx: &Context) -> Report {
    use trout_features::names::{idx, N_FEATURES};

    // Runtime model quality on the most recent sixth.
    let n = ctx.trace.records.len();
    let test = &ctx.trace.records[n - n / 6..];
    let (mut rf_err, mut limit_err) = (0.0f64, 0.0f64);
    for r in test {
        let truth = r.runtime_min();
        rf_err += (ctx.runtime_model.predict(r) - truth).abs();
        limit_err += (r.timelimit_min as f64 - truth).abs();
    }
    let (rf_mae, limit_mae) = (rf_err / test.len() as f64, limit_err / test.len() as f64);

    // Queue model with vs without the three prediction-derived features.
    let keep: Vec<usize> = (0..N_FEATURES)
        .filter(|&j| {
            j != idx::PRED_RUNTIME
                && j != idx::PAR_QUEUE_PRED_TIMELIMIT
                && j != idx::PAR_RUNNING_PRED_TIMELIMIT
        })
        .collect();
    let pruned = ctx.ds.project(&keep);
    let (acc_full, mape_full, _) = final_fold_metrics(&ctx.cfg, &ctx.ds);
    let (acc_pruned, mape_pruned, _) = final_fold_metrics(&ctx.cfg, &pruned);

    Report {
        id: "A12",
        title: "Runtime-prediction features: on vs off",
        paper: "§II argues runtime predictions are essential for wait-time models; the \
                paper feeds an RF runtime model into 3 of the 33 features",
        lines: vec![
            format!(
                "runtime RF MAE {rf_mae:.1} min vs assume-the-limit {limit_mae:.1} min \
                 ({:.1}x better)",
                limit_mae / rf_mae.max(1e-9)
            ),
            format!(
                "full 33 features:    classifier {:.2}%  regressor MAPE {mape_full:.2}%",
                100.0 * acc_full
            ),
            format!(
                "without pred-runtime: classifier {:.2}%  regressor MAPE {mape_pruned:.2}%",
                100.0 * acc_pruned
            ),
        ],
    }
}
