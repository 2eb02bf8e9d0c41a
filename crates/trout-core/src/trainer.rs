//! Training the hierarchical model.

use trout_features::Dataset;
use trout_ml::calibration::PlattScaler;
use trout_ml::nn::{Activation, Loss, Mlp, MlpConfig};
use trout_ml::smote::{smote_balance, SmoteConfig};

use crate::model::HierarchicalModel;

/// Transform applied to the regression target (queue minutes).
///
/// The paper regresses minutes directly under smooth-L1; with MAPE as the
/// evaluation metric, training in `ln(1+y)` space makes the loss itself
/// relative-error-shaped and conditions the output scale, so it is the
/// default here. `Raw` reproduces the paper's literal setup; ablation A10
/// compares the two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetTransform {
    /// Predict minutes directly.
    Raw,
    /// Predict `ln(1 + minutes)`, invert with `expm1`.
    Log1p,
}

trout_std::impl_json_enum!(TargetTransform { Raw, Log1p });

impl TargetTransform {
    /// Forward transform applied to training targets.
    pub fn forward(self, minutes: f32) -> f32 {
        match self {
            TargetTransform::Raw => minutes,
            TargetTransform::Log1p => (1.0 + minutes.max(0.0)).ln(),
        }
    }

    /// Inverse transform applied to network outputs.
    pub fn inverse(self, raw: f32) -> f32 {
        match self {
            TargetTransform::Raw => raw,
            // Clamp the exponent so a wild logit cannot overflow to inf.
            TargetTransform::Log1p => raw.min(13.0).exp() - 1.0,
        }
    }
}

/// Full training configuration for TROUT.
#[derive(Debug, Clone)]
pub struct TroutConfig {
    /// Quick-start cutoff in minutes (10 in the paper; 5/30 in ablation A1).
    pub cutoff_min: f32,
    /// Classifier hidden layers (the paper uses two).
    pub classifier_hidden: Vec<usize>,
    /// Classifier epochs.
    pub classifier_epochs: usize,
    /// Regressor hidden layers (the paper uses three).
    pub regressor_hidden: Vec<usize>,
    /// Regressor epochs.
    pub regressor_epochs: usize,
    /// Hidden activation (ELU in the paper).
    pub activation: Activation,
    /// Regressor loss (smooth L1 in the paper).
    pub regression_loss: Loss,
    /// Dropout rate for both networks.
    pub dropout: f32,
    /// Batch normalization in the regressor (rejected by the paper; A5).
    pub batchnorm: bool,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SMOTE-balance the classifier's training classes.
    pub use_smote: bool,
    /// Regression target transform.
    pub target_transform: TargetTransform,
    /// Master seed.
    pub seed: u64,
}

trout_std::impl_json_struct!(TroutConfig {
    cutoff_min,
    classifier_hidden,
    classifier_epochs,
    regressor_hidden,
    regressor_epochs,
    activation,
    regression_loss,
    dropout,
    batchnorm,
    lr,
    batch_size,
    use_smote,
    target_transform,
    seed
});

impl Default for TroutConfig {
    /// The production configuration. The regressor hyper-parameters come
    /// from this repo's Optuna-substitute search ([`crate::tuner`], 24-trial
    /// successive halving on validation folds 2–3 of a 20k-job trace):
    /// lr ≈ 1.1e-3, 56 epochs, hidden [99, 66, 44], dropout 0.26 — and the
    /// search independently selected ELU over ReLU/tanh, as the paper did.
    fn default() -> Self {
        TroutConfig {
            cutoff_min: 10.0,
            classifier_hidden: vec![64, 32],
            classifier_epochs: 12,
            regressor_hidden: vec![99, 66, 44],
            regressor_epochs: 56,
            activation: Activation::ELU,
            regression_loss: Loss::SMOOTH_L1,
            dropout: 0.26,
            batchnorm: false,
            lr: 1.07e-3,
            batch_size: 256,
            use_smote: true,
            target_transform: TargetTransform::Log1p,
            seed: 0,
        }
    }
}

impl TroutConfig {
    /// Tiny configuration for doc tests / CI smoke runs.
    pub fn smoke() -> TroutConfig {
        TroutConfig {
            classifier_hidden: vec![16],
            classifier_epochs: 3,
            regressor_hidden: vec![16, 8],
            regressor_epochs: 5,
            ..Default::default()
        }
    }
}

/// Trains [`HierarchicalModel`]s from featurized datasets.
#[derive(Debug, Clone)]
pub struct TroutTrainer {
    config: TroutConfig,
}

impl TroutTrainer {
    /// Creates a trainer.
    pub fn new(config: TroutConfig) -> TroutTrainer {
        TroutTrainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TroutConfig {
        &self.config
    }

    /// Trains on every row of the dataset.
    pub fn fit(&self, ds: &Dataset) -> HierarchicalModel {
        let all: Vec<usize> = (0..ds.len()).collect();
        self.fit_rows(ds, &all)
    }

    /// Trains on a subset of rows (a CV fold's training window).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or contains no long-wait job (the regressor
    /// would have nothing to learn from).
    pub fn fit_rows(&self, ds: &Dataset, rows: &[usize]) -> HierarchicalModel {
        assert!(!rows.is_empty(), "empty training set");
        let cfg = &self.config;
        let (x, y) = ds.select(rows);

        // --- Stage 1: quick-start classifier on (optionally) SMOTE-balanced
        // classes. Label 1 = quick start (< cutoff).
        let labels: Vec<f32> = y
            .iter()
            .map(|&q| if q < cfg.cutoff_min { 1.0 } else { 0.0 })
            .collect();
        let has_both_classes = labels.iter().any(|&l| l >= 0.5) && labels.iter().any(|&l| l < 0.5);
        let (cx, cy) = if cfg.use_smote && has_both_classes {
            let _span = trout_obs::span!("core.train_smote");
            smote_balance(
                &x,
                &labels,
                &SmoteConfig {
                    k: 5,
                    target_ratio: 1.0,
                    majority_cap_ratio: Some(1.0),
                    seed: cfg.seed,
                },
            )
        } else {
            (x.clone(), labels)
        };
        let mut ccfg = MlpConfig::new(x.cols(), cfg.classifier_hidden.clone());
        ccfg.activation = cfg.activation;
        ccfg.loss = Loss::BceWithLogits;
        ccfg.dropout = cfg.dropout;
        ccfg.lr = cfg.lr;
        ccfg.epochs = cfg.classifier_epochs;
        ccfg.batch_size = cfg.batch_size;
        ccfg.seed = cfg.seed ^ 0xC1A5;
        let (classifier, _) = {
            let _span = trout_obs::span!("core.train_classifier");
            Mlp::train(&ccfg, &cx, &cy)
        };

        // --- Stage 2: regressor on the long-wait jobs only.
        let long_rows: Vec<usize> = (0..y.len()).filter(|&i| y[i] >= cfg.cutoff_min).collect();
        assert!(
            !long_rows.is_empty(),
            "no job in the training window queued >= {} minutes",
            cfg.cutoff_min
        );
        let rx = x.select_rows(&long_rows);
        let ry: Vec<f32> = long_rows
            .iter()
            .map(|&i| cfg.target_transform.forward(y[i]))
            .collect();
        let mut rcfg = MlpConfig::new(x.cols(), cfg.regressor_hidden.clone());
        rcfg.activation = cfg.activation;
        rcfg.loss = cfg.regression_loss;
        rcfg.dropout = cfg.dropout;
        rcfg.batchnorm = cfg.batchnorm;
        rcfg.lr = cfg.lr;
        rcfg.epochs = cfg.regressor_epochs;
        rcfg.batch_size = cfg.batch_size;
        rcfg.seed = cfg.seed ^ 0x4E47;
        let (regressor, _) = {
            let _span = trout_obs::span!("core.train_regressor");
            Mlp::train(&rcfg, &rx, &ry)
        };

        // Calibrate classifier probabilities on the (untouched, unbalanced)
        // most recent tenth of the training window.
        let cal_start = rows.len() - (rows.len() / 10).max(1);
        let calibrator = if cal_start > 0 && cal_start < rows.len() {
            let _span = trout_obs::span!("core.train_calibration");
            let cal_idx: Vec<usize> = (cal_start..rows.len()).collect();
            let cx2 = x.select_rows(&cal_idx);
            let cal_labels: Vec<f32> = cal_idx
                .iter()
                .map(|&i| if y[i] < cfg.cutoff_min { 1.0 } else { 0.0 })
                .collect();
            let logits = classifier.predict(&cx2);
            Some(PlattScaler::fit(&logits, &cal_labels))
        } else {
            None
        };

        HierarchicalModel {
            cutoff_min: cfg.cutoff_min,
            classifier,
            regressor,
            target_transform: cfg.target_transform,
            calibrator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchPredictionRequest, PredictionRequest, Predictor};
    use trout_features::FeaturePipeline;
    use trout_ml::metrics;
    use trout_slurmsim::SimulationBuilder;

    fn small_dataset() -> Dataset {
        let trace = SimulationBuilder::anvil_like().jobs(2_500).seed(14).run();
        FeaturePipeline::standard().build(&trace)
    }

    #[test]
    fn target_transform_round_trips() {
        for t in [TargetTransform::Raw, TargetTransform::Log1p] {
            for m in [0.0f32, 1.0, 10.0, 777.0] {
                let rt = t.inverse(t.forward(m));
                assert!((rt - m).abs() < 1e-2 * (1.0 + m), "{t:?} {m} -> {rt}");
            }
        }
    }

    #[test]
    fn log1p_inverse_is_overflow_safe() {
        assert!(TargetTransform::Log1p.inverse(1e9).is_finite());
    }

    #[test]
    fn smoke_training_produces_working_model() {
        let ds = small_dataset();
        let model = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        let pred = model.predict(PredictionRequest::new(ds.row(0)));
        // Any valid variant is fine; just exercise Algorithm 1.
        let _ = pred.message();
        for p in model.predict_batch(BatchPredictionRequest::with_minutes(&ds.x)) {
            assert!((0.0..=1.0).contains(&p.quick_proba));
            assert!((0.0..=1.0).contains(&p.calibrated_proba));
            let m = p.minutes.expect("want_minutes set");
            assert!(m.is_finite() && m >= 0.0);
        }
    }

    #[test]
    fn batched_inference_is_bitwise_identical_to_row_by_row() {
        // The serve daemon coalesces concurrent requests into one
        // predict_batch call; that is only sound because the MLP forward
        // pass is row-independent. Pin it down.
        let ds = small_dataset();
        let model = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        let batch = model.predict_batch(BatchPredictionRequest::with_minutes(&ds.x));
        for i in (0..ds.len()).step_by(53) {
            let single = model.predict(PredictionRequest::with_minutes(ds.row(i)));
            assert_eq!(single, batch[i], "row {i}");
        }
    }

    #[test]
    fn classifier_beats_chance_on_held_out_tail() {
        let ds = small_dataset();
        let split = ds.len() * 4 / 5;
        let train: Vec<usize> = (0..split).collect();
        let mut cfg = TroutConfig::smoke();
        cfg.classifier_epochs = 8;
        let model = TroutTrainer::new(cfg).fit_rows(&ds, &train);
        let test: Vec<usize> = (split..ds.len()).collect();
        let (tx, ty) = ds.select(&test);
        let probs: Vec<f32> = model
            .predict_batch(BatchPredictionRequest::new(&tx))
            .into_iter()
            .map(|p| p.quick_proba)
            .collect();
        let labels: Vec<f32> = ty
            .iter()
            .map(|&q| if q < 10.0 { 1.0 } else { 0.0 })
            .collect();
        let acc = metrics::binary_accuracy(&probs, &labels);
        assert!(acc > 0.6, "held-out accuracy {acc}");
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions() {
        let ds = small_dataset();
        let model = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        let json = model.to_json();
        let back = HierarchicalModel::from_json(&json).unwrap();
        for i in (0..ds.len()).step_by(97) {
            let req = PredictionRequest::with_minutes(ds.row(i));
            assert_eq!(model.predict(req), back.predict(req), "row {i}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let ds = small_dataset();
        let a = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        let b = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        for i in (0..ds.len()).step_by(131) {
            let req = PredictionRequest::with_minutes(ds.row(i));
            assert_eq!(a.predict(req), b.predict(req));
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training() {
        let ds = small_dataset();
        let _ = TroutTrainer::new(TroutConfig::smoke()).fit_rows(&ds, &[]);
    }
}

#[cfg(test)]
mod calibration_tests {
    use super::*;
    use crate::{BatchPredictionRequest, PredictionRequest, Predictor};
    use trout_features::FeaturePipeline;
    use trout_ml::calibration::expected_calibration_error;
    use trout_slurmsim::SimulationBuilder;

    #[test]
    fn calibrated_probabilities_beat_raw_on_held_out_data() {
        let trace = SimulationBuilder::anvil_like().jobs(6_000).seed(42).run();
        let ds = FeaturePipeline::standard().build(&trace);
        let mut cfg = TroutConfig::smoke();
        cfg.classifier_epochs = 8;
        let n = ds.len();
        let train: Vec<usize> = (0..n * 5 / 6).collect();
        let model = TroutTrainer::new(cfg).fit_rows(&ds, &train);
        let test: Vec<usize> = (n * 5 / 6..n).collect();
        let (tx, ty) = ds.select(&test);
        let labels: Vec<f32> = ty
            .iter()
            .map(|&q| if q < 10.0 { 1.0 } else { 0.0 })
            .collect();
        let preds = model.predict_batch(BatchPredictionRequest::new(&tx));
        let raw: Vec<f32> = preds.iter().map(|p| p.quick_proba).collect();
        let cal: Vec<f32> = preds.iter().map(|p| p.calibrated_proba).collect();
        let ece_raw = expected_calibration_error(&raw, &labels, 10);
        let ece_cal = expected_calibration_error(&cal, &labels, 10);
        assert!(
            ece_cal <= ece_raw + 0.02,
            "calibration should not hurt: raw {ece_raw:.4} cal {ece_cal:.4}"
        );
        assert!(cal.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn old_checkpoints_without_calibrator_still_load() {
        let trace = SimulationBuilder::anvil_like().jobs(2_500).seed(14).run();
        let ds = FeaturePipeline::standard().build(&trace);
        let model = TroutTrainer::new(TroutConfig::smoke()).fit(&ds);
        // Strip the calibrator field to emulate a pre-calibration checkpoint.
        let mut v = trout_std::json::Json::parse(&model.to_json()).unwrap();
        v.remove("calibrator").unwrap();
        let legacy = HierarchicalModel::from_json(&v.to_string()).unwrap();
        let p = legacy.predict(PredictionRequest::new(ds.row(0)));
        assert!((0.0..=1.0).contains(&p.calibrated_proba));
        // Without a calibrator the calibrated probability is the raw one.
        assert_eq!(p.calibrated_proba, p.quick_proba);
    }
}
