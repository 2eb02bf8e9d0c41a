//! The hierarchical model and Algorithm 1 inference.

use trout_linalg::ops::sigmoid;
use trout_linalg::{Matrix, Workspace};
use trout_ml::calibration::PlattScaler;
use trout_ml::nn::Mlp;

use crate::predictor::{
    BatchPredictionRequest, PredictionRequest, Predictor, QueueEstimate, QueuePrediction,
};
use crate::trainer::TargetTransform;

/// Reusable scratch for [`HierarchicalModel`] batch inference: the two MLP
/// workspaces plus the intermediate vectors Algorithm 1 threads between
/// them. A long-lived caller (the serve engine, CV loops) keeps one of these
/// alive so repeated `predict_batch_into` calls stop churning the allocator.
///
/// Tied to the model *architecture*, not the weights — it stays valid across
/// warm-start refits and hot swaps as long as the layer shapes are unchanged
/// (they are, for refits of the same config).
#[derive(Debug)]
pub struct PredictorScratch {
    cls_ws: Workspace,
    reg_ws: Workspace,
    logits: Vec<f32>,
    reg_raw: Vec<f32>,
    regress_rows: Vec<usize>,
    reg_x: Matrix,
    probs: Vec<f32>,
    calibrated: Vec<f32>,
    minutes: Vec<Option<f32>>,
}

/// The trained two-stage system: quick-start classifier + queue regressor.
/// All inference goes through the [`Predictor`] impl.
#[derive(Debug, Clone)]
pub struct HierarchicalModel {
    /// Quick-start cutoff in minutes (10 in the paper).
    pub cutoff_min: f32,
    pub(crate) classifier: Mlp,
    pub(crate) regressor: Mlp,
    pub(crate) target_transform: TargetTransform,
    /// Platt scaler fitted on a held-out slice so the SMOTE-trained
    /// classifier's outputs read as real probabilities. Decisions
    /// (Algorithm 1) still threshold the raw logit at 0.5, as the paper
    /// does; calibration only affects the reported confidence.
    pub(crate) calibrator: Option<PlattScaler>,
}

trout_std::impl_json_struct!(HierarchicalModel {
    cutoff_min,
    classifier,
    regressor,
    target_transform,
    calibrator
});

impl HierarchicalModel {
    /// The regressor's raw queue-time estimate for one row.
    fn regress_one(&self, features: &[f32]) -> f32 {
        let raw = self.regressor.predict_one(features);
        self.target_transform.inverse(raw).max(0.0)
    }

    /// Builds a [`PredictorScratch`] matching this model's architecture,
    /// pre-sized for `batch_rows`-row batches.
    pub fn scratch(&self, batch_rows: usize) -> PredictorScratch {
        let rows = batch_rows.max(1);
        PredictorScratch {
            cls_ws: self.classifier.workspace(rows),
            reg_ws: self.regressor.workspace(rows),
            logits: Vec::with_capacity(rows),
            reg_raw: Vec::with_capacity(rows),
            regress_rows: Vec::with_capacity(rows),
            reg_x: Matrix::zeros(rows, self.classifier.input_dim()),
            probs: Vec::with_capacity(rows),
            calibrated: Vec::with_capacity(rows),
            minutes: Vec::with_capacity(rows),
        }
    }

    /// [`Predictor::predict_batch`] against caller-owned scratch, writing
    /// into a caller-owned output vector (cleared first) — bit-identical
    /// output. Once scratch and output have warmed to the batch size, a call
    /// performs **zero** heap allocations — the serve engine's steady-state
    /// predict path rides on this.
    pub fn predict_batch_into(
        &self,
        req: BatchPredictionRequest<'_>,
        s: &mut PredictorScratch,
        out: &mut Vec<QueuePrediction>,
    ) {
        let x = req.features;
        self.classifier.predict_in(x, &mut s.cls_ws, &mut s.logits);
        s.probs.clear();
        s.probs.extend(s.logits.iter().map(|&l| sigmoid(l)));
        s.calibrated.clear();
        match &self.calibrator {
            Some(c) => s
                .calibrated
                .extend(s.logits.iter().map(|&l| c.calibrate(l))),
            None => s.calibrated.extend_from_slice(&s.probs),
        }

        // Rows the regressor must see: classified-long always, all rows when
        // the request wants unconditional minutes.
        s.regress_rows.clear();
        for r in 0..x.rows() {
            if s.probs[r] < 0.5 || req.want_minutes {
                s.regress_rows.push(r);
            }
        }
        s.minutes.clear();
        s.minutes.resize(x.rows(), None);
        if !s.regress_rows.is_empty() {
            x.select_rows_into(&s.regress_rows, &mut s.reg_x);
            self.regressor
                .predict_in(&s.reg_x, &mut s.reg_ws, &mut s.reg_raw);
            for (&r, &raw) in s.regress_rows.iter().zip(&s.reg_raw) {
                s.minutes[r] = Some(self.target_transform.inverse(raw).max(0.0));
            }
        }

        out.clear();
        out.extend((0..x.rows()).map(|r| QueuePrediction {
            estimate: if s.probs[r] >= 0.5 {
                QueueEstimate::QuickStart
            } else {
                QueueEstimate::Minutes(s.minutes[r].expect("regressed above"))
            },
            quick_proba: s.probs[r],
            calibrated_proba: s.calibrated[r],
            minutes: s.minutes[r],
            cutoff_min: self.cutoff_min,
            lane: crate::Lane::Normal,
        }));
    }

    /// Serializes to JSON (the CLI checkpoint format).
    pub fn to_json(&self) -> String {
        trout_std::json::ToJson::to_json_string(self)
    }

    /// Loads a JSON checkpoint.
    pub fn from_json(json: &str) -> Result<HierarchicalModel, trout_std::json::JsonError> {
        trout_std::json::FromJson::from_json_str(json)
    }
}

impl Predictor for HierarchicalModel {
    fn cutoff_min(&self) -> f32 {
        self.cutoff_min
    }

    /// Algorithm 1 for one feature row: classify, and only if the job is
    /// predicted to exceed the cutoff (or the request insists), regress a
    /// concrete queue time.
    fn predict(&self, req: PredictionRequest<'_>) -> QueuePrediction {
        let logit = self.classifier.predict_one(req.features);
        let quick_proba = sigmoid(logit);
        let calibrated_proba = match &self.calibrator {
            Some(c) => c.calibrate(logit),
            None => quick_proba,
        };
        let quick = quick_proba >= 0.5;
        let minutes = if !quick || req.want_minutes {
            Some(self.regress_one(req.features))
        } else {
            None
        };
        QueuePrediction {
            estimate: if quick {
                QueueEstimate::QuickStart
            } else {
                QueueEstimate::Minutes(minutes.expect("regressed above"))
            },
            quick_proba,
            calibrated_proba,
            minutes,
            cutoff_min: self.cutoff_min,
            lane: req.lane,
        }
    }

    /// Batched Algorithm 1: one classifier pass over the whole matrix, one
    /// regressor pass over the rows that need it. Bitwise identical to the
    /// row-by-row path because MLP inference is row-independent.
    fn predict_batch(&self, req: BatchPredictionRequest<'_>) -> Vec<QueuePrediction> {
        let mut out = Vec::with_capacity(req.features.rows());
        self.predict_batch_into(req, &mut self.scratch(req.features.rows()), &mut out);
        out
    }
}
