//! TROUT — the hierarchical queue-time predictor (the paper's contribution).
//!
//! The system is two densely connected feed-forward networks arranged
//! hierarchically (§III, Fig. 1, Algorithm 1):
//!
//! 1. a **binary classifier** that predicts whether a job will start within
//!    ten minutes ("quick start"), trained on SMOTE-balanced classes, and
//! 2. a **regression model** that predicts the queue time in minutes for the
//!    jobs the classifier flags as long, trained with smooth-L1 loss and ELU
//!    activations on time-series cross-validation folds.
//!
//! Upstream of both sits a **random-forest runtime predictor** whose outputs
//! feed three of the 33 features (`Pred Runtime`, `Par Queue Pred
//! Timelimit`, `Par Running Pred Timelimit`).
//!
//! Entry points:
//! * [`featurize`] — trace → [`trout_features::Dataset`] with the runtime
//!   model wired in.
//! * [`TroutTrainer::fit`] — dataset → [`HierarchicalModel`].
//! * [`Predictor::predict`] — Algorithm 1 behind the typed request/response
//!   API every consumer (CLI, eval, benches, the serve daemon) shares.
//! * [`eval`] — the paper's fold-by-fold evaluation and the four-model
//!   comparison behind Figs. 6–9.

pub mod error;
pub mod eval;
mod model;
pub mod online;
mod predictor;
mod runtime;
mod trainer;
pub mod tuner;

pub use error::TroutError;
pub use model::{HierarchicalModel, PredictorScratch};
pub use predictor::{
    BatchPredictionRequest, Deadline, Lane, PredictionRequest, Predictor, QueueEstimate,
    QueuePrediction, LANES,
};
pub use runtime::RuntimePredictor;
pub use trainer::{TargetTransform, TroutConfig, TroutTrainer};
pub use tuner::{tune_regressor, TunerConfig};

use trout_features::{Dataset, FeaturePipeline};
use trout_slurmsim::Trace;

/// Featurizes a trace the way the paper does: train the runtime random
/// forest on the older part of the trace (the leading `train_frac`), predict
/// runtimes for every job, and build the 33-feature dataset with those
/// predictions wired into the `Pred Runtime` features.
pub fn featurize(trace: &Trace, train_frac: f64, seed: u64) -> (Dataset, RuntimePredictor) {
    let predictor = RuntimePredictor::fit_on_prefix(trace, train_frac, seed);
    let preds = predictor.predict_all(trace);
    let ds = FeaturePipeline::standard().build_with_runtime_predictions(trace, preds);
    (ds, predictor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_slurmsim::SimulationBuilder;

    #[test]
    fn featurize_end_to_end() {
        let trace = SimulationBuilder::anvil_like().jobs(400).seed(3).run();
        let (ds, predictor) = featurize(&trace, 0.6, 1);
        assert_eq!(ds.len(), 400);
        // Runtime predictions are bounded by sane limits.
        let preds = predictor.predict_all(&trace);
        for (p, r) in preds.iter().zip(&trace.records) {
            assert!(
                *p >= 0.0 && *p <= r.timelimit_min as f64 * 1.5 + 1.0,
                "pred {p} for {r:?}"
            );
        }
    }
}
