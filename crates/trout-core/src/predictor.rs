//! The typed prediction API — one surface for every consumer.
//!
//! The CLI, the evaluation harness, the benches, and the serve daemon all
//! used to reach into [`HierarchicalModel`](crate::HierarchicalModel) through
//! a zoo of inherent methods (`predict`, `quick_start_proba`,
//! `calibrated_quick_proba`, `regress_minutes`, plus `_batch` twins). The
//! [`Predictor`] trait replaces them: a [`PredictionRequest`] goes in, a
//! [`QueuePrediction`] comes out carrying the Algorithm-1 decision *and* the
//! probabilities and regressed minutes behind it, so callers pick fields
//! instead of picking methods.
//!
//! Batch and single-row paths are numerically interchangeable: the MLP
//! forward pass is row-independent (batch-norm layers use running statistics
//! at inference), so `predict_batch` over `n` rows is bitwise identical to
//! `n` calls of `predict` — the property the serve daemon's micro-batching
//! relies on, and one the trainer's tests pin down.

use trout_linalg::Matrix;
use trout_std::json::{FromJson, Json, JsonError, ToJson};

/// Algorithm 1's decision: either "less than the cutoff" or a concrete
/// number of minutes from the regressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueEstimate {
    /// Predicted to start within the cutoff (10 minutes in the paper).
    QuickStart,
    /// Predicted queue time in minutes.
    Minutes(f32),
}

impl QueueEstimate {
    /// The user-facing message of Algorithm 1.
    pub fn message(&self, cutoff_min: f32) -> String {
        match self {
            QueueEstimate::QuickStart => {
                format!("Predicted to take less than {cutoff_min:.0} minutes")
            }
            QueueEstimate::Minutes(m) => format!("Predicted to start in {m:.0} minutes"),
        }
    }

    /// Collapses to a number for metric computation: quick starts count as
    /// half the cutoff (the class's central value).
    pub fn as_minutes(&self, cutoff_min: f32) -> f32 {
        match self {
            QueueEstimate::QuickStart => cutoff_min / 2.0,
            QueueEstimate::Minutes(m) => *m,
        }
    }
}

// Serde's externally-tagged layout by hand (the macro only covers unit
// variants): `"QuickStart"` or `{"Minutes":12.5}`. Needed so the serve
// daemon can persist drift-monitor pending joins across a crash.
impl ToJson for QueueEstimate {
    fn to_json(&self) -> Json {
        match self {
            QueueEstimate::QuickStart => Json::Str("QuickStart".to_string()),
            QueueEstimate::Minutes(m) => Json::Obj(vec![("Minutes".to_string(), m.to_json())]),
        }
    }

    fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        match self {
            QueueEstimate::QuickStart => out.write_str("\"QuickStart\""),
            QueueEstimate::Minutes(m) => {
                out.write_str("{\"Minutes\":")?;
                m.write_json(out)?;
                out.write_str("}")
            }
        }
    }
}

impl FromJson for QueueEstimate {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) if s == "QuickStart" => Ok(QueueEstimate::QuickStart),
            Json::Obj(_) => {
                let m = j
                    .get("Minutes")
                    .ok_or_else(|| JsonError::new("QueueEstimate: missing Minutes"))?;
                Ok(QueueEstimate::Minutes(f32::from_json(m)?))
            }
            other => Err(JsonError::new(format!(
                "invalid QueueEstimate variant: {other}"
            ))),
        }
    }
}

/// The serving priority lane a prediction request travels in.
///
/// Lanes order **scheduling**, not numerics: a prediction's value is
/// identical in every lane (row-independent inference); what changes is
/// where it runs within a flushed batch and how aggressively admission
/// control sheds it under load. `Urgent` outranks `Normal` outranks `Batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Lane {
    /// Latency-critical: preempts lane ordering at flush time, tightest
    /// default budget, smallest admission headroom.
    Urgent,
    /// The default for requests that name no lane (every v1 client).
    #[default]
    Normal,
    /// Throughput traffic: longest default budget, shed first under load.
    Batch,
}

/// Every lane, in priority order (the index is [`Lane::rank`]).
pub const LANES: [Lane; 3] = [Lane::Urgent, Lane::Normal, Lane::Batch];

impl Lane {
    /// Priority rank: 0 = urgent, 1 = normal, 2 = batch. Lower ranks are
    /// executed first at flush time and count less queued work against
    /// their budget (an urgent request only waits behind other urgents).
    pub fn rank(self) -> usize {
        match self {
            Lane::Urgent => 0,
            Lane::Normal => 1,
            Lane::Batch => 2,
        }
    }

    /// The lane with priority rank `r` (inverse of [`Lane::rank`]);
    /// `None` past the last rank. Telemetry stores lanes as compact ranks
    /// and recovers the lane here when formatting.
    pub fn from_rank(r: usize) -> Option<Lane> {
        LANES.get(r).copied()
    }

    /// The wire/protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            Lane::Urgent => "urgent",
            Lane::Normal => "normal",
            Lane::Batch => "batch",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Lane> {
        match s {
            "urgent" => Some(Lane::Urgent),
            "normal" => Some(Lane::Normal),
            "batch" => Some(Lane::Batch),
            _ => None,
        }
    }
}

impl ToJson for Lane {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }

    fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        // Lane names are plain lowercase words: nothing to escape.
        out.write_str("\"")?;
        out.write_str(self.as_str())?;
        out.write_str("\"")
    }
}

impl FromJson for Lane {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => {
                Lane::parse(s).ok_or_else(|| JsonError::new(format!("unknown lane `{s}`")))
            }
            other => Err(JsonError::new(format!(
                "Lane must be a string, got {other}"
            ))),
        }
    }
}

/// A latency budget: how long the requester is willing to wait for the
/// answer, end to end. The serve scheduler admits against it and counts an
/// SLO violation when the wait exceeds it; a request with no explicit
/// deadline gets its lane's configured default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deadline {
    /// Budget in milliseconds (wire field `deadline_ms`).
    pub budget_ms: u64,
}

impl Deadline {
    /// A budget of `ms` milliseconds.
    pub fn ms(ms: u64) -> Deadline {
        Deadline { budget_ms: ms }
    }

    /// The budget in microseconds (scheduler arithmetic is in µs).
    pub fn as_micros(self) -> u64 {
        self.budget_ms.saturating_mul(1_000)
    }
}

/// One job's features on their way into a [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct PredictionRequest<'a> {
    /// The scaled feature row (Table-II order).
    pub features: &'a [f32],
    /// Force the regressor to run even for predicted quick starts, so
    /// [`QueuePrediction::minutes`] is always populated. Algorithm 1 itself
    /// only regresses jobs classified as long; evaluation code that scores
    /// the regressor on *known*-long jobs needs the unconditional estimate.
    pub want_minutes: bool,
    /// Scheduling lane the request arrived in. Inference ignores it (the
    /// numerics are lane-independent); it rides along so the prediction can
    /// echo it and the serving layer can account per lane.
    pub lane: Lane,
    /// Explicit latency budget, if the requester named one (`None` = the
    /// lane's configured default applies).
    pub deadline: Option<Deadline>,
}

impl<'a> PredictionRequest<'a> {
    /// The Algorithm-1 request: regress only when classified long.
    pub fn new(features: &'a [f32]) -> PredictionRequest<'a> {
        PredictionRequest {
            features,
            want_minutes: false,
            lane: Lane::Normal,
            deadline: None,
        }
    }

    /// Requests the regressor's minutes for every job, quick or not.
    pub fn with_minutes(features: &'a [f32]) -> PredictionRequest<'a> {
        PredictionRequest {
            features,
            want_minutes: true,
            lane: Lane::Normal,
            deadline: None,
        }
    }

    /// Same request in `lane`.
    pub fn in_lane(mut self, lane: Lane) -> PredictionRequest<'a> {
        self.lane = lane;
        self
    }

    /// Same request with an explicit latency budget.
    pub fn with_deadline(mut self, deadline: Deadline) -> PredictionRequest<'a> {
        self.deadline = Some(deadline);
        self
    }
}

/// A batch of feature rows (one job per row).
#[derive(Debug, Clone, Copy)]
pub struct BatchPredictionRequest<'a> {
    /// Scaled feature matrix, `n_jobs x n_features`.
    pub features: &'a Matrix,
    /// See [`PredictionRequest::want_minutes`].
    pub want_minutes: bool,
}

impl<'a> BatchPredictionRequest<'a> {
    /// The Algorithm-1 request for every row.
    pub fn new(features: &'a Matrix) -> BatchPredictionRequest<'a> {
        BatchPredictionRequest {
            features,
            want_minutes: false,
        }
    }

    /// Requests regressed minutes for every row.
    pub fn with_minutes(features: &'a Matrix) -> BatchPredictionRequest<'a> {
        BatchPredictionRequest {
            features,
            want_minutes: true,
        }
    }
}

/// Everything a prediction consumer might want, in one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePrediction {
    /// The Algorithm-1 decision.
    pub estimate: QueueEstimate,
    /// Raw quick-start probability (sigmoid of the classifier logit — the
    /// quantity Algorithm 1 thresholds at 0.5).
    pub quick_proba: f32,
    /// Platt-calibrated quick-start probability (equals `quick_proba` when
    /// no calibrator was fitted).
    pub calibrated_proba: f32,
    /// The regressor's queue-time estimate in minutes. Always present for
    /// jobs classified long; present for quick starts only when the request
    /// set `want_minutes`.
    pub minutes: Option<f32>,
    /// The cutoff (minutes) the decision was made against.
    pub cutoff_min: f32,
    /// The lane the request was served in, echoed back so v2 clients can
    /// correlate responses with their SLO class. Lane never changes the
    /// numerics above.
    pub lane: Lane,
}

trout_std::impl_json_struct!(QueuePrediction {
    estimate,
    quick_proba,
    calibrated_proba,
    minutes,
    cutoff_min,
    lane,
});

impl QueuePrediction {
    /// The user-facing message of Algorithm 1.
    pub fn message(&self) -> String {
        self.estimate.message(self.cutoff_min)
    }

    /// Collapses to a number for metric computation.
    pub fn as_minutes(&self) -> f32 {
        self.estimate.as_minutes(self.cutoff_min)
    }
}

/// A model that turns feature rows into [`QueuePrediction`]s — the single
/// prediction surface shared by the CLI, evaluation, benches, and the serve
/// daemon.
pub trait Predictor {
    /// The quick-start cutoff (minutes) this predictor decides against.
    fn cutoff_min(&self) -> f32;

    /// Predicts one job.
    fn predict(&self, req: PredictionRequest<'_>) -> QueuePrediction;

    /// Predicts a batch. The default delegates row by row; implementations
    /// with a cheaper batched forward pass override it (and must stay
    /// bitwise identical to the row-by-row path).
    fn predict_batch(&self, req: BatchPredictionRequest<'_>) -> Vec<QueuePrediction> {
        (0..req.features.rows())
            .map(|r| {
                self.predict(PredictionRequest {
                    features: req.features.row(r),
                    want_minutes: req.want_minutes,
                    lane: Lane::Normal,
                    deadline: None,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_follow_algorithm_1() {
        assert_eq!(
            QueueEstimate::QuickStart.message(10.0),
            "Predicted to take less than 10 minutes"
        );
        assert_eq!(
            QueueEstimate::Minutes(42.4).message(10.0),
            "Predicted to start in 42 minutes"
        );
    }

    #[test]
    fn as_minutes_collapses_quick_starts() {
        assert_eq!(QueueEstimate::QuickStart.as_minutes(10.0), 5.0);
        assert_eq!(QueueEstimate::Minutes(77.0).as_minutes(10.0), 77.0);
        let p = QueuePrediction {
            estimate: QueueEstimate::QuickStart,
            quick_proba: 0.9,
            calibrated_proba: 0.8,
            minutes: None,
            cutoff_min: 10.0,
            lane: Lane::Normal,
        };
        assert_eq!(p.as_minutes(), 5.0);
        assert_eq!(p.message(), "Predicted to take less than 10 minutes");
    }

    #[test]
    fn predictions_round_trip_through_json() {
        for p in [
            QueuePrediction {
                estimate: QueueEstimate::QuickStart,
                quick_proba: 0.9,
                calibrated_proba: 0.8,
                minutes: None,
                cutoff_min: 10.0,
                lane: Lane::Normal,
            },
            QueuePrediction {
                estimate: QueueEstimate::Minutes(123.456),
                quick_proba: 0.1,
                calibrated_proba: 0.2,
                minutes: Some(123.456),
                cutoff_min: 10.0,
                lane: Lane::Urgent,
            },
        ] {
            let back = QueuePrediction::from_json_str(&p.to_json_string()).unwrap();
            assert_eq!(back, p);
        }
        assert!(QueueEstimate::from_json_str("\"Slow\"").is_err());
    }

    #[test]
    fn lanes_rank_and_round_trip() {
        assert!(Lane::Urgent < Lane::Normal && Lane::Normal < Lane::Batch);
        for (i, lane) in LANES.iter().enumerate() {
            assert_eq!(lane.rank(), i);
            assert_eq!(Lane::parse(lane.as_str()), Some(*lane));
            let back = Lane::from_json(&lane.to_json()).unwrap();
            assert_eq!(back, *lane);
        }
        assert_eq!(Lane::default(), Lane::Normal);
        assert_eq!(Lane::parse("express"), None);
        assert!(Lane::from_json(&Json::Int(2)).is_err());
    }

    #[test]
    fn deadlines_convert_to_micros() {
        assert_eq!(Deadline::ms(50).as_micros(), 50_000);
        assert_eq!(Deadline::ms(u64::MAX).as_micros(), u64::MAX);
    }
}
