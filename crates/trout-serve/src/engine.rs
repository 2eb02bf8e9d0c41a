//! The serving core: event-driven state, micro-batched inference, refits.
//!
//! [`ServeEngine`] owns everything a prediction needs — the cluster topology,
//! the fitted scaler, the runtime random forest, the hierarchical model, and
//! an [`IncrementalSnapshot`] fed one lifecycle event at a time. Transports
//! (stdin, TCP) stay thin: they parse lines, queue predicts, and call in.
//!
//! The model lives behind an [`Arc`] so a warm-start refit can train a clone
//! off to the side and publish it with one pointer swap — in-flight batch
//! handles keep the model they started with.
//!
//! The engine also hosts the **online drift monitor**: every served
//! prediction is remembered until the job's `start` event arrives, at which
//! point the realized queue time joins against what was answered and the
//! rolling MAE / within-2x / class-confusion counts update — the
//! operator-facing signal for when warm-start refits stop keeping up.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use trout_core::online::{update_model_in, OnlineConfig, RefitScratch};
use trout_core::{
    featurize, BatchPredictionRequest, HierarchicalModel, Lane, PredictorScratch, QueueEstimate,
    QueuePrediction, RuntimePredictor, TroutConfig, TroutError, TroutTrainer,
};
use trout_features::incremental::JobPhase;
use trout_features::names::N_FEATURES;
use trout_features::scaling::FittedScaler;
use trout_features::{assemble_row_into, Dataset, IncrementalSnapshot, SnapshotProbe};
use trout_linalg::Matrix;
use trout_slurmsim::{JobRecord, SimulationBuilder, Trace};
use trout_workload::ClusterSpec;

use trout_std::fsio::atomic_write_with;
use trout_std::json::{write_io, write_json_array, FromJson, Json, JsonError, ToJson};

use crate::journal::{Durability, Journal, JOURNAL_FILE, SNAPSHOT_FILE};
use crate::metrics::{ServeMetrics, CONFUSION_CELLS};
use crate::protocol::{lifecycle_line, predict_line, submit_line};
use crate::recover::{replay_journal, RecoveryReport};

/// State events between eviction sweeps of the incremental index.
const EVICT_EVERY: u64 = 4_096;

/// Hard bound on cached feature rows. Rows normally leave the map at the
/// job's `end`, but a client crash can drop that event forever; at the cap
/// new jobs are served without caching (they just yield no refit example).
const CACHED_ROWS_MAX: usize = 65_536;

/// Engine policy knobs (transport knobs like the batch size live with the
/// transport).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Completed jobs between warm-start refits; 0 disables refitting.
    pub refit_every: usize,
    /// Leading fraction of the bootstrap trace the runtime forest trains on.
    pub train_frac: f64,
    /// Seed for bootstrap training.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            refit_every: 256,
            train_frac: 0.6,
            seed: 0,
        }
    }
}

/// A single prediction request: job id, query instant, and the priority
/// lane it is served in. The lane is scheduling metadata — it is journaled
/// (when non-default) so replay reproduces the drift monitor's stored
/// predictions exactly, and stamped onto the returned [`QueuePrediction`],
/// but it never changes the numerics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictQuery {
    /// Job id.
    pub id: u64,
    /// Query instant (unix seconds).
    pub time: i64,
    /// Priority lane.
    pub lane: Lane,
}

impl PredictQuery {
    /// A normal-lane query (what every v1 client sends).
    pub fn new(id: u64, time: i64) -> PredictQuery {
        PredictQuery {
            id,
            time,
            lane: Lane::Normal,
        }
    }

    /// Same query in `lane`.
    pub fn in_lane(mut self, lane: Lane) -> PredictQuery {
        self.lane = lane;
        self
    }
}

/// Joins served predictions against realized queue times.
///
/// Every successful predict stores its [`QueuePrediction`] keyed by job id
/// (a re-predicted job keeps only the latest answer — that is what the
/// client acted on last). When the job's `start` event arrives, the
/// realized queue time closes the pair and the rolling accuracy state
/// updates, mirrored into the engine registry's `serve.drift.*` metrics.
///
/// The error sum accumulates in `f64` in join order, so the rolling MAE is
/// **bit-identical** to `trout_core::eval::rolling_mae` over the same
/// ordered pairs — the end-to-end serve test holds the daemon to that.
#[derive(Debug, Default)]
pub struct DriftMonitor {
    served: HashMap<u64, QueuePrediction>,
    joined: u64,
    abs_err_sum: f64,
    within: u64,
    confusion: [u64; 4],
}

impl DriftMonitor {
    /// Predictions joined against an outcome so far.
    pub fn joined(&self) -> u64 {
        self.joined
    }

    /// Rolling mean absolute error in minutes (0 before any join).
    pub fn mae_min(&self) -> f64 {
        if self.joined == 0 {
            0.0
        } else {
            self.abs_err_sum / self.joined as f64
        }
    }

    /// Rolling fraction of joined predictions within 2x (the paper's
    /// within-100 %-error accuracy; 0 before any join).
    pub fn within_2x(&self) -> f64 {
        if self.joined == 0 {
            0.0
        } else {
            self.within as f64 / self.joined as f64
        }
    }

    /// Classifier confusion counts in predicted-then-actual order:
    /// quick/quick, quick/long, long/quick, long/long.
    pub fn confusion(&self) -> [u64; 4] {
        self.confusion
    }

    /// Running sum of absolute errors in minutes (join order). Exposed so a
    /// shard set can merge per-shard monitors into one fleet-wide MAE:
    /// `Σ abs_err_sum / Σ joined` weights every joined pair equally.
    pub fn abs_err_sum(&self) -> f64 {
        self.abs_err_sum
    }

    /// Joined predictions within 2x of the realized queue time.
    pub fn within_count(&self) -> u64 {
        self.within
    }

    /// Closes one prediction/outcome pair and mirrors the rolling state
    /// into the registry handles.
    fn join(&mut self, metrics: &ServeMetrics, p: &QueuePrediction, realized_min: f32) {
        let pred_min = p.as_minutes();
        // Accumulate exactly like the offline reference: per-pair f64
        // absolute error, summed in join order.
        self.abs_err_sum += (pred_min as f64 - realized_min as f64).abs();
        self.joined += 1;
        let denom = (realized_min as f64).max(1.0);
        let within = ((pred_min as f64 - realized_min as f64).abs() / denom) * 100.0 < 100.0;
        if within {
            self.within += 1;
            metrics.drift_within_2x_total.inc();
        }
        let pred_quick = matches!(p.estimate, QueueEstimate::QuickStart);
        let actual_quick = realized_min < p.cutoff_min;
        let cell = match (pred_quick, actual_quick) {
            (true, true) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (false, false) => 3,
        };
        self.confusion[cell] += 1;
        metrics.drift_confusion[cell].inc();
        metrics.drift_joined_total.inc();
        metrics.drift_mae_min.set(self.mae_min());
        metrics.drift_within_2x.set(self.within_2x());
    }

    /// The drift section of the metrics dump.
    pub fn to_json(&self) -> Json {
        let confusion: Vec<(String, Json)> = CONFUSION_CELLS
            .iter()
            .zip(&self.confusion)
            .map(|(name, &c)| (name.to_string(), Json::Int(c as i128)))
            .collect();
        Json::Obj(vec![
            ("joined".into(), Json::Int(self.joined as i128)),
            ("mae_min".into(), Json::Num(self.mae_min())),
            ("within_2x".into(), Json::Num(self.within_2x())),
            // Before `confusion`: scripted consumers anchor their drift grep
            // on the confusion object closing the section, and `pending` is
            // recovery-deterministic state so it joins the compared span.
            ("pending".into(), Json::Int(self.served.len() as i128)),
            ("confusion".into(), Json::Obj(confusion)),
        ])
    }

    /// Predictions still awaiting their realized outcome.
    pub fn pending(&self) -> usize {
        self.served.len()
    }
}

/// Reusable buffers for [`ServeEngine::predict_batch`]: the flat feature
/// staging area, the per-query slot map, the batch matrix, and the model
/// output vector. Sized by the high-water batch, so once warmed a predict
/// flush touches the allocator exactly zero times (guarded by the
/// serve-path test in `tests/zero_alloc_serve.rs`).
#[derive(Debug)]
struct EnginePredictScratch {
    flat: Vec<f32>,
    row: Vec<f32>,
    slots: Vec<Result<usize, TroutError>>,
    preds: Vec<QueuePrediction>,
    x: Matrix,
}

impl Default for EnginePredictScratch {
    fn default() -> Self {
        EnginePredictScratch {
            flat: Vec::new(),
            row: Vec::new(),
            slots: Vec::new(),
            preds: Vec::new(),
            x: Matrix::zeros(0, 0),
        }
    }
}

/// The daemon's state machine. One engine per daemon; transports share it
/// behind a mutex.
pub struct ServeEngine {
    cluster: ClusterSpec,
    scaler: FittedScaler,
    runtime_model: RuntimePredictor,
    model: Arc<HierarchicalModel>,
    index: IncrementalSnapshot,
    base_cfg: TroutConfig,
    online_cfg: OnlineConfig,
    refit_every: usize,
    /// Feature rows exactly as served, keyed by job id, captured at the
    /// job's first predict. A completed job's row + realized queue time
    /// become one refit training example — the model learns from the same
    /// inputs it answered with, never from recomputed hindsight features.
    cached_rows: HashMap<u64, Vec<f32>>,
    history_raw: Vec<Vec<f32>>,
    history_y: Vec<f32>,
    history_ids: Vec<u64>,
    completed_since_refit: usize,
    latest_time: i64,
    /// Persistent inference scratch: batch predicts reuse these buffers
    /// instead of allocating workspaces per flush. Architecture-tied, so it
    /// survives hot swaps (refits never change the layer shapes).
    scratch: PredictorScratch,
    /// Batch-assembly buffers for the predict path; reused across flushes
    /// so a steady-state predict performs zero heap allocations.
    pscratch: EnginePredictScratch,
    /// Persistent training workspaces for warm-start refits.
    refit_scratch: RefitScratch,
    /// Counters and latency histograms (dumped by the `metrics` request).
    pub metrics: ServeMetrics,
    /// Served-prediction vs realized-outcome accounting.
    drift: DriftMonitor,
    /// Featurize total (µs) of the most recent `predict_batch_into` call,
    /// read by the router to split traced shard service into featurize vs
    /// inference stages. Transient — never snapshotted.
    last_featurize_us: u64,
    /// Write-ahead journal + snapshot policy; `None` without a state dir.
    durability: Option<Durability>,
    /// True while recovery replays the journal tail: suppresses journaling
    /// (the events are already in the journal) and snapshotting (state is
    /// mid-reconstruction).
    replaying: bool,
    /// Pending compaction policy, applied to the [`Durability`] attachment
    /// when (or after) `open_state_dir` arms it.
    compact_on_snapshot: bool,
    /// Serialized text of the published artefacts, copied into each
    /// snapshot. Empty until the first snapshot.
    artefact_text: ArtefactText,
}

impl ServeEngine {
    /// Builds an engine from a historical trace: featurize it (fitting the
    /// runtime forest and the scaler), train the hierarchical model unless a
    /// pre-trained one is supplied, and start with an empty live index.
    pub fn from_trace(
        trace: &Trace,
        pretrained: Option<HierarchicalModel>,
        base_cfg: TroutConfig,
        online_cfg: OnlineConfig,
        cfg: &ServeConfig,
    ) -> ServeEngine {
        let (ds, runtime_model) = featurize(trace, cfg.train_frac, cfg.seed);
        let model = pretrained.unwrap_or_else(|| TroutTrainer::new(base_cfg.clone()).fit(&ds));
        let scratch = model.scratch(64);
        let refit_scratch = RefitScratch::for_model(&model);
        ServeEngine {
            cluster: trace.cluster.clone(),
            scaler: ds.scaler.clone(),
            runtime_model,
            model: Arc::new(model),
            index: IncrementalSnapshot::new(trace.cluster.partitions.len()),
            base_cfg,
            online_cfg,
            refit_every: cfg.refit_every,
            cached_rows: HashMap::new(),
            history_raw: Vec::new(),
            history_y: Vec::new(),
            history_ids: Vec::new(),
            completed_since_refit: 0,
            latest_time: i64::MIN,
            scratch,
            pscratch: EnginePredictScratch::default(),
            refit_scratch,
            metrics: ServeMetrics::default(),
            drift: DriftMonitor::default(),
            last_featurize_us: 0,
            durability: None,
            replaying: false,
            compact_on_snapshot: false,
            artefact_text: ArtefactText::default(),
        }
    }

    /// Self-contained engine for smoke tests and benches: simulate a trace
    /// and train the smoke-sized model on it.
    pub fn bootstrap(jobs: usize, cfg: &ServeConfig) -> ServeEngine {
        let trace = SimulationBuilder::anvil_like()
            .jobs(jobs)
            .seed(cfg.seed)
            .run();
        let mut base = TroutConfig::smoke();
        base.seed = cfg.seed;
        ServeEngine::from_trace(&trace, None, base, OnlineConfig::default(), cfg)
    }

    /// The currently published model (refits swap this pointer).
    pub fn model(&self) -> Arc<HierarchicalModel> {
        Arc::clone(&self.model)
    }

    /// The live snapshot index (for assertions and inspection).
    pub fn index(&self) -> &IncrementalSnapshot {
        &self.index
    }

    /// Applies a `submit`: predict the job's runtime with the forest, then
    /// register it with the incremental index. With a state dir attached the
    /// event is journaled *first* (durable at the transport's next group
    /// commit, before its ack leaves) — if the append fails the event is
    /// rejected un-applied.
    pub fn apply_submit(&mut self, rec: JobRecord) -> Result<u64, TroutError> {
        self.journal_event(|| submit_line(&rec))?;
        let id = rec.id;
        let time = rec.submit_time;
        let pred_runtime = self.runtime_model.predict(&rec);
        self.index.submit(rec, pred_runtime)?;
        self.note_event(time);
        self.maybe_snapshot();
        Ok(id)
    }

    /// Applies a `start`. If the job was predicted on, the realized queue
    /// time closes the drift-monitor pair.
    pub fn apply_start(&mut self, id: u64, time: i64) -> Result<(), TroutError> {
        self.journal_event(|| lifecycle_line("start", id, time))?;
        self.index.start(id, time)?;
        if let Some(p) = self.drift.served.remove(&id) {
            self.metrics
                .drift_pending_joins
                .set(self.drift.served.len() as f64);
            if let Some(realized) = self.index.job(id).map(|j| j.rec.queue_time_min() as f32) {
                self.drift.join(&self.metrics, &p, realized);
            }
        }
        self.note_event(time);
        self.maybe_snapshot();
        Ok(())
    }

    /// Applies an `end`. A job that actually ran and was predicted at least
    /// once becomes a refit training example (cancelled-pending jobs have no
    /// queue-time label, so their cached row is just dropped).
    pub fn apply_end(&mut self, id: u64, time: i64) -> Result<(), TroutError> {
        self.journal_event(|| lifecycle_line("end", id, time))?;
        let was_running = self
            .index
            .job(id)
            .is_some_and(|j| j.phase == JobPhase::Running);
        self.index.end(id, time)?;
        // Claim the realized label and the cached row before note_event: its
        // eviction sweep may drop this very job (queued+ran for longer than
        // the eviction window) and purge the row along with it.
        let label = self.index.job(id).map(|j| j.rec.queue_time_min() as f32);
        let raw = self.cached_rows.remove(&id);
        // A cancelled-pending job never starts: its served prediction has no
        // outcome to join against, so the drift entry just drops.
        if self.drift.served.remove(&id).is_some() {
            self.metrics.drift_purged_total.inc();
            self.metrics
                .drift_pending_joins
                .set(self.drift.served.len() as f64);
        }
        self.note_event(time);
        if let (Some(raw), true, Some(y)) = (raw, was_running, label) {
            self.push_history(id, raw, y);
            self.completed_since_refit += 1;
            self.maybe_refit();
        }
        self.maybe_snapshot();
        Ok(())
    }

    /// Answers a coalesced batch of predict queries with **one** forward
    /// pass. Per-query failures (unknown id, job no longer pending) are
    /// reported in place; the rest of the batch still predicts.
    pub fn predict_batch(
        &mut self,
        queries: &[PredictQuery],
    ) -> Vec<Result<QueuePrediction, TroutError>> {
        let mut results = Vec::with_capacity(queries.len());
        self.predict_batch_into(queries, &mut results);
        results
    }

    /// [`ServeEngine::predict_batch`] writing into a caller-owned results
    /// vector (cleared first). All staging buffers live in the engine, so
    /// once they have warmed to the high-water batch size a steady-state
    /// flush (journal detached, cached rows warm) performs **zero** heap
    /// allocations end to end: O(1) snapshot read, in-place row assembly
    /// and scaling, workspace-backed inference, and prediction
    /// slots overwritten in place.
    pub fn predict_batch_into(
        &mut self,
        queries: &[PredictQuery],
        results: &mut Vec<Result<QueuePrediction, TroutError>>,
    ) {
        let t_all = Instant::now();
        // The scratch moves out for the duration of the call so featurize
        // can borrow `self` mutably; moving a struct of Vecs allocates
        // nothing.
        let mut ps = std::mem::take(&mut self.pscratch);
        ps.flat.clear();
        ps.slots.clear();
        let mut n_ok = 0usize;
        let mut feat_total_us = 0u64;
        for q in queries {
            // Predicts are journaled too: they cache feature rows and feed
            // the drift monitor, so replay must reproduce them (lane
            // included — the stored prediction carries it). A failed append
            // rejects just this query; the batch goes on.
            if let Err(e) = self.journal_event(|| predict_line(q.id, q.time, q.lane)) {
                ps.slots.push(Err(e));
                continue;
            }
            let t_feat = Instant::now();
            match self.featurize_pending_into(q.id, q.time, &mut ps.row) {
                Ok(()) => {
                    let feat_us = t_feat.elapsed().as_micros() as u64;
                    feat_total_us += feat_us;
                    self.metrics.featurize_us.record(feat_us);
                    ps.flat.extend_from_slice(&ps.row);
                    ps.slots.push(Ok(n_ok));
                    n_ok += 1;
                }
                Err(e) => ps.slots.push(Err(e)),
            }
        }
        ps.preds.clear();
        if n_ok > 0 {
            ps.x.reshape_scratch(n_ok, N_FEATURES);
            ps.x.as_mut_slice().copy_from_slice(&ps.flat);
            let t_inf = Instant::now();
            self.model.predict_batch_into(
                BatchPredictionRequest::new(&ps.x),
                &mut self.scratch,
                &mut ps.preds,
            );
            self.metrics
                .inference_us
                .record(t_inf.elapsed().as_micros() as u64);
        }
        self.metrics.batches_total.inc();
        self.metrics.predicts_total.add(n_ok as u64);
        self.metrics.batch_size.record(queries.len() as u64);
        // Every query in the batch waits for the whole flush, so the full
        // elapsed time *is* each one's end-to-end latency — recording it per
        // query keeps the real tail in the histogram (amortized cost comes
        // from batch_us.sum() / predicts instead).
        let elapsed = t_all.elapsed().as_micros() as u64;
        self.metrics.batch_us.record(elapsed);
        for _ in queries {
            self.metrics.predict_us.record(elapsed);
        }
        results.clear();
        results.extend(ps.slots.drain(..).zip(queries).map(|(s, q)| {
            s.map(|i| {
                let mut p = ps.preds[i];
                p.lane = q.lane;
                // Remember the answer for the drift join at `start`;
                // re-predicted jobs keep only the latest one. Same cap
                // policy as cached_rows against ids that never start.
                if self.drift.served.len() < CACHED_ROWS_MAX
                    || self.drift.served.contains_key(&q.id)
                {
                    self.drift.served.insert(q.id, p);
                }
                p
            })
        }));
        self.last_featurize_us = feat_total_us;
        self.metrics
            .drift_pending_joins
            .set(self.drift.served.len() as f64);
        self.pscratch = ps;
        self.maybe_snapshot();
    }

    /// Featurize total (µs) of the most recent batch — the traced
    /// Featurize stage (the rest of the shard service is Inference).
    pub fn last_batch_featurize_us(&self) -> u64 {
        self.last_featurize_us
    }

    /// Convenience wrapper for a normal-lane batch of one.
    pub fn predict_one(&mut self, id: u64, time: i64) -> Result<QueuePrediction, TroutError> {
        self.predict_batch(&[PredictQuery::new(id, time)])
            .pop()
            .expect("one query in, one result out")
    }

    /// Drift-monitor state (for assertions and inspection).
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// The metrics registry as JSON: the serve sections, the drift-monitor
    /// join state, and the process-wide span histograms.
    pub fn metrics_json(&self) -> trout_std::json::Json {
        let mut members = match self.metrics.to_json() {
            Json::Obj(members) => members,
            _ => unreachable!("ServeMetrics::to_json returns an object"),
        };
        members.push(("drift".into(), self.drift.to_json()));
        members.push(("spans".into(), trout_obs::global().histograms_json()));
        Json::Obj(members)
    }

    /// The same registry in Prometheus text exposition format: the engine's
    /// own metrics followed by the process-wide span histograms.
    pub fn metrics_prometheus(&self) -> String {
        let mut text = self.metrics.to_prometheus();
        text.push_str(&trout_obs::global().to_prometheus());
        text
    }

    /// Arms durability against `dir`: every subsequent accepted event is
    /// journaled before it is applied, and a snapshot is written every
    /// `snapshot_every` journal appends (0 = journal only, full replay on
    /// recovery). The fsync policy comes from
    /// [`OnlineConfig::journal_fsync_every`].
    ///
    /// When `dir` already holds serve state, `recover` must be `true`: the
    /// snapshot (if any) is restored and the journal tail beyond its
    /// watermark is replayed, leaving this engine bit-identical to the one
    /// that crashed. Without `recover`, pre-existing state is refused rather
    /// than silently appended to — mixing two runs' histories in one
    /// journal would corrupt both.
    pub fn open_state_dir(
        &mut self,
        dir: &Path,
        snapshot_every: u64,
        recover: bool,
    ) -> Result<RecoveryReport, TroutError> {
        std::fs::create_dir_all(dir)?;
        let journal_path = dir.join(JOURNAL_FILE);
        let has_state = journal_path.exists() || dir.join(SNAPSHOT_FILE).exists();
        if has_state && !recover {
            return Err(TroutError::Config(format!(
                "state dir {} already holds serve state; pass --recover to resume from it \
                 (or point --state-dir at an empty directory)",
                dir.display()
            )));
        }
        let report = if recover && has_state {
            replay_journal(self, dir)?
        } else {
            RecoveryReport::default()
        };
        let mut journal = Journal::open(&journal_path, self.online_cfg.journal_fsync_every)?
            .with_fsync_counter(self.metrics.journal_fsyncs_total.clone());
        if journal.appends() < report.snapshot_journal_pos {
            // The journal is empty behind the snapshot (power loss under
            // `--fsync-every 0`, or a torn-to-empty first append): the
            // snapshot was recovered as the durable truth, so repair the
            // journal base to its watermark — new appends must land at the
            // right absolute position.
            journal.reset_base(report.snapshot_journal_pos)?;
        }
        // Resume the snapshot cadence where the loaded snapshot left off.
        let since_snapshot = journal
            .appends()
            .saturating_sub(report.snapshot_journal_pos);
        self.durability = Some(Durability {
            journal,
            dir: dir.to_path_buf(),
            snapshot_every,
            since_snapshot,
            compact: self.compact_on_snapshot,
        });
        Ok(report)
    }

    /// Enables journal compaction: every snapshot write is followed by an
    /// atomic truncation of the entries the snapshot covers, bounding the
    /// state dir to one snapshot + one snapshot interval of journal tail.
    /// Takes effect at the next snapshot; legal to call before or after
    /// [`open_state_dir`](Self::open_state_dir) arms durability (the flag
    /// is ignored until it does).
    pub fn set_compaction(&mut self, on: bool) {
        if let Some(d) = self.durability.as_mut() {
            d.compact = on;
        }
        self.compact_on_snapshot = on;
    }

    /// Absolute journal watermark: events journaled since the journal was
    /// born (compacted-away entries included). 0 without a state dir.
    pub fn journal_position(&self) -> u64 {
        self.durability
            .as_ref()
            .map(|d| d.journal.appends())
            .unwrap_or(0)
    }

    /// The attached journal's synced watermark ([`Journal::synced`]):
    /// entries below it may be acknowledged and replicated. `None` without
    /// a state dir.
    pub fn journal_synced(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.journal.synced())
    }

    /// Compaction base of the attached journal (0 without a state dir or
    /// before the first compaction).
    pub fn journal_base(&self) -> u64 {
        self.durability
            .as_ref()
            .map(|d| d.journal.base())
            .unwrap_or(0)
    }

    /// Installs a leader snapshot onto this follower engine at absolute
    /// journal position `pos`: restores the state payload, resets the local
    /// journal to base `pos` (entries the snapshot covers are the leader's
    /// compacted history — this follower never saw them), and writes a
    /// local snapshot so a follower crash recovers without re-fetching.
    pub fn install_snapshot(&mut self, state: &Json, pos: u64) -> Result<(), TroutError> {
        self.restore_state(state)?;
        {
            let Some(d) = self.durability.as_mut() else {
                return Err(TroutError::Config(
                    "install_snapshot: no state dir attached".into(),
                ));
            };
            d.journal.reset_base(pos)?;
            d.since_snapshot = 0;
        }
        self.write_snapshot()?;
        self.metrics.replication_snapshots_installed.inc();
        Ok(())
    }

    /// Mutable access to the online policy (the CLI sets the journal fsync
    /// knob here before arming durability; refit policy changes are legal
    /// any time between refits).
    pub fn online_config_mut(&mut self) -> &mut OnlineConfig {
        &mut self.online_cfg
    }

    /// Forces any buffered journal appends to disk (clean-shutdown path for
    /// relaxed fsync policies). No-op without a state dir.
    pub fn sync_journal(&mut self) -> Result<(), TroutError> {
        if let Some(d) = self.durability.as_mut() {
            d.journal.sync()?;
        }
        Ok(())
    }

    /// Group commit ([`Journal::commit`]): makes every journaled event
    /// durable per the fsync policy, so the responses acknowledging them may
    /// leave. No-op without a state dir.
    pub fn commit_journal(&mut self) -> Result<(), TroutError> {
        if let Some(d) = self.durability.as_mut() {
            d.journal.commit()?;
        }
        Ok(())
    }

    /// Appends one event line to the journal (durable at the next
    /// [`commit_journal`](Self::commit_journal)) before the caller applies
    /// it. No-op without a state dir or during replay; the closure keeps
    /// serialization off the no-journal fast path.
    fn journal_event(&mut self, line: impl FnOnce() -> String) -> Result<(), TroutError> {
        if self.replaying {
            return Ok(());
        }
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        d.journal.append(&line()).map_err(|e| {
            TroutError::Io(std::io::Error::new(
                e.kind(),
                format!("journal append: {e}"),
            ))
        })?;
        d.since_snapshot += 1;
        self.metrics.journal_appends_total.inc();
        Ok(())
    }

    /// Writes a snapshot if one is due. Only ever called from the end of an
    /// event/batch application, so the serialized state is consistent and
    /// every journaled event up to the watermark is fully applied. A failed
    /// write is logged, not fatal — the journal remains authoritative.
    fn maybe_snapshot(&mut self) {
        let due = match &self.durability {
            Some(d) => {
                !self.replaying && d.snapshot_every > 0 && d.since_snapshot >= d.snapshot_every
            }
            None => false,
        };
        if !due {
            return;
        }
        if let Err(e) = self.write_snapshot() {
            trout_obs::log_warn!(
                "serve",
                "snapshot write failed (journal still authoritative): {e}"
            );
        }
    }

    /// Streams the engine state into the snapshot file and atomically
    /// replaces it, fsyncing the journal first so the recorded watermark
    /// never points past the durable journal prefix. The two published
    /// artefacts go in as cached text; every other member is serialized as
    /// it is written.
    pub fn write_snapshot(&mut self) -> Result<(), TroutError> {
        let t = Instant::now();
        let Some(d) = self.durability.as_mut() else {
            return Err(TroutError::Config(
                "write_snapshot: no state dir attached".into(),
            ));
        };
        d.journal.sync()?;
        let pos = d.journal.appends();
        let path = d.dir.join(SNAPSHOT_FILE);
        self.artefact_text.refresh(&self.model, &self.runtime_model);
        atomic_write_with(&path, |w| self.write_snapshot_to(w, pos))?;
        let d = self.durability.as_mut().expect("checked above");
        d.since_snapshot = 0;
        if d.compact {
            // The snapshot just made durable covers every journal entry, so
            // truncate them all: the file collapses to one base control line
            // at the watermark. A crash between the snapshot rename and this
            // rename merely leaves the uncompacted journal — recovery skips
            // the covered prefix either way.
            let dropped = d.journal.compact()?;
            self.metrics.compactions_total.inc();
            self.metrics.compacted_lines_total.add(dropped);
        }
        self.metrics
            .snapshot_write_us
            .record(t.elapsed().as_micros() as u64);
        self.metrics.snapshots_total.inc();
        Ok(())
    }

    /// Writes `{"journal_pos":pos,"state":…}` straight into the file, one
    /// member at a time. Needs a refreshed [`ArtefactText`] to copy the
    /// artefacts instead of serializing them again.
    fn write_snapshot_to(&self, w: &mut impl io::Write, pos: u64) -> io::Result<()> {
        write_io(w, |out| {
            write!(out, "{{\"journal_pos\":{pos},\"state\":")?;
            self.write_state(out)?;
            out.write_str("}")
        })
    }

    /// Suppresses journaling and snapshotting while recovery replays the
    /// journal tail (the events being applied are already in the journal).
    pub(crate) fn begin_replay(&mut self) {
        self.replaying = true;
    }

    pub(crate) fn end_replay(&mut self) {
        self.replaying = false;
    }

    /// Writes the engine's complete deterministic state as one JSON object
    /// — the snapshot payload, and the text the recovery bit-identity tests
    /// compare byte for byte. Covers everything events mutate: the scaler,
    /// the runtime forest, the (possibly refitted) model weights, the
    /// incremental index, cached feature rows, the refit history window, the
    /// drift monitor (pending joins included), and the semantic counters
    /// (`state_events` drives the eviction cadence, so it *is* state).
    /// Observational metrics — latencies, batch sizes, request/error
    /// counts — depend on timing and batching and are deliberately absent.
    /// All maps are written in sorted key order: identical states produce
    /// identical bytes.
    pub fn write_state<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_state_of(&[self], false, out)
    }

    /// [`write_state`](Self::write_state) into a new `String`.
    pub fn state_text(&self) -> String {
        let mut text = String::new();
        self.write_state(&mut text)
            .expect("writing to a String cannot fail");
        text
    }

    /// Restores the parsed [`write_state`](Self::write_state) text onto
    /// this (freshly constructed) engine. Inference and refit
    /// workspaces are rebuilt from the restored model; semantic counters
    /// are advanced to their captured values; the drift gauges are re-mirrored.
    pub fn restore_state(&mut self, j: &Json) -> Result<(), TroutError> {
        let version = u64::from_json_field(j.get("version"), "state.version")?;
        if version != 1 {
            return Err(TroutError::Config(format!(
                "unsupported snapshot version {version} (this build reads version 1)"
            )));
        }
        self.scaler = FromJson::from_json_field(j.get("scaler"), "state.scaler")?;
        self.runtime_model =
            FromJson::from_json_field(j.get("runtime_model"), "state.runtime_model")?;
        self.artefact_text.runtime_model = None;
        let model: HierarchicalModel = FromJson::from_json_field(j.get("model"), "state.model")?;
        self.index = IncrementalSnapshot::from_state_json(
            j.get("index")
                .ok_or_else(|| JsonError::new("missing field state.index"))?,
        )?;
        self.cached_rows =
            Vec::<(u64, Vec<f32>)>::from_json_field(j.get("cached_rows"), "state.cached_rows")?
                .into_iter()
                .collect();
        self.history_raw = FromJson::from_json_field(j.get("history_raw"), "state.history_raw")?;
        self.history_y = FromJson::from_json_field(j.get("history_y"), "state.history_y")?;
        self.history_ids = FromJson::from_json_field(j.get("history_ids"), "state.history_ids")?;
        self.completed_since_refit = u64::from_json_field(
            j.get("completed_since_refit"),
            "state.completed_since_refit",
        )? as usize;
        self.latest_time = i64::from_json_field(j.get("latest_time"), "state.latest_time")?;

        let drift = j
            .get("drift")
            .ok_or_else(|| JsonError::new("missing field state.drift"))?;
        self.drift.served = Vec::<(u64, QueuePrediction)>::from_json_field(
            drift.get("served"),
            "state.drift.served",
        )?
        .into_iter()
        .collect();
        self.drift.joined = u64::from_json_field(drift.get("joined"), "state.drift.joined")?;
        self.drift.abs_err_sum =
            f64::from_json_field(drift.get("abs_err_sum"), "state.drift.abs_err_sum")?;
        self.drift.within = u64::from_json_field(drift.get("within"), "state.drift.within")?;
        let confusion =
            Vec::<u64>::from_json_field(drift.get("confusion"), "state.drift.confusion")?;
        if confusion.len() != 4 {
            return Err(TroutError::Config(format!(
                "state.drift.confusion has {} cells, expected 4",
                confusion.len()
            )));
        }
        self.drift.confusion.copy_from_slice(&confusion);

        self.scratch = model.scratch(64);
        self.refit_scratch = RefitScratch::for_model(&model);
        self.model = Arc::new(model);

        let counters = j
            .get("counters")
            .ok_or_else(|| JsonError::new("missing field state.counters"))?;
        restore_counter(
            &self.metrics.predicts_total,
            u64::from_json_field(counters.get("predicts"), "state.counters.predicts")?,
        );
        restore_counter(
            &self.metrics.state_events_total,
            u64::from_json_field(counters.get("state_events"), "state.counters.state_events")?,
        );
        restore_counter(
            &self.metrics.refits_total,
            u64::from_json_field(counters.get("refits"), "state.counters.refits")?,
        );
        restore_counter(&self.metrics.drift_joined_total, self.drift.joined);
        restore_counter(&self.metrics.drift_within_2x_total, self.drift.within);
        for (c, &v) in self
            .metrics
            .drift_confusion
            .iter()
            .zip(&self.drift.confusion)
        {
            restore_counter(c, v);
        }
        self.metrics.drift_mae_min.set(self.drift.mae_min());
        self.metrics.drift_within_2x.set(self.drift.within_2x());
        self.metrics
            .drift_pending_joins
            .set(self.drift.served.len() as f64);
        Ok(())
    }

    /// Assembles and scales the feature row a pending job observes at
    /// `time`, writing it into `row` (resized to `N_FEATURES`). On the
    /// steady-state path — the job's raw row already cached — the call is
    /// allocation-free: O(1) snapshot read, in-place assembly, in-place
    /// scaling. The first predict of a job still clones the raw row into
    /// the refit cache.
    fn featurize_pending_into(
        &mut self,
        id: u64,
        time: i64,
        row: &mut Vec<f32>,
    ) -> Result<(), TroutError> {
        let job = self
            .index
            .job(id)
            .ok_or_else(|| TroutError::Protocol(format!("predict: unknown job id {id}")))?;
        if job.phase != JobPhase::Pending {
            return Err(TroutError::Protocol(format!(
                "predict: job {id} is no longer pending"
            )));
        }
        let rec = job.rec.clone();
        let pred_runtime = job.pred_runtime_min;
        let probe = SnapshotProbe {
            time,
            partition: rec.partition,
            user: rec.user,
            priority: rec.priority,
            exclude_id: Some(id),
        };
        let snap = self.index.snapshot(&probe);
        let part = &self.cluster.partitions[rec.partition as usize];
        row.clear();
        row.resize(N_FEATURES, 0.0);
        assemble_row_into(&rec, part, &snap, pred_runtime, row);
        if !self.cached_rows.contains_key(&id) && self.cached_rows.len() < CACHED_ROWS_MAX {
            self.cached_rows.insert(id, row.clone());
        }
        self.scaler.transform_row(row);
        Ok(())
    }

    fn note_event(&mut self, time: i64) {
        self.latest_time = self.latest_time.max(time);
        if self.metrics.state_events_total.inc() % EVICT_EVERY == 0 {
            let mut purged = 0u64;
            for id in self.index.evict_finished_before(self.latest_time) {
                self.cached_rows.remove(&id);
                if self.drift.served.remove(&id).is_some() {
                    purged += 1;
                }
            }
            if purged > 0 {
                self.metrics.drift_purged_total.add(purged);
                self.metrics
                    .drift_pending_joins
                    .set(self.drift.served.len() as f64);
            }
        }
    }

    fn push_history(&mut self, id: u64, raw: Vec<f32>, y: f32) {
        self.history_raw.push(raw);
        self.history_y.push(y);
        self.history_ids.push(id);
        // The refit window only ever looks at the tail, so the buffers stay
        // bounded at twice the window (amortized O(1) drain).
        let cap = self.online_cfg.window.max(1);
        if self.history_y.len() > 2 * cap {
            let cut = self.history_y.len() - cap;
            self.history_raw.drain(..cut);
            self.history_y.drain(..cut);
            self.history_ids.drain(..cut);
        }
    }

    /// Warm-start refit: train a clone on the completed-job history and
    /// publish it atomically.
    fn maybe_refit(&mut self) {
        if self.refit_every == 0 || self.completed_since_refit < self.refit_every {
            return;
        }
        let n = self.history_y.len();
        let mut flat = Vec::with_capacity(n * N_FEATURES);
        for row in &self.history_raw {
            flat.extend_from_slice(row);
        }
        let raw = Matrix::from_vec(n, N_FEATURES, flat);
        let x = self.scaler.transform(&raw);
        let ds = Dataset {
            x,
            raw,
            y_queue_min: self.history_y.clone(),
            ids: self.history_ids.clone(),
            scaler: self.scaler.clone(),
        };
        let rows: Vec<usize> = (0..n).collect();
        let mut next = (*self.model).clone();
        let _span = trout_obs::span!("serve.refit");
        update_model_in(
            &mut next,
            &self.base_cfg,
            &self.online_cfg,
            &ds,
            &rows,
            &mut self.refit_scratch,
        );
        self.model = Arc::new(next);
        let refits = self.metrics.refits_total.inc();
        self.completed_since_refit = 0;
        trout_obs::log_debug!(
            "serve",
            "refit #{refits} published on {n} completed jobs (drift mae {:.2} min over {} joins)",
            self.drift.mae_min(),
            self.drift.joined()
        );
    }
}

/// Advances a monotonic counter to `target` (counters expose `inc`/`add`
/// only; restore happens on a fresh engine, so the delta is the target).
fn restore_counter(c: &trout_obs::Counter, target: u64) {
    c.add(target.saturating_sub(c.get()));
}

/// Writes the state object of `engines`. With one engine and `canonical`
/// off this is that engine's own state. With `canonical` on it is the
/// canonical union of a shard set (DESIGN §11), identical for an N-shard
/// set and a 1-shard reference fed the same stream:
///
/// - the replicated sections (scaler, artefacts, index) come from the
///   first engine;
/// - the predict-routed sections (cached rows, refit history, pending
///   drift joins) are disjoint by routing, and their union is written in
///   id order;
/// - routed counters sum, `latest_time` takes the max, and `state_events`
///   (a replica count) comes from the first engine;
/// - the drift monitor's `abs_err_sum` is left out: it is an
///   order-sensitive f64 sum ([`ShardSet::merged_drift`] exposes it).
///
/// [`ShardSet::merged_drift`]: crate::ShardSet::merged_drift
pub(crate) fn write_state_of<W: fmt::Write>(
    engines: &[&ServeEngine],
    canonical: bool,
    out: &mut W,
) -> fmt::Result {
    let first = engines[0];
    out.write_str("{\"version\":1,\"scaler\":")?;
    first.scaler.write_json(out)?;
    out.write_str(",\"runtime_model\":")?;
    match &first.artefact_text.runtime_model {
        Some(text) => out.write_str(text)?,
        None => first.runtime_model.write_json(out)?,
    }
    out.write_str(",\"model\":")?;
    match first.artefact_text.model_text(&first.model) {
        Some(text) => out.write_str(text)?,
        None => first.model.write_json(out)?,
    }
    out.write_str(",\"index\":")?;
    first.index.write_state(out)?;

    let total = |len: fn(&ServeEngine) -> usize| engines.iter().map(|e| len(e)).sum::<usize>();
    let mut rows = Vec::with_capacity(total(|e| e.cached_rows.len()));
    for e in engines {
        rows.extend(e.cached_rows.iter().map(|(id, row)| (*id, row)));
    }
    rows.sort_by_key(|(id, _)| *id);
    out.write_str(",\"cached_rows\":")?;
    write_id_pairs(&rows, out)?;

    // Refit history: one (id, raw, y) triple per completed predicted job.
    // A single engine keeps its completion order; the canonical union is
    // re-sorted by id (stable, so shard order breaks ties).
    let mut history = Vec::with_capacity(total(|e| e.history_ids.len()));
    for e in engines {
        history.extend(
            e.history_ids
                .iter()
                .zip(&e.history_raw)
                .zip(&e.history_y)
                .map(|((id, raw), y)| (*id, raw, *y)),
        );
    }
    if canonical {
        history.sort_by_key(|(id, _, _)| *id);
    }
    out.write_str(",\"history_raw\":")?;
    write_json_array(history.iter().map(|(_, raw, _)| *raw), out)?;
    out.write_str(",\"history_y\":")?;
    write_json_array(history.iter().map(|(_, _, y)| y), out)?;
    out.write_str(",\"history_ids\":")?;
    write_json_array(history.iter().map(|(id, _, _)| id), out)?;

    let sum = |field: fn(&ServeEngine) -> u64| engines.iter().map(|e| field(e)).sum::<u64>();
    let latest_time = engines
        .iter()
        .map(|e| e.latest_time)
        .max()
        .unwrap_or(i64::MIN);
    write!(
        out,
        ",\"completed_since_refit\":{},\"latest_time\":{latest_time}",
        sum(|e| e.completed_since_refit as u64)
    )?;

    let mut served = Vec::with_capacity(total(|e| e.drift.served.len()));
    for e in engines {
        served.extend(e.drift.served.iter().map(|(id, p)| (*id, p)));
    }
    served.sort_by_key(|(id, _)| *id);
    out.write_str(",\"drift\":{\"served\":")?;
    write_id_pairs(&served, out)?;
    write!(out, ",\"joined\":{}", sum(|e| e.drift.joined))?;
    if !canonical {
        out.write_str(",\"abs_err_sum\":")?;
        first.drift.abs_err_sum.write_json(out)?;
    }
    write!(
        out,
        ",\"within\":{},\"confusion\":",
        sum(|e| e.drift.within)
    )?;
    let mut confusion = [0u64; 4];
    for e in engines {
        for (acc, c) in confusion.iter_mut().zip(&e.drift.confusion) {
            *acc += c;
        }
    }
    write_json_array(&confusion, out)?;
    write!(
        out,
        "}},\"counters\":{{\"predicts\":{},\"state_events\":{},\"refits\":{}}}}}",
        sum(|e| e.metrics.predicts_total.get()),
        first.metrics.state_events_total.get(),
        sum(|e| e.metrics.refits_total.get())
    )
}

/// Writes `[[id,value],…]` in the given order.
fn write_id_pairs<T: ToJson, W: fmt::Write>(pairs: &[(u64, &T)], out: &mut W) -> fmt::Result {
    out.write_str("[")?;
    for (i, (id, value)) in pairs.iter().enumerate() {
        out.write_str(if i == 0 { "[" } else { ",[" })?;
        write!(out, "{id},")?;
        value.write_json(out)?;
        out.write_str("]")?;
    }
    out.write_str("]")
}

/// Serialized text of the two state members that change only when a new
/// artefact is published, so a snapshot copies them instead of serializing
/// about 0.8 MB of weights and trees again.
#[derive(Default)]
struct ArtefactText {
    /// The model the text was made from. Holding the `Arc` keeps its
    /// allocation alive, so a later model can never reuse the address and
    /// pass the pointer comparison.
    model: Option<(Arc<HierarchicalModel>, String)>,
    /// Cleared by `restore_state` when it replaces the forest.
    runtime_model: Option<String>,
}

impl ArtefactText {
    /// Makes again whichever text no longer matches the engine's artefacts.
    fn refresh(&mut self, model: &Arc<HierarchicalModel>, runtime_model: &RuntimePredictor) {
        if self.model_text(model).is_none() {
            self.model = Some((Arc::clone(model), model.to_json_string()));
        }
        if self.runtime_model.is_none() {
            self.runtime_model = Some(runtime_model.to_json_string());
        }
    }

    /// The cached text of `model`, if the cache was made from it.
    fn model_text(&self, model: &Arc<HierarchicalModel>) -> Option<&str> {
        match &self.model {
            Some((m, text)) if Arc::ptr_eq(m, model) => Some(text),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_features::incremental::{trace_events, ReplayEvent};

    fn small_engine(refit_every: usize) -> (ServeEngine, Trace) {
        let cfg = ServeConfig {
            refit_every,
            seed: 7,
            ..Default::default()
        };
        let engine = ServeEngine::bootstrap(400, &cfg);
        // A fresh trace the engine has never seen, replayed as live events.
        let live = SimulationBuilder::anvil_like().jobs(300).seed(8).run();
        (engine, live)
    }

    #[test]
    fn submit_predict_lifecycle() {
        let (mut engine, live) = small_engine(0);
        let rec = live.records[0].clone();
        let id = rec.id;
        let t = rec.submit_time;
        engine.apply_submit(rec).unwrap();
        let p = engine.predict_one(id, t).unwrap();
        assert!(p.quick_proba.is_finite() && (0.0..=1.0).contains(&p.quick_proba));
        assert!(p.calibrated_proba.is_finite());

        // Unknown ids and non-pending jobs are per-query protocol errors.
        assert!(matches!(
            engine.predict_one(999_999, t),
            Err(TroutError::Protocol(_))
        ));
        engine.apply_start(id, t + 60).unwrap();
        assert!(matches!(
            engine.predict_one(id, t + 61),
            Err(TroutError::Protocol(_))
        ));
    }

    #[test]
    fn batch_reports_per_query_errors_in_place() {
        let (mut engine, live) = small_engine(0);
        let a = live.records[0].clone();
        let b = live.records[1].clone();
        let t = b.submit_time;
        engine.apply_submit(a.clone()).unwrap();
        engine.apply_submit(b.clone()).unwrap();
        let out = engine.predict_batch(&[
            PredictQuery::new(a.id, t),
            PredictQuery::new(424_242, t),
            PredictQuery::new(b.id, t),
        ]);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1].is_err());
        assert_eq!(engine.metrics.predicts_total.get(), 2);
        assert_eq!(engine.metrics.batches_total.get(), 1);
    }

    #[test]
    fn drift_monitor_joins_a_prediction_with_its_outcome() {
        let (mut engine, live) = small_engine(0);
        let rec = live.records[0].clone();
        let (id, t, elig) = (rec.id, rec.submit_time, rec.eligible_time);
        engine.apply_submit(rec).unwrap();
        let p = engine.predict_one(id, t).unwrap();
        assert_eq!(engine.drift().joined(), 0, "no outcome yet");

        // 20 minutes of realized queue time close the pair.
        let start = elig + 1200;
        engine.apply_start(id, start).unwrap();
        assert_eq!(engine.drift().joined(), 1);
        let realized = ((start - elig) as f64 / 60.0) as f32;
        let expected = (p.as_minutes() as f64 - realized as f64).abs();
        assert_eq!(engine.drift().mae_min(), expected, "single-pair MAE");
        assert_eq!(engine.drift().confusion().iter().sum::<u64>(), 1);
        assert_eq!(engine.metrics.drift_joined_total.get(), 1);
        assert_eq!(engine.metrics.drift_mae_min.get(), expected);

        // The metrics dump carries drift and span sections, and the
        // Prometheus exposition carries the drift series.
        let dump = engine.metrics_json();
        assert_eq!(
            dump.get("drift").and_then(|d| d.get("joined")),
            Some(&trout_std::json::Json::Int(1))
        );
        assert!(dump.get("spans").is_some());
        let prom = engine.metrics_prometheus();
        assert!(prom.contains("trout_serve_drift_joined_total 1"));
        assert!(prom.contains("trout_serve_drift_mae_min"));
    }

    #[test]
    fn cancelled_pending_job_never_joins_the_drift_monitor() {
        let (mut engine, live) = small_engine(0);
        let rec = live.records[0].clone();
        let (id, t) = (rec.id, rec.submit_time);
        engine.apply_submit(rec).unwrap();
        engine.predict_one(id, t).unwrap();
        // `end` while still pending = cancellation: no realized queue time.
        engine.apply_end(id, t + 500).unwrap();
        assert_eq!(engine.drift().joined(), 0);
        assert!(engine.drift.served.is_empty(), "served entry dropped");
    }

    #[test]
    fn repredicted_job_joins_with_the_latest_answer_only() {
        let (mut engine, live) = small_engine(0);
        let rec = live.records[0].clone();
        let (id, t, elig) = (rec.id, rec.submit_time, rec.eligible_time);
        engine.apply_submit(rec).unwrap();
        engine.predict_one(id, t).unwrap();
        let p2 = engine.predict_one(id, t + 30).unwrap();
        let start = elig + 3600;
        engine.apply_start(id, start).unwrap();
        assert_eq!(engine.drift().joined(), 1, "one join despite two predicts");
        let realized = ((start - elig) as f64 / 60.0) as f32;
        let expected = (p2.as_minutes() as f64 - realized as f64).abs();
        assert_eq!(
            engine.drift().mae_min(),
            expected,
            "joined against the latest served answer"
        );
    }

    #[test]
    fn long_lived_job_ending_on_an_eviction_sweep_still_trains() {
        let (mut engine, live) = small_engine(0);
        let mut long = live.records[0].clone();
        long.id = 500_000;
        long.submit_time = 0;
        long.eligible_time = 0;
        let id = long.id;
        engine.apply_submit(long).unwrap();
        engine.predict_one(id, 0).unwrap();
        engine.apply_start(id, 600).unwrap();
        // Filler submits land the long job's `end` exactly on the
        // EVICT_EVERY-th state event, two days after its submission — the
        // sweep inside apply_end evicts the job in the same call that needs
        // its realized queue time.
        let t_late = 2 * 86_400;
        for k in 0..(EVICT_EVERY - 3) {
            let mut r = live.records[1].clone();
            r.id = 600_000 + k;
            r.submit_time = t_late;
            r.eligible_time = t_late;
            engine.apply_submit(r).unwrap();
        }
        engine.apply_end(id, t_late + 1).unwrap();
        assert!(engine.index().job(id).is_none(), "long job was evicted");
        assert_eq!(
            engine.history_y.len(),
            1,
            "label must be captured before the eviction sweep"
        );
        assert!((engine.history_y[0] - 10.0).abs() < 1e-6, "600 s queued");
    }

    #[test]
    fn evicted_pending_join_decrements_the_gauge_and_counts_a_purge() {
        let (mut engine, live) = small_engine(0);
        // Cancellation purge: a predicted job that ends while still pending
        // has no outcome to join — its pending join must drop from the
        // gauge and count as purged.
        let rec = live.records[0].clone();
        let (id, t) = (rec.id, rec.submit_time);
        engine.apply_submit(rec).unwrap();
        engine.predict_one(id, t).unwrap();
        assert_eq!(engine.metrics.drift_pending_joins.get(), 1.0);
        engine.apply_end(id, t + 10).unwrap();
        assert_eq!(engine.metrics.drift_pending_joins.get(), 0.0);
        assert_eq!(engine.metrics.drift_purged_total.get(), 1);

        // Eviction-sweep purge (the safety net): a stale served entry for a
        // job that already finished is dropped — and accounted — when the
        // sweep evicts the job.
        let mut done = live.records[1].clone();
        done.id = 500_001;
        done.submit_time = 0;
        done.eligible_time = 0;
        let did = done.id;
        engine.apply_submit(done).unwrap();
        engine.apply_start(did, 600).unwrap();
        engine.apply_end(did, 700).unwrap();
        engine.drift.served.insert(
            did,
            QueuePrediction {
                estimate: QueueEstimate::Minutes(5.0),
                quick_proba: 0.1,
                calibrated_proba: 0.1,
                minutes: Some(5.0),
                cutoff_min: 10.0,
                lane: trout_core::Lane::Normal,
            },
        );
        engine.metrics.drift_pending_joins.set(1.0);
        // Filler submits two days later push the event count onto the next
        // EVICT_EVERY boundary, where the sweep evicts the finished job.
        let t_late = 2 * 86_400;
        let need = EVICT_EVERY - (engine.metrics.state_events_total.get() % EVICT_EVERY);
        for k in 0..need {
            let mut r = live.records[2].clone();
            r.id = 600_000 + k;
            r.submit_time = t_late;
            r.eligible_time = t_late;
            engine.apply_submit(r).unwrap();
        }
        assert!(engine.index().job(did).is_none(), "finished job evicted");
        assert_eq!(engine.metrics.drift_pending_joins.get(), 0.0);
        assert_eq!(engine.metrics.drift_purged_total.get(), 2);
        // The purge is observational only: never part of the state oracle.
        assert!(!engine.state_text().contains("drift_purged"));
    }

    #[test]
    fn replay_with_refits_hot_swaps_the_model() {
        let (mut engine, live) = small_engine(16);
        let model_before = engine.model();
        let mut predicted = 0usize;
        for (i, (_, ev)) in trace_events(&live).iter().enumerate() {
            match *ev {
                ReplayEvent::Submit(r) => {
                    let rec = live.records[r].clone();
                    let (id, t) = (rec.id, rec.submit_time);
                    engine.apply_submit(rec).unwrap();
                    if i % 3 == 0 {
                        engine.predict_one(id, t).unwrap();
                        predicted += 1;
                    }
                }
                ReplayEvent::Start(r) => {
                    let rec = &live.records[r];
                    engine.apply_start(rec.id, rec.start_time).unwrap();
                }
                ReplayEvent::End(r) => {
                    let rec = &live.records[r];
                    engine.apply_end(rec.id, rec.end_time).unwrap();
                }
            }
        }
        assert!(predicted > 50);
        assert!(
            engine.metrics.refits_total.get() >= 1,
            "expected at least one refit, metrics: {:?}",
            engine.metrics.refits_total.get()
        );
        assert!(
            !Arc::ptr_eq(&model_before, &engine.model()),
            "refit must publish a new model"
        );
        // The refitted model still predicts sanely.
        let mut rec = live.records[0].clone();
        rec.id = 1_000_000;
        rec.submit_time += 1_000_000;
        rec.eligible_time = rec.submit_time;
        let (id, t) = (rec.id, rec.submit_time);
        engine.apply_submit(rec).unwrap();
        let p = engine.predict_one(id, t).unwrap();
        assert!(p.quick_proba.is_finite());
    }
}
