//! Serve-side observability: the daemon's registry of counters, gauges and
//! latency histograms.
//!
//! Since the `trout-obs` crate absorbed [`LogHistogram`], [`ServeMetrics`]
//! is a bundle of shared handles into an engine-owned
//! [`Registry`](trout_obs::Registry): each engine gets its own registry (so
//! parallel test engines never cross-count), recording is one relaxed
//! atomic per observation, and the whole set dumps as the legacy JSON
//! sections for the `metrics` request plus Prometheus text exposition via
//! [`ServeMetrics::to_prometheus`].
//!
//! Error accounting is broken down by [`TroutError`] class — protocol
//! garbage from a misbehaving client must be distinguishable from model
//! failures — while the aggregate `errors` counter stays for backward
//! compatibility.

use std::sync::Arc;

use trout_core::{TroutError, LANES};
use trout_obs::trace::{BurnSnapshot, BurnWindow, TraceSink};
pub use trout_obs::LogHistogram;
use trout_obs::{Counter, Gauge, Histogram, Registry};
use trout_std::json::Json;

/// All counters and histograms the daemon maintains, as shared handles
/// into one engine-owned registry. Clones share the underlying atomics.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// The engine's registry (drives the Prometheus exposition).
    pub registry: Arc<Registry>,
    /// Every request line handled (events, predicts, metrics).
    pub requests_total: Counter,
    /// Individual predictions served.
    pub predicts_total: Counter,
    /// `predict_batch` flushes.
    pub batches_total: Counter,
    /// submit/start/end lifecycle events applied.
    pub state_events_total: Counter,
    /// Warm-start refits applied (model hot-swaps).
    pub refits_total: Counter,
    /// Requests rejected with an error response (aggregate over classes).
    pub errors_total: Counter,
    /// Errors by [`TroutError`] class, in variant order (io / parse /
    /// config / model / protocol / overloaded), plus the synthetic
    /// `poisoned` class for engine-mutex poison recoveries — a panicked
    /// session is a failure even though no request line is rejected for it
    /// — and `read_only` for lifecycle events refused by a replication
    /// follower.
    pub errors_by_class: [Counter; 8],
    /// Feature-assembly latency per predicted job, microseconds.
    pub featurize_us: Histogram,
    /// Model forward-pass latency per batch, microseconds.
    pub inference_us: Histogram,
    /// End-to-end latency per prediction, microseconds. Each prediction is
    /// charged its full flush (every query in a batch waits for the whole
    /// batch), so the tail here is real worst-case request latency.
    pub predict_us: Histogram,
    /// End-to-end latency per `predict_batch` flush, microseconds
    /// (`sum / predicts` gives the batch-amortized cost per prediction).
    pub batch_us: Histogram,
    /// Coalesced batch sizes.
    pub batch_size: Histogram,
    /// Drift monitor: predictions joined against a realized queue time.
    pub drift_joined_total: Counter,
    /// Drift monitor: joined predictions within 2x of the outcome.
    pub drift_within_2x_total: Counter,
    /// Drift monitor: class confusion counts in predicted-then-actual
    /// order: quick/quick, quick/long, long/quick, long/long.
    pub drift_confusion: [Counter; 4],
    /// Drift monitor: rolling mean absolute error, minutes.
    pub drift_mae_min: Gauge,
    /// Drift monitor: rolling within-2x fraction.
    pub drift_within_2x: Gauge,
    /// Write-ahead journal: event lines appended (and made durable per the
    /// configured fsync policy) before acknowledgment.
    pub journal_appends_total: Counter,
    /// Write-ahead journal: `fdatasync` calls. Under `--fsync-every 1`
    /// group commit makes this one per dirty shard per drained request
    /// window, so it stays below `journal_appends_total`.
    pub journal_fsyncs_total: Counter,
    /// Engine snapshots written to the state dir.
    pub snapshots_total: Counter,
    /// Snapshot serialization + atomic-write latency, microseconds.
    pub snapshot_write_us: Histogram,
    /// Journal compactions performed (snapshot + truncate).
    pub compactions_total: Counter,
    /// Journal entry lines truncated away by compaction.
    pub compacted_lines_total: Counter,
    /// Replication: followers currently streaming from this shard (leader
    /// side).
    pub replication_followers: Gauge,
    /// Replication: leader watermark minus the slowest connected follower's
    /// acknowledged watermark for this shard (0 with no followers).
    pub replication_lag_events: Gauge,
    /// Replication: high-water mark of `replication_lag_events` over the
    /// daemon's lifetime (the measured divergence-window bound).
    pub replication_lag_peak_events: Gauge,
    /// Replication: journal entries streamed to followers (leader side).
    pub replication_streamed_total: Counter,
    /// Replication: entries applied from the leader's stream (follower
    /// side; also re-journaled locally, so `journal_appends_total` tracks
    /// it).
    pub replication_applied_total: Counter,
    /// Replication: snapshots installed from the leader (follower side —
    /// initial sync or catch-up past a compaction point).
    pub replication_snapshots_installed: Counter,
    /// Journal events replayed during crash recovery.
    pub recovery_replayed_events: Counter,
    /// TCP sessions accepted over the daemon's lifetime.
    pub sessions_total: Counter,
    /// TCP session threads currently running (raised at accept, lowered by
    /// each session thread as it ends).
    pub sessions_live: Gauge,
    /// High-water mark of `sessions_live` — the regression guard against a
    /// listener holding one thread per connection it ever served.
    pub sessions_live_peak: Gauge,
    /// Transient accept failures survived (ECONNABORTED and friends — the
    /// connection was lost before the listener could hand it over).
    pub accept_transient_total: Counter,
    /// Accept backoffs taken on fd exhaustion (`EMFILE`/`ENFILE`): the
    /// listener pauses instead of spinning on an error it cannot clear.
    pub accept_backoffs_total: Counter,
    /// Current accept backoff delay in milliseconds (0 while healthy).
    pub accept_backoff_ms: Gauge,
    /// Predictions served per lane, [`LANES`] order (urgent/normal/batch).
    pub lane_predicts_total: [Counter; 3],
    /// Admission-control sheds per lane, [`LANES`] order — every shed is an
    /// explicit `overloaded` response, never a silent drop.
    pub shed_total: [Counter; 3],
    /// Admitted predictions whose queue wait exceeded their latency budget,
    /// per lane ([`LANES`] order). Nonzero for urgent means the scheduler
    /// broke its headline promise.
    pub slo_violations_total: [Counter; 3],
    /// Time a predict spent queued in the batch former before its flush
    /// began, microseconds.
    pub queue_wait_us: Histogram,
    /// Request-scoped tracing: per-stage histograms plus the flight
    /// recorder ring of recently completed traces (DESIGN §14). Purely
    /// observational — never journaled, never in the state oracle.
    pub trace: TraceSink,
    /// SLO burn accounting: 1-second good/violating buckets per lane,
    /// feeding the fast/slow burn-rate gauges.
    pub burn: BurnWindow,
    /// Fast-window (1 min) burn rate per lane, refreshed at each dump.
    pub burn_fast: [Gauge; 3],
    /// Slow-window (5 min) burn rate per lane, refreshed at each dump.
    pub burn_slow: [Gauge; 3],
    /// Drift monitor: predictions still awaiting their realized outcome.
    pub drift_pending_joins: Gauge,
    /// Drift monitor: pending joins purged by the eviction sweep (the job
    /// ended its observation window without ever starting).
    pub drift_purged_total: Counter,
}

/// `errors_by_class` index order and JSON key per class. The first six
/// mirror the [`TroutError`] variants; `poisoned` counts engine-mutex
/// poison recoveries after a session panic; `read_only` counts lifecycle
/// events a replication follower refused.
pub const ERROR_CLASSES: [&str; 8] = [
    "io",
    "parse",
    "config",
    "model",
    "protocol",
    "overloaded",
    "poisoned",
    "read_only",
];

/// Drift confusion cell names, predicted-then-actual.
pub const CONFUSION_CELLS: [&str; 4] = ["quick_quick", "quick_long", "long_quick", "long_long"];

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh registry with every serve metric registered.
    pub fn new() -> ServeMetrics {
        let r = Arc::new(Registry::new());
        ServeMetrics::register_help(&r);
        let errors_by_class = ERROR_CLASSES.map(|c| r.counter(&format!("serve.errors.{c}_total")));
        let drift_confusion =
            CONFUSION_CELLS.map(|c| r.counter(&format!("serve.drift.confusion_{c}_total")));
        ServeMetrics {
            requests_total: r.counter("serve.requests_total"),
            predicts_total: r.counter("serve.predicts_total"),
            batches_total: r.counter("serve.batches_total"),
            state_events_total: r.counter("serve.state_events_total"),
            refits_total: r.counter("serve.refits_total"),
            errors_total: r.counter("serve.errors_total"),
            errors_by_class,
            featurize_us: r.histogram("serve.featurize_us"),
            inference_us: r.histogram("serve.inference_us"),
            predict_us: r.histogram("serve.predict_us"),
            batch_us: r.histogram("serve.batch_us"),
            batch_size: r.histogram("serve.batch_size"),
            drift_joined_total: r.counter("serve.drift.joined_total"),
            drift_within_2x_total: r.counter("serve.drift.within_2x_total"),
            drift_confusion,
            drift_mae_min: r.gauge("serve.drift.mae_min"),
            drift_within_2x: r.gauge("serve.drift.within_2x"),
            journal_appends_total: r.counter("serve.journal.appends_total"),
            journal_fsyncs_total: r.counter("serve.journal.fsyncs_total"),
            snapshots_total: r.counter("serve.journal.snapshots_total"),
            snapshot_write_us: r.histogram("serve.journal.snapshot_write_us"),
            compactions_total: r.counter("serve.journal.compactions_total"),
            compacted_lines_total: r.counter("serve.journal.compacted_lines_total"),
            replication_followers: r.gauge("serve.replication.followers"),
            replication_lag_events: r.gauge("serve.replication.lag_events"),
            replication_lag_peak_events: r.gauge("serve.replication.lag_peak_events"),
            replication_streamed_total: r.counter("serve.replication.streamed_total"),
            replication_applied_total: r.counter("serve.replication.applied_total"),
            replication_snapshots_installed: r
                .counter("serve.replication.snapshots_installed_total"),
            recovery_replayed_events: r.counter("serve.recovery.replayed_events_total"),
            sessions_total: r.counter("serve.sessions_total"),
            sessions_live: r.gauge("serve.sessions_live"),
            sessions_live_peak: r.gauge("serve.sessions_live_peak"),
            accept_transient_total: r.counter("serve.accept.transient_total"),
            accept_backoffs_total: r.counter("serve.accept.backoffs_total"),
            accept_backoff_ms: r.gauge("serve.accept.backoff_ms"),
            lane_predicts_total: LANES
                .map(|l| r.counter(&format!("serve.lane.{}_predicts_total", l.as_str()))),
            shed_total: LANES
                .map(|l| r.counter(&format!("serve.admission.shed_{}_total", l.as_str()))),
            slo_violations_total: LANES.map(|l| {
                r.counter(&format!(
                    "serve.admission.slo_violations_{}_total",
                    l.as_str()
                ))
            }),
            queue_wait_us: r.histogram("serve.queue_wait_us"),
            trace: TraceSink::new(&r, "serve.trace"),
            burn: BurnWindow::new(),
            burn_fast: LANES.map(|l| r.gauge(&format!("serve.burn_rate.fast_{}", l.as_str()))),
            burn_slow: LANES.map(|l| r.gauge(&format!("serve.burn_rate.slow_{}", l.as_str()))),
            drift_pending_joins: r.gauge("serve.drift.pending_joins"),
            drift_purged_total: r.counter("serve.drift.purged_total"),
            registry: r,
        }
    }

    /// Registers `# HELP` text for the metrics scripted consumers grep
    /// most; names survive [`prom_name`](trout_obs::prom_name) mangling
    /// and the help text is escaped at exposition time.
    fn register_help(r: &Registry) {
        r.set_help("serve.predicts_total", "Individual predictions served");
        r.set_help(
            "serve.burn_rate.fast_urgent",
            "Urgent-lane SLO burn rate over the fast (1 min) window; >1 burns error budget",
        );
        r.set_help(
            "serve.burn_rate.slow_urgent",
            "Urgent-lane SLO burn rate over the slow (5 min) window; >1 burns error budget",
        );
        r.set_help(
            "serve.trace.total_us",
            "End-to-end traced request latency (sum of all pipeline stages)",
        );
        r.set_help(
            "serve.drift.pending_joins",
            "Predictions still awaiting their realized queue time",
        );
    }

    /// Counts one rejected request: the aggregate plus the class counter.
    pub fn record_error(&self, e: &TroutError) {
        self.errors_total.inc();
        let idx = match e {
            TroutError::Io(_) => 0,
            TroutError::Parse(_) => 1,
            TroutError::Config(_) => 2,
            TroutError::Model(_) => 3,
            TroutError::Protocol(_) => 4,
            TroutError::Overloaded { .. } => 5,
            TroutError::ReadOnly(_) => 7,
        };
        self.errors_by_class[idx].inc();
    }

    /// Counts one engine-mutex poison recovery (a session panicked while
    /// holding the engine; the guard was reclaimed and serving continued).
    pub fn record_poisoned(&self) {
        self.errors_total.inc();
        self.errors_by_class[6].inc();
    }

    /// Counts one admission shed in `lane` (also an `overloaded` error).
    pub fn record_shed(&self, lane: trout_core::Lane) {
        self.shed_total[lane.rank()].inc();
        self.record_error(&TroutError::Overloaded { retry_after_ms: 0 });
    }

    /// Serializes the registry in the legacy section layout (the `metrics`
    /// request's payload; the drift section rides in
    /// [`ServeEngine::metrics_json`](crate::ServeEngine::metrics_json)).
    pub fn to_json(&self) -> Json {
        let burn = self.refresh_burn_gauges();
        let by_class: Vec<(String, Json)> = ERROR_CLASSES
            .iter()
            .zip(&self.errors_by_class)
            .map(|(name, c)| (name.to_string(), Json::Int(c.get() as i128)))
            .collect();
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(vec![
                    (
                        "requests".into(),
                        Json::Int(self.requests_total.get() as i128),
                    ),
                    (
                        "predicts".into(),
                        Json::Int(self.predicts_total.get() as i128),
                    ),
                    (
                        "batches".into(),
                        Json::Int(self.batches_total.get() as i128),
                    ),
                    (
                        "state_events".into(),
                        Json::Int(self.state_events_total.get() as i128),
                    ),
                    ("refits".into(), Json::Int(self.refits_total.get() as i128)),
                    ("errors".into(), Json::Int(self.errors_total.get() as i128)),
                    (
                        "journal_appends".into(),
                        Json::Int(self.journal_appends_total.get() as i128),
                    ),
                    (
                        "journal_fsyncs".into(),
                        Json::Int(self.journal_fsyncs_total.get() as i128),
                    ),
                    (
                        "snapshots".into(),
                        Json::Int(self.snapshots_total.get() as i128),
                    ),
                    (
                        "compactions".into(),
                        Json::Int(self.compactions_total.get() as i128),
                    ),
                    (
                        "recovery_replayed_events".into(),
                        Json::Int(self.recovery_replayed_events.get() as i128),
                    ),
                    (
                        "sessions".into(),
                        Json::Int(self.sessions_total.get() as i128),
                    ),
                ]),
            ),
            ("errors_by_class".into(), Json::Obj(by_class)),
            ("replication".into(), self.replication_to_json()),
            ("admission".into(), self.admission_to_json()),
            ("featurize_us".into(), self.featurize_us.to_json()),
            ("queue_wait_us".into(), self.queue_wait_us.to_json()),
            ("inference_us".into(), self.inference_us.to_json()),
            ("predict_us".into(), self.predict_us.to_json()),
            ("batch_us".into(), self.batch_us.to_json()),
            ("batch_size".into(), self.batch_size.to_json()),
            ("snapshot_write_us".into(), self.snapshot_write_us.to_json()),
            ("burn".into(), burn_snapshot_to_json(&burn)),
        ])
    }

    /// Recomputes the per-lane burn-rate gauges from the window buckets
    /// and returns the snapshot they were computed from. Called at every
    /// JSON/Prometheus dump so the gauges are current without any
    /// background thread.
    pub fn refresh_burn_gauges(&self) -> BurnSnapshot {
        let snap = self.burn.snapshot();
        for rank in 0..LANES.len() {
            self.burn_fast[rank].set(snap.fast[rank].burn_rate());
            self.burn_slow[rank].set(snap.slow[rank].burn_rate());
        }
        snap
    }

    /// The replication section: leader-side follower count and lag, both
    /// sides' streamed/applied totals, and compaction accounting.
    fn replication_to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "followers".into(),
                Json::Int(self.replication_followers.get() as i128),
            ),
            (
                "lag_events".into(),
                Json::Int(self.replication_lag_events.get() as i128),
            ),
            (
                "lag_peak_events".into(),
                Json::Int(self.replication_lag_peak_events.get() as i128),
            ),
            (
                "streamed".into(),
                Json::Int(self.replication_streamed_total.get() as i128),
            ),
            (
                "applied".into(),
                Json::Int(self.replication_applied_total.get() as i128),
            ),
            (
                "snapshots_installed".into(),
                Json::Int(self.replication_snapshots_installed.get() as i128),
            ),
            (
                "compacted_lines".into(),
                Json::Int(self.compacted_lines_total.get() as i128),
            ),
        ])
    }

    /// The scheduler/admission section: per-lane predicts, sheds (plus the
    /// aggregate `shed_total`), and SLO violations, always in lane-priority
    /// order so scripted consumers can grep deterministic field order.
    fn admission_to_json(&self) -> Json {
        let per_lane = |counters: &[Counter; 3]| {
            Json::Obj(
                LANES
                    .iter()
                    .zip(counters)
                    .map(|(l, c)| (l.as_str().to_string(), Json::Int(c.get() as i128)))
                    .collect(),
            )
        };
        let shed_sum: u64 = self.shed_total.iter().map(|c| c.get()).sum();
        Json::Obj(vec![
            ("lane_predicts".into(), per_lane(&self.lane_predicts_total)),
            ("shed".into(), per_lane(&self.shed_total)),
            ("shed_total".into(), Json::Int(shed_sum as i128)),
            (
                "slo_violations".into(),
                per_lane(&self.slo_violations_total),
            ),
        ])
    }

    /// Prometheus text exposition of the engine registry (burn-rate gauges
    /// refreshed first so scrapes always see current windows).
    pub fn to_prometheus(&self) -> String {
        self.refresh_burn_gauges();
        self.registry.to_prometheus()
    }
}

/// The `burn` JSON section: the anchor second plus per-lane good /
/// violating counts and the derived burn rate for both windows, in lane
/// priority order.
pub fn burn_snapshot_to_json(snap: &BurnSnapshot) -> Json {
    let window = |lanes: &[trout_obs::LaneWindow; 3]| {
        Json::Obj(
            LANES
                .iter()
                .zip(lanes)
                .map(|(l, w)| {
                    (
                        l.as_str().to_string(),
                        Json::Obj(vec![
                            ("good".into(), Json::Int(w.good as i128)),
                            ("violating".into(), Json::Int(w.violating as i128)),
                            ("burn_rate".into(), Json::Num(w.burn_rate())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    Json::Obj(vec![
        ("anchor_sec".into(), Json::Int(snap.anchor_sec as i128)),
        ("fast".into(), window(&snap.fast)),
        ("slow".into(), window(&snap.slow)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_serializes_every_section() {
        let m = ServeMetrics::new();
        m.predicts_total.add(7);
        m.predict_us.record(123);
        let j = m.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("predicts")),
            Some(&Json::Int(7))
        );
        assert!(j.get("predict_us").is_some());
        assert!(j.get("batch_size").is_some());
        assert!(j.get("errors_by_class").is_some());
    }

    #[test]
    fn errors_break_down_by_class_and_keep_the_aggregate() {
        let m = ServeMetrics::new();
        m.record_error(&TroutError::Parse("x".into()));
        m.record_error(&TroutError::Parse("y".into()));
        m.record_error(&TroutError::Protocol("z".into()));
        m.record_error(&TroutError::Model("w".into()));
        m.record_poisoned();
        m.record_error(&TroutError::ReadOnly("follower".into()));
        assert_eq!(m.errors_total.get(), 6, "aggregate stays");
        let j = m.to_json();
        let by = j.get("errors_by_class").unwrap();
        assert_eq!(by.get("parse"), Some(&Json::Int(2)));
        assert_eq!(by.get("protocol"), Some(&Json::Int(1)));
        assert_eq!(by.get("model"), Some(&Json::Int(1)));
        assert_eq!(by.get("io"), Some(&Json::Int(0)));
        assert_eq!(by.get("config"), Some(&Json::Int(0)));
        assert_eq!(by.get("poisoned"), Some(&Json::Int(1)));
        assert_eq!(by.get("read_only"), Some(&Json::Int(1)));
    }

    #[test]
    fn prometheus_dump_carries_serve_and_drift_names() {
        let m = ServeMetrics::new();
        m.predicts_total.inc();
        m.drift_joined_total.inc();
        m.drift_mae_min.set(4.5);
        let text = m.to_prometheus();
        assert!(text.contains("trout_serve_predicts_total 1"));
        assert!(text.contains("trout_serve_drift_joined_total 1"));
        assert!(text.contains("trout_serve_drift_mae_min 4.5"));
        assert!(text.contains("# TYPE trout_serve_predict_us histogram"));
    }

    #[test]
    fn admission_section_counts_sheds_per_lane() {
        let m = ServeMetrics::new();
        m.record_shed(trout_core::Lane::Batch);
        m.record_shed(trout_core::Lane::Batch);
        m.record_shed(trout_core::Lane::Normal);
        m.lane_predicts_total[0].inc();
        m.slo_violations_total[2].inc();
        let j = m.to_json();
        let adm = j.get("admission").expect("admission section");
        assert_eq!(
            adm.get("shed").and_then(|s| s.get("batch")),
            Some(&Json::Int(2))
        );
        assert_eq!(
            adm.get("shed").and_then(|s| s.get("normal")),
            Some(&Json::Int(1))
        );
        assert_eq!(adm.get("shed_total"), Some(&Json::Int(3)));
        assert_eq!(
            adm.get("slo_violations").and_then(|s| s.get("urgent")),
            Some(&Json::Int(0))
        );
        assert_eq!(
            adm.get("lane_predicts").and_then(|s| s.get("urgent")),
            Some(&Json::Int(1))
        );
        // Sheds are overloaded errors, never silent.
        assert_eq!(
            j.get("errors_by_class").and_then(|e| e.get("overloaded")),
            Some(&Json::Int(3))
        );
        assert_eq!(m.errors_total.get(), 3);
    }

    #[test]
    fn clones_share_the_same_registry() {
        let m = ServeMetrics::new();
        let n = m.clone();
        m.requests_total.inc();
        assert_eq!(n.requests_total.get(), 1);
    }
}
