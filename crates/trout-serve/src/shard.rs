//! Shard set: N independent [`ServeEngine`]s behind one wire protocol.
//!
//! The single-engine daemon serializes *everything* — featurization,
//! inference, even metric dumps — behind one mutex. A [`ShardSet`] replaces
//! that with `--shards N` fully independent engines, each owning its own
//! snapshot index, model `Arc`, inference scratch, drift monitor, and
//! write-ahead journal subdirectory (`shard-000/`, `shard-001/`, …).
//!
//! **Routing.** Lifecycle events (`submit` / `start` / `end`) are
//! *broadcast*: every shard applies every event, so each holds a complete
//! replica of the incremental queue snapshot. That replica is what makes a
//! predict's features — queue depth, user load, partition pressure — correct
//! no matter which shard answers. Index maintenance is `O(log n)` per event
//! and dwarfed by featurize + forward-pass cost, so replicating it N ways is
//! cheap; the expensive work (`predict`) is routed to exactly one shard by
//! `hash(job_id) % N` ([`shard_of`], a SplitMix64 finalizer so sequential
//! ids spread evenly). This is also the only routing under which the merged
//! N-shard state can equal the 1-shard reference *bitwise*: every shard sees
//! the same event stream in the same order, so indices (and eviction sweeps,
//! which key off the state-event count) are identical everywhere, and each
//! prediction is computed from the same features the single engine would
//! have used.
//!
//! **Merging.** [`ShardSet::merged_state_text`] writes the canonical union
//! of the per-shard states straight to text, with every shard locked in
//! index order — predict-derived maps (cached rows, refit history, pending
//! drift joins) are disjoint by routing and written in job-id order,
//! counters sum, replicated sections come from shard 0 — producing a form
//! that is *identical* for an N-shard set and a 1-shard reference fed the
//! same stream (modulo the one documented exception: the drift monitor's
//! `abs_err_sum` is an order-sensitive f64 sum, so the merged form omits it
//! and [`ShardSet::merged_drift`] exposes it for tolerance-based
//! comparison).
//!
//! Per-shard durability composes with this untouched: each shard journals
//! the events *it* applied in *its* order, so `--recover` replays every
//! shard independently and each recovered shard is bit-identical to its
//! pre-crash self — `state_text` per shard remains the oracle.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use trout_core::online::OnlineConfig;
use trout_core::{TroutConfig, TroutError, LANES};
use trout_obs::trace::{BurnSnapshot, TraceSink};
use trout_slurmsim::{SimulationBuilder, Trace};
use trout_std::clock::{Clock, MonotonicClock};
use trout_std::json::Json;

use crate::engine::{write_state_of, ServeConfig, ServeEngine};
use crate::metrics::{burn_snapshot_to_json, ServeMetrics, CONFUSION_CELLS, ERROR_CLASSES};
use crate::recover::RecoveryReport;
use crate::scheduler::{AdmissionControl, SchedulerConfig};

/// Routes a job id to its owning shard: SplitMix64 finalizer mod N. Job ids
/// are typically sequential, so the raw modulus would stripe adjacent jobs
/// and any id-correlated load straight onto one shard; the mix makes the
/// assignment effectively uniform and — being a pure function of the id —
/// stable across restarts, recoveries, and shard-set rebuilds.
pub fn shard_of(id: u64, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n as u64) as usize
}

/// The subdirectory one shard's journal + snapshot live in.
pub fn shard_dir(state_dir: &Path, shard: usize) -> PathBuf {
    state_dir.join(format!("shard-{shard:03}"))
}

/// Locks one engine mutex, recovering from poison. A session that panics
/// while holding the guard poisons the mutex; the engine applies events one
/// at a time under the lock, so its state is consistent at every lock
/// boundary and the panic of one session is no reason to refuse every other
/// session forever. Each recovery is counted under the `poisoned` error
/// class of *that shard's* registry.
pub(crate) fn lock_engine(engine: &Mutex<ServeEngine>) -> MutexGuard<'_, ServeEngine> {
    match engine.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            engine.clear_poison();
            let guard = poisoned.into_inner();
            guard.metrics.record_poisoned();
            trout_obs::log_warn!(
                "serve",
                "engine mutex poisoned by a panicked session; recovered and serving on"
            );
            // A poisoned engine is exactly when the recent-request context
            // matters: dump this shard's flight recorder before serving on.
            dump_flight_sink("poisoned", None, &guard.metrics.trace, FLIGHT_DUMP_RECORDS);
            guard
        }
    }
}

/// Records per shard a flight dump emits (recent-first).
const FLIGHT_DUMP_RECORDS: usize = 8;

/// Writes one shard's recent completed traces to stderr as ndjson, each
/// line tagged with the dump reason (and the shard index when known). The
/// flight recorder keeps flowing while this reads — torn slots are skipped,
/// not awaited — so a dump never stalls the serve path.
fn dump_flight_sink(reason: &str, shard: Option<usize>, sink: &TraceSink, last: usize) {
    let mut buf = Vec::new();
    sink.recent(last, &mut buf);
    for r in &buf {
        let mut members = match crate::protocol::trace_record_json(r) {
            Json::Obj(m) => m,
            _ => unreachable!("trace_record_json returns an object"),
        };
        if let Some(i) = shard {
            members.insert(0, ("shard".into(), Json::Int(i as i128)));
        }
        members.insert(0, ("flight".into(), Json::Str(reason.into())));
        eprintln!("{}", Json::Obj(members).to_string());
    }
}

/// N independent engines, each behind its own mutex. Every session (stdin
/// or one per TCP connection) shares one `ShardSet`, and with it
/// the scheduler: one clock, one [`SchedulerConfig`], and one
/// [`AdmissionControl`] whose lane depths are global across sessions — the
/// budget a request competes for is the daemon's capacity, not one
/// connection's.
pub struct ShardSet {
    shards: Vec<Mutex<ServeEngine>>,
    /// Each shard's trace sink, cloned out of its engine at construction so
    /// sessions record and dump traces without touching the engine mutexes.
    sinks: Vec<TraceSink>,
    clock: Arc<dyn Clock>,
    scheduler: SchedulerConfig,
    admission: AdmissionControl,
    /// Replication role gate: a follower serves predicts but refuses
    /// lifecycle events with a typed `read_only` error — its journal stream
    /// from the leader is the only legal source of state changes.
    read_only: AtomicBool,
    /// Set by a `{"event":"promote"}` admin line; the follower loop observes
    /// it, drains the stream connection, and lifts the read-only gate.
    promote_requested: AtomicBool,
    /// Whether [`ShardSet::open_state_dir`] armed journaling — until then
    /// [`ShardSet::commit`] has nothing to sync and takes no lock.
    durable: AtomicBool,
    /// Leader side: the watermarks each streaming follower last acked, per
    /// shard, keyed by stream. Replication status computes lag from them
    /// when asked, so it never trails the last ack.
    follower_acks: Mutex<FollowerAcks>,
}

#[derive(Default)]
struct FollowerAcks {
    next_id: u64,
    by_stream: Vec<(u64, Vec<u64>)>,
}

impl FollowerAcks {
    /// Shard `shard`'s replication lag: `synced` minus the slowest
    /// streaming follower's last ack, 0 with no follower streaming.
    fn lag(&self, shard: usize, synced: u64) -> u64 {
        self.by_stream
            .iter()
            .map(|(_, w)| synced.saturating_sub(w[shard]))
            .max()
            .unwrap_or(0)
    }
}

impl ShardSet {
    /// Wraps pre-built engines (they must be built from the same trace and
    /// config — [`ShardSet::bootstrap`]/[`ShardSet::from_trace`] guarantee
    /// that; hand-rolled sets are on the caller).
    pub fn new(engines: Vec<ServeEngine>) -> ShardSet {
        assert!(!engines.is_empty(), "a shard set needs at least one engine");
        let sinks = engines.iter().map(|e| e.metrics.trace.clone()).collect();
        ShardSet {
            shards: engines.into_iter().map(Mutex::new).collect(),
            sinks,
            clock: Arc::new(MonotonicClock::new()),
            scheduler: SchedulerConfig::default(),
            admission: AdmissionControl::new(),
            read_only: AtomicBool::new(false),
            promote_requested: AtomicBool::new(false),
            durable: AtomicBool::new(false),
            follower_acks: Mutex::new(FollowerAcks::default()),
        }
    }

    /// Replaces the scheduler tunables (builder style, pre-serving).
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> ShardSet {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the clock (builder style — tests inject a
    /// [`trout_std::clock::ManualClock`] here to make scheduling
    /// deterministic).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ShardSet {
        self.clock = clock;
        self
    }

    /// The scheduler tunables every session schedules against.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.scheduler
    }

    /// The clock scheduling decisions read.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The daemon-wide admission controller.
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The single-engine set (the `--shards 1` default — byte-compatible
    /// with the pre-sharding daemon on every response).
    pub fn single(engine: ServeEngine) -> ShardSet {
        ShardSet::new(vec![engine])
    }

    /// N engines from one historical trace. The trace is featurized and the
    /// model trained **once** (unless pretrained); the remaining shards are
    /// built from the same trace with a clone of that model. Featurization
    /// and training are deterministic, so every shard starts from an
    /// identical scaler, runtime forest, and model.
    pub fn from_trace(
        n_shards: usize,
        trace: &Trace,
        pretrained: Option<trout_core::HierarchicalModel>,
        base_cfg: TroutConfig,
        online_cfg: OnlineConfig,
        cfg: &ServeConfig,
    ) -> ShardSet {
        let n = n_shards.max(1);
        let first =
            ServeEngine::from_trace(trace, pretrained, base_cfg.clone(), online_cfg.clone(), cfg);
        let model = first.model();
        let mut engines = Vec::with_capacity(n);
        engines.push(first);
        for _ in 1..n {
            engines.push(ServeEngine::from_trace(
                trace,
                Some((*model).clone()),
                base_cfg.clone(),
                online_cfg.clone(),
                cfg,
            ));
        }
        ShardSet::new(engines)
    }

    /// Self-contained N-shard set for smoke tests and benches: simulate a
    /// trace and train the smoke-sized model on it, once, shared by every
    /// shard.
    pub fn bootstrap(n_shards: usize, jobs: usize, cfg: &ServeConfig) -> ShardSet {
        let trace = SimulationBuilder::anvil_like()
            .jobs(jobs)
            .seed(cfg.seed)
            .run();
        let mut base = TroutConfig::smoke();
        base.seed = cfg.seed;
        ShardSet::from_trace(n_shards, &trace, None, base, OnlineConfig::default(), cfg)
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set is the degenerate empty set (never — `new` asserts).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `id`'s predicts.
    pub fn shard_of(&self, id: u64) -> usize {
        shard_of(id, self.shards.len())
    }

    /// One shard's mutex (tests and benches drive shards directly).
    pub fn shard(&self, i: usize) -> &Mutex<ServeEngine> {
        &self.shards[i]
    }

    /// Locks shard `i`, recovering from poison.
    pub fn lock(&self, i: usize) -> MutexGuard<'_, ServeEngine> {
        lock_engine(&self.shards[i])
    }

    /// Shard `i`'s trace sink — lock-free access for the session hot path.
    pub fn trace_sink(&self, i: usize) -> &TraceSink {
        &self.sinks[i]
    }

    /// Dumps every shard's flight recorder (last `last` completed traces)
    /// to stderr as ndjson, tagged with `reason`. No engine lock is taken.
    pub fn flight_dump(&self, reason: &str, last: usize) {
        for (i, sink) in self.sinks.iter().enumerate() {
            dump_flight_sink(reason, Some(i), sink, last);
        }
    }

    /// Shard 0's metrics handles (cloned — they share the registry). The
    /// transports account connection- and listener-level events here:
    /// per-shard registries stay meaningful (a shard's counters describe
    /// that shard's work) while transport totals live in one place.
    pub fn metrics0(&self) -> ServeMetrics {
        self.lock(0).metrics.clone()
    }

    /// Arms durability for every shard against `dir/shard-NNN/`, returning
    /// one recovery report per shard. The layout is uniform — a 1-shard set
    /// writes `dir/shard-000/` too — so restarting with a different shard
    /// count is detectable: a populated state dir must hold exactly one
    /// subdirectory per shard, because the broadcast/routing split means no
    /// shard's journal is a superset of another's.
    pub fn open_state_dir(
        &self,
        dir: &Path,
        snapshot_every: u64,
        recover: bool,
    ) -> Result<Vec<RecoveryReport>, TroutError> {
        std::fs::create_dir_all(dir)?;
        let existing = count_shard_dirs(dir)?;
        if existing > 0 && existing != self.shards.len() {
            return Err(TroutError::Config(format!(
                "state dir {} holds {} shard subdirectories but the daemon is running \
                 with --shards {}; recovery requires the same shard count the state \
                 was written with",
                dir.display(),
                existing,
                self.shards.len()
            )));
        }
        let mut reports = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let sub = shard_dir(dir, i);
            reports.push(lock_engine(shard).open_state_dir(&sub, snapshot_every, recover)?);
        }
        self.durable.store(true, Ordering::SeqCst);
        Ok(reports)
    }

    /// The egress barrier's group commit: one fsync per shard journal with
    /// unsynced appends ([`Journal::commit`]), so every event journaled so
    /// far is durable before any response acknowledging it leaves.
    /// Transports call this right before response bytes go out; without a
    /// state dir it is a no-op that takes no lock.
    ///
    /// A failed fsync is **fatal**: the error is logged and the process
    /// exits with status 1 without sending the unsynced responses. After a
    /// failed `fdatasync` the kernel may have dropped the dirty pages, so no
    /// session may ack an event the retry would falsely cover.
    ///
    /// [`Journal::commit`]: crate::Journal::commit
    pub fn commit(&self) {
        if !self.durable.load(Ordering::SeqCst) {
            return;
        }
        for (i, shard) in self.shards.iter().enumerate() {
            if let Err(e) = lock_engine(shard).commit_journal() {
                trout_obs::log_error!(
                    "serve",
                    "shard {i} journal fsync failed; exiting without acknowledging the \
                     unsynced events: {e}"
                );
                std::process::exit(1);
            }
        }
    }

    /// Shard `i`'s synced journal watermark — the end of the prefix that may
    /// be acknowledged and replicated. `None` when this process attached no
    /// journal to the shard (it then has no unsynced appends of its own).
    pub fn synced_watermark(&self, i: usize) -> Option<u64> {
        self.lock(i).journal_synced()
    }

    fn follower_acks(&self) -> MutexGuard<'_, FollowerAcks> {
        self.follower_acks
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a follower stream that holds `watermarks` (its hello) and
    /// returns the stream id its acks are recorded under.
    pub(crate) fn follower_streaming(&self, watermarks: Vec<u64>) -> u64 {
        let mut acks = self.follower_acks();
        let id = acks.next_id;
        acks.next_id += 1;
        acks.by_stream.push((id, watermarks));
        id
    }

    /// Records that follower stream `id` holds shard `shard` up to
    /// `watermark`.
    pub(crate) fn follower_acked(&self, id: u64, shard: usize, watermark: u64) {
        let mut acks = self.follower_acks();
        if let Some((_, w)) = acks.by_stream.iter_mut().find(|(s, _)| *s == id) {
            w[shard] = w[shard].max(watermark);
        }
    }

    /// Forgets follower stream `id` (its connection ended).
    pub(crate) fn follower_gone(&self, id: u64) {
        self.follower_acks().by_stream.retain(|(s, _)| *s != id);
    }

    /// Syncs every shard's buffered journal appends (clean-shutdown path).
    pub fn sync_journals(&self) -> Result<(), TroutError> {
        for shard in &self.shards {
            lock_engine(shard).sync_journal()?;
        }
        Ok(())
    }

    /// Enables (or disables) journal compaction on every shard.
    pub fn set_compaction(&self, on: bool) {
        for shard in &self.shards {
            lock_engine(shard).set_compaction(on);
        }
    }

    /// Flips the read-only gate: `true` makes every lifecycle event answer
    /// with a typed `read_only` error while predicts keep flowing.
    pub fn set_read_only(&self, on: bool) {
        self.read_only.store(on, Ordering::SeqCst);
    }

    /// Whether lifecycle events are currently refused (follower role).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Records a promotion request (the `{"event":"promote"}` admin line).
    /// Returns whether the daemon was a follower at the time — a leader
    /// acks idempotently.
    pub fn request_promote(&self) -> bool {
        self.promote_requested.store(true, Ordering::SeqCst);
        self.is_read_only()
    }

    /// Whether promotion has been requested (polled by the follower loop).
    pub fn promote_requested(&self) -> bool {
        self.promote_requested.load(Ordering::SeqCst)
    }

    /// Per-shard absolute journal watermarks (index order). A shard without
    /// a state dir reports 0.
    pub fn journal_watermarks(&self) -> Vec<u64> {
        (0..self.shards.len())
            .map(|i| self.lock(i).journal_position())
            .collect()
    }

    /// The replication status payload: role plus per-shard watermark,
    /// compaction base, streaming-follower count, and lag — the synced
    /// watermark minus the slowest follower's last ack, computed now (0
    /// with no follower streaming, so always 0 on a follower).
    pub fn replication_status_json(&self) -> Json {
        let acks = self.follower_acks();
        let shards: Vec<Json> = (0..self.shards.len())
            .map(|i| {
                let g = self.lock(i);
                let lag = acks.lag(i, g.journal_synced().unwrap_or(0));
                Json::Obj(vec![
                    ("watermark".into(), Json::Int(g.journal_position() as i128)),
                    ("base".into(), Json::Int(g.journal_base() as i128)),
                    ("followers".into(), Json::Int(acks.by_stream.len() as i128)),
                    ("lag".into(), Json::Int(lag as i128)),
                ])
            })
            .collect();
        drop(acks);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("event".into(), Json::Str("replication".into())),
            (
                "role".into(),
                Json::Str(
                    if self.is_read_only() {
                        "follower"
                    } else {
                        "leader"
                    }
                    .into(),
                ),
            ),
            ("shards".into(), Json::Arr(shards)),
        ])
    }

    /// Locks every shard in ascending index order — the order
    /// [`ShardSet::commit`] takes them, and no path holds one shard lock
    /// while it takes another, so this cannot deadlock against a session.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ServeEngine>> {
        self.shards.iter().map(lock_engine).collect()
    }

    /// The canonical merged deterministic state as JSON text: the N-shard
    /// union in a form identical to the 1-shard reference for the same
    /// event stream (see the module docs; `abs_err_sum` is deliberately
    /// absent — compare it through [`ShardSet::merged_drift`] with a float
    /// tolerance). Replicated sections (scaler, models, index) are taken
    /// from shard 0; the concurrency battery separately asserts all shards'
    /// replicas are byte-equal.
    pub fn merged_state_text(&self) -> String {
        let guards = self.lock_all();
        let engines: Vec<&ServeEngine> = guards.iter().map(|g| &**g).collect();
        let mut text = String::new();
        write_state_of(&engines, true, &mut text).expect("writing to a String cannot fail");
        text
    }

    /// The `{"event":"state"}` response line: per-shard journal watermarks
    /// (index order) followed by the merged state, read under one hold of
    /// every shard lock. Two daemons at identical watermarks answer
    /// byte-identical lines — the replication bit-identity oracle. The
    /// caller writes the line out after the locks are released: the
    /// egress barrier's group commit locks every shard.
    pub fn state_dump_line(&self) -> String {
        let guards = self.lock_all();
        let engines: Vec<&ServeEngine> = guards.iter().map(|g| &**g).collect();
        let mut line = String::from("{\"ok\":true,\"event\":\"state\",\"watermarks\":[");
        for (i, e) in engines.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(line, "{sep}{}", e.journal_position());
        }
        line.push_str("],\"state\":");
        write_state_of(&engines, true, &mut line).expect("writing to a String cannot fail");
        line.push('}');
        line
    }

    /// Order-insensitive drift aggregates across shards: (joined pairs,
    /// Σ abs_err_sum, fleet MAE in minutes). The per-pair errors are exact —
    /// only the f64 summation order differs from a single engine's, so an
    /// equivalence test compares the MAE within a tiny tolerance instead of
    /// bitwise.
    pub fn merged_drift(&self) -> (u64, f64, f64) {
        let mut joined = 0u64;
        let mut err_sum = 0.0f64;
        for i in 0..self.shards.len() {
            let g = self.lock(i);
            joined += g.drift().joined();
            err_sum += g.drift().abs_err_sum();
        }
        let mae = if joined == 0 {
            0.0
        } else {
            err_sum / joined as f64
        };
        (joined, err_sum, mae)
    }

    /// The `metrics` response payload. A 1-shard set delegates to the
    /// engine's own dump (byte-compatible with the pre-sharding daemon); an
    /// N-shard set merges: counters sum (except replica counts — `requests`
    /// and `sessions` are accounted on shard 0 only, and `state_events`
    /// reports shard 0's logical event count, not N× it), error classes sum,
    /// latency histograms merge bucket-wise, and drift joins pool across
    /// shards.
    pub fn metrics_json(&self) -> Json {
        self.refresh_replication_lag();
        if self.shards.len() == 1 {
            return self.lock(0).metrics_json();
        }
        let m = self.merge_metrics();
        m.to_json()
    }

    /// Prometheus exposition. A 1-shard set is byte-compatible with the
    /// pre-sharding daemon; an N-shard set exposes each shard's registry
    /// with a `shardNNN` infix (`trout_serve_shard000_predicts_total …`) so
    /// operators see per-shard series — skew between shards *is* the signal
    /// sharding introduces — followed by the process-wide span histograms
    /// once.
    pub fn metrics_prometheus(&self) -> String {
        self.refresh_replication_lag();
        if self.shards.len() == 1 {
            return self.lock(0).metrics_prometheus();
        }
        let mut text = String::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let one = lock_engine(shard).metrics.to_prometheus();
            text.push_str(&one.replace("trout_serve_", &format!("trout_serve_shard{i:03}_")));
        }
        text.push_str(&trout_obs::global().to_prometheus());
        text
    }

    /// Sets each shard's `replication_lag_events` gauge (and raises its
    /// peak) from the followers' last acks, as the replication status line
    /// computes lag, so a metrics dump never reads a lag older than the
    /// last ack.
    fn refresh_replication_lag(&self) {
        let acks = self.follower_acks();
        for i in 0..self.shards.len() {
            let g = self.lock(i);
            let lag = acks.lag(i, g.journal_synced().unwrap_or(0)) as f64;
            g.metrics.replication_lag_events.set(lag);
            g.metrics.replication_lag_peak_events.set_max(lag);
        }
    }

    /// Pools every shard's registry into one merged snapshot (counter sums,
    /// histogram bucket merges, pooled drift) for the JSON dump.
    fn merge_metrics(&self) -> MergedMetrics {
        let mut m = MergedMetrics::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let g = lock_engine(shard);
            let mm = &g.metrics;
            if i == 0 {
                m.requests = mm.requests_total.get();
                m.sessions = mm.sessions_total.get();
                m.state_events = mm.state_events_total.get();
            }
            m.predicts += mm.predicts_total.get();
            m.batches += mm.batches_total.get();
            m.refits += mm.refits_total.get();
            m.errors += mm.errors_total.get();
            m.journal_appends += mm.journal_appends_total.get();
            m.journal_fsyncs += mm.journal_fsyncs_total.get();
            m.snapshots += mm.snapshots_total.get();
            m.compactions += mm.compactions_total.get();
            m.recovery_replayed += mm.recovery_replayed_events.get();
            // Every shard streams to the same followers: the count and the
            // lags are the slowest shard's, the traffic sums.
            m.followers = m.followers.max(mm.replication_followers.get() as u64);
            m.lag_events = m.lag_events.max(mm.replication_lag_events.get() as u64);
            m.lag_peak_events = m
                .lag_peak_events
                .max(mm.replication_lag_peak_events.get() as u64);
            m.streamed += mm.replication_streamed_total.get();
            m.applied += mm.replication_applied_total.get();
            m.snapshots_installed += mm.replication_snapshots_installed.get();
            m.compacted_lines += mm.compacted_lines_total.get();
            for (acc, c) in m.errors_by_class.iter_mut().zip(&mm.errors_by_class) {
                *acc += c.get();
            }
            for (acc, c) in m.lane_predicts.iter_mut().zip(&mm.lane_predicts_total) {
                *acc += c.get();
            }
            for (acc, c) in m.shed.iter_mut().zip(&mm.shed_total) {
                *acc += c.get();
            }
            for (acc, c) in m.slo_violations.iter_mut().zip(&mm.slo_violations_total) {
                *acc += c.get();
            }
            m.queue_wait_us.merge(&mm.queue_wait_us.snapshot());
            m.featurize_us.merge(&mm.featurize_us.snapshot());
            m.inference_us.merge(&mm.inference_us.snapshot());
            m.predict_us.merge(&mm.predict_us.snapshot());
            m.batch_us.merge(&mm.batch_us.snapshot());
            m.batch_size.merge(&mm.batch_size.snapshot());
            m.snapshot_write_us.merge(&mm.snapshot_write_us.snapshot());
            m.burn.merge(&mm.refresh_burn_gauges());
            let d = g.drift();
            m.joined += d.joined();
            m.abs_err_sum += d.abs_err_sum();
            m.within += d.within_count();
            m.pending += d.pending() as u64;
            for (acc, v) in m.confusion.iter_mut().zip(d.confusion()) {
                *acc += v;
            }
        }
        m
    }
}

/// Accumulator for the N-shard merged metrics dump.
#[derive(Default)]
struct MergedMetrics {
    requests: u64,
    predicts: u64,
    batches: u64,
    state_events: u64,
    refits: u64,
    errors: u64,
    journal_appends: u64,
    journal_fsyncs: u64,
    snapshots: u64,
    compactions: u64,
    recovery_replayed: u64,
    sessions: u64,
    followers: u64,
    lag_events: u64,
    lag_peak_events: u64,
    streamed: u64,
    applied: u64,
    snapshots_installed: u64,
    compacted_lines: u64,
    errors_by_class: [u64; 8],
    lane_predicts: [u64; 3],
    shed: [u64; 3],
    slo_violations: [u64; 3],
    queue_wait_us: crate::metrics::LogHistogram,
    featurize_us: crate::metrics::LogHistogram,
    inference_us: crate::metrics::LogHistogram,
    predict_us: crate::metrics::LogHistogram,
    batch_us: crate::metrics::LogHistogram,
    batch_size: crate::metrics::LogHistogram,
    snapshot_write_us: crate::metrics::LogHistogram,
    burn: BurnSnapshot,
    joined: u64,
    abs_err_sum: f64,
    within: u64,
    pending: u64,
    confusion: [u64; 4],
}

impl MergedMetrics {
    /// Same section layout as [`ServeMetrics::to_json`] +
    /// [`DriftMonitor::to_json`](crate::engine::DriftMonitor::to_json) +
    /// spans, so clients parse one schema regardless of shard count.
    fn to_json(&self) -> Json {
        let by_class: Vec<(String, Json)> = ERROR_CLASSES
            .iter()
            .zip(&self.errors_by_class)
            .map(|(name, &c)| (name.to_string(), Json::Int(c as i128)))
            .collect();
        let confusion: Vec<(String, Json)> = CONFUSION_CELLS
            .iter()
            .zip(&self.confusion)
            .map(|(name, &c)| (name.to_string(), Json::Int(c as i128)))
            .collect();
        let mae = if self.joined == 0 {
            0.0
        } else {
            self.abs_err_sum / self.joined as f64
        };
        let within_2x = if self.joined == 0 {
            0.0
        } else {
            self.within as f64 / self.joined as f64
        };
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(vec![
                    ("requests".into(), Json::Int(self.requests as i128)),
                    ("predicts".into(), Json::Int(self.predicts as i128)),
                    ("batches".into(), Json::Int(self.batches as i128)),
                    ("state_events".into(), Json::Int(self.state_events as i128)),
                    ("refits".into(), Json::Int(self.refits as i128)),
                    ("errors".into(), Json::Int(self.errors as i128)),
                    (
                        "journal_appends".into(),
                        Json::Int(self.journal_appends as i128),
                    ),
                    (
                        "journal_fsyncs".into(),
                        Json::Int(self.journal_fsyncs as i128),
                    ),
                    ("snapshots".into(), Json::Int(self.snapshots as i128)),
                    ("compactions".into(), Json::Int(self.compactions as i128)),
                    (
                        "recovery_replayed_events".into(),
                        Json::Int(self.recovery_replayed as i128),
                    ),
                    ("sessions".into(), Json::Int(self.sessions as i128)),
                ]),
            ),
            ("errors_by_class".into(), Json::Obj(by_class)),
            (
                "replication".into(),
                Json::Obj(vec![
                    ("followers".into(), Json::Int(self.followers as i128)),
                    ("lag_events".into(), Json::Int(self.lag_events as i128)),
                    (
                        "lag_peak_events".into(),
                        Json::Int(self.lag_peak_events as i128),
                    ),
                    ("streamed".into(), Json::Int(self.streamed as i128)),
                    ("applied".into(), Json::Int(self.applied as i128)),
                    (
                        "snapshots_installed".into(),
                        Json::Int(self.snapshots_installed as i128),
                    ),
                    (
                        "compacted_lines".into(),
                        Json::Int(self.compacted_lines as i128),
                    ),
                ]),
            ),
            ("admission".into(), {
                let per_lane = |vals: &[u64; 3]| {
                    Json::Obj(
                        LANES
                            .iter()
                            .zip(vals)
                            .map(|(l, &v)| (l.as_str().to_string(), Json::Int(v as i128)))
                            .collect(),
                    )
                };
                Json::Obj(vec![
                    ("lane_predicts".into(), per_lane(&self.lane_predicts)),
                    ("shed".into(), per_lane(&self.shed)),
                    (
                        "shed_total".into(),
                        Json::Int(self.shed.iter().sum::<u64>() as i128),
                    ),
                    ("slo_violations".into(), per_lane(&self.slo_violations)),
                ])
            }),
            ("featurize_us".into(), self.featurize_us.to_json()),
            ("queue_wait_us".into(), self.queue_wait_us.to_json()),
            ("inference_us".into(), self.inference_us.to_json()),
            ("predict_us".into(), self.predict_us.to_json()),
            ("batch_us".into(), self.batch_us.to_json()),
            ("batch_size".into(), self.batch_size.to_json()),
            ("snapshot_write_us".into(), self.snapshot_write_us.to_json()),
            ("burn".into(), burn_snapshot_to_json(&self.burn)),
            (
                "drift".into(),
                Json::Obj(vec![
                    ("joined".into(), Json::Int(self.joined as i128)),
                    ("mae_min".into(), Json::Num(mae)),
                    ("within_2x".into(), Json::Num(within_2x)),
                    ("pending".into(), Json::Int(self.pending as i128)),
                    ("confusion".into(), Json::Obj(confusion)),
                ]),
            ),
            ("spans".into(), trout_obs::global().histograms_json()),
        ])
    }
}

/// Counts `shard-NNN` subdirectories already present in a state dir.
fn count_shard_dirs(dir: &Path) -> Result<usize, TroutError> {
    let mut n = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir()
            && name.len() == 9
            && name.starts_with("shard-")
            && name[6..].bytes().all(|b| b.is_ascii_digit())
        {
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_roughly_uniform() {
        let n = 4;
        let mut counts = [0usize; 4];
        for id in 0..4096u64 {
            let s = shard_of(id, n);
            assert_eq!(s, shard_of(id, n), "pure function of the id");
            counts[s] += 1;
        }
        for &c in &counts {
            // Uniform would be 1024 per shard; allow generous skew.
            assert!((700..1400).contains(&c), "skewed shard counts {counts:?}");
        }
        // Sequential ids must not stripe: adjacent ids land on different
        // shards often enough that no shard starves.
        assert_eq!(shard_of(7, 1), 0, "single shard takes everything");
    }

    #[test]
    fn shard_dirs_are_zero_padded_and_uniform() {
        let d = shard_dir(Path::new("/tmp/state"), 0);
        assert!(d.ends_with("shard-000"));
        let d = shard_dir(Path::new("/tmp/state"), 12);
        assert!(d.ends_with("shard-012"));
    }

    #[test]
    fn merge_of_one_state_canonicalizes_order_dependent_sections() {
        let set = ShardSet::bootstrap(
            1,
            300,
            &ServeConfig {
                refit_every: 0,
                seed: 11,
                ..Default::default()
            },
        );
        let live = SimulationBuilder::anvil_like().jobs(40).seed(12).run();
        let recs = &live.records[..3];
        let t = recs.iter().map(|r| r.submit_time).max().unwrap();
        {
            let mut e = set.lock(0);
            for r in recs {
                e.apply_submit(r.clone()).unwrap();
            }
            for r in recs {
                e.predict_one(r.id, t).unwrap();
                e.apply_start(r.id, t + 60).unwrap();
            }
            // Jobs complete in reverse order: the refit history arrives
            // out of id order, as live completion order produces.
            for r in recs.iter().rev() {
                e.apply_end(r.id, t + 120 + r.id as i64).unwrap();
            }
        }
        let ids_of = |j: &Json, key: &str| -> Vec<Json> {
            j.get(key).unwrap().expect_arr(key).unwrap().to_vec()
        };
        let own = Json::parse(&set.lock(0).state_text()).unwrap();
        let merged = Json::parse(&set.merged_state_text()).unwrap();
        let mut completion: Vec<u64> = recs.iter().rev().map(|r| r.id).collect();
        let as_json =
            |ids: &[u64]| -> Vec<Json> { ids.iter().map(|&i| Json::Int(i as i128)).collect() };
        assert_eq!(ids_of(&own, "history_ids"), as_json(&completion));
        completion.sort_unstable();
        assert_eq!(
            ids_of(&merged, "history_ids"),
            as_json(&completion),
            "history re-sorted by id"
        );
        // Each y follows its id through the re-sort.
        let pairs = |j: &Json| -> Vec<(String, String)> {
            let ids = ids_of(j, "history_ids").into_iter().map(|v| v.to_string());
            let ys = ids_of(j, "history_y").into_iter().map(|v| v.to_string());
            let mut p: Vec<(String, String)> = ids.zip(ys).collect();
            p.sort();
            p
        };
        assert_eq!(pairs(&own), pairs(&merged));
        // abs_err_sum (order-sensitive f64) is excluded from the canonical
        // form only.
        assert!(own.get("drift").unwrap().get("abs_err_sum").is_some());
        assert!(merged.get("drift").unwrap().get("abs_err_sum").is_none());
        assert_eq!(
            merged.get("drift").unwrap().get("joined"),
            Some(&Json::Int(3))
        );
    }

    #[test]
    fn mismatched_shard_count_is_refused_on_recovery() {
        let dir = std::env::temp_dir().join(format!(
            "trout-shard-count-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-000")).unwrap();
        std::fs::create_dir_all(dir.join("shard-001")).unwrap();
        // Journal presence is what makes a shard dir "state"; an empty pair
        // of dirs still counts as a layout mismatch for a 1-shard daemon.
        let set = ShardSet::bootstrap(
            1,
            80,
            &ServeConfig {
                refit_every: 0,
                seed: 11,
                ..Default::default()
            },
        );
        let err = set.open_state_dir(&dir, 0, true).unwrap_err();
        assert!(matches!(err, TroutError::Config(_)), "{err}");
        assert!(err.to_string().contains("shard"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
