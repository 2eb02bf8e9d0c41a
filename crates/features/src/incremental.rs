//! Incrementally maintained queue snapshots for online serving.
//!
//! [`SnapshotIndex`](crate::SnapshotIndex) answers "what did the queue look
//! like at instant `t`?" by building interval trees over a *complete* trace —
//! every job's start and end already known. A live prediction daemon has
//! neither: jobs arrive one `submit`/`start`/`end` event at a time and a
//! pending job's start is exactly the unknown being predicted. This module
//! maintains every [`QueueSnapshot`] aggregate as a **running sum**: each
//! lifecycle event applies one O(log n) delta to a set of canonical-by-set
//! aggregate treaps ([`crate::aggtree`]), and a snapshot probed at the live
//! frontier is an O(1), allocation-free read:
//!
//! * `queue`  — root aggregate of the partition's eligible-pending treap;
//! * `ahead`  — one iterative suffix descent over keys `(priority, id)`
//!   strictly above the probe's priority (O(log n), allocation-free);
//! * `running` — root aggregate of the partition's running treap;
//! * `user_past_day` — root aggregate of the user's window treap, lazily
//!   expired by popping entries older than the trailing 24 h;
//! * the probe's `exclude_id` is corrected by subtracting that single job's
//!   aggregate (exact for the integer-valued fields).
//!
//! Probes at times **behind** the event or probe frontier fall back to
//! [`snapshot_scan`](IncrementalSnapshot::snapshot_scan), an O(n) scan with
//! the pre-fast-path semantics. The frontier split matters for durability:
//! `event_time` (the max event timestamp) is event-derived, identical across
//! broadcast shards, and serialized; the probe frontier is transient and
//! never serialized, because predicts route to a single shard and must not
//! perturb merged-state equality (see DESIGN.md §13).
//!
//! Correctness contract: after applying every event with timestamp `≤ t`, a
//! [`snapshot`](IncrementalSnapshot::snapshot) probed at `t` returns
//! [`Aggregate`]s equal to
//! [`SnapshotIndex::snapshot_naive`](crate::SnapshotIndex::snapshot_naive)
//! over the equivalent trace — **exactly** for `jobs`/`cpus`/`mem_gb`/
//! `nodes`/`timelimit_min` (integer-valued f64 sums below 2^53 are exact
//! under any association), and within a documented relative tolerance for
//! `pred_runtime_min`, whose tree-order summation legitimately reassociates
//! the oracle's id-order sum. [`aggregate_drift`]
//! (IncrementalSnapshot::aggregate_drift) measures that reassociation gap
//! against an id-order rescan, mirroring the shard-merge `merged_drift`
//! diagnostic. The replay test in `tests/incremental_replay.rs` enforces the
//! contract at every stab point of a multi-thousand-job trace.

use std::collections::HashMap;
use std::fmt;

use trout_slurmsim::JobRecord;
use trout_std::json::{write_json_array, FromJson, Json, JsonError, ToJson};

use crate::aggtree::{AggTreap, Key};
use crate::snapshot::{Aggregate, QueueSnapshot};

/// Sentinel for "this interval has not closed yet".
const OPEN: i64 = i64::MAX;

/// Trailing user-history window, seconds (the paper's 24 h).
pub const USER_WINDOW_S: i64 = 86_400;

/// Where a tracked job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted, waiting (or not yet eligible).
    Pending,
    /// Started, still running.
    Running,
    /// Ended — completed, timed out, or cancelled while pending.
    Done,
}

/// A job the incremental index knows about.
#[derive(Debug, Clone)]
pub struct TrackedJob {
    /// The job's record. `start_time`/`end_time` are updated as the
    /// corresponding events arrive and are meaningless before that.
    pub rec: JobRecord,
    /// Runtime-model estimate (minutes) frozen at submission.
    pub pred_runtime_min: f64,
    /// Current lifecycle phase.
    pub phase: JobPhase,
}

trout_std::impl_json_enum!(JobPhase {
    Pending,
    Running,
    Done
});

trout_std::impl_json_struct!(TrackedJob {
    rec,
    pred_runtime_min,
    phase
});

/// An event the index refused to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// `start`/`end` referenced an id never submitted (or already evicted).
    UnknownJob(u64),
    /// `submit` reused a live id.
    DuplicateJob(u64),
    /// `submit` named a partition outside the cluster.
    UnknownPartition(u32),
    /// The event is illegal in the job's current phase (e.g. `start` on a
    /// running job).
    BadPhase {
        /// Offending job.
        id: u64,
        /// Phase the job is actually in.
        phase: JobPhase,
    },
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            EventError::DuplicateJob(id) => write!(f, "job id {id} already exists"),
            EventError::UnknownPartition(p) => write!(f, "unknown partition index {p}"),
            EventError::BadPhase { id, phase } => {
                write!(f, "event illegal for job {id} in phase {phase:?}")
            }
        }
    }
}

impl std::error::Error for EventError {}

/// The observer of a snapshot query: "what does the queue look like from
/// this job's point of view at `time`?".
#[derive(Debug, Clone, Copy)]
pub struct SnapshotProbe {
    /// Query instant (must be ≥ every applied event's timestamp for the O(1)
    /// fast path; older probes are answered by the scan fallback).
    pub time: i64,
    /// Observer's partition index.
    pub partition: u32,
    /// Observer's user (for the trailing-24 h history).
    pub user: u32,
    /// Observer's priority (splits `queue` into the `ahead` subset).
    pub priority: f64,
    /// Job id to exclude from `queue` and `user_past_day` — the observer
    /// itself when it has been submitted; `None` for hypothetical jobs.
    pub exclude_id: Option<u64>,
}

/// Live, event-driven replacement for [`crate::SnapshotIndex`].
pub struct IncrementalSnapshot {
    /// Every known job by id.
    jobs: HashMap<u64, TrackedJob>,
    /// Per user: `(submit_time, id)` in submission order.
    user_history: HashMap<u32, Vec<(i64, u64)>>,
    /// Events applied so far.
    applied: u64,
    /// Per partition: eligible pending jobs, keyed `(priority, id)`.
    eligible: Vec<AggTreap>,
    /// Per partition: running jobs, keyed `(0.0, id)`.
    running: Vec<AggTreap>,
    /// Per partition: pending jobs not yet eligible, ascending
    /// `(eligible_time, id)`; drained into `eligible` as probes advance.
    deferred: Vec<Vec<(i64, u64)>>,
    /// Per user: trailing-window submissions, keyed `(submit_time, id)`,
    /// lazily expired against the probe frontier.
    user_window: HashMap<u32, AggTreap>,
    /// Max event timestamp applied — the serialized frontier.
    event_time: i64,
    /// Max probe time served by the fast path — transient, never serialized.
    probe_time: i64,
    /// Deferred entries have been activated up to here — transient.
    activated_to: i64,
    /// Snapshots answered by the O(n) scan fallback (diagnostic).
    scan_snapshots: u64,
}

impl IncrementalSnapshot {
    /// Creates an empty index over `n_partitions` partitions.
    pub fn new(n_partitions: usize) -> IncrementalSnapshot {
        IncrementalSnapshot {
            jobs: HashMap::new(),
            user_history: HashMap::new(),
            applied: 0,
            eligible: (0..n_partitions).map(|_| AggTreap::new()).collect(),
            running: (0..n_partitions).map(|_| AggTreap::new()).collect(),
            deferred: vec![Vec::new(); n_partitions],
            user_window: HashMap::new(),
            event_time: i64::MIN,
            probe_time: i64::MIN,
            activated_to: i64::MIN,
            scan_snapshots: 0,
        }
    }

    /// Number of events applied since construction.
    pub fn events_applied(&self) -> u64 {
        self.applied
    }

    /// Snapshots that could not use the O(1) fast path (probe behind the
    /// event or probe frontier) and fell back to the O(n) scan.
    pub fn scan_snapshots(&self) -> u64 {
        self.scan_snapshots
    }

    /// Jobs currently pending in partition `p` (eligible or deferred).
    pub fn pending_len(&self, p: usize) -> usize {
        self.eligible.get(p).map_or(0, AggTreap::len) + self.deferred.get(p).map_or(0, Vec::len)
    }

    /// Looks up a tracked job.
    pub fn job(&self, id: u64) -> Option<&TrackedJob> {
        self.jobs.get(&id)
    }

    /// Applies a `submit` event: the job enters the user's history now and
    /// the partition's pending set from its eligibility instant onward.
    /// `rec.start_time`/`rec.end_time` are ignored (they are unknown live).
    pub fn submit(&mut self, mut rec: JobRecord, pred_runtime_min: f64) -> Result<(), EventError> {
        let p = rec.partition as usize;
        if p >= self.eligible.len() {
            return Err(EventError::UnknownPartition(rec.partition));
        }
        if self.jobs.contains_key(&rec.id) {
            return Err(EventError::DuplicateJob(rec.id));
        }
        rec.start_time = OPEN;
        rec.end_time = OPEN;
        let one = Aggregate::of(&rec, pred_runtime_min);
        if rec.eligible_time <= self.activated_to {
            self.eligible[p].insert(Key::new(rec.priority, rec.id), one);
        } else {
            let entry = (rec.eligible_time, rec.id);
            let at = self.deferred[p].partition_point(|&e| e < entry);
            self.deferred[p].insert(at, entry);
        }
        self.user_window
            .entry(rec.user)
            .or_default()
            .insert(Key::new(rec.submit_time as f64, rec.id), one);
        // Sorted insert by (submit_time, id): broadcast replicas may apply
        // concurrent submits in different interleavings, and a push-ordered
        // history would leak that arrival order into serialized state. The
        // canonical order also matches the oracle's id-order accumulation.
        let history = self.user_history.entry(rec.user).or_default();
        let hentry = (rec.submit_time, rec.id);
        let at = history.partition_point(|&e| e < hentry);
        history.insert(at, hentry);
        self.event_time = self.event_time.max(rec.submit_time);
        self.jobs.insert(
            rec.id,
            TrackedJob {
                rec,
                pred_runtime_min,
                phase: JobPhase::Pending,
            },
        );
        self.applied += 1;
        Ok(())
    }

    /// Applies a `start` event: pending → running at `time`.
    pub fn start(&mut self, id: u64, time: i64) -> Result<(), EventError> {
        let job = self.jobs.get_mut(&id).ok_or(EventError::UnknownJob(id))?;
        if job.phase != JobPhase::Pending {
            return Err(EventError::BadPhase {
                id,
                phase: job.phase,
            });
        }
        let p = job.rec.partition as usize;
        job.rec.start_time = time;
        job.phase = JobPhase::Running;
        let one = Aggregate::of(&job.rec, job.pred_runtime_min);
        let key = Key::new(job.rec.priority, id);
        let eligible = job.rec.eligible_time;
        if !self.eligible[p].remove(&key) {
            Self::remove_deferred(&mut self.deferred[p], eligible, id);
        }
        self.running[p].insert(Key::new(0.0, id), one);
        self.event_time = self.event_time.max(time);
        self.applied += 1;
        Ok(())
    }

    /// Applies an `end` event: running → done, or pending → done for a job
    /// cancelled before it ever started.
    pub fn end(&mut self, id: u64, time: i64) -> Result<(), EventError> {
        let job = self.jobs.get_mut(&id).ok_or(EventError::UnknownJob(id))?;
        let p = job.rec.partition as usize;
        match job.phase {
            JobPhase::Running => {
                job.rec.end_time = time;
                job.phase = JobPhase::Done;
                let removed = self.running[p].remove(&Key::new(0.0, id));
                debug_assert!(removed, "running entry for job {id} missing");
            }
            JobPhase::Pending => {
                // Cancelled while waiting: it leaves the queue now and never
                // ran, mirroring JobState::Cancelled records where start and
                // end both hold the cancellation instant.
                job.rec.start_time = time;
                job.rec.end_time = time;
                job.phase = JobPhase::Done;
                let key = Key::new(job.rec.priority, id);
                let eligible = job.rec.eligible_time;
                if !self.eligible[p].remove(&key) {
                    Self::remove_deferred(&mut self.deferred[p], eligible, id);
                }
            }
            JobPhase::Done => {
                return Err(EventError::BadPhase {
                    id,
                    phase: job.phase,
                })
            }
        }
        self.event_time = self.event_time.max(time);
        self.applied += 1;
        Ok(())
    }

    fn remove_deferred(deferred: &mut Vec<(i64, u64)>, eligible: i64, id: u64) {
        let entry = (eligible, id);
        let at = deferred.partition_point(|&e| e < entry);
        debug_assert!(
            deferred.get(at) == Some(&entry),
            "deferred entry for job {id} missing"
        );
        if deferred.get(at) == Some(&entry) {
            deferred.remove(at);
        }
    }

    /// Activates deferred jobs whose eligibility instant has been reached.
    fn advance_to(&mut self, t: i64) {
        if t <= self.activated_to {
            return;
        }
        for p in 0..self.deferred.len() {
            while self.deferred[p].first().is_some_and(|&(e, _)| e <= t) {
                let (_, id) = self.deferred[p].remove(0);
                let job = &self.jobs[&id];
                let one = Aggregate::of(&job.rec, job.pred_runtime_min);
                self.eligible[p].insert(Key::new(job.rec.priority, id), one);
            }
        }
        self.activated_to = t;
    }

    /// Expires window entries older than `t - 24 h` for one user.
    fn expire_user(&mut self, user: u32, t: i64) {
        if let Some(w) = self.user_window.get_mut(&user) {
            let cutoff = (t - USER_WINDOW_S) as f64;
            while w.min_key().is_some_and(|k| k.major < cutoff) {
                w.pop_min();
            }
        }
    }

    /// The queue state the probe's job observes. Requires every event with
    /// timestamp ≤ `probe.time` to have been applied (and none beyond it
    /// that would change pending membership at `probe.time`).
    ///
    /// At the live frontier (`probe.time` ≥ every applied event and every
    /// earlier probe) this is an O(1), allocation-free read of the running
    /// aggregates; probes behind either frontier are answered by
    /// [`snapshot_scan`](Self::snapshot_scan).
    pub fn snapshot(&mut self, probe: &SnapshotProbe) -> QueueSnapshot {
        let _span = trout_obs::span!("features.snapshot");
        let p = probe.partition as usize;
        let t = probe.time;
        if p >= self.eligible.len() {
            return QueueSnapshot::default();
        }
        if t < self.event_time || t < self.probe_time {
            self.scan_snapshots += 1;
            return self.snapshot_scan(probe);
        }
        self.probe_time = t;
        self.advance_to(t);
        self.expire_user(probe.user, t);

        let mut snap = QueueSnapshot {
            queue: self.eligible[p].root_agg(),
            ahead: Aggregate::default(),
            running: self.running[p].root_agg(),
            user_past_day: self
                .user_window
                .get(&probe.user)
                .map_or_else(Aggregate::default, AggTreap::root_agg),
        };
        self.eligible[p].sum_gt(&Key::new(probe.priority, u64::MAX), &mut snap.ahead);

        if let Some(id) = probe.exclude_id {
            if let Some(job) = self.jobs.get(&id) {
                let one = Aggregate::of(&job.rec, job.pred_runtime_min);
                if job.phase == JobPhase::Pending
                    && job.rec.partition == probe.partition
                    && job.rec.eligible_time <= t
                {
                    snap.queue.unmerge(&one);
                    if job.rec.priority > probe.priority {
                        snap.ahead.unmerge(&one);
                    }
                }
                if job.rec.user == probe.user
                    && job.rec.submit_time >= t - USER_WINDOW_S
                    && job.rec.submit_time <= t
                {
                    snap.user_past_day.unmerge(&one);
                }
            }
        }
        snap
    }

    /// The O(n) fallback: scans every tracked job in ascending id order (the
    /// oracle's record order, so f64 sums agree bit for bit with
    /// `snapshot_naive`). Serves probes behind the fast path's frontier.
    pub fn snapshot_scan(&self, probe: &SnapshotProbe) -> QueueSnapshot {
        let _span = trout_obs::span!("features.snapshot_scan");
        let mut snap = QueueSnapshot::default();
        let t = probe.time;
        let mut ids: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.rec.partition == probe.partition && j.phase != JobPhase::Done)
            .map(|j| j.rec.id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let job = &self.jobs[&id];
            match job.phase {
                JobPhase::Pending => {
                    if job.rec.eligible_time <= t && probe.exclude_id != Some(id) {
                        snap.queue.add(&job.rec, job.pred_runtime_min);
                        if job.rec.priority > probe.priority {
                            snap.ahead.add(&job.rec, job.pred_runtime_min);
                        }
                    }
                }
                JobPhase::Running => {
                    if job.rec.start_time <= t {
                        snap.running.add(&job.rec, job.pred_runtime_min);
                    }
                }
                JobPhase::Done => unreachable!("filtered above"),
            }
        }
        if let Some(history) = self.user_history.get(&probe.user) {
            let lo = t - USER_WINDOW_S;
            let from = history.partition_point(|&(s, _)| s < lo);
            for &(submit, id) in &history[from..] {
                if submit > t {
                    break;
                }
                if probe.exclude_id == Some(id) {
                    continue;
                }
                let job = &self.jobs[&id];
                snap.user_past_day.add(&job.rec, job.pred_runtime_min);
            }
        }
        snap
    }

    /// Measures the f64 reassociation gap between the maintained treap
    /// aggregates and an id-order rescan: the max relative difference of
    /// `pred_runtime_min` (the one genuinely reassociated field) across every
    /// partition's eligible/running sums. The integer-valued fields are
    /// asserted exactly equal — any mismatch there is a real bug, not drift.
    pub fn aggregate_drift(&self) -> f64 {
        let mut worst = 0.0f64;
        for p in 0..self.eligible.len() {
            let mut eligible = Aggregate::default();
            let mut running = Aggregate::default();
            let mut ids: Vec<u64> = self
                .jobs
                .values()
                .filter(|j| j.rec.partition as usize == p && j.phase != JobPhase::Done)
                .map(|j| j.rec.id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                let job = &self.jobs[&id];
                match job.phase {
                    JobPhase::Pending => {
                        if job.rec.eligible_time <= self.activated_to {
                            eligible.add(&job.rec, job.pred_runtime_min);
                        }
                    }
                    JobPhase::Running => running.add(&job.rec, job.pred_runtime_min),
                    JobPhase::Done => {}
                }
            }
            for (got, want) in [
                (self.eligible[p].root_agg(), eligible),
                (self.running[p].root_agg(), running),
            ] {
                assert_eq!(got.jobs, want.jobs, "partition {p} jobs count drifted");
                assert_eq!(got.cpus, want.cpus, "partition {p} cpus drifted");
                assert_eq!(got.nodes, want.nodes, "partition {p} nodes drifted");
                let denom = want.pred_runtime_min.abs().max(1.0);
                worst = worst.max((got.pred_runtime_min - want.pred_runtime_min).abs() / denom);
            }
        }
        worst
    }

    /// Drops finished jobs that can no longer influence any future snapshot
    /// (done, and submitted more than 24 h before `now`). Returns the ids
    /// evicted so callers can drop their own per-job state. Callers must not
    /// probe at times earlier than `now` afterward.
    pub fn evict_finished_before(&mut self, now: i64) -> Vec<u64> {
        let _span = trout_obs::span!("features.evict");
        let cutoff = now - USER_WINDOW_S;
        let mut evicted = Vec::new();
        for (&user, history) in self.user_history.iter_mut() {
            let keep_from = history.partition_point(|&(s, _)| s < cutoff);
            if keep_from == 0 {
                continue;
            }
            if let Some(w) = self.user_window.get_mut(&user) {
                for &(submit, id) in &history[..keep_from] {
                    // May already be gone via lazy expiry — idempotent.
                    w.remove(&Key::new(submit as f64, id));
                }
            }
            for &(_, id) in &history[..keep_from] {
                if self
                    .jobs
                    .get(&id)
                    .is_some_and(|j| j.phase == JobPhase::Done)
                {
                    self.jobs.remove(&id);
                    evicted.push(id);
                }
            }
            history.drain(..keep_from);
        }
        self.user_history.retain(|_, h| !h.is_empty());
        let live = &self.user_history;
        self.user_window.retain(|u, _| live.contains_key(u));
        evicted
    }

    /// Writes the index's full state for a durability snapshot, one job at
    /// a time. Jobs are emitted in ascending id order and user histories in
    /// ascending user order, so identical states produce identical bytes
    /// regardless of `HashMap` iteration order. The aggregate treaps are
    /// *not* serialized: their shape and sums are pure functions of the
    /// tracked-job set (see [`crate::aggtree`]), which is how
    /// [`from_state_json`](IncrementalSnapshot::from_state_json) rebuilds
    /// them bit-identically. `event_time` is serialized (it is event-derived
    /// and identical across broadcast shards); the probe frontier is not —
    /// predicts route to a single shard, and re-expiry/re-activation on the
    /// first probe after recovery makes the difference unobservable.
    pub fn write_state<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut jobs: Vec<&TrackedJob> = self.jobs.values().collect();
        jobs.sort_by_key(|j| j.rec.id);
        let mut users: Vec<(&u32, &Vec<(i64, u64)>)> = self.user_history.iter().collect();
        users.sort_by_key(|(u, _)| **u);
        write!(
            out,
            "{{\"n_partitions\":{},\"applied\":{},\"event_time\":{},\"jobs\":",
            self.eligible.len(),
            self.applied,
            self.event_time
        )?;
        write_json_array(jobs, out)?;
        out.write_str(",\"user_history\":[")?;
        for (i, (user, history)) in users.into_iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(out, "[{user},")?;
            history.write_json(out)?;
            out.write_char(']')?;
        }
        out.write_str("]}")
    }

    /// [`write_state`](Self::write_state) into a new `String`.
    pub fn state_text(&self) -> String {
        let mut text = String::new();
        self.write_state(&mut text)
            .expect("writing to a String cannot fail");
        text
    }

    /// Reconstructs an index from the parsed
    /// [`write_state`](Self::write_state) text. The aggregate treaps are rebuilt from each job's phase;
    /// because treap shape and sums are order-independent functions of the
    /// member set, snapshots probed afterward are bit-identical to the index
    /// that was serialized.
    pub fn from_state_json(j: &Json) -> Result<IncrementalSnapshot, JsonError> {
        let n = usize::from_json_field(j.get("n_partitions"), "state.n_partitions")?;
        let applied = u64::from_json_field(j.get("applied"), "state.applied")?;
        let event_time = i64::from_json_field(j.get("event_time"), "state.event_time")?;
        let jobs = Vec::<TrackedJob>::from_json_field(j.get("jobs"), "state.jobs")?;
        let mut idx = IncrementalSnapshot::new(n);
        idx.applied = applied;
        idx.event_time = event_time;
        idx.activated_to = event_time;
        for job in jobs {
            let p = job.rec.partition as usize;
            if p >= n {
                return Err(JsonError::new(format!(
                    "job {} names partition {p} outside 0..{n}",
                    job.rec.id
                )));
            }
            let one = Aggregate::of(&job.rec, job.pred_runtime_min);
            match job.phase {
                JobPhase::Pending => {
                    if job.rec.eligible_time <= event_time {
                        idx.eligible[p].insert(Key::new(job.rec.priority, job.rec.id), one);
                    } else {
                        let entry = (job.rec.eligible_time, job.rec.id);
                        let at = idx.deferred[p].partition_point(|&e| e < entry);
                        idx.deferred[p].insert(at, entry);
                    }
                }
                JobPhase::Running => {
                    idx.running[p].insert(Key::new(0.0, job.rec.id), one);
                }
                JobPhase::Done => {}
            }
            idx.jobs.insert(job.rec.id, job);
        }
        for entry in j
            .get("user_history")
            .ok_or_else(|| JsonError::new("missing field state.user_history"))?
            .expect_arr("state.user_history")?
        {
            let pair = entry.expect_arr("state.user_history entry")?;
            if pair.len() != 2 {
                return Err(JsonError::new("user_history entry is not a pair"));
            }
            let user = u32::from_json(&pair[0])?;
            let history = Vec::<(i64, u64)>::from_json(&pair[1])?;
            let window = idx.user_window.entry(user).or_default();
            for &(submit, id) in &history {
                let job = idx.jobs.get(&id).ok_or_else(|| {
                    JsonError::new(format!("user_history references unknown job {id}"))
                })?;
                window.insert(
                    Key::new(submit as f64, id),
                    Aggregate::of(&job.rec, job.pred_runtime_min),
                );
            }
            idx.user_history.insert(user, history);
        }
        Ok(idx)
    }
}

/// One step of an offline trace replay, indexing into `trace.records`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// The record is submitted (at its `submit_time`).
    Submit(usize),
    /// The record starts running (at its `start_time`).
    Start(usize),
    /// The record ends — or is cancelled while pending (at its `end_time`).
    End(usize),
}

impl ReplayEvent {
    fn rank(self) -> u8 {
        match self {
            ReplayEvent::Submit(_) => 0,
            ReplayEvent::Start(_) => 1,
            ReplayEvent::End(_) => 2,
        }
    }

    fn idx(self) -> usize {
        match self {
            ReplayEvent::Submit(i) | ReplayEvent::Start(i) | ReplayEvent::End(i) => i,
        }
    }
}

/// Flattens a complete trace into the time-ordered event stream a live
/// daemon would have seen — the bridge between the offline oracle and the
/// incremental index (and the source for `trout events` replay scripts).
/// Cancelled records emit no `Start` (they never ran); their `End` fires at
/// the cancellation instant and removes them from the pending set.
pub fn trace_events(trace: &trout_slurmsim::Trace) -> Vec<(i64, ReplayEvent)> {
    let mut events: Vec<(i64, ReplayEvent)> = Vec::with_capacity(trace.records.len() * 3);
    for (i, r) in trace.records.iter().enumerate() {
        events.push((r.submit_time, ReplayEvent::Submit(i)));
        if r.state == trout_slurmsim::JobState::Cancelled {
            events.push((r.end_time, ReplayEvent::End(i)));
        } else {
            events.push((r.start_time, ReplayEvent::Start(i)));
            events.push((r.end_time, ReplayEvent::End(i)));
        }
    }
    events.sort_by_key(|&(t, e)| (t, e.rank(), e.idx()));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_slurmsim::JobState;
    use trout_workload::Qos;

    fn rec(id: u64, user: u32, part: u32, submit: i64, eligible: i64, prio: f64) -> JobRecord {
        JobRecord {
            id,
            user,
            partition: part,
            submit_time: submit,
            eligible_time: eligible,
            start_time: 0,
            end_time: 0,
            req_cpus: 4,
            req_mem_gb: 8,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: 60,
            qos: Qos::Normal,
            campaign: 0,
            priority: prio,
            state: JobState::Completed,
        }
    }

    fn probe(time: i64, part: u32) -> SnapshotProbe {
        SnapshotProbe {
            time,
            partition: part,
            user: 99,
            priority: 0.0,
            exclude_id: None,
        }
    }

    #[test]
    fn lifecycle_moves_jobs_between_sets() {
        let mut idx = IncrementalSnapshot::new(2);
        idx.submit(rec(1, 0, 0, 100, 100, 5.0), 60.0).unwrap();
        idx.submit(rec(2, 0, 0, 110, 110, 9.0), 30.0).unwrap();
        assert_eq!(idx.snapshot(&probe(120, 0)).queue.jobs, 2.0);
        // Higher-priority subset from a low-priority observer's view.
        let s = idx.snapshot(&SnapshotProbe {
            priority: 6.0,
            ..probe(120, 0)
        });
        assert_eq!(s.ahead.jobs, 1.0);

        idx.start(1, 130).unwrap();
        let s = idx.snapshot(&probe(130, 0));
        assert_eq!(s.queue.jobs, 1.0);
        assert_eq!(s.running.jobs, 1.0);
        assert_eq!(s.running.pred_runtime_min, 60.0);

        idx.end(1, 200).unwrap();
        assert_eq!(idx.snapshot(&probe(200, 0)).running.jobs, 0.0);
    }

    #[test]
    fn not_yet_eligible_jobs_are_invisible() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(1, 3, 0, 100, 500, 1.0), 10.0).unwrap();
        // Visible to the user window immediately, to the queue only at 500.
        let s = idx.snapshot(&SnapshotProbe {
            user: 3,
            ..probe(200, 0)
        });
        assert_eq!(s.queue.jobs, 0.0);
        assert_eq!(s.user_past_day.jobs, 1.0);
        assert_eq!(idx.snapshot(&probe(500, 0)).queue.jobs, 1.0);
    }

    #[test]
    fn cancellation_removes_pending_without_running() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(7, 0, 0, 0, 0, 1.0), 5.0).unwrap();
        idx.end(7, 50).unwrap(); // cancel while pending
        let s = idx.snapshot(&probe(60, 0));
        assert_eq!(s.queue.jobs, 0.0);
        assert_eq!(s.running.jobs, 0.0);
        assert_eq!(idx.job(7).unwrap().phase, JobPhase::Done);
    }

    #[test]
    fn deferred_job_cancelled_before_eligibility_never_surfaces() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(1, 0, 0, 100, 900, 1.0), 5.0).unwrap();
        assert_eq!(idx.pending_len(0), 1);
        idx.end(1, 200).unwrap(); // cancelled while still deferred
        assert_eq!(idx.pending_len(0), 0);
        assert_eq!(idx.snapshot(&probe(1_000, 0)).queue.jobs, 0.0);
    }

    #[test]
    fn events_are_validated() {
        let mut idx = IncrementalSnapshot::new(1);
        assert_eq!(idx.start(9, 10), Err(EventError::UnknownJob(9)));
        idx.submit(rec(1, 0, 0, 0, 0, 1.0), 5.0).unwrap();
        assert_eq!(
            idx.submit(rec(1, 0, 0, 5, 5, 1.0), 5.0),
            Err(EventError::DuplicateJob(1))
        );
        assert_eq!(
            idx.submit(rec(2, 0, 9, 5, 5, 1.0), 5.0),
            Err(EventError::UnknownPartition(9))
        );
        idx.start(1, 10).unwrap();
        assert_eq!(
            idx.start(1, 11),
            Err(EventError::BadPhase {
                id: 1,
                phase: JobPhase::Running
            })
        );
    }

    #[test]
    fn observer_exclusion() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(1, 4, 0, 100, 100, 1.0), 5.0).unwrap();
        idx.submit(rec(2, 4, 0, 110, 110, 2.0), 5.0).unwrap();
        let s = idx.snapshot(&SnapshotProbe {
            user: 4,
            exclude_id: Some(2),
            ..probe(120, 0)
        });
        assert_eq!(s.queue.jobs, 1.0);
        assert_eq!(s.user_past_day.jobs, 1.0);
    }

    #[test]
    fn eviction_drops_only_stale_done_jobs() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(1, 0, 0, 0, 0, 1.0), 5.0).unwrap();
        idx.start(1, 10).unwrap();
        idx.end(1, 20).unwrap();
        idx.submit(rec(2, 0, 0, 5, 5, 1.0), 5.0).unwrap(); // still pending
        assert_eq!(idx.evict_finished_before(86_500), vec![1]);
        assert!(idx.job(1).is_none());
        assert!(idx.job(2).is_some(), "live jobs survive eviction");
        assert_eq!(idx.snapshot(&probe(86_500, 0)).queue.jobs, 1.0);
    }

    #[test]
    fn probes_behind_the_frontier_fall_back_to_the_scan() {
        let mut idx = IncrementalSnapshot::new(1);
        idx.submit(rec(1, 0, 0, 100, 100, 1.0), 5.0).unwrap();
        idx.start(1, 150).unwrap();
        idx.submit(rec(2, 0, 0, 160, 160, 1.0), 5.0).unwrap();
        assert_eq!(idx.scan_snapshots(), 0);
        // A probe behind the newest event: answered, via the scan.
        let s = idx.snapshot(&probe(120, 0));
        assert_eq!(idx.scan_snapshots(), 1);
        // Phase-based membership: job 1 already started, so it is in the
        // running set even though 120 < its start.
        assert_eq!(s.queue.jobs, 0.0);
        assert_eq!(s.running.jobs, 0.0, "started after 120");
        // At the frontier the fast path serves it.
        let s = idx.snapshot(&probe(200, 0));
        assert_eq!(idx.scan_snapshots(), 1);
        assert_eq!(s.queue.jobs, 1.0);
        assert_eq!(s.running.jobs, 1.0);
        // Probing backwards relative to an earlier probe also scans.
        idx.snapshot(&probe(190, 0));
        assert_eq!(idx.scan_snapshots(), 2);
    }

    #[test]
    fn aggregate_drift_is_tiny_and_integer_fields_exact() {
        let mut idx = IncrementalSnapshot::new(2);
        for i in 0..200u64 {
            idx.submit(
                rec(
                    i,
                    (i % 5) as u32,
                    (i % 2) as u32,
                    i as i64,
                    i as i64,
                    0.1 * (i % 9) as f64,
                ),
                i as f64 * 1.37 + 0.1,
            )
            .unwrap();
        }
        for i in 0..100u64 {
            idx.start(i, 300 + i as i64).unwrap();
        }
        idx.snapshot(&probe(500, 0));
        assert!(idx.aggregate_drift() < 1e-12);
    }

    #[test]
    fn state_round_trips_and_snapshots_identically() {
        let mut idx = IncrementalSnapshot::new(2);
        idx.submit(rec(1, 3, 0, 100, 100, 5.0), 60.0).unwrap();
        idx.submit(rec(2, 3, 0, 110, 150, 9.0), 30.0).unwrap();
        idx.submit(rec(3, 4, 1, 120, 120, 1.0), 15.0).unwrap();
        idx.start(1, 130).unwrap();
        idx.end(1, 190).unwrap();
        idx.start(3, 140).unwrap();

        let state = idx.state_text();
        let parsed = Json::parse(&state).unwrap();
        let mut back = IncrementalSnapshot::from_state_json(&parsed).unwrap();
        // Deterministic bytes: identical state serializes identically.
        assert_eq!(state, back.state_text());
        assert_eq!(back.events_applied(), idx.events_applied());

        // Snapshots agree bit-for-bit at several probe times (the rebuilt
        // treaps are canonical-by-set), and future events apply the same way.
        for (t, part) in [(160, 0), (160, 1), (200, 0)] {
            let p = SnapshotProbe {
                user: 3,
                ..probe(t, part)
            };
            let (a, b) = (idx.snapshot(&p), back.snapshot(&p));
            assert_eq!(a, b);
        }
        idx.end(3, 300).unwrap();
        back.end(3, 300).unwrap();
        assert_eq!(
            idx.snapshot(&probe(300, 1)).running.jobs,
            back.snapshot(&probe(300, 1)).running.jobs
        );
    }
}
