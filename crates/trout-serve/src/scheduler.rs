//! The SLO scheduler: latency-budget algebra and admission control.
//!
//! The predict micro-batch flushes at the batch cap, at a non-predict line,
//! or when the session's reader drains, so no answer waits on a window its
//! client cannot see. This module supplies the policy around that window
//! (DESIGN §12):
//!
//! * every predict carries a **latency budget** — explicit `deadline_ms`
//!   from a v2 client, or its lane's configured default — against which
//!   the flush counts SLO violations;
//! * when a lane's queued depth already exceeds what its budget can absorb,
//!   the **admission controller** sheds the request with a typed
//!   [`TroutError::Overloaded`](trout_core::TroutError) carrying
//!   `retry_after_ms` — queueing it would be a guaranteed SLO violation.
//!
//! All arithmetic uses a *configured* per-prediction cost estimate
//! (`est_predict_us`), never a measured one: admission decisions must be a
//! pure function of (config, queue depths), so a test driving the scheduler
//! under a [`ManualClock`](trout_std::clock::ManualClock) replays
//! bit-for-bit at any machine speed.

use std::sync::atomic::{AtomicU64, Ordering};

use trout_core::{Deadline, Lane};

/// Tunables for the latency budgets and the admission controller. One instance is
/// shared by every session of a [`ShardSet`](crate::ShardSet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Default latency budget per lane in milliseconds, [`Lane::rank`]
    /// order (urgent / normal / batch). Applied when a predict names no
    /// `deadline_ms`.
    pub default_deadline_ms: [u64; 3],
    /// Configured cost estimate of one prediction, microseconds. Drives
    /// the admission threshold (how much queued work a budget can absorb)
    /// and the `retry_after_ms` a shed carries.
    pub est_predict_us: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            default_deadline_ms: [50, 500, 5000],
            est_predict_us: 150,
        }
    }
}

impl SchedulerConfig {
    /// The effective budget of a request in microseconds: the explicit
    /// deadline when present, the lane default otherwise.
    pub fn budget_us(&self, lane: Lane, explicit: Option<Deadline>) -> u64 {
        match explicit {
            Some(d) => d.as_micros(),
            None => self.default_deadline_ms[lane.rank()].saturating_mul(1_000),
        }
    }

    /// How many *already queued* predictions a budget can wait behind and
    /// still finish inside the budget: `budget/est - 1` (one slot is the
    /// request itself). Saturates at zero for budgets below one estimate.
    pub fn max_queue_ahead(&self, budget_us: u64) -> u64 {
        let est = self.est_predict_us.max(1);
        (budget_us / est).saturating_sub(1)
    }
}

/// Shared per-lane queue-depth accounting and the shed decision.
///
/// Depths are global across sessions and shards of one
/// [`ShardSet`](crate::ShardSet) — the budget a request competes for is the
/// whole daemon's capacity, not one connection's. A request is counted from
/// admission until its flush completes.
///
/// The **budget algebra** is lane-aware: a lane only waits behind work of
/// equal or higher priority, because flush order is (lane rank, arrival).
/// So urgent admission counts only urgent depth; normal counts urgent +
/// normal; batch counts everything.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    depths: [AtomicU64; 3],
}

impl AdmissionControl {
    /// An empty controller.
    pub fn new() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// Queued work a new request in `lane` would wait behind: the summed
    /// depth of every lane of equal or higher priority.
    pub fn work_ahead(&self, lane: Lane) -> u64 {
        self.depths[..=lane.rank()]
            .iter()
            .map(|d| d.load(Ordering::SeqCst))
            .sum()
    }

    /// Current queued depth of one lane.
    pub fn depth(&self, lane: Lane) -> u64 {
        self.depths[lane.rank()].load(Ordering::SeqCst)
    }

    /// Admits or sheds one request. On admit, the lane's depth is
    /// incremented and the caller owes exactly one [`release`] after the
    /// flush. On shed, returns the suggested client back-off: the time for
    /// the excess queued work to drain at the configured cost estimate
    /// (minimum 1 ms so a client never spins on `retry_after_ms: 0`).
    ///
    /// [`release`]: AdmissionControl::release
    pub fn try_admit(&self, cfg: &SchedulerConfig, lane: Lane, budget_us: u64) -> Result<(), u64> {
        let ahead = self.work_ahead(lane);
        let max_ahead = cfg.max_queue_ahead(budget_us);
        if ahead > max_ahead {
            let excess = ahead - max_ahead;
            let retry_after_ms = (excess.saturating_mul(cfg.est_predict_us) / 1_000).max(1);
            return Err(retry_after_ms);
        }
        self.depths[lane.rank()].fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Returns one admitted request's slot after its flush completed.
    pub fn release(&self, lane: Lane) {
        let prev = self.depths[lane.rank()].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "release without matching admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_default_per_lane_and_honor_explicit_deadlines() {
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.budget_us(Lane::Urgent, None), 50_000);
        assert_eq!(cfg.budget_us(Lane::Normal, None), 500_000);
        assert_eq!(cfg.budget_us(Lane::Batch, None), 5_000_000);
        assert_eq!(
            cfg.budget_us(Lane::Batch, Some(Deadline::ms(20))),
            20_000,
            "explicit deadline wins over the lane default"
        );
    }

    #[test]
    fn max_queue_ahead_reserves_a_slot_for_the_request_itself() {
        let cfg = SchedulerConfig {
            default_deadline_ms: [50, 500, 5000],
            est_predict_us: 100,
        };
        assert_eq!(cfg.max_queue_ahead(1_000), 9);
        assert_eq!(cfg.max_queue_ahead(100), 0);
        assert_eq!(cfg.max_queue_ahead(99), 0, "saturates, never underflows");
    }

    #[test]
    fn admission_is_lane_aware() {
        let cfg = SchedulerConfig {
            default_deadline_ms: [50, 500, 5000],
            est_predict_us: 100_000, // 0.1 s per predict: tiny caps
        };
        let ac = AdmissionControl::new();
        // Normal budget 0.5 s => absorbs 4 queued ahead. Fill it.
        let normal_budget = cfg.budget_us(Lane::Normal, None);
        for _ in 0..5 {
            ac.try_admit(&cfg, Lane::Normal, normal_budget).unwrap();
        }
        let retry = ac.try_admit(&cfg, Lane::Normal, normal_budget).unwrap_err();
        assert!(retry >= 1, "shed carries a positive retry hint");
        // Urgent ignores normal depth: only urgent work is ahead of it.
        assert_eq!(ac.work_ahead(Lane::Urgent), 0);
        ac.try_admit(&cfg, Lane::Urgent, 10_000_000).unwrap();
        // Batch waits behind everything admitted so far.
        assert_eq!(ac.work_ahead(Lane::Batch), 6);
        // Released slots reopen admission.
        for _ in 0..5 {
            ac.release(Lane::Normal);
        }
        ac.try_admit(&cfg, Lane::Normal, normal_budget).unwrap();
        assert_eq!(ac.depth(Lane::Normal), 1);
    }

    #[test]
    fn retry_hint_scales_with_excess_depth() {
        let cfg = SchedulerConfig {
            default_deadline_ms: [50, 500, 5000],
            est_predict_us: 1_000, // 1 ms each
        };
        let ac = AdmissionControl::new();
        for _ in 0..30 {
            ac.try_admit(&cfg, Lane::Urgent, 1_000_000).unwrap();
        }
        // Budget 10 ms absorbs 9 ahead; 30 queued => 21 excess => 21 ms.
        let retry = ac.try_admit(&cfg, Lane::Urgent, 10_000).unwrap_err();
        assert_eq!(retry, 21);
    }
}
