//! Pins the simulator bit for bit: a 3,000-job Anvil-like run with pending
//! cancellations and preemption on must reproduce the recorded trace CSV
//! exactly. Any change to event order, queue order, backfill or preemption
//! victim choice, or fair-share arithmetic moves the hash.
//!
//! This binary holds a single test, so the global `sim.*` counters it reads
//! count this run alone.

use trout_slurmsim::{simulate, JobState, SchedulerConfig};
use trout_workload::{ClusterSpec, WorkloadConfig, WorkloadGenerator};

const JOBS: usize = 3_000;
const SEED: u64 = 9;
const GOLDEN_RECORDS: usize = JOBS;
const GOLDEN_FNV1A64: u64 = 0x6958_78ad_b5da_b07a;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn anvil_like_trace_matches_the_golden_hash() {
    let cluster = ClusterSpec::anvil_like();
    let mut wl = WorkloadConfig::anvil_like(JOBS);
    wl.seed = SEED;
    wl.cancel_fraction = 0.05;
    let (population, jobs) = WorkloadGenerator::new(wl, cluster.clone()).generate();
    let config = SchedulerConfig::default();
    assert!(config.enable_preemption, "preemption is on by default");
    let trace = simulate(&cluster, &population, jobs, &config);

    let csv = trace.to_csv();
    assert_eq!(trace.records.len(), GOLDEN_RECORDS);
    assert_eq!(
        fnv1a64(csv.as_bytes()),
        GOLDEN_FNV1A64,
        "trace CSV changed ({} bytes)",
        csv.len()
    );

    let registry = trout_obs::global();
    let preemptions = registry.counter("sim.preemptions_total").get();
    let backfills = registry.counter("sim.backfill_starts_total").get();
    let cancelled = trace
        .records
        .iter()
        .filter(|r| r.state == JobState::Cancelled)
        .count();
    assert!(preemptions > 0, "the run must preempt at least once");
    assert!(backfills > 0, "the run must backfill at least once");
    assert!(
        cancelled > 0,
        "the run must cancel at least one pending job"
    );
}
