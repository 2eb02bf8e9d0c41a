//! Scaling guard for the state writers: the `{"event":"state"}` dump of a
//! 2-shard set and a snapshot write must not allocate per tracked job. A
//! set tracking 8x the jobs may allocate only a few more times, for the
//! growth of the one output buffer.

use std::io::Cursor;
use std::path::PathBuf;

use trout_serve::{replay_script, run_session, ServeConfig, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Extra allocations allowed at 8x the jobs: the dump line doubles its
/// capacity about three more times.
const GROWTH_SLACK: u64 = 8;

/// `(dump allocations, snapshot allocations, tracked jobs)` for a durable
/// 2-shard set stopped part-way through a replay of `jobs` jobs, with
/// every submit predicted.
fn allocations_at(jobs: usize, name: &str) -> (u64, u64, usize) {
    let dir: PathBuf = std::env::temp_dir()
        .join("trout_state_scaling_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = ShardSet::bootstrap(
        2,
        300,
        &ServeConfig {
            refit_every: 0,
            seed: 3,
            ..Default::default()
        },
    );
    shards.open_state_dir(&dir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(jobs).seed(8).run();
    let script = replay_script(&live, 1);
    // Stop part-way, so pending jobs hold cached rows and served
    // predictions as well as index entries.
    let lines: Vec<&str> = script.lines().collect();
    let mut feed = lines[..lines.len() * 3 / 5].join("\n");
    feed.push('\n');
    run_session(&shards, Cursor::new(feed), &mut Vec::new(), 32).unwrap();

    // Warm-up calls first: the first snapshot caches the artefact text.
    shards.lock(0).write_snapshot().unwrap();
    let (_, snapshot) = CountingAllocator::count(|| shards.lock(0).write_snapshot().unwrap());
    shards.state_dump_line();
    let (line, dump) = CountingAllocator::count(|| shards.state_dump_line());
    assert!(
        line.contains("\"cached_rows\":[["),
        "the dump carries cached rows"
    );
    let _ = std::fs::remove_dir_all(&dir);
    // One `phase` member per job the index tracks.
    (dump, snapshot, line.matches("\"phase\":").count())
}

#[test]
fn dump_and_snapshot_allocations_do_not_grow_with_tracked_jobs() {
    let _guard = alloc_count::exclusive();
    let (dump_n, snap_n, jobs_n) = allocations_at(100, "n");
    let (dump_8n, snap_8n, jobs_8n) = allocations_at(800, "8n");
    assert!(jobs_8n >= 6 * jobs_n, "{jobs_n} vs {jobs_8n} tracked jobs");
    assert!(
        dump_8n <= dump_n + GROWTH_SLACK,
        "state dump: {dump_n} allocations at {jobs_n} jobs, {dump_8n} at {jobs_8n}"
    );
    assert!(
        snap_8n <= snap_n + GROWTH_SLACK,
        "snapshot: {snap_n} allocations at {jobs_n} jobs, {snap_8n} at {jobs_8n}"
    );
}
