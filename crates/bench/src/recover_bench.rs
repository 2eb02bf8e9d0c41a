//! Crash-recovery benchmark: what durability costs while serving, and how
//! fast a crashed daemon comes back.
//!
//! Four questions, one report (`BENCH_recover.json`):
//!
//! 1. **Journal overhead** — criterion-timed single appends with and
//!    without an fsync per record (a one-event group-commit window under
//!    `--fsync-every 1`, the worst case, vs. relying on the OS page cache).
//! 2. **Recovery latency** — one-shot wall-clock measurements of
//!    journal-only recovery (full replay) vs. snapshot + tail replay over
//!    the same served history, with replayed-event counts and events/sec.
//! 3. **Snapshot cost** — criterion-timed `write_snapshot` on the loaded
//!    engine, plus the snapshot's on-disk size.
//! 4. **Replication catch-up** — one-shot wall-clock for a fresh follower
//!    to stream the leader's full journal over localhost TCP and reach its
//!    watermark: the time a replacement hot standby takes to re-arm.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trout_serve::{
    run_follower, run_session, spawn_replication_listener, Journal, ServeConfig, ServeEngine,
    ShardSet, SNAPSHOT_FILE,
};
use trout_slurmsim::SimulationBuilder;
use trout_std::bench::{write_report, Criterion};
use trout_std::json::Json;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_recover_bench")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench state dir");
    dir
}

fn fresh_engine(cfg: &ServeConfig, boot_jobs: usize) -> ServeEngine {
    ServeEngine::bootstrap(boot_jobs, cfg)
}

/// Serves `script` on a fresh engine journaling into `dir`, then drops the
/// engine with no clean shutdown — the crashed run every recovery below
/// resumes from.
fn crashed_run(cfg: &ServeConfig, boot_jobs: usize, dir: &PathBuf, every: u64, script: &str) {
    let mut e = fresh_engine(cfg, boot_jobs);
    // fsync once at snapshot/sync points only: the setup phase measures
    // nothing, so skip the per-append fsync tax (appends are timed
    // separately below, with and without it).
    e.online_config_mut().journal_fsync_every = 0;
    e.open_state_dir(dir, every, false).expect("arm state dir");
    let m = ShardSet::single(e);
    let mut sink = Vec::new();
    run_session(&m, script.as_bytes(), &mut sink, 64).expect("bench session");
}

/// One-shot recovery measurement: bootstrap + recover, reported separately
/// (bootstrap cost is identical either way; replay is what recovery adds).
fn timed_recovery(
    cfg: &ServeConfig,
    boot_jobs: usize,
    dir: &PathBuf,
    every: u64,
) -> (ServeEngine, Json) {
    let t0 = Instant::now();
    let mut e = fresh_engine(cfg, boot_jobs);
    let bootstrap_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = e.open_state_dir(dir, every, true).expect("recover");
    let replay_s = t1.elapsed().as_secs_f64();
    let j = Json::Obj(vec![
        ("snapshot_loaded".into(), Json::Bool(report.snapshot_loaded)),
        (
            "journal_lines".into(),
            Json::Int(report.journal_lines as i128),
        ),
        ("replayed".into(), Json::Int(report.replayed as i128)),
        ("bootstrap_s".into(), Json::Num(bootstrap_s)),
        ("replay_s".into(), Json::Num(replay_s)),
        (
            "replayed_per_sec".into(),
            Json::Num(report.replayed as f64 / replay_s.max(1e-9)),
        ),
    ]);
    (e, j)
}

/// One-shot replication catch-up measurement: a leader serves `script`
/// into a journaled shard dir, then a fresh follower (watermark 0)
/// streams the whole journal over localhost TCP. Wall-clock until the
/// follower's watermark equals the leader's is the re-arm time of a
/// replacement hot standby — and the follower runs with default
/// durability, group-committing each buffered burst of the stream the way
/// the leader commits each drained request window.
fn timed_replication(cfg: &ServeConfig, boot_jobs: usize, script: &str) -> Json {
    let ldir = bench_dir("repl_leader");
    let mut le = fresh_engine(cfg, boot_jobs);
    le.online_config_mut().journal_fsync_every = 0; // setup, not measured
    let leader = Arc::new(ShardSet::single(le));
    leader.open_state_dir(&ldir, 0, false).expect("leader dir");
    let mut sink = Vec::new();
    run_session(&leader, script.as_bytes(), &mut sink, 64).expect("leader session");
    let watermarks = leader.journal_watermarks();
    let entries: u64 = watermarks.iter().sum();

    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    )
    .expect("replication listener");
    let addr = hub.addr().to_string();

    let fdir = bench_dir("repl_follower");
    let follower = Arc::new(ShardSet::single(fresh_engine(cfg, boot_jobs)));
    follower
        .open_state_dir(&fdir, 0, false)
        .expect("follower dir");
    let t0 = Instant::now();
    let fthread = {
        let shards = Arc::clone(&follower);
        let dir = fdir.clone();
        std::thread::spawn(move || run_follower(&shards, &dir, &addr))
    };
    let deadline = Instant::now() + Duration::from_secs(300);
    while follower.journal_watermarks() != watermarks {
        assert!(Instant::now() < deadline, "follower catch-up timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
    let catchup_s = t0.elapsed().as_secs_f64();
    hub.stop();
    follower.request_promote();
    fthread.join().expect("follower thread").expect("follower");
    assert_eq!(
        follower.merged_state_text(),
        leader.merged_state_text(),
        "catch-up converges byte-identically"
    );
    for d in [ldir, fdir] {
        let _ = std::fs::remove_dir_all(d);
    }
    Json::Obj(vec![
        ("entries".into(), Json::Int(entries as i128)),
        ("catchup_s".into(), Json::Num(catchup_s)),
        (
            "entries_per_sec".into(),
            Json::Num(entries as f64 / catchup_s.max(1e-9)),
        ),
    ])
}

/// Benchmarks the durability path end to end; writes `BENCH_recover.json`
/// unless smoking.
pub fn bench_recover(c: &mut Criterion) {
    let smoke = std::env::var("TROUT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (boot_jobs, live_jobs, snapshot_every) = if smoke {
        (300, 100, 64)
    } else {
        (2_000, 1_500, 512)
    };
    let cfg = ServeConfig {
        refit_every: 1_024,
        seed: 7,
        ..Default::default()
    };
    let live = SimulationBuilder::anvil_like()
        .jobs(live_jobs)
        .seed(cfg.seed ^ 0x5eed)
        .run();
    let mut script = trout_serve::replay_script(&live, 4);
    // Crash before the clean tail: drop the trailing metrics+shutdown.
    script.truncate(
        script
            .lines()
            .take(script.lines().count() - 2)
            .map(|l| l.len() + 1)
            .sum(),
    );

    let dir_snap = bench_dir("snap");
    let dir_journal = bench_dir("journal");
    crashed_run(&cfg, boot_jobs, &dir_snap, snapshot_every, &script);
    crashed_run(&cfg, boot_jobs, &dir_journal, 0, &script);

    let (_e1, journal_only) = timed_recovery(&cfg, boot_jobs, &dir_journal, 0);
    let (mut engine, snapshot_tail) = timed_recovery(&cfg, boot_jobs, &dir_snap, snapshot_every);
    let snapshot_bytes = std::fs::metadata(dir_snap.join(SNAPSHOT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    eprintln!(
        "bench recover: journal-only {journal_only}, snapshot+tail {snapshot_tail}, \
         snapshot {snapshot_bytes} bytes"
    );
    let replication = timed_replication(&cfg, boot_jobs, &script);
    eprintln!("bench recover: replication catch-up {replication}");

    // Criterion section: per-append journal cost (with and without the
    // durable-before-ack fsync) and the snapshot write on the live engine.
    let line = "{\"event\":\"predict\",\"id\":123456,\"time\":987654}";
    let mut group = c.benchmark_group("recover");
    group.sample_size(if smoke { 1 } else { 20 });
    let append_path = bench_dir("append");
    let mut j0 = Journal::open(&append_path.join("nofsync.ndjson"), 0).unwrap();
    group.bench_function("journal_append", |b| b.iter(|| j0.append(line).unwrap()));
    let mut j1 = Journal::open(&append_path.join("fsync1.ndjson"), 1).unwrap();
    // A one-event commit window: the worst case of group commit.
    group.bench_function("journal_append_fsync", |b| {
        b.iter(|| {
            j1.append(line).unwrap();
            j1.commit().unwrap()
        })
    });
    group.bench_function("snapshot_write", |b| {
        b.iter(|| engine.write_snapshot().unwrap())
    });
    group.finish();

    if !smoke {
        let report = Json::Obj(vec![
            ("group".into(), Json::Str("recover".into())),
            (
                "served".into(),
                Json::Obj(vec![
                    ("live_jobs".into(), Json::Int(live_jobs as i128)),
                    (
                        "script_lines".into(),
                        Json::Int(script.lines().count() as i128),
                    ),
                    ("snapshot_every".into(), Json::Int(snapshot_every as i128)),
                    ("snapshot_bytes".into(), Json::Int(snapshot_bytes as i128)),
                ]),
            ),
            ("journal_only".into(), journal_only),
            ("snapshot_tail".into(), snapshot_tail),
            ("replication".into(), replication),
        ]);
        write_report("recover", &report);
    }

    for d in [dir_snap, dir_journal, append_path] {
        let _ = std::fs::remove_dir_all(d);
    }
}
