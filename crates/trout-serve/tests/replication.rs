//! Replication end-to-end tests: a leader shard set streams its journals
//! over localhost TCP to a hot-standby follower, the leader is killed
//! abruptly (streams dropped mid-flight, indistinguishable from `kill -9`
//! on the follower side), the follower is promoted, and its state must be
//! **byte-identical** to the leader's at the follower's watermark — the
//! same oracle the crash-recovery tests use.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trout_serve::{run_follower, run_session, spawn_replication_listener, ServeConfig, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::json::Json;

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_replication_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh shard set with the bootstrap arguments every replica shares —
/// deterministic construction is what lets a follower start from bootstrap
/// and converge on the leader's state by replaying its journal.
fn shardset(n: usize) -> ShardSet {
    ShardSet::bootstrap(
        n,
        200,
        &ServeConfig {
            refit_every: 64,
            seed: 3,
            ..Default::default()
        },
    )
}

/// Feeds `script` through a session and returns the response transcript.
fn serve(shards: &ShardSet, script: &str) -> String {
    let mut out = Vec::new();
    run_session(
        shards,
        std::io::Cursor::new(script.to_string()),
        &mut out,
        32,
    )
    .unwrap();
    String::from_utf8(out).unwrap()
}

/// Polls until `cond` holds or `secs` elapse (panicking with `what`).
fn wait_for(what: &str, secs: u64, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn follower_streams_kill_leader_promote_byte_identical() {
    let leader = Arc::new(shardset(2));
    let ldir = state_dir("stream_leader");
    leader.open_state_dir(&ldir, 32, false).unwrap();
    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let addr = hub.addr().to_string();

    let follower = Arc::new(shardset(2));
    let fdir = state_dir("stream_follower");
    follower.open_state_dir(&fdir, 32, false).unwrap();
    let fthread = {
        let shards = Arc::clone(&follower);
        let dir = fdir.clone();
        std::thread::spawn(move || run_follower(&shards, &dir, &addr))
    };

    // Drive the leader while the follower streams concurrently.
    let live = SimulationBuilder::anvil_like().jobs(120).seed(9).run();
    let script = trout_serve::replay_script(&live, 3);
    serve(&leader, &script);
    let watermarks = leader.journal_watermarks();
    assert!(watermarks.iter().sum::<u64>() > 0, "the leader journaled");

    wait_for("follower to reach the leader's watermarks", 30, || {
        follower.journal_watermarks() == watermarks
    });

    // Mid-stream the follower is read-only: lifecycle events are refused
    // with the typed class, predicts keep working.
    let refusal = serve(
        &follower,
        "{\"event\":\"start\",\"id\":999999,\"time\":1}\n",
    );
    assert!(refusal.contains("\"ok\":false"), "{refusal}");
    assert!(refusal.contains("read_only"), "{refusal}");
    assert!(follower.is_read_only());

    // Kill the leader abruptly: every follower stream drops mid-flight with
    // no goodbye — on the follower side this is `kill -9`.
    hub.stop();

    // Promote over the wire, as an operator would.
    let promoted = serve(&follower, "{\"event\":\"promote\"}\n");
    assert!(promoted.contains("\"was_follower\":true"), "{promoted}");
    fthread.join().unwrap().unwrap();
    assert!(!follower.is_read_only(), "promotion lifted the gate");

    // Bit-identity oracle: byte-equal canonical state at the same watermark
    // (the follower acked everything, so the watermarks are equal and the
    // divergence window is empty).
    assert_eq!(follower.journal_watermarks(), watermarks);
    assert_eq!(
        follower.merged_state_to_json().to_string(),
        leader.merged_state_to_json().to_string(),
        "follower state is byte-identical to the dead leader's at the watermark"
    );
    // The one documented exception: abs_err_sum is an order-sensitive f64
    // fold, compared through the drift MAE within a float tolerance.
    let (lj, lsum, lmae) = leader.merged_drift();
    let (fj, fsum, fmae) = follower.merged_drift();
    assert_eq!(lj, fj, "same joined drift pairs");
    assert!((lsum - fsum).abs() < 1e-6, "{lsum} vs {fsum}");
    assert!((lmae - fmae).abs() < 1e-9, "{lmae} vs {fmae}");

    // The promoted daemon accepts lifecycle events again (no read_only).
    let after = serve(
        &follower,
        "{\"event\":\"start\",\"id\":999999,\"time\":1}\n",
    );
    assert!(!after.contains("read_only"), "{after}");

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn divergent_follower_history_is_refused() {
    let leader = Arc::new(shardset(1));
    let ldir = state_dir("diverge_leader");
    leader.open_state_dir(&ldir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(60).seed(9).run();
    serve(&leader, &trout_serve::replay_script(&live, 0));

    // An imposter whose journal came from a different history: same
    // bootstrap, different event stream, shorter than the leader's.
    let imposter = Arc::new(shardset(1));
    let idir = state_dir("diverge_imposter");
    imposter.open_state_dir(&idir, 0, false).unwrap();
    let other = SimulationBuilder::anvil_like().jobs(20).seed(21).run();
    serve(&imposter, &trout_serve::replay_script(&other, 0));
    assert!(imposter.journal_watermarks()[0] > 0);
    assert!(imposter.journal_watermarks()[0] < leader.journal_watermarks()[0]);

    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let addr = hub.addr().to_string();

    let err = run_follower(&imposter, &idir, &addr).unwrap_err();
    assert!(err.to_string().contains("diverged"), "{err}");
    // The refusal left the would-be follower read-only — its history is not
    // the leader's, so serving writes OR reads from it would lie.
    assert!(imposter.is_read_only());

    hub.stop();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&idir);
}

#[test]
fn stale_follower_catches_up_from_snapshot_past_compaction() {
    // Leader with aggressive snapshot + compaction: by the end of the
    // script its journal holds only a tail behind the compaction base.
    let leader = Arc::new(shardset(1));
    let ldir = state_dir("compact_leader");
    leader.set_compaction(true);
    leader.open_state_dir(&ldir, 16, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(100).seed(9).run();
    serve(&leader, &trout_serve::replay_script(&live, 4));
    let base = leader.lock(0).journal_base();
    assert!(base > 0, "compaction ran");
    let watermarks = leader.journal_watermarks();

    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let addr = hub.addr().to_string();

    // A fresh follower (watermark 0) is behind the truncation point: the
    // leader must ship its snapshot, then the remaining journal tail.
    let follower = Arc::new(shardset(1));
    let fdir = state_dir("compact_follower");
    follower.set_compaction(true);
    follower.open_state_dir(&fdir, 16, false).unwrap();
    let fthread = {
        let shards = Arc::clone(&follower);
        let dir = fdir.clone();
        std::thread::spawn(move || run_follower(&shards, &dir, &addr))
    };

    wait_for("stale follower to catch up via snapshot + tail", 30, || {
        follower.journal_watermarks() == watermarks
    });
    assert!(
        follower
            .lock(0)
            .metrics
            .replication_snapshots_installed
            .get()
            >= 1,
        "catch-up went through a snapshot install"
    );

    hub.stop();
    follower.request_promote();
    fthread.join().unwrap().unwrap();

    assert_eq!(follower.journal_watermarks(), watermarks);
    assert_eq!(
        follower.merged_state_to_json().to_string(),
        leader.merged_state_to_json().to_string(),
        "snapshot + tail catch-up converges byte-identically"
    );

    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn state_dump_is_the_replication_oracle_over_the_wire() {
    // The `{"event":"state"}` admin line exposes exactly the oracle the
    // tests above compare: watermarks + canonical merged state.
    let shards = shardset(1);
    let dir = state_dir("state_dump");
    shards.open_state_dir(&dir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(30).seed(9).run();
    serve(&shards, &trout_serve::replay_script(&live, 5));

    let out = serve(&shards, "{\"event\":\"state\"}\n");
    let resp = Json::parse(out.lines().next().unwrap()).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    match resp.get("watermarks") {
        Some(Json::Arr(w)) => {
            assert_eq!(w.len(), 1);
            assert_eq!(
                w[0],
                Json::Int(shards.journal_watermarks()[0] as i128),
                "dump reports the journal watermark"
            );
        }
        other => panic!("watermarks missing: {other:?}"),
    }
    assert_eq!(
        resp.get("state").unwrap().to_string(),
        shards.merged_state_to_json().to_string(),
        "the state member is the canonical merged state, byte for byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Sum of a set's per-shard journal fsync counters.
fn fsyncs(shards: &ShardSet) -> u64 {
    (0..shards.len())
        .map(|i| shards.lock(i).metrics.journal_fsyncs_total.get())
        .sum()
}

#[test]
fn leader_streams_only_committed_entries() {
    let leader = Arc::new(shardset(1));
    let ldir = state_dir("durable_leader");
    leader.open_state_dir(&ldir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(40).seed(9).run();
    serve(&leader, &trout_serve::replay_script(&live, 3));
    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let addr = hub.addr().to_string();
    let follower = Arc::new(shardset(1));
    let fdir = state_dir("durable_follower");
    follower.open_state_dir(&fdir, 0, false).unwrap();
    let fthread = {
        let shards = Arc::clone(&follower);
        let dir = fdir.clone();
        std::thread::spawn(move || run_follower(&shards, &dir, &addr))
    };
    let committed = leader.journal_watermarks();
    wait_for("follower to reach the committed watermark", 30, || {
        follower.journal_watermarks() == committed
    });

    // Appended (written to the file) but not yet group-committed: the
    // leader could still lose it to power loss, so it must not ship.
    let mut rec = live.records[0].clone();
    rec.id = 9_000_001;
    leader.lock(0).apply_submit(rec).unwrap();
    assert_eq!(leader.journal_watermarks()[0], committed[0] + 1);
    assert_eq!(leader.synced_watermark(0), Some(committed[0]));
    std::thread::sleep(Duration::from_millis(400)); // ≥ 20 tail polls
    assert_eq!(
        follower.journal_watermarks(),
        committed,
        "an uncommitted entry reached the follower"
    );

    leader.commit();
    assert_eq!(leader.synced_watermark(0), Some(committed[0] + 1));
    let target = leader.journal_watermarks();
    wait_for("the committed entry to stream", 30, || {
        follower.journal_watermarks() == target
    });

    hub.stop();
    follower.request_promote();
    fthread.join().unwrap().unwrap();
    assert_eq!(
        follower.merged_state_to_json().to_string(),
        leader.merged_state_to_json().to_string()
    );
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn follower_catch_up_group_commits_fewer_fsyncs_than_entries() {
    let leader = Arc::new(shardset(2));
    let ldir = state_dir("catchup_leader");
    leader.open_state_dir(&ldir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(120).seed(9).run();
    serve(&leader, &trout_serve::replay_script(&live, 3));
    let watermarks = leader.journal_watermarks();
    let entries: u64 = watermarks.iter().sum();

    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let addr = hub.addr().to_string();
    let follower = Arc::new(shardset(2));
    let fdir = state_dir("catchup_follower");
    follower.open_state_dir(&fdir, 0, false).unwrap();
    let fthread = {
        let shards = Arc::clone(&follower);
        let dir = fdir.clone();
        std::thread::spawn(move || run_follower(&shards, &dir, &addr))
    };
    wait_for("follower to catch up", 30, || {
        follower.journal_watermarks() == watermarks
    });
    let synced: u64 = fsyncs(&follower);
    assert!(
        synced < entries,
        "catching up {entries} entries took {synced} fsyncs"
    );
    let applied: u64 = (0..follower.len())
        .map(|i| follower.lock(i).metrics.replication_applied_total.get())
        .sum();
    assert_eq!(applied, entries, "every entry applied exactly once");

    hub.stop();
    follower.request_promote();
    fthread.join().unwrap().unwrap();
    assert_eq!(
        follower.merged_state_to_json().to_string(),
        leader.merged_state_to_json().to_string(),
        "group-committed catch-up stays byte-identical"
    );
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// The replication listener's thread accounting, the twin of
/// `tcp_faults::sequential_sessions_keep_the_live_handle_count_bounded`:
/// each follower that leaves is counted out as its stream thread ends, so
/// the `followers` gauge returns to 0 between sequential followers. The
/// acceptor polls a nonblocking listener; an idle poll is not an accept
/// error and must not be counted as one.
#[test]
fn sequential_followers_are_counted_out_as_they_leave() {
    const FOLLOWERS: usize = 12;
    let leader = Arc::new(shardset(2));
    let ldir = state_dir("sequential_leader");
    leader.open_state_dir(&ldir, 0, false).unwrap();
    let hub = spawn_replication_listener(
        Arc::clone(&leader),
        ldir.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let followers = |i: usize| leader.lock(i).metrics.replication_followers.get();
    for _ in 0..FOLLOWERS {
        let conn = TcpStream::connect(hub.addr()).unwrap();
        wait_for("the stream thread to start", 10, || {
            followers(0) == 1.0 && followers(1) == 1.0
        });
        // No hello: the stream thread reads EOF and ends.
        drop(conn);
        wait_for("the follower to be counted out", 10, || {
            followers(0) == 0.0 && followers(1) == 0.0
        });
    }
    hub.stop();
    let m = leader.metrics0();
    assert_eq!(
        m.accept_transient_total.get(),
        0,
        "idle polls are not errors"
    );
    assert_eq!(m.accept_backoffs_total.get(), 0);
    let _ = std::fs::remove_dir_all(&ldir);
}
