//! Pins the bytes the daemon writes for its state: the `{"event":"state"}`
//! response line and every shard's snapshot file, from a fixed 2-shard
//! script with refits and snapshots. The hashes were recorded from the
//! tree-built serializer these writers replaced, so any change to member
//! order, number formatting or merge order shows up here as a failure.

use std::path::PathBuf;

use trout_serve::{replay_script, run_session, shard_dir, ServeConfig, ShardSet, SNAPSHOT_FILE};
use trout_slurmsim::SimulationBuilder;

/// 64-bit FNV-1a: a stable fingerprint that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_state_bytes_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable 2-shard set with refits, fed a fixed script whose shutdown is
/// replaced by a state dump; returns the dump line and the state dir.
fn run_pinned_script(name: &str) -> (String, ShardSet, PathBuf) {
    let shards = ShardSet::bootstrap(
        2,
        400,
        &ServeConfig {
            refit_every: 4,
            seed: 5,
            ..Default::default()
        },
    );
    let dir = state_dir(name);
    shards.open_state_dir(&dir, 64, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = replay_script(&live, 3);
    let lines: Vec<&str> = script.lines().collect();
    // Stop part-way, while pending jobs hold cached rows and served
    // predictions on both shards; the dump is the last line.
    let mut feed = lines[..lines.len() * 3 / 5].join("\n");
    feed.push_str("\n{\"event\":\"state\"}\n");
    let mut out = Vec::new();
    run_session(&shards, std::io::Cursor::new(feed), &mut out, 32).unwrap();
    let text = String::from_utf8(out).unwrap();
    let dump = text.lines().last().unwrap().to_string();
    (dump, shards, dir)
}

#[test]
fn state_dump_and_snapshot_bytes_are_pinned() {
    let (dump, shards, dir) = run_pinned_script("pinned");
    // The script exercises what the pinned bytes are meant to cover.
    for i in 0..2 {
        let g = shards.lock(i);
        assert!(g.metrics.snapshots_total.get() > 0, "shard {i} snapshotted");
        assert!(g.metrics.refits_total.get() > 0, "shard {i} refitted");
    }
    assert!(dump.starts_with("{\"ok\":true,\"event\":\"state\",\"watermarks\":["));
    assert!(
        dump.matches("],[").count() > 20,
        "several cached rows and served predictions"
    );

    let snaps: Vec<Vec<u8>> = (0..2)
        .map(|i| std::fs::read(shard_dir(&dir, i).join(SNAPSHOT_FILE)).unwrap())
        .collect();
    let got = [
        (dump.len(), fnv1a(dump.as_bytes())),
        (snaps[0].len(), fnv1a(&snaps[0])),
        (snaps[1].len(), fnv1a(&snaps[1])),
    ];
    // Recorded from the tree-built serializer (identical under
    // TROUT_THREADS=1/4 and every TROUT_SIMD tier).
    let want = [
        (122_702, 0x535d_97ff_e168_b151),
        (117_323, 0xda6e_657a_c25b_1fdb),
        (117_589, 0xd1ee_0a76_62a2_12fc),
    ];
    assert_eq!(
        got, want,
        "(length, fnv1a) of the dump and shard 0/1 snapshots"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
