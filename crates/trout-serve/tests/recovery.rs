//! Crash-recovery end-to-end tests: a served run is SIGKILL-simulated by
//! dropping the engine mid-script with no clean shutdown, then a fresh
//! process image (a newly bootstrapped engine) recovers from the state dir
//! and must be **bit-identical** to an engine that served the whole script
//! uninterrupted — same wire responses for the remainder of the script,
//! same serialized state down to the byte.

use std::path::PathBuf;

use trout_serve::{run_session, ServeConfig, ServeEngine, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::json::Json;

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_recovery_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fresh engine with the bootstrap arguments every test run shares —
/// construction is deterministic, which is what makes snapshot-free
/// recovery possible at all. Refits enabled so recovery has to reproduce
/// hot-swapped model weights, not just index state.
fn engine() -> ServeEngine {
    ServeEngine::bootstrap(
        400,
        &ServeConfig {
            refit_every: 64,
            seed: 3,
            ..Default::default()
        },
    )
}

/// Splits a script at `frac` of its lines (never splitting the trailing
/// metrics+shutdown pair into the first part).
fn split_script(script: &str, frac: f64) -> (String, String) {
    let lines: Vec<&str> = script.lines().collect();
    let cut = ((lines.len() as f64 * frac) as usize).min(lines.len() - 2);
    let mut first = lines[..cut].join("\n");
    let mut rest = lines[cut..].join("\n");
    first.push('\n');
    rest.push('\n');
    (first, rest)
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

/// Asserts two transcripts match line for line, comparing metrics-dump
/// lines only on their deterministic content (the drift section and the
/// event counters — latency histograms legitimately differ across runs).
fn assert_transcripts_match(a: &str, b: &str) {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    assert_eq!(a.len(), b.len(), "transcripts have the same length");
    for (la, lb) in a.iter().zip(&b) {
        let ja = Json::parse(la).unwrap();
        if ja.get("event") == Some(&Json::Str("metrics".into())) {
            let jb = Json::parse(lb).unwrap();
            let (ma, mb) = (ja.get("metrics").unwrap(), jb.get("metrics").unwrap());
            assert_eq!(ma.get("drift"), mb.get("drift"), "drift sections match");
            for c in ["predicts", "state_events", "refits"] {
                assert_eq!(
                    ma.get("counters").and_then(|x| x.get(c)),
                    mb.get("counters").and_then(|x| x.get(c)),
                    "counter {c} matches"
                );
            }
        } else {
            assert_eq!(la, lb, "response lines match");
        }
    }
}

#[test]
fn recovery_is_bit_identical_to_an_uninterrupted_run() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = trout_serve::replay_script(&live, 3);
    let (first, rest) = split_script(&script, 0.5);

    // Reference: one engine, no state dir, the whole script in one life.
    let reference = ShardSet::single(engine());
    let ref_responses = serve(&reference, &script);
    let ref_state = reference.lock(0).state_text();

    // Crashing run: journal every event (fsync policy 1, snapshot every 32
    // events), serve the first half, then "SIGKILL" — drop the engine with
    // no shutdown line and no clean-exit sync.
    let dir = state_dir("bit_identity");
    {
        let mut e = engine();
        e.open_state_dir(&dir, 32, false).unwrap();
        let crashed = ShardSet::single(e);
        serve(&crashed, &first);
        drop(crashed); // no shutdown, no sync — the crash
    }

    // Recovery: a fresh process image bootstraps the same engine and
    // resumes from the state dir.
    let mut e = engine();
    let report = e.open_state_dir(&dir, 32, true).unwrap();
    assert!(report.snapshot_loaded, "a snapshot was due and loaded");
    assert!(
        report.replayed < report.journal_lines,
        "the snapshot watermark bounded replay ({} of {} lines)",
        report.replayed,
        report.journal_lines
    );
    assert_eq!(
        report.snapshot_journal_pos + report.replayed,
        report.journal_lines,
        "every journal line is either snapshotted or replayed"
    );
    assert_eq!(
        e.metrics.recovery_replayed_events.get(),
        report.replayed,
        "replay metric matches the report"
    );

    // The remainder of the script must produce byte-identical responses...
    let recovered = ShardSet::single(e);
    let rec_responses = serve(&recovered, &rest);
    let ref_rest: String = ref_responses
        .lines()
        .skip(first.lines().count())
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_transcripts_match(&ref_rest, &rec_responses);

    // ...and the final engine state must serialize byte-identically.
    let rec_state = recovered.lock(0).state_text();
    assert_eq!(
        rec_state, ref_state,
        "recovered state is bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_and_journal_only_recovery_agree() {
    let live = SimulationBuilder::anvil_like().jobs(100).seed(17).run();
    let script = trout_serve::replay_script(&live, 4);
    let (first, _) = split_script(&script, 0.7);

    // Two crashing runs over the same events: one snapshotting, one
    // journal-only (snapshot_every = 0).
    let dir_snap = state_dir("agree_snap");
    let dir_journal = state_dir("agree_journal");
    for (dir, every) in [(&dir_snap, 16u64), (&dir_journal, 0u64)] {
        let mut e = engine();
        e.open_state_dir(dir, every, false).unwrap();
        let m = ShardSet::single(e);
        serve(&m, &first);
    }

    let mut from_snap = engine();
    let r1 = from_snap.open_state_dir(&dir_snap, 16, true).unwrap();
    let mut from_journal = engine();
    let r2 = from_journal.open_state_dir(&dir_journal, 0, true).unwrap();

    assert!(r1.snapshot_loaded && !r2.snapshot_loaded);
    assert_eq!(r1.journal_lines, r2.journal_lines, "same events journaled");
    assert_eq!(r2.replayed, r2.journal_lines, "journal-only replays all");
    assert_eq!(
        from_snap.state_text(),
        from_journal.state_text(),
        "snapshot+tail and full-journal recovery reach the same state"
    );

    let _ = std::fs::remove_dir_all(&dir_snap);
    let _ = std::fs::remove_dir_all(&dir_journal);
}

#[test]
fn torn_journal_tail_is_dropped_and_recovery_proceeds() {
    let live = SimulationBuilder::anvil_like().jobs(60).seed(5).run();
    let script = trout_serve::replay_script(&live, 5);
    let (first, _) = split_script(&script, 0.5);

    let dir = state_dir("torn");
    {
        let mut e = engine();
        e.open_state_dir(&dir, 0, false).unwrap();
        let m = ShardSet::single(e);
        serve(&m, &first);
    }
    // Crash mid-append: a torn, newline-less half record at the tail.
    use std::io::Write;
    let journal = dir.join(trout_serve::JOURNAL_FILE);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"{\"event\":\"start\",\"id\":99").unwrap();
    drop(f);

    let mut e = engine();
    let report = e.open_state_dir(&dir, 0, true).unwrap();
    assert!(report.torn_bytes > 0, "the torn record was detected");
    assert_eq!(report.replayed, report.journal_lines);
    // The journal was truncated back to a record boundary: appending works
    // and a second recovery sees no torn bytes.
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_inside_a_multibyte_character_is_dropped() {
    let live = SimulationBuilder::anvil_like().jobs(60).seed(5).run();
    let script = trout_serve::replay_script(&live, 5);
    let (first, _) = split_script(&script, 0.5);

    let dir = state_dir("torn_utf8");
    let before = {
        let mut e = engine();
        e.open_state_dir(&dir, 0, false).unwrap();
        let m = ShardSet::single(e);
        serve(&m, &first);
        let state = m.lock(0).state_text();
        state
    };
    // Crash mid-append inside `"é"`: the torn tail ends in the first byte
    // of a two-byte character, so it is not valid UTF-8.
    use std::io::Write;
    let journal = dir.join(trout_serve::JOURNAL_FILE);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"{\"event\":\"submit\",\"job\":{\"name\":\"")
        .unwrap();
    f.write_all(&"é".as_bytes()[..1]).unwrap();
    drop(f);

    let mut e = engine();
    let report = e.open_state_dir(&dir, 0, true).unwrap();
    assert!(report.torn_bytes > 0, "the torn record was detected");
    assert_eq!(report.replayed, report.journal_lines);
    assert_eq!(
        e.state_text(),
        before,
        "recovered to the last complete line"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_only_line_recovers_to_the_snapshot_watermark() {
    // The regression this pins down: when the torn record is the journal's
    // *only* line, truncation leaves an empty journal behind a snapshot with
    // a higher watermark. That used to look like "snapshot and journal are
    // from different runs"; it must instead recover to the snapshot
    // watermark (the torn record was never acknowledged).
    let live = SimulationBuilder::anvil_like().jobs(80).seed(7).run();
    let script = trout_serve::replay_script(&live, 4);
    let (first, _) = split_script(&script, 0.6);

    let dir = state_dir("torn_only");
    {
        let mut e = engine();
        e.open_state_dir(&dir, 16, false).unwrap();
        serve(&ShardSet::single(e), &first);
    }
    let snap = Json::parse(&std::fs::read_to_string(dir.join(trout_serve::SNAPSHOT_FILE)).unwrap())
        .unwrap();
    let snap_pos = match snap.get("journal_pos") {
        Some(Json::Int(v)) => *v as u64,
        other => panic!("journal_pos: {other:?}"),
    };
    assert!(snap_pos > 0, "a snapshot was written");
    // Replace the journal with a single torn (newline-less) record — a crash
    // during the first append after compaction truncated everything else.
    std::fs::write(
        dir.join(trout_serve::JOURNAL_FILE),
        "{\"event\":\"start\",\"id\":9",
    )
    .unwrap();

    let mut e = engine();
    let report = e.open_state_dir(&dir, 16, true).unwrap();
    assert!(report.snapshot_loaded);
    assert!(report.torn_bytes > 0, "the torn-only line was detected");
    assert_eq!(report.replayed, 0, "nothing survived to replay");
    assert_eq!(
        e.journal_position(),
        snap_pos,
        "the journal base was repaired to the snapshot watermark"
    );
    assert_eq!(
        e.state_text(),
        snap.get("state").unwrap().to_string(),
        "recovered exactly to the snapshot state"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_bounds_the_journal_and_recovery_stays_bit_identical() {
    let live = SimulationBuilder::anvil_like().jobs(120).seed(13).run();
    let script = trout_serve::replay_script(&live, 3);
    let (first, rest) = split_script(&script, 0.5);

    // Reference: uninterrupted, no durability.
    let reference = ShardSet::single(engine());
    let ref_responses = serve(&reference, &script);
    let ref_state = reference.lock(0).state_text();

    let dir = state_dir("compact");
    let snapshot_every = 24u64;
    {
        let mut e = engine();
        e.set_compaction(true);
        e.open_state_dir(&dir, snapshot_every, false).unwrap();
        serve(&ShardSet::single(e), &first);
    }
    // The journal is bounded: a base control line plus at most one snapshot
    // interval of entries.
    let text = std::fs::read_to_string(dir.join(trout_serve::JOURNAL_FILE)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("journal_base"),
        "compaction left a base line: {}",
        lines[0]
    );
    assert!(
        (lines.len() as u64) <= snapshot_every + 1,
        "journal holds at most one snapshot interval, got {} lines",
        lines.len()
    );

    let mut e = engine();
    e.set_compaction(true);
    let report = e.open_state_dir(&dir, snapshot_every, true).unwrap();
    assert!(report.journal_base > 0, "recovery saw the compaction base");
    assert_eq!(
        report.snapshot_journal_pos + report.replayed,
        report.journal_lines,
        "absolute positions: snapshotted + replayed covers every event"
    );

    let recovered = ShardSet::single(e);
    let rec_responses = serve(&recovered, &rest);
    let ref_rest: String = ref_responses
        .lines()
        .skip(first.lines().count())
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_transcripts_match(&ref_rest, &rec_responses);
    assert_eq!(
        recovered.lock(0).state_text(),
        ref_state,
        "compacted recovery is bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nonempty_state_dir_is_refused_without_recover() {
    let dir = state_dir("refuse");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(trout_serve::JOURNAL_FILE), "").unwrap();
    let mut e = engine();
    let err = e.open_state_dir(&dir, 0, false).unwrap_err();
    assert!(
        err.to_string().contains("--recover"),
        "the refusal explains the fix: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a snapshot of shard 0 and asserts the file holds exactly
/// `{"journal_pos":P,"state":<state text>}` for the engine as it is now.
/// The expected text comes from `fresh` after it restored the snapshot, so
/// it shares no cached artefact text with the engine under test.
fn assert_snapshot_is_current_state(
    shards: &ShardSet,
    dir: &std::path::Path,
    mut fresh: ServeEngine,
) {
    let mut e = shards.lock(0);
    e.write_snapshot().unwrap();
    let got = std::fs::read_to_string(dir.join(trout_serve::SNAPSHOT_FILE)).unwrap();
    let snap = Json::parse(&got).unwrap();
    fresh.restore_state(snap.get("state").unwrap()).unwrap();
    let want = format!(
        "{{\"journal_pos\":{},\"state\":{}}}",
        e.journal_position(),
        fresh.state_text()
    );
    assert!(got == want, "snapshot bytes differ from the engine state");
    assert!(
        e.state_text() == fresh.state_text(),
        "state text differs from the engine state"
    );
}

#[test]
fn snapshots_track_refits_and_restores_byte_for_byte() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = trout_serve::replay_script(&live, 3);
    let (first, rest) = split_script(&script, 0.2);
    let refits = |s: &ShardSet| s.lock(0).metrics.refits_total.get();

    // Refit every 8 completions, so the rest of the script refits.
    let engine = |seed| {
        ServeEngine::bootstrap(
            400,
            &ServeConfig {
                refit_every: 8,
                seed,
                ..Default::default()
            },
        )
    };
    let dir = state_dir("artefact_text");
    let mut e = engine(3);
    e.open_state_dir(&dir, 0, false).unwrap();
    let shards = ShardSet::single(e);
    serve(&shards, &first);
    assert_eq!(refits(&shards), 0, "no refit before the first snapshot");
    assert_snapshot_is_current_state(&shards, &dir, engine(5));

    // A refit publishes a new model: the next snapshot must carry it.
    serve(&shards, &rest);
    assert!(refits(&shards) > 0, "the rest of the script refits");
    assert_snapshot_is_current_state(&shards, &dir, engine(5));

    // A restore replaces both the model and the runtime forest. The fresh
    // engine bootstraps from another seed and snapshots its own artefacts
    // first, so text left over from before the restore would show.
    let state = Json::parse(&shards.lock(0).state_text()).unwrap();
    let dir2 = state_dir("artefact_text_restored");
    let mut fresh = engine(4);
    fresh.open_state_dir(&dir2, 0, false).unwrap();
    let restored = ShardSet::single(fresh);
    assert_snapshot_is_current_state(&restored, &dir2, engine(5));
    restored.lock(0).restore_state(&state).unwrap();
    assert_snapshot_is_current_state(&restored, &dir2, engine(5));
    assert_eq!(restored.lock(0).state_text(), state.to_string());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
