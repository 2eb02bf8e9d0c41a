//! The deterministic concurrency battery for the sharded TCP daemon.
//!
//! Three invariants, each with its own test:
//!
//! 1. **Pairing** — a seeded in-process load generator drives hundreds of
//!    simulated connections through `run_tcp` at once; every connection
//!    must get exactly one response per request, in request order, with
//!    the right job id on every successful predict. Concurrency may
//!    interleave *engine state* arbitrarily; it must never interleave one
//!    connection's response stream.
//! 2. **Shard equivalence** — the same replay through 4 shards and through
//!    1 shard must leave byte-identical canonical merged state (lifecycle
//!    events broadcast, so every shard holds a full replica; the canonical
//!    merge is order-normalized and omits the one order-sensitive f64
//!    accumulator, which is instead held to a tolerance via
//!    `merged_drift`). When `TROUT_BATTERY_STATE_OUT` names a file, the
//!    merged state is written there so ci.sh can diff runs under
//!    `TROUT_THREADS=1` vs `=4` across processes.
//! 3. **Crash recovery under sharding** — SIGKILL is simulated by dropping
//!    a 2-shard set mid-script with no clean shutdown; a fresh set
//!    recovering from the per-shard journals must serve the remainder of
//!    the script byte-identically to an uninterrupted reference run and
//!    end in byte-identical per-shard state, refits included.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use trout_serve::{run_session, run_tcp, ServeConfig, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::json::Json;
use trout_std::rng::SplitMix64;

fn cfg(refit_every: usize) -> ServeConfig {
    ServeConfig {
        refit_every,
        seed: 3,
        ..Default::default()
    }
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_battery_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Splits a script at `frac` of its lines, never splitting the trailing
/// metrics+shutdown pair into the first part.
fn split_script(script: &str, frac: f64) -> (String, String) {
    let lines: Vec<&str> = script.lines().collect();
    let cut = ((lines.len() as f64 * frac) as usize).min(lines.len() - 2);
    let mut first = lines[..cut].join("\n");
    let mut rest = lines[cut..].join("\n");
    first.push('\n');
    rest.push('\n');
    (first, rest)
}

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

/// One expected response: the event kind echoed back, whether it succeeds,
/// and (for successful predicts and acks) the job id it must carry.
struct Expect {
    event: &'static str,
    ok: bool,
    id: Option<u64>,
}

/// A seeded client workload: 3 submits of its own jobs, 12 predicts mixing
/// its own pending jobs with ids nobody ever submitted, one lifecycle
/// `start`, and a clean shutdown. Returns the script and the expected
/// response sequence.
fn client_script(conn_id: u64) -> (String, Vec<Expect>) {
    let mut rng = SplitMix64::new(0xBA77E47 ^ (conn_id.wrapping_mul(0x9E3779B97F4A7C15)));
    let base = 1_000_000 + conn_id * 100;
    let t0: i64 = 5_000_000;
    let mut script = String::new();
    let mut expect = Vec::new();
    for k in 0..3u64 {
        script.push_str(&format!(
            "{{\"event\":\"submit\",\"job\":{{\"id\":{},\"user\":{},\"partition\":0,\
             \"submit_time\":{t0},\"req_cpus\":{},\"req_mem_gb\":8,\"req_nodes\":1,\
             \"timelimit_min\":{}}}}}\n",
            base + k,
            conn_id % 23,
            1u64 << (rng.next_below(4)),
            10 + rng.next_below(6) * 30,
        ));
        expect.push(Expect {
            event: "submit",
            ok: true,
            id: Some(base + k),
        });
    }
    for q in 0..12u64 {
        if rng.next_below(4) == 3 {
            // An id no connection ever submits: an in-order error response.
            let ghost = 77_000_000 + conn_id * 100 + q;
            script.push_str(&format!(
                "{{\"event\":\"predict\",\"id\":{ghost},\"time\":{}}}\n",
                t0 + 60
            ));
            expect.push(Expect {
                event: "predict",
                ok: false,
                id: None,
            });
        } else {
            let id = base + rng.next_below(3);
            script.push_str(&format!(
                "{{\"event\":\"predict\",\"id\":{id},\"time\":{}}}\n",
                t0 + 60
            ));
            expect.push(Expect {
                event: "predict",
                ok: true,
                id: Some(id),
            });
        }
    }
    script.push_str(&format!(
        "{{\"event\":\"start\",\"id\":{base},\"time\":{}}}\n",
        t0 + 120
    ));
    expect.push(Expect {
        event: "start",
        ok: true,
        id: Some(base),
    });
    script.push_str("{\"event\":\"shutdown\"}\n");
    expect.push(Expect {
        event: "shutdown",
        ok: true,
        id: None,
    });
    (script, expect)
}

/// Battery invariant 1: hundreds of concurrent connections, one session
/// thread each, every one strictly 1:1 paired in request order.
#[test]
fn load_generator_pairs_every_connection_one_to_one() {
    const CONNS: usize = 200;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shards = Arc::new(ShardSet::bootstrap(4, 150, &cfg(0)));
    let server = {
        let shards = Arc::clone(&shards);
        std::thread::spawn(move || run_tcp(shards, listener, 8, Some(CONNS)).unwrap())
    };

    std::thread::scope(|s| {
        for c in 0..CONNS as u64 {
            s.spawn(move || {
                let (script, expect) = client_script(c);
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.write_all(script.as_bytes()).unwrap();
                conn.flush().unwrap();
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                for (i, want) in expect.iter().enumerate() {
                    line.clear();
                    assert!(
                        reader.read_line(&mut line).unwrap() > 0,
                        "conn {c}: response stream ended at line {i}"
                    );
                    let j = Json::parse(line.trim())
                        .unwrap_or_else(|e| panic!("conn {c} line {i}: {e}: {line}"));
                    assert_eq!(
                        j.get("ok"),
                        Some(&Json::Bool(want.ok)),
                        "conn {c} line {i}: {line}"
                    );
                    if want.ok {
                        assert_eq!(
                            j.get("event"),
                            Some(&Json::Str(want.event.into())),
                            "conn {c} line {i}: {line}"
                        );
                    }
                    if let Some(id) = want.id {
                        assert_eq!(
                            j.get("id"),
                            Some(&Json::Int(id as i128)),
                            "conn {c} line {i} answered for the wrong job: {line}"
                        );
                    }
                }
                // Nothing after the shutdown ack.
                line.clear();
                assert_eq!(
                    reader.read_line(&mut line).unwrap(),
                    0,
                    "conn {c}: trailing bytes after shutdown: {line}"
                );
            });
        }
    });
    server.join().unwrap();

    let m = shards.metrics0();
    assert_eq!(m.sessions_total.get(), CONNS as u64);
    assert_eq!(m.sessions_live.get(), 0.0, "every connection drained");
    // Every shard saw every broadcast: replicas agree on the index.
    let idx0 = shards.lock(0).index().state_to_json().to_string();
    for i in 1..shards.len() {
        assert_eq!(
            shards.lock(i).index().state_to_json().to_string(),
            idx0,
            "shard {i} replica diverged under concurrency"
        );
    }
}

/// Battery invariant 2: merged 4-shard state is byte-identical to the
/// 1-shard reference after the same serial replay, and the one
/// order-sensitive accumulator agrees to tolerance.
#[test]
fn merged_four_shard_state_equals_single_shard_reference() {
    let live = SimulationBuilder::anvil_like().jobs(200).seed(11).run();
    let script = trout_serve::replay_script(&live, 3);

    let mut merged = Vec::new();
    let mut drift = Vec::new();
    for n in [1usize, 4] {
        let shards = ShardSet::bootstrap(n, 300, &cfg(0));
        serve(&shards, &script);
        // Replicas first: every shard holds the full index.
        let idx0 = shards.lock(0).index().state_to_json().to_string();
        for i in 1..n {
            assert_eq!(
                shards.lock(i).index().state_to_json().to_string(),
                idx0,
                "shard {i} index replica diverged"
            );
        }
        merged.push(shards.merged_state_to_json().to_string());
        drift.push(shards.merged_drift());
    }
    assert_eq!(
        merged[0], merged[1],
        "merged 4-shard state is bit-identical to the 1-shard reference"
    );
    let ((j1, e1, m1), (j4, e4, m4)) = (drift[0], drift[1]);
    assert_eq!(j1, j4, "same joined outcome count");
    assert!(
        (e1 - e4).abs() <= 1e-9 * e1.abs().max(1.0),
        "abs error sums agree to tolerance: {e1} vs {e4}"
    );
    assert!(
        (m1 - m4).abs() <= 1e-9 * m1.abs().max(1.0),
        "rolling MAE agrees to tolerance: {m1} vs {m4}"
    );

    // Cross-process determinism hook: ci.sh runs this test under
    // TROUT_THREADS=1 and =4 and diffs the dumped state byte for byte.
    if let Ok(path) = std::env::var("TROUT_BATTERY_STATE_OUT") {
        std::fs::write(&path, format!("{}\n", merged[1])).unwrap();
    }
}

/// The serial replay is bit-identical for any worker-pool width: the same
/// battery replay under `TROUT_THREADS=1` and `=4` must produce the same
/// merged state in-process too (ci.sh additionally checks it across
/// processes).
#[test]
fn merged_state_is_bit_identical_across_trout_threads() {
    let live = SimulationBuilder::anvil_like().jobs(120).seed(29).run();
    let script = trout_serve::replay_script(&live, 4);
    let mut states = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("TROUT_THREADS", threads);
        let shards = ShardSet::bootstrap(2, 200, &cfg(0));
        serve(&shards, &script);
        states.push(shards.merged_state_to_json().to_string());
    }
    std::env::remove_var("TROUT_THREADS");
    assert_eq!(
        states[0], states[1],
        "TROUT_THREADS must not change served state bit for bit"
    );
}

/// Battery invariant 3: SIGKILL + `--recover` under sharding. A 2-shard
/// set journals per shard, dies mid-script with no sync, and a fresh set
/// recovers — remainder responses and final per-shard state must be
/// byte-identical to an uninterrupted run. Refits are enabled so recovery
/// has to reproduce hot-swapped model weights on every shard.
#[test]
fn sharded_sigkill_recovery_is_byte_identical() {
    const SHARDS: usize = 2;
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = trout_serve::replay_script(&live, 3);
    let (first, rest) = split_script(&script, 0.5);

    // Reference: one uninterrupted 2-shard run.
    let reference = ShardSet::bootstrap(SHARDS, 300, &cfg(64));
    let ref_responses = serve(&reference, &script);
    let ref_states: Vec<String> = (0..SHARDS)
        .map(|i| reference.lock(i).state_to_json().to_string())
        .collect();

    // Crashing run: per-shard journals under shard-NNN/, first half only,
    // then the set is dropped with no shutdown and no sync.
    let dir = state_dir("sharded_sigkill");
    {
        let crashed = ShardSet::bootstrap(SHARDS, 300, &cfg(64));
        crashed.open_state_dir(&dir, 32, false).unwrap();
        serve(&crashed, &first);
        drop(crashed); // the SIGKILL
    }
    for i in 0..SHARDS {
        let journal = trout_serve::shard_dir(&dir, i).join(trout_serve::JOURNAL_FILE);
        assert!(journal.is_file(), "shard {i} journal exists at {journal:?}");
    }

    // Recovery: same arguments, fresh set, --recover.
    let recovered = ShardSet::bootstrap(SHARDS, 300, &cfg(64));
    let reports = recovered.open_state_dir(&dir, 32, true).unwrap();
    assert_eq!(reports.len(), SHARDS);
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.snapshot_journal_pos + report.replayed,
            report.journal_lines,
            "shard {i}: every journal line snapshotted or replayed"
        );
    }
    // Journals are NOT identical across shards: lifecycle events broadcast
    // everywhere, but served-prediction records (drift recovery) land only
    // on the owning shard — so line counts differ while each shard still
    // recovers its own exact state.

    // The remainder must replay byte-identically (metrics dumps excluded:
    // latency histograms legitimately differ across runs).
    let rec_responses = serve(&recovered, &rest);
    let ref_rest: Vec<&str> = ref_responses.lines().skip(first.lines().count()).collect();
    let rec_lines: Vec<&str> = rec_responses.lines().collect();
    assert_eq!(ref_rest.len(), rec_lines.len());
    for (a, b) in ref_rest.iter().zip(&rec_lines) {
        let ja = Json::parse(a).unwrap();
        if ja.get("event") == Some(&Json::Str("metrics".into())) {
            continue;
        }
        assert_eq!(a, b, "post-recovery responses match the reference");
    }

    // And the final per-shard state is the reference's, byte for byte.
    for (i, want) in ref_states.iter().enumerate() {
        assert_eq!(
            &recovered.lock(i).state_to_json().to_string(),
            want,
            "shard {i} recovered state is bit-identical"
        );
    }

    // A fresh set with the wrong shard count must refuse the state dir.
    let wrong = ShardSet::bootstrap(4, 300, &cfg(64));
    let err = wrong.open_state_dir(&dir, 32, true).unwrap_err();
    assert!(
        err.to_string().contains("shard"),
        "mismatched shard count is refused: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
