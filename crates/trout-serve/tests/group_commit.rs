//! Group commit at the egress barrier: under `--fsync-every 1` no response
//! byte leaves a session before the fsync covering the events it
//! acknowledges, one fsync per dirty shard covers a whole drained request
//! window, and the session's egress buffer stays bounded however far a
//! client pipelines ahead.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use trout_serve::server::EGRESS_CAP;
use trout_serve::{replay_script, run_session, run_tcp, ServeConfig, ShardSet};
use trout_slurmsim::SimulationBuilder;

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("trout_group_commit_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// A reader handing out at most `chunk` bytes per read, so one script
/// arrives as many drained request windows.
struct Chunked<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> Read for Chunked<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

/// The durable-before-ack oracle: a client socket stand-in that checks, on
/// every write it receives, that each shard's journal position equals its
/// synced watermark — no unsynced event can be acknowledged by the bytes.
struct DurableSink<'a> {
    shards: &'a ShardSet,
    bytes: Vec<u8>,
    writes: usize,
    max_write: usize,
}

impl Write for DurableSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for i in 0..self.shards.len() {
            let g = self.shards.lock(i);
            if let Some(synced) = g.journal_synced() {
                assert_eq!(
                    g.journal_position(),
                    synced,
                    "shard {i}: response bytes left before the fsync covering them"
                );
            }
        }
        self.bytes.extend_from_slice(buf);
        self.writes += 1;
        self.max_write = self.max_write.max(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn counter(shards: &ShardSet, i: usize) -> (u64, u64) {
    let g = shards.lock(i);
    (
        g.metrics.journal_appends_total.get(),
        g.metrics.journal_fsyncs_total.get(),
    )
}

#[test]
fn no_response_byte_leaves_before_its_fsync() {
    let shards = shardset(2);
    let dir = state_dir("oracle");
    shards.open_state_dir(&dir, 64, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(120).seed(9).run();
    let script = replay_script(&live, 2);
    assert!(
        script.contains("\"predict\""),
        "the script carries predicts"
    );
    let mut sink = DurableSink {
        shards: &shards,
        bytes: Vec::new(),
        writes: 0,
        max_write: 0,
    };
    let input = Chunked {
        inner: Cursor::new(script.clone()),
        chunk: 1500,
    };
    let handled = run_session(&shards, input, &mut sink, 32).unwrap();
    assert_eq!(handled as usize, script.lines().count());
    let text = String::from_utf8(std::mem::take(&mut sink.bytes)).unwrap();
    assert_eq!(text.lines().count(), script.lines().count());
    assert!(!text.contains("\"ok\":false"), "{text}");
    assert!(sink.writes > 10, "many windows: {} writes", sink.writes);
    for i in 0..shards.len() {
        let (appends, fsyncs) = counter(&shards, i);
        assert!(
            fsyncs < appends,
            "shard {i}: group commit took {fsyncs} fsyncs for {appends} appends"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_burst_in_one_read_costs_one_fsync_per_shard() {
    let shards = shardset(2);
    let dir = state_dir("burst");
    shards.open_state_dir(&dir, 0, false).unwrap();
    let live = SimulationBuilder::anvil_like().jobs(40).seed(9).run();
    let burst: String = replay_script(&live, 0)
        .lines()
        .filter(|l| l.contains("\"event\":\"submit\""))
        .take(16)
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(burst.len() < 8 * 1024, "the burst fits one buffered read");
    let mut out = Vec::new();
    run_session(&shards, Cursor::new(burst), &mut out, 32).unwrap();
    assert_eq!(String::from_utf8(out).unwrap().lines().count(), 16);
    for i in 0..shards.len() {
        let (appends, fsyncs) = counter(&shards, i);
        assert_eq!(appends, 16, "shard {i} journaled the burst");
        assert!(fsyncs <= 1, "shard {i}: {fsyncs} fsyncs for one burst");
    }
    let m = shards.metrics_json();
    let counters = m.get("counters").unwrap();
    assert_eq!(
        counters.get("journal_fsyncs"),
        Some(&trout_std::json::Json::Int(2)),
        "the merged dump counts one fsync per shard"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_predicts_never_grow_the_egress_buffer_past_its_cap() {
    let shards = shardset(1);
    let live = SimulationBuilder::anvil_like().jobs(40).seed(9).run();
    let mut script = String::new();
    let rec = &live.records[0];
    script.push_str(&trout_serve::protocol::submit_line(rec));
    script.push('\n');
    // One client firing predicts back to back without reading a single
    // answer: every read finds more requests queued behind the last.
    let predict = format!(
        "{{\"event\":\"predict\",\"id\":{},\"time\":{}}}\n",
        rec.id, rec.submit_time
    );
    for _ in 0..3_000 {
        script.push_str(&predict);
    }
    let mut sink = DurableSink {
        shards: &shards,
        bytes: Vec::new(),
        writes: 0,
        max_write: 0,
    };
    run_session(&shards, Cursor::new(script), &mut sink, 64).unwrap();
    assert_eq!(String::from_utf8_lossy(&sink.bytes).lines().count(), 3_001);
    assert!(
        sink.bytes.len() > 8 * EGRESS_CAP,
        "enough output to overflow the cap many times"
    );
    assert!(
        sink.max_write <= EGRESS_CAP,
        "a {} B write means the egress buffer outgrew its {EGRESS_CAP} B cap",
        sink.max_write
    );
}

/// Over TCP: once a client holds the ack of every line it sent, every
/// journal is synced up to its position — the ack could not have left
/// before the fsync. Checked while the session is still open, before the
/// clean-shutdown sync could cover for a missing commit.
#[test]
fn tcp_acks_are_durable_before_they_leave() {
    let live = SimulationBuilder::anvil_like().jobs(60).seed(9).run();
    let script: Vec<String> = replay_script(&live, 2)
        .lines()
        .filter(|l| !l.contains("\"metrics\"") && !l.contains("\"shutdown\""))
        .map(str::to_string)
        .collect();
    let shards = Arc::new(shardset(2));
    let dir = state_dir("tcp");
    shards.open_state_dir(&dir, 0, false).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let shards = Arc::clone(&shards);
        std::thread::spawn(move || run_tcp(shards, listener, 32, Some(1)).unwrap())
    };
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    for window in script.chunks(32) {
        let burst: String = window.iter().map(|l| format!("{l}\n")).collect();
        conn.write_all(burst.as_bytes()).unwrap();
        for _ in window {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    }
    for i in 0..shards.len() {
        let g = shards.lock(i);
        assert_eq!(
            g.journal_synced(),
            Some(g.journal_position()),
            "shard {i}: an ack left before its fsync"
        );
        assert!(
            g.metrics.journal_fsyncs_total.get() < g.metrics.journal_appends_total.get(),
            "shard {i}: no group commit"
        );
    }
    conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("shutdown"), "{line}");
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
