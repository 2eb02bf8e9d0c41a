//! Journal streaming replication: leader → follower log shipping with hot
//! standby and promotion (DESIGN §15).
//!
//! The write-ahead journal is the replication stream. A leader running with
//! `--state-dir` journals every accepted event *before* acknowledging it
//! ([`crate::journal`]); the replication listener tails those per-shard
//! journal files and ships each durable entry — the raw ndjson line, at its
//! absolute position — to every connected follower. Entries past a shard's
//! synced watermark are written but not yet fsynced (their acks wait for
//! the group commit), so the streamer holds them back until the commit
//! lands: a follower never holds an entry the leader could lose to power
//! loss. A follower replays entries through the same entry point crash
//! recovery uses ([`crate::recover`]'s `apply_event_line`) with its *own*
//! durability armed, so each entry re-journals into the follower's journal
//! at the same absolute position. The follower applies every complete
//! message already buffered, then group-commits — one fsync per touched
//! shard — before it acks: the follower's state dir is a valid
//! crash-recovery dir at all times, and `state_to_json` at watermark `W` is
//! byte-equal to the leader's at `W` (the same argument as recovery
//! bit-identity).
//!
//! **Wire grammar** (one JSON object per line, `repl` keyed):
//!
//! ```text
//! follower → leader   {"repl":"hello","shards":N,"watermarks":[w0,…],"tails":[t0,…]}
//! leader  → follower  {"repl":"snapshot","shard":S,"pos":P,"state":{…}}
//! leader  → follower  {"repl":"entry","shard":S,"pos":P,"line":"{…}"}
//! follower → leader   {"repl":"ack","shard":S,"watermark":W}
//! leader  → follower  {"repl":"error","reason":"…","detail":"…"}
//! ```
//!
//! The hello carries the follower's per-shard absolute watermarks plus the
//! last entry line it holds per shard. The leader resumes streaming at each
//! watermark after checking that last line against its own journal at the
//! same absolute position — a follower whose history diverged (it followed
//! a different leader, or was promoted and took writes) is refused with a
//! typed `diverged` error rather than silently corrupted. A follower whose
//! watermark has fallen behind the leader's compaction base catches up from
//! the leader's snapshot (installed at its watermark) plus the remaining
//! journal tail.
//!
//! **Promotion.** `{"event":"promote"}` on the follower's client port sets a
//! flag the follower loop polls; it drains the stream, disconnects, and
//! lifts the read-only gate. The divergence window is bounded by what the
//! dead leader acknowledged after the follower's last received entry —
//! entries are streamed in ack order, so the follower's state at its
//! watermark is exactly the leader's state at that watermark.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use trout_core::TroutError;
use trout_std::fsio::read_complete_lines;
use trout_std::json::Json;

use crate::journal::{parse_base_line, JOURNAL_FILE, SNAPSHOT_FILE};
use crate::metrics::ServeMetrics;
use crate::recover::apply_event_line;
use crate::server::{AcceptBackoff, ConnThreads};
use crate::shard::{shard_dir, ShardSet};

/// Leader poll interval for new journal lines (the stream latency floor).
const TAIL_POLL_MS: u64 = 20;

/// Follower read timeout — the promote-poll cadence while the stream idles.
const FOLLOW_READ_TIMEOUT_MS: u64 = 25;

/// Follower stream read buffer: a catch-up burst applies up to this much
/// buffered stream per group commit.
const FOLLOW_READ_BUF: usize = 64 * 1024;

/// Follower reconnect delay after losing the leader.
const RECONNECT_MS: u64 = 200;

// ---------------------------------------------------------------------------
// Wire grammar.
// ---------------------------------------------------------------------------

/// One parsed replication-stream message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMessage {
    /// Follower's opener: shard count, per-shard absolute watermarks, and
    /// the last entry line it holds per shard (`""` when none survives
    /// locally — empty journal, or compacted up to the watermark).
    Hello {
        shards: usize,
        watermarks: Vec<u64>,
        tails: Vec<String>,
    },
    /// Leader ships its snapshot for one shard; the follower installs it at
    /// absolute position `pos` and resumes entry replay from there.
    Snapshot { shard: usize, pos: u64, state: Json },
    /// One acknowledged journal entry: the raw journal line for `shard` at
    /// absolute position `pos`.
    Entry {
        shard: usize,
        pos: u64,
        line: String,
    },
    /// Follower reports it has durably applied `shard` up to `watermark`.
    Ack { shard: usize, watermark: u64 },
    /// Terminal refusal (`reason` = `diverged`, `shard_mismatch`, …).
    Error { reason: String, detail: String },
}

fn obj(members: Vec<(&str, Json)>) -> String {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_string()
}

/// Renders the follower hello line.
pub fn hello_line(shards: usize, watermarks: &[u64], tails: &[String]) -> String {
    obj(vec![
        ("repl", Json::Str("hello".into())),
        ("shards", Json::Int(shards as i128)),
        (
            "watermarks",
            Json::Arr(watermarks.iter().map(|&w| Json::Int(w as i128)).collect()),
        ),
        (
            "tails",
            Json::Arr(tails.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
    ])
}

/// Renders a snapshot-install line.
pub fn snapshot_line(shard: usize, pos: u64, state: &Json) -> String {
    obj(vec![
        ("repl", Json::Str("snapshot".into())),
        ("shard", Json::Int(shard as i128)),
        ("pos", Json::Int(pos as i128)),
        ("state", state.clone()),
    ])
}

/// Renders one streamed journal entry (the raw line rides as a JSON string,
/// so framing survives any byte the journal grammar can produce).
pub fn entry_line(shard: usize, pos: u64, line: &str) -> String {
    obj(vec![
        ("repl", Json::Str("entry".into())),
        ("shard", Json::Int(shard as i128)),
        ("pos", Json::Int(pos as i128)),
        ("line", Json::Str(line.to_string())),
    ])
}

/// Renders a follower ack.
pub fn ack_line(shard: usize, watermark: u64) -> String {
    obj(vec![
        ("repl", Json::Str("ack".into())),
        ("shard", Json::Int(shard as i128)),
        ("watermark", Json::Int(watermark as i128)),
    ])
}

/// Renders a terminal refusal.
pub fn error_line(reason: &str, detail: &str) -> String {
    obj(vec![
        ("repl", Json::Str("error".into())),
        ("reason", Json::Str(reason.into())),
        ("detail", Json::Str(detail.into())),
    ])
}

fn get_u64(j: &Json, key: &str) -> Result<u64, TroutError> {
    match j.get(key) {
        Some(Json::Int(v)) if *v >= 0 => Ok(*v as u64),
        other => Err(TroutError::Protocol(format!(
            "replication: `{key}` must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn get_str(j: &Json, key: &str) -> Result<String, TroutError> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        other => Err(TroutError::Protocol(format!(
            "replication: `{key}` must be a string, got {other:?}"
        ))),
    }
}

/// Parses one replication-stream line.
pub fn parse_repl_line(line: &str) -> Result<ReplMessage, TroutError> {
    let j = Json::parse(line)
        .map_err(|e| TroutError::Protocol(format!("replication: bad line {line:?}: {e}")))?;
    let kind = get_str(&j, "repl")?;
    match kind.as_str() {
        "hello" => {
            let shards = get_u64(&j, "shards")? as usize;
            let arr_of = |key: &str| -> Result<Vec<Json>, TroutError> {
                match j.get(key) {
                    Some(Json::Arr(v)) => Ok(v.clone()),
                    other => Err(TroutError::Protocol(format!(
                        "replication: hello `{key}` must be an array, got {other:?}"
                    ))),
                }
            };
            let watermarks = arr_of("watermarks")?
                .iter()
                .map(|v| match v {
                    Json::Int(w) if *w >= 0 => Ok(*w as u64),
                    other => Err(TroutError::Protocol(format!(
                        "replication: bad watermark {other:?}"
                    ))),
                })
                .collect::<Result<Vec<u64>, TroutError>>()?;
            let tails = arr_of("tails")?
                .iter()
                .map(|v| match v {
                    Json::Str(s) => Ok(s.clone()),
                    other => Err(TroutError::Protocol(format!(
                        "replication: bad tail {other:?}"
                    ))),
                })
                .collect::<Result<Vec<String>, TroutError>>()?;
            if watermarks.len() != shards || tails.len() != shards {
                return Err(TroutError::Protocol(format!(
                    "replication: hello claims {shards} shards but carries {} watermarks \
                     and {} tails",
                    watermarks.len(),
                    tails.len()
                )));
            }
            Ok(ReplMessage::Hello {
                shards,
                watermarks,
                tails,
            })
        }
        "snapshot" => Ok(ReplMessage::Snapshot {
            shard: get_u64(&j, "shard")? as usize,
            pos: get_u64(&j, "pos")?,
            state: j
                .get("state")
                .cloned()
                .ok_or_else(|| TroutError::Protocol("replication: snapshot has no state".into()))?,
        }),
        "entry" => Ok(ReplMessage::Entry {
            shard: get_u64(&j, "shard")? as usize,
            pos: get_u64(&j, "pos")?,
            line: get_str(&j, "line")?,
        }),
        "ack" => Ok(ReplMessage::Ack {
            shard: get_u64(&j, "shard")? as usize,
            watermark: get_u64(&j, "watermark")?,
        }),
        "error" => Ok(ReplMessage::Error {
            reason: get_str(&j, "reason")?,
            detail: get_str(&j, "detail").unwrap_or_default(),
        }),
        other => Err(TroutError::Protocol(format!(
            "replication: unknown message kind `{other}`"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Journal-file tailing (shared by the leader streamer and the follower's
// hello construction).
// ---------------------------------------------------------------------------

/// Reads one shard's journal file: `(base, entry lines)`. Absolute position
/// of `entries[k]` is `base + k`. `(0, [])` when the file does not exist yet.
fn read_journal(state_dir: &Path, shard: usize) -> std::io::Result<(u64, Vec<String>)> {
    let path = shard_dir(state_dir, shard).join(JOURNAL_FILE);
    if !path.exists() {
        return Ok((0, Vec::new()));
    }
    let (mut lines, _torn) = read_complete_lines(&path)?;
    let base = match lines.first().and_then(|l| parse_base_line(l)) {
        Some(b) => {
            lines.remove(0);
            b
        }
        None => 0,
    };
    Ok((base, lines))
}

/// Reads one shard's snapshot file: `(journal_pos, state)`.
fn read_snapshot(state_dir: &Path, shard: usize) -> Result<(u64, Json), TroutError> {
    let path = shard_dir(state_dir, shard).join(SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        TroutError::Config(format!(
            "replication: follower is behind the compaction base but the leader \
             has no snapshot at {}: {e}",
            path.display()
        ))
    })?;
    let snap = Json::parse(&text)?;
    let pos = get_u64(&snap, "journal_pos")?;
    let state = snap
        .get("state")
        .cloned()
        .ok_or_else(|| TroutError::Config("replication: snapshot has no `state`".into()))?;
    Ok((pos, state))
}

/// The per-shard hello payload read from a state dir: absolute watermarks
/// and last-held entry lines.
pub fn local_journal_tails(
    state_dir: &Path,
    n_shards: usize,
) -> std::io::Result<(Vec<u64>, Vec<String>)> {
    let mut watermarks = Vec::with_capacity(n_shards);
    let mut tails = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let (base, lines) = read_journal(state_dir, i)?;
        watermarks.push(base + lines.len() as u64);
        tails.push(lines.last().cloned().unwrap_or_default());
    }
    Ok((watermarks, tails))
}

// ---------------------------------------------------------------------------
// Leader: replication listener + per-follower streamer.
// ---------------------------------------------------------------------------

/// A running leader-side replication listener. Dropping it does **not**
/// stop the threads — call [`ReplicationListener::stop`] (tests use it to
/// kill the leader abruptly: follower streams are dropped mid-flight, which
/// is indistinguishable on the follower side from `kill -9`).
pub struct ReplicationListener {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    addr: std::net::SocketAddr,
}

impl ReplicationListener {
    /// The bound address (for `--replicate-listen 127.0.0.1:0` in tests).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the acceptor and every follower stream (connections drop
    /// without goodbye) and waits for their threads to end.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

/// Spawns the leader's replication listener: accepts follower connections
/// on `listener` and streams each shard's journal (tailed from
/// `state_dir/shard-NNN/journal.ndjson`) to every follower. The journal
/// file *is* the handoff: the streaming path reads a shard's synced
/// watermark once per tail poll and otherwise locks no engine.
///
/// The acceptor shares [`run_tcp`](crate::run_tcp)'s accept policy: stream
/// threads go through [`ConnThreads`] (its live count is every shard's
/// `replication_followers` gauge) and accept errors through
/// [`AcceptBackoff`], so a broken listener ends the acceptor instead of
/// retrying forever. The listener is nonblocking only so the acceptor can
/// notice [`ReplicationListener::stop`].
pub fn spawn_replication_listener(
    shards: Arc<ShardSet>,
    state_dir: PathBuf,
    listener: TcpListener,
) -> std::io::Result<ReplicationListener> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let accept_stop = Arc::clone(&stop);
    let metrics: Arc<Vec<ServeMetrics>> = Arc::new(
        (0..shards.len())
            .map(|i| shards.lock(i).metrics.clone())
            .collect(),
    );
    let handle = std::thread::spawn(move || {
        let mut streams = {
            let metrics = Arc::clone(&metrics);
            ConnThreads::new(move |n| {
                for m in metrics.iter() {
                    m.replication_followers.set(n as f64);
                }
            })
        };
        let mut backoff = AcceptBackoff::default();
        while !accept_stop.load(Ordering::SeqCst) {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(TAIL_POLL_MS));
                    continue;
                }
                Err(e) => match backoff.on_error(&metrics[0], e) {
                    Ok(()) => continue,
                    // Fatal, and already logged: stop accepting, keep
                    // serving the followers already connected.
                    Err(_) => break,
                },
            };
            backoff.on_success(&metrics[0]);
            trout_obs::log_info!("serve", "replication follower connected from {peer}");
            let shards = Arc::clone(&shards);
            let dir = state_dir.clone();
            let stop = Arc::clone(&accept_stop);
            let metrics = Arc::clone(&metrics);
            streams.spawn(move || {
                if let Err(e) = stream_to_follower(&shards, &dir, &metrics, stream, &stop) {
                    trout_obs::log_warn!("serve", "replication stream to {peer} ended: {e}");
                }
            });
        }
        streams.drain();
    });
    Ok(ReplicationListener { stop, handle, addr })
}

/// Serves one follower connection to completion: hello → divergence check →
/// snapshot catch-up where needed → tail loop (ship new entries, drain acks,
/// raise the lag peak) until the follower disconnects or the hub stops.
fn stream_to_follower(
    shards: &ShardSet,
    state_dir: &Path,
    metrics: &[ServeMetrics],
    stream: TcpStream,
    stop: &AtomicBool,
) -> Result<(), TroutError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let n = shards.len();

    let mut hello = String::new();
    reader.read_line(&mut hello)?;
    let (watermarks, tails) = match parse_repl_line(hello.trim_end())? {
        ReplMessage::Hello {
            shards: follower_shards,
            watermarks,
            tails,
        } => {
            if follower_shards != n {
                let detail = format!("leader runs {n} shards, follower runs {follower_shards}");
                writeln!(writer, "{}", error_line("shard_mismatch", &detail))?;
                writer.flush()?;
                return Err(TroutError::Config(format!("replication: {detail}")));
            }
            (watermarks, tails)
        }
        other => {
            return Err(TroutError::Protocol(format!(
                "replication: expected hello, got {other:?}"
            )))
        }
    };

    // Divergence check: the follower's last-held line must be *our* line at
    // the same absolute position. A mismatch means its history came from a
    // different lineage (another leader, or writes taken after a promote) —
    // streaming onto it would corrupt it, so refuse.
    for i in 0..n {
        let (base, lines) = read_journal(state_dir, i)?;
        let w = watermarks[i];
        let leader_w = base + lines.len() as u64;
        let mismatch = if w > leader_w {
            Some(format!(
                "shard {i}: follower watermark {w} is ahead of leader watermark {leader_w}"
            ))
        } else if w > base && !tails[i].is_empty() {
            let ours = &lines[(w - 1 - base) as usize];
            (ours != &tails[i]).then(|| {
                format!(
                    "shard {i}: journal line at position {} differs between leader and follower",
                    w - 1
                )
            })
        } else {
            None
        };
        if let Some(detail) = mismatch {
            writeln!(writer, "{}", error_line("diverged", &detail))?;
            writer.flush()?;
            return Err(TroutError::Config(format!(
                "replication: diverged: {detail}"
            )));
        }
    }

    // Stream loop. `cursors[i]` = next absolute position to ship.
    let stream_id = shards.follower_streaming(watermarks.clone());
    let _registered = FollowerGone(shards, stream_id);
    let mut cursors = watermarks;
    let mut acked = cursors.clone();
    stream.set_read_timeout(Some(Duration::from_millis(1)))?;
    let mut pending = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(()); // Dropped without goodbye — like a dead leader.
        }
        let mut idle = true;
        for i in 0..n {
            // Read the synced watermark before the file: every line below
            // it is already on disk, and lines past it are not shipped yet.
            let synced = shards.synced_watermark(i);
            let (base, lines) = read_journal(state_dir, i)?;
            let file_w = base + lines.len() as u64;
            let leader_w = synced.map_or(file_w, |w| w.min(file_w));
            if cursors[i] < base {
                // The entries the follower needs were compacted away:
                // catch it up from the snapshot that covered them.
                let (pos, state) = read_snapshot(state_dir, i)?;
                writeln!(writer, "{}", snapshot_line(i, pos, &state))?;
                cursors[i] = pos;
                idle = false;
                trout_obs::log_info!(
                    "serve",
                    "replication: shard {i} follower at {} behind compaction base {base}; \
                     shipped snapshot at {pos}",
                    acked[i]
                );
                continue;
            }
            while cursors[i] < leader_w {
                let line = &lines[(cursors[i] - base) as usize];
                writeln!(writer, "{}", entry_line(i, cursors[i], line))?;
                cursors[i] += 1;
                metrics[i].replication_streamed_total.inc();
                idle = false;
            }
            // The lag gauge itself is computed from the acks at each
            // metrics dump; the pass only raises the peak between dumps.
            let lag = leader_w.saturating_sub(acked[i]) as f64;
            metrics[i].replication_lag_peak_events.set_max(lag);
        }
        writer.flush()?;

        // Drain acks without blocking the tail loop (1 ms read timeout; a
        // line torn by the timeout stays in `pending` until complete).
        loop {
            match reader.read_line(&mut pending) {
                Ok(0) => return Ok(()), // follower disconnected
                Ok(_) if pending.ends_with('\n') => {
                    let msg = parse_repl_line(pending.trim_end())?;
                    pending.clear();
                    if let ReplMessage::Ack { shard, watermark } = msg {
                        if shard < n {
                            acked[shard] = acked[shard].max(watermark);
                            shards.follower_acked(stream_id, shard, watermark);
                        }
                    }
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) => return Err(e.into()),
            }
        }
        if idle {
            std::thread::sleep(Duration::from_millis(TAIL_POLL_MS));
        }
    }
}

/// Unregisters a follower stream however its loop ends.
struct FollowerGone<'a>(&'a ShardSet, u64);

impl Drop for FollowerGone<'_> {
    fn drop(&mut self) {
        self.0.follower_gone(self.1);
    }
}

// ---------------------------------------------------------------------------
// Follower.
// ---------------------------------------------------------------------------

/// Why one follow attempt returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FollowOutcome {
    /// Promotion was requested; the caller lifts the read-only gate.
    Promoted,
    /// The leader went away (EOF, reset, connect refused); retry later.
    Disconnected,
}

/// Runs the follower loop until promoted: connect to the leader, stream,
/// reconnect on loss, and poll for promotion throughout — a follower whose
/// leader is dead **must** still be promotable. The read-only gate is set on
/// entry and lifted only by promotion. Divergence refusals are fatal (the
/// state dirs genuinely disagree; resolving that is an operator decision).
pub fn run_follower(
    shards: &Arc<ShardSet>,
    state_dir: &Path,
    leader_addr: &str,
) -> Result<(), TroutError> {
    shards.set_read_only(true);
    loop {
        if shards.promote_requested() {
            return promote(shards);
        }
        match follow_once(shards, state_dir, leader_addr) {
            Ok(FollowOutcome::Promoted) => return promote(shards),
            Ok(FollowOutcome::Disconnected) => {
                std::thread::sleep(Duration::from_millis(RECONNECT_MS));
            }
            Err(e) => {
                trout_obs::log_error!("serve", "replication follower stopping: {e}");
                return Err(e);
            }
        }
    }
}

/// Completes a promotion: syncs the journals (the follower's state dir is
/// now the authoritative one) and lifts the read-only gate.
fn promote(shards: &ShardSet) -> Result<(), TroutError> {
    shards.sync_journals()?;
    shards.set_read_only(false);
    trout_obs::log_info!(
        "serve",
        "promoted to leader at watermarks {:?}",
        shards.journal_watermarks()
    );
    Ok(())
}

/// One connection's worth of following. Transport losses map to
/// `Ok(Disconnected)`; protocol refusals (diverged, shard mismatch) and
/// corrupt streams are `Err`.
fn follow_once(
    shards: &Arc<ShardSet>,
    state_dir: &Path,
    leader_addr: &str,
) -> Result<FollowOutcome, TroutError> {
    let stream = match TcpStream::connect(leader_addr) {
        Ok(s) => s,
        Err(e) => {
            trout_obs::log_warn!("serve", "replication connect to {leader_addr} failed: {e}");
            return Ok(FollowOutcome::Disconnected);
        }
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(FOLLOW_READ_TIMEOUT_MS)))?;
    let n = shards.len();
    let (watermarks, tails) = local_journal_tails(state_dir, n)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    writeln!(writer, "{}", hello_line(n, &watermarks, &tails))?;
    writer.flush()?;
    trout_obs::log_info!(
        "serve",
        "following {leader_addr} from watermarks {watermarks:?}"
    );

    let mut reader = BufReader::with_capacity(FOLLOW_READ_BUF, stream);
    let mut acked = watermarks;
    let mut pending = String::new();
    loop {
        if shards.promote_requested() {
            return Ok(FollowOutcome::Promoted);
        }
        // Apply the next message (waiting at most the read timeout for it)
        // and every complete message already buffered behind it.
        loop {
            match reader.read_line(&mut pending) {
                Ok(0) => return Ok(FollowOutcome::Disconnected),
                Ok(_) if pending.ends_with('\n') => {
                    let msg = parse_repl_line(pending.trim_end())?;
                    pending.clear();
                    apply_stream_message(shards, msg)?;
                }
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(_) => return Ok(FollowOutcome::Disconnected),
            }
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
        // Group commit, then ack whatever moved: one fsync per touched
        // shard covers the whole batch, and acks still follow durability.
        shards.commit();
        for i in 0..n {
            let w = shards.lock(i).journal_position();
            if w > acked[i] {
                writeln!(writer, "{}", ack_line(i, w))?;
                acked[i] = w;
            }
        }
        writer.flush()?;
    }
}

/// Applies one leader message to the follower's shards (entries re-journal
/// locally; the caller commits before acking).
fn apply_stream_message(shards: &ShardSet, msg: ReplMessage) -> Result<(), TroutError> {
    let n = shards.len();
    match msg {
        ReplMessage::Entry { shard, pos, line } => {
            if shard >= n {
                return Err(TroutError::Protocol(format!(
                    "replication: entry for shard {shard} of {n}"
                )));
            }
            let mut g = shards.lock(shard);
            let cur = g.journal_position();
            if pos < cur {
                return Ok(()); // Duplicate after a reconnect replayed overlap.
            }
            if pos > cur {
                return Err(TroutError::Protocol(format!(
                    "replication: shard {shard} entry at {pos} but follower is at {cur} \
                     — stream gap"
                )));
            }
            // Applies through the shared recovery entry point with this
            // follower's durability armed: the entry re-journals locally at
            // the same absolute position before it is acked.
            apply_event_line(&mut g, &line)?;
            g.metrics.replication_applied_total.inc();
        }
        ReplMessage::Snapshot { shard, pos, state } => {
            if shard >= n {
                return Err(TroutError::Protocol(format!(
                    "replication: snapshot for shard {shard} of {n}"
                )));
            }
            shards.lock(shard).install_snapshot(&state, pos)?;
            trout_obs::log_info!(
                "serve",
                "replication: installed leader snapshot for shard {shard} at {pos}"
            );
        }
        ReplMessage::Error { reason, detail } => {
            return Err(TroutError::Config(format!(
                "replication: leader refused: {reason}: {detail}"
            )));
        }
        other => {
            return Err(TroutError::Protocol(format!(
                "replication: unexpected message {other:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_grammar_round_trips() {
        let hello = hello_line(2, &[3, 7], &["{\"event\":\"end\"}".into(), String::new()]);
        match parse_repl_line(&hello).unwrap() {
            ReplMessage::Hello {
                shards,
                watermarks,
                tails,
            } => {
                assert_eq!(shards, 2);
                assert_eq!(watermarks, vec![3, 7]);
                assert_eq!(tails[0], "{\"event\":\"end\"}");
                assert_eq!(tails[1], "");
            }
            other => panic!("{other:?}"),
        }

        // The embedded raw line survives quoting (it is itself JSON).
        let raw = "{\"event\":\"submit\",\"id\":9,\"name\":\"a \\\"b\\\"\"}";
        let entry = entry_line(1, 42, raw);
        match parse_repl_line(&entry).unwrap() {
            ReplMessage::Entry { shard, pos, line } => {
                assert_eq!((shard, pos), (1, 42));
                assert_eq!(line, raw);
            }
            other => panic!("{other:?}"),
        }

        match parse_repl_line(&ack_line(0, 99)).unwrap() {
            ReplMessage::Ack { shard, watermark } => assert_eq!((shard, watermark), (0, 99)),
            other => panic!("{other:?}"),
        }

        match parse_repl_line(&error_line("diverged", "shard 0")).unwrap() {
            ReplMessage::Error { reason, detail } => {
                assert_eq!(reason, "diverged");
                assert_eq!(detail, "shard 0");
            }
            other => panic!("{other:?}"),
        }

        let snap = snapshot_line(0, 5, &Json::Obj(vec![("k".into(), Json::Int(1))]));
        match parse_repl_line(&snap).unwrap() {
            ReplMessage::Snapshot { shard, pos, state } => {
                assert_eq!((shard, pos), (0, 5));
                assert_eq!(state.get("k"), Some(&Json::Int(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_repl_lines_are_refused() {
        assert!(parse_repl_line("not json").is_err());
        assert!(
            parse_repl_line("{\"event\":\"submit\"}").is_err(),
            "no repl key"
        );
        assert!(
            parse_repl_line("{\"repl\":\"warp\"}").is_err(),
            "unknown kind"
        );
        // Hello with inconsistent array lengths.
        assert!(parse_repl_line(
            "{\"repl\":\"hello\",\"shards\":2,\"watermarks\":[1],\"tails\":[]}"
        )
        .is_err());
        // Negative positions are refused, not wrapped.
        assert!(parse_repl_line("{\"repl\":\"ack\",\"shard\":0,\"watermark\":-1}").is_err());
    }

    #[test]
    fn journal_tails_read_base_and_last_line() {
        let dir = std::env::temp_dir().join(format!("trout-repl-tails-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard0 = shard_dir(&dir, 0);
        std::fs::create_dir_all(&shard0).unwrap();
        std::fs::write(
            shard0.join(JOURNAL_FILE),
            "{\"event\":\"journal_base\",\"pos\":4}\n{\"event\":\"end\",\"id\":1,\"time\":2}\n",
        )
        .unwrap();
        let (w, t) = local_journal_tails(&dir, 1).unwrap();
        assert_eq!(w, vec![5], "base 4 + one entry line");
        assert_eq!(t[0], "{\"event\":\"end\",\"id\":1,\"time\":2}");
        // A shard dir that does not exist yet reports watermark 0.
        let (w, t) = local_journal_tails(&dir, 2).unwrap();
        assert_eq!(w, vec![5, 0]);
        assert_eq!(t[1], "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
