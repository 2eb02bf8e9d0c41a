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
//! crash-recovery dir at all times, and the state text at watermark `W` is
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

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use trout_core::TroutError;
use trout_std::json::Json;

use crate::journal::{read_base_header, JOURNAL_FILE, SNAPSHOT_FILE};
use crate::metrics::ServeMetrics;
use crate::recover::apply_event_line;
use crate::server::{AcceptBackoff, ConnThreads};
use crate::shard::{shard_dir, ShardSet};

/// Leader poll interval for new journal lines (the stream latency floor).
const TAIL_POLL_MS: u64 = 20;

/// Bytes the journal tail reads per chunk.
const TAIL_CHUNK: u64 = 64 * 1024;

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

/// A read cursor over one shard's journal file. Each pass reads only the
/// bytes past the cursor, in bounded chunks, and decodes only complete
/// lines (a torn tail is never decoded): a pass with nothing new costs O(1)
/// in journal length.
struct JournalTail {
    path: PathBuf,
    /// Base of the file the cursor points into; `None` before the first
    /// pass.
    base: Option<u64>,
    /// Byte length of that file's base control line (0 without one).
    header: u64,
    /// Byte offset of the line at `pos`.
    offset: u64,
    /// Absolute position of the next line the cursor reads.
    pos: u64,
    /// Read buffer, reused across passes.
    buf: Vec<u8>,
}

impl JournalTail {
    fn new(state_dir: &Path, shard: usize) -> JournalTail {
        JournalTail {
            path: shard_dir(state_dir, shard).join(JOURNAL_FILE),
            base: None,
            header: 0,
            offset: 0,
            pos: 0,
            buf: Vec::new(),
        }
    }

    /// Opens the journal for one pass and returns it with its base; `None`
    /// while the file does not exist. A file with another base than the
    /// last pass saw (compaction replaced it), or shorter than the cursor's
    /// offset, restarts the cursor at its first entry.
    fn open(&mut self) -> std::io::Result<Option<(File, u64)>> {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let (base, header) = read_base_header(&file)?;
        if self.base != Some(base) || file.metadata()?.len() < self.offset {
            self.base = Some(base);
            self.header = header;
            self.offset = header;
            self.pos = base;
        }
        Ok(Some((file, base)))
    }

    /// Reads complete lines while `pos < limit`, handing each to `line`
    /// with its absolute position. Stops at the end of the complete lines.
    fn advance(
        &mut self,
        file: &mut File,
        limit: u64,
        mut line: impl FnMut(u64, &str) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        file.seek(SeekFrom::Start(self.offset))?;
        self.buf.clear();
        let mut start = 0;
        while self.pos < limit {
            match self.buf[start..].iter().position(|&b| b == b'\n') {
                Some(len) => {
                    let text = std::str::from_utf8(&self.buf[start..start + len])
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                    line(self.pos, text)?;
                    start += len + 1;
                    self.offset += len as u64 + 1;
                    self.pos += 1;
                }
                None => {
                    self.buf.drain(..start);
                    start = 0;
                    if (&mut *file).take(TAIL_CHUNK).read_to_end(&mut self.buf)? == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Moves the cursor to absolute position `target`: back to the file's
    /// first entry when it is past it, then forward without reading beyond
    /// the complete lines.
    fn seek(&mut self, file: &mut File, target: u64) -> std::io::Result<()> {
        if target < self.pos {
            self.offset = self.header;
            self.pos = self.base.unwrap_or(0);
        }
        self.advance(file, target, |_, _| Ok(()))
    }
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
        let mut tail = JournalTail::new(state_dir, i);
        let mut last = String::new();
        if let Some((mut file, _)) = tail.open()? {
            tail.advance(&mut file, u64::MAX, |_, line| {
                last.clear();
                last.push_str(line);
                Ok(())
            })?;
        }
        watermarks.push(tail.pos);
        tails.push(last);
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
    let (watermarks, tails_held) = match parse_repl_line(hello.trim_end())? {
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
    // streaming onto it would corrupt it, so refuse. The check scans each
    // journal once, up to that line, and leaves the cursor behind it.
    let mut tails: Vec<JournalTail> = (0..n).map(|i| JournalTail::new(state_dir, i)).collect();
    for (i, tail) in tails.iter_mut().enumerate() {
        let w = watermarks[i];
        let mut ours = None;
        let mut leader_w = 0;
        if let Some((mut file, base)) = tail.open()? {
            if w > base {
                tail.seek(&mut file, w - 1)?;
                tail.advance(&mut file, w, |_, line| {
                    ours = Some(line.to_string());
                    Ok(())
                })?;
            }
            leader_w = tail.pos;
        }
        let mismatch = if w > leader_w {
            Some(format!(
                "shard {i}: follower watermark {w} is ahead of leader watermark {leader_w}"
            ))
        } else if !tails_held[i].is_empty() && ours.is_some_and(|ours| ours != tails_held[i]) {
            Some(format!(
                "shard {i}: journal line at position {} differs between leader and follower",
                w - 1
            ))
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
        for (i, tail) in tails.iter_mut().enumerate() {
            // Read the synced watermark before the file: every line below
            // it is already on disk, and lines past it are not shipped yet.
            let synced = shards.synced_watermark(i);
            let Some((mut file, base)) = tail.open()? else {
                continue; // No journal yet: nothing to ship, no lag.
            };
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
            tail.seek(&mut file, cursors[i])?;
            if tail.pos == cursors[i] {
                let streamed = &metrics[i].replication_streamed_total;
                tail.advance(&mut file, synced.unwrap_or(u64::MAX), |pos, line| {
                    writeln!(writer, "{}", entry_line(i, pos, line))?;
                    streamed.inc();
                    Ok(())
                })?;
                idle &= tail.pos == cursors[i];
                cursors[i] = tail.pos;
            }
            // The cursor stops at the synced watermark or at the file's
            // last complete line, whichever comes first. The lag gauge
            // itself is computed from the acks at each metrics dump; the
            // pass only raises the peak between dumps.
            let leader_w = synced.map_or(tail.pos, |w| w.min(tail.pos));
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
    fn journal_tail_reads_only_new_complete_lines() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("trout-repl-cursor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(shard_dir(&dir, 0)).unwrap();
        let path = shard_dir(&dir, 0).join(JOURNAL_FILE);
        let append = |bytes: &[u8]| {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(bytes).unwrap();
        };
        let mut tail = JournalTail::new(&dir, 0);
        let pass = |tail: &mut JournalTail, limit: u64| {
            let mut got = Vec::new();
            let (mut file, _) = tail.open().unwrap().expect("journal exists");
            tail.advance(&mut file, limit, |pos, line| {
                got.push((pos, line.to_string()));
                Ok(())
            })
            .unwrap();
            got
        };
        let owned = |v: &[(u64, &str)]| -> Vec<(u64, String)> {
            v.iter().map(|&(p, l)| (p, l.to_string())).collect()
        };
        assert!(tail.open().unwrap().is_none(), "no journal yet");

        append(b"a\nb\n");
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[(0, "a"), (1, "b")]));
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[]), "nothing new");

        // A torn tail cut inside a multi-byte character is not decoded.
        append(b"c\nd");
        append(&"é".as_bytes()[..1]);
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[(2, "c")]));
        assert_eq!((tail.pos, tail.offset), (3, 6));

        // The limit (the synced watermark) holds later lines back.
        append(&"é".as_bytes()[1..]);
        append(b"\ne\n");
        assert_eq!(pass(&mut tail, 4), owned(&[(3, "dé")]));
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[(4, "e")]));

        // Compaction replaces the file: the cursor restarts at the entry
        // after the new base line.
        std::fs::write(&path, format!("{}\nf\n", crate::journal::base_line(5))).unwrap();
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[(5, "f")]));

        // Seeking backwards rescans from the file's first entry.
        append(b"g\n");
        let (mut file, _) = tail.open().unwrap().unwrap();
        tail.seek(&mut file, 5).unwrap();
        assert_eq!(pass(&mut tail, u64::MAX), owned(&[(5, "f"), (6, "g")]));
        let _ = std::fs::remove_dir_all(&dir);
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
