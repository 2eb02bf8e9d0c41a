//! The transports: line-delimited JSON over stdin/stdout or
//! thread-per-connection `std::net` TCP — one blocking session loop
//! ([`run_session`]) per client either way.
//!
//! Each session drives a [`RouterSession`] against a [`ShardSet`]. Predict
//! requests are **micro-batched**: they queue until a non-predict line
//! arrives, the batch cap is hit, or the reader's buffer drains (no complete
//! request line left — the client is waiting), then flush through one
//! `predict_batch` call per shard with queries routed by `hash(job_id) % N`.
//! Responses always come back in request order, one line per request.
//!
//! Responses leave through one **egress barrier** ([`egress`]): they collect
//! in a reused per-session buffer that is pushed with one write whenever the
//! reader drains, or earlier once it would pass [`EGRESS_CAP`]. Right before
//! the bytes go out, [`ShardSet::commit`] fsyncs every journal with unsynced
//! appends, so under `--fsync-every 1` no ack leaves before the fsync that
//! covers its event — one fsync per dirty shard per drained window instead
//! of one per event. Accepted sockets get `TCP_NODELAY`: the barrier
//! already coalesces a window into one write, so Nagle would only hold the
//! answer back for the client's delayed ACK.
//!
//! Sessions are fault-isolated from each other. Every engine lock goes
//! through the shard set's poison-recovering lock — one crashed session must
//! not take down every other session sharing the engines. A request line is
//! capped at [`LINE_MAX`] bytes, so a client streaming bytes without a
//! newline costs its session, not the daemon's memory. A client that stops
//! reading blocks only its own thread, in `write`, once the kernel's socket
//! buffers fill: that is the whole backpressure story. A session's terminal
//! error is recorded against shard 0's metrics by the session thread
//! itself, so client disconnects and half-open sockets show up in
//! `errors_by_class` rather than vanishing with the thread. Session threads
//! are tracked by [`ConnThreads`], which the replication listener shares.
//!
//! Accept errors are **classified**, not blanket-tolerated: fd exhaustion
//! (`EMFILE`/`ENFILE`) backs off exponentially with a counter + gauge —
//! spinning on an error the kernel will keep returning only burns the CPU
//! the stuck daemon needs to drain sessions — per-connection failures
//! (`ECONNABORTED`, …) skip just that connection, and anything else is a
//! broken listener and fatal.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use trout_core::TroutError;

use crate::metrics::ServeMetrics;
use crate::protocol::error_response;
use crate::router::{Flow, RouterSession, FLIGHT_DUMP_LAST};
use crate::shard::ShardSet;

/// Hard ceiling on coalesced batch size when the caller passes 0.
const DEFAULT_BATCH_MAX: usize = 64;

/// Egress buffer cap (bytes): a session's unsent responses are pushed once
/// the next one would pass it, so a client that pipelines without reading
/// holds the daemon to this much buffered output per session.
pub const EGRESS_CAP: usize = 16 * 1024;

/// The write side of the egress barrier: group-commits the journals before
/// every write reaches the client ([`ShardSet::commit`]).
pub struct CommitBarrier<'a, W> {
    shards: &'a ShardSet,
    out: W,
}

impl<W: Write> Write for CommitBarrier<'_, W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.shards.commit();
        self.out.write(bytes)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// A session's egress: responses buffer (at most [`EGRESS_CAP`] bytes, in
/// one buffer reused for the session's life) and go out through a
/// [`CommitBarrier`] on `flush` or when the buffer would overflow.
pub fn egress<W: Write>(shards: &ShardSet, out: W) -> BufWriter<CommitBarrier<'_, W>> {
    BufWriter::with_capacity(EGRESS_CAP, CommitBarrier { shards, out })
}

/// What one failed `accept(2)` means for the listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptDisposition {
    /// The would-be connection is gone (reset/aborted mid-handshake); skip
    /// it and accept the next one immediately.
    Transient,
    /// Resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`): retrying
    /// immediately returns the same error; back off and let sessions drain.
    Backoff,
    /// The listener itself is broken (bad fd, …); serving cannot continue.
    Fatal,
}

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
const ENOBUFS: i32 = 105;
const ENOMEM: i32 = 12;
const EPROTO: i32 = 71;

/// Classifies one accept error (see [`AcceptDisposition`]).
pub fn classify_accept_error(e: &std::io::Error) -> AcceptDisposition {
    match e.raw_os_error() {
        Some(EMFILE) | Some(ENFILE) | Some(ENOBUFS) | Some(ENOMEM) => AcceptDisposition::Backoff,
        Some(EPROTO) => AcceptDisposition::Transient,
        _ => match e.kind() {
            std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut => AcceptDisposition::Transient,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// Exponential accept backoff state shared by [`run_tcp`] and the
/// replication listener. Successful accepts reset it; `EMFILE`-class errors
/// double the delay (10 ms … 1 s), count it, and expose the current delay
/// as a gauge so an operator watching `trout_serve_accept_backoff_ms` sees
/// fd exhaustion as it happens rather than post-mortem from logs.
///
/// The per-retry delay is clamped at [`Self::MAX_MS`], and the *streak* —
/// total time slept across consecutive exhaustion errors — is tracked
/// against [`Self::STREAK_MAX_MS`]. Crossing that ceiling escalates the log
/// once per streak: sustained exhaustion for that long means an fd leak or
/// real overload, not a transient burst, and an operator should know the
/// listener has been effectively parked.
#[derive(Debug, Default)]
pub struct AcceptBackoff {
    delay_ms: u64,
    /// Total ms slept in the current uninterrupted streak of backoff errors.
    streak_ms: u64,
    /// Whether the streak-ceiling warning already fired for this streak.
    ceiling_warned: bool,
}

impl AcceptBackoff {
    const MIN_MS: u64 = 10;
    const MAX_MS: u64 = 1_000;
    /// Ceiling on cumulative consecutive backoff before the log escalates.
    const STREAK_MAX_MS: u64 = 30_000;

    /// Advances the state for one resource-exhaustion error: doubles and
    /// clamps the delay, accumulates the streak. Returns the delay to sleep
    /// and whether this step crossed the streak ceiling (true at most once
    /// per streak). Split from [`Self::on_error`] so tests can drive a long
    /// streak without actually sleeping through it.
    fn note_backoff(&mut self) -> (u64, bool) {
        self.delay_ms = (self.delay_ms * 2).clamp(Self::MIN_MS, Self::MAX_MS);
        self.streak_ms = self.streak_ms.saturating_add(self.delay_ms);
        let crossed = !self.ceiling_warned && self.streak_ms >= Self::STREAK_MAX_MS;
        if crossed {
            self.ceiling_warned = true;
        }
        (self.delay_ms, crossed)
    }

    /// Handles one accept error: sleeps (Backoff), skips (Transient), or
    /// returns the error (Fatal). Metrics go to `metrics` (shard 0's).
    pub fn on_error(
        &mut self,
        metrics: &ServeMetrics,
        e: std::io::Error,
    ) -> Result<(), TroutError> {
        match classify_accept_error(&e) {
            AcceptDisposition::Transient => {
                metrics.accept_transient_total.inc();
                trout_obs::log_warn!("serve", "transient accept error (continuing): {e}");
                Ok(())
            }
            AcceptDisposition::Backoff => {
                let (delay_ms, ceiling_crossed) = self.note_backoff();
                metrics.accept_backoffs_total.inc();
                metrics.accept_backoff_ms.set(delay_ms as f64);
                if ceiling_crossed {
                    trout_obs::log_warn!(
                        "serve",
                        "accept backoff has been continuous for {} ms \
                         (ceiling {} ms); holding retry delay at {} ms until an \
                         accept succeeds — likely fd leak or sustained overload ({e})",
                        self.streak_ms,
                        Self::STREAK_MAX_MS,
                        Self::MAX_MS
                    );
                } else {
                    trout_obs::log_warn!(
                        "serve",
                        "accept hit resource exhaustion ({e}); backing off {delay_ms} ms"
                    );
                }
                std::thread::sleep(Duration::from_millis(delay_ms));
                Ok(())
            }
            AcceptDisposition::Fatal => {
                trout_obs::log_error!("serve", "fatal listener error: {e}");
                Err(TroutError::Io(e))
            }
        }
    }

    /// Notes a successful accept: clears the backoff, the streak, and the
    /// gauge, re-arming the streak-ceiling warning for the next streak.
    pub fn on_success(&mut self, metrics: &ServeMetrics) {
        if self.delay_ms != 0 {
            self.delay_ms = 0;
            self.streak_ms = 0;
            self.ceiling_warned = false;
            metrics.accept_backoff_ms.set(0.0);
        }
    }
}

/// Longest request line a session accepts, in bytes before its newline. A
/// longer line ends the session with a `protocol` error: a client streaming
/// bytes without a newline would otherwise grow the line buffer until the
/// daemon runs out of memory. The cap counts bytes, so it may cut a
/// multi-byte character; the overflow is reported all the same.
pub const LINE_MAX: usize = 1 << 20;

/// Runs one client session to completion (EOF or `shutdown`). Returns the
/// number of request lines handled. Responses go to `out` through the
/// session's [`egress`] barrier. A line that is not UTF-8 is answered with
/// a `parse` error like any other malformed line, and the session goes on.
pub fn run_session<R: Read, W: Write>(
    shards: &ShardSet,
    input: R,
    out: W,
    batch_max: usize,
) -> Result<u64, TroutError> {
    let batch_max = if batch_max == 0 {
        DEFAULT_BATCH_MAX
    } else {
        batch_max
    };
    let mut reader = BufReader::new(input);
    let mut out = egress(shards, out);
    let mut line = Vec::new();
    let mut session = RouterSession::new(shards.len(), batch_max);
    let mut handled = 0u64;
    loop {
        line.clear();
        // Through `Take`, one read holds at most LINE_MAX bytes plus the
        // newline; a line that fills it without a newline is an overflow.
        let n = (&mut reader)
            .take(LINE_MAX as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            session.flush(shards, &mut out)?;
            out.flush()?;
            break;
        }
        if n > LINE_MAX && line.last() != Some(&b'\n') {
            return Err(line_overflow(shards, &mut session, &mut out));
        }
        match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => {}
            Ok(text) => {
                handled += 1;
                if session.handle_line(shards, text, &mut out)? == Flow::Shutdown {
                    out.flush()?;
                    return Ok(handled);
                }
            }
            Err(e) => {
                handled += 1;
                let e = TroutError::Parse(format!("request line is not valid UTF-8: {e}"));
                session.reject_line(shards, &e, &mut out)?;
            }
        }
        // No complete request line buffered: the next read may block, so
        // the client is presumably waiting on the answers. Flush pending
        // window positions (queued predicts and resolved sheds), then push
        // every buffered response through the commit barrier.
        if !reader.buffer().contains(&b'\n') {
            session.flush(shards, &mut out)?;
            out.flush()?;
        }
    }
    Ok(handled)
}

/// Ends a session whose request line passed [`LINE_MAX`]: dumps the flight
/// recorder, answers the pending window and then the overflow itself with
/// the typed error, and returns that error for the transport to record.
fn line_overflow<W: Write>(
    shards: &ShardSet,
    session: &mut RouterSession,
    out: &mut W,
) -> TroutError {
    let e = TroutError::Protocol(format!(
        "request line exceeded {LINE_MAX} bytes without a newline"
    ));
    shards.flight_dump("line_overflow", FLIGHT_DUMP_LAST);
    // Best effort: the session ends either way, and a flooding client may
    // not be reading.
    let _ = session.flush(shards, out).and_then(|()| {
        writeln!(out, "{}", error_response(&e))?;
        Ok(out.flush()?)
    });
    e
}

/// Serves the shard set over stdin/stdout until EOF or `shutdown`, then
/// syncs any buffered journal appends (clean-shutdown durability for
/// relaxed fsync policies).
pub fn run_stdin(shards: ShardSet, batch_max: usize) -> Result<u64, TroutError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let handled = run_session(&shards, stdin.lock(), stdout.lock(), batch_max)?;
    shards.sync_journals()?;
    Ok(handled)
}

/// The threads one listener spawns, one per connection. Finished threads
/// are joined at every spawn, so a listener never holds one handle per
/// connection it ever served. Each thread lowers a shared live count as it
/// ends (panics included); `report` sees every change under the lock that
/// orders them, so a gauge fed from it drops when a connection ends.
pub(crate) struct ConnThreads {
    handles: Vec<JoinHandle<()>>,
    live: Arc<Live>,
}

struct Live {
    count: Mutex<usize>,
    report: Box<dyn Fn(usize) + Send + Sync>,
}

impl Live {
    fn change(&self, started: bool) {
        // A panic cannot interrupt the one-step update below, so a poisoned
        // count is still exact.
        let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *n = if started { *n + 1 } else { *n - 1 };
        (self.report)(*n);
    }
}

/// Counts its connection thread out when the thread ends, unwinding
/// included.
struct Ended(Arc<Live>);

impl Drop for Ended {
    fn drop(&mut self) {
        self.0.change(false);
    }
}

/// Joins one connection thread. The thread recorded its own errors; only a
/// panic still needs reporting here.
fn join_conn(handle: JoinHandle<()>) {
    if handle.join().is_err() {
        trout_obs::log_error!("serve", "connection thread panicked");
    }
}

impl ConnThreads {
    /// No threads yet; `report` receives every later live count.
    pub(crate) fn new(report: impl Fn(usize) + Send + Sync + 'static) -> ConnThreads {
        ConnThreads {
            handles: Vec::new(),
            live: Arc::new(Live {
                count: Mutex::new(0),
                report: Box::new(report),
            }),
        }
    }

    /// Joins the finished threads, then runs `serve` on a new one, counted
    /// live until it returns. Returns false, with a warning logged, if the
    /// thread cannot start: `serve` is then dropped unrun (closing its
    /// connection) and the count restored.
    pub(crate) fn spawn(&mut self, serve: impl FnOnce() + Send + 'static) -> bool {
        let mut i = 0;
        while i < self.handles.len() {
            if self.handles[i].is_finished() {
                join_conn(self.handles.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.live.change(true);
        let ended = Ended(Arc::clone(&self.live));
        let spawned = std::thread::Builder::new().spawn(move || {
            let _ended = ended;
            serve();
        });
        match spawned {
            Ok(handle) => self.handles.push(handle),
            Err(e) => {
                trout_obs::log_warn!("serve", "could not start a connection thread: {e}");
                return false;
            }
        }
        true
    }

    /// Waits for every spawned thread to end.
    pub(crate) fn drain(self) {
        for handle in self.handles {
            join_conn(handle);
        }
    }
}

/// Serves the shard set over TCP, one thread per connection, all
/// connections sharing the shards. `max_conns` bounds how many connections
/// are accepted before returning (`None` = serve forever). On return,
/// in-flight sessions are drained and buffered journal appends are synced.
pub fn run_tcp(
    shards: Arc<ShardSet>,
    listener: TcpListener,
    batch_max: usize,
    max_conns: Option<usize>,
) -> Result<(), TroutError> {
    let metrics = shards.metrics0();
    let mut sessions = {
        let m = metrics.clone();
        ConnThreads::new(move |live| {
            m.sessions_live.set(live as f64);
            m.sessions_live_peak.set_max(live as f64);
        })
    };
    let mut backoff = AcceptBackoff::default();
    let mut accepted = 0usize;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                backoff.on_error(&metrics, e)?;
                continue;
            }
        };
        backoff.on_success(&metrics);
        if let Err(e) = stream.set_nodelay(true) {
            trout_obs::log_warn!("serve", "could not set TCP_NODELAY on a session: {e}");
        }
        let session_shards = Arc::clone(&shards);
        let spawned = sessions.spawn(move || {
            let result = stream
                .try_clone()
                .map_err(TroutError::from)
                .and_then(|reader| run_session(&session_shards, reader, stream, batch_max));
            if let Err(e) = result {
                // The session is this error's only observer — record it
                // before the thread (and the error) disappears.
                session_shards.metrics0().record_error(&e);
                trout_obs::log_warn!("serve", "session ended with error: {e}");
            }
        });
        if !spawned {
            continue;
        }
        metrics.sessions_total.inc();
        accepted += 1;
        if max_conns.is_some_and(|m| accepted >= m) {
            break;
        }
    }
    sessions.drain();
    shards.sync_journals()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;

    #[test]
    fn accept_errors_classify_by_errno_and_kind() {
        use std::io::Error;
        for errno in [EMFILE, ENFILE, ENOBUFS, ENOMEM] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Backoff,
                "errno {errno}"
            );
        }
        for errno in [
            104, /* ECONNRESET */
            103, /* ECONNABORTED */
            EPROTO, 4, /* EINTR */
        ] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Transient,
                "errno {errno}"
            );
        }
        for errno in [
            9,  /* EBADF */
            22, /* EINVAL */
            88, /* ENOTSOCK */
        ] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Fatal,
                "errno {errno}"
            );
        }
    }

    #[test]
    fn backoff_doubles_counts_and_resets() {
        let m = ServeMetrics::new();
        let mut b = AcceptBackoff::default();
        b.on_error(&m, std::io::Error::from_raw_os_error(EMFILE))
            .unwrap();
        assert_eq!(m.accept_backoffs_total.get(), 1);
        assert_eq!(m.accept_backoff_ms.get(), 10.0, "starts at the floor");
        b.on_error(&m, std::io::Error::from_raw_os_error(ENFILE))
            .unwrap();
        assert_eq!(m.accept_backoff_ms.get(), 20.0, "doubles");
        assert_eq!(m.accept_backoffs_total.get(), 2);

        // Transient errors count separately and do not touch the backoff.
        b.on_error(&m, std::io::Error::from_raw_os_error(103))
            .unwrap();
        assert_eq!(m.accept_transient_total.get(), 1);
        assert_eq!(m.accept_backoff_ms.get(), 20.0);

        // A successful accept clears the gauge.
        b.on_success(&m);
        assert_eq!(m.accept_backoff_ms.get(), 0.0);

        // Fatal errors propagate.
        let err = b
            .on_error(&m, std::io::Error::from_raw_os_error(9))
            .unwrap_err();
        assert!(matches!(err, TroutError::Io(_)));
    }

    #[test]
    fn backoff_streak_ceiling_crosses_once_and_rearms_on_success() {
        let m = ServeMetrics::new();
        let mut b = AcceptBackoff::default();
        // Drive a long uninterrupted EMFILE streak through the pure state
        // transition (no real sleeping). 10+20+…+640 = 1270 ms, then 1 s per
        // step: the 30 s ceiling is crossed well inside 100 steps.
        let mut crossings = 0;
        for _ in 0..100 {
            let (delay, crossed) = b.note_backoff();
            assert!(delay <= AcceptBackoff::MAX_MS, "per-retry delay clamps");
            if crossed {
                crossings += 1;
            }
        }
        assert_eq!(crossings, 1, "ceiling fires exactly once per streak");
        assert_eq!(b.delay_ms, AcceptBackoff::MAX_MS);
        assert!(b.streak_ms >= AcceptBackoff::STREAK_MAX_MS);

        // A successful accept ends the streak and re-arms the ceiling.
        b.on_success(&m);
        assert_eq!(b.streak_ms, 0);
        assert!(!b.ceiling_warned);
        let crossed_again = (0..100).any(|_| b.note_backoff().1);
        assert!(crossed_again, "a fresh streak can cross the ceiling again");
    }

    /// The thread-leak regression both listeners share: sequential
    /// connections leave at most a couple of handles held, not one per
    /// connection, and every thread is counted out as it ends — a panicking
    /// one included.
    #[test]
    fn conn_threads_join_finished_threads_and_count_live_ones() {
        let counts = Arc::new(Mutex::new(Vec::new()));
        let mut threads = {
            let counts = Arc::clone(&counts);
            ConnThreads::new(move |n| counts.lock().unwrap().push(n))
        };
        let ended = |counts: &Mutex<Vec<usize>>| counts.lock().unwrap().last() == Some(&0);
        for k in 0..12 {
            assert!(threads.spawn(move || assert!(k != 5, "injected connection panic")));
            assert!(
                threads.handles.len() <= 2,
                "{} handles held after {} sequential connections",
                threads.handles.len(),
                k + 1
            );
            while !ended(&counts) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        threads.drain();
        let counts = counts.lock().unwrap();
        assert_eq!(counts.len(), 24, "one report per start and per end");
        assert!(counts.iter().all(|&n| n <= 1), "{counts:?}");
    }

    #[test]
    fn poisoned_engine_mutex_recovers_and_counts() {
        let shards = Arc::new(ShardSet::bootstrap(
            1,
            120,
            &ServeConfig {
                refit_every: 0,
                seed: 3,
                ..Default::default()
            },
        ));
        // Poison the mutex the way a crashing session would: panic while
        // holding the guard.
        let poisoner = Arc::clone(&shards);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shard(0).lock().unwrap();
            panic!("injected session panic");
        })
        .join();
        assert!(shards.shard(0).is_poisoned());

        // A subsequent session still gets served.
        let input = b"{\"event\":\"predict\",\"id\":5,\"time\":900}\n" as &[u8];
        let mut out = Vec::new();
        let handled = run_session(&shards, input, &mut out, 8).unwrap();
        assert_eq!(handled, 1);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "the query was answered");
        assert!(
            !shards.shard(0).is_poisoned(),
            "poison cleared on first recovery"
        );
        let guard = shards.lock(0);
        assert!(
            guard.metrics.errors_by_class[6].get() >= 1,
            "poison counted"
        );
    }
}
