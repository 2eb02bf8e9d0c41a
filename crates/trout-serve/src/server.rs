//! Blocking transports: line-delimited JSON over stdin/stdout or
//! thread-per-connection `std::net` TCP. (The nonblocking multi-connection
//! transport lives in [`reactor`](crate::reactor).)
//!
//! Both feed the same [`RouterSession`] loop against a [`ShardSet`]. Predict
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
//! not take down every other session sharing the engines. [`run_tcp`] reaps
//! finished session threads on each accept (a long-lived daemon must not
//! accumulate one `JoinHandle` per connection it ever served), and a
//! session's terminal error is recorded against shard 0's metrics by the
//! session thread itself, so client disconnects and half-open sockets show
//! up in `errors_by_class` rather than vanishing with the thread.
//!
//! Accept errors are **classified**, not blanket-tolerated: fd exhaustion
//! (`EMFILE`/`ENFILE`) backs off exponentially with a counter + gauge —
//! spinning on an error the kernel will keep returning only burns the CPU
//! the stuck daemon needs to drain sessions — per-connection failures
//! (`ECONNABORTED`, …) skip just that connection, and anything else is a
//! broken listener and fatal.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use trout_core::TroutError;

use crate::metrics::ServeMetrics;
use crate::router::{Flow, RouterSession};
use crate::shard::ShardSet;

/// Hard ceiling on coalesced batch size when the caller passes 0.
pub(crate) const DEFAULT_BATCH_MAX: usize = 64;

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

/// Exponential accept backoff state shared by [`run_tcp`] and the reactor's
/// acceptor. Successful accepts reset it; `EMFILE`-class errors double the
/// delay (10 ms … 1 s), count it, and expose the current delay as a gauge so
/// an operator watching `trout_serve_accept_backoff_ms` sees fd exhaustion
/// as it happens rather than post-mortem from logs.
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

/// Runs one client session to completion (EOF or `shutdown`). Returns the
/// number of request lines handled. Responses go to `out` through the
/// session's [`egress`] barrier.
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
    let mut line = String::new();
    let mut session = RouterSession::new(shards.len(), batch_max);
    let mut handled = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            session.flush(shards, &mut out)?;
            out.flush()?;
            break;
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            handled += 1;
            if session.handle_line(shards, trimmed, &mut out)? == Flow::Shutdown {
                out.flush()?;
                return Ok(handled);
            }
        }
        // No complete request line buffered: the next read may block, so
        // the client is presumably waiting on the answers. Flush pending
        // window positions (queued predicts and resolved sheds), then push
        // every buffered response through the commit barrier. The blocking
        // transports stay due-on-drain for every request — deadline-holding
        // is the reactor's refinement (DESIGN §12).
        if !reader.buffer().contains(&b'\n') {
            session.flush(shards, &mut out)?;
            out.flush()?;
        }
    }
    Ok(handled)
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

/// Joins a finished (or draining) session thread. Session errors were
/// already recorded and logged by the thread itself; only a panic still
/// needs reporting here.
fn join_session(handle: JoinHandle<Result<u64, TroutError>>) {
    if handle.join().is_err() {
        trout_obs::log_error!("serve", "session thread panicked");
    }
}

/// Joins every finished session thread, keeping only live ones. Called on
/// each accept so the handle list tracks concurrency, not connection
/// history — a daemon that served a million sequential clients holds one
/// pending handle, not a million.
fn reap_finished(handles: &mut Vec<JoinHandle<Result<u64, TroutError>>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            join_session(handles.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

/// Serves the shard set over TCP, one thread per connection, all
/// connections sharing the shards. `max_conns` bounds how many connections
/// are accepted before returning (`None` = serve forever). On return,
/// in-flight sessions are drained (joined) and buffered journal appends are
/// synced.
pub fn run_tcp(
    shards: Arc<ShardSet>,
    listener: TcpListener,
    batch_max: usize,
    max_conns: Option<usize>,
) -> Result<(), TroutError> {
    let metrics = shards.metrics0();
    let mut handles: Vec<JoinHandle<Result<u64, TroutError>>> = Vec::new();
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
        reap_finished(&mut handles);
        let session_shards = Arc::clone(&shards);
        handles.push(std::thread::spawn(move || {
            let result = stream
                .try_clone()
                .map_err(TroutError::from)
                .and_then(|reader| run_session(&session_shards, reader, stream, batch_max));
            if let Err(e) = &result {
                // The session is this error's only observer — record it
                // before the thread (and the error) disappears.
                session_shards.metrics0().record_error(e);
                trout_obs::log_warn!("serve", "session ended with error: {e}");
            }
            result
        }));
        metrics.sessions_total.inc();
        let live = handles.len() as f64;
        metrics.sessions_live.set(live);
        if live > metrics.sessions_live_peak.get() {
            metrics.sessions_live_peak.set(live);
        }
        accepted += 1;
        if max_conns.is_some_and(|m| accepted >= m) {
            break;
        }
    }
    for h in handles {
        join_session(h);
    }
    metrics.sessions_live.set(0.0);
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
