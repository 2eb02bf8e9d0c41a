//! The event-driven transport: `poll(2)` readiness over nonblocking
//! sockets, multiplexing many connections per thread.
//!
//! [`run_reactor`] runs the acceptor on the calling thread and spawns a
//! small worker pool of reactor threads. Each accepted connection is handed
//! round-robin to one reactor thread (through a mutex-guarded inbox plus a
//! [`Waker`] self-pipe so a sleeping poller notices immediately) and stays
//! on that thread for life: all of its reads, session logic, and writes run
//! there, so a connection's responses never race with themselves and the
//! wire protocol needs no extra framing. Shard engines are the only shared
//! state, locked exactly as the blocking transports lock them.
//!
//! Per connection the reactor keeps a read buffer, a [`RouterSession`], and
//! a write buffer:
//!
//! * **readable** → drain the socket until `WouldBlock`, feed every
//!   complete line through the session (responses accumulate in the write
//!   buffer), then flush queued predicts — no more complete lines means the
//!   client is waiting, the same heuristic the blocking loop uses when its
//!   `BufReader` runs dry.
//! * **writable** → group-commit the journals ([`ShardSet::commit`], the
//!   egress barrier every transport shares: no ack leaves before the fsync
//!   covering its event), then push the write buffer until `WouldBlock`.
//! * **backpressure** → a connection whose write backlog crosses the
//!   high-water mark stops being read (its `POLLIN` interest is dropped)
//!   until the backlog drains. A slow-loris client that never reads its
//!   responses stalls *itself* — the kernel's TCP window fills, our backlog
//!   cap holds, and every other connection on the thread keeps being
//!   served.
//!
//! A connection dies on I/O error, on EOF once its responses are flushed,
//! after a `shutdown` ack drains, or when a single request line exceeds the
//! line cap (a malformed flood with no newline would otherwise grow the
//! read buffer without bound). Its terminal error is recorded against
//! shard 0's registry, exactly like a blocking session thread's.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use trout_core::TroutError;
use trout_std::evloop::{poll_fds, set_nonblocking, PollFd, Waker, POLLIN, POLLOUT};

use crate::metrics::ServeMetrics;
use crate::router::{Flow, RouterSession};
use crate::server::{AcceptBackoff, DEFAULT_BATCH_MAX};
use crate::shard::ShardSet;

/// Write-backlog high-water mark: above this, stop reading the connection.
const HIGH_WATER: usize = 256 * 1024;
/// Hard cap on a single request line (bytes) — beyond it the connection is
/// a flood, not a client.
const LINE_MAX: usize = 1 << 20;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout: an idle reactor re-checks its shutdown flag this often
/// even if a waker byte is lost to a bug.
const POLL_TIMEOUT_MS: i32 = 250;

/// Reactor transport knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Reactor threads (0 = auto: up to 4, bounded by the machine).
    pub threads: usize,
    /// Predict coalescing cap per connection (0 = default).
    pub batch_max: usize,
    /// Stop accepting after this many connections (`None` = serve forever);
    /// already-accepted connections are always drained before returning.
    pub max_conns: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 0,
            batch_max: 0,
            max_conns: None,
        }
    }
}

fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(4).max(1)
}

/// One reactor thread's handoff state.
struct Mailbox {
    waker: Waker,
    inbox: Mutex<Vec<TcpStream>>,
    done: AtomicBool,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    session: RouterSession,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    read_closed: bool,
    closing: bool,
    dead: bool,
    backpressured: bool,
}

impl Conn {
    fn new(stream: TcpStream, n_shards: usize, batch_max: usize) -> Conn {
        Conn {
            stream,
            session: RouterSession::new(n_shards, batch_max),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_closed: false,
            closing: false,
            dead: false,
            backpressured: false,
        }
    }

    /// Unsent response bytes.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether this connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        self.dead
            || (self.closing && self.backlog() == 0)
            || (self.read_closed && self.backlog() == 0 && self.session.queued() == 0)
    }

    /// The poll interest set for the next readiness wait.
    fn interest(&self) -> i16 {
        let mut events = 0i16;
        if !self.read_closed && !self.closing && self.backlog() < HIGH_WATER {
            events |= POLLIN;
        }
        if self.backlog() > 0 {
            events |= POLLOUT;
        }
        events
    }
}

/// Serves the shard set with an event-driven reactor: nonblocking accepted
/// sockets, `cfg.threads` poller threads, shard fan-out per session. The
/// acceptor (this thread) applies the same backoff-classified accept
/// handling as [`run_tcp`](crate::server::run_tcp). On return, all accepted
/// connections are drained and journals are synced.
pub fn run_reactor(
    shards: Arc<ShardSet>,
    listener: TcpListener,
    cfg: ReactorConfig,
) -> Result<(), TroutError> {
    let threads = resolve_threads(cfg.threads);
    let batch_max = if cfg.batch_max == 0 {
        DEFAULT_BATCH_MAX
    } else {
        cfg.batch_max
    };
    let metrics = shards.metrics0();
    let live = Arc::new(AtomicU64::new(0));

    let mailboxes: Vec<Arc<Mailbox>> = (0..threads)
        .map(|_| {
            Ok(Arc::new(Mailbox {
                waker: Waker::new().map_err(TroutError::Io)?,
                inbox: Mutex::new(Vec::new()),
                done: AtomicBool::new(false),
            }))
        })
        .collect::<Result<_, TroutError>>()?;
    let mut workers = Vec::with_capacity(threads);
    for mailbox in &mailboxes {
        let mailbox = Arc::clone(mailbox);
        let shards = Arc::clone(&shards);
        let metrics = metrics.clone();
        let live = Arc::clone(&live);
        workers.push(std::thread::spawn(move || {
            reactor_thread(&shards, &mailbox, &metrics, &live, batch_max)
        }));
    }

    let mut backoff = AcceptBackoff::default();
    let mut accepted = 0usize;
    let accept_result: Result<(), TroutError> = (|| {
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    backoff.on_error(&metrics, e)?;
                    continue;
                }
            };
            backoff.on_success(&metrics);
            let target = &mailboxes[accepted % threads];
            target.inbox.lock().expect("inbox poisoned").push(stream);
            target.waker.wake();
            metrics.sessions_total.inc();
            let now_live = (live.fetch_add(1, Ordering::Relaxed) + 1) as f64;
            metrics.sessions_live.set(now_live);
            if now_live > metrics.sessions_live_peak.get() {
                metrics.sessions_live_peak.set(now_live);
            }
            accepted += 1;
            if cfg.max_conns.is_some_and(|m| accepted >= m) {
                break;
            }
        }
        Ok(())
    })();

    for mailbox in &mailboxes {
        mailbox.done.store(true, Ordering::SeqCst);
        mailbox.waker.wake();
    }
    for worker in workers {
        if worker.join().is_err() {
            trout_obs::log_error!("serve", "reactor thread panicked");
        }
    }
    metrics.sessions_live.set(0.0);
    shards.sync_journals()?;
    accept_result
}

/// One poller thread: multiplexes its connections until told to stop *and*
/// every connection has drained.
fn reactor_thread(
    shards: &ShardSet,
    mailbox: &Mailbox,
    metrics: &ServeMetrics,
    live: &AtomicU64,
    batch_max: usize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let done = mailbox.done.load(Ordering::SeqCst);
        if done && conns.is_empty() && mailbox.inbox.lock().expect("inbox poisoned").is_empty() {
            return;
        }

        fds.clear();
        fds.push(PollFd::new(mailbox.waker.poll_fd(), POLLIN));
        for conn in &conns {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest()));
        }
        // A held coalescing window bounds how long poll may sleep: wake at
        // the earliest due instant so the flush lands on time even if no fd
        // turns readable. The wait is *floored* to ms — a window flushes as
        // late as its budget allows, so rounding the sleep up would
        // overshoot the deadline by up to 1 ms and turn the hold itself
        // into an SLO violation; flooring wakes at most 1 ms early and the
        // deadline pass re-checks (a sub-ms zero-timeout spin at worst).
        let mut timeout_ms = POLL_TIMEOUT_MS;
        if conns.iter().any(|c| c.session.pending() > 0) {
            let now = shards.clock().now_micros();
            for conn in &conns {
                if let Some(due) = conn.session.due_at(shards) {
                    let wait = due.saturating_sub(now) / 1_000;
                    timeout_ms = timeout_ms.min(wait.min(POLL_TIMEOUT_MS as u64) as i32);
                }
            }
        }
        if let Err(e) = poll_fds(&mut fds, timeout_ms) {
            trout_obs::log_error!("serve", "reactor poll failed: {e}");
            metrics.record_error(&TroutError::Io(e));
            // Poll failing outright (ENOMEM, EINVAL from fd overflow) cannot
            // be served through; drop every connection rather than spin.
            conns.clear();
            continue;
        }

        if fds[0].readable() {
            mailbox.waker.drain();
        }
        // Adopt newly accepted connections.
        let incoming: Vec<TcpStream> =
            std::mem::take(&mut *mailbox.inbox.lock().expect("inbox poisoned"));
        for stream in incoming {
            match set_nonblocking(stream.as_raw_fd()).and_then(|()| stream.set_nodelay(true)) {
                Ok(()) => conns.push(Conn::new(stream, shards.len(), batch_max)),
                Err(e) => {
                    metrics.record_error(&TroutError::Io(e));
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }

        for (i, conn) in conns.iter_mut().enumerate() {
            // fds[0] is the waker; new conns past the polled set wait a turn.
            let Some(slot) = fds.get(i + 1) else { break };
            if slot.error() {
                // Hard socket error: one last read pass surfaces the errno.
                handle_readable(conn, shards, metrics);
                conn.dead = true;
                continue;
            }
            if slot.writable() {
                handle_writable(conn, shards, metrics);
            }
            if slot.readable() && !conn.dead {
                handle_readable(conn, shards, metrics);
                // Common case: the socket can take the response right now —
                // don't wait a poll round-trip to send it.
                if conn.backlog() > 0 && !conn.dead {
                    handle_writable(conn, shards, metrics);
                }
            }
            track_backpressure(conn, metrics);
        }

        // Deadline pass: flush any window whose hold time has expired on
        // the set's clock, independent of socket readiness.
        for conn in conns.iter_mut() {
            if conn.dead || conn.closing || conn.session.pending() == 0 {
                continue;
            }
            match conn.session.flush_if_due(shards, &mut conn.wbuf) {
                Ok(true) => {
                    if conn.backlog() > 0 {
                        handle_writable(conn, shards, metrics);
                    }
                    track_backpressure(conn, metrics);
                }
                Ok(false) => {}
                Err(e) => {
                    metrics.record_error(&e);
                    conn.dead = true;
                }
            }
        }

        let before = conns.len();
        conns.retain(|c| !c.finished());
        let closed = before - conns.len();
        if closed > 0 {
            let now_live = live
                .fetch_sub(closed as u64, Ordering::Relaxed)
                .saturating_sub(closed as u64);
            metrics.sessions_live.set(now_live as f64);
        }
    }
}

/// Counts the moment a connection crosses into backpressure (edge, not
/// level — one increment per stall, however many poll rounds it lasts).
fn track_backpressure(conn: &mut Conn, metrics: &ServeMetrics) {
    let over = conn.backlog() >= HIGH_WATER;
    if over && !conn.backpressured {
        metrics.reactor_backpressure_total.inc();
        trout_obs::log_warn!(
            "serve",
            "connection write backlog hit {} bytes; pausing reads until it drains",
            conn.backlog()
        );
    }
    conn.backpressured = over;
}

/// Drains the socket, feeds complete lines through the session, flushes
/// queued predicts into the write buffer.
fn handle_readable(conn: &mut Conn, shards: &ShardSet, metrics: &ServeMetrics) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if conn.rbuf.len() > LINE_MAX && !conn.rbuf.contains(&b'\n') {
                    let e = TroutError::Protocol(format!(
                        "request line exceeded {LINE_MAX} bytes without a newline"
                    ));
                    metrics.record_error(&e);
                    // A client flooding unframed bytes is a protocol fault
                    // worth a flight dump: the recent traces show what the
                    // daemon was serving when the connection went bad.
                    shards.flight_dump("line_overflow", 8);
                    conn.dead = true;
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                metrics.record_error(&TroutError::Io(e));
                conn.dead = true;
                return;
            }
        }
    }
    process_lines(conn, shards, metrics);
}

/// Feeds every complete buffered line through the router session.
fn process_lines(conn: &mut Conn, shards: &ShardSet, metrics: &ServeMetrics) {
    let mut consumed = 0usize;
    while let Some(rel) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let end = consumed + rel;
        let line = String::from_utf8_lossy(&conn.rbuf[consumed..end]).into_owned();
        consumed = end + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match conn.session.handle_line(shards, trimmed, &mut conn.wbuf) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Shutdown) => {
                conn.closing = true;
                break;
            }
            Err(e) => {
                // Writing to the in-memory buffer cannot fail; anything
                // surfacing here is engine-fatal for this connection.
                metrics.record_error(&e);
                conn.dead = true;
                break;
            }
        }
    }
    conn.rbuf.drain(..consumed);
    // No more complete lines: the client is waiting. Windows holding any
    // v1 predict (or a resolved shed) are due immediately — the PR 6
    // flush-on-drain heuristic those clients were built against. A pure-v2
    // window instead holds for its deadline (`due_at`), letting the batch
    // former keep coalescing; the reactor loop's due-flush pass and its
    // deadline-derived poll timeout guarantee the flush happens on time.
    if !conn.dead && !conn.closing && conn.session.pending() > 0 {
        if let Err(e) = conn.session.flush_if_due(shards, &mut conn.wbuf) {
            metrics.record_error(&e);
            conn.dead = true;
        }
    }
}

/// Commits the journals, then pushes the write backlog until the socket
/// would block.
fn handle_writable(conn: &mut Conn, shards: &ShardSet, metrics: &ServeMetrics) {
    if conn.backlog() > 0 {
        shards.commit();
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                metrics.record_error(&TroutError::Io(e));
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        // Reclaim sent prefix so a long-lived slow reader's buffer stays
        // proportional to its backlog, not its history.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}
