//! TCP fault-injection tests: misbehaving clients — disconnects mid-batch,
//! half-open sockets, malformed floods, over-long lines, abrupt session
//! ends, slow-loris readers — must not take the daemon down, must not starve
//! other sessions, and must show up in the per-class error metrics. Also
//! the regression guards for the listener's thread accounting: a daemon
//! serving many sequential clients must not hold one thread per connection
//! it ever served, and the live-session gauge must drop as sessions end.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trout_serve::server::LINE_MAX;
use trout_serve::{run_tcp, ServeConfig, ShardSet};
use trout_std::json::Json;

/// `n_shards` engines behind `run_tcp`, which returns (and drains) after
/// `max_conns` connections.
fn spawn_server(
    n_shards: usize,
    max_conns: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    Arc<ShardSet>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 3,
        ..Default::default()
    };
    let shared = Arc::new(ShardSet::bootstrap(n_shards, 120, &cfg));
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            run_tcp(shared, listener, 16, Some(max_conns)).unwrap();
        })
    };
    (addr, server, shared)
}

/// Polls `done` every 5 ms until it holds, failing after `limit`.
fn wait_until(limit: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A healthy client's round trip: submits `id`, predicts it and shuts down;
/// every answer must be `ok`.
fn healthy_round_trip(addr: std::net::SocketAddr, id: u64) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let job = format!(
        "{{\"event\":\"submit\",\"job\":{{\"id\":{id},\"user\":2,\"partition\":0,\
         \"submit_time\":500,\"req_cpus\":4,\"req_mem_gb\":8,\"req_nodes\":1,\
         \"timelimit_min\":20}}}}\n\
         {{\"event\":\"predict\",\"id\":{id},\"time\":600}}\n\
         {{\"event\":\"shutdown\"}}\n"
    );
    conn.write_all(job.as_bytes()).unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    for i in 0..3 {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "healthy client starved at line {i}"
        );
        assert!(line.contains("\"ok\":true"), "{line}");
    }
}

// Minimal setsockopt shim for fault shaping (thin libc FFI, as in
// trout_std). Values are the Linux generic ones.
#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}
extern "C" {
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> i32;
}
const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
const SO_LINGER: i32 = 13;

/// Arms RST-on-close: dropping the stream aborts the connection instead of
/// FIN-closing it, so the peer deterministically observes a reset — a
/// loopback FIN lets the kernel absorb every unread response into socket
/// buffers and the server never sees an error at all.
fn arm_rst_on_close(conn: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    let lg = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&lg as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER) failed");
}

/// Clamps the receive buffer so a non-reading client's TCP window stops
/// absorbing server output early.
fn clamp_rcvbuf(conn: &TcpStream, bytes: i32) {
    use std::os::unix::io::AsRawFd;
    let rc = unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            4,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// Sums one error-class counter across every shard (predict errors are
/// recorded on the owning shard, not globally).
fn errors_by_class_summed(shards: &ShardSet) -> Vec<u64> {
    let n_classes = shards.lock(0).metrics.errors_by_class.len();
    (0..n_classes)
        .map(|k| {
            (0..shards.len())
                .map(|i| shards.lock(i).metrics.errors_by_class[k].get())
                .sum()
        })
        .collect()
}

/// N sequential (non-overlapping) sessions keep the live count — the
/// `sessions_live` gauge and its peak — bounded by a small constant
/// instead of reaching N: each session is counted out as its thread ends.
/// (The handle list behind it is reaped at every accept; the
/// `ConnThreads` unit test guards that.)
#[test]
fn sequential_sessions_keep_the_live_handle_count_bounded() {
    const SESSIONS: usize = 12;
    let (addr, server, shared) = spawn_server(1, SESSIONS);
    for _ in 0..SESSIONS {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        drop(conn);
        // Give the session thread a beat to finish before the next accept.
        std::thread::sleep(Duration::from_millis(15));
    }
    server.join().unwrap();
    let m = &shared.lock(0).metrics;
    assert_eq!(m.sessions_total.get(), SESSIONS as u64);
    assert_eq!(m.sessions_live.get(), 0.0, "all sessions drained at exit");
    assert!(
        m.sessions_live_peak.get() <= 3.0,
        "live-session peak {} for {SESSIONS} sequential sessions — ended sessions are still \
         counted",
        m.sessions_live_peak.get()
    );
}

/// The gauge follows sessions, not accepts: after the only session ends,
/// `sessions_live` reads 0 while the listener is still blocked waiting for
/// its next connection.
#[test]
fn sessions_live_drops_when_a_session_ends_not_at_the_next_accept() {
    let (addr, server, shared) = spawn_server(1, 2);
    let m = shared.metrics0();
    let mut conn = TcpStream::connect(addr).unwrap();
    wait_until(Duration::from_secs(10), "the session to start", || {
        m.sessions_live.get() == 1.0
    });
    conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    drop(conn);
    wait_until(Duration::from_secs(10), "sessions_live to reach 0", || {
        m.sessions_live.get() == 0.0
    });
    assert_eq!(m.sessions_total.get(), 1, "no second connection yet");
    // The second connection lets the server return.
    drop(TcpStream::connect(addr).unwrap());
    server.join().unwrap();
    assert_eq!(m.sessions_live.get(), 0.0);
}

/// Every fault at once against a 2-shard daemon, each on its own session
/// thread: a half-open socket that stalls mid-line, a malformed flood, and
/// an abrupt mid-batch reset — none of them may stall the healthy client.
/// The half-open connection finishes its partial line *after* everything
/// else and must still be answered: a stalled line is pending input, not
/// an error.
#[test]
fn faulty_clients_are_isolated_and_counted() {
    let (addr, server, shared) = spawn_server(2, 4);

    // Fault 1: half-open mid-line — the first half of a predict line, no
    // newline, then silence. Its session thread blocks in read.
    let full_line = "{\"event\":\"predict\",\"id\":9001,\"time\":1200}\n";
    let (first_half, second_half) = full_line.split_at(20);
    let mut half_open = TcpStream::connect(addr).unwrap();
    half_open.write_all(first_half.as_bytes()).unwrap();
    half_open.flush().unwrap();

    // Fault 2: a malformed-line flood. Every line gets an error response;
    // the session survives to a clean shutdown.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut flood = String::new();
        for i in 0..40 {
            flood.push_str(&format!("not json at all #{i}\n"));
        }
        flood.push_str("{\"event\":\"shutdown\"}\n");
        conn.write_all(flood.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        for i in 0..41 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "line {i}");
            let j = Json::parse(&line).unwrap();
            let expect_ok = i == 40; // only the shutdown ack succeeds
            assert_eq!(j.get("ok"), Some(&Json::Bool(expect_ok)), "{line}");
        }
    }

    // Fault 3: abrupt disconnect mid-batch — a burst of unknown-id
    // predicts, then the socket is slammed shut with every response
    // unread. SO_LINGER(0) turns the close into an RST so the reset is
    // observable regardless of how much the kernel buffered; the session
    // must surface it as a recorded io error, not vanish.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        arm_rst_on_close(&conn);
        let mut burst = String::new();
        for id in 0..1_000u64 {
            burst.push_str(&format!(
                "{{\"event\":\"predict\",\"id\":{id},\"time\":0}}\n"
            ));
        }
        let _ = conn.write_all(burst.as_bytes());
        drop(conn);
    }

    // A healthy client submits the job the half-open predict will ask
    // about, predicts it (plus one unknown id, so a protocol error is
    // recorded even if the RST above flushed the burst before it was
    // processed), and shuts down cleanly.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let job = "{\"event\":\"submit\",\"job\":{\"id\":9001,\"user\":7,\"partition\":0,\
                   \"submit_time\":1000,\"req_cpus\":8,\"req_mem_gb\":16,\"req_nodes\":1,\
                   \"timelimit_min\":30}}\n";
        conn.write_all(job.as_bytes()).unwrap();
        conn.write_all(b"{\"event\":\"predict\",\"id\":9001,\"time\":1200}\n")
            .unwrap();
        conn.write_all(b"{\"event\":\"predict\",\"id\":8888,\"time\":1200}\n")
            .unwrap();
        conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        for i in 0..4 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "line {i}");
            if i == 1 {
                let pred = Json::parse(&line).unwrap();
                assert_eq!(
                    pred.get("ok"),
                    Some(&Json::Bool(true)),
                    "the healthy session still gets predictions: {line}"
                );
                assert!(pred.get("quick_proba").is_some());
            }
            if i == 2 {
                let pred = Json::parse(&line).unwrap();
                assert_eq!(pred.get("ok"), Some(&Json::Bool(false)), "{line}");
            }
        }
    }

    // The half-open connection wakes up and finishes its line — long after
    // it stalled, the prediction still comes back, then a clean shutdown.
    half_open.write_all(second_half.as_bytes()).unwrap();
    half_open.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
    half_open.flush().unwrap();
    {
        let mut reader = BufReader::new(half_open.try_clone().unwrap());
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let pred = Json::parse(&line).unwrap();
        assert_eq!(
            pred.get("ok"),
            Some(&Json::Bool(true)),
            "the completed half-open line is answered: {line}"
        );
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        assert!(line.contains("\"event\":\"shutdown\""), "{line}");
    }
    drop(half_open);
    server.join().unwrap();

    let by = errors_by_class_summed(&shared);
    // ERROR_CLASSES order: io, parse, config, model, protocol, poisoned.
    assert!(by[1] >= 40, "flood lines counted as parse errors ({by:?})");
    assert!(
        by[4] >= 1,
        "unknown-job predicts counted as protocol errors ({by:?})"
    );
    assert!(
        by[0] >= 1,
        "the mid-batch disconnect surfaces as a recorded io error ({by:?})"
    );
    let m = &shared.lock(0).metrics;
    assert_eq!(m.sessions_total.get(), 4);
    assert_eq!(m.sessions_live.get(), 0.0, "all connections drained");
}

/// A client that streams bytes without a newline costs its own session,
/// not the daemon's memory: past [`LINE_MAX`] the session ends with one
/// `protocol` error, and a healthy client on the same daemon is served.
/// The cap counts bytes, so it may cut a multi-byte character in two: that
/// is the same overflow, not an `io` error.
#[test]
fn an_overlong_line_ends_only_its_own_session() {
    let (addr, server, shared) = spawn_server(1, 3);
    let mut cut_char = vec![b'x'; LINE_MAX];
    cut_char.extend_from_slice("é\n".as_bytes());
    let m = shared.metrics0();
    for (k, flood) in [vec![b'x'; 2 * LINE_MAX], cut_char].into_iter().enumerate() {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The daemon closes the session after LINE_MAX + 1 bytes, so the
        // rest of the write may fail with a reset.
        let _ = conn.write_all(&flood);
        let mut line = String::new();
        if BufReader::new(conn).read_line(&mut line).is_ok() && !line.is_empty() {
            assert!(
                line.contains("protocol error: request line exceeded"),
                "{line}"
            );
        }
        wait_until(
            Duration::from_secs(10),
            "the overflow to be recorded",
            || m.errors_by_class[4].get() == k as u64 + 1,
        );
    }
    healthy_round_trip(addr, 7001);
    server.join().unwrap();
    let by = errors_by_class_summed(&shared);
    assert_eq!(
        by[4], 2,
        "exactly one protocol error per flood: the overflow ({by:?})"
    );
    assert_eq!(by[0], 0, "the overflow is not an io error ({by:?})");
    assert_eq!(m.sessions_live.get(), 0.0);
}

/// A line that is not UTF-8 is one `parse` error, answered in order; the
/// session serves the lines after it.
#[test]
fn a_non_utf8_line_is_answered_and_the_session_goes_on() {
    let (addr, server, shared) = spawn_server(1, 1);
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"\xc3\x28\n{\"event\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("parse error: request line is not valid UTF-8"),
        "{line}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":true") && line.contains("shutdown"),
        "{line}"
    );
    server.join().unwrap();
    let by = errors_by_class_summed(&shared);
    assert_eq!(by[1], 1, "one parse error ({by:?})");
    assert_eq!(by[0], 0, "no io error ({by:?})");
}

/// Slow-loris reader: a client floods requests but refuses to read a single
/// response byte. Its session thread serves until the kernel's socket
/// buffers fill, then blocks in `write` — stalling only itself — while a
/// healthy client round-trips unimpeded. When the loris finally reads,
/// every one of its responses arrives, in order.
#[test]
fn slow_loris_reader_is_backpressured_without_starving_others() {
    // The server's send buffer autotunes up to net.ipv4.tcp_wmem[2] (4 MB
    // on stock kernels), so the response volume must comfortably exceed it
    // for the session to stall. 100k error responses ≈ 9 MB does.
    const BURST: usize = 100_000;
    let (addr, server, shared) = spawn_server(2, 2);

    let loris = TcpStream::connect(addr).unwrap();
    // Clamping SO_RCVBUF also locks out receive-side autotuning, keeping
    // the kernel's absorption on the client side small and fixed.
    clamp_rcvbuf(&loris, 64 * 1024);
    let writer = {
        let mut w = loris.try_clone().unwrap();
        std::thread::spawn(move || {
            // ~4.5 MB of requests producing ~9 MB of responses the client
            // will not read. Ids offset far past the dense sim-assigned
            // range so every predict is genuinely unknown.
            let mut burst = String::new();
            for i in 0..BURST as u64 {
                burst.push_str(&format!(
                    "{{\"event\":\"predict\",\"id\":{},\"time\":0}}\n",
                    1_000_000_000 + i
                ));
            }
            burst.push_str("{\"event\":\"shutdown\"}\n");
            w.write_all(burst.as_bytes()).unwrap();
            w.flush().unwrap();
        })
    };

    // Let the loris stew until its session stalls: the request counter
    // stops moving short of the burst.
    let m = shared.metrics0();
    let mut seen = (0u64, 0usize);
    wait_until(
        Duration::from_secs(60),
        "the loris session to stall",
        || {
            let now = m.requests_total.get();
            seen = if now == seen.0 {
                (now, seen.1 + 1)
            } else {
                (now, 0)
            };
            now > 0 && seen.1 >= 40
        },
    );
    assert!(
        (seen.0 as usize) < BURST,
        "the loris was served all {} lines without reading — nothing pushed back",
        seen.0
    );

    // While the loris is stalled, a healthy client gets a full round trip.
    healthy_round_trip(addr, 7001);

    // Now the loris deigns to read: all BURST responses + the shutdown ack
    // arrive, every line intact — the stall lost nothing.
    {
        let mut reader = BufReader::new(loris.try_clone().unwrap());
        let mut line = String::new();
        for i in 0..=BURST {
            line.clear();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "response stream ended early at line {i}"
            );
            let is_shutdown_ack = i == BURST;
            assert_eq!(
                line.contains("\"event\":\"shutdown\""),
                is_shutdown_ack,
                "line {i}: {line}"
            );
        }
    }
    writer.join().unwrap();
    drop(loris);
    server.join().unwrap();

    let by = errors_by_class_summed(&shared);
    assert!(
        by[4] >= BURST as u64,
        "every unknown-id predict was answered with a protocol error ({by:?})"
    );
    assert_eq!(m.sessions_live.get(), 0.0);
}
