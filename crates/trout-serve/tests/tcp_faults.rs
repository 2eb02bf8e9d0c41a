//! TCP fault-injection tests: misbehaving clients — disconnects mid-batch,
//! half-open sockets, malformed floods, abrupt session ends, slow-loris
//! readers — must not take the daemon down, must not starve other sessions,
//! and must show up in the per-class error metrics. Covers both transports:
//! the blocking thread-per-connection server and the nonblocking `poll(2)`
//! reactor (where all faulty connections share ONE reactor thread). Also
//! the regression guard for the session JoinHandle leak: a daemon serving
//! many sequential clients must reap finished session threads instead of
//! accumulating one handle per connection forever.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use trout_serve::{run_reactor, run_tcp, ReactorConfig, ServeConfig, ServeEngine, ShardSet};
use trout_std::json::Json;

fn engine() -> ServeEngine {
    ServeEngine::bootstrap(
        120,
        &ServeConfig {
            refit_every: 0,
            seed: 3,
            ..Default::default()
        },
    )
}

fn spawn_server(
    max_conns: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    Arc<ShardSet>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shared = Arc::new(ShardSet::single(engine()));
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            run_tcp(shared, listener, 16, Some(max_conns)).unwrap();
        })
    };
    (addr, server, shared)
}

/// Reactor-transport twin of `spawn_server`: `n_shards` engines behind a
/// single-threaded reactor, so every fault shares one event loop.
fn spawn_reactor(
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
            run_reactor(
                shared,
                listener,
                ReactorConfig {
                    threads: 1,
                    batch_max: 16,
                    max_conns: Some(max_conns),
                },
            )
            .unwrap();
        })
    };
    (addr, server, shared)
}

// Minimal setsockopt shim for fault shaping (same thin-FFI idiom as
// trout_std::evloop). Values are the Linux generic ones.
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

/// Regression test for the JoinHandle leak: `run_tcp` used to push one
/// handle per accepted connection and never reap it until exit, so a
/// long-lived daemon's handle list grew without bound. With reaping on each
/// accept, N sequential (non-overlapping) sessions keep the live-handle
/// count — tracked by the `sessions_live` gauge updated after each reap —
/// bounded by a small constant instead of reaching N.
#[test]
fn sequential_sessions_keep_the_live_handle_count_bounded() {
    const SESSIONS: usize = 12;
    let (addr, server, shared) = spawn_server(SESSIONS);
    for _ in 0..SESSIONS {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        drop(conn);
        // Give the session thread a beat to finish so the next accept's
        // reap actually observes it done.
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    server.join().unwrap();
    let m = &shared.lock(0).metrics;
    assert_eq!(m.sessions_total.get(), SESSIONS as u64);
    assert_eq!(m.sessions_live.get(), 0.0, "all sessions drained at exit");
    assert!(
        m.sessions_live_peak.get() <= 3.0,
        "live-handle peak {} for {SESSIONS} sequential sessions — handles are not being reaped",
        m.sessions_live_peak.get()
    );
}

#[test]
fn faulty_clients_are_isolated_and_counted() {
    let (addr, server, shared) = spawn_server(4);

    // Fault 1: a half-open socket — connects, sends nothing, just sits
    // there holding its session thread. Held open until the end to prove
    // it never blocks anyone else.
    let half_open = TcpStream::connect(addr).unwrap();

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

    // Fault 3: disconnect mid-batch — floods predicts for unknown jobs and
    // slams the connection shut without reading a single response. The
    // session thread hits a write error once the peer resets and must
    // record it instead of vanishing silently.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut burst = String::new();
        for id in 0..2_000u64 {
            burst.push_str(&format!(
                "{{\"event\":\"predict\",\"id\":{id},\"time\":0}}\n"
            ));
        }
        let _ = conn.write_all(burst.as_bytes());
        drop(conn); // abrupt end, responses unread
    }

    // A well-behaved client connects *after* all that and still gets
    // served: submit one job, predict it, shut down.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let job = "{\"event\":\"submit\",\"job\":{\"id\":9001,\"user\":7,\"partition\":0,\
                   \"submit_time\":1000,\"req_cpus\":8,\"req_mem_gb\":16,\"req_nodes\":1,\
                   \"timelimit_min\":30}}\n";
        conn.write_all(job.as_bytes()).unwrap();
        conn.write_all(b"{\"event\":\"predict\",\"id\":9001,\"time\":1200}\n")
            .unwrap();
        conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut lines = Vec::new();
        let mut line = String::new();
        for _ in 0..3 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0);
            lines.push(line.clone());
        }
        let pred = Json::parse(&lines[1]).unwrap();
        assert_eq!(
            pred.get("ok"),
            Some(&Json::Bool(true)),
            "the healthy session still gets predictions: {}",
            lines[1]
        );
        assert!(pred.get("quick_proba").is_some());
    }

    // Release the half-open socket so its session sees EOF and the server
    // can drain.
    drop(half_open);
    server.join().unwrap();

    let m = &shared.lock(0).metrics;
    let by: Vec<u64> = m.errors_by_class.iter().map(|c| c.get()).collect();
    // ERROR_CLASSES order: io, parse, config, model, protocol, poisoned.
    assert!(
        by[1] >= 40,
        "the malformed flood is counted as parse errors"
    );
    assert!(
        by[4] >= 1,
        "unknown-job predicts are counted as protocol errors"
    );
    assert!(
        by[0] >= 1,
        "the mid-batch disconnect surfaces as a recorded io error (got {by:?})"
    );
    assert_eq!(m.sessions_total.get(), 4);
    assert_eq!(m.sessions_live.get(), 0.0);
}

/// The reactor twin of `faulty_clients_are_isolated_and_counted`, with the
/// screws tightened: every connection shares ONE reactor thread, so a
/// half-open socket that stalls mid-line readiness, a malformed flood, and
/// an abrupt mid-batch disconnect are all multiplexed together — and none
/// of them may stall the healthy client. The half-open connection finishes
/// its partial line *after* everything else and must still be answered: a
/// stalled line is pending input, not an error.
#[test]
fn reactor_isolates_faults_sharing_one_poller_thread() {
    let (addr, server, shared) = spawn_reactor(2, 4);

    // Fault 1: half-open mid-readiness — the first half of a predict line,
    // no newline, then silence. The reactor read its bytes (readiness
    // fired) but has no complete line, so the connection just idles.
    let full_line = "{\"event\":\"predict\",\"id\":9001,\"time\":1200}\n";
    let (first_half, second_half) = full_line.split_at(20);
    let mut half_open = TcpStream::connect(addr).unwrap();
    half_open.write_all(first_half.as_bytes()).unwrap();
    half_open.flush().unwrap();

    // Fault 2: a malformed-line flood on a second connection. Every line
    // gets an error response while the half-open socket sits on the same
    // poller thread.
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
            let expect_ok = i == 40;
            assert_eq!(j.get("ok"), Some(&Json::Bool(expect_ok)), "{line}");
        }
    }

    // Fault 3: abrupt disconnect mid-batch — a burst of unknown-id
    // predicts, then the socket is slammed shut with every response
    // unread. SO_LINGER(0) turns the close into an RST so the reset is
    // observable regardless of how much the kernel buffered; the reactor
    // must surface it as a recorded io error, not a vanished connection.
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
                assert_eq!(pred.get("ok"), Some(&Json::Bool(true)), "{line}");
                assert!(pred.get("quick_proba").is_some());
            }
            if i == 2 {
                let pred = Json::parse(&line).unwrap();
                assert_eq!(pred.get("ok"), Some(&Json::Bool(false)), "{line}");
            }
        }
    }

    // The half-open connection wakes up and finishes its line — minutes of
    // stall later, the prediction still comes back, then a clean shutdown.
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

/// Slow-loris writer: a client floods requests but refuses to read a single
/// response byte. Its write backlog crosses the reactor's high-water mark,
/// the backpressure counter fires, and its reads pause — while a healthy
/// client on the SAME poller thread round-trips unimpeded. When the loris
/// finally reads, every one of its responses arrives, in order.
#[test]
fn slow_loris_reader_is_backpressured_without_starving_others() {
    // The server's send buffer autotunes up to net.ipv4.tcp_wmem[2] (4 MB
    // on stock kernels), all of it invisible to the reactor's own backlog
    // accounting — so the response volume must comfortably exceed it for
    // the in-process backlog to provably cross the 256 KiB high-water
    // mark. 100k error responses ≈ 9 MB does.
    const BURST: usize = 100_000;
    let (addr, server, shared) = spawn_reactor(2, 2);

    let loris = TcpStream::connect(addr).unwrap();
    // Clamping SO_RCVBUF also locks out receive-side autotuning, keeping
    // the kernel's absorption on the client side small and fixed.
    clamp_rcvbuf(&loris, 64 * 1024);
    let writer = {
        let mut w = loris.try_clone().unwrap();
        std::thread::spawn(move || {
            // ~4.5 MB of requests producing ~9 MB of responses the client
            // will not read; write_all may stall once the reactor pauses
            // reads, which is exactly the point — it runs on its own
            // thread so the test can keep going.
            // Ids offset far past the dense sim-assigned range so every
            // predict is genuinely unknown.
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

    // Let the loris stew until its backlog crosses the high-water mark.
    // Waiting on the counter (not on time) keeps the loris from reading
    // before the kernel buffers have filled and the reactor has paused it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while shared.metrics0().reactor_backpressure_total.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the write backlog never crossed the high-water mark"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // While the loris is paused, a healthy client on the same reactor
    // thread gets a full round trip.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let job = "{\"event\":\"submit\",\"job\":{\"id\":7001,\"user\":2,\"partition\":0,\
                   \"submit_time\":500,\"req_cpus\":4,\"req_mem_gb\":8,\"req_nodes\":1,\
                   \"timelimit_min\":20}}\n";
        conn.write_all(job.as_bytes()).unwrap();
        conn.write_all(b"{\"event\":\"predict\",\"id\":7001,\"time\":600}\n")
            .unwrap();
        conn.write_all(b"{\"event\":\"shutdown\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
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

    // Now the loris deigns to read: all BURST responses + the shutdown ack
    // arrive, every line intact — backpressure paused it, lost nothing.
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

    let m = shared.metrics0();
    assert!(
        m.reactor_backpressure_total.get() >= 1,
        "the write backlog crossed the high-water mark at least once"
    );
    let by = errors_by_class_summed(&shared);
    assert!(
        by[4] >= BURST as u64,
        "every unknown-id predict was answered with a protocol error ({by:?})"
    );
    assert_eq!(m.sessions_live.get(), 0.0);
}
