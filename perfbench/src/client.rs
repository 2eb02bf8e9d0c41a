//! Processes and connections: `trout serve` daemons, line-oriented TCP
//! requests, the open-loop predict generator and the windowed ingest client.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use trout_std::evloop::{poll_fds, PollFd, POLLIN};
use trout_std::json::Json;
use trout_std::rng::SplitMix64;

use crate::Res;

/// Lane names in rank order, as the v2 predict grammar spells them.
pub const LANES: [&str; 3] = ["urgent", "normal", "batch"];
/// `trout serve`'s default latency budget per lane, ms.
pub const LANE_BUDGET_MS: [f64; 3] = [50.0, 500.0, 5000.0];
/// How long after its last scheduled send an open-loop phase waits for
/// stragglers before counting them unanswered.
const DRAIN_S: f64 = 3.0;

/// A loopback address nothing listens on yet.
pub fn free_addr() -> Res<String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    l.local_addr()
        .map(|a| a.to_string())
        .map_err(|e| format!("local_addr: {e}"))
}

/// Peak resident set (VmHWM) of process `pid`, MB; 0 once it is gone.
fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at `state` (field
    // 3); utime and stime are fields 14 and 15, in ticks of 1/100 s.
    let rest: Vec<&str> = stat
        .rsplit_once(") ")
        .map_or_else(Vec::new, |(_, r)| r.split(' ').collect());
    let ticks = |i: usize| {
        rest.get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// A running `trout serve`. Dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: PathBuf,
    spawned: Instant,
}

impl Daemon {
    /// Spawns `trout serve ARGS`; `ARGS` must name `--listen ADDR`.
    pub fn spawn(trout: &Path, args: &[String], log: &Path) -> Res<Daemon> {
        let addr = args
            .iter()
            .position(|a| a == "--listen")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or("serve arguments name no --listen address")?;
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(trout)
            .arg("serve")
            .args(args)
            .env("TROUT_THREADS", crate::TROUT_THREADS)
            .env("TROUT_LOG", "info")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot spawn trout serve: {e}"))?;
        Ok(Daemon {
            child,
            addr,
            log: log.to_path_buf(),
            spawned: Instant::now(),
        })
    }

    /// Seconds since the process was spawned.
    pub fn since_spawn(&self) -> f64 {
        self.spawned.elapsed().as_secs_f64()
    }

    /// Connects, retrying while the daemon starts: it listens only once its
    /// model is loaded and any recovery has finished.
    pub fn connect(&mut self, limit: Duration) -> Res<Conn> {
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => return Conn::new(s),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!(
                            "trout serve exited ({status}) before listening; log in {}",
                            self.log.display()
                        ));
                    }
                    if self.spawned.elapsed() > limit {
                        return Err(format!(
                            "trout serve not listening on {} after {limit:?}: {e}",
                            self.addr
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Peak resident set so far, MB.
    pub fn rss_peak_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id())
    }

    /// The SIMD kernel tier the daemon logged at startup.
    pub fn simd_tier(&self) -> Option<String> {
        let log = std::fs::read_to_string(&self.log).ok()?;
        let key = "simd kernel tier: ";
        let at = log.find(key)? + key.len();
        log[at..].split([' ', '"']).next().map(str::to_string)
    }

    /// Seconds from the daemon's first log line to each later line whose
    /// message starts with `prefix`, by the lines' own timestamps.
    pub fn log_times(&self, prefix: &str) -> Vec<f64> {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let ts = |line: &str| field_u64(line, "ts_us");
        let Some(t0) = log.lines().next().and_then(ts) else {
            return Vec::new();
        };
        let msg = format!("\"msg\":\"{prefix}");
        log.lines()
            .filter(|l| l.contains(&msg))
            .filter_map(ts)
            .map(|t| t.saturating_sub(t0) as f64 / 1e6)
            .collect()
    }

    /// SIGKILL, then reap. Returns the seconds from the signal to the reap.
    pub fn kill(&mut self) -> f64 {
        let t = Instant::now();
        let _ = self.child.kill();
        let _ = self.child.wait();
        t.elapsed().as_secs_f64()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One line-oriented connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Res<Conn> {
        Conn::new(TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?)
    }

    fn new(s: TcpStream) -> Res<Conn> {
        let io = |e: std::io::Error| format!("socket: {e}");
        s.set_nodelay(true).map_err(io)?;
        s.set_read_timeout(Some(Duration::from_secs(150)))
            .map_err(io)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone().map_err(io)?),
            writer: s,
        })
    }

    pub fn send(&mut self, line: &str) -> Res<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Res<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by trout serve".into()),
            Ok(_) => {
                if line.ends_with('\n') {
                    line.pop();
                }
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn request(&mut self, line: &str) -> Res<String> {
        self.send(line)?;
        self.recv()
    }

    /// The daemon's `metrics` registry dump.
    pub fn metrics(&mut self) -> Res<Json> {
        let resp = self.request(r#"{"event":"metrics"}"#)?;
        Json::parse(&resp)
            .ok()
            .and_then(|j| j.get("metrics").cloned())
            .ok_or_else(|| format!("bad metrics response: {resp:.200}"))
    }

    /// `trace id -> (total_us, hold_us)` for the traced requests still in
    /// the daemon's flight recorder.
    pub fn flight_records(&mut self) -> Res<HashMap<u64, (f64, f64)>> {
        let resp = self.request(r#"{"event":"trace","last":2048}"#)?;
        let j = Json::parse(&resp).map_err(|e| format!("trace dump: {e}"))?;
        let mut out = HashMap::new();
        if let Some(Json::Arr(traces)) = j.get("traces") {
            for t in traces {
                if let Some(Json::Str(hex)) = t.get("trace_id") {
                    if let Ok(id) = u64::from_str_radix(hex, 16) {
                        let hold = t.get("stages").and_then(|s| s.get("hold_us"));
                        out.insert(id, (num(t.get("total_us")), num(hold)));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A JSON number as f64 (NaN when absent or not a number).
pub fn num(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Int(x)) => *x as f64,
        Some(Json::Num(x)) => *x,
        _ => f64::NAN,
    }
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// The first unsigned integer under `"key":` in a JSON line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The first string under `"key":"` in a JSON line (no escapes expected).
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

fn trace_id(line: &str) -> Option<u64> {
    field_str(line, "trace_id").and_then(|h| u64::from_str_radix(h, 16).ok())
}

/// The seeded request sequence of an open-loop phase: `n` (job id, lane)
/// pairs drawn from `pool`, lanes 10% urgent, 80% normal, 10% batch.
pub fn predict_requests(pool: &[u64], seed: u64, n: usize) -> Vec<(u64, usize)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let id = pool[rng.next_below(pool.len() as u64) as usize];
            let lane = match rng.next_below(10) {
                0 => 0,
                9 => 2,
                _ => 1,
            };
            (id, lane)
        })
        .collect()
}

/// One v2 predict request line.
pub fn predict_line(id: u64, lane: usize, time: i64, traced: bool) -> String {
    let trace = if traced { ",\"trace\":true" } else { "" };
    format!(
        "{{\"v\":2,\"event\":\"predict\",\"id\":{id},\"time\":{time},\"lane\":\"{}\"{trace}}}",
        LANES[lane]
    )
}

/// One request of an open-loop phase, as its answer came back.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub lane: usize,
    /// Scheduled send → response line read, µs (NaN when unanswered).
    pub latency_us: f64,
    /// Phase start → response line read, s.
    pub recv_s: f64,
    /// Answered `ok`, for the job it asked about.
    pub ok: bool,
    pub trace_id: Option<u64>,
}

pub struct Phase {
    pub replies: Vec<Reply>,
    /// Worst lateness of a send against its schedule, ms.
    pub late_ms: f64,
    /// CPU the generator process used during the phase, s.
    pub cpu_s: f64,
}

impl Phase {
    /// One phase made of several: every reply, the worst lateness and the
    /// total generator CPU.
    pub fn concat(phases: Vec<Phase>) -> Phase {
        let late_ms = phases.iter().map(|p| p.late_ms).fold(0.0, f64::max);
        let cpu_s = phases.iter().map(|p| p.cpu_s).sum();
        Phase {
            replies: phases.into_iter().flat_map(|p| p.replies).collect(),
            late_ms,
            cpu_s,
        }
    }

    /// Requests shed, failed, mismatched or unanswered.
    pub fn failed(&self) -> usize {
        self.replies.iter().filter(|r| !r.ok).count()
    }

    /// Latencies of the ok answers (of one lane, or all), in request order.
    pub fn latencies(&self, lane: Option<usize>) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| r.ok && lane.is_none_or(|l| r.lane == l))
            .map(|r| r.latency_us)
            .collect()
    }

    /// `(trace id, latency µs)` of every traced ok answer.
    pub fn traced(&self) -> Vec<(u64, f64)> {
        self.replies
            .iter()
            .filter(|r| r.ok)
            .filter_map(|r| r.trace_id.map(|t| (t, r.latency_us)))
            .collect()
    }

    /// Seconds from the phase's start to its last answer.
    pub fn span_s(&self) -> f64 {
        self.replies.iter().map(|r| r.recv_s).fold(0.0, f64::max)
    }

    /// Ok answers per second, over the phase up to its last answer.
    pub fn goodput(&self) -> f64 {
        let ok = self.replies.iter().filter(|r| r.ok).count();
        ok as f64 / self.span_s()
    }
}

/// Sends v2 predicts for jobs drawn from `pool` on a fixed schedule —
/// `rate` per second for `secs`, alternating between two connections —
/// whether or not earlier answers have arrived (an open loop), and times
/// each answer from the instant its request was due. This thread writes;
/// one more reads.
pub fn open_loop(
    addr: &str,
    pool: &[u64],
    time: i64,
    seed: u64,
    rate: f64,
    secs: f64,
    traced: bool,
) -> Res<Phase> {
    let n = ((rate * secs).round() as usize).max(2);
    let reqs = predict_requests(pool, seed, n);
    let connect = || -> Res<TcpStream> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("socket: {e}"))?;
        Ok(s)
    };
    let conns = [connect()?, connect()?];
    let gap_ns = 1e9 / rate;
    let deadline = Duration::from_secs_f64(secs + DRAIN_S);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let (got, late) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_replies(&conns, &reqs, t0, deadline));
        let late = write_schedule(&conns, &reqs, t0, gap_ns, time, traced);
        (reader.join().expect("reply reader panicked"), late)
    });
    let late_ns = late.map_err(|e| format!("send: {e}"))?;
    let cpu_s = process_cpu_s() - cpu0;
    let replies = reqs
        .iter()
        .zip(got)
        .enumerate()
        .map(|(i, (&(_, lane), g))| match g {
            Some((recv_ns, ok, trace_id)) => Reply {
                lane,
                latency_us: (recv_ns as f64 - i as f64 * gap_ns) / 1e3,
                recv_s: recv_ns as f64 / 1e9,
                ok,
                trace_id,
            },
            None => Reply {
                lane,
                latency_us: f64::NAN,
                recv_s: 0.0,
                ok: false,
                trace_id: None,
            },
        })
        .collect();
    Ok(Phase {
        replies,
        late_ms: late_ns as f64 / 1e6,
        cpu_s,
    })
}

/// Writes request `i` to connection `i % 2` at `i × gap_ns` after `t0`,
/// batching whatever is due into one write per connection. Returns the
/// worst lateness, ns.
fn write_schedule(
    conns: &[TcpStream; 2],
    reqs: &[(u64, usize)],
    t0: Instant,
    gap_ns: f64,
    time: i64,
    traced: bool,
) -> std::io::Result<u64> {
    let due = |i: usize| (i as f64 * gap_ns) as u64;
    let mut bufs = [String::new(), String::new()];
    let mut late = 0u64;
    let mut i = 0;
    while i < reqs.len() {
        let now = t0.elapsed().as_nanos() as u64;
        if due(i) > now {
            std::thread::sleep(Duration::from_nanos(due(i) - now));
            continue;
        }
        late = late.max(now - due(i));
        while i < reqs.len() && due(i) <= now {
            let (id, lane) = reqs[i];
            bufs[i % 2].push_str(&predict_line(id, lane, time, traced));
            bufs[i % 2].push('\n');
            i += 1;
        }
        for (mut conn, buf) in conns.iter().zip(bufs.iter_mut()) {
            if !buf.is_empty() {
                conn.write_all(buf.as_bytes())?;
                buf.clear();
            }
        }
    }
    Ok(late)
}

type Got = Option<(u64, bool, Option<u64>)>;

/// Reads both connections until every request is answered or `deadline`
/// passes. Answers arrive in request order per connection, so the k-th
/// line on connection c answers request `2k + c`.
fn read_replies(
    conns: &[TcpStream; 2],
    reqs: &[(u64, usize)],
    t0: Instant,
    deadline: Duration,
) -> Vec<Got> {
    let mut got: Vec<Got> = vec![None; reqs.len()];
    let mut fds = [
        PollFd::new(conns[0].as_raw_fd(), POLLIN),
        PollFd::new(conns[1].as_raw_fd(), POLLIN),
    ];
    let mut pending = [Vec::new(), Vec::new()];
    let mut next = [0usize, 1usize];
    let mut left = reqs.len();
    let mut chunk = vec![0u8; 1 << 16];
    while left > 0 && t0.elapsed() < deadline {
        for f in fds.iter_mut() {
            f.revents = 0;
        }
        match poll_fds(&mut fds, 10) {
            Ok(0) => continue,
            Ok(_) => {}
            Err(_) => break,
        }
        for c in 0..2 {
            if fds[c].revents == 0 {
                continue;
            }
            let mut conn = &conns[c];
            let n = match conn.read(&mut chunk) {
                Ok(n) if n > 0 => n,
                // EOF or a reset: nothing more will come on this one.
                _ => {
                    fds[c].fd = -1;
                    continue;
                }
            };
            let now = t0.elapsed().as_nanos() as u64;
            pending[c].extend_from_slice(&chunk[..n]);
            let mut start = 0;
            while let Some(len) = pending[c][start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&pending[c][start..start + len]);
                let i = next[c];
                if i < reqs.len() {
                    let ok = is_ok(&line) && field_u64(&line, "id") == Some(reqs[i].0);
                    got[i] = Some((now, ok, trace_id(&line)));
                    next[c] += 2;
                    left -= 1;
                }
                start += len + 1;
            }
            pending[c].drain(..start);
        }
    }
    got
}

/// What a windowed ingest saw.
pub struct Acks {
    /// Send → ack per line, µs.
    pub latency_us: Vec<f64>,
    pub wall_s: f64,
    /// Responses that failed or did not answer their request.
    pub failures: Vec<String>,
    /// `(trace id, latency µs)` of every traced answer.
    pub traced: Vec<(u64, f64)>,
}

/// Streams `lines` over `conn` with up to `window` requests in flight and
/// pairs each response with its request: same position, `ok`, same event,
/// same job id.
pub fn ingest(conn: &mut Conn, lines: &[String], window: usize) -> Res<Acks> {
    let t0 = Instant::now();
    let mut sent = vec![t0; lines.len()];
    let mut next = 0;
    let mut acks = Acks {
        latency_us: Vec::with_capacity(lines.len()),
        wall_s: 0.0,
        failures: Vec::new(),
        traced: Vec::new(),
    };
    for k in 0..lines.len() {
        while next < lines.len() && next < k + window {
            sent[next] = Instant::now();
            conn.send(&lines[next])?;
            next += 1;
        }
        let resp = conn.recv()?;
        let us = sent[k].elapsed().as_secs_f64() * 1e6;
        acks.latency_us.push(us);
        let req = &lines[k];
        let paired = is_ok(&resp)
            && field_str(&resp, "event") == field_str(req, "event")
            && field_u64(&resp, "id") == field_u64(req, "id");
        if !paired {
            acks.failures.push(format!("{req:.160} -> {resp:.160}"));
        }
        if let Some(t) = trace_id(&resp) {
            acks.traced.push((t, us));
        }
    }
    acks.wall_s = t0.elapsed().as_secs_f64();
    Ok(acks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_come_from_the_named_key_only() {
        let line = r#"{"ok":true,"event":"predict","id":17,"lane":"urgent","trace_id":"00000000000000ff"}"#;
        assert_eq!(field_u64(line, "id"), Some(17));
        assert_eq!(field_str(line, "event"), Some("predict"));
        assert_eq!(trace_id(line), Some(255));
        let submit = r#"{"event":"submit","job":{"id":3,"user":1,"submit_time":9}}"#;
        assert_eq!(field_u64(submit, "id"), Some(3));
        assert_eq!(field_u64(submit, "time"), None);
    }
}
