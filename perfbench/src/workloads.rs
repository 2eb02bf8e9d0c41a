//! The two workloads. Each builds its inputs from the seed, drives real
//! `trout` processes, checks every answer and reports its metrics; the
//! traced variants hand over to `layers` for the in-process half.

use std::fs;
use std::path::Path;
use std::time::Duration;

use trout_std::json::Json;

use crate::client::{self, num, Acks, Conn, Daemon, Phase, LANES, LANE_BUDGET_MS};
use crate::inputs::{self, Inputs, Stream};
use crate::layers;
use crate::stats::{median, quantile_of, Summary};
use crate::{Ctx, Res};

/// Prefix of the error that discards a run rather than failing it.
pub const DISCARDED: &str = "discarded:";
/// predict_open's reference rate, predicts/s over both connections.
const REF_RATE: f64 = 2000.0;
/// A phase in which any send left more than this late against its
/// schedule measured the generator, not the daemon: the urgent lane's
/// whole budget. Single stalls of 20-40 ms do happen on a small shared VM.
const GEN_LATE_LIMIT_MS: f64 = LANE_BUDGET_MS[0];
/// Attempts at a reference-rate phase before a late generator discards
/// the run.
const GEN_ATTEMPTS: usize = 3;
/// predict_open runs this many reference-rate segments, spread over the
/// run so that a slow spell of the machine lands in few of them, with the
/// rate ladder halfway. The p99 is the median of the segments' p99s, each
/// with at least ten samples beyond it.
const ROUNDS: u64 = 4;
/// Passing and failing ladder rungs end at most this ratio apart.
const KNEE_RESOLUTION: f64 = 1.05;
/// Request lines in flight during ingest.
const INGEST_WINDOW: usize = 32;
/// Startup patience: a model load, or a crash recovery with its snapshot
/// parse.
const STARTUP_LIMIT: Duration = Duration::from_secs(150);
/// Job id of the probe job the cold starts and the crash use; far above
/// any simulated id.
const PROBE_ID: u64 = 900_000_001;

/// Submit and v1 predict lines for the probe job at `time`.
fn probe(time: i64) -> [String; 2] {
    [
        format!(
            "{{\"event\":\"submit\",\"job\":{{\"id\":{PROBE_ID},\"user\":1,\"partition\":0,\
             \"submit_time\":{time},\"req_cpus\":4,\"req_mem_gb\":8,\"req_nodes\":1,\
             \"timelimit_min\":60}}}}"
        ),
        format!("{{\"event\":\"predict\",\"id\":{PROBE_ID},\"time\":{time}}}"),
    ]
}

fn serve_args(inp: &Inputs, addr: &str, extra: &[&str]) -> Vec<String> {
    let mut a = vec![
        "--model".to_string(),
        inp.model.display().to_string(),
        "--trace".into(),
        inp.trace.display().to_string(),
        "--listen".into(),
        addr.to_string(),
    ];
    a.extend(extra.iter().map(|s| s.to_string()));
    a
}

fn first_failure(failures: &[String]) -> String {
    match failures.first() {
        Some(f) => format!("{} failed, first: {f}", failures.len()),
        None => String::new(),
    }
}

/// Starts a fresh daemon on M that submits and predicts the probe job,
/// reports its `ready_s` and returns it, still running.
fn cold_start(ctx: &mut Ctx, inp: &Inputs) -> Res<(Daemon, Conn)> {
    let addr = client::free_addr()?;
    let (d, mut c) = start(ctx, serve_args(inp, &addr, &[]), "serve")?;
    let [submit, predict] = probe(1000);
    c.send(&submit)?;
    c.send(&predict)?;
    let (a, b) = (c.recv()?, c.recv()?);
    let ready = d.since_spawn();
    if !(client::is_ok(&a) && client::is_ok(&b)) {
        return Err(format!("cold start probe failed: {a} / {b}"));
    }
    ctx.report.count(2, 0);
    ctx.report.metric(
        "ready_s",
        ready,
        "s",
        "spawn -> first ok predict of a cold trout serve",
    );
    Ok((d, c))
}

fn report_generator(ctx: &mut Ctx, p: &Phase, prefix: &str) {
    ctx.report.metric(
        &format!("{prefix}late_ms"),
        p.late_ms,
        "ms",
        "worst lateness of a send against the open-loop schedule",
    );
    ctx.report.metric(
        &format!("{prefix}cpu_s"),
        p.cpu_s,
        "s",
        "load generator CPU time",
    );
}

/// Runs an open-loop phase at the reference rate, repeating it while the
/// generator fell behind its schedule; `GEN_ATTEMPTS` late phases discard
/// the run.
fn steady_phase(inp: &Inputs, addr: &str, seed: u64, secs: f64, traced: bool) -> Res<Phase> {
    for _ in 0..GEN_ATTEMPTS {
        let p = client::open_loop(
            addr,
            &inp.pool_ids,
            inp.pool_time,
            seed,
            REF_RATE,
            secs,
            traced,
        )?;
        if p.late_ms <= GEN_LATE_LIMIT_MS {
            return Ok(p);
        }
        println!(
            "note: generator ran {:.1} ms late at {REF_RATE}/s; repeating the phase",
            p.late_ms
        );
    }
    Err(format!(
        "{DISCARDED} the load generator fell more than {GEN_LATE_LIMIT_MS} ms behind its \
         schedule {GEN_ATTEMPTS} times at {REF_RATE}/s"
    ))
}

/// predict_open: a 1-shard daemon holding a 4,096-job pending pool answers
/// v2 predicts from two connections in an open loop at the reference rate,
/// in segments with, halfway, a rate ladder up to the knee.
pub fn predict_open(ctx: &mut Ctx) -> Res<()> {
    let mut inp = inputs::setup(ctx, Stream::Pool)?;
    let (mut d, mut c) = cold_start(ctx, &inp)?;
    let pool = client::ingest(&mut c, &inp.pool, 64)?;
    ctx.report.count(pool.latency_us.len(), pool.failures.len());
    ctx.report.check(
        "pool_submitted",
        pool.failures.is_empty(),
        &first_failure(&pool.failures),
    );
    // Every open-loop phase brings its own two connections.
    drop(c);
    if ctx.traced {
        predict_open_traced(ctx, &inp, &mut d)?;
        return inp.report_setup(ctx);
    }
    let addr = d.addr.clone();
    let seg_secs = (ctx.seconds * 0.1).max(1.0);
    let mut segments = Vec::new();
    for round in 0..ROUNDS {
        let seed = ctx.seed ^ (round << 48);
        segments.push(steady_phase(&inp, &addr, seed, seg_secs, false)?);
        inp.rebuild(ctx)?;
        if round + 1 == ROUNDS / 2 {
            let (rate, goodput) = ladder(ctx, &inp, &addr, &segments[0])?;
            ctx.report.metric(
                "predict_max_rate",
                rate,
                "req/s",
                &format!("highest ladder rung meeting every SLO; {goodput:.0} ok answers/s on it"),
            );
        }
    }
    let p99s: Vec<f64> = segments
        .iter()
        .map(|p| quantile_of(&p.latencies(None), 0.99))
        .collect();
    let tail = median(&p99s);
    let span_s: f64 = segments.iter().map(Phase::span_s).sum();
    let reference = Phase::concat(segments);
    let n = reference.replies.len();
    ctx.report.count(n, reference.failed());
    let all = Summary::of(&reference.latencies(None));
    ctx.report.metric(
        "predict_p50_us",
        all.p50,
        "us",
        &format!("scheduled send -> response at {REF_RATE}/s, n={}", all.n),
    );
    ctx.report.metric(
        "predict_p99_us",
        tail,
        "us",
        &format!(
            "median of p99s {p99s:.0?} over {ROUNDS} segments of n={}; pooled {} {:.0}",
            n / ROUNDS as usize,
            all.tail_label,
            all.tail
        ),
    );
    for (lane, name) in LANES.iter().enumerate() {
        let s = Summary::of(&reference.latencies(Some(lane)));
        println!("lane {name} at {REF_RATE}/s: {}", s.describe("us"));
    }
    ctx.report.metric(
        "failed_ratio",
        reference.failed() as f64 / n as f64,
        "share",
        &format!("shed, failed or unanswered of {n} at {REF_RATE}/s"),
    );
    ctx.report.check(
        "reference_rate_all_ok",
        reference.failed() == 0,
        &format!("{} of {n} failed at {REF_RATE}/s", reference.failed()),
    );
    report_generator(ctx, &reference, "gen_");
    ctx.report
        .metric("latency_ms", all.p50 / 1e3, "ms", "predict_p50_us");
    let ok = n - reference.failed();
    ctx.report.metric(
        "throughput_per_s",
        ok as f64 / span_s,
        "1/s",
        &format!("open-loop goodput at {REF_RATE}/s: {ok} ok answers over {span_s:.3} s"),
    );
    ctx.report
        .metric("rss_peak_mb", d.rss_peak_mb(), "MB", "VmHWM of trout serve");
    inp.report_setup(ctx)
}

/// Whether a rung meets the SLO: the generator kept its schedule, every
/// request was answered ok, each lane's tail is within its budget, and the
/// backlog did not grow. Returns the measured goodput, or why it failed.
fn verdict(p: &Phase) -> Result<f64, String> {
    if p.late_ms > GEN_LATE_LIMIT_MS {
        return Err(format!("generator {:.1} ms late", p.late_ms));
    }
    let failed = p.failed();
    if failed > 0 {
        return Err(format!(
            "{failed} of {} shed, failed or unanswered",
            p.replies.len()
        ));
    }
    for (lane, name) in LANES.iter().enumerate() {
        let s = Summary::of(&p.latencies(Some(lane)));
        if s.tail / 1e3 > LANE_BUDGET_MS[lane] {
            return Err(format!(
                "{name} {} {:.1} ms over its {} ms budget",
                s.tail_label,
                s.tail / 1e3,
                LANE_BUDGET_MS[lane]
            ));
        }
    }
    let lat = p.latencies(None);
    let k = (lat.len() / 10).max(1);
    let (first, last) = (median(&lat[..k]), median(&lat[lat.len() - k..]));
    if last > (2.0 * first).max(first + 2000.0) {
        return Err(format!(
            "backlog grew: first-decile median {first:.0} us, last {last:.0} us"
        ));
    }
    Ok(p.goodput())
}

/// Climbs from the reference rate by ×1.5 until a rung fails (or descends
/// when the reference already fails), then bisects until the highest
/// passing and lowest failing rungs are within `KNEE_RESOLUTION`. Returns
/// the highest passing rate and the goodput measured on it.
fn ladder(ctx: &Ctx, inp: &Inputs, addr: &str, reference: &Phase) -> Res<(f64, f64)> {
    let rung_secs = (ctx.seconds * 0.06).max(0.3);
    let seed = ctx.seed;
    let mut salt = 0u64;
    // A failing rung runs once more before it counts: one stall from
    // outside the daemon can sink a rung well below the knee.
    let mut rung = |rate: f64| -> Res<Result<f64, String>> {
        let mut v = Err(String::new());
        for attempt in 0..2 {
            salt += 1;
            // Let the previous rung's stragglers drain first.
            std::thread::sleep(Duration::from_millis(200));
            let p = client::open_loop(
                addr,
                &inp.pool_ids,
                inp.pool_time,
                seed ^ (salt << 32),
                rate,
                rung_secs,
                false,
            )?;
            v = verdict(&p);
            match &v {
                Ok(g) => println!("rung {rate:.0}/s: pass, goodput {g:.0}/s"),
                Err(why) => println!("rung {rate:.0}/s (attempt {}): fail, {why}", attempt + 1),
            }
            if v.is_ok() {
                break;
            }
        }
        Ok(v)
    };
    let (mut lo, mut hi) = match verdict(reference) {
        Ok(g) => {
            let mut lo = (REF_RATE, g);
            loop {
                let rate = lo.0 * 1.5;
                if rate > 2e6 {
                    return Err("ladder passed 2M/s without finding a knee".into());
                }
                match rung(rate)? {
                    Ok(g) => lo = (rate, g),
                    Err(_) => break (lo, rate),
                }
            }
        }
        Err(_) => {
            let mut hi = REF_RATE;
            loop {
                let rate = hi / 1.5;
                if rate < 50.0 {
                    return Err("no ladder rung down to 50/s met the SLO".into());
                }
                match rung(rate)? {
                    Ok(g) => break ((rate, g), hi),
                    Err(_) => hi = rate,
                }
            }
        }
    };
    while hi / lo.0 > KNEE_RESOLUTION {
        let mid = (lo.0 * hi).sqrt();
        match rung(mid)? {
            Ok(g) => lo = (mid, g),
            Err(_) => hi = mid,
        }
    }
    Ok(lo)
}

/// The traced daemon's own numbers: hold and transport residual (client
/// latency minus the daemon's `total_us`) per traced request, rows per
/// flush and the shed ratio. Returns rows per flush and the metrics dump.
fn daemon_side(ctx: &mut Ctx, c: &mut Conn, client_us: &[(u64, f64)]) -> Res<(usize, Json)> {
    let records = c.flight_records()?;
    let (mut residual, mut hold) = (Vec::new(), Vec::new());
    for (id, us) in client_us {
        if let Some(&(total, h)) = records.get(id) {
            residual.push(us - total);
            hold.push(h);
        }
    }
    let matched = format!("{} traced requests matched", residual.len());
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        ctx.report.metric(
            &format!("transport.residual_us.{tag}"),
            quantile_of(&residual, q),
            "us",
            &format!("client latency - daemon total_us, {matched}"),
        );
        ctx.report.metric(
            &format!("router.hold_us.{tag}"),
            quantile_of(&hold, q),
            "us",
            &format!("daemon hold_us stage, {matched}"),
        );
    }
    let m = c.metrics()?;
    let rows = num(m.get("batch_size").and_then(|b| b.get("mean")));
    ctx.report.metric(
        "router.rows_per_flush",
        rows,
        "count",
        "mean of the daemon's batch_size",
    );
    let shed = num(m.get("admission").and_then(|a| a.get("shed_total")));
    let predicts = num(m.get("counters").and_then(|c| c.get("predicts")));
    ctx.report.metric(
        "scheduler.shed_ratio",
        shed / (shed + predicts).max(1.0),
        "share",
        "shed_total / (predicts + shed_total)",
    );
    Ok((rows.round().max(1.0) as usize, m))
}

fn predict_open_traced(ctx: &mut Ctx, inp: &Inputs, d: &mut Daemon) -> Res<()> {
    let addr = d.addr.clone();
    let secs = ctx.seconds * 0.3;
    // The same seeded request sequence, untraced and then traced.
    let plain = steady_phase(inp, &addr, ctx.seed, secs, false)?;
    let traced = steady_phase(inp, &addr, ctx.seed, secs, true)?;
    ctx.report.count(
        plain.replies.len() + traced.replies.len(),
        plain.failed() + traced.failed(),
    );
    report_generator(ctx, &traced, "generator.");
    let (p0, p1) = (
        median(&plain.latencies(None)),
        median(&traced.latencies(None)),
    );
    ctx.report.metric(
        "tracing.overhead_share",
        (p1 - p0) / p0,
        "share",
        &format!("predict p50 traced {p1:.0} us vs untraced {p0:.0} us"),
    );
    let (rows, _) = daemon_side(ctx, &mut Conn::open(&addr)?, &traced.traced())?;
    d.kill();
    layers::predict_open(ctx, inp, rows, traced.replies.len())
}

/// Arguments of a durable 2-shard leader on `state`, streaming to
/// followers on `raddr`.
fn leader_args(inp: &Inputs, state: &Path, raddr: &str) -> Res<Vec<String>> {
    let dir = state.display().to_string();
    let flags = [
        "--shards",
        "2",
        "--state-dir",
        &dir,
        "--replicate-listen",
        raddr,
    ];
    Ok(serve_args(inp, &client::free_addr()?, &flags))
}

fn start(ctx: &mut Ctx, args: Vec<String>, tag: &str) -> Res<(Daemon, Conn)> {
    let mut d = ctx.daemon(args, tag)?;
    let c = d.connect(STARTUP_LIMIT)?;
    if let Some(tier) = d.simd_tier() {
        ctx.report.simd_tier = tier;
    }
    Ok((d, c))
}

fn report_acks(ctx: &mut Ctx, acks: &Acks) {
    let n = acks.latency_us.len();
    ctx.report.count(n, acks.failures.len());
    ctx.report.check(
        "acks_paired",
        acks.failures.is_empty(),
        &first_failure(&acks.failures),
    );
    let s = Summary::of(&acks.latency_us);
    let rate = n as f64 / acks.wall_s;
    let note = format!("send -> ack, window {INGEST_WINDOW}, n={}", s.n);
    ctx.report.metric("ack_p50_us", s.p50, "us", &note);
    ctx.report.metric(
        "ack_p99_us",
        s.tail,
        "us",
        &format!("{} of n={}", s.tail_label, s.n),
    );
    ctx.report.metric(
        "ingest_events_per_s",
        rate,
        "1/s",
        &format!("{n} acked lines"),
    );
    ctx.report.metric(
        "failed_ratio",
        acks.failures.len() as f64 / n as f64,
        "share",
        "failed or unpaired acks",
    );
    ctx.report
        .metric("latency_ms", s.p50 / 1e3, "ms", "ack_p50_us");
    ctx.report
        .metric("throughput_per_s", rate, "1/s", "ingest_events_per_s");
}

fn watermarks(resp: &str) -> Vec<u64> {
    resp.match_indices("\"watermark\":")
        .filter_map(|(i, _)| client::field_u64(&resp[i..], "watermark"))
        .collect()
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let meta = entry.metadata().map_err(|e| format!("{e}"))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("{e}"))?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            fs::copy(entry.path(), &dest).map_err(|e| format!("{}: {e}", dest.display()))?;
        }
    }
    Ok(())
}

/// Seconds a fresh leader took to build its engines, from its own log: M
/// and T loaded to the state dir opened.
fn engine_build_s(leader: &Daemon) -> f64 {
    let at = |prefix| leader.log_times(prefix).first().copied().unwrap_or(0.0);
    at("journaling") - at("loaded model")
}

/// Seconds a recovering daemon spent on each shard, from its own log. The
/// shards recover one after the other, each ending in a `recovered:` line;
/// the engine build (`build_s`, as a fresh leader took it) precedes shard
/// 0 and is left out.
fn shard_recovery_s(r: &Daemon, build_s: f64) -> Vec<f64> {
    let mut prev = r.log_times("loaded model").first().copied().unwrap_or(0.0) + build_s;
    r.log_times("recovered:")
        .into_iter()
        .map(|t| {
            let s = t - prev;
            prev = t;
            s
        })
        .collect()
}

/// Starts `--recover` on a pristine copy of the crashed state dir `state`
/// and returns it with a connection, once it listens.
fn recover_copy(ctx: &mut Ctx, inp: &Inputs, state: &Path) -> Res<(Daemon, Conn)> {
    let copy = ctx.work.join("recovered");
    copy_dir(state, &copy)?;
    let mut args = leader_args(inp, &copy, &client::free_addr()?)?;
    args.push("--recover".into());
    let mut r = ctx.daemon(args, "recover")?;
    let c = r.connect(STARTUP_LIMIT)?;
    Ok((r, c))
}

/// ingest_recover: the live script into a durable 2-shard leader, a fresh
/// follower's catch-up, then SIGKILL and `--recover` from a pristine copy
/// of the crashed state dir.
pub fn ingest_recover(ctx: &mut Ctx) -> Res<()> {
    let mut inp = inputs::setup(ctx, Stream::Live)?;
    if ctx.traced {
        ingest_traced(ctx, &inp)?;
        return inp.report_setup(ctx);
    }
    let state = ctx.work.join("state");
    let raddr = client::free_addr()?;
    let (mut leader, mut c) = start(ctx, leader_args(&inp, &state, &raddr)?, "leader")?;
    let acks = client::ingest(&mut c, &inp.live, INGEST_WINDOW)?;
    report_acks(ctx, &acks);
    inp.rebuild(ctx)?;

    // One job stays pending across the crash, for the recovered daemon to
    // predict.
    let [submit, predict] = probe(inp.live_end + 60);
    let ack = c.request(&submit)?;
    ctx.report.count(1, usize::from(!client::is_ok(&ack)));
    let marks = watermarks(&c.request(r#"{"event":"replication"}"#)?);
    let m = c.metrics()?;
    let drift = m.get("drift");
    ctx.report.metric(
        "served_within_2x",
        num(drift.and_then(|d| d.get("within_2x"))),
        "share",
        &format!(
            "drift section of metrics, {} joined",
            num(drift.and_then(|d| d.get("joined")))
        ),
    );
    let dump = c.request(r#"{"event":"state"}"#)?;
    ctx.report
        .check("leader_state_dump", client::is_ok(&dump), "");

    // A fresh follower catches up with the idle leader.
    let fdir = ctx.work.join("follower").display().to_string();
    let fargs = serve_args(
        &inp,
        &client::free_addr()?,
        &["--shards", "2", "--state-dir", &fdir, "--follow", &raddr],
    );
    let (mut f, mut fc) = start(ctx, fargs, "follower")?;
    while watermarks(&fc.request(r#"{"event":"replication"}"#)?) != marks {
        if f.since_spawn() > STARTUP_LIMIT.as_secs_f64() {
            return Err(format!("follower did not reach watermarks {marks:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let catchup = f.since_spawn();
    ctx.report.metric(
        "catchup_s",
        catchup,
        "s",
        &format!("follower spawn -> watermarks equal the leader's {marks:?}"),
    );
    let fdump = fc.request(r#"{"event":"state"}"#)?;
    ctx.report.check(
        "follower_state_equal",
        fdump == dump,
        &format!("{} vs {} bytes", fdump.len(), dump.len()),
    );
    drop(fc);
    f.kill();
    inp.rebuild(ctx)?;

    // Crash the leader, then recover a pristine copy of its state dir.
    let rss = leader.rss_peak_mb();
    let build_s = engine_build_s(&leader);
    drop(c);
    let reap_s = leader.kill();
    ctx.report.metric(
        "state_dir_bytes",
        dir_bytes(&state)? as f64,
        "B",
        "at the crash",
    );
    let (mut r, mut rc) = recover_copy(ctx, &inp, &state)?;
    // The state dump goes out ahead of the predict in the same burst: the
    // predict changes the state being compared.
    rc.send(r#"{"event":"state"}"#)?;
    rc.send(&predict)?;
    let rdump = rc.recv()?;
    let answer = rc.recv()?;
    let recover_s = reap_s + r.since_spawn();
    ctx.report.count(1, usize::from(!client::is_ok(&answer)));
    ctx.report.check(
        "recovered_predict_ok",
        client::is_ok(&answer),
        &format!("{answer:.160}"),
    );
    ctx.report.check(
        "recovered_state_equal",
        rdump == dump,
        &format!("{} vs {} bytes", rdump.len(), dump.len()),
    );
    ctx.report.metric(
        "recover_s",
        recover_s,
        "s",
        &format!(
            "SIGKILL -> first ok predict of the pending probe job (reap {reap_s:.4} s); \
             engine build {build_s:.2} s, then the shards one after the other in {:.2?} s",
            shard_recovery_s(&r, build_s)
        ),
    );
    ctx.report
        .metric("rss_peak_mb", rss, "MB", "VmHWM of the leader at the crash");
    r.kill();
    inp.report_setup(ctx)
}

/// A script line with its predict turned into a traced v2 predict.
fn traced_line(line: &str) -> String {
    match line.strip_prefix("{\"event\":\"predict\",") {
        Some(rest) => format!(
            "{{\"v\":2,\"event\":\"predict\",{},\"trace\":true}}",
            rest.strip_suffix('}').unwrap_or(rest)
        ),
        None => line.to_string(),
    }
}

/// The traced ingest: an untraced and a traced pass on fresh leaders, the
/// traced daemon's own numbers, then the in-process layers on the traced
/// leader's crashed state dir.
fn ingest_traced(ctx: &mut Ctx, inp: &Inputs) -> Res<()> {
    let plain_dir = ctx.work.join("state-plain");
    let args = leader_args(inp, &plain_dir, &client::free_addr()?)?;
    let (mut l1, mut c1) = start(ctx, args, "leader-plain")?;
    let plain = client::ingest(&mut c1, &inp.live, INGEST_WINDOW)?;
    drop(c1);
    l1.kill();

    let lines: Vec<String> = inp.live.iter().map(|l| traced_line(l)).collect();
    let state = ctx.work.join("state");
    let args = leader_args(inp, &state, &client::free_addr()?)?;
    let (mut leader, mut c) = start(ctx, args, "leader")?;
    let acks = client::ingest(&mut c, &lines, INGEST_WINDOW)?;
    for a in [&plain, &acks] {
        ctx.report.count(a.latency_us.len(), a.failures.len());
    }
    let failures = [plain.failures.as_slice(), acks.failures.as_slice()].concat();
    ctx.report.check(
        "acks_paired",
        failures.is_empty(),
        &first_failure(&failures),
    );
    let (p0, p1) = (median(&plain.latency_us), median(&acks.latency_us));
    ctx.report.metric(
        "tracing.overhead_share",
        (p1 - p0) / p0,
        "share",
        &format!("ack p50 traced {p1:.0} us vs untraced {p0:.0} us"),
    );
    let (_, m) = daemon_side(ctx, &mut c, &acks.traced)?;
    ctx.report.metric(
        "snapshot.count",
        num(m.get("counters").and_then(|c| c.get("snapshots"))),
        "count",
        "snapshots the daemon wrote, both shards",
    );
    drop(c);
    let build_s = engine_build_s(&leader);
    leader.kill();
    // The daemon's own recovery of the same crashed state, per shard, for
    // the recovery split.
    let (mut r, rc) = recover_copy(ctx, inp, &state)?;
    let daemon_s = shard_recovery_s(&r, build_s);
    drop(rc);
    r.kill();
    layers::ingest(ctx, inp, &state, &daemon_s)
}
