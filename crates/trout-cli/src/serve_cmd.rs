//! The `trout serve` daemon, the `trout events` replay-script generator,
//! and the `trout metrics` client for a running daemon.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

use trout_core::error::{Result, TroutError};
use trout_core::online::OnlineConfig;
use trout_core::TroutConfig;
use trout_obs::log_info;
use trout_serve::{
    replay_script, run_follower, run_stdin, run_tcp, spawn_replication_listener, ServeConfig,
    ShardSet,
};
use trout_std::json::Json;

use crate::args::Options;
use crate::commands::{load_model, load_trace};

/// Every flag `trout serve` reads, space-separated.
pub const SERVE_FLAGS: &str = "model trace bootstrap seed stdin listen shards batch refit-every \
    deadline-ms urgent-deadline-ms batch-deadline-ms est-predict-us state-dir recover \
    snapshot-every fsync-every compact replicate-listen follow";

/// `trout serve (--model MODEL.json --trace FILE | --bootstrap JOBS)
///              [--stdin | --listen ADDR]
///              [--shards N] [--batch N] [--refit-every N]
///              [--deadline-ms N] [--urgent-deadline-ms N]
///              [--batch-deadline-ms N] [--est-predict-us N]
///              [--state-dir DIR [--recover] [--snapshot-every N]
///               [--fsync-every N] [--compact]]
///              [--replicate-listen ADDR | --follow ADDR]`
///
/// Builds the shard set (either from a trained model plus its training
/// trace, or self-bootstrapped from a fresh simulation), then serves the
/// ndjson protocol over stdin/stdout (the default) or a TCP listener that
/// runs one session thread per connection.
///
/// `--shards N` runs N independent engines: lifecycle events broadcast to
/// every shard, predicts route by `hash(job_id) % N`, and the wire protocol
/// is unchanged.
///
/// The scheduler flags tune the v2 predict SLO layer (DESIGN §12):
/// `--deadline-ms` / `--urgent-deadline-ms` / `--batch-deadline-ms` set the
/// default latency budget of the normal / urgent / batch lane (defaults
/// 500 / 50 / 5000) for predicts that name no explicit `deadline_ms`, and
/// `--est-predict-us` (default 150) is the per-prediction cost estimate
/// behind the admission-control shed threshold.
///
/// Predictions run the model's own forward pass on the runtime-dispatched
/// SIMD kernels (overridable via `TROUT_SIMD=scalar|sse2|avx2`); every tier
/// gives bit-identical answers.
///
/// With `--state-dir`, every accepted event is appended to a write-ahead
/// journal and a snapshot is written every `--snapshot-every`
/// events (default 1024; 0 = journal only). `--fsync-every 1` (the
/// default) is durable before ack by group commit: one fsync per dirty
/// shard per drained request window, right before the responses leave.
/// `--fsync-every N` fsyncs every N appends without holding acks (0 =
/// never). Each shard journals into its own `shard-NNN/` subdirectory. After a crash, restarting with the
/// **same engine arguments** (including `--shards`) plus `--recover`
/// restores the exact state the crashed daemon had acknowledged.
/// `--compact` truncates each journal after the snapshot that covers it,
/// bounding the state dir to one snapshot plus one snapshot interval of
/// tail (recovery and replication positions stay absolute).
///
/// Replication (DESIGN §15): `--replicate-listen ADDR` makes this daemon a
/// leader that streams every acknowledged journal entry to connected
/// followers; `--follow ADDR` makes it a hot standby that replays the
/// leader's stream into a warm engine, journals it locally, serves
/// read-only predicts (lifecycle events get a typed `read_only` error),
/// and becomes the leader when sent `{"event":"promote"}`. Both require
/// `--state-dir`; a follower also requires `--listen` (the promote line
/// arrives on the client port), and bootstrap arguments must match the
/// leader's.
pub fn serve(opts: &Options) -> Result<()> {
    let batch: usize = opts.get_or("batch", 32)?;
    let n_shards: usize = opts.get_or("shards", 1)?;
    if n_shards == 0 {
        return Err(TroutError::Config("--shards must be at least 1".into()));
    }
    let cfg = ServeConfig {
        refit_every: opts.get_or("refit-every", 256)?,
        seed: opts.get_or("seed", 0)?,
        ..Default::default()
    };
    // One startup line pins down which kernel tier this process dispatched
    // to (and therefore what TROUT_SIMD resolved to), for every mode.
    log_info!(
        "serve",
        "simd kernel tier: {} (best supported {}; override with TROUT_SIMD)",
        trout_linalg::SimdTier::active().name(),
        trout_linalg::SimdTier::best_supported().name()
    );

    let shards = if opts.has("bootstrap") {
        let jobs: usize = opts.require_parsed("bootstrap")?;
        log_info!(
            "serve",
            "bootstrapping {n_shards} shard(s) on a fresh {jobs}-job simulation (seed {})",
            cfg.seed
        );
        ShardSet::bootstrap(n_shards, jobs, &cfg)
    } else {
        let model = load_model(opts)?;
        let trace = load_trace(opts)?;
        log_info!(
            "serve",
            "loaded model, refitting scaler + runtime forest on {} trace records \
             ({n_shards} shard(s))",
            trace.records.len()
        );
        ShardSet::from_trace(
            n_shards,
            &trace,
            Some(model),
            TroutConfig::default(),
            OnlineConfig::default(),
            &cfg,
        )
    };

    let mut sched = trout_serve::SchedulerConfig::default();
    sched.default_deadline_ms = [
        opts.get_or("urgent-deadline-ms", sched.default_deadline_ms[0])?,
        opts.get_or("deadline-ms", sched.default_deadline_ms[1])?,
        opts.get_or("batch-deadline-ms", sched.default_deadline_ms[2])?,
    ];
    sched.est_predict_us = opts.get_or("est-predict-us", sched.est_predict_us)?;
    if sched.est_predict_us == 0 {
        return Err(TroutError::Config(
            "--est-predict-us must be at least 1".into(),
        ));
    }
    if sched.default_deadline_ms.contains(&0) {
        return Err(TroutError::Config(
            "lane deadlines must be at least 1 ms".into(),
        ));
    }
    let shards = shards.with_scheduler(sched);

    let fsync_every: u64 = opts.get_or("fsync-every", 1)?;
    for i in 0..shards.len() {
        shards.lock(i).online_config_mut().journal_fsync_every = fsync_every;
    }
    if opts.has("compact") {
        shards.set_compaction(true);
    }

    let replicate_listen = opts.get("replicate-listen").map(str::to_string);
    let follow = opts.get("follow").map(str::to_string);
    if replicate_listen.is_some() && follow.is_some() {
        return Err(TroutError::Config(
            "--replicate-listen (leader) and --follow (follower) are mutually exclusive".into(),
        ));
    }
    let repl_state_dir = if replicate_listen.is_some() || follow.is_some() {
        match opts.get("state-dir") {
            Some(dir) => Some(std::path::PathBuf::from(dir)),
            None => {
                return Err(TroutError::Config(
                    "replication needs --state-dir DIR: the journal is the stream".into(),
                ))
            }
        }
    } else {
        None
    };

    let recover = opts.has("recover");
    match opts.get("state-dir") {
        Some(dir) => {
            let snapshot_every: u64 = opts.get_or("snapshot-every", 1024)?;
            let reports = shards
                .open_state_dir(std::path::Path::new(dir), snapshot_every, recover)
                .map_err(|e| TroutError::Config(format!("state dir {dir}: {e}")))?;
            if recover {
                for (i, report) in reports.iter().enumerate() {
                    log_info!(
                        "serve",
                        "shard {i} recovered from {dir}: snapshot {}, {} of {} journal \
                         events replayed",
                        if report.snapshot_loaded {
                            "loaded"
                        } else {
                            "absent"
                        },
                        report.replayed,
                        report.journal_lines
                    );
                }
            } else {
                log_info!(
                    "serve",
                    "journaling {n_shards} shard(s) to {dir} (snapshot every {snapshot_every})"
                );
            }
        }
        None if recover => {
            return Err(TroutError::Config(
                "--recover requires --state-dir DIR".into(),
            ))
        }
        None => {}
    }

    match opts.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| TroutError::Config(format!("cannot listen on {addr}: {e}")))?;
            let shards = Arc::new(shards);
            let _leader_hub = match &replicate_listen {
                Some(raddr) => {
                    let rlistener = std::net::TcpListener::bind(raddr).map_err(|e| {
                        TroutError::Config(format!("cannot listen for followers on {raddr}: {e}"))
                    })?;
                    let dir = repl_state_dir.clone().expect("checked above");
                    let hub = spawn_replication_listener(Arc::clone(&shards), dir, rlistener)?;
                    log_info!(
                        "serve",
                        "replication leader streaming journals on {}",
                        hub.addr()
                    );
                    Some(hub)
                }
                None => None,
            };
            let _follower = follow.as_ref().map(|faddr| {
                let s = Arc::clone(&shards);
                let dir = repl_state_dir.clone().expect("checked above");
                let faddr = faddr.clone();
                log_info!(
                    "serve",
                    "hot standby following {faddr}: lifecycle events are refused \
                     (read_only) until {{\"event\":\"promote\"}}"
                );
                std::thread::spawn(move || run_follower(&s, &dir, &faddr))
            });
            log_info!("serve", "listening on {addr}");
            run_tcp(shards, listener, batch, None)
        }
        None if replicate_listen.is_some() || follow.is_some() => Err(TroutError::Config(
            "replication needs --listen ADDR: followers ack over TCP and \
             {\"event\":\"promote\"} arrives on the client port"
                .into(),
        )),
        None => {
            log_info!("serve", "reading events from stdin (batch {batch})");
            let handled = run_stdin(shards, batch)?;
            log_info!("serve", "session closed after {handled} requests");
            Ok(())
        }
    }
}

/// `trout events --trace FILE [--out FILE] [--predict-every N]`
///
/// Flattens a trace into the time-ordered submit/start/end ndjson stream a
/// live client would have produced — directly pipeable into `trout serve`.
/// With `--predict-every N`, every Nth submit is followed by a predict for
/// that job at its submission instant; the script ends with `metrics` and
/// `shutdown` so a piped session exits cleanly.
pub fn events(opts: &Options) -> Result<()> {
    let trace = load_trace(opts)?;
    let predict_every: usize = opts.get_or("predict-every", 0)?;
    let out = replay_script(&trace, predict_every);
    match opts.get("out") {
        Some(path) => {
            fs::write(path, &out).map_err(|e| {
                TroutError::Io(std::io::Error::new(
                    e.kind(),
                    format!("writing {path}: {e}"),
                ))
            })?;
            log_info!("cli", "wrote {} event lines to {path}", out.lines().count());
        }
        None => print!("{out}"),
    }
    Ok(())
}

/// `trout metrics --connect HOST:PORT [--format json|prometheus]`
///
/// Queries a running `trout serve --listen` daemon for its metrics registry
/// and prints the dump: the JSON registry sections, or the raw Prometheus
/// text exposition (decoded from the response envelope) ready to paste into
/// a scrape file.
pub fn metrics(opts: &Options) -> Result<()> {
    let addr = opts.require("connect")?;
    if opts.has("watch") {
        return watch_metrics(opts, addr);
    }
    let format = opts.get("format").unwrap_or("json");
    let request = match format {
        "json" => "{\"event\":\"metrics\"}\n",
        "prometheus" => "{\"event\":\"metrics\",\"format\":\"prometheus\"}\n",
        other => {
            return Err(TroutError::Config(format!(
                "unknown --format `{other}` (expected json or prometheus)"
            )))
        }
    };
    let response = request_one(addr, request)?;
    match response.get("body") {
        // Prometheus: the exposition text rides in the body string.
        Some(Json::Str(body)) => print!("{body}"),
        _ => match response.get("metrics") {
            Some(m) => println!("{m}"),
            None => {
                return Err(TroutError::Protocol(
                    "metrics response has neither `metrics` nor `body`".into(),
                ))
            }
        },
    }
    Ok(())
}

/// `trout replicate --connect HOST:PORT [--json]`
///
/// Queries a running daemon for its replication status: role (leader or
/// follower) plus, per shard, the absolute journal watermark, compaction
/// base, connected follower count, and replication lag in events. `--json`
/// prints the raw response line.
pub fn replicate(opts: &Options) -> Result<()> {
    let addr = opts.require("connect")?;
    let response = request_one(addr, "{\"event\":\"replication\"}\n")?;
    if opts.has("json") {
        println!("{response}");
        return Ok(());
    }
    let role = match response.get("role") {
        Some(Json::Str(s)) => s.clone(),
        _ => "?".into(),
    };
    let int_of = |j: Option<&Json>| match j {
        Some(Json::Int(v)) => *v,
        _ => 0,
    };
    println!("role: {role}");
    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>8}",
        "shard", "watermark", "base", "followers", "lag"
    );
    if let Some(Json::Arr(shards)) = response.get("shards") {
        for (i, s) in shards.iter().enumerate() {
            println!(
                "{:<6} {:>12} {:>12} {:>10} {:>8}",
                i,
                int_of(s.get("watermark")),
                int_of(s.get("base")),
                int_of(s.get("followers")),
                int_of(s.get("lag")),
            );
        }
    }
    Ok(())
}

/// Sends one request line to a daemon at `addr` over a fresh connection and
/// returns the parsed (and `ok`-checked) one-line response.
fn request_one(addr: &str, request: &str) -> Result<Json> {
    let mut conn = std::net::TcpStream::connect(addr)
        .map_err(|e| TroutError::Config(format!("cannot connect to {addr}: {e}")))?;
    conn.write_all(request.as_bytes())?;
    conn.flush()?;
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line)?;
    let response =
        Json::parse(line.trim()).map_err(|e| TroutError::Protocol(format!("bad response: {e}")))?;
    if response.get("ok") != Some(&Json::Bool(true)) {
        return Err(TroutError::Protocol(format!(
            "daemon rejected the request: {}",
            line.trim()
        )));
    }
    Ok(response)
}

/// One poll's worth of per-lane scheduler counters, pulled out of the
/// metrics JSON (`admission` + `burn` sections).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LanePoll {
    pub predicts: [u64; 3],
    pub shed: [u64; 3],
    pub violations: [u64; 3],
    pub burn_fast: [f64; 3],
}

const LANE_NAMES: [&str; 3] = ["urgent", "normal", "batch"];

/// Extracts the per-lane counters one watch poll displays.
fn lane_poll(m: &Json) -> LanePoll {
    let int_of = |j: Option<&Json>| match j {
        Some(Json::Int(v)) => *v as u64,
        _ => 0,
    };
    let num_of = |j: Option<&Json>| match j {
        Some(Json::Num(v)) => *v,
        Some(Json::Int(v)) => *v as f64,
        _ => 0.0,
    };
    let mut p = LanePoll::default();
    let adm = m.get("admission");
    let burn = m.get("burn");
    for (i, lane) in LANE_NAMES.iter().enumerate() {
        let section = |name: &str| adm.and_then(|a| a.get(name)).and_then(|s| s.get(lane));
        p.predicts[i] = int_of(section("lane_predicts"));
        p.shed[i] = int_of(section("shed"));
        p.violations[i] = int_of(section("slo_violations"));
        p.burn_fast[i] = num_of(
            burn.and_then(|b| b.get("fast"))
                .and_then(|f| f.get(lane))
                .and_then(|l| l.get("burn_rate")),
        );
    }
    p
}

/// Renders one watch frame: a per-lane table of cumulative counts plus the
/// deltas since the previous poll (`-` on the first frame).
fn render_watch(cur: &LanePoll, prev: Option<&LanePoll>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>10} {:>8} {:>10} {:>8} {:>11} {:>9} {:>10}\n",
        "lane", "predicts", "Δpred", "shed", "Δshed", "violations", "Δviol", "burn(1m)"
    ));
    let delta = |cur: u64, prev: Option<u64>| match prev {
        Some(p) => format!("{:+}", cur as i128 - p as i128),
        None => "-".to_string(),
    };
    for (i, lane) in LANE_NAMES.iter().enumerate() {
        out.push_str(&format!(
            "{:<8} {:>10} {:>8} {:>10} {:>8} {:>11} {:>9} {:>10.2}\n",
            lane,
            cur.predicts[i],
            delta(cur.predicts[i], prev.map(|p| p.predicts[i])),
            cur.shed[i],
            delta(cur.shed[i], prev.map(|p| p.shed[i])),
            cur.violations[i],
            delta(cur.violations[i], prev.map(|p| p.violations[i])),
            cur.burn_fast[i],
        ));
    }
    out
}

/// `trout metrics --connect HOST:PORT --watch SECS [--polls N]`
///
/// Re-polls the daemon every `SECS` seconds, clearing the screen and
/// printing a per-lane table of predicts / sheds / SLO violations with the
/// deltas between polls plus the fast-window burn rate. `--polls N` stops
/// after N frames (0 = until interrupted).
fn watch_metrics(opts: &Options, addr: &str) -> Result<()> {
    let secs: u64 = opts.get_or("watch", 2)?;
    let polls: u64 = opts.get_or("polls", 0)?;
    let mut prev: Option<LanePoll> = None;
    let mut n = 0u64;
    loop {
        let response = request_one(addr, "{\"event\":\"metrics\"}\n")?;
        let m = response.get("metrics").ok_or_else(|| {
            TroutError::Protocol("metrics response is missing the `metrics` body".into())
        })?;
        let cur = lane_poll(m);
        // ANSI clear-screen + home, then the frame.
        print!("\x1b[2J\x1b[H");
        print!(
            "trout metrics --watch {secs}s @ {addr} (poll {})\n\n{}",
            n + 1,
            render_watch(&cur, prev.as_ref())
        );
        std::io::stdout().flush()?;
        prev = Some(cur);
        n += 1;
        if polls != 0 && n >= polls {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1)));
    }
}

/// `trout trace --connect HOST:PORT [--last N] [--json]`
///
/// Pulls the daemon's flight recorder: the last N completed traced requests
/// (newest first, merged across shards) with their per-stage latency
/// breakdown. `--json` prints the raw response line instead of the table.
pub fn trace(opts: &Options) -> Result<()> {
    let addr = opts.require("connect")?;
    let last: u64 = opts.get_or("last", 16)?;
    let request = format!("{{\"event\":\"trace\",\"last\":{last}}}\n");
    let response = request_one(addr, &request)?;
    if opts.has("json") {
        println!("{}", response.to_string());
        return Ok(());
    }
    print!("{}", render_traces(&response));
    Ok(())
}

/// Renders a `trace` response as a table: one row per trace, newest first,
/// with the total and every pipeline stage in microseconds.
fn render_traces(response: &Json) -> String {
    let empty = Vec::new();
    let traces = match response.get("traces") {
        Some(Json::Arr(v)) => v,
        _ => &empty,
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>9}\n",
        "trace_id",
        "lane",
        "total_us",
        "parse",
        "hold",
        "admission",
        "featurize",
        "inference",
        "backlog",
        "serialize"
    ));
    let int_of = |j: Option<&Json>| match j {
        Some(Json::Int(v)) => *v,
        _ => 0,
    };
    for t in traces {
        let stage = |name: &str| int_of(t.get("stages").and_then(|s| s.get(name)));
        let lane = match t.get("lane") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".into(),
        };
        let id = match t.get("trace_id") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".into(),
        };
        out.push_str(&format!(
            "{:<18} {:<8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>9}\n",
            id,
            lane,
            int_of(t.get("total_us")),
            stage("parse_us"),
            stage("hold_us"),
            stage("admission_us"),
            stage("featurize_us"),
            stage("inference_us"),
            stage("backlog_us"),
            stage("serialize_us"),
        ));
    }
    if traces.is_empty() {
        out.push_str("(no completed traced requests yet — send predicts with \"trace\":true)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_slurmsim::SimulationBuilder;

    #[test]
    fn watch_frame_shows_deltas_between_polls() {
        let prev = LanePoll {
            predicts: [10, 100, 5],
            shed: [0, 2, 1],
            violations: [0, 1, 0],
            burn_fast: [0.0, 0.5, 0.0],
        };
        let cur = LanePoll {
            predicts: [15, 130, 5],
            shed: [0, 6, 1],
            violations: [0, 3, 0],
            burn_fast: [0.0, 1.25, 0.0],
        };
        let first = render_watch(&cur, None);
        assert!(first.contains("urgent"), "{first}");
        assert!(
            first.lines().nth(1).unwrap().contains(" - "),
            "first frame has no deltas:\n{first}"
        );
        let frame = render_watch(&cur, Some(&prev));
        let normal = frame.lines().nth(2).unwrap();
        assert!(normal.contains("+30"), "predict delta:\n{frame}");
        assert!(normal.contains("+4"), "shed delta:\n{frame}");
        assert!(normal.contains("+2"), "violation delta:\n{frame}");
        assert!(normal.contains("1.25"), "burn rate:\n{frame}");
    }

    #[test]
    fn lane_poll_reads_admission_and_burn_sections() {
        let m = Json::parse(
            r#"{"admission":{"lane_predicts":{"urgent":3,"normal":7,"batch":0},
                "shed":{"urgent":0,"normal":1,"batch":2},
                "slo_violations":{"urgent":0,"normal":0,"batch":1}},
                "burn":{"fast":{"urgent":{"good":3,"violating":0,"burn_rate":0.0},
                "normal":{"good":6,"violating":1,"burn_rate":14.3},
                "batch":{"good":0,"violating":0,"burn_rate":0}}}}"#,
        )
        .unwrap();
        let p = lane_poll(&m);
        assert_eq!(p.predicts, [3, 7, 0]);
        assert_eq!(p.shed, [0, 1, 2]);
        assert_eq!(p.violations, [0, 0, 1]);
        assert!((p.burn_fast[1] - 14.3).abs() < 1e-9);
    }

    #[test]
    fn trace_table_renders_stage_columns() {
        let resp = Json::parse(
            r#"{"ok":true,"event":"trace","count":1,"traces":[
                {"trace_id":"00000000000000ff","lane":"urgent","end_us":900,
                 "total_us":450,"stages":{"parse_us":10,"hold_us":100,
                 "admission_us":20,"featurize_us":200,"inference_us":90,
                 "backlog_us":5,"serialize_us":25}}]}"#,
        )
        .unwrap();
        let table = render_traces(&resp);
        assert!(table.contains("trace_id"), "{table}");
        assert!(table.contains("00000000000000ff"), "{table}");
        assert!(table.contains("urgent"), "{table}");
        assert!(table.contains("450"), "{table}");
        assert!(table.contains("200"), "{table}");
        let empty = render_traces(&Json::parse(r#"{"ok":true,"traces":[]}"#).unwrap());
        assert!(empty.contains("no completed traced requests"), "{empty}");
    }

    #[test]
    fn events_script_round_trips_through_the_protocol() {
        let trace = SimulationBuilder::anvil_like().jobs(40).seed(5).run();
        // Reuse the generator body via a temp file.
        let dir = std::env::temp_dir().join("trout_events_test");
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let out_path = dir.join("events.ndjson");
        fs::write(&trace_path, trace.to_csv()).unwrap();
        let opts = Options::parse(
            &[
                "--trace".into(),
                trace_path.display().to_string(),
                "--out".into(),
                out_path.display().to_string(),
                "--predict-every".into(),
                "4".into(),
            ],
            "trace out predict-every",
        )
        .unwrap();
        events(&opts).unwrap();

        let script = fs::read_to_string(&out_path).unwrap();
        // submit+start+end per record (no cancellations in the default
        // workload), one predict per 4 submits, plus metrics+shutdown.
        assert_eq!(script.lines().count(), 40 * 3 + 10 + 2);
        let mut predicts = 0usize;
        for line in script.lines() {
            let ev = trout_serve::parse_event(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            if matches!(ev, trout_serve::ClientEvent::Predict { .. }) {
                predicts += 1;
            }
        }
        assert_eq!(predicts, 10);
        assert!(script.trim_end().ends_with("{\"event\":\"shutdown\"}"));
    }
}
