//! The traced run's in-process half: replays a workload's inputs through
//! each layer's public functions, one span per call, and derives the
//! per-layer metrics from the spans. Spans stay in memory until the replay
//! ends and are then written out as ndjson.

use std::fs;
use std::io::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trout_core::online::OnlineConfig;
use trout_core::{featurize, HierarchicalModel, QueuePrediction, TroutConfig, TroutError};
use trout_linalg::Matrix;
use trout_ml::nn::{Loss, Mlp, MlpConfig};
use trout_ml::smote::{smote_balance, SmoteConfig};
use trout_serve::engine::PredictQuery;
use trout_serve::{
    parse_event, run_follower, shard_dir, spawn_replication_listener, ClientEvent, Journal,
    ServeConfig, ServeEngine, ShardSet, JOURNAL_FILE, SNAPSHOT_FILE,
};
use trout_slurmsim::Trace;
use trout_std::json::Json;
use trout_workload::ClusterSpec;

use crate::client::{predict_line, predict_requests};
use crate::inputs::Inputs;
use crate::stats::{median, quantile_of};
use crate::{Ctx, Res};

const ROOT: u32 = u32::MAX;
/// Shards of ingest_recover's daemon.
const SHARDS: usize = 2;
/// Snapshot writes timed per traced ingest run.
const SNAPSHOT_WRITES: usize = 3;
/// Regressor epochs timed: the per-epoch cost does not depend on the
/// count, and the full 56 would double the run.
const REGRESSOR_EPOCHS: usize = 8;
/// Calls timed per matmul shape.
const MATMUL_CALLS: usize = 400;

type Results = Vec<Result<QueuePrediction, TroutError>>;

#[derive(Clone, Copy)]
struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// One span per call into a layer.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Times one call into `layer`; returns its result and the span index.
    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: ROOT,
        });
        (r, self.spans.len() - 1)
    }

    /// Records the first `ns` of span `parent` as a child in `layer`: a
    /// split the callee measured itself.
    fn split(&mut self, parent: usize, layer: &'static str, ns: u64) {
        let p = self.spans[parent];
        self.spans.push(Span {
            layer,
            start_ns: p.start_ns,
            end_ns: (p.start_ns + ns).min(p.end_ns),
            parent: parent as u32,
        });
    }

    /// Self time (µs) of each span in `layer`, in call order.
    fn self_us(&self, layer: &str) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e3)
            .collect()
    }

    fn total_us(&self, layer: &str) -> f64 {
        self.self_us(layer).iter().sum()
    }

    /// Share of `wall_ns` that no span covers.
    fn unattributed(&self, wall_ns: u64) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        1.0 - covered as f64 / wall_ns as f64
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Reports `unattributed_share` and writes the spans next to the run's
/// work dir, under `spans/`.
fn finish(ctx: &mut Ctx, tr: &Tracer, t0: u64) -> Res<()> {
    let wall = tr.now() - t0;
    ctx.report.metric(
        "unattributed_share",
        tr.unattributed(wall),
        "share",
        &format!(
            "1 - layer self time / {:.3} s traced in-process wall, {} spans",
            wall as f64 / 1e9,
            tr.spans.len()
        ),
    );
    let dir = ctx.work.parent().unwrap_or(&ctx.work).join("spans");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.ndjson", ctx.report.workload, ctx.seed));
    tr.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn report_pcts(ctx: &mut Ctx, tr: &Tracer, layer: &str, name: &str) {
    let v = tr.self_us(layer);
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        ctx.report.metric(
            &format!("{name}.{tag}"),
            quantile_of(&v, q),
            "us",
            &format!("{layer} spans, n={}", v.len()),
        );
    }
}

fn report_protocol(ctx: &mut Ctx, tr: &Tracer, lines: usize) {
    report_pcts(ctx, tr, "protocol.parse", "protocol.parse_us");
    ctx.report.metric(
        "protocol.lines",
        lines as f64,
        "count",
        "lines through parse_event",
    );
}

/// Bytes per µs of `layer` — MB/s.
fn report_rate(ctx: &mut Ctx, tr: &Tracer, layer: &str, name: &str, bytes: usize) {
    ctx.report.metric(
        name,
        bytes as f64 / tr.total_us(layer),
        "MB/s",
        &format!("{bytes} bytes through Json::parse"),
    );
}

/// The featurize / inference split of `predict_batch_into`. The engine
/// truncates each row's featurize time to whole µs before summing it into
/// `last_batch_featurize_us`, and a row featurizes in under a µs, so the
/// featurize figure is a lower bound and inference carries the rest.
fn report_rows(ctx: &mut Ctx, tr: &Tracer, rows: usize) {
    let n = rows.max(1) as f64;
    ctx.report.metric(
        "featurize.us_per_row",
        tr.total_us("featurize") / n,
        "us",
        &format!("lower bound: last_batch_featurize_us (whole us per row) over {rows} rows"),
    );
    ctx.report.metric(
        "inference.us_per_row",
        tr.total_us("inference") / n,
        "us",
        "predict_batch_into minus that lower bound, so most of featurize too",
    );
}

fn load(inp: &Inputs) -> Res<(Trace, HierarchicalModel)> {
    let text = fs::read_to_string(&inp.trace).map_err(|e| format!("T: {e}"))?;
    let trace =
        Trace::from_csv(ClusterSpec::anvil_like(), &text).ok_or("T is not a trout trace CSV")?;
    let json = fs::read_to_string(&inp.model).map_err(|e| format!("M: {e}"))?;
    let model = HierarchicalModel::from_json(&json).map_err(|e| format!("M: {e}"))?;
    Ok((trace, model))
}

/// An engine built the way `trout serve --model M --trace T` builds one.
fn engine(trace: &Trace, model: &HierarchicalModel) -> ServeEngine {
    ServeEngine::from_trace(
        trace,
        Some(model.clone()),
        TroutConfig::default(),
        OnlineConfig::default(),
        &ServeConfig::default(),
    )
}

fn shard_set(trace: &Trace, model: &HierarchicalModel) -> Arc<ShardSet> {
    Arc::new(ShardSet::from_trace(
        SHARDS,
        trace,
        Some(model.clone()),
        TroutConfig::default(),
        OnlineConfig::default(),
        &ServeConfig::default(),
    ))
}

/// Applies one parsed event the way a session does.
fn apply(e: &mut ServeEngine, ev: &ClientEvent, out: &mut Results) {
    match ev {
        ClientEvent::Submit(rec) => {
            let _ = e.apply_submit((**rec).clone());
        }
        ClientEvent::Start { id, time } => {
            let _ = e.apply_start(*id, *time);
        }
        ClientEvent::End { id, time } => {
            let _ = e.apply_end(*id, *time);
        }
        ClientEvent::Predict { id, time, lane, .. } => {
            e.predict_batch_into(&[PredictQuery::new(*id, *time).in_lane(*lane)], out)
        }
        _ => {}
    }
}

/// `apply` under a span: a predict splits into featurize and inference, and
/// a lifecycle call during which a refit ran is labelled `refit`. Returns
/// the rows predicted.
fn traced_apply(
    tr: &mut Tracer,
    e: &mut ServeEngine,
    ev: &ClientEvent,
    out: &mut Results,
) -> usize {
    let predict = matches!(ev, ClientEvent::Predict { .. });
    let refits = e.metrics.refits_total.get();
    let layer = if predict {
        "inference"
    } else {
        "incremental.apply"
    };
    let (_, i) = tr.span(layer, || apply(e, ev, out));
    if predict {
        tr.split(i, "featurize", e.last_batch_featurize_us() * 1000);
        return out.iter().filter(|r| r.is_ok()).count();
    }
    if e.metrics.refits_total.get() > refits {
        tr.spans[i].layer = "refit";
    }
    0
}

/// Parses `line` (both as a wire event and as bare JSON, each under its
/// own span).
fn traced_parse(tr: &mut Tracer, line: &str) -> Res<ClientEvent> {
    let _ = tr.span("json.parse", || Json::parse(line));
    tr.span("protocol.parse", || parse_event(line))
        .0
        .map_err(|e| format!("{line}: {e}"))
}

/// predict_open in process: the pool through parse and incremental apply,
/// then the traced phase's predicts parsed and answered in batches of the
/// daemon's mean flush size.
pub fn predict_open(ctx: &mut Ctx, inp: &Inputs, rows_per_flush: usize, n: usize) -> Res<()> {
    let (trace, model) = load(inp)?;
    let mut e = engine(&trace, &model);
    let lines: Vec<String> = predict_requests(&inp.pool_ids, ctx.seed, n)
        .into_iter()
        .map(|(id, lane)| predict_line(id, lane, inp.pool_time, true))
        .collect();
    let mut tr = Tracer::new();
    let t0 = tr.now();
    let mut out = Results::new();
    for line in &inp.pool {
        let ev = tr
            .span("protocol.parse", || parse_event(line))
            .0
            .map_err(|e| format!("{line}: {e}"))?;
        traced_apply(&mut tr, &mut e, &ev, &mut out);
    }
    let mut wire = 0;
    let mut queries = Vec::with_capacity(lines.len());
    for line in &lines {
        wire += line.len();
        if let ClientEvent::Predict { id, time, lane, .. } = traced_parse(&mut tr, line)? {
            queries.push(PredictQuery::new(id, time).in_lane(lane));
        }
    }
    let mut rows = 0;
    for batch in queries.chunks(rows_per_flush) {
        let (_, i) = tr.span("inference", || e.predict_batch_into(batch, &mut out));
        tr.split(i, "featurize", e.last_batch_featurize_us() * 1000);
        rows += out.iter().filter(|r| r.is_ok()).count();
    }
    ctx.report.check(
        "layer_predicts_ok",
        rows == queries.len(),
        &format!("{rows} of {} in-process predicts ok", queries.len()),
    );
    report_protocol(ctx, &tr, inp.pool.len() + lines.len());
    report_rate(ctx, &tr, "json.parse", "json.parse_mb_per_s.wire", wire);
    report_pcts(ctx, &tr, "incremental.apply", "incremental.apply_us");
    report_rows(ctx, &tr, rows);
    train(ctx, &mut tr, &trace);
    finish(ctx, &tr, t0)
}

/// ingest_recover in process: the live script through parse, incremental
/// apply (refits included) and predict; the same lines through
/// `Journal::append`; snapshot writes; recovery of the crashed daemon's
/// shards split into read, parse, restore and replay; and a follower
/// catching up from the crashed journals over the replication protocol.
/// `daemon_s` is the daemon's own recovery time per shard of the same
/// crashed state, which the split is set against.
pub fn ingest(ctx: &mut Ctx, inp: &Inputs, crashed: &Path, daemon_s: &[f64]) -> Res<()> {
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let (trace, model) = load(inp)?;
    let mut e = engine(&trace, &model);
    // Built before the clock starts, as a daemon builds its engines before
    // it recovers or follows.
    let mut fresh: Vec<ServeEngine> = (0..SHARDS).map(|_| engine(&trace, &model)).collect();
    let (leader, follower) = (shard_set(&trace, &model), shard_set(&trace, &model));
    let mut tr = Tracer::new();
    let t0 = tr.now();
    let (mut out, mut wire, mut rows) = (Results::new(), 0, 0);
    for line in &inp.live {
        wire += line.len();
        let ev = traced_parse(&mut tr, line)?;
        rows += traced_apply(&mut tr, &mut e, &ev, &mut out);
    }

    // Journal appends at the daemon's default policy, fsync every event.
    let jdir = ctx.work.join("layer-journal");
    fs::create_dir_all(&jdir).map_err(|e| io("journal dir", &e))?;
    let jpath = jdir.join(JOURNAL_FILE);
    let mut journal = Journal::open(&jpath, 1).map_err(|e| io("journal", &e))?;
    for line in &inp.live {
        tr.span("journal.append", || journal.append(line))
            .0
            .map_err(|e| io("journal append", &e))?;
    }
    let jbytes = fs::metadata(&jpath).map_err(|e| io("journal", &e))?.len();

    // Snapshots of the engine's state after the whole script.
    let sdir = ctx.work.join("layer-snapshot");
    e.open_state_dir(&sdir, 0, false)
        .map_err(|e| io("snapshot dir", &e))?;
    for _ in 0..SNAPSHOT_WRITES {
        tr.span("snapshot.write", || e.write_snapshot())
            .0
            .map_err(|e| io("snapshot", &e))?;
    }
    let snap_bytes = fs::metadata(sdir.join(SNAPSHOT_FILE))
        .map_err(|e| io("snapshot", &e))?
        .len();

    // Each crashed shard recovered the way open_state_dir(.., true) does
    // it: read and parse the snapshot, restore it, replay the journal tail.
    let (mut snap_read, mut replayed) = (0, 0);
    for (shard, fe) in fresh.iter_mut().enumerate() {
        let dir = shard_dir(crashed, shard);
        let text = tr
            .span("recover.read", || {
                fs::read_to_string(dir.join(SNAPSHOT_FILE))
            })
            .0
            .map_err(|e| io("crashed snapshot", &e))?;
        snap_read += text.len();
        let snap = tr
            .span("recover.parse", || Json::parse(&text))
            .0
            .map_err(|e| io("crashed snapshot", &e))?;
        let pos = match snap.get("journal_pos") {
            Some(Json::Int(p)) => *p as usize,
            _ => return Err("crashed snapshot has no journal_pos".into()),
        };
        let state = snap.get("state").ok_or("crashed snapshot has no state")?;
        tr.span("recover.restore", || fe.restore_state(state))
            .0
            .map_err(|e| io("restore", &e))?;
        let journal =
            fs::read_to_string(dir.join(JOURNAL_FILE)).map_err(|e| io("crashed journal", &e))?;
        let tail: Vec<&str> = journal.lines().skip(pos).collect();
        tr.span("recover.replay", || {
            for line in &tail {
                if let Ok(ev) = parse_event(line) {
                    apply(fe, &ev, &mut out);
                }
            }
        });
        replayed += tail.len();
    }

    // A fresh follower streams the crashed journals from a leader hub.
    let mut target = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let text = fs::read_to_string(shard_dir(crashed, shard).join(JOURNAL_FILE))
            .map_err(|e| io("crashed journal", &e))?;
        target.push(text.lines().count() as u64);
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", &e))?;
    let hub = spawn_replication_listener(Arc::clone(&leader), crashed.to_path_buf(), listener)
        .map_err(|e| io("replication listener", &e))?;
    let fdir = ctx.work.join("layer-follower");
    follower
        .open_state_dir(&fdir, 1024, false)
        .map_err(|e| io("follower dir", &e))?;
    let addr = hub.addr().to_string();
    let (caught_up_s, _) = tr.span("replicate.catchup", || {
        std::thread::scope(|s| {
            let t = Instant::now();
            let h = s.spawn(|| run_follower(&follower, &fdir, &addr));
            while follower.journal_watermarks() != target && t.elapsed() < Duration::from_secs(120)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let secs = (follower.journal_watermarks() == target).then(|| t.elapsed().as_secs_f64());
            follower.request_promote();
            let _ = h.join();
            secs
        })
    });
    hub.stop();
    ctx.report.check(
        "layer_follower_caught_up",
        caught_up_s.is_some(),
        &format!("target watermarks {target:?}"),
    );
    let entries: u64 = target.iter().sum();
    ctx.report.metric(
        "replicate.entries_per_s",
        entries as f64 / caught_up_s.unwrap_or(f64::INFINITY),
        "1/s",
        &format!("{entries} entries, run_follower against spawn_replication_listener"),
    );
    ctx.report.metric(
        "replicate.fsyncs_per_entry",
        1.0,
        "count",
        "by policy: the follower journals at fsync_every 1",
    );

    report_protocol(ctx, &tr, inp.live.len());
    report_rate(ctx, &tr, "json.parse", "json.parse_mb_per_s.wire", wire);
    report_recover(ctx, &tr, daemon_s, snap_read, replayed);
    report_pcts(ctx, &tr, "incremental.apply", "incremental.apply_us");
    report_rows(ctx, &tr, rows);
    report_pcts(ctx, &tr, "journal.append", "journal.append_us");
    ctx.report.metric(
        "journal.fsyncs_per_event",
        1.0,
        "count",
        "by policy: Journal::append at fsync_every 1 syncs every append",
    );
    ctx.report.metric(
        "journal.bytes_per_event",
        jbytes as f64 / inp.live.len() as f64,
        "B",
        "",
    );
    let writes: Vec<f64> = tr
        .self_us("snapshot.write")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let note = format!("write_snapshot, n={}", writes.len());
    ctx.report
        .metric("snapshot.write_ms.p50", median(&writes), "ms", &note);
    ctx.report.metric(
        "snapshot.write_ms.max",
        writes.iter().copied().fold(0.0, f64::max),
        "ms",
        &note,
    );
    ctx.report.metric(
        "snapshot.bytes",
        snap_bytes as f64,
        "B",
        "one engine's state after the script",
    );
    let refits = tr.self_us("refit");
    ctx.report.metric(
        "refit.ms",
        median(&refits) / 1e3,
        "ms",
        &format!("median lifecycle call that ran a refit, n={}", refits.len()),
    );
    ctx.report.metric(
        "refit.count",
        refits.len() as f64,
        "count",
        "refits during the in-process replay",
    );
    finish(ctx, &tr, t0)
}

/// The recovery split. Read, restore and replay are the in-process spans.
/// Parse is the daemon's own recovery time of each shard less those three:
/// the harness's build of `Json::parse` is the same source as the daemon's
/// but not the same machine code, and its speed on a snapshot depends on
/// code generation (one codegen unit against sixteen parses about 1.5x as
/// fast), so the in-process parse is printed beside it but not reported as
/// the daemon's.
fn report_recover(ctx: &mut Ctx, tr: &Tracer, daemon_s: &[f64], bytes: usize, replayed: usize) {
    ctx.report.check(
        "daemon_recovered_every_shard",
        daemon_s.len() == SHARDS,
        &format!("{} shard recoveries in the daemon's log", daemon_s.len()),
    );
    let [read, parse, restore, replay] = [
        "recover.read",
        "recover.parse",
        "recover.restore",
        "recover.replay",
    ]
    .map(|layer| tr.self_us(layer));
    let mut daemon_parse_us = 0.0;
    for (shard, d) in daemon_s.iter().take(SHARDS).enumerate() {
        let rest = read[shard] + restore[shard] + replay[shard];
        let p = (d * 1e6 - rest).max(0.0);
        daemon_parse_us += p;
        println!(
            "shard {shard}: the daemon recovered it in {d:.3} s, {:.3} s of it parse; \
             Json::parse in process took {:.3} s",
            p / 1e6,
            parse[shard] / 1e6
        );
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    let note = format!("summed over {SHARDS} shards, in process");
    ctx.report
        .metric("recover.read_ms", sum(&read), "ms", &note);
    ctx.report.metric(
        "recover.parse_ms",
        daemon_parse_us / 1e3,
        "ms",
        &format!(
            "daemon's recovery time less read, restore and replay, summed over {SHARDS} \
             shards; in-process Json::parse {:.0} ms",
            sum(&parse)
        ),
    );
    ctx.report
        .metric("recover.restore_ms", sum(&restore), "ms", &note);
    ctx.report
        .metric("recover.replay_ms", sum(&replay), "ms", &note);
    ctx.report.metric(
        "recover.replayed_lines",
        replayed as f64,
        "count",
        "journal tail past each shard's snapshot",
    );
    ctx.report.metric(
        "json.parse_mb_per_s.snapshot",
        bytes as f64 / daemon_parse_us,
        "MB/s",
        &format!(
            "{bytes} snapshot bytes over the daemon's parse time; in process {:.3}",
            bytes as f64 / (sum(&parse) * 1e3)
        ),
    );
}

/// The training that builds M during set-up, in process: featurization,
/// both networks at the paper's shapes, and the regressor's first-layer
/// matmuls at its training batch shape.
fn train(ctx: &mut Ctx, tr: &mut Tracer, trace: &Trace) {
    let cfg = TroutConfig::default();
    let ((ds, _), _) = tr.span("train.featurize", || featurize(trace, 0.6, cfg.seed));
    let all: Vec<usize> = (0..ds.len()).collect();
    let (x, y) = ds.select(&all);
    let labels: Vec<f32> = y
        .iter()
        .map(|&q| if q < cfg.cutoff_min { 1.0 } else { 0.0 })
        .collect();
    let smote = SmoteConfig {
        k: 5,
        target_ratio: 1.0,
        majority_cap_ratio: Some(1.0),
        seed: cfg.seed,
    };
    let (cx, cy) = smote_balance(&x, &labels, &smote);
    let mut c = MlpConfig::new(x.cols(), cfg.classifier_hidden.clone());
    c.activation = cfg.activation;
    c.loss = Loss::BceWithLogits;
    c.dropout = cfg.dropout;
    c.lr = cfg.lr;
    c.epochs = cfg.classifier_epochs;
    c.batch_size = cfg.batch_size;
    c.seed = cfg.seed ^ 0xC1A5;
    let _ = tr.span("nn.classifier", || Mlp::train(&c, &cx, &cy));
    let long: Vec<usize> = (0..y.len()).filter(|&i| y[i] >= cfg.cutoff_min).collect();
    let rx = x.select_rows(&long);
    let ry: Vec<f32> = long
        .iter()
        .map(|&i| cfg.target_transform.forward(y[i]))
        .collect();
    let mut r = MlpConfig::new(x.cols(), cfg.regressor_hidden.clone());
    r.activation = cfg.activation;
    r.loss = cfg.regression_loss;
    r.dropout = cfg.dropout;
    r.batchnorm = cfg.batchnorm;
    r.lr = cfg.lr;
    r.epochs = REGRESSOR_EPOCHS;
    r.batch_size = cfg.batch_size;
    r.seed = cfg.seed ^ 0x4E47;
    let _ = tr.span("nn.regressor", || Mlp::train(&r, &rx, &ry));

    // Forward X·W, input gradient dY·Wᵀ and weight gradient Xᵀ·dY.
    let (b, d, h) = (cfg.batch_size, x.cols(), cfg.regressor_hidden[0]);
    let a = Matrix::from_fn(b, d, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.1);
    let w = Matrix::from_fn(d, h, |i, j| ((i * 5 + j) % 13) as f32 * 0.05);
    let dy = Matrix::from_fn(b, h, |i, j| ((i + j * 9) % 7) as f32 * 0.2);
    let (mut fwd, mut dx, mut dw) = (
        Matrix::zeros(b, h),
        Matrix::zeros(b, d),
        Matrix::zeros(d, h),
    );
    for _ in 0..MATMUL_CALLS {
        tr.span("linalg.matmul", || a.matmul_into(&w, &mut fwd));
        tr.span("linalg.matmul_bt", || dy.matmul_bt_into(&w, &mut dx));
        tr.span("linalg.matmul_at", || a.matmul_at_into(&dy, &mut dw));
    }
    std::hint::black_box((&fwd, &dx, &dw));

    ctx.report.metric(
        "train.featurize_s",
        tr.total_us("train.featurize") / 1e6,
        "s",
        &format!("trout_core::featurize of {} jobs", ds.len()),
    );
    ctx.report.metric(
        "nn.classifier_epoch_ms",
        tr.total_us("nn.classifier") / 1e3 / c.epochs as f64,
        "ms",
        &format!("Mlp::train {:?}, {} rows", c.hidden, cx.rows()),
    );
    ctx.report.metric(
        "nn.regressor_epoch_ms",
        tr.total_us("nn.regressor") / 1e3 / r.epochs as f64,
        "ms",
        &format!("Mlp::train {:?}, {} rows", r.hidden, rx.rows()),
    );
    for (layer, name) in [
        ("linalg.matmul", "linalg.matmul_us"),
        ("linalg.matmul_bt", "linalg.matmul_bt_us"),
        ("linalg.matmul_at", "linalg.matmul_at_us"),
    ] {
        ctx.report.metric(
            name,
            median(&tr.self_us(layer)),
            "us",
            &format!("median of {MATMUL_CALLS} calls, batch {b} x {d} in x {h} out"),
        );
    }
}
