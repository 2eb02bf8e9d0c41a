//! Every input of a run, built from its seed before anything is timed: the
//! history trace T, the model M trained on it, and the workload's request
//! stream (predict_open's pending pool or ingest_recover's live script).
//! The build is repeated and timed through the run for `setup_s`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trout_serve::{parse_event, ClientEvent};

use crate::client::field_u64;
use crate::stats::median;
use crate::{Ctx, Res};

/// Jobs in the history trace T every workload trains M on and serves from.
const TRACE_JOBS: usize = 20_000;
/// Simulation seed of T. The history is fixed: how long simulating and
/// training take swings several-fold between simulation seeds (seed 15
/// takes 9x seed 11 on a 2-core box), which would bury every change under
/// input variance. The run seed varies M's training seed and all traffic.
const HISTORY_SEED: u64 = 11;
/// Pending jobs predict_open submits before it predicts.
const POOL_JOBS: usize = 4096;
/// Jobs in ingest_recover's live simulation (4,875 request lines).
const LIVE_JOBS: usize = 1500;
/// One predict per this many submits in the live script.
const LIVE_PREDICT_EVERY: usize = 4;
/// Set-ups per run: `setup_s` is their median, and byte-equal outputs
/// across them show the inputs are a function of the seed alone.
const SETUP_REPS: usize = 5;

pub struct Inputs {
    pub trace: PathBuf,
    pub model: PathBuf,
    /// predict_open: the pool's submit lines and job ids, and the instant
    /// every predict asks about (the last submission).
    pub pool: Vec<String>,
    pub pool_ids: Vec<u64>,
    pub pool_time: i64,
    /// ingest_recover: the live script without its closing
    /// metrics/shutdown lines, and its last event instant.
    pub live: Vec<String>,
    pub live_end: i64,
    stream: Stream,
    /// Holdout accuracy `trout train` printed for M, %.
    accuracy: f64,
    /// Wall time of each build of these inputs and of the training in it.
    setup_s: Vec<f64>,
    train_s: Vec<f64>,
    /// Whether every rebuild matched T, M and the request stream.
    same: [bool; 3],
}

/// Which request stream a workload needs beside T and M.
#[derive(Clone, Copy)]
pub enum Stream {
    Pool,
    Live,
}

/// Builds the inputs once, timed.
pub fn setup(ctx: &mut Ctx, stream: Stream) -> Res<Inputs> {
    let t = Instant::now();
    let mut inp = build(ctx, 0, stream)?;
    inp.setup_s.push(t.elapsed().as_secs_f64());
    Ok(inp)
}

impl Inputs {
    /// Builds the inputs again in a fresh directory, timed, and checks the
    /// build byte-equal to this one. Workloads spread the rebuilds over the
    /// run: a small shared VM has spells of up to 1.6x slowdown, and the
    /// median of builds far apart moves less with them.
    pub fn rebuild(&mut self, ctx: &mut Ctx) -> Res<()> {
        let t = Instant::now();
        let b = build(ctx, self.setup_s.len(), self.stream)?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.train_s.extend(b.train_s);
        self.same[0] &= read(&b.trace)? == read(&self.trace)?;
        self.same[1] &= read(&b.model)? == read(&self.model)?;
        self.same[2] &= b.pool == self.pool && b.live == self.live;
        Ok(())
    }

    /// Rebuilds up to `SETUP_REPS` builds, then reports `setup_s` (their
    /// median), `train_s`, `holdout_accuracy` and the determinism checks.
    pub fn report_setup(&mut self, ctx: &mut Ctx) -> Res<()> {
        while self.setup_s.len() < SETUP_REPS {
            self.rebuild(ctx)?;
        }
        let reps = format!("{} set-ups of seed {}", self.setup_s.len(), ctx.seed);
        for (ok, name, what) in [
            (self.same[0], "trace_deterministic", "T byte-equal"),
            (self.same[1], "model_deterministic", "M byte-equal"),
            (self.same[2], "stream_deterministic", "requests equal"),
        ] {
            ctx.report.check(name, ok, &format!("{what} across {reps}"));
        }
        let trains = &self.train_s;
        ctx.report.metric(
            "train_s",
            median(trains),
            "s",
            &format!("trout train wall time of {TRACE_JOBS} jobs, median of {trains:.3?}"),
        );
        ctx.report.metric(
            "holdout_accuracy",
            self.accuracy,
            "%",
            "as printed by trout train",
        );
        let secs = &self.setup_s;
        ctx.report.metric(
            "setup_s",
            median(secs),
            "s",
            &format!("median of {} input builds {secs:.3?}", secs.len()),
        );
        Ok(())
    }
}

fn read(p: &Path) -> Res<Vec<u8>> {
    fs::read(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn s(p: &Path) -> String {
    p.display().to_string()
}

fn build(ctx: &mut Ctx, rep: usize, stream: Stream) -> Res<Inputs> {
    let seed = ctx.seed;
    let dir = &ctx.work.join(format!("inputs-{rep}"));
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut inp = Inputs {
        trace: dir.join("T.csv"),
        model: dir.join("M.json"),
        pool: Vec::new(),
        pool_ids: Vec::new(),
        pool_time: 0,
        live: Vec::new(),
        live_end: 0,
        stream,
        accuracy: 0.0,
        setup_s: Vec::new(),
        train_s: Vec::new(),
        same: [true; 3],
    };
    simulate(ctx, &inp.trace, TRACE_JOBS, HISTORY_SEED)?;
    let t = Instant::now();
    let out = train(ctx, &inp.trace, &inp.model)?;
    inp.train_s.push(t.elapsed().as_secs_f64());
    inp.accuracy = parse_accuracy(&out)?;
    match stream {
        Stream::Pool => {
            let lines = events(ctx, dir, "pool", POOL_JOBS, seed.wrapping_add(2), 0)?;
            for line in lines
                .into_iter()
                .filter(|l| l.starts_with("{\"event\":\"submit\""))
            {
                match parse_event(&line) {
                    Ok(ClientEvent::Submit(rec)) => {
                        inp.pool_ids.push(rec.id);
                        inp.pool_time = inp.pool_time.max(rec.submit_time);
                        inp.pool.push(line);
                    }
                    other => return Err(format!("pool line {line}: {other:?}")),
                }
            }
        }
        Stream::Live => {
            let lines = events(
                ctx,
                dir,
                "live",
                LIVE_JOBS,
                seed.wrapping_add(1),
                LIVE_PREDICT_EVERY,
            )?;
            inp.live = lines
                .into_iter()
                .filter(|l| {
                    !l.contains("\"event\":\"metrics\"") && !l.contains("\"event\":\"shutdown\"")
                })
                .collect();
            inp.live_end = inp
                .live
                .iter()
                .filter_map(|l| field_u64(l, "time"))
                .max()
                .unwrap_or(0) as i64;
        }
    }
    Ok(inp)
}

/// `trout train --trace T --out M --seed <run seed>`; returns its output.
fn train(ctx: &mut Ctx, trace: &Path, model: &Path) -> Res<String> {
    let seed = ctx.seed.to_string();
    ctx.trout(&[
        "train",
        "--trace",
        &s(trace),
        "--out",
        &s(model),
        "--seed",
        &seed,
    ])
}

fn simulate(ctx: &mut Ctx, out: &Path, jobs: usize, seed: u64) -> Res<()> {
    let (jobs, seed) = (jobs.to_string(), seed.to_string());
    ctx.trout(&[
        "simulate",
        "--jobs",
        &jobs,
        "--seed",
        &seed,
        "--out",
        &s(out),
    ])
    .map(drop)
}

/// `trout simulate` + `trout events`: the request lines of a fresh
/// simulation, with a predict after every `predict_every`-th submit.
fn events(
    ctx: &mut Ctx,
    dir: &Path,
    name: &str,
    jobs: usize,
    seed: u64,
    predict_every: usize,
) -> Res<Vec<String>> {
    let csv = dir.join(format!("{name}.csv"));
    let script = dir.join(format!("{name}.ndjson"));
    simulate(ctx, &csv, jobs, seed)?;
    let every = predict_every.to_string();
    ctx.trout(&[
        "events",
        "--trace",
        &s(&csv),
        "--predict-every",
        &every,
        "--out",
        &s(&script),
    ])?;
    let text = fs::read_to_string(&script).map_err(|e| format!("{}: {e}", script.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The holdout accuracy in `trout train`'s report line, %.
fn parse_accuracy(stdout: &str) -> Res<f64> {
    stdout
        .split("accuracy ")
        .nth(1)
        .and_then(|rest| rest.split('%').next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no holdout accuracy in trout train output: {stdout}"))
}
