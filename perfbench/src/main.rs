//! `perfbench`: the client-observed benchmark of the `trout` binaries.
//!
//! One invocation runs one workload. It builds the workload's inputs from
//! the seed with `trout simulate` / `train` / `events`, drives real
//! `trout serve` and `trout train` processes, checks every answer, prints
//! each metric by name and unit as it is measured, and ends with one JSON
//! result line. `--trace 1` runs the traced variant instead: traced
//! predicts on the daemon, plus an in-process replay of the same inputs
//! through each layer's public functions with one span per call.
//!
//! ```text
//! perfbench --workload predict_open|ingest_recover --seed N
//!           --seconds S --trace 0|1 --trout PATH --work DIR [--rev REV]
//! ```
//!
//! `run.py` beside this crate builds both binaries and supplies the paths.

mod client;
mod inputs;
mod layers;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use client::Daemon;
use report::Report;

/// Errors carry their own context; a run that hits one prints it and fails.
pub type Res<T> = Result<T, String>;

/// `TROUT_THREADS` for every process the benchmark starts: training time
/// depends on it, so it is pinned and recorded.
pub const TROUT_THREADS: &str = "1";

/// One run: where the binary and scratch space are, the workload knobs, and
/// the report being filled.
pub struct Ctx {
    pub trout: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub report: Report,
}

impl Ctx {
    /// Runs `trout ARGS` to completion; returns its standard output.
    pub fn trout(&mut self, args: &[&str]) -> Res<String> {
        self.report.process(&self.trout, args);
        let out = Command::new(&self.trout)
            .args(args)
            .env("TROUT_THREADS", TROUT_THREADS)
            .env("TROUT_LOG", "warn")
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run trout {}: {e}", args.join(" ")))?;
        if !out.status.success() {
            return Err(format!(
                "trout {} failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }

    /// Spawns `trout serve ARGS`, logging to `<tag>.log` in the work dir.
    pub fn daemon(&mut self, args: Vec<String>, tag: &str) -> Res<Daemon> {
        let argv: Vec<&str> = std::iter::once("serve")
            .chain(args.iter().map(String::as_str))
            .collect();
        self.report.process(&self.trout, &argv);
        Daemon::spawn(&self.trout, &args, &self.work.join(format!("{tag}.log")))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trout: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut trout, mut work, mut rev) = (None, None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => traced = Some(value.parse::<u8>().map_err(|e| bad(&e))? == 1),
            "--trout" => trout = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            "--rev" => rev = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?.max(1.0),
        traced: traced.ok_or_else(|| missing("trace"))?,
        trout: trout.ok_or_else(|| missing("trout"))?,
        work: work.ok_or_else(|| missing("work"))?,
        rev,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Run from the repository root, where BENCHMARK.json names the metrics
    // the result line carries.
    let wanted = match report::wanted(Path::new("BENCHMARK.json"), args.traced) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        trout: args.trout,
        work: args.work,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        report: Report::new(&args.workload, args.seed, args.rev),
    };
    let run = match args.workload.as_str() {
        "predict_open" => workloads::predict_open(&mut ctx),
        "ingest_recover" => workloads::ingest_recover(&mut ctx),
        other => Err(format!(
            "unknown workload {other} (predict_open, ingest_recover)"
        )),
    };
    match run {
        Ok(()) => ctx.report.finish(&wanted, ctx.traced),
        Err(e) if e.starts_with(workloads::DISCARDED) => {
            println!("{e}");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
