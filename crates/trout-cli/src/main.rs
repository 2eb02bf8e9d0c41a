//! `trout` — the command-line queue-time prediction tool (§V).
//!
//! The paper integrates the hierarchical model into a CLI that takes a job in
//! the queue and prints a prediction; this binary reproduces it against the
//! simulated cluster, plus the "hypothetical job queueing" extension sketched
//! in the paper's future work.
//!
//! ```text
//! trout simulate  --jobs 20000 --seed 42 --out trace.csv
//! trout stats     --trace trace.csv
//! trout train     --trace trace.csv --out model.json
//! trout predict   --model model.json --trace trace.csv --job-id 19999
//! trout whatif    --model model.json --trace trace.csv --partition shared \
//!                 --cpus 16 --mem 32 --nodes 1 --timelimit 240
//! trout importance --model model.json --trace trace.csv
//! ```

use std::process::ExitCode;

use trout_core::TroutError;

mod args;
mod commands;
mod serve_cmd;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's entry point.
type Command = fn(&args::Options) -> Result<(), TroutError>;

fn run(argv: &[String]) -> Result<(), TroutError> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Err(TroutError::Config("missing subcommand".into()));
    };
    // Each subcommand with the flags it reads; any other flag is an error,
    // so a misspelt or retired flag cannot silently run the defaults.
    let (command, flags): (Command, &str) = match cmd.as_str() {
        "simulate" => (commands::simulate, "jobs seed out"),
        "stats" => (commands::stats, "trace"),
        "train" => (commands::train, "trace out cutoff epochs seed"),
        "predict" => (commands::predict, "model trace job-id"),
        "whatif" => (
            commands::whatif,
            "model trace partition cpus mem nodes gpus timelimit",
        ),
        "importance" => (commands::importance, "model trace top"),
        "eval" => (commands::eval, "trace folds seed epochs"),
        "tune" => (commands::tune, "trace trials seed"),
        "serve" => (serve_cmd::serve, serve_cmd::SERVE_FLAGS),
        "events" => (serve_cmd::events, "trace out predict-every"),
        "metrics" => (serve_cmd::metrics, "connect format watch polls"),
        "trace" => (serve_cmd::trace, "connect last json"),
        "replicate" => (serve_cmd::replicate, "connect json"),
        "help" | "--help" | "-h" => {
            print_usage();
            return Ok(());
        }
        other => {
            return Err(TroutError::Config(format!(
                "unknown subcommand `{other}` (try `trout help`)"
            )))
        }
    };
    command(&args::Options::parse(&argv[1..], flags)?)
}

fn print_usage() {
    println!(
        "trout — hierarchical queue-time prediction for SLURM-like clusters

USAGE: trout <subcommand> [--flag value ...]

SUBCOMMANDS:
  simulate    generate a synthetic Anvil-like accounting trace (CSV)
              --jobs N --seed S --out FILE
  stats       print Table-I style statistics for a trace
              --trace FILE
  train       featurize a trace and train the hierarchical model
              --trace FILE --out MODEL.json [--cutoff MIN] [--epochs N]
  predict     Algorithm 1 for one job in the trace
              --model MODEL.json --trace FILE --job-id ID
  whatif      hypothetical job queueing (paper \u{a7}V future work)
              --model MODEL.json --trace FILE --partition NAME
              --cpus N --mem GB --nodes N --timelimit MIN [--gpus N]
  importance  permutation feature importance of the trained regressor
              --model MODEL.json --trace FILE [--top N]
  eval        run the paper's 5-fold time-series evaluation on a trace
              --trace FILE [--folds N]
  tune        Optuna-substitute hyper-parameter search for the regressor
              --trace FILE [--trials N]
  serve       online prediction daemon (ndjson over stdin/stdout or TCP)
              (--model MODEL.json --trace FILE | --bootstrap JOBS)
              [--stdin | --listen ADDR]
              [--shards N] [--batch N] [--refit-every N]
              [--deadline-ms N] [--urgent-deadline-ms N]
              [--batch-deadline-ms N]   per-lane latency budgets
              [--est-predict-us N]   per-predict cost estimate behind
              admission control (the shed threshold and retry_after_ms)
              [--state-dir DIR [--recover] [--snapshot-every N]
               [--fsync-every N] [--compact]]   crash-safe journaling +
              recovery; --fsync-every 1 (default) fsyncs each dirty shard
              once per drained request window before its acks leave, N
              every N appends, 0 never; --compact truncates the journal
              behind each snapshot
              [--replicate-listen ADDR]   leader: stream journals to followers
              [--follow ADDR]   hot standby: replay the leader's stream,
              serve read-only, promote via {{\"event\":\"promote\"}}
              --shards N routes predicts across N engines
  events      flatten a trace into a submit/start/end ndjson replay script
              --trace FILE [--out FILE] [--predict-every N]
  metrics     dump a running daemon's metrics registry
              --connect HOST:PORT [--format json|prometheus]
              [--watch SECS [--polls N]]   live per-lane delta table
  trace       pull a running daemon's flight recorder (traced requests
              with per-stage latency breakdown)
              --connect HOST:PORT [--last N] [--json]
  replicate   query a daemon's replication status (role, per-shard
              watermark / compaction base / followers / lag)
              --connect HOST:PORT [--json]

Set TROUT_LOG=debug|info|warn|error|off to filter the structured JSONL
event log on stderr (default info)."
    );
}
