//! End-to-end tests of the `trout` binary surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn trout(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trout"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p.to_string_lossy().into_owned()
}

#[test]
fn help_lists_subcommands() {
    let out = trout(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "simulate",
        "train",
        "predict",
        "whatif",
        "importance",
        "stats",
    ] {
        assert!(text.contains(cmd), "usage should mention {cmd}");
    }
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = trout(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn missing_flag_fails_cleanly() {
    let out = trout(&["simulate", "--jobs", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn unknown_flags_fail_and_name_the_flag() {
    for flag in ["--infer-f32", "--reactor", "--fsync-evry"] {
        let out = trout(&["serve", "--bootstrap", "300", "--stdin", flag, "0"]);
        assert!(!out.status.success(), "{flag} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
    let out = trout(&["simulate", "--jobs", "10", "--seeds", "3", "--out", "x.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--seeds`"));
}

#[test]
fn simulate_stats_train_predict_whatif_pipeline() {
    let trace = tmp("pipeline-trace.csv");
    let model = tmp("pipeline-model.json");

    let out = trout(&[
        "simulate", "--jobs", "2500", "--seed", "14", "--out", &trace,
    ]);
    assert!(
        out.status.success(),
        "simulate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("2500 records"));

    let out = trout(&["stats", "--trace", &trace]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Requested Time (hr)"));
    assert!(text.contains("Jobs Submitted By User"));

    let out = trout(&["train", "--trace", &trace, "--out", &model, "--epochs", "4"]);
    assert!(
        out.status.success(),
        "train: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("holdout classifier accuracy"));

    let out = trout(&[
        "predict", "--model", &model, "--trace", &trace, "--job-id", "2400",
    ]);
    assert!(
        out.status.success(),
        "predict: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("Predicted to take less than") || text.contains("Predicted to start in"),
        "unexpected output: {text}"
    );

    let out = trout(&[
        "whatif",
        "--model",
        &model,
        "--trace",
        &trace,
        "--partition",
        "shared",
        "--cpus",
        "16",
        "--mem",
        "32",
        "--timelimit",
        "240",
    ]);
    assert!(
        out.status.success(),
        "whatif: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hypothetical job"));
}

#[test]
fn predict_rejects_unknown_job() {
    let trace = tmp("reject-trace.csv");
    let model = tmp("reject-model.json");
    assert!(
        trout(&["simulate", "--jobs", "2500", "--seed", "14", "--out", &trace])
            .status
            .success()
    );
    assert!(
        trout(&["train", "--trace", &trace, "--out", &model, "--epochs", "3"])
            .status
            .success()
    );
    let out = trout(&[
        "predict", "--model", &model, "--trace", &trace, "--job-id", "999999",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));
}

#[test]
fn eval_subcommand_prints_fold_table() {
    let trace = tmp("eval-trace.csv");
    assert!(
        trout(&["simulate", "--jobs", "3000", "--seed", "14", "--out", &trace])
            .status
            .success()
    );
    let out = trout(&["eval", "--trace", &trace, "--folds", "3", "--epochs", "4"]);
    assert!(
        out.status.success(),
        "eval: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reg MAPE"));
    assert!(text.contains("mean regressor MAPE"));
    // Three fold rows.
    assert!(
        text.lines()
            .filter(|l| l.trim_start().starts_with(['1', '2', '3']))
            .count()
            >= 3
    );
}

#[test]
fn importance_subcommand_ranks_features() {
    let trace = tmp("imp-trace.csv");
    let model = tmp("imp-model.json");
    assert!(
        trout(&["simulate", "--jobs", "3000", "--seed", "14", "--out", &trace])
            .status
            .success()
    );
    assert!(
        trout(&["train", "--trace", &trace, "--out", &model, "--epochs", "4"])
            .status
            .success()
    );
    let out = trout(&[
        "importance",
        "--model",
        &model,
        "--trace",
        &trace,
        "--top",
        "5",
    ]);
    assert!(
        out.status.success(),
        "importance: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MAPE increase"));
    assert!(
        text.lines().count() >= 6,
        "expected header + 5 rows: {text}"
    );
}

#[test]
fn swf_traces_are_accepted_everywhere() {
    // Build a tiny SWF log by exporting a simulated trace.
    let swf_path = tmp("import.swf");
    let trace = trout_slurmsim::SimulationBuilder::anvil_like()
        .jobs(2_500)
        .seed(14)
        .run();
    std::fs::write(&swf_path, trout_slurmsim::swf::to_swf(&trace)).unwrap();

    let out = trout(&["stats", "--trace", &swf_path]);
    assert!(
        out.status.success(),
        "stats on swf: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Requested Time (hr)"));

    let model = tmp("swf-model.json");
    let out = trout(&[
        "train", "--trace", &swf_path, "--out", &model, "--epochs", "3",
    ]);
    assert!(
        out.status.success(),
        "train on swf: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sharded_compacting_daemon_counts_compactions_in_its_metrics() {
    let trace = tmp("compact-trace.csv");
    let events = tmp("compact-events.ndjson");
    let state = tmp("compact-state");
    let _ = std::fs::remove_dir_all(&state);
    for args in [
        &["simulate", "--jobs", "80", "--seed", "11", "--out", &trace][..],
        &[
            "events",
            "--trace",
            &trace,
            "--predict-every",
            "4",
            "--out",
            &events,
        ],
    ] {
        let out = trout(args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_trout"))
        .args([
            "serve",
            "--bootstrap",
            "300",
            "--seed",
            "7",
            "--shards",
            "2",
            "--stdin",
            "--state-dir",
            &state,
            "--snapshot-every",
            "8",
            "--compact",
        ])
        .stdin(std::fs::File::open(&events).unwrap())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metrics = stdout
        .lines()
        .find(|l| l.contains("\"event\":\"metrics\""))
        .expect("a metrics response");
    let count: u64 = metrics
        .split("\"compactions\":")
        .nth(1)
        .expect("the merged counters name compactions")
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(count >= 1, "{metrics}");
    let _ = std::fs::remove_dir_all(&state);
}
