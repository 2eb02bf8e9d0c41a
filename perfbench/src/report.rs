//! What a run prints: one line per metric and check as it is measured, a
//! machine record, and the final JSON result line.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use trout_std::json::Json;

use crate::Res;

/// The `(name, unit)` of every metric `BENCHMARK.json` lists under
/// `per_layer` (traced) or `end_to_end`.
pub fn wanted(benchmark: &Path, traced: bool) -> Res<Vec<(String, String)>> {
    let text =
        fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let section = if traced { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(metrics)) = doc.get(section) else {
        return Err(format!("{} has no {section} list", benchmark.display()));
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(name)), Some(Json::Str(unit))) => Ok((name.clone(), unit.clone())),
            _ => Err(format!("{section} entry without a name and unit: {m}")),
        })
        .collect()
}

pub struct Report {
    pub workload: String,
    seed: u64,
    rev: String,
    metrics: Vec<(String, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    processes: Vec<String>,
    pub simd_tier: String,
}

impl Report {
    pub fn new(workload: &str, seed: u64, rev: String) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            rev,
            metrics: Vec::new(),
            correct: true,
            attempted: 0,
            failed: 0,
            processes: Vec::new(),
            simd_tier: "unknown".into(),
        }
    }

    /// Records and prints one metric; `note` says how it was measured.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        if note.is_empty() {
            println!("metric {name} = {value} {unit}");
        } else {
            println!("metric {name} = {value} {unit}  [{note}]");
        }
        self.metrics.push((name.to_string(), value));
    }

    /// Records one correctness check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        let verdict = if ok { "ok" } else { "FAILED" };
        if detail.is_empty() {
            println!("check {name}: {verdict}");
        } else {
            println!("check {name}: {verdict} ({detail})");
        }
        self.correct &= ok;
    }

    /// Counts operations toward the result's `attempted` and `failed`.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Remembers a started process's argv for the machine record.
    pub fn process(&mut self, program: &Path, args: &[&str]) {
        let name = program
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let argv = std::iter::once(name.as_str())
            .chain(args.iter().copied())
            .collect::<Vec<_>>()
            .join(" ");
        if !self.processes.contains(&argv) {
            self.processes.push(argv);
        }
    }

    /// Prints the machine record and the result line holding the `wanted`
    /// metrics; the exit code says whether every check passed and every
    /// metric was measured.
    pub fn finish(mut self, wanted: &[(String, String)], traced: bool) -> ExitCode {
        let mut complete = true;
        let mut members = Vec::new();
        for (name, unit) in wanted {
            let value = match self.metrics.iter().rev().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if traced => {
                    self.metric(name, 0.0, unit, "no work on this workload");
                    0.0
                }
                None => {
                    eprintln!("perfbench: end-to-end metric {name} was not measured");
                    complete = false;
                    continue;
                }
            };
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not a number ({value})");
                complete = false;
                continue;
            }
            members.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                Json::Str(name.into()),
                Json::Str(unit.into())
            ));
        }
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let machine = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Int(self.seed.into())),
            ("nproc".into(), Json::Int(nproc as i128)),
            ("simd_tier".into(), Json::Str(self.simd_tier.clone())),
            (
                "trout_threads".into(),
                Json::Str(crate::TROUT_THREADS.into()),
            ),
            ("git_rev".into(), Json::Str(self.rev.clone())),
            (
                "processes".into(),
                Json::Arr(self.processes.iter().cloned().map(Json::Str).collect()),
            ),
        ]);
        println!("machine {machine}");
        let correct = self.correct && complete;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
