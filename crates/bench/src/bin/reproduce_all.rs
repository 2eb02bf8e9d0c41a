//! Runs every table/figure/ablation harness and writes a combined markdown
//! report to `experiments_measured.md` (consumed by EXPERIMENTS.md).
//!
//! Scale: `TROUT_JOBS` (default 20 000) and `TROUT_SEED` (default 42).

use std::time::Instant;

use trout_bench::{experiments as e, Context, Report};

fn main() {
    type Experiment = fn(&Context) -> Report;
    let ctx = Context::from_env();
    let suite: Vec<(&str, Experiment)> = vec![
        ("T1", e::table1_stats),
        ("T2", e::table2_features),
        ("F2", e::fig2_density),
        ("F3", e::fig3_splits),
        ("F4/F5", e::fig4_5_scatter),
        ("F6/F7", e::fig6_7_model_comparison),
        ("F8/F9", e::fig8_9_within100),
        ("R1", e::r1_classifier),
        ("R2", e::r2_regression),
        ("A1", e::a1_cutoff),
        ("A2", e::a2_leakage),
        ("A3", e::a3_smote),
        ("A4", e::a4_scaling),
        ("A5", e::a5_activation_bn),
        ("A6", e::a6_itree),
        ("A8", e::a8_importance),
        ("A9", e::a9_whatif),
        ("A10", e::a10_target),
        ("A11", e::a11_transfer),
        ("A12", e::a12_runtime_features),
    ];
    let mut md = format!(
        "# Measured results (TROUT_JOBS={} TROUT_SEED={})\n\n",
        ctx.jobs, ctx.seed
    );
    for (id, f) in suite {
        let t = Instant::now();
        let report = f(&ctx);
        report.print();
        eprintln!("[{id}] done in {:.1}s", t.elapsed().as_secs_f64());
        md.push_str(&report.to_markdown());
        md.push('\n');
    }
    std::fs::write("experiments_measured.md", md).expect("write report");
    eprintln!("wrote experiments_measured.md");
}
