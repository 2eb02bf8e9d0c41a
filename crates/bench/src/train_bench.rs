//! Training-throughput benchmark for the MLP hot path.
//!
//! Two views of the same loop:
//!
//! * `bench_train_epochs` times full `Mlp::train` runs on a fixed synthetic
//!   design matrix and reports **epoch throughput in rows/sec** — the number
//!   the workspace refactor is accountable to. Outside smoke mode it writes
//!   `BENCH_train.json` with every timing run's rows/sec per configuration
//!   (as min / median / max) and the machine it ran on (core count, SIMD
//!   tier, `TROUT_THREADS`), so pre/post baselines can be diffed directly.
//! * `bench_matmul_kernels` times the three matmul kernels (`a@b`, `a@b^T`,
//!   `a^T@b`) at MLP-shaped sizes, below and above the parallel threshold.
//!
//! The data is synthesized from `SplitMix64` rather than a simulator trace
//! so the bench isolates the numeric loop — no featurization cost, no
//! simulator noise, stable shapes.

use trout_linalg::{Matrix, SimdTier, SplitMix64};
use trout_ml::nn::{Activation, Loss, Mlp, MlpConfig};
use trout_std::bench::{black_box, write_report, BenchmarkId, Criterion};
use trout_std::json::Json;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn train_data(rows: usize, cols: usize) -> (Matrix, Vec<f32>) {
    let x = random_matrix(rows, cols, 0xBEEF);
    let y = (0..rows)
        .map(|r| {
            let row = x.row(r);
            (row[0] * 1.5).sin() + row[1] * row[2] - 0.25 * row[3]
        })
        .collect();
    (x, y)
}

struct TrainCase {
    name: &'static str,
    hidden: Vec<usize>,
    dropout: f32,
    batchnorm: bool,
    epochs: usize,
}

fn cases() -> Vec<TrainCase> {
    vec![
        // The paper's regressor shape (TroutConfig::default hidden sizes).
        TrainCase {
            name: "paper_regressor",
            hidden: vec![99, 66, 44],
            dropout: 0.2,
            batchnorm: false,
            epochs: 5,
        },
        // Batch-norm variant so the BN buffers are on the clock too.
        TrainCase {
            name: "batchnorm",
            hidden: vec![64, 32],
            dropout: 0.0,
            batchnorm: true,
            epochs: 5,
        },
    ]
}

/// Epoch throughput (rows/sec) of `Mlp::train` on a fixed synthetic fold;
/// writes `BENCH_train.json` outside smoke mode.
pub fn bench_train_epochs(c: &mut Criterion) {
    let smoke = std::env::var("TROUT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (rows, cols) = if smoke { (256, 33) } else { (4_096, 33) };
    let (x, y) = train_data(rows, cols);

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut group = c.benchmark_group("train_epochs");
    group.sample_size(10);
    for case in cases() {
        let mut cfg = MlpConfig::new(cols, case.hidden.clone());
        cfg.activation = Activation::ELU;
        cfg.loss = Loss::SMOOTH_L1;
        cfg.dropout = case.dropout;
        cfg.batchnorm = case.batchnorm;
        cfg.epochs = case.epochs;
        cfg.batch_size = 256;
        cfg.seed = 3;

        // Hand-timed rows/sec for the report: one figure per full train
        // run (`epochs` passes over `rows` rows), reported as its spread.
        let timing_runs = if smoke { 1 } else { 7 };
        let mut per_run: Vec<f64> = (0..timing_runs)
            .map(|_| {
                let t0 = std::time::Instant::now();
                black_box(Mlp::train(&cfg, &x, &y));
                (case.epochs * rows) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
            })
            .collect();
        per_run.sort_by(f64::total_cmp);
        let (min, median, max) = (
            per_run[0],
            per_run[per_run.len() / 2],
            per_run[per_run.len() - 1],
        );
        eprintln!(
            "bench train/{}: {median:.0} rows/sec median, {min:.0}..{max:.0} over {timing_runs} \
             runs ({} epochs x {rows} rows)",
            case.name, case.epochs
        );
        results.push((
            case.name.to_string(),
            Json::Obj(vec![
                ("rows".into(), Json::Int(rows as i128)),
                ("epochs".into(), Json::Int(case.epochs as i128)),
                ("runs".into(), Json::Int(timing_runs as i128)),
                (
                    "rows_per_sec".into(),
                    Json::Obj(vec![
                        ("min".into(), Json::Num(min)),
                        ("median".into(), Json::Num(median)),
                        ("max".into(), Json::Num(max)),
                    ]),
                ),
            ]),
        ));

        group.bench_function(&format!("{}/{rows}rows", case.name)[..], |b| {
            b.iter(|| Mlp::train(&cfg, &x, &y).0)
        });
    }
    group.finish();

    if !smoke {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = std::env::var("TROUT_THREADS").map_or(Json::Null, Json::Str);
        let report = Json::Obj(vec![
            ("group".into(), Json::Str("train".into())),
            (
                "machine".into(),
                Json::Obj(vec![
                    ("nproc".into(), Json::Int(nproc as i128)),
                    ("simd".into(), Json::Str(SimdTier::active().name().into())),
                    ("trout_threads".into(), threads),
                ]),
            ),
            ("throughput".into(), Json::Obj(results)),
        ]);
        write_report("train", &report);
    }
}

/// The three matmul kernels at MLP-shaped sizes: `batch x in @ in x out`
/// forward, `grad @ w^T` backward-input, `x^T @ grad` weight-gradient.
/// The small size stays under `PAR_THRESHOLD` (serial path), the large one
/// crosses it (parallel path).
pub fn bench_matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    for &(m, k, n) in &[(64usize, 33usize, 64usize), (256, 99, 128)] {
        let a = random_matrix(m, k, 11);
        let b_kn = random_matrix(k, n, 12);
        let b_nk = random_matrix(n, k, 13);
        let a_km = random_matrix(k, m, 14);
        let tag = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("matmul", &tag), &(), |bch, _| {
            bch.iter(|| a.matmul(&b_kn))
        });
        group.bench_with_input(BenchmarkId::new("matmul_bt", &tag), &(), |bch, _| {
            bch.iter(|| a.matmul_bt(&b_nk))
        });
        group.bench_with_input(BenchmarkId::new("matmul_at", &tag), &(), |bch, _| {
            bch.iter(|| a_km.matmul_at(&b_kn))
        });
    }
    group.finish();
}
