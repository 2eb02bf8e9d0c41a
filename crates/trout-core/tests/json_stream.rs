//! The streaming serializer writes the tree serializer's bytes exactly:
//! for random artefacts, index jobs, predictions and containers,
//! `to_json_string()` (which streams through `ToJson::write_json`) equals
//! `to_json().to_string()`. The values carry NaN, ±inf, −0.0, integral
//! floats and strings that need escaping.

use std::sync::OnceLock;

use trout_core::{
    featurize, HierarchicalModel, Lane, QueueEstimate, QueuePrediction, RuntimePredictor,
    TroutConfig, TroutTrainer,
};
use trout_features::incremental::{JobPhase, TrackedJob};
use trout_linalg::Matrix;
use trout_ml::nn::Mlp;
use trout_ml::tree::{Gbt, GbtConfig, RandomForest};
use trout_slurmsim::{JobRecord, SimulationBuilder};
use trout_std::json::{FromJson, Json, ToJson};
use trout_std::rng::SplitMix64;
use trout_std::{prop_assert_eq, proptest_lite};

/// Trained artefacts every case perturbs: built once per test binary.
struct Bases {
    model: HierarchicalModel,
    runtime: RuntimePredictor,
    mlp: Mlp,
    gbt: Gbt,
    forest: RandomForest,
    records: Vec<JobRecord>,
}

fn bases() -> &'static Bases {
    static BASES: OnceLock<Bases> = OnceLock::new();
    BASES.get_or_init(|| {
        let trace = SimulationBuilder::anvil_like().jobs(300).seed(7).run();
        let (ds, runtime) = featurize(&trace, 0.6, 7);
        let mut cfg = TroutConfig::smoke();
        cfg.seed = 7;
        let model = TroutTrainer::new(cfg).fit(&ds);
        let model_json = ToJson::to_json(&model);
        let mlp = Mlp::from_json(model_json.get("classifier").unwrap()).unwrap();
        let forest = RandomForest::from_json(runtime.to_json().get("forest").unwrap()).unwrap();
        let x = Matrix::from_vec(8, 2, (0..16).map(|i| (i % 5) as f32).collect());
        let y: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        let gbt = Gbt::fit(
            &x,
            &y,
            &GbtConfig {
                n_rounds: 3,
                ..Default::default()
            },
        );
        Bases {
            model,
            runtime,
            mlp,
            gbt,
            forest,
            records: trace.records[..16].to_vec(),
        }
    })
}

/// A float drawn to hit the formatter's edge cases.
fn special(rng: &mut SplitMix64, x: f64) -> f64 {
    match rng.next_below(10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.gen_range_i64(-1_000_000, 1_000_000) as f64,
        5 => 1e21,
        6 => f32::MIN_POSITIVE as f64 / 8.0,
        7 => rng.gen_range_f64(-1e6, 1e6),
        _ => x,
    }
}

/// Replaces every float leaf of `j` through [`special`].
fn perturb_json(j: &Json, rng: &mut SplitMix64) -> Json {
    match j {
        Json::Num(x) => Json::Num(special(rng, *x)),
        Json::Arr(items) => Json::Arr(items.iter().map(|v| perturb_json(v, rng)).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), perturb_json(v, rng)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `v` with its float fields replaced by edge-case values.
fn perturb<T: ToJson + FromJson>(v: &T, rng: &mut SplitMix64) -> T {
    T::from_json(&perturb_json(&v.to_json(), rng)).unwrap()
}

/// A string with characters that need escaping, multi-byte characters and
/// plain runs.
fn awkward_string(rng: &mut SplitMix64) -> String {
    const PIECES: [&str; 9] = ["a", "\"", "\\", "\n", "\r\t", "\u{1}", "\u{1f}", "é", "😀"];
    (0..rng.gen_range_usize(0, 12))
        .map(|_| PIECES[rng.gen_range_usize(0, PIECES.len())])
        .collect()
}

#[derive(Debug)]
struct Labelled {
    name: String,
    points: Vec<Option<(u64, f32)>>,
}

trout_std::impl_json_struct!(Labelled { name, points });

fn same_bytes<T: ToJson + ?Sized>(v: &T) -> (String, String) {
    (v.to_json_string(), v.to_json().to_string())
}

proptest_lite! {
    #[cases(48)]
    fn streamed_text_equals_tree_text(seed in 0u64..u64::MAX, kind in 0usize..8) {
        let b = bases();
        let mut rng = SplitMix64::new(seed);
        let (streamed, tree) = match kind {
            0 => same_bytes(&perturb(&b.model, &mut rng)),
            1 => same_bytes(&perturb(&b.runtime, &mut rng)),
            2 => same_bytes(&perturb(&b.mlp, &mut rng)),
            3 => same_bytes(&perturb(&b.gbt, &mut rng)),
            4 => same_bytes(&perturb(&b.forest, &mut rng)),
            5 => {
                let rec = b.records[rng.gen_range_usize(0, b.records.len())].clone();
                let job = TrackedJob {
                    rec,
                    pred_runtime_min: 0.0,
                    phase: [JobPhase::Pending, JobPhase::Running, JobPhase::Done]
                        [rng.gen_range_usize(0, 3)],
                };
                same_bytes(&perturb(&job, &mut rng))
            }
            6 => {
                let minutes = special(&mut rng, 12.5) as f32;
                let p = QueuePrediction {
                    estimate: if rng.next_below(2) == 0 {
                        QueueEstimate::QuickStart
                    } else {
                        QueueEstimate::Minutes(minutes)
                    },
                    quick_proba: special(&mut rng, 0.25) as f32,
                    calibrated_proba: special(&mut rng, 0.5) as f32,
                    minutes: (rng.next_below(2) == 0).then_some(minutes),
                    cutoff_min: special(&mut rng, 10.0) as f32,
                    lane: [Lane::Urgent, Lane::Normal, Lane::Batch][rng.gen_range_usize(0, 3)],
                };
                same_bytes(&p)
            }
            _ => {
                let points: Vec<Option<(u64, f32)>> = (0..rng.gen_range_usize(0, 20))
                    .map(|_| {
                        (rng.next_below(4) > 0)
                            .then(|| (rng.next_u64(), special(&mut rng, 1.5) as f32))
                    })
                    .collect();
                let l = Labelled {
                    name: awkward_string(&mut rng),
                    points,
                };
                let (a, b) = same_bytes(&l);
                prop_assert_eq!(&a, &b);
                same_bytes(&l.points)
            }
        };
        prop_assert_eq!(streamed, tree);
    }
}
