//! Experiment implementations, one per paper artifact (DESIGN.md §4).

mod ablations;
mod figures;
mod results;
mod systems;
mod tables;

pub use ablations::{
    a10_target, a12_runtime_features, a1_cutoff, a2_leakage, a3_smote, a4_scaling, a5_activation_bn,
};
pub use figures::{
    fig2_density, fig3_splits, fig4_5_scatter, fig6_7_model_comparison, fig8_9_within100,
};
pub use results::{r1_classifier, r2_regression};
pub use systems::{a11_transfer, a6_itree, a8_importance, a9_whatif};
pub use tables::{table1_stats, table2_features};
