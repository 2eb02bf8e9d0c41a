//! Dense feed-forward neural networks.
//!
//! The architecture follows §III of the paper: fully connected layers, ELU
//! activations (chosen over ReLU after ablation), dropout regularization,
//! optional batch normalization (evaluated and rejected — reproduced as
//! ablation A5), Adam optimization, smooth-L1 loss for the regressor and
//! binary cross-entropy for the quick-start classifier.

mod activation;
mod batchnorm;
mod loss;
mod network;
mod optimizer;

pub use activation::Activation;
pub use batchnorm::BatchNorm;
pub use loss::Loss;
pub use network::{EarlyStopping, Mlp, MlpConfig, TrainReport};
pub use optimizer::Adam;
