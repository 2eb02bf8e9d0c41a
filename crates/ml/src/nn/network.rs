//! The multi-layer perceptron: configuration, training loop, inference.
//!
//! The numeric hot path runs against a caller-owned
//! [`Workspace`](trout_linalg::Workspace): every per-batch buffer
//! (activations, pre-activations, gradients, dropout masks, batch-norm
//! statistics) lives there and is reused across batches and epochs, so a
//! steady-state training epoch and a `predict` performs zero heap
//! allocations after warmup (guarded by `tests/zero_alloc.rs`). The
//! `*_in` methods take the workspace explicitly for callers that keep one
//! alive across fits (trainer, serving); the plain `fit`/`predict` wrappers
//! build a fresh one per call.

use trout_linalg::{init, LayerSpec, Matrix, SplitMix64, Workspace};

use super::activation::Activation;
use super::batchnorm::BatchNorm;
use super::loss::Loss;
use super::optimizer::Adam;

/// Hyper-parameters of an [`Mlp`] — the space the paper explores with Optuna
/// (learning rate, epochs, layer count/sizes, dropout, activation; §III).
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden layer widths (the paper's regressor uses three hidden layers).
    pub hidden: Vec<usize>,
    /// Hidden activation (the paper selected ELU over ReLU).
    pub activation: Activation,
    /// Training loss; smooth L1 for the regressor, BCE for the classifier.
    pub loss: Loss,
    /// Dropout rate applied to hidden activations during training (0 = off).
    pub dropout: f32,
    /// Whether to insert batch normalization before each hidden activation
    /// (tested and rejected by the paper; kept for ablation A5).
    pub batchnorm: bool,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for init, shuffling and dropout masks.
    pub seed: u64,
    /// Optional early stopping: hold out the *last* fraction of rows as a
    /// validation set (time-ordered data makes the tail the honest choice)
    /// and stop when validation loss hasn't improved for `patience` epochs,
    /// restoring the best-epoch weights.
    pub early_stopping: Option<EarlyStopping>,
}

trout_std::impl_json_struct!(MlpConfig {
    input_dim,
    hidden,
    activation,
    loss,
    dropout,
    batchnorm,
    lr,
    epochs,
    batch_size,
    seed,
    early_stopping
});

/// Early-stopping policy for [`MlpConfig::early_stopping`].
#[derive(Debug, Clone, Copy)]
pub struct EarlyStopping {
    /// Fraction of rows (taken from the end) used as the validation set.
    pub validation_fraction: f32,
    /// Epochs without validation improvement before stopping.
    pub patience: usize,
}

trout_std::impl_json_struct!(EarlyStopping {
    validation_fraction,
    patience
});

impl MlpConfig {
    /// A reasonable starting point for a scalar-output network.
    pub fn new(input_dim: usize, hidden: Vec<usize>) -> Self {
        MlpConfig {
            input_dim,
            hidden,
            activation: Activation::ELU,
            loss: Loss::SMOOTH_L1,
            dropout: 0.0,
            batchnorm: false,
            lr: 1e-3,
            epochs: 20,
            batch_size: 256,
            seed: 0,
            early_stopping: None,
        }
    }
}

/// One dense block: `x @ w + b`, optional batch norm, then activation.
#[derive(Debug, Clone)]
struct Block {
    w: Matrix,
    b: Vec<f32>,
    bn: Option<BatchNorm>,
    act: Activation,
}

trout_std::impl_json_struct!(Block { w, b, bn, act });

/// A trained (or trainable) feed-forward network with scalar output.
#[derive(Debug, Clone)]
pub struct Mlp {
    blocks: Vec<Block>,
    loss: Loss,
    dropout: f32,
    seed: u64,
    lr: f32,
    epochs: usize,
    batch_size: usize,
    early_stopping: Option<EarlyStopping>,
}

trout_std::impl_json_struct!(Mlp {
    blocks,
    loss,
    dropout,
    seed,
    lr,
    epochs,
    batch_size,
    early_stopping
});

/// Per-epoch training losses returned by [`Mlp::fit`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss after each epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation losses per epoch (empty without early stopping).
    pub val_losses: Vec<f32>,
    /// Epoch whose weights were kept (last epoch without early stopping).
    pub best_epoch: usize,
}

/// Optimizer state per block: (weights, biases, optional (gamma, beta)).
type BlockOptimizers = Vec<(Adam, Adam, Option<(Adam, Adam)>)>;

impl Mlp {
    /// Initializes a network from a config (He init for ReLU, Xavier
    /// otherwise).
    pub fn new(cfg: &MlpConfig) -> Self {
        assert!(cfg.input_dim > 0, "input_dim must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.dropout),
            "dropout must be in [0, 1)"
        );
        let mut rng = SplitMix64::new(cfg.seed ^ 0x6E65_7477_6F72_6B73);
        let mut dims = vec![cfg.input_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let mut blocks = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let (fan_in, fan_out) = (dims[i], dims[i + 1]);
            let last = i == dims.len() - 2;
            let w = match cfg.activation {
                Activation::Relu => init::he_normal(fan_in, fan_out, &mut rng),
                _ => init::xavier_uniform(fan_in, fan_out, &mut rng),
            };
            blocks.push(Block {
                w,
                b: vec![0.0; fan_out],
                bn: if cfg.batchnorm && !last {
                    Some(BatchNorm::new(fan_out))
                } else {
                    None
                },
                act: if last {
                    Activation::Identity
                } else {
                    cfg.activation
                },
            });
        }
        Mlp {
            blocks,
            loss: cfg.loss,
            dropout: cfg.dropout,
            seed: cfg.seed,
            lr: cfg.lr,
            epochs: cfg.epochs,
            batch_size: cfg.batch_size.max(1),
            early_stopping: cfg.early_stopping,
        }
    }

    /// Convenience: init + fit in one call.
    pub fn train(cfg: &MlpConfig, x: &Matrix, y: &[f32]) -> (Mlp, TrainReport) {
        let mut mlp = Mlp::new(cfg);
        let report = mlp.fit(x, y);
        (mlp, report)
    }

    /// Number of dense layers (hidden + output).
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Input feature width (rows of the first weight matrix).
    pub fn input_dim(&self) -> usize {
        self.blocks[0].w.rows()
    }

    /// The loss this network trains with.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Builds a scratch [`Workspace`] matching this network's architecture,
    /// pre-sized for `batch_rows`-row batches (larger batches grow the
    /// buffers once to the new high-water mark).
    pub fn workspace(&self, batch_rows: usize) -> Workspace {
        let depth = self.blocks.len();
        let specs: Vec<LayerSpec> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(li, b)| LayerSpec {
                fan_in: b.w.rows(),
                width: b.w.cols(),
                norm: b.bn.is_some(),
                mask: self.dropout > 0.0 && li + 1 < depth,
            })
            .collect();
        Workspace::new(self.blocks[0].w.rows(), &specs, batch_rows.max(1))
    }

    /// A [`Mlp::workspace`] pre-sized for this network's own training batch
    /// size — what a caller should hold on to between warm-start refits.
    pub fn fit_workspace(&self) -> Workspace {
        self.workspace(self.batch_size)
    }

    /// Continues training from the current weights ("warm start") with an
    /// epoch count and learning rate chosen for the update — the primitive
    /// behind TROUT's online-learning mode (§V future work). Optimizer
    /// moments are fresh; weights are whatever the model has learned so far.
    pub fn fit_with(&mut self, x: &Matrix, y: &[f32], epochs: usize, lr: f32) -> TrainReport {
        let mut ws = self.workspace(self.batch_size.min(x.rows().max(1)));
        self.fit_with_in(x, y, epochs, lr, &mut ws)
    }

    /// [`Mlp::fit_with`] against a caller-owned workspace, so repeated
    /// online refits stop churning the allocator.
    pub fn fit_with_in(
        &mut self,
        x: &Matrix,
        y: &[f32],
        epochs: usize,
        lr: f32,
        ws: &mut Workspace,
    ) -> TrainReport {
        let (saved_epochs, saved_lr) = (self.epochs, self.lr);
        self.epochs = epochs;
        self.lr = lr;
        let report = self.fit_in(x, y, ws);
        self.epochs = saved_epochs;
        self.lr = saved_lr;
        report
    }

    /// Trains with mini-batch Adam; returns per-epoch mean losses.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` disagree on sample count or the feature width
    /// does not match the first layer.
    pub fn fit(&mut self, x: &Matrix, y: &[f32]) -> TrainReport {
        let mut ws = self.workspace(self.batch_size.min(x.rows().max(1)));
        self.fit_in(x, y, &mut ws)
    }

    /// [`Mlp::fit`] against a caller-owned workspace. After the first batch
    /// warms the buffers, each further batch and epoch is allocation-free
    /// (the per-fit setup — optimizer moments, the shuffle order, the loss
    /// history — still allocates once per call).
    pub fn fit_in(&mut self, x: &Matrix, y: &[f32], ws: &mut Workspace) -> TrainReport {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert_eq!(x.cols(), self.blocks[0].w.rows(), "feature width mismatch");
        let n = x.rows();
        assert!(n > 0, "cannot fit on an empty dataset");
        let mut rng = SplitMix64::new(self.seed ^ 0x7472_6169_6E21);
        let mut opts: BlockOptimizers = self
            .blocks
            .iter()
            .map(|b| {
                (
                    Adam::new(b.w.rows() * b.w.cols(), self.lr),
                    Adam::new(b.b.len(), self.lr),
                    b.bn.as_ref()
                        .map(|bn| (Adam::new(bn.dim(), self.lr), Adam::new(bn.dim(), self.lr))),
                )
            })
            .collect();

        // Early-stopping bookkeeping: the validation window is the time tail.
        let val_count = self
            .early_stopping
            .map(|es| ((n as f32 * es.validation_fraction) as usize).clamp(1, n - 1))
            .unwrap_or(0);
        let train_count = n - val_count;
        let (val_x, val_y) = if val_count > 0 {
            let idx: Vec<usize> = (train_count..n).collect();
            (Some(x.select_rows(&idx)), y[train_count..].to_vec())
        } else {
            (None, Vec::new())
        };

        let mut order: Vec<usize> = (0..train_count).collect();
        let mut epoch_losses = Vec::with_capacity(self.epochs);
        let mut val_losses = Vec::new();
        let mut val_preds: Vec<f32> = Vec::with_capacity(val_count);
        let mut best_epoch = self.epochs.saturating_sub(1);
        let mut best_val = f32::INFINITY;
        let mut best_blocks: Option<Vec<Block>> = None;
        let mut stale = 0usize;
        // Per-epoch phase timings accumulate per batch and record once per
        // epoch, so the hot loop costs clock reads only (no histogram
        // traffic per batch — the zero-alloc epoch-invariance test rides
        // with this enabled).
        let fwd_hist = trout_obs::histogram!("span.nn.epoch_forward_us");
        let bwd_hist = trout_obs::histogram!("span.nn.epoch_backward_us");
        let step_hist = trout_obs::histogram!("span.nn.epoch_step_us");
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            let mut total_loss = 0.0f64;
            let (mut fwd_ns, mut bwd_ns, mut step_ns) = (0u128, 0u128, 0u128);
            for chunk in order.chunks(self.batch_size) {
                x.select_rows_into(chunk, &mut ws.input);
                ws.targets.clear();
                ws.targets.extend(chunk.iter().map(|&i| y[i]));
                let t0 = std::time::Instant::now();
                self.forward_train_in(ws, &mut rng);
                let t1 = std::time::Instant::now();
                let loss_val = self.backward_in(ws);
                let t2 = std::time::Instant::now();
                total_loss += loss_val as f64 * chunk.len() as f64;
                for (li, lw) in ws.layers.iter().enumerate() {
                    let block = &mut self.blocks[li];
                    opts[li].0.step(block.w.as_mut_slice(), lw.d_w.as_slice());
                    opts[li].1.step(&mut block.b, &lw.d_b);
                    if let (Some(bn), Some((og, ob))) = (block.bn.as_mut(), opts[li].2.as_mut()) {
                        let (gamma, beta) = bn.params_mut();
                        og.step(gamma, &lw.norm_d_gamma);
                        ob.step(beta, &lw.norm_d_beta);
                    }
                }
                let t3 = std::time::Instant::now();
                fwd_ns += (t1 - t0).as_nanos();
                bwd_ns += (t2 - t1).as_nanos();
                step_ns += (t3 - t2).as_nanos();
            }
            fwd_hist.record((fwd_ns / 1_000) as u64);
            bwd_hist.record((bwd_ns / 1_000) as u64);
            step_hist.record((step_ns / 1_000) as u64);
            epoch_losses.push((total_loss / train_count.max(1) as f64) as f32);

            if let (Some(vx), Some(es)) = (&val_x, self.early_stopping) {
                self.predict_in(vx, ws, &mut val_preds);
                let vl = self.loss.mean(&val_preds, &val_y);
                val_losses.push(vl);
                if vl < best_val {
                    best_val = vl;
                    best_epoch = epoch;
                    best_blocks = Some(self.blocks.clone());
                    stale = 0;
                } else {
                    stale += 1;
                    if stale > es.patience {
                        break;
                    }
                }
            }
        }
        if let Some(blocks) = best_blocks {
            self.blocks = blocks;
        }
        TrainReport {
            epoch_losses,
            val_losses,
            best_epoch,
        }
    }

    /// Training-mode forward pass over the workspace batch (`ws.input`):
    /// fills each layer's `pre_act`/`output` (and mask/norm buffers).
    /// Mutates batch-norm running statistics and consumes RNG for dropout.
    fn forward_train_in(&mut self, ws: &mut Workspace, rng: &mut SplitMix64) {
        let depth = self.blocks.len();
        let dropout = self.dropout;
        for li in 0..depth {
            let (prev, rest) = ws.layers.split_at_mut(li);
            let lw = &mut rest[0];
            let input: &Matrix = if li == 0 {
                &ws.input
            } else {
                &prev[li - 1].output
            };
            let block = &mut self.blocks[li];
            input.matmul_into(&block.w, &mut lw.pre_act);
            lw.pre_act.add_row_broadcast(&block.b);
            if let Some(bn) = &mut block.bn {
                bn.forward_train_in(
                    &mut lw.pre_act,
                    &mut lw.norm_x,
                    &mut lw.norm_mean,
                    &mut lw.norm_var,
                    &mut lw.norm_inv_std,
                );
            }
            lw.output
                .reshape_scratch(lw.pre_act.rows(), lw.pre_act.cols());
            block
                .act
                .forward_slice(lw.pre_act.as_slice(), lw.output.as_mut_slice());
            // Inverted dropout on hidden activations only. Selects, not a
            // branch: a dropped unit is exactly +0.0 (never `o · 0`, which
            // keeps the sign of a negative ELU output).
            if dropout > 0.0 && li + 1 < depth {
                let keep = 1.0 - dropout;
                let scale = 1.0 / keep;
                lw.mask.reshape_scratch(lw.output.rows(), lw.output.cols());
                for (m, o) in lw
                    .mask
                    .as_mut_slice()
                    .iter_mut()
                    .zip(lw.output.as_mut_slice())
                {
                    let kept = rng.next_f32() < keep;
                    *m = if kept { scale } else { 0.0 };
                    *o = if kept { *o * scale } else { 0.0 };
                }
            }
        }
    }

    /// Backward pass over the workspace's cached activations: returns the
    /// batch loss and leaves the parameter gradients in each layer's
    /// `d_w`/`d_b` (and `norm_d_gamma`/`norm_d_beta`), without mutating any
    /// parameter. Consumes the `grad` buffers in place.
    fn backward_in(&self, ws: &mut Workspace) -> f32 {
        let depth = self.blocks.len();
        let yb = &ws.targets;
        let batch = yb.len() as f32;
        let loss_val = {
            let lw = ws.layers.last_mut().expect("at least one layer");
            let preds = lw.output.as_slice();
            let loss_val = self.loss.mean(preds, yb);
            lw.grad.reshape_scratch(yb.len(), 1);
            for i in 0..yb.len() {
                let g = self.loss.gradient(lw.output.get(i, 0), yb[i]) / batch;
                lw.grad.set(i, 0, g);
            }
            loss_val
        };

        for li in (0..depth).rev() {
            let (prev, rest) = ws.layers.split_at_mut(li);
            let lw = &mut rest[0];
            let block = &self.blocks[li];
            // Dropout mask (already includes the 1/keep scaling), then the
            // activation derivative, in one pass in place on the gradient.
            {
                let gs = lw.grad.as_mut_slice();
                let zs = lw.pre_act.as_slice();
                let avs = lw.output.as_slice();
                let act = block.act;
                if self.dropout > 0.0 && li + 1 < depth {
                    for (((g, &z), &a), &m) in
                        gs.iter_mut().zip(zs).zip(avs).zip(lw.mask.as_slice())
                    {
                        *g = *g * m * act.derivative(z, a);
                    }
                } else {
                    for ((g, &z), &a) in gs.iter_mut().zip(zs).zip(avs) {
                        *g *= act.derivative(z, a);
                    }
                }
            }
            // Batch norm.
            let g_lin: &Matrix = match &block.bn {
                Some(bn) => {
                    bn.backward_in(
                        &lw.grad,
                        &lw.norm_x,
                        &lw.norm_inv_std,
                        &mut lw.norm_grad,
                        &mut lw.norm_d_gamma,
                        &mut lw.norm_d_beta,
                    );
                    &lw.norm_grad
                }
                None => &lw.grad,
            };
            // Dense layer.
            let input: &Matrix = if li == 0 {
                &ws.input
            } else {
                &prev[li - 1].output
            };
            input.matmul_at_into(g_lin, &mut lw.d_w);
            g_lin.col_sums_into(&mut lw.d_b);
            // Propagate into the previous layer's grad buffer; layer 0's
            // input gradient has no consumer, so it is never computed.
            if li > 0 {
                g_lin.matmul_bt_into(&block.w, &mut prev[li - 1].grad);
            }
        }
        loss_val
    }

    /// Inference on a batch: returns the raw scalar output per row (a logit
    /// when the network was trained with [`Loss::BceWithLogits`]).
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        let mut ws = self.workspace(x.rows());
        let mut out = Vec::with_capacity(x.rows());
        self.predict_in(x, &mut ws, &mut out);
        out
    }

    /// [`Mlp::predict`] against a caller-owned workspace and output vector —
    /// allocation-free once both have warmed up to the batch size.
    pub fn predict_in(&self, x: &Matrix, ws: &mut Workspace, out: &mut Vec<f32>) {
        assert_eq!(x.cols(), self.blocks[0].w.rows(), "feature width mismatch");
        for li in 0..self.blocks.len() {
            let (prev, rest) = ws.layers.split_at_mut(li);
            let lw = &mut rest[0];
            let input: &Matrix = if li == 0 { x } else { &prev[li - 1].output };
            let block = &self.blocks[li];
            input.matmul_into(&block.w, &mut lw.pre_act);
            lw.pre_act.add_row_broadcast(&block.b);
            if let Some(bn) = &block.bn {
                bn.forward_eval_in(&mut lw.pre_act);
            }
            lw.output
                .reshape_scratch(lw.pre_act.rows(), lw.pre_act.cols());
            block
                .act
                .forward_slice(lw.pre_act.as_slice(), lw.output.as_mut_slice());
        }
        out.clear();
        out.extend_from_slice(
            ws.layers
                .last()
                .expect("at least one layer")
                .output
                .as_slice(),
        );
    }

    /// Inference on a single sample.
    pub fn predict_one(&self, row: &[f32]) -> f32 {
        let x = Matrix::from_vec(1, row.len(), row.to_vec());
        self.predict(&x)[0]
    }

    /// Class probabilities for a BCE-trained network (sigmoid of the logit).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.predict(x)
            .into_iter()
            .map(trout_linalg::ops::sigmoid)
            .collect()
    }

    #[cfg(test)]
    fn weight_mut(&mut self, layer: usize, idx: usize) -> &mut f32 {
        &mut self.blocks[layer].w.as_mut_slice()[idx]
    }

    /// Full-batch weight gradients per layer (test-only reference).
    #[cfg(test)]
    fn full_batch_gradients(&mut self, x: &Matrix, y: &[f32]) -> Vec<Matrix> {
        let mut rng = SplitMix64::new(0);
        let mut ws = self.workspace(x.rows());
        let all: Vec<usize> = (0..x.rows()).collect();
        x.select_rows_into(&all, &mut ws.input);
        ws.targets.clear();
        ws.targets.extend_from_slice(y);
        self.forward_train_in(&mut ws, &mut rng);
        let _ = self.backward_in(&mut ws);
        ws.layers.iter().map(|lw| lw.d_w.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_config(hidden: Vec<usize>) -> MlpConfig {
        let mut cfg = MlpConfig::new(2, hidden);
        cfg.epochs = 400;
        cfg.lr = 5e-3;
        cfg.batch_size = 16;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn learns_xor_with_bce() {
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = [0.0f32, 1.0, 1.0, 0.0];
        let mut cfg = toy_config(vec![8]);
        cfg.loss = Loss::BceWithLogits;
        cfg.activation = Activation::Tanh;
        cfg.epochs = 1500;
        let (mlp, report) = Mlp::train(&cfg, &x, &y);
        assert!(
            report.epoch_losses.last().unwrap() < &0.1,
            "loss {:?}",
            report.epoch_losses.last()
        );
        let probs = mlp.predict_proba(&x);
        assert!(probs[0] < 0.3 && probs[3] < 0.3, "{probs:?}");
        assert!(probs[1] > 0.7 && probs[2] > 0.7, "{probs:?}");
    }

    #[test]
    fn learns_linear_regression_with_smooth_l1() {
        // y = 3a - 2b + 1 over a grid.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f32 / 10.0 - 1.0, j as f32 / 10.0 - 1.0);
                rows.extend_from_slice(&[a, b]);
                ys.push(3.0 * a - 2.0 * b + 1.0);
            }
        }
        let x = Matrix::from_vec(400, 2, rows);
        let mut cfg = toy_config(vec![16]);
        cfg.epochs = 200;
        let (mlp, report) = Mlp::train(&cfg, &x, &ys);
        let final_loss = *report.epoch_losses.last().unwrap();
        assert!(final_loss < 0.02, "final loss {final_loss}");
        let pred = mlp.predict_one(&[0.5, -0.5]);
        let want = 3.0 * 0.5 + 1.0 + 1.0;
        assert!((pred - want).abs() < 0.3, "pred {pred} want {want}");
    }

    #[test]
    fn elu_network_fits_a_nonlinearity() {
        // y = sin(2a) + b^2
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut rng = SplitMix64::new(3);
        for _ in 0..600 {
            let a = rng.uniform(-1.5, 1.5);
            let b = rng.uniform(-1.5, 1.5);
            rows.extend_from_slice(&[a, b]);
            ys.push((2.0 * a).sin() + b * b);
        }
        let x = Matrix::from_vec(600, 2, rows);
        let mut cfg = toy_config(vec![32, 16]);
        cfg.loss = Loss::Mse;
        cfg.epochs = 300;
        let (_, report) = Mlp::train(&cfg, &x, &ys);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < 0.05, "final mse {last}");
        assert!(last < first / 5.0, "no learning: {first} -> {last}");
    }

    #[test]
    fn analytic_gradients_match_finite_differences() {
        let x = Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.7, 0.9]);
        let y = [0.5f32, -0.2, 0.8];
        let mut cfg = MlpConfig::new(2, vec![3, 2]);
        cfg.loss = Loss::Mse;
        cfg.seed = 11;
        let base = Mlp::new(&cfg);
        let grads = base.clone().full_batch_gradients(&x, &y);

        let loss_of = |m: &Mlp| -> f32 { m.loss.mean(&m.predict(&x), &y) };
        let eps = 1e-3f32;
        for (layer, idx) in [(0usize, 0usize), (0, 5), (1, 3), (2, 1)] {
            let mut plus = base.clone();
            *plus.weight_mut(layer, idx) += eps;
            let mut minus = base.clone();
            *minus.weight_mut(layer, idx) -= eps;
            let num = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            let ana = grads[layer].as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-3 * (1.0 + ana.abs()),
                "layer {layer} idx {idx}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn dropout_trains_and_eval_is_deterministic() {
        let x = Matrix::from_vec(8, 2, (0..16).map(|i| i as f32 / 8.0).collect());
        let y: Vec<f32> = (0..8).map(|i| i as f32 / 4.0).collect();
        let mut cfg = toy_config(vec![16, 8]);
        cfg.dropout = 0.3;
        cfg.epochs = 50;
        let (mlp, _) = Mlp::train(&cfg, &x, &y);
        let p1 = mlp.predict(&x);
        let p2 = mlp.predict(&x);
        assert_eq!(p1, p2, "inference must not be stochastic");
    }

    #[test]
    fn batchnorm_network_trains() {
        let x = Matrix::from_vec(32, 2, (0..64).map(|i| (i % 13) as f32 * 10.0).collect());
        let y: Vec<f32> = (0..32).map(|i| (i % 5) as f32).collect();
        let mut cfg = toy_config(vec![8]);
        cfg.batchnorm = true;
        cfg.loss = Loss::Mse;
        cfg.epochs = 150;
        let (mlp, report) = Mlp::train(&cfg, &x, &y);
        assert!(report.epoch_losses.last().unwrap().is_finite());
        assert!(mlp.predict(&x).iter().all(|p| p.is_finite()));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let x = Matrix::from_vec(4, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        let y = [1.0f32, 2.0, 3.0, 4.0];
        let mut cfg = toy_config(vec![4]);
        cfg.epochs = 5;
        let (mlp, _) = Mlp::train(&cfg, &x, &y);
        use trout_std::json::{FromJson, ToJson};
        let json = mlp.to_json_string();
        let back = Mlp::from_json_str(&json).unwrap();
        assert_eq!(mlp.predict(&x), back.predict(&x));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let x = Matrix::from_vec(6, 2, (0..12).map(|i| i as f32).collect());
        let y = [0.0f32, 1.0, 0.0, 1.0, 0.0, 1.0];
        let mut cfg = toy_config(vec![4]);
        cfg.epochs = 10;
        cfg.dropout = 0.2;
        let (a, _) = Mlp::train(&cfg, &x, &y);
        let (b, _) = Mlp::train(&cfg, &x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_rejects_wrong_width() {
        let cfg = MlpConfig::new(3, vec![2]);
        let mlp = Mlp::new(&cfg);
        let _ = mlp.predict(&Matrix::zeros(1, 2));
    }
}

#[cfg(test)]
mod early_stopping_tests {
    use super::*;

    fn noisy_line(n: usize, seed: u64) -> (Matrix, Vec<f32>) {
        let mut rng = SplitMix64::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            rows.push(a);
            rows.push(rng.uniform(-1.0, 1.0));
            y.push(2.0 * a + rng.uniform(-0.2, 0.2));
        }
        (Matrix::from_vec(n, 2, rows), y)
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let (x, y) = noisy_line(300, 1);
        let mut cfg = MlpConfig::new(2, vec![8]);
        cfg.epochs = 400;
        cfg.lr = 5e-3;
        cfg.early_stopping = Some(EarlyStopping {
            validation_fraction: 0.2,
            patience: 5,
        });
        let (_, report) = Mlp::train(&cfg, &x, &y);
        assert!(report.epoch_losses.len() < 400, "never stopped early");
        assert!(!report.val_losses.is_empty());
        assert!(report.best_epoch < report.epoch_losses.len());
    }

    #[test]
    fn restored_weights_match_best_validation_epoch() {
        let (x, y) = noisy_line(200, 2);
        let mut cfg = MlpConfig::new(2, vec![8]);
        cfg.epochs = 120;
        cfg.lr = 1e-2;
        cfg.early_stopping = Some(EarlyStopping {
            validation_fraction: 0.25,
            patience: 3,
        });
        let (mlp, report) = Mlp::train(&cfg, &x, &y);
        // Recompute validation loss of the returned model: must equal the
        // recorded minimum (weights restored, not last-epoch).
        let val_start = 150;
        let idx: Vec<usize> = (val_start..200).collect();
        let vx = x.select_rows(&idx);
        let vy = &y[val_start..];
        let vl = mlp.loss().mean(&mlp.predict(&vx), vy);
        let min_recorded = report
            .val_losses
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert!(
            (vl - min_recorded).abs() < 1e-5,
            "{vl} vs recorded min {min_recorded}"
        );
    }

    #[test]
    fn without_early_stopping_val_losses_is_empty() {
        let (x, y) = noisy_line(50, 3);
        let mut cfg = MlpConfig::new(2, vec![4]);
        cfg.epochs = 3;
        let (_, report) = Mlp::train(&cfg, &x, &y);
        assert!(report.val_losses.is_empty());
        assert_eq!(report.epoch_losses.len(), 3);
        assert_eq!(report.best_epoch, 2);
    }
}
