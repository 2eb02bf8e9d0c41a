//! Batch normalization (Ioffe & Szegedy, 2015).
//!
//! The paper *tested and rejected* batch norm for the regressor (§III); we
//! implement it so ablation A5 can reproduce that comparison rather than
//! assert it.

use trout_linalg::Matrix;

/// One batch-normalization layer over `dim` features.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

trout_std::impl_json_struct!(BatchNorm {
    gamma,
    beta,
    running_mean,
    running_var,
    momentum,
    eps
});

/// Per-batch cache needed for the backward pass.
#[derive(Debug, Clone)]
pub struct BnCache {
    /// Normalized inputs `x_hat`.
    pub x_hat: Matrix,
    /// Batch mean per feature.
    pub mean: Vec<f32>,
    /// Batch inverse standard deviation per feature.
    pub inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Identity-initialized batch norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        BatchNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Number of normalized features.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Training-mode forward: normalizes with batch statistics, updates
    /// running statistics, and returns the output plus backward cache.
    pub fn forward_train(&mut self, x: &Matrix) -> (Matrix, BnCache) {
        let (n, d) = (x.rows(), x.cols());
        let mut out = x.clone();
        let mut x_hat = Matrix::zeros(n, d);
        let mut mean = vec![0.0f32; d];
        let mut var = vec![0.0f32; d];
        let mut inv_std = vec![0.0f32; d];
        self.forward_train_in(&mut out, &mut x_hat, &mut mean, &mut var, &mut inv_std);
        (
            out,
            BnCache {
                x_hat,
                mean,
                inv_std,
            },
        )
    }

    /// Training-mode forward against caller-owned buffers: `x` (the linear
    /// output) is overwritten in place with the normalized-scaled output,
    /// `x_hat` is reshaped to match, and the three statistic slices must be
    /// `dim()` long. Updates running statistics. Bit-identical to
    /// [`BatchNorm::forward_train`]; allocation-free once `x_hat` has the
    /// capacity.
    pub fn forward_train_in(
        &mut self,
        x: &mut Matrix,
        x_hat: &mut Matrix,
        mean: &mut [f32],
        var: &mut [f32],
        inv_std: &mut [f32],
    ) {
        let (n, d) = (x.rows(), x.cols());
        assert_eq!(d, self.dim(), "batchnorm width mismatch");
        assert!(n > 0, "empty batch");
        assert_eq!(mean.len(), d, "batchnorm stat buffer mismatch");
        assert_eq!(var.len(), d, "batchnorm stat buffer mismatch");
        assert_eq!(inv_std.len(), d, "batchnorm stat buffer mismatch");
        mean.fill(0.0);
        for r in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f32;
        }
        var.fill(0.0);
        for r in 0..n {
            for (j, &v) in x.row(r).iter().enumerate() {
                let c = v - mean[j];
                var[j] += c * c;
            }
        }
        for v in var.iter_mut() {
            *v /= n as f32;
        }
        for (s, &v) in inv_std.iter_mut().zip(var.iter()) {
            *s = 1.0 / (v + self.eps).sqrt();
        }

        x_hat.reshape_scratch(n, d);
        for r in 0..n {
            for j in 0..d {
                let xh = (x.get(r, j) - mean[j]) * inv_std[j];
                x_hat.set(r, j, xh);
                x.set(r, j, self.gamma[j] * xh + self.beta[j]);
            }
        }
        for j in 0..d {
            self.running_mean[j] =
                (1.0 - self.momentum) * self.running_mean[j] + self.momentum * mean[j];
            self.running_var[j] =
                (1.0 - self.momentum) * self.running_var[j] + self.momentum * var[j];
        }
    }

    /// Inference-mode forward using the running statistics.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.forward_eval_in(&mut out);
        out
    }

    /// Inference-mode forward in place: overwrites `x` with the output.
    /// Bit-identical to [`BatchNorm::forward_eval`].
    pub fn forward_eval_in(&self, x: &mut Matrix) {
        let (n, d) = (x.rows(), x.cols());
        assert_eq!(d, self.dim(), "batchnorm width mismatch");
        for r in 0..n {
            for j in 0..d {
                let xh =
                    (x.get(r, j) - self.running_mean[j]) / (self.running_var[j] + self.eps).sqrt();
                x.set(r, j, self.gamma[j] * xh + self.beta[j]);
            }
        }
    }

    /// Backward pass: consumes `d_out`, returns `d_x` and applies parameter
    /// gradients to `gamma`/`beta` via the supplied SGD-style closure inputs.
    /// Returns `(d_x, d_gamma, d_beta)`.
    pub fn backward(&self, d_out: &Matrix, cache: &BnCache) -> (Matrix, Vec<f32>, Vec<f32>) {
        let (n, d) = (d_out.rows(), d_out.cols());
        let mut d_x = Matrix::zeros(n, d);
        let mut d_gamma = vec![0.0f32; d];
        let mut d_beta = vec![0.0f32; d];
        self.backward_in(
            d_out,
            &cache.x_hat,
            &cache.inv_std,
            &mut d_x,
            &mut d_gamma,
            &mut d_beta,
        );
        (d_x, d_gamma, d_beta)
    }

    /// Backward pass against caller-owned buffers: writes the input gradient
    /// into `d_x` (reshaped to the batch) and the parameter gradients into
    /// `d_gamma`/`d_beta`. Bit-identical to [`BatchNorm::backward`];
    /// allocation-free once `d_x` has the capacity.
    pub fn backward_in(
        &self,
        d_out: &Matrix,
        x_hat: &Matrix,
        inv_std: &[f32],
        d_x: &mut Matrix,
        d_gamma: &mut [f32],
        d_beta: &mut [f32],
    ) {
        let (n, d) = (d_out.rows(), d_out.cols());
        let nf = n as f32;
        assert_eq!(d_gamma.len(), d, "batchnorm grad buffer mismatch");
        assert_eq!(d_beta.len(), d, "batchnorm grad buffer mismatch");
        d_gamma.fill(0.0);
        d_beta.fill(0.0);
        for r in 0..n {
            for j in 0..d {
                d_gamma[j] += d_out.get(r, j) * x_hat.get(r, j);
                d_beta[j] += d_out.get(r, j);
            }
        }
        // dx = (gamma * inv_std / N) * (N*dout - sum(dout) - x_hat * sum(dout*x_hat))
        d_x.reshape_scratch(n, d);
        for r in 0..n {
            for j in 0..d {
                let dout = d_out.get(r, j);
                let term = nf * dout - d_beta[j] - x_hat.get(r, j) * d_gamma[j];
                d_x.set(r, j, self.gamma[j] * inv_std[j] / nf * term);
            }
        }
    }

    /// Mutable access to `(gamma, beta)` for the optimizer.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.gamma, &mut self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Matrix {
        Matrix::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0])
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm::new(2);
        let (out, _) = bn.forward_train(&sample_batch());
        for j in 0..2 {
            let col: Vec<f32> = (0..4).map(|r| out.get(r, j)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {j} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(2);
        // Many passes so running stats converge to the batch stats.
        for _ in 0..200 {
            let _ = bn.forward_train(&sample_batch());
        }
        let out = bn.forward_eval(&sample_batch());
        for j in 0..2 {
            let mean: f32 = (0..4).map(|r| out.get(r, j)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 0.05, "col {j} mean {mean}");
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        // Scalar loss L = sum(out^2)/2 so dL/dout = out.
        let x = sample_batch();
        let mut bn = BatchNorm::new(2);
        let (out, cache) = bn.forward_train(&x);
        let (d_x, _, _) = bn.backward(&out, &cache);

        let eps = 1e-2f32;
        for (r, j) in [(0, 0), (2, 1), (3, 0)] {
            let mut xp = x.clone();
            xp.set(r, j, x.get(r, j) + eps);
            let mut xm = x.clone();
            xm.set(r, j, x.get(r, j) - eps);
            let mut bnp = BatchNorm::new(2);
            let (op, _) = bnp.forward_train(&xp);
            let mut bnm = BatchNorm::new(2);
            let (om, _) = bnm.forward_train(&xm);
            let lp: f32 = op.as_slice().iter().map(|v| v * v / 2.0).sum();
            let lm: f32 = om.as_slice().iter().map(|v| v * v / 2.0).sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = d_x.get(r, j);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "({r},{j}): {num} vs {ana}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let mut bn = BatchNorm::new(3);
        let _ = bn.forward_train(&sample_batch());
    }
}
