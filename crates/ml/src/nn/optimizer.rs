//! Optimizers.

/// Adam (Kingma & Ba, 2015) — the optimizer both of the paper's models use.
///
/// One `Adam` instance owns first/second-moment state for a single flat
/// parameter buffer; the network keeps one per weight matrix and bias vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

trout_std::impl_json_struct!(Adam {
    lr,
    beta1,
    beta2,
    eps,
    t,
    m,
    v
});

impl Adam {
    /// Creates state for `dim` parameters with the standard defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(dim: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step: `params -= lr * m_hat / (sqrt(v_hat) + eps)`.
    ///
    /// # Panics
    ///
    /// Panics if `params`/`grads` don't match the state dimension.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param dim mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad dim mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x - 3).
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x = {}", x[0]);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias correction makes the very first step ~= lr * sign(g).
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(1, 0.05);
        opt.step(&mut x, &[42.0]);
        assert!((x[0] + 0.05).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "param dim mismatch")]
    fn rejects_dim_mismatch() {
        let mut opt = Adam::new(2, 0.1);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[1.0]);
    }
}
