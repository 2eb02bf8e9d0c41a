//! Fair-share usage tracking with exponential decay.
//!
//! Anvil runs SLURM "configured with a fair share policy" (§I), which is why
//! the paper must engineer user-history features at all. We implement the
//! classic SLURM fair-share factor `F = 2^(-U/S)` where `U` is the user's
//! normalized decayed usage and `S` their normalized share, with usage
//! half-life decay (SLURM's `PriorityDecayHalfLife`, default 7 days).

/// Per-user decayed CPU-second usage plus share weights.
#[derive(Debug, Clone)]
pub struct FairShareTracker {
    half_life_secs: f64,
    /// (decayed usage in cpu-seconds, timestamp of last decay) per user.
    usage: Vec<(f64, i64)>,
    shares: Vec<f64>,
    total_shares: f64,
    /// The left-to-right sum of every user's decayed usage, kept until some
    /// usage value changes: the scheduler asks for a factor per pending job
    /// per pass, too often for an O(users) sum each time.
    total_usage: Option<f64>,
}

impl FairShareTracker {
    /// Creates a tracker for `shares.len()` users.
    ///
    /// # Panics
    ///
    /// Panics if `half_life_secs` is not positive or `shares` is empty.
    pub fn new(shares: Vec<f64>, half_life_secs: f64) -> Self {
        assert!(half_life_secs > 0.0, "half life must be positive");
        assert!(!shares.is_empty(), "need at least one user");
        let total_shares: f64 = shares.iter().sum();
        assert!(total_shares > 0.0, "total shares must be positive");
        FairShareTracker {
            half_life_secs,
            usage: vec![(0.0, 0); shares.len()],
            shares,
            total_shares,
            total_usage: None,
        }
    }

    fn decay_to(&mut self, user: u32, now: i64) -> f64 {
        let (u, last) = &mut self.usage[user as usize];
        if now > *last {
            let dt = (now - *last) as f64;
            // `0.5^x` written as `exp2(-x)`: an optimized build rewrites a
            // `powf` with a power-of-two base into `exp2`, which rounds
            // differently from `pow`, so spelling it out keeps debug and
            // release builds simulating the same trace (here and in
            // `factor`).
            let decayed = *u * (-(dt / self.half_life_secs)).exp2();
            if decayed.to_bits() != u.to_bits() {
                self.total_usage = None;
            }
            *u = decayed;
            *last = now;
        }
        *u
    }

    /// Records `cpu_seconds` of consumption by `user`, decayed to `now`.
    pub fn add_usage(&mut self, user: u32, cpu_seconds: f64, now: i64) {
        self.decay_to(user, now);
        self.usage[user as usize].0 += cpu_seconds;
        self.total_usage = None;
    }

    /// Raw decayed usage of `user` at `now` (cpu-seconds).
    pub fn usage(&mut self, user: u32, now: i64) -> f64 {
        self.decay_to(user, now)
    }

    /// The SLURM fair-share factor `2^(-U_norm / S_norm)` in `(0, 1]`:
    /// 1 for users with no recent usage, approaching 0 for heavy users.
    pub fn factor(&mut self, user: u32, now: i64) -> f64 {
        let u = self.decay_to(user, now);
        let total_usage = *self
            .total_usage
            .get_or_insert_with(|| self.usage.iter().map(|(x, _)| x).sum());
        if total_usage <= 0.0 {
            return 1.0;
        }
        let u_norm = u / total_usage;
        let s_norm = self.shares[user as usize] / self.total_shares;
        (-u_norm / s_norm.max(1e-12)).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;

    #[test]
    fn fresh_users_have_factor_one() {
        let mut fs = FairShareTracker::new(vec![1.0, 1.0], 7.0 * DAY);
        assert_eq!(fs.factor(0, 0), 1.0);
        assert_eq!(fs.factor(1, 1_000), 1.0);
    }

    #[test]
    fn usage_lowers_factor() {
        let mut fs = FairShareTracker::new(vec![1.0, 1.0], 7.0 * DAY);
        fs.add_usage(0, 1_000_000.0, 0);
        let f_heavy = fs.factor(0, 0);
        let f_idle = fs.factor(1, 0);
        assert!(f_heavy < f_idle, "{f_heavy} vs {f_idle}");
        assert!(f_heavy > 0.0);
        assert!((f_idle - 1.0).abs() < 1e-12);
    }

    #[test]
    fn usage_decays_with_half_life() {
        let mut fs = FairShareTracker::new(vec![1.0], 7.0 * DAY);
        fs.add_usage(0, 1_000.0, 0);
        let after_one_half_life = fs.usage(0, (7.0 * DAY) as i64);
        assert!(
            (after_one_half_life - 500.0).abs() < 1.0,
            "{after_one_half_life}"
        );
        let after_two = fs.usage(0, (14.0 * DAY) as i64);
        assert!((after_two - 250.0).abs() < 1.0, "{after_two}");
    }

    #[test]
    fn bigger_share_means_higher_factor_at_equal_usage() {
        let mut fs = FairShareTracker::new(vec![4.0, 1.0], 7.0 * DAY);
        fs.add_usage(0, 500_000.0, 0);
        fs.add_usage(1, 500_000.0, 0);
        assert!(fs.factor(0, 0) > fs.factor(1, 0));
    }

    #[test]
    fn factor_bounded() {
        let mut fs = FairShareTracker::new(vec![1.0, 1.0], 7.0 * DAY);
        fs.add_usage(0, 1e12, 0);
        let f = fs.factor(0, 0);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn cached_total_matches_a_fresh_sum() {
        let mut fs = FairShareTracker::new(vec![1.0, 2.0, 0.5, 3.0, 1.0], 7.0 * DAY);
        let mut rng = trout_linalg::SplitMix64::new(3);
        let mut now = 0i64;
        for step in 0..2_000 {
            now += rng.next_below(3) as i64 * rng.next_below(5_000) as i64;
            let user = rng.next_below(5) as u32;
            if step % 7 == 0 {
                fs.add_usage(user, rng.uniform(0.0, 1e6) as f64, now);
            }
            let got = fs.factor(user, now);
            let total: f64 = fs.usage.iter().map(|(x, _)| x).sum();
            let want = if total <= 0.0 {
                1.0
            } else {
                let s_norm = fs.shares[user as usize] / fs.total_shares;
                (-(fs.usage[user as usize].0 / total) / s_norm.max(1e-12)).exp2()
            };
            assert_eq!(got.to_bits(), want.to_bits(), "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "half life")]
    fn rejects_nonpositive_half_life() {
        let _ = FairShareTracker::new(vec![1.0], 0.0);
    }
}
