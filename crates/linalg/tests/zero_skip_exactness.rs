//! The fused matmul blocks must compute exactly the chain that skips zero
//! coefficients.
//!
//! `matmul_into` and `matmul_at_into` run dropout-zero blocks through the
//! fused SIMD pass when the right operand is finite, and fall back to the
//! per-step skip otherwise. Either way every output element must carry the
//! bits of a naive loop that walks the shared dimension in ascending order
//! and skips each `a == 0.0` term (`-0.0` included). The property draws row
//! counts on both sides of the 128-row gate, left operands with about 30%
//! zeros (half of them `-0.0`), and right operands with and without
//! `±inf`/NaN, and checks every SIMD tier at `TROUT_THREADS=1` and `4`.
//!
//! One test in this binary: it sets `TROUT_THREADS`, which no concurrently
//! running test may read.

use trout_linalg::{Matrix, SimdTier, SplitMix64};
use trout_std::{prop_assert, proptest_lite};

/// `rows x cols` with about 30% zeros, half of them `-0.0`.
fn sparse_left(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| match rng.next_below(20) {
        0..=2 => 0.0,
        3..=5 => -0.0,
        _ => rng.uniform(-3.0, 3.0),
    })
}

/// `rows x cols`, finite unless `nonfinite`, then about 3% `±inf`/NaN.
fn right(rng: &mut SplitMix64, rows: usize, cols: usize, nonfinite: bool) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| match rng.next_below(100) {
        0 if nonfinite => f32::INFINITY,
        1 if nonfinite => f32::NEG_INFINITY,
        2 if nonfinite => f32::NAN,
        3..=7 => 0.0,
        _ => rng.uniform(-3.0, 3.0),
    })
}

/// `a · b`, one ascending chain per element, skipping `a == 0.0` terms.
fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..a.cols() {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            acc += av * b.get(kk, j);
        }
        acc
    })
}

/// Bit equality, with every NaN equal to every other: NaN payloads follow
/// operand order, which no kernel promises. A skipped `0 · inf` shows up as
/// a finite value against NaN, so the comparison still catches it.
fn same_bits(got: &Matrix, want: &Matrix) -> bool {
    (got.rows(), got.cols()) == (want.rows(), want.cols())
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest_lite! {
    #[cases(48)]
    fn fused_blocks_equal_the_zero_skipping_chain(
        rows in 1usize..260,
        inner in 1usize..40,
        cols in 1usize..24,
        seed in 0u64..1_000_000,
        nonfinite in 0u8..2
    ) {
        let nonfinite = nonfinite == 1;
        let mut rng = SplitMix64::new(seed);
        // matmul: (rows x inner) · (inner x cols).
        let a = sparse_left(&mut rng, rows, inner);
        let b = right(&mut rng, inner, cols, nonfinite);
        // matmul_at: (rows x inner)ᵀ · (rows x cols).
        let dy = right(&mut rng, rows, cols, nonfinite);
        let want = naive(&a, &b);
        let want_at = naive(&a.transpose(), &dy);
        for threads in ["1", "4"] {
            std::env::set_var("TROUT_THREADS", threads);
            for tier in SimdTier::available() {
                let (mut got, mut got_at) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                tier.force(|| {
                    a.matmul_into(&b, &mut got);
                    a.matmul_at_into(&dy, &mut got_at);
                });
                prop_assert!(same_bits(&got, &want), "matmul_into, {tier:?}, {threads} threads");
                prop_assert!(
                    same_bits(&got_at, &want_at),
                    "matmul_at_into, {tier:?}, {threads} threads"
                );
            }
        }
        std::env::remove_var("TROUT_THREADS");
    }
}
