//! Runtime-dispatched SIMD kernel tiers.
//!
//! Three implementations of each hot kernel — portable scalar, SSE2 (the
//! x86-64 baseline), and AVX2 — behind one dispatch point. Every tier
//! computes the *same bits*: each output element (or accumulator lane) sees
//! the identical left-to-right chain of IEEE multiply/adds, so widening the
//! vectors never changes a result. That invariant is what lets the rest of
//! the stack (golden fixtures, crash-recovery byte-diffs, sharded replica
//! equality) stay tier-agnostic; it is pinned by this module's unit tests
//! and by running the `nn_seed7` golden fixture under every tier in CI.
//!
//! The active tier is chosen once per process: the best the CPU supports,
//! optionally lowered by the `TROUT_SIMD` environment variable
//! (`scalar`, `sse2` or `avx2`; requests above the hardware's capability
//! clamp down, so `TROUT_SIMD=avx2` on an SSE2-only machine runs SSE2).
//! Tests and benches can pin a tier for the current thread with
//! [`SimdTier::force`], which overrides the process-wide choice.
//!
//! No FMA anywhere: a fused multiply-add rounds once where mul+add rounds
//! twice, which would break bit-identity between tiers.

use std::sync::OnceLock;

/// A SIMD capability tier, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar loops (any architecture).
    Scalar,
    /// 128-bit SSE2 packed ops — the x86-64 baseline.
    Sse2,
    /// 256-bit AVX2 packed ops (runtime-detected).
    Avx2,
}

std::thread_local! {
    static FORCED: core::cell::Cell<Option<SimdTier>> = const { core::cell::Cell::new(None) };
}

impl SimdTier {
    /// The widest tier this CPU supports.
    pub fn best_supported() -> SimdTier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdTier::Avx2
            } else {
                SimdTier::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdTier::Scalar
        }
    }

    /// Parses a `TROUT_SIMD` value. Unknown strings yield `None` (the caller
    /// falls back to auto-detection).
    pub fn parse(s: &str) -> Option<SimdTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "sse2" => Some(SimdTier::Sse2),
            "avx2" => Some(SimdTier::Avx2),
            _ => None,
        }
    }

    /// The process-wide active tier: `TROUT_SIMD` if set and parseable,
    /// clamped to [`SimdTier::best_supported`]; otherwise the best supported.
    /// Computed once and cached.
    pub fn active() -> SimdTier {
        static ACTIVE: OnceLock<SimdTier> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let best = SimdTier::best_supported();
            match std::env::var("TROUT_SIMD")
                .ok()
                .as_deref()
                .map(SimdTier::parse)
            {
                Some(Some(requested)) => requested.min(best),
                _ => best,
            }
        })
    }

    /// The tier the *current thread* dispatches to: a [`SimdTier::force`]
    /// override if one is in effect, else [`SimdTier::active`].
    #[inline]
    pub fn current() -> SimdTier {
        match FORCED.with(|f| f.get()) {
            Some(t) => t,
            None => SimdTier::active(),
        }
    }

    /// Runs `f` with this thread's dispatch pinned to `tier` (clamped to the
    /// hardware's capability), restoring the previous setting afterwards.
    /// For tests and benches that sweep tiers in-process.
    pub fn force<R>(self, f: impl FnOnce() -> R) -> R {
        let tier = self.min(SimdTier::best_supported());
        let prev = FORCED.with(|c| c.replace(Some(tier)));
        struct Restore(Option<SimdTier>);
        impl Drop for Restore {
            fn drop(&mut self) {
                FORCED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// Every tier this CPU can actually run, narrowest first.
    pub fn available() -> Vec<SimdTier> {
        let best = SimdTier::best_supported();
        [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2]
            .into_iter()
            .filter(|&t| t <= best)
            .collect()
    }

    /// Stable lowercase name (matches what `TROUT_SIMD` accepts).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }
}

// ---------------------------------------------------------------------------
// axpy4: out[j] = (((out[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
// ---------------------------------------------------------------------------

/// Fused four-term update, dispatched to the current tier. Bit-identical to
/// four sequential `o += a_l * b_l` passes on every tier: each output element
/// sees the exact same left-to-right chain, and packed ops are IEEE-exact per
/// lane.
#[inline]
pub fn axpy4(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    axpy4_with(SimdTier::current(), out, a, b0, b1, b2, b3);
}

/// [`axpy4`] with an explicit tier (clamped to the hardware's capability) —
/// the hook tier bit-identity tests are built on.
pub fn axpy4_with(
    tier: SimdTier,
    out: &mut [f32],
    a: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out.len();
    debug_assert!(b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n);
    match tier.min(SimdTier::best_supported()) {
        SimdTier::Scalar => axpy4_scalar(out, a, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => axpy4_sse2(out, a, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped above, so AVX2 was runtime-detected.
        SimdTier::Avx2 => unsafe { axpy4_avx2(out, a, b0, b1, b2, b3) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy4_scalar(out, a, b0, b1, b2, b3),
    }
}

fn axpy4_scalar(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = (((*o + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
    }
}

#[cfg(target_arch = "x86_64")]
fn axpy4_sse2(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let chunks = n / 4;
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load/store stays
    // within the first `chunks * 4` elements of the five slices, whose
    // lengths are all `n` (debug-asserted by the dispatcher).
    unsafe {
        let va0 = _mm_set1_ps(a[0]);
        let va1 = _mm_set1_ps(a[1]);
        let va2 = _mm_set1_ps(a[2]);
        let va3 = _mm_set1_ps(a[3]);
        for i in 0..chunks {
            let j = i * 4;
            let mut vo = _mm_loadu_ps(out.as_ptr().add(j));
            vo = _mm_add_ps(vo, _mm_mul_ps(va0, _mm_loadu_ps(b0.as_ptr().add(j))));
            vo = _mm_add_ps(vo, _mm_mul_ps(va1, _mm_loadu_ps(b1.as_ptr().add(j))));
            vo = _mm_add_ps(vo, _mm_mul_ps(va2, _mm_loadu_ps(b2.as_ptr().add(j))));
            vo = _mm_add_ps(vo, _mm_mul_ps(va3, _mm_loadu_ps(b3.as_ptr().add(j))));
            _mm_storeu_ps(out.as_mut_ptr().add(j), vo);
        }
    }
    for j in chunks * 4..n {
        out[j] = (((out[j] + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
    }
}

/// AVX2 variant: identical per-element chains at 8 lanes per op. No FMA —
/// separate mul then add, same as the scalar expression.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy4_avx2(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let chunks = n / 8;
    // SAFETY: caller detected AVX2; every load/store stays within the first
    // `chunks * 8` elements of the five slices, whose lengths are all `n`.
    unsafe {
        let va0 = _mm256_set1_ps(a[0]);
        let va1 = _mm256_set1_ps(a[1]);
        let va2 = _mm256_set1_ps(a[2]);
        let va3 = _mm256_set1_ps(a[3]);
        for i in 0..chunks {
            let j = i * 8;
            let mut vo = _mm256_loadu_ps(out.as_ptr().add(j));
            vo = _mm256_add_ps(vo, _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j))));
            vo = _mm256_add_ps(vo, _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j))));
            vo = _mm256_add_ps(vo, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j))));
            vo = _mm256_add_ps(vo, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j))));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), vo);
        }
    }
    for j in chunks * 8..n {
        out[j] = (((out[j] + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
    }
}

// ---------------------------------------------------------------------------
// axpy8: the eight-term fused update
// ---------------------------------------------------------------------------

/// Fused eight-term update, dispatched to the current tier. Bit-identical to
/// eight sequential `o += a_l * b_l` passes (and hence to two [`axpy4`]
/// passes over the same block) on every tier.
#[inline]
pub fn axpy8(out: &mut [f32], a: [f32; 8], b: [&[f32]; 8]) {
    axpy8_with(SimdTier::current(), out, a, b);
}

/// [`axpy8`] with an explicit tier (clamped to the hardware's capability).
pub fn axpy8_with(tier: SimdTier, out: &mut [f32], a: [f32; 8], b: [&[f32]; 8]) {
    let n = out.len();
    debug_assert!(b.iter().all(|s| s.len() == n));
    match tier.min(SimdTier::best_supported()) {
        SimdTier::Scalar => axpy8_scalar(out, a, b),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => axpy8_sse2(out, a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped above, so AVX2 was runtime-detected.
        SimdTier::Avx2 => unsafe { axpy8_avx2(out, a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy8_scalar(out, a, b),
    }
}

fn axpy8_scalar(out: &mut [f32], a: [f32; 8], b: [&[f32]; 8]) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut v = *o;
        for l in 0..8 {
            v += a[l] * b[l][j];
        }
        *o = v;
    }
}

#[cfg(target_arch = "x86_64")]
fn axpy8_sse2(out: &mut [f32], a: [f32; 8], b: [&[f32]; 8]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let chunks = n / 4;
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load/store stays
    // within the first `chunks * 4` elements of the nine slices, whose
    // lengths are all `n` (debug-asserted by the dispatcher).
    unsafe {
        let va: [_; 8] = [
            _mm_set1_ps(a[0]),
            _mm_set1_ps(a[1]),
            _mm_set1_ps(a[2]),
            _mm_set1_ps(a[3]),
            _mm_set1_ps(a[4]),
            _mm_set1_ps(a[5]),
            _mm_set1_ps(a[6]),
            _mm_set1_ps(a[7]),
        ];
        for i in 0..chunks {
            let j = i * 4;
            let mut vo = _mm_loadu_ps(out.as_ptr().add(j));
            for l in 0..8 {
                vo = _mm_add_ps(vo, _mm_mul_ps(va[l], _mm_loadu_ps(b[l].as_ptr().add(j))));
            }
            _mm_storeu_ps(out.as_mut_ptr().add(j), vo);
        }
    }
    for j in chunks * 4..n {
        let mut o = out[j];
        for l in 0..8 {
            o += a[l] * b[l][j];
        }
        out[j] = o;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy8_avx2(out: &mut [f32], a: [f32; 8], b: [&[f32]; 8]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let chunks = n / 8;
    // SAFETY: caller detected AVX2; every load/store stays within the first
    // `chunks * 8` elements of the nine slices, whose lengths are all `n`.
    unsafe {
        let va: [_; 8] = [
            _mm256_set1_ps(a[0]),
            _mm256_set1_ps(a[1]),
            _mm256_set1_ps(a[2]),
            _mm256_set1_ps(a[3]),
            _mm256_set1_ps(a[4]),
            _mm256_set1_ps(a[5]),
            _mm256_set1_ps(a[6]),
            _mm256_set1_ps(a[7]),
        ];
        for i in 0..chunks {
            let j = i * 8;
            let mut vo = _mm256_loadu_ps(out.as_ptr().add(j));
            for l in 0..8 {
                vo = _mm256_add_ps(
                    vo,
                    _mm256_mul_ps(va[l], _mm256_loadu_ps(b[l].as_ptr().add(j))),
                );
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(j), vo);
        }
    }
    for j in chunks * 8..n {
        let mut o = out[j];
        for l in 0..8 {
            o += a[l] * b[l][j];
        }
        out[j] = o;
    }
}

// ---------------------------------------------------------------------------
// dot4: four dot products sharing one pass over `a`
// ---------------------------------------------------------------------------

/// Four dot products sharing one pass over `a`, dispatched to the current
/// tier. Bit-identical on every tier to four `crate::ops::dot` calls: each
/// result accumulates into four lanes over 4-element chunks in ascending
/// order, reduces left-to-right, then adds the scalar tail.
#[inline]
pub fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> (f32, f32, f32, f32) {
    dot4_with(SimdTier::current(), a, b0, b1, b2, b3)
}

/// [`dot4`] with an explicit tier (clamped to the hardware's capability).
pub fn dot4_with(
    tier: SimdTier,
    a: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> (f32, f32, f32, f32) {
    let k = a.len();
    debug_assert!(b0.len() == k && b1.len() == k && b2.len() == k && b3.len() == k);
    match tier.min(SimdTier::best_supported()) {
        SimdTier::Scalar => dot4_scalar(a, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => dot4_sse2(a, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped above, so AVX2 was runtime-detected.
        SimdTier::Avx2 => unsafe { dot4_avx2(a, b0, b1, b2, b3) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dot4_scalar(a, b0, b1, b2, b3),
    }
}

fn dot4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> (f32, f32, f32, f32) {
    let k = a.len();
    let chunks = k / 4;
    let mut acc0 = [0.0f32; 4];
    let mut acc1 = [0.0f32; 4];
    let mut acc2 = [0.0f32; 4];
    let mut acc3 = [0.0f32; 4];
    for i in 0..chunks {
        let j = i * 4;
        for l in 0..4 {
            acc0[l] += a[j + l] * b0[j + l];
            acc1[l] += a[j + l] * b1[j + l];
            acc2[l] += a[j + l] * b2[j + l];
            acc3[l] += a[j + l] * b3[j + l];
        }
    }
    let mut s0 = ((acc0[0] + acc0[1]) + acc0[2]) + acc0[3];
    let mut s1 = ((acc1[0] + acc1[1]) + acc1[2]) + acc1[3];
    let mut s2 = ((acc2[0] + acc2[1]) + acc2[2]) + acc2[3];
    let mut s3 = ((acc3[0] + acc3[1]) + acc3[2]) + acc3[3];
    for j in chunks * 4..k {
        s0 += a[j] * b0[j];
        s1 += a[j] * b1[j];
        s2 += a[j] * b2[j];
        s3 += a[j] * b3[j];
    }
    (s0, s1, s2, s3)
}

#[cfg(target_arch = "x86_64")]
fn dot4_sse2(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> (f32, f32, f32, f32) {
    use core::arch::x86_64::*;
    let k = a.len();
    let chunks = k / 4;
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load stays
    // within the first `chunks * 4` elements of the five slices, whose
    // lengths are all `k` (debug-asserted by the dispatcher).
    let (mut s0, mut s1, mut s2, mut s3) = unsafe {
        let mut acc0 = _mm_setzero_ps();
        let mut acc1 = _mm_setzero_ps();
        let mut acc2 = _mm_setzero_ps();
        let mut acc3 = _mm_setzero_ps();
        for i in 0..chunks {
            let j = i * 4;
            let va = _mm_loadu_ps(a.as_ptr().add(j));
            acc0 = _mm_add_ps(acc0, _mm_mul_ps(va, _mm_loadu_ps(b0.as_ptr().add(j))));
            acc1 = _mm_add_ps(acc1, _mm_mul_ps(va, _mm_loadu_ps(b1.as_ptr().add(j))));
            acc2 = _mm_add_ps(acc2, _mm_mul_ps(va, _mm_loadu_ps(b2.as_ptr().add(j))));
            acc3 = _mm_add_ps(acc3, _mm_mul_ps(va, _mm_loadu_ps(b3.as_ptr().add(j))));
        }
        let mut lanes = [[0.0f32; 4]; 4];
        _mm_storeu_ps(lanes[0].as_mut_ptr(), acc0);
        _mm_storeu_ps(lanes[1].as_mut_ptr(), acc1);
        _mm_storeu_ps(lanes[2].as_mut_ptr(), acc2);
        _mm_storeu_ps(lanes[3].as_mut_ptr(), acc3);
        (
            ((lanes[0][0] + lanes[0][1]) + lanes[0][2]) + lanes[0][3],
            ((lanes[1][0] + lanes[1][1]) + lanes[1][2]) + lanes[1][3],
            ((lanes[2][0] + lanes[2][1]) + lanes[2][2]) + lanes[2][3],
            ((lanes[3][0] + lanes[3][1]) + lanes[3][2]) + lanes[3][3],
        )
    };
    for j in chunks * 4..k {
        s0 += a[j] * b0[j];
        s1 += a[j] * b1[j];
        s2 += a[j] * b2[j];
        s3 += a[j] * b3[j];
    }
    (s0, s1, s2, s3)
}

/// AVX2 variant. Bit-identity with the SSE2/scalar form hinges on keeping the
/// exact 4-lane accumulator pattern: widening to a 256-bit accumulator per
/// column would fold the chunk sequence differently. Instead, each 256-bit
/// register pairs *two columns'* 4-lane accumulators (low half = column A,
/// high half = column B) and broadcasts the `a` chunk to both halves — every
/// 128-bit lane group performs exactly the SSE2 per-chunk `add(acc, mul)`,
/// so the lanes, the reduction and the tail are all unchanged, while the FP
/// op count halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot4_avx2(
    a: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> (f32, f32, f32, f32) {
    use core::arch::x86_64::*;
    let k = a.len();
    let chunks = k / 4;
    // SAFETY: caller detected AVX2; every load stays within the first
    // `chunks * 4` elements of the five slices, whose lengths are all `k`.
    let (mut s0, mut s1, mut s2, mut s3) = unsafe {
        let mut acc01 = _mm256_setzero_ps();
        let mut acc23 = _mm256_setzero_ps();
        for i in 0..chunks {
            let j = i * 4;
            let va = _mm_loadu_ps(a.as_ptr().add(j));
            let vaa = _mm256_set_m128(va, va);
            let vb01 = _mm256_set_m128(
                _mm_loadu_ps(b1.as_ptr().add(j)),
                _mm_loadu_ps(b0.as_ptr().add(j)),
            );
            let vb23 = _mm256_set_m128(
                _mm_loadu_ps(b3.as_ptr().add(j)),
                _mm_loadu_ps(b2.as_ptr().add(j)),
            );
            acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(vaa, vb01));
            acc23 = _mm256_add_ps(acc23, _mm256_mul_ps(vaa, vb23));
        }
        let mut lanes01 = [0.0f32; 8];
        let mut lanes23 = [0.0f32; 8];
        _mm256_storeu_ps(lanes01.as_mut_ptr(), acc01);
        _mm256_storeu_ps(lanes23.as_mut_ptr(), acc23);
        (
            ((lanes01[0] + lanes01[1]) + lanes01[2]) + lanes01[3],
            ((lanes01[4] + lanes01[5]) + lanes01[6]) + lanes01[7],
            ((lanes23[0] + lanes23[1]) + lanes23[2]) + lanes23[3],
            ((lanes23[4] + lanes23[5]) + lanes23[6]) + lanes23[7],
        )
    };
    for j in chunks * 4..k {
        s0 += a[j] * b0[j];
        s1 += a[j] * b1[j];
        s2 += a[j] * b2[j];
        s3 += a[j] * b3[j];
    }
    (s0, s1, s2, s3)
}

// ---------------------------------------------------------------------------
// Register tiles for the training products (AVX2)
// ---------------------------------------------------------------------------

/// Output rows per register tile of [`gemm_rows`]: six rows × 16 columns
/// is twelve `__m256` accumulators, plus two `b` vectors and a broadcast.
pub(crate) const GEMM_TILE_ROWS: usize = 6;

/// Output rows per register tile of [`gemm_bt_rows`].
pub(crate) const GEMM_BT_TILE_ROWS: usize = 4;

/// Whether `tier` (clamped to the hardware) has the register-tiled product
/// kernels [`gemm_rows`] and [`gemm_bt_rows`]. Only AVX2 does; narrower
/// tiers keep the row-at-a-time kernels, which compute the same bits.
pub(crate) fn tiled(tier: SimdTier) -> bool {
    tier.min(SimdTier::best_supported()) == SimdTier::Avx2
}

/// `out = A · B` over `rows = out.len() / n` output rows, where A's element
/// `(r, kk)` is `a[r·rs + kk·ks]` (a row-major left operand has `rs = k,
/// ks = 1`; a transposed one `rs = 1, ks = m`) and `b` is row-major `k × n`.
///
/// Each register tile holds [`GEMM_TILE_ROWS`] output rows × 16 columns for
/// the whole shared dimension, then one 8-column vector and one masked
/// vector take the last columns, and the last `rows % 6` rows run the same
/// kernel with fewer rows. Every output element starts at `+0.0` and takes
/// `acc = acc + a·b` for `kk` ascending, a multiply then an add: the chain
/// a zero-filled row updated by [`axpy8`]/[`axpy4`] passes sees, so the bits
/// equal the row-at-a-time kernels whenever those take every term.
///
/// # Panics
///
/// Panics unless [`tiled`]`(tier)`, `n > 0`, `out.len()` is a multiple of
/// `n`, `b` holds `k × n` values and every `(r, kk)` index lies in `a`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    tier: SimdTier,
    a: &[f32],
    rs: usize,
    ks: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(tiled(tier), "gemm_rows needs the AVX2 tier");
    assert!(
        n > 0 && out.len().is_multiple_of(n),
        "gemm_rows output shape"
    );
    let rows = out.len() / n;
    assert!(b.len() >= k * n, "gemm_rows right operand too short");
    assert!(
        rows == 0 || k == 0 || (rows - 1) * rs + (k - 1) * ks < a.len(),
        "gemm_rows left operand too short"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `tiled` clamps to the detected tier, so AVX2 is present; the
    // asserts above bound every index the kernel reads and writes.
    unsafe {
        gemm_rows_avx2(a.as_ptr(), rs, ks, k, b.as_ptr(), n, out.as_mut_ptr(), rows)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows_avx2(
    a: *const f32,
    rs: usize,
    ks: usize,
    k: usize,
    b: *const f32,
    n: usize,
    out: *mut f32,
    rows: usize,
) {
    // SAFETY (all calls): row group `r` reads `a` rows `r..r + R` and writes
    // `out` rows `r..r + R`, inside the bounds the caller checked.
    unsafe {
        let mut r = 0;
        while r + GEMM_TILE_ROWS <= rows {
            gemm_group::<GEMM_TILE_ROWS>(a.add(r * rs), rs, ks, k, b, n, out.add(r * n));
            r += GEMM_TILE_ROWS;
        }
        let (a, out) = (a.add(r * rs), out.add(r * n));
        match rows - r {
            1 => gemm_group::<1>(a, rs, ks, k, b, n, out),
            2 => gemm_group::<2>(a, rs, ks, k, b, n, out),
            3 => gemm_group::<3>(a, rs, ks, k, b, n, out),
            4 => gemm_group::<4>(a, rs, ks, k, b, n, out),
            5 => gemm_group::<5>(a, rs, ks, k, b, n, out),
            _ => {}
        }
    }
}

/// `R` output rows across all `n` columns: 16-column tiles, then an
/// 8-column one, then a masked one for the last `n % 8` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_group<const R: usize>(
    a: *const f32,
    rs: usize,
    ks: usize,
    k: usize,
    b: *const f32,
    n: usize,
    out: *mut f32,
) {
    use core::arch::x86_64::*;
    // SAFETY: every column tile stays below `n`; the masked tile reads and
    // writes only the lanes below `n - j`.
    unsafe {
        let mut j = 0;
        while j + 16 <= n {
            gemm_tile::<R, 2, false>(
                a,
                rs,
                ks,
                k,
                b.add(j),
                n,
                out.add(j),
                _mm256_setzero_si256(),
            );
            j += 16;
        }
        if j + 8 <= n {
            gemm_tile::<R, 1, false>(
                a,
                rs,
                ks,
                k,
                b.add(j),
                n,
                out.add(j),
                _mm256_setzero_si256(),
            );
            j += 8;
        }
        if j < n {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j) as i32), lanes);
            gemm_tile::<R, 1, true>(a, rs, ks, k, b.add(j), n, out.add(j), mask);
        }
    }
}

/// One `R × 8V` register tile over the whole shared dimension: per step,
/// `V` loads of `b`, one broadcast of `a` per row, `R·V` multiplies and
/// adds. `MASKED` loads and stores only the lanes `mask` selects.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile<const R: usize, const V: usize, const MASKED: bool>(
    a: *const f32,
    rs: usize,
    ks: usize,
    k: usize,
    b: *const f32,
    n: usize,
    out: *mut f32,
    mask: core::arch::x86_64::__m256i,
) {
    use core::arch::x86_64::*;
    // SAFETY: the caller bounds rows `0..R` of `a`/`out`, steps `0..k` of
    // `b`, and the `8V` columns (or the masked lanes) from `b`/`out`.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for kk in 0..k {
            let bp = b.add(kk * n);
            let vb: [__m256; V] = core::array::from_fn(|v| {
                if MASKED {
                    _mm256_maskload_ps(bp, mask)
                } else {
                    _mm256_loadu_ps(bp.add(8 * v))
                }
            });
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a.add(r * rs + kk * ks));
                for (acc_rv, &vb_v) in acc_r.iter_mut().zip(&vb) {
                    *acc_rv = _mm256_add_ps(*acc_rv, _mm256_mul_ps(va, vb_v));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                let op = out.add(r * n + 8 * v);
                if MASKED {
                    _mm256_maskstore_ps(op, mask, acc_rv);
                } else {
                    _mm256_storeu_ps(op, acc_rv);
                }
            }
        }
    }
}

/// `out = A · Bᵀ` over `rows = out.len() / n` output rows, for row-major
/// `a` (rows of width `k`) and `b` (`n` rows of width `k`): every element is
/// bit-identical to [`crate::ops::dot`] of its `a` and `b` rows.
///
/// Each tile shares one pass over a `b` chunk between
/// [`GEMM_BT_TILE_ROWS`] rows of `a`, four columns at a time (the last
/// `n % 4` columns as one narrower tile). As in [`dot4`]'s AVX2 form, each
/// 128-bit half of an accumulator performs exactly `dot`'s four-lane
/// per-chunk `add(acc, mul)` — here the halves are two rows of `a` against
/// one broadcast `b` chunk — so every element's four lanes, their
/// left-to-right reduction and its tail steps are `dot`'s. The last
/// `rows % 4` rows run [`dot4`]'s AVX2 form and `dot`.
///
/// # Panics
///
/// Panics unless [`tiled`]`(tier)`, `n > 0`, `out.len()` is a multiple of
/// `n`, and `a`/`b` hold `rows × k`/`n × k` values.
pub(crate) fn gemm_bt_rows(
    tier: SimdTier,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(tiled(tier), "gemm_bt_rows needs the AVX2 tier");
    assert!(
        n > 0 && out.len().is_multiple_of(n),
        "gemm_bt_rows output shape"
    );
    let rows = out.len() / n;
    assert!(
        a.len() >= rows * k && b.len() >= n * k,
        "gemm_bt_rows operands too short"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `tiled` clamps to the detected tier, so AVX2 is present.
    unsafe {
        gemm_bt_rows_avx2(a, k, b, n, out)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_bt_rows_avx2(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    const R: usize = GEMM_BT_TILE_ROWS;
    let rows = out.len() / n;
    let full = rows / R * R;
    // SAFETY: tile `(r, c)` reads rows `r..r + 4` of `a` and `c..c + NC` of
    // `b` and writes the matching `out` cells, all inside the lengths the
    // caller checked.
    unsafe {
        for r in (0..full).step_by(R) {
            let (ap, op) = (a.as_ptr().add(r * k), out.as_mut_ptr().add(r * n));
            let mut c = 0;
            while c + 4 <= n {
                gemm_bt_tile::<4>(ap, k, b.as_ptr().add(c * k), n, op.add(c));
                c += 4;
            }
            let (bp, op) = (b.as_ptr().add(c * k), op.add(c));
            match n - c {
                1 => gemm_bt_tile::<1>(ap, k, bp, n, op),
                2 => gemm_bt_tile::<2>(ap, k, bp, n, op),
                3 => gemm_bt_tile::<3>(ap, k, bp, n, op),
                _ => {}
            }
        }
    }
    for r in full..rows {
        let a_row = &a[r * k..(r + 1) * k];
        let out_row = &mut out[r * n..(r + 1) * n];
        let mut c = 0;
        while c + 4 <= n {
            let bs: [&[f32]; 4] = core::array::from_fn(|l| &b[(c + l) * k..(c + l + 1) * k]);
            // SAFETY: AVX2 is enabled on this function.
            let s = unsafe { dot4_avx2(a_row, bs[0], bs[1], bs[2], bs[3]) };
            out_row[c..c + 4].copy_from_slice(&[s.0, s.1, s.2, s.3]);
            c += 4;
        }
        for cc in c..n {
            out_row[cc] = crate::ops::dot(a_row, &b[cc * k..(cc + 1) * k]);
        }
    }
}

/// A 4-row × `NC`-column tile of [`gemm_bt_rows`] (`NC <= 4`). Accumulator
/// `acc[c][p]` holds rows `2p` (low half) and `2p + 1` (high half) against
/// column `c`. The finish transposes each half's 4 × 4 block of lanes so one
/// vector add per lane index performs every element's `((l0 + l1) + l2) + l3`
/// reduction, then adds the `k % 4` tail terms one step at a time — `dot`'s
/// order, four columns per 128-bit half.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gemm_bt_tile<const NC: usize>(
    a: *const f32,
    k: usize,
    b: *const f32,
    n: usize,
    out: *mut f32,
) {
    use core::arch::x86_64::*;
    let chunks = k / 4;
    // SAFETY: the caller bounds rows `0..4` of `a` (width `k`), rows
    // `0..NC` of `b` (width `k`) and the 4 × NC cells of `out`; lanes for
    // columns `NC..4` are zero and never stored.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        for i in 0..chunks {
            let j = i * 4;
            let a01 = _mm256_set_m128(_mm_loadu_ps(a.add(k + j)), _mm_loadu_ps(a.add(j)));
            let a23 = _mm256_set_m128(
                _mm_loadu_ps(a.add(3 * k + j)),
                _mm_loadu_ps(a.add(2 * k + j)),
            );
            for (c, acc_c) in acc.iter_mut().enumerate().take(NC) {
                let vb = _mm256_broadcast_ps(&_mm_loadu_ps(b.add(c * k + j)));
                acc_c[0] = _mm256_add_ps(acc_c[0], _mm256_mul_ps(a01, vb));
                acc_c[1] = _mm256_add_ps(acc_c[1], _mm256_mul_ps(a23, vb));
            }
        }
        let mut sums = [_mm256_setzero_ps(); 2];
        for (p, sum) in sums.iter_mut().enumerate() {
            let t0 = _mm256_unpacklo_ps(acc[0][p], acc[1][p]);
            let t1 = _mm256_unpacklo_ps(acc[2][p], acc[3][p]);
            let t2 = _mm256_unpackhi_ps(acc[0][p], acc[1][p]);
            let t3 = _mm256_unpackhi_ps(acc[2][p], acc[3][p]);
            let l0 = _mm256_shuffle_ps::<0x44>(t0, t1);
            let l1 = _mm256_shuffle_ps::<0xEE>(t0, t1);
            let l2 = _mm256_shuffle_ps::<0x44>(t2, t3);
            let l3 = _mm256_shuffle_ps::<0xEE>(t2, t3);
            *sum = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(l0, l1), l2), l3);
        }
        for jj in chunks * 4..k {
            let bj: [f32; 4] =
                core::array::from_fn(|c| if c < NC { *b.add(c * k + jj) } else { 0.0 });
            let vb = _mm256_broadcast_ps(&_mm_loadu_ps(bj.as_ptr()));
            for (p, sum) in sums.iter_mut().enumerate() {
                let va = _mm256_set_m128(
                    _mm_set1_ps(*a.add((2 * p + 1) * k + jj)),
                    _mm_set1_ps(*a.add(2 * p * k + jj)),
                );
                *sum = _mm256_add_ps(*sum, _mm256_mul_ps(va, vb));
            }
        }
        for (p, &sum) in sums.iter().enumerate() {
            let halves = [_mm256_castps256_ps128(sum), _mm256_extractf128_ps::<1>(sum)];
            for (h, half) in halves.into_iter().enumerate() {
                let op = out.add((2 * p + h) * n);
                if NC == 4 {
                    _mm_storeu_ps(op, half);
                } else {
                    let mut lanes = [0.0f32; 4];
                    _mm_storeu_ps(lanes.as_mut_ptr(), half);
                    core::ptr::copy_nonoverlapping(lanes.as_ptr(), op, NC);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(k: usize, salt: u32) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let gen = |m: u32, off: f32| -> Vec<f32> {
            (0..k)
                .map(|i| ((i as u32).wrapping_mul(m).wrapping_add(salt) % 97) as f32 * 0.173 - off)
                .collect()
        };
        (
            gen(31, 7.9),
            gen(17, 3.1),
            gen(23, 5.7),
            gen(29, 2.3),
            gen(13, 8.1),
        )
    }

    #[test]
    fn tier_order_and_names() {
        assert!(SimdTier::Scalar < SimdTier::Sse2 && SimdTier::Sse2 < SimdTier::Avx2);
        assert_eq!(SimdTier::parse("AVX2"), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::parse(" sse2 "), Some(SimdTier::Sse2));
        assert_eq!(SimdTier::parse("neon"), None);
        for t in SimdTier::available() {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
        }
        assert_eq!(SimdTier::available().first(), Some(&SimdTier::Scalar));
    }

    #[test]
    fn force_is_scoped_and_clamped() {
        let outside = SimdTier::current();
        SimdTier::Scalar.force(|| {
            assert_eq!(SimdTier::current(), SimdTier::Scalar);
            // Nested overrides stack.
            SimdTier::Avx2.force(|| {
                assert_eq!(
                    SimdTier::current(),
                    SimdTier::Avx2.min(SimdTier::best_supported())
                );
            });
            assert_eq!(SimdTier::current(), SimdTier::Scalar);
        });
        assert_eq!(SimdTier::current(), outside);
    }

    #[test]
    fn dot4_bit_identical_across_tiers() {
        // Cover a 4-wide tail (k % 4 != 0) and the empty input.
        for k in [0usize, 1, 3, 4, 7, 16, 33, 257] {
            let (a, b0, b1, b2, b3) = vecs(k, 11);
            let want = dot4_scalar(&a, &b0, &b1, &b2, &b3);
            for tier in SimdTier::available() {
                let got = dot4_with(tier, &a, &b0, &b1, &b2, &b3);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "k={k} {tier:?}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "k={k} {tier:?}");
                assert_eq!(got.2.to_bits(), want.2.to_bits(), "k={k} {tier:?}");
                assert_eq!(got.3.to_bits(), want.3.to_bits(), "k={k} {tier:?}");
            }
        }
    }

    #[test]
    fn axpy4_bit_identical_across_tiers() {
        for n in [0usize, 1, 3, 5, 8, 9, 31, 128] {
            let (init, b0, b1, b2, b3) = vecs(n, 29);
            let a = [0.37f32, -1.91, 2.53, -0.11];
            let mut want = init.clone();
            axpy4_scalar(&mut want, a, &b0, &b1, &b2, &b3);
            for tier in SimdTier::available() {
                let mut got = init.clone();
                axpy4_with(tier, &mut got, a, &b0, &b1, &b2, &b3);
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} j={j} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn axpy8_bit_identical_across_tiers() {
        for n in [0usize, 2, 7, 8, 15, 64, 113] {
            let (init, b0, b1, b2, b3) = vecs(n, 43);
            let (b4, b5, b6, b7, _) = vecs(n, 71);
            let b: [&[f32]; 8] = [&b0, &b1, &b2, &b3, &b4, &b5, &b6, &b7];
            let a = [0.7f32, -0.3, 1.9, -2.2, 0.05, 3.1, -1.4, 0.6];
            let mut want = init.clone();
            axpy8_scalar(&mut want, a, b);
            for tier in SimdTier::available() {
                let mut got = init.clone();
                axpy8_with(tier, &mut got, a, b);
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} j={j} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn dot4_matches_ops_dot_on_every_tier() {
        let (a, b0, b1, b2, b3) = vecs(53, 5);
        let want = (
            crate::ops::dot(&a, &b0),
            crate::ops::dot(&a, &b1),
            crate::ops::dot(&a, &b2),
            crate::ops::dot(&a, &b3),
        );
        for tier in SimdTier::available() {
            let got = dot4_with(tier, &a, &b0, &b1, &b2, &b3);
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{tier:?}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{tier:?}");
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "{tier:?}");
            assert_eq!(got.3.to_bits(), want.3.to_bits(), "{tier:?}");
        }
    }
}
