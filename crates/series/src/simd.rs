//! Runtime-dispatched vector kernels for the query and build hot paths.
//!
//! The exact search (SIMS, paper Algorithm 5) spends nearly all of its CPU
//! time in two loops — MINDIST over every in-memory key and early-abandoning
//! Euclidean distance on the survivors — and the build path spends its CPU
//! in summarization (z-normalize + PAA). This module provides the shared
//! kernels behind all of them in two implementations:
//!
//! * **scalar** — portable Rust, no `unsafe`;
//! * **avx2** — `std::arch` x86_64 intrinsics, compiled into every binary
//!   and selected at runtime via `is_x86_feature_detected!` (no special
//!   `RUSTFLAGS` needed).
//!
//! Selection happens once per process through a function-pointer table
//! ([`kernels`]); setting `COCONUT_FORCE_SCALAR=1` in the environment pins
//! the scalar path (the escape hatch CI uses to keep both paths green, and
//! the knob for A/B benchmarks). Tests can also bypass the cached choice
//! with [`kernels_for`].
//!
//! # Bit-identical mirroring
//!
//! The scalar implementations are *not* the naive sequential loops: they
//! mirror the AVX2 lane structure exactly — eight independent `f64`
//! accumulators over the 8-aligned prefix (lane `l` sees elements `i` with
//! `i % 8 == l`), a fixed reduction tree `((a0+a4)+(a2+a6)) +
//! ((a1+a5)+(a3+a7))`, and a separate scalar accumulator for the tail —
//! so both paths perform the same floating-point operations in the same
//! order and return **bit-identical** results. That is what lets the
//! property suite assert `SIMD == scalar` bit for bit (`to_bits` equal) on
//! every kernel and the end-to-end test assert identical query answers
//! under either dispatch.

use crate::Value;
use std::sync::OnceLock;

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable scalar implementations (mirroring the vector lane order).
    Scalar,
    /// AVX2 `std::arch` implementations (x86_64 only).
    Avx2,
}

impl Dispatch {
    /// Human-readable name (used by benches and the `repro` baseline).
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
        }
    }
}

/// The best implementation this CPU supports, ignoring the environment.
pub fn detect() -> Dispatch {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Dispatch::Avx2;
        }
    }
    Dispatch::Scalar
}

/// Whether `COCONUT_FORCE_SCALAR=1` is set (read once per process).
pub fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("COCONUT_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// The dispatch the process runs on: [`detect`], unless
/// `COCONUT_FORCE_SCALAR=1` pins the scalar path. Cached after first use.
pub fn active() -> Dispatch {
    static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if force_scalar() {
            Dispatch::Scalar
        } else {
            detect()
        }
    })
}

/// The function-pointer table the hot paths call through. One static table
/// per implementation; `kernels()` picks one at startup.
pub struct Kernels {
    /// Which implementation this table is.
    pub dispatch: Dispatch,
    /// Squared Euclidean distance between equal-length slices.
    pub euclidean_sq: fn(&[Value], &[Value]) -> f64,
    /// Early-abandoning squared Euclidean distance: `None` once the running
    /// sum exceeds the cutoff at a block boundary.
    pub euclidean_sq_early_abandon: fn(&[Value], &[Value], f64) -> Option<f64>,
    /// Sum of a slice in `f64`.
    pub sum: fn(&[Value]) -> f64,
    /// Fused single-pass `(Σ(v−shift), Σ(v−shift)²)` in `f64` — one read of
    /// the data for mean *and* variance. Callers pass a shift inside the
    /// data range (the first element): the shifted-moment identity
    /// `Var = Σd²/n − (Σd/n)²` with `d = v − shift` is then free of the
    /// catastrophic cancellation the unshifted form suffers when the mean
    /// is large relative to the spread.
    pub sum_sumsq: fn(&[Value], f64) -> (f64, f64),
    /// In-place `v ← (v − mean) · inv_std` (the z-normalize second half).
    pub normalize_affine: fn(&mut [Value], f64, f64),
    /// PAA segment sums: `out[j] = Σ series[j*seg .. (j+1)*seg]` for
    /// equal-length segments (`series.len() == out.len() * seg`).
    pub segment_sums: fn(&[Value], usize, &mut [f64]),
}

static SCALAR_KERNELS: Kernels = Kernels {
    dispatch: Dispatch::Scalar,
    euclidean_sq: scalar::euclidean_sq,
    euclidean_sq_early_abandon: scalar::euclidean_sq_early_abandon,
    sum: scalar::sum,
    sum_sumsq: scalar::sum_sumsq,
    normalize_affine: scalar::normalize_affine,
    segment_sums: scalar::segment_sums,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    dispatch: Dispatch::Avx2,
    euclidean_sq: avx2::euclidean_sq,
    euclidean_sq_early_abandon: avx2::euclidean_sq_early_abandon,
    sum: avx2::sum,
    sum_sumsq: avx2::sum_sumsq,
    normalize_affine: avx2::normalize_affine,
    segment_sums: avx2::segment_sums,
};

/// The kernel table for an explicit dispatch choice. Requesting
/// [`Dispatch::Avx2`] on hardware (or a target) without AVX2 falls back to
/// the scalar table rather than faulting.
pub fn kernels_for(dispatch: Dispatch) -> &'static Kernels {
    match dispatch {
        Dispatch::Scalar => &SCALAR_KERNELS,
        Dispatch::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    return &AVX2_KERNELS;
                }
            }
            &SCALAR_KERNELS
        }
    }
}

/// The kernel table for this process ([`active`] dispatch), cached.
#[inline]
pub fn kernels() -> &'static Kernels {
    static TABLE: OnceLock<&'static Kernels> = OnceLock::new();
    TABLE.get_or_init(|| kernels_for(active()))
}

/// How many elements each early-abandon cutoff check covers. A multiple of
/// the 8-wide lane count; checking every element costs more in horizontal
/// reductions than it saves.
pub const ABANDON_BLOCK: usize = 32;

/// Fixed reduction tree shared by both implementations: lane-halves first
/// (`a[l] + a[l+4]`, what `vaddpd(acc_lo, acc_hi)` computes), then the
/// 4-to-1 tree a horizontal `__m256d` sum performs.
#[inline(always)]
fn reduce8(a: [f64; 8]) -> f64 {
    let t0 = a[0] + a[4];
    let t1 = a[1] + a[5];
    let t2 = a[2] + a[6];
    let t3 = a[3] + a[7];
    (t0 + t2) + (t1 + t3)
}

/// Portable implementations, mirroring the AVX2 lane structure (see the
/// module docs) so results are bit-identical across dispatches.
pub mod scalar {
    use super::{reduce8, Value, ABANDON_BLOCK};

    pub(super) fn euclidean_sq_lanes(a: &[Value], b: &[Value]) -> ([f64; 8], f64) {
        let n = a.len();
        let n8 = n - n % 8;
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i < n8 {
            for (l, lane) in acc.iter_mut().enumerate() {
                let d = (a[i + l] - b[i + l]) as f64;
                *lane += d * d;
            }
            i += 8;
        }
        let mut tail = 0.0f64;
        for j in n8..n {
            let d = (a[j] - b[j]) as f64;
            tail += d * d;
        }
        (acc, tail)
    }

    /// Squared Euclidean distance (8-lane accumulation).
    pub fn euclidean_sq(a: &[Value], b: &[Value]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let (acc, tail) = euclidean_sq_lanes(a, b);
        reduce8(acc) + tail
    }

    /// Early-abandoning squared Euclidean distance: the running sum is
    /// checked against `cutoff_sq` every [`ABANDON_BLOCK`] elements and once
    /// at the end; strictly-greater abandons.
    pub fn euclidean_sq_early_abandon(a: &[Value], b: &[Value], cutoff_sq: f64) -> Option<f64> {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let n8 = n - n % 8;
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i + ABANDON_BLOCK <= n8 {
            let end = i + ABANDON_BLOCK;
            while i < end {
                for (l, lane) in acc.iter_mut().enumerate() {
                    let d = (a[i + l] - b[i + l]) as f64;
                    *lane += d * d;
                }
                i += 8;
            }
            if reduce8(acc) > cutoff_sq {
                return None;
            }
        }
        while i < n8 {
            for (l, lane) in acc.iter_mut().enumerate() {
                let d = (a[i + l] - b[i + l]) as f64;
                *lane += d * d;
            }
            i += 8;
        }
        let mut tail = 0.0f64;
        for j in n8..n {
            let d = (a[j] - b[j]) as f64;
            tail += d * d;
        }
        let total = reduce8(acc) + tail;
        if total > cutoff_sq {
            None
        } else {
            Some(total)
        }
    }

    /// Sum of a slice, accumulated in `f64` over 8 lanes.
    pub fn sum(v: &[Value]) -> f64 {
        let n = v.len();
        let n8 = n - n % 8;
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i < n8 {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane += v[i + l] as f64;
            }
            i += 8;
        }
        let mut tail = 0.0f64;
        for x in &v[n8..] {
            tail += *x as f64;
        }
        reduce8(acc) + tail
    }

    /// Fused single-pass `(Σ(v−shift), Σ(v−shift)²)`.
    pub fn sum_sumsq(v: &[Value], shift: f64) -> (f64, f64) {
        let n = v.len();
        let n8 = n - n % 8;
        let mut acc = [0.0f64; 8];
        let mut acc2 = [0.0f64; 8];
        let mut i = 0;
        while i < n8 {
            for l in 0..8 {
                let x = v[i + l] as f64 - shift;
                acc[l] += x;
                acc2[l] += x * x;
            }
            i += 8;
        }
        let mut tail = 0.0f64;
        let mut tail2 = 0.0f64;
        for x in &v[n8..] {
            let x = *x as f64 - shift;
            tail += x;
            tail2 += x * x;
        }
        (reduce8(acc) + tail, reduce8(acc2) + tail2)
    }

    /// In-place `v ← (v − mean) · inv_std`, computed per element in `f64`
    /// and rounded back to `f32` (lane-exact across dispatches).
    pub fn normalize_affine(v: &mut [Value], mean: f64, inv_std: f64) {
        for x in v.iter_mut() {
            *x = ((*x as f64 - mean) * inv_std) as Value;
        }
    }

    /// PAA segment sums over equal-length segments.
    pub fn segment_sums(series: &[Value], seg: usize, out: &mut [f64]) {
        debug_assert_eq!(series.len(), seg * out.len());
        for (j, o) in out.iter_mut().enumerate() {
            *o = sum(&series[j * seg..(j + 1) * seg]);
        }
    }
}

/// AVX2 implementations. Every public function here is a safe wrapper that
/// asserts AVX2 support before calling into a `#[target_feature]` body.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{Value, ABANDON_BLOCK};
    use std::arch::x86_64::*;

    #[inline]
    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernel invoked on a CPU without AVX2"
        );
    }

    /// Horizontal sum of 8 lanes held as two `__m256d` (lane-halves add,
    /// then the fixed 4-to-1 tree — the same order as `scalar::reduce8`).
    ///
    /// # Safety
    /// Requires AVX2 (callers are `#[target_feature(enable = "avx2")]`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum8(acc_lo: __m256d, acc_hi: __m256d) -> f64 {
        let s = _mm256_add_pd(acc_lo, acc_hi); // (t0, t1, t2, t3)
        let lo = _mm256_castpd256_pd128(s); // (t0, t1)
        let hi = _mm256_extractf128_pd::<1>(s); // (t2, t3)
        let p = _mm_add_pd(lo, hi); // (t0+t2, t1+t3)
        let q = _mm_unpackhi_pd(p, p);
        _mm_cvtsd_f64(_mm_add_sd(p, q)) // (t0+t2) + (t1+t3)
    }

    /// One 8-element step of the squared-distance accumulation: f32
    /// subtract, widen both halves to f64, square, add.
    ///
    /// # Safety
    /// Requires AVX2; `a` and `b` must point at 8 readable `f32`s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step_d2(a: *const f32, b: *const f32, acc_lo: &mut __m256d, acc_hi: &mut __m256d) {
        let va = _mm256_loadu_ps(a);
        let vb = _mm256_loadu_ps(b);
        let d = _mm256_sub_ps(va, vb);
        let d_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(d));
        let d_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(d));
        *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(d_lo, d_lo));
        *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }

    #[target_feature(enable = "avx2")]
    unsafe fn euclidean_sq_impl(a: &[Value], b: &[Value]) -> f64 {
        let n = a.len();
        let n8 = n - n % 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            step_d2(
                a.as_ptr().add(i),
                b.as_ptr().add(i),
                &mut acc_lo,
                &mut acc_hi,
            );
            i += 8;
        }
        let mut tail = 0.0f64;
        for j in n8..n {
            let d = (a[j] - b[j]) as f64;
            tail += d * d;
        }
        hsum8(acc_lo, acc_hi) + tail
    }

    /// Squared Euclidean distance (AVX2).
    pub fn euclidean_sq(a: &[Value], b: &[Value]) -> f64 {
        // Hard assert: the vector body reads `b` through raw pointers
        // driven by `a.len()`, so a length mismatch would be an
        // out-of-bounds read, not a panic like the scalar mirror.
        assert_eq!(a.len(), b.len());
        assert_avx2();
        // SAFETY: AVX2 support asserted above; slices are equal-length.
        unsafe { euclidean_sq_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn euclidean_sq_early_abandon_impl(
        a: &[Value],
        b: &[Value],
        cutoff_sq: f64,
    ) -> Option<f64> {
        let n = a.len();
        let n8 = n - n % 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i + ABANDON_BLOCK <= n8 {
            let end = i + ABANDON_BLOCK;
            while i < end {
                step_d2(
                    a.as_ptr().add(i),
                    b.as_ptr().add(i),
                    &mut acc_lo,
                    &mut acc_hi,
                );
                i += 8;
            }
            if hsum8(acc_lo, acc_hi) > cutoff_sq {
                return None;
            }
        }
        while i < n8 {
            step_d2(
                a.as_ptr().add(i),
                b.as_ptr().add(i),
                &mut acc_lo,
                &mut acc_hi,
            );
            i += 8;
        }
        let mut tail = 0.0f64;
        for j in n8..n {
            let d = (a[j] - b[j]) as f64;
            tail += d * d;
        }
        let total = hsum8(acc_lo, acc_hi) + tail;
        if total > cutoff_sq {
            None
        } else {
            Some(total)
        }
    }

    /// Early-abandoning squared Euclidean distance (AVX2): block-wise
    /// cutoff checks, identical block boundaries to the scalar mirror.
    pub fn euclidean_sq_early_abandon(a: &[Value], b: &[Value], cutoff_sq: f64) -> Option<f64> {
        // Hard assert — see `euclidean_sq`: raw-pointer loads of `b` are
        // driven by `a.len()`.
        assert_eq!(a.len(), b.len());
        assert_avx2();
        // SAFETY: AVX2 support asserted above; slices are equal-length.
        unsafe { euclidean_sq_early_abandon_impl(a, b, cutoff_sq) }
    }

    /// One 8-element step widening to f64 and accumulating the values.
    ///
    /// # Safety
    /// Requires AVX2; `v` must point at 8 readable `f32`s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step_sum(v: *const f32, acc_lo: &mut __m256d, acc_hi: &mut __m256d) {
        let x = _mm256_loadu_ps(v);
        let x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
        let x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x));
        *acc_lo = _mm256_add_pd(*acc_lo, x_lo);
        *acc_hi = _mm256_add_pd(*acc_hi, x_hi);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sum_impl(v: &[Value]) -> f64 {
        let n = v.len();
        let n8 = n - n % 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            step_sum(v.as_ptr().add(i), &mut acc_lo, &mut acc_hi);
            i += 8;
        }
        let mut tail = 0.0f64;
        for x in &v[n8..] {
            tail += *x as f64;
        }
        hsum8(acc_lo, acc_hi) + tail
    }

    /// Sum of a slice in `f64` (AVX2).
    pub fn sum(v: &[Value]) -> f64 {
        assert_avx2();
        // SAFETY: AVX2 support asserted above.
        unsafe { sum_impl(v) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sum_sumsq_impl(v: &[Value], shift: f64) -> (f64, f64) {
        let n = v.len();
        let n8 = n - n % 8;
        let vshift = _mm256_set1_pd(shift);
        let mut s_lo = _mm256_setzero_pd();
        let mut s_hi = _mm256_setzero_pd();
        let mut q_lo = _mm256_setzero_pd();
        let mut q_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            let x = _mm256_loadu_ps(v.as_ptr().add(i));
            let x_lo = _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(x)), vshift);
            let x_hi = _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)), vshift);
            s_lo = _mm256_add_pd(s_lo, x_lo);
            s_hi = _mm256_add_pd(s_hi, x_hi);
            q_lo = _mm256_add_pd(q_lo, _mm256_mul_pd(x_lo, x_lo));
            q_hi = _mm256_add_pd(q_hi, _mm256_mul_pd(x_hi, x_hi));
            i += 8;
        }
        let mut tail = 0.0f64;
        let mut tail2 = 0.0f64;
        for x in &v[n8..] {
            let x = *x as f64 - shift;
            tail += x;
            tail2 += x * x;
        }
        (hsum8(s_lo, s_hi) + tail, hsum8(q_lo, q_hi) + tail2)
    }

    /// Fused single-pass `(Σ(v−shift), Σ(v−shift)²)` (AVX2).
    pub fn sum_sumsq(v: &[Value], shift: f64) -> (f64, f64) {
        assert_avx2();
        // SAFETY: AVX2 support asserted above.
        unsafe { sum_sumsq_impl(v, shift) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn normalize_affine_impl(v: &mut [Value], mean: f64, inv_std: f64) {
        let n = v.len();
        let n8 = n - n % 8;
        let vmean = _mm256_set1_pd(mean);
        let vinv = _mm256_set1_pd(inv_std);
        let mut i = 0;
        while i < n8 {
            let p = v.as_mut_ptr().add(i);
            let x = _mm256_loadu_ps(p);
            let x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
            let x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x));
            let y_lo = _mm256_mul_pd(_mm256_sub_pd(x_lo, vmean), vinv);
            let y_hi = _mm256_mul_pd(_mm256_sub_pd(x_hi, vmean), vinv);
            let out = _mm256_set_m128(_mm256_cvtpd_ps(y_hi), _mm256_cvtpd_ps(y_lo));
            _mm256_storeu_ps(p, out);
            i += 8;
        }
        for x in &mut v[n8..] {
            *x = ((*x as f64 - mean) * inv_std) as Value;
        }
    }

    /// In-place `v ← (v − mean) · inv_std` (AVX2; per-lane rounding matches
    /// the scalar path exactly).
    pub fn normalize_affine(v: &mut [Value], mean: f64, inv_std: f64) {
        assert_avx2();
        // SAFETY: AVX2 support asserted above.
        unsafe { normalize_affine_impl(v, mean, inv_std) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn segment_sums_impl(series: &[Value], seg: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = sum_impl(&series[j * seg..(j + 1) * seg]);
        }
    }

    /// PAA segment sums over equal-length segments (AVX2).
    pub fn segment_sums(series: &[Value], seg: usize, out: &mut [f64]) {
        debug_assert_eq!(series.len(), seg * out.len());
        assert_avx2();
        // SAFETY: AVX2 support asserted above; length checked.
        unsafe { segment_sums_impl(series, seg, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u32) -> Vec<Value> {
        (0..n)
            .map(|i| ((i as f32 * 0.37 + seed as f32) * 1.7).sin() * 2.5)
            .collect()
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn dispatch_tables_are_consistent() {
        let k = kernels();
        assert_eq!(k.dispatch, active());
        assert_eq!(kernels_for(Dispatch::Scalar).dispatch, Dispatch::Scalar);
    }

    #[test]
    fn scalar_and_active_agree_on_all_kernels() {
        let ks = kernels_for(Dispatch::Scalar);
        let ka = kernels_for(detect());
        for n in [
            0usize, 1, 5, 7, 8, 9, 16, 31, 32, 33, 63, 64, 100, 256, 1000,
        ] {
            let a = data(n, 1);
            let b = data(n, 2);
            assert!(
                same_bits((ks.euclidean_sq)(&a, &b), (ka.euclidean_sq)(&a, &b)),
                "euclidean_sq n={n}"
            );
            assert_eq!((ks.sum)(&a).to_bits(), (ka.sum)(&a).to_bits(), "sum n={n}");
            let shift = a.first().copied().unwrap_or(0.0) as f64;
            let (s1, q1) = (ks.sum_sumsq)(&a, shift);
            let (s2, q2) = (ka.sum_sumsq)(&a, shift);
            assert!(same_bits(s1, s2) && same_bits(q1, q2), "sum_sumsq n={n}");
            let full = (ks.euclidean_sq)(&a, &b);
            for cutoff in [0.0, full * 0.5, full, full * 2.0, f64::INFINITY] {
                let r1 = (ks.euclidean_sq_early_abandon)(&a, &b, cutoff);
                let r2 = (ka.euclidean_sq_early_abandon)(&a, &b, cutoff);
                assert_eq!(r1.is_some(), r2.is_some(), "abandon n={n} cutoff={cutoff}");
                if let (Some(x), Some(y)) = (r1, r2) {
                    assert!(same_bits(x, y));
                }
            }
            let mut v1 = a.clone();
            let mut v2 = a.clone();
            (ks.normalize_affine)(&mut v1, 0.25, 1.75);
            (ka.normalize_affine)(&mut v2, 0.25, 1.75);
            assert_eq!(v1, v2, "normalize_affine n={n}");
        }
        for (n, seg) in [(64usize, 8usize), (256, 16), (24, 3), (7, 7), (30, 5)] {
            let s = data(n, 3);
            let w = n / seg;
            let mut o1 = vec![0.0f64; w];
            let mut o2 = vec![0.0f64; w];
            (ks.segment_sums)(&s[..w * seg], seg, &mut o1);
            (ka.segment_sums)(&s[..w * seg], seg, &mut o2);
            assert_eq!(o1, o2, "segment_sums n={n} seg={seg}");
        }
    }

    #[test]
    fn early_abandon_full_sum_equals_euclidean_sq() {
        let k = kernels();
        let a = data(200, 4);
        let b = data(200, 5);
        let full = (k.euclidean_sq)(&a, &b);
        assert_eq!(
            (k.euclidean_sq_early_abandon)(&a, &b, f64::INFINITY),
            Some(full)
        );
        // Exactly at the cutoff is kept (strictly-greater abandons).
        assert_eq!((k.euclidean_sq_early_abandon)(&a, &b, full), Some(full));
    }
}
