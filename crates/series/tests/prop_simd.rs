//! Property tests for the runtime-dispatched SIMD kernels.
//!
//! Every kernel is run through both function-pointer tables — the scalar
//! mirror and whatever [`coconut_series::simd::detect`] picks on this CPU
//! (AVX2 on x86_64) — over random lengths, including non-lane-multiple
//! remainders, and the results must be bit-identical (`to_bits` equal: the
//! scalar mirror performs the vector path's operations in its order, and
//! an ulp of drift would move a SAX symbol and so an index file).
//! The early-abandon kernel must additionally make the *same* keep/abandon
//! decision on both paths, including exactly at the cutoff boundary.

use coconut_series::simd::{detect, kernels_for, Dispatch, Kernels};
use coconut_series::Value;
use proptest::prelude::*;

fn scalar() -> &'static Kernels {
    kernels_for(Dispatch::Scalar)
}

fn dispatched() -> &'static Kernels {
    kernels_for(detect())
}

/// `a` and `b` are the same `f64`, bit for bit.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn series(len_max: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(-100.0f32..100.0f32, 0..=len_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn euclidean_sq_simd_matches_scalar(a in series(300)) {
        let b: Vec<Value> = a.iter().map(|&v| v * 0.7 - 1.25).collect();
        let s = (scalar().euclidean_sq)(&a, &b);
        let v = (dispatched().euclidean_sq)(&a, &b);
        prop_assert!(same_bits(s, v), "scalar {s} vs simd {v} (n={})", a.len());
    }

    #[test]
    fn early_abandon_simd_matches_scalar(a in series(300), frac in 0.0f64..2.0f64) {
        let b: Vec<Value> = a.iter().map(|&v| v * -0.5 + 0.3).collect();
        let full = (scalar().euclidean_sq)(&a, &b);
        let cutoff = full * frac;
        let s = (scalar().euclidean_sq_early_abandon)(&a, &b, cutoff);
        let v = (dispatched().euclidean_sq_early_abandon)(&a, &b, cutoff);
        prop_assert_eq!(s.is_some(), v.is_some(), "decision split at cutoff {}", cutoff);
        if let (Some(x), Some(y)) = (s, v) {
            prop_assert!(same_bits(x, y));
        }
    }

    #[test]
    fn early_abandon_cutoff_boundary_agrees(a in series(300)) {
        let b: Vec<Value> = a.iter().map(|&v| v + 1.0).collect();
        let full = (scalar().euclidean_sq)(&a, &b);
        // Exactly at the cutoff: kept (strictly-greater abandons) — on both
        // paths, since the final totals are bit-identical.
        let s = (scalar().euclidean_sq_early_abandon)(&a, &b, full);
        let v = (dispatched().euclidean_sq_early_abandon)(&a, &b, full);
        prop_assert_eq!(s, Some(full));
        prop_assert_eq!(v.is_some(), true);
        prop_assert!(same_bits(v.unwrap(), full));
        // A hair below the total: abandoned by the final check on both.
        if full > 0.0 {
            let below = f64::from_bits(full.to_bits() - 1);
            prop_assert_eq!((scalar().euclidean_sq_early_abandon)(&a, &b, below), None);
            prop_assert_eq!((dispatched().euclidean_sq_early_abandon)(&a, &b, below), None);
        }
    }

    #[test]
    fn sum_and_sumsq_simd_match_scalar(a in series(300)) {
        let s = (scalar().sum)(&a);
        let v = (dispatched().sum)(&a);
        prop_assert!(same_bits(s, v));
        let shift = a.first().copied().unwrap_or(0.0) as f64;
        let (s1, q1) = (scalar().sum_sumsq)(&a, shift);
        let (s2, q2) = (dispatched().sum_sumsq)(&a, shift);
        prop_assert!(same_bits(s1, s2));
        prop_assert!(same_bits(q1, q2));
    }

    #[test]
    fn normalize_affine_is_lane_exact(a in series(300), mean in -10.0f64..10.0f64) {
        let mut s = a.clone();
        let mut v = a.clone();
        (scalar().normalize_affine)(&mut s, mean, 1.37);
        (dispatched().normalize_affine)(&mut v, mean, 1.37);
        prop_assert_eq!(s, v);
    }

    #[test]
    fn segment_sums_simd_matches_scalar(a in series(320), seg in 1usize..24) {
        let w = a.len() / seg;
        if w > 0 {
            let series = &a[..w * seg];
            let mut s = vec![0.0f64; w];
            let mut v = vec![0.0f64; w];
            (scalar().segment_sums)(series, seg, &mut s);
            (dispatched().segment_sums)(series, seg, &mut v);
            for (i, (x, y)) in s.iter().zip(v.iter()).enumerate() {
                prop_assert!(same_bits(*x, *y), "segment {} of {} (seg={})", i, w, seg);
            }
        }
    }

    #[test]
    fn znormalize_pipeline_is_dispatch_invariant(a in series(300)) {
        // Replicate `distance::znormalize` under both tables; the public
        // function uses the process-wide dispatch, so equality here proves
        // the pipeline's output doesn't depend on which path was picked.
        fn znorm_with(k: &Kernels, series: &mut [Value]) {
            if series.is_empty() {
                return;
            }
            let n = series.len() as f64;
            let shift = series[0] as f64;
            let (sum_d, sumsq_d) = (k.sum_sumsq)(series, shift);
            let mean_d = sum_d / n;
            let var = (sumsq_d / n - mean_d * mean_d).max(0.0);
            let std = var.sqrt();
            if std < 1e-12 {
                series.fill(0.0);
                return;
            }
            (k.normalize_affine)(series, shift + mean_d, 1.0 / std);
        }
        let mut s = a.clone();
        let mut v = a.clone();
        znorm_with(scalar(), &mut s);
        znorm_with(dispatched(), &mut v);
        prop_assert_eq!(s, v);
    }
}
