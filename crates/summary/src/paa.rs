//! Piecewise Aggregate Approximation.
//!
//! PAA cuts a series into `w` segments and represents each by its mean
//! (paper Figure 1, middle). When `w` does not divide the series length the
//! boundary points contribute fractionally to both neighbors, so every
//! segment covers exactly `len/w` points of mass — this keeps the
//! lower-bounding property of MINDIST intact for any (len, w) combination.

use coconut_series::simd::Dispatch;
use coconut_series::Value;

/// Compute the `w`-segment PAA of `series` into `out` (`out.len() == w`).
pub fn paa_into(series: &[Value], out: &mut [f64]) {
    paa_into_with(coconut_series::simd::active(), series, out);
}

/// [`paa_into`] on an explicit dispatch (both give bit-identical means).
pub(crate) fn paa_into_with(dispatch: Dispatch, series: &[Value], out: &mut [f64]) {
    let n = series.len();
    let w = out.len();
    debug_assert!(w > 0 && w <= n);
    if n.is_multiple_of(w) {
        // Fast path: equal integer segments, summed by the dispatched
        // vector kernel (build-time summarization calls this per series).
        let seg = n / w;
        (coconut_series::simd::kernels_for(dispatch).segment_sums)(series, seg, out);
        for o in out.iter_mut() {
            *o /= seg as f64;
        }
        return;
    }
    // General path: fractional segment boundaries. Floating-point rounding
    // can make `w * (n/w)` land a hair above `n`, so every index is clamped
    // to the series length.
    let seg = n as f64 / w as f64;
    for (j, o) in out.iter_mut().enumerate() {
        let lo = (j as f64 * seg).min(n as f64);
        let hi = (lo + seg).min(n as f64);
        let mut acc = 0.0f64;
        let mut i = lo.floor() as usize;
        while i < n && (i as f64) < hi {
            let p_lo = (i as f64).max(lo);
            let p_hi = ((i + 1) as f64).min(hi);
            acc += series[i] as f64 * (p_hi - p_lo);
            i += 1;
        }
        *o = acc / seg;
    }
}

/// Compute the `w`-segment PAA of `series` into a fresh vector.
pub fn paa(series: &[Value], w: usize) -> Vec<f64> {
    let mut out = vec![0.0; w];
    paa_into(series, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let s = [1.0f32, 1.0, 3.0, 3.0, 5.0, 5.0, 7.0, 7.0];
        assert_eq!(paa(&s, 4), vec![1.0, 3.0, 5.0, 7.0]);
        assert_eq!(paa(&s, 2), vec![2.0, 6.0]);
        assert_eq!(paa(&s, 1), vec![4.0]);
    }

    #[test]
    fn identity_when_w_equals_len() {
        let s = [1.5f32, -2.0, 0.25];
        assert_eq!(paa(&s, 3), vec![1.5, -2.0, 0.25]);
    }

    #[test]
    fn fractional_segments_preserve_mass() {
        // len=5, w=2: segments cover 2.5 points each.
        let s = [2.0f32, 2.0, 4.0, 6.0, 6.0];
        let p = paa(&s, 2);
        // First segment: 2 + 2 + 0.5*4 = 6 over 2.5 -> 2.4
        assert!((p[0] - 2.4).abs() < 1e-9);
        // Second: 0.5*4 + 6 + 6 = 14 over 2.5 -> 5.6
        assert!((p[1] - 5.6).abs() < 1e-9);
        // Total mass preserved: mean of PAA == mean of series.
        let mean_s: f64 = s.iter().map(|&v| v as f64).sum::<f64>() / 5.0;
        let mean_p: f64 = (p[0] + p[1]) / 2.0;
        assert!((mean_s - mean_p).abs() < 1e-9);
    }

    #[test]
    fn paa_of_constant_is_constant() {
        let s = vec![3.25f32; 97];
        for w in [1usize, 2, 5, 16, 97] {
            let p = paa(&s, w);
            assert!(p.iter().all(|&v| (v - 3.25).abs() < 1e-9), "w={w}");
        }
    }

    #[test]
    fn paa_mean_always_equals_series_mean() {
        // Mass preservation for awkward (len, w) pairs.
        let s: Vec<f32> = (0..101).map(|i| ((i * 37) % 17) as f32 - 8.0).collect();
        let mean_s: f64 = s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64;
        for w in [1usize, 3, 7, 16, 50, 101] {
            let p = paa(&s, w);
            let mean_p: f64 = p.iter().sum::<f64>() / w as f64;
            assert!((mean_s - mean_p).abs() < 1e-9, "w={w}");
        }
    }
}
