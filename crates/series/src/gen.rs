//! Synthetic data series generators.
//!
//! The paper evaluates on three datasets: a synthetic *random walk* (the
//! standard generator in the data series literature, shown to model
//! financial data well), a 100 GB *seismic* dataset of overlapping sliding
//! windows from the IRIS repository, and a 277 GB *astronomy* dataset of
//! celestial light curves. The real datasets are not redistributable, so
//! this module provides behaviour-preserving substitutes (DESIGN.md §5):
//!
//! * [`RandomWalkGen`] — exactly the paper's generator: cumulative sums of
//!   standard Gaussian steps.
//! * [`SeismicGen`] — a continuous stream of background noise with
//!   Poisson-arriving damped-oscillation events, cut into heavily
//!   overlapping sliding windows (stride ≪ length). Overlap makes many
//!   windows near-identical: the *dense* data that the paper reports makes
//!   pruning hard ("the queries are harder on these datasets ... because the
//!   datasets were denser").
//! * [`AstronomyGen`] — AR(1) red noise with positive flares, cut into
//!   sliding windows; produces the skewed value histogram of the paper's
//!   Figure 7.
//!
//! Generators are deterministic given a seed, so experiments are exactly
//! reproducible.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Value;

/// A source of data series. `generate(len)` returns the next series of the
/// requested length.
pub trait Generator {
    /// Produce the next series of `len` points.
    fn generate(&mut self, len: usize) -> Vec<Value>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Standard Gaussian sampler (Box–Muller with a cached spare), so we do not
/// need the `rand_distr` crate.
#[derive(Debug, Clone)]
struct Gauss {
    rng: StdRng,
    spare: Option<f64>,
}

impl Gauss {
    fn new(seed: u64) -> Self {
        Gauss {
            rng: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    #[inline]
    fn sample(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: u1 in (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    #[inline]
    fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }
}

/// The paper's synthetic workload: `x_0 ~ N(0,1)`, `x_t = x_{t-1} + N(0,1)`.
#[derive(Debug, Clone)]
pub struct RandomWalkGen {
    gauss: Gauss,
}

impl RandomWalkGen {
    /// A seeded random-walk generator.
    pub fn new(seed: u64) -> Self {
        RandomWalkGen {
            gauss: Gauss::new(seed),
        }
    }
}

impl Generator for RandomWalkGen {
    fn generate(&mut self, len: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(len);
        let mut acc = 0.0f64;
        for _ in 0..len {
            acc += self.gauss.sample();
            out.push(acc as Value);
        }
        out
    }

    fn name(&self) -> &'static str {
        "randomwalk"
    }
}

/// Seismic-like stream: low-amplitude background noise punctuated by
/// damped-oscillation events, consumed through a sliding window.
///
/// `stride` points separate consecutive windows (the paper slides a
/// 256-point window by 4 samples, i.e. 98% overlap), which is what makes
/// seismic data *dense*: many windows are near-duplicates.
#[derive(Debug, Clone)]
pub struct SeismicGen {
    gauss: Gauss,
    stride: usize,
    /// Rolling buffer of the continuous signal.
    window: VecDeque<f64>,
    /// Remaining samples of an active event: (amplitude, frequency, decay,
    /// phase index).
    event: Option<(f64, f64, f64, usize)>,
}

impl SeismicGen {
    /// A seeded generator with the paper's 4-sample stride.
    pub fn new(seed: u64) -> Self {
        Self::with_stride(seed, 4)
    }

    /// A seeded generator with a custom sliding-window stride.
    pub fn with_stride(seed: u64, stride: usize) -> Self {
        SeismicGen {
            gauss: Gauss::new(seed),
            stride: stride.max(1),
            window: VecDeque::new(),
            event: None,
        }
    }

    fn next_sample(&mut self) -> f64 {
        let background = 0.1 * self.gauss.sample();
        // Events arrive with probability 1/500 per sample and last a few
        // hundred samples: amplitude 5-50x the background.
        if self.event.is_none() && self.gauss.uniform() < 1.0 / 500.0 {
            let amp = 0.5 + 4.5 * self.gauss.uniform();
            let freq = 0.05 + 0.3 * self.gauss.uniform();
            let decay = 0.005 + 0.02 * self.gauss.uniform();
            self.event = Some((amp, freq, decay, 0));
        }
        let mut v = background;
        if let Some((amp, freq, decay, t)) = &mut self.event {
            let envelope = (-*decay * *t as f64).exp();
            v += *amp * envelope * (std::f64::consts::TAU * *freq * *t as f64).sin();
            *t += 1;
            if envelope < 1e-3 {
                self.event = None;
            }
        }
        v
    }
}

impl Generator for SeismicGen {
    fn generate(&mut self, len: usize) -> Vec<Value> {
        if self.window.len() != len {
            // (Re-)prime the window for this length.
            self.window.clear();
            for _ in 0..len {
                let s = self.next_sample();
                self.window.push_back(s);
            }
        } else {
            for _ in 0..self.stride {
                let s = self.next_sample();
                self.window.pop_front();
                self.window.push_back(s);
            }
        }
        self.window.iter().map(|&v| v as Value).collect()
    }

    fn name(&self) -> &'static str {
        "seismic"
    }
}

/// Astronomy-like stream: an AR(1) red-noise light curve with positive
/// flares, consumed through a unit-stride sliding window (the paper's
/// astronomy dataset uses "a sliding window with a step of 1").
///
/// Flares only ever *add* flux, so the value distribution is right-skewed —
/// the visible difference in the paper's Figure 7.
#[derive(Debug, Clone)]
pub struct AstronomyGen {
    gauss: Gauss,
    window: VecDeque<f64>,
    level: f64,
    flare: f64,
}

impl AstronomyGen {
    /// A seeded astronomy-like generator.
    pub fn new(seed: u64) -> Self {
        AstronomyGen {
            gauss: Gauss::new(seed),
            window: VecDeque::new(),
            level: 0.0,
            flare: 0.0,
        }
    }

    fn next_sample(&mut self) -> f64 {
        // AR(1): strongly correlated baseline.
        self.level = 0.98 * self.level + 0.2 * self.gauss.sample();
        // Flares: rare positive jumps with exponential decay.
        if self.gauss.uniform() < 1.0 / 300.0 {
            self.flare += 1.0 + 3.0 * self.gauss.uniform();
        }
        self.flare *= 0.97;
        self.level + self.flare
    }
}

impl Generator for AstronomyGen {
    fn generate(&mut self, len: usize) -> Vec<Value> {
        if self.window.len() != len {
            self.window.clear();
            for _ in 0..len {
                let s = self.next_sample();
                self.window.push_back(s);
            }
        } else {
            let s = self.next_sample();
            self.window.pop_front();
            self.window.push_back(s);
        }
        self.window.iter().map(|&v| v as Value).collect()
    }

    fn name(&self) -> &'static str {
        "astronomy"
    }
}

/// Generate `count` z-normalized query series (the paper's workloads are
/// "random" queries drawn with the same technique as the datasets).
pub fn make_queries(
    generator: &mut dyn Generator,
    count: usize,
    series_len: usize,
) -> Vec<Vec<Value>> {
    (0..count)
        .map(|_| {
            let mut q = generator.generate(series_len);
            crate::distance::znormalize(&mut q);
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{euclidean, mean, std_dev, znormalized};

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let mut a = RandomWalkGen::new(1);
        let mut b = RandomWalkGen::new(1);
        let mut c = RandomWalkGen::new(2);
        assert_eq!(a.generate(128), b.generate(128));
        assert_ne!(a.generate(128), c.generate(128));
    }

    #[test]
    fn random_walk_steps_are_standard_normal() {
        let mut g = RandomWalkGen::new(3);
        let s = g.generate(100_000);
        let steps: Vec<Value> = s.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(mean(&steps).abs() < 0.02);
        assert!((std_dev(&steps) - 1.0).abs() < 0.02);
    }

    #[test]
    fn seismic_windows_overlap_heavily() {
        let mut g = SeismicGen::with_stride(5, 4);
        let a = znormalized(&g.generate(256));
        let b = znormalized(&g.generate(256));
        let mut r = RandomWalkGen::new(5);
        let x = znormalized(&r.generate(256));
        let y = znormalized(&r.generate(256));
        // Consecutive seismic windows share 252 of 256 points -> much closer
        // than two independent random walks.
        assert!(euclidean(&a, &b) < euclidean(&x, &y));
    }

    #[test]
    fn seismic_contains_high_amplitude_events() {
        let mut g = SeismicGen::with_stride(7, 256);
        let mut max_abs = 0.0f32;
        for _ in 0..200 {
            let s = g.generate(256);
            for v in s {
                max_abs = max_abs.max(v.abs());
            }
        }
        // Background noise alone would stay under ~0.5.
        assert!(max_abs > 1.0, "no events observed, max={max_abs}");
    }

    #[test]
    fn astronomy_values_are_right_skewed() {
        let mut g = AstronomyGen::new(11);
        // Sample non-overlapping windows to get many independent values.
        let mut values = Vec::new();
        for _ in 0..50 {
            g.window.clear(); // force a fresh window
            values.extend(g.generate(512));
        }
        let m = mean(&values);
        let sd = std_dev(&values);
        let skew: f64 = values
            .iter()
            .map(|&v| ((v as f64 - m) / sd).powi(3))
            .sum::<f64>()
            / values.len() as f64;
        assert!(skew > 0.2, "expected right skew, got {skew}");
    }

    #[test]
    fn make_queries_are_znormalized() {
        let mut g = RandomWalkGen::new(1);
        let qs = make_queries(&mut g, 5, 64);
        assert_eq!(qs.len(), 5);
        for q in qs {
            assert_eq!(q.len(), 64);
            assert!(mean(&q).abs() < 1e-4);
            assert!((std_dev(&q) - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn generators_respect_requested_length() {
        let mut gens: Vec<Box<dyn Generator>> = vec![
            Box::new(RandomWalkGen::new(1)),
            Box::new(SeismicGen::new(2)),
            Box::new(AstronomyGen::new(3)),
        ];
        for g in gens.iter_mut() {
            for len in [1usize, 7, 64, 256] {
                assert_eq!(g.generate(len).len(), len, "{}", g.name());
            }
        }
    }
}
