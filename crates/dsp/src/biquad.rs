//! Second-order IIR sections (biquads) and cascades.
//!
//! All designed filters in this crate are represented as a cascade of
//! [`Biquad`] sections evaluated in direct-form-II-transposed, which is the
//! numerically preferred realization for audio-rate and biosignal IIR
//! filtering. Coefficients and state are kept in `f64` even though the public
//! sample type is `f32`; a 9th-order Butterworth at a 125 Hz rate has poles
//! close to the unit circle and single precision state is not reliable there.

use serde::{Deserialize, Serialize};

/// One second-order section `H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)`.
///
/// The denominator is stored normalized (`a0 == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Biquad {
    /// Numerator coefficients `b0, b1, b2`.
    pub b: [f64; 3],
    /// Denominator coefficients `a1, a2` (with implicit `a0 = 1`).
    pub a: [f64; 2],
}

impl Biquad {
    /// Creates a section from raw transfer-function coefficients.
    ///
    /// `a` is the full denominator `[a0, a1, a2]`; all coefficients are
    /// normalized by `a0`.
    ///
    /// # Panics
    ///
    /// Panics if `a[0]` is zero.
    #[must_use]
    pub fn new(b: [f64; 3], a: [f64; 3]) -> Self {
        assert!(a[0] != 0.0, "a0 coefficient must be non-zero");
        Self {
            b: [b[0] / a[0], b[1] / a[0], b[2] / a[0]],
            a: [a[1] / a[0], a[2] / a[0]],
        }
    }

    /// The identity (pass-through) section.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            b: [1.0, 0.0, 0.0],
            a: [0.0, 0.0],
        }
    }

    /// Evaluates the complex frequency response at normalized angular
    /// frequency `omega` (radians/sample). Returns `(re, im)`.
    #[must_use]
    pub fn response_at(&self, omega: f64) -> (f64, f64) {
        // e^{-j w k} terms for k = 0, 1, 2.
        let (c1, s1) = (omega.cos(), -omega.sin());
        let (c2, s2) = ((2.0 * omega).cos(), -(2.0 * omega).sin());
        let num_re = self.b[0] + self.b[1] * c1 + self.b[2] * c2;
        let num_im = self.b[1] * s1 + self.b[2] * s2;
        let den_re = 1.0 + self.a[0] * c1 + self.a[1] * c2;
        let den_im = self.a[0] * s1 + self.a[1] * s2;
        let mag2 = den_re * den_re + den_im * den_im;
        (
            (num_re * den_re + num_im * den_im) / mag2,
            (num_im * den_re - num_re * den_im) / mag2,
        )
    }

    /// Magnitude of the frequency response at normalized angular frequency.
    #[must_use]
    pub fn magnitude_at(&self, omega: f64) -> f64 {
        let (re, im) = self.response_at(omega);
        re.hypot(im)
    }

    /// Returns `true` when both poles are strictly inside the unit circle.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        // Jury criterion for a quadratic 1 + a1 z^-1 + a2 z^-2.
        let (a1, a2) = (self.a[0], self.a[1]);
        a2.abs() < 1.0 && (a1.abs()) < 1.0 + a2
    }
}

/// Running state for one biquad (direct form II transposed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BiquadState {
    z1: f64,
    z2: f64,
}

impl BiquadState {
    #[inline]
    fn step(&mut self, coeff: &Biquad, x: f64) -> f64 {
        let y = coeff.b[0] * x + self.z1;
        self.z1 = coeff.b[1] * x - coeff.a[0] * y + self.z2;
        self.z2 = coeff.b[2] * x - coeff.a[1] * y;
        y
    }
}

/// A cascade of second-order sections forming one higher-order filter.
///
/// The cascade is immutable once designed; [`SosFilter::filter`] runs it
/// over a whole signal from zero state, and [`StreamingFilter`] owns the
/// state for streaming use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SosFilter {
    sections: Vec<Biquad>,
}

impl SosFilter {
    /// Builds a cascade from individual sections.
    #[must_use]
    pub fn new(sections: Vec<Biquad>) -> Self {
        Self { sections }
    }

    /// The second-order sections of this filter.
    #[must_use]
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Total filter order (2 per section).
    #[must_use]
    pub fn order(&self) -> usize {
        self.sections.len() * 2
    }

    /// Magnitude response at frequency `f` Hz for sampling rate `fs` Hz.
    #[must_use]
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * f / fs;
        self.sections
            .iter()
            .map(|s| s.magnitude_at(omega))
            .product()
    }

    /// Returns `true` when every section is stable.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }

    /// Scales the overall gain by multiplying the first section's numerator.
    pub fn scale_gain(&mut self, g: f64) {
        if let Some(first) = self.sections.first_mut() {
            for b in &mut first.b {
                *b *= g;
            }
        }
    }

    /// Causally filters a signal, returning a new vector of the same length.
    ///
    /// The filter starts from zero state. This is the scalar offline
    /// reference; for streaming across chunk boundaries use
    /// [`StreamingFilter`], which preserves state.
    #[must_use]
    pub fn filter(&self, signal: &[f32]) -> Vec<f32> {
        let mut states = vec![BiquadState::default(); self.sections.len()];
        let mut out = Vec::with_capacity(signal.len());
        for &x in signal {
            let mut acc = f64::from(x);
            for (coeff, state) in self.sections.iter().zip(states.iter_mut()) {
                acc = state.step(coeff, acc);
            }
            out.push(acc as f32);
        }
        out
    }
}

/// An owned filter + state pair that runs a cascade one sample at a time,
/// keeping its delay state across calls: the per-sample scalar reference
/// that [`crate::filterbank::FilterBank`] is checked against, bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingFilter {
    filter: SosFilter,
    #[serde(skip)]
    state: Vec<BiquadState>,
}

impl StreamingFilter {
    /// Wraps a designed filter with fresh state.
    #[must_use]
    pub fn new(filter: SosFilter) -> Self {
        let state = vec![BiquadState::default(); filter.sections().len()];
        Self { filter, state }
    }

    /// The wrapped cascade.
    #[must_use]
    pub fn filter(&self) -> &SosFilter {
        &self.filter
    }

    /// Processes one sample, preserving state across calls.
    #[inline]
    pub fn step(&mut self, x: f32) -> f32 {
        if self.state.len() != self.filter.sections().len() {
            // Restores state after deserialization.
            self.state = vec![BiquadState::default(); self.filter.sections().len()];
        }
        let mut acc = f64::from(x);
        for (coeff, state) in self.filter.sections.iter().zip(self.state.iter_mut()) {
            acc = state.step(coeff, acc);
        }
        acc as f32
    }

    /// Resets the delay state.
    pub fn reset(&mut self) {
        for s in &mut self.state {
            *s = BiquadState::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_signal_through() {
        let f = SosFilter::new(vec![Biquad::identity()]);
        let x = vec![1.0_f32, -2.0, 3.5, 0.0];
        assert_eq!(f.filter(&x), x);
    }

    #[test]
    fn normalization_divides_by_a0() {
        let b = Biquad::new([2.0, 0.0, 0.0], [2.0, 0.0, 0.0]);
        assert_eq!(b.b, [1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "a0")]
    fn zero_a0_panics() {
        let _ = Biquad::new([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn stability_check_detects_unstable_pole() {
        // Pole at z = 1.1 -> unstable.
        let unstable = Biquad::new([1.0, 0.0, 0.0], [1.0, -2.2, 1.21]);
        assert!(!unstable.is_stable());
        // Poles at 0.5 -> stable.
        let stable = Biquad::new([1.0, 0.0, 0.0], [1.0, -1.0, 0.25]);
        assert!(stable.is_stable());
    }

    #[test]
    fn magnitude_at_dc_for_unity_gain_section() {
        let f = SosFilter::new(vec![Biquad::identity()]);
        assert!((f.magnitude_at(0.0, 125.0) - 1.0).abs() < 1e-12);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|y| y.to_bits()).collect()
    }

    #[test]
    fn streaming_filter_matches_batch() {
        // Two sections, so state carries through the cascade.
        let f = SosFilter::new(vec![
            Biquad::new([0.2, 0.4, 0.2], [1.0, -0.5, 0.2]),
            Biquad::new([0.3, -0.1, 0.05], [1.0, -0.6, 0.25]),
        ]);
        let x: Vec<f32> = (0..64).map(|i| ((i * 11) % 7) as f32 - 3.0).collect();
        let batch = f.filter(&x);
        let mut s = StreamingFilter::new(f);
        let streamed: Vec<f32> = x.iter().map(|&v| s.step(v)).collect();
        assert_eq!(bits(&streamed), bits(&batch));
    }

    #[test]
    fn runner_matches_batch_across_chunks() {
        // A streaming filter fed in chunks of 5 carries its state across
        // the chunk edges and replays the batch output bit for bit.
        let f = SosFilter::new(vec![Biquad::new([0.2, 0.4, 0.2], [1.0, -0.5, 0.2])]);
        let x: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let batch = f.filter(&x);
        let mut s = StreamingFilter::new(f);
        let mut chunked = Vec::with_capacity(x.len());
        for chunk in x.chunks(5) {
            chunked.extend(chunk.iter().map(|&v| s.step(v)));
        }
        assert_eq!(bits(&chunked), bits(&batch));
    }

    #[test]
    fn impulse_response_matches_difference_equation() {
        // Feed a unit impulse and check the first outputs against the
        // difference equation y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2]
        //                          - a1 y[n-1] - a2 y[n-2].
        let (b, a) = ([0.3, -0.1, 0.05], [1.0, -0.6, 0.25]);
        let f = SosFilter::new(vec![Biquad::new(b, a)]);
        let mut x = vec![0.0_f32; 16];
        x[0] = 1.0;
        let h = f.filter(&x);

        let mut expect = vec![0.0_f64; 16];
        for n in 0..16 {
            let xv = |k: i64| if k == 0 { 1.0 } else { 0.0 };
            let yv = |k: i64, e: &[f64]| if k < 0 { 0.0 } else { e[k as usize] };
            let n_i = n as i64;
            expect[n] = b[0] * xv(n_i) + b[1] * xv(n_i - 1) + b[2] * xv(n_i - 2)
                - a[1] * yv(n_i - 1, &expect)
                - a[2] * yv(n_i - 2, &expect);
        }
        for (got, want) in h.iter().zip(&expect) {
            assert!((f64::from(*got) - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn stable_impulse_response_decays() {
        let f = SosFilter::new(vec![Biquad::new([0.2, 0.4, 0.2], [1.0, -0.9, 0.3])]);
        let mut x = vec![0.0_f32; 256];
        x[0] = 1.0;
        let h = f.filter(&x);
        let head: f32 = h[..32].iter().map(|v| v.abs()).sum();
        let tail: f32 = h[224..].iter().map(|v| v.abs()).sum();
        assert!(head > 0.0);
        assert!(tail < 1e-12, "stable section's impulse tail {tail} did not die out");
    }

    #[test]
    fn reset_clears_state() {
        // After a reset the filter replays a fresh run's bits.
        let f = SosFilter::new(vec![Biquad::new([0.2, 0.4, 0.2], [1.0, -0.5, 0.2])]);
        let x: Vec<f32> = (0..32).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let mut s = StreamingFilter::new(f.clone());
        for &v in &x {
            s.step(v);
        }
        s.reset();
        let replay: Vec<f32> = x.iter().map(|&v| s.step(v)).collect();
        assert_eq!(bits(&replay), bits(&f.filter(&x)));
    }
}
