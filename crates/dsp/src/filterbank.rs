//! Compiled channel-parallel execution form for causal SOS filter chains.
//!
//! The streaming pipeline advances one [`crate::biquad::StreamingFilter`]
//! cascade per channel, one sample at a time — sixteen independent
//! recurrences whose coefficients are identical and whose state never
//! interacts. A [`FilterBank`] compiles that shape into a
//! structure-of-arrays form: delay state is laid out `[section][lane]`
//! with one lane per channel, so a single AVX2 instruction advances four
//! channels through a biquad section at once. Like `ml::matexec`, the
//! compiled form changes **where state lives, never what is computed**:
//!
//! * each lane evaluates the direct-form-II-transposed recurrence in the
//!   same operation order as [`crate::biquad::StreamingFilter::step`] — one
//!   multiply, add, subtract sequence per section, no FMA contraction,
//!   no reassociation;
//! * a chain of several cascades ("stages", e.g. band-pass then notch)
//!   reproduces the scalar composition exactly, including the f32
//!   round-trip at each cascade boundary (`StreamingFilter::step`
//!   narrows its accumulator to `f32` between filters);
//! * lanes are independent channels, so vectorizing across them cannot
//!   reorder any channel's accumulation.
//!
//! Dispatch follows the crate-wide policy ([`crate::simd`]): the scalar
//! reference body always exists, AVX2 is selected at runtime, and
//! `COGARM_NO_SIMD=1` pins the scalar body. `tests/tests/filters.rs`
//! locks all of this against golden traces committed before the swap.

use crate::biquad::SosFilter;

/// f64 lanes per AVX2 vector — the channel-block granularity.
pub const LANES: usize = 4;

/// A compiled bank of identical per-channel causal filter chains.
///
/// Built once per session from the designed cascades; advancing a frame
/// mutates only the delay state, so a warm bank performs zero heap
/// allocations.
#[derive(Debug, Clone)]
pub struct FilterBank {
    channels: usize,
    /// `channels` rounded up to a multiple of [`LANES`]; padding lanes
    /// carry exact zeros through every recurrence (zero state, zero
    /// input), so they can never produce denormal drag.
    lanes: usize,
    /// Per-section coefficients `[b0, b1, b2, a1, a2]`, cascade order
    /// across all stages.
    coeffs: Vec<[f64; 5]>,
    /// Exclusive section index ending each stage. The accumulator is
    /// narrowed f64 → f32 → f64 at every stage end, reproducing the
    /// scalar path's per-filter `as f32` narrowing.
    stage_ends: Vec<usize>,
    /// Delay state `z1[section * lanes + lane]`.
    z1: Vec<f64>,
    /// Delay state `z2[section * lanes + lane]`.
    z2: Vec<f64>,
    /// Widened per-lane accumulator scratch.
    acc: Vec<f64>,
    /// Resolved dispatch: run the AVX2 body.
    simd: bool,
}

impl FilterBank {
    /// Compiles `stages` (applied in order, with the scalar path's f32
    /// narrowing between them) into a bank advancing `channels` parallel
    /// chains. Dispatch is resolved here from the crate-wide policy.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or `stages` is empty.
    #[must_use]
    pub fn new(channels: usize, stages: &[&SosFilter]) -> Self {
        Self::with_simd(channels, stages, crate::simd::enabled())
    }

    /// [`FilterBank::new`] with dispatch requested explicitly — the hook
    /// for parity tests that compare both bodies in one process. The
    /// request is still clamped to what the host supports.
    #[must_use]
    pub fn with_simd(channels: usize, stages: &[&SosFilter], simd: bool) -> Self {
        assert!(channels > 0, "a filter bank needs at least one channel");
        assert!(!stages.is_empty(), "a filter bank needs at least one stage");
        let mut coeffs = Vec::new();
        let mut stage_ends = Vec::with_capacity(stages.len());
        for stage in stages {
            for s in stage.sections() {
                coeffs.push([s.b[0], s.b[1], s.b[2], s.a[0], s.a[1]]);
            }
            stage_ends.push(coeffs.len());
        }
        let lanes = channels.div_ceil(LANES) * LANES;
        let simd = simd && host_has_avx2();
        Self {
            channels,
            lanes,
            z1: vec![0.0; coeffs.len() * lanes],
            z2: vec![0.0; coeffs.len() * lanes],
            acc: vec![0.0; lanes],
            coeffs,
            stage_ends,
            simd,
        }
    }

    /// Parallel chains this bank advances.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total biquad sections across all stages.
    #[must_use]
    pub fn sections(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the AVX2 body was selected at build.
    #[must_use]
    pub fn is_simd(&self) -> bool {
        self.simd
    }

    /// Zeroes all delay state (new session).
    pub fn reset(&mut self) {
        self.z1.fill(0.0);
        self.z2.fill(0.0);
        self.acc.fill(0.0);
    }

    /// Advances every channel one sample, in place: `frame[ch]` is the
    /// raw sample in and the fully filtered sample out. Per channel the
    /// result is bit-identical to stepping that channel's scalar
    /// [`crate::biquad::StreamingFilter`] chain.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not exactly [`FilterBank::channels`] long.
    #[inline]
    pub fn step_frame(&mut self, frame: &mut [f32]) {
        assert_eq!(frame.len(), self.channels, "frame width != bank channels");
        for (a, &x) in self.acc.iter_mut().zip(frame.iter()) {
            *a = f64::from(x);
        }
        self.advance();
        for (&a, x) in self.acc.iter().zip(frame.iter_mut()) {
            *x = a as f32;
        }
    }

    /// Advances a frame-major block in place: `data` holds consecutive
    /// frames of [`FilterBank::channels`] samples. The offline zero-phase
    /// fast path drives whole extended signals through this.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of frames.
    pub fn process_frames(&mut self, data: &mut [f32]) {
        assert_eq!(
            data.len() % self.channels,
            0,
            "block is not a whole number of frames"
        );
        for frame in data.chunks_exact_mut(self.channels) {
            self.step_frame(frame);
        }
    }

    /// One state advance over the widened accumulator.
    #[inline]
    fn advance(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: `simd` is only set when AVX2 was detected at build;
            // state and accumulator lengths are fixed at `sections *
            // lanes` / `lanes` with `lanes` a multiple of 4.
            unsafe {
                advance_avx2(
                    &self.coeffs,
                    &self.stage_ends,
                    &mut self.z1,
                    &mut self.z2,
                    &mut self.acc,
                    self.lanes,
                );
            }
            return;
        }
        advance_scalar(
            &self.coeffs,
            &self.stage_ends,
            &mut self.z1,
            &mut self.z2,
            &mut self.acc,
            self.lanes,
        );
    }
}

/// Whether this host can run the AVX2 body at all (independent of the
/// [`crate::simd`] policy — used to clamp explicit dispatch requests).
fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The scalar reference body: for each lane, the exact
/// direct-form-II-transposed recurrence of `StreamingFilter::step`, with the
/// f64 → f32 → f64 narrowing at each stage boundary.
fn advance_scalar(
    coeffs: &[[f64; 5]],
    stage_ends: &[usize],
    z1: &mut [f64],
    z2: &mut [f64],
    acc: &mut [f64],
    lanes: usize,
) {
    let mut s0 = 0usize;
    for &end in stage_ends {
        for (s, c) in coeffs.iter().enumerate().take(end).skip(s0) {
            let base = s * lanes;
            for (l, a) in acc.iter_mut().enumerate() {
                let x = *a;
                let y = c[0] * x + z1[base + l];
                z1[base + l] = (c[1] * x - c[3] * y) + z2[base + l];
                z2[base + l] = c[2] * x - c[4] * y;
                *a = y;
            }
        }
        for a in acc.iter_mut() {
            *a = f64::from(*a as f32);
        }
        s0 = end;
    }
}

/// The AVX2 body: four channels per vector, sections walked with the
/// accumulator held in a register across the whole chain. Uses separate
/// multiply/add/subtract instructions (never FMA) so every lane computes
/// the identical IEEE sequence as [`advance_scalar`]; `vcvtpd2ps` /
/// `vcvtps2pd` at stage ends perform the same round-to-nearest-even
/// narrowing as the scalar `as f32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn advance_avx2(
    coeffs: &[[f64; 5]],
    stage_ends: &[usize],
    z1: &mut [f64],
    z2: &mut [f64],
    acc: &mut [f64],
    lanes: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    debug_assert_eq!(lanes % LANES, 0);
    for blk in (0..lanes).step_by(LANES) {
        let mut v = _mm256_loadu_pd(acc.as_ptr().add(blk));
        let mut s0 = 0usize;
        for &end in stage_ends {
            for s in s0..end {
                let c = coeffs.get_unchecked(s);
                let idx = s * lanes + blk;
                let z1v = _mm256_loadu_pd(z1.as_ptr().add(idx));
                let z2v = _mm256_loadu_pd(z2.as_ptr().add(idx));
                let y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c[0]), v), z1v);
                let n1 = _mm256_add_pd(
                    _mm256_sub_pd(
                        _mm256_mul_pd(_mm256_set1_pd(c[1]), v),
                        _mm256_mul_pd(_mm256_set1_pd(c[3]), y),
                    ),
                    z2v,
                );
                let n2 = _mm256_sub_pd(
                    _mm256_mul_pd(_mm256_set1_pd(c[2]), v),
                    _mm256_mul_pd(_mm256_set1_pd(c[4]), y),
                );
                _mm256_storeu_pd(z1.as_mut_ptr().add(idx), n1);
                _mm256_storeu_pd(z2.as_mut_ptr().add(idx), n2);
                v = y;
            }
            v = _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
            s0 = end;
        }
        _mm256_storeu_pd(acc.as_mut_ptr().add(blk), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biquad::{Biquad, StreamingFilter};

    fn chirpy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.07;
                ((t * t).sin() * 3.0 + (t * 5.0).cos()) as f32
            })
            .collect()
    }

    fn two_stage_filters() -> (SosFilter, SosFilter) {
        let a = SosFilter::new(vec![
            Biquad::new([0.2, 0.4, 0.2], [1.0, -0.5, 0.2]),
            Biquad::new([0.3, -0.1, 0.05], [1.0, -0.6, 0.25]),
        ]);
        let b = SosFilter::new(vec![Biquad::new([0.9, -1.2, 0.9], [1.0, -1.2, 0.8])]);
        (a, b)
    }

    /// The scalar composition the bank replaces: per channel, stage A's
    /// streaming filter into stage B's, f32 between them.
    fn scalar_reference(a: &SosFilter, b: &SosFilter, channels: usize, frames: &[f32]) -> Vec<f32> {
        let mut fa: Vec<StreamingFilter> =
            (0..channels).map(|_| StreamingFilter::new(a.clone())).collect();
        let mut fb: Vec<StreamingFilter> =
            (0..channels).map(|_| StreamingFilter::new(b.clone())).collect();
        frames
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let ch = i % channels;
                fb[ch].step(fa[ch].step(x))
            })
            .collect()
    }

    #[test]
    fn bank_matches_scalar_chains_bit_for_bit() {
        let (a, b) = two_stage_filters();
        for channels in [1usize, 3, 4, 5, 16] {
            let n = 96 * channels;
            let mut data = chirpy(n);
            let want: Vec<u32> = scalar_reference(&a, &b, channels, &data)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let mut bank = FilterBank::new(channels, &[&a, &b]);
            bank.process_frames(&mut data);
            let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(want, got, "channels={channels} simd={}", bank.is_simd());
        }
    }

    #[test]
    fn scalar_and_simd_bodies_agree() {
        let (a, b) = two_stage_filters();
        let channels = 7;
        let mut on_simd = chirpy(64 * channels);
        let mut on_scalar = on_simd.clone();
        let mut bank_simd = FilterBank::with_simd(channels, &[&a, &b], true);
        let mut bank_scalar = FilterBank::with_simd(channels, &[&a, &b], false);
        assert!(!bank_scalar.is_simd());
        bank_simd.process_frames(&mut on_simd);
        bank_scalar.process_frames(&mut on_scalar);
        let s: Vec<u32> = on_simd.iter().map(|v| v.to_bits()).collect();
        let r: Vec<u32> = on_scalar.iter().map(|v| v.to_bits()).collect();
        assert_eq!(s, r);
    }

    #[test]
    fn reset_restores_the_initial_transient() {
        let (a, b) = two_stage_filters();
        let mut bank = FilterBank::new(3, &[&a, &b]);
        let mut first = [1.0f32, -2.0, 0.5];
        bank.step_frame(&mut first);
        bank.reset();
        let mut second = [1.0f32, -2.0, 0.5];
        bank.step_frame(&mut second);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "frame width")]
    fn wrong_frame_width_panics() {
        let (a, _) = two_stage_filters();
        let mut bank = FilterBank::new(4, &[&a]);
        bank.step_frame(&mut [0.0; 3]);
    }
}
