//! Digital signal processing substrate for the CognitiveArm reproduction.
//!
//! This crate implements, from scratch, every signal-processing primitive the
//! paper's preprocessing stage relies on (Sec. III-A3 and III-B3):
//!
//! * [`butterworth`] — Butterworth low/high/band-pass IIR design via the
//!   bilinear transform, emitted as cascaded second-order sections.
//! * [`notch`] — the 50 Hz powerline notch filter (quality factor 30).
//! * [`biquad`] — the direct-form-II-transposed second-order section used to
//!   run any designed filter, causally or zero-phase ([`filtfilt`]).
//! * [`filterbank`] — the compiled channel-interleaved execution form for
//!   per-channel causal chains: SIMD lanes advance several channels
//!   through a biquad section per instruction, bit-identical to the
//!   scalar runners ([`simd`] holds the crate-wide dispatch policy).
//! * [`fft`] — an iterative radix-2 complex FFT plus real-signal helpers.
//! * [`welch`] — Welch power-spectral-density estimation.
//! * [`features`] — statistical and band-power feature extraction.
//! * [`window`] — sliding-window segmentation (window 100–200, step 25).
//! * [`artifact`] — eye-blink / EMG artifact detection and repair.
//! * [`normalize`] — per-channel z-score normalization (Sec. V-A).
//!
//! # Examples
//!
//! Band-pass an EEG channel exactly like the paper's pipeline:
//!
//! ```
//! use dsp::butterworth::Butterworth;
//! use dsp::notch::notch_filter;
//!
//! # fn main() -> Result<(), dsp::DspError> {
//! let fs = 125.0;
//! let bandpass = Butterworth::bandpass(9, 0.5, 45.0, fs)?;
//! let notch = notch_filter(50.0, 30.0, fs)?;
//!
//! let raw: Vec<f32> = (0..500).map(|i| (i as f32 * 0.1).sin()).collect();
//! let filtered = notch.filter(&bandpass.filter(&raw));
//! assert_eq!(filtered.len(), raw.len());
//! # Ok(())
//! # }
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod artifact;
pub mod biquad;
pub mod butterworth;
pub mod features;
pub mod fft;
pub mod filterbank;
pub mod filtfilt;
pub mod simd;
pub mod normalize;
pub mod notch;
pub mod welch;
pub mod window;

mod error;

pub use error::DspError;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DspError>;
