//! Welch power-spectral-density estimation.
//!
//! [`Psd::band_power`] measures band power (mu/beta desynchronization is the
//! discriminative signal for motor imagery) and residual line noise; the
//! figure harnesses and the filter tests read it.

use crate::fft::{bin_frequency, rfft};
use crate::{DspError, Result};

/// A one-sided power spectral density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Frequency of each bin in Hz.
    pub frequencies: Vec<f64>,
    /// Power density at each bin, in (input units)² / Hz.
    pub power: Vec<f64>,
}

impl Psd {
    /// Integrates the PSD over `[low, high)` Hz (trapezoid-free simple sum ×
    /// bin width, which is the convention BrainFlow's `get_band_power` uses).
    #[must_use]
    pub fn band_power(&self, low: f64, high: f64) -> f64 {
        if self.frequencies.len() < 2 {
            return 0.0;
        }
        let df = self.frequencies[1] - self.frequencies[0];
        self.frequencies
            .iter()
            .zip(&self.power)
            .filter(|(f, _)| **f >= low && **f < high)
            .map(|(_, p)| p * df)
            .sum()
    }

    /// Frequency with maximal power in `[low, high)` Hz, if any bin falls in
    /// the range.
    #[must_use]
    pub fn peak_frequency(&self, low: f64, high: f64) -> Option<f64> {
        self.frequencies
            .iter()
            .zip(&self.power)
            .filter(|(f, _)| **f >= low && **f < high)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("psd is finite"))
            .map(|(f, _)| *f)
    }
}

/// Welch PSD with Hann windowing and 50% overlap.
///
/// `segment_len` is rounded down to a power of two internally. Mean is
/// removed per segment (detrend = constant).
///
/// # Errors
///
/// Returns [`DspError::SignalTooShort`] when fewer samples than one segment
/// are provided, and [`DspError::SegmentTooShort`] when `segment_len < 4`.
pub fn welch_psd(signal: &[f32], fs: f64, segment_len: usize) -> Result<Psd> {
    if segment_len < 4 {
        return Err(DspError::SegmentTooShort {
            len: segment_len,
            min: 4,
        });
    }
    let nper = if segment_len.is_power_of_two() {
        segment_len
    } else {
        segment_len.next_power_of_two() / 2
    };
    if signal.len() < nper {
        return Err(DspError::SignalTooShort {
            required: nper,
            actual: signal.len(),
        });
    }

    let hann: Vec<f64> = (0..nper)
        .map(|i| {
            0.5 * (1.0
                - (2.0 * std::f64::consts::PI * i as f64 / (nper as f64 - 1.0)).cos())
        })
        .collect();
    let win_power: f64 = hann.iter().map(|w| w * w).sum();

    let step = nper / 2;
    let n_bins = nper / 2 + 1;
    let mut acc = vec![0.0_f64; n_bins];
    let mut segments = 0usize;

    let mut start = 0;
    while start + nper <= signal.len() {
        let seg = &signal[start..start + nper];
        let mean: f64 = seg.iter().map(|&x| f64::from(x)).sum::<f64>() / nper as f64;
        let windowed: Vec<f32> = seg
            .iter()
            .zip(&hann)
            .map(|(&x, w)| ((f64::from(x) - mean) * w) as f32)
            .collect();
        let spec = rfft(&windowed)?;
        for (k, a) in acc.iter_mut().enumerate() {
            let mut p = spec[k].norm_sqr();
            // One-sided: double everything except DC and Nyquist.
            if k != 0 && k != nper / 2 {
                p *= 2.0;
            }
            *a += p / (fs * win_power);
        }
        segments += 1;
        start += step;
    }

    let frequencies = (0..n_bins).map(|k| bin_frequency(k, nper, fs)).collect();
    let power = acc.into_iter().map(|p| p / segments as f64).collect();
    Ok(Psd { frequencies, power })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 125.0;

    fn tone(f: f64, amp: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (amp * (2.0 * std::f64::consts::PI * f * i as f64 / FS).sin()) as f32)
            .collect()
    }

    #[test]
    fn peak_matches_tone_frequency() {
        let sig = tone(10.0, 1.0, 2000);
        let psd = welch_psd(&sig, FS, 256).unwrap();
        let peak = psd.peak_frequency(1.0, 60.0).unwrap();
        assert!((peak - 10.0).abs() < 0.5, "peak {peak}");
    }

    #[test]
    fn band_power_captures_tone_energy() {
        let sig = tone(10.0, 2.0, 4000);
        let psd = welch_psd(&sig, FS, 256).unwrap();
        // A sine of amplitude 2 has mean-square power 2.
        let alpha = psd.band_power(8.0, 13.0);
        assert!((alpha - 2.0).abs() < 0.2, "alpha power {alpha}");
        // Almost nothing elsewhere.
        assert!(psd.band_power(20.0, 40.0) < 0.05);
    }

    #[test]
    fn white_noise_is_flat() {
        // Deterministic pseudo-noise.
        let mut state = 0x1234_5678_u64;
        let sig: Vec<f32> = (0..8000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / f64::from(u32::MAX) - 0.5) as f32
            })
            .collect();
        let psd = welch_psd(&sig, FS, 256).unwrap();
        let low = psd.band_power(5.0, 25.0) / 20.0;
        let high = psd.band_power(35.0, 55.0) / 20.0;
        let ratio = low / high;
        assert!(ratio > 0.7 && ratio < 1.4, "flatness ratio {ratio}");
    }

    #[test]
    fn too_short_input_rejected() {
        let sig = tone(10.0, 1.0, 100);
        assert!(matches!(
            welch_psd(&sig, FS, 256),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn dc_is_removed_by_detrend() {
        let sig: Vec<f32> = tone(10.0, 1.0, 2000).iter().map(|x| x + 100.0).collect();
        let psd = welch_psd(&sig, FS, 256).unwrap();
        // DC offset must not leak into delta band.
        let delta = psd.band_power(0.0, 1.0);
        assert!(delta < 0.5, "delta power {delta}");
    }
}
