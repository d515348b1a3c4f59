//! Per-channel z-score normalization.
//!
//! Sec. V-A: "we normalized EEG data using the mean and standard deviation of
//! each participant's readings" — a fit/transform pair so the statistics are
//! estimated on training data only and reused at inference time.
//!
//! The real-time loop applies the same frozen statistics but not the same
//! rounding: [`Zscore::apply`] multiplies by `1 / std`, while core's
//! `StreamingChain::step` divides by `std`. The two results can differ in
//! the last bit (about 4 in 10 samples for a std of 23.3), so one filtered
//! value can normalize to different bits in training and in serving. Unifying
//! them moves the bits of every trained fixture or of every golden trace,
//! so it waits for a numerics-version bump.

use serde::{Deserialize, Serialize};

use crate::{DspError, Result};

/// A fitted per-channel z-score transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zscore {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl Zscore {
    /// Fits means and standard deviations on channel-major data
    /// (`channels` rows of equal length).
    ///
    /// Standard deviations below `1e-6` are clamped to 1 so constant channels
    /// normalize to zero instead of exploding.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::ChannelMismatch`] when `channels` is zero or the
    /// data length is not divisible by `channels`, and
    /// [`DspError::SignalTooShort`] on empty data.
    pub fn fit(data: &[f32], channels: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(DspError::SignalTooShort {
                required: 1,
                actual: 0,
            });
        }
        if channels == 0 || !data.len().is_multiple_of(channels) {
            return Err(DspError::ChannelMismatch {
                values: data.len(),
                channels,
            });
        }
        let per = data.len() / channels;
        let mut means = Vec::with_capacity(channels);
        let mut stds = Vec::with_capacity(channels);
        for ch in 0..channels {
            let row = &data[ch * per..(ch + 1) * per];
            let mean = row.iter().map(|&x| f64::from(x)).sum::<f64>() / per as f64;
            let var = row
                .iter()
                .map(|&x| (f64::from(x) - mean).powi(2))
                .sum::<f64>()
                / per as f64;
            means.push(mean as f32);
            let std = var.sqrt() as f32;
            stds.push(if std < 1e-6 { 1.0 } else { std });
        }
        Ok(Self { means, stds })
    }

    /// Reassembles a transform from previously fitted statistics (the
    /// model-persistence load path).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidStatistics`] when the vectors are empty,
    /// differ in length, or any statistic is non-finite or the standard
    /// deviation is not strictly positive (the streaming path divides by
    /// it).
    pub fn from_parts(means: Vec<f32>, stds: Vec<f32>) -> Result<Self> {
        let valid = !means.is_empty()
            && means.len() == stds.len()
            && means.iter().all(|m| m.is_finite())
            && stds.iter().all(|s| s.is_finite() && *s > 0.0);
        if !valid {
            return Err(DspError::InvalidStatistics {
                means: means.len(),
                stds: stds.len(),
            });
        }
        Ok(Self { means, stds })
    }

    /// Number of channels this transform was fitted on.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.means.len()
    }

    /// Per-channel means.
    #[must_use]
    pub fn means(&self) -> &[f32] {
        &self.means
    }

    /// Per-channel standard deviations (clamped).
    #[must_use]
    pub fn stds(&self) -> &[f32] {
        &self.stds
    }

    /// Applies the transform in place to channel-major data with any number
    /// of samples per channel, as `(x - mean) * (1 / std)` (see the module
    /// docs for how this rounds against the streaming path).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::ChannelMismatch`] if the data length is not
    /// divisible by the fitted channel count.
    pub fn apply(&self, data: &mut [f32]) -> Result<()> {
        let channels = self.channels();
        if channels == 0 || !data.len().is_multiple_of(channels) {
            return Err(DspError::ChannelMismatch {
                values: data.len(),
                channels,
            });
        }
        let per = data.len() / channels;
        for ch in 0..channels {
            let mean = self.means[ch];
            let inv = 1.0 / self.stds[ch];
            for x in &mut data[ch * per..(ch + 1) * per] {
                *x = (*x - mean) * inv;
            }
        }
        Ok(())
    }

    /// Convenience: fit on `data` and normalize it in place.
    ///
    /// # Errors
    ///
    /// Same as [`Zscore::fit`].
    pub fn fit_transform(data: &mut [f32], channels: usize) -> Result<Self> {
        let z = Self::fit(data, channels)?;
        z.apply(data)?;
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_channels_have_zero_mean_unit_std() {
        let mut data: Vec<f32> = (0..200).map(|i| 3.0 + 2.0 * (i as f32 * 0.1).sin()).collect();
        data.extend((0..200).map(|i| -5.0 + 0.5 * (i as f32 * 0.3).cos()));
        let _z = Zscore::fit_transform(&mut data, 2).unwrap();
        for ch in 0..2 {
            let row = &data[ch * 200..(ch + 1) * 200];
            let mean: f32 = row.iter().sum::<f32>() / 200.0;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 200.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn constant_channel_does_not_explode() {
        let mut data = vec![7.0_f32; 100];
        let z = Zscore::fit_transform(&mut data, 1).unwrap();
        assert_eq!(z.stds()[0], 1.0);
        assert!(data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transform_reuses_training_statistics() {
        let train: Vec<f32> = (0..100).map(|i| i as f32).collect(); // mean 49.5
        let z = Zscore::fit(&train, 1).unwrap();
        let mut test = vec![49.5_f32; 10];
        z.apply(&mut test).unwrap();
        assert!(test.iter().all(|&x| x.abs() < 1e-4));
    }

    #[test]
    fn apply_accepts_different_length_same_channels() {
        let train = vec![0.0_f32, 1.0, 2.0, 10.0, 11.0, 12.0];
        let z = Zscore::fit(&train, 2).unwrap();
        let mut window = vec![1.0_f32, 1.0, 11.0, 11.0]; // 2 channels x 2 samples
        assert!(z.apply(&mut window).is_ok());
    }

    #[test]
    fn rejects_mismatched_layout() {
        let z = Zscore::fit(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let mut bad = vec![0.0_f32; 5];
        assert!(z.apply(&mut bad).is_err());
        assert!(Zscore::fit(&[], 2).is_err());
        assert!(Zscore::fit(&[1.0; 10], 3).is_err());
    }
}
