//! Zero-phase (forward-backward) filtering.
//!
//! Offline dataset preparation can afford non-causal filtering, which removes
//! the phase distortion a causal IIR pass introduces. `filtfilt` runs the
//! cascade forward, reverses, runs it again and reverses back, with odd
//! reflection padding at both ends to suppress edge transients (the same
//! strategy as scipy's `filtfilt`).
//!
//! The real-time control loop cannot look ahead, so it filters causally
//! through a [`FilterBank`] (core's `StreamingChain`); the ablation bench
//! `fig5` quantifies the difference.

use crate::biquad::SosFilter;
use crate::filterbank::FilterBank;
use crate::{DspError, Result};

/// The odd-reflection pad length for `filter`.
fn reflection_pad(filter: &SosFilter) -> usize {
    3 * (filter.order() + 1)
}

/// Applies `filter` with zero phase distortion.
///
/// The effective magnitude response is the square of the cascade's, so the
/// -3 dB point moves slightly inward; this matches standard practice.
///
/// # Errors
///
/// Returns [`DspError::SignalTooShort`] when the signal is shorter than the
/// reflection pad (3 × filter order + 3 samples).
pub fn filtfilt(filter: &SosFilter, signal: &[f32]) -> Result<Vec<f32>> {
    let pad = reflection_pad(filter);
    if signal.len() <= pad {
        return Err(DspError::SignalTooShort {
            required: pad + 1,
            actual: signal.len(),
        });
    }

    // Odd reflection about the first/last sample: 2*edge - x.
    let mut extended = Vec::with_capacity(signal.len() + 2 * pad);
    let first = signal[0];
    let last = signal[signal.len() - 1];
    for i in (1..=pad).rev() {
        extended.push(2.0 * first - signal[i]);
    }
    extended.extend_from_slice(signal);
    for i in (signal.len() - pad - 1..signal.len() - 1).rev() {
        extended.push(2.0 * last - signal[i]);
    }

    let mut filtered = filter.filter(&extended);
    filtered.reverse();
    let mut out = filter.filter(&filtered);
    out.reverse();
    Ok(out[pad..pad + signal.len()].to_vec())
}

/// Zero-phase filtering over a block of channels through a compiled
/// [`FilterBank`] — the offline fast path. One forward and one reverse
/// pass advance every channel in SIMD lanes; per channel the output is
/// bit-identical to [`filtfilt`] on that channel alone, because lanes are
/// independent and each evaluates the scalar operation sequence.
#[derive(Debug, Clone)]
pub struct ZeroPhaseBank {
    bank: FilterBank,
    pad: usize,
    /// Frame-major interleaved extended block (reused across calls).
    ext: Vec<f32>,
}

impl ZeroPhaseBank {
    /// Compiles `filter` into a bank over `channels` parallel lanes.
    #[must_use]
    pub fn new(filter: &SosFilter, channels: usize) -> Self {
        Self {
            bank: FilterBank::new(channels, &[filter]),
            pad: reflection_pad(filter),
            ext: Vec::new(),
        }
    }

    /// Lanes compiled into the bank — the widest block one
    /// [`ZeroPhaseBank::apply_channel_major`] call can filter.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.bank.channels()
    }

    /// Zero-phase filters a channel-major block in place: `block` holds
    /// up to [`ZeroPhaseBank::channels`] rows of `per` samples each.
    /// Unused lanes carry zeros. Zero steady-state allocations once the
    /// scratch has warmed to the block shape.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when rows are shorter than
    /// the reflection pad.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a whole number of rows or holds more
    /// rows than the bank has lanes.
    pub fn apply_channel_major(&mut self, block: &mut [f32], per: usize) -> Result<()> {
        assert_eq!(block.len() % per.max(1), 0, "block is not whole rows");
        let width = block.len().checked_div(per).unwrap_or(0);
        assert!(width <= self.bank.channels(), "block wider than the bank");
        let pad = self.pad;
        if per <= pad {
            return Err(DspError::SignalTooShort {
                required: pad + 1,
                actual: per,
            });
        }
        let lanes = self.bank.channels();
        let frames = per + 2 * pad;
        self.ext.clear();
        self.ext.resize(frames * lanes, 0.0);

        // Gather: odd reflection per lane, interleaved frame-major.
        for (c, row) in block.chunks_exact(per).enumerate() {
            let first = row[0];
            let last = row[per - 1];
            for j in 0..pad {
                self.ext[j * lanes + c] = 2.0 * first - row[pad - j];
            }
            for (j, &v) in row.iter().enumerate() {
                self.ext[(pad + j) * lanes + c] = v;
            }
            for j in 0..pad {
                self.ext[(pad + per + j) * lanes + c] = 2.0 * last - row[per - 2 - j];
            }
        }

        // Forward, reverse, forward, reverse — the filtfilt sequence,
        // with frame reversal standing in for per-channel reversal.
        self.bank.reset();
        self.bank.process_frames(&mut self.ext);
        reverse_frames(&mut self.ext, lanes);
        self.bank.reset();
        self.bank.process_frames(&mut self.ext);
        reverse_frames(&mut self.ext, lanes);

        // Scatter the unpadded span back.
        for (c, row) in block.chunks_exact_mut(per).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = self.ext[(pad + j) * lanes + c];
            }
        }
        Ok(())
    }
}

/// Reverses the frame order of an interleaved block in place (each
/// lane's sequence reverses; lanes stay put).
fn reverse_frames(data: &mut [f32], lanes: usize) {
    let frames = data.len() / lanes;
    for i in 0..frames / 2 {
        let j = frames - 1 - i;
        for l in 0..lanes {
            data.swap(i * lanes + l, j * lanes + l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterworth::Butterworth;

    const FS: f64 = 125.0;

    fn tone(f: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / FS).sin() as f32)
            .collect()
    }

    #[test]
    fn preserves_length() {
        let f = Butterworth::bandpass(4, 0.5, 45.0, FS).unwrap();
        let x = tone(10.0, 500);
        let y = filtfilt(&f, &x).unwrap();
        assert_eq!(y.len(), x.len());
    }

    #[test]
    fn zero_phase_on_in_band_tone() {
        // A 10 Hz tone through a 0.5-45 Hz bandpass should come back nearly
        // unchanged AND phase-aligned (cross-correlation peak at lag 0).
        let f = Butterworth::bandpass(4, 0.5, 45.0, FS).unwrap();
        let x = tone(10.0, 1000);
        let y = filtfilt(&f, &x).unwrap();

        let corr_at = |lag: i64| -> f64 {
            let mut s = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                let j = i as i64 + lag;
                if j >= 0 && (j as usize) < y.len() {
                    s += f64::from(xi) * f64::from(y[j as usize]);
                }
            }
            s
        };
        let c0 = corr_at(0);
        for lag in [-3, -2, -1, 1, 2, 3] {
            assert!(c0 > corr_at(lag), "lag {lag} beats zero lag");
        }
    }

    #[test]
    fn causal_filter_does_have_phase_lag() {
        // Sanity check that the zero-phase property above is non-trivial: the
        // causal pass of the same filter shifts the tone.
        let f = Butterworth::bandpass(4, 2.0, 30.0, FS).unwrap();
        let x = tone(10.0, 1000);
        let y = f.filter(&x);
        let dot: f64 = x
            .iter()
            .zip(&y)
            .skip(200)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let xx: f64 = x.iter().skip(200).map(|&a| f64::from(a).powi(2)).sum();
        // Normalized in-phase component well below 1 -> phase lag exists.
        assert!(dot / xx < 0.995);
    }

    #[test]
    fn too_short_signal_is_rejected() {
        let f = Butterworth::bandpass(9, 0.5, 45.0, FS).unwrap();
        let x = vec![0.0_f32; 20];
        assert!(matches!(
            filtfilt(&f, &x),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn zero_phase_bank_matches_filtfilt_bit_for_bit() {
        let f = Butterworth::bandpass(5, 1.0, 40.0, FS).unwrap();
        for width in [1usize, 2, 4] {
            let per = 300;
            let mut block: Vec<f32> = (0..width * per)
                .map(|i| ((i * 29 + 7) % 101) as f32 * 0.04 - 2.0)
                .collect();
            let want: Vec<Vec<f32>> = block
                .chunks_exact(per)
                .map(|row| filtfilt(&f, row).unwrap())
                .collect();
            let mut zp = ZeroPhaseBank::new(&f, 4);
            zp.apply_channel_major(&mut block, per).unwrap();
            for (c, row) in block.chunks_exact(per).enumerate() {
                let same = want[c].iter().zip(row).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "width {width} channel {c} diverged");
            }
        }
    }

    #[test]
    fn zero_phase_bank_rejects_short_rows() {
        let f = Butterworth::bandpass(9, 0.5, 45.0, FS).unwrap();
        let mut block = vec![0.0f32; 4 * 20];
        let mut zp = ZeroPhaseBank::new(&f, 4);
        assert!(matches!(
            zp.apply_channel_major(&mut block, 20),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn suppresses_out_of_band_better_than_single_pass() {
        let f = Butterworth::bandpass(2, 0.5, 20.0, FS).unwrap();
        let x = tone(25.0, 2000);
        let zero_phase = filtfilt(&f, &x).unwrap();
        let causal = f.filter(&x);
        let rms = |v: &[f32]| {
            (v.iter().skip(500).map(|&s| f64::from(s).powi(2)).sum::<f64>()
                / (v.len() - 500) as f64)
                .sqrt()
        };
        // Two passes double the stop-band attenuation in dB.
        assert!(rms(&zero_phase) < rms(&causal));
    }
}
