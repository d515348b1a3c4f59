//! Preprocessing chains (Sec. III-A3).
//!
//! Two variants of the same Butterworth-bandpass + 50 Hz-notch chain:
//!
//! * [`OfflineChain`] — zero-phase `filtfilt` for dataset preparation,
//! * [`StreamingChain`] — causal per-channel streaming filters for the
//!   real-time loop (a control loop cannot look into the future).
//!
//! Both are followed by the per-subject z-score normalization of Sec. V-A,
//! whose statistics are fitted on training data and frozen. The two apply
//! those statistics with different rounding: dataset preparation through
//! [`Zscore::apply`] (`(x - mean) * (1 / std)`), the real-time loop through
//! [`StreamingChain::step`] (`(x - mean) / std`), so one filtered value can
//! normalize to different last bits offline and online.

use std::sync::{Arc, Mutex};

use dsp::butterworth::Butterworth;
use dsp::filterbank::FilterBank;
use dsp::filtfilt::ZeroPhaseBank;
use dsp::normalize::Zscore;
use dsp::notch::notch_filter;
use eeg::types::Chunk;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;

use crate::Result;

/// Filter design parameters (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterSpec {
    /// Butterworth prototype order (paper: 9).
    pub order: usize,
    /// Band-pass low edge in Hz (paper: 0.5).
    pub low_hz: f64,
    /// Band-pass high edge in Hz (paper: 45).
    pub high_hz: f64,
    /// Notch centre in Hz (paper: 50).
    pub notch_hz: f64,
    /// Notch quality factor (paper: 30).
    pub notch_q: f64,
}

impl Default for FilterSpec {
    fn default() -> Self {
        Self {
            order: 9,
            low_hz: 0.5,
            high_hz: 45.0,
            notch_hz: 50.0,
            notch_q: 30.0,
        }
    }
}

/// Offline zero-phase preprocessing for dataset preparation. Channels are
/// filtered in blocks of [`dsp::filterbank::LANES`] through compiled
/// [`ZeroPhaseBank`]s, blocks in parallel on an [`ExecPool`]; each block
/// is an independent work item, lanes within a block are independent
/// channels, and results land back in channel order — so the output is
/// bit-identical to the scalar per-channel `filtfilt` at any thread
/// count (locked by `tests/tests/filters.rs` golden traces).
pub struct OfflineChain {
    bandpass: dsp::biquad::SosFilter,
    notch: dsp::biquad::SosFilter,
    pool: Arc<ExecPool>,
    /// Checked-out-and-returned zero-phase scratch, one entry per
    /// concurrently running work item — re-running the chain re-uses
    /// these instead of compiling fresh banks per call.
    scratch: Mutex<Vec<OfflineScratch>>,
}

/// One work item's compiled zero-phase banks (band-pass, then notch).
#[derive(Debug, Clone)]
struct OfflineScratch {
    bandpass: ZeroPhaseBank,
    notch: ZeroPhaseBank,
}

impl std::fmt::Debug for OfflineChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfflineChain")
            .field("bandpass_order", &self.bandpass.order())
            .field("notch_order", &self.notch.order())
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl Clone for OfflineChain {
    fn clone(&self) -> Self {
        Self {
            bandpass: self.bandpass.clone(),
            notch: self.notch.clone(),
            pool: Arc::clone(&self.pool),
            scratch: Mutex::new(Vec::new()),
        }
    }
}

impl OfflineChain {
    /// Designs the chain on the process-wide [`exec::shared`] pool.
    ///
    /// # Errors
    ///
    /// Propagates filter-design errors for out-of-range specs.
    pub fn new(spec: &FilterSpec) -> Result<Self> {
        Self::with_pool(spec, exec::shared())
    }

    /// Designs the chain on an explicit pool.
    ///
    /// # Errors
    ///
    /// Propagates filter-design errors for out-of-range specs.
    pub fn with_pool(spec: &FilterSpec, pool: Arc<ExecPool>) -> Result<Self> {
        Ok(Self {
            bandpass: Butterworth::bandpass(spec.order, spec.low_hz, spec.high_hz, SAMPLE_RATE)?,
            notch: notch_filter(spec.notch_hz, spec.notch_q, SAMPLE_RATE)?,
            pool,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Filters a whole multichannel recording zero-phase, in place, one
    /// channel *block* (a bank's worth of SIMD lanes) per parallel work
    /// item. Zero-phase composition matches the scalar path exactly:
    /// band-pass `filtfilt`, then notch `filtfilt`, per channel.
    ///
    /// # Errors
    ///
    /// Returns an error for recordings shorter than the filtfilt pad.
    pub fn apply(&self, chunk: &mut Chunk) -> Result<()> {
        let per = chunk.samples;
        if per == 0 || chunk.channels == 0 {
            return Ok(());
        }
        let mut blocks: Vec<&mut [f32]> = chunk
            .data
            .chunks_mut(per * dsp::filterbank::LANES)
            .collect();
        let results: Vec<dsp::Result<()>> = self.pool.par_map_mut(&mut blocks, |block| {
            let mut scratch = self
                .scratch
                .lock()
                .expect("offline scratch lock")
                .pop()
                .unwrap_or_else(|| OfflineScratch {
                    bandpass: ZeroPhaseBank::new(&self.bandpass, dsp::filterbank::LANES),
                    notch: ZeroPhaseBank::new(&self.notch, dsp::filterbank::LANES),
                });
            let out = scratch
                .bandpass
                .apply_channel_major(block, per)
                .and_then(|()| scratch.notch.apply_channel_major(block, per));
            self.scratch
                .lock()
                .expect("offline scratch lock")
                .push(scratch);
            out
        });
        for r in results {
            r?;
        }
        Ok(())
    }
}

/// Causal streaming preprocessing for the real-time loop: the band-pass +
/// notch cascade for all channels, compiled into one channel-interleaved
/// [`FilterBank`] with persistent state. Per channel, each step is
/// bit-identical to the per-channel `StreamingFilter` pair it replaced
/// (band-pass, f32 narrowing, notch) — the bank only changes how many
/// channels one instruction advances.
#[derive(Debug, Clone)]
pub struct StreamingChain {
    bank: FilterBank,
    zscore: Option<Zscore>,
}

impl StreamingChain {
    /// Designs the chain for all 16 channels and compiles the execution
    /// form (scalar or AVX2, resolved by [`dsp::simd`]).
    ///
    /// # Errors
    ///
    /// Propagates filter-design errors.
    pub fn new(spec: &FilterSpec) -> Result<Self> {
        let bp = Butterworth::bandpass(spec.order, spec.low_hz, spec.high_hz, SAMPLE_RATE)?;
        let nt = notch_filter(spec.notch_hz, spec.notch_q, SAMPLE_RATE)?;
        Ok(Self {
            bank: FilterBank::new(CHANNELS, &[&bp, &nt]),
            zscore: None,
        })
    }

    /// Installs frozen normalization statistics (fitted on training data).
    pub fn set_normalization(&mut self, zscore: Zscore) {
        self.zscore = Some(zscore);
    }

    /// The installed normalization statistics, if any.
    #[must_use]
    pub fn normalization(&self) -> Option<&Zscore> {
        self.zscore.as_ref()
    }

    /// Processes one multichannel sample in place: the filter bank, then
    /// the installed normalization as `(x - mean) / std`. That division
    /// rounds differently from [`Zscore::apply`]'s multiply by `1 / std`
    /// (see the module docs); both stay as they are until a numerics-version
    /// bump, because either change moves committed bits.
    pub fn step(&mut self, sample: &mut [f32; CHANNELS]) {
        self.bank.step_frame(sample);
        if let Some(z) = &self.zscore {
            for (ch, v) in sample.iter_mut().enumerate() {
                *v = (*v - z.means()[ch]) / z.stds()[ch];
            }
        }
    }

    /// Resets all filter state (new session).
    pub fn reset(&mut self) {
        self.bank.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeg::signal::{SignalGenerator, SubjectParams};
    use eeg::Action;

    #[test]
    fn offline_chain_removes_line_noise() {
        let mut params = SubjectParams::sampled(1);
        params.line_amp = 8.0;
        let mut g = SignalGenerator::new(params, 3);
        let mut chunk = g.generate_action(Action::Idle, 4000);
        let raw_line = dsp::welch::welch_psd(chunk.channel(0), SAMPLE_RATE, 512)
            .unwrap()
            .band_power(49.0, 51.0);
        OfflineChain::new(&FilterSpec::default())
            .unwrap()
            .apply(&mut chunk)
            .unwrap();
        let filt_line = dsp::welch::welch_psd(chunk.channel(0), SAMPLE_RATE, 512)
            .unwrap()
            .band_power(49.0, 51.0);
        assert!(
            filt_line < raw_line / 100.0,
            "line {raw_line} -> {filt_line}"
        );
    }

    #[test]
    fn offline_chain_is_bit_identical_across_thread_counts() {
        let mut g = SignalGenerator::new(SubjectParams::sampled(5), 9);
        let chunk = g.generate_action(Action::Left, 2000);
        let mut reference = chunk.clone();
        OfflineChain::with_pool(&FilterSpec::default(), Arc::new(ExecPool::new(1)))
            .unwrap()
            .apply(&mut reference)
            .unwrap();
        for threads in [2, 4, 8] {
            let mut parallel = chunk.clone();
            OfflineChain::with_pool(&FilterSpec::default(), Arc::new(ExecPool::new(threads)))
                .unwrap()
                .apply(&mut parallel)
                .unwrap();
            let bits_equal = reference
                .data
                .iter()
                .zip(&parallel.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_equal, "threads={threads} diverged");
        }
    }

    #[test]
    fn streaming_chain_converges_to_offline_levels() {
        let mut params = SubjectParams::sampled(2);
        params.line_amp = 8.0;
        let mut g = SignalGenerator::new(params, 4);
        let chunk = g.generate_action(Action::Idle, 4000);
        let mut chain = StreamingChain::new(&FilterSpec::default()).unwrap();
        let per = chunk.samples;
        let mut filtered = vec![0.0f32; CHANNELS * per];
        for i in 0..per {
            let mut s = [0.0f32; CHANNELS];
            for (ch, v) in s.iter_mut().enumerate() {
                *v = chunk.data[ch * per + i];
            }
            chain.step(&mut s);
            for (ch, &v) in s.iter().enumerate() {
                filtered[ch * per + i] = v;
            }
        }
        // After settling, 50 Hz is gone (check the second half).
        let tail = &filtered[per / 2..per]; // channel 0 second half
        let line = dsp::welch::welch_psd(tail, SAMPLE_RATE, 512)
            .unwrap()
            .band_power(49.0, 51.0);
        assert!(line < 0.05, "residual line power {line}");
    }

    #[test]
    fn normalization_is_applied_when_installed() {
        let mut chain = StreamingChain::new(&FilterSpec::default()).unwrap();
        // Fit a z-score with mean 0 / std 2 per channel.
        let data: Vec<f32> = (0..CHANNELS)
            .flat_map(|_| vec![-2.0f32, 2.0, -2.0, 2.0])
            .collect();
        let z = Zscore::fit(&data, CHANNELS).unwrap();
        chain.set_normalization(z);
        let mut s = [1.0f32; CHANNELS];
        chain.step(&mut s);
        // Output scaled by 1/2 relative to the unnormalized path (approximately,
        // modulo filter transient) — just verify it's finite and smaller.
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn reset_restores_initial_transient() {
        let mut chain = StreamingChain::new(&FilterSpec::default()).unwrap();
        let mut a = [1.0f32; CHANNELS];
        chain.step(&mut a);
        chain.reset();
        let mut b = [1.0f32; CHANNELS];
        chain.step(&mut b);
        assert_eq!(a, b);
    }
}
