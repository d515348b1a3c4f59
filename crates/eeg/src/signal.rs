//! Generative model of 16-channel motor-imagery EEG.
//!
//! This is the substitute for the paper's human participants and OpenBCI
//! headset. The model is deliberately physiological rather than a
//! plain class-conditional noise pattern, so the downstream pipeline has to
//! do real work:
//!
//! * **1/f background** per channel (Voss–McCartney pink noise).
//! * **Mu rhythm** (subject-specific 9–11 Hz) generated by two cortical
//!   sources under C3 and C4. Imagining a *right*-hand movement
//!   desynchronizes the *left* hemisphere source (C3) and vice versa — this
//!   contralateral event-related desynchronization (ERD) is the
//!   discriminative signal, exactly what real motor-imagery BCIs decode.
//! * **Beta rhythm** (~20 Hz) co-located with mu, with weaker ERD.
//! * **Occipital alpha** that is slightly stronger while idle.
//! * **Artifacts**: Poisson eye blinks through a frontal dipole, temporal
//!   EMG bursts, 50 Hz line noise, and slow electrode drift.
//! * **ERD dynamics**: desynchronization ramps in/out with a ~0.4 s time
//!   constant when the mental task changes, so windows cut near a cue carry
//!   genuinely ambiguous information (motivating the paper's transition
//!   handling).
//!
//! All randomness flows from an explicit seed; two generators built with the
//! same parameters and seed produce identical signals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::montage;
use crate::types::{Action, Chunk, CHANNELS, SAMPLE_RATE};

/// Latent, per-subject physiology and recording quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubjectParams {
    /// Individual alpha (mu) peak frequency in Hz (population range ≈ 9–11).
    pub alpha_freq: f64,
    /// Resting mu-rhythm amplitude in µV.
    pub mu_amp: f64,
    /// ERD depth in `[0, 1]`: fraction of mu power suppressed contralateral
    /// to the imagined hand.
    pub erd_depth: f64,
    /// Beta-rhythm amplitude in µV.
    pub beta_amp: f64,
    /// Beta ERD depth (weaker than mu).
    pub beta_erd_depth: f64,
    /// Occipital alpha amplitude in µV.
    pub occ_alpha_amp: f64,
    /// Pink-noise background amplitude in µV.
    pub noise_amp: f64,
    /// 50 Hz line-noise amplitude in µV.
    pub line_amp: f64,
    /// Eye blinks per second (≈ 0.2–0.4).
    pub blink_rate: f64,
    /// Blink peak amplitude in µV.
    pub blink_amp: f64,
    /// EMG bursts per second.
    pub emg_rate: f64,
    /// EMG burst amplitude in µV.
    pub emg_amp: f64,
    /// Electrode drift random-walk step in µV.
    pub drift_step: f64,
    /// Per-channel electrode gain spread (multiplicative, around 1).
    pub channel_gains: Vec<f64>,
}

impl SubjectParams {
    /// Draws a plausible subject from population ranges, deterministically
    /// from `seed`.
    #[must_use]
    pub fn sampled(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50b_13c7);
        let channel_gains = (0..CHANNELS)
            .map(|_| rng.gen_range(0.85..1.15))
            .collect();
        Self {
            alpha_freq: rng.gen_range(9.0..11.0),
            mu_amp: rng.gen_range(6.0..9.0),
            erd_depth: rng.gen_range(0.55..0.8),
            beta_amp: rng.gen_range(2.0..3.5),
            beta_erd_depth: rng.gen_range(0.3..0.5),
            occ_alpha_amp: rng.gen_range(3.0..5.0),
            noise_amp: rng.gen_range(3.5..5.5),
            line_amp: rng.gen_range(2.0..6.0),
            blink_rate: rng.gen_range(0.15..0.35),
            blink_amp: rng.gen_range(35.0..70.0),
            emg_rate: rng.gen_range(0.05..0.15),
            emg_amp: rng.gen_range(8.0..16.0),
            drift_step: rng.gen_range(0.01..0.04),
            channel_gains,
        }
    }
}

impl Default for SubjectParams {
    fn default() -> Self {
        Self::sampled(0)
    }
}

/// Voss–McCartney pink-noise generator (one scalar stream).
#[derive(Debug, Clone)]
struct PinkNoise {
    rows: [f64; 8],
    counter: u32,
}

impl PinkNoise {
    fn new(rng: &mut StdRng) -> Self {
        let mut rows = [0.0; 8];
        for r in &mut rows {
            *r = rng.gen_range(-1.0..1.0);
        }
        Self { rows, counter: 0 }
    }

    fn next(&mut self, rng: &mut StdRng) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        let idx = self.counter.trailing_zeros().min(7) as usize;
        self.rows[idx] = rng.gen_range(-1.0..1.0);
        let sum: f64 = self.rows.iter().sum();
        sum / 8.0_f64.sqrt() / 1.2
    }
}

/// A transient artifact event being rendered.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Sample index of the peak.
    peak: u64,
    /// Gaussian width in samples.
    width: f64,
    /// Peak amplitude in µV.
    amp: f64,
    /// `true` for blink (smooth bump), `false` for EMG (noise burst).
    is_blink: bool,
}

/// Streaming EEG generator for one subject.
///
/// Call [`SignalGenerator::set_action`] to change the mental task being
/// simulated, then pull samples with [`SignalGenerator::next_sample`] or
/// whole blocks with [`SignalGenerator::generate`].
#[derive(Debug, Clone)]
pub struct SignalGenerator {
    params: SubjectParams,
    rng: StdRng,
    t: u64,
    action: Action,
    /// Current ERD level per hemisphere, smoothed toward the target.
    erd_left: f64,
    erd_right: f64,
    mu_phase_l: f64,
    mu_phase_r: f64,
    beta_phase_l: f64,
    beta_phase_r: f64,
    occ_phase: f64,
    line_phase: f64,
    pink: Vec<PinkNoise>,
    drift: Vec<f64>,
    events: Vec<Event>,
    couple_left: [f64; 16],
    couple_right: [f64; 16],
    couple_blink: [f64; 16],
    couple_emg: [f64; 16],
    couple_occ: [f64; 16],
    /// Slow amplitude modulation state for the rhythms.
    mu_am: f64,
}

impl SignalGenerator {
    /// Creates a generator for `params`, seeded deterministically.
    #[must_use]
    pub fn new(params: SubjectParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pink = (0..CHANNELS).map(|_| PinkNoise::new(&mut rng)).collect();
        Self {
            params,
            rng,
            t: 0,
            action: Action::Idle,
            erd_left: 0.0,
            erd_right: 0.0,
            mu_phase_l: 0.0,
            mu_phase_r: std::f64::consts::FRAC_PI_3,
            beta_phase_l: 0.7,
            beta_phase_r: 1.9,
            occ_phase: 0.3,
            line_phase: 0.0,
            pink,
            drift: vec![0.0; CHANNELS],
            events: Vec::new(),
            couple_left: montage::left_motor_coupling(),
            couple_right: montage::right_motor_coupling(),
            couple_blink: montage::blink_coupling(),
            couple_emg: montage::emg_coupling(),
            couple_occ: montage::occipital_coupling(),
            mu_am: 1.0,
        }
    }

    /// The subject parameters driving this generator.
    #[must_use]
    pub fn params(&self) -> &SubjectParams {
        &self.params
    }

    /// Current simulated time in samples since construction.
    #[must_use]
    pub fn elapsed_samples(&self) -> u64 {
        self.t
    }

    /// Switches the simulated mental task. ERD ramps toward the new state
    /// with a ~0.4 s time constant rather than switching instantly.
    pub fn set_action(&mut self, action: Action) {
        self.action = action;
    }

    /// Currently simulated mental task.
    #[must_use]
    pub fn action(&self) -> Action {
        self.action
    }

    /// Generates the next multichannel sample (µV per channel).
    pub fn next_sample(&mut self) -> [f32; CHANNELS] {
        let fs = SAMPLE_RATE;
        let dt = 1.0 / fs;
        let two_pi = 2.0 * std::f64::consts::PI;

        // --- ERD dynamics -------------------------------------------------
        // Right-hand imagery suppresses the LEFT hemisphere (C3) source;
        // left-hand imagery suppresses the RIGHT hemisphere (C4) source.
        let (target_l, target_r) = match self.action {
            Action::Right => (1.0, 0.0),
            Action::Left => (0.0, 1.0),
            Action::Idle => (0.0, 0.0),
        };
        // One-pole smoothing, tau ~ 0.4 s.
        let alpha = dt / 0.4;
        self.erd_left += (target_l - self.erd_left) * alpha;
        self.erd_right += (target_r - self.erd_right) * alpha;

        // --- slow amplitude modulation ------------------------------------
        // Rhythm amplitude wanders (real EEG is non-stationary).
        self.mu_am += self.rng.gen_range(-0.02..0.02);
        self.mu_am = self.mu_am.clamp(0.7, 1.3);

        // --- oscillator phases --------------------------------------------
        let jitter = 1.0 + self.rng.gen_range(-0.01..0.01);
        self.mu_phase_l += two_pi * self.params.alpha_freq * jitter * dt;
        self.mu_phase_r += two_pi * self.params.alpha_freq * (2.0 - jitter) * dt;
        self.beta_phase_l += two_pi * (self.params.alpha_freq * 2.05) * dt;
        self.beta_phase_r += two_pi * (self.params.alpha_freq * 2.11) * dt;
        self.occ_phase += two_pi * (self.params.alpha_freq + 0.4) * dt;
        self.line_phase += two_pi * 50.0 * dt;

        let mu_l = self.params.mu_amp
            * self.mu_am
            * (1.0 - self.params.erd_depth * self.erd_left)
            * self.mu_phase_l.sin();
        let mu_r = self.params.mu_amp
            * self.mu_am
            * (1.0 - self.params.erd_depth * self.erd_right)
            * self.mu_phase_r.sin();
        let beta_l = self.params.beta_amp
            * (1.0 - self.params.beta_erd_depth * self.erd_left)
            * self.beta_phase_l.sin();
        let beta_r = self.params.beta_amp
            * (1.0 - self.params.beta_erd_depth * self.erd_right)
            * self.beta_phase_r.sin();
        // Occipital alpha is a touch stronger when idle.
        let occ_gain = if self.action == Action::Idle { 1.15 } else { 0.95 };
        let occ = self.params.occ_alpha_amp * occ_gain * self.occ_phase.sin();
        let line = self.params.line_amp * self.line_phase.sin();

        // --- artifact event scheduling ------------------------------------
        if self.rng.gen_bool((self.params.blink_rate * dt).min(1.0)) {
            self.events.push(Event {
                peak: self.t + (0.12 * fs) as u64,
                width: 0.06 * fs,
                amp: self.params.blink_amp * self.rng.gen_range(0.7..1.3),
                is_blink: true,
            });
        }
        if self.rng.gen_bool((self.params.emg_rate * dt).min(1.0)) {
            self.events.push(Event {
                peak: self.t + (0.2 * fs) as u64,
                width: 0.12 * fs,
                amp: self.params.emg_amp * self.rng.gen_range(0.6..1.4),
                is_blink: false,
            });
        }
        let t_now = self.t;
        let mut blink_v = 0.0;
        let mut emg_env = 0.0;
        self.events.retain(|e| {
            let dt_pk = t_now as f64 - e.peak as f64;
            let g = (-dt_pk * dt_pk / (2.0 * e.width * e.width)).exp();
            if e.is_blink {
                blink_v += e.amp * g;
            } else {
                emg_env += e.amp * g;
            }
            dt_pk < 4.0 * e.width
        });
        let emg_v = emg_env * self.rng.gen_range(-1.0..1.0);

        // --- assemble channels ---------------------------------------------
        let mut out = [0.0f32; CHANNELS];
        for (ch, sample) in out.iter_mut().enumerate() {
            self.drift[ch] += self.rng.gen_range(-self.params.drift_step..self.params.drift_step);
            self.drift[ch] *= 0.9999;
            let pink = self.pink[ch].next(&mut self.rng) * self.params.noise_amp;
            let v = self.couple_left[ch] * (mu_l + beta_l)
                + self.couple_right[ch] * (mu_r + beta_r)
                + self.couple_occ[ch] * occ
                + self.couple_blink[ch] * blink_v
                + self.couple_emg[ch] * emg_v
                + line * (1.0 + 0.1 * self.params.channel_gains[ch])
                + pink
                + self.drift[ch];
            *sample = (v * self.params.channel_gains[ch]) as f32;
        }
        self.t += 1;
        out
    }

    /// Generates `n` samples of the current action as a channel-major chunk.
    pub fn generate(&mut self, n: usize) -> Chunk {
        let mut chunk = Chunk::zeros(CHANNELS, n);
        for i in 0..n {
            let s = self.next_sample();
            for (ch, &v) in s.iter().enumerate() {
                chunk.data[ch * n + i] = v;
            }
        }
        chunk
    }

    /// Generates `n` samples of `action` (convenience for dataset building).
    pub fn generate_action(&mut self, action: Action, n: usize) -> Chunk {
        self.set_action(action);
        self.generate(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montage::Electrode;
    use dsp::welch::welch_psd;

    fn band_power_of(chunk: &Chunk, ch: usize, lo: f64, hi: f64) -> f64 {
        let psd = welch_psd(chunk.channel(ch), SAMPLE_RATE, 256).unwrap();
        psd.band_power(lo, hi)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = SubjectParams::sampled(1);
        let mut a = SignalGenerator::new(p.clone(), 99);
        let mut b = SignalGenerator::new(p, 99);
        let ca = a.generate_action(Action::Left, 500);
        let cb = b.generate_action(Action::Left, 500);
        assert_eq!(ca, cb);
    }

    #[test]
    fn different_seeds_differ() {
        let p = SubjectParams::sampled(1);
        let mut a = SignalGenerator::new(p.clone(), 1);
        let mut b = SignalGenerator::new(p, 2);
        assert_ne!(
            a.generate_action(Action::Idle, 200),
            b.generate_action(Action::Idle, 200)
        );
    }

    #[test]
    fn erd_suppresses_contralateral_mu_power() {
        let mut params = SubjectParams::sampled(3);
        // Remove confounds for a clean physiological check.
        params.line_amp = 0.0;
        params.blink_rate = 0.0;
        params.emg_rate = 0.0;
        let mut g = SignalGenerator::new(params.clone(), 5);

        // Let ERD settle: discard the first 2 s of each condition.
        let n = 4000;
        g.set_action(Action::Right);
        let _ = g.generate(400);
        let right_chunk = g.generate(n);
        g.set_action(Action::Idle);
        let _ = g.generate(400);
        let idle_chunk = g.generate(n);

        let c3 = Electrode::C3.channel();
        let lo = params.alpha_freq - 2.0;
        let hi = params.alpha_freq + 2.0;
        let mu_right = band_power_of(&right_chunk, c3, lo, hi);
        let mu_idle = band_power_of(&idle_chunk, c3, lo, hi);
        // Right-hand imagery must suppress C3 mu power substantially.
        assert!(
            mu_right < mu_idle * 0.7,
            "C3 mu: task {mu_right:.2} vs idle {mu_idle:.2}"
        );
    }

    #[test]
    fn erd_is_lateralized() {
        let mut params = SubjectParams::sampled(4);
        params.line_amp = 0.0;
        params.blink_rate = 0.0;
        params.emg_rate = 0.0;
        let mut g = SignalGenerator::new(params.clone(), 6);
        let n = 4000;
        g.set_action(Action::Left);
        let _ = g.generate(400);
        let left_chunk = g.generate(n);

        let c3 = Electrode::C3.channel();
        let c4 = Electrode::C4.channel();
        let lo = params.alpha_freq - 2.0;
        let hi = params.alpha_freq + 2.0;
        // Left-hand imagery suppresses C4 (right hemisphere), not C3.
        let p_c3 = band_power_of(&left_chunk, c3, lo, hi);
        let p_c4 = band_power_of(&left_chunk, c4, lo, hi);
        assert!(p_c4 < p_c3, "C4 {p_c4:.2} should be below C3 {p_c3:.2}");
    }

    #[test]
    fn line_noise_is_present_at_50hz() {
        let mut params = SubjectParams::sampled(5);
        params.line_amp = 5.0;
        let mut g = SignalGenerator::new(params, 7);
        let chunk = g.generate_action(Action::Idle, 4000);
        let psd = welch_psd(chunk.channel(0), SAMPLE_RATE, 512).unwrap();
        let peak = psd.peak_frequency(45.0, 55.0).unwrap();
        assert!((peak - 50.0).abs() < 1.0, "line peak at {peak}");
    }

    #[test]
    fn blinks_show_up_frontally() {
        let mut params = SubjectParams::sampled(6);
        params.blink_rate = 2.0; // very blinky for the test
        params.line_amp = 0.0;
        let mut g = SignalGenerator::new(params, 8);
        let chunk = g.generate_action(Action::Idle, 2500);
        let fp1 = chunk.channel(Electrode::Fp1.channel());
        let o1 = chunk.channel(Electrode::O1.channel());
        let peak = |s: &[f32]| s.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(peak(fp1) > 2.0 * peak(o1), "fp1 {} o1 {}", peak(fp1), peak(o1));
    }

    #[test]
    fn amplitude_is_physiological() {
        let mut g = SignalGenerator::new(SubjectParams::sampled(7), 9);
        let chunk = g.generate_action(Action::Idle, 2000);
        for ch in 0..CHANNELS {
            let s = chunk.channel(ch);
            let rms =
                (s.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / s.len() as f64).sqrt();
            assert!(rms > 1.0 && rms < 60.0, "channel {ch} rms {rms}");
        }
    }

    #[test]
    fn elapsed_samples_advances() {
        let mut g = SignalGenerator::new(SubjectParams::default(), 1);
        assert_eq!(g.elapsed_samples(), 0);
        let _ = g.generate(100);
        assert_eq!(g.elapsed_samples(), 100);
    }
}
