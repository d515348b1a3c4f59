//! Butterworth IIR filter design via the bilinear transform.
//!
//! The paper's preprocessing uses a "9th-order Butterworth bandpass filter"
//! retaining 0.5–45 Hz (Sec. III-A3). We reproduce the standard design
//! procedure used by scientific toolkits (and by BrainFlow internally):
//!
//! 1. place the analog low-pass prototype poles on the Butterworth circle,
//! 2. pre-warp the digital corner frequencies,
//! 3. apply the analog low-pass → {low, high, band}-pass transform,
//! 4. map poles/zeros to the z-domain with the bilinear transform,
//! 5. pair conjugate roots into second-order sections, and
//! 6. normalize the cascade gain at a reference frequency.
//!
//! A low-pass prototype of order `n` yields `n` poles for low/high-pass and
//! `2n` for band-pass, so a 9th-order band-pass here is a cascade of nine
//! biquads (18 poles), matching `scipy.signal.butter(9, [lo, hi], "band")`.

use crate::biquad::{Biquad, SosFilter};
use crate::fft::Complex64;
use crate::{DspError, Result};

/// Butterworth filter designer.
///
/// This type is a namespace for the design constructors; the designed filter
/// itself is an [`SosFilter`].
#[derive(Debug, Clone, Copy)]
pub struct Butterworth;

/// The highest prototype order the designer accepts. The paper uses 9;
/// the ceiling exists so a forged order (say, from a corrupt artifact)
/// is a typed error instead of an arithmetic overflow or a pole vector
/// sized by it.
pub const MAX_ORDER: usize = 64;

impl Butterworth {
    /// Designs a digital low-pass filter of the given order.
    ///
    /// # Errors
    ///
    /// Returns an error when `order` is outside `1..=`[`MAX_ORDER`] or
    /// `cutoff` is outside `(0, fs / 2)`.
    pub fn lowpass(order: usize, cutoff: f64, fs: f64) -> Result<SosFilter> {
        validate(order, cutoff, fs)?;
        let warped = prewarp(cutoff, fs);
        let poles: Vec<Complex64> = prototype_poles(order)
            .into_iter()
            .map(|p| p.scale(warped))
            .collect();
        // n zeros at s = infinity -> z = -1 after bilinear.
        let zeros = vec![];
        let sos = bilinear_to_sos(&poles, &zeros, order, fs, ZeroKind::AtMinusOne);
        Ok(normalized(sos, 0.0, fs))
    }

    /// Designs a digital high-pass filter of the given order.
    ///
    /// # Errors
    ///
    /// Returns an error when `order` is outside `1..=`[`MAX_ORDER`] or
    /// `cutoff` is outside `(0, fs / 2)`.
    pub fn highpass(order: usize, cutoff: f64, fs: f64) -> Result<SosFilter> {
        validate(order, cutoff, fs)?;
        let warped = prewarp(cutoff, fs);
        let poles: Vec<Complex64> = prototype_poles(order)
            .into_iter()
            .map(|p| Complex64::new(warped, 0.0) / p)
            .collect();
        // n zeros at s = 0 -> z = +1 after bilinear.
        let zeros = vec![Complex64::zero(); order];
        let sos = bilinear_to_sos(&poles, &zeros, order, fs, ZeroKind::Explicit);
        Ok(normalized(sos, fs / 2.0 * 0.999, fs))
    }

    /// Designs a digital band-pass filter.
    ///
    /// `order` is the low-pass prototype order; the resulting filter has
    /// `2 * order` poles (`order` biquad sections), which matches the
    /// convention of scipy's `butter(order, [low, high], "band")`.
    ///
    /// # Errors
    ///
    /// Returns an error when `order` is outside `1..=`[`MAX_ORDER`],
    /// either edge is outside `(0, fs / 2)`, or `low >= high`.
    pub fn bandpass(order: usize, low: f64, high: f64, fs: f64) -> Result<SosFilter> {
        if order == 0 {
            return Err(DspError::ZeroOrder);
        }
        if low >= high {
            return Err(DspError::InvalidBand { low, high });
        }
        validate(order, low, fs)?;
        validate(order, high, fs)?;

        let w1 = prewarp(low, fs);
        let w2 = prewarp(high, fs);
        let bw = w2 - w1;
        let w0 = (w1 * w2).sqrt();

        // LP->BP: each prototype pole p maps to the two roots of
        //   s^2 - (p * bw) s + w0^2 = 0.
        let mut poles = Vec::with_capacity(2 * order);
        for p in prototype_poles(order) {
            let half = p.scale(bw / 2.0);
            let disc = (half * half - Complex64::new(w0 * w0, 0.0)).sqrt();
            poles.push(half + disc);
            poles.push(half - disc);
        }
        // order zeros at s = 0 (-> z = +1) and order at infinity (-> z = -1).
        let zeros = vec![Complex64::zero(); order];
        let sos = bilinear_to_sos(&poles, &zeros, 2 * order, fs, ZeroKind::Mixed);
        Ok(normalized(sos, w0_to_hz(w0, fs), fs))
    }
}

/// Converts a warped analog angular frequency back to the digital frequency
/// in Hz it corresponds to under the bilinear transform.
fn w0_to_hz(w0: f64, fs: f64) -> f64 {
    (w0 / (2.0 * fs)).atan() * fs / std::f64::consts::PI
}

fn validate(order: usize, f: f64, fs: f64) -> Result<()> {
    if order == 0 {
        return Err(DspError::ZeroOrder);
    }
    if order > MAX_ORDER {
        return Err(DspError::OrderTooLarge {
            order,
            max: MAX_ORDER,
        });
    }
    if !(f > 0.0 && f < fs / 2.0) {
        return Err(DspError::InvalidFrequency {
            frequency: f,
            sample_rate: fs,
        });
    }
    Ok(())
}

/// Pre-warps a digital corner frequency (Hz) to the analog angular frequency
/// used by the bilinear transform.
fn prewarp(f: f64, fs: f64) -> f64 {
    2.0 * fs * (std::f64::consts::PI * f / fs).tan()
}

/// Poles of the analog Butterworth low-pass prototype (cutoff 1 rad/s),
/// left-half-plane only.
fn prototype_poles(order: usize) -> Vec<Complex64> {
    (0..order)
        .map(|k| {
            let theta = std::f64::consts::PI * (2.0 * k as f64 + order as f64 + 1.0)
                / (2.0 * order as f64);
            Complex64::from_polar(1.0, theta)
        })
        .collect()
}

/// How the numerator zeros of the digital filter are laid out.
enum ZeroKind {
    /// All zeros at z = -1 (low-pass).
    AtMinusOne,
    /// Zeros given explicitly in the analog domain (high-pass: all at s=0).
    Explicit,
    /// Band-pass: one z=+1 and one z=-1 zero per section.
    Mixed,
}

/// Bilinear transform of analog poles (and optionally zeros) into z-domain
/// biquad sections. `n_poles` is the total analog pole count; zeros at
/// infinity are implied to fill the numerator degree.
fn bilinear_to_sos(
    poles: &[Complex64],
    analog_zeros: &[Complex64],
    n_poles: usize,
    fs: f64,
    kind: ZeroKind,
) -> SosFilter {
    debug_assert_eq!(poles.len(), n_poles);
    let two_fs = Complex64::new(2.0 * fs, 0.0);
    let bilinear =
        |s: Complex64| -> Complex64 { (two_fs + s) / (two_fs - s) };

    let z_poles: Vec<Complex64> = poles.iter().map(|&p| bilinear(p)).collect();
    let _ = analog_zeros;

    // Pair poles: conjugate pairs first (take those with positive imaginary
    // part), then real poles two at a time (one real pole left over for odd
    // counts pairs with an implicit pole at the origin, i.e. a first-order
    // section expressed as a biquad with a2 = 0).
    let eps = 1e-10;
    let mut complex_ps: Vec<Complex64> =
        z_poles.iter().copied().filter(|p| p.im > eps).collect();
    // Stable ordering: by |p| then angle, so designs are deterministic.
    complex_ps.sort_by(|a, b| {
        a.norm_sqr()
            .partial_cmp(&b.norm_sqr())
            .unwrap()
            .then(a.im.partial_cmp(&b.im).unwrap())
    });
    let mut real_ps: Vec<f64> = z_poles
        .iter()
        .filter(|p| p.im.abs() <= eps)
        .map(|p| p.re)
        .collect();
    real_ps.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut sections = Vec::new();
    for p in complex_ps {
        // (1 - p z^-1)(1 - p* z^-1) = 1 - 2 Re(p) z^-1 + |p|^2 z^-2.
        let a = [1.0, -2.0 * p.re, p.norm_sqr()];
        sections.push(make_section(a, &kind));
    }
    while real_ps.len() >= 2 {
        let p1 = real_ps.pop().expect("len checked");
        let p2 = real_ps.pop().expect("len checked");
        let a = [1.0, -(p1 + p2), p1 * p2];
        sections.push(make_section(a, &kind));
    }
    if let Some(p) = real_ps.pop() {
        // First-order remainder.
        let a = [1.0, -p, 0.0];
        let b = match kind {
            ZeroKind::AtMinusOne => [1.0, 1.0, 0.0],
            ZeroKind::Explicit => [1.0, -1.0, 0.0],
            // For band-pass the leftover real pole still needs one zero; give
            // it the z=+1 zero (the matching z=-1 zero went to another
            // section via the Mixed allocation below which always emits both,
            // so in practice band-pass never reaches this arm: pole counts
            // are even).
            ZeroKind::Mixed => [1.0, -1.0, 0.0],
        };
        sections.push(Biquad::new(b, a));
    }
    SosFilter::new(sections)
}

fn make_section(a: [f64; 3], kind: &ZeroKind) -> Biquad {
    let b = match kind {
        // (1 + z^-1)^2
        ZeroKind::AtMinusOne => [1.0, 2.0, 1.0],
        // (1 - z^-1)^2
        ZeroKind::Explicit => [1.0, -2.0, 1.0],
        // (1 - z^-1)(1 + z^-1) = 1 - z^-2
        ZeroKind::Mixed => [1.0, 0.0, -1.0],
    };
    Biquad::new(b, a)
}

/// Normalizes the cascade so its magnitude is exactly 1 at `f_ref` Hz.
fn normalized(mut sos: SosFilter, f_ref: f64, fs: f64) -> SosFilter {
    let g = sos.magnitude_at(f_ref, fs);
    if g > 0.0 && g.is_finite() {
        sos.scale_gain(1.0 / g);
    }
    sos
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 125.0;

    #[test]
    fn paper_bandpass_design_is_stable() {
        let f = Butterworth::bandpass(9, 0.5, 45.0, FS).unwrap();
        assert!(f.is_stable());
        assert_eq!(f.sections().len(), 9);
        assert_eq!(f.order(), 18);
    }

    #[test]
    fn bandpass_passes_band_and_rejects_stopbands() {
        let f = Butterworth::bandpass(4, 0.5, 45.0, FS).unwrap();
        // Mid-band close to unity.
        let mid = f.magnitude_at(10.0, FS);
        assert!((mid - 1.0).abs() < 0.05, "mid-band gain {mid}");
        // DC fully rejected.
        assert!(f.magnitude_at(0.0, FS) < 1e-6);
        // Above the band heavily attenuated.
        assert!(f.magnitude_at(60.0, FS) < 0.05);
        // Near Nyquist rejected.
        assert!(f.magnitude_at(62.0, FS) < 0.05);
    }

    #[test]
    fn lowpass_attenuates_high_frequencies() {
        let f = Butterworth::lowpass(5, 20.0, FS).unwrap();
        assert!(f.is_stable());
        assert!((f.magnitude_at(1.0, FS) - 1.0).abs() < 0.01);
        // -3 dB at the corner.
        let corner = f.magnitude_at(20.0, FS);
        assert!(
            (corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "corner gain {corner}"
        );
        assert!(f.magnitude_at(50.0, FS) < 0.01);
    }

    #[test]
    fn highpass_attenuates_low_frequencies() {
        let f = Butterworth::highpass(4, 5.0, FS).unwrap();
        assert!(f.is_stable());
        assert!(f.magnitude_at(0.1, FS) < 0.01);
        assert!((f.magnitude_at(30.0, FS) - 1.0).abs() < 0.02);
        let corner = f.magnitude_at(5.0, FS);
        assert!(
            (corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "corner gain {corner}"
        );
    }

    #[test]
    fn odd_order_lowpass_works() {
        for order in [1, 3, 7, 9] {
            let f = Butterworth::lowpass(order, 15.0, FS).unwrap();
            assert!(f.is_stable(), "order {order} unstable");
            assert!((f.magnitude_at(0.5, FS) - 1.0).abs() < 0.02);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            Butterworth::lowpass(0, 10.0, FS),
            Err(DspError::ZeroOrder)
        ));
        assert!(matches!(
            Butterworth::lowpass(4, 80.0, FS),
            Err(DspError::InvalidFrequency { .. })
        ));
        assert!(matches!(
            Butterworth::bandpass(4, 45.0, 0.5, FS),
            Err(DspError::InvalidBand { .. })
        ));
        assert!(matches!(
            Butterworth::bandpass(4, 0.0, 45.0, FS),
            Err(DspError::InvalidBand { .. }) | Err(DspError::InvalidFrequency { .. })
        ));
    }

    #[test]
    fn orders_above_the_ceiling_are_typed_errors() {
        // A forged order must be refused before it sizes anything — the
        // largest orders used to overflow `2 * order` in the design.
        assert!(Butterworth::bandpass(MAX_ORDER, 0.5, 45.0, FS).is_ok());
        for order in [MAX_ORDER + 1, 1 << 40, usize::MAX] {
            assert!(matches!(
                Butterworth::bandpass(order, 0.5, 45.0, FS),
                Err(DspError::OrderTooLarge { max: MAX_ORDER, .. })
            ));
            assert!(matches!(
                Butterworth::lowpass(order, 10.0, FS),
                Err(DspError::OrderTooLarge { .. })
            ));
            assert!(matches!(
                Butterworth::highpass(order, 10.0, FS),
                Err(DspError::OrderTooLarge { .. })
            ));
        }
    }

    #[test]
    fn paper_bandpass_impulse_response_is_sane() {
        // Impulse-response sanity for the paper's 9th-order 0.5–45 Hz design:
        // finite everywhere, energy concentrated early, tail decayed.
        let f = Butterworth::bandpass(9, 0.5, 45.0, FS).unwrap();
        let mut x = vec![0.0_f32; 4096];
        x[0] = 1.0;
        let h = f.filter(&x);
        assert!(h.iter().all(|v| v.is_finite()));
        let energy = |s: &[f32]| s.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>();
        let total = energy(&h);
        assert!(total > 0.0);
        // The band-pass has a slow 0.5 Hz edge (multi-second settling), but
        // at 125 Hz the first ~8 s must hold nearly all the energy…
        assert!(energy(&h[..1024]) / total > 0.99, "impulse energy arrives late");
        // …and the final second must be essentially silent.
        assert!(energy(&h[3968..]) / total < 1e-6, "impulse tail never decays");
    }

    #[test]
    fn bandpass_monotone_rolloff_outside_band() {
        let f = Butterworth::bandpass(4, 8.0, 13.0, FS).unwrap();
        let g20 = f.magnitude_at(20.0, FS);
        let g30 = f.magnitude_at(30.0, FS);
        let g45 = f.magnitude_at(45.0, FS);
        assert!(g20 > g30 && g30 > g45, "{g20} {g30} {g45}");
    }

    #[test]
    fn filtering_removes_out_of_band_tone() {
        // 10 Hz (in band) + 55 Hz (out of band) mixture at 250 Hz rate so the
        // 55 Hz tone is representable.
        let fs = 250.0;
        let f = Butterworth::bandpass(6, 0.5, 45.0, fs).unwrap();
        let n = 2000;
        let sig: Vec<f32> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                ((2.0 * std::f64::consts::PI * 10.0 * t).sin()
                    + (2.0 * std::f64::consts::PI * 55.0 * t).sin()) as f32
            })
            .collect();
        let out = f.filter(&sig);
        // Compare steady-state RMS of last half against a pure 10 Hz tone.
        let tail = &out[n / 2..];
        let rms: f64 =
            (tail.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / tail.len() as f64).sqrt();
        let pure_rms = std::f64::consts::FRAC_1_SQRT_2;
        assert!((rms - pure_rms).abs() < 0.08, "rms {rms} vs {pure_rms}");
    }
}
