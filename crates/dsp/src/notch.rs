//! Powerline notch filter.
//!
//! The paper removes 50 Hz mains interference with a notch of quality factor
//! 30 (Sec. III-A3). We implement the standard second-order IIR notch (the
//! same design as `scipy.signal.iirnotch`): a pair of unit-circle zeros at
//! the notch frequency pulled inward by conjugate poles whose radius is set
//! by the quality factor.

use crate::biquad::{Biquad, SosFilter};
use crate::{DspError, Result};

/// Designs a second-order notch filter centred at `f0` Hz.
///
/// `q` is the quality factor `f0 / bandwidth`; the paper uses `q = 30` at
/// `f0 = 50 Hz`, i.e. a -3 dB bandwidth of about 1.7 Hz.
///
/// # Errors
///
/// Returns [`DspError::InvalidFrequency`] when `f0` is outside `(0, fs / 2)`
/// and [`DspError::InvalidQuality`] unless `q > 0` (NaN included).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// let notch = dsp::notch::notch_filter(50.0, 30.0, 125.0)?;
/// // Unity gain far from the notch, zero at the notch.
/// assert!(notch.magnitude_at(50.0, 125.0) < 1e-6);
/// assert!((notch.magnitude_at(10.0, 125.0) - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn notch_filter(f0: f64, q: f64, fs: f64) -> Result<SosFilter> {
    if !(f0 > 0.0 && f0 < fs / 2.0) {
        return Err(DspError::InvalidFrequency {
            frequency: f0,
            sample_rate: fs,
        });
    }
    // NaN fails every comparison, so it needs its own check; it would
    // otherwise slip through and produce NaN coefficients.
    if q.is_nan() || q <= 0.0 {
        return Err(DspError::InvalidQuality(q));
    }

    let w0 = 2.0 * std::f64::consts::PI * f0 / fs;
    let alpha = w0.sin() / (2.0 * q);
    let cw = w0.cos();

    let b = [1.0, -2.0 * cw, 1.0];
    let a = [1.0 + alpha, -2.0 * cw, 1.0 - alpha];
    Ok(SosFilter::new(vec![Biquad::new(b, a)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 125.0;

    #[test]
    fn paper_notch_kills_50hz() {
        let n = notch_filter(50.0, 30.0, FS).unwrap();
        assert!(n.is_stable());
        assert!(n.magnitude_at(50.0, FS) < 1e-9);
    }

    #[test]
    fn passes_frequencies_away_from_notch() {
        let n = notch_filter(50.0, 30.0, FS).unwrap();
        for f in [1.0, 10.0, 30.0, 45.0] {
            let g = n.magnitude_at(f, FS);
            assert!((g - 1.0).abs() < 0.02, "gain at {f} Hz was {g}");
        }
    }

    #[test]
    fn bandwidth_scales_with_quality() {
        // Lower Q -> wider notch: gain at 48 Hz should be lower for Q=5 than Q=30.
        let narrow = notch_filter(50.0, 30.0, FS).unwrap();
        let wide = notch_filter(50.0, 5.0, FS).unwrap();
        assert!(wide.magnitude_at(48.0, FS) < narrow.magnitude_at(48.0, FS));
    }

    #[test]
    fn removes_line_noise_from_mixture() {
        let n = notch_filter(50.0, 30.0, FS).unwrap();
        let len = 1500;
        let sig: Vec<f32> = (0..len)
            .map(|i| {
                let t = i as f64 / FS;
                ((2.0 * std::f64::consts::PI * 10.0 * t).sin()
                    + 2.0 * (2.0 * std::f64::consts::PI * 50.0 * t).sin()) as f32
            })
            .collect();
        let out = n.filter(&sig);
        // After settling, output should be close to the pure 10 Hz tone.
        let tail: Vec<f64> = out[len / 2..].iter().map(|&x| f64::from(x)).collect();
        let reference: Vec<f64> = (len / 2..len)
            .map(|i| (2.0 * std::f64::consts::PI * 10.0 * i as f64 / FS).sin())
            .collect();
        let err: f64 = tail
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            / tail.len() as f64;
        assert!(err < 0.02, "residual mse {err}");
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(matches!(
            notch_filter(70.0, 30.0, FS),
            Err(DspError::InvalidFrequency { .. })
        ));
        assert!(matches!(
            notch_filter(50.0, 0.0, FS),
            Err(DspError::InvalidQuality(_))
        ));
    }

    #[test]
    fn nan_quality_is_rejected() {
        for q in [f64::NAN, -f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(
                matches!(notch_filter(50.0, q, FS), Err(DspError::InvalidQuality(_))),
                "q = {q} accepted"
            );
        }
    }
}
