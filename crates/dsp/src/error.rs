use std::fmt;

/// Errors produced by filter design and spectral estimation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DspError {
    /// A filter was requested with order zero.
    ZeroOrder,
    /// A filter order above the design's sanity ceiling.
    OrderTooLarge {
        /// The requested order.
        order: usize,
        /// The largest order the designer accepts.
        max: usize,
    },
    /// A corner frequency is outside `(0, fs / 2)`.
    InvalidFrequency {
        /// The offending frequency in Hz.
        frequency: f64,
        /// Sampling rate in Hz the frequency was validated against.
        sample_rate: f64,
    },
    /// The band edges of a band-pass filter are inverted or equal.
    InvalidBand {
        /// Lower band edge in Hz.
        low: f64,
        /// Upper band edge in Hz.
        high: f64,
    },
    /// A quality factor must be strictly positive (NaN is not).
    InvalidQuality(f64),
    /// The input signal is too short for the requested operation.
    SignalTooShort {
        /// Number of samples required.
        required: usize,
        /// Number of samples provided.
        actual: usize,
    },
    /// A segment or channel layout that cannot be processed: a Welch
    /// segment shorter than 4 samples ([`crate::welch::welch_psd`]), or
    /// z-score data or statistics that do not match their channel count
    /// ([`crate::normalize::Zscore`]).
    InvalidWindow {
        /// Welch: the segment length. Z-score: the channel count (or the
        /// number of means, for rejected statistics).
        size: usize,
        /// Welch: the segment hop. Z-score: 0 (or the number of standard
        /// deviations, for rejected statistics).
        step: usize,
    },
    /// FFT input length must be a power of two.
    NotPowerOfTwo(usize),
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::ZeroOrder => write!(f, "filter order must be at least 1"),
            DspError::OrderTooLarge { order, max } => {
                write!(f, "filter order {order} exceeds the maximum of {max}")
            }
            DspError::InvalidFrequency {
                frequency,
                sample_rate,
            } => write!(
                f,
                "frequency {frequency} Hz is outside (0, {}) for fs = {sample_rate} Hz",
                sample_rate / 2.0
            ),
            DspError::InvalidBand { low, high } => {
                write!(f, "band edges are invalid: low {low} Hz, high {high} Hz")
            }
            DspError::InvalidQuality(q) => {
                write!(f, "quality factor must be a positive number, got {q}")
            }
            DspError::SignalTooShort { required, actual } => write!(
                f,
                "signal has {actual} samples but at least {required} are required"
            ),
            DspError::InvalidWindow { size, step } => {
                write!(f, "window size {size} with step {step} yields no segments")
            }
            DspError::NotPowerOfTwo(n) => {
                write!(f, "fft length must be a power of two, got {n}")
            }
        }
    }
}

impl std::error::Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = DspError::InvalidFrequency {
            frequency: 100.0,
            sample_rate: 125.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("125"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
