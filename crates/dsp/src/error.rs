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
    /// A Welch segment shorter than the estimator needs
    /// ([`crate::welch::welch_psd`]).
    SegmentTooShort {
        /// The requested segment length in samples.
        len: usize,
        /// The shortest segment accepted.
        min: usize,
    },
    /// Channel-major data whose length does not split into the channel
    /// count, or a channel count of zero ([`crate::normalize::Zscore`]).
    ChannelMismatch {
        /// Number of values provided.
        values: usize,
        /// The channel count they were to split into.
        channels: usize,
    },
    /// Z-score statistics that cannot normalize: empty, unequal in number,
    /// non-finite, or with a standard deviation that is not positive
    /// ([`crate::normalize::Zscore::from_parts`]).
    InvalidStatistics {
        /// Number of means provided.
        means: usize,
        /// Number of standard deviations provided.
        stds: usize,
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
            DspError::SegmentTooShort { len, min } => write!(
                f,
                "welch segment of {len} samples is shorter than the minimum of {min}"
            ),
            DspError::ChannelMismatch { values, channels } => {
                write!(f, "{values} values do not split into {channels} channels")
            }
            DspError::InvalidStatistics { means, stds } => write!(
                f,
                "z-score statistics rejected: {means} means and {stds} standard deviations \
                 (they must be equal in number, non-empty and finite, every standard \
                 deviation positive)"
            ),
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
    fn layout_refusals_name_what_was_refused() {
        let z = crate::normalize::Zscore::from_parts(vec![0.0; 16], vec![1.0; 16]).unwrap();
        let channels = z.apply(&mut [0.0; 17]).unwrap_err().to_string();
        assert_eq!(channels, "17 values do not split into 16 channels");
        let stats = crate::normalize::Zscore::from_parts(vec![0.0; 2], vec![1.0, f32::NAN])
            .unwrap_err()
            .to_string();
        assert!(
            stats.starts_with("z-score statistics rejected: 2 means and 2 standard deviations"),
            "{stats}"
        );
        let welch = crate::welch::welch_psd(&[0.0; 64], 125.0, 2)
            .unwrap_err()
            .to_string();
        assert_eq!(
            welch,
            "welch segment of 2 samples is shorter than the minimum of 4"
        );
        for msg in [channels, stats, welch] {
            assert!(!msg.contains("yields no segments"), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
