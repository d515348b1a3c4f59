use std::fmt;

/// Errors produced by the ML framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MlError {
    /// Two shapes are incompatible for the attempted operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left/input shape.
        lhs: Vec<usize>,
        /// Right/expected shape.
        rhs: Vec<usize>,
    },
    /// The dataset is empty or labels are missing.
    EmptyDataset,
    /// A label exceeds the configured class count.
    BadLabel {
        /// The offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// A model configuration is invalid (zero layers, zero units, …).
    BadConfig(String),
    /// Numeric failure during training: a NaN/inf loss, or a NaN/inf
    /// parameter after an epoch's last step.
    Diverged {
        /// Epoch at which divergence was detected.
        epoch: usize,
    },
    /// A training feature is NaN, which no split threshold can order.
    NanFeature {
        /// Row of the offending feature vector.
        row: usize,
        /// Index of the NaN within that row.
        feature: usize,
    },
    /// A CSR matrix's structure is internally inconsistent (bad row
    /// pointers or a column index outside the matrix).
    MalformedCsr(String),
    /// Quantization was requested on a model with no dense or sparse
    /// weight matrices to derive a scale from (all-int8 input).
    NoQuantizableWeights,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            MlError::EmptyDataset => write!(f, "dataset is empty"),
            MlError::BadLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            MlError::BadConfig(msg) => write!(f, "invalid model configuration: {msg}"),
            MlError::Diverged { epoch } => {
                write!(f, "training diverged (non-finite values) at epoch {epoch}")
            }
            MlError::NanFeature { row, feature } => {
                write!(f, "feature {feature} of row {row} is NaN")
            }
            MlError::MalformedCsr(msg) => write!(f, "malformed CSR matrix: {msg}"),
            MlError::NoQuantizableWeights => {
                write!(f, "no dense or sparse weights to derive a quantization scale from")
            }
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::MlError>();
    }
}
