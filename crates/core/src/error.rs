use std::fmt;

/// Errors produced by the end-to-end system.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// EEG substrate failure.
    Eeg(eeg::EegError),
    /// DSP failure.
    Dsp(dsp::DspError),
    /// Model training/inference failure.
    Ml(ml::MlError),
    /// Voice path failure.
    Asr(asr::AsrError),
    /// Arm/actuation failure.
    Arm(arm::ArmError),
    /// Stream-transport failure on a session's wire.
    Stream(stream::StreamError),
    /// The pipeline was configured inconsistently.
    BadConfig(String),
    /// A session's segment panicked, with the panic's message (say, from a
    /// custom ensemble member). The session is poisoned.
    Panicked(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Eeg(e) => write!(f, "eeg: {e}"),
            CoreError::Dsp(e) => write!(f, "dsp: {e}"),
            CoreError::Ml(e) => write!(f, "ml: {e}"),
            CoreError::Asr(e) => write!(f, "asr: {e}"),
            CoreError::Arm(e) => write!(f, "arm: {e}"),
            CoreError::Stream(e) => write!(f, "stream: {e}"),
            CoreError::BadConfig(msg) => write!(f, "bad pipeline config: {msg}"),
            CoreError::Panicked(msg) => write!(f, "session panicked: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Eeg(e) => Some(e),
            CoreError::Dsp(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Asr(e) => Some(e),
            CoreError::Arm(e) => Some(e),
            CoreError::Stream(e) => Some(e),
            CoreError::BadConfig(_) | CoreError::Panicked(_) => None,
        }
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), for [`CoreError::Panicked`].
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("non-string panic payload", |msg| msg)
            .to_owned(),
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CoreError {
            fn from(e: $ty) -> Self {
                CoreError::$variant(e)
            }
        }
    };
}

from_err!(Eeg, eeg::EegError);
from_err!(Dsp, dsp::DspError);
from_err!(Ml, ml::MlError);
from_err!(Asr, asr::AsrError);
from_err!(Arm, arm::ArmError);
from_err!(Stream, stream::StreamError);
