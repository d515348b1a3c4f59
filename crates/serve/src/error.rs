use std::fmt;

/// Errors produced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Pipeline-layer failure inside a session.
    Core(cognitive_arm::CoreError),
    /// Acquisition failure inside a streaming session.
    Eeg(eeg::EegError),
    /// Stream-transport failure inside a streaming session.
    Stream(stream::StreamError),
    /// Actuation failure inside a session.
    Arm(arm::ArmError),
    /// A weight-image open or decode failure while interning an artifact.
    Artifact(model_io::ModelIoError),
    /// A session id that the manager does not know.
    UnknownSession(usize),
    /// An artifact id that the manager does not know.
    UnknownArtifact(usize),
    /// A request the manager cannot honour as posed.
    BadRequest(String),
    /// A session's work panicked, with the panic's message: its advance
    /// or actuation, a standalone session's segment, or a micro-batch
    /// group's batched classify (which fails every member with a window in
    /// that call). The session is poisoned; its neighbours keep running.
    Panicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "session pipeline: {e}"),
            ServeError::Eeg(e) => write!(f, "session acquisition: {e}"),
            ServeError::Stream(e) => write!(f, "session stream: {e}"),
            ServeError::Arm(e) => write!(f, "session actuation: {e}"),
            ServeError::Artifact(e) => write!(f, "artifact: {e}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session id {id}"),
            ServeError::UnknownArtifact(id) => write!(f, "unknown artifact id {id}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Panicked(msg) => write!(f, "session panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Eeg(e) => Some(e),
            ServeError::Stream(e) => Some(e),
            ServeError::Arm(e) => Some(e),
            ServeError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), for [`ServeError::Panicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
        impl From<$ty> for ServeError {
            fn from(e: $ty) -> Self {
                ServeError::$variant(e)
            }
        }
    };
}

from_err!(Core, cognitive_arm::CoreError);
from_err!(Eeg, eeg::EegError);
from_err!(Stream, stream::StreamError);
from_err!(Arm, arm::ArmError);
from_err!(Artifact, model_io::ModelIoError);
