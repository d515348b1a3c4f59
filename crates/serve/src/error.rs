use std::fmt;

use cognitive_arm::CoreError;

/// Errors produced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Failure inside a session: acquisition, wire or actuation.
    Core(CoreError),
    /// A weight-image open or decode failure while interning an artifact.
    Artifact(model_io::ModelIoError),
    /// A session id that the manager does not know.
    UnknownSession(usize),
    /// An artifact id that the manager does not know.
    UnknownArtifact(usize),
    /// A request the manager cannot honour as posed.
    BadRequest(String),
    /// A session's work panicked, with the panic's message: its advance
    /// or actuation, or a micro-batch group's batched classify (which
    /// fails every member with a window in that call). The session is
    /// poisoned; its neighbours keep running.
    Panicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "session pipeline: {e}"),
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
            ServeError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

/// A refused config or duration is a bad request and a panic stays a
/// panic, so a session's errors read the same through the manager.
impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::BadConfig(msg) => ServeError::BadRequest(msg),
            CoreError::Panicked(msg) => ServeError::Panicked(msg),
            e => ServeError::Core(e),
        }
    }
}

impl From<model_io::ModelIoError> for ServeError {
    fn from(e: model_io::ModelIoError) -> Self {
        ServeError::Artifact(e)
    }
}
