//! Error vocabulary shared across the workspace.

use std::fmt;

/// Errors produced by core utilities and re-used by higher layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An identifier referenced an entity that does not exist.
    NotFound(String),
    /// An operation conflicted with existing state (duplicate id, name clash).
    Conflict(String),
    /// Input failed validation (malformed hash, bad size, empty name...).
    Invalid(String),
    /// The caller lacks permission for the target entity.
    PermissionDenied(String),
    /// A subsystem refused work because it is shutting down or overloaded.
    Unavailable(String),
}

impl CoreError {
    pub fn not_found(what: impl Into<String>) -> Self {
        CoreError::NotFound(what.into())
    }
    pub fn conflict(what: impl Into<String>) -> Self {
        CoreError::Conflict(what.into())
    }
    pub fn invalid(what: impl Into<String>) -> Self {
        CoreError::Invalid(what.into())
    }
    pub fn permission_denied(what: impl Into<String>) -> Self {
        CoreError::PermissionDenied(what.into())
    }
    pub fn unavailable(what: impl Into<String>) -> Self {
        CoreError::Unavailable(what.into())
    }

    /// Short machine-readable code used in trace log lines and in the
    /// protocol's error responses.
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::NotFound(_) => "not_found",
            CoreError::Conflict(_) => "conflict",
            CoreError::Invalid(_) => "invalid",
            CoreError::PermissionDenied(_) => "denied",
            CoreError::Unavailable(_) => "unavailable",
        }
    }

    /// The inverse of [`CoreError::code`]: the error a code names, carrying
    /// `message`. An unknown code is `Invalid`. With [`CoreError::message`]
    /// this turns an error response back into the error that was answered.
    pub fn from_code(code: &str, message: impl Into<String>) -> Self {
        let message = message.into();
        match code {
            "not_found" => CoreError::NotFound(message),
            "conflict" => CoreError::Conflict(message),
            "denied" => CoreError::PermissionDenied(message),
            "unavailable" => CoreError::Unavailable(message),
            _ => CoreError::Invalid(message),
        }
    }

    /// The text the error carries, without the kind its `Display` adds.
    pub fn message(&self) -> &str {
        match self {
            CoreError::NotFound(s)
            | CoreError::Conflict(s)
            | CoreError::Invalid(s)
            | CoreError::PermissionDenied(s)
            | CoreError::Unavailable(s) => s,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotFound(s) => write!(f, "not found: {s}"),
            CoreError::Conflict(s) => write!(f, "conflict: {s}"),
            CoreError::Invalid(s) => write!(f, "invalid: {s}"),
            CoreError::PermissionDenied(s) => write!(f, "permission denied: {s}"),
            CoreError::Unavailable(s) => write!(f, "unavailable: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_display() {
        let e = CoreError::not_found("node n3");
        assert_eq!(e.code(), "not_found");
        assert_eq!(e.to_string(), "not found: node n3");
        assert_eq!(CoreError::conflict("x").code(), "conflict");
        assert_eq!(CoreError::invalid("x").code(), "invalid");
        assert_eq!(CoreError::permission_denied("x").code(), "denied");
        assert_eq!(CoreError::unavailable("x").code(), "unavailable");
    }

    #[test]
    fn code_and_message_rebuild_the_error() {
        for e in [
            CoreError::not_found("session s5"),
            CoreError::conflict("x"),
            CoreError::invalid("y"),
            CoreError::permission_denied("z"),
            CoreError::unavailable(""),
        ] {
            assert_eq!(CoreError::from_code(e.code(), e.message()), e);
        }
        assert_eq!(CoreError::from_code("?", "m"), CoreError::invalid("m"));
    }
}
