//! Error types for configuration parsing, DAG construction, and module
//! execution.

use std::error::Error as StdError;
use std::fmt;

/// An error produced while parsing an fpt-core configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseConfigErrorKind,
}

/// The specific configuration-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseConfigErrorKind {
    /// A `key = value` line appeared before any `[module]` section header.
    AssignmentOutsideSection,
    /// A section header was malformed (e.g. `[foo` without the closing bracket).
    MalformedSectionHeader(String),
    /// A line was neither a header, an assignment, a comment, nor blank.
    MalformedLine(String),
    /// An `input[...]` key was malformed (e.g. missing the closing bracket).
    MalformedInputKey(String),
    /// An input connection expression was malformed (empty, or `.`-less
    /// without the `@` form).
    MalformedConnection(String),
    /// Two instances declared the same `id`.
    DuplicateInstanceId(String),
    /// The same input slot was assigned twice within one instance.
    DuplicateInput(String),
    /// The same parameter key was assigned twice within one instance.
    DuplicateParameter(String),
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseConfigErrorKind::*;
        write!(f, "config line {}: ", self.line)?;
        match &self.kind {
            AssignmentOutsideSection => f.write_str("assignment before any [module] section"),
            MalformedSectionHeader(s) => write!(f, "malformed section header `{s}`"),
            MalformedLine(s) => write!(f, "unparseable line `{s}`"),
            MalformedInputKey(s) => write!(f, "malformed input key `{s}`"),
            MalformedConnection(s) => write!(f, "malformed connection expression `{s}`"),
            DuplicateInstanceId(s) => write!(f, "duplicate instance id `{s}`"),
            DuplicateInput(s) => write!(f, "input `{s}` assigned twice"),
            DuplicateParameter(s) => write!(f, "parameter `{s}` assigned twice"),
        }
    }
}

impl StdError for ParseConfigError {}

/// An error produced while constructing the module DAG from a parsed
/// configuration (§3.3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDagError {
    /// A configured module type has no registered factory.
    ///
    /// Wraps the registry's own [`crate::registry::RegistryError`], which names the unknown
    /// type and lists every registered type, so the message here is
    /// propagated rather than re-derived.
    UnknownModuleType {
        /// The instance that requested the type.
        instance: String,
        /// The registry's lookup failure.
        source: crate::registry::RegistryError,
    },
    /// An input referenced an instance id that does not exist.
    UnknownInstance {
        /// The referencing instance.
        instance: String,
        /// Its input slot.
        input: String,
        /// The missing upstream id.
        upstream: String,
    },
    /// An input referenced an output port that the upstream instance never
    /// declared during `init()`.
    UnknownOutput {
        /// The referencing instance.
        instance: String,
        /// Its input slot.
        input: String,
        /// The upstream instance id.
        upstream: String,
        /// The missing port name.
        output: String,
    },
    /// Initialization never satisfied all inputs: the configuration contains
    /// a dependency cycle, or wires to outputs that are never produced.
    ///
    /// Mirrors the paper: "If this (desirable) outcome is not achieved ...
    /// the fpt-core terminates."
    UnsatisfiedInputs {
        /// Instances left uninitialized, in configuration order.
        instances: Vec<String>,
    },
    /// A module's `init()` returned an error.
    ModuleInit {
        /// The failing instance.
        instance: String,
        /// The module's own error.
        source: ModuleError,
    },
    /// An instance connected all outputs of an upstream (`@id`) that declared
    /// no outputs at all.
    EmptyWildcard {
        /// The referencing instance.
        instance: String,
        /// Its input slot.
        input: String,
        /// The upstream instance id.
        upstream: String,
    },
}

impl fmt::Display for BuildDagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDagError::UnknownModuleType { instance, source } => {
                write!(f, "instance `{instance}`: {source}")
            }
            BuildDagError::UnknownInstance {
                instance,
                input,
                upstream,
            } => write!(
                f,
                "instance `{instance}` input `{input}` references unknown instance `{upstream}`"
            ),
            BuildDagError::UnknownOutput {
                instance,
                input,
                upstream,
                output,
            } => write!(
                f,
                "instance `{instance}` input `{input}` references output \
                 `{upstream}.{output}` which `{upstream}` never declared"
            ),
            BuildDagError::UnsatisfiedInputs { instances } => write!(
                f,
                "DAG construction stalled; uninitializable instances (cycle or missing outputs): {}",
                instances.join(", ")
            ),
            BuildDagError::ModuleInit { instance, source } => {
                write!(f, "instance `{instance}` failed to initialize: {source}")
            }
            BuildDagError::EmptyWildcard {
                instance,
                input,
                upstream,
            } => write!(
                f,
                "instance `{instance}` input `{input}` connects `@{upstream}` but \
                 `{upstream}` declared no outputs"
            ),
        }
    }
}

impl StdError for BuildDagError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            BuildDagError::ModuleInit { source, .. } => Some(source),
            BuildDagError::UnknownModuleType { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An error raised by a module's `init()` or `run()` implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// A required configuration parameter was absent.
    MissingParameter(String),
    /// A configuration parameter failed to parse or was out of range.
    InvalidParameter {
        /// The parameter key.
        key: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// The instance's wired inputs do not match the module's expectations
    /// (wrong count, wrong names).
    BadInputs(String),
    /// Any other module-specific failure.
    Other(String),
}

impl ModuleError {
    /// Convenience constructor for [`ModuleError::InvalidParameter`].
    pub fn invalid_parameter(key: impl Into<String>, reason: impl Into<String>) -> Self {
        ModuleError::InvalidParameter {
            key: key.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::MissingParameter(k) => write!(f, "missing required parameter `{k}`"),
            ModuleError::InvalidParameter { key, reason } => {
                write!(f, "invalid parameter `{key}`: {reason}")
            }
            ModuleError::BadInputs(msg) => write!(f, "bad inputs: {msg}"),
            ModuleError::Other(msg) => f.write_str(msg),
        }
    }
}

impl StdError for ModuleError {}

/// An error raised while launching an [`crate::online::OnlineEngine`]
/// through its builder.
///
/// Replaces the stringly `Vec<String>` the builder used to return: each
/// failure mode is a typed variant, and spawn failures chain the underlying
/// [`std::io::Error`] through [`StdError::source`], matching the
/// [`BuildDagError`]/[`RunEngineError`] precedent. (Not `Clone`/`PartialEq`
/// because `io::Error` is neither.)
#[derive(Debug)]
pub enum OnlineStartError {
    /// One or more requested taps matched no DAG instance.
    UnknownTaps {
        /// The tap ids that matched nothing, in registration order.
        taps: Vec<String>,
    },
    /// The configured speed multiplier was not a positive finite number.
    InvalidSpeed {
        /// The rejected multiplier.
        speed: f64,
    },
    /// The operating system refused to spawn an engine thread.
    Spawn {
        /// The thread that failed to spawn: the engine's one pacer thread
        /// (`asdf-pacer[-<label>]`), or `feed-<tenant>` when `asdf::serve`
        /// reports a tenant feeder through this error.
        thread: String,
        /// The OS-level failure.
        source: std::io::Error,
    },
}

impl fmt::Display for OnlineStartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineStartError::UnknownTaps { taps } => {
                write!(f, "tap(s) match no DAG instance: {}", taps.join(", "))
            }
            OnlineStartError::InvalidSpeed { speed } => write!(
                f,
                "speed multiplier must be a positive finite number, got {speed}"
            ),
            OnlineStartError::Spawn { thread, source } => {
                write!(f, "failed to spawn engine thread `{thread}`: {source}")
            }
        }
    }
}

impl StdError for OnlineStartError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            OnlineStartError::Spawn { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A runtime error from engine execution: some module's `run()` failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEngineError {
    /// The failing instance id.
    pub instance: String,
    /// The timestamp at which the failure occurred.
    pub at_secs: u64,
    /// The module's own error.
    pub source: ModuleError,
}

impl fmt::Display for RunEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance `{}` failed at t+{}s: {}",
            self.instance, self.at_secs, self.source
        )
    }
}

impl StdError for RunEngineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ParseConfigError {
            line: 4,
            kind: ParseConfigErrorKind::DuplicateInstanceId("buf1".into()),
        };
        assert_eq!(e.to_string(), "config line 4: duplicate instance id `buf1`");

        let e = BuildDagError::UnknownOutput {
            instance: "a".into(),
            input: "x".into(),
            upstream: "b".into(),
            output: "out9".into(),
        };
        assert!(e.to_string().contains("b.out9"));

        let e = ModuleError::invalid_parameter("size", "must be positive");
        assert_eq!(e.to_string(), "invalid parameter `size`: must be positive");
    }

    #[test]
    fn online_start_error_displays_and_chains() {
        let e = OnlineStartError::UnknownTaps {
            taps: vec!["ghost".into(), "phantom".into()],
        };
        assert_eq!(
            e.to_string(),
            "tap(s) match no DAG instance: ghost, phantom"
        );
        assert!(e.source().is_none());

        let e = OnlineStartError::InvalidSpeed { speed: -2.0 };
        assert!(e.to_string().contains("-2"));

        let e = OnlineStartError::Spawn {
            thread: "ticker".into(),
            source: std::io::Error::other("no threads left"),
        };
        assert!(e.to_string().contains("ticker"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_sources_chain() {
        let e = BuildDagError::ModuleInit {
            instance: "m".into(),
            source: ModuleError::MissingParameter("k".into()),
        };
        assert!(e.source().is_some());
        let e = RunEngineError {
            instance: "m".into(),
            at_secs: 3,
            source: ModuleError::Other("boom".into()),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("t+3s"));
    }
}
