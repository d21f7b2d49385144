//! Typed store errors with stable `E-STORE-*` codes.
//!
//! Mirrors the simulator's `E-SIM-*` taxonomy: every failure mode of the
//! persistent layer has a machine-readable code so campaign tooling can
//! bucket outcomes without string-matching, and a transient/permanent
//! split so retry policies know which errors are worth a second attempt.
//!
//! The cardinal rule of the store is that **these errors never fail an
//! evaluation**: every caller treats any [`StoreError`] as "warn and
//! recompute in memory". The typed error exists so the degradation is
//! *observable* — the fault campaign asserts that every injected
//! corruption surfaces one of these codes, never a silent wrong answer.

use std::fmt;

/// A failure of the persistent store layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (open, write, fsync, rename, …). The only
    /// *transient* store error: the filesystem may recover.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// An entry shorter than its envelope header declares — the signature
    /// of a torn write. The entry has been quarantined.
    Truncated {
        /// The quarantined entry.
        path: String,
        /// Bytes the envelope required.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// An entry that does not start with the envelope magic — not written
    /// by this store at all. Quarantined.
    BadMagic {
        /// The quarantined entry.
        path: String,
    },
    /// An entry written by a different envelope format revision.
    /// Quarantined; rewritten on the next put at the current version.
    VersionSkew {
        /// The quarantined entry.
        path: String,
        /// Version found in the entry's header.
        found: u32,
        /// Version this reader speaks.
        expected: u32,
    },
    /// An entry whose payload fails its checksum — bit rot or in-place
    /// corruption. Quarantined.
    ChecksumMismatch {
        /// The quarantined entry.
        path: String,
        /// Checksum the header recorded.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// An entry whose envelope is intact but whose payload fails to
    /// decode (wrong kind tag, codec error) — version-skew inside the
    /// payload codec. Quarantined.
    Decode {
        /// The quarantined entry.
        path: String,
        /// What the codec rejected.
        detail: String,
    },
    /// The store is disabled: its root could not be created or a config
    /// that cannot be memoized (e.g. tracing enabled) was offered. All
    /// operations degrade to recompute-in-memory.
    Disabled {
        /// Why the store is unavailable.
        reason: String,
    },
}

impl StoreError {
    /// Stable machine-readable error code (`E-STORE-*`).
    pub(crate) fn code(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "E-STORE-IO",
            StoreError::Truncated { .. } => "E-STORE-TRUNC",
            StoreError::BadMagic { .. } => "E-STORE-MAGIC",
            StoreError::VersionSkew { .. } => "E-STORE-VERSION",
            StoreError::ChecksumMismatch { .. } => "E-STORE-CHECKSUM",
            StoreError::Decode { .. } => "E-STORE-DECODE",
            StoreError::Disabled { .. } => "E-STORE-DISABLED",
        }
    }

    /// Whether a retry could plausibly succeed. Only raw I/O failures
    /// are transient — a corrupt entry stays corrupt (and is already
    /// quarantined), a disabled store stays disabled for the process.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "{op} failed on {path}: {detail}")
            }
            StoreError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "torn write at {path}: need {expected} bytes, found {found} (quarantined)"
            ),
            StoreError::BadMagic { path } => {
                write!(f, "not a store envelope: {path} (quarantined)")
            }
            StoreError::VersionSkew {
                path,
                found,
                expected,
            } => write!(
                f,
                "version skew at {path}: format {found}, reader speaks {expected} (quarantined)"
            ),
            StoreError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch at {path}: payload {found:016x} vs header {expected:016x} \
                 (quarantined)"
            ),
            StoreError::Decode { path, detail } => {
                write!(f, "payload decode failed at {path}: {detail} (quarantined)")
            }
            StoreError::Disabled { reason } => write!(f, "store disabled: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<StoreError> {
        vec![
            StoreError::Io {
                op: "rename",
                path: "p".into(),
                detail: "d".into(),
            },
            StoreError::Truncated {
                path: "p".into(),
                expected: 32,
                found: 10,
            },
            StoreError::BadMagic { path: "p".into() },
            StoreError::VersionSkew {
                path: "p".into(),
                found: 2,
                expected: 1,
            },
            StoreError::ChecksumMismatch {
                path: "p".into(),
                expected: 1,
                found: 2,
            },
            StoreError::Decode {
                path: "p".into(),
                detail: "d".into(),
            },
            StoreError::Disabled { reason: "r".into() },
        ]
    }

    #[test]
    fn codes_are_stable_distinct_and_prefixed() {
        let codes: Vec<&str> = samples().iter().map(StoreError::code).collect();
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "codes must be distinct: {codes:?}");
        for c in codes {
            assert!(c.starts_with("E-STORE-"), "{c}");
        }
    }

    #[test]
    fn only_io_is_transient() {
        for e in samples() {
            assert_eq!(e.is_transient(), matches!(e, StoreError::Io { .. }), "{e}");
        }
    }

    #[test]
    fn display_carries_code() {
        for e in samples() {
            assert!(e.to_string().contains(e.code()), "{e}");
        }
    }
}
