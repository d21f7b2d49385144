//! Versioned, checksummed binary envelope for durable artifacts.
//!
//! Everything the persistent store (`muir-store`) writes to disk is
//! wrapped in this envelope so that the three classic on-disk failure
//! modes are *detected and typed* rather than silently deserialized:
//!
//! * **torn writes** — a crash mid-write leaves a file shorter than the
//!   header's declared payload length ([`EnvelopeError::Truncated`]);
//! * **bit rot** — any flipped payload bit fails the splitmix64 fold
//!   checksum ([`EnvelopeError::ChecksumMismatch`]);
//! * **version skew** — an envelope written by a different format
//!   revision is rejected up front ([`EnvelopeError::VersionSkew`]),
//!   never half-parsed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"MUIRSTOR"
//!      8     4  format version (FORMAT_VERSION)
//!     12     4  payload kind tag (PayloadKind)
//!     16     8  payload length in bytes
//!     24     8  splitmix64 fold checksum of the payload
//!     32     n  payload
//! ```
//!
//! This extends PR 1's "silent corruption must be flagged" invariant from
//! the simulator out to the storage boundary: the store maps each
//! [`EnvelopeError`] onto a stable `E-STORE-*` code and quarantines the
//! offending file.

use crate::compiled::ContentHasher;
use std::fmt;

/// The eight magic bytes opening every envelope.
pub(crate) const MAGIC: [u8; 8] = *b"MUIRSTOR";

/// The current envelope format revision. Bump on any layout or payload
/// codec change; readers reject other versions typed, not by crashing.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 32;

/// What an envelope's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A compiled-accelerator artifact record (canonical graph text).
    Artifact,
    /// A memoized simulation outcome (result + final memory image).
    SimResult,
}

impl PayloadKind {
    /// The on-disk tag.
    pub(crate) fn tag(self) -> u32 {
        match self {
            PayloadKind::Artifact => 1,
            PayloadKind::SimResult => 2,
        }
    }

    /// Decode a tag.
    pub(crate) fn from_tag(tag: u32) -> Option<PayloadKind> {
        match tag {
            1 => Some(PayloadKind::Artifact),
            2 => Some(PayloadKind::SimResult),
            _ => None,
        }
    }
}

impl fmt::Display for PayloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadKind::Artifact => write!(f, "artifact"),
            PayloadKind::SimResult => write!(f, "sim-result"),
        }
    }
}

/// Why an envelope failed to open. Every variant names the evidence, so
/// the store's quarantine report can say exactly what was wrong with the
/// bytes it moved aside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Fewer bytes than the header (or the header's declared payload
    /// length) requires — the signature of a torn write.
    Truncated {
        /// Bytes the header/payload required.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The first eight bytes are not `MAGIC` — not an envelope at all.
    BadMagic {
        /// The bytes found (zero-padded if the file was shorter).
        found: [u8; 8],
    },
    /// Written by a different format revision.
    VersionSkew {
        /// Version recorded in the header.
        found: u32,
        /// Version this reader speaks.
        expected: u32,
    },
    /// The kind tag is not a known [`PayloadKind`].
    BadKind {
        /// The unknown tag.
        tag: u32,
    },
    /// The payload bytes do not hash to the header's checksum — bit rot
    /// or in-place corruption.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated envelope: need {expected} bytes, found {found}"
                )
            }
            EnvelopeError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            EnvelopeError::VersionSkew { found, expected } => {
                write!(f, "format version {found} (this reader speaks {expected})")
            }
            EnvelopeError::BadKind { tag } => write!(f, "unknown payload kind tag {tag}"),
            EnvelopeError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:016x} does not match header {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// splitmix64 fold checksum of a payload (the same primitive as the
/// artifact content hash, so "same bytes" means the same thing
/// everywhere).
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h = ContentHasher::new();
    h.push(payload);
    h.finish()
}

/// Wrap `payload` in a sealed envelope at the current format version.
pub fn seal(kind: PayloadKind, payload: &[u8]) -> Vec<u8> {
    seal_with_version(kind, FORMAT_VERSION, payload)
}

/// [`seal`] at an explicit format version. Exists so fault-injection
/// harnesses can fabricate stale-version envelopes; production writers
/// always use [`seal`].
pub fn seal_with_version(kind: PayloadKind, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Open an envelope, validating magic, version, kind, length, and
/// checksum — in that order, so the most specific diagnosis wins (a
/// truncated file with intact magic reports `Truncated`, not a checksum
/// failure over garbage).
///
/// # Errors
/// The first validation failure (see [`EnvelopeError`]).
pub fn open(bytes: &[u8]) -> Result<(PayloadKind, &[u8]), EnvelopeError> {
    if bytes.len() >= 8 && bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(EnvelopeError::BadMagic { found });
    }
    if bytes.len() < HEADER_LEN {
        if bytes.len() < 8 {
            // Too short even for the magic: report it as truncation unless
            // the prefix already disagrees with the magic.
            if !MAGIC.starts_with(bytes) {
                let mut found = [0u8; 8];
                found[..bytes.len()].copy_from_slice(bytes);
                return Err(EnvelopeError::BadMagic { found });
            }
        }
        return Err(EnvelopeError::Truncated {
            expected: HEADER_LEN,
            found: bytes.len(),
        });
    }
    let version = le_u32(&bytes[8..12]);
    if version != FORMAT_VERSION {
        return Err(EnvelopeError::VersionSkew {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let tag = le_u32(&bytes[12..16]);
    let kind = PayloadKind::from_tag(tag).ok_or(EnvelopeError::BadKind { tag })?;
    // The length is whatever the file says: a total that does not fit a
    // `usize` is longer than any file.
    let expected_total = usize::try_from(le_u64(&bytes[16..24]))
        .ok()
        .and_then(|len| HEADER_LEN.checked_add(len))
        .unwrap_or(usize::MAX);
    if bytes.len() < expected_total {
        return Err(EnvelopeError::Truncated {
            expected: expected_total,
            found: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..expected_total];
    let expected = le_u64(&bytes[24..32]);
    let found = checksum(payload);
    if found != expected {
        return Err(EnvelopeError::ChecksumMismatch { expected, found });
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_payloads() {
        for payload in [&b""[..], b"x", b"hello envelope", &[0u8; 1000]] {
            let sealed = seal(PayloadKind::SimResult, payload);
            let (kind, got) = open(&sealed).unwrap();
            assert_eq!(kind, PayloadKind::SimResult);
            assert_eq!(got, payload);
        }
        let sealed = seal(PayloadKind::Artifact, b"graph");
        assert_eq!(open(&sealed).unwrap().0, PayloadKind::Artifact);
    }

    /// A length field no file can satisfy — `HEADER_LEN + len` used to
    /// wrap and panic slicing `bytes[32..31]` — is truncation like any
    /// other.
    #[test]
    fn a_length_that_overflows_is_truncation() {
        let mut sealed = seal(PayloadKind::SimResult, b"payload");
        for len in [u64::MAX, u64::MAX - HEADER_LEN as u64 + 1, 1 << 63] {
            sealed[16..24].copy_from_slice(&len.to_le_bytes());
            let found = sealed.len();
            assert!(
                matches!(open(&sealed), Err(EnvelopeError::Truncated { found: f, .. }) if f == found),
                "len {len:#x}: {:?}",
                open(&sealed)
            );
        }
    }

    #[test]
    fn detects_truncation_at_every_cut() {
        let sealed = seal(PayloadKind::SimResult, b"a payload long enough to cut");
        for cut in 8..sealed.len() {
            let e = open(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(e, EnvelopeError::Truncated { .. }),
                "cut at {cut}: {e}"
            );
        }
    }

    #[test]
    fn detects_any_payload_bit_flip() {
        let sealed = seal(PayloadKind::SimResult, b"checksummed bytes");
        for bit in 0..((sealed.len() - HEADER_LEN) * 8) {
            let mut bad = sealed.clone();
            bad[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            let e = open(&bad).unwrap_err();
            assert!(
                matches!(e, EnvelopeError::ChecksumMismatch { .. }),
                "bit {bit}: {e}"
            );
        }
    }

    #[test]
    fn detects_version_skew_and_bad_magic_and_bad_kind() {
        let stale = seal_with_version(PayloadKind::SimResult, FORMAT_VERSION + 1, b"p");
        assert!(matches!(
            open(&stale).unwrap_err(),
            EnvelopeError::VersionSkew { found, .. } if found == FORMAT_VERSION + 1
        ));

        let mut nonsense = seal(PayloadKind::SimResult, b"p");
        nonsense[0] = b'X';
        assert!(matches!(
            open(&nonsense).unwrap_err(),
            EnvelopeError::BadMagic { .. }
        ));

        let mut bad_kind = seal(PayloadKind::SimResult, b"p");
        bad_kind[12..16].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            open(&bad_kind).unwrap_err(),
            EnvelopeError::BadKind { tag: 99 }
        ));
    }

    #[test]
    fn checksum_matches_content_hasher_fold() {
        // The envelope checksum is the same primitive as the compile
        // cache's content hash: deterministic and length-bound.
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abcd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn checksum_of_a_fixed_payload_is_pinned() {
        // Values computed by the byte-at-a-time `ContentHasher` that wrote
        // every existing store file: if these move, those files stop
        // opening (`E-STORE-CHECKSUM`) — bump `FORMAT_VERSION` instead.
        let payload: Vec<u8> = (0u8..=90).collect();
        assert_eq!(checksum(&payload), 0xa123_84f4_b989_2e11);
        assert_eq!(checksum(b"abc"), 0xc8a2_731f_ffe3_e5a3);
    }
}
