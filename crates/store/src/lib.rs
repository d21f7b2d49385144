//! `muir-store` — crash-safe persistent store for compiled artifacts and
//! memoized simulation results.
//!
//! ROADMAP item 1 promotes the process-local `CompiledAccel` cache to a
//! durable, content-addressed layer — the turbo-tasks-style architecture
//! where every evaluation is memoized by the hash of its inputs. The
//! store is built *robustness-first*:
//!
//! * **content-addressed keys** — artifacts live at
//!   `objects/<hash(CompiledAccel)>.art`; results at
//!   `results/<hash(artifact)>-<hash(job)>.res`, where the job hash
//!   covers the normalized `SimConfig` plus the run's actual inputs
//!   (root arguments and initial memory);
//! * **every byte checksummed** — entries are wrapped in the versioned
//!   envelope of [`muir_core::envelope`], so torn writes, bit rot, and
//!   version skew are *detected and typed* (`E-STORE-*`), never silently
//!   deserialized;
//! * **every write atomic** — write-to-temp + fsync + rename, so a crash
//!   at any instant leaves either the old entry or the new one, never a
//!   half-written file a reader could trust;
//! * **corruption is quarantined** — a failing entry is moved to
//!   `quarantine/` (keeping the evidence) and reported with a typed
//!   error; the next put repairs the slot;
//! * **degradation, never failure** — a store whose root cannot be
//!   created, or any typed error, degrades the caller to
//!   recompute-in-memory. The store can make evaluation *faster*, never
//!   *wrong* and never *impossible*.
//!
//! A seeded [`StoreFaultPlan`] can inject the four storage failure
//! classes deterministically; the `muir-bench` campaign uses it to prove
//! end state after any injected fault is bit-identical to a fault-free
//! cold run.

pub mod codec;
pub mod error;
pub mod fault;

pub use codec::StoredEval;
pub use error::StoreError;
pub use fault::{StoreFaultClass, StoreFaultCounts, StoreFaultPlan, StoreFaultSpec};

use fault::Injector;
use muir_core::envelope::{self, EnvelopeError, PayloadKind, FORMAT_VERSION, HEADER_LEN};
use muir_core::printer::print_accelerator;
use muir_core::telemetry;
use muir_core::CompiledAccel;
use muir_mir::interp::Memory;
use muir_mir::value::Value;
use muir_sim::SimConfig;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The key of one memoized result: which artifact, which job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// `hash(CompiledAccel)` — the sealed artifact's content hash.
    pub artifact: u64,
    /// `hash(job)` — normalized config + root args + initial memory
    /// ([`muir_sim::job_hash`]).
    pub job: u64,
}

impl ResultKey {
    /// The key for evaluating `comp` with `(cfg, args, mem)`.
    pub fn new(comp: &CompiledAccel, cfg: &SimConfig, args: &[Value], mem: &Memory) -> ResultKey {
        ResultKey {
            artifact: comp.content_hash(),
            job: muir_sim::job_hash(cfg, args, mem),
        }
    }
}

/// Whether a configuration's results may be memoized. Traced runs are
/// excluded: traces are observability artifacts the codec deliberately
/// does not persist, and silently returning a hit without the requested
/// trace would violate the "identical to a standalone run" contract.
pub fn memoizable(cfg: &SimConfig) -> bool {
    !cfg.trace.enabled
}

/// Operation counters of one [`Store`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifact records written.
    pub artifact_puts: u64,
    /// Result entries written.
    pub result_puts: u64,
    /// Result lookups served from disk.
    pub result_hits: u64,
    /// Result lookups that found no entry (clean miss).
    pub result_misses: u64,
    /// Entries that failed validation (truncated / bad magic / version
    /// skew / checksum / decode) and were reported with a typed error.
    pub corrupt_entries: u64,
    /// Corrupt entries successfully moved to `quarantine/`.
    pub quarantined: u64,
    /// Writes that failed (I/O or injected rename failure); the entry was
    /// not published.
    pub put_errors: u64,
    /// Injected storage faults, per class.
    pub faults: StoreFaultCounts,
    /// Whether the store is running disabled (everything degrades to
    /// recompute).
    pub disabled: bool,
}

/// A validated entry as read: the file's bytes and where the payload sits
/// in them (decoders borrow it in place).
struct Entry {
    bytes: Vec<u8>,
    payload: std::ops::Range<usize>,
}

impl Entry {
    fn payload(&self) -> &[u8] {
        &self.bytes[self.payload.clone()]
    }
}

/// The persistent store. All methods take `&mut self` (stats and the
/// fault stream are instance state); share a store across threads by
/// wrapping it in a mutex at the service layer.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// `Some(reason)` when degraded: every operation returns
    /// [`StoreError::Disabled`] without touching the filesystem.
    disabled: Option<String>,
    injector: Injector,
    stats: StoreStats,
    tmp_counter: u64,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`. Never fails:
    /// if the directory layout cannot be created the store opens
    /// *disabled* and every operation degrades to a typed
    /// [`StoreError::Disabled`] — callers recompute in memory.
    pub fn open(root: &Path) -> Store {
        Store::open_with_faults(root, StoreFaultPlan::none())
    }

    /// [`Store::open`] with a seeded fault-injection plan (test/campaign
    /// harnesses only).
    pub fn open_with_faults(root: &Path, faults: StoreFaultPlan) -> Store {
        let mut disabled = None;
        for sub in ["objects", "results", "tmp", "quarantine"] {
            if let Err(e) = fs::create_dir_all(root.join(sub)) {
                disabled = Some(format!("cannot create {}: {e}", root.join(sub).display()));
                break;
            }
        }
        let stats = StoreStats {
            disabled: disabled.is_some(),
            ..StoreStats::default()
        };
        Store {
            root: root.to_path_buf(),
            disabled,
            injector: Injector::new(&faults),
            stats,
            tmp_counter: 0,
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the store is degraded to recompute-only.
    pub fn is_disabled(&self) -> bool {
        self.disabled.is_some()
    }

    /// Operation counters so far (fault tallies included).
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.faults = self.injector.counts;
        s
    }

    fn check_enabled(&self) -> Result<(), StoreError> {
        match &self.disabled {
            Some(reason) => Err(StoreError::Disabled {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    fn artifact_path(&self, hash: u64) -> PathBuf {
        self.root.join("objects").join(format!("{hash:016x}.art"))
    }

    fn result_path(&self, key: ResultKey) -> PathBuf {
        self.root
            .join("results")
            .join(format!("{:016x}-{:016x}.res", key.artifact, key.job))
    }

    // ---- atomic write path ----

    /// Publish `payload` at `dest` via write-to-temp + fsync + atomic
    /// rename. A crash at any point leaves either no entry or a complete
    /// sealed entry — never bytes a reader could half-trust. Injected
    /// faults ([`StoreFaultPlan`]) deliberately break each step of this
    /// protocol to prove the read side catches the damage.
    fn write_atomic(
        &mut self,
        dest: &Path,
        kind: PayloadKind,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        telemetry::count("store.writes", 1);
        let io_t0 = telemetry::enabled().then(std::time::Instant::now);
        let out = self.write_atomic_inner(dest, kind, payload);
        if let Some(t0) = io_t0 {
            telemetry::observe(
                "store.write_us",
                &telemetry::US_BUCKETS,
                t0.elapsed().as_micros() as u64,
            );
        }
        out
    }

    fn write_atomic_inner(
        &mut self,
        dest: &Path,
        kind: PayloadKind,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let version = if self.injector.roll(StoreFaultClass::StaleVersion) {
            FORMAT_VERSION + 1
        } else {
            FORMAT_VERSION
        };
        let mut sealed = envelope::seal_with_version(kind, version, payload);
        if self.injector.roll(StoreFaultClass::TruncateWrite) {
            // A torn write: only a prefix (at least the magic, so the
            // reader sees "envelope, but cut short", not "not a file we
            // wrote") survives the crash.
            let cut = 8 + self.injector.below(sealed.len() as u64 - 8) as usize;
            sealed.truncate(cut);
        }
        self.tmp_counter += 1;
        let tmp = self.root.join("tmp").join(format!(
            "{}-{:x}.tmp",
            std::process::id(),
            self.tmp_counter
        ));
        let io_err = |op: &'static str, path: &Path, e: std::io::Error| StoreError::Io {
            op,
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(&sealed).map_err(|e| io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
        drop(f);
        if self.injector.roll(StoreFaultClass::RenameFail) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io {
                op: "rename",
                path: dest.display().to_string(),
                detail: "injected rename failure".to_string(),
            });
        }
        fs::rename(&tmp, dest).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err("rename", dest, e)
        })?;
        // Durability of the *name* needs the directory fsynced too;
        // best-effort — a failure here cannot un-publish the rename.
        if let Some(dir) = dest.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    // ---- read path ----

    /// Read and validate one entry. `Ok(None)` is a clean miss; any
    /// validation failure quarantines the file and returns the typed
    /// error.
    fn read_validated(
        &mut self,
        path: &Path,
        expect: PayloadKind,
    ) -> Result<Option<Entry>, StoreError> {
        telemetry::count("store.reads", 1);
        let io_t0 = telemetry::enabled().then(std::time::Instant::now);
        let out = self.read_validated_inner(path, expect);
        if let Some(t0) = io_t0 {
            telemetry::observe(
                "store.read_us",
                &telemetry::US_BUCKETS,
                t0.elapsed().as_micros() as u64,
            );
        }
        out
    }

    fn read_validated_inner(
        &mut self,
        path: &Path,
        expect: PayloadKind,
    ) -> Result<Option<Entry>, StoreError> {
        let mut bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(StoreError::Io {
                    op: "read",
                    path: path.display().to_string(),
                    detail: e.to_string(),
                })
            }
        };
        if !bytes.is_empty() && self.injector.roll(StoreFaultClass::BitFlipRead) {
            let bit = self.injector.below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        match envelope::open(&bytes) {
            Ok((kind, payload)) if kind == expect => {
                let payload = HEADER_LEN..HEADER_LEN + payload.len();
                Ok(Some(Entry { bytes, payload }))
            }
            Ok((kind, _)) => Err(self.quarantine(
                path,
                StoreError::Decode {
                    path: path.display().to_string(),
                    detail: format!("payload kind {kind}, expected {expect}"),
                },
            )),
            Err(env_err) => {
                let typed = self.envelope_error(path, env_err);
                Err(self.quarantine(path, typed))
            }
        }
    }

    fn envelope_error(&self, path: &Path, e: EnvelopeError) -> StoreError {
        let p = path.display().to_string();
        match e {
            EnvelopeError::Truncated { expected, found } => StoreError::Truncated {
                path: p,
                expected,
                found,
            },
            EnvelopeError::BadMagic { .. } => StoreError::BadMagic { path: p },
            EnvelopeError::VersionSkew { found, expected } => StoreError::VersionSkew {
                path: p,
                found,
                expected,
            },
            EnvelopeError::BadKind { tag } => StoreError::Decode {
                path: p,
                detail: format!("unknown payload kind tag {tag}"),
            },
            EnvelopeError::ChecksumMismatch { expected, found } => StoreError::ChecksumMismatch {
                path: p,
                expected,
                found,
            },
        }
    }

    /// Move a failed entry aside (keeping the evidence) and tally it.
    /// Returns `err` unchanged so callers can `return Err(...)` in one
    /// expression.
    fn quarantine(&mut self, path: &Path, err: StoreError) -> StoreError {
        self.stats.corrupt_entries += 1;
        telemetry::count("store.corrupt_entries", 1);
        if let Some(name) = path.file_name() {
            let dest = self.root.join("quarantine").join(name);
            if fs::rename(path, &dest).is_ok() {
                self.stats.quarantined += 1;
                telemetry::count("store.quarantined", 1);
                return err;
            }
        }
        // Could not move it: remove it so the poisoned bytes cannot be
        // re-read forever (the error already reported the corruption).
        let _ = fs::remove_file(path);
        err
    }

    // ---- artifacts ----

    /// Persist the artifact record of a sealed accelerator: its canonical
    /// printed text, addressed by content hash. Returns `true` if a new
    /// entry was written, `false` if a valid entry was already present.
    ///
    /// # Errors
    /// [`StoreError`] on I/O failure or when disabled; callers degrade
    /// (the artifact store is a durability record, not a correctness
    /// dependency — simulation always uses the in-memory artifact).
    pub fn put_artifact(&mut self, comp: &CompiledAccel) -> Result<bool, StoreError> {
        self.check_enabled()?;
        let hash = comp.content_hash();
        let path = self.artifact_path(hash);
        if matches!(
            self.read_validated(&path, PayloadKind::Artifact),
            Ok(Some(_))
        ) {
            return Ok(false);
        }
        // Missing, or corrupt (now quarantined): write a fresh entry.
        let mut record = format!("artifact-v1\nhash {hash:016x}\n");
        record.push_str(&print_accelerator(comp.accel()));
        match self.write_atomic(&path, PayloadKind::Artifact, record.as_bytes()) {
            Ok(()) => {
                self.stats.artifact_puts += 1;
                telemetry::count("store.artifact_puts", 1);
                Ok(true)
            }
            Err(e) => {
                self.stats.put_errors += 1;
                telemetry::count("store.put_errors", 1);
                Err(e)
            }
        }
    }

    /// Fetch an artifact record's canonical text by content hash.
    /// `Ok(None)` is a clean miss; corrupt entries are quarantined and
    /// reported typed.
    ///
    /// # Errors
    /// [`StoreError`] on corruption, I/O failure, or when disabled.
    pub fn get_artifact(&mut self, hash: u64) -> Result<Option<String>, StoreError> {
        self.check_enabled()?;
        let path = self.artifact_path(hash);
        let Some(entry) = self.read_validated(&path, PayloadKind::Artifact)? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(entry.payload()).map_err(|e| {
            self.quarantine_missing(&path);
            StoreError::Decode {
                path: path.display().to_string(),
                detail: format!("artifact record is not utf8: {e}"),
            }
        })?;
        let expect = format!("artifact-v1\nhash {hash:016x}\n");
        if !text.starts_with(&expect) {
            self.quarantine_missing(&path);
            return Err(StoreError::Decode {
                path: path.display().to_string(),
                detail: "artifact record header/hash mismatch".to_string(),
            });
        }
        Ok(Some(text[expect.len()..].to_string()))
    }

    /// Quarantine an entry that passed envelope validation but failed
    /// payload decode (the file is still in place at this point).
    fn quarantine_missing(&mut self, path: &Path) {
        let placeholder = StoreError::Decode {
            path: path.display().to_string(),
            detail: String::new(),
        };
        let _ = self.quarantine(path, placeholder);
    }

    // ---- results ----

    /// Memoize one evaluation outcome under `key`.
    ///
    /// # Errors
    /// [`StoreError`] on I/O failure or when disabled; the evaluation
    /// itself already succeeded, so callers warn and move on.
    pub fn put_result(&mut self, key: ResultKey, eval: &StoredEval) -> Result<(), StoreError> {
        self.check_enabled()?;
        let path = self.result_path(key);
        let payload = codec::encode_eval(eval);
        match self.write_atomic(&path, PayloadKind::SimResult, &payload) {
            Ok(()) => {
                self.stats.result_puts += 1;
                telemetry::count("store.result_puts", 1);
                Ok(())
            }
            Err(e) => {
                self.stats.put_errors += 1;
                telemetry::count("store.put_errors", 1);
                Err(e)
            }
        }
    }

    /// Look up a memoized evaluation. `Ok(None)` is a clean miss
    /// (recompute and [`Store::put_result`]); `Err` means an entry
    /// existed but failed validation — it has been quarantined, and the
    /// caller recomputes exactly as on a miss.
    ///
    /// # Errors
    /// [`StoreError`] on corruption, I/O failure, or when disabled.
    pub fn get_result(&mut self, key: ResultKey) -> Result<Option<StoredEval>, StoreError> {
        self.check_enabled()?;
        let path = self.result_path(key);
        let Some(entry) = self.read_validated(&path, PayloadKind::SimResult)? else {
            self.stats.result_misses += 1;
            telemetry::count("store.result_misses", 1);
            return Ok(None);
        };
        match codec::decode_eval(entry.payload()) {
            Ok(eval) => {
                self.stats.result_hits += 1;
                telemetry::count("store.result_hits", 1);
                Ok(Some(eval))
            }
            Err(detail) => {
                self.quarantine_missing(&path);
                Err(StoreError::Decode {
                    path: path.display().to_string(),
                    detail,
                })
            }
        }
    }

    /// Number of entries currently in `quarantine/` (0 for a disabled
    /// store).
    pub fn quarantine_len(&self) -> usize {
        fs::read_dir(self.root.join("quarantine"))
            .map(|d| d.count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests;
