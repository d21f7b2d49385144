//! Seeded, deterministic fault injection for the store layer.
//!
//! The structural twin of `muir_sim::fault`: a [`StoreFaultPlan`] arms one
//! or more storage fault classes at a parts-per-million rate, and every
//! injection decision is drawn from a splitmix64 stream derived from the
//! plan's seed — the same plan against the same operation sequence
//! reproduces the same faults, so a corruption found by the campaign can
//! be replayed byte-for-byte.
//!
//! The classes model the storage failure modes the envelope protocol is
//! designed to catch:
//!
//! * [`StoreFaultClass::TruncateWrite`] — a crash mid-write: only a prefix
//!   of the sealed entry reaches the disk (torn write);
//! * [`StoreFaultClass::BitFlipRead`] — bit rot: one bit of the entry
//!   flips between write and read;
//! * [`StoreFaultClass::RenameFail`] — the atomic publish step fails: the
//!   temp file is written but never renamed into place;
//! * [`StoreFaultClass::StaleVersion`] — version skew: the entry is
//!   written by a future/past format revision.

use muir_core::rng::SplitMix64;
use std::fmt;

/// An injectable storage fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreFaultClass {
    /// Write only a prefix of the sealed entry (torn write / crash
    /// mid-write).
    TruncateWrite,
    /// Flip one deterministic bit of an entry as it is read (bit rot).
    BitFlipRead,
    /// Fail the atomic rename publishing a temp file (the entry never
    /// appears; the write reports an I/O error).
    RenameFail,
    /// Seal the entry with a different envelope format version
    /// (version skew).
    StaleVersion,
}

impl StoreFaultClass {
    /// All classes, in stable report order.
    pub const ALL: [StoreFaultClass; 4] = [
        StoreFaultClass::TruncateWrite,
        StoreFaultClass::BitFlipRead,
        StoreFaultClass::RenameFail,
        StoreFaultClass::StaleVersion,
    ];

    /// Stable short name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            StoreFaultClass::TruncateWrite => "truncate-write",
            StoreFaultClass::BitFlipRead => "bit-flip-read",
            StoreFaultClass::RenameFail => "rename-fail",
            StoreFaultClass::StaleVersion => "stale-version",
        }
    }

    fn index(self) -> usize {
        match self {
            StoreFaultClass::TruncateWrite => 0,
            StoreFaultClass::BitFlipRead => 1,
            StoreFaultClass::RenameFail => 2,
            StoreFaultClass::StaleVersion => 3,
        }
    }
}

impl fmt::Display for StoreFaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault class with its rate and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFaultSpec {
    /// Which class to inject.
    pub class: StoreFaultClass,
    /// Injection probability per opportunity, in parts per million.
    pub rate_ppm: u32,
    /// Maximum injections across the store's lifetime (0 = unlimited).
    pub max_events: u32,
}

/// A deterministic fault-injection schedule for one store instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreFaultPlan {
    /// Master seed for the injection stream.
    pub seed: u64,
    /// Armed classes. Empty = fault-free store (the default).
    pub specs: Vec<StoreFaultSpec>,
}

impl StoreFaultPlan {
    /// A fault-free plan (the default).
    pub(crate) fn none() -> StoreFaultPlan {
        StoreFaultPlan::default()
    }

    /// A plan injecting exactly one event of `class`, guaranteed to fire
    /// at the first opportunity — the campaign's per-class probe.
    pub fn single(class: StoreFaultClass, seed: u64) -> StoreFaultPlan {
        StoreFaultPlan {
            seed,
            specs: vec![StoreFaultSpec {
                class,
                rate_ppm: 1_000_000,
                max_events: 1,
            }],
        }
    }
}

/// Per-class injection tallies, surfaced through `StoreStats` so a store
/// that served traffic *despite* injected faults reports exactly what was
/// done to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFaultCounts {
    /// Torn writes injected.
    pub truncate_write: u64,
    /// Read-side bit flips injected.
    pub bit_flip_read: u64,
    /// Rename failures injected.
    pub rename_fail: u64,
    /// Stale-version seals injected.
    pub stale_version: u64,
}

impl StoreFaultCounts {
    /// Total injections across all classes.
    pub(crate) fn total(&self) -> u64 {
        self.truncate_write + self.bit_flip_read + self.rename_fail + self.stale_version
    }

    fn record(&mut self, class: StoreFaultClass) {
        match class {
            StoreFaultClass::TruncateWrite => self.truncate_write += 1,
            StoreFaultClass::BitFlipRead => self.bit_flip_read += 1,
            StoreFaultClass::RenameFail => self.rename_fail += 1,
            StoreFaultClass::StaleVersion => self.stale_version += 1,
        }
    }
}

/// The store's injection state: a private RNG stream plus per-class rate,
/// remaining budget, and tallies (same skeleton as the simulator's
/// injector).
#[derive(Debug, Clone)]
pub(crate) struct Injector {
    rng: SplitMix64,
    rate: [u32; 4],
    left: [u32; 4], // u32::MAX = unlimited
    pub(crate) counts: StoreFaultCounts,
}

impl Injector {
    pub(crate) fn new(plan: &StoreFaultPlan) -> Injector {
        let mut rate = [0u32; 4];
        let mut left = [u32::MAX; 4];
        for spec in &plan.specs {
            let i = spec.class.index();
            rate[i] = spec.rate_ppm;
            left[i] = if spec.max_events == 0 {
                u32::MAX
            } else {
                spec.max_events
            };
        }
        Injector {
            rng: SplitMix64::salted(plan.seed, 0x5704_e0fa_1117),
            rate,
            left,
            counts: StoreFaultCounts::default(),
        }
    }

    /// Decide one injection opportunity for `class`; records the event and
    /// decrements the budget when it fires.
    pub(crate) fn roll(&mut self, class: StoreFaultClass) -> bool {
        let i = class.index();
        if self.rate[i] == 0 || self.left[i] == 0 {
            return false;
        }
        if !self.rng.chance_ppm(self.rate[i]) {
            return false;
        }
        if self.left[i] != u32::MAX {
            self.left[i] -= 1;
        }
        self.counts.record(class);
        true
    }

    /// Auxiliary randomness for a fired event (bit index, cut point, …).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_fires_exactly_once() {
        let plan = StoreFaultPlan::single(StoreFaultClass::BitFlipRead, 9);
        let mut inj = Injector::new(&plan);
        let fired: usize = (0..100)
            .filter(|_| inj.roll(StoreFaultClass::BitFlipRead))
            .count();
        assert_eq!(fired, 1);
        assert_eq!(inj.counts.bit_flip_read, 1);
        assert_eq!(inj.counts.total(), 1);
        // Unarmed classes never fire.
        assert!(!(0..100).any(|_| inj.roll(StoreFaultClass::RenameFail)));
    }

    #[test]
    fn plans_reproduce() {
        let plan = StoreFaultPlan {
            seed: 77,
            specs: vec![StoreFaultSpec {
                class: StoreFaultClass::TruncateWrite,
                rate_ppm: 300_000,
                max_events: 0,
            }],
        };
        let pattern = || -> Vec<bool> {
            let mut inj = Injector::new(&plan);
            (0..64)
                .map(|_| inj.roll(StoreFaultClass::TruncateWrite))
                .collect()
        };
        assert_eq!(pattern(), pattern());
    }
}
