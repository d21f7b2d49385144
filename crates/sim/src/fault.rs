//! Seeded, deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] in `SimConfig` arms one or more fault classes at a
//! parts-per-million rate. Every injection decision is drawn from a
//! splitmix64 stream derived from the plan's seed and a per-domain salt
//! (engine, each memory structure, the DRAM channel), so the same plan on
//! the same accelerator reproduces the same faults cycle-for-cycle — a
//! hard requirement for differential campaigns and for replaying a failure
//! found in the field.

use std::fmt;

/// An injectable fault class (the root cause, as opposed to
/// [`crate::error::FaultKind`], which names the observed symptom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip one bit of a token's value on a ready/valid edge.
    TokenBitFlip,
    /// Drop a token on a ready/valid edge (valid pulse lost).
    TokenDrop,
    /// Duplicate a token on a ready/valid edge (valid held one cycle too
    /// long).
    TokenDup,
    /// A node's output handshake sticks: valid never asserts again.
    StuckHandshake,
    /// Memory-bank ECC event on a response: correctable (scrubbed, logged)
    /// or uncorrectable (surfaces as a typed `Fault`).
    MemEcc,
    /// A memory/DRAM response is delayed — mildly (recoverable slowdown) or
    /// past any reasonable timeout (run hangs, watchdog reports it).
    DramTimeout,
}

impl FaultClass {
    /// All classes, in stable report order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::TokenBitFlip,
        FaultClass::TokenDrop,
        FaultClass::TokenDup,
        FaultClass::StuckHandshake,
        FaultClass::MemEcc,
        FaultClass::DramTimeout,
    ];

    /// Stable short name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::TokenBitFlip => "token-bit-flip",
            FaultClass::TokenDrop => "token-drop",
            FaultClass::TokenDup => "token-dup",
            FaultClass::StuckHandshake => "stuck-handshake",
            FaultClass::MemEcc => "mem-ecc",
            FaultClass::DramTimeout => "dram-timeout",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            FaultClass::TokenBitFlip => 0,
            FaultClass::TokenDrop => 1,
            FaultClass::TokenDup => 2,
            FaultClass::StuckHandshake => 3,
            FaultClass::MemEcc => 4,
            FaultClass::DramTimeout => 5,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault class with its rate and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which class to inject.
    pub class: FaultClass,
    /// Injection probability per opportunity, in parts per million.
    pub rate_ppm: u32,
    /// Maximum injections across the run (0 = unlimited).
    pub max_events: u32,
}

/// A deterministic fault-injection schedule for one simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Master seed; every injection domain derives its stream from it.
    pub seed: u64,
    /// Armed classes. Empty = fault-free run (the default).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A fault-free plan (the `SimConfig` default).
    pub(crate) fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan injecting at most one event of `class` at a moderate rate —
    /// the "single injected fault" of the differential property tests.
    pub fn single(class: FaultClass, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: vec![FaultSpec {
                class,
                rate_ppm: 2_000,
                max_events: 1,
            }],
        }
    }
}

/// Per-class injection tallies, reported through `SimStats` so that a run
/// that completes *despite* injected faults is never silently wrong — the
/// stats flag the corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Token bit-flips injected.
    pub token_bit_flip: u64,
    /// Tokens dropped.
    pub token_drop: u64,
    /// Tokens duplicated.
    pub token_dup: u64,
    /// Handshakes stuck.
    pub stuck_handshake: u64,
    /// ECC events injected (correctable and uncorrectable).
    pub mem_ecc: u64,
    /// Memory responses delayed or timed out.
    pub dram_timeout: u64,
}

impl FaultCounts {
    /// Total injections across all classes.
    pub(crate) fn total(&self) -> u64 {
        self.token_bit_flip
            + self.token_drop
            + self.token_dup
            + self.stuck_handshake
            + self.mem_ecc
            + self.dram_timeout
    }

    pub(crate) fn record(&mut self, class: FaultClass) {
        match class {
            FaultClass::TokenBitFlip => self.token_bit_flip += 1,
            FaultClass::TokenDrop => self.token_drop += 1,
            FaultClass::TokenDup => self.token_dup += 1,
            FaultClass::StuckHandshake => self.stuck_handshake += 1,
            FaultClass::MemEcc => self.mem_ecc += 1,
            FaultClass::DramTimeout => self.dram_timeout += 1,
        }
    }

    pub(crate) fn merge(&mut self, other: &FaultCounts) {
        self.token_bit_flip += other.token_bit_flip;
        self.token_drop += other.token_drop;
        self.token_dup += other.token_dup;
        self.stuck_handshake += other.stuck_handshake;
        self.mem_ecc += other.mem_ecc;
        self.dram_timeout += other.dram_timeout;
    }
}

/// ECC status of a memory response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ecc {
    /// No ECC event.
    #[default]
    Clean,
    /// Single-bit error, corrected in flight (logged, no functional effect).
    Corrected,
    /// Multi-bit error: data is unusable; the engine raises a typed fault.
    Uncorrectable,
}

/// Extra latency for a mildly delayed memory response.
pub(crate) const DELAY_MINOR: u64 = 1_000;
/// Extra latency for a timed-out response: far beyond any deadlock
/// watchdog, so the run hangs and the watchdog reports it.
pub(crate) const DELAY_TIMEOUT: u64 = 1_000_000_000;

/// splitmix64, shared with the store's fault injection and the DSE
/// sampler (`muir_core::rng`).
pub(crate) type Rng = muir_core::rng::SplitMix64;

/// One domain's injection state: a private RNG stream plus per-class rate,
/// remaining budget, and tallies.
#[derive(Debug, Clone)]
pub(crate) struct Injector {
    rng: Rng,
    rate: [u32; 6],
    left: [u32; 6], // u32::MAX = unlimited
    pub(crate) counts: FaultCounts,
}

impl Injector {
    /// Build an injector for a domain (engine, structure, DRAM channel),
    /// arming only the classes in `classes`. The salt decorrelates domains
    /// without requiring the plan to enumerate them.
    pub(crate) fn new(plan: &FaultPlan, salt: u64, classes: &[FaultClass]) -> Injector {
        let mut rate = [0u32; 6];
        let mut left = [u32::MAX; 6];
        for spec in &plan.specs {
            if !classes.contains(&spec.class) {
                continue;
            }
            let i = spec.class.index();
            rate[i] = spec.rate_ppm;
            left[i] = if spec.max_events == 0 {
                u32::MAX
            } else {
                spec.max_events
            };
        }
        Injector {
            rng: Rng::salted(plan.seed, salt),
            rate,
            left,
            counts: FaultCounts::default(),
        }
    }

    /// Whether any class is armed in this domain.
    pub(crate) fn active(&self) -> bool {
        self.rate.iter().any(|&r| r > 0)
    }

    /// Decide one injection opportunity for `class`; records the event and
    /// decrements the budget when it fires.
    pub(crate) fn roll(&mut self, class: FaultClass) -> bool {
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

    /// Auxiliary randomness for a fired event (bit index, severity, …).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_respects_budget_and_rate() {
        let plan = FaultPlan {
            seed: 7,
            specs: vec![FaultSpec {
                class: FaultClass::TokenDrop,
                rate_ppm: 1_000_000, // always
                max_events: 3,
            }],
        };
        let mut inj = Injector::new(&plan, 0, &[FaultClass::TokenDrop]);
        let fired: usize = (0..100).filter(|_| inj.roll(FaultClass::TokenDrop)).count();
        assert_eq!(fired, 3, "budget caps injections");
        assert_eq!(inj.counts.token_drop, 3);
        // A class not armed in this domain never fires.
        assert!(!(0..100).any(|_| inj.roll(FaultClass::MemEcc)));
    }

    #[test]
    fn domains_are_decorrelated_but_reproducible() {
        let plan = FaultPlan {
            seed: 99,
            specs: vec![FaultSpec {
                class: FaultClass::MemEcc,
                rate_ppm: 500_000,
                max_events: 0,
            }],
        };
        let pattern = |salt: u64| -> Vec<bool> {
            let mut inj = Injector::new(&plan, salt, &[FaultClass::MemEcc]);
            (0..64).map(|_| inj.roll(FaultClass::MemEcc)).collect()
        };
        assert_eq!(pattern(1), pattern(1), "same domain reproduces");
        assert_ne!(pattern(1), pattern(2), "different domains diverge");
    }

    #[test]
    fn single_plan_injects_at_most_once() {
        let plan = FaultPlan::single(FaultClass::TokenDrop, 5);
        let mut inj = Injector::new(&plan, 0, &[FaultClass::TokenDrop]);
        let fired: usize = (0..2_000_000)
            .filter(|_| inj.roll(FaultClass::TokenDrop))
            .count();
        assert!(fired <= 1, "{fired}");
    }
}
