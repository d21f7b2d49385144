//! Hardware structures: elements with no software representation —
//! scratchpads, caches, and the DRAM/AXI port (§3.2).

use muir_mir::instr::MemObjId;
use muir_mir::types::TensorShape;
use std::fmt;

/// Index of a structure within the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureId(pub u32);

impl fmt::Display for StructureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The kind and parameters of a hardware structure.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum StructureKind {
    /// A software-managed (DMA-filled) local RAM. Access latency is fixed;
    /// banking and ports bound per-cycle throughput (Pass 4). The optional
    /// `shape` types the scratchpad for tensor accesses so the RTL backend
    /// generates wide RAMs that supply a whole tile per cycle (§6.3).
    Scratchpad {
        /// Number of banks (element addresses are striped across banks).
        banks: u32,
        /// Ports per bank (each port serves one element access per cycle).
        ports_per_bank: u32,
        /// Access latency in cycles.
        latency: u32,
        /// Capacity in element slots.
        capacity: u64,
        /// Optional tensor shape specialisation.
        shape: Option<TensorShape>,
    },
    /// A hardware-managed cache in front of DRAM (§3.2: caches are
    /// implicitly managed; scratchpads via DMA).
    Cache {
        /// Total capacity in element slots.
        capacity: u64,
        /// Associativity.
        assoc: u32,
        /// Line size in element slots.
        line_elems: u32,
        /// Number of banks (Pass: cache banking, §6.4).
        banks: u32,
        /// Hit latency in cycles.
        hit_latency: u32,
    },
    /// The AXI-coherent DRAM port backing all address spaces.
    Dram {
        /// Access latency in cycles.
        latency: u32,
        /// Peak elements transferred per cycle.
        elems_per_cycle: u32,
    },
}

impl StructureKind {
    /// Total element-access throughput per cycle (port bound).
    pub fn ports_per_cycle(&self) -> u32 {
        match self {
            StructureKind::Scratchpad {
                banks,
                ports_per_bank,
                ..
            } => banks * ports_per_bank,
            StructureKind::Cache { banks, .. } => *banks,
            StructureKind::Dram {
                elems_per_cycle, ..
            } => *elems_per_cycle,
        }
    }

    /// Short tag for printing.
    pub fn tag(&self) -> &'static str {
        match self {
            StructureKind::Scratchpad { .. } => "scratchpad",
            StructureKind::Cache { .. } => "cache",
            StructureKind::Dram { .. } => "dram",
        }
    }
}

/// A hardware structure instance and the address spaces it serves.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Structure {
    /// Debug name.
    pub name: String,
    /// Kind and parameters.
    pub kind: StructureKind,
    /// Memory objects (address spaces) homed on this structure.
    pub objects: Vec<MemObjId>,
}

impl Structure {
    /// A scratchpad with default single-bank, single-port, 1-cycle timing.
    pub fn scratchpad(name: impl Into<String>, capacity: u64) -> Structure {
        Structure {
            name: name.into(),
            kind: StructureKind::Scratchpad {
                banks: 1,
                ports_per_bank: 2,
                latency: 1,
                capacity,
                shape: None,
            },
            objects: Vec::new(),
        }
    }

    /// A cache with the paper's 64 KB default (§6.4), 4-way, 16-element
    /// lines, one bank.
    pub fn l1_cache(name: impl Into<String>) -> Structure {
        Structure {
            name: name.into(),
            kind: StructureKind::Cache {
                capacity: 16 * 1024, // 64 KB of 4-byte elements
                assoc: 4,
                line_elems: 16,
                banks: 1,
                hit_latency: 2,
            },
            objects: Vec::new(),
        }
    }

    /// The DRAM/AXI port.
    pub fn dram(name: impl Into<String>) -> Structure {
        Structure {
            name: name.into(),
            kind: StructureKind::Dram {
                latency: 40,
                elems_per_cycle: 8,
            },
            objects: Vec::new(),
        }
    }

    /// Home an object on this structure.
    pub fn serve(&mut self, obj: MemObjId) -> &mut Self {
        if !self.objects.contains(&obj) {
            self.objects.push(obj);
        }
        self
    }

    /// Whether this structure serves `obj`.
    pub fn serves(&self, obj: MemObjId) -> bool {
        self.objects.contains(&obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratchpad_defaults() {
        let s = Structure::scratchpad("spad", 1024);
        assert_eq!(s.kind.tag(), "scratchpad");
        assert_eq!(s.kind.ports_per_cycle(), 2);
    }

    #[test]
    fn cache_defaults() {
        let c = Structure::l1_cache("l1");
        match c.kind {
            StructureKind::Cache {
                capacity,
                assoc,
                banks,
                ..
            } => {
                assert_eq!(capacity, 16 * 1024);
                assert_eq!(assoc, 4);
                assert_eq!(banks, 1);
            }
            _ => panic!("not a cache"),
        }
        assert_eq!(c.kind.ports_per_cycle(), 1);
    }

    #[test]
    fn serving_objects() {
        let mut s = Structure::scratchpad("spad", 64);
        let o = MemObjId(3);
        s.serve(o);
        s.serve(o); // idempotent
        assert!(s.serves(o));
        assert!(!s.serves(MemObjId(4)));
        assert_eq!(s.objects.len(), 1);
    }

    #[test]
    fn dram_port_throughput() {
        let d = Structure::dram("axi");
        assert_eq!(d.kind.ports_per_cycle(), 8);
        assert_eq!(d.kind.tag(), "dram");
    }
}
