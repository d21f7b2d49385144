//! Hardware timing characteristics of μIR components.
//!
//! μIR nodes correspond to microarchitecture-level hardware blocks, so each
//! op kind carries a pipeline latency, an initiation interval, and a
//! combinational per-stage delay estimate. The delays drive the critical-
//! path frequency model (Table 2) and the op-fusion pass's clock-period
//! constraint (§6.1: fusion must not create frequency-robbing stages).

use crate::node::{FusedInput, FusedPlan, NodeKind, OpKind};
use muir_mir::instr::{BinOp, CastOp, TensorOp, UnOp};
use muir_mir::types::Type;

/// Pipeline timing of a function unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Cycles from operand arrival to result (≥ 1).
    pub latency: u32,
    /// Cycles between successive independent inputs (1 = fully pipelined).
    pub ii: u32,
}

impl Timing {
    /// A fully pipelined unit of the given depth.
    pub fn pipelined(latency: u32) -> Timing {
        Timing {
            latency: latency.max(1),
            ii: 1,
        }
    }
}

/// Timing of a compute op on the given type.
pub fn op_timing(op: OpKind, ty: Type) -> Timing {
    let base = match op {
        OpKind::Bin(b) => match b {
            BinOp::Mul => Timing::pipelined(3),
            BinOp::Div | BinOp::Rem => Timing { latency: 16, ii: 8 },
            BinOp::FAdd | BinOp::FSub => Timing::pipelined(4),
            BinOp::FMul => Timing::pipelined(4),
            BinOp::FDiv => Timing { latency: 14, ii: 6 },
            _ => Timing::pipelined(1),
        },
        OpKind::Un(u) => match u {
            UnOp::FNeg | UnOp::Relu => Timing::pipelined(1),
            UnOp::Exp | UnOp::Sqrt => Timing { latency: 12, ii: 2 },
        },
        OpKind::Cmp(_) | OpKind::Select | OpKind::Cast(_) => Timing::pipelined(1),
        OpKind::Tensor(t, _) => match t {
            // A tile op is a spatial array of scalar units: latency covers
            // the reduction tree of Figure 14, II stays 1.
            TensorOp::MatMul | TensorOp::Conv => Timing::pipelined(4),
            // Adder tree only (no multiplier row): one stage shallower.
            TensorOp::Reduce => Timing::pipelined(3),
            // Softmax serialises through the exp unit, then divides.
            TensorOp::Softmax => Timing { latency: 16, ii: 2 },
            TensorOp::Add | TensorOp::Mul | TensorOp::Relu => Timing::pipelined(2),
        },
    };
    // Wide vector units add one staging cycle for operand distribution.
    if ty.is_composite() && !matches!(op, OpKind::Tensor(..)) {
        Timing {
            latency: base.latency + 1,
            ii: base.ii,
        }
    } else {
        base
    }
}

/// Combinational delay (ns) of one op at the FPGA reference technology
/// (Arria-10-class). The ASIC model scales this down in `muir-rtl`.
pub fn op_delay_ns(op: OpKind, _ty: Type) -> f64 {
    match op {
        OpKind::Bin(b) => match b {
            BinOp::Add | BinOp::Sub => 1.0,
            BinOp::Mul => 1.4,
            BinOp::Div | BinOp::Rem => 3.5,
            BinOp::And | BinOp::Or | BinOp::Xor => 0.5,
            BinOp::Shl | BinOp::LShr | BinOp::AShr => 0.8,
            BinOp::FAdd | BinOp::FSub => 2.5,
            BinOp::FMul => 2.8,
            BinOp::FDiv => 3.4,
        },
        OpKind::Un(u) => match u {
            UnOp::FNeg => 0.5,
            UnOp::Relu => 0.8,
            UnOp::Exp | UnOp::Sqrt => 3.2,
        },
        OpKind::Cmp(_) => 0.9,
        OpKind::Select => 0.6,
        OpKind::Cast(CastOp::IntResize) => 0.3,
        OpKind::Cast(_) => 1.5,
        OpKind::Tensor(t, _) => match t {
            TensorOp::MatMul | TensorOp::Conv => 2.9,
            TensorOp::Add | TensorOp::Mul => 2.6,
            TensorOp::Reduce => 2.4,
            TensorOp::Softmax => 3.2,
            TensorOp::Relu => 1.2,
        },
    }
}

/// Timing of any node kind. Memory and task-call nodes are transit points
/// whose real latency comes from the memory system / callee; this is their
/// local issue timing.
pub fn node_timing(kind: &NodeKind, ty: Type, period_ns: f64) -> Timing {
    match kind {
        NodeKind::Compute(op) => op_timing(*op, ty),
        NodeKind::Fused(plan) => fused_timing(plan, period_ns),
        NodeKind::Load { .. } | NodeKind::Store { .. } => Timing::pipelined(1),
        NodeKind::TaskCall { .. } => Timing::pipelined(1),
        NodeKind::FusedAcc { op } => {
            let t = op_timing(*op, ty);
            // The recurrence wraps inside the unit: II equals the member
            // op's latency (a 1-cycle int add accumulates every cycle).
            Timing {
                latency: t.latency,
                ii: t.latency,
            }
        }
        NodeKind::Input { .. }
        | NodeKind::IndVar
        | NodeKind::Const(_)
        | NodeKind::Merge
        | NodeKind::Output => Timing::pipelined(1),
    }
}

/// Critical combinational path (ns) through a fused plan.
pub fn fused_path_delay(plan: &FusedPlan) -> f64 {
    let mut arrivals = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        push_arrival(&mut arrivals, step.op, step.ty, step.inputs.iter().copied());
    }
    arrivals.iter().copied().fold(0.0, f64::max)
}

/// Append the arrival time (ns) of a plan's next step to `arrivals`, the
/// arrival times of its earlier steps: its latest input plus its own
/// delay. The critical path is the largest arrival; a caller that builds
/// a plan's arrivals from its steps gets [`fused_path_delay`]'s value
/// without building the plan.
pub fn push_arrival(
    arrivals: &mut Vec<f64>,
    op: OpKind,
    ty: Type,
    inputs: impl Iterator<Item = FusedInput>,
) {
    let in_max = inputs
        .map(|inp| match inp {
            FusedInput::External(_) => 0.0,
            FusedInput::Step(s) => arrivals[s as usize],
        })
        .fold(0.0, f64::max);
    arrivals.push(in_max + op_delay_ns(op, ty));
}

/// Timing of a fused node: ops are chained combinationally and re-timed
/// into the fewest stages that fit the clock period. The initiation
/// interval is the worst II of any member op.
pub fn fused_timing(plan: &FusedPlan, period_ns: f64) -> Timing {
    let path = fused_path_delay(plan);
    let latency = (path / period_ns.max(0.1)).ceil().max(1.0) as u32;
    let ii = plan
        .steps
        .iter()
        .map(|s| op_timing(s.op, s.ty).ii)
        .max()
        .unwrap_or(1);
    Timing { latency, ii }
}

/// The baseline clock period target (ns) at the FPGA reference technology.
/// 2.5 ns = 400 MHz, consistent with the paper's 350–500 MHz baselines.
pub const BASELINE_PERIOD_NS: f64 = 2.5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FusedStep;
    use muir_mir::instr::CmpPred;
    use muir_mir::types::{ScalarType, TensorShape};

    #[test]
    fn integer_ops_single_cycle() {
        let t = op_timing(OpKind::Bin(BinOp::Add), Type::I64);
        assert_eq!(t, Timing { latency: 1, ii: 1 });
        let t = op_timing(OpKind::Cmp(CmpPred::Lt), Type::I64);
        assert_eq!(t.latency, 1);
    }

    #[test]
    fn fp_ops_pipelined() {
        let t = op_timing(OpKind::Bin(BinOp::FMul), Type::F32);
        assert_eq!(t.latency, 4);
        assert_eq!(t.ii, 1);
        let t = op_timing(OpKind::Bin(BinOp::FDiv), Type::F32);
        assert!(t.ii > 1, "fdiv is not fully pipelined");
    }

    #[test]
    fn tensor_units_fully_pipelined() {
        let shape = TensorShape::new(2, 2);
        let ty = Type::Tensor {
            elem: ScalarType::F32,
            shape,
        };
        let t = op_timing(OpKind::Tensor(TensorOp::MatMul, shape), ty);
        assert_eq!(t.ii, 1);
        assert!(t.latency >= 2);
    }

    #[test]
    fn fused_timing_packs_stages() {
        // Three 1.0 ns adds chained: 3.0 ns path → 2 stages at 2.5 ns.
        // Compared to 3 separate handshaked nodes (3 cycles + 3 handshake
        // registers), the fused node is shorter.
        let step = |inputs: Vec<FusedInput>| FusedStep {
            op: OpKind::Bin(BinOp::Add),
            ty: Type::I64,
            inputs,
        };
        let plan = FusedPlan {
            arity: 2,
            steps: vec![
                step(vec![FusedInput::External(0), FusedInput::External(1)]),
                step(vec![FusedInput::Step(0), FusedInput::External(1)]),
                step(vec![FusedInput::Step(1), FusedInput::External(0)]),
            ],
        };
        assert!((fused_path_delay(&plan) - 3.0).abs() < 1e-9);
        let t = fused_timing(&plan, BASELINE_PERIOD_NS);
        assert_eq!(t.latency, 2);
        assert_eq!(t.ii, 1);

        // Two cheap logic ops fuse into a single stage.
        let cheap = |inputs: Vec<FusedInput>| FusedStep {
            op: OpKind::Bin(BinOp::And),
            ty: Type::I64,
            inputs,
        };
        let plan2 = FusedPlan {
            arity: 2,
            steps: vec![
                cheap(vec![FusedInput::External(0), FusedInput::External(1)]),
                cheap(vec![FusedInput::Step(0), FusedInput::External(1)]),
            ],
        };
        assert_eq!(fused_timing(&plan2, BASELINE_PERIOD_NS).latency, 1);
    }

    #[test]
    fn fused_parallel_steps_do_not_add() {
        // Two independent ops both fed from externals: path = max, not sum.
        let plan = FusedPlan {
            arity: 2,
            steps: vec![
                FusedStep {
                    op: OpKind::Bin(BinOp::Add),
                    ty: Type::I64,
                    inputs: vec![FusedInput::External(0), FusedInput::External(1)],
                },
                FusedStep {
                    op: OpKind::Bin(BinOp::Mul),
                    ty: Type::I64,
                    inputs: vec![FusedInput::External(0), FusedInput::External(1)],
                },
            ],
        };
        assert!((fused_path_delay(&plan) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn node_timing_covers_all_kinds() {
        assert_eq!(node_timing(&NodeKind::Merge, Type::I64, 2.5).latency, 1);
        assert_eq!(node_timing(&NodeKind::Output, Type::I64, 2.5).latency, 1);
        let c = NodeKind::Compute(OpKind::Bin(BinOp::FAdd));
        assert_eq!(node_timing(&c, Type::F32, 2.5).latency, 4);
    }
}
