//! Tensor-op graph front door (§6.3's Tensorflow path, made first-class).
//!
//! A [`TensorGraph`] is a small deterministic DAG of whole-tensor ops —
//! `matmul`, `conv`, `add`, `mul`, `relu`, `reduce`, `softmax` — over
//! rank-2 f32 tensors, with a text format, shape inference, a content
//! hash, and a lowering into `muir-mir` loop nests built on the Tensor2D
//! tile intrinsics. The lowered module translates through the ordinary
//! frontend into a verified `Accelerator` and seals like any other
//! workload.
//!
//! # Text format
//!
//! ```text
//! graph attn
//! input q : f32[8,8]
//! input kt : f32[8,8]
//! input v : f32[8,8]
//! %s = matmul q, kt
//! %p = softmax %s
//! %o = matmul %p, v
//! output %o
//! ```
//!
//! Inputs are referenced by bare name, nodes by `%name`; forward
//! references are allowed (the verifier topologically sorts and rejects
//! cycles). `;` starts a comment. The printer emits exactly this form,
//! so `parse ∘ print` is the identity on canonical text.
//!
//! # Lowering contract
//!
//! Tensors are row-major in memory, one `muir-mir` memory object per
//! graph input and per materialized node (the graph output's object is
//! always named `out`). Because `load_tile` fetches *consecutive*
//! elements, every tile the lowering issues is a `1×T` row strip with
//! `T` the largest divisor of the row width ≤ `max_tile` (8, the databox
//! width):
//!
//! * `matmul` transposes its right operand into an internal `*_bt`
//!   buffer, then forms each output element as a chain of `tensor.conv`
//!   row-dot-products;
//! * `conv` (valid, stride 1) accumulates one `tensor.conv` per kernel
//!   row strip;
//! * `add`/`mul`/`relu` stream `1×T` tiles through the element-wise
//!   units; `reduce` folds `tensor.reduce` partials; `softmax` applies
//!   `tensor.softmax` per row when the row fits one tile and otherwise
//!   falls back to a scalar exp/sum/divide pass.
//!
//! Ahead of μopt, a graph-level fusion step folds a single-consumer
//! `relu` into its producer's store loop, eliminating the intermediate
//! buffer entirely (the tile- or scalar-level ReLU rides the producer's
//! store).

use muir_core::ContentHasher;
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{MemObjId, TensorOp, ValueRef};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, TensorShape, Type};
use std::collections::BTreeMap;
use std::fmt;

/// Widest row strip the databox fetches in one request (elements).
pub(crate) const MAX_TILE: usize = 8;

/// Largest tensor dimension the front door accepts. Keeps lowered
/// memory objects within the simulator's comfortable range.
pub(crate) const MAX_DIM: usize = 64;

/// Typed failure codes, stable for tooling (`E-TENSOR-*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorCode {
    /// Malformed text.
    Parse,
    /// Reference to an unknown input or node.
    Undef,
    /// Wrong operand count for an op.
    Arity,
    /// Tensor type is not rank-2 (`f32[R,C]`).
    Rank,
    /// Dimensions incompatible (or out of range) for an op.
    Shape,
    /// Element type unsupported (only `f32`).
    Type,
    /// The node references form a cycle.
    Cycle,
}

impl TensorCode {
    /// The stable error-code string.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TensorCode::Parse => "E-TENSOR-PARSE",
            TensorCode::Undef => "E-TENSOR-UNDEF",
            TensorCode::Arity => "E-TENSOR-ARITY",
            TensorCode::Rank => "E-TENSOR-RANK",
            TensorCode::Shape => "E-TENSOR-SHAPE",
            TensorCode::Type => "E-TENSOR-TYPE",
            TensorCode::Cycle => "E-TENSOR-CYCLE",
        }
    }
}

/// A tensor-graph failure: typed code plus human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorError {
    /// Stable error class.
    pub code: TensorCode,
    /// What went wrong, with names and dimensions.
    pub message: String,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for TensorError {}

fn terr(code: TensorCode, message: impl Into<String>) -> TensorError {
    TensorError {
        code,
        message: message.into(),
    }
}

/// Rank-2 tensor dimensions (rows × cols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Row count (≥ 1).
    pub rows: usize,
    /// Column count (≥ 1).
    pub cols: usize,
}

impl Dims {
    /// `rows × cols` dims.
    pub fn new(rows: usize, cols: usize) -> Dims {
        Dims { rows, cols }
    }

    /// Total element count.
    pub fn elems(self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f32[{},{}]", self.rows, self.cols)
    }
}

/// Whole-tensor graph ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphOp {
    /// `[m,k] × [k,n] → [m,n]`.
    MatMul,
    /// Valid 2-D convolution, stride 1: `[h,w] * [kh,kw] → [h-kh+1,w-kw+1]`.
    Conv,
    /// Element-wise sum of equal shapes.
    Add,
    /// Element-wise (Hadamard) product of equal shapes.
    Mul,
    /// Element-wise `max(x, 0)`.
    Relu,
    /// Sum of every element: `[h,w] → [1,1]`.
    Reduce,
    /// Row-wise softmax (normalizes each row independently).
    Softmax,
}

impl GraphOp {
    /// Text-format mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GraphOp::MatMul => "matmul",
            GraphOp::Conv => "conv",
            GraphOp::Add => "add",
            GraphOp::Mul => "mul",
            GraphOp::Relu => "relu",
            GraphOp::Reduce => "reduce",
            GraphOp::Softmax => "softmax",
        }
    }

    fn from_mnemonic(s: &str) -> Option<GraphOp> {
        Some(match s {
            "matmul" => GraphOp::MatMul,
            "conv" => GraphOp::Conv,
            "add" => GraphOp::Add,
            "mul" => GraphOp::Mul,
            "relu" => GraphOp::Relu,
            "reduce" => GraphOp::Reduce,
            "softmax" => GraphOp::Softmax,
            _ => return None,
        })
    }

    /// Operand count.
    pub(crate) fn arity(self) -> usize {
        match self {
            GraphOp::MatMul | GraphOp::Conv | GraphOp::Add | GraphOp::Mul => 2,
            GraphOp::Relu | GraphOp::Reduce | GraphOp::Softmax => 1,
        }
    }
}

/// A reference to a graph value: an input or another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphRef {
    /// Index into [`TensorGraph::inputs`].
    Input(usize),
    /// Index into [`TensorGraph::nodes`].
    Node(usize),
}

/// A named graph input tensor.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Bare identifier.
    pub name: String,
    /// Declared dimensions.
    pub dims: Dims,
}

/// One op node.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// `%name` identifier.
    pub name: String,
    /// The op.
    pub op: GraphOp,
    /// Operands, in op order.
    pub args: Vec<GraphRef>,
    /// Inferred result dimensions.
    pub dims: Dims,
}

/// A verified tensor-op DAG: shape-inferred, acyclic, single output.
#[derive(Debug, Clone)]
pub struct TensorGraph {
    /// Graph name (becomes the lowered module name).
    pub name: String,
    /// Input tensors, in declaration order.
    pub inputs: Vec<GraphInput>,
    /// Op nodes, in declaration order (may reference forward).
    pub nodes: Vec<GraphNode>,
    /// Index of the output node.
    pub output: usize,
    /// Node indices in topological (dependency) order.
    topo: Vec<usize>,
}

fn is_ident(s: &str) -> bool {
    let mut ch = s.chars();
    match ch.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    ch.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_dims(s: &str, line: usize) -> Result<Dims, TensorError> {
    let s = s.trim();
    let Some(rest) = s.strip_prefix("f32") else {
        // A different element type is a *type* error, a malformed tail a
        // parse error.
        let tail = s.find('[').map_or(s, |i| &s[..i]);
        if is_ident(tail) && !tail.is_empty() {
            return Err(terr(
                TensorCode::Type,
                format!("line {line}: element type `{tail}` unsupported (only f32)"),
            ));
        }
        return Err(terr(
            TensorCode::Parse,
            format!("line {line}: bad type `{s}`"),
        ));
    };
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| terr(TensorCode::Parse, format!("line {line}: bad type `{s}`")))?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() != 2 {
        return Err(terr(
            TensorCode::Rank,
            format!(
                "line {line}: rank-{} tensor `{s}` (tensors are rank-2: f32[R,C])",
                parts.len()
            ),
        ));
    }
    let rows: usize = parts[0].parse().map_err(|_| {
        terr(
            TensorCode::Parse,
            format!("line {line}: bad rows `{}`", parts[0]),
        )
    })?;
    let cols: usize = parts[1].parse().map_err(|_| {
        terr(
            TensorCode::Parse,
            format!("line {line}: bad cols `{}`", parts[1]),
        )
    })?;
    if rows == 0 || cols == 0 || rows > MAX_DIM || cols > MAX_DIM {
        return Err(terr(
            TensorCode::Shape,
            format!("line {line}: dimensions [{rows},{cols}] out of range 1..={MAX_DIM}"),
        ));
    }
    Ok(Dims::new(rows, cols))
}

/// Infer the result dims of `op` over operand dims `ds`, or explain why
/// the shapes are incompatible.
fn infer_dims(op: GraphOp, name: &str, ds: &[Dims]) -> Result<Dims, TensorError> {
    match op {
        GraphOp::MatMul => {
            let (a, b) = (ds[0], ds[1]);
            if a.cols != b.rows {
                return Err(terr(
                    TensorCode::Shape,
                    format!("%{name}: matmul inner dims disagree, {a} × {b}"),
                ));
            }
            Ok(Dims::new(a.rows, b.cols))
        }
        GraphOp::Conv => {
            let (a, k) = (ds[0], ds[1]);
            if k.rows > a.rows || k.cols > a.cols {
                return Err(terr(
                    TensorCode::Shape,
                    format!("%{name}: conv kernel {k} exceeds input {a}"),
                ));
            }
            Ok(Dims::new(a.rows - k.rows + 1, a.cols - k.cols + 1))
        }
        GraphOp::Add | GraphOp::Mul => {
            let (a, b) = (ds[0], ds[1]);
            if a != b {
                return Err(terr(
                    TensorCode::Shape,
                    format!("%{name}: {} operands disagree, {a} vs {b}", op.mnemonic()),
                ));
            }
            Ok(a)
        }
        GraphOp::Relu | GraphOp::Softmax => Ok(ds[0]),
        GraphOp::Reduce => Ok(Dims::new(1, 1)),
    }
}

impl TensorGraph {
    /// Build and verify a graph from parts (shape inference, cycle
    /// check, reference resolution already encoded in `GraphRef`s).
    ///
    /// # Errors
    /// Shape/rank/cycle violations, typed.
    pub fn build(
        name: impl Into<String>,
        inputs: Vec<GraphInput>,
        mut nodes: Vec<GraphNode>,
        output: usize,
    ) -> Result<TensorGraph, TensorError> {
        let name = name.into();
        // Bounds + arity.
        for n in &nodes {
            if n.args.len() != n.op.arity() {
                return Err(terr(
                    TensorCode::Arity,
                    format!(
                        "%{}: {} takes {} operand(s), got {}",
                        n.name,
                        n.op.mnemonic(),
                        n.op.arity(),
                        n.args.len()
                    ),
                ));
            }
            for a in &n.args {
                let ok = match a {
                    GraphRef::Input(i) => *i < inputs.len(),
                    GraphRef::Node(j) => *j < nodes.len(),
                };
                if !ok {
                    return Err(terr(
                        TensorCode::Undef,
                        format!("%{}: dangling reference", n.name),
                    ));
                }
            }
        }
        if output >= nodes.len() {
            return Err(terr(
                TensorCode::Undef,
                "output references no node".to_string(),
            ));
        }
        // Topological sort (Kahn) over node→node edges; a leftover node
        // means a cycle.
        let nn = nodes.len();
        let mut indeg = vec![0usize; nn];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nn];
        for (i, n) in nodes.iter().enumerate() {
            for a in &n.args {
                if let GraphRef::Node(j) = a {
                    indeg[i] += 1;
                    succs[*j].push(i);
                }
            }
        }
        let mut work: Vec<usize> = (0..nn).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(nn);
        while let Some(i) = work.pop() {
            topo.push(i);
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    work.push(s);
                }
            }
        }
        if topo.len() != nn {
            let stuck: Vec<&str> = (0..nn)
                .filter(|&i| indeg[i] > 0)
                .map(|i| nodes[i].name.as_str())
                .collect();
            return Err(terr(
                TensorCode::Cycle,
                format!("nodes form a cycle through %{}", stuck.join(", %")),
            ));
        }
        // Kahn proved acyclicity; derive the *canonical* topo order by
        // repeated passes in declaration order until fixpoint (stable
        // regardless of worklist pop order, cheap at these sizes).
        let mut placed = vec![false; nn];
        let mut order = Vec::with_capacity(nn);
        while order.len() < nn {
            let before = order.len();
            for i in 0..nn {
                if placed[i] {
                    continue;
                }
                let ready = nodes[i].args.iter().all(|a| match a {
                    GraphRef::Input(_) => true,
                    GraphRef::Node(j) => placed[*j],
                });
                if ready {
                    placed[i] = true;
                    order.push(i);
                }
            }
            debug_assert!(order.len() > before, "cycle slipped past Kahn");
        }
        // Shape inference in dependency order.
        for &i in &order {
            let ds: Vec<Dims> = nodes[i]
                .args
                .iter()
                .map(|a| match a {
                    GraphRef::Input(k) => inputs[*k].dims,
                    GraphRef::Node(j) => nodes[*j].dims,
                })
                .collect();
            nodes[i].dims = infer_dims(nodes[i].op, &nodes[i].name.clone(), &ds)?;
        }
        Ok(TensorGraph {
            name,
            inputs,
            nodes,
            output,
            topo: order,
        })
    }

    /// Parse the text format (see module docs).
    ///
    /// # Errors
    /// Typed `E-TENSOR-*` failures with line numbers.
    pub fn parse(text: &str) -> Result<TensorGraph, TensorError> {
        let mut name: Option<String> = None;
        let mut inputs: Vec<GraphInput> = Vec::new();
        // (name, op, raw args, line)
        let mut raw_nodes: Vec<(&str, GraphOp, Vec<&str>, usize)> = Vec::new();
        let mut output: Option<(&str, usize)> = None;
        for (ln, raw) in text.lines().enumerate() {
            let ln = ln + 1;
            let line = raw.split(';').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("graph ") {
                if name.is_some() {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: duplicate graph header"),
                    ));
                }
                let g = rest.trim();
                if !is_ident(g) {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: bad graph name `{g}`"),
                    ));
                }
                name = Some(g.to_string());
            } else if let Some(rest) = line.strip_prefix("input ") {
                let (nm, ty) = rest.split_once(':').ok_or_else(|| {
                    terr(
                        TensorCode::Parse,
                        format!("line {ln}: input needs `: f32[R,C]`"),
                    )
                })?;
                let nm = nm.trim();
                if !is_ident(nm) {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: bad input name `{nm}`"),
                    ));
                }
                if inputs.iter().any(|i| i.name == nm) {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: duplicate input `{nm}`"),
                    ));
                }
                let dims = parse_dims(ty, ln)?;
                inputs.push(GraphInput {
                    name: nm.to_string(),
                    dims,
                });
            } else if let Some(rest) = line.strip_prefix("output ") {
                if output.is_some() {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: duplicate output"),
                    ));
                }
                let r = rest.trim();
                let nm = r.strip_prefix('%').ok_or_else(|| {
                    terr(
                        TensorCode::Parse,
                        format!("line {ln}: output must name a %node"),
                    )
                })?;
                output = Some((nm, ln));
            } else if let Some(rest) = line.strip_prefix('%') {
                let (nm, def) = rest.split_once('=').ok_or_else(|| {
                    terr(
                        TensorCode::Parse,
                        format!("line {ln}: node needs `= op args`"),
                    )
                })?;
                let nm = nm.trim();
                if !is_ident(nm) {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: bad node name `%{nm}`"),
                    ));
                }
                if raw_nodes.iter().any(|(n, ..)| *n == nm) {
                    return Err(terr(
                        TensorCode::Parse,
                        format!("line {ln}: duplicate node `%{nm}`"),
                    ));
                }
                let def = def.trim();
                let (opname, args) = def.split_once(' ').unwrap_or((def, ""));
                let op = GraphOp::from_mnemonic(opname.trim()).ok_or_else(|| {
                    terr(
                        TensorCode::Parse,
                        format!("line {ln}: unknown op `{opname}`"),
                    )
                })?;
                let args: Vec<&str> = args
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                raw_nodes.push((nm, op, args, ln));
            } else {
                return Err(terr(
                    TensorCode::Parse,
                    format!("line {ln}: unrecognized `{line}`"),
                ));
            }
        }
        let name = name.ok_or_else(|| terr(TensorCode::Parse, "missing `graph <name>` header"))?;
        let (out_name, out_ln) =
            output.ok_or_else(|| terr(TensorCode::Parse, "missing `output %node`"))?;
        // Resolve references.
        let node_idx: BTreeMap<&str, usize> = raw_nodes
            .iter()
            .enumerate()
            .map(|(i, (n, ..))| (*n, i))
            .collect();
        let input_idx: BTreeMap<&str, usize> = inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| (inp.name.as_str(), i))
            .collect();
        let mut nodes = Vec::with_capacity(raw_nodes.len());
        for (nm, op, raw_args, ln) in &raw_nodes {
            let mut args = Vec::with_capacity(raw_args.len());
            for a in raw_args {
                let r = if let Some(n) = a.strip_prefix('%') {
                    GraphRef::Node(*node_idx.get(n).ok_or_else(|| {
                        terr(TensorCode::Undef, format!("line {ln}: unknown node `%{n}`"))
                    })?)
                } else {
                    GraphRef::Input(*input_idx.get(a).ok_or_else(|| {
                        terr(TensorCode::Undef, format!("line {ln}: unknown input `{a}`"))
                    })?)
                };
                args.push(r);
            }
            nodes.push(GraphNode {
                name: nm.to_string(),
                op: *op,
                args,
                dims: Dims::new(1, 1), // inferred by build()
            });
        }
        let out = *node_idx.get(out_name).ok_or_else(|| {
            terr(
                TensorCode::Undef,
                format!("line {out_ln}: unknown output node `%{out_name}`"),
            )
        })?;
        TensorGraph::build(name, inputs, nodes, out)
    }

    /// Canonical text form; `parse(print(g))` is the identity.
    pub fn print(&self) -> String {
        let mut s = format!("graph {}\n", self.name);
        for i in &self.inputs {
            s.push_str(&format!("input {} : {}\n", i.name, i.dims));
        }
        for n in &self.nodes {
            let args: Vec<String> = n
                .args
                .iter()
                .map(|a| match a {
                    GraphRef::Input(i) => self.inputs[*i].name.clone(),
                    GraphRef::Node(j) => format!("%{}", self.nodes[*j].name),
                })
                .collect();
            s.push_str(&format!(
                "%{} = {} {}\n",
                n.name,
                n.op.mnemonic(),
                args.join(", ")
            ));
        }
        s.push_str(&format!("output %{}\n", self.nodes[self.output].name));
        s
    }

    /// Deterministic content hash of the canonical text form.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.push(self.print().as_bytes());
        h.finish()
    }

    /// Evaluate the graph on f32 inputs (row-major, one slice per
    /// declared input) and return the output tensor, row-major.
    ///
    /// This is the graph-level *reference semantics*: independent of the
    /// lowering, used by the differential suites.
    ///
    /// # Errors
    /// Input count/length mismatches (typed `E-TENSOR-SHAPE`).
    pub fn eval(&self, inputs: &[Vec<f32>]) -> Result<Vec<f32>, TensorError> {
        if inputs.len() != self.inputs.len() {
            return Err(terr(
                TensorCode::Shape,
                format!(
                    "expected {} input tensors, got {}",
                    self.inputs.len(),
                    inputs.len()
                ),
            ));
        }
        for (gi, data) in self.inputs.iter().zip(inputs) {
            if data.len() != gi.dims.elems() {
                return Err(terr(
                    TensorCode::Shape,
                    format!(
                        "input {}: expected {} elements, got {}",
                        gi.name,
                        gi.dims.elems(),
                        data.len()
                    ),
                ));
            }
        }
        let mut vals: Vec<Option<Vec<f32>>> = vec![None; self.nodes.len()];
        let fetch = |vals: &Vec<Option<Vec<f32>>>, r: GraphRef| -> (Vec<f32>, Dims) {
            match r {
                GraphRef::Input(i) => (inputs[i].clone(), self.inputs[i].dims),
                GraphRef::Node(j) => (vals[j].clone().expect("topo order"), self.nodes[j].dims),
            }
        };
        for &i in &self.topo {
            let n = &self.nodes[i];
            let (a, ad) = fetch(&vals, n.args[0]);
            let out = match n.op {
                GraphOp::MatMul => {
                    let (b, bd) = fetch(&vals, n.args[1]);
                    let (m, k, nn) = (ad.rows, ad.cols, bd.cols);
                    let mut c = vec![0.0f32; m * nn];
                    for r in 0..m {
                        for col in 0..nn {
                            let mut acc = 0.0f32;
                            for t in 0..k {
                                acc += a[r * k + t] * b[t * nn + col];
                            }
                            c[r * nn + col] = acc;
                        }
                    }
                    c
                }
                GraphOp::Conv => {
                    let (kn, kd) = fetch(&vals, n.args[1]);
                    let (oh, ow) = (n.dims.rows, n.dims.cols);
                    let mut c = vec![0.0f32; oh * ow];
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let mut acc = 0.0f32;
                            for r in 0..kd.rows {
                                for s in 0..kd.cols {
                                    acc += a[(oi + r) * ad.cols + (oj + s)] * kn[r * kd.cols + s];
                                }
                            }
                            c[oi * ow + oj] = acc;
                        }
                    }
                    c
                }
                GraphOp::Add | GraphOp::Mul => {
                    let (b, _) = fetch(&vals, n.args[1]);
                    a.iter()
                        .zip(&b)
                        .map(|(x, y)| if n.op == GraphOp::Add { x + y } else { x * y })
                        .collect()
                }
                GraphOp::Relu => a.iter().map(|x| x.max(0.0)).collect(),
                GraphOp::Reduce => vec![a.iter().sum()],
                GraphOp::Softmax => {
                    let w = ad.cols;
                    let mut out = Vec::with_capacity(a.len());
                    for row in a.chunks(w) {
                        let es: Vec<f32> = row.iter().map(|x| x.exp()).collect();
                        let s: f32 = es.iter().sum();
                        out.extend(es.iter().map(|e| e / s));
                    }
                    out
                }
            };
            vals[i] = Some(out);
        }
        Ok(vals[self.output].clone().expect("output evaluated"))
    }
}

/// Lowering configuration.
#[derive(Debug, Clone)]
pub struct TensorLowerConfig {
    /// Widest row strip to issue as one tile (elements, ≤ 8).
    pub max_tile: usize,
    /// Fold single-consumer `relu` into its producer's store loop.
    pub fuse: bool,
}

impl Default for TensorLowerConfig {
    fn default() -> Self {
        TensorLowerConfig {
            max_tile: MAX_TILE,
            fuse: true,
        }
    }
}

/// A lowered graph: the `muir-mir` module plus the memory-object map a
/// caller needs to seed inputs and check the output.
#[derive(Debug, Clone)]
pub struct LoweredGraph {
    /// The loop-nest module (one `main`, tile intrinsics inside).
    pub module: Module,
    /// One read-only object per graph input, in declaration order.
    pub inputs: Vec<MemObjId>,
    /// The output object (always named `out`).
    pub output: MemObjId,
    /// Number of `relu` nodes folded into their producers.
    pub fused_relus: usize,
}

/// Largest divisor of `w` that is ≤ `max` (tile width planning).
fn chunk_width(w: usize, max: usize) -> usize {
    let max = max.clamp(1, MAX_TILE);
    (1..=max.min(w))
        .rev()
        .find(|t| w.is_multiple_of(*t))
        .unwrap_or(1)
}

impl TensorGraph {
    /// Graph-level fusion plan: for each node, the index of the
    /// single-consumer `relu` folded into it (if any). A `relu` is
    /// foldable when its operand is a non-relu *node* (not an input, not
    /// the graph output) with exactly one use.
    pub(crate) fn fusion_plan(&self) -> BTreeMap<usize, usize> {
        let mut uses = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for a in &n.args {
                if let GraphRef::Node(j) = a {
                    uses[*j] += 1;
                }
            }
        }
        let mut plan = BTreeMap::new();
        for (c, n) in self.nodes.iter().enumerate() {
            if n.op != GraphOp::Relu {
                continue;
            }
            if let GraphRef::Node(p) = n.args[0] {
                if uses[p] == 1 && p != self.output && self.nodes[p].op != GraphOp::Relu {
                    plan.insert(p, c);
                }
            }
        }
        plan
    }

    /// Lower to a `muir-mir` loop-nest module (see module docs for the
    /// tiling/fusion contract).
    ///
    /// # Errors
    /// Currently infallible for verified graphs; kept fallible for
    /// future resource limits.
    pub fn lower(&self, cfg: &TensorLowerConfig) -> Result<LoweredGraph, TensorError> {
        let mut m = Module::new(self.name.clone());
        let plan = if cfg.fuse {
            self.fusion_plan()
        } else {
            BTreeMap::new()
        };
        let fused_relus = plan.len();
        let skipped: Vec<usize> = plan.values().copied().collect();

        // Pass 1: memory objects. Every input; every materialized node
        // (fused producers write into their relu consumer's buffer); a
        // `*_bt` transpose scratch per matmul.
        let input_objs: Vec<MemObjId> = self
            .inputs
            .iter()
            .map(|i| m.add_ro_mem_object(i.name.clone(), ScalarType::F32, i.dims.elems() as u64))
            .collect();
        let mut node_buf: Vec<Option<MemObjId>> = vec![None; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if plan.contains_key(&i) {
                continue; // fused producer writes to its consumer's buffer
            }
            let name = if i == self.output {
                "out".to_string()
            } else {
                format!("t_{}", n.name)
            };
            node_buf[i] = Some(m.add_mem_object(name, ScalarType::F32, n.dims.elems() as u64));
        }
        // Fused producers share the consumer relu's buffer.
        for (&p, &c) in &plan {
            node_buf[p] = node_buf[c];
        }
        let mut bt_objs: BTreeMap<usize, MemObjId> = BTreeMap::new();
        for &i in &self.topo {
            if self.nodes[i].op == GraphOp::MatMul {
                let bd = self.ref_dims(self.nodes[i].args[1]);
                let o = m.add_mem_object(
                    format!("t_{}_bt", self.nodes[i].name),
                    ScalarType::F32,
                    bd.elems() as u64,
                );
                bt_objs.insert(i, o);
            }
        }
        let output_obj = node_buf[self.output].expect("output materialized");

        // Pass 2: emit loop nests in dependency order.
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        for &i in &self.topo {
            if skipped.contains(&i) {
                continue;
            }
            let n = &self.nodes[i];
            let fused = plan.contains_key(&i);
            let dst = node_buf[i].expect("materialized");
            let src = |g: &TensorGraph, r: GraphRef| -> (MemObjId, Dims) {
                match r {
                    GraphRef::Input(k) => (input_objs[k], g.inputs[k].dims),
                    GraphRef::Node(j) => (node_buf[j].expect("topo order"), g.nodes[j].dims),
                }
            };
            match n.op {
                GraphOp::MatMul => {
                    let (ao, ad) = src(self, n.args[0]);
                    let (bo, bd) = src(self, n.args[1]);
                    let bt = bt_objs[&i];
                    emit_matmul(&mut b, ao, ad, bo, bd, bt, dst, fused, cfg);
                }
                GraphOp::Conv => {
                    let (ao, ad) = src(self, n.args[0]);
                    let (ko, kd) = src(self, n.args[1]);
                    emit_conv(&mut b, ao, ad, ko, kd, dst, n.dims, fused, cfg);
                }
                GraphOp::Add | GraphOp::Mul => {
                    let (xo, xd) = src(self, n.args[0]);
                    let (yo, _) = src(self, n.args[1]);
                    let top = if n.op == GraphOp::Add {
                        TensorOp::Add
                    } else {
                        TensorOp::Mul
                    };
                    emit_elementwise2(&mut b, top, xo, yo, dst, xd, fused, cfg);
                }
                GraphOp::Relu => {
                    let (xo, xd) = src(self, n.args[0]);
                    emit_relu(&mut b, xo, dst, xd, cfg);
                }
                GraphOp::Reduce => {
                    let (xo, xd) = src(self, n.args[0]);
                    emit_reduce(&mut b, xo, dst, xd, fused, cfg);
                }
                GraphOp::Softmax => {
                    let (xo, xd) = src(self, n.args[0]);
                    emit_softmax(&mut b, xo, dst, xd, fused, cfg);
                }
            }
        }
        b.ret(None);
        m.add_function(b.finish());
        Ok(LoweredGraph {
            module: m,
            inputs: input_objs,
            output: output_obj,
            fused_relus,
        })
    }

    fn ref_dims(&self, r: GraphRef) -> Dims {
        match r {
            GraphRef::Input(i) => self.inputs[i].dims,
            GraphRef::Node(j) => self.nodes[j].dims,
        }
    }
}

fn row_shape(t: usize) -> TensorShape {
    TensorShape::new(1, t as u8)
}

const F32S: Type = Type::Scalar(ScalarType::F32);

#[allow(clippy::too_many_arguments)]
fn emit_matmul(
    b: &mut FunctionBuilder,
    ao: MemObjId,
    ad: Dims,
    bo: MemObjId,
    bd: Dims,
    bt: MemObjId,
    dst: MemObjId,
    fused_relu: bool,
    cfg: &TensorLowerConfig,
) {
    let (m, k, n) = (ad.rows as i64, ad.cols as i64, bd.cols as i64);
    // Transpose B into bt (row-major [n,k]) so each dot product reads two
    // contiguous row strips.
    b.for_loop_par(0, ValueRef::int(n), 1, |b, j| {
        b.for_loop(0, ValueRef::int(k), 1, |b, l| {
            let ln = b.mul(l, ValueRef::int(n));
            let sidx = b.add(ln, j);
            let v = b.load(bo, sidx);
            let jk = b.mul(j, ValueRef::int(k));
            let didx = b.add(jk, l);
            b.store(bt, didx, v);
        });
    });
    let t = chunk_width(k as usize, cfg.max_tile) as i64;
    let sh = row_shape(t as usize);
    b.for_loop_par(0, ValueRef::int(m), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(n), 1, |b, j| {
            let arow = b.mul(i, ValueRef::int(k));
            let brow = b.mul(j, ValueRef::int(k));
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(k / t),
                1,
                &[(ValueRef::f32(0.0), F32S)],
                |b, c, accs| {
                    let off = b.mul(c, ValueRef::int(t));
                    let aoff = b.add(arow, off);
                    let at = b.load_tile(ao, aoff, sh);
                    let boff = b.add(brow, off);
                    let btile = b.load_tile(bt, boff, sh);
                    let p = b.tensor2(TensorOp::Conv, sh, at, btile);
                    vec![b.fadd(accs[0], p)]
                },
            );
            let v = if fused_relu { b.relu(acc[0]) } else { acc[0] };
            let irow = b.mul(i, ValueRef::int(n));
            let o = b.add(irow, j);
            b.store(dst, o, v);
        });
    });
}

#[allow(clippy::too_many_arguments)]
fn emit_conv(
    b: &mut FunctionBuilder,
    ao: MemObjId,
    ad: Dims,
    ko: MemObjId,
    kd: Dims,
    dst: MemObjId,
    od: Dims,
    fused_relu: bool,
    cfg: &TensorLowerConfig,
) {
    let (w, kh, kw) = (ad.cols as i64, kd.rows as i64, kd.cols as i64);
    let (oh, ow) = (od.rows as i64, od.cols as i64);
    let t = chunk_width(kw as usize, cfg.max_tile) as i64;
    let sh = row_shape(t as usize);
    b.for_loop_par(0, ValueRef::int(oh), 1, |b, oi| {
        b.for_loop_par(0, ValueRef::int(ow), 1, |b, oj| {
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(kh),
                1,
                &[(ValueRef::f32(0.0), F32S)],
                |b, r, accs| {
                    let row = b.add(oi, r);
                    let roww = b.mul(row, ValueRef::int(w));
                    let base = b.add(roww, oj);
                    let krow = b.mul(r, ValueRef::int(kw));
                    let racc = b.for_loop_acc(
                        ValueRef::int(0),
                        ValueRef::int(kw / t),
                        1,
                        &[(ValueRef::f32(0.0), F32S)],
                        |b, c, rac| {
                            let off = b.mul(c, ValueRef::int(t));
                            let io = b.add(base, off);
                            let it = b.load_tile(ao, io, sh);
                            let kio = b.add(krow, off);
                            let kt = b.load_tile(ko, kio, sh);
                            let p = b.tensor2(TensorOp::Conv, sh, it, kt);
                            vec![b.fadd(rac[0], p)]
                        },
                    );
                    vec![b.fadd(accs[0], racc[0])]
                },
            );
            let v = if fused_relu { b.relu(acc[0]) } else { acc[0] };
            let orow = b.mul(oi, ValueRef::int(ow));
            let o = b.add(orow, oj);
            b.store(dst, o, v);
        });
    });
}

#[allow(clippy::too_many_arguments)]
fn emit_elementwise2(
    b: &mut FunctionBuilder,
    op: TensorOp,
    xo: MemObjId,
    yo: MemObjId,
    dst: MemObjId,
    d: Dims,
    fused_relu: bool,
    cfg: &TensorLowerConfig,
) {
    let total = d.elems() as i64;
    let t = chunk_width(d.elems(), cfg.max_tile) as i64;
    let sh = row_shape(t as usize);
    b.for_loop_par(0, ValueRef::int(total / t), 1, |b, p| {
        let off = b.mul(p, ValueRef::int(t));
        let x = b.load_tile(xo, off, sh);
        let y = b.load_tile(yo, off, sh);
        let mut v = b.tensor2(op, sh, x, y);
        if fused_relu {
            v = b.tensor1(TensorOp::Relu, sh, v);
        }
        b.store(dst, off, v);
    });
}

fn emit_relu(
    b: &mut FunctionBuilder,
    xo: MemObjId,
    dst: MemObjId,
    d: Dims,
    cfg: &TensorLowerConfig,
) {
    let total = d.elems() as i64;
    let t = chunk_width(d.elems(), cfg.max_tile) as i64;
    let sh = row_shape(t as usize);
    b.for_loop_par(0, ValueRef::int(total / t), 1, |b, p| {
        let off = b.mul(p, ValueRef::int(t));
        let x = b.load_tile(xo, off, sh);
        let v = b.tensor1(TensorOp::Relu, sh, x);
        b.store(dst, off, v);
    });
}

fn emit_reduce(
    b: &mut FunctionBuilder,
    xo: MemObjId,
    dst: MemObjId,
    d: Dims,
    fused_relu: bool,
    cfg: &TensorLowerConfig,
) {
    let total = d.elems() as i64;
    let t = chunk_width(d.elems(), cfg.max_tile) as i64;
    let sh = row_shape(t as usize);
    let acc = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(total / t),
        1,
        &[(ValueRef::f32(0.0), F32S)],
        |b, p, accs| {
            let off = b.mul(p, ValueRef::int(t));
            let x = b.load_tile(xo, off, sh);
            let s = b.tensor1(TensorOp::Reduce, sh, x);
            vec![b.fadd(accs[0], s)]
        },
    );
    let v = if fused_relu { b.relu(acc[0]) } else { acc[0] };
    b.store(dst, ValueRef::int(0), v);
}

fn emit_softmax(
    b: &mut FunctionBuilder,
    xo: MemObjId,
    dst: MemObjId,
    d: Dims,
    fused_relu: bool,
    cfg: &TensorLowerConfig,
) {
    let (h, w) = (d.rows as i64, d.cols as i64);
    if d.cols <= cfg.max_tile.clamp(1, MAX_TILE) {
        // Whole row in one tile: the softmax functional unit handles it.
        let sh = row_shape(d.cols);
        b.for_loop_par(0, ValueRef::int(h), 1, |b, i| {
            let off = b.mul(i, ValueRef::int(w));
            let x = b.load_tile(xo, off, sh);
            let mut v = b.tensor1(TensorOp::Softmax, sh, x);
            if fused_relu {
                v = b.tensor1(TensorOp::Relu, sh, v);
            }
            b.store(dst, off, v);
        });
    } else {
        // Scalar fallback: exp pass accumulating the row sum into the
        // destination, then an in-place divide pass.
        b.for_loop_par(0, ValueRef::int(h), 1, |b, i| {
            let base = b.mul(i, ValueRef::int(w));
            let sum = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(w),
                1,
                &[(ValueRef::f32(0.0), F32S)],
                |b, j, accs| {
                    let o = b.add(base, j);
                    let v = b.load(xo, o);
                    let e = b.exp(v);
                    b.store(dst, o, e);
                    vec![b.fadd(accs[0], e)]
                },
            );
            b.for_loop(0, ValueRef::int(w), 1, |b, j| {
                let o = b.add(base, j);
                let e = b.load(dst, o);
                let mut q = b.fdiv(e, sum[0]);
                if fused_relu {
                    q = b.relu(q);
                }
                b.store(dst, o, q);
            });
        });
    }
}

/// Deterministic seeded graph generator (constructive — every produced
/// graph verifies). `size` scales the op count; the same `(seed, size)`
/// always yields the same graph. Shared by the frontend property tests
/// and `muir_bench::testgen`'s fuzz mix.
pub fn gen_graph(seed: u64, size: usize) -> TensorGraph {
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound.max(1) as u64) as usize
        }
    }
    fn add_input(inputs: &mut Vec<GraphInput>, dims: Dims) -> GraphRef {
        let idx = inputs.len();
        inputs.push(GraphInput {
            name: format!("in{idx}"),
            dims,
        });
        GraphRef::Input(idx)
    }
    const DIM_POOL: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];
    let mut rng = Rng(seed.max(1));
    let mut inputs: Vec<GraphInput> = Vec::new();
    let d0 = Dims::new(
        DIM_POOL[rng.below(DIM_POOL.len())],
        DIM_POOL[rng.below(DIM_POOL.len())],
    );
    let first = add_input(&mut inputs, d0);
    // Pool of available values with their dims.
    let mut pool: Vec<(GraphRef, Dims)> = vec![(first, d0)];
    let mut nodes: Vec<GraphNode> = Vec::new();
    let n_ops = 1 + size + rng.below(3);
    for i in 0..n_ops {
        let (vref, vd) = pool[rng.below(pool.len())];
        const OPS: [GraphOp; 7] = [
            GraphOp::Relu,
            GraphOp::Softmax,
            GraphOp::Reduce,
            GraphOp::Add,
            GraphOp::Mul,
            GraphOp::MatMul,
            GraphOp::Conv,
        ];
        let op = OPS[rng.below(OPS.len())];
        let (args, dims) = match op {
            GraphOp::Relu | GraphOp::Softmax => (vec![vref], vd),
            GraphOp::Reduce => (vec![vref], Dims::new(1, 1)),
            GraphOp::Add | GraphOp::Mul => {
                // Prefer an existing same-dims value; else mint an input.
                let mate = pool
                    .iter()
                    .find(|(r, d)| *d == vd && *r != vref)
                    .map(|(r, _)| *r);
                let mate = match mate {
                    Some(r) => r,
                    None => add_input(&mut inputs, vd),
                };
                (vec![vref, mate], vd)
            }
            GraphOp::MatMul => {
                let n = DIM_POOL[rng.below(DIM_POOL.len())];
                let rhs = add_input(&mut inputs, Dims::new(vd.cols, n));
                (vec![vref, rhs], Dims::new(vd.rows, n))
            }
            GraphOp::Conv => {
                let kh = 1 + rng.below(vd.rows.min(3));
                let kw = 1 + rng.below(vd.cols.min(3));
                let k = add_input(&mut inputs, Dims::new(kh, kw));
                (vec![vref, k], Dims::new(vd.rows - kh + 1, vd.cols - kw + 1))
            }
        };
        let nref = GraphRef::Node(nodes.len());
        nodes.push(GraphNode {
            name: format!("n{i}"),
            op,
            args,
            dims,
        });
        pool.push((nref, dims));
    }
    let output = nodes.len() - 1;
    TensorGraph::build(format!("gen_{seed:x}_{size}"), inputs, nodes, output)
        .expect("constructive generator always verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{translate, FrontendConfig};
    use muir_mir::interp::{Interp, Memory};

    const ATTN: &str = "\
graph attn
input q : f32[8,8]
input kt : f32[8,8]
input v : f32[8,8]
%s = matmul q, kt
%p = softmax %s
%o = matmul %p, v
output %o
";

    fn det_data(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Lower `g`, run the interpreter over the module, and return the
    /// output buffer.
    fn run_lowered(g: &TensorGraph, cfg: &TensorLowerConfig, seed: u64) -> Vec<f32> {
        let low = g.lower(cfg).unwrap();
        muir_mir::verify::verify_module(&low.module).unwrap();
        let mut mem = Memory::from_module(&low.module);
        for (obj, gi) in low.inputs.iter().zip(&g.inputs) {
            mem.init_f32(*obj, &det_data(seed ^ obj.0 as u64, gi.dims.elems()));
        }
        Interp::new(&low.module).run_main(&mut mem, &[]).unwrap();
        mem.read_f32(low.output)
    }

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                let scale = x.abs().max(y.abs()).max(1.0);
                (x - y).abs() <= 1e-4 * scale
            })
    }

    #[test]
    fn attn_parses_and_infers_shapes() {
        let g = TensorGraph::parse(ATTN).unwrap();
        assert_eq!(g.inputs.len(), 3);
        assert_eq!(g.nodes.len(), 3);
        for n in &g.nodes {
            assert_eq!(n.dims, Dims::new(8, 8), "%{}", n.name);
        }
    }

    #[test]
    fn print_parse_is_identity_on_canonical_text() {
        let g = TensorGraph::parse(ATTN).unwrap();
        let p = g.print();
        let g2 = TensorGraph::parse(&p).unwrap();
        assert_eq!(p, g2.print());
        assert_eq!(g.content_hash(), g2.content_hash());
    }

    #[test]
    fn roundtrip_property_over_generated_graphs() {
        for seed in 1..=40u64 {
            for size in 0..3usize {
                let g = gen_graph(seed, size);
                let p = g.print();
                let g2 = TensorGraph::parse(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{p}"));
                assert_eq!(p, g2.print(), "seed {seed} size {size}");
                assert_eq!(
                    g.content_hash(),
                    g2.content_hash(),
                    "seed {seed} size {size}"
                );
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = gen_graph(0xbeef, 2);
        let b = gen_graph(0xbeef, 2);
        assert_eq!(a.print(), b.print());
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), gen_graph(0xbee0, 2).content_hash());
    }

    /// `size` keeps scaling the op count past 8, and a large graph still
    /// verifies and round-trips through its text.
    #[test]
    fn generator_size_scales_past_eight() {
        for seed in 1..=8u64 {
            let big = gen_graph(seed, 32);
            assert!(
                big.nodes.len() > gen_graph(seed, 8).nodes.len(),
                "seed {seed}"
            );
            let text = big.print();
            let again = TensorGraph::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(again.content_hash(), big.content_hash(), "seed {seed}");
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let t = "graph g\ninput a : f32[4,4]\ninput b : f32[3,4]\n%m = matmul a, b\noutput %m\n";
        let e = TensorGraph::parse(t).unwrap_err();
        assert_eq!(e.code, TensorCode::Shape, "{e}");
        assert!(e.to_string().starts_with("E-TENSOR-SHAPE"), "{e}");

        let t = "graph g\ninput a : f32[4,4]\ninput b : f32[2,2]\n%m = add a, b\noutput %m\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Shape);

        let t = "graph g\ninput a : f32[2,2]\ninput k : f32[3,3]\n%c = conv a, k\noutput %c\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Shape);
    }

    #[test]
    fn rejects_rank_mismatch() {
        for bad in ["f32[8]", "f32[2,3,4]"] {
            let t = format!("graph g\ninput a : {bad}\n%r = relu a\noutput %r\n");
            let e = TensorGraph::parse(&t).unwrap_err();
            assert_eq!(e.code, TensorCode::Rank, "{bad}: {e}");
        }
    }

    #[test]
    fn rejects_cyclic_graphs() {
        let t = "graph g\ninput x : f32[2,2]\n%a = relu %b\n%b = relu %a\noutput %b\n";
        let e = TensorGraph::parse(t).unwrap_err();
        assert_eq!(e.code, TensorCode::Cycle, "{e}");
        // Self-loop.
        let t = "graph g\ninput x : f32[2,2]\n%a = relu %a\noutput %a\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Cycle);
    }

    #[test]
    fn rejects_bad_types_refs_and_arity() {
        let t = "graph g\ninput a : i32[2,2]\n%r = relu a\noutput %r\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Type);
        let t = "graph g\ninput a : f32[2,2]\n%r = relu b\noutput %r\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Undef);
        let t = "graph g\ninput a : f32[2,2]\n%r = add a\noutput %r\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Arity);
        let t = "graph g\ninput a : f32[2,2]\n%r = relu a\noutput %zz\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Undef);
        let t = "graph g\ninput a : f32[2,2]\n%r = frobnicate a\noutput %r\n";
        assert_eq!(TensorGraph::parse(t).unwrap_err().code, TensorCode::Parse);
    }

    #[test]
    fn attention_lowering_matches_graph_eval() {
        let g = TensorGraph::parse(ATTN).unwrap();
        let low = g.lower(&TensorLowerConfig::default()).unwrap();
        let inputs: Vec<Vec<f32>> = low
            .inputs
            .iter()
            .zip(&g.inputs)
            .map(|(obj, gi)| det_data(7 ^ obj.0 as u64, gi.dims.elems()))
            .collect();
        let want = g.eval(&inputs).unwrap();
        let got = run_lowered(&g, &TensorLowerConfig::default(), 7);
        assert!(close(&want, &got), "\nwant {want:?}\ngot  {got:?}");
        // Softmax rows sum to 1 inside the pipeline: output rows are
        // convex combinations of V rows, a useful sanity bound.
        assert!(got.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn generated_graphs_lower_and_match_eval() {
        for seed in [3u64, 11, 23, 0xf00d, 0xc0ffee] {
            let g = gen_graph(seed, 2);
            let low = g.lower(&TensorLowerConfig::default()).unwrap();
            let inputs: Vec<Vec<f32>> = low
                .inputs
                .iter()
                .zip(&g.inputs)
                .map(|(obj, gi)| det_data(seed ^ obj.0 as u64, gi.dims.elems()))
                .collect();
            let want = g.eval(&inputs).unwrap();
            let got = run_lowered(&g, &TensorLowerConfig::default(), seed);
            assert!(
                close(&want, &got),
                "seed {seed}:\n{}\nwant {want:?}\ngot  {got:?}",
                g.print()
            );
        }
    }

    #[test]
    fn relu_fuses_into_matmul_store() {
        let t = "\
graph mtr
input x : f32[8,8]
input w : f32[8,8]
%m = matmul x, w
%r = relu %m
output %r
";
        let g = TensorGraph::parse(t).unwrap();
        let fused = g.lower(&TensorLowerConfig::default()).unwrap();
        assert_eq!(fused.fused_relus, 1);
        let unfused = g
            .lower(&TensorLowerConfig {
                fuse: false,
                ..TensorLowerConfig::default()
            })
            .unwrap();
        assert_eq!(unfused.fused_relus, 0);
        // Fusion removes the intermediate buffer.
        assert_eq!(
            fused.module.mem_objects.len() + 1,
            unfused.module.mem_objects.len()
        );
        // And preserves semantics.
        let a = run_lowered(&g, &TensorLowerConfig::default(), 99);
        let b = run_lowered(
            &g,
            &TensorLowerConfig {
                fuse: false,
                ..TensorLowerConfig::default()
            },
            99,
        );
        assert!(close(&a, &b), "\nfused   {a:?}\nunfused {b:?}");
        assert!(
            a.iter().all(|x| *x >= 0.0),
            "relu output must be non-negative"
        );
    }

    #[test]
    fn wide_softmax_uses_scalar_fallback() {
        let t = "graph ws\ninput x : f32[2,16]\n%s = softmax x\noutput %s\n";
        let g = TensorGraph::parse(t).unwrap();
        let low = g.lower(&TensorLowerConfig::default()).unwrap();
        let inputs = vec![det_data(5 ^ low.inputs[0].0 as u64, 32)];
        let want = g.eval(&inputs).unwrap();
        let got = run_lowered(&g, &TensorLowerConfig::default(), 5);
        assert!(close(&want, &got), "\nwant {want:?}\ngot  {got:?}");
        let row: f32 = got[..16].iter().sum();
        assert!((row - 1.0).abs() < 1e-4, "{row}");
    }

    #[test]
    fn lowered_graphs_translate_to_accelerators() {
        let g = TensorGraph::parse(ATTN).unwrap();
        let low = g.lower(&TensorLowerConfig::default()).unwrap();
        let acc = translate(&low.module, &FrontendConfig::default()).unwrap();
        assert!(acc.tasks.len() > 1, "loop nests should cut tasks");
        assert_eq!(low.module.name, "attn");
    }
}
