//! IR2Vec-style program embeddings.
//!
//! IR2Vec represents LLVM IR as high-dimensional vectors built from a seed
//! vocabulary over the IR's fundamental entities — opcode, type and
//! operands — combined per instruction with fixed weights and refined with
//! flow information (use-def chains), then summed up to function and
//! program level. This crate applies the identical construction to the
//! mini-IR:
//!
//! - [`Vocabulary`] deterministically derives a unit vector per entity
//!   token (seeded, so embeddings are reproducible); each [`Embedder`]
//!   builds the vectors of every opcode, type, operand-kind and
//!   successor-count token once, pre-scaled by the paper's 1.0 / 0.5 / 0.2
//!   entity weights,
//! - a configurable number of flow iterations mixes in the embeddings of
//!   reaching definitions (use-def flow),
//! - [`Embedder::embed_module`] sums to program level under a fixed scale
//!   and log-compresses the norm, so state magnitudes stay bounded for the
//!   DQN.
//!
//! # Example
//!
//! ```
//! use posetrl_embed::Embedder;
//! use posetrl_ir::parser::parse_module;
//!
//! let m = parse_module(r#"
//! module "m"
//! fn @f(i64) -> i64 internal {
//! bb0:
//!   %r = add i64 %arg0, 1:i64
//!   ret %r
//! }
//! "#).unwrap();
//! let e = Embedder::default();
//! let v = e.embed_module(&m);
//! assert_eq!(v.len(), posetrl_embed::DIM);
//! ```

use posetrl_ir::{BinOp, CastKind, Function, Module, Op, Ty, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Embedding dimensionality (the paper uses IR2Vec's 300-d program level).
pub const DIM: usize = 300;

/// Weight of the opcode entity (IR2Vec's `Wo`).
pub const W_OPCODE: f64 = 1.0;
/// Weight of the type entity (IR2Vec's `Wt`).
pub const W_TYPE: f64 = 0.5;
/// Weight of each operand entity (IR2Vec's `Wa`).
pub const W_OPERAND: f64 = 0.2;
/// Weight of each global-variable entity in the program vector.
const W_GLOBAL: f64 = 0.5;

/// A deterministic seed vocabulary: token → unit vector.
#[derive(Debug, Clone, Copy)]
pub struct Vocabulary {
    dim: usize,
    seed: u64,
}

impl Vocabulary {
    /// Creates a vocabulary with the given dimensionality and seed.
    pub fn new(dim: usize, seed: u64) -> Vocabulary {
        Vocabulary { dim, seed }
    }

    /// The vector for `token` (deterministic across runs and instances).
    pub fn vector(&self, token: &str) -> Vec<f64> {
        let mut state = self.seed ^ fnv1a(token);
        let mut v = Vec::with_capacity(self.dim);
        for _ in 0..self.dim {
            state = splitmix64(state);
            // uniform in [-1, 1]
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            v.push(x);
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        for x in &mut v {
            *x /= norm;
        }
        v
    }
}

/// FNV-1a hash of a token (shared across the workspace for deterministic,
/// seed-stable token hashing).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Configuration of the embedding construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Vocabulary seed.
    pub seed: u64,
    /// Strength of the flow (reaching-definition) mixing term.
    pub flow_beta: f64,
    /// Number of flow refinement iterations.
    pub flow_iters: usize,
    /// Fixed scale applied to the program-level sum. IR2Vec program vectors
    /// are raw sums, so their magnitude carries program size — a signal the
    /// size-reward RL agent needs. The scale only keeps network inputs in a
    /// comfortable numeric range.
    pub scale: f64,
    /// Compress the program vector's norm logarithmically
    /// (`v · log(1+‖v‖)/‖v‖`). Keeps the size signal (monotone in program
    /// size) while bounding the dynamic range, so programs much larger than
    /// anything seen in training still produce in-distribution states.
    pub log_compress: bool,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig {
            dim: DIM,
            seed: 0x1125_2022,
            flow_beta: 0.3,
            flow_iters: 2,
            scale: 1.0 / 64.0,
            log_compress: true,
        }
    }
}

/// Every type, in `Ty` declaration order (`ty as usize` is its row).
const TYPES: [Ty; 7] = [Ty::Void, Ty::I1, Ty::I8, Ty::I32, Ty::I64, Ty::F64, Ty::Ptr];

/// Every cast, in `CastKind` declaration order.
const CASTS: [CastKind; 5] = [
    CastKind::Trunc,
    CastKind::ZExt,
    CastKind::SExt,
    CastKind::SiToFp,
    CastKind::FpToSi,
];

/// The op kinds after the binary ops and casts, in [`opcode_row`] order.
const OTHER_OPCODES: [&str; 15] = [
    "icmp",
    "fcmp",
    "select",
    "alloca",
    "load",
    "store",
    "gep",
    "call",
    "phi",
    "memcpy",
    "memset",
    "br",
    "condbr",
    "ret",
    "unreachable",
];

/// Operand-kind tokens, in [`operand_row`] order.
const OPERAND_TOKENS: [&str; 7] = [
    "operand.inst",
    "operand.arg",
    "operand.const.fp",
    "operand.const.ptr",
    "operand.const.int",
    "operand.global",
    "operand.func",
];

/// The most successors any terminator has (`condbr`).
const MAX_SUCCS: usize = 2;

/// The opcode-table row of `op`: binary ops first, then casts, then
/// [`OTHER_OPCODES`].
fn opcode_row(op: &Op) -> usize {
    const CAST: usize = BinOp::ALL.len();
    const REST: usize = CAST + CASTS.len();
    match op {
        Op::Bin { op, .. } => *op as usize,
        Op::Cast { kind, .. } => CAST + *kind as usize,
        Op::Icmp { .. } => REST,
        Op::Fcmp { .. } => REST + 1,
        Op::Select { .. } => REST + 2,
        Op::Alloca { .. } => REST + 3,
        Op::Load { .. } => REST + 4,
        Op::Store { .. } => REST + 5,
        Op::Gep { .. } => REST + 6,
        Op::Call { .. } => REST + 7,
        Op::Phi { .. } => REST + 8,
        Op::MemCpy { .. } => REST + 9,
        Op::MemSet { .. } => REST + 10,
        Op::Br { .. } => REST + 11,
        Op::CondBr { .. } => REST + 12,
        Op::Ret { .. } => REST + 13,
        Op::Unreachable => REST + 14,
    }
}

fn operand_row(v: Value) -> usize {
    match v {
        Value::Inst(_) => 0,
        Value::Arg(_) => 1,
        Value::Const(c) => match c.ty() {
            Ty::F64 => 2,
            Ty::Ptr => 3,
            _ => 4,
        },
        Value::Global(_) => 5,
        Value::Func(_) => 6,
    }
}

/// Rows of `dim` floats, one per token, each pre-scaled by its entity
/// weight (a stored `w * x` has the bits `w * x` has at each use).
#[derive(Debug)]
struct Table {
    dim: usize,
    data: Vec<f64>,
}

impl Table {
    fn new(vocab: &Vocabulary, weight: f64, tokens: impl IntoIterator<Item: AsRef<str>>) -> Table {
        let mut data = Vec::new();
        for token in tokens {
            data.extend(vocab.vector(token.as_ref()).iter().map(|x| weight * x));
        }
        Table {
            dim: vocab.dim,
            data,
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// The vectors of every token an instruction or global can name, built
/// once per [`Embedder`]. Only `decl.<name>` tokens are made on demand.
#[derive(Debug)]
struct Tokens {
    opcode: Table,
    ty: Table,
    operand: Table,
    /// Row `k - 1` is the token of a terminator with `k` successors.
    succ: Table,
    /// Row `2 * (ty as usize) + mutable as usize`.
    global: Table,
}

impl Tokens {
    fn new(vocab: &Vocabulary) -> Tokens {
        let opcodes = BinOp::ALL
            .iter()
            .map(|b| b.mnemonic())
            .chain(CASTS.iter().map(|c| c.mnemonic()))
            .chain(OTHER_OPCODES)
            .map(|name| format!("opcode.{name}"));
        let globals = TYPES
            .iter()
            .flat_map(|t| [format!("global.{t}.const"), format!("global.{t}.mut")]);
        Tokens {
            opcode: Table::new(vocab, W_OPCODE, opcodes),
            ty: Table::new(vocab, W_TYPE, TYPES.iter().map(|t| format!("type.{t}"))),
            operand: Table::new(vocab, W_OPERAND, OPERAND_TOKENS),
            succ: Table::new(
                vocab,
                W_OPERAND,
                (1..=MAX_SUCCS).map(|k| format!("cfg.succ{k}")),
            ),
            global: Table::new(vocab, W_GLOBAL, globals),
        }
    }
}

/// The embedder: vocabulary + combination rules. Holds no lock: the token
/// vectors are built in [`Embedder::new`] and only read afterwards.
#[derive(Debug)]
pub struct Embedder {
    config: EmbedConfig,
    vocab: Vocabulary,
    tokens: Tokens,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder::new(EmbedConfig::default())
    }
}

impl Embedder {
    /// Creates an embedder from a configuration.
    pub fn new(config: EmbedConfig) -> Embedder {
        let vocab = Vocabulary::new(config.dim, config.seed);
        let tokens = Tokens::new(&vocab);
        Embedder {
            config,
            vocab,
            tokens,
        }
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The full configuration (consumers digest it into memo keys).
    pub fn config(&self) -> &EmbedConfig {
        &self.config
    }

    /// Function-level embedding: the sum of its flow-aware instruction
    /// embeddings.
    ///
    /// Each instruction starts from its opcode, type, operand and
    /// successor-count vectors, added in that order; each flow iteration
    /// then adds `flow_beta / k` times each of its `k` in-function operand
    /// definitions from the previous iteration, in operand order. The
    /// function vector adds the rows up in block-order traversal (the
    /// printer's order), not by raw InstId: float addition is not
    /// associative, and arena numbering differs between modules that print
    /// identically, so this is what makes the embedding a pure function of
    /// the printed form (which the evaluation cache's bit-identical
    /// contract relies on).
    pub fn embed_function(&self, f: &Function) -> Vec<f64> {
        let dim = self.config.dim;
        let mut v = vec![0.0; dim];
        if f.is_decl {
            axpy(&mut v, 1.0, &self.vocab.vector(&format!("decl.{}", f.name)));
            return v;
        }
        let ids = f.inst_ids();
        let n = ids.len();
        // arena index -> row, for the operand definitions of the flow term
        let mut row_of = vec![u32::MAX; ids.iter().map(|id| id.index() + 1).max().unwrap_or(0)];
        for (i, id) in ids.iter().enumerate() {
            row_of[id.index()] = i as u32;
        }
        let t = &self.tokens;
        // symbolic rows, one per distinct token sequence: instructions
        // with the same tokens share a row, since the same adds give the
        // same bits; sym_of[i] is instruction i's row
        let mut sym: Vec<f64> = Vec::new();
        let mut sym_of: Vec<usize> = Vec::with_capacity(n);
        let mut row_of_key: HashMap<u64, usize> = HashMap::new();
        // defs[def_end[i - 1]..def_end[i]] are the rows instruction i reads
        let mut defs: Vec<u32> = Vec::new();
        let mut def_end: Vec<usize> = Vec::with_capacity(n);
        for &id in &ids {
            let op = f.op(id);
            let operands = op.operands();
            for o in &operands {
                if let Value::Inst(d) = o {
                    match row_of.get(d.index()) {
                        Some(&r) if r != u32::MAX => defs.push(r),
                        _ => {}
                    }
                }
            }
            def_end.push(defs.len());
            let nsucc = op.successors().len();
            let key = token_key(op, &operands, nsucc);
            if let Some(&r) = key.and_then(|k| row_of_key.get(&k)) {
                sym_of.push(r);
                continue;
            }
            let r = sym.len() / dim;
            sym.resize(sym.len() + dim, 0.0);
            let out = &mut sym[r * dim..];
            add(out, t.opcode.row(opcode_row(op)));
            add(out, t.ty.row(op.result_ty() as usize));
            for &o in &operands {
                add(out, t.operand.row(operand_row(o)));
            }
            // terminators with successors contribute control-flow tokens
            if nsucc > 0 {
                add(out, t.succ.row(nsucc - 1));
            }
            if let Some(k) = key {
                row_of_key.insert(k, r);
            }
            sym_of.push(r);
        }
        let iters = self.config.flow_iters;
        if iters == 0 {
            for &r in &sym_of {
                axpy(&mut v, 1.0, &sym[r * dim..(r + 1) * dim]);
            }
            return v;
        }
        // flow iterations over flat row buffers; the last one adds each
        // row into `v` as it is made, in instruction order, instead of
        // storing it
        let mut prev: Vec<f64> = Vec::new();
        let mut next: Vec<f64> = Vec::new();
        let mut last = vec![0.0; dim];
        for iter in 0..iters {
            let is_last = iter + 1 == iters;
            if !is_last {
                next.resize(n * dim, 0.0);
            }
            let row = |i: usize| match iter {
                0 => &sym[sym_of[i] * dim..(sym_of[i] + 1) * dim],
                _ => &prev[i * dim..(i + 1) * dim],
            };
            let mut start = 0;
            for (i, &end) in def_end.iter().enumerate() {
                let out = if is_last {
                    &mut last[..]
                } else {
                    &mut next[i * dim..(i + 1) * dim]
                };
                let scale = self.config.flow_beta / (end - start).max(1) as f64;
                flow_row(
                    out,
                    row(i),
                    scale,
                    defs[start..end].iter().map(|&d| row(d as usize)),
                );
                if is_last {
                    axpy(&mut v, 1.0, out);
                }
                start = end;
            }
            std::mem::swap(&mut prev, &mut next);
        }
        v
    }

    /// Program-level embedding (the RL state): sum of function embeddings
    /// plus global-variable entities, under a fixed scale (so, like IR2Vec's
    /// raw sums, the vector's magnitude tracks program size).
    pub fn embed_module(&self, m: &Module) -> Vec<f64> {
        self.embed_module_with(m, |e, f| std::sync::Arc::new(e.embed_function(f)))
    }

    /// [`embed_module`] with the per-function vectors supplied by
    /// `provider` — the hook the incremental analysis manager uses to
    /// memoize untouched functions.
    ///
    /// The float-operation order (function accumulation in `func_ids`
    /// order, then globals, scale, log-compression) is exactly
    /// [`embed_module`]'s, so as long as `provider` returns the same
    /// vectors [`Embedder::embed_function`] would, the module vector is
    /// bit-identical. Providers must key any memo by the function's
    /// *arena fingerprint* (`posetrl_ir::function_fingerprint`):
    /// accumulation inside `embed_function` walks raw arena order, so
    /// two functions that merely print alike may embed differently.
    ///
    /// [`embed_module`]: Embedder::embed_module
    pub fn embed_module_with<P>(&self, m: &Module, mut provider: P) -> Vec<f64>
    where
        P: FnMut(&Embedder, &Function) -> std::sync::Arc<Vec<f64>>,
    {
        let mut v = vec![0.0; self.config.dim];
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            axpy(&mut v, 1.0, &provider(self, f));
        }
        for gid in m.global_ids() {
            let g = m.global(gid).unwrap();
            add(
                &mut v,
                self.tokens
                    .global
                    .row(2 * g.ty as usize + usize::from(g.mutable)),
            );
        }
        for x in &mut v {
            *x *= self.config.scale;
        }
        if self.config.log_compress {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 {
                let k = norm.ln_1p() / norm;
                for x in &mut v {
                    *x *= k;
                }
            }
        }
        v
    }
}

/// A key shared by exactly the instructions whose symbolic rows add the
/// same token rows in the same order; `None` past 16 operands.
fn token_key(op: &Op, operands: &[Value], nsucc: usize) -> Option<u64> {
    if operands.len() > 16 {
        return None;
    }
    let mut key = opcode_row(op) as u64 | (op.result_ty() as u64) << 6 | (nsucc as u64) << 9;
    for (k, &o) in operands.iter().enumerate() {
        key |= (operand_row(o) as u64 + 1) << (11 + 3 * k);
    }
    Some(key)
}

/// `out = own`, then `out += scale * d` for each definition row `d` in
/// order, element by element; one pass over the rows when there are at
/// most two definitions.
fn flow_row<'a>(
    out: &mut [f64],
    own: &[f64],
    scale: f64,
    mut defs: impl ExactSizeIterator<Item = &'a [f64]>,
) {
    match defs.len() {
        0 => out.copy_from_slice(own),
        1 => {
            let d = defs.next().unwrap();
            for ((o, x), y) in out.iter_mut().zip(own).zip(d) {
                *o = x + scale * y;
            }
        }
        2 => {
            let (d1, d2) = (defs.next().unwrap(), defs.next().unwrap());
            for (((o, x), y), z) in out.iter_mut().zip(own).zip(d1).zip(d2) {
                *o = x + scale * y + scale * z;
            }
        }
        _ => {
            out.copy_from_slice(own);
            for d in defs {
                axpy(out, scale, d);
            }
        }
    }
}

/// `dst += src` for a row that already carries its weight.
fn add(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

fn axpy(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;
    use posetrl_opt::manager::PassManager;

    const PROGRAM: &str = r#"
module "m"
global @g : i64 x 4 mutable internal = [1:i64, 2:i64, 3:i64, 4:i64]
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %c = icmp slt i64 %i, %arg0
  condbr %c, bb2, bb3
bb2:
  %p = gep i64, @g, %i
  %v = load i64, %p
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#;

    #[test]
    fn deterministic_across_embedder_instances() {
        let m = parse_module(PROGRAM).unwrap();
        let a = Embedder::default().embed_module(&m);
        let b = Embedder::default().embed_module(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn vocabulary_vectors_are_unit_norm_and_distinct() {
        let v = Vocabulary::new(DIM, 7);
        let a = v.vector("opcode.add");
        let b = v.vector("opcode.mul");
        let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((na - 1.0).abs() < 1e-9);
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(
            dot.abs() < 0.5,
            "random unit vectors are near-orthogonal: {dot}"
        );
        assert_eq!(a, v.vector("opcode.add"), "cache returns identical vectors");
    }

    #[test]
    fn token_rows_hold_the_weighted_vocabulary_vectors() {
        use posetrl_ir::{BlockId, Const, FloatPred, FuncId, IntPred};
        let e = Embedder::default();
        let vocab = Vocabulary::new(DIM, EmbedConfig::default().seed);
        let weighted = |w: f64, token: String| -> Vec<f64> {
            vocab.vector(&token).iter().map(|x| w * x).collect()
        };
        let x = Value::Arg(0);
        let mut ops: Vec<Op> = BinOp::ALL
            .iter()
            .map(|&op| Op::Bin {
                op,
                ty: Ty::I64,
                lhs: x,
                rhs: x,
            })
            .collect();
        ops.extend(CASTS.iter().map(|&kind| Op::Cast {
            kind,
            to: Ty::I32,
            val: x,
        }));
        ops.extend([
            Op::Icmp {
                pred: IntPred::Eq,
                ty: Ty::I64,
                lhs: x,
                rhs: x,
            },
            Op::Fcmp {
                pred: FloatPred::Oeq,
                lhs: x,
                rhs: x,
            },
            Op::Select {
                ty: Ty::I64,
                cond: x,
                tval: x,
                fval: x,
            },
            Op::Alloca {
                ty: Ty::I64,
                count: 1,
            },
            Op::Load {
                ty: Ty::I64,
                ptr: x,
            },
            Op::Store {
                ty: Ty::I64,
                val: x,
                ptr: x,
            },
            Op::Gep {
                elem_ty: Ty::I64,
                ptr: x,
                index: x,
            },
            Op::Call {
                callee: FuncId(0),
                args: vec![],
                ret_ty: Ty::I64,
            },
            Op::Phi {
                ty: Ty::I64,
                incomings: vec![],
            },
            Op::MemCpy {
                elem_ty: Ty::I64,
                dst: x,
                src: x,
                len: x,
            },
            Op::MemSet {
                elem_ty: Ty::I64,
                dst: x,
                val: x,
                len: x,
            },
            Op::Br { target: BlockId(0) },
            Op::CondBr {
                cond: x,
                then_bb: BlockId(0),
                else_bb: BlockId(1),
            },
            Op::Ret { val: None },
            Op::Unreachable,
        ]);
        let rows: std::collections::HashSet<usize> = ops.iter().map(opcode_row).collect();
        assert_eq!(
            rows.len(),
            e.tokens.opcode.data.len() / DIM,
            "one op per row"
        );
        for op in &ops {
            let token = format!("opcode.{}", op.kind_name());
            assert_eq!(
                e.tokens.opcode.row(opcode_row(op)),
                weighted(W_OPCODE, token.clone()),
                "{token}"
            );
            let k = op.successors().len();
            if k > 0 {
                assert_eq!(
                    e.tokens.succ.row(k - 1),
                    weighted(W_OPERAND, format!("cfg.succ{k}"))
                );
            }
        }
        for &ty in &TYPES {
            assert_eq!(
                e.tokens.ty.row(ty as usize),
                weighted(W_TYPE, format!("type.{ty}"))
            );
            for (mutable, tag) in [(false, "const"), (true, "mut")] {
                assert_eq!(
                    e.tokens.global.row(2 * ty as usize + usize::from(mutable)),
                    weighted(W_GLOBAL, format!("global.{ty}.{tag}"))
                );
            }
        }
        let operands = [
            Value::Inst(posetrl_ir::InstId(0)),
            Value::Arg(0),
            Value::Const(Const::Float(1.0)),
            Value::Const(Const::Null),
            Value::Const(Const::int(Ty::I8, 1)),
            Value::Global(posetrl_ir::GlobalId(0)),
            Value::Func(FuncId(0)),
        ];
        for (row, (v, token)) in operands.iter().zip(OPERAND_TOKENS).enumerate() {
            assert_eq!(operand_row(*v), row);
            assert_eq!(
                e.tokens.operand.row(row),
                weighted(W_OPERAND, token.to_string())
            );
        }
    }

    #[test]
    fn embedding_changes_when_code_is_optimized() {
        let m0 = parse_module(PROGRAM).unwrap();
        let e = Embedder::default();
        let before = e.embed_module(&m0);
        let mut m2 = m0.clone();
        let changed = PassManager::new().run_pass(&mut m2, "loop-rotate").unwrap();
        assert!(changed, "rotation applies to the while loop");
        let after = e.embed_module(&m2);
        let dist: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1e-6, "state moves when the module changes");
    }

    #[test]
    fn flow_term_distinguishes_dataflow() {
        // same multiset of instructions, different use-def wiring
        let chain = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = add i64 %a, 1:i64
  %c = add i64 %b, 1:i64
  ret %c
}
"#,
        )
        .unwrap();
        let parallel = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = add i64 %arg0, 1:i64
  %c = add i64 %arg0, 1:i64
  ret %c
}
"#,
        )
        .unwrap();
        let e = Embedder::default();
        let va = e.embed_module(&chain);
        let vb = e.embed_module(&parallel);
        let dist: f64 = va
            .iter()
            .zip(&vb)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            dist > 1e-9,
            "flow-aware embeddings separate different dataflow"
        );
    }

    #[test]
    fn magnitude_stays_bounded_with_program_size() {
        // 1 function with a long straight line: norm should not explode
        let mut text = String::from("module \"m\"\nfn @f(i64) -> i64 internal {\nbb0:\n");
        text.push_str("  %v0 = add i64 %arg0, 1:i64\n");
        for i in 1..400 {
            text.push_str(&format!("  %v{i} = add i64 %v{}, 1:i64\n", i - 1));
        }
        text.push_str("  ret %v399\n}\n");
        let m = parse_module(&text).unwrap();
        let v = Embedder::default().embed_module(&m);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm.is_finite() && norm > 0.01);
        // magnitude tracks size: a longer program embeds with larger norm
        let small =
            parse_module("module \"s\"\nfn @f(i64) -> i64 internal {\nbb0:\n  ret %arg0\n}\n")
                .unwrap();
        let vs = Embedder::default().embed_module(&small);
        let ns: f64 = vs.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm > ns * 5.0, "size signal preserved: {norm} vs {ns}");
    }
}
