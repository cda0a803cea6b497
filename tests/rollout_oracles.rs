//! Oracles for the rollout-step fast paths.
//!
//! `posetrl_opt::util::escaping_allocas` computes every escaping alloca of
//! a function in one scan, and `posetrl_embed::Embedder` embeds from
//! prebuilt token tables over flat buffers. Both must give exactly what
//! the straightforward versions below give: the per-alloca escape fixpoint
//! and the token-by-token IR2Vec construction over `HashMap`s (embeddings
//! compared by `f64::to_bits`). The checks run on every checked-in `.pir`
//! module and the MiBench suite, as generated and after every ODG action,
//! both from the raw module and along one cumulative trajectory.

use posetrl_embed::{EmbedConfig, Embedder, Vocabulary, W_OPCODE, W_OPERAND, W_TYPE};
use posetrl_ir::parser::parse_module;
use posetrl_ir::{Function, InstId, Module, Op, Ty, Value};
use posetrl_odg::ActionSpace;
use posetrl_opt::util::escaping_allocas;
use posetrl_opt::PassManager;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Per-alloca escape test: the alloca and the geps derived from it (a
/// fixpoint), then any use of those as a stored value or as an operand of
/// an op other than load, gep, memcpy and memset.
fn alloca_escapes(f: &Function, id: InstId) -> bool {
    let mut derived: HashSet<Value> = HashSet::from([Value::Inst(id)]);
    let mut changed = true;
    while changed {
        changed = false;
        for iid in f.inst_ids() {
            if let Op::Gep { ptr, .. } = f.op(iid) {
                if derived.contains(ptr) && derived.insert(Value::Inst(iid)) {
                    changed = true;
                }
            }
        }
    }
    f.inst_ids().into_iter().any(|iid| match f.op(iid) {
        Op::Load { .. } | Op::Gep { .. } | Op::MemCpy { .. } | Op::MemSet { .. } => false,
        Op::Store { val, .. } => derived.contains(val),
        op => op.operands().iter().any(|v| derived.contains(v)),
    })
}

/// IR2Vec built token by token: a vocabulary memo keyed by the token
/// string and `HashMap<InstId, Vec<f64>>` flow iterations.
struct ReferenceEmbedder {
    config: EmbedConfig,
    vocab: Vocabulary,
    memo: RefCell<HashMap<String, Vec<f64>>>,
}

impl ReferenceEmbedder {
    fn new() -> ReferenceEmbedder {
        let config = EmbedConfig::default();
        let vocab = Vocabulary::new(config.dim, config.seed);
        ReferenceEmbedder {
            config,
            vocab,
            memo: RefCell::new(HashMap::new()),
        }
    }

    fn vector(&self, token: &str) -> Vec<f64> {
        self.memo
            .borrow_mut()
            .entry(token.to_string())
            .or_insert_with(|| self.vocab.vector(token))
            .clone()
    }

    fn operand_token(v: Value) -> &'static str {
        match v {
            Value::Inst(_) => "operand.inst",
            Value::Arg(_) => "operand.arg",
            Value::Const(c) => match c.ty() {
                Ty::F64 => "operand.const.fp",
                Ty::Ptr => "operand.const.ptr",
                _ => "operand.const.int",
            },
            Value::Global(_) => "operand.global",
            Value::Func(_) => "operand.func",
        }
    }

    fn embed_inst_symbolic(&self, f: &Function, id: InstId) -> Vec<f64> {
        let op = f.op(id);
        let mut v = vec![0.0; self.config.dim];
        axpy(
            &mut v,
            W_OPCODE,
            &self.vector(&format!("opcode.{}", op.kind_name())),
        );
        axpy(
            &mut v,
            W_TYPE,
            &self.vector(&format!("type.{}", op.result_ty())),
        );
        for o in op.operands() {
            axpy(&mut v, W_OPERAND, &self.vector(Self::operand_token(o)));
        }
        let nsucc = op.successors().len();
        if nsucc > 0 {
            axpy(&mut v, W_OPERAND, &self.vector(&format!("cfg.succ{nsucc}")));
        }
        v
    }

    fn embed_function(&self, f: &Function) -> Vec<f64> {
        let mut v = vec![0.0; self.config.dim];
        if f.is_decl {
            axpy(&mut v, 1.0, &self.vector(&format!("decl.{}", f.name)));
            return v;
        }
        let ids = f.inst_ids();
        let mut cur: HashMap<InstId, Vec<f64>> = ids
            .iter()
            .map(|&id| (id, self.embed_inst_symbolic(f, id)))
            .collect();
        for _ in 0..self.config.flow_iters {
            let mut next = HashMap::with_capacity(cur.len());
            for &id in &ids {
                let mut v = cur[&id].clone();
                let defs: Vec<&Vec<f64>> = f
                    .op(id)
                    .operands()
                    .iter()
                    .filter_map(|o| match o {
                        Value::Inst(d) => cur.get(d),
                        _ => None,
                    })
                    .collect();
                if !defs.is_empty() {
                    let scale = self.config.flow_beta / defs.len() as f64;
                    for d in defs {
                        axpy(&mut v, scale, d);
                    }
                }
                next.insert(id, v);
            }
            cur = next;
        }
        for id in ids {
            axpy(&mut v, 1.0, &cur[&id]);
        }
        v
    }

    fn embed_module(&self, m: &Module) -> Vec<f64> {
        let mut v = vec![0.0; self.config.dim];
        for fid in m.func_ids() {
            axpy(&mut v, 1.0, &self.embed_function(m.func(fid).unwrap()));
        }
        for gid in m.global_ids() {
            let g = m.global(gid).unwrap();
            let token = format!(
                "global.{}.{}",
                g.ty,
                if g.mutable { "mut" } else { "const" }
            );
            axpy(&mut v, 0.5, &self.vector(&token));
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

fn axpy(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every checked-in `.pir` module that parses (a golden file may pin a
/// parse error), then the MiBench suite.
fn corpus() -> Vec<(String, Module)> {
    fn walk(dir: &Path, out: &mut Vec<(String, Module)>) {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "pir") {
                if let Ok(m) = parse_module(&std::fs::read_to_string(&p).unwrap()) {
                    out.push((p.display().to_string(), m));
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    walk(&root.join("examples/ir"), &mut out);
    walk(&root.join("tests/analyze"), &mut out);
    let pir = out.len();
    assert!(pir >= 80, "corpus shrank to {pir} modules");
    out.extend(
        posetrl_workloads::mibench()
            .into_iter()
            .map(|b| (b.name, b.module)),
    );
    out
}

/// Calls `check` on every corpus module, as generated and after every ODG
/// action: each action once from the raw module, and all actions in turn
/// along one trajectory.
fn for_each_state(mut check: impl FnMut(&str, &Module)) {
    let pm = PassManager::new();
    let space = ActionSpace::odg();
    let apply = |m: &mut Module, action: &[&str]| {
        for pass in action {
            pm.run_pass(m, pass).unwrap();
        }
    };
    for (name, raw) in corpus() {
        check(&name, &raw);
        let mut walk = raw.clone();
        for (a, action) in space.subsequences().iter().enumerate() {
            let mut m = raw.clone();
            apply(&mut m, action);
            check(&format!("{name} after action {a}"), &m);
            apply(&mut walk, action);
            check(&format!("{name} after actions 0..={a}"), &walk);
        }
    }
}

#[test]
fn one_scan_escape_set_matches_the_per_alloca_fixpoint() {
    let mut allocas = 0usize;
    let mut escaping = 0usize;
    for_each_state(|name, m| {
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            let expected: HashSet<InstId> = f
                .inst_ids()
                .into_iter()
                .filter(|&id| matches!(f.op(id), Op::Alloca { .. }))
                .inspect(|_| allocas += 1)
                .filter(|&id| alloca_escapes(f, id))
                .collect();
            escaping += expected.len();
            assert_eq!(escaping_allocas(f), expected, "{name}: @{}", f.name);
        }
    });
    assert!(
        escaping > 0 && escaping < allocas,
        "the corpus exercises both outcomes: {escaping} of {allocas} allocas escape"
    );
}

#[test]
fn table_embedder_is_bit_identical_to_the_token_by_token_construction() {
    let fast = Embedder::default();
    let reference = ReferenceEmbedder::new();
    for_each_state(|name, m| {
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            assert_eq!(
                bits(&fast.embed_function(f)),
                bits(&reference.embed_function(f)),
                "{name}: @{}",
                f.name
            );
        }
        assert_eq!(
            bits(&fast.embed_module(m)),
            bits(&reference.embed_module(m)),
            "{name}"
        );
    });
}
