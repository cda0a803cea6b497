//! `-sccp` and `-ipsccp`: sparse conditional constant propagation.
//!
//! `sccp` runs the classic Wegman–Zadeck lattice analysis per function:
//! values start unknown (⊤), meet to a constant or overdefined (⊥), and
//! branch feasibility is tracked so code behind never-taken edges does not
//! pollute the result. `ipsccp` additionally propagates constants across
//! internal call boundaries (arguments passed identically at every call
//! site, and constant return values).

use crate::util::{pure_callees, removable_with, remove_unreachable_blocks, simplify_trivial_phis};
use crate::Pass;
use posetrl_ir::{BlockId, Const, FuncId, Function, InstId, Linkage, Module, Op, Value};
use std::collections::{HashMap, HashSet, VecDeque};

/// The constant-propagation lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lattice {
    /// Not yet known (top).
    Unknown,
    /// Proven constant.
    Const(Const),
    /// Multiple possible values (bottom).
    Over,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Unknown, x) | (x, Lattice::Unknown) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Over,
        }
    }
}

/// The `sccp` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        let pure = pure_callees(module);
        module.for_each_body(|_, f| {
            changed |= sccp_function(&pure, f, &HashMap::new());
        });
        changed
    }
}

/// The `ipsccp` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct IpSccp;

impl Pass for IpSccp {
    fn name(&self) -> &'static str {
        "ipsccp"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        // nothing below changes a declaration or an attribute
        let pure = pure_callees(module);
        // Interprocedural seeding: for internal functions whose address is
        // never taken, compute per-parameter meets over all call sites and
        // per-function constant returns, then specialize.
        for _round in 0..2 {
            let address_taken: HashSet<FuncId> = module
                .func_ids()
                .flat_map(|fid| {
                    let f = module.func(fid).unwrap();
                    f.inst_ids()
                        .into_iter()
                        .flat_map(move |id| f.op(id).operands())
                        .filter_map(|v| match v {
                            Value::Func(t) => Some(t),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                })
                .collect();

            // arg meets
            let mut arg_meet: HashMap<FuncId, Vec<Lattice>> = HashMap::new();
            let mut callers: HashMap<FuncId, usize> = HashMap::new();
            for fid in module.func_ids() {
                let f = module.func(fid).unwrap();
                for id in f.inst_ids() {
                    if let Op::Call { callee, args, .. } = f.op(id) {
                        *callers.entry(*callee).or_insert(0) += 1;
                        let entry = arg_meet
                            .entry(*callee)
                            .or_insert_with(|| vec![Lattice::Unknown; args.len()]);
                        for (i, a) in args.iter().enumerate() {
                            let l = match a.as_const() {
                                Some(c) if !c.is_undef() => Lattice::Const(c),
                                _ => Lattice::Over,
                            };
                            if let Some(slot) = entry.get_mut(i) {
                                *slot = slot.meet(l);
                            }
                        }
                    }
                }
            }

            // constant returns
            let mut const_ret: HashMap<FuncId, Const> = HashMap::new();
            for fid in module.func_ids() {
                let f = module.func(fid).unwrap();
                if f.is_decl || f.linkage != Linkage::Internal {
                    continue;
                }
                let mut ret: Lattice = Lattice::Unknown;
                for id in f.inst_ids() {
                    if let Op::Ret { val: Some(v) } = f.op(id) {
                        let l = match v.as_const() {
                            Some(c) if !c.is_undef() => Lattice::Const(c),
                            _ => Lattice::Over,
                        };
                        ret = ret.meet(l);
                    }
                }
                if let Lattice::Const(c) = ret {
                    const_ret.insert(fid, c);
                }
            }

            let mut round_changed = false;
            let fids: Vec<FuncId> = module.func_ids().collect();
            for fid in fids {
                let f = module.func(fid).unwrap();
                if f.is_decl {
                    continue;
                }
                // seed argument lattices for internal, non-address-taken fns
                let mut args: HashMap<u32, Const> = HashMap::new();
                // Entry points can be invoked from outside the module with
                // arbitrary arguments (the interpreter runs `main` directly),
                // so only specialize functions whose complete caller set is
                // visible inside the module.
                let externally_invocable = f.name == "main" || f.linkage != Linkage::Internal;
                if !externally_invocable
                    && !address_taken.contains(&fid)
                    && callers.get(&fid).copied().unwrap_or(0) > 0
                {
                    if let Some(meets) = arg_meet.get(&fid) {
                        for (i, l) in meets.iter().enumerate() {
                            if let Lattice::Const(c) = l {
                                args.insert(i as u32, *c);
                            }
                        }
                    }
                }
                // replace calls with known-constant returns (keep the call
                // for its side effects; DCE cleans up pure ones)
                let f = module.func_mut(fid).unwrap();
                // rewriting a call's uses leaves every other call's users as
                // they were, so one use map serves the whole loop
                let mut uses = None;
                for id in f.inst_ids() {
                    if let Op::Call { callee, .. } = f.op(id) {
                        if let Some(&c) = const_ret.get(callee) {
                            let uses = uses.get_or_insert_with(|| f.uses());
                            if uses.get(&id).map(|u| !u.is_empty()).unwrap_or(false) {
                                f.replace_all_uses(Value::Inst(id), Value::Const(c));
                                round_changed = true;
                            }
                        }
                    }
                }
                round_changed |= sccp_function(&pure, f, &args);
            }
            changed |= round_changed;
            if !round_changed {
                break;
            }
        }
        changed
    }
}

/// Runs the SCCP analysis + rewrite on one function. `arg_consts` seeds
/// known-constant parameters (used by `ipsccp`).
fn sccp_function(
    pure: &HashSet<FuncId>,
    f: &mut Function,
    arg_consts: &HashMap<u32, Const>,
) -> bool {
    let ids = f.inst_ids();
    // the analysis state is dense over arena indices; operands naming no
    // instruction of `f` read as unknown
    let slots = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
    let nblocks = f.block_ids().map(|b| b.index() + 1).max().unwrap_or(0);
    let mut value: Vec<Lattice> = vec![Lattice::Unknown; slots];
    let mut exec_blocks: Vec<bool> = vec![false; nblocks];
    let mut exec_edges: HashSet<(BlockId, BlockId)> = HashSet::new();
    let mut flow: VecDeque<BlockId> = VecDeque::new();
    let mut ssa: VecDeque<InstId> = VecDeque::new();

    let uses = Users::new(f, &ids, slots);

    let lattice_of = |v: Value, value: &[Lattice]| -> Lattice {
        match v {
            Value::Const(c) if !c.is_undef() => Lattice::Const(c),
            Value::Const(_) => Lattice::Over,
            Value::Inst(id) => value.get(id.index()).copied().unwrap_or(Lattice::Unknown),
            Value::Arg(i) => match arg_consts.get(&i) {
                Some(&c) => Lattice::Const(c),
                None => Lattice::Over,
            },
            Value::Global(_) | Value::Func(_) => Lattice::Over,
        }
    };

    flow.push_back(f.entry);
    exec_blocks[f.entry.index()] = true;

    let eval_inst = |id: InstId,
                     f: &Function,
                     value: &[Lattice],
                     exec_edges: &HashSet<(BlockId, BlockId)>|
     -> Lattice {
        let op = f.op(id);
        match op {
            Op::Phi { incomings, .. } => {
                let b = f.inst(id).unwrap().block;
                let mut l = Lattice::Unknown;
                for (p, v) in incomings {
                    if exec_edges.contains(&(*p, b)) {
                        l = l.meet(lattice_of(*v, value));
                    }
                }
                l
            }
            Op::Load { .. } | Op::Call { .. } | Op::Alloca { .. } | Op::Gep { .. } => Lattice::Over,
            op if op.result_ty() != posetrl_ir::Ty::Void => {
                // operands all constant -> substitute and fold on a scratch
                // clone with interpreter semantics
                let (mut over, mut unknown) = (false, false);
                let mut scratch = op.clone();
                scratch.map_operands(|v| match lattice_of(v, value) {
                    Lattice::Const(c) => Value::Const(c),
                    Lattice::Over => {
                        over = true;
                        v
                    }
                    Lattice::Unknown => {
                        unknown = true;
                        v
                    }
                });
                if over {
                    return Lattice::Over;
                }
                if unknown {
                    return Lattice::Unknown;
                }
                match fold_scratch(&scratch) {
                    Some(c) => Lattice::Const(c),
                    None => Lattice::Over,
                }
            }
            _ => Lattice::Over,
        }
    };

    let mut guard = 0usize;
    while !flow.is_empty() || !ssa.is_empty() {
        guard += 1;
        if guard > 200_000 {
            break; // safety net; analysis is monotone so this should not hit
        }
        if let Some(b) = flow.pop_front() {
            for &id in &f.block(b).unwrap().insts {
                ssa.push_back(id);
            }
        }
        if let Some(id) = ssa.pop_front() {
            let b = f.inst(id).unwrap().block;
            if !exec_blocks[b.index()] {
                continue;
            }
            let op = f.op(id);
            if op.is_terminator() {
                let succs: Vec<BlockId> = match op {
                    Op::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => match lattice_of(*cond, &value) {
                        Lattice::Const(c) => {
                            if c.as_int() == Some(1) {
                                vec![*then_bb]
                            } else {
                                vec![*else_bb]
                            }
                        }
                        Lattice::Unknown => vec![],
                        Lattice::Over => vec![*then_bb, *else_bb],
                    },
                    Op::Br { target } => vec![*target],
                    _ => vec![],
                };
                for s in succs {
                    let new_edge = exec_edges.insert((b, s));
                    let new_block = !std::mem::replace(&mut exec_blocks[s.index()], true);
                    if new_block {
                        flow.push_back(s);
                    } else if new_edge {
                        // re-evaluate phis of s
                        for &pid in &f.block(s).unwrap().insts {
                            if matches!(f.op(pid), Op::Phi { .. }) {
                                ssa.push_back(pid);
                            }
                        }
                    }
                }
                continue;
            }
            if op.result_ty() == posetrl_ir::Ty::Void {
                continue;
            }
            let new = eval_inst(id, f, &value, &exec_edges);
            let old = value[id.index()];
            let merged = old.meet(new);
            if merged != old {
                value[id.index()] = merged;
                ssa.extend(uses.of(id));
                // condbr users need re-evaluation too
                for &u in uses.of(id) {
                    if f.op(u).is_terminator() {
                        ssa.push_back(u);
                    }
                }
            }
        }
    }

    // Rewrite: constants, then constant branches, then unreachable code.
    let mut changed = false;
    let is_const = |id: &InstId| matches!(value[id.index()], Lattice::Const(_));
    if ids.iter().any(is_const) {
        // every use of every constant at once (the arena holds exactly `ids`)
        for &id in &ids {
            f.inst_mut(id).unwrap().op.map_operands(|v| match v {
                Value::Inst(d) => match value.get(d.index()) {
                    Some(&Lattice::Const(c)) => Value::Const(c),
                    _ => v,
                },
                _ => v,
            });
        }
        for &id in ids.iter().filter(|id| is_const(id)) {
            if removable_with(f, id, |c| pure.contains(&c)) {
                f.remove_inst(id);
            }
            changed = true;
        }
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        let Some(term) = f.terminator(b) else {
            continue;
        };
        if let Op::CondBr {
            cond,
            then_bb,
            else_bb,
        } = f.op(term).clone()
        {
            if let Some(c) = cond.const_int() {
                let (taken, dropped) = if c != 0 {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                if taken != dropped {
                    f.inst_mut(term).unwrap().op = Op::Br { target: taken };
                    f.remove_phi_incoming(dropped, b);
                    changed = true;
                }
            }
        }
    }
    changed |= remove_unreachable_blocks(f);
    changed |= simplify_trivial_phis(f);
    changed
}

/// The users of every instruction, in [`Function::uses`] order, packed
/// into one buffer indexed by arena slot.
struct Users {
    /// `users[start[d]..start[d + 1]]` read instruction slot `d`.
    start: Vec<usize>,
    users: Vec<InstId>,
}

impl Users {
    fn new(f: &Function, ids: &[InstId], slots: usize) -> Users {
        let mut edges: Vec<(usize, InstId)> = Vec::new();
        for &id in ids {
            for v in f.op(id).operands() {
                match v {
                    Value::Inst(d) if d.index() < slots => edges.push((d.index(), id)),
                    _ => {}
                }
            }
        }
        let mut start = vec![0usize; slots + 1];
        for &(d, _) in &edges {
            start[d + 1] += 1;
        }
        for d in 0..slots {
            start[d + 1] += start[d];
        }
        let mut fill = start.clone();
        let mut users = vec![InstId(0); edges.len()];
        for (d, u) in edges {
            users[fill[d]] = u;
            fill[d] += 1;
        }
        Users { start, users }
    }

    fn of(&self, id: InstId) -> &[InstId] {
        &self.users[self.start[id.index()]..self.start[id.index() + 1]]
    }
}

/// Folds an operation whose operands are all constants (scratch copy, not
/// part of any function).
fn fold_scratch(op: &Op) -> Option<Const> {
    use posetrl_ir::interp::{eval_bin, RtVal};
    let cv = |v: Value| -> Option<RtVal> {
        match v.as_const()? {
            Const::Int { val, .. } => Some(RtVal::Int(val)),
            Const::Float(x) => Some(RtVal::Float(x)),
            _ => None,
        }
    };
    match op {
        Op::Bin { op, ty, lhs, rhs } => {
            let r = eval_bin(*op, *ty, cv(*lhs)?, cv(*rhs)?).ok()?;
            match r {
                RtVal::Int(i) => Some(Const::int(*ty, i)),
                RtVal::Float(x) => Some(Const::Float(x)),
                _ => None,
            }
        }
        Op::Icmp { pred, lhs, rhs, .. } => Some(Const::bool(
            pred.eval(lhs.as_const()?.as_int()?, rhs.as_const()?.as_int()?),
        )),
        Op::Fcmp { pred, lhs, rhs } => Some(Const::bool(
            pred.eval(lhs.as_const()?.as_float()?, rhs.as_const()?.as_float()?),
        )),
        Op::Cast { kind, to, val } => {
            let src = val.as_const()?.ty();
            let r = posetrl_ir::interp::eval_cast_src(*kind, *to, src, cv(*val)?).ok()?;
            match r {
                RtVal::Int(i) => Some(Const::int(*to, i)),
                RtVal::Float(x) => Some(Const::Float(x)),
                _ => None,
            }
        }
        Op::Select {
            cond, tval, fval, ..
        } => {
            let c = cond.as_const()?.as_int()?;
            (if c != 0 { tval } else { fval }).as_const()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;

    #[test]
    fn propagates_through_feasible_edges_only() {
        // The classic SCCP example: x is 1 on both paths of a branch that a
        // simple pass would treat as joining 1 with an unreachable value.
        let m = assert_preserves(
            r#"
module "m"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %x = phi i64 [bb0: 1:i64], [bb3: %y]
  %c = icmp eq i64 %x, 1:i64
  condbr %c, bb2, bb3
bb2:
  ret %x
bb3:
  %y = add i64 %x, 1:i64
  br bb1
}
"#,
            &["sccp"],
            &[],
        );
        let f = m.func(m.func_by_name("main").unwrap()).unwrap();
        assert_eq!(f.num_blocks(), 3, "infeasible back edge removed");
        assert_eq!(count_ops(&m, "phi"), 0);
        assert_eq!(count_ops(&m, "add"), 0);
    }

    #[test]
    fn folds_constant_branch_chains() {
        let m = assert_preserves(
            r#"
module "m"
declare @print_i64(i64) -> void
fn @main() -> i64 internal {
bb0:
  %a = add i64 2:i64, 2:i64
  %c = icmp eq i64 %a, 4:i64
  condbr %c, bb1, bb2
bb1:
  call @print_i64(%a) -> void
  ret %a
bb2:
  call @print_i64(0:i64) -> void
  ret 0:i64
}
"#,
            &["sccp"],
            &[],
        );
        let f = m.func(m.func_by_name("main").unwrap()).unwrap();
        assert!(f.num_blocks() <= 2, "dead branch removed");
    }

    #[test]
    fn ipsccp_propagates_constant_arguments() {
        let m = assert_preserves(
            r#"
module "m"
fn @scale(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, 3:i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = call @scale(7:i64) -> i64
  %b = call @scale(7:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["ipsccp"],
            &[],
        );
        // scale's body folds to ret 21; call results replaced by 21
        assert_eq!(count_ops(&m, "mul"), 0);
    }

    #[test]
    fn ipsccp_keeps_varying_arguments() {
        let m = assert_preserves(
            r#"
module "m"
fn @scale(i64) -> i64 internal {
bb0:
  %r = mul i64 %arg0, 3:i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = call @scale(7:i64) -> i64
  %b = call @scale(8:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
            &["ipsccp"],
            &[],
        );
        assert_eq!(count_ops(&m, "mul"), 1, "argument varies across call sites");
    }

    #[test]
    fn sccp_handles_select_and_casts() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %t = trunc 300:i64 to i8
  %w = sext %t to i64
  %c = icmp slt i64 %w, 0:i64
  %s = select i64 %c, 1:i64, 2:i64
  %r = add i64 %s, %arg0
  ret %r
}
"#,
            &["sccp"],
            &[vec![RtVal::Int(10)]],
        );
        assert_eq!(m.num_insts(), 2, "everything but the final add folds");
    }
}
