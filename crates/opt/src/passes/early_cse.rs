//! `-early-cse` and `-early-cse-memssa`: dominator-scoped common
//! subexpression elimination.
//!
//! Pure expressions are value-numbered over a scoped table that follows the
//! dominator tree, so an expression computed in a dominating block is reused
//! in dominated blocks. The `-memssa` variant additionally performs
//! block-local store-to-load and load-to-load forwarding with conservative
//! alias invalidation.

use crate::util::{call_is_pure, may_alias, may_alias_range};
use crate::Pass;
use posetrl_analyze::ModuleAlias;
use posetrl_ir::analysis::{Cfg, DomTree};
use posetrl_ir::{FuncId, Function, InstId, Module, Op, Ty, Value};
use std::collections::HashMap;

/// Expression identity for value numbering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ExprKey {
    kind: &'static str,
    ty: Ty,
    ops: Vec<Value>,
    imm: u64,
}

/// Builds the value-numbering key of a CSE-able instruction, or `None` when
/// the instruction must not be CSE'd.
pub(crate) fn expr_key(m: &Module, f: &Function, id: InstId) -> Option<ExprKey> {
    let op = f.op(id);
    let imm = match op {
        Op::Icmp { pred, .. } => *pred as u64,
        Op::Fcmp { pred, .. } => *pred as u64,
        Op::Call { callee, .. } => callee.0 as u64,
        Op::Alloca { .. } | Op::Phi { .. } => return None, // never CSE
        _ => 0,
    };
    let pure = match op {
        Op::Call { callee, .. } => call_is_pure(m, *callee),
        other => other.is_pure() && !matches!(other, Op::Alloca { .. } | Op::Phi { .. }),
    };
    if !pure {
        return None;
    }
    Some(ExprKey {
        kind: op.kind_name(),
        ty: op.result_ty(),
        ops: op.operands(),
        imm,
    })
}

/// The `early-cse` / `early-cse-memssa` pass.
#[derive(Debug, Clone, Copy)]
pub struct EarlyCse {
    memory: bool,
}

impl EarlyCse {
    /// The plain variant (pure expressions only).
    pub fn basic() -> EarlyCse {
        EarlyCse { memory: false }
    }

    /// The MemorySSA-backed variant (adds block-local load forwarding).
    pub fn memssa() -> EarlyCse {
        EarlyCse { memory: true }
    }
}

impl Pass for EarlyCse {
    fn name(&self) -> &'static str {
        if self.memory {
            "early-cse-memssa"
        } else {
            "early-cse"
        }
    }

    fn run(&self, module: &mut Module) -> bool {
        let snapshot = module.clone();
        let memory = self.memory;
        // the memssa variant sharpens invalidation with points-to facts
        let ma = memory.then(|| posetrl_analyze::alias::analyze_module(&snapshot));
        let mut changed = false;
        module.for_each_body(|fid, f| {
            changed |= cse_function(&snapshot, f, memory, ma.as_ref().map(|a| (a, fid)));
        });
        changed
    }
}

pub(crate) fn cse_function(
    m: &Module,
    f: &mut Function,
    memory: bool,
    alias: Option<(&ModuleAlias, FuncId)>,
) -> bool {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let mut changed = false;

    // Invalidation is the conjunction of the syntactic pointer-root walk and
    // (when available) the points-to disambiguator: either no-alias proof
    // keeps an availability entry alive.
    let write_clobbers = |f: &Function, p: Value, w: Value| -> bool {
        may_alias(f, p, w) && alias.is_none_or(|(ma, fid)| ma.may_alias(fid, f, p, w))
    };

    // Preorder DFS over the dominator tree, carrying the scoped table.
    let mut stack: Vec<(posetrl_ir::BlockId, HashMap<ExprKey, Value>)> =
        vec![(f.entry, HashMap::new())];

    while let Some((b, mut table)) = stack.pop() {
        // Block-local memory availability (memssa variant).
        let mut avail_loads: HashMap<(Value, Ty), Value> = HashMap::new();

        for id in f.block(b).unwrap().insts.clone() {
            if f.inst(id).is_none() {
                continue;
            }
            if memory {
                match f.op(id).clone() {
                    Op::Load { ty, ptr } => {
                        if let Some(&v) = avail_loads.get(&(ptr, ty)) {
                            f.replace_all_uses(Value::Inst(id), v);
                            f.remove_inst(id);
                            changed = true;
                            continue;
                        }
                        avail_loads.insert((ptr, ty), Value::Inst(id));
                    }
                    Op::Store { ty, val, ptr } => {
                        avail_loads.retain(|(p, _), _| !write_clobbers(f, *p, ptr));
                        avail_loads.insert((ptr, ty), val);
                    }
                    Op::MemCpy { dst, .. } | Op::MemSet { dst, .. } => {
                        // the write covers a range, not just the cell at `dst`
                        avail_loads.retain(|(p, _), _| {
                            !(may_alias_range(f, *p, dst)
                                && alias.is_none_or(|(ma, fid)| ma.may_alias(fid, f, *p, dst)))
                        });
                    }
                    Op::Call { callee, .. } if !crate::util::call_is_readonly(m, callee) => {
                        // keep cells the callee's substituted mod set cannot
                        // touch; reads do not invalidate availability
                        match alias.and_then(|(ma, fid)| {
                            ma.call_mods(fid, f, id).map(|mods| (ma, fid, mods))
                        }) {
                            Some((ma, fid, mods)) => avail_loads.retain(|(p, _), _| {
                                !ma.sets_may_alias(fid, &ma.value_pts(fid, f, *p), &mods)
                            }),
                            None => avail_loads.clear(),
                        }
                    }
                    _ => {}
                }
            }
            if f.inst(id).is_none() {
                continue;
            }
            if let Some(key) = expr_key(m, f, id) {
                if let Some(&v) = table.get(&key) {
                    f.replace_all_uses(Value::Inst(id), v);
                    f.remove_inst(id);
                    changed = true;
                } else {
                    table.insert(key, Value::Inst(id));
                }
            }
        }

        for &c in dt.children.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
            stack.push((c, table.clone()));
        }
    }

    changed
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;

    #[test]
    fn reuses_dominating_expression() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %a = mul i64 %arg0, %arg0
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  %b = mul i64 %arg0, %arg0
  %r1 = add i64 %a, %b
  ret %r1
bb2:
  %d = mul i64 %arg0, %arg0
  ret %d
}
"#,
            &["early-cse"],
            &[vec![RtVal::Int(3)], vec![RtVal::Int(-3)]],
        );
        assert_eq!(count_ops(&m, "mul"), 1, "dominated recomputations removed");
    }

    #[test]
    fn does_not_cse_across_siblings() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  %a = mul i64 %arg0, 3:i64
  ret %a
bb2:
  %b = mul i64 %arg0, 3:i64
  ret %b
}
"#,
            &["early-cse"],
            &[vec![RtVal::Int(1)], vec![RtVal::Int(-1)]],
        );
        assert_eq!(
            count_ops(&m, "mul"),
            2,
            "sibling blocks do not dominate each other"
        );
    }

    #[test]
    fn memssa_forwards_store_to_load() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  %v = load i64, @g
  %w = load i64, @g
  %r = add i64 %v, %w
  ret %r
}
"#,
            &["early-cse-memssa"],
            &[vec![RtVal::Int(21)]],
        );
        assert_eq!(
            count_ops(&m, "load"),
            0,
            "both loads forwarded from the store"
        );
    }

    #[test]
    fn memssa_respects_clobbering_store() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
fn @main(i64, i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  store i64 %arg1, @g
  %v = load i64, @g
  ret %v
}
"#,
            &["early-cse-memssa"],
            &[vec![RtVal::Int(1), RtVal::Int(2)]],
        );
        // the load forwards from the *second* store
        assert_eq!(count_ops(&m, "load"), 0);
    }

    #[test]
    fn memssa_invalidated_by_unknown_call() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
declare @mayhem() -> void
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  call @mayhem() -> void
  %v = load i64, @g
  ret %v
}
"#,
            &["early-cse-memssa"],
            &[vec![RtVal::Int(7)]],
        );
        assert_eq!(
            count_ops(&m, "load"),
            1,
            "call may have clobbered the global"
        );
    }

    #[test]
    fn memssa_forwards_across_summarized_call() {
        // @bump writes only @h; its mod summary proves it cannot clobber @g,
        // so the store of @g still forwards into the load across the call
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
global @h : i64 x 1 mutable internal = [5:i64]
fn @bump() -> void internal {
bb0:
  %v = load i64, @h
  %n = add i64 %v, 1:i64
  store i64 %n, @h
  ret
}
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  call @bump() -> void
  %v = load i64, @g
  ret %v
}
"#,
            &["early-cse-memssa"],
            &[vec![RtVal::Int(7)]],
        );
        // only @bump's own load remains; @main's load of @g was forwarded
        assert_eq!(count_ops(&m, "load"), 1);
    }

    #[test]
    fn basic_variant_leaves_memory_alone() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  %v = load i64, @g
  ret %v
}
"#,
            &["early-cse"],
            &[vec![RtVal::Int(7)]],
        );
        assert_eq!(count_ops(&m, "load"), 1);
    }
}
