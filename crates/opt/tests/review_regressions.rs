//! Regression tests for miscompiles found by adversarial review: each case
//! was confirmed by execution before the fix.

use posetrl_ir::interp::{Interpreter, RtVal};
use posetrl_ir::parser::parse_module;
use posetrl_opt::manager::PassManager;

fn run_main(m: &posetrl_ir::Module, args: &[RtVal]) -> posetrl_ir::interp::Observation {
    Interpreter::new(m).run("main", args).observation()
}

#[test]
fn ipsccp_does_not_specialize_entry_function_args() {
    // `main` is internal, and its only module-internal call site passes 1 —
    // but the harness invokes main externally with arbitrary arguments, so
    // ipsccp must not fold %arg0 to 1.
    let text = r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %c = icmp sgt i64 %arg0, 5:i64
  condbr %c, bb1, bb2
bb1:
  %r = call @main(1:i64) -> i64
  ret %r
bb2:
  %d = add i64 %arg0, 0:i64
  ret %d
}
"#;
    let m0 = parse_module(text).unwrap();
    let before = run_main(&m0, &[RtVal::Int(3)]);
    let mut m = m0.clone();
    PassManager::new().run_pass(&mut m, "ipsccp").unwrap();
    let after = run_main(&m, &[RtVal::Int(3)]);
    assert_eq!(before, after, "entry arguments must stay unspecialized");
}

#[test]
fn memcpyopt_does_not_redirect_across_element_types() {
    // @a holds i32 cells; the (type-punned but verifier-legal) memcpy makes
    // @b's i64 cells observable, and a load redirected to @a would trap.
    let text = r#"
module "m"
global @a : i32 x 2 const internal = [7:i32, 8:i32]
global @b : i64 x 2 mutable internal = []
fn @main() -> i64 internal {
bb0:
  memcpy i64 @b, @a, 2:i64
  %v = load i64, @b
  ret %v
}
"#;
    let m0 = parse_module(text).unwrap();
    let before = run_main(&m0, &[]);
    let mut m = m0.clone();
    PassManager::new().run_pass(&mut m, "memcpyopt").unwrap();
    let after = run_main(&m, &[]);
    assert_eq!(
        before, after,
        "load must not be redirected to a differently-typed source"
    );
}

#[test]
fn zext_of_negative_narrow_value_is_exact() {
    // zext i8 -1 to i64 must be 255 in the interpreter, matching the
    // known-bits model bdce uses (the pair used to disagree).
    let text = r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %t = trunc %arg0 to i8
  %z = zext %t to i64
  %r = and i64 %z, 255:i64
  ret %r
}
"#;
    let m0 = parse_module(text).unwrap();
    let before = run_main(&m0, &[RtVal::Int(-1)]);
    assert_eq!(
        before.result,
        Ok(Some(posetrl_ir::interp::TraceArg::Int(255))),
        "zext i8 -> i64 zero-extends exactly"
    );
    let mut m = m0.clone();
    PassManager::new().run_pass(&mut m, "bdce").unwrap();
    let after = run_main(&m, &[RtVal::Int(-1)]);
    assert_eq!(
        before, after,
        "bdce's known-bits agree with the interpreter"
    );
}

#[test]
fn narrow_iv_trip_count_wraps_like_the_interpreter() {
    // an i8 induction variable wraps at 127; the unroller's trip-count
    // simulation must wrap identically or refuse to unroll
    let text = r#"
module "m"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i8 [bb0: 120:i8], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %c = icmp slt i8 %i, 126:i8
  condbr %c, bb2, bb3
bb2:
  %w = sext %i to i64
  %s2 = add i64 %s, %w
  %i2 = add i8 %i, 3:i8
  br bb1
bb3:
  ret %s
}
"#;
    let m0 = parse_module(text).unwrap();
    let before = run_main(&m0, &[]);
    for pass in ["loop-unroll", "loop-unroll-aggressive"] {
        let mut m = m0.clone();
        PassManager::new().run_pass(&mut m, pass).unwrap();
        posetrl_ir::verifier::verify_module(&m).unwrap();
        assert_eq!(before, run_main(&m, &[]), "-{pass} respects i8 wrap-around");
    }
}

#[test]
fn memory_cse_treats_memcpy_and_memset_as_range_writes() {
    // Reduced from a training-run evaluation module (perfbench train,
    // seed 402) that gvn miscompiled: the store to @a[6] was forwarded
    // to the reload across a memcpy that overwrites @a[0..8], because the
    // block-local availability table compared the memcpy's start offset
    // (0) with the cell's (6) as if the memcpy wrote one cell. The memset
    // case is the same flaw on an available load.
    let cases = [
        r#"
module "m"
global @a : i64 x 8 mutable internal = [1:i64, 2:i64, 3:i64, 4:i64, 5:i64, 6:i64, 7:i64, 8:i64]
global @b : i64 x 8 mutable internal = [10:i64, 20:i64, 30:i64, 40:i64, 50:i64, 60:i64, 70:i64, 80:i64]
fn @main() -> i64 internal {
bb0:
  %p = gep i64, @a, 6:i64
  store i64 99:i64, %p
  memcpy i64 @a, @b, 8:i64
  %v = load i64, %p
  ret %v
}
"#,
        r#"
module "m"
global @a : i64 x 8 mutable internal = [1:i64, 2:i64, 3:i64, 4:i64, 5:i64, 6:i64, 7:i64, 8:i64]
fn @main() -> i64 internal {
bb0:
  %p = gep i64, @a, 6:i64
  %u = load i64, %p
  memset i64 @a, 5:i64, 8:i64
  %v = load i64, %p
  %r = add i64 %u, %v
  ret %r
}
"#,
    ];
    for text in cases {
        let m0 = parse_module(text).unwrap();
        let before = run_main(&m0, &[]);
        for pass in ["gvn", "early-cse-memssa"] {
            let mut m = m0.clone();
            PassManager::new().run_pass(&mut m, pass).unwrap();
            assert_eq!(before, run_main(&m, &[]), "{pass} on\n{text}");
        }
    }
}
