//! Output checks: every distinct optimized module must re-verify, and its
//! `main` must return the same value and print the same trace as its input
//! under the reference interpreter.

use posetrl_ir::interp::{InterpConfig, Interpreter, Observation};
use posetrl_ir::parser::parse_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::Module;

const FUEL: u64 = 50_000_000;

/// One (input, output) pair to check, both as module text.
pub struct Pair {
    pub input: String,
    pub output: String,
}

fn observe(m: &Module) -> Observation {
    let cfg = InterpConfig {
        fuel: FUEL,
        ..InterpConfig::default()
    };
    Interpreter::with_config(m, cfg)
        .run("main", &[])
        .observation()
}

fn check_one(p: &Pair) -> Result<(), String> {
    let input = parse_module(&p.input).map_err(|e| format!("input does not parse: {e:?}"))?;
    let output = parse_module(&p.output).map_err(|e| format!("output does not parse: {e:?}"))?;
    verify_module(&output).map_err(|e| format!("output does not verify: {e}"))?;
    let before = observe(&input);
    if let Err(e) = &before.result {
        return Err(format!("input does not run to completion: {e}"));
    }
    let after = observe(&output);
    if after != before {
        return Err(format!(
            "behaviour changed: input {:?} / output {:?}",
            before.result, after.result
        ));
    }
    Ok(())
}

/// Checks every pair on `threads` threads; returns the failure messages.
pub fn check_pairs(pairs: &[Pair], threads: usize) -> Vec<String> {
    crate::util::par_map(pairs, threads, |i, p| {
        check_one(p).err().map(|e| format!("pair {i}: {e}"))
    })
    .into_iter()
    .flatten()
    .collect()
}
